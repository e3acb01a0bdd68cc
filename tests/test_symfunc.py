from __future__ import annotations


import pytest

from tensorcat import symfunc
from tensorcat.combination import Combination
from tensorcat.diagrams import EMPTY, Partition, add_box, gl_dimension, partitions
from tensorcat.errors import DegreeCapExceeded
from tensorcat.oracle import decompose_into_schur, expand_schur, lr_tableaux_brute, poly_product
from tensorcat.symfunc import (
    elementary_homogeneous,
    lr_coefficient,
    schur,
    schur_product,
    schur_term_product,
)

P = Partition


def test_lr_unit_and_degree_mismatch():
    for n in range(6):
        for lam in partitions(n):
            assert lr_coefficient(lam, lam, EMPTY) == 1
            assert lr_coefficient(lam, EMPTY, lam) == 1
    assert lr_coefficient(P([2, 2]), P([1]), P([1])) == 0


def test_lr_small_value():
    assert lr_coefficient(P([2, 1]), P([1]), P([2])) == 1
    assert lr_coefficient(P([2, 1]), P([1]), P([1, 1])) == 1
    assert lr_coefficient(P([3]), P([1]), P([1, 1])) == 0
    # the classic first multiplicity-two example
    assert lr_coefficient(P([3, 2, 1]), P([2, 1]), P([2, 1])) == 2


def test_lr_symmetry_and_conjugation_covariance():
    for d in range(9):
        for lam in partitions(d):
            for d1 in range(d + 1):
                for mu in partitions(d1):
                    for nu in partitions(d - d1):
                        c = lr_coefficient(lam, mu, nu)
                        assert c == lr_coefficient(lam, nu, mu)
                        assert c == lr_coefficient(
                            lam.conjugate(), mu.conjugate(), nu.conjugate()
                        )


def test_dimension_consistency():
    for dmu in range(6):
        for dnu in range(6 - dmu):
            for mu in partitions(dmu):
                for nu in partitions(dnu):
                    for nv in range(1, 6):
                        lhs = gl_dimension(mu, nv) * gl_dimension(nu, nv)
                        rhs = sum(
                            lr_coefficient(lam, mu, nu) * gl_dimension(lam, nv)
                            for lam in partitions(dmu + dnu)
                        )
                        assert lhs == rhs


def test_product_examples():
    assert schur_term_product(P([1]), P([1])) == Combination({P([2]): 1, P([1, 1]): 1})
    assert schur_term_product(P([2, 1]), P([1])) == Combination(
        {P([3, 1]): 1, P([2, 2]): 1, P([2, 1, 1]): 1}
    )
    lam = P([3, 1])
    assert schur_term_product(lam, EMPTY) == schur(lam)


def test_pieri_one_box_matches_add_box():
    for n in range(8):
        for mu in partitions(n):
            product = schur_term_product(mu, P([1]))
            assert product == Combination({lam: 1 for lam in add_box(mu)})


def test_product_matches_monomial_oracle():
    for dmu in range(1, 6):
        for dnu in range(1, 7 - dmu):
            for mu in partitions(dmu):
                for nu in partitions(dnu):
                    nv = dmu + dnu
                    brute = decompose_into_schur(poly_product(expand_schur(mu, nv), expand_schur(nu, nv)))
                    assert schur_term_product(mu, nu) == brute, (mu, nu)


def test_product_refuses_past_cap():
    with pytest.raises(DegreeCapExceeded) as err:
        schur_term_product(P([4, 3]), P([4, 2]), cap=12)
    assert "13" in str(err.value)
    with pytest.raises(DegreeCapExceeded) as err:
        schur_product(Combination({P([1]): 1, P([4, 3]): 1}), schur([4, 2]), cap=12)
    assert "13" in str(err.value)
    assert schur_product(Combination(), schur([20]), cap=12).is_zero()  # no term pair, no refusal


def _brute_terms(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """s_mu * s_nu by the oracle's cell-filling count over every lam of the degree."""
    terms = {}
    for lam in partitions(mu.degree + nu.degree):
        if lam.contains(mu) and lam.contains(nu):
            coeff = lr_tableaux_brute(lam, mu, nu)
            if coeff:
                terms[lam] = coeff
    return terms


def test_strip_route_matches_scan_route():
    pairs = 0
    for degree in range(11):
        for d1 in range(degree + 1):
            for mu in partitions(d1):
                for nu in partitions(degree - d1):  # every ordered pair: both argument orders
                    assert schur_term_product(mu, nu) == _brute_terms(mu, nu), (mu, nu)
                    pairs += 1
    assert pairs == 1215


def test_products_do_not_scan(monkeypatch):
    mu, nu = P([4, 2, 1]), P([3, 2])
    expected = symfunc._lr_terms(mu, nu)
    symfunc._lr_strips.cache_clear()

    def refuse(*args):
        raise AssertionError("the scan route ran")

    monkeypatch.setattr(symfunc, "lr_coefficient", refuse)
    monkeypatch.setattr(symfunc, "partitions", refuse)
    assert schur_term_product(mu, nu) == expected
    assert schur_product(schur(mu), schur(nu)) == expected


def test_lr_coefficient_zero_without_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("an expansion ran")

    monkeypatch.setattr(symfunc, "_lr_strips", refuse)
    assert lr_coefficient(P([1]), P([6, 6]), P([6, 6])) == 0  # degrees do not add up
    assert lr_coefficient(P([2, 2]), P([1]), P([1])) == 0
    assert lr_coefficient(P([2, 2]), P([3]), P([1])) == 0  # lam does not contain mu
    assert lr_coefficient(P([2, 2]), P([1]), P([3])) == 0  # lam does not contain nu


def test_elementary_homogeneous():
    assert elementary_homogeneous(0) == (schur([]), schur([]))
    assert elementary_homogeneous(1) == (schur([1]), schur([1]))
    assert elementary_homogeneous(3) == (schur([1, 1, 1]), schur([3]))


def test_alternating_cauchy_kernel():
    for d in range(1, 9):
        total = Combination()
        for i in range(d + 1):
            e_i, _ = elementary_homogeneous(i)
            _, h_rest = elementary_homogeneous(d - i)
            total = total + schur_product(e_i, h_rest).scale((-1) ** i)
        assert total.is_zero(), d


def test_symfunc_arithmetic_drops_zeros():
    f = Combination({P([2]): 1}) - Combination({P([2]): 1})
    assert f.is_zero()
    assert Combination({P([1]): 0}).is_zero()


def test_concurrent_inserts_are_idempotent():
    import threading

    symfunc._lr_strips.cache_clear()
    pairs = [(mu, P([2])) for mu in partitions(2)] + [(P([2]), mu) for mu in partitions(3)]

    def worker():
        for mu, nu in pairs:
            for lam in partitions(mu.degree + nu.degree):
                lr_coefficient(lam, mu, nu)
            schur_term_product(mu, nu)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert symfunc._lr_strips.cache_info().currsize == len(pairs)
    misses = symfunc._lr_strips.cache_info().misses
    for mu, nu in pairs:
        cached = symfunc._lr_strips(mu, nu)
        for lam in partitions(mu.degree + nu.degree):
            assert cached.coefficient(lam) == lr_tableaux_brute(lam, mu, nu), (lam, mu, nu)
    assert symfunc._lr_strips.cache_info().misses == misses  # every pair was read from the cache
