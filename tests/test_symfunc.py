from __future__ import annotations


import pytest

from tensorcat import symfunc
from tensorcat.combination import Combination
from tensorcat.crosscheck import schur_product_agrees
from tensorcat.diagrams import EMPTY, Partition, add_box, gl_dimension, partitions
from tensorcat.errors import DegreeCapExceeded
from tensorcat.oracle import lr_tableaux_brute
from tensorcat.plethysm import cauchy_ext, cauchy_sym
from tensorcat.symfunc import (
    lr_coefficient,
    schur,
    schur_product,
    schur_term_product,
    slot_product,
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
                    assert schur_product_agrees(mu, nu), (mu, nu)
                    # the single-pair route, so it inherits the monomial check
                    assert schur_term_product(mu, nu) == schur_product(schur(mu), schur(nu)), (mu, nu)


def test_product_refuses_past_cap():
    with pytest.raises(DegreeCapExceeded) as err:
        schur_term_product(P([4, 3]), P([4, 2]), cap=12)
    assert "13" in str(err.value)
    with pytest.raises(DegreeCapExceeded) as err:
        schur_product(Combination({P([1]): 1, P([4, 3]): 1}), schur([4, 2]), cap=12)
    assert "13" in str(err.value)
    assert not schur_product(Combination(), schur([20]), cap=12)  # no term pair, no refusal


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


def test_product_keys_are_checked_partitions():
    # the strip search builds its keys without validation, and Combination
    # equality compares tuples only, so check what Partition() would enforce
    for degree in range(11):
        for d1 in range(degree + 1):
            for mu in partitions(d1):
                for nu in partitions(degree - d1):
                    for key in schur_term_product(mu, nu):
                        assert type(key) is Partition, (mu, nu, key)
                        assert key.degree == sum(key) == degree, (mu, nu, key)
                        assert 0 not in key, (mu, nu, key)
                        assert key == Partition(tuple(key)), (mu, nu, key)


@pytest.mark.parametrize(
    "mu, nu",
    [
        ([1] * 6, [1] * 5),
        ([2, 2, 2, 2, 1], [1, 1, 1, 1]),
        ([1, 1, 1, 1], [2, 2, 2, 2, 1]),
        ([2, 2, 1, 1, 1], [2, 1, 1, 1]),
    ],
)
def test_long_column_products_match_brute(mu, nu):
    # each pair is searched on its conjugates, which have fewer rows
    mu, nu = P(mu), P(nu)
    assert schur_term_product(mu, nu, cap=13) == _brute_terms(mu, nu)


@pytest.mark.parametrize(
    "mu, nu, largest",
    [([3, 2, 1], [3, 2, 1], 4), ([4, 3, 2, 1], [3, 2, 1], 8), ([4, 2, 1], [3, 2, 1, 1], 4)],
)
def test_merged_search_states_match_brute(mu, nu, largest):
    # coefficients above 1 count fillings that reach one shape through
    # several search states, which the strip search adds up per state
    mu, nu = P(mu), P(nu)
    degree = mu.degree + nu.degree
    for first, second in ((mu, nu), (nu, mu)):
        product = schur_term_product(first, second, cap=degree)
        for lam in partitions(degree):
            assert product.coefficient(lam) == lr_tableaux_brute(lam, mu, nu), (lam, first, second)
    assert max(product.values()) == largest


def brute_terms(mu: Partition, nu: Partition) -> dict:
    """The non-zero terms of s_mu * s_nu by the oracle's cell-filling count."""
    candidates = partitions(mu.degree + nu.degree)
    return {lam: c for lam in candidates if (c := lr_tableaux_brute(lam, mu, nu))}


def test_products_do_not_scan(monkeypatch):
    # the second pair is searched on its conjugates, which have fewer rows
    pairs = [(P([4, 2, 1]), P([3, 2])), (P([2, 1, 1, 1]), P([1, 1, 1]))]
    expected = [brute_terms(mu, nu) for mu, nu in pairs]
    ext3, sym2 = cauchy_ext(3), cauchy_sym(2)
    slot_expected = Combination()
    for (x1, x2), cx in ext3.items():
        for (y1, y2), cy in sym2.items():
            first, second = brute_terms(x1, y1), brute_terms(x2, y2)
            slot_expected += Combination(
                {(lam, pi): cx * cy * cl * cp for lam, cl in first.items() for pi, cp in second.items()}
            )
    symfunc._lr_strips.cache_clear()

    def refuse(*args):
        raise AssertionError("the scan route ran")

    monkeypatch.setattr(symfunc, "partitions", refuse)
    assert slot_product(ext3, sym2) == slot_expected
    monkeypatch.setattr(symfunc, "lr_coefficient", refuse)
    for (mu, nu), terms in zip(pairs, expected):
        assert schur_term_product(mu, nu) == terms
        assert schur_product(schur(mu), schur(nu)) == terms


def test_lr_coefficient_zero_without_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("an expansion ran")

    monkeypatch.setattr(symfunc, "_lr_strips", refuse)
    assert lr_coefficient(P([1]), P([6, 6]), P([6, 6])) == 0  # degrees do not add up
    assert lr_coefficient(P([2, 2]), P([1]), P([1])) == 0
    assert lr_coefficient(P([2, 2]), P([3]), P([1])) == 0  # lam does not contain mu
    assert lr_coefficient(P([2, 2]), P([1]), P([3])) == 0  # lam does not contain nu


def test_alternating_cauchy_kernel():
    for d in range(1, 9):
        total = Combination()
        for i in range(d + 1):
            total = total + schur_product(schur([1] * i), schur([d - i])).scale((-1) ** i)
        assert not total, d


def test_symfunc_arithmetic_drops_zeros():
    f = Combination({P([2]): 1}) - Combination({P([2]): 1})
    assert not f
    assert not Combination({P([1]): 0})


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


def test_lr_cache_memory_per_term():
    # a Partition is a bare tuple; an instance dict on each found shape
    # would add about 170 B per cached term
    import tracemalloc

    pairs = [
        (mu, nu)
        for d1 in range(9)
        for d2 in range(9 - d1)
        for mu in partitions(d1)
        for nu in partitions(d2)
    ]
    assert len(pairs) == 434
    symfunc._lr_strips.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        terms = sum(len(symfunc._lr_strips(mu, nu)) for mu, nu in pairs)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert terms == 1330
    assert used / terms < 300, used / terms
