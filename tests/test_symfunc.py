from __future__ import annotations

from math import comb

import pytest

from tensorcat import symfunc
from tensorcat.combination import Combination
from tensorcat.crosscheck import schur_product_agrees
from tensorcat.diagrams import EMPTY, Partition, add_box, gl_dimension, partitions
from tensorcat.errors import LimitExceeded
from tensorcat.oracle import lr_tableaux_brute, standard_tableaux_brute
from tensorcat.plethysm import cauchy_ext, cauchy_sym
from tensorcat.symfunc import (
    lr_coefficient,
    schur_term_product,
    slot_product,
)
from quads import brute_terms

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
    assert schur_term_product(lam, EMPTY) == Combination({lam: 1})


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


def test_product_refuses_past_cap():
    with pytest.raises(LimitExceeded) as err:
        schur_term_product(P([4, 3]), P([4, 2]), cap=12)
    assert "13" in str(err.value)


def test_strip_route_matches_scan_route():
    pairs = 0
    for degree in range(11):
        for d1 in range(degree + 1):
            for mu in partitions(d1):
                for nu in partitions(degree - d1):  # every ordered pair: both argument orders
                    assert schur_term_product(mu, nu) == brute_terms(mu, nu), (mu, nu)
                    pairs += 1
    assert pairs == 1215


def test_products_above_degree_ten_keep_the_tableau_count():
    # s_mu * s_nu sums the f^lam of its terms to the shuffles of a tableau of shape mu with
    # one of shape nu: every ordered pair of degree 11 to 14, with f from the oracle's count
    pairs = 0
    for degree in range(11, 15):
        for d1 in range(degree + 1):
            for mu in partitions(d1):
                for nu in partitions(degree - d1):
                    terms = schur_term_product(mu, nu, cap=degree)
                    total = sum(c * standard_tableaux_brute(lam) for lam, c in terms.items())
                    assert total == comb(degree, d1) * standard_tableaux_brute(mu) * standard_tableaux_brute(nu)
                    pairs += 1
    assert pairs == 6352


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
    assert schur_term_product(mu, nu, cap=13) == brute_terms(mu, nu)


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
            total = total + schur_term_product(P([1] * i), P([d - i])).scale((-1) ** i)
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
    # would add about 170 B per cached term.  Up to degree 12 the 20,780
    # terms name at most 272 shapes, and the shape table holds one object
    # for each: a copy per term would add about 80 B per term.
    import tracemalloc

    for cap, count, total, bound in ((8, 434, 1330, 300), (12, 3132, 20780, 100)):
        pairs = [
            (mu, nu)
            for d1 in range(cap + 1)
            for d2 in range(cap + 1 - d1)
            for mu in partitions(d1)
            for nu in partitions(d2)
        ]
        assert len(pairs) == count
        symfunc._lr_strips.cache_clear()
        symfunc._SHAPES.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            terms = sum(len(symfunc._lr_strips(mu, nu)) for mu, nu in pairs)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert terms == total
        assert used / terms < bound, (cap, used / terms)


def test_equal_shapes_are_one_object():
    # s_[1]*s_[1,1], s_[2]*s_[1] and s_[1,1]*s_[1] all find [2,1]; the
    # conjugate search (s_[1,1]*s_[1,1]) finds [2,2] as s_[2,1]*s_[1] does
    seen = {}
    for mu, nu in [([1], [1, 1]), ([2], [1]), ([1, 1], [1]), ([1, 1], [1, 1]), ([2, 1], [1])]:
        for lam in symfunc._lr_strips(P(mu), P(nu)):
            assert seen.setdefault(lam, lam) is lam, (mu, nu, lam)
    assert P([2, 1]) in seen and P([2, 2]) in seen


def test_cold_expansions_leave_no_reference_cycles():
    # the search's states and strips must be freed by reference counting, not by the collector
    import gc

    pairs = [(mu, nu) for d1 in range(9) for d2 in range(9 - d1) for mu in partitions(d1) for nu in partitions(d2)]
    assert len(pairs) == 434
    symfunc._lr_strips.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for mu, nu in pairs:
            symfunc._lr_strips(mu, nu)
        assert gc.collect() == 0
    finally:
        gc.enable()
