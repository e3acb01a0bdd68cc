from __future__ import annotations

import pytest

from tensorcat.combination import Combination
from tensorcat.diagrams import EMPTY, Partition, partitions
from tensorcat.ext import (
    ext_to_thick,
    ext_vanishes,
    euler_shadow,
    image_layer,
    kernel_layer,
    thick_target_socle,
)
from tensorcat.grothendieck import thick_indices
from tensorcat.poset import QuadIndex, defect
from tensorcat.symfunc import lr_coefficient
from quads import all_indices_up_to, simple

P = Partition


def ext_to_unit(x, j):
    # the unit is the thick target indexed by two empty diagrams
    return ext_to_thick(x, (EMPTY, EMPTY), j)


def test_resolution_term_socles():
    # the resolution term Lambda^j F (x) I is the unit's thick target socle
    assert thick_target_socle(0, EMPTY, EMPTY) == Combination({simple(): 1})
    assert thick_target_socle(1, EMPTY, EMPTY) == Combination({simple(lam=[1], pi=[1]): 1})
    assert thick_target_socle(2, EMPTY, EMPTY) == Combination(
        {simple(lam=[2], pi=[1, 1]): 1, simple(lam=[1, 1], pi=[2]): 1}
    )


def test_resolution_socle_is_conjugate_pairs():
    for j in range(7):
        socle = thick_target_socle(j, EMPTY, EMPTY)
        assert socle == Combination(
            {simple(lam=g, pi=g.conjugate()): 1 for g in partitions(j)}
        )


def test_kernel_layer_base_cases():
    assert kernel_layer(0, 0) == Combination({simple(): 1})
    for k in range(1, 5):
        assert kernel_layer(0, k) == Combination()
    # degree-0 stratum of the kernel at j is the whole exterior power
    for j in range(1, 5):
        assert kernel_layer(j, 0) == Combination(
            {simple(lam=g, pi=g.conjugate()): 1 for g in partitions(j)}
        )


def test_kernel_layer_is_symmetric_square_at_j1_k1():
    # ker(F (x) F -> Lambda^2 F) is the symmetric square
    assert kernel_layer(1, 1) == Combination(
        {simple(lam=[2], pi=[2]): 1, simple(lam=[1, 1], pi=[1, 1]): 1}
    )


def test_kernel_layers_match_image_layers():
    # both layers read the one tail table, so they are the same object; that
    # the left tails equal it is exactness, stated by test_euler_shadow_vanishes
    # and checked term by term in test_layers_equal_the_direct_signed_koszul_sums
    for j in range(1, 9):
        for k in range(9 - j):
            assert image_layer(j, k, cap=16) is kernel_layer(j, k, cap=16), (j, k)


def test_layer_indices_must_be_non_negative():
    for j, k in ((0, -1), (-1, 0), (2, -1)):
        with pytest.raises(ValueError):
            kernel_layer(j, k)
    for j, k in ((1, -1), (3, -1), (0, 0)):
        with pytest.raises(ValueError):
            image_layer(j, k)


def test_kernel_plus_complement_fills_the_product():
    # Lambda^j F (x) S^k F splits into consecutive kernel layers
    from tensorcat.plethysm import cauchy_ext, cauchy_sym
    from tensorcat.symfunc import slot_product

    for j in range(1, 4):
        for k in range(1, 4):
            product = thick_indices(slot_product(cauchy_ext(j), cauchy_sym(k)))
            split = kernel_layer(j, k, cap=16) + kernel_layer(j + 1, k - 1, cap=16)
            assert product == split, (j, k)


def _schur_functor_of_product_pairs(delta: Partition, a: int, b: int):
    # evaluate the Schur polynomial of shape delta at the ab product weights
    # x_i * y_j, then decompose the two-alphabet result; this route never
    # touches the hook-row recursion it is checking
    from tensorcat.oracle import decompose_pair_into_schur, expand_schur

    weights = []
    for i in range(a):
        for j in range(b):
            w = [0] * (a + b)
            w[i] += 1
            w[a + j] += 1
            weights.append(tuple(w))
    abstract = expand_schur(delta, a * b)
    out: dict[tuple[int, ...], int] = {}
    for mono, coeff in abstract.items():
        total = [0] * (a + b)
        for var, e in enumerate(mono):
            for pos, v in enumerate(weights[var]):
                total[pos] += e * v
        key = tuple(total)
        out[key] = out.get(key, 0) + coeff
    return decompose_pair_into_schur(Combination(out), a, b)


def test_kernel_layers_match_direct_schur_functor_expansion():
    for j in range(1, 4):
        for k in range(0, 5 - j):
            delta = P([k + 1] + [1] * (j - 1))
            expected = _schur_functor_of_product_pairs(delta, 4, 4)
            layer = kernel_layer(j, k, cap=16)
            restricted = {
                (idx.lam, idx.pi): mult
                for idx, mult in layer.terms.items()
                if len(idx.lam) <= 4 and len(idx.pi) <= 4
            }
            assert restricted == expected, (j, k)


def test_hook_row_peel_refuses_a_negative_multiplicity(monkeypatch):
    # with the Koszul term F (x) F dropped, the tail at (1, 1) is -Lambda^2 F;
    # with Lambda^2 F (x) F dropped, the tail at (2, 1) is -Lambda^3 F
    from tensorcat import ext

    terms = ext._koszul_pairs
    dropped = {(1, 1), (2, 1)}
    monkeypatch.setattr(ext, "_koszul_pairs", lambda i, j: Combination() if (i, j) in dropped else terms(i, j))
    # the faulty degree-2 and degree-3 tails must not stay cached for later tests
    ext._koszul_tails.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="negative multiplicity"):
            ext.kernel_layer(1, 1)
        with pytest.raises(ArithmeticError, match=r"negative multiplicity -1 for \[1,1,1\],\[\],\[\],\[3\]"):
            ext.image_layer(2, 1)
    finally:
        ext._koszul_tails.cache_clear()


def test_layers_equal_the_direct_signed_koszul_sums():
    # each layer written as its signed sum of Lambda^i F (x) S^{d-i} F,
    # term by term, with none of the running differences it checks
    from tensorcat.plethysm import cauchy_ext, cauchy_sym
    from tensorcat.symfunc import slot_product

    def signed_sum(d, degrees, top):
        total = Combination()
        for i in degrees:
            term = slot_product(cauchy_ext(i), cauchy_sym(d - i))
            total = total - term if (i - top) % 2 else total + term
        return thick_indices(total)

    for d in range(9):
        for j in range(d + 1):
            assert kernel_layer(j, d - j, cap=16) == signed_sum(d, range(j, d + 1), j), (j, d - j)
        for j in range(1, d + 1):
            assert image_layer(j, d - j, cap=16) == signed_sum(d, range(j), j - 1), (j, d - j)
        assert euler_shadow(d) == signed_sum(d, range(d + 1), 0), d


def test_each_degree_reads_its_koszul_terms_once(monkeypatch):
    from tensorcat import ext

    calls = []
    terms = ext._koszul_pairs

    def counting(i, j):
        calls.append((i, j))
        return terms(i, j)

    monkeypatch.setattr(ext, "_koszul_pairs", counting)
    ext._koszul_tails.cache_clear()
    ext.kernel_layer(2, 4)
    assert sorted(calls) == [(i, 6 - i) for i in range(7)]
    calls.clear()
    for j in range(7):
        ext.kernel_layer(j, 6 - j)
    for j in range(1, 7):
        ext.image_layer(j, 6 - j)
    ext.euler_shadow(6)
    assert calls == []
    ext.image_layer(3, 2)
    assert len(calls) == 6


def test_euler_shadow_vanishes():
    # the degrees test_kernel_layers_match_image_layers reaches
    for d in range(1, 9):
        assert euler_shadow(d) == {}


def test_ext_to_trivial_examples():
    assert ext_to_unit(simple(lam=[1], pi=[1]), 1) == 1
    assert ext_to_unit(simple(lam=[2], pi=[2]), 2) == 0
    assert ext_to_unit(simple(), 0) == 1


def test_ext_to_trivial_characterization():
    socles = [thick_target_socle(j, EMPTY, EMPTY) for j in range(7)]
    for x in all_indices_up_to(6):
        for j in range(7):
            expected = int(
                not x.mu
                and not x.nu
                and x.lam.degree == j
                and x.pi == x.lam.conjugate()
            )
            assert ext_to_unit(x, j) == expected
            # membership in the resolution socle gives the same answer
            assert ext_to_unit(x, j) == socles[j].coefficient(x)


def test_ext_to_trivial_defect_consistency():
    origin = QuadIndex(0, 0, 0, 0)
    for x in all_indices_up_to(6):
        for j in range(7):
            if ext_to_unit(x, j):
                assert defect(x.quad, origin) == j


def test_ext_to_thick_examples():
    assert ext_to_thick(simple(lam=[1], pi=[1]), (EMPTY, EMPTY), 1) == 1
    lam, pi = P([3, 1]), P([2, 2])
    assert ext_to_thick(simple(lam=lam, pi=pi), (lam, pi), 0) == 1
    assert (
        ext_to_thick(simple(lam=[2], pi=[1, 1]), (P([1]), P([1])), 1)
        == lr_coefficient(P([2]), P([1]), P([1]))
        * lr_coefficient(P([1, 1]), P([1]), P([1]))
        == 1
    )


def test_ext_to_thick_reduces_to_trivial_target():
    for q in range(6):
        socle = thick_target_socle(q, EMPTY, EMPTY)
        for x in all_indices_up_to(5):
            assert ext_to_thick(x, (EMPTY, EMPTY), q) == socle.coefficient(x), (x, q)


def test_ext_to_thick_answers_mismatched_degrees_without_the_sum(monkeypatch):
    # the sum runs over the diagrams of degree q; it is zero unless
    # q = |lam| - |alpha| = |pi| - |beta|, so it must not be entered then
    from tensorcat import ext

    def refuse(n):
        raise AssertionError(f"partitions({n}) called")

    monkeypatch.setattr(ext, "partitions", refuse)
    cases = [
        (simple(lam=[1], pi=[1]), (EMPTY, EMPTY), 100_000),
        (simple(lam=[2], pi=[1]), (EMPTY, EMPTY), 2),
        (simple(lam=[2], pi=[2]), (P([1]), EMPTY), 1),
        (simple(lam=[1], pi=[1]), (P([1]), P([1])), 1),
        (simple(lam=[1], mu=[1], pi=[1]), (EMPTY, EMPTY), 1),
    ]
    for x, target, q in cases:
        assert ext_to_thick(x, target, q) == 0, (x, target, q)


def test_ext_to_thick_matches_independent_socle_expansion():
    targets = [
        (EMPTY, EMPTY),
        (P([1]), P([1])),
        (P([2]), P([1])),
        (P([1, 1]), EMPTY),
    ]
    for alpha, beta in targets:
        for q in range(4):
            socle = thick_target_socle(q, alpha, beta)
            for x, mult in socle.items():
                assert ext_to_thick(x, (alpha, beta), q) == mult
            # thick indices outside the socle get zero
            for x in all_indices_up_to(4):
                if x.is_thick() and socle.coefficient(x) == 0:
                    assert ext_to_thick(x, (alpha, beta), q) == 0


def test_ext_to_thick_mixed_sources():
    # a mixed source is never comparable to a purely thick target (its thin
    # degrees would have to drop to zero), so vanishing is guaranteed in every
    # homological degree and the closed form never needs to answer "unknown"
    for mixed in (simple(mu=[1], nu=[1]), simple(lam=[1], mu=[1]), simple(nu=[2], pi=[1])):
        for q in range(4):
            assert ext_to_thick(mixed, (EMPTY, EMPTY), q) == 0
            assert ext_to_thick(mixed, (P([1]), P([1])), q) == 0
            assert defect(mixed.quad, QuadIndex(0, 0, 0, 0)) is None


def test_ext_to_thick_nonzero_forces_defect():
    for x in all_indices_up_to(4):
        if not x.is_thick():
            continue
        for alpha in partitions(1) + partitions(0):
            for beta in partitions(1) + partitions(0):
                t = QuadIndex(alpha.degree, 0, 0, beta.degree)
                for q in range(5):
                    value = ext_to_thick(x, (alpha, beta), q)
                    if value:
                        assert defect(x.quad, t) == q


def test_ext_vanishes():
    assert ext_vanishes(simple(lam=[1], pi=[1]), simple(), 2)
    assert not ext_vanishes(simple(), simple(), 0)
    assert not ext_vanishes(simple(lam=[1], pi=[1]), simple(), 1)
    # incomparable pair vanishes in every degree
    a, b = simple(mu=[1]), simple(lam=[1])
    for q in range(4):
        assert ext_vanishes(a, b, q)


def test_sharpness_against_trivial_table():
    origin = simple()
    for x in all_indices_up_to(5):
        for q in range(6):
            if ext_to_unit(x, q):
                assert not ext_vanishes(x, origin, q)


def test_each_degree_shares_one_index_object_per_shape():
    # the kernel and image layers of one degree are tails of one Koszul
    # complex, and every tail reads its thick indices from one table
    for d in range(7):
        layers = [kernel_layer(j, d - j) for j in range(d + 1)] + [image_layer(j, d - j) for j in range(1, d + 1)]
        seen = {}
        for layer in layers:
            for x in layer:
                assert seen.setdefault(x, x) is x, (d, x)
