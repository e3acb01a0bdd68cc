from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

import pytest

from tensorcat.diagrams import Partition, partitions, standard_tableau_count
from tensorcat.errors import GuardExceeded, LimitExceeded
from tensorcat.oracle import composite_orbit_rank, contract_orbit_rank
from tensorcat.poset import QuadIndex
from tensorcat.symalg import (
    GroupAlgebraElement,
    composition_domain_dimension,
    corner_algebra_dimension,
    identity_perm,
    move_word_dimension,
    perm_sign,
    quadratic_kernel_check,
    quadratic_kernel_dim,
    young_scalar,
    young_symmetrizer,
)

P = Partition


def quads_with_sum_at_most(bound: int) -> list[QuadIndex]:
    out = []
    for total in range(bound + 1):
        for split in itertools.product(range(total + 1), repeat=4):
            if sum(split) == total:
                out.append(QuadIndex(*split))
    return out


def test_perm_utilities():
    assert perm_sign(identity_perm(4)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


def test_young_symmetrizer_row_and_column_cases():
    c_row = young_symmetrizer(P([2]))
    assert c_row.coeffs == {((0, 1),): Fraction(1), ((1, 0),): Fraction(1)}
    c_col = young_symmetrizer(P([1, 1]))
    assert c_col.coeffs == {((0, 1),): Fraction(1), ((1, 0),): Fraction(-1)}
    assert (c_row * c_row) == c_row.scale(2)
    assert (c_col * c_col) == c_col.scale(2)


def test_young_symmetrizer_hook_case():
    c = young_symmetrizer(P([2, 1]))
    assert c * c == c.scale(3)  # 3!/f = 6/2


def test_quasi_idempotency_up_to_five_boxes():
    for n in range(6):
        for lam in partitions(n):
            c = young_symmetrizer(lam)
            h = young_scalar(lam)
            assert c * c == c.scale(h), lam
            assert h * standard_tableau_count(lam) == factorial(n)


def test_symmetrizer_guard():
    with pytest.raises(LimitExceeded, match="symmetrizer boxes 7 exceeds the fixed limit 6"):
        young_symmetrizer(P([4, 3]))


def test_corner_algebra_is_one_dimensional():
    for dl in range(4):
        for dp in range(4):
            for lam in partitions(dl):
                for pi in partitions(dp):
                    assert corner_algebra_dimension(lam, pi) == 1, (lam, pi)
    # one-sided corners at four boxes
    for lam in partitions(4):
        assert corner_algebra_dimension(lam, P([])) == 1, lam


def test_distinct_projectors_give_independent_corners():
    # different diagram pairs produce non-conjugate projectors; the mixed
    # corner c_lam . g . c_mu sums to zero when lam and mu differ
    c2 = young_symmetrizer(P([2]))
    c11 = young_symmetrizer(P([1, 1]))
    total = GroupAlgebraElement((2,))
    for g in itertools.permutations(range(2)):
        total = total + (c2 * GroupAlgebraElement.of((2,), (g,)) * c11)
    assert total.is_zero()


def test_end_dimension():
    assert move_word_dimension(QuadIndex(0, 0, 0, 0), ()) == 1
    assert move_word_dimension(QuadIndex(2, 1, 0, 0), ()) == 2
    assert move_word_dimension(QuadIndex(2, 2, 1, 1), ()) == 4
    assert move_word_dimension(QuadIndex(3, 2, 2, 1), ()) == 24


def test_end_dimension_counts_group_elements():
    for q in quads_with_sum_at_most(5):
        count = 1
        for size in q:
            count *= len(list(itertools.permutations(range(size))))
        assert move_word_dimension(q, ()) == count


def test_hom_dimension_examples():
    assert move_word_dimension(QuadIndex(0, 1, 1, 0), ("contract",)) == 1
    assert move_word_dimension(QuadIndex(0, 1, 0, 0), ("left",)) == 1
    assert move_word_dimension(QuadIndex(1, 2, 1, 0), ("left",)) == 4


def test_hom_dimension_counts_induced_bases():
    for q in quads_with_sum_at_most(5):
        l, m, n, p = q
        if m >= 1 and n >= 1:
            assert move_word_dimension(q, ("contract",)) == _group_size((l, m, n, p))
        if m >= 1:
            assert move_word_dimension(q, ("left",)) == _group_size((l + 1, m, n, p))
        if n >= 1:
            assert move_word_dimension(q, ("right",)) == _group_size((l, m, n, p + 1))


def _group_size(sizes) -> int:
    count = 1
    for size in sizes:
        count *= len(list(itertools.permutations(range(size))))
    return count


def test_hom_dimension_inapplicable_flavors():
    with pytest.raises(ValueError, match="n"):
        move_word_dimension(QuadIndex(0, 1, 0, 0), ("contract",))
    with pytest.raises(ValueError, match="m"):
        move_word_dimension(QuadIndex(1, 0, 1, 0), ("left",))
    with pytest.raises(ValueError, match="n"):
        move_word_dimension(QuadIndex(1, 1, 0, 1), ("right",))


def test_hom_dimension_matches_operator_orbit_ranks():
    for q in quads_with_sum_at_most(4):
        l, m, n, p = q
        if m >= 1 and n >= 1:
            assert contract_orbit_rank(l, m, n, p) == move_word_dimension(q, ("contract",)), q
        if m >= 1:
            assert composite_orbit_rank(l, m, n, p, moves=("left",)) == move_word_dimension(q, ("left",)), q
        if n >= 1:
            assert composite_orbit_rank(l, m, n, p, moves=("right",)) == move_word_dimension(q, ("right",)), q


def test_quadratic_kernel_dims():
    assert quadratic_kernel_dim(QuadIndex(0, 2, 2, 0)) == 2
    assert quadratic_kernel_dim(QuadIndex(1, 2, 2, 0)) == 2
    assert quadratic_kernel_dim(QuadIndex(0, 2, 2, 1)) == 2
    assert quadratic_kernel_dim(QuadIndex(0, 3, 2, 0)) == 6
    with pytest.raises(ValueError):
        quadratic_kernel_dim(QuadIndex(0, 1, 2, 0))


def test_quadratic_kernel_explicit_row_reduction():
    for q in [(0, 2, 2, 0), (1, 2, 2, 0), (0, 2, 2, 1), (0, 3, 2, 0)]:
        assert quadratic_kernel_check(QuadIndex(*q))


def test_quadratic_kernel_guard():
    with pytest.raises(GuardExceeded):
        quadratic_kernel_check(QuadIndex(3, 2, 2, 2))
    assert quadratic_kernel_check(QuadIndex(3, 2, 2, 2), guard=9)


COMPOSITION_MOVES = {
    "contract,contract": ("contract", "contract"),
    "left,left": ("left", "left"),
    "right,right": ("right", "right"),
    "contract,left": ("contract", "left"),
    "contract,right": ("contract", "right"),
    "left,right": ("left", "right"),
}


def test_composition_domain_dimensions():
    q = QuadIndex(1, 2, 2, 1)
    assert composition_domain_dimension("contract,contract", q) == 4
    assert composition_domain_dimension("left,left", q) == 24
    assert composition_domain_dimension("right,right", q) == 24
    assert composition_domain_dimension("contract,left", q) == 16
    assert composition_domain_dimension("contract,right", q) == 16
    assert composition_domain_dimension("left,right", q) == 32
    with pytest.raises(ValueError):
        composition_domain_dimension("contract,contract", QuadIndex(0, 1, 2, 0))
    with pytest.raises(ValueError):
        composition_domain_dimension("bogus", q)


def test_composition_accounting_small_indices():
    # domain minus (empirical) codomain is a non-negative kernel everywhere;
    # only the double contraction has a closed form to compare against
    for q in quads_with_sum_at_most(4):
        for kind, moves in COMPOSITION_MOVES.items():
            try:
                domain = composition_domain_dimension(kind, q)
            except ValueError:
                continue
            codomain = composite_orbit_rank(*q, moves=moves)
            kernel = domain - codomain
            assert kernel >= 0, (q, kind)
            if kind == "contract,contract":
                assert kernel == quadratic_kernel_dim(q), q


def test_group_algebra_arithmetic():
    a = GroupAlgebraElement.unit((2, 1))
    b = GroupAlgebraElement.of((2, 1), ((1, 0), (0,)))
    assert (a + b) - a == b
    assert b * b == a
    assert (a - a).is_zero()
