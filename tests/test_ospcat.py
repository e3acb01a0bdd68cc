from __future__ import annotations

from math import comb

import pytest

from tensorcat import ospcat
from tensorcat.diagrams import EMPTY, Partition, gl_dimension, partitions
from tensorcat.oracle import brute_force_plethysm
from tensorcat.ospcat import (
    ORTHOGONAL,
    SYMPLECTIC,
    OspIndex,
    PairIndex,
    osp_chains,
    osp_conjugate,
    osp_defect,
    osp_ext_to_trivial,
    osp_index,
    osp_layers_of_i,
    osp_leq,
    osp_resolution_socle,
)

P = Partition


def pair_box(bound: int) -> list[PairIndex]:
    return [PairIndex(l, m) for l in range(bound + 1) for m in range(bound + 1)]


def test_leq_examples():
    assert osp_leq(PairIndex(1, 0), PairIndex(0, 1))
    assert osp_defect(PairIndex(1, 0), PairIndex(0, 1)) == 1
    assert not osp_leq(PairIndex(0, 1), PairIndex(1, 0))
    assert osp_defect(PairIndex(2, 3), PairIndex(2, 3)) == 0


def test_parity_obstruction():
    assert not osp_leq(PairIndex(1, 0), PairIndex(0, 0))
    assert osp_leq(PairIndex(2, 0), PairIndex(0, 0))
    assert osp_leq(PairIndex(0, 0), PairIndex(0, 2))


def test_order_axioms():
    elements = pair_box(4)
    for a in elements:
        assert osp_leq(a, a)
    for a in elements:
        for b in elements:
            if osp_leq(a, b) and osp_leq(b, a):
                assert a == b
            for c in elements:
                if osp_leq(a, b) and osp_leq(b, c):
                    assert osp_leq(a, c)


def test_defect_equals_brute_force_chains():
    elements = pair_box(4)
    for a in elements:
        for b in elements:
            d = osp_defect(a, b)
            found = osp_chains(a, b)
            if d is None:
                assert found == []
            else:
                assert found, (a, b)
                assert {len(c) - 1 for c in found} == {d}, (a, b)


def test_osp_chains_do_not_call_osp_leq(monkeypatch):
    # the chains compare the parity once and walk b's box, a route to the defect of their own
    elements = pair_box(4)
    expected = {(a, b): osp_chains(a, b) for a in elements for b in elements}

    def refuse(a, b):
        raise AssertionError("osp_leq was called")

    monkeypatch.setattr(ospcat, "osp_leq", refuse)
    assert {(a, b): osp_chains(a, b) for a in elements for b in elements} == expected


def test_layers_examples():
    assert osp_layers_of_i(ORTHOGONAL, 1)[1] == {P([2]): 1}
    assert osp_layers_of_i(SYMPLECTIC, 1)[1] == {P([1, 1]): 1}
    assert osp_layers_of_i(ORTHOGONAL, 2)[2] == {P([4]): 1, P([2, 2]): 1}
    assert osp_layers_of_i(SYMPLECTIC, 0) == [{EMPTY: 1}]


def test_layer_dimension_counts():
    for dim_w in range(2, 6):
        for k in range(4):
            ortho_total = sum(
                gl_dimension(lam, dim_w) for lam in osp_layers_of_i(ORTHOGONAL, k)[k]
            )
            assert ortho_total == comb(dim_w * (dim_w + 1) // 2 + k - 1, k)
            symp_total = sum(
                gl_dimension(lam, dim_w) for lam in osp_layers_of_i(SYMPLECTIC, k)[k]
            )
            assert symp_total == comb(dim_w * (dim_w - 1) // 2 + k - 1, k)


def test_resolution_socles_match_brute_force_exterior_powers():
    for j in range(4):
        ortho = {
            lam: mult
            for lam, mult in osp_resolution_socle(ORTHOGONAL, j).items()
            if len(lam) <= 5
        }
        assert ortho == brute_force_plethysm("ext", j, "sym2", 5).terms
        symp = {
            lam: mult
            for lam, mult in osp_resolution_socle(SYMPLECTIC, j).items()
            if len(lam) <= 5
        }
        assert symp == brute_force_plethysm("ext", j, "ext2", 5).terms


def test_ext_to_trivial_values():
    # degree 4, slot 2: the alternating square route keeps the special diagram,
    # the symmetric square route keeps its conjugate
    assert osp_ext_to_trivial(osp_index(SYMPLECTIC, [2, 1, 1]), 2) == 1
    assert osp_ext_to_trivial(osp_index(ORTHOGONAL, [3, 1]), 2) == 1
    assert osp_ext_to_trivial(osp_index(ORTHOGONAL, [2, 1, 1]), 2) == 0
    assert osp_ext_to_trivial(osp_index(SYMPLECTIC, [3, 1]), 2) == 0
    for kind in (ORTHOGONAL, SYMPLECTIC):
        assert osp_ext_to_trivial(osp_index(kind, [], [1]), 0) == 0
        assert osp_ext_to_trivial(osp_index(kind), 0) == 1


def test_ext_to_trivial_matches_resolution_socle():
    for kind in (ORTHOGONAL, SYMPLECTIC):
        for j in range(4):
            socle = osp_resolution_socle(kind, j)
            for d in range(9):
                for lam in partitions(d):
                    value = osp_ext_to_trivial(osp_index(kind, lam), j)
                    assert value == socle.get(lam, 0), (kind, j, lam)


def test_conjugate_examples():
    assert osp_conjugate(osp_index(ORTHOGONAL, [2])) == OspIndex(SYMPLECTIC, P([1, 1]), EMPTY)
    assert osp_conjugate(osp_index(ORTHOGONAL, [], [2, 1])) == OspIndex(
        SYMPLECTIC, EMPTY, P([2, 1])
    )
    for kind in (ORTHOGONAL, SYMPLECTIC):
        for d in range(5):
            for lam in partitions(d):
                x = osp_index(kind, lam, [1])
                assert osp_conjugate(osp_conjugate(x)) == x


def test_conjugation_intertwines_ext():
    for d in range(7):
        for lam in partitions(d):
            for mu_deg in range(2):
                for mu in partitions(mu_deg):
                    for j in range(4):
                        x = osp_index(ORTHOGONAL, lam, mu)
                        lhs = osp_ext_to_trivial(x, j)
                        rhs = osp_ext_to_trivial(osp_conjugate(x), j)
                        assert lhs == rhs, (lam, mu, j)


def test_kind_validation():
    with pytest.raises(ValueError):
        osp_index("bogus", [1])
    with pytest.raises(ValueError):
        osp_layers_of_i("bogus", 1)
