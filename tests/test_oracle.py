from __future__ import annotations

import pytest

from tensorcat.combination import Combination
from tensorcat.diagrams import EMPTY, Partition, partitions
from tensorcat.errors import LimitExceeded
from tensorcat.oracle import (
    brute_force_cauchy,
    brute_force_plethysm,
    composite_orbit_rank,
    decompose_into_schur,
    decompose_pair_into_schur,
    expand_schur,
    poly_product,
    rational_dimension,
    reconstruct_tensor_word,
    stable_mixed_tensor,
    standard_tableaux_brute,
)
from quads import imports, package_trees

P = Partition


def test_expand_schur_examples():
    assert expand_schur(P([1]), 2) == {(1, 0): 1, (0, 1): 1}
    assert expand_schur(P([2]), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert not expand_schur(P([1, 1, 1]), 2)


def test_roundtrip_decomposition():
    for n in range(7):
        for lam in partitions(n):
            for nv in range(1, 6):
                poly = expand_schur(lam, nv)
                decomposed = decompose_into_schur(poly)
                if len(lam) <= nv:
                    assert decomposed == Combination({lam: 1})
                else:
                    assert not decomposed


def test_decompose_handles_hand_expansions():
    # (x1+x2)^2 = s_2 + s_11
    square = Combination({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert decompose_into_schur(square) == Combination({P([2]): 1, P([1, 1]): 1})
    # e2 * e1 in three variables
    e2 = expand_schur(P([1, 1]), 3)
    e1 = expand_schur(P([1]), 3)
    assert decompose_into_schur(poly_product(e2, e1)) == Combination({P([2, 1]): 1, P([1, 1, 1]): 1})


def test_decompose_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        decompose_into_schur(Combination({(1, 0): 1}))
    with pytest.raises(ValueError):
        decompose_into_schur(Combination({(2, 1, 0): 1, (0, 1, 2): 1}))
    with pytest.raises(ValueError):  # three variables are not two alphabets of one
        decompose_pair_into_schur(expand_schur(P([1]), 3), 1, 1)
    # two alphabets of two: x1 is symmetric in neither, x1 + x2 + y1 not in the second
    with pytest.raises(ValueError):
        decompose_pair_into_schur(Combination({(1, 0, 0, 0): 1}), 2, 2)
    with pytest.raises(ValueError):
        decompose_pair_into_schur(Combination({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1}), 2, 2)


def test_decompose_virtual_characters():
    # s_2 - s_11 is a virtual character: decomposed as is, refused by require_nonnegative
    virtual = expand_schur(P([2]), 3) - expand_schur(P([1, 1]), 3)
    assert decompose_into_schur(virtual) == Combination({P([2]): 1, P([1, 1]): -1})
    with pytest.raises(ArithmeticError):
        decompose_into_schur(virtual).require_nonnegative()


def test_pair_decomposition_roundtrip():
    for da in range(4):
        for db in range(4):
            for lam in partitions(da):
                for mu in partitions(db):
                    if len(lam) > 2 or len(mu) > 2:
                        continue
                    sx = expand_schur(lam, 2)
                    sy = expand_schur(mu, 2)
                    product = {}
                    for mx, cx in sx.items():
                        for my, cy in sy.items():
                            product[mx + my] = product.get(mx + my, 0) + cx * cy
                    poly = Combination(product)
                    assert decompose_pair_into_schur(poly, 2, 2) == {(lam, mu): 1}


def test_plethysm_identity_cases():
    for nv in range(2, 5):
        natural = {(tuple(1 if i == j else 0 for i in range(nv))): 1 for j in range(nv)}
        sym1 = brute_force_plethysm("sym", 1, "sym2", nv)
        expected = decompose_into_schur(
            Combination(_sym2_character(nv))
        )
        assert sym1 == expected


def _sym2_character(nv: int) -> dict:
    out = {}
    for i in range(nv):
        for j in range(i, nv):
            w = [0] * nv
            w[i] += 1
            w[j] += 1
            out[tuple(w)] = out.get(tuple(w), 0) + 1
    return out


def test_plethysm_guard():
    with pytest.raises(LimitExceeded, match="plethysm power 5 exceeds the fixed limit 4"):
        brute_force_plethysm("sym", 5, "sym2", 3)
    with pytest.raises(LimitExceeded, match="cauchy a-space variables 6 exceeds the fixed limit 5"):
        brute_force_cauchy("sym", 2, 6, 2)
    # each message names the quantity that is over and that quantity's own limit
    with pytest.raises(LimitExceeded, match="cauchy power 5 exceeds the fixed limit 4"):
        brute_force_cauchy("sym", 5, 1, 1)
    with pytest.raises(LimitExceeded, match="plethysm power 5 exceeds the fixed limit 4"):
        brute_force_plethysm("sym", 5, "sym2", 7)
    with pytest.raises(LimitExceeded, match="plethysm variables 7 exceeds the fixed limit 6"):
        brute_force_plethysm("sym", 2, "sym2", 7)


def test_schur_expansion_guard():
    with pytest.raises(LimitExceeded, match="schur expansion boxes 9 exceeds the fixed limit 8"):
        expand_schur(P([9]), 2)
    with pytest.raises(LimitExceeded, match="schur expansion variables 17 exceeds the fixed limit 16"):
        expand_schur(P([1]), 17)
    # both limits admit their own value
    assert expand_schur(P([8]), 1) == {(8,): 1}
    assert sum(expand_schur(P([1]), 16).values()) == 16


def test_orbit_rank_guard():
    with pytest.raises(LimitExceeded, match="orbit rank slots 6 exceeds the fixed limit 5"):
        composite_orbit_rank(0, 3, 3, 0, moves=("contract", "contract"))


def test_orbit_rank_rejects_unknown_moves():
    # a misspelt move must not fall through to "right"
    for moves in [("bogus",), ("contract", "bogus"), ("left", "Right")]:
        with pytest.raises(ValueError, match="unknown move"):
            composite_orbit_rank(0, 1, 1, 0, moves=moves)


def test_negative_slot_counts_are_refused():
    # refused before any work, naming the negative entry
    calls = [
        (lambda: composite_orbit_rank(0, 0, 0, -2, moves=()), "p is -2"),
        (lambda: composite_orbit_rank(-1, 2, 1, 0, moves=("contract",)), "l is -1"),
        (lambda: stable_mixed_tensor(-1, 2), "m is -1"),
        (lambda: reconstruct_tensor_word(-1, 1, 0, 0), "l is -1"),
    ]
    for call, entry in calls:
        with pytest.raises(ValueError, match=f"entries must be non-negative: {entry}"):
            call()


def test_stable_mixed_tensor_examples():
    assert stable_mixed_tensor(1, 1) == {(P([1]), P([1])): 1, (EMPTY, EMPTY): 1}
    assert stable_mixed_tensor(0, 2) == {(EMPTY, P([2])): 1, (EMPTY, P([1, 1])): 1}
    assert stable_mixed_tensor(0, 0) == {(EMPTY, EMPTY): 1}


def test_stable_mixed_tensor_stability_in_rank():
    for m in range(4):
        for n in range(4 - m):
            base = 2 * (m + n)
            at_bound = stable_mixed_tensor(m, n, max(1, base))
            above = stable_mixed_tensor(m, n, base + 1)
            assert at_bound == above, (m, n)


def test_stable_mixed_tensor_rejects_small_rank():
    with pytest.raises(ValueError):
        stable_mixed_tensor(1, 1, 3)


def test_stable_mixed_tensor_dimensions():
    # total dimension over GL(N) equals N^(m+n)
    for m in range(3):
        for n in range(3 - m):
            nv = max(1, 2 * (m + n))
            total = sum(
                mult * rational_dimension(mu, nu, nv)
                for (mu, nu), mult in stable_mixed_tensor(m, n).items()
            )
            assert total == nv ** (m + n)


def test_standard_tableaux_brute():
    assert standard_tableaux_brute(EMPTY) == 1
    assert standard_tableaux_brute(P([3])) == 1
    assert standard_tableaux_brute(P([2, 1])) == 2
    assert standard_tableaux_brute(P([2, 2])) == 2
    assert standard_tableaux_brute(P([3, 2])) == 5


def test_rational_dimension():
    assert rational_dimension(EMPTY, EMPTY, 4) == 1
    assert rational_dimension(P([1]), P([1]), 3) == 8  # adjoint of GL(3)
    assert rational_dimension(EMPTY, P([2]), 3) == 6
    assert rational_dimension(P([1]), EMPTY, 3) == 3


# the oracle may share data types and primitives with the engine, never a route
ORACLE_MAY_IMPORT = {
    "combination": {"Combination"},
    "diagrams": {"Partition", "gl_dimension", "partitions"},
    "config": {"check_limit"},
    "linalg": {"rank_of_rows"},
    "grothendieck": {"SimpleIndex"},
}
ENGINE_ROUTES = {"symfunc", "plethysm", "ext", "ospcat", "poset", "cli"}


def test_oracle_imports_no_engine_route():
    imported = []  # (module below tensorcat, name), name None for a whole module
    for _, module, name in imports(package_trees()["oracle"]):
        if module == "tensorcat" and name:
            module, name = f"tensorcat.{name}", None  # from . import x
        if module.split(".")[0] == "tensorcat":
            imported.append((module.removeprefix("tensorcat."), name))
    assert imported
    for module, name in imported:
        top = module.split(".")[0]
        assert top not in ENGINE_ROUTES, (module, name)
        assert top in ORACLE_MAY_IMPORT, (module, name)
        allowed = ORACLE_MAY_IMPORT[top]
        assert name in allowed, (module, name)
