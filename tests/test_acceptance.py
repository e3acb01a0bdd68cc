"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an integer identity (zero tolerance).  Each test prints a
single pass/fail line; run with ``pytest -s tests/test_acceptance.py`` to see
them.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

from tensorcat import crosscheck
from tensorcat.combination import Combination
from tensorcat.diagrams import EMPTY, Partition, gl_dimension, partitions, standard_tableau_count
from tensorcat.ext import ext_to_thick, euler_shadow, thick_target_socle
from tensorcat.grothendieck import decompose_j, decompose_word, generator_word, simple
from tensorcat.oracle import composite_orbit_rank, contract_orbit_rank
from tensorcat.ospcat import (
    ORTHOGONAL,
    SYMPLECTIC,
    PairIndex,
    osp_chains,
    osp_conjugate,
    osp_defect,
    osp_ext_to_trivial,
    osp_index,
    osp_layers_of_i,
)
from tensorcat.plethysm import EXTERIOR, SYMMETRIC, power_of_ext2, power_of_sym2
from tensorcat.poset import QuadIndex, covers, defect, defect_mirror, leq
from tensorcat.symalg import (
    corner_algebra_dimension,
    move_word_dimension,
    quadratic_kernel_check,
    quadratic_kernel_dim,
    young_scalar,
)
from tensorcat.symfunc import schur, schur_product
from quads import quads_with_sum_at_most

P = Partition


def _report(number: int, name: str, ok: bool) -> None:
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_cauchy_dimension_identities():
    failures = []
    for a in range(1, 6):
        for b in range(1, 6):
            for k in range(1, 7):
                sym_lhs = comb(a * b + k - 1, k)
                sym_rhs = sum(
                    gl_dimension(lam, a) * gl_dimension(lam, b) for lam in partitions(k)
                )
                ext_lhs = comb(a * b, k)
                ext_rhs = sum(
                    gl_dimension(lam, a) * gl_dimension(lam.conjugate(), b)
                    for lam in partitions(k)
                )
                if sym_lhs != sym_rhs or ext_lhs != ext_rhs:
                    failures.append((a, b, k))
    ok = not failures
    _report(1, "cauchy dimension identities", ok)
    assert ok, failures


def test_criterion_02_square_power_families_match_oracle():
    cases = itertools.product(("sym", "ext"), ("sym2", "ext2"), range(5), range(1, 6))
    failed = crosscheck.failures(crosscheck.square_power_agrees, cases)
    pinned = (
        power_of_ext2(2, EXTERIOR) == {P([2, 1, 1]): 1}
        and power_of_sym2(2, SYMMETRIC) == {P([4]): 1, P([2, 2]): 1}
    )
    ok = not failed and pinned
    _report(2, "square powers match brute-force plethysm", ok)
    assert ok, failed


def test_criterion_03_defect_calculus():
    elements = _quads_box(3)
    up_cache: dict[QuadIndex, list[QuadIndex]] = {}

    def longest_chain(a: QuadIndex, b: QuadIndex, memo: dict) -> int:
        if a == b:
            return 0
        key = a
        if key in memo:
            return memo[key]
        if key not in up_cache:
            up_cache[key] = covers(a, 6)
        best = -1
        for c in up_cache[key]:
            if leq(c, b):
                sub = longest_chain(c, b, memo)
                if sub >= 0:
                    best = max(best, 1 + sub)
        memo[key] = best
        return best

    comparable = 0
    failures = []
    for a in elements:
        for b in elements:
            d = defect(a, b)
            if d is None:
                continue
            comparable += 1
            if d != defect_mirror(a, b):
                failures.append(("mirror", a, b))
            if d != longest_chain(a, b, {}):
                failures.append(("chain", a, b))
    ok = not failures and comparable > 1500
    _report(3, f"defect calculus on {comparable} comparable pairs", ok)
    assert ok, failures[:5]


def _quads_box(bound: int) -> list[QuadIndex]:
    return [QuadIndex(*t) for t in itertools.product(range(bound + 1), repeat=4)]


def _all_indices(total_degree: int):
    for total in range(total_degree + 1):
        for dl in range(total + 1):
            for dm in range(total - dl + 1):
                for dn in range(total - dl - dm + 1):
                    dp = total - dl - dm - dn
                    for lam in partitions(dl):
                        for mu in partitions(dm):
                            for nu in partitions(dn):
                                for pi in partitions(dp):
                                    yield simple(lam, mu, nu, pi)


def test_criterion_04_ext_to_unit():
    failures = []
    socles = {j: thick_target_socle(j, EMPTY, EMPTY) for j in range(7)}
    for x in _all_indices(6):
        for j in range(7):
            value = ext_to_thick(x, (EMPTY, EMPTY), j)
            expected = int(
                not x.mu and not x.nu and x.lam.degree == j and x.pi == x.lam.conjugate()
            )
            if value != expected:
                failures.append(("table", x, j))
            if value != socles[j].coefficient(x):
                failures.append(("socle", x, j))
    ok = not failures
    _report(4, "ext dimensions into the unit", ok)
    assert ok, failures[:5]


def test_criterion_05_resolution_exactness_shadow():
    failures = []
    for d in range(1, 7):
        if euler_shadow(d) != {}:
            failures.append(("indices", d))
        total = Combination()
        for i in range(d + 1):
            total = total + schur_product(schur([1] * i), schur([d - i])).scale((-1) ** i)
        if total:
            failures.append(("symfunc", d))
    ok = not failures
    _report(5, "resolution exactness shadow", ok)
    assert ok, failures


def test_criterion_06_mixed_tensor_engine():
    failures = []
    for q in quads_with_sum_at_most(4):
        reference = decompose_j(q)
        if not crosscheck.tensor_word_agrees(q):
            failures.append(("oracle", q))
        word = generator_word(q)
        for ordering in set(itertools.permutations(word)):
            if decompose_word(ordering) != reference:
                failures.append(("ordering", q, ordering))
    ok = not failures
    _report(6, "tensor-word decompositions and order independence", ok)
    assert ok, failures[:5]


def test_criterion_07_hom_dimensions():
    failures = []
    for q in quads_with_sum_at_most(5):
        l, m, n, p = q
        if move_word_dimension(q, ()) != _enumerated_group_size((l, m, n, p)):
            failures.append(("end", q))
        if m >= 1 and n >= 1 and move_word_dimension(q, ("contract",)) != _enumerated_group_size(
            (l, m, n, p)
        ):
            failures.append(("contract", q))
        if m >= 1 and move_word_dimension(q, ("left",)) != _enumerated_group_size(
            (l + 1, m, n, p)
        ):
            failures.append(("shift-left", q))
        if n >= 1 and move_word_dimension(q, ("right",)) != _enumerated_group_size(
            (l, m, n, p + 1)
        ):
            failures.append(("shift-right", q))
    for q in quads_with_sum_at_most(4):
        l, m, n, p = q
        if m >= 1 and n >= 1 and contract_orbit_rank(l, m, n, p) != move_word_dimension(
            q, ("contract",)
        ):
            failures.append(("contract rank", q))
        if m >= 1 and composite_orbit_rank(l, m, n, p, moves=("left",)) != move_word_dimension(
            q, ("left",)
        ):
            failures.append(("left rank", q))
        if n >= 1 and composite_orbit_rank(l, m, n, p, moves=("right",)) != move_word_dimension(
            q, ("right",)
        ):
            failures.append(("right rank", q))
    ok = not failures
    _report(7, "hom dimensions vs explicit constructions", ok)
    assert ok, failures[:5]


def _enumerated_group_size(sizes) -> int:
    count = 1
    for size in sizes:
        count *= len(list(itertools.permutations(range(size))))
    return count


def test_criterion_08_quadratic_kernel():
    failures = []
    for entry in [(0, 2, 2, 0), (1, 2, 2, 0), (0, 2, 2, 1), (0, 3, 2, 0)]:
        q = QuadIndex(*entry)
        l, m, n, p = q
        closed = factorial(l) * factorial(m) * factorial(n) * factorial(p) // 2
        if quadratic_kernel_dim(q) != closed:
            failures.append(("dim", entry))
        if not quadratic_kernel_check(q):
            failures.append(("rank", entry))
    ok = not failures
    _report(8, "quadratic-relation kernel dimensions", ok)
    assert ok, failures


def test_criterion_09_young_symmetrizers():
    failures = []
    for n in range(6):
        for lam in partitions(n):
            h = factorial(n) // standard_tableau_count(lam)
            if not crosscheck.symmetrizer_scalar_agrees(lam) or young_scalar(lam) != h:
                failures.append(("idempotency", lam))
    for dl in range(4):
        for dp in range(4):
            for lam in partitions(dl):
                for pi in partitions(dp):
                    if corner_algebra_dimension(lam, pi) != 1:
                        failures.append(("corner", lam, pi))
    ok = not failures
    _report(9, "young symmetrizer scalars and corners", ok)
    assert ok, failures[:5]


def test_criterion_10_orthosymplectic_variant():
    failures = []
    pairs = [PairIndex(l, m) for l in range(5) for m in range(5)]
    for a in pairs:
        for b in pairs:
            d = osp_defect(a, b)
            found = osp_chains(a, b)
            if d is None:
                if found:
                    failures.append(("chains", a, b))
            elif not found or {len(c) - 1 for c in found} != {d}:
                failures.append(("chains", a, b))
    for d_lam in range(7):
        for lam in partitions(d_lam):
            for d_mu in range(7 - d_lam):
                for mu in partitions(d_mu):
                    for j in range(4):
                        x = osp_index(ORTHOGONAL, lam, mu)
                        lhs = osp_ext_to_trivial(x, j)
                        rhs = osp_ext_to_trivial(osp_conjugate(x), j)
                        if lhs != rhs:
                            failures.append(("intertwine", lam, mu, j))
    for dim_w in range(2, 6):
        for k in range(4):
            ortho = sum(gl_dimension(l_, dim_w) for l_ in osp_layers_of_i(ORTHOGONAL, k)[k])
            symp = sum(gl_dimension(l_, dim_w) for l_ in osp_layers_of_i(SYMPLECTIC, k)[k])
            if ortho != comb(dim_w * (dim_w + 1) // 2 + k - 1, k):
                failures.append(("o layer", dim_w, k))
            if symp != comb(dim_w * (dim_w - 1) // 2 + k - 1, k):
                failures.append(("sp layer", dim_w, k))
    ok = not failures
    _report(10, "orthogonal/symplectic variant", ok)
    assert ok, failures[:5]
