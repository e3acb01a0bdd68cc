from __future__ import annotations

import ast
import itertools
import random
from fractions import Fraction
from math import factorial, lcm, prod

import pytest

from tensorcat import linalg, symalg
from tensorcat.crosscheck import symmetrizer_scalar_agrees
from tensorcat.diagrams import Partition, partitions, standard_tableau_count
from tensorcat.errors import LimitExceeded
from tensorcat.linalg import rank_of_rows
from tensorcat.oracle import composite_orbit_rank
from tensorcat.poset import QuadIndex
from tensorcat.symalg import (
    GroupAlgebraElement,
    _corner_rank,
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
from quads import (ROOT, group_size, identifier, importers, imports, owned_nodes, package_sources, package_trees,
                   quads_with_sum_at_most)

P = Partition


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


def _filling_blocks(lam: Partition) -> tuple[list[list[int]], list[list[int]]]:
    """The rows and the columns of the canonical filling of ``lam``: boxes numbered 0..n-1 row by row."""
    conj = lam.conjugate()
    rows = [list(range(sum(lam[:i]), sum(lam[: i + 1]))) for i in range(len(lam))]
    return rows, [[rows[i][j] for i in range(conj[j])] for j in range(len(conj))]


def test_stabilizer_perms_are_exactly_the_block_stabilizers():
    for n in range(7):
        for lam in partitions(n):
            for blocks in _filling_blocks(lam):
                found = list(symalg._stabilizer_perms(blocks, n))
                expected = {p for p in itertools.permutations(range(n))
                            if all(p[i] in block for block in blocks for i in block)}
                assert len(set(found)) == len(found), (lam, blocks)
                assert set(found) == expected, (lam, blocks)
                assert len(found) == prod(factorial(len(block)) for block in blocks), (lam, blocks)


def test_young_symmetrizer_is_row_sum_times_column_sum():
    for n in range(7):
        for lam in partitions(n):
            rows, columns = _filling_blocks(lam)
            row_sum = GroupAlgebraElement((n,), {(p,): 1 for p in symalg._stabilizer_perms(rows, n)})
            col_sum = GroupAlgebraElement((n,), {(p,): perm_sign(p) for p in symalg._stabilizer_perms(columns, n)})
            c = young_symmetrizer(lam)
            assert c == row_sum * col_sum, lam
            assert list(c.coeffs) == list((row_sum * col_sum).coeffs), lam
            assert all(type(v) is Fraction for v in c.coeffs.values()), lam


def test_symmetrizers_share_one_key_table_that_the_kernel_check_leaves_alone():
    symalg._group_keys.cache_clear()
    c, d = young_symmetrizer(P([3, 2])), young_symmetrizer(P([2, 2, 1]))
    table = symalg._group_keys(5)
    assert all(key is table[key[0]] for e in (c, d) for key in e.coeffs)
    assert len({id(v) for e in (c, d) for v in e.coeffs.values()}) == 2  # one Fraction per sign
    # the kernel's slots reach S_8 under the default guard, too large to keep
    size = symalg._group_keys.cache_info().currsize
    assert quadratic_kernel_check(QuadIndex(0, 4, 4, 0))
    assert symalg._group_keys.cache_info().currsize == size == 1


def test_young_symmetrizer_hook_case():
    c = young_symmetrizer(P([2, 1]))
    assert c * c == c.scale(3)  # 3!/f = 6/2


def test_quasi_idempotency_up_to_five_boxes():
    for n in range(6):
        for lam in partitions(n):
            assert symmetrizer_scalar_agrees(lam), lam
            assert young_scalar(lam) * standard_tableau_count(lam) == factorial(n)


def test_symmetrizer_guard():
    with pytest.raises(LimitExceeded, match="symmetrizer boxes 7 exceeds the fixed limit 6"):
        young_symmetrizer(P([4, 3]))


def test_corner_algebra_is_one_dimensional():
    for dl in range(4):
        for dp in range(4):
            for lam in partitions(dl):
                for pi in partitions(dp):
                    assert corner_algebra_dimension(lam, pi) == 1, (lam, pi)
    # one-sided corners at five boxes
    for lam in partitions(5):
        assert corner_algebra_dimension(lam, P([])) == 1, lam


def test_distinct_projectors_give_independent_corners():
    # different diagram pairs produce non-conjugate projectors; every mixed
    # corner element c_lam . g . c_mu is zero when lam and mu differ
    c2 = young_symmetrizer(P([2]))
    c11 = young_symmetrizer(P([1, 1]))
    for g in itertools.permutations(range(2)):
        assert (c2 * GroupAlgebraElement((2,), {(g,): 1}) * c11).coeffs == {}, g


def _integer_row(row: dict) -> dict:
    """A Fraction row scaled by the lcm of its denominators, which keeps the rank of any rows it is among."""
    den = lcm(*(v.denominator for v in row.values()))
    return {key: int(v * den) for key, v in row.items()}


def _sandwich_rank(c) -> int:
    """Rank of {c g c} over all group elements g, each product built in full."""
    elements = [(g,) for g in itertools.permutations(range(c.sizes[0]))]
    rows = [_integer_row((c * GroupAlgebraElement(c.sizes, {g: 1}) * c).coeffs) for g in elements]
    return rank_of_rows(rows, elements)


def test_corner_rank_matches_the_full_sandwich_rank():
    rng = random.Random(0)
    cases = [young_symmetrizer(lam) for n in range(5) for lam in partitions(n)]
    cases.append(GroupAlgebraElement((3,), {(identity_perm(3),): 1}))
    cases.append(GroupAlgebraElement((3,), {((0, 1, 2),): 1, ((1, 0, 2),): 1}))
    cases.append(GroupAlgebraElement((3,), {((0, 1, 2),): 1, ((1, 0, 2),): Fraction(1, 2)}))  # mixed denominators
    for n in (3, 4):
        for _ in range(4):
            cases.append(GroupAlgebraElement((n,), {(g,): rng.randint(-2, 2) for g in itertools.permutations(range(n))}))
    for c in cases:
        # the rank clears denominators first, so a rational multiple of c
        # has the rank of c
        assert _corner_rank(c.scale(Fraction(2, 3))) == _corner_rank(c) == _sandwich_rank(c), c.coeffs


def test_corner_rank_multiplies_only_the_left_ideal_basis(monkeypatch):
    c = young_symmetrizer(P([3, 2]))
    products = []
    multiply = symalg._multiply

    def counted(a, b):
        products.append(1)
        return multiply(a, b)

    monkeypatch.setattr(symalg, "_multiply", counted)
    assert _corner_rank(c) == 1
    assert len(products) == standard_tableau_count(P([3, 2])) == 5


def _two_factor_corner_rank(c, d) -> int:
    """Rank of {(c ⊗ d)(g, h)(c ⊗ d)} built over both factors at once."""
    sizes = c.sizes + d.sizes
    corner = GroupAlgebraElement(
        sizes,
        {(g[0], h[0]): cg * ch for g, cg in c.coeffs.items() for h, ch in d.coeffs.items()},
    )
    elements = list(itertools.product(*(itertools.permutations(range(n)) for n in sizes)))
    rows = [_integer_row((corner * GroupAlgebraElement(sizes, {g: 1}) * corner).coeffs) for g in elements]
    return rank_of_rows(rows, elements)


def test_corner_rank_factorizes():
    identity_3 = GroupAlgebraElement((3,), {(identity_perm(3),): 1})
    row_sum_21 = GroupAlgebraElement((3,), {((0, 1, 2),): 1, ((1, 0, 2),): 1})
    c2, c21 = young_symmetrizer(P([2])), young_symmetrizer(P([2, 1]))
    for c, d, ranks in [
        (identity_3, row_sum_21, (6, 2)),
        (row_sum_21, c2, (2, 1)),
        (c21, row_sum_21, (1, 2)),
    ]:
        assert (_corner_rank(c), _corner_rank(d)) == ranks
        assert _two_factor_corner_rank(c, d) == ranks[0] * ranks[1]


def test_every_row_ranked_by_the_engine_and_the_oracle_is_an_int_row(monkeypatch):
    """linalg ranks integer rows only: each rank route must build its rows from ints."""
    calls = []

    def spy(binding, original):
        def wrapped(rows, columns):
            rows = list(rows)
            assert [row for row in rows if any(type(v) is not int for v in row.values())] == [], binding
            calls.append(binding)
            return original(rows, columns)

        return wrapped

    monkeypatch.setattr(linalg, "row_basis", spy("linalg", linalg.row_basis))  # rank_of_rows goes through it
    monkeypatch.setattr(symalg, "row_basis", spy("symalg", symalg.row_basis))  # _corner_rank's own binding
    for q in ((0, 2, 2, 0), (1, 2, 2, 0), (0, 3, 2, 1)):
        assert quadratic_kernel_check(QuadIndex(*q))
    for lam, pi in (([2, 1], [1]), ([2, 2], [1, 1]), ([3, 1], [])):
        assert corner_algebra_dimension(P(lam), P(pi)) == 1
    assert composite_orbit_rank(0, 1, 1, 0, moves=("contract",)) == 1
    assert composite_orbit_rank(0, 2, 2, 0, moves=("left", "right")) > 0
    assert set(calls) == {"linalg", "symalg"}


def test_end_dimension():
    assert move_word_dimension(QuadIndex(0, 0, 0, 0), ()) == 1
    assert move_word_dimension(QuadIndex(2, 1, 0, 0), ()) == 2
    assert move_word_dimension(QuadIndex(2, 2, 1, 1), ()) == 4
    assert move_word_dimension(QuadIndex(3, 2, 2, 1), ()) == 24


def test_end_dimension_counts_group_elements():
    for q in quads_with_sum_at_most(5):
        assert move_word_dimension(q, ()) == group_size(q)


def test_hom_dimension_examples():
    assert move_word_dimension(QuadIndex(0, 1, 1, 0), ("contract",)) == 1
    assert move_word_dimension(QuadIndex(0, 1, 0, 0), ("left",)) == 1
    assert move_word_dimension(QuadIndex(1, 2, 1, 0), ("left",)) == 4


def test_hom_dimension_counts_induced_bases():
    for q in quads_with_sum_at_most(5):
        l, m, n, p = q
        if m >= 1 and n >= 1:
            assert move_word_dimension(q, ("contract",)) == group_size((l, m, n, p))
        if m >= 1:
            assert move_word_dimension(q, ("left",)) == group_size((l + 1, m, n, p))
        if n >= 1:
            assert move_word_dimension(q, ("right",)) == group_size((l, m, n, p + 1))


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
        assert composite_orbit_rank(l, m, n, p, moves=()) == move_word_dimension(q, ()), q
        if m >= 1 and n >= 1:
            assert composite_orbit_rank(l, m, n, p, moves=("contract",)) == move_word_dimension(q, ("contract",)), q
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
    # t twists only the m and n slots; the last cases fill all four slots
    for q in [(0, 2, 2, 0), (1, 2, 2, 0), (0, 2, 2, 1), (0, 3, 2, 0), (1, 3, 2, 1), (2, 2, 3, 1), (1, 2, 2, 2)]:
        assert quadratic_kernel_check(QuadIndex(*q))


def test_quadratic_kernel_guard():
    with pytest.raises(LimitExceeded, match="total boxes 9 exceeds the group-algebra guard 8"):
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
    # the composites of two degree-one maps span exactly half of the
    # composition domain; for the double contraction the other half is the
    # quadratic kernel's closed form.  Every applicable case of sum <= 4 is
    # checked, and a few at the oracle's 5-slot limit.
    at_limit = [
        (QuadIndex(0, 5, 0, 0), "left,left"),
        (QuadIndex(0, 0, 5, 0), "right,right"),
        (QuadIndex(3, 2, 0, 0), "left,left"),
        (QuadIndex(0, 3, 2, 0), "contract,contract"),
    ]
    small = [(q, kind) for q in quads_with_sum_at_most(4) for kind in COMPOSITION_MOVES]
    sums = []
    for q, kind in small + at_limit:
        try:
            domain = composition_domain_dimension(kind, q)
        except ValueError:
            continue
        codomain = composite_orbit_rank(*q, moves=COMPOSITION_MOVES[kind])
        assert 2 * codomain == domain, (q, kind)
        if kind == "contract,contract":
            assert domain - codomain == quadratic_kernel_dim(q), q
        sums.append(sum(q))
    assert len(sums) - sums.count(5) == 56
    assert sums.count(5) == len(at_limit)


def test_group_algebra_arithmetic():
    identity = GroupAlgebraElement((2, 1), {((0, 1), (0,)): 1})
    b = GroupAlgebraElement((2, 1), {((1, 0), (0,)): 1})
    assert b * b == identity
    assert b * identity == b
    # coefficients are stored as Fraction and cancelled terms are dropped
    mixed = GroupAlgebraElement((2, 1), {((0, 1), (0,)): 1, ((1, 0), (0,)): Fraction(0)})
    assert mixed.coeffs == {((0, 1), (0,)): Fraction(1)}
    assert type(mixed.coeffs[((0, 1), (0,))]) is Fraction
    odd = GroupAlgebraElement((2, 1), {((0, 1), (0,)): 1, ((1, 0), (0,)): -1})
    even = GroupAlgebraElement((2, 1), {((0, 1), (0,)): 1, ((1, 0), (0,)): 1})
    assert (odd * even).coeffs == {}


def test_group_algebra_product_refuses_mismatched_sizes():
    a = GroupAlgebraElement((2, 2), {((0, 1), (1, 0)): 1})
    b = GroupAlgebraElement((2,), {((1, 0),): 1})
    with pytest.raises(ValueError, match=r"\(2, 2\) and \(2,\)"):
        a * b
    with pytest.raises(ValueError, match=r"\(2,\) and \(2, 2\)"):
        b * a


def test_only_symalg_imports_fractions():
    assert list(imports(ast.parse("from fractions import Fraction"))) == [(None, "fractions", "Fraction")]
    assert list(imports(ast.parse("import fractions as f"))) == [(None, "fractions", None)]
    assert list(imports(ast.parse("from .fractions import Fraction"))) == [(None, "tensorcat.fractions", "Fraction")]
    assert importers("fractions") <= {"symalg"}, importers("fractions")


def _unused_imports(tree: ast.Module, source: str) -> list[str]:
    """Module-level imports of ``tree`` whose name no Name node reads; ``source`` is its text, for the
    ``# noqa: F401`` lines."""
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


def test_no_unused_module_level_imports():
    for snippet, names in [("from .grothendieck import UNIT, simple\nsimple()", ["UNIT"]),
                           ("import os.path\nos.sep", []),
                           ("from .a import b  # noqa: F401", [])]:
        assert _unused_imports(ast.parse(snippet), snippet) == names, snippet
    # the package, and the harness around it
    unused = {f"src/tensorcat/{stem}.py": names for stem, source in package_sources().items()
              if (names := _unused_imports(package_trees()[stem], source))}
    for path in [*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        source = path.read_text(encoding="utf-8")
        if names := _unused_imports(ast.parse(source), source):
            unused[str(path.relative_to(ROOT))] = names
    assert not unused, unused


# Public names that only tests reach: independent reference routes the tests
# check the engine against, each waiting for a `--verify` caller.  A new
# `--verify` check appends a line to the report, whose sha256 the benchmark
# pins (perfbench/digests.json, checked by run.py), so those callers wait for
# a benchmark revision that re-records that digest.
TEST_ONLY_ROUTES = {
    "poset.defect_mirror": "the defect by the mirrored closed form, checked against defect",
    "ospcat.osp_chains": "the o/sp saturated chains, checked against the o/sp defect",
    "ospcat.osp_resolution_socle": "the o/sp resolution socle, checked against osp_ext_to_trivial",
    "grothendieck.generator_word": "the word of J(q), walked box by box against decompose_j",
}


def _referenced_names(tree: ast.AST, bare: bool = True) -> set[str]:
    """Names a module reads: attributes, imported names, dotted strings and, if ``bare``, bare names it loads.

    A benchmark file reaches the engine only through the first three, so its
    bare names (a local variable, say) are not counted.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if bare and isinstance(node.ctx, ast.Load):
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")  # perfbench pins its targets by dotted name
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def _public_definitions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def test_every_public_engine_name_has_a_caller_outside_tests():
    assert _referenced_names(ast.parse("import a\nb.c('x.y', 'not a name')")) == {"b", "c", "x", "y"}
    assert _referenced_names(ast.parse("s = t.u")) == {"t", "u"}
    assert _referenced_names(ast.parse("s = t.u"), bare=False) == {"u"}
    assert _public_definitions(ast.parse("def f(): g()\nclass _C: pass\nclass D: pass")) == {"f", "D"}
    referenced = set()
    for tree in package_trees().values():
        referenced |= _referenced_names(tree)
    for path in (ROOT / "perfbench").glob("*.py"):
        referenced |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")), bare=False)
    test_only = {
        f"{stem}.{name}"
        for stem, tree in package_trees().items()
        if stem not in ("oracle", "cli")
        for name in _public_definitions(tree)
        if name not in referenced
    }
    assert test_only == set(TEST_ONLY_ROUTES), sorted(test_only ^ set(TEST_ONLY_ROUTES))


def test_engine_has_no_assert_statement():
    # python -O strips assert statements, so an engine check raises explicitly
    sites = [f"{stem}.py:{node.lineno}" for stem, tree in package_trees().items() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not sites, sites


def test_every_refusal_is_raised_by_check_limit():
    # every cap, guard and fixed limit refuses through config.check_limit, the one
    # place a refusal is built, so each refusal has one type and one message form
    sites, refusal_names = [], set()
    for stem, tree in package_trees().items():
        for node, owner in owned_nodes(tree):
            if identifier(node).endswith("Exceeded"):
                refusal_names.add(identifier(node))
            if isinstance(node, ast.Call) and identifier(node.func).endswith("Exceeded"):
                sites.append((f"{stem}.{owner or '<module>'}", node.lineno))
    assert [site for site, _ in sites] == ["config.check_limit"], sites
    assert refusal_names == {"LimitExceeded"}, refusal_names
