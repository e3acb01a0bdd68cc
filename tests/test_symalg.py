from __future__ import annotations

import ast
import itertools
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from tensorcat import symalg
from tensorcat.crosscheck import symmetrizer_scalar_agrees
from tensorcat.diagrams import Partition, partitions, standard_tableau_count
from tensorcat.errors import GuardExceeded, LimitExceeded
from tensorcat.linalg import rank_of_rows
from tensorcat.oracle import composite_orbit_rank, contract_orbit_rank
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
from quads import quads_with_sum_at_most

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


def test_young_symmetrizer_is_row_sum_times_column_sum():
    for n in range(7):
        for lam in partitions(n):
            conj = lam.conjugate()
            rows = [list(range(sum(lam[:i]), sum(lam[: i + 1]))) for i in range(len(lam))]
            columns = [[rows[i][j] for i in range(conj[j])] for j in range(len(conj))]
            row_sum = GroupAlgebraElement((n,), {(p,): 1 for p in symalg._stabilizer_perms(rows, n)})
            col_sum = GroupAlgebraElement((n,), {(p,): perm_sign(p) for p in symalg._stabilizer_perms(columns, n)})
            c = young_symmetrizer(lam)
            assert c == row_sum * col_sum, lam
            assert all(type(v) is Fraction for v in c.coeffs.values()), lam


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


def _sandwich_rank(c) -> int:
    """Rank of {c g c} over all group elements g, each product built in full."""
    elements = [(g,) for g in itertools.permutations(range(c.sizes[0]))]
    return rank_of_rows([(c * GroupAlgebraElement(c.sizes, {g: 1}) * c).coeffs for g in elements], elements)


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
    rows = [(corner * GroupAlgebraElement(sizes, {g: 1}) * corner).coeffs for g in elements]
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
        assert composite_orbit_rank(l, m, n, p, moves=()) == move_word_dimension(q, ()), q
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
    # t twists only the m and n slots; the last cases fill all four slots
    for q in [(0, 2, 2, 0), (1, 2, 2, 0), (0, 2, 2, 1), (0, 3, 2, 0), (1, 3, 2, 1), (2, 2, 3, 1), (1, 2, 2, 2)]:
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


def _imports_fractions(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "fractions" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "fractions":
            return True
    return False


def test_only_symalg_imports_fractions():
    assert _imports_fractions("from fractions import Fraction")
    assert _imports_fractions("import fractions as f")
    assert not _imports_fractions("from .fractions import Fraction")
    importers = {
        path.stem
        for path in Path(symalg.__file__).parent.glob("*.py")
        if _imports_fractions(path.read_text(encoding="utf-8"))
    }
    assert importers <= {"symalg"}, importers


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
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
    assert _unused_imports("from .grothendieck import UNIT, simple\nsimple()") == ["UNIT"]
    assert _unused_imports("import os.path\nos.sep") == []
    assert _unused_imports("from .a import b  # noqa: F401") == []
    unused = {
        path.stem: names
        for path in Path(symalg.__file__).parent.glob("*.py")
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
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


def _referenced_names(source: str) -> set[str]:
    """Names a module reads: bare names, attributes, imported names and dotted strings."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
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


def _public_definitions(source: str) -> set[str]:
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def test_every_public_engine_name_has_a_caller_outside_tests():
    assert _referenced_names("import a\nb.c('x.y', 'not a name')") == {"b", "c", "x", "y"}
    assert _public_definitions("def f(): g()\nclass _C: pass\nclass D: pass") == {"f", "D"}
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "tensorcat"
    referenced = set()
    for path in [*package.glob("*.py"), *(root / "perfbench").glob("*.py")]:
        referenced |= _referenced_names(path.read_text(encoding="utf-8"))
    test_only = {
        f"{path.stem}.{name}"
        for path in package.glob("*.py")
        if path.stem not in ("oracle", "cli")
        for name in _public_definitions(path.read_text(encoding="utf-8"))
        if name not in referenced
    }
    assert test_only == set(TEST_ONLY_ROUTES), sorted(test_only ^ set(TEST_ONLY_ROUTES))
