"""Indices, brute-force helpers, the package's parsed source and harness setup shared by the test
modules, imported as a plain module (``from quads import ...``): pytest puts this directory on ``sys.path``."""

from __future__ import annotations

import ast
import functools
import importlib.util
import itertools
import os
import sys
from pathlib import Path
from types import ModuleType

from tensorcat.diagrams import Partition, partitions
from tensorcat.grothendieck import SimpleIndex
from tensorcat.oracle import lr_tableaux_brute
from tensorcat.poset import QuadIndex

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
PACKAGE = ROOT / "src" / "tensorcat"


def quads_with_sum_at_most(bound: int) -> list[QuadIndex]:
    """Every quadruple of naturals with sum at most ``bound``, by sum."""
    out = []
    for total in range(bound + 1):
        for split in itertools.product(range(total + 1), repeat=4):
            if sum(split) == total:
                out.append(QuadIndex(*split))
    return out


def box(bound: int) -> list[QuadIndex]:
    """Every quadruple with entries at most ``bound``."""
    return [QuadIndex(*t) for t in itertools.product(range(bound + 1), repeat=4)]


def simple(lam=(), mu=(), nu=(), pi=()) -> SimpleIndex:
    """The simple index (lam, mu, nu, pi) from four lists of parts; an omitted slot is empty."""
    return SimpleIndex(Partition(lam), Partition(mu), Partition(nu), Partition(pi))


def all_indices_up_to(total_degree: int):
    """Every simple index of total degree at most ``total_degree``."""
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


def brute_terms(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """s_mu * s_nu by the oracle's cell-filling count over every lam of the degree."""
    terms = {}
    for lam in partitions(mu.degree + nu.degree):
        if lam.contains(mu) and lam.contains(nu):
            coeff = lr_tableaux_brute(lam, mu, nu)
            if coeff:
                terms[lam] = coeff
    return terms


def group_size(sizes) -> int:
    """The order of the product of symmetric groups of ``sizes``, by listing each block's permutations."""
    count = 1
    for size in sizes:
        count *= len(list(itertools.permutations(range(size))))
    return count


@functools.cache
def package_sources() -> dict[str, str]:
    """The text of each module of this checkout's package, by file stem, read once per session."""
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


@functools.cache
def package_trees() -> dict[str, ast.Module]:
    """The syntax tree of each module of this checkout's package, by file stem, parsed once per session."""
    return {stem: ast.parse(source) for stem, source in package_sources().items()}


def identifier(node: ast.AST) -> str:
    """The name a node reads or binds: a Name, an attribute, an imported alias or a definition."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None) or ""


def owned_nodes(tree: ast.AST, owner: str | None = None):
    """(node, the innermost function holding it or None at module level) for each node under ``tree``; a
    function's decorators and defaults count as inside it."""
    for node in ast.iter_child_nodes(tree):
        yield node, owner
        yield from owned_nodes(node, node.name if isinstance(node, ast.FunctionDef) else owner)


def imports(tree: ast.AST):
    """(owner, absolute module, name) of each import in a module of the package, at any depth:
    ``import a.b`` reads ``("a.b", None)``, ``from .x import y`` ``("tensorcat.x", "y")``, ``from . import x``
    ``("tensorcat", "x")``."""
    for node, owner in owned_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield owner, alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("tensorcat" if node.level else None, node.module)))
            for alias in node.names:
                yield owner, module, alias.name


def importers(top: str) -> set[str]:
    """The modules of the package that import the top-level module ``top``, at any depth."""
    return {stem for stem, tree in package_trees().items() for _, module, _ in imports(tree)
            if module.split(".")[0] == top}


def child_env(**extra: str) -> dict[str, str]:
    """This environment plus ``extra``, with this checkout's ``src`` first on PYTHONPATH: for a child ``python``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def load_tool(name: str) -> ModuleType:
    """``tools/<name>.py`` as a fresh module, with ``tools`` on ``sys.path`` while it loads: the tools import
    one another (``bench_pairs`` imports ``bench_record``)."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(TOOLS))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def run_record(failed: int = 0, **metrics: float) -> dict:
    """A perfbench/run.py record, as written to .bench_out/result-*.json, cut to what the tools read."""
    return {"meta": {}, "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
            "failed": failed, "attempted": 10}
