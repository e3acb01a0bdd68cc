"""The oracle cross-checks, one predicate per engine route, shared by ``--verify`` and the tests.

Each predicate compares one engine route with its independent route (the
oracle's, or an explicit group-algebra product) on one case and returns True
when they agree.  ``CHECKS`` lists them in ``--verify``'s order with the small
cases ``--verify`` runs; the tests run the same predicates on larger domains.
"""

from __future__ import annotations

import itertools

from . import grothendieck, oracle, plethysm, poset, symalg, symfunc
from .diagrams import Partition, gl_dimension, partitions
from .poset import QuadIndex


def schur_product_agrees(mu: Partition, nu: Partition) -> bool:
    """s_mu * s_nu by LR against the monomial expansion in |mu| + |nu| variables."""
    nv = mu.degree + nu.degree
    brute = oracle.poly_product(oracle.expand_schur(mu, nv), oracle.expand_schur(nu, nv))
    return symfunc.schur_term_product(mu, nu) == oracle.decompose_into_schur(brute)


def square_power_agrees(outer: str, inner: str, k: int, nv: int) -> bool:
    """The closed-form ``outer``-power k of the ``inner`` square against orbit summation in nv variables."""
    power = plethysm.power_of_sym2 if inner == "sym2" else plethysm.power_of_ext2
    kind = plethysm.SYMMETRIC if outer == "sym" else plethysm.EXTERIOR
    engine = {p: m for p, m in power(k, kind).items() if len(p) <= nv}
    return engine == oracle.brute_force_plethysm(outer, k, inner, nv).terms


def cauchy_pairs_agree(kind: str, k: int, a: int, b: int) -> bool:
    """The Cauchy pairs of degree k against the ``kind`` power of a tensor product of a and b variables."""
    pairs = plethysm.cauchy_sym(k) if kind == "sym" else plethysm.cauchy_ext(k)
    engine = {key: m for key, m in pairs.items() if len(key[0]) <= a and len(key[1]) <= b}
    return engine == oracle.brute_force_cauchy(kind, k, a, b)


def tensor_word_agrees(q: QuadIndex) -> bool:
    """The closed-form factors of J(q) against rational character reconstruction."""
    return dict(grothendieck.decompose_j(q).terms) == oracle.reconstruct_tensor_word(*q)


def chains_have_defect_length(a: QuadIndex, b: QuadIndex) -> bool:
    """The listed saturated chains from a to b all have the defect's length (none when it is None)."""
    d, found = poset.defect(a, b), poset.chains(a, b)
    if d is None:
        return not found
    return bool(found) and {len(chain) - 1 for chain in found} == {d}


def symmetrizer_scalar_agrees(lam: Partition) -> bool:
    """c_lam * c_lam, multiplied out in the group algebra, against young_scalar(lam) * c_lam."""
    c = symalg.young_symmetrizer(lam)
    return c * c == c.scale(symalg.young_scalar(lam))


def gl_dimension_agrees(lam: Partition, nv: int) -> bool:
    """The hook-content dimension against the count of semistandard tableaux in nv letters."""
    return gl_dimension(lam, nv) == sum(oracle.expand_schur(lam, nv).values())


def failures(predicate, cases) -> list[tuple]:
    """The cases (argument tuples) on which predicate fails."""
    return [case for case in cases if not predicate(*case)]


_SQUARES = (("sym", "sym2"), ("ext", "sym2"), ("sym", "ext2"), ("ext", "ext2"))
_BOX = list(map(QuadIndex._make, itertools.product(range(3), repeat=4)))
_WORDS = [(q,) for q in map(QuadIndex._make, itertools.product(range(4), repeat=4)) if sum(q) <= 3]
_SMALL = [lam for n in range(5) for lam in partitions(n)]

# (the name --verify prints, predicate, the cases --verify runs), in --verify's order
CHECKS = (
    ("schur product vs monomial expansion", schur_product_agrees, [(Partition([2, 1]), Partition([1, 1]))]),
    ("square powers vs brute-force plethysm", square_power_agrees, [(*s, k, 4) for s in _SQUARES for k in range(4)]),
    ("cauchy pairs vs brute-force powers", cauchy_pairs_agree, [("ext", k, 3, 3) for k in range(4)]),
    ("tensor words vs character reconstruction", tensor_word_agrees, _WORDS),
    ("defect vs exhaustive chains", chains_have_defect_length, list(itertools.product(_BOX, repeat=2))),
    ("young symmetrizer scalars", symmetrizer_scalar_agrees, [(lam,) for lam in _SMALL]),
    ("hook-content dimensions vs tableau counts", gl_dimension_agrees, list(itertools.product(_SMALL, range(1, 5)))),
)
