"""Littlewood-Richardson coefficients and Schur-basis arithmetic.

The coefficient c^lam_{mu,nu} counts the LR tableaux of shape lam/mu and
content nu: skew tableaux weakly increasing along rows, strictly increasing
down columns, whose reverse reading word is a lattice word (Fulton, *Young
Tableaux*, LMS Student Texts 35, 1997, ch. 5).  Two routes enumerate them.

* The strip route, ``_lr_strips``, grows every tableau of content nu on the
  outside of mu at once, one row of nu at a time, and so expands the whole
  product s_mu * s_nu without naming a candidate lam.
  ``schur_term_product`` and ``schur_product`` (the ``product`` command and
  ``--verify``) use it.
* The coefficient route, ``lr_coefficient``, fills the cells of one given
  lam/mu and memoizes the count for the life of the process.  The ``lr``
  command and ``ext.ext_to_thick`` use it, and ``_lr_terms`` scans it over
  every partition of the degree to expand a product.

``slot_product`` stays on the scan: perfbench/test_tracer.py asserts that F's
product with the Cauchy pairs calls ``lr_coefficient``, and that this module
binds ``partitions``.  ``_lr_terms`` is also the tests' reference for the
strip route.
"""

from __future__ import annotations

from .combination import Combination, CombinationBuilder, index_key
from .config import check_cap
from .diagrams import Partition, partitions

_memo: dict[tuple[Partition, Partition, Partition], int] = {}


def clear_memo() -> None:
    _memo.clear()


def set_disk_cache(path=None) -> None:
    """No-op; the on-disk coefficient cache is gone.  perfbench/test_tracer.py
    requires every name the tracer wraps to exist, and it still wraps this one."""


def _count_lr_tableaux(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Enumerate Littlewood-Richardson fillings of lam/mu with content nu.

    Cells are visited in reverse reading order (rows top to bottom, each row
    right to left) so the lattice condition can be maintained incrementally.
    """
    cells = []
    for r in range(len(lam)):
        start = mu[r] if r < len(mu) else 0
        for c in range(lam[r] - 1, start - 1, -1):
            cells.append((r, c))
    values = len(nu)
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * (values + 1)

    def in_skew(r: int, c: int) -> bool:
        if r < 0 or r >= len(lam) or c >= lam[r]:
            return False
        return c >= (mu[r] if r < len(mu) else 0)

    def backtrack(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        upper = values
        if in_skew(r, c + 1):
            upper = min(upper, filling[(r, c + 1)])
        lower = 1
        if in_skew(r - 1, c):
            lower = max(lower, filling[(r - 1, c)] + 1)
        for v in range(lower, upper + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            counts[v] += 1
            filling[(r, c)] = v
            total += backtrack(idx + 1)
            counts[v] -= 1
        filling.pop((r, c), None)
        return total

    return backtrack(0)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of s_lam in s_mu * s_nu; zero unless degrees add up."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.degree != mu.degree + nu.degree:
        return 0
    if index_key(mu) > index_key(nu):
        mu, nu = nu, mu  # symmetric in mu, nu; keep one canonical key
    if not lam.contains(mu):
        return 0
    key = (lam, mu, nu)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    value = _count_lr_tableaux(lam, mu, nu)
    _memo[key] = value  # no lock: a racing insert stores the same value
    return value


def schur(p) -> Combination:
    """The single Schur function s_p."""
    return Combination({Partition(p): 1})


def _lr_terms(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """The non-zero coefficients of s_mu * s_nu, one lr_coefficient per
    candidate lam of the degree (the scan route); no degree cap."""
    terms = {}
    for lam in partitions(mu.degree + nu.degree):
        if lam.contains(mu) and lam.contains(nu):
            coeff = lr_coefficient(lam, mu, nu)
            if coeff:
                terms[lam] = coeff
    return terms


def _lr_strips(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """The non-zero coefficients of s_mu * s_nu, from the LR tableaux
    themselves (the strip route); no degree cap.

    Row i of nu is laid onto the current shape as a horizontal strip of
    label i, row by row from the top: row r grows to at most the old length
    of row r - 1.  The lattice condition bounds it too: label i in rows
    0..r may not outnumber label i - 1 in rows 0..r - 1.  Each finished
    filling is one LR tableau of its shape lam.  The factor with fewer rows
    plays nu, which keeps the search shallow.
    """
    if len(nu) > len(mu):
        mu, nu = nu, mu
    height = len(mu) + len(nu)
    terms: dict[tuple[int, ...], int] = {}

    def lay(i: int, old: list[int], prev: list[int] | None) -> None:
        # prev[r]: count of label i - 1 in rows 0..r - 1 (None for the first label)
        if i == len(nu):
            lam = tuple(old)
            terms[lam] = terms.get(lam, 0) + 1
            return
        new = old[:]
        placed = [0] * (height + 1)  # placed[r]: count of label i in rows 0..r - 1

        def row(r: int, left: int) -> None:
            if left == 0:
                placed[r + 1 :] = [placed[r]] * (height - r)
                lay(i + 1, new, placed[:])
                return
            room = left if r == 0 else min(left, old[r - 1] - old[r])
            if prev is not None:
                room = min(room, prev[r] - placed[r])
            # the rows below row r can take at most old[r] boxes of this strip
            for extra in range(room, max(0, left - old[r]) - 1, -1):
                new[r] = old[r] + extra
                placed[r + 1] = placed[r] + extra
                row(r + 1, left - extra)
            new[r] = old[r]

        row(0, nu[i])

    lay(0, list(mu) + [0] * len(nu), None)
    return {Partition(lam): c for lam, c in terms.items()}


def schur_term_product(mu: Partition, nu: Partition, cap: int | None = None) -> Combination:
    """Expand s_mu * s_nu in the Schur basis."""
    mu, nu = Partition(mu), Partition(nu)
    check_cap(mu.degree + nu.degree, cap)
    return Combination(_lr_strips(mu, nu))


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
