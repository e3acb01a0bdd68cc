"""Littlewood-Richardson coefficients and Schur-basis arithmetic.

The coefficient c^lam_{mu,nu} is computed by enumerating skew tableaux of
shape lam/mu and content nu that are weakly increasing along rows, strictly
increasing down columns, and whose reverse reading word is a lattice word.
Results are memoized in memory for the life of the process.
"""

from __future__ import annotations

import threading

from .combination import Combination, CombinationBuilder
from .config import effective_cap
from .diagrams import Partition, partitions, sort_key
from .errors import DegreeCapExceeded

_memo: dict[tuple[Partition, Partition, Partition], int] = {}
_memo_lock = threading.Lock()


def clear_memo() -> None:
    with _memo_lock:
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
    if sort_key(mu) > sort_key(nu):
        mu, nu = nu, mu  # symmetric in mu, nu; keep one canonical key
    if not lam.contains(mu):
        return 0
    key = (lam, mu, nu)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    value = _count_lr_tableaux(lam, mu, nu)
    with _memo_lock:
        if key not in _memo:
            _memo[key] = value
    return value


def schur(p) -> Combination:
    """The single Schur function s_p."""
    return Combination({Partition(p): 1})


def _lr_terms(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """The non-zero coefficients of s_mu * s_nu; no degree cap."""
    terms = {}
    for lam in partitions(mu.degree + nu.degree):
        if lam.contains(mu) and lam.contains(nu):
            coeff = lr_coefficient(lam, mu, nu)
            if coeff:
                terms[lam] = coeff
    return terms


def schur_term_product(mu: Partition, nu: Partition, cap: int | None = None) -> Combination:
    """Expand s_mu * s_nu in the Schur basis."""
    mu, nu = Partition(mu), Partition(nu)
    degree = mu.degree + nu.degree
    if degree > effective_cap(cap):
        raise DegreeCapExceeded(degree, effective_cap(cap))
    return Combination(_lr_terms(mu, nu))


def schur_product(a: Combination, b: Combination, cap: int | None = None) -> Combination:
    """Bilinear extension of the Littlewood-Richardson product."""
    out = CombinationBuilder()
    for mu, ca in a.items():
        for nu, cb in b.items():
            out.add_all(schur_term_product(mu, nu, cap), ca * cb)
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
    if k > effective_cap(cap):
        raise DegreeCapExceeded(k, effective_cap(cap))
    return schur([1] * k), schur([k])
