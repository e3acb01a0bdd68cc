"""Littlewood-Richardson coefficients and Schur-basis arithmetic.

The coefficient c^lam_{mu,nu} counts the LR tableaux of shape lam/mu and
content nu: skew tableaux weakly increasing along rows, strictly increasing
down columns, whose reverse reading word is a lattice word (Fulton, *Young
Tableaux*, LMS Student Texts 35, 1997, ch. 5).  One enumerator,
``_lr_strips``, counts them: it lays the rows of nu on the outside of mu one
label at a time, label i starting at row i, and so expands the whole product
s_mu * s_nu without naming a candidate lam.  It counts fillings per search
state, not one tableau at a time: a state is two shapes, the shape so far and
the shape before the label just laid, so the strip between them holds that
label's boxes.  Fillings that reach the same state are added up before the
next label is laid, and one module-level walker, ``_lay_strip``, lays each
strip row by row.  It searches whichever of (mu, nu) and (mu', nu') has the
shorter content factor, because c^lam_{mu,nu} = c^{lam'}_{mu',nu'}.  Each
shape it finds, transposed as raw rows when found on the conjugate pair, is
looked up in one module-level table, ``_SHAPES``, and built with
``Partition._unchecked(rows)`` (no degree, no second validation) only if it
is not there yet: every cached expansion shares one Partition object per
shape, so the cache costs what its dicts do.  The table holds only shapes
that a cached expansion names, and no expansion is evicted, so it adds no
growth of its own.  The expansion is cached per ordered factor pair, and
every LR caller reads that cache: ``schur_term_product`` returns it, and
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

from .combination import Combination
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


def _lr_terms(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """The non-zero coefficients of s_mu * s_nu, one ``lr_coefficient``
    lookup per shape of the cached expansion ``_lr_strips(mu, nu)``; no
    degree cap and no scan.  The lookup is kept only for the tracer's pin on
    ``slot_product`` (see the module docstring)."""
    return {lam: lr_coefficient(lam, mu, nu) for lam in _lr_strips(mu, nu)}


# Every shape in a cached expansion, keyed by itself: a tuple of rows finds its one Partition.
_SHAPES: dict[Partition, Partition] = {}


@cache
def _lr_strips(mu: Partition, nu: Partition) -> Combination:
    """The expansion of s_mu * s_nu, from the LR tableaux themselves; no
    degree cap.  Cached per ordered pair for the life of the process.

    Row i of nu is laid as a horizontal strip of label i by ``_lay_strip``,
    one pass per label over a dict from search state to its number of
    fillings.  A state is the shape so far and the shape before the label
    just laid: the strip between them is all the next label's lattice bound
    reads.  After the last label the shape alone is the key, and its count
    is c^lam_{mu,nu}.  The factor with fewer rows plays nu (shallower search).

    When a conjugate factor has fewer rows than both factors, that is when
    min(mu_1, nu_1) < min(len(mu), len(nu)), the search runs on the
    conjugates instead and conjugates each shape it finds:
    c^lam_{mu,nu} = c^{lam'}_{mu',nu'} (Fulton, ch. 5).  The search
    builds only weakly decreasing rows, so each shape becomes a Partition
    without being validated again, and only on its first finding in any
    expansion: a conjugated shape is transposed as raw rows first, and
    ``_SHAPES`` hands back the object built before.
    """
    flip = bool(mu and nu) and min(mu[0], nu[0]) < min(len(mu), len(nu))
    if flip:
        mu, nu = mu.conjugate(), nu.conjugate()
    if len(nu) > len(mu):
        mu, nu = nu, mu
    if not nu:
        return Combination({mu: 1})
    height = len(mu) + len(nu)
    start = tuple(mu) + (0,) * len(nu)
    states = {(start, start): 1}  # (shape, shape before the label just laid) -> fillings
    for i, part in enumerate(nu):
        out = {}
        for (old, base), fillings in states.items():
            # label i starts at row i, and label i - 1 has no box above row i - 1; label 0 has no bound
            spare = old[i - 1] - base[i - 1] if i else part
            _lay_strip(out, old, base, list(old), i, part, spare, fillings, i == len(nu) - 1)
        states = out
    lams = {}
    for shape, c in states.items():
        rows = height
        while not shape[rows - 1]:
            rows -= 1
        shape = tuple(conjugate_rows(shape[:rows])) if flip else shape[:rows]
        lam = _SHAPES.get(shape)
        if lam is None:
            lam = Partition._unchecked(shape)
            lam = _SHAPES.setdefault(lam, lam)  # atomic: racing threads keep one object
        lams[lam] = c
    return Combination(lams)


def _lay_strip(out, old, base, new, r, left, spare, fillings, final) -> None:
    """Lay the last ``left`` boxes of a horizontal strip on rows r.. of ``old``.

    ``new`` is ``old`` with the rows above r grown.  Row r grows to at most
    the old length of row r - 1, and by at most ``spare``, the lattice bound:
    the previous label's boxes (``old`` minus ``base``) in rows 0..r - 1,
    less this label's there.  A row with no room and no forced boxes is
    stepped over.  Each finished shape adds ``fillings`` to ``out`` under
    its next state: (shape, ``old``), or the shape alone if ``final``.
    """
    while True:
        here = old[r]
        room = left
        if r and old[r - 1] - here < room:
            room = old[r - 1] - here
        if spare < room:
            room = spare
        # the rows below row r can take at most old[r] boxes of this strip
        low = left - here
        if room > 0 or low > 0:
            break
        spare += here - base[r]
        r += 1
    if low < 0:
        low = 0
    for extra in range(room, low - 1, -1):
        new[r] = here + extra
        if extra < left:
            _lay_strip(out, old, base, new, r + 1, left - extra, spare + here - base[r] - extra, fillings, final)
            continue
        key = tuple(new) if final else (tuple(new), old)
        out[key] = out.get(key, 0) + fillings
    new[r] = here


def schur_term_product(mu: Partition, nu: Partition, cap: int | None = None) -> Combination:
    """Expand s_mu * s_nu in the Schur basis."""
    mu, nu = Partition(mu), Partition(nu)
    check_cap(mu.degree + nu.degree, cap)
    return _lr_strips(mu, nu)


def slot_product(a: Combination, b: Combination) -> Combination:
    """LR product, slot by slot, of two combinations of partition pairs.

    (x1, x2) * (y1, y2) expands s_x1 * s_y1 in the first slot and
    s_x2 * s_y2 in the second, once per pair, and takes the outer product.
    No degree cap is applied: callers check their own.
    """
    out = {}
    for (x1, x2), cx in a.items():
        for (y1, y2), cy in b.items():
            second = _lr_terms(x2, y2)
            for lam, cl in _lr_terms(x1, y1).items():
                for pi, cp in second.items():
                    key = lam, pi
                    out[key] = out.get(key, 0) + cx * cy * cl * cp
    return Combination(out)
