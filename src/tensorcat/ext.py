"""Homological calculator for the canonical injective resolution of the unit.

The resolution has terms Lambda^j F (x) I whose socles are the exterior
Cauchy pairs in the two thick slots.  In total degree d its layers form the
Koszul complex K(i) = Lambda^i F (x) S^{d-i} F, which is exact for d >= 1.
Each degree has one table of tails, tail[j] = K(j) - tail[j+1], summed once
and cached (``_koszul_tails``): every later layer of that degree is a lookup,
while a one-shot layer pays for its whole degree.  Kernel and image layers
both read it; ``euler_shadow`` (tail[0]) is where exactness is stated, and
its vanishing is why the image layers need no table of their own.  Ext
dimensions are closed-form exactly for purely thick targets, the unit (the
thick target indexed by two empty diagrams) among them, and the sharpness of
the defect grading supplies a vanishing test for every other pair.
"""

from __future__ import annotations

from functools import cache

from .combination import Combination
from .config import check_cap
from .diagrams import EMPTY, Partition, partitions
from .grothendieck import SimpleIndex, thick_indices
from .plethysm import cauchy_ext, cauchy_sym
from .poset import defect
from .symfunc import lr_coefficient, slot_product


def _koszul_pairs(i: int, j: int) -> Combination:
    """Pair expansion of Lambda^i F (x) S^j F, the Koszul term at (i, j).

    Not cached: ``_koszul_tails`` reads each term once per degree and caches
    the tails instead.
    """
    return slot_product(cauchy_ext(i), cauchy_sym(j))


@cache
def _koszul_tails(d: int) -> tuple[Combination, ...]:
    """The one tail table of the degree-d Koszul complex K(i) = Lambda^i F (x) S^{d-i} F.

    On thick indices, for j = 0..d: tail[j] = K(j) - tail[j+1] (tail[d+1] = 0),
    the signed sum over i = j..d.  The left tail over i = 0..j-1 differs from
    it by (-1)^(j-1) tail[0], the Euler shadow, which vanishes by exactness,
    so image layers read this table too.  Each K(i) is read once; the trade is
    that a single layer pays for its whole degree.  Each thick index is built
    once, from the pairs of the K(i), and all d+1 tails share it.
    """
    terms = [_koszul_pairs(i, d - i) for i in range(d + 1)]
    index = {(lam, pi): SimpleIndex(lam, EMPTY, EMPTY, pi) for term in terms for lam, pi in term}
    tails = [Combination()] * (d + 2)
    for j in range(d, -1, -1):
        tails[j] = terms[j] - tails[j + 1]
    return tuple(Combination({index[pair]: mult for pair, mult in tail.items()}) for tail in tails[:-1])


def kernel_layer(j: int, k: int, cap: int | None = None) -> Combination:
    """Layer k of the kernel at resolution degree j: the right tail of the complex.

    Exactness makes it the signed sum of Lambda^i F (x) S^{j+k-i} F over
    i = j..j+k, the hook Schur functor S_{(k+1, 1^{j-1})}F for j >= 1, and at
    j = 0 the unit for k = 0 and nothing above.
    """
    if j < 0 or k < 0:
        raise ValueError("kernel layer indices must be non-negative")
    check_cap(2 * (j + k), cap)
    return _koszul_tails(j + k)[j].require_nonnegative()


def image_layer(j: int, k: int, cap: int | None = None) -> Combination:
    """Layer k of the image of the resolution map landing in degree j.

    The signed sum of Lambda^i F (x) S^{j+k-i} F over i = 0..j-1; at j = 1 it
    is S^{k+1}F.  Exactness (``euler_shadow`` vanishes) makes it the right
    tail, so it is the same object kernel_layer(j, k) returns.
    """
    if j < 1 or k < 0:
        raise ValueError("image layers exist for degree >= 1 and layer >= 0")
    check_cap(2 * (j + k), cap)
    return _koszul_tails(j + k)[j].require_nonnegative()


def ext_to_thick(x: SimpleIndex, target: tuple[Partition, Partition], q: int) -> int:
    """dim Ext^q(X, T) for a purely thick T indexed by (alpha, beta).

    For thick X the dimension is the Cauchy-type sum over degree-q diagrams
    gamma of c^lam_{alpha,gamma} * c^pi_{beta,gamma'}, which is zero unless
    q = |lam| - |alpha| = |pi| - |beta|.  At the unit, alpha = beta = () and
    the sum is one exactly when |lam| = q and pi = lam'.  For mixed X it is 0.
    """
    alpha, beta = Partition(target[0]), Partition(target[1])
    if q < 0 or x.lam.degree - alpha.degree != q or x.pi.degree - beta.degree != q:
        return 0
    if not x.is_thick():
        return 0  # thin degrees above T's zero: no defect (poset.leq), so Ext vanishes
    total = 0
    for gamma in partitions(q):
        cl = lr_coefficient(x.lam, alpha, gamma)
        if not cl:
            continue
        total += cl * lr_coefficient(x.pi, beta, gamma.conjugate())
    return total


def thick_target_socle(
    q: int, alpha: Partition, beta: Partition, cap: int | None = None
) -> Combination:
    """Socle of resolution degree q after tensoring with the thick (alpha, beta).

    The exterior Cauchy pairs multiplied into the target's two slots; at the
    unit, alpha = beta = (), the socle of the resolution term Lambda^q F (x) I.
    ext_to_thick gives the same dimensions coefficient by coefficient: both
    read the LR expansions cached by symfunc._lr_strips, so they share one route.
    """
    if q < 0:
        raise ValueError("resolution degree must be non-negative")
    check_cap(2 * q + alpha.degree + beta.degree, cap)
    return thick_indices(slot_product(cauchy_ext(q), Combination({(alpha, beta): 1})))


def ext_vanishes(s: SimpleIndex, t: SimpleIndex, q: int) -> bool:
    """True when Ext^q(S, T) is forced to vanish by the defect grading."""
    d = defect(s.quad, t.quad)
    return d is None or d != q


def euler_shadow(d: int) -> Combination:
    """Signed sum over i+j = d of (-1)^i [Lambda^i F (x) S^j F] on thick indices.

    Exactness is stated here: the result is empty for every d >= 1.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    return _koszul_tails(d)[0]
