"""Homological calculator for the canonical injective resolution of the unit.

The resolution has terms Lambda^j F (x) I whose socles are the exterior
Cauchy pairs in the two thick slots.  Kernel filtration layers are single
hook-plus-row Schur functors of F; Ext dimensions are closed-form exactly for
the unit target and for purely thick targets, and the sharpness of the defect
grading supplies a vanishing test for every other pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .combination import Combination, CombinationBuilder
from .config import check_cap
from .diagrams import Partition, partitions
from .grothendieck import UNIT, SimpleIndex, thick_indices
from .plethysm import cauchy_ext, cauchy_sym
from .poset import QuadIndex, defect
from .symfunc import lr_coefficient, slot_product

UNKNOWN = "unknown"


@cache
def _hook_row_pairs(j: int, k: int) -> Combination:
    """Pair expansion of the Schur functor S_{(k+1, 1^{j-1})} applied to F.

    Uses Lambda^j F (x) S^k F = S_{(k+1,1^{j-1})}F + S_{(k,1^j)}F, peeling the
    second summand recursively; the base case k = 0 is Lambda^j F itself.
    """
    if j < 1:
        raise ValueError("hook expansion needs j >= 1")
    if k == 0:
        return cauchy_ext(j)
    product = slot_product(cauchy_ext(j), cauchy_sym(k))
    return (product - _hook_row_pairs(j + 1, k - 1)).require_nonnegative()


@dataclass(frozen=True)
class ResolutionTerm:
    j: int
    body: str
    socle: Combination


def resolution_term(j: int, cap: int | None = None) -> ResolutionTerm:
    """Degree-j term of the resolution; its socle is the exterior Cauchy layer."""
    if j < 0:
        raise ValueError("resolution degree must be non-negative")
    check_cap(j, cap, what="resolution degree")
    socle = thick_indices(cauchy_ext(j))
    return ResolutionTerm(j=j, body=f"Lambda^{j}(F) (x) I", socle=socle)


def kernel_layer(j: int, k: int, cap: int | None = None) -> Combination:
    """Layer k of the kernel at resolution degree j.

    The kernel at degree 0 is the unit alone; for j >= 1 the layer is the
    j-row summand S_{(k+1, 1^{j-1})}F of Lambda^j F (x) S^k F, expanded into
    thick simple indices.
    """
    if j < 0 or k < 0:
        raise ValueError("kernel layer indices must be non-negative")
    check_cap(2 * (j + k), cap)
    if j == 0:
        return Combination({UNIT: 1} if k == 0 else {})
    return thick_indices(_hook_row_pairs(j, k))


def image_layer(j: int, k: int, cap: int | None = None) -> Combination:
    """Layer k of the image of the resolution map landing in degree j.

    Exactness makes this the kernel layer at degree j.  Only j = 1, S^{k+1}F,
    is an independent identity: for j >= 2, Lambda^{j-1}F (x) S^{k+1}F minus
    _hook_row_pairs(j-1, k+1) is _hook_row_pairs(j, k) by that recursion.
    """
    if j < 1:
        raise ValueError("image layers exist for degree >= 1")
    check_cap(2 * (j + k), cap)
    if j == 1:
        # the map out of degree 0 has trivial kernel in positive layers
        return thick_indices(cauchy_sym(k + 1))
    product = slot_product(cauchy_ext(j - 1), cauchy_sym(k + 1))
    return thick_indices((product - _hook_row_pairs(j - 1, k + 1)).require_nonnegative())


def ext_to_trivial(x: SimpleIndex, j: int) -> int:
    """dim Ext^j(X, unit): one exactly on the conjugate-thick family."""
    if j < 0:
        return 0
    if x.mu or x.nu:
        return 0
    if x.lam.degree != j:
        return 0
    return 1 if x.pi == x.lam.conjugate() else 0


def ext_to_thick(
    x: SimpleIndex, target: tuple[Partition, Partition], q: int
) -> int | str:
    """dim Ext^q(X, T) for a purely thick T indexed by (alpha, beta).

    For thick X the dimension is the Cauchy-type sum over degree-q diagrams
    gamma of c^lam_{alpha,gamma} * c^pi_{beta,gamma'}.  For mixed X the answer
    is 0 whenever the defect differs from q, and UNKNOWN at the defect itself.
    """
    alpha, beta = Partition(target[0]), Partition(target[1])
    if q < 0:
        return 0
    if not x.is_thick():
        t = QuadIndex(alpha.degree, 0, 0, beta.degree)
        d = defect(x.quad, t)
        if d is None or d != q:
            return 0
        return UNKNOWN
    total = 0
    for gamma in partitions(q):
        cl = lr_coefficient(x.lam, alpha, gamma)
        if not cl:
            continue
        total += cl * lr_coefficient(x.pi, beta, gamma.conjugate())
    return total


def thick_target_socle(q: int, alpha: Partition, beta: Partition) -> Combination:
    """Socle of resolution degree q after tensoring with the thick (alpha, beta).

    Independent route to the same dimensions as ext_to_thick, via the exterior
    Cauchy pairs multiplied into the target's two slots.
    """
    return thick_indices(slot_product(cauchy_ext(q), Combination({(alpha, beta): 1})))


def ext_vanishes(s: SimpleIndex, t: SimpleIndex, q: int) -> bool:
    """True when Ext^q(S, T) is forced to vanish by the defect grading."""
    d = defect(s.quad, t.quad)
    return d is None or d != q


def euler_shadow(d: int) -> Combination:
    """Signed sum over i+j = d of (-1)^i [Lambda^i F (x) S^j F] on thick indices.

    The resolution being exact, the result is empty for every d >= 1.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    out = CombinationBuilder()
    for i in range(d + 1):
        out.add_all(slot_product(cauchy_ext(i), cauchy_sym(d - i)), -1 if i % 2 else 1)
    return thick_indices(out.build())
