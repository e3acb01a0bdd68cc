"""Orthogonal and symplectic variants.

Simple objects are indexed by a pair of diagrams, the first living on the
irreducible quotient W, the second on the natural side; the two variants share
one index poset on pairs (l, m).  The pair (l', m') can be driven down to
(l, m) by three degree-one moves,

    (l, m) -> (l+1, m-1)     quotient projection
    (l, m) -> (l,   m-2)     pairing into the algebra object
    (l, m) -> (l+2, m)       filtration layer twist

so a ⪯ b iff l >= l', m <= m' and l+m ≡ l'+m' (mod 2); every saturated chain
between comparable pairs has length ((l-l') + (m'-m)) / 2, which is the defect.

The square used to build the filtration is symmetric for the orthogonal
variant and alternating for the symplectic one; accordingly the filtration
layers are indexed by even partitions or their conjugates, and the resolution
socles by conjugates of special partitions or by special partitions.
"""

from __future__ import annotations

from collections import namedtuple

from .combination import Combination
from .config import check_cap
from .diagrams import Partition, read_fields, read_natural
from .plethysm import EXTERIOR, SYMMETRIC, power_of_ext2, power_of_sym2
from .poset import saturated_chains

ORTHOGONAL = "o"
SYMPLECTIC = "sp"
KINDS = (ORTHOGONAL, SYMPLECTIC)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


class OspIndex(namedtuple("OspIndex", "kind lam mu")):
    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.lam.degree + self.mu.degree


def osp_index(kind: str, lam=(), mu=()) -> OspIndex:
    _check_kind(kind)
    return OspIndex(kind, Partition(lam), Partition(mu))


PairIndex = namedtuple("PairIndex", "l m")


def parse_pair(text: str) -> PairIndex:
    return PairIndex(*read_fields(text, read_natural, 2, "expected two comma-separated entries"))


def osp_leq(a: PairIndex, b: PairIndex) -> bool:
    return a.l >= b.l and a.m <= b.m and (a.l + a.m) % 2 == (b.l + b.m) % 2


def osp_defect(a: PairIndex, b: PairIndex) -> int | None:
    if not osp_leq(a, b):
        return None
    return ((a.l - b.l) + (b.m - a.m)) // 2


def osp_up_moves(a: PairIndex) -> list[PairIndex]:
    candidates = [(a.l - 1, a.m + 1), (a.l, a.m + 2), (a.l - 2, a.m)]
    return [PairIndex(*c) for c in candidates if min(c) >= 0]


def _osp_inside(x: PairIndex, b: PairIndex) -> bool:
    """x lies in b's box: l no smaller than b's, m no larger."""
    return x.l >= b.l and x.m <= b.m


def osp_chains(a: PairIndex, b: PairIndex) -> list[list[PairIndex]]:
    """All saturated chains from a up to b.

    Every move keeps the parity of l + m, so it is compared once, here; the
    walk then prunes by b's box alone and never calls ``osp_leq``.
    """
    if (a.l + a.m) % 2 != (b.l + b.m) % 2:
        return []
    return saturated_chains(a, b, osp_up_moves, _osp_inside)


def _square_power(kind: str):
    """The powers of the variant's square: symmetric (orthogonal) or alternating (symplectic)."""
    _check_kind(kind)
    return power_of_sym2 if kind == ORTHOGONAL else power_of_ext2


def osp_layers_of_i(kind: str, kmax: int, cap: int | None = None) -> list[Combination]:
    """Filtration layers of the injective hull of the unit, per variant.

    Layer k is the k-th symmetric power of the symmetric (orthogonal) or
    alternating (symplectic) square of W.
    """
    power = _square_power(kind)
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    check_cap(2 * kmax, cap)
    return [power(k, SYMMETRIC) for k in range(kmax + 1)]


def osp_ext_to_trivial(x: OspIndex, j: int) -> int:
    """dim Ext^j(X, unit) in the variant ``x.kind``.

    Exactly one on the W-slot diagrams appearing in the j-th exterior power of
    the square: special partitions of degree 2j for the symplectic variant,
    their conjugates for the orthogonal one.
    """
    _check_kind(x.kind)
    if j < 0 or x.mu:
        return 0
    if x.lam.degree != 2 * j:
        return 0
    if x.kind == SYMPLECTIC:
        return 1 if x.lam.is_special() else 0
    return 1 if x.lam.conjugate().is_special() else 0


def osp_conjugate(x: OspIndex) -> OspIndex:
    """Swap the variant and conjugate the W-slot diagram; an involution."""
    other = SYMPLECTIC if x.kind == ORTHOGONAL else ORTHOGONAL
    return OspIndex(other, x.lam.conjugate(), x.mu)


def osp_resolution_socle(kind: str, j: int, cap: int | None = None) -> Combination:
    """W-slot decomposition of the socle of the j-th resolution term."""
    power = _square_power(kind)
    if j < 0:
        raise ValueError("resolution degree must be non-negative")
    check_cap(2 * j, cap)
    return power(j, EXTERIOR)
