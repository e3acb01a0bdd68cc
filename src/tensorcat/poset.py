"""The index poset on quadruples (l, m, n, p) and its defect.

a = (l,m,n,p) lies below b = (l',m',n',p') exactly when b can be driven down
to a by the four degree-one moves

    (l,m,n,p) -> (l+1, m-1, n,   p  )     quotient on the m side
    (l,m,n,p) -> (l,   m,   n-1, p+1)     quotient on the n side
    (l,m,n,p) -> (l,   m-1, n-1, p  )     pairing
    (l,m,n,p) -> (l+1, m,   n,   p+1)     filtration layer twist

equivalently when l >= l', m <= m', n <= n', p >= p' and the linear invariant
l+m-n-p agrees on both sides.  Every saturated chain between comparable
elements has the same length (l-l') + (n'-n) = (p-p') + (m'-m); that common
length is the defect.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial
from operator import index as integer

from .diagrams import read_fields, read_natural


class QuadIndex(namedtuple("QuadIndex", "l m n p")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.l},{self.m},{self.n},{self.p}"


def quad(l: int, m: int, n: int, p: int) -> QuadIndex:
    q = QuadIndex(integer(l), integer(m), integer(n), integer(p))
    if min(q) < 0:
        raise ValueError(f"quadruple entries must be non-negative: {tuple(q)}")
    return q


def parse_quad(text: str) -> QuadIndex:
    return quad(*read_fields(text, read_natural, 4, "expected four comma-separated entries"))


def invariant(q: QuadIndex) -> int:
    return q.l + q.m - q.n - q.p


def leq(a: QuadIndex, b: QuadIndex) -> bool:
    """Partial order: a below b."""
    return (
        a.l >= b.l
        and a.m <= b.m
        and a.n <= b.n
        and a.p >= b.p
        and invariant(a) == invariant(b)
    )


def defect(a: QuadIndex, b: QuadIndex) -> int | None:
    """Common length of all saturated chains from a up to b; None if incomparable."""
    if not leq(a, b):
        return None
    return (a.l - b.l) + (b.n - a.n)


def defect_mirror(a: QuadIndex, b: QuadIndex) -> int | None:
    """The equivalent closed form on the other pair of coordinates."""
    if not leq(a, b):
        return None
    return (a.p - b.p) + (b.m - a.m)


def _up_moves(a: QuadIndex) -> list[QuadIndex]:
    candidates = [
        (a.l - 1, a.m + 1, a.n, a.p),
        (a.l, a.m, a.n + 1, a.p - 1),
        (a.l, a.m + 1, a.n + 1, a.p),
        (a.l - 1, a.m, a.n, a.p - 1),
    ]
    return [QuadIndex(*c) for c in candidates if min(c) >= 0]


def covers(a: QuadIndex, bound: int) -> list[QuadIndex]:
    """Immediate successors of a whose entries do not exceed bound."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return sorted(c for c in _up_moves(a) if max(c) <= bound)


def saturated_chains(a, b, up_moves, order) -> list[list]:
    """All saturated chains from a up to b, sorted.

    up_moves(x) lists the elements covering x.  order(x, b) must tell
    whether x lies below b for a and for every element reached from a, and
    only covers it admits are followed.  Where the moves keep an invariant
    that the caller has compared once, a test of b's box alone does that.
    The walk keeps its own stack, so a long chain needs no deep recursion.
    """
    if not order(a, b):
        return []
    found, stack = [], [[a]]
    while stack:
        chain = stack.pop()
        if chain[-1] == b:
            found.append(chain)
        else:
            stack.extend(chain + [c] for c in up_moves(chain[-1]) if order(c, b))
    return sorted(found)


def chain_count(a: QuadIndex, b: QuadIndex) -> int:
    """Number of saturated chains from a up to b, counted without listing them.

    A chain is an ordering of its moves: x1 quotients on the m side, x2 on the
    n side, x3 pairings and x4 twists, with x1 + x3 = m' - m, x2 + x3 = n' - n
    and x1 + x4 = l - l'.  Every ordering stays below b, so the count is the
    sum over x3 of the multinomial d! / (x1! x2! x3! x4!), d the defect.
    """
    d = defect(a, b)
    if d is None:
        return 0
    dm, dn, dl = b.m - a.m, b.n - a.n, a.l - b.l
    return sum(
        factorial(d) // (factorial(dm - x3) * factorial(dn - x3) * factorial(x3) * factorial(dl - dm + x3))
        for x3 in range(max(0, dm - dl), min(dm, dn) + 1)
    )


def _inside(x: QuadIndex, b: QuadIndex) -> bool:
    """x lies in b's box: l and p no smaller than b's, m and n no larger."""
    return x.l >= b.l and x.m <= b.m and x.n <= b.n and x.p >= b.p


def chains(a: QuadIndex, b: QuadIndex) -> list[list[QuadIndex]]:
    """All saturated chains from a up to b.

    A chain's moves (x1..x4 as in ``chain_count``) must balance: x4 - x3 is
    both (l - l') - (m' - m) and (p - p') - (n' - n).  That balance is
    compared once, here, from the coordinates and not through ``invariant``
    (to which it is algebraically equal); every up-move keeps it, so an
    element that balances against b lies below b exactly when it lies in b's
    box.  The walk prunes by that box alone and never calls ``leq``, so the
    chains are a route to the defect that shares no test with the order.
    Upward, l and p only decrease and m and n only increase, so the walk
    stays in the box spanned by a and b and needs no external bound.
    """
    if (a.l - b.l) - (b.m - a.m) != (a.p - b.p) - (b.n - a.n):
        return []
    return saturated_chains(a, b, _up_moves, _inside)
