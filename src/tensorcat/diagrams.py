"""Young-diagram arithmetic.

Partitions are stored minimal-length (no trailing zeros) as weakly decreasing
tuples of positive integers; the empty partition is ``Partition()``.  Only
printing orders them, by ``combination.index_key`` (degree, then parts).
"""

from __future__ import annotations

import math
from functools import cache
from string import whitespace

from .errors import ParseError


class Partition(tuple):
    """A Young diagram as a weakly decreasing tuple of positive integers."""

    degree: int

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts  # immutable and already validated
        parts = tuple(parts)
        cleaned = []
        for part in parts:
            part = int(part)
            if part < 0:
                raise ValueError(f"negative part {part} in partition {parts}")
            if part > 0:
                cleaned.append(part)
        for a, b in zip(cleaned, cleaned[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        self = super().__new__(cls, cleaned)
        self.degree = sum(cleaned)
        return self

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(part) for part in self) + "]"

    def conjugate(self) -> "Partition":
        """Transpose the diagram, swapping rows and columns."""
        if not self:
            return EMPTY
        cols = [0] * self[0]
        for part in self:
            for j in range(part):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        """Containment of diagrams: other fits inside self row by row."""
        if len(other) > len(self):
            return False
        return all(o <= s for s, o in zip(self, other))

    def frobenius(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Frobenius coordinates (arms | legs) along the main diagonal."""
        conj = self.conjugate()
        arms, legs = [], []
        for i, part in enumerate(self):
            if part <= i:
                break
            arms.append(part - i - 1)
            legs.append(conj[i] - i - 1)
        return tuple(arms), tuple(legs)

    def is_even(self) -> bool:
        """True when every part is even."""
        return all(part % 2 == 0 for part in self)

    def is_special(self) -> bool:
        """True when each diagonal hook has leg exactly one longer than arm.

        Equivalently the Frobenius coordinates are (a_1,...,a_r | a_1+1,...,a_r+1);
        these diagrams index exterior powers of an alternating square.
        """
        arms, legs = self.frobenius()
        return all(leg == arm + 1 for arm, leg in zip(arms, legs))


EMPTY = Partition()


def from_frobenius(arms, legs) -> Partition:
    """Rebuild a partition from strictly decreasing arm and leg sequences."""
    arms, legs = tuple(arms), tuple(legs)
    if len(arms) != len(legs):
        raise ValueError("arm and leg sequences must have equal length")
    for seq in (arms, legs):
        if any(a <= b for a, b in zip(seq, seq[1:])):
            raise ValueError("Frobenius coordinates must strictly decrease")
    rows = len(arms)
    if rows == 0:
        return EMPTY
    parts = [arms[i] + i + 1 for i in range(rows)]
    # rows below the diagonal block, recovered from the legs
    depth = legs[0] + 1
    for r in range(rows, depth):
        parts.append(sum(1 for i in range(rows) if legs[i] + i >= r))
    return Partition(parts)


def add_box(p: Partition) -> tuple[Partition, ...]:
    """All partitions obtained from p by adding one box."""
    results = []
    for i in range(len(p) + 1):
        here = p[i] if i < len(p) else 0
        above = p[i - 1] if i > 0 else None
        if above is None or here + 1 <= above:
            results.append(Partition(p[:i] + (here + 1,) + p[i + 1 :]))
    return tuple(results)


def remove_box(p: Partition) -> tuple[Partition, ...]:
    """All partitions obtained from p by removing one corner box."""
    results = []
    for i in range(len(p)):
        below = p[i + 1] if i + 1 < len(p) else 0
        if p[i] - 1 >= below:
            results.append(Partition(p[:i] + (p[i] - 1,) + p[i + 1 :]))
    return tuple(results)


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, canonically sorted."""
    if n < 0:
        return ()

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(sorted((Partition(p) for p in rec(n, n)), key=lambda q: tuple(q)))


def strict_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with strictly decreasing parts."""

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first - 1):
                yield (first,) + rest

    return tuple(rec(n, n))


def hook_lengths(p: Partition) -> list[list[int]]:
    conj = p.conjugate()
    return [
        [(p[i] - j) + (conj[j] - i) - 1 for j in range(p[i])]
        for i in range(len(p))
    ]


def gl_dimension(p: Partition, n: int) -> int:
    """Dimension of the degree-|p| Schur functor applied to an n-space.

    Hook-content formula; exactly zero when the diagram has more than n rows.
    """
    if n < 1:
        raise ValueError(f"space dimension must be positive, got {n}")
    if len(p) > n:
        return 0
    contents = math.prod(n + j - i for i in range(len(p)) for j in range(p[i]))
    result, rem = divmod(contents, math.prod(h for row in hook_lengths(p) for h in row))
    assert rem == 0
    return result


@cache
def standard_tableau_count(p: Partition) -> int:
    """Number of standard Young tableaux of shape p (hook-length formula)."""
    product = 1
    for row in hook_lengths(p):
        for h in row:
            product *= h
    result, rem = divmod(math.factorial(p.degree), product)
    assert rem == 0
    return result


def parse_naturals(text: str, body: str, start: int, what: str) -> list[int]:
    """Read body, a comma-separated list of ASCII decimal naturals in text.

    start is where body begins in text; a bad token raises ParseError at the
    token's own position.  Only ASCII whitespace around a token is skipped.
    """
    values = []
    pos = start
    for token in body.split(","):
        pos = text.find(token, pos)
        cleaned = token.strip(whitespace)
        if not (cleaned.isascii() and cleaned.isdigit()):
            raise ParseError(text, pos + len(token) - len(token.lstrip(whitespace)), f"bad {what} {cleaned!r}")
        values.append(int(cleaned))
        pos += len(token)
    return values


def ascii_int(text: str, what: str = "integer") -> int:
    """Read an optional '-' then ASCII decimal digits, and nothing else.

    Unlike int(), this refuses '+', spaces, '_' separators and non-ASCII
    digits; the ValueError names what was being read.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad {what} {text!r}")
    return int(text)


def parse_partition(text: str) -> Partition:
    """Parse the text syntax ``[4,2,1]``, ASCII spaces allowed; the empty diagram is ``[]``."""
    stripped = text.strip(whitespace)
    if not stripped.startswith("["):
        raise ParseError(text, 0, "expected '['")
    if not stripped.endswith("]"):
        raise ParseError(text, len(text) - 1, "expected ']'")
    inner = stripped[1:-1].strip(whitespace)
    if not inner:
        return EMPTY
    parts = parse_naturals(text, inner, text.index("[") + 1, "part")
    try:
        return Partition(parts)
    except ValueError as exc:
        raise ParseError(text, 1, str(exc)) from exc
