"""Young-diagram arithmetic.

Partitions are stored minimal-length (no trailing zeros) as weakly decreasing
tuples of positive integers; the empty partition is ``Partition()``.  Only
printing orders them, by ``combination.index_key`` (degree, then parts).
A ``Partition`` is a bare tuple: it has no instance dict, and its degree is
computed from the parts when asked for, so each one costs what its tuple does.
``read_fields`` is the one text grammar of indices (partitions, quadruples,
pairs, simple indices): ASCII digits and whitespace only, and a ParseError
gives its position in the whole text.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cache, partial
from operator import ge, index as integer

from .errors import ParseError

# ASCII whitespace: the value of string.whitespace, without importing string
WHITESPACE = " \t\n\r\x0b\x0c"
# The longest number read from text.  CPython's int()/str() refuse more digits than a
# setting whose lowest value is 640, in words that differ between versions; 600 keeps
# every input, and the few-term sums the commands print, under it.
DIGITS_LIMIT = 600


class Partition(tuple):
    """A Young diagram as a weakly decreasing tuple of positive integers.

    Parts must be integers: a float or a string raises TypeError.  There is
    no instance dict: ``degree`` is read-only and computed as the sum of the
    parts.
    """

    __slots__ = ()

    degree = property(sum, doc="The number of boxes.")

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts  # immutable and already validated
        parts = tuple(parts)
        cleaned = []
        for part in parts:
            part = integer(part)
            if part < 0:
                raise ValueError(f"negative part {part} in partition {parts}")
            if part > 0:
                cleaned.append(part)
        for a, b in zip(cleaned, cleaned[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        return super().__new__(cls, cleaned)

    @classmethod
    def _unchecked(cls, rows) -> "Partition":
        """A Partition of rows the caller guarantees are positive integers,
        weakly decreasing; nothing is checked."""
        return tuple.__new__(cls, rows)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self)) + "]"

    def conjugate(self) -> "Partition":
        """Transpose the diagram, swapping rows and columns."""
        return Partition._unchecked(conjugate_rows(self))

    def contains(self, other: "Partition") -> bool:
        """Containment of diagrams: other fits inside self row by row."""
        return len(other) <= len(self) and all(map(ge, self, other))

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

    def is_special(self) -> bool:
        """True when each diagonal hook has leg exactly one longer than arm.

        Equivalently the Frobenius coordinates are (a_1,...,a_r | a_1+1,...,a_r+1);
        these diagrams index exterior powers of an alternating square.
        """
        arms, legs = self.frobenius()
        return all(leg == arm + 1 for arm, leg in zip(arms, legs))


EMPTY = Partition()


def conjugate_rows(rows) -> list[int]:
    """The columns of the diagram with these weakly decreasing rows."""
    cols: list[int] = []
    for depth in range(len(rows), 0, -1):
        # columns len(cols)..rows[depth - 1] - 1 have exactly `depth` boxes
        cols += [depth] * (rows[depth - 1] - len(cols))
    return cols


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


def _walk(remaining: int, largest: int, drop: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``remaining`` into parts of at most ``largest``, each part at least ``drop`` below the one
    before, in ascending tuple order: the first part walks upward."""
    if remaining == 0:
        yield ()
        return
    for first in range(1, min(remaining, largest) + 1):
        for rest in _walk(remaining - first, first - drop, drop):
            yield (first,) + rest


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, canonically sorted."""
    return tuple(map(Partition, _walk(n, n, 0))) if n >= 0 else ()


def strict_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with strictly decreasing parts, largest first part first."""
    return tuple(reversed(tuple(_walk(n, n, 1))))


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
    n = integer(n)
    if n < 1:
        raise ValueError(f"space dimension must be positive, got {n}")
    if len(p) > n:
        return 0
    contents = math.prod(n + j - i for i in range(len(p)) for j in range(p[i]))
    result, rem = divmod(contents, math.prod(h for row in hook_lengths(p) for h in row))
    if rem:
        raise ArithmeticError(f"hook-content quotient for {p} leaves remainder {rem}")
    return result


@cache
def standard_tableau_count(p: Partition) -> int:
    """Number of standard Young tableaux of shape p (hook-length formula)."""
    product = 1
    for row in hook_lengths(p):
        for h in row:
            product *= h
    result, rem = divmod(math.factorial(p.degree), product)
    if rem:
        raise ArithmeticError(f"hook-length quotient for {p} leaves remainder {rem}")
    return result


def ascii_int(text: str, what: str = "integer") -> int:
    """Read an optional '-' then ASCII decimal digits, and nothing else.

    Unlike int(), this refuses '+', spaces, '_' separators, non-ASCII digits
    and more than DIGITS_LIMIT digits; the ValueError names what was being read.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad {what} {text!r}")
    if len(digits) > DIGITS_LIMIT:
        raise ValueError(f"bad {what} {text!r}: more than {DIGITS_LIMIT} digits")
    return int(text)


def read_fields(text: str, read, count: int = 0, refusal: str = "", start: int = 0, end: int | None = None) -> list:
    """Read text[start:end] split at its top-level commas (brackets nest), each field by
    ``read(text, field_start, field_end)``.  Unbalanced brackets are refused, and so, given
    a count, is any other number of fields, with ``refusal`` (``{got}``: the number found)."""
    end = len(text) if end is None else end
    starts, depth = [start], 0
    for pos in range(start, end):
        if text[pos] == "[":
            depth += 1
        elif text[pos] == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(text, pos, "unbalanced ']'")
        elif text[pos] == "," and not depth:
            starts.append(pos + 1)
    if depth:
        raise ParseError(text, end - 1, "unbalanced '['")
    if count and len(starts) != count:
        raise ParseError(text, 0, refusal.format(got=len(starts)))
    return [read(text, a, b - 1) for a, b in zip(starts, [*starts[1:], end + 1])]


def read_natural(text: str, start: int, end: int, what: str = "entry") -> int:
    """Read the field text[start:end]: at most DIGITS_LIMIT ASCII decimal digits, only ASCII whitespace
    around them."""
    field = text[start:end]
    digits = field.strip(WHITESPACE)
    pos = start + len(field) - len(field.lstrip(WHITESPACE))
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(text, pos, f"bad {what} {digits!r}")
    if len(digits) > DIGITS_LIMIT:
        raise ParseError(text, pos, f"bad {what}: more than {DIGITS_LIMIT} digits")
    return int(digits)


def parse_partition(text: str, start: int = 0, end: int | None = None) -> Partition:
    """Parse the text syntax ``[4,2,1]``, ASCII spaces allowed; the empty diagram is ``[]``.
    Given start and end, it reads the field text[start:end] of a longer text."""
    end = len(text) if end is None else end
    stripped = text[start:end].strip(WHITESPACE)
    if not stripped.startswith("["):
        raise ParseError(text, start, "expected '['")
    if not stripped.endswith("]"):
        raise ParseError(text, end - 1, "expected ']'")
    first, last = text.index("[", start) + 1, text.rindex("]", start, end)
    if not text[first:last].strip(WHITESPACE):
        return EMPTY
    parts = read_fields(text, partial(read_natural, what="part"), start=first, end=last)
    try:
        return Partition(parts)
    except ValueError as exc:
        raise ParseError(text, start + 1, str(exc)) from exc
