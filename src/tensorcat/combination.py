"""Finite Z-combinations of indices: the one container for Grothendieck-group data.

An index is a Partition (a Schur function), a pair of partitions (a Schur
functor on each of two objects), a tuple of partitions such as a simple
index (lam, mu, nu, pi), or a tuple of integer exponents (a monomial: the
oracle's polynomials are Combinations of exponent tuples).  A Combination is
immutable, drops zero coefficients and keeps its terms in the order they
were first added.  It is built one way, from a plain dict of exact ints, so
a sum of many pieces is accumulated in a local dict and built once.
Canonical order (:func:`index_key`, defined for partition indices) is a
rendering step: the CLI sorts terms when it prints them.
"""

from __future__ import annotations

from collections.abc import Mapping

from .diagrams import Partition


def index_key(index) -> tuple:
    """Canonical order: a partition by (degree, parts), a tuple slot by slot.

    A tuple's key is flat, (degree_1, part_1, degree_2, part_2, ...): it orders
    exactly as the per-slot pairs would, and is cheaper to build and compare.
    """
    if isinstance(index, Partition):
        return (index.degree, index)
    key = []
    for part in index:
        key += (sum(part), part)
    return tuple(key)


def index_label(index, text=str) -> str:
    """Text form: ``[2,1]`` for a partition, slots joined by commas otherwise.

    ``text`` renders one partition or slot; a caller printing many indices
    passes a memo of ``str`` so that each distinct slot is rendered once.
    """
    if isinstance(index, Partition):
        return text(index)
    return ",".join(map(text, index))


class Combination(Mapping):
    """Immutable finite Z-combination; maps each index to a non-zero integer.

    ``terms`` must be a plain dict whose values are all exact ``int``; any
    other input (a Mapping, an iterable of pairs, a float, Fraction or bool
    coefficient) raises TypeError instead of being converted or truncated.
    The Combination keeps its own copy of the dict, with the zeros dropped.

    ``terms`` is a plain dict in insertion order.  Equality is that of
    mappings, so a Combination also compares equal to a dict with the same
    non-zero terms, whatever their order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict = {}):  # the default is only read: the Combination copies it
        if type(terms) is not dict:
            raise TypeError(f"a Combination is built from a dict, not a {type(terms).__name__}")
        if not set(map(type, terms.values())) <= {int}:
            odd = next(coeff for coeff in terms.values() if type(coeff) is not int)
            raise TypeError(f"coefficients must be exact int, not {type(odd).__name__}")
        self.terms: dict = {i: c for i, c in terms.items() if c} if 0 in terms.values() else dict(terms)

    def __getitem__(self, index) -> int:
        return self.terms[index]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def items(self):
        return self.terms.items()

    def coefficient(self, index) -> int:
        return self.terms.get(index, 0)

    def scale(self, factor: int) -> "Combination":
        return Combination({index: factor * coeff for index, coeff in self.terms.items()})

    def __add__(self, other: "Combination") -> "Combination":
        out = dict(self.terms)
        for index, coeff in other.items():
            out[index] = out.get(index, 0) + coeff
        return Combination(out)

    def __sub__(self, other: "Combination") -> "Combination":
        out = dict(self.terms)
        for index, coeff in other.items():
            out[index] = out.get(index, 0) - coeff
        return Combination(out)

    def require_nonnegative(self) -> "Combination":
        """Return self; raise ArithmeticError if any coefficient is negative."""
        for index, coeff in self.terms.items():
            if coeff < 0:
                raise ArithmeticError(f"negative multiplicity {coeff} for {index_label(index)}")
        return self

    def __repr__(self) -> str:
        body = " + ".join(f"{coeff}*{index_label(index)}" for index, coeff in self.terms.items())
        return f"Combination({body or 0})"
