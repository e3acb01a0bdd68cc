"""Finite Z-combinations of indices: the one container for Grothendieck-group data.

An index is a Partition (a Schur function), a pair of partitions (a Schur
functor on each of two objects), a tuple of partitions such as a simple
index (lam, mu, nu, pi), or a tuple of integer exponents (a monomial: the
oracle's polynomials are Combinations of exponent tuples).  A Combination is
immutable, drops zero coefficients and keeps its terms in the order they
were first added; a CombinationBuilder accumulates terms in place and
builds the Combination once, so sums of many pieces cost linear time.
Canonical order (:func:`index_key`, defined for partition indices) is a
rendering step: the CLI sorts terms when it prints them.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import index as integer

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


def index_label(index) -> str:
    """Text form: ``[2,1]`` for a partition, slots joined by commas otherwise."""
    if isinstance(index, Partition):
        return str(index)
    return ",".join(map(str, index))


class Combination(Mapping):
    """Immutable finite Z-combination; maps each index to a non-zero integer.

    A coefficient that is not an integer (a float, a Fraction) raises
    TypeError instead of being truncated.  Two routes build ``terms``: a
    plain dict whose values are all exact ``int`` (what the engine and
    CombinationBuilder hand over) is copied as it is, and filtered only if
    it holds a zero; any other input (a Mapping, an iterable of pairs, a
    dict with a bool or Fraction value) is converted term by term with
    ``operator.index``.  Either way the Combination owns its own dict.

    ``terms`` is a plain dict in insertion order.  Equality is that of
    mappings, so a Combination also compares equal to a dict with the same
    non-zero terms, whatever their order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if type(terms) is dict and set(map(type, terms.values())) <= {int}:
            self.terms: dict = {i: c for i, c in terms.items() if c} if 0 in terms.values() else dict(terms)
        else:
            items = terms.items() if isinstance(terms, Mapping) else terms
            self.terms = {index: value for index, coeff in items if (value := integer(coeff))}

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
        return CombinationBuilder().add_all(self, factor).build()

    def __add__(self, other: "Combination") -> "Combination":
        return CombinationBuilder().add_all(self).add_all(other).build()

    def __sub__(self, other: "Combination") -> "Combination":
        return CombinationBuilder().add_all(self).add_all(other, -1).build()

    def require_nonnegative(self) -> "Combination":
        """Return self; raise ArithmeticError if any coefficient is negative."""
        for index, coeff in self.terms.items():
            if coeff < 0:
                raise ArithmeticError(f"negative multiplicity {coeff} for {index_label(index)}")
        return self

    def __repr__(self) -> str:
        body = " + ".join(f"{coeff}*{index_label(index)}" for index, coeff in self.terms.items())
        return f"Combination({body or 0})"


class CombinationBuilder:
    """Mutable accumulator of index -> coefficient; ``build`` freezes it."""

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms: dict = {}

    def add(self, index, coeff: int = 1) -> "CombinationBuilder":
        self._terms[index] = self._terms.get(index, 0) + coeff
        return self

    def add_all(self, other: Mapping, factor: int = 1) -> "CombinationBuilder":
        terms = self._terms
        for index, coeff in other.items():
            terms[index] = terms.get(index, 0) + factor * coeff
        return self

    def build(self) -> Combination:
        return Combination(self._terms)
