"""Closed-form decompositions of powers of tensor squares.

Six families, all multiplicity-free:

* symmetric/exterior powers of a tensor product x (x) y, indexed by pairs of
  diagrams (the two Cauchy identities);
* symmetric/exterior powers of the symmetric or alternating square of a single
  object, indexed by even partitions, conjugates of even partitions, special
  partitions, or conjugates of special partitions.

A degree-k power of a square lives in diagram degree 2k; the returned
partitions always have 2k boxes.

These building blocks take no degree cap: the request that reaches them (a
CLI command, or an engine entry point) checks its cap once, before it starts.
"""

from __future__ import annotations

from .combination import Combination
from .diagrams import EMPTY, Partition, from_frobenius, partitions, strict_partitions

SYMMETRIC = "symmetric"
EXTERIOR = "exterior"


def _check_power(k: int) -> None:
    if k < 0:
        raise ValueError(f"power index must be non-negative, got {k}")


def cauchy_sym(k: int) -> Combination:
    """S^k(x (x) y) = sum of S_lam(x) (x) S_lam(y) over |lam| = k."""
    _check_power(k)
    return Combination({(lam, lam): 1 for lam in partitions(k)})


def cauchy_ext(k: int) -> Combination:
    """Lambda^k(x (x) y) = sum of S_lam(x) (x) S_{lam'}(y) over |lam| = k."""
    _check_power(k)
    return Combination({(lam, lam.conjugate()): 1 for lam in partitions(k)})


def even_partitions(degree: int) -> tuple[Partition, ...]:
    """Partitions of the given degree with all parts even."""
    if degree % 2:
        return ()
    return tuple(Partition(2 * part for part in p) for p in partitions(degree // 2))


def special_partitions(degree: int) -> tuple[Partition, ...]:
    """Partitions with Frobenius coordinates (a_1,...,a_r | a_1+1,...,a_r+1).

    They biject with strict partitions (mu_1 > ... > mu_r) of degree/2 via
    a_i = mu_i - 1, and index exterior powers of an alternating square.
    """
    if degree % 2:
        return ()
    if degree == 0:
        return (EMPTY,)
    return tuple(
        from_frobenius(tuple(part - 1 for part in mu), mu) for mu in strict_partitions(degree // 2)
    )


def power_of_sym2(k: int, kind: str) -> Combination:
    """Decompose S^k(S^2 x) or Lambda^k(S^2 x) into Schur functors of x."""
    _check_power(k)
    if kind == SYMMETRIC:
        return Combination({lam: 1 for lam in even_partitions(2 * k)})
    if kind == EXTERIOR:
        return Combination({lam.conjugate(): 1 for lam in special_partitions(2 * k)})
    raise ValueError(f"unknown power kind {kind!r}")


def power_of_ext2(k: int, kind: str) -> Combination:
    """Decompose S^k(Lambda^2 x) or Lambda^k(Lambda^2 x).

    Lambda^2 x is S^2 x with rows and columns swapped, so each term is the
    conjugate of the matching term of power_of_sym2.
    """
    return Combination({lam.conjugate(): 1 for lam in power_of_sym2(k, kind)})
