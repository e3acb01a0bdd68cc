"""Indices shared by the test modules, imported as a plain module
(``from quads import ...``): pytest puts this directory on ``sys.path``."""

from __future__ import annotations

import itertools

from tensorcat.diagrams import Partition
from tensorcat.grothendieck import SimpleIndex
from tensorcat.poset import QuadIndex


def quads_with_sum_at_most(bound: int) -> list[QuadIndex]:
    """Every quadruple of naturals with sum at most ``bound``, by sum."""
    out = []
    for total in range(bound + 1):
        for split in itertools.product(range(total + 1), repeat=4):
            if sum(split) == total:
                out.append(QuadIndex(*split))
    return out


def simple(lam=(), mu=(), nu=(), pi=()) -> SimpleIndex:
    """The simple index (lam, mu, nu, pi) from four lists of parts; an omitted slot is empty."""
    return SimpleIndex(Partition(lam), Partition(mu), Partition(nu), Partition(pi))
