"""Exact echelon basis and rank of sparse integer row vectors.

One fraction-free elimination serves both.  Each row is reduced against the
rows already kept: while its leading column (first in ``columns`` order) holds
a kept row, the two are cross-multiplied so that entry cancels, and the result
is divided by the gcd of its entries.  A row that survives is kept.  The kept
rows have distinct leading columns, each is a non-zero multiple of an input row
minus a combination of earlier kept rows, so they are an echelon basis of the
span of the input, and the rank is their number.  All arithmetic stays in the
integers; see Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22 (1968).
"""

from __future__ import annotations

import math
from collections.abc import Iterable


def row_basis(rows: Iterable[dict], columns: list) -> list[dict]:
    """Echelon basis of the span of sparse integer rows keyed by `columns`.

    The basis rows are integer vectors, keyed by the same column objects, in
    order of their leading column.  Rows are drawn one at a time, and none is
    drawn once the basis has ``len(columns)`` rows.
    """
    col_index = {c: i for i, c in enumerate(columns)}
    kept: dict[int, dict[int, int]] = {}  # leading column -> kept row
    for row in rows:
        vec = {col_index[c]: v for c, v in row.items() if v}
        while vec and (lead := min(vec)) in kept:
            pivot = kept[lead]
            g = math.gcd(vec[lead], pivot[lead])
            a, b = pivot[lead] // g, vec[lead] // g
            vec = {c: a * value for c, value in vec.items()}
            for c, value in pivot.items():
                vec[c] = vec.get(c, 0) - b * value
            g = math.gcd(*vec.values())
            vec = {c: value // g for c, value in vec.items() if value}
        if vec:
            kept[lead] = vec
            if len(kept) == len(columns):
                break  # full rank: no later row can be independent
    return [{columns[i]: value for i, value in kept[lead].items()} for lead in sorted(kept)]


def rank_of_rows(rows: list[dict], columns: list) -> int:
    """Rank of sparse integer row vectors whose keys come from `columns`."""
    return len(row_basis(rows, columns))
