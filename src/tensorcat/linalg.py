"""Exact rank of sparse rational row vectors by fraction-free elimination.

Each row is cleared of denominators, then reduced against the rows already
kept: while its leading column (first in ``columns`` order) holds a kept row,
the two are cross-multiplied so that entry cancels, and the result is divided
by the gcd of its entries.  All arithmetic stays in the integers; see Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian elimination",
Math. Comp. 22 (1968).
"""

from __future__ import annotations

import math


def rank_of_rows(rows: list[dict], columns: list) -> int:
    """Rank of sparse rational row vectors whose keys come from `columns`."""
    col_index = {c: i for i, c in enumerate(columns)}
    kept: dict[int, dict[int, int]] = {}  # leading column -> kept row
    for row in rows:
        den = math.lcm(*(v.denominator for v in row.values()))
        vec = {col_index[c]: v.numerator * den // v.denominator for c, v in row.items() if v}
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
    return len(kept)
