"""Checks of linalg.rank_of_rows and row_basis against routes that share no elimination code.

Hypothesis runs derandomized on integer matrices of at most 5 x 5 with entries
in [-2, 2]; the reference rank is the size of the largest non-zero minor, with
determinants expanded over permutations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcat.linalg import rank_of_rows, row_basis

SMALL = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def matrices(draw):
    height = draw(st.integers(0, 5))
    width = draw(st.integers(1, 5))
    return [draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width)) for _ in range(height)]


def rank(matrix: list[list], columns=None) -> int:
    width = len(matrix[0]) if matrix else 0
    columns = list(range(width)) if columns is None else columns
    return rank_of_rows([dict(zip(range(width), row)) for row in matrix], columns)


def determinant(square: list[list[int]]) -> int:
    total = 0
    for perm in itertools.permutations(range(len(square))):
        inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
        total += (-1) ** inversions * math.prod(square[i][perm[i]] for i in range(len(perm)))
    return total


def minor_rank(matrix: list[list[int]]) -> int:
    height, width = len(matrix), len(matrix[0]) if matrix else 0
    for k in range(min(height, width), 0, -1):
        for rows in itertools.combinations(range(height), k):
            for cols in itertools.combinations(range(width), k):
                if determinant([[matrix[r][c] for c in cols] for r in rows]):
                    return k
    return 0


def transpose(matrix: list[list]) -> list[list]:
    return [list(column) for column in zip(*matrix)]


@SMALL
@given(matrices())
def test_rank_is_the_largest_nonzero_minor(matrix):
    assert rank(matrix) == minor_rank(matrix)


@SMALL
@given(matrices())
def test_rank_ignores_column_order(matrix):
    width = len(matrix[0]) if matrix else 0
    assert rank(matrix, list(reversed(range(width)))) == rank(matrix)


@SMALL
@given(matrices().filter(bool))
def test_rank_is_unchanged_by_transpose(matrix):
    assert rank(transpose(matrix)) == rank(matrix)


def basis(matrix: list[list], columns: list) -> list[dict]:
    return row_basis([dict(zip(columns, row)) for row in matrix], columns)


@SMALL
@given(matrices())
def test_row_basis_has_rank_many_rows(matrix):
    width = len(matrix[0]) if matrix else 0
    assert len(basis(matrix, list(range(width)))) == minor_rank(matrix)


@SMALL
@given(matrices())
def test_row_basis_spans_every_input_row(matrix):
    width = len(matrix[0]) if matrix else 0
    columns = list(range(width))
    kept = basis(matrix, columns)
    for row in matrix:
        assert rank_of_rows(kept + [dict(zip(columns, row))], columns) == len(kept)


@SMALL
@given(matrices())
def test_row_basis_keys_are_the_given_columns(matrix):
    width = len(matrix[0]) if matrix else 0
    columns = [("column", j) for j in range(width)]
    for row in basis(matrix, columns):
        assert row and all(any(key is column for column in columns) for key in row)


nonzero_fractions = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4))


@SMALL
@given(matrices(), st.lists(nonzero_fractions, min_size=5, max_size=5))
def test_rank_is_unchanged_by_scaling_rows(matrix, factors):
    assert rank([[f * v for v in row] for f, row in zip(factors, matrix)]) == rank(matrix)


def test_fixed_cases():
    columns = ["a", "b", "c"]
    assert rank_of_rows([], columns) == 0
    # all-zero rows, given sparse and with explicit zeros
    assert rank_of_rows([{}, {"a": 0, "c": 0}], columns) == 0
    # duplicate rows count once
    assert rank_of_rows([{"a": 1, "b": -1}, {"a": 1, "b": -1}, {"c": 2}], columns) == 2
    # the third row cancels to nothing against the first two
    rows = [{"a": 2, "b": 1}, {"b": 3, "c": 1}, {"a": 4, "b": 5, "c": 1}]
    assert rank_of_rows(rows, columns) == 2
    # Fraction entries with different denominators in one row
    assert rank_of_rows([{"a": Fraction(1, 2), "b": Fraction(1, 3)}, {"a": 3, "b": 2}], columns) == 1
    # rows mixing ints and Fractions, the int first in one and last in the other
    mixed = [{"a": 2, "b": Fraction(1, 3)}, {"b": Fraction(1, 2), "a": 3}]
    assert row_basis(mixed, columns) == [{"a": 6, "b": 1}]


def test_row_basis_stops_at_full_rank():
    columns = ["a", "b", "c"]
    full = [{"a": 2, "b": 1}, {"a": 4, "b": 2}, {"b": 3, "c": 1}, {"a": 1, "c": 5}]

    def drawn_once():
        yield from full  # the fourth row completes the rank
        raise AssertionError("a row was drawn after the rank was full")

    assert row_basis(drawn_once(), columns) == row_basis(full + [{"a": 1, "b": 1, "c": 1}], columns)
    assert len(row_basis(drawn_once(), columns)) == 3
