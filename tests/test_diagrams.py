from __future__ import annotations

import pytest

from tensorcat.diagrams import (
    EMPTY,
    Partition,
    add_box,
    from_frobenius,
    gl_dimension,
    hook_lengths,
    parse_partition,
    partitions,
    remove_box,
    standard_tableau_count,
)
from tensorcat.errors import ParseError
from tensorcat.oracle import expand_schur, standard_tableaux_brute


def test_normalization_and_invariants():
    assert Partition([3, 2, 0, 0]) == (3, 2)
    assert Partition([]) == ()
    assert Partition([2, 1]).degree == 3
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_partition_of_a_partition_is_itself():
    p = Partition([3, 1])
    assert Partition(p) is p
    for parts in ([3, 1], (3, 1), iter([3, 1, 0])):
        q = Partition(parts)
        assert q == p and q is not p and q.degree == 4
    for parts in ([2, -1], (2, -1)):
        with pytest.raises(ValueError, match=r"^negative part -1 in partition \(2, -1\)$"):
            Partition(parts)
    for parts in ([1, 2], (1, 2)):
        with pytest.raises(ValueError, match=r"^parts not weakly decreasing: \(1, 2\)$"):
            Partition(parts)


def test_conjugate_examples():
    assert EMPTY.conjugate() == EMPTY
    assert Partition([1]).conjugate() == (1,)
    assert Partition([2, 1, 1]).conjugate() == (3, 1)


def test_conjugate_matches_box_transpose():
    # bit-matrix transpose oracle
    for n in range(11):
        for p in partitions(n):
            boxes = {(i, j) for i in range(len(p)) for j in range(p[i])}
            transposed = {(j, i) for (i, j) in boxes}
            rows = {}
            for (i, _) in transposed:
                rows[i] = rows.get(i, 0) + 1
            expected = Partition(rows[i] for i in sorted(rows))
            assert p.conjugate() == expected
            assert p.conjugate().conjugate() == p


def test_add_box_examples():
    assert add_box(EMPTY) == (Partition([1]),)
    assert set(add_box(Partition([1]))) == {(2,), (1, 1)}
    assert set(add_box(Partition([2, 1]))) == {(3, 1), (2, 2), (2, 1, 1)}


def test_add_remove_duality_and_count():
    for n in range(9):
        for p in partitions(n):
            bigger = add_box(p)
            assert len(bigger) == len(set(p)) + 1
            for q in bigger:
                assert p in remove_box(q)
            for q in remove_box(p):
                assert p in add_box(q)


def test_gl_dimension_examples():
    assert gl_dimension(Partition([1]), 3) == 3
    assert gl_dimension(Partition([2, 1, 1]), 4) == 15
    assert gl_dimension(Partition([1, 1, 1]), 2) == 0


def test_gl_dimension_counts_tableaux():
    for n in range(7):
        for p in partitions(n):
            for nv in range(1, 6):
                assert gl_dimension(p, nv) == sum(expand_schur(p, nv).values())


def test_frobenius_roundtrip():
    for n in range(11):
        for p in partitions(n):
            arms, legs = p.frobenius()
            assert from_frobenius(arms, legs) == p


def test_is_special_examples():
    assert Partition([2, 1, 1]).is_special()
    assert not Partition([3, 1]).is_special()
    assert EMPTY.is_special()
    assert Partition([1, 1]).is_special()
    assert not Partition([1]).is_special()


def test_is_special_by_hook_arm_inspection():
    # walk the diagonal hooks explicitly and compare arm/leg lengths
    for n in range(13):
        for p in partitions(n):
            conj = p.conjugate()
            verdict = True
            for i in range(len(p)):
                if p[i] <= i:
                    break
                arm = p[i] - i - 1
                leg = conj[i] - i - 1
                if leg != arm + 1:
                    verdict = False
                    break
            assert p.is_special() == verdict, p


def test_is_even():
    assert Partition([4, 2]).is_even()
    assert not Partition([3, 2]).is_even()
    assert EMPTY.is_even()


def test_hook_lengths_and_tableau_count():
    assert hook_lengths(Partition([2, 1])) == [[3, 1], [1]]
    for n in range(8):
        for p in partitions(n):
            assert standard_tableau_count(p) == standard_tableaux_brute(p)


def test_parse_partition_takes_ascii_digits_only():
    for text, pos in (("[²]", 1), ("[2, ١]", 4), ("[3,x]", 3)):
        with pytest.raises(ParseError) as err:
            parse_partition(text)
        assert err.value.pos == pos, text


def test_parse_partition():
    assert parse_partition("[4,2,1]") == (4, 2, 1)
    assert parse_partition("[]") == ()
    assert parse_partition(" [ 2 , 1 ] ") == (2, 1)
    with pytest.raises(ParseError):
        parse_partition("4,2")
    with pytest.raises(ParseError):
        parse_partition("[4,x]")
    with pytest.raises(ParseError):
        parse_partition("[1,2]")


def test_text_rendering_roundtrip():
    for n in range(7):
        for p in partitions(n):
            assert parse_partition(str(p)) == p
