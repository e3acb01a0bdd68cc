from __future__ import annotations

import itertools

import pytest

from tensorcat import poset
from tensorcat.crosscheck import CHECKS, chains_have_defect_length, failures
from tensorcat.errors import ParseError
from tensorcat.poset import (
    QuadIndex,
    chain_count,
    chains,
    covers,
    defect,
    defect_mirror,
    leq,
    parse_quad,
    quad,
)
from quads import box


def test_leq_examples():
    s = QuadIndex(2, 1, 0, 3)
    assert leq(s, s)
    assert leq(QuadIndex(1, 0, 0, 1), QuadIndex(0, 1, 1, 0))
    assert not leq(QuadIndex(0, 1, 0, 0), QuadIndex(1, 0, 0, 0))


def test_thick_twists_are_comparable_to_the_origin():
    origin = QuadIndex(0, 0, 0, 0)
    for j in range(5):
        assert leq(QuadIndex(j, 0, 0, j), origin)
        assert defect(QuadIndex(j, 0, 0, j), origin) == j


def test_defect_examples():
    s = QuadIndex(1, 1, 1, 1)
    assert defect(s, s) == 0
    assert defect(QuadIndex(1, 0, 0, 1), QuadIndex(0, 1, 1, 0)) == 2
    assert defect(QuadIndex(0, 0, 1, 0), QuadIndex(0, 0, 1, 0)) == 0
    assert defect(QuadIndex(0, 1, 0, 0), QuadIndex(1, 0, 0, 0)) is None


def test_partial_order_axioms_exhaustive():
    elements = box(3)
    for a in elements:
        assert leq(a, a)
    related = [(a, b) for a in elements for b in elements if leq(a, b)]
    for a, b in related:
        if leq(b, a):
            assert a == b
    successors: dict[QuadIndex, list[QuadIndex]] = {}
    for a, b in related:
        successors.setdefault(a, []).append(b)
    for a, bs in successors.items():
        for b in bs:
            for c in successors.get(b, ()):
                assert leq(a, c), (a, b, c)


def test_defect_equals_longest_chain_exhaustive():
    assert not failures(chains_have_defect_length, itertools.product(box(3), repeat=2))


def test_a_fault_in_leq_fails_the_defect_vs_chains_check(monkeypatch):
    # the chains walk b's box and never call leq, so a leq that refuses true relations
    # moves defect alone, and --verify's own cases for this check catch it
    (cases,) = [cases for name, _, cases in CHECKS if name == "defect vs exhaustive chains"]
    faulty = {(a, b) for a, b in cases if leq(a, b) and a.l > b.l and a.m < b.m}
    monkeypatch.setattr(poset, "leq", lambda a, b: leq(a, b) and not (a.l > b.l and a.m < b.m))
    found = failures(chains_have_defect_length, cases)
    assert len(found) == len(faulty) == 102 and set(found) == faulty


def test_a_fault_in_invariant_fails_the_defect_vs_chains_check(monkeypatch):
    # the chains balance a's and b's moves from their coordinates, never through
    # invariant, so a faulty invariant moves defect alone and the check catches
    # every case it changes
    (cases,) = [cases for name, _, cases in CHECKS if name == "defect vs exhaustive chains"]
    true_defects = {(a, b): defect(a, b) for a, b in cases}
    true_invariant = poset.invariant
    monkeypatch.setattr(poset, "invariant", lambda q: true_invariant(q) + (q.l > 1))
    changed = {case for case, d in true_defects.items() if defect(*case) != d}
    found = failures(chains_have_defect_length, cases)
    assert len(found) == len(changed) == 152 and set(found) == changed


def test_both_closed_forms_agree():
    elements = box(3)
    for a in elements:
        for b in elements:
            if leq(a, b):
                assert defect(a, b) == defect_mirror(a, b)


def test_mirror_symmetry():
    for a in box(2):
        for b in box(2):
            mirrored_a = QuadIndex(a.p, a.n, a.m, a.l)
            mirrored_b = QuadIndex(b.p, b.n, b.m, b.l)
            assert leq(a, b) == leq(mirrored_a, mirrored_b)


def test_chains_examples():
    s = QuadIndex(1, 2, 0, 1)
    assert chains(s, s) == [[s]]
    found = chains(QuadIndex(1, 0, 0, 1), QuadIndex(0, 1, 1, 0))
    assert found and all(len(c) == 3 for c in found)
    incomparable = (QuadIndex(0, 1, 0, 0), QuadIndex(1, 0, 0, 0))
    assert chains(*incomparable) == [] and chain_count(*incomparable) == 0


def test_covers_examples():
    found = covers(QuadIndex(0, 0, 0, 0), 2)
    assert QuadIndex(0, 1, 1, 0) in found
    assert QuadIndex(0, 2, 2, 0) not in found
    for c in found:
        assert defect(QuadIndex(0, 0, 0, 0), c) == 1
    assert covers(QuadIndex(0, 0, 0, 0), 0) == []


def test_covers_are_exactly_defect_one():
    bound = 2
    elements = box(bound)
    for a in elements:
        expected = sorted(b for b in elements if defect(a, b) == 1)
        assert covers(a, bound) == expected


def test_parse_quad_takes_ascii_digits_only():
    for text, pos in (("١,1,1,1", 0), ("1,1, ٣,1", 5), ("1,²,1,1", 2)):
        with pytest.raises(ParseError) as err:
            parse_quad(text)
        assert err.value.pos == pos, text


def test_parse_quad():
    assert parse_quad("1,0,0,1") == QuadIndex(1, 0, 0, 1)
    assert parse_quad(" 2, 3 ,0,1 ") == QuadIndex(2, 3, 0, 1)
    with pytest.raises(ParseError) as err:
        parse_quad("1,2,3")
    assert err.value.pos == 0
    with pytest.raises(ParseError):
        parse_quad("1,2,x,4")
    with pytest.raises(ValueError):
        quad(1, -1, 0, 0)
