"""Property checks of the Z-combination type, the LR products on it, the
input grammars and the poset defect.

Hypothesis runs derandomized with bounded sizes, so every run draws the same
examples: partitions of degree at most 5, coefficients in [-2, 2], quadruple
and pair entries at most 20, and chain endpoints with entries at most 2.
"""

from __future__ import annotations

import itertools
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcat import poset
from tensorcat.cli import _parse_osp_pair, parse_simple_index, terms_output
from tensorcat.combination import Combination, CombinationBuilder, index_key, index_label
from tensorcat.diagrams import Partition, parse_partition, partitions
from tensorcat.grothendieck import SimpleIndex
from tensorcat.ospcat import PairIndex
from tensorcat.oracle import lr_tableaux_brute
from tensorcat.symfunc import lr_coefficient, schur_term_product, slot_product

SMALL = settings(derandomize=True, max_examples=60, deadline=None)


def upto(degree: int):
    return st.sampled_from([p for n in range(degree + 1) for p in partitions(n)])


def pair_combinations(degree: int):
    pairs = st.tuples(upto(degree), upto(degree))
    return st.dictionaries(pairs, st.integers(-2, 2), min_size=1, max_size=2).map(Combination)


def slot_degrees(c: Combination) -> set[tuple[int, int]]:
    return {(lam.degree, pi.degree) for lam, pi in c}


@SMALL
@given(pair_combinations(5), pair_combinations(5))
def test_slot_product_commutes_and_adds_degrees(a, b):
    product = slot_product(a, b)
    assert product == slot_product(b, a)
    sums = {(x1 + y1, x2 + y2) for x1, x2 in slot_degrees(a) for y1, y2 in slot_degrees(b)}
    assert slot_degrees(product) <= sums


@SMALL
@given(pair_combinations(3), pair_combinations(3), pair_combinations(3))
def test_slot_product_is_associative(a, b, c):
    assert slot_product(slot_product(a, b), c) == slot_product(a, slot_product(b, c))


@SMALL
@given(st.lists(st.tuples(st.tuples(upto(5), upto(5)), st.integers(-2, 2)), max_size=8))
def test_builder_matches_repeated_addition(items):
    built = CombinationBuilder()
    for index, coeff in items:
        built.add(index, coeff)
    summed = reduce(lambda acc, kv: acc + Combination({kv[0]: kv[1]}), items, Combination())
    assert built.build() == summed
    assert 0 not in summed.terms.values()
    backwards = CombinationBuilder()
    for index, coeff in reversed(items):
        backwards.add(index, coeff)
    lines, payload = terms_output(summed)
    assert terms_output(backwards.build()) == (lines, payload)  # insertion order never shows
    indices = [tuple(Partition(part) for part in term["pair"]) for term in payload]
    assert [index_key(idx) for idx in indices] == sorted(map(index_key, indices))
    assert lines == ([f"{term['mult']} {index_label(idx)}" for term, idx in zip(payload, indices)] or ["0"])


@SMALL
@given(upto(5), upto(5))
def test_lr_symmetry_and_conjugation(mu, nu):
    expansion = schur_term_product(mu, nu, cap=10)
    assert sum(expansion.values()) > 0
    for lam in partitions(mu.degree + nu.degree):
        coeff = lr_coefficient(lam, mu, nu)
        assert coeff == expansion.coefficient(lam)
        assert coeff == lr_coefficient(lam, nu, mu)
        assert coeff == lr_coefficient(lam.conjugate(), mu.conjugate(), nu.conjugate())
        assert coeff == lr_tableaux_brute(lam, mu, nu) == lr_tableaux_brute(lam, nu, mu)


@SMALL
@given(upto(5), st.tuples(*[st.integers(0, 20)] * 4), st.tuples(st.integers(0, 20), st.integers(0, 20)))
def test_partition_quad_and_pair_text_round_trip(p, entries, pair):
    assert parse_partition(index_label(p)) == p
    q = poset.QuadIndex(*entries)
    assert index_label(q) == str(q)
    assert poset.parse_quad(str(q)) == q
    assert _parse_osp_pair(index_label(PairIndex(*pair))) == PairIndex(*pair)


@SMALL
@given(st.tuples(upto(5), upto(5), upto(5), upto(5)))
def test_simple_index_text_round_trip(slots):
    x = SimpleIndex(*slots)
    assert parse_simple_index(index_label(x)) == x


BOX = [poset.QuadIndex(*t) for t in itertools.product(range(3), repeat=4)]
COMPARABLE = [(a, b) for a in BOX for b in BOX if poset.leq(a, b)]


@SMALL
@given(st.sampled_from(COMPARABLE))
def test_defect_is_the_length_of_every_chain(pair):
    a, b = pair
    found = poset.chains(a, b)
    assert found
    assert poset.chain_count(a, b) == len(found)
    assert {len(chain) - 1 for chain in found} == {poset.defect(a, b)}
