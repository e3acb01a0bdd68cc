"""Property checks of the Z-combination type, the LR products on it, the
input grammars (round trips, and malformed text refused at a position inside
it) and the poset defect.

Hypothesis runs derandomized with bounded sizes, so every run draws the same
examples: partitions of degree at most 5, coefficients in [-2, 2], quadruple
and pair entries at most 20, and chain endpoints with entries at most 2.
"""

from __future__ import annotations

import itertools
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorcat import poset
from tensorcat.cli import parse_simple_index, terms_json, terms_output
from tensorcat.combination import Combination, index_key, index_label
from tensorcat.crosscheck import chains_have_defect_length
from tensorcat.diagrams import Partition, parse_partition, partitions
from tensorcat.errors import ParseError
from tensorcat.grothendieck import SimpleIndex
from tensorcat.ospcat import PairIndex, parse_pair
from tensorcat.oracle import lr_tableaux_brute
from tensorcat.symfunc import lr_coefficient, schur_term_product, slot_product
from quads import box

SMALL = settings(derandomize=True, max_examples=60, deadline=None)


def upto(degree: int):
    return st.sampled_from([p for n in range(degree + 1) for p in partitions(n)])


def pair_combinations(degree: int):
    pairs = st.tuples(upto(degree), upto(degree))
    return st.dictionaries(pairs, st.integers(-2, 2), min_size=1, max_size=2).map(Combination)


def slot_degrees(c: Combination) -> set[tuple[int, int]]:
    return {(lam.degree, pi.degree) for lam, pi in c}


E, ONE = Partition(()), Partition((1,))


@SMALL
@given(pair_combinations(5), pair_combinations(5))
# ([1],[]) * ([],[1]) cancels against -([],[1]) * ([1],[]) at ([1],[1])
@example(Combination({(ONE, E): 1, (E, ONE): -1}), Combination({(E, ONE): 1, (ONE, E): 1}))
def test_slot_product_commutes_and_adds_degrees(a, b):
    product = slot_product(a, b)
    assert product == slot_product(b, a)
    assert 0 not in product.terms.values()
    sums = {(x1 + y1, x2 + y2) for x1, x2 in slot_degrees(a) for y1, y2 in slot_degrees(b)}
    assert slot_degrees(product) <= sums


@SMALL
@given(pair_combinations(3), pair_combinations(3), pair_combinations(3))
def test_slot_product_is_associative(a, b, c):
    assert slot_product(slot_product(a, b), c) == slot_product(a, slot_product(b, c))


@SMALL
@given(st.lists(st.tuples(st.tuples(upto(5), upto(5)), st.integers(-2, 2)), max_size=8))
@example([((ONE, E), 2), ((E, ONE), 1), ((ONE, E), -2)])  # a term that sums to 0 is dropped
def test_builder_matches_repeated_addition(items):
    forwards, backwards = {}, {}
    for index, coeff in items:
        forwards[index] = forwards.get(index, 0) + coeff
    for index, coeff in reversed(items):
        backwards[index] = backwards.get(index, 0) + coeff
    summed = reduce(lambda acc, kv: acc + Combination({kv[0]: kv[1]}), items, Combination())
    assert Combination(forwards) == summed == Combination(backwards)
    assert 0 not in summed.terms.values()
    assert not summed - Combination(backwards) and not summed.scale(0)
    rendered = [(list(text), terms_json(terms)) for text, terms in map(terms_output, (summed, Combination(backwards)))]
    assert rendered[0] == rendered[1]  # insertion order never shows
    lines, payload = rendered[0]
    indices = [tuple(Partition(part) for part in term["pair"]) for term in payload]
    assert [index_key(idx) for idx in indices] == sorted(map(index_key, indices))
    assert lines == ([f"{term['mult']} {index_label(idx)}" for term, idx in zip(payload, indices)] or ["0"])


def nested_key(index: tuple) -> tuple:
    # the per-slot canonical key: one (degree, parts) pair per slot
    return tuple((part.degree, part) for part in index)


@SMALL
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(*[upto(4)] * n), min_size=2, max_size=8)))
def test_flat_index_key_orders_as_the_nested_key(indices):
    for a, b in itertools.product(indices, repeat=2):
        assert (index_key(a) < index_key(b)) == (nested_key(a) < nested_key(b)), (a, b)
        assert (index_key(a) == index_key(b)) == (a == b), (a, b)
    assert sorted(indices, key=index_key) == sorted(indices, key=nested_key)


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
    assert parse_pair(index_label(PairIndex(*pair))) == PairIndex(*pair)


@SMALL
@given(st.tuples(upto(5), upto(5), upto(5), upto(5)))
def test_simple_index_text_round_trip(slots):
    x = SimpleIndex(*slots)
    assert parse_simple_index(index_label(x)) == x


# digits, the grammar's punctuation, bad ASCII, and non-ASCII digits and spaces
_CHARS = st.sampled_from([*"0123456789,,[[]] x-+_\t", "\u0661", "\u00b2", "\u00a0", "\u3000", "\u2028"])


@st.composite
def _malformed(draw) -> str:
    """An index text with one to three characters inserted or replaced, or a random string."""
    text = draw(st.sampled_from(["[2,1]", "[]", "1,0,0,1", "2,1", "[1],[],[],[1]", "[2,1],[1],[],[3]", ""]))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_CHARS) + text[at + draw(st.integers(0, 1)):]
    return draw(st.one_of(st.just(text), st.lists(_CHARS, max_size=12).map("".join)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_malformed())
@example("[1],[],[],")  # an empty last field starts past the end of its text
@example("1,1,1,")
@example("")
def test_every_parse_error_lies_inside_its_text(text):
    for read in (parse_partition, poset.parse_quad, parse_pair, parse_simple_index):
        try:
            read(text)
        except ParseError as err:
            assert err.text == text, read
            assert 0 <= err.pos < max(len(text), 1), (read, text, err.pos)


def test_an_empty_field_is_reported_at_its_own_position():
    for read, text, pos in (
        (poset.parse_quad, "2,,1,0", 2),
        (poset.parse_quad, ",1,1,0", 0),
        (poset.parse_quad, "1,1,1,", 5),  # the last field starts past the end: its comma is shown
        (parse_pair, "1, ", 2),  # a blank last field ends past the text: shown at its last character
        (parse_partition, "[2,,1]", 3),
        (parse_simple_index, "[1],[],,[]", 7),
    ):
        with pytest.raises(ParseError) as err:
            read(text)
        assert err.value.pos == pos, text


BOX = box(2)
COMPARABLE = [(a, b) for a in BOX for b in BOX if poset.leq(a, b)]


@SMALL
@given(st.sampled_from(COMPARABLE))
def test_defect_is_the_length_of_every_chain(pair):
    assert chains_have_defect_length(*pair)
    assert poset.chain_count(*pair) == len(poset.chains(*pair))
