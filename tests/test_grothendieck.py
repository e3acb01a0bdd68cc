from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from tensorcat import config, ext, grothendieck, ospcat, symfunc
from tensorcat.combination import Combination
from tensorcat.diagrams import Partition, partitions, standard_tableau_count
from tensorcat.errors import LimitExceeded
from tensorcat.grothendieck import (
    F_GEN,
    Q_GEN,
    Generator,
    SimpleIndex,
    UNIT,
    V_DUAL,
    V_LOWER,
    V_NAT,
    W_GEN,
    W_STAR,
    decompose_j,
    decompose_word,
    generator_word,
    layers_of_i,
    socle_of,
    tensor_decomposition,
    tensor_simple,
)
from tensorcat.crosscheck import tensor_word_agrees
from tensorcat.oracle import rational_dimension, stable_mixed_tensor
from tensorcat.poset import QuadIndex, leq
from quads import quads_with_sum_at_most, simple

P = Partition


def test_tensor_simple_examples():
    assert tensor_simple(simple(), V_DUAL) == Combination(
        {simple(mu=[1]): 1, simple(lam=[1]): 1}
    )
    assert tensor_simple(simple(mu=[1], nu=[1]), V_NAT) == Combination(
        {
            simple(mu=[1], nu=[2]): 1,
            simple(mu=[1], nu=[1, 1]): 1,
            simple(nu=[1]): 1,
        }
    )
    s = simple(lam=[2], mu=[1], pi=[1])
    assert tensor_simple(s, Generator("SkF", 0)) == Combination({s: 1})


def test_tensor_simple_box_moves():
    s = simple(mu=[2], nu=[1])
    lower = tensor_simple(s, V_LOWER)
    assert lower == Combination(
        {
            simple(mu=[3], nu=[1]): 1,
            simple(mu=[2, 1], nu=[1]): 1,
            simple(mu=[2]): 1,
        }
    )
    assert tensor_simple(s, W_STAR) == Combination({simple(lam=[1], mu=[2], nu=[1]): 1})
    assert tensor_simple(s, W_GEN) == Combination({simple(mu=[2], nu=[1], pi=[1]): 1})


def test_q_is_unit_plus_f():
    for s in (simple(), simple(lam=[1]), simple(mu=[1], nu=[1])):
        expected = Combination({s: 1}) + tensor_simple(s, F_GEN)
        assert tensor_simple(s, Q_GEN) == expected


def test_sym_q_is_truncated_sum_of_f_powers():
    s = simple(pi=[1])
    total = Combination()
    for j in range(3):
        total = total + tensor_simple(s, Generator("SkF", j))
    assert tensor_simple(s, Generator("SkQ", 2)) == total


def test_each_declared_degree_is_what_a_step_adds():
    # decompose_word checks the cap once, on the word's total degree: that is sound
    # only if each generator's degree is the most any term of its step gains
    tags = ("W_*", "W", "V_*", "V", "V*", "V**", "F", "Q", "SkF", "LkF", "SkQ")
    assert {*grothendieck._BOX_MOVES, *grothendieck._SPLITS, *grothendieck._POWERS} == set(tags)
    simples = (UNIT, simple(mu=[1], nu=[1]), simple(lam=[1], mu=[2], nu=[1, 1], pi=[2]))
    for tag in tags:
        for k in range(4) if tag in ("SkF", "LkF", "SkQ") else (0,):
            g = Generator(tag, k)
            for s in simples:
                step = tensor_simple(s, g)
                assert max(t.degree - s.degree for t in step) == g.degree, (g, s)
    assert [Generator(tag, 2).degree for tag in tags] == [1] * 6 + [2, 2, 4, 4, 4]


def test_tensor_decomposition_drops_cancelled_terms():
    # [2] - [1,1] tensored with W_*: both sides give [2,1], which sums to 0
    dec = Combination({simple(lam=[2]): 1, simple(lam=[1, 1]): -1})
    out = tensor_decomposition(dec, W_STAR)
    assert out == Combination({simple(lam=[3]): 1, simple(lam=[1, 1, 1]): -1})
    assert simple(lam=[2, 1]) not in out.terms


def test_decompose_j_examples():
    assert decompose_j(QuadIndex(0, 0, 0, 0)) == Combination({simple(): 1})
    assert decompose_j(QuadIndex(1, 0, 0, 0)) == Combination({simple(lam=[1]): 1})
    assert decompose_j(QuadIndex(0, 1, 1, 0)) == Combination(
        {
            simple(mu=[1], nu=[1]): 1,
            simple(): 1,
            simple(lam=[1], nu=[1]): 1,
            simple(mu=[1], pi=[1]): 1,
            simple(lam=[1], pi=[1]): 1,
        }
    )


def test_closed_form_matches_the_walk():
    quads = quads_with_sum_at_most(8)
    assert len(quads) == 495
    for q in quads:
        walked = decompose_word(generator_word(q))
        assert decompose_j(q) == walked, q
        assert socle_of(q) == Combination(
            {idx: mult for idx, mult in walked.items() if idx.quad == q}
        ), q
    assert len(decompose_j(QuadIndex(0, 5, 5, 0))) == 1826


def test_decompose_j_does_not_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("closed form took a tensor step")

    monkeypatch.setattr(grothendieck, "tensor_decomposition", no_walk)
    monkeypatch.setattr(grothendieck, "tensor_simple", no_walk)
    q = QuadIndex(2, 2, 2, 2)
    assert decompose_j(q, 12)
    assert socle_of(q, 12)


def test_order_independence_of_generator_orderings():
    for q in quads_with_sum_at_most(4):
        reference = decompose_j(q)
        word = generator_word(q)
        seen = set()
        for ordering in set(itertools.permutations(word)):
            if ordering in seen:
                continue
            seen.add(ordering)
            assert decompose_word(ordering) == reference, (q, ordering)


def test_matches_oracle_reconstruction():
    for q in quads_with_sum_at_most(4):
        assert tensor_word_agrees(q), q


def test_stable_dimension_check():
    for q in quads_with_sum_at_most(4):
        l, m, n, p = q
        nv = max(1, 2 * (m + n))
        for c in (1, 2, 3):
            for d in (1, 2, 3):
                expected = d**l * (nv + d) ** m * (nv + c) ** n * c**p
                total = 0
                for idx, mult in decompose_j(q).items():
                    total += (
                        mult
                        * _gl(idx.lam, d)
                        * rational_dimension(idx.mu, idx.nu, nv)
                        * _gl(idx.pi, c)
                    )
                assert total == expected, (q, c, d)


def _gl(p: Partition, n: int) -> int:
    from tensorcat.diagrams import gl_dimension

    return gl_dimension(p, n)


def test_defect_grading_of_factors():
    for q in quads_with_sum_at_most(4):
        dec = decompose_j(q)
        for idx, _ in dec.items():
            assert leq(idx.quad, q), (idx, q)
        socle = socle_of(q)
        expected = Combination({idx: mult for idx, mult in dec.terms.items() if idx.quad == q})
        assert socle == expected


def test_closed_form_keys_are_simple_indices_in_block_order():
    # the closed form builds its keys with tuple.__new__, skipping the
    # namedtuple's constructor, so check their type and degrees directly
    def blocks(q):
        l, m, n, p = q
        for a in range(m + 1):
            for b in range(n + 1):
                for k in range(min(m - a, n - b) + 1):
                    yield QuadIndex(l + a, m - a - k, n - b - k, p + b)

    for q in quads_with_sum_at_most(6):
        quads = list(blocks(q))
        keys = list(decompose_j(q))
        for key in keys:
            assert type(key) is SimpleIndex, (q, key)
            assert key.quad in quads and key.degree == sum(key.quad), (q, key)
        # the terms come block by block, each block in itertools.product order
        slots = [[partitions(d) for d in quad] for quad in quads]
        assert keys == [SimpleIndex(*x) for block in slots for x in itertools.product(*block)], q
        for key in socle_of(q):
            assert type(key) is SimpleIndex, (q, key)
            assert key.quad == q and key.degree == sum(q), (q, key)


def test_results_share_each_block_of_simple_indices():
    # a block's indices are built once per process: a socle and every J(q) that
    # holds the same (lam, mu, nu, pi) degrees key their terms by the same objects
    def block(q, quad):
        return [key for key in decompose_j(q) if key.quad == quad]

    shared = QuadIndex(2, 1, 1, 2)
    socle = list(socle_of(shared))
    assert len(socle) == 4
    # in J(1,2,1,2) this is the block a = 1, b = k = 0; in J(0,3,1,2) it is a = 2
    for q in (QuadIndex(1, 2, 1, 2), QuadIndex(0, 3, 1, 2)):
        keys = block(q, shared)
        assert len(keys) == 4 and all(key is s for key, s in zip(keys, socle)), q
    # and the block (1,1,0,2), a socle of neither, is a = 0, k = 1 and a = k = 1
    first, second = (block(q, QuadIndex(1, 1, 0, 2)) for q in (QuadIndex(1, 2, 1, 2), QuadIndex(0, 3, 1, 2)))
    assert first and len(first) == len(second) and all(x is y for x, y in zip(first, second))


def test_socle_examples_and_multiplicities():
    assert socle_of(QuadIndex(0, 1, 1, 0)) == Combination({simple(mu=[1], nu=[1]): 1})
    assert socle_of(QuadIndex(1, 0, 0, 1)) == Combination({simple(lam=[1], pi=[1]): 1})
    for q in quads_with_sum_at_most(4):
        for idx, mult in socle_of(q).items():
            expected = (
                standard_tableau_count(idx.lam)
                * standard_tableau_count(idx.mu)
                * standard_tableau_count(idx.nu)
                * standard_tableau_count(idx.pi)
            )
            assert mult == expected, idx


def test_thin_marginal_matches_stable_characters():
    for m in range(4):
        for n in range(4 - m):
            dec = decompose_j(QuadIndex(0, m, n, 0))
            thin = {
                (idx.mu, idx.nu): mult
                for idx, mult in dec.terms.items()
                if not idx.lam and not idx.pi
            }
            assert thin == stable_mixed_tensor(m, n)


def test_layers_of_i():
    layers = layers_of_i(2)
    assert layers[0] == Combination({simple(): 1})
    assert layers[1] == Combination({simple(lam=[1], pi=[1]): 1})
    assert layers[2] == Combination(
        {simple(lam=[2], pi=[2]): 1, simple(lam=[1, 1], pi=[1, 1]): 1}
    )


def test_degree_cap_refusal(monkeypatch):
    with pytest.raises(LimitExceeded):
        decompose_j(QuadIndex(4, 4, 4, 4))

    # a word is refused on its total degree before the first tensor step
    def no_step(*args):
        raise AssertionError("tensor step taken before the cap check")

    monkeypatch.setattr(grothendieck, "tensor_decomposition", no_step)
    with pytest.raises(LimitExceeded, match="degree 13 exceeds the configured cap 12"):
        decompose_word([V_DUAL] * 13)


def test_one_cap_check_per_request(monkeypatch):
    checks = []

    def counting(*args, **kwargs):
        checks.append(args)
        return config.check_cap(*args, **kwargs)

    for module in (grothendieck, ext, ospcat, symfunc):
        monkeypatch.setattr(module, "check_cap", counting)
    ext._koszul_tails.cache_clear()
    for request in (
        lambda: decompose_j(QuadIndex(3, 2, 2, 3), 12),
        lambda: ext.kernel_layer(3, 3, 12),
        lambda: ospcat.osp_layers_of_i("o", 5, 12),
        lambda: ext.thick_target_socle(3, Partition([2]), Partition([1]), 12),
    ):
        checks.clear()
        request()
        assert len(checks) == 1, checks


def test_decomposition_container():
    d = Combination({simple(lam=[1]): 2})
    assert d.coefficient(simple(lam=[1])) == 2
    assert d.coefficient(simple()) == 0
    assert (d + d).coefficient(simple(lam=[1])) == 4
    negative = Combination({simple(): -1})
    assert negative.coefficient(simple()) == -1
    with pytest.raises(ArithmeticError):
        negative.require_nonnegative()


def test_non_integral_coefficients_are_refused():
    # int() would store 1*[1] + 0*[2], a zero against the container's invariant
    one, two, three = Partition([1]), Partition([2]), Partition([3])
    for terms in (
        {one: Fraction(3, 2), two: 0.5},
        {one: 1, two: 0.0},
        {one: 1, two: Fraction(1, 2)},  # an int first does not let the rest through
        {one: True, two: 0},  # a bool is not an exact int coefficient
    ):
        with pytest.raises(TypeError):
            Combination(terms)
    # the one input is a plain dict: pairs and other mappings are refused, not converted
    for terms in ([(one, 1)], ((one, 1),), Combination({one: 1}), None):
        with pytest.raises(TypeError) as err:
            Combination(terms)
        assert type(terms).__name__ in str(err.value)
    with pytest.raises(TypeError, match="Fraction"):
        Combination({one: 1, two: Fraction(2, 1)})
    # only the zero is dropped, and the Combination keeps its own copy of the dict
    for terms in ({one: 2, two: 0, three: -1}, {one: 2, three: -1}):
        built = Combination(terms)
        assert list(built.items()) == [(one, 2), (three, -1)]
        terms[one] = 5
        terms[two] = 7
        assert list(built.items()) == [(one, 2), (three, -1)]
    assert Combination() == {} and not Combination({one: 0})


def test_record_types_compare_hash_and_freeze_by_field():
    osp = ospcat.osp_index("o", [2], [1])
    for record, text in (
        (Generator("SkF", 2), "Generator(tag='SkF', k=2)"),
        (config.Config(), "Config(degree_cap=12, group_guard=8)"),
        (QuadIndex(1, 0, 2, 3), "QuadIndex(l=1, m=0, n=2, p=3)"),
        (SimpleIndex(P([1]), P([]), P([2, 1]), P([])),
         "SimpleIndex(lam=Partition([1]), mu=Partition([]), nu=Partition([2, 1]), pi=Partition([]))"),
        (osp, "OspIndex(kind='o', lam=Partition([2]), mu=Partition([1]))"),
        (ospcat.PairIndex(1, 2), "PairIndex(l=1, m=2)"),
    ):
        assert repr(record) == text
    for a, b, c in (
        (Generator("V*"), Generator("V*", 0), Generator("V*", 1)),
        (config.Config(), config.Config(12, 8), config.Config(group_guard=9)),
        (QuadIndex(1, 0, 2, 3), QuadIndex(*[1, 0, 2, 3]), QuadIndex(1, 0, 3, 2)),
        (simple(lam=[1], pi=[1]), SimpleIndex(P([1]), P([]), P([]), P([1])), simple(lam=[1], nu=[1])),
        (osp, ospcat.OspIndex("o", P([2]), P([1])), ospcat.osp_conjugate(osp)),
        (ospcat.PairIndex(1, 2), ospcat.parse_pair("1,2"), ospcat.PairIndex(2, 1)),
    ):
        assert a == b and hash(a) == hash(b) and a != c
    for record, field in (
        (Generator("SkF", 2), "k"),
        (config.Config(), "degree_cap"),
        (QuadIndex(1, 0, 2, 3), "l"),
        (simple(lam=[1]), "lam"),
        (osp, "kind"),
        (ospcat.PairIndex(1, 2), "m"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, 3)
        with pytest.raises(AttributeError):
            record.extra = 3
    with pytest.raises(ValueError, match=r"^unknown generator tag 'X'$"):
        Generator("X")
    with pytest.raises(ValueError, match=r"^generator SkF needs a non-negative power, got -1$"):
        Generator("SkF", -1)


def test_simple_index_helpers():
    s = simple(lam=[2], mu=[1], nu=[1, 1], pi=[])
    assert s.degree == 5
    assert s.quad == QuadIndex(2, 1, 2, 0)
    assert not s.is_thick()
    assert simple(lam=[3], pi=[1]).is_thick()
