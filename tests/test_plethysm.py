from __future__ import annotations

import itertools
from math import comb

import pytest

from tensorcat.cli import main
from tensorcat.crosscheck import cauchy_pairs_agree, failures, square_power_agrees
from tensorcat.diagrams import EMPTY, Partition, gl_dimension, partitions
from tensorcat.plethysm import (
    EXTERIOR,
    SYMMETRIC,
    cauchy_ext,
    cauchy_sym,
    even_partitions,
    power_of_ext2,
    power_of_sym2,
    special_partitions,
)

P = Partition


def test_cauchy_examples():
    assert cauchy_sym(3) == {
        (P([3]), P([3])): 1,
        (P([2, 1]), P([2, 1])): 1,
        (P([1, 1, 1]), P([1, 1, 1])): 1,
    }
    assert cauchy_ext(2) == {(P([2]), P([1, 1])): 1, (P([1, 1]), P([2])): 1}
    assert cauchy_sym(0) == {(EMPTY, EMPTY): 1}


def test_power_examples():
    assert power_of_sym2(2, SYMMETRIC) == {P([4]): 1, P([2, 2]): 1}
    assert power_of_ext2(2, EXTERIOR) == {P([2, 1, 1]): 1}
    assert power_of_sym2(0, EXTERIOR) == {EMPTY: 1}
    assert power_of_ext2(1, SYMMETRIC) == {P([1, 1]): 1}
    assert power_of_sym2(1, EXTERIOR) == {P([2]): 1}


def test_returned_degrees_are_doubled():
    for k in range(5):
        for fn in (power_of_sym2, power_of_ext2):
            for kind in (SYMMETRIC, EXTERIOR):
                for lam in fn(k, kind):
                    assert lam.degree == 2 * k


def test_exterior_of_ext2_is_exactly_the_special_family():
    for k in range(6):
        returned = set(power_of_ext2(k, EXTERIOR))
        expected = {lam for lam in partitions(2 * k) if lam.is_special()}
        assert returned == expected


def test_even_and_special_enumerations():
    assert set(even_partitions(4)) == {(4,), (2, 2)}
    assert even_partitions(3) == ()
    assert set(special_partitions(4)) == {(2, 1, 1)}
    assert set(special_partitions(6)) == {(2, 2, 2), (3, 1, 1, 1)}
    assert special_partitions(0) == (EMPTY,)


def test_dimension_identities_for_square_powers():
    # S^k / Lambda^k of spaces of dimension N(N+1)/2 and N(N-1)/2
    for nv in range(2, 6):
        sym_dim = nv * (nv + 1) // 2
        ext_dim = nv * (nv - 1) // 2
        for k in range(1, 5):
            assert comb(sym_dim + k - 1, k) == sum(
                gl_dimension(lam, nv) for lam in power_of_sym2(k, SYMMETRIC)
            )
            assert comb(ext_dim + k - 1, k) == sum(
                gl_dimension(lam, nv) for lam in power_of_ext2(k, SYMMETRIC)
            )
            assert comb(ext_dim, k) == sum(
                gl_dimension(lam, nv) for lam in power_of_ext2(k, EXTERIOR)
            )
            assert comb(sym_dim, k) == sum(
                gl_dimension(lam, nv) for lam in power_of_sym2(k, EXTERIOR)
            )


def test_cauchy_dimension_identities():
    for a in range(1, 6):
        for b in range(1, 6):
            for k in range(1, 7):
                assert comb(a * b + k - 1, k) == sum(
                    gl_dimension(lam, a) * gl_dimension(lam, b) for lam in partitions(k)
                )
                assert comb(a * b, k) == sum(
                    gl_dimension(lam, a) * gl_dimension(lam.conjugate(), b)
                    for lam in partitions(k)
                )


def test_square_powers_match_brute_force():
    cases = itertools.product(("sym", "ext"), ("sym2", "ext2"), range(5), range(2, 6))  # outer, inner, k, nv
    assert not failures(square_power_agrees, cases)


def test_cauchy_pairs_match_brute_force():
    cases = itertools.product(("sym", "ext"), range(4), range(1, 4), range(1, 4))  # kind, k, a, b
    assert not failures(cauchy_pairs_agree, cases)


def test_power_index_cap(capsys):
    # the cap is the request's: the CLI checks the degree 2k of the power, the building block takes none
    assert main(["plethysm", "cauchy-sym", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "degree 14 exceeds the configured cap 12" in captured.err
    assert main(["plethysm", "cauchy-sym", "6"]) == 0
    assert capsys.readouterr().out.count("\n") == len(partitions(6))
    with pytest.raises(ValueError):
        power_of_sym2(2, "bogus")
    with pytest.raises(ValueError):
        cauchy_sym(-1)
