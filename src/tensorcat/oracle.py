"""Independent brute-force verifiers.

Everything here works at the level of explicit monomials, explicit tableaux,
or explicit linear operators on small tensor spaces, on purpose sharing no
code path with the Littlewood-Richardson engine it is used to check:

* Schur polynomials by semistandard-tableau enumeration, and greedy
  leading-term decomposition of symmetric polynomials (one or two alphabets);
* symmetric/exterior powers of squares and of tensor products by direct
  orbit summation over weight multisets;
* stable decompositions of mixed tensor powers by rational character
  arithmetic with inverse variables and Weyl alternation;
* standard-tableau counting by enumeration;
* ranks of one explicitly constructed operator family per word of moves
  (contract, left and right quotient projections), which realizes each
  degree-one Hom space and each composite of two of them.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb

from .combination import Combination
from .diagrams import Partition, partitions
from .errors import GuardExceeded
from .linalg import rank_of_rows
from .symalg import perm_sign
from .grothendieck import SimpleIndex

EXPAND_MAX_BOXES = 8

Monomial = tuple[int, ...]


class MonomialPoly:
    """Integer polynomial (possibly Laurent) in a fixed number of variables."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        self.coeffs: dict[Monomial, int] = {}
        if coeffs:
            for mono, c in dict(coeffs).items():
                if c:
                    self.coeffs[tuple(mono)] = int(c)

    @classmethod
    def zero(cls, nvars: int) -> "MonomialPoly":
        return cls(nvars)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialPoly)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "MonomialPoly") -> "MonomialPoly":
        assert self.nvars == other.nvars
        merged = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            merged[mono] = merged.get(mono, 0) + c
        return MonomialPoly(self.nvars, merged)

    def __sub__(self, other: "MonomialPoly") -> "MonomialPoly":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "MonomialPoly":
        return MonomialPoly(self.nvars, {m: factor * c for m, c in self.coeffs.items()})

    def __mul__(self, other: "MonomialPoly") -> "MonomialPoly":
        assert self.nvars == other.nvars
        out: dict[Monomial, int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                out[key] = out.get(key, 0) + c1 * c2
        return MonomialPoly(self.nvars, out)

    def coefficient_sum(self) -> int:
        return sum(self.coeffs.values())

    def is_symmetric(self) -> bool:
        for mono, c in self.coeffs.items():
            canon = tuple(sorted(mono, reverse=True))
            if self.coeffs.get(canon, 0) != c:
                return False
        return True

    def leading_monomial(self) -> Monomial:
        """Graded-lexicographic maximum of the support."""
        return max(self.coeffs, key=lambda m: (sum(m), m))

    def __repr__(self) -> str:
        return f"MonomialPoly(nvars={self.nvars}, terms={len(self.coeffs)})"


def _ssyt_rows(shape: Partition, nvars: int):
    """Yield semistandard fillings row by row as tuples of row value-tuples."""

    def fill_row(length, min_values, bound):
        # weakly increasing rows with entrywise lower bounds (strict over the
        # row above) produced in lexicographic order
        def rec(j, prev):
            if j == length:
                yield ()
                return
            for v in range(max(prev, min_values[j]), bound + 1):
                for rest in rec(j + 1, v):
                    yield (v,) + rest

        yield from rec(0, 1)

    def rec_rows(i, above):
        if i == len(shape):
            yield ()
            return
        length = shape[i]
        min_values = [above[j] + 1 if j < len(above) else 1 for j in range(length)]
        for row in fill_row(length, min_values, nvars):
            for rest in rec_rows(i + 1, row):
                yield (row,) + rest

    yield from rec_rows(0, ())


def expand_schur(lam: Partition, nvars: int) -> MonomialPoly:
    """Schur polynomial s_lam(x_1..x_nvars) as a sum over semistandard tableaux."""
    lam = Partition(lam)
    if lam.degree > EXPAND_MAX_BOXES:
        raise GuardExceeded(lam.degree, EXPAND_MAX_BOXES, what="schur expansion boxes")
    if nvars < 1:
        raise ValueError("need at least one variable")
    if len(lam) > nvars:
        return MonomialPoly.zero(nvars)
    out: dict[Monomial, int] = {}
    for tableau in _ssyt_rows(lam, nvars):
        weight = [0] * nvars
        for row in tableau:
            for v in row:
                weight[v - 1] += 1
        key = tuple(weight)
        out[key] = out.get(key, 0) + 1
    return MonomialPoly(nvars, out)


def decompose_into_schur(poly: MonomialPoly, expect_nonnegative: bool = False) -> Combination:
    """Greedy graded-lex leading-term subtraction into the Schur basis.

    Negative coefficients are legitimate for virtual characters; pass
    expect_nonnegative=True to flag them instead, for inputs that are claimed
    to be honest decompositions.
    """
    if not poly.is_symmetric():
        raise ValueError("polynomial is not symmetric")
    remaining = MonomialPoly(poly.nvars, poly.coeffs)
    terms: dict[Partition, int] = {}
    while not remaining.is_zero():
        lead = remaining.leading_monomial()
        exponents = tuple(sorted(lead, reverse=True))
        if any(e < 0 for e in exponents) or exponents != lead:
            raise ValueError(f"leading monomial {lead} is not a partition weight")
        lam = Partition(e for e in exponents if e)
        coeff = remaining.coeffs[lead]
        if expect_nonnegative and coeff < 0:
            raise ArithmeticError(f"negative coefficient {coeff} at {lam} in a claimed decomposition")
        terms[lam] = terms.get(lam, 0) + coeff
        remaining = remaining - expand_schur(lam, poly.nvars).scale(coeff)
    return Combination(terms)


def _split_alphabets(mono: Monomial, a: int) -> tuple[Monomial, Monomial]:
    return mono[:a], mono[a:]


def decompose_pair_into_schur(
    poly: MonomialPoly, a: int, b: int
) -> dict[tuple[Partition, Partition], int]:
    """Decompose a polynomial symmetric in each of two alphabets separately."""
    assert poly.nvars == a + b
    remaining = MonomialPoly(poly.nvars, poly.coeffs)
    out: dict[tuple[Partition, Partition], int] = {}
    while not remaining.is_zero():
        lead = max(
            remaining.coeffs,
            key=lambda m: (sum(m[:a]), m[:a], sum(m[a:]), m[a:]),
        )
        xpart, ypart = _split_alphabets(lead, a)
        lam = Partition(e for e in xpart if e)
        mu = Partition(e for e in ypart if e)
        if tuple(sorted(xpart, reverse=True)) != xpart or tuple(sorted(ypart, reverse=True)) != ypart:
            raise ValueError(f"leading monomial {lead} is not dominant in both alphabets")
        coeff = remaining.coeffs[lead]
        sx = expand_schur(lam, a)
        sy = expand_schur(mu, b)
        product: dict[Monomial, int] = {}
        for mx, cx in sx.coeffs.items():
            for my, cy in sy.coeffs.items():
                product[mx + my] = product.get(mx + my, 0) + cx * cy
        remaining = remaining - MonomialPoly(poly.nvars, product).scale(coeff)
        key = (lam, mu)
        out[key] = out.get(key, 0) + coeff
        if not out[key]:
            del out[key]
    return out


# ---------------------------------------------------------------------------
# brute-force powers of squares and tensor products


def _sym2_weights(nvars: int) -> list[Monomial]:
    out = []
    for i in range(nvars):
        for j in range(i, nvars):
            w = [0] * nvars
            w[i] += 1
            w[j] += 1
            out.append(tuple(w))
    return out


def _ext2_weights(nvars: int) -> list[Monomial]:
    out = []
    for i in range(nvars):
        for j in range(i + 1, nvars):
            w = [0] * nvars
            w[i] += 1
            w[j] += 1
            out.append(tuple(w))
    return out


def _product_weights(a: int, b: int) -> list[Monomial]:
    out = []
    for i in range(a):
        for j in range(b):
            w = [0] * (a + b)
            w[i] += 1
            w[a + j] += 1
            out.append(tuple(w))
    return out


def _power_character(outer: str, k: int, weights: list[Monomial], nvars: int) -> MonomialPoly:
    if outer == "sym":
        chooser = itertools.combinations_with_replacement
    elif outer == "ext":
        chooser = itertools.combinations
    else:
        raise ValueError(f"unknown outer power {outer!r}")
    out: dict[Monomial, int] = {}
    for multiset in chooser(range(len(weights)), k):
        total = [0] * nvars
        for idx in multiset:
            for pos, e in enumerate(weights[idx]):
                total[pos] += e
        key = tuple(total)
        out[key] = out.get(key, 0) + 1
    return MonomialPoly(nvars, out)


def brute_force_plethysm(outer: str, k: int, inner: str, nvars: int) -> Combination:
    """Character of S^k or Lambda^k of a square, decomposed into Schur terms.

    inner is "sym2" or "ext2"; sizes are guarded to k <= 4, nvars <= 6.
    """
    if k > 4 or nvars > 6:
        raise GuardExceeded(max(k, nvars), 4 if k > 4 else 6, what="plethysm size")
    if inner == "sym2":
        weights = _sym2_weights(nvars)
    elif inner == "ext2":
        weights = _ext2_weights(nvars)
    else:
        raise ValueError(f"unknown inner square {inner!r}")
    return decompose_into_schur(_power_character(outer, k, weights, nvars))


def brute_force_cauchy(
    outer: str, k: int, a: int, b: int
) -> dict[tuple[Partition, Partition], int]:
    """S^k or Lambda^k of a tensor product of an a-space and a b-space."""
    if k > 4 or a > 5 or b > 5:
        raise GuardExceeded(max(k, a, b), 5, what="cauchy oracle size")
    character = _power_character(outer, k, _product_weights(a, b), a + b)
    return decompose_pair_into_schur(character, a, b)


# ---------------------------------------------------------------------------
# stable mixed tensors by rational character arithmetic


@cache
def stable_mixed_tensor(m: int, n: int, nvars: int | None = None) -> dict[tuple[Partition, Partition], int]:
    """Decompose (dual)^(x m) (x) (natural)^(x n) into rational irreducibles.

    Works inside GL(nvars) with genuine inverse variables; the multiplicity of
    the highest weight w is extracted by Weyl alternation over the symmetric
    group. Multiplicities are stable once nvars >= 2(m+n), which is required.
    """
    if m + n > 4:
        raise GuardExceeded(m + n, 4, what="mixed tensor factors")
    if nvars is None:
        nvars = max(1, 2 * (m + n))
    if nvars < 2 * (m + n) or nvars < 1:
        raise ValueError(f"need nvars >= 2(m+n) = {2 * (m + n)} for stability, got {nvars}")

    plus = []
    minus = []
    for i in range(nvars):
        w = [0] * nvars
        w[i] = 1
        plus.append(tuple(w))
        w2 = [0] * nvars
        w2[i] = -1
        minus.append(tuple(w2))
    character: dict[Monomial, int] = {tuple([0] * nvars): 1}

    def convolve(base, times):
        nonlocal character
        for _ in range(times):
            nxt: dict[Monomial, int] = {}
            for mono, c in character.items():
                for w in base:
                    key = tuple(x + y for x, y in zip(mono, w))
                    nxt[key] = nxt.get(key, 0) + c
            character = nxt

    convolve(minus, m)
    convolve(plus, n)

    rho = tuple(range(nvars - 1, -1, -1))
    candidates = sorted(
        {tuple(sorted(mono, reverse=True)) for mono in character},
        key=lambda w: (sum(abs(e) for e in w), w),
        reverse=True,
    )
    result: dict[tuple[Partition, Partition], int] = {}
    for w in candidates:
        target = tuple(a + b for a, b in zip(w, rho))
        mult = 0
        for mono, c in character.items():
            residue = tuple(t - u for t, u in zip(target, mono))
            if sorted(residue) != list(range(nvars)):
                continue
            # residue is a permutation of rho; its parity gives the sign
            perm = tuple(nvars - 1 - r for r in residue)
            mult += c * perm_sign(perm)
        if mult:
            assert mult > 0, (w, mult)
            nu = Partition(e for e in w if e > 0)
            mu = Partition(-e for e in reversed(w) if e < 0)
            key = (mu, nu)
            result[key] = result.get(key, 0) + mult
    return result


def rational_dimension(mu: Partition, nu: Partition, nvars: int) -> int:
    """Dimension of the rational GL(nvars) irreducible labeled (mu, nu).

    Shift the highest weight by a power of the determinant to land in a
    polynomial weight, then apply the hook-content formula.
    """
    from .diagrams import gl_dimension

    mu, nu = Partition(mu), Partition(nu)
    if len(mu) + len(nu) > nvars:
        raise ValueError("label does not fit in the chosen rank")
    shift = mu[0] if mu else 0
    weight = [shift + (nu[i] if i < len(nu) else 0) for i in range(nvars)]
    rev = list(reversed(tuple(mu) + (0,) * (nvars - len(mu))))
    for i in range(nvars):
        weight[i] -= rev[i]
    return gl_dimension(Partition(weight), nvars)


# ---------------------------------------------------------------------------
# standard tableaux and tensor-word reconstruction


def standard_tableaux_brute(lam: Partition) -> int:
    """Count standard Young tableaux by direct growth enumeration."""
    lam = Partition(lam)

    def rec(shape: tuple[int, ...]) -> int:
        if sum(shape) == 0:
            return 1
        total = 0
        for i in range(len(shape)):
            below = shape[i + 1] if i + 1 < len(shape) else 0
            if shape[i] - 1 >= below:
                smaller = tuple(
                    s - 1 if r == i else s for r, s in enumerate(shape) if s - (1 if r == i else 0) > 0
                )
                total += rec_cached(smaller)
        return total

    @cache
    def rec_cached(shape: tuple[int, ...]) -> int:
        return rec(shape)

    return rec_cached(tuple(lam))


def reconstruct_tensor_word(l: int, m: int, n: int, p: int) -> dict[SimpleIndex, int]:
    """Composition factors of the (l, m, n, p) tensor word, oracle route.

    Splits each full dual into its submodule and quotient at the additive
    level, decomposes the thin core by stable character arithmetic, and the
    thick slots by brute standard-tableau counting.
    """
    out: dict[SimpleIndex, int] = {}
    for a in range(m + 1):
        for b in range(n + 1):
            split_ways = comb(m, a) * comb(n, b)
            thin = stable_mixed_tensor(m - a, n - b)
            left = {
                lam: standard_tableaux_brute(lam) for lam in partitions(l + a)
            }
            right = {
                pi: standard_tableaux_brute(pi) for pi in partitions(p + b)
            }
            for lam, fl in left.items():
                for (mu, nu), ft in thin.items():
                    for pi, fr in right.items():
                        idx = SimpleIndex(lam, mu, nu, pi)
                        out[idx] = out.get(idx, 0) + split_ways * fl * ft * fr
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# one explicit operator family for every word of degree-one moves


def _apply_perm_blocks(index: tuple[int, ...], blocks: list[tuple[int, int]], perms) -> tuple[int, ...]:
    out = list(index)
    for (start, size), perm in zip(blocks, perms):
        chunk = index[start : start + size]
        for pos in range(size):
            out[start + perm[pos]] = chunk[pos]
    return tuple(out)


def _operator_family_rank(operators, domain_dims: list[int]) -> int:
    """Rank of the span of basis-to-basis operators, evaluated on the whole basis.

    Each (basis point, image) pair is a 0/1 column listing the operators that
    send the point there.  Equal columns leave the rank unchanged, so only the
    distinct ones are reduced (as rows of the transpose).
    """
    basis = list(itertools.product(*[range(d) for d in domain_dims]))
    columns: dict[tuple, list[int]] = {}
    for r, op in enumerate(operators):
        for idx, point in enumerate(basis):
            image = op(point)
            if image is not None:
                columns.setdefault((idx, image), []).append(r)
    distinct = dict.fromkeys(tuple(ops) for ops in columns.values())
    return rank_of_rows([dict.fromkeys(ops, 1) for ops in distinct], list(range(len(operators))))


def composite_orbit_rank(l: int, m: int, n: int, p: int, moves: tuple[str, ...]) -> int:
    """Rank of the span of all modeled composites of a word of moves.

    Each move is "contract" (pair the last middle slots), "left" (project the
    first dual slot onto its quotient part) or "right" (the mirror).  The span
    ranges over every right permutation of the source slots, every ordering of
    distinct moves, and every placement of freshly created quotient slots
    inside the enlarged outer blocks; this realizes the image of the
    corresponding composition of degree-one morphism spaces.  A one-move word
    spans the degree-one Hom space itself.  The closed form this rank checks,
    symalg.move_word_dimension, is deliberately not used here.
    """
    k_c = moves.count("contract")
    k_l = moves.count("left")
    k_r = moves.count("right")
    if m < k_c + k_l or n < k_c + k_r:
        raise ValueError(f"moves {moves} do not apply at {(l, m, n, p)}")
    nat = max(m + n, 1)
    quot_l = max(l + k_l, 1)
    quot_r = max(p + k_r, 1)
    dims = [quot_l] * l + [nat + quot_l] * m + [nat + quot_r] * n + [quot_r] * p
    blocks = [(0, l), (l, m), (l + m, n), (l + m + n, p)]

    def apply_moves(point, order):
        wstar = list(point[:l])
        dual = list(point[l : l + m])
        natural = list(point[l + m : l + m + n])
        wside = list(point[l + m + n :])
        new_left: list[int] = []
        new_right: list[int] = []
        for move in order:
            if move == "contract":
                d, t = dual.pop(), natural.pop()
                if d >= nat or t >= nat or d != t:
                    return None
            elif move == "left":
                d = dual.pop(0)
                if d < nat:
                    return None
                new_left.append(d - nat)
            else:
                t = natural.pop()
                if t < nat:
                    return None
                new_right.append(t - nat)
        return tuple(new_left), tuple(wstar), tuple(dual), tuple(natural), tuple(wside), tuple(new_right)

    orderings = sorted(set(itertools.permutations(moves)))
    group = list(
        itertools.product(
            itertools.permutations(range(l)),
            itertools.permutations(range(m)),
            itertools.permutations(range(n)),
            itertools.permutations(range(p)),
        )
    )
    left_placements = list(itertools.permutations(range(l + k_l), k_l))
    right_placements = list(itertools.permutations(range(p + k_r), k_r))

    def weave(new_items, old_items, positions):
        total = len(new_items) + len(old_items)
        out = [None] * total
        for item, pos in zip(new_items, positions):
            out[pos] = item
        rest = iter(old_items)
        for i in range(total):
            if out[i] is None:
                out[i] = next(rest)
        return tuple(out)

    def make_op(order, pl, pr, perms):
        def op(point):
            moved = _apply_perm_blocks(point, blocks, perms)
            state = apply_moves(moved, order)
            if state is None:
                return None
            new_left, wstar, dual, natural, wside, new_right = state
            head = weave(new_left, wstar, pl)
            tail = weave(new_right, wside, pr)
            return head + dual + natural + tail

        return op

    operators = [
        make_op(order, pl, pr, perms)
        for order in orderings
        for pl in left_placements
        for pr in right_placements
        for perms in group
    ]
    return _operator_family_rank(operators, dims)


def contract_orbit_rank(l: int, m: int, n: int, p: int) -> int:
    """Rank of the right translates of one contraction: the one-move word."""
    return composite_orbit_rank(l, m, n, p, moves=("contract",))
