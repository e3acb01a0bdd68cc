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
* LR coefficients by cell filling: the tableaux of one skew shape, counted
  one cell at a time;
* ranks of one explicitly constructed operator family per word of moves
  (contract, left and right quotient projections), which realizes each
  degree-one Hom space and each composite of two of them; its 0/1 columns
  are read from the points the moves accept, one pass per permutation.

A polynomial (Laurent polynomials included) is a Combination whose indices
are exponent tuples, one entry per variable: ``{(2, 0): 1, (1, 1): 1}`` is
x1^2 + x1*x2.  Sums and scalings are the Combination ones; products are
:func:`poly_product`.
"""

from __future__ import annotations

import itertools
from functools import cache, reduce
from math import comb

from .combination import Combination, CombinationBuilder, index_label
from .diagrams import Partition, gl_dimension, partitions
from .errors import LimitExceeded
from .linalg import rank_of_rows
from .symalg import perm_sign
from .grothendieck import SimpleIndex

EXPAND_MAX_BOXES = 8
ORBIT_MAX_SLOTS = 5

Monomial = tuple[int, ...]


def _within_limit(size: int, limit: int, what: str) -> None:
    if size > limit:
        raise LimitExceeded(size, limit, what)


def _require_nonnegative(**entries: int) -> None:
    for name, value in entries.items():
        if value < 0:
            raise ValueError(f"entries must be non-negative: {name} is {value}")


def poly_product(a: Combination, b: Combination) -> Combination:
    """Product of two polynomials in the same variables."""
    out: dict[Monomial, int] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return Combination(out)


def is_symmetric(poly: Combination) -> bool:
    """True when every monomial has the coefficient of its sorted rearrangement."""
    return all(poly.coefficient(tuple(sorted(mono, reverse=True))) == c for mono, c in poly.items())


def _embed(poly: Combination, before: int, after: int) -> Combination:
    """The same polynomial among more variables: zero exponents before and after its own."""
    return Combination({(0,) * before + mono + (0,) * after: c for mono, c in poly.items()})


def expand_schur(lam: Partition, nvars: int) -> Combination:
    """Schur polynomial s_lam(x_1..x_nvars) as a sum over semistandard tableaux.

    Cells are filled in row-major order; each value is at least its left
    neighbour's and greater than its upper neighbour's.
    """
    lam = Partition(lam)
    _within_limit(lam.degree, EXPAND_MAX_BOXES, "schur expansion boxes")
    if nvars < 1:
        raise ValueError("need at least one variable")
    if len(lam) > nvars:
        return Combination()
    cells = [(i, j) for i, length in enumerate(lam) for j in range(length)]
    rows = [[0] * length for length in lam]
    weight = [0] * nvars
    out = CombinationBuilder()

    def fill(k: int) -> None:
        if k == len(cells):
            out.add(tuple(weight))
            return
        i, j = cells[k]
        low = max(rows[i][j - 1] if j else 1, rows[i - 1][j] + 1 if i else 1)
        for v in range(low, nvars + 1):
            rows[i][j] = v
            weight[v - 1] += 1
            fill(k + 1)
            weight[v - 1] -= 1

    fill(0)
    return out.build()


def _peel_schur(poly: Combination, sizes: tuple[int, ...], expect_nonnegative: bool = False) -> Combination:
    """Greedy leading-term subtraction of products of Schur polynomials.

    The variables split into consecutive alphabets of the given sizes.  The
    leading monomial is the graded-lexicographic maximum taken alphabet by
    alphabet; its coefficient times the product of one Schur polynomial per
    alphabet is subtracted until nothing is left.  The result is indexed by
    tuples of partitions, one per alphabet.
    """
    cuts = list(itertools.accumulate(sizes, initial=0))
    nvars = cuts[-1]
    if any(len(mono) != nvars for mono in poly):
        raise ValueError(f"exponent tuples do not have {nvars} entries")
    slices = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    remaining = poly
    out = CombinationBuilder()
    while remaining:
        lead = max(remaining, key=lambda m: tuple(k for s in slices for k in (sum(m[s]), m[s])))
        blocks = [lead[s] for s in slices]
        if any(block != tuple(sorted(block, reverse=True)) or min(block, default=0) < 0 for block in blocks):
            raise ValueError(f"leading monomial {lead} is not a partition weight in each alphabet")
        shape = tuple(Partition(block) for block in blocks)
        coeff = remaining[lead]
        if expect_nonnegative and coeff < 0:
            raise ArithmeticError(
                f"negative coefficient {coeff} at {index_label(shape)} in a claimed decomposition"
            )
        out.add(shape, coeff)
        factors = [
            _embed(expand_schur(lam, s.stop - s.start), s.start, nvars - s.stop)
            for lam, s in zip(shape, slices)
        ]
        remaining = remaining - reduce(poly_product, factors).scale(coeff)
    return out.build()


def decompose_into_schur(poly: Combination, expect_nonnegative: bool = False) -> Combination:
    """Greedy graded-lex leading-term subtraction into the Schur basis.

    Negative coefficients are legitimate for virtual characters; pass
    expect_nonnegative=True to flag them instead, for inputs that are claimed
    to be honest decompositions.
    """
    if not is_symmetric(poly):
        raise ValueError("polynomial is not symmetric")
    nvars = len(next(iter(poly), ()))
    peeled = _peel_schur(poly, (nvars,), expect_nonnegative)
    return Combination((lam, c) for (lam,), c in peeled.items())


def decompose_pair_into_schur(poly: Combination, a: int, b: int) -> Combination:
    """Decompose a polynomial symmetric in each of two alphabets separately."""
    return _peel_schur(poly, (a, b))


# ---------------------------------------------------------------------------
# brute-force powers of squares and tensor products


def _pair_weights(pairs, nvars: int) -> list[Monomial]:
    """The weight x_i * x_j of each variable pair (i, j), as an exponent tuple."""
    out = []
    for i, j in pairs:
        w = [0] * nvars
        w[i] += 1
        w[j] += 1
        out.append(tuple(w))
    return out


def _power_character(outer: str, k: int, weights: list[Monomial], nvars: int) -> Combination:
    if outer == "sym":
        chooser = itertools.combinations_with_replacement
    elif outer == "ext":
        chooser = itertools.combinations
    else:
        raise ValueError(f"unknown outer power {outer!r}")
    out = CombinationBuilder()
    for multiset in chooser(range(len(weights)), k):
        total = [0] * nvars
        for idx in multiset:
            for pos, e in enumerate(weights[idx]):
                total[pos] += e
        out.add(tuple(total))
    return out.build()


def brute_force_plethysm(outer: str, k: int, inner: str, nvars: int) -> Combination:
    """Character of S^k or Lambda^k of a square, decomposed into Schur terms.

    inner is "sym2" or "ext2"; sizes are limited to k <= 4, nvars <= 6.
    """
    _within_limit(k, 4, "plethysm power")
    _within_limit(nvars, 6, "plethysm variables")
    if inner == "sym2":
        pairs = itertools.combinations_with_replacement(range(nvars), 2)
    elif inner == "ext2":
        pairs = itertools.combinations(range(nvars), 2)
    else:
        raise ValueError(f"unknown inner square {inner!r}")
    return decompose_into_schur(_power_character(outer, k, _pair_weights(pairs, nvars), nvars))


def brute_force_cauchy(outer: str, k: int, a: int, b: int) -> Combination:
    """S^k or Lambda^k of a tensor product of an a-space and a b-space.

    Sizes are limited to k <= 4 and a, b <= 5.
    """
    _within_limit(k, 4, "cauchy power")
    _within_limit(a, 5, "cauchy a-space variables")
    _within_limit(b, 5, "cauchy b-space variables")
    pairs = ((i, a + j) for i, j in itertools.product(range(a), range(b)))
    character = _power_character(outer, k, _pair_weights(pairs, a + b), a + b)
    return decompose_pair_into_schur(character, a, b)


# ---------------------------------------------------------------------------
# stable mixed tensors by rational character arithmetic


@cache
def stable_mixed_tensor(m: int, n: int, nvars: int | None = None) -> Combination:
    """Decompose (dual)^(x m) (x) (natural)^(x n) into rational irreducibles.

    Works inside GL(nvars) with genuine inverse variables; the multiplicity of
    the highest weight w is extracted by Weyl alternation over the symmetric
    group. Multiplicities are stable once nvars >= 2(m+n), which is required.
    """
    _require_nonnegative(m=m, n=n)
    _within_limit(m + n, 4, "mixed tensor factors")
    if nvars is None:
        nvars = max(1, 2 * (m + n))
    if nvars < 2 * (m + n) or nvars < 1:
        raise ValueError(f"need nvars >= 2(m+n) = {2 * (m + n)} for stability, got {nvars}")

    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    natural = Combination(dict.fromkeys(units, 1))
    dual = Combination({tuple(-e for e in w): 1 for w in units})
    character = reduce(poly_product, [dual] * m + [natural] * n, Combination({(0,) * nvars: 1}))

    # The multiplicity of w is the coefficient of x^(w+rho) in character *
    # a_rho, the alternant of x^rho * character (the character is symmetric).
    # x^(mono+rho) alternates to 0 when mono+rho repeats an entry, else to
    # the sign of its sorting permutation times a_(sorted mono+rho).
    rho = range(nvars - 1, -1, -1)
    result = CombinationBuilder()
    for mono, c in character.items():
        shifted = [e + r for e, r in zip(mono, rho)]
        if len(set(shifted)) < nvars:
            continue
        order = sorted(range(nvars), key=shifted.__getitem__, reverse=True)
        w = [shifted[i] - r for i, r in zip(order, rho)]
        nu = Partition(e for e in w if e > 0)
        mu = Partition(-e for e in reversed(w) if e < 0)
        result.add((mu, nu), c * perm_sign(tuple(order)))
    return result.build().require_nonnegative()


def rational_dimension(mu: Partition, nu: Partition, nvars: int) -> int:
    """Dimension of the rational GL(nvars) irreducible labeled (mu, nu).

    Shift the highest weight by a power of the determinant to land in a
    polynomial weight, then apply the hook-content formula.
    """
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
# tableau counts and tensor-word reconstruction


@cache
def standard_tableaux_brute(lam: Partition) -> int:
    """Count standard Young tableaux by direct growth enumeration.

    The largest entry sits in a corner; remove each corner box in turn.
    """
    if not lam:
        return 1
    return sum(
        standard_tableaux_brute(Partition(lam[:i] + (lam[i] - 1,) + lam[i + 1 :]))
        for i in range(len(lam))
        if lam[i] > (lam[i + 1] if i + 1 < len(lam) else 0)
    )


def lr_tableaux_brute(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Count the LR tableaux of shape lam/mu and content nu cell by cell.

    Zero unless lam contains mu and the degrees add up.  Cells are visited
    in reverse reading order (rows top to bottom, each row right to left),
    so the lattice condition is kept incrementally.
    """
    if not lam.contains(mu) or lam.degree != mu.degree + nu.degree:
        return 0
    cells = []
    for r in range(len(lam)):
        start = mu[r] if r < len(mu) else 0
        for c in range(lam[r] - 1, start - 1, -1):
            cells.append((r, c))
    values = len(nu)
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * (values + 1)

    def in_skew(r: int, c: int) -> bool:
        if r < 0 or r >= len(lam) or c >= lam[r]:
            return False
        return c >= (mu[r] if r < len(mu) else 0)

    def backtrack(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        upper = values
        if in_skew(r, c + 1):
            upper = min(upper, filling[(r, c + 1)])
        lower = 1
        if in_skew(r - 1, c):
            lower = max(lower, filling[(r - 1, c)] + 1)
        for v in range(lower, upper + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            counts[v] += 1
            filling[(r, c)] = v
            total += backtrack(idx + 1)
            counts[v] -= 1
        filling.pop((r, c), None)
        return total

    return backtrack(0)


def reconstruct_tensor_word(l: int, m: int, n: int, p: int) -> Combination:
    """Composition factors of the (l, m, n, p) tensor word, oracle route.

    Splits each full dual into its submodule and quotient at the additive
    level, decomposes the thin core by stable character arithmetic, and the
    thick slots by brute standard-tableau counting.
    """
    _require_nonnegative(l=l, m=m, n=n, p=p)
    out = CombinationBuilder()
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
                        out.add(SimpleIndex(lam, mu, nu, pi), split_ways * fl * ft * fr)
    return out.build()


# ---------------------------------------------------------------------------
# one explicit operator family for every word of degree-one moves


def composite_orbit_rank(l: int, m: int, n: int, p: int, moves: tuple[str, ...]) -> int:
    """Rank of the span of all modeled composites of a word of moves.

    Each move is "contract" (pair the last middle slots), "left" (project the
    first dual slot onto its quotient part) or "right" (the mirror).  The span
    ranges over every right permutation of the source slots and every set of
    positions for the freshly created quotient slots inside the enlarged outer
    blocks; this realizes the image of the corresponding composition of
    degree-one morphism spaces.  A one-move word spans the degree-one Hom
    space itself.  The word is applied in the given order only: any other
    ordering consumes the same source slots up to a relabelling g -> g∘h,
    which the right permutations already contain.  Likewise, swapping two
    new slots' positions is swapping the two source slots that fed them.  So
    no operator is built twice, except that a double contraction's two pairs
    can be swapped.  The closed form this rank checks,
    symalg.move_word_dimension, is deliberately not used here.

    Every operator sends a basis point x to at most one basis point.  The
    points y that the moves accept are enumerated once, each with its image
    under every placement of the new slots; then, one pass per tuple of
    block permutations, each y yields the x that the permutation carries to
    it.  Each (x, image) pair is a 0/1 column listing the operators that send
    x there; equal columns leave the rank unchanged, so only the distinct
    ones are reduced (as rows of the transpose).
    """
    _require_nonnegative(l=l, m=m, n=n, p=p)
    _within_limit(l + m + n + p, ORBIT_MAX_SLOTS, "orbit rank slots")
    names = ("contract", "left", "right")
    for move in moves:
        if move not in names:
            raise ValueError(f"unknown move {move!r}")
    k_c, k_l, k_r = (moves.count(move) for move in names)
    if m < k_c + k_l or n < k_c + k_r:
        raise ValueError(f"moves {moves} do not apply at {(l, m, n, p)}")
    nat = max(m + n, 1)
    quot_l = max(l + k_l, 1)
    quot_r = max(p + k_r, 1)
    dims = [quot_l] * l + [nat + quot_l] * m + [nat + quot_r] * n + [quot_r] * p
    blocks = [(0, l), (l, m), (l + m, n), (l + m + n, p)]

    def apply_moves(point):
        wstar = list(point[:l])
        dual = list(point[l : l + m])
        natural = list(point[l + m : l + m + n])
        wside = list(point[l + m + n :])
        new_left: list[int] = []
        new_right: list[int] = []
        for move in moves:
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

    def weave(new_items, old_items, positions):
        # positions ascend, so each insert lands at its final place
        out = list(old_items)
        for item, pos in zip(new_items, positions):
            out.insert(pos, item)
        return tuple(out)

    placements = list(
        itertools.product(
            itertools.combinations(range(l + k_l), k_l),
            itertools.combinations(range(p + k_r), k_r),
        )
    )
    accepted = []
    for y in itertools.product(*map(range, dims)):
        state = apply_moves(y)
        if state is not None:
            new_left, wstar, dual, natural, wside, new_right = state
            images = [
                weave(new_left, wstar, pl) + dual + natural + weave(new_right, wside, pr) for pl, pr in placements
            ]
            accepted.append((y, images))

    columns: dict[tuple, list[int]] = {}
    ops = 0
    for perms in itertools.product(*(itertools.permutations(range(size)) for _, size in blocks)):
        # the operators first move slot start + i to start + perm[i], so x[start + i] = y[start + perm[i]]
        gather = [start + j for (start, _), perm in zip(blocks, perms) for j in perm]
        for y, images in accepted:
            x = tuple(map(y.__getitem__, gather))
            for op, image in enumerate(images, ops):
                columns.setdefault((x, image), []).append(op)
        ops += len(placements)
    distinct = dict.fromkeys(tuple(col) for col in columns.values())
    return rank_of_rows([dict.fromkeys(col, 1) for col in distinct], list(range(ops)))


def contract_orbit_rank(l: int, m: int, n: int, p: int) -> int:
    """Rank of the right translates of one contraction: the one-move word."""
    return composite_orbit_rank(l, m, n, p, moves=("contract",))
