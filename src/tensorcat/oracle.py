"""Independent brute-force verifiers.

Everything here works at the level of explicit monomials, explicit tableaux,
or explicit linear operators on small tensor spaces, on purpose sharing no
code path with the Littlewood-Richardson engine it is used to check:

* Schur polynomials and LR coefficients by one semistandard filler of a
  skew shape, cell by cell in reverse reading order: s_lam sums the
  contents of the fillings of lam, and c^lam_(mu,nu) counts the fillings of
  lam/mu of content nu whose entries keep the lattice condition;
* Schur multiplicities by one Weyl alternation, s_w = a_(w+rho) / a_rho,
  which serves one alphabet, two alphabets and Laurent characters;
* symmetric/exterior powers of squares and of tensor products by direct
  orbit summation over weight multisets;
* stable decompositions of mixed tensor powers by rational character
  arithmetic with inverse variables;
* standard-tableau counting by enumeration;
* ranks of one explicitly constructed operator family per word of moves
  (contract, left and right quotient projections), which realizes its span
  in symalg's move model (not claimed as a Hom space of the category); its
  0/1 columns are read from the points the moves accept, one pass per perm.

A polynomial (Laurent polynomials included) is a Combination whose indices
are exponent tuples, one entry per variable: ``{(2, 0): 1, (1, 1): 1}`` is
x1^2 + x1*x2.  Sums and scalings are the Combination ones; products are
:func:`poly_product`.
"""

from __future__ import annotations

import itertools
from functools import cache, reduce
from math import comb

from .combination import Combination
from .config import check_limit
from .diagrams import Partition, gl_dimension, partitions
from .linalg import rank_of_rows
from .grothendieck import SimpleIndex

EXPAND_MAX_BOXES = 8
ORBIT_MAX_SLOTS = 5

Monomial = tuple[int, ...]


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


def _fixed_by_swaps(poly: Combination, positions) -> bool:
    """True when swapping the variables at i and i + 1, for each i in positions, leaves poly unchanged."""
    return all(
        poly.coefficient(mono[:i] + (mono[i + 1], mono[i]) + mono[i + 2 :]) == c
        for i in positions
        for mono, c in poly.items()
    )


def _fillings(lam, mu, values: int, admit) -> dict[Monomial, int]:
    """Contents of the semistandard fillings of lam/mu by 1..values, each with its count.

    Cells are visited in reverse reading order (rows top to bottom, each row
    right to left).  Each entry is at most its right neighbour's, greater
    than its upper neighbour's, and accepted by admit(v, counts) before it
    is placed, where counts[v] is how often v is already placed.
    """
    cells = [(r, c) for r, length in enumerate(lam) for c in reversed(range(mu[r] if r < len(mu) else 0, length))]
    # rows[r + 1][c] holds cell (r, c); 0 above lam and in mu, values just right of each row
    rows = [[0] * (lam[0] if lam else 0)] + [[0] * length + [values] for length in lam]
    counts = [0] * (values + 1)
    out: dict[Monomial, int] = {}

    def fill(k: int) -> None:
        if k == len(cells):
            key = tuple(counts[1:])
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[k]
        row = rows[r + 1]
        for v in range(rows[r][c] + 1, row[c + 1] + 1):
            if admit(v, counts):
                row[c] = v
                counts[v] += 1
                fill(k + 1)
                counts[v] -= 1

    fill(0)
    return out


def expand_schur(lam: Partition, nvars: int) -> Combination:
    """Schur polynomial s_lam(x_1..x_nvars) as a sum over semistandard tableaux."""
    lam = Partition(lam)
    check_limit(lam.degree, EXPAND_MAX_BOXES, "schur expansion boxes")
    check_limit(nvars, 16, "schur expansion variables")
    if nvars < 1:
        raise ValueError("need at least one variable")
    if len(lam) > nvars:
        return Combination()
    return Combination(_fillings(lam, (), nvars, lambda v, counts: True))


def _alternate(poly: Combination, sizes: tuple[int, ...]) -> dict[tuple[Monomial, ...], int]:
    """Schur multiplicities by Weyl alternation, s_w = a_(w+rho) / a_rho, alphabet by alphabet.

    The variables split into consecutive alphabets of the given sizes, and
    poly must be symmetric inside each, so poly * a_rho is the alternant of
    x^rho * poly.  Shifted by rho = (size-1, ..., 1, 0) in each alphabet, a
    monomial alternates to 0 when an alphabet repeats an entry, else to the
    sign of its sorting times a_(w+rho), w the sorted entries minus rho.  The
    result maps each tuple of weights w (one weakly decreasing tuple per
    alphabet) to its summed coefficient.  Exponents may be negative.
    """
    cuts = list(itertools.accumulate(sizes, initial=0))
    if any(len(mono) != cuts[-1] for mono in poly):
        raise ValueError(f"exponent tuples do not have {cuts[-1]} entries")
    alphabets = list(zip(cuts, cuts[1:]))
    if not _fixed_by_swaps(poly, [i for lo, hi in alphabets for i in range(lo, hi - 1)]):
        raise ValueError("polynomial is not symmetric in each alphabet")
    out: dict[tuple[Monomial, ...], int] = {}
    for mono, c in poly.items():
        weights = []
        for lo, hi in alphabets:
            rho = range(hi - lo - 1, -1, -1)
            shifted = [e + r for e, r in zip(mono[lo:hi], rho)]
            if len(set(shifted)) < len(shifted):
                break
            c *= (-1) ** sum(x < y for x, y in itertools.combinations(shifted, 2))
            weights.append(tuple(e - r for e, r in zip(sorted(shifted, reverse=True), rho)))
        else:
            key = tuple(weights)
            out[key] = out.get(key, 0) + c
    return out


def decompose_into_schur(poly: Combination) -> Combination:
    """Schur multiplicities of a symmetric polynomial.

    A virtual character has negative ones; a caller that claims an honest
    character checks with ``require_nonnegative()``.
    """
    nvars = len(next(iter(poly), ()))
    return Combination({Partition(w): c for (w,), c in _alternate(poly, (nvars,)).items()})


def decompose_pair_into_schur(poly: Combination, a: int, b: int) -> Combination:
    """Decompose a polynomial symmetric in each of two alphabets separately."""
    return Combination({(Partition(v), Partition(w)): c for (v, w), c in _alternate(poly, (a, b)).items()})


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
    out = {}
    for multiset in chooser(range(len(weights)), k):
        total = [0] * nvars
        for idx in multiset:
            for pos, e in enumerate(weights[idx]):
                total[pos] += e
        key = tuple(total)
        out[key] = out.get(key, 0) + 1
    return Combination(out)


def brute_force_plethysm(outer: str, k: int, inner: str, nvars: int) -> Combination:
    """Character of S^k or Lambda^k of a square, decomposed into Schur terms.

    inner is "sym2" or "ext2"; sizes are limited to k <= 4, nvars <= 6.
    """
    check_limit(k, 4, "plethysm power")
    check_limit(nvars, 6, "plethysm variables")
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
    check_limit(k, 4, "cauchy power")
    check_limit(a, 5, "cauchy a-space variables")
    check_limit(b, 5, "cauchy b-space variables")
    pairs = ((i, a + j) for i, j in itertools.product(range(a), range(b)))
    character = _power_character(outer, k, _pair_weights(pairs, a + b), a + b)
    return decompose_pair_into_schur(character, a, b)


# ---------------------------------------------------------------------------
# stable mixed tensors by rational character arithmetic


@cache
def stable_mixed_tensor(m: int, n: int, nvars: int | None = None) -> Combination:
    """Decompose (dual)^(x m) (x) (natural)^(x n) into rational irreducibles.

    Works inside GL(nvars) with genuine inverse variables; the multiplicity of
    the highest weight w is read by Weyl alternation of the Laurent character.
    Multiplicities are stable once nvars >= 2(m+n), which is required.
    """
    _require_nonnegative(m=m, n=n)
    check_limit(m + n, 4, "mixed tensor factors")
    if nvars is None:
        nvars = max(1, 2 * (m + n))
    if nvars < 2 * (m + n) or nvars < 1:
        raise ValueError(f"need nvars >= 2(m+n) = {2 * (m + n)} for stability, got {nvars}")

    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    natural = Combination(dict.fromkeys(units, 1))
    dual = Combination({tuple(-e for e in w): 1 for w in units})
    character = reduce(poly_product, [dual] * m + [natural] * n, Combination({(0,) * nvars: 1}))

    out = {}
    for (w,), c in _alternate(character, (nvars,)).items():  # w = (nu, 0, ..., 0, -reversed(mu))
        out[Partition(-e for e in reversed(w) if e < 0), Partition(e for e in w if e > 0)] = c
    return Combination(out).require_nonnegative()


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

    Zero unless lam contains mu and the degrees add up.  The cells are
    filled in reverse reading order, so the lattice condition is kept
    incrementally: so far, no entry v is placed more often than nu asks, or
    more often than v - 1.
    """
    if not lam.contains(mu) or lam.degree != mu.degree + nu.degree:
        return 0

    def lattice(v: int, counts: list[int]) -> bool:
        return counts[v] < nu[v - 1] and (v == 1 or counts[v] < counts[v - 1])

    return sum(_fillings(lam, mu, len(nu), lattice).values())


def reconstruct_tensor_word(l: int, m: int, n: int, p: int) -> Combination:
    """Composition factors of the (l, m, n, p) tensor word, oracle route.

    Splits each full dual into its submodule and quotient at the additive
    level, decomposes the thin core by stable character arithmetic, and the
    thick slots by brute standard-tableau counting.
    """
    _require_nonnegative(l=l, m=m, n=n, p=p)
    out = {}
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
                        key = SimpleIndex(lam, mu, nu, pi)
                        out[key] = out.get(key, 0) + split_ways * fl * ft * fr
    return Combination(out)


# ---------------------------------------------------------------------------
# one explicit operator family for every word of degree-one moves


def composite_orbit_rank(l: int, m: int, n: int, p: int, moves: tuple[str, ...]) -> int:
    """Rank of the span of all modeled composites of a word of moves.

    Each move is "contract" (pair the last middle slots), "left" (project the
    first dual slot onto its quotient part) or "right" (the mirror).  The span
    ranges over every right permutation of the source slots and every set of
    positions for the freshly created quotient slots inside the enlarged outer
    blocks; this realizes the span of the word in the move model.  A
    one-move word spans the moves of that kind out of (l, m, n, p).  The
    word is applied in the given order only: any other
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
    check_limit(l + m + n + p, ORBIT_MAX_SLOTS, "orbit rank slots")
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
