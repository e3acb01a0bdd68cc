"""Exact computations in products of symmetric-group algebras.

Group elements are tuples of one-line permutations (one per factor), with
composition (s*t)(i) = s(t(i)).  Group-algebra elements carry exact rational
coefficients; they give the Young symmetrizers and their quasi-idempotency.

The quadratic-relation kernel ranks the right translates g - t*g of 1 - t,
written down as {g: 1, t*g: -1} with int coefficients.  The Young-projector
corner rank factorizes: since (c ⊗ c')(g, h)(c ⊗ c') = c g c ⊗ c' h c', the
corner of C[S_l x S_p] is the tensor product of two one-factor corners, and
its rank is the product of theirs.  A one-factor corner is c*A*c = c*(A*c)
with A = C[S_n]: the left translates g*c are c with its support relabelled,
an echelon basis of their span (f^lam rows for a Young symmetrizer) is taken
by exact elimination, and only those rows are multiplied by c (Fulton-Harris,
Representation Theory, §4.1-4.2).  The corner rank runs in integers: c is
cleared of denominators first, which keeps the rank, and its products are
built on int coefficient dicts by ``_multiply``, the same product that
``GroupAlgebraElement.__mul__`` applies to Fraction coefficients.

Symmetrizer-sized groups, S_n with n <= YOUNG_SYMMETRIZER_MAX_BOXES, build
their elements once per process: ``_group_keys(n)`` maps each permutation to
its one key (perm,), 874 permutations for n = 0..6.  The Young symmetrizers and
the corner's translates take their keys from it and compose r*s with one
itemgetter call, so all symmetrizers of S_n draw on one set of n! keys, and
their coefficients are two shared Fractions, +1 and -1.  quadratic_kernel_check
stays off the table: its slots reach S_8 under the default group guard, and a
table held for the life of the process would keep 40,320 keys there (about
7 MB).

One closed form, move_word_dimension, gives the span of a word of moves out of
J(q) in the move model; the empty-word, one-move, composition and kernel numbers
are read off it.  These spans are not claimed as Hom spaces of the category:
"contract" at (0,1,1,0) spans a map into the unit, which is not injective.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import index as integer
from operator import itemgetter

from .config import check_guard, check_limit
from .diagrams import Partition, standard_tableau_count
from .linalg import rank_of_rows, row_basis
from .poset import QuadIndex

Perm = tuple[int, ...]

YOUNG_SYMMETRIZER_MAX_BOXES = 6

_SIGNS = {1: Fraction(1), -1: Fraction(-1)}  # every symmetrizer coefficient is one of these two


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(s: Perm, t: Perm) -> Perm:
    return tuple([s[i] for i in t])


def perm_sign(s: Perm) -> int:
    seen = [False] * len(s)
    sign = 1
    for start in range(len(s)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = s[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _multiply(a: dict, b: dict) -> dict:
    """Product of two coefficient dicts keyed by tuples of permutations, in
    whatever exact type the coefficients have; zero terms may remain."""
    out = {}
    for g, cg in a.items():
        for h, ch in b.items():
            gh = tuple(map(compose, g, h))
            out[gh] = out.get(gh, 0) + cg * ch
    return out


class GroupAlgebraElement:
    """Element of C[S_{n_1} x ... x S_{n_r}] with rational coefficients."""

    __slots__ = ("sizes", "coeffs")

    def __init__(self, sizes, coeffs=None):
        self.sizes: tuple[int, ...] = tuple(integer(n) for n in sizes)
        self.coeffs: dict[tuple[Perm, ...], Fraction] = {}
        if coeffs:
            for g, c in dict(coeffs).items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    self.coeffs[g] = c

    def scale(self, factor) -> "GroupAlgebraElement":
        factor = Fraction(factor)
        return GroupAlgebraElement(
            self.sizes, {g: factor * c for g, c in self.coeffs.items()}
        )

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.sizes != other.sizes:
            raise ValueError(f"cannot multiply group-algebra elements of sizes {self.sizes} and {other.sizes}")
        return GroupAlgebraElement(self.sizes, _multiply(self.coeffs, other.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebraElement)
            and self.sizes == other.sizes
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"GroupAlgebraElement(sizes={self.sizes}, support={len(self.coeffs)})"


def _canonical_filling(lam: Partition) -> list[list[int]]:
    rows = []
    counter = 0
    for part in lam:
        rows.append(list(range(counter, counter + part)))
        counter += part
    return rows


@functools.cache
def _group_keys(n: int) -> dict[Perm, tuple[Perm]]:
    """Each permutation of 0..n-1, in itertools.permutations order, mapped to
    its one group-algebra key (perm,).  Only symmetrizer-sized groups come
    here: n <= YOUNG_SYMMETRIZER_MAX_BOXES."""
    return {perm: (perm,) for perm in itertools.permutations(range(n))}


def _right_composer(s: Perm):
    """The map r -> r*s as one C call.  For n <= 1, s is the identity, and
    itemgetter would return a scalar (n = 1) or refuse (n = 0)."""
    return itemgetter(*s) if len(s) > 1 else tuple


def _stabilizer_perms(blocks: list[list[int]], n: int):
    """All permutations of 0..n-1 permuting each listed block within itself.

    The blocks must partition 0..n-1.  Each element is the concatenation of
    one permutation per block, in itertools.product order, put back into
    label order by one itemgetter.
    """
    if n <= 1:
        yield tuple(range(n))
        return
    place = {label: k for k, label in enumerate(itertools.chain.from_iterable(blocks))}
    in_label_order = itemgetter(*(place[label] for label in range(n)))
    for choice in itertools.product(*map(itertools.permutations, blocks)):
        yield in_label_order(sum(choice, ()))


def young_symmetrizer(lam: Partition) -> GroupAlgebraElement:
    """Row symmetrizer times column antisymmetrizer for the canonical filling.

    The product is written down directly as the sum of sign(s) * r*s over row
    permutations r and column permutations s.  Its terms are distinct: the row
    and column groups meet only in the identity, so r*s = r'*s' forces r = r'.
    """
    lam = Partition(lam)
    n = lam.degree
    check_limit(n, YOUNG_SYMMETRIZER_MAX_BOXES, "symmetrizer boxes")
    filling = _canonical_filling(lam)
    conj = lam.conjugate()
    columns = [
        [filling[i][j] for i in range(conj[j])]
        for j in range(len(conj))
    ]
    keys = _group_keys(n)
    signed = [(_right_composer(s), _SIGNS[perm_sign(s)]) for s in _stabilizer_perms(columns, n)]
    return GroupAlgebraElement(
        (n,), {keys[times_s(r)]: sign for r in _stabilizer_perms(filling, n) for times_s, sign in signed}
    )


def young_scalar(lam: Partition) -> int:
    """The scalar h with c^2 = h*c: degree factorial over the tableau count."""
    lam = Partition(lam)
    value, rem = divmod(math.factorial(lam.degree), standard_tableau_count(lam))
    if rem:
        raise ArithmeticError(f"young scalar of {lam} leaves remainder {rem}")
    return value


MOVES = ("contract", "left", "right")


def move_word_dimension(q: QuadIndex, moves: tuple[str, ...]) -> int:
    """Dimension of the span of a word of degree-one moves out of J(q).

    The move model: X = V* contains X' = V_*, Y = V_*^* contains Y' = V;
    "left" is X -> X/X' (enlarging l), "right" is Y -> Y/Y' (enlarging p),
    "contract" is the pairing X (x) Y -> 1.  The word needs
    m >= #contract + #left and n >= #contract + #right.  Every span is a free
    module over the group algebra of the enlarged outer blocks, so the
    dimension is the number of distinct orderings of the word times
    (l + #left)! m! n! (p + #right)!.  The empty word spans the slot
    permutations of q.
    """
    for move in moves:
        if move not in MOVES:
            raise ValueError(f"unknown move {move!r}")
    l, m, n, p = q
    k_c, k_l, k_r = (moves.count(move) for move in MOVES)
    for name, have, need in (("m", m, k_c + k_l), ("n", n, k_c + k_r)):
        if have < need:
            raise ValueError(f"{','.join(moves)} needs {name} >= {need}; index {name} is {have} in {tuple(q)}")
    fac = math.factorial
    orderings = fac(len(moves)) // (fac(k_c) * fac(k_l) * fac(k_r))
    return orderings * fac(l + k_l) * fac(m) * fac(n) * fac(p + k_r)


COMPOSITIONS = (
    "contract,contract",
    "left,left",
    "right,right",
    "contract,left",
    "contract,right",
    "left,right",
)


def composition_domain_dimension(kind: str, q: QuadIndex) -> int:
    """Dimension of the domain of a two-step composition map.

    The domain is the tensor product of two one-move spans over the
    empty-word span of the intermediate index; both factors are free
    one-sided modules there, so the dimension is that of the two-move word
    (summed over the two orderings for the mixed compositions).
    """
    if kind not in COMPOSITIONS:
        raise ValueError(f"unknown composition {kind!r}")
    return move_word_dimension(q, tuple(kind.split(",")))


def quadratic_kernel_dim(q: QuadIndex) -> int:
    """Half the group-algebra dimension: the quadratic-relation kernel size."""
    return move_word_dimension(q, ("contract", "contract")) // 2


def quadratic_kernel_check(q: QuadIndex, guard: int | None = None) -> bool:
    """Explicitly span the right ideal of 1 - (m,m-1)(n,n-1) and compare ranks.

    The right translate of 1 - t by a group element g is g - t*g, so each row
    is {g: 1, t*g: -1}; the rows are ranked exactly and the rank is tested
    against the closed form.  t is the identity on the l and p slots, so t*g
    twists only g's m and n slots, each looked up in a table of t*s built
    once per permutation s of that slot.
    """
    l, m, n, p = q
    dim = quadratic_kernel_dim(q)
    check_guard(l + m + n + p, guard)
    elements = list(itertools.product(*(itertools.permutations(range(k)) for k in q)))
    tm, tn = (
        {s: compose(identity_perm(k - 2) + (k - 1, k - 2), s) for s in itertools.permutations(range(k))}
        for k in (m, n)
    )
    rows = [{g: 1, (g[0], tm[g[1]], tn[g[2]], g[3]): -1} for g in elements]
    return rank_of_rows(rows, elements) == dim


def _corner_rank(c: GroupAlgebraElement) -> int:
    """Rank of the span of c*g*c over the group elements g of c's one factor.

    That span is c*A*c = c*(A*c).  The left ideal A*c is spanned by the
    translates g*c, each c with its support relabelled h -> g*h, so c is
    multiplied only by the rows of an echelon basis of that ideal.  c is
    first cleared of denominators, which scales the span and keeps its rank,
    so the translates, the basis and the products are all integer dicts.
    """
    (n,) = c.sizes
    den = math.lcm(*(v.denominator for v in c.coeffs.values()))
    integral = {g: v.numerator * (den // v.denominator) for g, v in c.coeffs.items()}
    keys = _group_keys(n)
    elements = list(keys.values())
    terms = [(_right_composer(h), v) for (h,), v in integral.items()]
    translates = [{keys[times_h(g)]: v for times_h, v in terms} for g in keys]
    products = [_multiply(integral, row) for row in row_basis(translates, elements)]
    return rank_of_rows(products, elements)


def corner_algebra_dimension(lam: Partition, pi: Partition) -> int:
    """Rank of the two-sided Young-projector corner of C[S_l x S_p].

    The corner of c_lam ⊗ c_pi is the tensor product of the two one-factor
    corners, so its rank is the product of theirs.  Scalar endomorphism
    algebras show up as rank one here.  Refused above the default
    group-algebra guard.
    """
    lam, pi = Partition(lam), Partition(pi)
    check_guard(lam.degree + pi.degree, None)
    return _corner_rank(young_symmetrizer(lam)) * _corner_rank(young_symmetrizer(pi))
