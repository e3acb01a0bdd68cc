"""Composition-factor bookkeeping for the four-generator tensor category.

Simple objects are indexed by quadruples of Young diagrams (lam, mu, nu, pi):
lam and pi are the "thick" slots, mu and nu the "thin" slots.  Tensoring a
simple with one of the generating objects moves one box:

    W_*  : lam + box                 W   : pi + box
    V_*  : mu + box  or  nu - box    V   : nu + box  or  mu - box
    V*   : V_* moves plus W_* move   V** : V moves plus W move
    Q    : identity term plus F      F   : paired lam/pi moves (Cauchy)

and symmetric/exterior powers of F act through the Cauchy pair decompositions
followed by Littlewood-Richardson products on the lam and pi slots.  All
decompositions are at the level of the Grothendieck group: a Combination of
simple indices with positive integer multiplicities.

The tensor words J(l,m,n,p) = W_*^l (x) V*^m (x) V_*^*^n (x) W^p have a closed
form.  [V*] = [V_*] + [W_*] and [V_*^*] = [V] + [W] split the word; a thick
block of degree x gives f^lam copies of each lam of x boxes (Schur-Weyl), and
in the thin block V_*^r (x) V^s the factor (mu, nu) occurs
C(r,k) C(s,k) k! f^mu f^nu times with k = r - |mu| = s - |nu|, the dimension
of a walled Brauer simple (Benkart-Chakrabarti-Halverson-Leduc-Lee-Stroomer,
J. Algebra 166, 1994; Koike, Adv. Math. 74, 1989).  So (lam, mu, nu, pi)
occurs in J(l,m,n,p) exactly

    C(m,a) C(n,b) C(m-a,k) C(n-b,k) k! f^lam f^mu f^nu f^pi

times, with a = |lam| - l, b = |pi| - p and k = m - a - |mu| = n - b - |nu|;
``decompose_j`` and ``socle_of`` (the slice a = b = k = 0) fill their result
from it one (a, b, k) block at a time.  Each block's simple indices, and the
f^x of each slot degree, are built once per process and shared by every
result that holds the block; a request only multiplies the weights and zips
them onto the cached indices, with no index built per term.
``decompose_word`` walks a word box by box through ``tensor_simple``: it is
the only route for words with Q, F, S^kF or Lambda^kF, and on
``generator_word(q)`` the check of the closed form.

A request checks the degree cap once, before any work (``decompose_word``,
``decompose_j``, ``socle_of``, ``layers_of_i``); ``tensor_simple`` and
``tensor_decomposition`` take none.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable
from functools import cache
from math import comb, factorial
from operator import index as integer

from .combination import Combination
from .config import check_cap
from .diagrams import EMPTY, Partition, add_box, partitions, remove_box, standard_tableau_count
from .diagrams import parse_partition, read_fields
from .plethysm import cauchy_ext, cauchy_sym
from .poset import QuadIndex
from .symfunc import lr_coefficient, slot_product  # noqa: F401

# lr_coefficient is re-exported unused: perfbench/test_tracer.py checks that the
# tracer rebinds copies made by "from .symfunc import ..." through this name.


class SimpleIndex(namedtuple("SimpleIndex", "lam mu nu pi")):
    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.lam.degree + self.mu.degree + self.nu.degree + self.pi.degree

    @property
    def quad(self) -> QuadIndex:
        return QuadIndex(self.lam.degree, self.mu.degree, self.nu.degree, self.pi.degree)

    def is_thick(self) -> bool:
        return not self.mu and not self.nu

    def __str__(self) -> str:
        return ",".join(str(p) for p in self)


def parse_simple_index(text: str) -> SimpleIndex:
    """Read four partitions like ``[1],[],[],[1]``, split at the top-level commas."""
    return SimpleIndex(*read_fields(text, parse_partition, 4, "expected four partitions, got {got}"))


UNIT = SimpleIndex(EMPTY, EMPTY, EMPTY, EMPTY)


def thick_indices(pairs: Combination, mu: Partition = EMPTY, nu: Partition = EMPTY) -> Combination:
    """Put each (lam, pi) pair into the thick slots of the index (lam, mu, nu, pi)."""
    return Combination({SimpleIndex(lam, mu, nu, pi): mult for (lam, pi), mult in pairs.items()})


class Generator(namedtuple("Generator", "tag k", defaults=(0,))):
    """One of the tensoring objects; k is the power for the graded families."""

    __slots__ = ()

    TAGS = ("V*", "V**", "V", "V_*", "W", "W_*", "Q", "F", "SkF", "SkQ", "LkF")

    def __new__(cls, tag: str, k: int = 0):
        if tag not in cls.TAGS:
            raise ValueError(f"unknown generator tag {tag!r}")
        k = integer(k)
        if tag in ("SkF", "SkQ", "LkF") and k < 0:
            raise ValueError(f"generator {tag} needs a non-negative power, got {k}")
        return super().__new__(cls, tag, k)

    @property
    def degree(self) -> int:
        if self.tag in ("SkF", "SkQ", "LkF"):
            return 2 * self.k
        if self.tag in ("Q", "F"):
            return 2
        return 1


V_DUAL = Generator("V*")
V_STAR_DUAL = Generator("V**")
V_NAT = Generator("V")
V_LOWER = Generator("V_*")
W_GEN = Generator("W")
W_STAR = Generator("W_*")
Q_GEN = Generator("Q")
F_GEN = Generator("F")


def _moves_add(s: SimpleIndex, slot: int) -> list[SimpleIndex]:
    return [SimpleIndex(*s[:slot], q, *s[slot + 1 :]) for q in add_box(s[slot])]


def _moves_remove(s: SimpleIndex, slot: int) -> list[SimpleIndex]:
    return [SimpleIndex(*s[:slot], q, *s[slot + 1 :]) for q in remove_box(s[slot])]


def _tensor_f_power(s: SimpleIndex, tag: str, k: int) -> Combination:
    """LR products of the Cauchy pairs against the lam and pi slots."""
    pairs = cauchy_sym(k) if tag == "SkF" else cauchy_ext(k)
    return thick_indices(slot_product(Combination({(s.lam, s.pi): 1}), pairs), s.mu, s.nu)


def tensor_simple(s: SimpleIndex, g: Generator) -> Combination:
    """Composition factors, with multiplicity, of g tensored with the simple s."""
    if g.tag == "W_*":
        return Combination({idx: 1 for idx in _moves_add(s, 0)})
    if g.tag == "W":
        return Combination({idx: 1 for idx in _moves_add(s, 3)})
    if g.tag == "V_*":
        return Combination({idx: 1 for idx in _moves_add(s, 1) + _moves_remove(s, 2)})
    if g.tag == "V":
        return Combination({idx: 1 for idx in _moves_add(s, 2) + _moves_remove(s, 1)})
    if g.tag == "V*":
        return tensor_simple(s, V_LOWER) + tensor_simple(s, W_STAR)
    if g.tag == "V**":
        return tensor_simple(s, V_NAT) + tensor_simple(s, W_GEN)
    if g.tag == "F":
        return _tensor_f_power(s, "SkF", 1)
    if g.tag == "Q":
        return Combination({s: 1}) + _tensor_f_power(s, "SkF", 1)
    if g.tag in ("SkF", "LkF"):
        return _tensor_f_power(s, g.tag, g.k)
    if g.tag == "SkQ":
        out = {}
        for j in range(g.k + 1):
            for idx, mult in _tensor_f_power(s, "SkF", j).items():
                out[idx] = out.get(idx, 0) + mult
        return Combination(out)
    raise AssertionError(g.tag)


def tensor_decomposition(dec: Combination, g: Generator) -> Combination:
    out = {}
    for idx, mult in dec.items():
        for factor, c in tensor_simple(idx, g).items():
            out[factor] = out.get(factor, 0) + mult * c
    return Combination(out)


def generator_word(q: QuadIndex) -> list[Generator]:
    """The canonical tensor word for J: W_* factors, then V*, then V**, then W."""
    return (
        [W_STAR] * q.l + [V_DUAL] * q.m + [V_STAR_DUAL] * q.n + [W_GEN] * q.p
    )


def decompose_word(generators: Iterable[Generator], cap: int | None = None) -> Combination:
    """Tensor the unit by each generator in turn; refused up front when the word's
    degree passes the cap, as each generator adds its full degree to some term."""
    generators = list(generators)
    check_cap(sum(g.degree for g in generators), cap)
    dec = Combination({UNIT: 1})
    for g in generators:
        dec = tensor_decomposition(dec, g)
    return dec


@cache
def _block_keys(degrees: tuple[int, int, int, int]) -> tuple[SimpleIndex, ...]:
    """The simple indices of these slot degrees in itertools.product order, built once
    per process; the namedtuple's constructor is skipped, as the slots are partitions."""
    slots = itertools.product(*map(partitions, degrees))
    return tuple(map(tuple.__new__, itertools.repeat(SimpleIndex), slots))


@cache
def _tableau_counts(d: int) -> tuple[int, ...]:
    """f^x for each partition x of d, in the order of ``partitions(d)``."""
    return tuple(map(standard_tableau_count, partitions(d)))


def _fill_schur_weyl(terms: dict, degrees: tuple[int, int, int, int], weight: int) -> None:
    """Set each (lam, mu, nu, pi) of these slot degrees to weight * f^lam f^mu f^nu f^pi
    in terms, in the order of itertools.product over the four slots."""
    fl, fm, fn, fp = map(_tableau_counts, degrees)
    cells = [weight * a * b * c for a in fm for b in fn for c in fp]
    terms.update(zip(_block_keys(degrees), [x * cell for x in fl for cell in cells]))


def decompose_j(q: QuadIndex, cap: int | None = None) -> Combination:
    """Full composition-factor multiset of the tensor word indexed by q, in closed form.

    Distinct (a, b, k) give disjoint slot degrees, so each block of terms is
    new and is filled in whole.
    """
    check_cap(sum(q), cap)
    l, m, n, p = q
    terms: dict = {}
    for a in range(m + 1):
        for b in range(n + 1):
            for k in range(min(m - a, n - b) + 1):
                weight = comb(m, a) * comb(n, b) * comb(m - a, k) * comb(n - b, k) * factorial(k)
                _fill_schur_weyl(terms, (l + a, m - a - k, n - b - k, p + b), weight)
    return Combination(terms)


def socle_of(q: QuadIndex, cap: int | None = None) -> Combination:
    """The semisimple socle: the factors whose quadruple degree is exactly q."""
    check_cap(sum(q), cap)
    terms: dict = {}
    _fill_schur_weyl(terms, tuple(q), 1)
    return Combination(terms)


def layers_of_i(kmax: int, cap: int | None = None) -> list[Combination]:
    """Filtration layers of the injective hull of the unit: layer k is S^k F."""
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    check_cap(2 * kmax, cap)
    return [thick_indices(cauchy_sym(k)) for k in range(kmax + 1)]
