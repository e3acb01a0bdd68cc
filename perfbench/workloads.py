"""Seeded inputs, calls and correctness checks for the benchmark workloads.

Input generation is pure Python and never calls into tensorcat, so the
program's process-lifetime caches (``partitions``, the LR memo,
``_decompose_j_cached``, ``_hook_row_pairs``) are cold when the first timed
operation starts.  Each workload is a list of ``OpSpec`` values, sized from
the worker's ``--seconds`` so that one session takes about that long on a
2-vCPU machine at the commit that introduced the benchmark.  The seed only chooses among inputs of
similar cost (stratified sampling), so the medians of different seeds agree.

An op is bound to a zero-argument call in set-up; the call looks functions up
on their module at call time, so wrappers installed by ``tracer`` see it.
"""

from __future__ import annotations

import json
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import cache

OpSpec = namedtuple("OpSpec", "key kind args")

WORKLOADS = ("engine", "cli")

MIN_OPS = 100  # so that p90 has at least ten samples beyond it

# Dimensions for the dimension identities: d for the lam slot (W_*), c for the
# pi slot (W); the thin slots use nv = 2 * (number of V-type factors).  Every
# diagram of degree <= 10 fits in c and d rows, so no factor has dimension 0
# and a wrong multiplicity anywhere changes the total.
DIM_C, DIM_D = 10, 11


# ---------------------------------------------------------------------------
# input generation (no tensorcat calls)


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _quads(total: int):
    for l in range(total + 1):
        for m in range(total - l + 1):
            for n in range(total - l - m + 1):
                yield (l, m, n, total - l - m - n)


def _blocks(rng: random.Random, items, cost, fraction: float) -> list:
    """Sort items by estimated cost, cut them into round(fraction * len(items))
    blocks of nearly equal size and take one item from each.  Blocks go in
    pairs: rng picks a position in the first and the second takes the mirrored
    position, so that a cheap pick is offset by a dear one and the sample's cost
    varies little with the seed."""
    ordered = sorted(items, key=lambda item: (cost(item), item))
    count = min(len(ordered), max(1, round(fraction * len(ordered))))
    picks = []
    for b in range(count):
        block = ordered[b * len(ordered) // count : (b + 1) * len(ordered) // count]
        if b % 2 == 0:
            u = rng.random()
        at = int(u * len(block))
        picks.append(block[at if b % 2 == 0 else len(block) - 1 - at])
    return picks


@cache
def _hook_dim(p) -> int:
    """Number of standard tableaux of shape p (hook length formula)."""
    conj = [sum(1 for part in p if part > j) for j in range(p[0] if p else 0)]
    hooks = math.prod(p[i] - j + conj[j] - i - 1 for i in range(len(p)) for j in range(p[i]))
    return math.factorial(sum(p)) // hooks


@cache
def _partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for i in range(part, n + 1):
            ways[i] += ways[i - part]
    return ways[n]


@cache
def _word_terms(q) -> int:
    """Number of distinct composition factors of the tensor word J(q)."""
    l, m, n, p = q
    P = _partition_count
    return sum(
        P(l + a) * P(p + b) * sum(P(m - a - k) * P(n - b - k) for k in range(min(m - a, n - b) + 1))
        for a in range(m + 1)
        for b in range(n + 1)
    )


def _word_work(q) -> int:
    """Cost estimate of decompose_j(q): factors summed over every prefix of its word."""
    l, m, n, p = q
    prefixes = (
        [(i, 0, 0, 0) for i in range(1, l + 1)]
        + [(l, i, 0, 0) for i in range(1, m + 1)]
        + [(l, m, i, 0) for i in range(1, n + 1)]
        + [(l, m, n, i) for i in range(1, p + 1)]
    )
    return sum(map(_word_terms, prefixes))


def _fmt(p) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def _quad_text(q) -> str:
    return ",".join(str(x) for x in q)


# Approximate cost of each full pool at the benchmark's first commit, on a
# 2-vCPU machine at its usual speed (seconds); a run takes the share
# seconds / cost of it (all of it from that cost up).
WORDS_POOL_S = 22.0
ALGEBRA_POOL_S = 6.0
LR_PRODUCTS_PER_S = 146
CLI_CALLS_PER_S = 7
# Cost of the engine ops whose number does not follow the budget: the orbit
# ranks (about 0.5 s) and the ext layers and Euler shadows (about 0.9 s).
ENGINE_FIXED_S = 1.4


def words_ops(seed: int, seconds: float) -> list[OpSpec]:
    """decompose_j on quadruples of sum 8-10, spread evenly over their cost."""
    rng = random.Random(seed)
    pool = [q for total in (8, 9, 10) for q in _quads(total)]
    quads = _blocks(rng, pool, _word_work, min(1.0, seconds / WORDS_POOL_S))
    rng.shuffle(quads)
    return [OpSpec(f"decompose_j {_quad_text(q)}", "decompose_j", (q,)) for q in quads]


def _product_pairs(rng: random.Random, count: int) -> list[tuple]:
    """Distinct (mu, nu) pairs, degrees cycling through 10..20.  The pairs of
    one degree are spread over their cost, estimated by f^mu * f^nu (the
    numbers of standard tableaux), which follows a product's time within a
    degree (log correlation 0.57; the degree alone gives 0.94)."""
    parts = {n: list(_partitions(n)) for n in range(1, 21)}
    by_degree = {}
    for degree in range(10, 21):
        pool = [
            (mu, nu)
            for a in range(math.ceil(degree / 3), degree // 2 + 1)
            for mu in parts[a]
            for nu in parts[degree - a]
        ]
        wanted = len(range(degree - 10, count, 11))
        picks = _blocks(rng, pool, lambda pair: _hook_dim(pair[0]) * _hook_dim(pair[1]), wanted / len(pool))
        rng.shuffle(picks)
        by_degree[degree] = picks
    return [by_degree[10 + i % 11].pop() for i in range(count)]


def lr_ops(seed: int, seconds: float) -> list[OpSpec]:
    """Schur products (a quarter repeat), ext layers and tables, power words."""
    rng = random.Random(seed)
    n_products = max(40, round(seconds * LR_PRODUCTS_PER_S))
    n_repeats = n_products // 4
    products = _product_pairs(rng, n_products - n_repeats)
    for _ in range(n_repeats):  # a repeat always follows its first occurrence
        source = rng.randrange(len(products))
        products.insert(rng.randint(source + 1, len(products)), products[source])
    ops = [
        OpSpec(f"schur_term_product {_fmt(mu)} {_fmt(nu)}", "schur_term_product", (mu, nu))
        for mu, nu in products
    ]

    extra = []
    layers = [(j, k) for j in range(1, 9) for k in range(0, 9 - j)]
    rng.shuffle(layers)
    for j, k in layers:
        extra.append([
            OpSpec(f"kernel_layer {j} {k}", "kernel_layer", (j, k)),
            OpSpec(f"image_layer {j} {k}", "image_layer", (j, k)),
        ])
    for d in range(1, 9):
        extra.append([OpSpec(f"euler_shadow {d}", "euler_shadow", (d,))])
    targets = [
        (q, alpha, beta)
        for q in (1, 2, 3)
        for a in range(0, 4 - q + 1)
        for alpha in _partitions(a)
        for b in range(0, 4 - q + 1)
        for beta in _partitions(b)
    ]
    for q, alpha, beta in rng.sample(targets, 12):
        tag = f"{q} {_fmt(alpha)} {_fmt(beta)}"
        extra.append([
            OpSpec(f"thick_target_socle {tag}", "thick_target_socle", (q, alpha, beta)),
            OpSpec(f"ext_to_thick_table {tag}", "ext_to_thick_table", (q, alpha, beta)),
        ])
    for word in _power_words(rng, 12):
        extra.append([OpSpec(f"decompose_word {' '.join(map(_gen_text, word))}", "decompose_word", (word,))])

    # interleave the non-product groups at seeded positions
    for group in extra:
        at = rng.randint(0, len(ops))
        ops[at:at] = group
    return ops


_THIN = ("V*", "V**")
_PLAIN = ("W", "W_*") + _THIN


def _gen_text(g) -> str:
    tag, k = g
    return f"{tag}{k}" if tag in ("SkF", "LkF", "SkQ") else tag


def _gen_degree(g) -> int:
    tag, k = g
    if tag in ("SkF", "LkF", "SkQ"):
        return 2 * k
    return 2 if tag in ("Q", "F") else 1


def _power_words(rng: random.Random, count: int) -> list[tuple]:
    """Words of degree 6-9 with at least one SkF, LkF or Q factor."""
    powers = [("SkF", 2), ("SkF", 3), ("LkF", 2), ("LkF", 3), ("Q", 0), ("F", 0), ("SkQ", 2)]
    words = []
    while len(words) < count:
        word = [rng.choice(powers[:5])]
        while sum(map(_gen_degree, word)) < 6:
            word.append(rng.choice(powers + [(t, 0) for t in _PLAIN]))
        if sum(map(_gen_degree, word)) <= 9:
            rng.shuffle(word)
            words.append(tuple(word))
    return words


_ORBIT_MOVES = {
    "contract,contract": ("contract", "contract"),
    "left,left": ("left", "left"),
    "right,right": ("right", "right"),
    "contract,left": ("contract", "left"),
    "contract,right": ("contract", "right"),
    "left,right": ("left", "right"),
}
_MIRROR_KIND = {
    "contract,contract": "contract,contract",
    "left,left": "right,right",
    "right,right": "left,left",
    "contract,left": "contract,right",
    "contract,right": "contract,left",
    "left,right": "left,right",
}
# The sum-4 orbit ranks that take 5-8 s (the first mirror pair) or 0.9-1.6 s
# each (the other two pairs); all other ranks take at most 0.13 s.  They are
# left out: together they would take a third of a session, and one long op can
# outlast the machine speed that the probe before it saw (see run.py).
_ORBIT_SKIP = {
    ((0, 0, 2, 2), "right,right"), ((2, 2, 0, 0), "left,left"),
    ((0, 4, 0, 0), "left,left"), ((0, 0, 4, 0), "right,right"),
    ((1, 3, 0, 0), "left,left"), ((0, 0, 3, 1), "right,right"),
}


def _orbit_applies(q, kind) -> bool:
    l, m, n, p = q
    moves = _ORBIT_MOVES[kind]
    k_c, k_l, k_r = moves.count("contract"), moves.count("left"), moves.count("right")
    return m >= k_c + k_l and n >= k_c + k_r


def _mirror(orbit):
    (l, m, n, p), kind = orbit
    return (p, n, m, l), _MIRROR_KIND[kind]


def _group_order(q) -> int:
    return math.prod(math.factorial(x) for x in q)


def _symmetrizer_support(lam) -> int:
    """Support of the Young symmetrizer: |row group| * |column group|."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
    return math.prod(map(math.factorial, lam)) * math.prod(map(math.factorial, conj))


def _corner_work(pair) -> int:
    """|group| * support(corner)^2: the pairs multiplied in the sandwiches."""
    lam, pi = pair
    return _group_order((sum(lam), sum(pi))) * (_symmetrizer_support(lam) * _symmetrizer_support(pi)) ** 2


def algebra_ops(seed: int, seconds: float) -> list[OpSpec]:
    """Group-algebra ranks: quadratic kernels, symmetrizers, corners, orbit ranks."""
    rng = random.Random(seed)
    fraction = min(1.0, seconds / ALGEBRA_POOL_S)
    quads = [
        q
        for total in range(4, 11)
        for q in _quads(total)
        if q[1] >= 2 and q[2] >= 2 and _group_order(q) <= 216
    ]
    ops = [
        OpSpec(f"quadratic_kernel_check {_quad_text(q)}", "quadratic_kernel_check", (q,))
        for q in _blocks(rng, quads, _group_order, fraction)
    ]
    # one op per n: a single symmetrizer of n <= 4 takes well under 1 ms
    ops += [OpSpec(f"young_symmetrizers {n}", "young_symmetrizers", (n,)) for n in range(1, 7)]
    corners = [
        (lam, pi)
        for a in range(1, 5)
        for b in range(0, 4)
        if 3 <= a + b <= 5
        for lam in _partitions(a)
        for pi in _partitions(b)
    ]
    corners = _blocks(rng, corners, _corner_work, fraction)
    ops += [
        OpSpec(f"corner_algebra_dimension {_fmt(lam)} {_fmt(pi)}", "corner_algebra_dimension", (lam, pi))
        for lam, pi in corners
    ]
    # one orbit rank from each mirror pair (a pair costs about the same)
    classes: dict = {}
    for q in _quads(4):
        for kind in _ORBIT_MOVES:
            orbit = (q, kind)
            if _orbit_applies(q, kind) and orbit not in _ORBIT_SKIP:
                classes.setdefault(min(orbit, _mirror(orbit)), set()).add(orbit)
    ops += [
        OpSpec(f"composite_orbit_rank {_quad_text(q)} {kind}", "composite_orbit_rank", (q, kind))
        for q, kind in (rng.choice(sorted(classes[key])) for key in sorted(classes))
    ]
    rng.shuffle(ops)
    return ops


# LR queries reused across the cli session, so the disk cache is read back.
_CLI_LR = [
    ("[3,2,1]", "[2,1]", "[2,1]"),
    ("[4,3,2]", "[3,1]", "[3,2]"),
    ("[4,2,1,1]", "[2,1,1]", "[2,2]"),
    ("[5,3,2]", "[3,2]", "[3,2]"),
    ("[3,3,2,1]", "[2,2,1]", "[2,1,1]"),
    ("[4,4,2]", "[3,2]", "[3,2]"),
]


def _cli_command(kind: str, rng: random.Random) -> list[str]:
    parts = {n: list(_partitions(n)) for n in range(0, 7)}
    if kind == "lr":
        return ["lr", *rng.choice(_CLI_LR)]
    if kind == "product":
        return ["product", _fmt(rng.choice(parts[rng.randint(3, 6)])), _fmt(rng.choice(parts[rng.randint(3, 6)]))]
    if kind in ("decompose", "socle"):
        return [kind, _quad_text(rng.choice([q for t in (4, 5, 6) for q in _quads(t)]))]
    if kind == "kernel-layer":
        j = rng.randint(1, 4)
        return ["kernel-layer", str(j), str(rng.randint(0, 6 - j))]
    if kind == "ext-thick":
        q = rng.randint(1, 2)
        alpha, beta = rng.choice(parts[rng.randint(0, 2)]), rng.choice(parts[rng.randint(0, 2)])
        lam, pi = rng.choice(parts[sum(alpha) + q]), rng.choice(parts[sum(beta) + q])
        return ["ext-thick", f"{_fmt(lam)},[],[],{_fmt(pi)}", _fmt(alpha), _fmt(beta), "--degree", str(q)]
    if kind == "chains":
        k = rng.randint(2, 3)
        return ["chains", f"{k},0,0,{k}", f"0,{k},{k},0"]
    if kind == "covers":
        return ["covers", _quad_text(rng.choice(list(_quads(4)))), "--bound", str(rng.randint(3, 5))]
    if kind == "plethysm":
        family = rng.choice(["cauchy-sym", "cauchy-ext", "sym-sym2", "ext-sym2", "sym-ext2", "ext-ext2"])
        return ["plethysm", family, str(rng.randint(2, 5))]
    if kind == "osp":
        sub = rng.choice(["layers", "ext-trivial", "conjugate", "defect"])
        kind_arg = ["osp", "--kind", rng.choice(["o", "sp"])]
        if sub == "layers":
            return kind_arg + ["layers", str(rng.randint(2, 5))]
        if sub == "defect":
            return kind_arg + ["defect", f"{rng.randint(0, 3)},{rng.randint(0, 3)}", f"{rng.randint(0, 3)},{rng.randint(0, 3)}"]
        lam, mu = _fmt(rng.choice(parts[rng.randint(1, 3)])), _fmt(rng.choice(parts[rng.randint(0, 2)]))
        if sub == "ext-trivial":
            return kind_arg + ["ext-trivial", lam, mu, "--degree", str(rng.randint(0, 3))]
        return kind_arg + ["conjugate", lam, mu]
    if kind == "quadkernel":
        quads = [q for t in (4, 5, 6, 7, 8) for q in _quads(t) if q[1] >= 2 and q[2] >= 2 and _group_order(q) <= 48]
        return ["quadkernel", _quad_text(rng.choice(quads)), "--check"]
    raise ValueError(kind)


CLI_KINDS = (
    "lr", "product", "decompose", "socle", "kernel-layer", "ext-thick",
    "chains", "covers", "plethysm", "osp", "quadkernel",
)


def cli_ops(seed: int, seconds: float) -> list[OpSpec]:
    """A session of tensorcat invocations; half ask for JSON, one is --verify."""
    rng = random.Random(seed)
    n_calls = max(MIN_OPS, round(seconds * CLI_CALLS_PER_S))
    calls = []
    for i in range(n_calls - 1):  # each command kind alternates text and JSON
        argv = _cli_command(CLI_KINDS[i % len(CLI_KINDS)], rng)
        calls.append(["--output", "json"] + argv if (i // len(CLI_KINDS)) % 2 else argv)
    rng.shuffle(calls)
    calls.insert(rng.randint(len(calls) // 4, len(calls)), ["--verify"])
    return [OpSpec("tensorcat " + " ".join(argv), "cli", tuple(argv)) for argv in calls]


def engine_ops(seed: int, seconds: float) -> list[OpSpec]:
    """The words, lr and algebra op lists, a third each of the budget left
    after the fixed ops, merged in a seeded order that keeps each list's own
    order."""
    rng = random.Random(seed)
    share = max(0.5, (seconds - ENGINE_FIXED_S) / 3)
    lists = [make(rng.randrange(2**32), share) for make in (words_ops, lr_ops, algebra_ops)]
    ops = []
    while any(lists):
        pick = rng.choices(lists, weights=[len(part) for part in lists])[0]
        ops.append(pick.pop(0))
    return ops


GENERATORS = {"engine": engine_ops, "cli": cli_ops}


def generate(workload: str, seed: int, seconds: float) -> list[OpSpec]:
    return GENERATORS[workload](seed, seconds)


# ---------------------------------------------------------------------------
# binding: turn an OpSpec into a zero-argument call on the program


def bind(spec: OpSpec, tc):
    """Convert inputs to program types now; return the call to time."""
    kind, args = spec.kind, spec.args
    gr, symfunc, ext, symalg, oracle = tc.grothendieck, tc.symfunc, tc.ext, tc.symalg, tc.oracle
    P = tc.diagrams.Partition
    if kind == "decompose_j":
        q = tc.poset.QuadIndex(*args[0])
        cap = sum(q)
        return lambda: gr.decompose_j(q, cap)
    if kind == "schur_term_product":
        mu, nu = P(args[0]), P(args[1])
        return lambda: symfunc.schur_term_product(mu, nu, 20)
    if kind == "kernel_layer":
        j, k = args
        return lambda: ext.kernel_layer(j, k, 16)
    if kind == "image_layer":
        j, k = args
        return lambda: ext.image_layer(j, k, 16)
    if kind == "euler_shadow":
        d = args[0]
        return lambda: ext.euler_shadow(d)
    if kind == "thick_target_socle":
        q, alpha, beta = args[0], P(args[1]), P(args[2])
        return lambda: ext.thick_target_socle(q, alpha, beta)
    if kind == "ext_to_thick_table":
        q, alpha, beta = args[0], P(args[1]), P(args[2])
        xs = [
            gr.SimpleIndex(P(lam), P(()), P(()), P(pi))
            for lam in _partitions(sum(alpha) + q)
            for pi in _partitions(sum(beta) + q)
        ]
        return lambda: [ext.ext_to_thick(x, (alpha, beta), q) for x in xs]
    if kind == "decompose_word":
        word = [gr.Generator(tag, k) for tag, k in args[0]]
        return lambda: gr.decompose_word(word, 20)
    if kind == "quadratic_kernel_check":
        q = tc.poset.QuadIndex(*args[0])
        return lambda: symalg.quadratic_kernel_check(q, 10)
    if kind == "young_symmetrizers":
        lams = [P(lam) for lam in _partitions(args[0])]
        return lambda: [symalg.young_symmetrizer(lam) for lam in lams]
    if kind == "corner_algebra_dimension":
        lam, pi = P(args[0]), P(args[1])
        return lambda: symalg.corner_algebra_dimension(lam, pi)
    if kind == "composite_orbit_rank":
        q, moves = args[0], _ORBIT_MOVES[args[1]]
        return lambda: oracle.composite_orbit_rank(*q, moves=moves)
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# canonical outputs and digests


def normalize(value):
    """A JSON-ready form of a result that does not depend on program types."""
    if hasattr(value, "coeffs"):  # group-algebra element
        value = dict(value.coeffs)
    elif hasattr(value, "terms"):  # Decomposition, SymFunc
        value = dict(value.terms)
    if isinstance(value, dict):
        items = [[normalize(k), normalize(v)] for k, v in value.items()]
        return sorted(items, key=lambda kv: json.dumps(kv[0]))
    if isinstance(value, (tuple, list)):
        return [normalize(x) for x in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    raise TypeError(f"cannot normalize {type(value).__name__}")


def canonical(value) -> str:
    return json.dumps(normalize(value), separators=(",", ":"))


# ---------------------------------------------------------------------------
# independent invariants, run after the timed phase


class Checker:
    """Checks each op result against an invariant computed another way."""

    def __init__(self, tc):
        self.tc = tc
        self._gl: dict = {}
        self._rdim: dict = {}

    def gl(self, p, n: int) -> int:
        key = (tuple(p), n)
        if key not in self._gl:
            self._gl[key] = self.tc.diagrams.gl_dimension(self.tc.diagrams.Partition(p), n)
        return self._gl[key]

    def rdim(self, mu, nu, n: int) -> int:
        key = (tuple(mu), tuple(nu), n)
        if key not in self._rdim:
            P = self.tc.diagrams.Partition
            self._rdim[key] = self.tc.oracle.rational_dimension(P(mu), P(nu), n)
        return self._rdim[key]

    def word_dimension(self, result, nv: int) -> int:
        """Total dimension of a Grothendieck-group decomposition."""
        return sum(
            mult * self.gl(lam, DIM_D) * self.rdim(mu, nu, nv) * self.gl(pi, DIM_C)
            for (lam, mu, nu, pi), mult in dict(result.terms).items()
        )

    def check(self, spec: OpSpec, result, results: dict) -> bool:
        kind, args = spec.kind, spec.args
        if kind == "decompose_j":
            l, m, n, p = args[0]
            nv = max(1, 2 * (m + n))
            expected = DIM_D**l * (nv + DIM_D) ** m * (nv + DIM_C) ** n * DIM_C**p
            return self.word_dimension(result, nv) == expected
        if kind == "decompose_word":
            word = args[0]
            nv = max(1, 2 * sum(1 for tag, _ in word if tag in _THIN))
            return self.word_dimension(result, nv) == math.prod(_gen_dim(g, nv) for g in word)
        if kind == "schur_term_product":  # sum c * dim(lam) = dim(mu) * dim(nu)
            mu, nu = args
            n = sum(mu) + sum(nu)  # GL(n) sees every diagram of the product
            total = sum(c * self.gl(lam, n) for lam, c in dict(result.terms).items())
            degrees_ok = all(sum(lam) == sum(mu) + sum(nu) for lam in result.terms)
            return degrees_ok and total == self.gl(mu, n) * self.gl(nu, n)
        if kind == "kernel_layer":  # compared with the image layer below
            return bool(dict(result.terms))
        if kind == "image_layer":
            j, k = args
            kernel = results.get(f"kernel_layer {j} {k}")
            return kernel is not None and canonical(kernel) == canonical(result)
        if kind == "euler_shadow":
            return not dict(result)
        if kind == "thick_target_socle":
            return all(mult > 0 for mult in dict(result.terms).values())
        if kind == "ext_to_thick_table":
            q, alpha, beta = args
            socle = results.get(f"thick_target_socle {q} {_fmt(alpha)} {_fmt(beta)}")
            if socle is None:
                return False
            table = {
                (lam, pi): value
                for (lam, pi), value in zip(
                    ((lam, pi) for lam in _partitions(sum(alpha) + q) for pi in _partitions(sum(beta) + q)),
                    result,
                )
                if value
            }
            expected = {(tuple(idx[0]), tuple(idx[3])): mult for idx, mult in dict(socle.terms).items()}
            return table == expected
        if kind == "quadratic_kernel_check":
            return result is True
        if kind == "young_symmetrizers":  # row group x column group, coefficients +-1
            return len(result) == len(list(_partitions(args[0]))) and all(
                len(c.coeffs) == _symmetrizer_support(lam) and all(abs(v) == 1 for v in dict(c.coeffs).values())
                for lam, c in zip(_partitions(args[0]), result)
            )
        if kind == "corner_algebra_dimension":
            return result == 1
        if kind == "composite_orbit_rank":
            q, kind_name = args
            # rank is half the domain dimension at every quadruple of sum <= 4
            return result == self.tc.symalg.composition_domain_dimension(kind_name, self.tc.poset.QuadIndex(*q)) // 2
        raise ValueError(f"unknown op kind {kind!r}")


def _gen_dim(g, nv: int) -> int:
    tag, k = g
    f = DIM_C * DIM_D
    return {
        "W_*": DIM_D,
        "W": DIM_C,
        "V*": nv + DIM_D,
        "V**": nv + DIM_C,
        "F": f,
        "Q": 1 + f,
        "SkF": math.comb(f + k - 1, k),
        "LkF": math.comb(f, k),
        "SkQ": sum(math.comb(f + j - 1, j) for j in range(k + 1)),
    }[tag]
