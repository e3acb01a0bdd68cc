"""Command-line front end.

Every engine operation is exposed as a subcommand with canonical, byte-stable
output; results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 user error, 2 refusal by the degree cap, the group guard or a fixed limit.
``--output json`` emits one JSON document per invocation, validating against
schema/output.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import ext as ext_mod
from . import grothendieck as gr
from . import ospcat, plethysm, poset, symalg, symfunc
from .combination import Combination, index_key, index_label
from .config import check_cap, resolve_config
from .diagrams import Partition, gl_dimension, parse_naturals, parse_partition, partitions
from .errors import DegreeCapExceeded, GuardExceeded, LimitExceeded, ParseError, TensorcatError
from .grothendieck import SimpleIndex
from .poset import QuadIndex, parse_quad


def parse_simple_index(text: str) -> SimpleIndex:
    """Parse four partitions like ``[1],[],[],[1]`` (top-level commas split).

    A bad partition raises ParseError at its position in the whole text.
    """
    pieces = []  # (offset in text, piece)
    depth = 0
    start = 0
    for pos, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(text, pos, "unbalanced ']'")
        elif ch == "," and depth == 0:
            pieces.append((start, text[start:pos]))
            start = pos + 1
    pieces.append((start, text[start:]))
    if depth != 0:
        raise ParseError(text, len(text) - 1, "unbalanced '['")
    if len(pieces) != 4:
        raise ParseError(text, 0, f"expected four partitions, got {len(pieces)}")
    parts = []
    for offset, piece in pieces:
        try:
            parts.append(parse_partition(piece))
        except ParseError as exc:
            raise ParseError(text, offset + exc.pos, exc.message) from exc
    return SimpleIndex(*parts)


# ---------------------------------------------------------------------------
# rendering


def terms_output(terms: Combination) -> tuple[list[str], list[dict]]:
    """Text lines and JSON objects of a combination, one per term, in canonical order.

    A JSON term names its index kind: ``partition``, ``pair`` or ``index``.
    """
    ordered = sorted(terms.items(), key=lambda kv: index_key(kv[0]))
    lines = [f"{mult} {index_label(idx)}" for idx, mult in ordered] or ["0"]
    payload = []
    for idx, mult in ordered:
        if isinstance(idx, Partition):
            payload.append({"partition": list(idx), "mult": mult})
        else:
            field = "index" if isinstance(idx, SimpleIndex) else "pair"
            payload.append({field: [list(p) for p in idx], "mult": mult})
    return lines, payload


def layers_output(layers: list[Combination]) -> tuple[list[str], list[dict]]:
    lines, payload = [], []
    for k, terms in enumerate(layers):
        text, items = terms_output(terms)
        lines.append(f"layer {k}:")
        lines.extend("  " + line for line in text)
        payload.append({"k": k, "terms": items})
    return lines, payload


# ---------------------------------------------------------------------------
# verify mode: small oracle cross-checks of every engine family


def run_verify() -> tuple[list[tuple[str, bool]], bool]:
    from . import oracle

    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, bool(ok)))

    product = symfunc.schur_product(symfunc.schur([2, 1]), symfunc.schur([1, 1]))
    brute = oracle.decompose_into_schur(
        oracle.expand_schur(Partition([2, 1]), 5) * oracle.expand_schur(Partition([1, 1]), 5)
    )
    check("schur product vs monomial expansion", product == brute)

    agree = True
    families = (
        ("sym", "sym2", plethysm.power_of_sym2, plethysm.SYMMETRIC),
        ("ext", "sym2", plethysm.power_of_sym2, plethysm.EXTERIOR),
        ("sym", "ext2", plethysm.power_of_ext2, plethysm.SYMMETRIC),
        ("ext", "ext2", plethysm.power_of_ext2, plethysm.EXTERIOR),
    )
    for outer, inner, fn, kind in families:
        for k in range(4):
            engine = {p: m for p, m in fn(k, kind).items() if len(p) <= 4}
            agree &= engine == oracle.brute_force_plethysm(outer, k, inner, 4).terms
    check("square powers vs brute-force plethysm", agree)

    agree = True
    for k in range(4):
        engine_pairs = {
            key: m for key, m in plethysm.cauchy_ext(k).items() if len(key[0]) <= 3 and len(key[1]) <= 3
        }
        agree &= engine_pairs == oracle.brute_force_cauchy("ext", k, 3, 3)
    check("cauchy pairs vs brute-force powers", agree)

    agree = True
    for total in range(4):
        for l in range(total + 1):
            for m in range(total - l + 1):
                for n in range(total - l - m + 1):
                    p = total - l - m - n
                    q = QuadIndex(l, m, n, p)
                    engine = dict(gr.decompose_j(q).terms)
                    agree &= engine == oracle.reconstruct_tensor_word(l, m, n, p)
    check("tensor words vs character reconstruction", agree)

    agree = True
    box = [QuadIndex(*t) for t in itertools.product(range(3), repeat=4)]
    for a in box:
        for b in box:
            d = poset.defect(a, b)
            chains = poset.chains(a, b)
            if d is None:
                agree &= not chains
            else:
                agree &= bool(chains) and {len(c) - 1 for c in chains} == {d}
    check("defect vs exhaustive chains", agree)

    agree = True
    for n in range(5):
        for lam in partitions(n):
            c = symalg.young_symmetrizer(lam)
            agree &= c * c == c.scale(symalg.young_scalar(lam))
    check("young symmetrizer scalars", agree)

    agree = True
    for n in range(5):
        for lam in partitions(n):
            for nv in range(1, 5):
                agree &= gl_dimension(lam, nv) == oracle.expand_schur(lam, nv).coefficient_sum()
    check("hook-content dimensions vs tableau counts", agree)

    ok = all(flag for _, flag in checks)
    return checks, ok


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (args, cfg) and returns (text lines, json payload)


def scalar_output(value) -> tuple[list[str], object]:
    """One-line result: a number, ``true``/``false``, or ``undefined`` for None."""
    if isinstance(value, bool):
        return ["true" if value else "false"], value
    return [str(value) if value is not None else "undefined"], value


def cmd_lr(args, cfg):
    lam, mu, nu = parse_partition(args.lam), parse_partition(args.mu), parse_partition(args.nu)
    check_cap(lam.degree, cfg.degree_cap)
    return scalar_output(symfunc.lr_coefficient(lam, mu, nu))


def cmd_product(args, cfg):
    mu, nu = parse_partition(args.mu), parse_partition(args.nu)
    return terms_output(symfunc.schur_term_product(mu, nu, cfg.degree_cap))


def cmd_plethysm(args, cfg):
    family = args.family
    if family in ("cauchy-sym", "cauchy-ext"):
        fn = plethysm.cauchy_sym if family == "cauchy-sym" else plethysm.cauchy_ext
        return terms_output(fn(args.k, cfg.degree_cap))
    kind = plethysm.SYMMETRIC if family.startswith("sym-") else plethysm.EXTERIOR
    inner = plethysm.power_of_sym2 if family.endswith("sym2") else plethysm.power_of_ext2
    return terms_output(inner(args.k, kind, cfg.degree_cap))


def cmd_decompose(args, cfg):
    return terms_output(gr.decompose_j(parse_quad(args.quad), cfg.degree_cap))


def cmd_socle(args, cfg):
    return terms_output(gr.socle_of(parse_quad(args.quad), cfg.degree_cap))


def cmd_layers(args, cfg):
    return layers_output(gr.layers_of_i(args.kmax, cfg.degree_cap))


def cmd_defect(args, cfg):
    return scalar_output(poset.defect(parse_quad(args.a), parse_quad(args.b)))


CHAIN_LIMIT = 100_000


def cmd_chains(args, cfg):
    a, b = parse_quad(args.a), parse_quad(args.b)
    check_cap(poset.defect(a, b) or 0, cfg.degree_cap, what="chain length")
    count = poset.chain_count(a, b)
    if count > CHAIN_LIMIT:
        raise LimitExceeded(count, CHAIN_LIMIT, "saturated chains")
    found = poset.chains(a, b)
    lines = [" -> ".join(str(q) for q in chain) for chain in found] or ["(none)"]
    return lines, [[list(q) for q in chain] for chain in found]


def cmd_covers(args, cfg):
    found = poset.covers(parse_quad(args.a), args.bound)
    return [str(q) for q in found] or ["(none)"], [list(q) for q in found]


def cmd_ext_trivial(args, cfg):
    x = parse_simple_index(args.index)
    check_cap(x.degree, cfg.degree_cap)
    return scalar_output(ext_mod.ext_to_trivial(x, args.degree))


def cmd_ext_thick(args, cfg):
    x = parse_simple_index(args.index)
    target = (parse_partition(args.alpha), parse_partition(args.beta))
    check_cap(args.degree, cfg.degree_cap)
    return scalar_output(ext_mod.ext_to_thick(x, target, args.degree))


def cmd_ext_vanishes(args, cfg):
    s, t = parse_simple_index(args.source), parse_simple_index(args.target)
    return scalar_output(ext_mod.ext_vanishes(s, t, args.degree))


def cmd_resolution(args, cfg):
    term = ext_mod.resolution_term(args.j, cfg.degree_cap)
    lines, socle = terms_output(term.socle)
    return [f"body: {term.body}"] + lines, {"j": term.j, "body": term.body, "socle": socle}


def cmd_kernel_layer(args, cfg):
    return terms_output(ext_mod.kernel_layer(args.j, args.k, cfg.degree_cap))


HOM_MOVES = {"end": (), "contract": ("contract",), "shift-left": ("left",), "shift-right": ("right",)}


def cmd_homdim(args, cfg):
    q = parse_quad(args.quad)
    check_cap(sum(q), cfg.degree_cap)
    return scalar_output(symalg.move_word_dimension(q, HOM_MOVES[args.flavor]))


def cmd_quadkernel(args, cfg):
    q = parse_quad(args.quad)
    check_cap(sum(q), cfg.degree_cap)
    dim = symalg.quadratic_kernel_dim(q)
    if not args.check:
        return scalar_output(dim)
    verified = symalg.quadratic_kernel_check(q, cfg.group_guard)
    return [str(dim), "check: ok" if verified else "check: FAIL"], {"dim": dim, "check": verified}


def _parse_osp_pair(text: str) -> ospcat.PairIndex:
    if text.count(",") != 1:
        raise ParseError(text, 0, "expected two comma-separated entries")
    return ospcat.PairIndex(*parse_naturals(text, text, 0, "entry"))


def cmd_osp_leq(args, cfg):
    return scalar_output(ospcat.osp_leq(_parse_osp_pair(args.a), _parse_osp_pair(args.b)))


def cmd_osp_defect(args, cfg):
    return scalar_output(ospcat.osp_defect(_parse_osp_pair(args.a), _parse_osp_pair(args.b)))


def cmd_osp_layers(args, cfg):
    return layers_output(ospcat.osp_layers_of_i(args.kind, args.kmax, cfg.degree_cap))


def cmd_osp_ext_trivial(args, cfg):
    x = ospcat.osp_index(args.kind, parse_partition(args.lam), parse_partition(args.mu))
    check_cap(x.degree, cfg.degree_cap)
    return scalar_output(ospcat.osp_ext_to_trivial(args.kind, x, args.degree))


def cmd_osp_conjugate(args, cfg):
    x = ospcat.osp_index(args.kind, parse_partition(args.lam), parse_partition(args.mu))
    check_cap(x.degree, cfg.degree_cap)
    image = ospcat.osp_conjugate(x)
    payload = {"kind": image.kind, "lam": list(image.lam), "mu": list(image.mu)}
    return [f"{image.kind} {image.lam},{image.mu}"], payload


class VerifyFailure(Exception):
    """A failed cross-check; its args are the report's (text lines, json payload)."""


def cmd_verify(args, cfg):
    checks, ok = run_verify()
    lines = [f"check {name}: {'ok' if flag else 'FAIL'}" for name, flag in checks]
    payload = {"checks": [{"name": n, "ok": f} for n, f in checks], "ok": ok}
    if not ok:
        raise VerifyFailure(lines, payload)
    return lines, payload


# ---------------------------------------------------------------------------
# argument parsing


class Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on user error, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def add_command(subparsers, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """Declare one subcommand and the handler that ``execute`` runs for it."""
    command = subparsers.add_parser(name, **kwargs)
    command.set_defaults(handler=handler)
    return command


def build_parser() -> Parser:
    parser = Parser(
        prog="tensorcat",
        description="Exact tensor-category calculator: decompositions, posets, Ext dimensions.",
        epilog=(
            "Configuration precedence: flag > environment > config file > default. "
            "Environment variables: TENSORCAT_DEGREE_CAP, TENSORCAT_GROUP_GUARD, "
            "TENSORCAT_CONFIG."
        ),
    )
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--degree-cap", type=int, default=None, help="refuse work above this degree (default 12)")
    parser.add_argument("--group-guard", type=int, default=None, help="explicit group-algebra size limit (default 8)")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--verify", action="store_true", help="re-run oracle cross-checks and exit")

    sub = parser.add_subparsers(dest="command")

    lr = add_command(sub, "lr", cmd_lr, help="Littlewood-Richardson coefficient")
    lr.add_argument("lam")
    lr.add_argument("mu")
    lr.add_argument("nu")

    product = add_command(sub, "product", cmd_product, help="Schur-basis product of two Schur functions")
    product.add_argument("mu")
    product.add_argument("nu")

    plet = add_command(sub, "plethysm", cmd_plethysm, help="closed-form power decompositions")
    plet.add_argument(
        "family",
        choices=("cauchy-sym", "cauchy-ext", "sym-sym2", "ext-sym2", "sym-ext2", "ext-ext2"),
    )
    plet.add_argument("k", type=int)

    decompose = add_command(sub, "decompose", cmd_decompose, help="composition factors of a tensor word")
    decompose.add_argument("quad")

    socle = add_command(sub, "socle", cmd_socle, help="socle of the tensor word at a quadruple")
    socle.add_argument("quad")

    layers = add_command(sub, "layers", cmd_layers, help="filtration layers of the injective hull of the unit")
    layers.add_argument("kmax", type=int)

    defect = add_command(sub, "defect", cmd_defect, help="defect between two quadruples")
    defect.add_argument("a")
    defect.add_argument("b")

    chains = add_command(sub, "chains", cmd_chains, help="all saturated chains between two quadruples")
    chains.add_argument("a")
    chains.add_argument("b")

    covers = add_command(sub, "covers", cmd_covers, help="immediate successors within a bound")
    covers.add_argument("a")
    covers.add_argument("--bound", type=int, required=True)

    ext_trivial = add_command(sub, "ext-trivial", cmd_ext_trivial, help="Ext dimension into the unit object")
    ext_trivial.add_argument("index")
    ext_trivial.add_argument("--degree", type=int, required=True)

    ext_thick = add_command(sub, "ext-thick", cmd_ext_thick, help="Ext dimension into a purely thick simple")
    ext_thick.add_argument("index")
    ext_thick.add_argument("alpha")
    ext_thick.add_argument("beta")
    ext_thick.add_argument("--degree", type=int, required=True)

    ext_vanishes = add_command(sub, "ext-vanishes", cmd_ext_vanishes, help="guaranteed-vanishing test between simples")
    ext_vanishes.add_argument("source")
    ext_vanishes.add_argument("target")
    ext_vanishes.add_argument("--degree", type=int, required=True)

    resolution = add_command(sub, "resolution", cmd_resolution, help="resolution term and its socle")
    resolution.add_argument("j", type=int)

    kernel = add_command(sub, "kernel-layer", cmd_kernel_layer, help="filtration layer of a resolution kernel")
    kernel.add_argument("j", type=int)
    kernel.add_argument("k", type=int)

    homdim = add_command(sub, "homdim", cmd_homdim, help="endomorphism / degree-one Hom dimensions")
    homdim.add_argument("quad")
    homdim.add_argument("flavor", choices=("end", "contract", "shift-left", "shift-right"))

    quadkernel = add_command(sub, "quadkernel", cmd_quadkernel, help="quadratic-relation kernel dimension")
    quadkernel.add_argument("quad")
    quadkernel.add_argument("--check", action="store_true", help="also row-reduce the explicit right ideal")

    osp = sub.add_parser("osp", help="orthogonal/symplectic variant")
    osp.add_argument("--kind", choices=("o", "sp"), required=True)
    osp_sub = osp.add_subparsers(dest="osp_command", required=True)
    osp_leq = add_command(osp_sub, "leq", cmd_osp_leq)
    osp_leq.add_argument("a")
    osp_leq.add_argument("b")
    osp_defect = add_command(osp_sub, "defect", cmd_osp_defect)
    osp_defect.add_argument("a")
    osp_defect.add_argument("b")
    osp_layers = add_command(osp_sub, "layers", cmd_osp_layers)
    osp_layers.add_argument("kmax", type=int)
    osp_ext = add_command(osp_sub, "ext-trivial", cmd_osp_ext_trivial)
    osp_ext.add_argument("lam")
    osp_ext.add_argument("mu")
    osp_ext.add_argument("--degree", type=int, required=True)
    osp_conj = add_command(osp_sub, "conjugate", cmd_osp_conjugate)
    osp_conj.add_argument("lam")
    osp_conj.add_argument("mu")

    add_command(sub, "verify", cmd_verify, help="re-run oracle cross-checks")

    return parser


def execute(args, cfg) -> tuple[list[str], object]:
    """Run one subcommand through the handler its parser declared."""
    return args.handler(args, cfg)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        cfg = resolve_config(
            degree_cap=args.degree_cap,
            group_guard=args.group_guard,
            config_file=args.config,
        )
    except (OSError, ValueError) as exc:
        print(f"tensorcat: error: {exc}", file=sys.stderr)
        return 1

    if args.verify and not args.command:
        args.command, args.handler = "verify", cmd_verify
    if not args.command:
        parser.print_usage(sys.stderr)
        print("tensorcat: error: a subcommand is required", file=sys.stderr)
        return 1

    code = 0
    try:
        lines, payload = execute(args, cfg)
    except VerifyFailure as failure:
        (lines, payload), code = failure.args, 1
    except ParseError as exc:
        print(f"tensorcat: error: {exc}", file=sys.stderr)
        return 1
    except (DegreeCapExceeded, GuardExceeded, LimitExceeded) as exc:
        print(f"tensorcat: refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TensorcatError) as exc:
        print(f"tensorcat: error: {exc}", file=sys.stderr)
        return 1

    if args.output == "json":
        print(json.dumps({"command": args.command, "result": payload}, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
