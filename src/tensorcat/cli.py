"""Command-line front end.

Every engine operation is exposed as a subcommand with canonical, byte-stable
output; results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 user error, 2 refusal by the degree cap, the group guard or a fixed limit.
``--output json`` emits one JSON document per invocation, validating against
schema/output.json.  Handlers return lazy text lines and the engine's result,
which ``json.dumps`` encodes with ``terms_json``: each call renders one form.

A call starts a fresh interpreter, so its imports are part of its cost: json,
symalg (with fractions) and the cross-checks with their oracle are imported by
the commands that use them, not at start-up.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Iterator
from itertools import chain

from . import ext as ext_mod
from . import grothendieck as gr
from . import ospcat, plethysm, poset, symfunc
from .combination import Combination, index_key, index_label
from .config import check_cap, check_limit, resolve_config
from .diagrams import EMPTY, Partition, ascii_int, parse_naturals, parse_partition
from .diagrams import partitions  # noqa: F401  (perfbench's tracer test asserts cli binds it)
from .errors import LimitExceeded, ParseError, TensorcatError
from .grothendieck import SimpleIndex
from .poset import parse_quad


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


def terms_json(value) -> list[dict]:
    """``json.dumps``'s encoder of a Combination: its terms in canonical order, each naming its index kind."""
    if not isinstance(value, Combination):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    kinds = {Partition: "partition", SimpleIndex: "index"}  # any other index is a pair
    ordered = sorted(value.items(), key=lambda kv: index_key(kv[0]))
    return [{kinds.get(type(idx), "pair"): idx, "mult": mult} for idx, mult in ordered]


def term_lines(terms: Combination, indent: str = "") -> Iterator[str]:
    """Text lines of a combination, one per term in canonical order; ``0`` if it is empty."""
    if not terms:
        yield indent + "0"
    for idx, mult in sorted(terms.items(), key=lambda kv: index_key(kv[0])):
        yield f"{indent}{mult} {index_label(idx)}"


def terms_output(terms: Combination) -> tuple[Iterator[str], Combination]:
    return term_lines(terms), terms


def layers_output(layers: list[Combination]) -> tuple[Iterator[str], list[dict]]:
    lines = (line for k, terms in enumerate(layers) for line in chain([f"layer {k}:"], term_lines(terms, "  ")))
    return lines, [{"k": k, "terms": terms} for k, terms in enumerate(layers)]


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (args, cfg) and returns (lazy text lines, result)


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
    check_cap(2 * args.k, cfg.degree_cap)
    family = args.family
    if family in ("cauchy-sym", "cauchy-ext"):
        fn = plethysm.cauchy_sym if family == "cauchy-sym" else plethysm.cauchy_ext
        return terms_output(fn(args.k))
    kind = plethysm.SYMMETRIC if family.startswith("sym-") else plethysm.EXTERIOR
    inner = plethysm.power_of_sym2 if family.endswith("sym2") else plethysm.power_of_ext2
    return terms_output(inner(args.k, kind))


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
    check_limit(poset.chain_count(a, b), CHAIN_LIMIT, "saturated chains")
    found = poset.chains(a, b)
    return (" -> ".join(map(str, path)) for path in found) if found else ["(none)"], found


def cmd_covers(args, cfg):
    found = poset.covers(parse_quad(args.a), args.bound)
    return map(str, found) if found else ["(none)"], found


def cmd_ext_trivial(args, cfg):
    x = parse_simple_index(args.index)
    check_cap(x.degree, cfg.degree_cap)
    return scalar_output(ext_mod.ext_to_thick(x, (EMPTY, EMPTY), args.degree))


def cmd_ext_thick(args, cfg):
    x = parse_simple_index(args.index)
    target = (parse_partition(args.alpha), parse_partition(args.beta))
    check_cap(x.degree, cfg.degree_cap)
    check_cap(args.degree, cfg.degree_cap)
    return scalar_output(ext_mod.ext_to_thick(x, target, args.degree))


def cmd_ext_vanishes(args, cfg):
    s, t = parse_simple_index(args.source), parse_simple_index(args.target)
    return scalar_output(ext_mod.ext_vanishes(s, t, args.degree))


def cmd_resolution(args, cfg):
    socle = ext_mod.thick_target_socle(args.j, EMPTY, EMPTY, cfg.degree_cap)
    body = f"Lambda^{args.j}(F) (x) I"
    return chain([f"body: {body}"], term_lines(socle)), {"j": args.j, "body": body, "socle": socle}


def cmd_kernel_layer(args, cfg):
    return terms_output(ext_mod.kernel_layer(args.j, args.k, cfg.degree_cap))


HOM_MOVES = {"end": (), "contract": ("contract",), "shift-left": ("left",), "shift-right": ("right",)}


def cmd_homdim(args, cfg):
    from . import symalg

    q = parse_quad(args.quad)
    check_cap(sum(q), cfg.degree_cap)
    return scalar_output(symalg.move_word_dimension(q, HOM_MOVES[args.flavor]))


def cmd_quadkernel(args, cfg):
    from . import symalg

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
    return scalar_output(ospcat.osp_ext_to_trivial(x, args.degree))


def cmd_osp_conjugate(args, cfg):
    x = ospcat.osp_index(args.kind, parse_partition(args.lam), parse_partition(args.mu))
    check_cap(x.degree, cfg.degree_cap)
    image = ospcat.osp_conjugate(x)
    return [f"{image.kind} {image.lam},{image.mu}"], image._asdict()


class VerifyFailure(Exception):
    """A failed cross-check; its args are the report's (text lines, result)."""


def cmd_verify(args, cfg):
    from .crosscheck import CHECKS, failures

    checks = [{"name": name, "ok": not failures(predicate, cases)} for name, predicate, cases in CHECKS]
    lines = (f"check {check['name']}: {'ok' if check['ok'] else 'FAIL'}" for check in checks)
    result = {"checks": checks, "ok": all(check["ok"] for check in checks)}
    if not result["ok"]:
        raise VerifyFailure(lines, result)
    return lines, result


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
    parser.add_argument("--degree-cap", type=ascii_int, default=None, help="refuse work above this degree (default 12)")
    parser.add_argument("--group-guard", type=ascii_int, default=None, help="explicit group-algebra size limit (default 8)")
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
    plet.add_argument("k", type=ascii_int)

    decompose = add_command(sub, "decompose", cmd_decompose, help="composition factors of a tensor word")
    decompose.add_argument("quad")

    socle = add_command(sub, "socle", cmd_socle, help="socle of the tensor word at a quadruple")
    socle.add_argument("quad")

    layers = add_command(sub, "layers", cmd_layers, help="filtration layers of the injective hull of the unit")
    layers.add_argument("kmax", type=ascii_int)

    defect = add_command(sub, "defect", cmd_defect, help="defect between two quadruples")
    defect.add_argument("a")
    defect.add_argument("b")

    chains = add_command(sub, "chains", cmd_chains, help="all saturated chains between two quadruples")
    chains.add_argument("a")
    chains.add_argument("b")

    covers = add_command(sub, "covers", cmd_covers, help="immediate successors within a bound")
    covers.add_argument("a")
    covers.add_argument("--bound", type=ascii_int, required=True)

    ext_trivial = add_command(sub, "ext-trivial", cmd_ext_trivial, help="Ext dimension into the unit object")
    ext_trivial.add_argument("index")
    ext_trivial.add_argument("--degree", type=ascii_int, required=True)

    ext_thick = add_command(sub, "ext-thick", cmd_ext_thick, help="Ext dimension into a purely thick simple")
    ext_thick.add_argument("index")
    ext_thick.add_argument("alpha")
    ext_thick.add_argument("beta")
    ext_thick.add_argument("--degree", type=ascii_int, required=True)

    ext_vanishes = add_command(sub, "ext-vanishes", cmd_ext_vanishes, help="guaranteed-vanishing test between simples")
    ext_vanishes.add_argument("source")
    ext_vanishes.add_argument("target")
    ext_vanishes.add_argument("--degree", type=ascii_int, required=True)

    resolution = add_command(sub, "resolution", cmd_resolution, help="resolution term and its socle")
    resolution.add_argument("j", type=ascii_int)

    kernel = add_command(sub, "kernel-layer", cmd_kernel_layer, help="filtration layer of a resolution kernel")
    kernel.add_argument("j", type=ascii_int)
    kernel.add_argument("k", type=ascii_int)

    homdim = add_command(sub, "homdim", cmd_homdim, help="span of zero or one move out of J(q) in the move model")
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
    osp_layers.add_argument("kmax", type=ascii_int)
    osp_ext = add_command(osp_sub, "ext-trivial", cmd_osp_ext_trivial)
    osp_ext.add_argument("lam")
    osp_ext.add_argument("mu")
    osp_ext.add_argument("--degree", type=ascii_int, required=True)
    osp_conj = add_command(osp_sub, "conjugate", cmd_osp_conjugate)
    osp_conj.add_argument("lam")
    osp_conj.add_argument("mu")

    return parser


def execute(args, cfg) -> tuple[Iterable[str], object]:
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

    if args.verify:
        if args.command:
            print("tensorcat: error: --verify takes no subcommand", file=sys.stderr)
            return 1
        args.command, args.handler = "verify", cmd_verify
    if not args.command:
        parser.print_usage(sys.stderr)
        print("tensorcat: error: a subcommand is required", file=sys.stderr)
        return 1

    code = 0
    try:
        lines, result = execute(args, cfg)
    except VerifyFailure as failure:
        (lines, result), code = failure.args, 1
    except LimitExceeded as exc:
        print(f"tensorcat: refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TensorcatError) as exc:
        print(f"tensorcat: error: {exc}", file=sys.stderr)
        return 1

    if args.output == "json":
        import json

        print(json.dumps({"command": args.command, "result": result}, sort_keys=True, default=terms_json))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
