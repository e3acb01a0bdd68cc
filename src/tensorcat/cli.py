"""Command-line front end.

Every engine operation is exposed as a subcommand with canonical, byte-stable
output; results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 user error, 2 refusal by the degree cap, the group guard or a fixed limit.
``main`` resolves the configuration, selects the handler (``--verify`` or the
subcommand), reads its arguments and runs it inside one ``try``, with one
``except`` per exit code; argparse converts no value, and only its usage
errors exit before the ``try``.  A failed ``--verify`` prints its report like
any result and exits 1.  A subcommand is one ``@command`` on its handler: its
name and arguments go to ``COMMANDS``, from which ``build_parser`` builds the
parser once per process.  An index or integer argument names its reader
(``diagrams`` holds the grammar and ``ascii_int``), which ``execute`` applies
once the configuration is resolved, so handlers get typed values.  A new
command also needs a fuzz shape and golden cases (tests/test_cli.py).
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
from functools import cache
from itertools import chain

from . import ext as ext_mod
from . import grothendieck as gr
from . import ospcat, plethysm, poset, symfunc
from .combination import Combination, index_key, index_label
from .config import DEFAULT_DEGREE_CAP, DEFAULT_GROUP_GUARD, ENV_CONFIG, ENV_DEGREE_CAP, ENV_GROUP_GUARD
from .config import check_cap, check_limit, resolve_config
from .diagrams import EMPTY, Partition, ascii_int, parse_partition
from .diagrams import partitions  # noqa: F401  (perfbench's tracer test asserts cli binds it)
from .errors import LimitExceeded, TensorcatError
from .grothendieck import SimpleIndex, parse_simple_index
from .poset import parse_quad


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

COMMANDS = []  # (name, handler, arguments, add_parser keywords), in --help order
DEGREE = ("--degree", ascii_int)


def command(name: str, *arguments, **keywords):
    """Declare the handler below as subcommand ``name`` (``"osp leq"`` in the osp group); an argument is
    ``(name, reader)``, required and read by ``execute``, or a ``(flag, add_argument keywords)`` pair."""

    def declare(handler):
        COMMANDS.append((name, handler, arguments, keywords))
        return handler

    return declare


def scalar_output(value) -> tuple[list[str], object]:
    """One-line result: a number, ``true``/``false``, or ``undefined`` for None."""
    if isinstance(value, bool):
        return ["true" if value else "false"], value
    return [str(value) if value is not None else "undefined"], value


@command("lr", ("lam", parse_partition), ("mu", parse_partition), ("nu", parse_partition),
         help="Littlewood-Richardson coefficient")
def cmd_lr(args, cfg):
    check_cap(args.lam.degree, cfg.degree_cap)
    return scalar_output(symfunc.lr_coefficient(args.lam, args.mu, args.nu))


@command("product", ("mu", parse_partition), ("nu", parse_partition), help="Schur-basis product of two Schur functions")
def cmd_product(args, cfg):
    return terms_output(symfunc.schur_term_product(args.mu, args.nu, cfg.degree_cap))


PLETHYSM_FAMILIES = ("cauchy-sym", "cauchy-ext", "sym-sym2", "ext-sym2", "sym-ext2", "ext-ext2")


@command("plethysm", ("family", {"choices": PLETHYSM_FAMILIES}), ("k", ascii_int),
         help="closed-form power decompositions")
def cmd_plethysm(args, cfg):
    check_cap(2 * args.k, cfg.degree_cap)
    family = args.family
    if family in ("cauchy-sym", "cauchy-ext"):
        fn = plethysm.cauchy_sym if family == "cauchy-sym" else plethysm.cauchy_ext
        return terms_output(fn(args.k))
    kind = plethysm.SYMMETRIC if family.startswith("sym-") else plethysm.EXTERIOR
    inner = plethysm.power_of_sym2 if family.endswith("sym2") else plethysm.power_of_ext2
    return terms_output(inner(args.k, kind))


@command("decompose", ("quad", parse_quad), help="composition factors of a tensor word")
def cmd_decompose(args, cfg):
    return terms_output(gr.decompose_j(args.quad, cfg.degree_cap))


@command("socle", ("quad", parse_quad), help="socle of the tensor word at a quadruple")
def cmd_socle(args, cfg):
    return terms_output(gr.socle_of(args.quad, cfg.degree_cap))


@command("layers", ("kmax", ascii_int), help="filtration layers of the injective hull of the unit")
def cmd_layers(args, cfg):
    return layers_output(gr.layers_of_i(args.kmax, cfg.degree_cap))


@command("defect", ("a", parse_quad), ("b", parse_quad), help="defect between two quadruples")
def cmd_defect(args, cfg):
    return scalar_output(poset.defect(args.a, args.b))


CHAIN_LIMIT = 100_000


@command("chains", ("a", parse_quad), ("b", parse_quad), help="all saturated chains between two quadruples")
def cmd_chains(args, cfg):
    check_cap(poset.defect(args.a, args.b) or 0, cfg.degree_cap, what="chain length")
    check_limit(poset.chain_count(args.a, args.b), CHAIN_LIMIT, "saturated chains")
    found = poset.chains(args.a, args.b)
    return (" -> ".join(map(str, path)) for path in found) if found else ["(none)"], found


@command("covers", ("a", parse_quad), ("--bound", ascii_int), help="immediate successors within a bound")
def cmd_covers(args, cfg):
    found = poset.covers(args.a, args.bound)
    return map(str, found) if found else ["(none)"], found


@command("ext-trivial", ("index", parse_simple_index), DEGREE, help="Ext dimension into the unit object")
def cmd_ext_trivial(args, cfg):
    check_cap(args.index.degree, cfg.degree_cap)
    return scalar_output(ext_mod.ext_to_thick(args.index, (EMPTY, EMPTY), args.degree))


@command("ext-thick", ("index", parse_simple_index), ("alpha", parse_partition), ("beta", parse_partition), DEGREE,
         help="Ext dimension into a purely thick simple")
def cmd_ext_thick(args, cfg):
    check_cap(args.index.degree, cfg.degree_cap)
    check_cap(args.degree, cfg.degree_cap)
    return scalar_output(ext_mod.ext_to_thick(args.index, (args.alpha, args.beta), args.degree))


@command("ext-vanishes", ("source", parse_simple_index), ("target", parse_simple_index), DEGREE,
         help="guaranteed-vanishing test between simples")
def cmd_ext_vanishes(args, cfg):
    return scalar_output(ext_mod.ext_vanishes(args.source, args.target, args.degree))


@command("resolution", ("j", ascii_int), help="resolution term and its socle")
def cmd_resolution(args, cfg):
    socle = ext_mod.thick_target_socle(args.j, EMPTY, EMPTY, cfg.degree_cap)
    body = f"Lambda^{args.j}(F) (x) I"
    return chain([f"body: {body}"], term_lines(socle)), {"j": args.j, "body": body, "socle": socle}


@command("kernel-layer", ("j", ascii_int), ("k", ascii_int), help="filtration layer of a resolution kernel")
def cmd_kernel_layer(args, cfg):
    return terms_output(ext_mod.kernel_layer(args.j, args.k, cfg.degree_cap))


HOM_MOVES = {"end": (), "contract": ("contract",), "shift-left": ("left",), "shift-right": ("right",)}


@command("homdim", ("quad", parse_quad), ("flavor", {"choices": tuple(HOM_MOVES)}),
         help="span of zero or one move out of J(q) in the move model")
def cmd_homdim(args, cfg):
    from . import symalg

    check_cap(sum(args.quad), cfg.degree_cap)
    return scalar_output(symalg.move_word_dimension(args.quad, HOM_MOVES[args.flavor]))


@command("quadkernel", ("quad", parse_quad),
         ("--check", {"action": "store_true", "help": "also row-reduce the explicit right ideal"}),
         help="quadratic-relation kernel dimension")
def cmd_quadkernel(args, cfg):
    from . import symalg

    check_cap(sum(args.quad), cfg.degree_cap)
    dim = symalg.quadratic_kernel_dim(args.quad)
    if not args.check:
        return scalar_output(dim)
    verified = symalg.quadratic_kernel_check(args.quad, cfg.group_guard)
    return [str(dim), "check: ok" if verified else "check: FAIL"], {"dim": dim, "check": verified}


@command("osp leq", ("a", ospcat.parse_pair), ("b", ospcat.parse_pair))
def cmd_osp_leq(args, cfg):
    return scalar_output(ospcat.osp_leq(args.a, args.b))


@command("osp defect", ("a", ospcat.parse_pair), ("b", ospcat.parse_pair))
def cmd_osp_defect(args, cfg):
    return scalar_output(ospcat.osp_defect(args.a, args.b))


@command("osp layers", ("kmax", ascii_int))
def cmd_osp_layers(args, cfg):
    return layers_output(ospcat.osp_layers_of_i(args.kind, args.kmax, cfg.degree_cap))


@command("osp ext-trivial", ("lam", parse_partition), ("mu", parse_partition), DEGREE)
def cmd_osp_ext_trivial(args, cfg):
    x = ospcat.osp_index(args.kind, args.lam, args.mu)
    check_cap(x.degree, cfg.degree_cap)
    return scalar_output(ospcat.osp_ext_to_trivial(x, args.degree))


@command("osp conjugate", ("lam", parse_partition), ("mu", parse_partition))
def cmd_osp_conjugate(args, cfg):
    x = ospcat.osp_index(args.kind, args.lam, args.mu)
    check_cap(x.degree, cfg.degree_cap)
    image = ospcat.osp_conjugate(x)
    return [f"{image.kind} {image.lam},{image.mu}"], image._asdict()


def cmd_verify(args, cfg):
    from .crosscheck import CHECKS, failures

    checks = [{"name": name, "ok": not failures(predicate, cases)} for name, predicate, cases in CHECKS]
    lines = (f"check {check['name']}: {'ok' if check['ok'] else 'FAIL'}" for check in checks)
    return lines, {"checks": checks, "ok": all(check["ok"] for check in checks)}


# ---------------------------------------------------------------------------
# argument parsing


class Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on user error, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> Parser:
    parser = Parser(
        prog="tensorcat",
        description="Exact tensor-category calculator: decompositions, posets, Ext dimensions.",
        epilog=(
            "Configuration precedence: flag > environment > config file > default. "
            f"Environment variables: {ENV_DEGREE_CAP}, {ENV_GROUP_GUARD}, {ENV_CONFIG}."
        ),
    )
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--degree-cap", help=f"refuse work above this degree (default {DEFAULT_DEGREE_CAP})")
    parser.add_argument("--group-guard", help=f"explicit group-algebra size limit (default {DEFAULT_GROUP_GUARD})")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--verify", action="store_true", help="re-run oracle cross-checks and exit")

    groups = {"": parser.add_subparsers(dest="command")}
    for name, handler, arguments, keywords in COMMANDS:
        group, _, leaf = name.rpartition(" ")
        if group not in groups:  # "osp", made where its first command comes in the listing
            osp = groups[""].add_parser(group, help="orthogonal/symplectic variant")
            osp.add_argument("--kind", choices=ospcat.KINDS, required=True)
            groups[group] = osp.add_subparsers(dest="osp_command", required=True)
        subparser = groups[group].add_parser(leaf, **keywords)
        readers = [(flag.lstrip("-"), spec) for flag, spec in arguments if callable(spec)]  # (dest, reader)
        subparser.set_defaults(handler=handler, readers=readers)
        for flag, spec in arguments:
            if callable(spec):  # an argument with a reader is required, as a positional always is
                spec = {"required": True} if flag.startswith("-") else {}
            subparser.add_argument(flag, **spec)
    return parser


def execute(args, cfg) -> tuple[Iterable[str], object]:
    """Read each argument with its declared reader, then run the handler its parser declared."""
    for name, read in args.readers:
        setattr(args, name, read(getattr(args, name)))
    return args.handler(args, cfg)


def main(argv=None) -> int:
    """One call: configuration, handler selection, argument reading and the handler share one ``try``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(degree_cap=args.degree_cap, group_guard=args.group_guard, config_file=args.config)
        if args.verify:
            if args.command:
                raise ValueError("--verify takes no subcommand")
            args.command, args.handler, args.readers = "verify", cmd_verify, ()
        elif not args.command:
            parser.print_usage(sys.stderr)
            raise ValueError("a subcommand is required")
        lines, result = execute(args, cfg)
    except LimitExceeded as exc:
        print(f"tensorcat: refused: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, TensorcatError) as exc:
        print(f"tensorcat: error: {exc}", file=sys.stderr)
        return 1

    if args.output == "json":
        import json

        print(json.dumps({"command": args.command, "result": result}, sort_keys=True, default=terms_json))
    else:
        print("\n".join(lines))
    return 1 if args.verify and not result["ok"] else 0  # a failed cross-check still prints its report
