"""Command-line front end.

Every engine operation is a subcommand with canonical, byte-stable output on
stdout; diagnostics go to stderr.  Exit codes: 0 success, 1 user error or a
failed write, 2 refusal by the degree cap, the group guard or a fixed limit.
``call(words, env, write)`` reads the words, the configuration from ``env``,
selects and runs the handler and writes its output in one ``try``, with one
``except`` per exit code, usage errors and failed writes included: it never
raises SystemExit, a closed pipe exits 1 quietly, and a diagnostic that
cannot be written keeps the exit code.  ``main`` is ``call`` on the
process's words, environment and stdout.  ``COMMANDS`` (one
``@command`` per handler) and ``GROUPS`` are the whole grammar: ``read_argv``
reads the words against them, strictly, and ``--help`` prints fixed text
built from them.  An index or integer argument names its reader, which
``execute`` applies once the configuration is resolved.  The grammar fuzz test
(tests/test_cli.py) reads its words from the same table; a new command also
needs golden cases (tests/golden_cli.json, checked by tests/test_golden_cli.py)
and a domain (tests/test_domain_digests.py).  Handlers return lazy text lines and the engine's result, which ``--output json`` encodes with
``terms_json``.  A tensorcat process runs one call, so json, symalg and the
cross-checks are imported only by the commands that use them.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from types import SimpleNamespace

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


class _Texts(dict):
    """``str`` of each slot, rendered on its first lookup and kept for the rest of one call."""

    def __missing__(self, slot) -> str:
        text = self[slot] = str(slot)
        return text


def term_lines(terms: Combination, indent: str = "") -> Iterator[str]:
    """Text lines of a combination, one per term in canonical order; ``0`` if it is empty.

    Each distinct partition is rendered once per call: a large result repeats
    a few thousand shapes over its terms.
    """
    if not terms:
        yield indent + "0"
    text = _Texts().__getitem__
    for idx, mult in sorted(terms.items(), key=lambda kv: index_key(kv[0])):
        yield f"{indent}{mult} {index_label(idx, text)}"


def terms_output(terms: Combination) -> tuple[Iterator[str], Combination]:
    return term_lines(terms), terms


def layers_output(layers: list[Combination]) -> tuple[Iterator[str], list[dict]]:
    lines = (line for k, terms in enumerate(layers) for line in chain([f"layer {k}:"], term_lines(terms, "  ")))
    return lines, [{"k": k, "terms": terms} for k, terms in enumerate(layers)]


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (args, cfg) and returns (lazy text lines, result)

COMMANDS = []  # (name, handler, arguments, help line), in --help order
DEGREE = ("--degree", ascii_int)


def command(name: str, *arguments, help: str = ""):
    """Declare the handler below as subcommand ``name`` (``"osp leq"`` in the osp group).  An argument is
    ``(name, reader)``, read by ``execute``, or ``(name, choices)``, both required, or a flag's name."""

    def declare(handler):
        COMMANDS.append((name, handler, arguments, help))
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


@command("plethysm", ("family", PLETHYSM_FAMILIES), ("k", ascii_int),
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


CHAINS_TEXT_LIMIT = 2_500_000


@command("chains", ("a", parse_quad), ("b", parse_quad), help="all saturated chains between two quadruples")
def cmd_chains(args, cfg):
    d = poset.defect(args.a, args.b) or 0
    check_cap(d, cfg.degree_cap, what="chain length")
    # every element lies coordinatewise between a and b, so no element prints wider than this
    width = sum(len(str(max(x, y))) for x, y in zip(args.a, args.b)) + 3
    text_bytes = poset.chain_count(args.a, args.b) * ((d + 1) * width + 4 * d + 1)
    check_limit(text_bytes, CHAINS_TEXT_LIMIT, "chains text bytes")
    found = poset.chains(args.a, args.b)
    return (" -> ".join(map(str, path)) for path in found) if found else ["(none)"], found


@command("covers", ("a", parse_quad), ("--bound", ascii_int), help="immediate successors within a bound")
def cmd_covers(args, cfg):
    found = poset.covers(args.a, args.bound)
    return map(str, found) if found else ["(none)"], found


def _ext_output(args, cfg, target: tuple[Partition, Partition]):
    check_cap(args.index.degree, cfg.degree_cap)
    check_cap(args.degree, cfg.degree_cap)
    return scalar_output(ext_mod.ext_to_thick(args.index, target, args.degree))


@command("ext-trivial", ("index", parse_simple_index), DEGREE, help="Ext dimension into the unit object")
def cmd_ext_trivial(args, cfg):
    return _ext_output(args, cfg, (EMPTY, EMPTY))


@command("ext-thick", ("index", parse_simple_index), ("alpha", parse_partition), ("beta", parse_partition), DEGREE,
         help="Ext dimension into a purely thick simple")
def cmd_ext_thick(args, cfg):
    return _ext_output(args, cfg, (args.alpha, args.beta))


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


@command("homdim", ("quad", parse_quad), ("flavor", tuple(HOM_MOVES)),
         help="span of zero or one move out of J(q) in the move model")
def cmd_homdim(args, cfg):
    from . import symalg

    check_cap(sum(args.quad), cfg.degree_cap)
    return scalar_output(symalg.move_word_dimension(args.quad, HOM_MOVES[args.flavor]))


@command("quadkernel", ("quad", parse_quad), "--check", help="dimension of the quadratic kernel (--check: row-reduce)")
def cmd_quadkernel(args, cfg):
    from . import symalg

    check_cap(sum(args.quad), cfg.degree_cap)
    dim = symalg.quadratic_kernel_dim(args.quad)
    if not args.check:
        return scalar_output(dim)
    verified = symalg.quadratic_kernel_check(args.quad, cfg.group_guard)
    return [str(dim), "check: ok" if verified else "check: FAIL"], {"dim": dim, "check": verified}


@command("osp leq", ("a", ospcat.parse_pair), ("b", ospcat.parse_pair), help="order between two pairs")
def cmd_osp_leq(args, cfg):
    return scalar_output(ospcat.osp_leq(args.a, args.b))


@command("osp defect", ("a", ospcat.parse_pair), ("b", ospcat.parse_pair), help="defect between two pairs")
def cmd_osp_defect(args, cfg):
    return scalar_output(ospcat.osp_defect(args.a, args.b))


@command("osp layers", ("kmax", ascii_int), help="filtration layers of the injective hull of the unit")
def cmd_osp_layers(args, cfg):
    return layers_output(ospcat.osp_layers_of_i(args.kind, args.kmax, cfg.degree_cap))


@command("osp ext-trivial", ("lam", parse_partition), ("mu", parse_partition), DEGREE,
         help="Ext dimension into the unit object")
def cmd_osp_ext_trivial(args, cfg):
    x = ospcat.osp_index(args.kind, args.lam, args.mu)
    check_cap(x.degree, cfg.degree_cap)
    return scalar_output(ospcat.osp_ext_to_trivial(x, args.degree))


@command("osp conjugate", ("lam", parse_partition), ("mu", parse_partition), help="the simple of the other variant")
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
# argument reading: one reader over the table above, and fixed --help texts

# a word that leads to further commands ("" is the top level): its options and its help text
GROUPS = {
    "": ((("--output", ("text", "json")), ("--degree-cap", str), ("--group-guard", str), ("--config", str), "--verify"),
         f"""Exact tensor-category calculator: decompositions, posets, Ext dimensions.
--degree-cap refuses work above a degree (default {DEFAULT_DEGREE_CAP}), --group-guard bounds explicit group algebras
(default {DEFAULT_GROUP_GUARD}), --config names a key=value file, and --verify re-runs the oracle cross-checks.
Precedence: flag > environment ({ENV_DEGREE_CAP}, {ENV_GROUP_GUARD}, {ENV_CONFIG}) > config file > default."""),
    "osp": ((("--kind", ospcat.KINDS),), "orthogonal/symplectic variant"),
}


class UsageError(ValueError):
    """Words the grammar refuses while reading the command or group ``path``; ``call`` prints its usage line."""

    def __init__(self, message: str, path: str):
        super().__init__(message)
        self.path = path


def declaration(path: str) -> tuple:
    """({name: spec}, help, handler) of a command or group.  A spec is None for a flag, a tuple of choices, a
    reader that ``execute`` applies, or ``str`` for a global option whose text goes to ``resolve_config``.  A
    group has handler None and its command word (``command``, ``osp_command``) last."""
    if path in GROUPS:
        prefix = f"{path} ".lstrip()
        words = dict.fromkeys(name.removeprefix(prefix).split()[0] for name, *_ in COMMANDS if name.startswith(prefix))
        arguments, about = GROUPS[path]
        arguments = (*arguments, (f"{path}_command".lstrip("_"), tuple(words)))
        handler = None
    else:
        arguments, about, handler = next((spec, about, f) for name, f, spec, about in COMMANDS if name == path)
    return dict((argument, None) if isinstance(argument, str) else argument for argument in arguments), about, handler


def dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def usage(path: str) -> str:
    declared, _, handler = declaration(path)
    words = ["usage: tensorcat", *path.split(), "[-h]"]
    arguments = list(declared.items())
    if not handler:
        arguments.pop()  # a group's command word, written COMMAND ... below
    for name, spec in arguments:
        value = "{" + ",".join(spec) + "}" if isinstance(spec, tuple) else dest(name).upper()
        if name[0] != "-":
            words.append(value if isinstance(spec, tuple) else name)
        elif spec is None or not path:  # a flag or a global option is optional
            words.append(f"[{name}]" if spec is None else f"[{name} {value}]")
        else:
            words.append(f"{name} {value}")
    if not handler:
        words.append("COMMAND ...")
    return " ".join(words)


def help_text(path: str) -> str:
    """The usage line, the help line and a group's commands: a text that no terminal or interpreter changes."""
    declared, about, handler = declaration(path)
    lines = [usage(path), "", about]
    if not handler:
        lines += ["", "commands:"]
        for command in list(declared.values())[-1]:  # the choices of the group's command word
            lines.append(f"  {command:<17} {declaration(f'{path} {command}'.lstrip())[1]}")
    return "\n".join(lines)


def read_argv(words: list[str]) -> SimpleNamespace:
    """Read the words against the table: a group's options up to its command word, then the command's options
    (anywhere) and positionals (in declared order).  ``-h`` or ``--help`` anywhere asks for help.  A word that
    starts with ``--`` is an option, spelled in full and given at most once, its value as ``--name value`` or
    ``--name=value``; ``--`` is no option.  Any other word, ``-1`` included, goes to the next positional."""
    args = SimpleNamespace(help=None, handler=None)
    path = ""
    words = list(words)
    while True:
        declared, _, handler = declaration(path)
        positionals = [name for name in declared if name[0] != "-"]
        slot = None if handler else positionals[-1]  # a group's command word ends its reading
        given = {}
        while words and (handler or slot not in given):
            word = words.pop(0)
            if word in ("-h", "--help"):
                args.help = help_text(path)
                return args
            if word.startswith("--"):
                name, eq, value = word.partition("=")
            elif positionals:  # a positional carries its value, as --name=value does
                name, eq, value = positionals.pop(0), "=", word
            else:
                raise UsageError(f"unrecognized argument {word!r}", path)
            if name in given:
                raise UsageError(f"repeated argument {word!r}", path)
            if name not in declared or declared[name] is None and eq:
                raise UsageError(f"unrecognized argument {word!r}", path)
            spec = declared[name]
            if spec is not None and not eq:
                if not words:
                    raise UsageError(f"option {name} needs a value", path)
                value = words.pop(0)
            if isinstance(spec, tuple) and value not in spec:
                raise UsageError(f"invalid {name} {value!r} (choose from {', '.join(spec)})", path)
            given[name] = True if spec is None else value
        if missing := [name for name, spec in declared.items() if path and spec is not None and name not in given]:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}", path)
        vars(args).update({dest(name): given.get(name) for name in declared})
        if handler:
            args.handler = handler
            args.readers = [(dest(name), read) for name, read in declared.items() if callable(read)]
            return args
        if slot not in given:
            return args  # a missing command word: call refuses it once the configuration is resolved
        path = f"{path} {given[slot]}".lstrip()


def execute(args, cfg) -> tuple[Iterable[str], object]:
    """Read each argument with its declared reader, then run the declared handler."""
    for name, read in args.readers:
        setattr(args, name, read(getattr(args, name)))
    return args.handler(args, cfg)


def call(words, env, write, flush=lambda: None) -> int:
    """One call: reading the words, the configuration (from the mapping ``env``), handler selection, the handler
    and the output (each line to ``write``, then ``flush``) share one ``try``, with one ``except`` per exit code; the
    diagnostic it picks goes to stderr after them, and a failed write of it is ignored."""
    try:
        args = read_argv(words)
        if args.help:
            output, code = [args.help], 0
        else:
            cfg = resolve_config(degree_cap=args.degree_cap, group_guard=args.group_guard, config_file=args.config,
                                 env=env)
            if args.verify:
                if args.command:
                    raise ValueError("--verify takes no subcommand")
                args.command, args.handler, args.readers = "verify", cmd_verify, ()
            elif not args.command:
                raise UsageError("a subcommand is required", "")
            output, result = execute(args, cfg)
            if args.output == "json":
                import json

                output = [json.dumps({"command": args.command, "result": result}, sort_keys=True, default=terms_json)]
            code = 1 if args.verify and not result["ok"] else 0  # a failed cross-check still prints its report
        for line in output:
            write(line + "\n")
        flush()
        return code
    except BrokenPipeError:  # the reader has gone (``| head -1``): exit 1, and nothing to say
        return 1
    except LimitExceeded as exc:
        code, message = 2, f"tensorcat: refused: {exc}"
    except (OSError, ValueError, TensorcatError) as exc:
        head = usage(exc.path) + "\n" if isinstance(exc, UsageError) else ""
        code, message = 1, f"{head}tensorcat: error: {exc}"
    try:
        sys.stderr.write(message + "\n")
    except OSError:  # a diagnostic that cannot be written leaves the exit code as it is
        pass
    return code


def main(argv=None) -> int:
    """``call`` on the process's words, environment and stdout.  A failed write leaves its text in the stream's
    buffer, which the interpreter would retry, and report, at exit: that stream then goes to the null device."""
    code = call(sys.argv[1:] if argv is None else argv, os.environ, sys.stdout.write, sys.stdout.flush)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()  # nothing is left to flush unless a write in ``call`` failed
        except OSError:
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), stream.fileno())
    return code
