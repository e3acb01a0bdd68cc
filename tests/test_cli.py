from __future__ import annotations

import contextlib
import errno
import functools
import io
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcat import cli, ospcat, plethysm
from tensorcat.cli import main, parse_simple_index
from tensorcat.combination import Combination, index_label
from tensorcat.diagrams import ascii_int, parse_partition
from tensorcat.errors import ParseError
from tensorcat.poset import QuadIndex, parse_quad
from quads import ROOT, all_indices_up_to, child_env, importers, imports, package_trees, simple

SCHEMA_PATH = ROOT / "schema" / "output.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)  # validate() would re-check the schema per call


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@functools.cache
def _start_up() -> tuple[set[str], set[str], set[str]]:
    """sys.modules of one ``python -S`` child: at start, after ``import tensorcat.cli`` and after one call."""
    script = (
        "import sys; bare = set(sys.modules); import tensorcat.cli; imported = set(sys.modules); "
        "tensorcat.cli.main(['decompose', '1,1,1,1']); print(*bare); print(*imported); print(*sys.modules)"
    )
    out = subprocess.run([sys.executable, "-S", "-c", script], env=child_env(), capture_output=True, text=True,
                         check=True, timeout=60).stdout.splitlines()
    return tuple(set(line.split()) for line in out[-3:])


def test_cli_import_loads_only_what_every_command_needs():
    # a call's start-up is part of its cost: these modules serve one command or none
    bare, imported, _ = _start_up()
    loaded = imported - bare
    assert "tensorcat.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "json", "string"}, loaded
    # the oracle side is reached only through crosscheck, only by --verify
    assert not loaded & {"tensorcat.crosscheck", "tensorcat.oracle", "tensorcat.symalg"}, loaded


def test_only_cmd_verify_imports_crosscheck():
    sites = {  # (module, innermost function or None) of each import naming crosscheck
        (stem, owner)
        for stem, tree in package_trees().items()
        for owner, module, name in imports(tree)
        if "crosscheck" in f"{module}.{name}".split(".")
    }
    assert sites == {("cli", "cmd_verify")}


def test_parse_simple_index():
    assert parse_simple_index("[1],[],[],[1]") == simple(lam=[1], pi=[1])
    assert parse_simple_index("[2,1],[1],[],[3]") == simple([2, 1], [1], [], [3])
    with pytest.raises(ParseError):
        parse_simple_index("[1],[],[]")
    with pytest.raises(ParseError):
        parse_simple_index("[1],[],[],[1")


def test_parse_simple_index_reports_position_in_whole_text():
    pieces = ["[1]", "[2,1]", "[]", "[3]"]
    for k in range(4):
        bad = pieces[:k] + ["[1,x]"] + pieces[k + 1 :]
        text = ",".join(bad)
        with pytest.raises(ParseError) as err:
            parse_simple_index(text)
        assert err.value.pos == text.index("x"), text
        assert err.value.text == text


def test_spec_command_lines(capsys):
    code, out, err = run(capsys, "lr", "[2,1]", "[1]", "[2]")
    assert (code, out, err) == (0, "1\n", "")
    code, out, err = run(capsys, "defect", "1,0,0,1", "0,1,1,0")
    assert (code, out, err) == (0, "2\n", "")
    code, out, err = run(capsys, "ext-trivial", "[1],[],[],[1]", "--degree", "1")
    assert (code, out, err) == (0, "1\n", "")


def test_product_and_plethysm_output(capsys):
    code, out, _ = run(capsys, "product", "[1]", "[1]")
    assert code == 0
    assert out == "1 [1,1]\n1 [2]\n"
    code, out, _ = run(capsys, "plethysm", "ext-ext2", "2")
    assert code == 0
    assert out == "1 [2,1,1]\n"
    code, out, _ = run(capsys, "plethysm", "cauchy-ext", "2")
    assert code == 0
    assert out == "1 [1,1],[2]\n1 [2],[1,1]\n"


def test_decompose_socle_layers(capsys):
    code, out, _ = run(capsys, "decompose", "0,1,1,0")
    assert code == 0
    assert out.splitlines() == [
        "1 [],[],[],[]",
        "1 [],[1],[],[1]",
        "1 [],[1],[1],[]",
        "1 [1],[],[],[1]",
        "1 [1],[],[1],[]",
    ]
    code, out, _ = run(capsys, "socle", "0,1,1,0")
    assert out == "1 [],[1],[1],[]\n"
    code, out, _ = run(capsys, "layers", "1")
    assert out.splitlines() == ["layer 0:", "  1 [],[],[],[]", "layer 1:", "  1 [1],[],[],[1]"]


def test_chains_and_covers(capsys):
    code, out, _ = run(capsys, "chains", "1,0,0,1", "0,1,1,0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.count("->") == 2 for line in lines)
    code, out, _ = run(capsys, "covers", "0,0,0,0", "--bound", "2")
    assert out == "0,1,1,0\n"


CORPUS = json.loads((ROOT / "tests" / "golden_cli.json").read_text(encoding="utf-8"))
GOLDEN = {tuple(case["argv"]): case["stdout"] for case in CORPUS if not case["env"]}


def test_each_output_mode_renders_only_what_it_prints(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("rendered for the output mode not printed")

    calls = [("decompose", "0,1,1,0"), ("layers", "2"), ("resolution", "2")]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "terms_json", refuse)
        for argv in calls:
            assert run(capsys, *argv) == (0, GOLDEN[argv], ""), argv
    with monkeypatch.context() as patch:
        patch.setattr(cli, "index_label", refuse)
        for argv in calls:
            argv = ("--output", "json", *argv)
            assert run(capsys, *argv) == (0, GOLDEN[argv], ""), argv
    monkeypatch.setattr(QuadIndex, "__str__", refuse)
    argv = ("--output", "json", "chains", "1,0,0,1", "0,1,1,0")
    assert run(capsys, *argv) == (0, GOLDEN[argv], "")


def test_defect_undefined(capsys):
    code, out, _ = run(capsys, "defect", "0,1,0,0", "1,0,0,0")
    assert (code, out) == (0, "undefined\n")


def test_ext_commands(capsys):
    code, out, _ = run(capsys, "ext-thick", "[2],[],[],[1,1]", "[1]", "[1]", "--degree", "1")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "ext-vanishes", "[1],[],[],[1]", "[],[],[],[]", "--degree", "2")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "resolution", "2")
    assert out.splitlines() == [
        "body: Lambda^2(F) (x) I",
        "1 [1,1],[],[],[2]",
        "1 [2],[],[],[1,1]",
    ]
    code, out, _ = run(capsys, "kernel-layer", "1", "1")
    assert out == "1 [1,1],[],[],[1,1]\n1 [2],[],[],[2]\n"
    code, out, _ = run(capsys, "kernel-layer", "0", "3")
    assert out == "0\n"


def test_homdim_and_quadkernel(capsys):
    code, out, _ = run(capsys, "homdim", "2,2,1,1", "end")
    assert out == "4\n"
    code, out, _ = run(capsys, "homdim", "1,2,1,0", "shift-left")
    assert out == "4\n"
    code, out, _ = run(capsys, "quadkernel", "0,2,2,0")
    assert out == "2\n"
    code, out, _ = run(capsys, "quadkernel", "0,2,2,0", "--check")
    assert out == "2\ncheck: ok\n"


def test_osp_commands(capsys):
    code, out, _ = run(capsys, "osp", "--kind", "o", "defect", "1,0", "0,1")
    assert out == "1\n"
    code, out, _ = run(capsys, "osp", "--kind", "o", "layers", "1")
    assert out.splitlines() == ["layer 0:", "  1 []", "layer 1:", "  1 [2]"]
    code, out, _ = run(capsys, "osp", "--kind", "sp", "ext-trivial", "[2,1,1]", "[]", "--degree", "2")
    assert out == "1\n"
    code, out, _ = run(capsys, "osp", "--kind", "o", "conjugate", "[2]", "[]")
    assert out == "sp [1,1],[]\n"


def test_chains_text_is_bounded_before_any_chain_is_listed(capsys, monkeypatch):
    def refuse(a, b):
        raise AssertionError("chains were listed")

    monkeypatch.setattr(cli.poset, "chains", refuse)
    # 18,150 chains of 12 elements: 2,341,350 bytes with one-digit entries, admitted;
    # with 100-digit first entries the same chains print 23,903,550 bytes, refused
    huge = 10**99
    code, out, err = run(capsys, "chains", f"{huge + 7},0,0,9", f"{huge},2,4,0")
    assert code == 2 and out == "" and "chains text bytes 23903550 exceeds the fixed limit 2500000" in err
    monkeypatch.setattr(cli.poset, "chains", lambda a, b: [])
    code, out, err = run(capsys, "chains", "7,0,0,9", "0,2,4,0")
    assert (code, out, err) == (0, "(none)\n", "")


def test_chains_without_a_chain_print_none_before_any_walk(capsys, monkeypatch):
    def refuse(a):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(cli.poset, "_up_moves", refuse)
    huge = 10**599
    # a different invariant, a inside b's box: the walk would never end without the up-front check
    code, out, err = run(capsys, "chains", f"{huge},0,0,{huge}", f"0,{huge},{huge},1")
    assert (code, out, err) == (0, "(none)\n", "")
    # the same invariant, a outside b's box (its p is smaller than b's)
    code, out, err = run(capsys, "chains", f"{huge},0,0,0", f"1,{huge},0,1")
    assert (code, out, err) == (0, "(none)\n", "")


def test_ext_trivial_is_ext_thick_at_the_empty_target(capsys):
    # one body answers and refuses for both: the cap bounds the index degree and --degree alike
    for index in all_indices_up_to(4):
        text = index_label(index)
        for degree in range(14):
            trivial = run(capsys, "ext-trivial", text, "--degree", str(degree))
            assert trivial == run(capsys, "ext-thick", text, "[]", "[]", "--degree", str(degree)), (text, degree)
            assert trivial[0] == (2 if degree > 12 else 0), (text, degree)


def test_exit_codes(capsys):
    code, out, err = run(capsys, "lr", "bogus", "[1]", "[2]")
    assert code == 1 and out == "" and "position 0" in err
    code, out, err = run(capsys, "resolution", "-1")
    assert code == 1 and out == "" and "resolution degree must be non-negative" in err
    code, out, err = run(capsys, "--degree-cap", "3", "decompose", "2,2,2,2")
    assert code == 2 and "cap" in err
    code, out, err = run(capsys, "homdim", "0,0,1,0", "contract")
    assert code == 1 and "m" in err
    code, out, err = run(capsys, "--degree-cap", "4", "lr", "[4,4,2]", "[3,2]", "[3,2]")
    assert code == 2 and out == "" and "degree 10 exceeds the configured cap 4" in err
    code, out, err = run(capsys, "--degree-cap", "10", "lr", "[4,4,2]", "[3,2]", "[3,2]")
    assert (code, out) == (0, "1\n")
    code, out, err = run(capsys, "--degree-cap", "4", "ext-thick", "[2],[],[],[1,1]", "[1]", "[1]", "--degree", "5")
    assert code == 2 and out == "" and "degree 5 exceeds the configured cap 4" in err
    code, out, err = run(capsys, "--degree-cap", "4", "ext-thick", "[2],[],[],[1,1]", "[1]", "[1]", "--degree", "1")
    assert (code, out) == (0, "1\n")
    index_79 = "[12,11,10,9,8,7,6,5,4,3,2,1],[],[],[1]"
    code, out, err = run(capsys, "ext-thick", index_79, "[11,10,9,8,7,6,5,4,3,2,1]", "[]", "--degree", "12")
    assert code == 2 and out == "" and "degree 79 exceeds the configured cap 12" in err
    code, out, err = run(capsys, "homdim", "13,0,0,0", "end")
    assert code == 2 and out == "" and "degree 13 exceeds the configured cap 12" in err
    code, out, err = run(capsys, "--degree-cap", "13", "homdim", "13,0,0,0", "end")
    assert (code, out) == (0, "6227020800\n")
    code, out, err = run(capsys, "quadkernel", "0,11,2,0")
    assert code == 2 and out == "" and "degree 13 exceeds the configured cap 12" in err
    code, out, err = run(capsys, "--group-guard", "3", "quadkernel", "0,2,2,0", "--check")
    assert code == 2 and out == "" and "total boxes 4 exceeds the group-algebra guard 3" in err
    code, out, err = run(capsys, "chains", "6,0,0,6", "0,6,6,0")
    assert code == 2 and out == "" and "chains text bytes 119528640 exceeds the fixed limit 2500000" in err
    # the least text over the limit at the default cap: 18,150 chains of 12 elements, one entry of two digits
    code, out, err = run(capsys, "chains", "12,0,0,4", "10,7,9,0")
    assert code == 2 and out == "" and "chains text bytes 2559150 exceeds the fixed limit 2500000" in err
    code, out, err = run(capsys, "chains", "3,0,0,4", "0,6,7,0")
    assert code == 2 and out == "" and "chains text bytes 2973600 exceeds the fixed limit 2500000" in err
    code, out, err = run(capsys, "chains", "7,0,0,7", "0,7,7,0")
    assert code == 2 and out == "" and "chain length 14 exceeds the configured cap 12" in err
    code, out, err = run(capsys, "chains", "4,0,0,4", "0,4,4,0")
    assert code == 0 and len(out.splitlines()) == 4900 and len(out) == 470400  # the bound, to the byte
    # long chains: counted in closed form and listed without deep recursion
    code, out, err = run(capsys, "--degree-cap", "2000", "chains", "1000,0,0,0", "0,1000,0,0")
    assert code == 0 and len(out.splitlines()) == 1 and out.count(" -> ") == 1000 and err == ""
    code, out, err = run(capsys, "--degree-cap", "2000", "chains", "400,0,0,400", "0,400,400,0")
    assert code == 2 and out == "" and "exceeds the fixed limit 2500000" in err
    for argv in (
        ["ext-trivial", "[3],[],[],[1,1]", "--degree", "3"],
        ["osp", "--kind", "sp", "ext-trivial", "[5]", "[]", "--degree", "2"],
        ["osp", "--kind", "o", "conjugate", "[5]", "[]"],
        ["osp", "--kind", "o", "conjugate", "[3]", "[1,1]"],
    ):
        code, out, err = run(capsys, "--degree-cap", "4", *argv)
        assert code == 2 and out == "" and "degree 5 exceeds the configured cap 4" in err, argv
    for argv, refusal in (
        (["plethysm", "cauchy-sym", "3"], "degree 6"),
        (["plethysm", "sym-ext2", "3"], "degree 6"),
        (["product", "[3]", "[2]"], "degree 5"),
        (["socle", "2,1,1,1"], "degree 5"),
        (["layers", "3"], "degree 6"),
        (["kernel-layer", "2", "1"], "degree 6"),
        (["resolution", "3"], "degree 6"),
        (["osp", "--kind", "o", "layers", "3"], "degree 6"),
    ):
        code, out, err = run(capsys, "--degree-cap", "4", *argv)
        assert code == 2 and out == "" and f"{refusal} exceeds the configured cap 4" in err, argv
    # the cap bounds the largest degree built: one step below each refusal passes
    for argv in (
        ["plethysm", "cauchy-sym", "2"],
        ["plethysm", "sym-ext2", "2"],
        ["layers", "2"],
        ["resolution", "2"],
        ["osp", "--kind", "o", "layers", "2"],
    ):
        code, out, err = run(capsys, "--degree-cap", "4", *argv)
        assert code == 0 and out and err == "", argv
    code, out, err = run(capsys, "--degree-cap", "4", "osp", "--kind", "o", "conjugate", "[2,1]", "[1]")
    assert (code, out) == (0, "sp [2,1],[1]\n")
    code, out, err = run(capsys, "--degree-cap", "4", "ext-trivial", "[2],[],[],[1,1]", "--degree", "2")
    assert (code, out) == (0, "1\n")
    for argv in (
        ["--verify", "lr", "[2,1]", "[1]", "[2]"],
        ["--output", "json", "--verify", "defect", "0,0,0,0", "0,0,0,0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "--verify takes no subcommand" in err, argv


def test_non_ascii_digits_exit_one_with_position(capsys):
    for argv, pos in (
        (["lr", "[²]", "[1]", "[1]"], 1),
        (["decompose", "١,1,1,1"], 0),
        (["osp", "--kind", "o", "leq", "1,١", "0,1"], 2),
        (["osp", "--kind", "sp", "defect", "1,0", "x,1"], 0),
        (["ext-trivial", "[1],[x],[],[]", "--degree", "1"], 5),
        # only ASCII whitespace is skipped around a token
        (["decompose", "0,1,1,0\u00a0"], 6),
        (["lr", "[2,1]\u3000", "[1]", "[2]"], 5),
        (["socle", "\u20280,1,1,0"], 0),
        (["osp", "--kind", "o", "defect", "1,\u00a00", "0,1"], 2),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"at position {pos} in" in err, (argv, err)


def test_argparse_usage_errors_exit_one(capsys):
    for argv in (
        "plethysm not-a-family 2",
        # the osp group and its commands are read by the same reader: each exits 1 too
        "osp",
        "osp --kind x leq 1,0 0,1",
        "osp --kind o nosuch",
        "osp --kind o leq",
        "covers 0,0,0,0",
        "homdim 0,1,1,0 nope",
    ):
        assert main(argv.split()) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: tensorcat"), argv


def test_grammar_is_strict(capsys):
    # an option is spelled in full and given once, "--" is no option; each is a usage error inside the one try
    for argv in (
        "--degree-c 3 lr [2,1] [1] [2]",
        "--out json lr [2,1] [1] [2]",
        "covers 0,0,0,0 --bou 2",
        "osp --kin o leq 1,0 0,1",
        "ext-trivial [1],[],[],[1] --degree 1 --degree 2",
        "--output json --output=json lr [2,1] [1] [2]",
        "quadkernel 0,2,2,0 --check --check",
        "quadkernel 0,2,2,0 --check=yes",
        "lr -- [2,1] [1] [2]",
        "-- lr [2,1] [1] [2]",
        "covers 0,0,0,0 --bound",
    ):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, ""), argv
        usage, error = err.splitlines()
        assert usage.startswith("usage: tensorcat") and error.startswith("tensorcat: error: "), argv
    for joined in ("--degree-cap=5 decompose 2,2,2,2", "--output=json covers 0,0,0,0 --bound=2"):
        split = [part for word in joined.split() for part in word.split("=")]
        assert run(capsys, *joined.split()) == run(capsys, *split), joined
    # a word that does not start with "--" (other than -h) reaches its positional's reader; "--5" is an option name
    assert run(capsys, "layers", "-1") == (1, "", "tensorcat: error: kmax must be non-negative\n")
    assert run(capsys, "layers", "--5") == (1, "", "usage: tensorcat layers [-h] kmax\n"
                                                   "tensorcat: error: unrecognized argument '--5'\n")


def test_help_is_fixed_text(capsys):
    texts = {}  # main returns 0 for help, it raises no SystemExit
    for argv in (["--help"], ["osp", "-h"], ["--output", "json", "osp", "--kind", "o", "leq", "--help"]):
        code, texts[tuple(argv)], err = run(capsys, *argv)
        assert code == 0 and err == "", argv
    assert texts[("--help",)].startswith("usage: tensorcat [-h] [--output {text,json}]")
    assert texts[("osp", "-h")].splitlines()[-1] == "  conjugate         the simple of the other variant"
    # the same bytes on every terminal width
    for argv in (["--help"], ["homdim", "--help"], ["nosuch"]):
        done = [subprocess.run([sys.executable, "-m", "tensorcat", *argv], capture_output=True, timeout=60,
                               env=child_env(COLUMNS=columns)) for columns in ("20", "300")]
        assert done[0].stdout == done[1].stdout and done[0].stderr == done[1].stderr, argv
        assert done[0].returncode == (1 if argv == ["nosuch"] else 0), argv


def test_a_call_imports_no_argument_parser():
    # the grammar is read without argparse, so a call loads neither it nor what it pulls in
    _, _, called = _start_up()
    assert not {"argparse", "gettext", "locale", "shutil"} & called, called


def test_config_path_may_not_be_empty(tmp_path, capsys, monkeypatch):
    # an empty path, from the flag or the environment, is refused in words naming its source
    config = tmp_path / "tensorcat.conf"
    config.write_text("degree_cap = 3\n", encoding="utf-8")
    monkeypatch.setenv("TENSORCAT_CONFIG", str(config))
    for argv in (["--config", ""], ["--config="]):
        assert run(capsys, *argv, "decompose", "2,2,0,0") == (1, "", "tensorcat: error: bad --config '': empty path\n")
    code, out, err = run(capsys, "decompose", "2,2,0,0")
    assert code == 2 and "degree 4 exceeds the configured cap 3" in err
    monkeypatch.setenv("TENSORCAT_CONFIG", "")
    assert run(capsys, "decompose", "2,2,0,0") == (1, "", "tensorcat: error: bad TENSORCAT_CONFIG '': empty path\n")


def test_integer_arguments_are_strict_ascii(capsys, monkeypatch):
    # reading the words converts no integer: each is refused in the one try, in ascii_int's words, with no usage line
    for argv, what, text in (
        (["layers", "١"], "integer", "١"),
        (["kernel-layer", "1", "1_0"], "integer", "1_0"),
        (["layers", "+2"], "integer", "+2"),
        (["layers", " 1"], "integer", " 1"),
        (["covers", "0,0,0,0", "--bound", "+1"], "integer", "+1"),
        (["osp", "--kind", "o", "ext-trivial", "[]", "[]", "--degree", "1_0"], "integer", "1_0"),
        (["--degree-cap", "١٢", "lr", "[2,1]", "[1]", "[2]"], "--degree-cap", "١٢"),
        (["--group-guard", "x", "quadkernel", "0,2,2,0", "--check"], "--group-guard", "x"),
    ):
        assert run(capsys, *argv) == (1, "", f"tensorcat: error: bad {what} {text!r}\n"), argv
    monkeypatch.setenv("TENSORCAT_DEGREE_CAP", "1_2")
    code, out, err = run(capsys, "lr", "[2,1]", "[1]", "[2]")
    assert code == 1 and out == "" and "bad TENSORCAT_DEGREE_CAP '1_2'" in err
    monkeypatch.setenv("TENSORCAT_DEGREE_CAP", "12")
    code, out, err = run(capsys, "--degree-cap", "-1", "lr", "[]", "[]", "[]")
    assert code == 2 and out == "" and "degree 0 exceeds the configured cap -1" in err


def test_argparse_converts_no_value():
    # cli reads its own grammar inside main's one try, so no module of the package imports argparse
    assert importers("argparse") == set()


def test_cli_import_loads_neither_typing_nor_re():
    # the records are collections.namedtuple types: no module imports typing, and nothing else pulls in re
    assert importers("typing") == set()
    _, imported, _ = _start_up()
    assert not {"typing", "re"} & imported, imported


def test_output_determinism(capsys):
    first = run(capsys, "decompose", "0,2,1,0")
    second = run(capsys, "decompose", "0,2,1,0")
    assert first == second


def test_json_outputs_validate_against_schema(capsys):
    VALIDATOR.check_schema(SCHEMA)
    commands = [
        ["lr", "[2,1]", "[1]", "[2]"],
        ["product", "[2,1]", "[1]"],
        ["plethysm", "cauchy-sym", "2"],
        ["plethysm", "sym-sym2", "2"],
        ["decompose", "0,1,1,0"],
        ["socle", "1,0,0,1"],
        ["layers", "2"],
        ["defect", "1,0,0,1", "0,1,1,0"],
        ["defect", "0,1,0,0", "1,0,0,0"],
        ["chains", "1,0,0,1", "0,1,1,0"],
        ["covers", "0,0,0,0", "--bound", "2"],
        ["ext-trivial", "[1],[],[],[1]", "--degree", "1"],
        ["ext-thick", "[2],[],[],[1,1]", "[1]", "[1]", "--degree", "1"],
        ["ext-vanishes", "[],[],[],[]", "[],[],[],[]", "--degree", "0"],
        ["resolution", "2"],
        ["kernel-layer", "0", "2"],
        ["homdim", "1,2,1,0", "contract"],
        ["quadkernel", "0,2,2,0", "--check"],
        ["osp", "--kind", "o", "leq", "1,0", "0,1"],
        ["osp", "--kind", "sp", "layers", "1"],
        ["osp", "--kind", "o", "conjugate", "[2]", "[]"],
    ]
    for argv in commands:
        code = main(["--output", "json"] + argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        document = json.loads(captured.out)
        VALIDATOR.validate(document)


def test_config_precedence(tmp_path, capsys, monkeypatch):
    config = tmp_path / "tensorcat.conf"
    config.write_text("degree_cap = 4\n# comment\n", encoding="utf-8")
    # file alone: cap 4 refuses degree 8
    code, _, err = run(capsys, "--config", str(config), "decompose", "2,2,2,2")
    assert code == 2
    # env overrides file
    monkeypatch.setenv("TENSORCAT_DEGREE_CAP", "8")
    code, out, _ = run(capsys, "--config", str(config), "decompose", "2,2,2,2")
    assert code == 0 and out
    # flag overrides env
    code, _, err = run(capsys, "--config", str(config), "--degree-cap", "5", "decompose", "2,2,2,2")
    assert code == 2
    monkeypatch.delenv("TENSORCAT_DEGREE_CAP")
    monkeypatch.setenv("TENSORCAT_CONFIG", str(config))
    code, _, err = run(capsys, "decompose", "2,2,2,2")
    assert code == 2
    monkeypatch.delenv("TENSORCAT_CONFIG")


def test_config_file_values_are_strict_ascii(tmp_path, capsys):
    config = tmp_path / "tensorcat.conf"
    config.write_text("degree_cap = 12\u00a0\n", encoding="utf-8")
    code, out, err = run(capsys, "--config", str(config), "layers", "1")
    assert code == 1 and out == "" and "bad degree_cap '12\\xa0'" in err
    config.write_text(" degree_cap\t= 4 \r\n", encoding="utf-8")
    code, _, err = run(capsys, "--config", str(config), "decompose", "2,2,2,2")
    assert code == 2 and "degree 8 exceeds the configured cap 4" in err


def test_config_file_that_is_not_utf8_is_named(tmp_path, capsys):
    config = tmp_path / "tensorcat.conf"
    config.write_bytes(b"degree_cap = 4 # \xff\n")
    assert run(capsys, "--config", str(config), "layers", "1") == (
        1, "", f"tensorcat: error: config file {config} is not UTF-8: invalid start byte at byte 17\n"
    )


def test_config_file_size_is_bounded(tmp_path, capsys):
    from tensorcat.config import CONFIG_FILE_LIMIT

    config = tmp_path / "tensorcat.conf"
    line = "degree_cap = 4\n"
    config.write_bytes((line + "#" * (CONFIG_FILE_LIMIT - len(line) - 1) + "\n").encode())
    assert config.stat().st_size == CONFIG_FILE_LIMIT
    code, _, err = run(capsys, "--config", str(config), "decompose", "2,2,2,2")
    assert code == 2 and "degree 8 exceeds the configured cap 4" in err
    config.write_bytes(config.read_bytes() + b"\n")
    code, out, err = run(capsys, "--config", str(config), "layers", "1")
    assert code == 1 and out == "" and f"exceeds {CONFIG_FILE_LIMIT} bytes" in err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_a_fifo_config_without_a_writer_reads_as_empty(tmp_path, capsys):
    # opening a FIFO waits for a writer unless asked not to; the config file is opened without waiting
    fifo = tmp_path / "tensorcat.conf"
    os.mkfifo(fifo)
    for argv, extra in ((["--config", str(fifo)], {}), ([], {"TENSORCAT_CONFIG": str(fifo)})):
        done = subprocess.run([sys.executable, "-m", "tensorcat", *argv, "layers", "1"], capture_output=True,
                              text=True, timeout=60, env=child_env(**extra))
        assert (done.returncode, done.stdout, done.stderr) == (0, GOLDEN[("layers", "1")], ""), argv
    # a directory and a missing file are still refused in words naming the path
    for config, number in ((tmp_path, errno.EISDIR), (tmp_path / "missing", errno.ENOENT)):
        assert run(capsys, "--config", str(config), "layers", "1") == (
            1, "", f"tensorcat: error: [Errno {number}] {os.strerror(number)}: '{config}'\n"
        )


def test_overlong_numbers_are_refused_in_tensorcat_s_own_words(tmp_path, capsys, monkeypatch):
    # int() refuses very long texts in words that differ between interpreters;
    # every number read from text is refused first, past 600 digits
    ones = "1" * 5000
    for argv, pos, what in (
        (["decompose", f"{ones},0,0,0"], 0, "entry"),
        (["decompose", f"0,{ones},0,0"], 2, "entry"),
        (["lr", f"[{ones}]", "[1]", "[1]"], 1, "part"),
        (["osp", "--kind", "o", "leq", f"1,{ones}1", "0,1"], 2, "entry"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"tensorcat: error: bad {what}: more than 600 digits at position {pos} in "), err[:80]
    code, out, err = run(capsys, "decompose", "1" * 600 + ",0,0,0")  # the longest number is read, then capped
    assert code == 2 and err.startswith("tensorcat: refused: degree 111")
    monkeypatch.setenv("TENSORCAT_DEGREE_CAP", ones)
    code, out, err = run(capsys, "layers", "1")
    assert (code, out) == (1, "") and err.startswith("tensorcat: error: bad TENSORCAT_DEGREE_CAP '111")
    assert err.endswith("': more than 600 digits\n")
    monkeypatch.delenv("TENSORCAT_DEGREE_CAP")
    config = tmp_path / "tensorcat.conf"
    config.write_text(f"group_guard = {ones}\n", encoding="utf-8")
    for argv, what in (
        (["--config", str(config), "layers", "1"], "group_guard"),
        (["--degree-cap", ones, "layers", "1"], "--degree-cap"),
        (["layers", ones], "integer"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith(f"tensorcat: error: bad {what} '111"), argv
        assert err.endswith("': more than 600 digits\n"), argv
    # the same words at CPython's lowest int() digit limit, where 640 digits would already be refused
    env = child_env(PYTHONINTMAXSTRDIGITS="640")
    done = subprocess.run(
        [sys.executable, "-m", "tensorcat", "decompose", f"{ones},0,0,0"], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("tensorcat: error: bad entry: more than 600 digits at position 0 in ")
    done = subprocess.run(
        [sys.executable, "-m", "tensorcat", "decompose", ",".join(["9" * 600] * 4)], env=env,
        capture_output=True, text=True, timeout=60,
    )  # the refusal prints their 601-digit sum
    assert done.returncode == 2 and done.stderr.startswith("tensorcat: refused: degree 3999"), done.stderr[-200:]


def test_removed_cache_interface_is_rejected_or_ignored(tmp_path, capsys, monkeypatch):
    for argv in (["cache", "info"], ["--cache-dir", str(tmp_path), "lr", "[2,1]", "[1]", "[2]"]):
        assert main(argv) == 1, argv
    capsys.readouterr()
    cache_dir = tmp_path / "cache"
    config = tmp_path / "tensorcat.conf"
    config.write_text(f"cache_dir = {cache_dir}\n", encoding="utf-8")
    assert run(capsys, "--config", str(config), "lr", "[2,1]", "[1]", "[2]") == (0, "1\n", "")
    monkeypatch.setenv("TENSORCAT_CACHE_DIR", str(cache_dir))
    assert run(capsys, "lr", "[2,1]", "[1]", "[2]") == (0, "1\n", "")
    assert list(tmp_path.iterdir()) == [config]


def test_missing_subcommand(capsys):
    code, out, err = run(capsys)
    assert code == 1 and "subcommand" in err


def test_errors_keep_their_order_in_the_one_try(tmp_path, capsys, monkeypatch):
    # the configuration is resolved before the handler is chosen: its error wins over both usage errors
    monkeypatch.setenv("TENSORCAT_DEGREE_CAP", "x")
    for argv in (["--verify", "layers", "1"], []):
        assert run(capsys, *argv) == (1, "", "tensorcat: error: bad TENSORCAT_DEGREE_CAP 'x'\n"), argv
    monkeypatch.delenv("TENSORCAT_DEGREE_CAP")
    code, out, err = run(capsys, "--config", str(tmp_path / "missing.conf"), "lr", "[1]", "[1]", "[]")
    assert (code, out) == (1, "") and err.startswith("tensorcat: error: ") and "missing.conf" in err
    # then --verify is checked, and only a missing subcommand prints the usage line first
    assert run(capsys, "--verify", "layers", "1") == (1, "", "tensorcat: error: --verify takes no subcommand\n")
    code, out, err = run(capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: tensorcat") and err.endswith("\ntensorcat: error: a subcommand is required\n")


def test_verify_mode(capsys):
    code, out, err = run(capsys, "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.endswith(": ok") for line in lines)


def test_verify_failure_prints_the_report_and_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(plethysm, "cauchy_ext", lambda k: Combination())  # a seeded fault
    code, out, err = run(capsys, "--verify")
    rows = [line.rsplit(": ", 1) for line in out.splitlines()]
    assert code == 1 and err == ""
    assert [flag for _, flag in rows] == ["ok", "ok", "FAIL", "ok", "ok", "ok", "ok"]
    assert rows[2][0] == "check cauchy pairs vs brute-force powers"
    code, out, err = run(capsys, "--output", "json", "--verify")
    document = json.loads(out)
    VALIDATOR.validate(document)
    assert code == 1 and document["result"]["ok"] is False
    assert [check["ok"] for check in document["result"]["checks"]] == [True, True, False, True, True, True, True]


# the cap's edge, far past it, a negative, then texts every integer reader refuses
_N = st.sampled_from([*map(str, [*range(8), 12, 13, 100, 10**6, -1]), "+2", "1_0", "١", "1" * 601])
_P = st.lists(st.integers(1, 8), max_size=5).map(lambda rows: str(sorted(rows, reverse=True)).replace(" ", ""))
# the words each declared reader is fuzzed with
_READS = {
    ascii_int: _N,  # an entry or count
    parse_partition: _P,
    parse_quad: st.lists(_N, min_size=4, max_size=4).map(",".join),
    ospcat.parse_pair: st.lists(_N, min_size=2, max_size=2).map(",".join),
    parse_simple_index: st.lists(_P, min_size=4, max_size=4).map(",".join),
}


def _words(spec):
    """The fuzz words of one argument: a choices tuple draws from itself, a reader from ``_READS``."""
    if not isinstance(spec, tuple) and spec not in _READS:
        raise LookupError(f"no fuzz words for the reader {spec.__module__}.{spec.__qualname__}")
    return st.sampled_from(spec) if isinstance(spec, tuple) else _READS[spec]


def _extend(shapes: list[list], declared) -> list[list]:
    """Each shape followed by the declared arguments in order; a flag both omitted and given."""
    for name, spec in declared:
        if spec is None:
            shapes = shapes + [[*shape, st.just(name)] for shape in shapes]
        else:
            shapes = [[*shape, *([st.just(name)] if name[0] == "-" else []), _words(spec)] for shape in shapes]
    return shapes


def _shapes(name: str) -> list[list]:
    """Every argv shape of a declared command, as strategies: a group's word and options (``osp --kind``), then
    the command's word and arguments, read from ``cli.declaration``."""
    group, _, word = name.rpartition(" ")
    shapes = _extend([[st.just(group)]], list(cli.declaration(group)[0].items())[:-1]) if group else [[]]
    return _extend([[*shape, st.just(word)] for shape in shapes], cli.declaration(name)[0].items())


# deferred, so that a reader without fuzz words fails the fuzz test by name, not the module's collection
_ARGVS = st.deferred(lambda: st.tuples(*(st.tuples(*shape) for name, *_ in cli.COMMANDS for shape in _shapes(name))))


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.sampled_from(["4", "12", "20"]), st.sampled_from([[], ["--output", "json"]]), _ARGVS)
def test_grammar_fuzz_exits_cleanly(cap, mode, argvs):
    for argv in (["--degree-cap", cap, *mode, *words] for words in argvs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert (out.getvalue() == "") == (code != 0), argv  # a failed call prints nothing on stdout
        if mode and not code:
            VALIDATOR.validate(json.loads(out.getvalue()))


def test_every_declared_command_is_golden():
    declared = {name for name, *_ in cli.COMMANDS}
    assert len(declared) == len(cli.COMMANDS)
    names = {handler: name for name, handler, *_ in cli.COMMANDS}
    passed = (cli.read_argv(case["argv"]) for case in CORPUS if case["exit"] == 0)
    golden = {(names[args.handler], args.output or "text") for args in passed if args.handler}  # not --verify, --help
    assert golden == {(name, mode) for name in declared for mode in ("text", "json")}


def test_subprocess_byte_determinism():
    argv = [sys.executable, "-m", "tensorcat", "--output", "json", "decompose", "0,2,1,0"]
    env = child_env()
    first = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    second = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    # -O strips asserts
    optimized = subprocess.run([sys.executable, "-O", *argv[1:]], capture_output=True, env=env, timeout=60)
    assert first.returncode == 0 == optimized.returncode
    assert first.stdout == second.stdout == optimized.stdout
    assert first.stdout.endswith(b"\n")


SHORT, LONG = ["defect", "0,1,0,0", "1,0,0,0"], ["decompose", "0,6,6,0"]  # one line; 6,051 lines, 162 kB
JSON = ["--output", "json"]


def _tensorcat(argv: list[str], buffered: bool, **streams) -> subprocess.Popen:
    """``python -m tensorcat`` on ``argv``, with stdout block-buffered (the default) or not (``-u``)."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    flags = [] if buffered else ["-u"]
    return subprocess.Popen([sys.executable, *flags, "-m", "tensorcat", *argv], env=env,
                            **{"stderr": subprocess.PIPE, **streams})


def test_a_closed_pipe_ends_the_call_quietly_with_exit_one():
    for buffered in (True, False):
        for argv in (SHORT, LONG, JSON + SHORT, JSON + LONG):
            # the reader is gone before the first byte: no write can succeed
            read, write = os.pipe()
            os.close(read)
            try:
                proc = _tensorcat(argv, buffered, stdout=write)
            finally:
                os.close(write)
            assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b""), (argv, buffered)
            proc.stderr.close()
            # the reader takes the first line and goes, as ``head -1`` does: only a longer output is cut off
            proc = _tensorcat(argv, buffered, stdout=subprocess.PIPE)
            first = proc.stdout.readline()
            proc.stdout.close()
            cut = argv == LONG
            assert (proc.wait(timeout=60), proc.stderr.read()) == (int(cut), b""), (argv, buffered)
            proc.stderr.close()
            assert first.endswith(b"\n"), argv


def test_a_full_device_is_an_error_exit():
    for buffered in (True, False):
        for argv in (SHORT, JSON + LONG, ["--help"]):
            with open("/dev/full", "wb") as full:
                proc = _tensorcat(argv, buffered, stdout=full)
            assert proc.wait(timeout=60) == 1, (argv, buffered)
            assert proc.stderr.read() == b"tensorcat: error: [Errno 28] No space left on device\n", (argv, buffered)
            proc.stderr.close()


def test_a_failed_write_is_an_error_exit(capsys):
    def fail(error):
        def write(*text):
            raise error

        return write

    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    for argv in (SHORT, JSON + LONG, ["--help"], ["osp", "-h"]):
        out = []
        assert cli.call(argv, {}, fail(full)) == 1, argv
        assert cli.call(argv, {}, out.append, fail(full)) == 1, argv  # the flush after the last write
        assert capsys.readouterr() == ("", "tensorcat: error: [Errno 28] No space left on device\n" * 2), argv
        assert cli.call(argv, {}, fail(BrokenPipeError(errno.EPIPE, "Broken pipe"))) == 1, argv
        assert capsys.readouterr() == ("", ""), argv  # a closed pipe says nothing


REFUSED = ["--degree-cap", "1", "decompose", "1,1,1,1"]


def test_a_full_diagnostic_device_keeps_the_exit_code():
    # stderr on a full device: a refusal still exits 2, a usage error 1, and a good call 0 with its stdout intact
    for buffered in (True, False):
        for argv, code, text in ((REFUSED, 2, b""), (["nosuch"], 1, b""), (SHORT, 0, b"undefined\n")):
            with open("/dev/full", "wb") as full:
                proc = _tensorcat(argv, buffered, stdout=subprocess.PIPE, stderr=full)
            with proc.stdout:
                assert (proc.stdout.read(), proc.wait(timeout=60)) == (text, code), (argv, buffered)
        with open("/dev/full", "wb") as full:  # both streams full: the failed result write is an error exit
            assert _tensorcat(SHORT, buffered, stdout=full, stderr=full).wait(timeout=60) == 1, buffered


def test_a_failed_diagnostic_write_keeps_the_exit_code(monkeypatch):
    class Full:
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fail(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stderr", Full())
    out = []
    assert cli.call(REFUSED, {}, out.append) == 2
    assert cli.call(["nosuch"], {}, out.append) == 1
    assert cli.call(SHORT, {}, fail) == 1  # the result's write fails, and then its diagnostic's
    assert (cli.call(SHORT, {}, out.append), out) == (0, ["undefined\n"])


def test_call_reads_its_env_not_the_process_environment(capsys, monkeypatch):
    monkeypatch.setenv("TENSORCAT_DEGREE_CAP", "1")
    out = []
    assert cli.call(["decompose", "1,1,1,1"], {}, out.append) == 0
    assert (out[0], len(out)) == ("1 [1],[],[],[1]\n", 10)
    assert cli.call(["decompose", "1,1,1,1"], {"TENSORCAT_DEGREE_CAP": "1"}, out.append) == 2
    assert main(["decompose", "1,1,1,1"]) == 2  # main passes the process's environment
    assert capsys.readouterr() == ("", "tensorcat: refused: degree 4 exceeds the configured cap 1\n" * 2)
