from __future__ import annotations

import json
from pathlib import Path

import pytest

from tensorcat.cli import main, parse_simple_index
from tensorcat.errors import ParseError
from tensorcat.grothendieck import simple

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "schema" / "output.json"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_exit_codes(capsys):
    code, out, err = run(capsys, "lr", "bogus", "[1]", "[2]")
    assert code == 1 and out == "" and "position 0" in err
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
    code, out, err = run(capsys, "homdim", "13,0,0,0", "end")
    assert code == 2 and out == "" and "degree 13 exceeds the configured cap 12" in err
    code, out, err = run(capsys, "--degree-cap", "13", "homdim", "13,0,0,0", "end")
    assert (code, out) == (0, "6227020800\n")
    code, out, err = run(capsys, "quadkernel", "0,11,2,0")
    assert code == 2 and out == "" and "degree 13 exceeds the configured cap 12" in err
    code, out, err = run(capsys, "chains", "6,0,0,6", "0,6,6,0")
    assert code == 2 and out == "" and "saturated chains 853776 exceeds the fixed limit 100000" in err
    code, out, err = run(capsys, "chains", "7,0,0,7", "0,7,7,0")
    assert code == 2 and out == "" and "chain length 14 exceeds the configured cap 12" in err
    code, out, err = run(capsys, "chains", "4,0,0,4", "0,4,4,0")
    assert code == 0 and len(out.splitlines()) == 4900
    for argv in (
        ["ext-trivial", "[3],[],[],[1,1]", "--degree", "3"],
        ["osp", "--kind", "sp", "ext-trivial", "[5]", "[]", "--degree", "2"],
        ["osp", "--kind", "o", "conjugate", "[5]", "[]"],
        ["osp", "--kind", "o", "conjugate", "[3]", "[1,1]"],
    ):
        code, out, err = run(capsys, "--degree-cap", "4", *argv)
        assert code == 2 and out == "" and "degree 5 exceeds the configured cap 4" in err, argv
    code, out, err = run(capsys, "--degree-cap", "4", "osp", "--kind", "o", "conjugate", "[2,1]", "[1]")
    assert (code, out) == (0, "sp [2,1],[1]\n")
    code, out, err = run(capsys, "--degree-cap", "4", "ext-trivial", "[2],[],[],[1,1]", "--degree", "2")
    assert (code, out) == (0, "1\n")


def test_non_ascii_digits_exit_one_with_position(capsys):
    for argv, pos in (
        (["lr", "[²]", "[1]", "[1]"], 1),
        (["decompose", "١,1,1,1"], 0),
        (["osp", "--kind", "o", "leq", "1,١", "0,1"], 2),
        (["osp", "--kind", "sp", "defect", "1,0", "x,1"], 0),
        (["ext-trivial", "[1],[x],[],[]", "--degree", "1"], 5),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"at position {pos} in" in err, (argv, err)


def test_argparse_usage_errors_exit_one():
    with pytest.raises(SystemExit) as err:
        main(["plethysm", "not-a-family", "2"])
    assert err.value.code == 1


def test_output_determinism(capsys):
    first = run(capsys, "decompose", "0,2,1,0")
    second = run(capsys, "decompose", "0,2,1,0")
    assert first == second


def test_json_outputs_validate_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
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
        jsonschema.validate(document, schema)


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


def test_removed_cache_interface_is_rejected_or_ignored(tmp_path, capsys, monkeypatch):
    for argv in (["cache", "info"], ["--cache-dir", str(tmp_path), "lr", "[2,1]", "[1]", "[2]"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1, argv
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


def test_verify_mode(capsys):
    code, out, err = run(capsys, "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.endswith(": ok") for line in lines)


def test_subprocess_byte_determinism():
    import subprocess
    import sys

    argv = [sys.executable, "-m", "tensorcat", "--output", "json", "decompose", "0,2,1,0"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
