"""The interpreter sweep (tools/check_interpreters.py), driven with stub interpreters.

A stub is an executable script that answers ``--version`` and, in place of
the corpus check, prints a fixed sha; so the sweep's comparison is tested
without running the corpus.
"""

from __future__ import annotations

from pathlib import Path

from quads import ROOT, load_tool


def stub(directory: Path, name: str, sha: str, code: int = 0) -> str:
    path = directory / name
    path.write_text(
        "#!/bin/sh\n"
        f'if [ "$1" = --version ]; then echo "Python 0.0.{name}"; exit 0; fi\n'
        f"echo {sha}\n"
        f"exit {code}\n"
    )
    path.chmod(0o755)
    return str(path)


def test_sweep_passes_on_one_sha_and_fails_on_two_or_a_failed_check(tmp_path, capsys):
    tool = load_tool("check_interpreters")
    same = [stub(tmp_path, f"same{n}", "a" * 64) for n in (1, 2)]
    other = stub(tmp_path, "other", "b" * 64)
    broken = stub(tmp_path, "broken", "a" * 64, code=1)

    assert tool.main(same) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[1:] for line in lines] == [
        [mode, f"0.0.{name}", "a" * 64] for name in ("same1", "same2") for mode in ("plain", "-O seed=1")
    ]
    assert tool.main([same[0], other]) == 1
    assert "b" * 64 in capsys.readouterr().out
    assert tool.main([broken]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_sweep_fails_when_the_domain_check_fails(tmp_path, capsys):
    # the one check also compares the domain digests; a changed digest makes it fail
    tool = load_tool("check_interpreters")
    assert tool.CHECK == ROOT / "tests" / "test_golden_cli.py"
    path = tmp_path / "nodomains"
    path.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = --version ]; then echo "Python 0.0.0"; exit 0; fi\n'
        f'if [ "$*" = "{tool.CHECK}" ] || [ "$*" = "-O {tool.CHECK}" ]; then echo "mismatch: lr" >&2; exit 1; fi\n'
        f"echo {'a' * 64}\n"
    )
    path.chmod(0o755)
    assert tool.main([str(path)]) == 1
    captured = capsys.readouterr()
    assert [line.split("\t")[1:] for line in captured.out.splitlines()] == [
        [mode, "0.0.0", "FAILED"] for mode in ("plain", "-O seed=1")
    ]
    assert captured.err.count("mismatch: lr") == 2
