"""Byte-for-byte CLI regression corpus.

Every command below is run in-process through ``cli.main``, in text and in
``--output json``, with every ``TENSORCAT_*`` variable cleared; its stdout and
exit code must equal the recorded values in ``golden_cli.json``.  The string
``{tmp}`` stands for a per-test scratch directory (it holds the config file).

Re-record (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

CORPUS_PATH = Path(__file__).with_name("golden_cli.json")
CONFIG_TEXT = "degree_cap = 4\n# comment\n"
CONF = "{tmp}/tensorcat.conf"

_README = [
    "lr [2,1] [1] [2]",
    "product [2,1] [1]",
    "plethysm ext-ext2 2",
    "decompose 0,1,1,0",
    "socle 0,1,1,0",
    "layers 2",
    "defect 1,0,0,1 0,1,1,0",
    "chains 1,0,0,1 0,1,1,0",
    "covers 0,0,0,0 --bound 2",
    "ext-trivial [1],[],[],[1] --degree 1",
    "ext-thick [2],[],[],[1,1] [1] [1] --degree 1",
    "ext-vanishes [1],[],[],[1] [],[],[],[] --degree 2",
    "resolution 2",
    "kernel-layer 1 1",
    "homdim 1,2,1,0 shift-left",
    "quadkernel 0,2,2,0 --check",
    "osp --kind o layers 2",
    "osp --kind sp ext-trivial [2,1,1] [] --degree 2",
    "--verify",
]

_TEST_CLI = [
    "product [1] [1]",
    "plethysm cauchy-ext 2",
    "layers 1",
    "defect 0,1,0,0 1,0,0,0",
    "kernel-layer 0 3",
    "homdim 2,2,1,1 end",
    "quadkernel 0,2,2,0",
    "osp --kind o defect 1,0 0,1",
    "osp --kind o layers 1",
    "osp --kind o conjugate [2] []",
    "lr bogus [1] [2]",
    "--degree-cap 3 decompose 2,2,2,2",
    "homdim 0,0,1,0 contract",
    "plethysm not-a-family 2",
    "decompose 0,2,1,0",
    "plethysm cauchy-sym 2",
    "plethysm sym-sym2 2",
    "socle 1,0,0,1",
    "ext-vanishes [],[],[],[] [],[],[],[] --degree 0",
    "kernel-layer 0 2",
    "homdim 1,2,1,0 contract",
    "osp --kind o leq 1,0 0,1",
    "osp --kind sp layers 1",
    "",
]

_LARGER = [
    "product [3,2,1] [2,1]",
    "kernel-layer 3 2",
    "decompose 2,1,1,2",
    "socle 1,2,2,1",
    "plethysm cauchy-sym 4",
    "osp --kind sp layers 3",
    "ext-thick [2,1],[],[],[2,1] [1] [1] --degree 2",
    "ext-thick [2],[],[],[1,1] [] [] --degree 2",
    "ext-thick [1],[1],[],[1] [] [] --degree 2",
]

# (argv, extra environment)
_STATEFUL = [
    (f"--config {CONF} decompose 2,2,2,2", {}),
    (f"--config {CONF} decompose 2,2,2,2", {"TENSORCAT_DEGREE_CAP": "8"}),
    (f"--config {CONF} --degree-cap 5 decompose 2,2,2,2", {"TENSORCAT_DEGREE_CAP": "8"}),
    ("decompose 2,2,2,2", {"TENSORCAT_CONFIG": CONF}),
]


def commands() -> list[tuple[list[str], dict[str, str]]]:
    """Every corpus case, each in text and then in JSON."""
    plain = [(line, {}) for line in _README + _TEST_CLI + _LARGER] + _STATEFUL
    cases = []
    for line, env in plain:
        argv = line.split()
        cases.append((argv, env))
        cases.append((["--output", "json"] + argv, env))
    return cases


def run(argv: list[str], env: dict[str, str], tmp: str) -> dict:
    """Run one command in-process; returns its argv, env, exit code and stdout."""
    from tensorcat.cli import main

    saved = dict(os.environ)
    for key in [k for k in os.environ if k.startswith("TENSORCAT_")]:
        del os.environ[key]
    os.environ.update({key: value.replace("{tmp}", tmp) for key, value in env.items()})
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([arg.replace("{tmp}", tmp) for arg in argv])
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return {"argv": argv, "env": env, "exit": code, "stdout": out.getvalue().replace(tmp, "{tmp}")}


def run_all(tmp: str) -> list[dict]:
    Path(tmp, "tensorcat.conf").write_text(CONFIG_TEXT, encoding="utf-8")
    return [run(argv, env, tmp) for argv, env in commands()]


def test_golden_cli_corpus(tmp_path):
    expected = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    actual = run_all(str(tmp_path))
    assert [(c["argv"], c["env"]) for c in actual] == [(c["argv"], c["env"]) for c in expected]
    for got, want in zip(actual, expected):
        assert got == want, " ".join(want["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        corpus = run_all(scratch)
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(corpus)} cases in {CORPUS_PATH}", file=sys.stderr)
