"""Byte-for-byte CLI regression corpus.

Every command below is run in-process through ``cli.call``, in text and in
``--output json``, with an env holding only the case's variables; its stdout
and exit code must equal the recorded values in ``golden_cli.json``.  The
first cases are README's "Command line" examples, read from it.  The string
``{tmp}`` stands for a per-test scratch directory (it holds the config file).

Check the corpus outside pytest (standard library only; exits 1 naming the
first case that differs, else prints the sha256 of the joined stdouts, which
lets interpreters and ``-O`` runs be compared):

    PYTHONPATH=src python tests/test_golden_cli.py

Re-record (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS_PATH = Path(__file__).with_name("golden_cli.json")
CONFIG_TEXT = "degree_cap = 4\n# comment\n"
CONF = "{tmp}/tensorcat.conf"


def _readme_examples() -> list[str]:
    """The ``tensorcat ...`` lines of README's "Command line" block, comments stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [" ".join(line.partition("#")[0].split()[1:]) for line in block.splitlines()]


_README = _readme_examples()  # README's examples are the corpus's first cases

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


# --help at the top level, at osp and at each command: fixed text, whatever --output says
_HELP = ["--help", "osp --help"] + [f"{command} --help" for command in (
    "lr", "product", "plethysm", "decompose", "socle", "layers", "defect", "chains", "covers", "ext-trivial",
    "ext-thick", "ext-vanishes", "resolution", "kernel-layer", "homdim", "quadkernel",
    *(f"osp --kind o {leaf}" for leaf in ("leq", "defect", "layers", "ext-trivial", "conjugate")),
)]


def commands() -> list[tuple[list[str], dict[str, str]]]:
    """Every corpus case, each in text and then in JSON; the help cases last, in text only."""
    plain = [(line, {}) for line in _README + _TEST_CLI + _LARGER] + _STATEFUL
    cases = []
    for line, env in plain:
        argv = line.split()
        cases.append((argv, env))
        cases.append((["--output", "json"] + argv, env))
    return cases + [(line.split(), {}) for line in _HELP]


def run(argv: list[str], env: dict[str, str], tmp: str) -> dict:
    """Run one command in-process; returns its argv, env, exit code and stdout."""
    from tensorcat.cli import call

    out = []
    with contextlib.redirect_stderr(io.StringIO()):
        code = call([arg.replace("{tmp}", tmp) for arg in argv],
                    {key: value.replace("{tmp}", tmp) for key, value in env.items()}, out.append)
    return {"argv": argv, "env": env, "exit": code, "stdout": "".join(out).replace(tmp, "{tmp}")}


def run_all(tmp: str) -> list[dict]:
    Path(tmp, "tensorcat.conf").write_text(CONFIG_TEXT, encoding="utf-8")
    return [run(argv, env, tmp) for argv, env in commands()]


def test_golden_cli_corpus(tmp_path):
    expected = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    actual = run_all(str(tmp_path))
    assert [(c["argv"], c["env"]) for c in actual] == [(c["argv"], c["env"]) for c in expected]
    for got, want in zip(actual, expected):
        assert got == want, " ".join(want["argv"])


def test_check_mode_under_optimize():
    # the stand-alone check runs every case, {tmp} and environment ones included,
    # and must pass with asserts stripped and a fixed hash seed, reading the corpus only
    before = CORPUS_PATH.read_bytes()
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-O", __file__], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert CORPUS_PATH.read_bytes() == before


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check the golden CLI corpus, or re-record it.")
    parser.add_argument("--record", action="store_true", help="overwrite golden_cli.json with the current outputs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        corpus = run_all(scratch)
    if args.record:
        CORPUS_PATH.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {len(corpus)} cases in {CORPUS_PATH}", file=sys.stderr)
        return 0
    expected = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    for got, want in zip(corpus, expected):
        if got != want:
            print(f"mismatch: {' '.join(want['argv'])} (env {want['env']})", file=sys.stderr)
            return 1
    if len(corpus) != len(expected):
        print(f"mismatch: {len(corpus)} cases run, {len(expected)} recorded", file=sys.stderr)
        return 1
    print(hashlib.sha256("".join(case["stdout"] for case in corpus).encode("utf-8")).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
