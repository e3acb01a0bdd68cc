"""The one check of the CLI pins: the byte-for-byte golden corpus and the domain digests.

Every command below is run in-process through ``run`` (the one caller of
``cli.call`` for both pins), in text and in ``--output json``, with an env
holding only the case's variables; its stdout and exit code must equal the
recorded values in ``golden_cli.json``.  The first cases are README's
"Command line" examples, read from it; the help cases are derived from
``cli.COMMANDS``.  The string ``{tmp}`` stands for a per-test scratch
directory (it holds the config file).  ``test_domain_digests.py`` declares
the domains and hashes their calls through the same ``run``.

Check both pins outside pytest (standard library only; exits 1 naming each
golden case and each command whose domain digest differs, else prints the
sha256 of the corpus's joined stdouts, which lets interpreters and ``-O``
runs be compared):

    PYTHONPATH=src python tests/test_golden_cli.py

Re-record both ``golden_cli.json`` and ``domain_digests.json`` (only when an
output change is intended; name the re-recorded cases and commands in
CHANGES.md):

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from tensorcat.cli import COMMANDS

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


# --help at the top level, at osp and at each declared command: fixed text, whatever --output says
_HELP = ["--help", "osp --help"] + [
    f"{name.replace('osp ', 'osp --kind o ')} --help" for name, *_ in COMMANDS
]


def commands() -> list[tuple[list[str], dict[str, str]]]:
    """Every corpus case, each in text and then in JSON; the help cases last, in text only."""
    plain = [(line, {}) for line in _README + _TEST_CLI + _LARGER] + _STATEFUL
    cases = []
    for line, env in plain:
        argv = line.split()
        cases.append((argv, env))
        cases.append((["--output", "json"] + argv, env))
    return cases + [(line.split(), {}) for line in _HELP]


def run(argv: list[str], env: dict[str, str], tmp: str = "{tmp}") -> dict:
    """Run one command in-process; its argv, env, exit code (an internal error's type name) and stdout."""
    from tensorcat.cli import call

    out = []
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = call([arg.replace("{tmp}", tmp) for arg in argv],
                        {key: value.replace("{tmp}", tmp) for key, value in env.items()}, out.append)
        except Exception as exc:  # an internal error fails the check; the other calls still run
            code = type(exc).__name__
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
    # the stand-alone check runs every case, {tmp} and environment ones included, and every
    # domain, and must pass with asserts stripped and a fixed hash seed, reading the records only
    from quads import child_env

    records = [CORPUS_PATH, CORPUS_PATH.with_name("domain_digests.json")]
    before = [path.read_bytes() for path in records]
    done = subprocess.run(
        [sys.executable, "-O", __file__], env=child_env(PYTHONHASHSEED="1"), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert [path.read_bytes() for path in records] == before


def test_check_mode_reports_a_changed_domain_digest_and_records_both(tmp_path, monkeypatch, capsys):
    import test_domain_digests as domains

    corpus, digests = tmp_path / "golden_cli.json", tmp_path / "domain_digests.json"
    corpus.write_bytes(CORPUS_PATH.read_bytes())
    recorded = {"layers": domains.digest(domains.layers_k_6)}
    digests.write_text(json.dumps({"layers": {**recorded["layers"], "sha256": "0" * 64}}))
    monkeypatch.setattr(domains, "DOMAINS", {"layers": domains.layers_k_6})
    monkeypatch.setattr(domains, "DIGESTS_PATH", digests)
    monkeypatch.setitem(globals(), "CORPUS_PATH", corpus)

    assert main([]) == 1
    assert capsys.readouterr().err == "mismatch: layers\n"
    corpus.write_text("[]")
    assert main(["--record"]) == 0
    assert json.loads(digests.read_text()) == recorded
    assert corpus.read_bytes() == Path(__file__).with_name("golden_cli.json").read_bytes()
    assert main([]) == 0


def main(argv: list[str] | None = None) -> int:
    import test_domain_digests as domains  # it imports ``run`` from here

    parser = argparse.ArgumentParser(description="Check the golden CLI corpus and the domain digests, or re-record both.")
    parser.add_argument("--record", action="store_true",
                        help="overwrite golden_cli.json and domain_digests.json with the current outputs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        corpus = run_all(scratch)
    digests = domains.digest_all()
    if args.record:
        CORPUS_PATH.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
        domains.DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {len(corpus)} cases in {CORPUS_PATH} and {len(digests)} domains in {domains.DIGESTS_PATH}",
              file=sys.stderr)
        return 0
    expected = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    changed = [f"{' '.join(want['argv'])} (env {want['env']})" for got, want in zip(corpus, expected) if got != want]
    if len(corpus) != len(expected):
        changed.append(f"{len(corpus)} cases run, {len(expected)} recorded")
    changed += domains.differences(digests, json.loads(domains.DIGESTS_PATH.read_text(encoding="utf-8")))
    for what in changed:
        print(f"mismatch: {what}", file=sys.stderr)
    if changed:
        return 1
    print(hashlib.sha256("".join(case["stdout"] for case in corpus).encode("utf-8")).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
