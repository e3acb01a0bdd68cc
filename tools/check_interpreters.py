"""Check that every given Python interpreter prints the golden CLI corpus's bytes and every domain digest.

Usage, from anywhere (standard library only):

    python3 tools/check_interpreters.py PYTHON [PYTHON ...]

Each PYTHON is the path of an interpreter.  Under each one the tool runs the
one check, ``tests/test_golden_cli.py`` (the golden corpus and the domain
digests), twice, with ``src/`` of this checkout on PYTHONPATH: plain (no
PYTHONHASHSEED), and under ``-O`` with ``PYTHONHASHSEED=1``.  One line per
run gives the interpreter, the mode, its version and the sha256 of the
joined stdouts that the check printed, or FAILED if the check failed (it
compares each command's domain digest with its recorded file, so a pass is
already agreement there).  The exit status is 1 if any run fails or the runs
print more than one sha, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECK = ROOT / "tests" / "test_golden_cli.py"
MODES = (("plain", [], {}), ("-O seed=1", ["-O"], {"PYTHONHASHSEED": "1"}))
TIMEOUT_S = 600


def _version(python: str) -> str:
    done = subprocess.run([python, "--version"], capture_output=True, text=True, timeout=TIMEOUT_S)
    return (done.stdout or done.stderr).strip().removeprefix("Python ") or "unknown"


def check(python: str) -> list[tuple[str, str, str | None]]:
    """Run the check under one interpreter: (mode, version, golden sha or None) per mode."""
    version = _version(python)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runs = []
    for mode, flags, extra in MODES:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
        env.update(extra, PYTHONPATH=path)
        done = subprocess.run([python, *flags, str(CHECK)], env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        lines = done.stdout.split()
        sha = lines[0] if done.returncode == 0 and len(lines) == 1 else None
        if sha is None:
            sys.stderr.write(done.stderr)
        runs.append((mode, version, sha))
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the golden and domain check under each given interpreter.")
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="path of an interpreter")
    args = parser.parse_args(argv)
    shas = set()
    failed = False
    for python in args.pythons:
        for mode, version, sha in check(python):
            print(f"{python}\t{mode}\t{version}\t{sha or 'FAILED'}")
            failed |= sha is None
            shas.add(sha)
    if failed or len(shas) > 1:
        print("interpreters disagree" if not failed else "a check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
