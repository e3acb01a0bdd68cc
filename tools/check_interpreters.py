"""Check that every given Python interpreter prints the golden CLI corpus's bytes and every domain digest.

Usage, from anywhere (standard library only):

    python3 tools/check_interpreters.py PYTHON [PYTHON ...]

Each PYTHON is the path of an interpreter.  Under each one the check modes of
``tests/test_golden_cli.py`` and ``tests/test_domain_digests.py`` run twice,
with ``src/`` of this checkout on PYTHONPATH: plain (no PYTHONHASHSEED), and
under ``-O`` with ``PYTHONHASHSEED=1``.  One line per run gives the
interpreter, the mode, its version and the sha256 of the joined stdouts that
the golden check printed, or FAILED if either check failed (the domain check
compares each command's digest with its recorded file, so a pass is already
agreement).  The exit status is 1 if any run fails or the runs print more than
one sha, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKS = (ROOT / "tests" / "test_golden_cli.py", ROOT / "tests" / "test_domain_digests.py")  # the golden one first
MODES = (("plain", [], {}), ("-O seed=1", ["-O"], {"PYTHONHASHSEED": "1"}))
TIMEOUT_S = 600


def _version(python: str) -> str:
    done = subprocess.run([python, "--version"], capture_output=True, text=True, timeout=TIMEOUT_S)
    return (done.stdout or done.stderr).strip().removeprefix("Python ") or "unknown"


def check(python: str) -> list[tuple[str, str, str | None]]:
    """Run both checks under one interpreter: (mode, version, golden sha or None) per mode."""
    version = _version(python)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runs = []
    for mode, flags, extra in MODES:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
        env.update(extra, PYTHONPATH=path)
        shas = []
        for script in CHECKS:
            done = subprocess.run(
                [python, *flags, str(script)], env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
            lines = done.stdout.split()
            if done.returncode != 0 or len(lines) != 1:
                sys.stderr.write(done.stderr)
                break
            shas.append(lines[0])
        runs.append((mode, version, shas[0] if len(shas) == len(CHECKS) else None))
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the golden and domain checks under each given interpreter.")
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
