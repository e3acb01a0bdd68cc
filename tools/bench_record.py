"""Record one commit's benchmark numbers in ``BENCH_<LABEL>.json`` at the repository root.

Usage, from anywhere (standard library only; the tier-1 step needs pytest):

    python3 tools/bench_record.py LABEL [--commit REV]

The commit (default HEAD) is unpacked with ``git archive`` into a temporary
directory, so every record measures a tree made the same way: a copy with
``.git`` and caches read slower than an archive of the same code.  In it the
unchanged ``perfbench/run.py``, under the interpreter running this tool, runs
the engine workload at seed 0 untraced 3 times and traced once, and the cli
workload at seed 0 once; each run's full record is read from
``.bench_out/result-*.json``.  Then the tier-1 command runs once, timed, and the
host's start-up is sampled: 20 alternating rounds of each start-up command
below.  The tool pins itself, and so everything it starts, to one CPU, as
``run.py`` does.

Keys of the file:

- ``label``, ``commit`` (full sha), ``python`` (version), ``nproc``,
  ``loadavg_start``, ``loadavg_end``;
- ``engine`` and ``cli``: ``runs``, each run's end-to-end metrics
  (``{metric: value}``), and ``median``, their medians per metric;
- ``engine_traced``: the traced run's per-layer metrics;
- ``failed``: the failed ops summed over every run (0 when all are right);
- ``tier1``: ``wall_s`` and ``summary``, pytest's last line;
- ``startup_ms``: the median wall time of each start-up command, by command
  (``python -c pass``, ``python -S -c pass``, and a tensorcat call with and
  without ``-S``);
- ``counters``: deterministic start-up counters, ``modules_after_import``
  (``len(sys.modules)`` after ``import tensorcat.cli`` under ``-S``) and
  ``modules_after_call`` (the same after one ``decompose`` call).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
CALL = ["-m", "tensorcat", "decompose", "1,1,1,1"]
STARTUP = {  # name: interpreter arguments
    "python -c pass": ["-c", "pass"],
    "python -S -c pass": ["-S", "-c", "pass"],
    "python -m tensorcat decompose 1,1,1,1": CALL,
    "python -S -m tensorcat decompose 1,1,1,1": ["-S", *CALL],
}
COUNT = ("import sys, tensorcat.cli; print(len(sys.modules)); tensorcat.cli.main(['decompose', '1,1,1,1']); "
         "print(len(sys.modules))")
TIMEOUT_S = 600
RUNS = 3  # untraced engine runs
ROUNDS = 20  # rounds of each start-up command
PYTHON = sys.executable


def median_metrics(runs: list[dict]) -> dict:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def aggregate(records: dict[str, list[dict]]) -> dict:
    """The benchmark part of the file from run.py's records, by kind: ``engine``, ``engine_traced``, ``cli``."""
    values = {kind: [{name: m["value"] for name, m in rec["metrics"].items()} for rec in recs]
              for kind, recs in records.items()}
    return {
        "engine": {"runs": values["engine"], "median": median_metrics(values["engine"])},
        "engine_traced": values["engine_traced"][0],
        "cli": {"runs": values["cli"], "median": median_metrics(values["cli"])},
        "failed": sum(rec["failed"] for recs in records.values() for rec in recs),
    }


def bench(tree: Path, workload: str, trace: int) -> dict:
    subprocess.run([PYTHON, "perfbench/run.py", "--workload", workload, "--seed", "0", "--trace", str(trace)],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL, timeout=TIMEOUT_S)
    return json.loads((tree / ".bench_out" / f"result-{workload}-0-{trace}.json").read_text(encoding="utf-8"))


def startup(tree: Path, env: dict) -> tuple[dict, dict]:
    """Median start-up wall times, by command, and the deterministic module counters."""
    times = {name: [] for name in STARTUP}
    for _ in range(ROUNDS):
        for name, args in STARTUP.items():
            t0 = time.perf_counter()  # no timeout: a wait with one polls the child at up to 50 ms intervals
            subprocess.run([PYTHON, *args], cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
            times[name].append((time.perf_counter() - t0) * 1000)
    out = subprocess.run([PYTHON, "-S", "-c", COUNT], cwd=tree, env=env, check=True, capture_output=True,
                         text=True, timeout=60).stdout.split()
    counters = {"modules_after_import": int(out[0]), "modules_after_call": int(out[-1])}
    return {name: statistics.median(samples) for name, samples in times.items()}, counters


def unpack(rev: str, tree: Path) -> str:
    """Unpack the ``git archive`` of `rev` into the new directory `tree`, the archive beside it; return the sha."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = tree.with_suffix(".tar")
    tree.mkdir()
    subprocess.run(["git", "archive", f"--output={archive}", commit], cwd=ROOT, check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)], check=True)
    return commit


def record(label: str, rev: str) -> dict:
    version = sys.version.split()[0]
    loadavg_start = os.getloadavg()
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        commit = unpack(rev, tree)
        records = {
            "engine": [bench(tree, "engine", 0) for _ in range(RUNS)],
            "engine_traced": [bench(tree, "engine", 1)],
            "cli": [bench(tree, "cli", 0)],
        }
        env = {k: v for k, v in os.environ.items() if not k.startswith("TENSORCAT_")}
        env["PYTHONPATH"] = str(tree / "src")
        t0 = time.perf_counter()
        done = subprocess.run([PYTHON, *TIER1], cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        tier1 = {"wall_s": time.perf_counter() - t0, "summary": (done.stdout.strip().splitlines() or [""])[-1]}
        startup_ms, counters = startup(tree, env)
    return {
        "label": label, "commit": commit, "python": version, "nproc": os.cpu_count(),
        "loadavg_start": loadavg_start, "loadavg_end": os.getloadavg(),
        **aggregate(records), "tier1": tier1, "startup_ms": startup_ms, "counters": counters,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record one commit's benchmark numbers in BENCH_<LABEL>.json.")
    parser.add_argument("label", help="names the file: BENCH_<LABEL>.json")
    parser.add_argument("--commit", default="HEAD", help="the revision to measure (default HEAD)")
    args = parser.parse_args(argv)
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control on this platform
        pass
    data = record(args.label, args.commit)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}: engine op_p50_ms {data['engine']['median']['op_p50_ms']:.4g}, "
          f"cli op_p50_ms {data['cli']['median']['op_p50_ms']:.4g}, failed {data['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
