"""Compare two commits on the benchmark: alternating pairs of runs, each end-to-end metric against its bound.

Usage, from anywhere (standard library only):

    python3 tools/bench_pairs.py PARENT CHANGE

Both revisions are unpacked with ``git archive`` (``bench_record.unpack``), and
in each tree the unchanged ``perfbench/run.py`` runs every workload named in
``BENCHMARK.json`` at seed 0, untraced (``bench_record.bench``), in ``PAIRS``
pairs; the parent runs first in even pairs and the change first in odd ones.
For each workload and end-to-end metric one table row gives the parent's
median and quartiles, the change's median, their ratio, the pairs the change
wins (strictly better in the metric's direction; a tie counts for neither
side) and a verdict against the metric's relative ``bound``:

- ``better`` when the change wins at least ``CLAIM_WINS`` (9) of the pairs and
  its median beats the parent's by more than the parent's quartile spread
  (q3 - q1): the rule a claimed gain must meet;
- ``within bound`` otherwise when every change run beats every parent run, or
  when the change's median is not worse than the parent's by more than the
  bound;
- ``unresolved`` when the parent's quartile spread is wider than the bound (and
  not every change run beats every parent run): the runs cannot tell;
- ``worse`` otherwise.

The exit code is 1 if any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

from bench_record import ROOT, bench, unpack

PAIRS = 10
CLAIM_WINS = 9


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: list[float], change: list[float], better: str, bound: float, wins: int) -> str:
    q1, _, q3 = statistics.quantiles(parent, n=4)
    loss = statistics.median(change) - statistics.median(parent)
    if better == "higher":
        loss = -loss
    if wins >= CLAIM_WINS and -loss > q3 - q1:
        return "better"
    if all(beats(c, p, better) for c in change for p in parent):
        return "within bound"
    base = abs(statistics.median(parent)) or 1.0
    if (q3 - q1) / base > bound:
        return "unresolved"
    return "worse" if loss / base > bound else "within bound"


def summarize(records: dict[str, dict[str, list[dict]]], metrics: list[dict]) -> list[dict]:
    """One row per workload and metric, from run.py's records by workload and side, the i-th runs of a side a pair."""
    rows = []
    for workload, sides in records.items():
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            parent, change = ([rec["metrics"][name]["value"] for rec in sides[side]] for side in ("parent", "change"))
            q1, _, q3 = statistics.quantiles(parent, n=4)
            p50, c50 = statistics.median(parent), statistics.median(change)
            wins = sum(beats(c, p, better) for p, c in zip(parent, change))
            rows.append({
                "workload": workload, "metric": name, "parent": p50, "q1": q1, "q3": q3,
                "change": c50, "ratio": c50 / p50 if p50 else None, "wins": wins, "pairs": len(parent),
                "verdict": verdict(parent, change, better, metric["bound"], wins),
            })
    return rows


def table(rows: list[dict]) -> str:
    lines = ["| workload | metric | parent median (quartiles) | change median | ratio | change wins | verdict |",
             "|---|---|---|---|---|---|---|"]
    for r in rows:
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3f}"
        lines.append(f"| {r['workload']} | {r['metric']} | {r['parent']:.4g} ({r['q1']:.4g}–{r['q3']:.4g}) "
                     f"| {r['change']:.4g} | {ratio} | {r['wins']}/{r['pairs']} | {r['verdict']} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/bench_pairs.py PARENT CHANGE", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    records = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Path(scratch) / side for side in ("parent", "change")}
        commits = {side: unpack(rev, trees[side]) for side, rev in zip(trees, args)}
        for workload in workloads:
            for i in range(PAIRS):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    records[workload][side].append(bench(trees[side], workload, 0))
    print(f"parent {commits['parent'][:12]}, change {commits['change'][:12]}, seed 0, {PAIRS} pairs")
    rows = summarize(records, spec["end_to_end"])
    print(table(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
