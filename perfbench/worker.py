"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Set-up (imports, input
generation, and for ``cli`` one untimed ``tensorcat --help``) ends just before
the first timed op.  The timed phase issues the ops one at a time (a closed
loop with one client) and keeps their results; in-process ops are each
preceded by a timed ``reference_loop`` (the probe), which their latency
excludes.  Checks and digests follow outside the timed phase.  The last stdout
line is a JSON report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import tracer
import workloads

CLI_TIMEOUT_S = 60


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_loop() -> int:
    """A fixed pure-Python loop, timed before each in-process op (see run.py)."""
    total = 0
    for i in range(6000):
        total += (i * i) % 7
    return total


def run_in_process(args, specs, trace):
    tc = types.SimpleNamespace(**tracer.load_layers())
    calls = [workloads.bind(spec, tc) for spec in specs]
    patched = []
    if trace is not None:
        patched = tracer.install(trace)
        calls = [trace.wrap(call, "op") for call in calls]
    memo = getattr(tc.symfunc, "_memo", {})
    memo_before = len(memo)
    ready = now()
    if args.setup_only:
        return ready, None

    results, errors, latencies, probes = {}, {}, [], []
    if trace is not None:
        trace.enabled = True
    phase = time.perf_counter()
    for spec, call in zip(specs, calls):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # a failing op is counted, the run goes on
            value, errors[spec.key] = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t1)
        probes.append(t1 - t0)
        results[spec.key] = value
    run_s = time.perf_counter() - phase - sum(probes)
    if trace is not None:
        trace.enabled = False
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layer_stats = {}
    if trace is not None:
        memo_stats = {"new_entries": len(memo) - memo_before, "entries": len(memo)}
        layer_stats = tracer.merge(trace.stats(), {"symfunc.memo": memo_stats})
        tracer.uninstall(patched)
        trace.dump(args.spans)

    checker = workloads.Checker(tc)
    outcome = []
    for spec in specs:
        if spec.key in errors:
            outcome.append((spec.key, False, "", errors[spec.key]))
            continue
        value = results[spec.key]
        try:
            ok = checker.check(spec, value, results)
            digest = sha256(workloads.canonical(value))
        except Exception as exc:
            ok, digest = False, ""
            errors[spec.key] = f"check raised {type(exc).__name__}: {exc}"
        outcome.append((spec.key, ok, digest, errors.get(spec.key, "" if ok else "invariant failed")))
    return ready, (run_s, latencies, probes, outcome, peak_rss_kb, layer_stats)


def run_cli(args, specs, trace):
    root = Path(args.root)
    session = root / ".bench_out" / f"cli-{os.getpid()}"
    cache_dir = session / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)  # run.py already removed every TENSORCAT_* variable
    env["TENSORCAT_CACHE_DIR"] = str(cache_dir)
    reports_path = session / "reports.jsonl"
    child = str(Path(__file__).with_name("cli_child.py"))
    try:
        subprocess.run(
            [sys.executable, "-m", "tensorcat", "--help"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            check=True, timeout=CLI_TIMEOUT_S,
        )
        ready = now()
        if args.setup_only:
            return ready, None

        latencies, outcome, spawned = [], [], []
        phase = time.perf_counter()
        for i, spec in enumerate(specs):
            if trace:
                prefix = [sys.executable, child, str(reports_path), args.spans, str(i)]
            else:
                prefix = [sys.executable, "-m", "tensorcat"]
            t0 = time.perf_counter()
            spawned.append(now())
            try:
                proc = subprocess.run(
                    prefix + list(spec.args), env=env, capture_output=True,
                    text=True, timeout=CLI_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                latencies.append(time.perf_counter() - t0)
                outcome.append((spec.key, False, "", "timed out"))
                continue
            latencies.append(time.perf_counter() - t0)
            ok = proc.returncode == 0 and cli_output_ok(spec.args, proc.stdout)
            error = "" if ok else f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            outcome.append((spec.key, ok, sha256(proc.stdout), error))
        run_s = time.perf_counter() - phase
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

        layer_stats = {}
        if trace:
            layer_stats = cli_layer_stats(reports_path, spawned, cache_dir)
        return ready, (run_s, latencies, [], outcome, peak_rss_kb, layer_stats)
    finally:
        shutil.rmtree(session, ignore_errors=True)


def cli_output_ok(argv, stdout: str) -> bool:
    """--verify must report every check ok; quadkernel --check must say ok."""
    if "--verify" in argv or "quadkernel" in argv:
        if "--output" in argv:
            result = json.loads(stdout)["result"]
            return result["ok"] if "--verify" in argv else result["check"] is True
        if "--verify" in argv:
            lines = stdout.splitlines()
            return bool(lines) and all(line.endswith(": ok") for line in lines)
        return stdout.splitlines()[-1] == "check: ok"
    return True


def cli_layer_stats(reports_path: Path, spawned: list[float], cache_dir: Path) -> dict:
    """Merge the children's reports; read the disk cache as the session left it."""
    totals: dict = {}
    interp, imports, memo_end = [], [], []
    with open(reports_path, encoding="utf-8") as handle:
        reports = [json.loads(line) for line in handle]
    for spawn, report in zip(spawned, reports):
        interp.append((report["t_boot"] - spawn) * 1000)
        imports.append(report["import_s"] * 1000)
        memo_end.append(report["memo_entries"])
        tracer.merge(totals, report["stats"])
    memo_loaded = totals.get("cli.cache_load", {}).get("c0", 0)
    files = [p for p in cache_dir.rglob("*") if p.is_file()]
    records = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)
    totals["symfunc.memo"] = {"new_entries": sum(memo_end) - memo_loaded, "entries": max(memo_end, default=0)}
    totals["cli.process"] = {
        "interpreter_ms": sorted(interp)[len(interp) // 2],
        "import_ms": sorted(imports)[len(imports) // 2],
    }
    totals["symfunc.disk"] = {"records": records, "bytes": sum(p.stat().st_size for p in files)}
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="monotonic time the parent started us")
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="gzipped TSV the traced run appends its spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    specs = workloads.generate(args.workload, args.seed, args.seconds)
    if args.workload == "cli":
        ready, body = run_cli(args, specs, args.trace)
    else:
        ready, body = run_in_process(args, specs, tracer.Trace() if args.trace else None)
    report = {"setup_s": ready - args.spawned}
    if body is not None:
        run_s, latencies, probes, outcome, peak_rss_kb, layer_stats = body
        report.update(
            run_s=run_s,
            latencies=latencies,
            probes=probes,
            outcome=outcome,
            peak_rss_mb=peak_rss_kb / 1024,
            layer_stats=layer_stats,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
