"""tensorcat benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {engine,cli} --seed N \\
        [--seconds 40] [--trace 0|1]

Every run starts fresh interpreters, so tensorcat's process-lifetime caches
are cold, and removes every inherited TENSORCAT_* variable first.  The
benchmark and all it starts run on one CPU (``pin_to_one_cpu``).  The
program is taken from ``src/`` of the checkout (byte-compiled before any
timing).  Ops are issued one at a time by one client (a closed loop).

--trace 0 runs the op list in several sessions (``SESSIONS``), each a fresh
interpreter; each op reports its median session, with engine latencies scaled
to a reference speed (``PROBE_S``).  It prints the end-to-end metrics: setup_s
(median of several fresh set-ups, from interpreter start to the first timed
op), run_s (the timed phase, as the sum of the op latencies), op_p50_ms and
op_p90_ms (over the op latencies), peak_rss_mb and ok_ratio
(= 1 - fail_ratio).  The op list is sized so that the sessions
together time about --seconds.  --trace 1 runs the workload twice, untraced
and then with wrappers around each layer's public functions, and prints the
per-layer metrics plus trace.overhead_s (traced minus untraced timed phase).
Every op is checked against an independent invariant, and against the digest in ``digests.json`` when one is recorded
for it; a wrong answer counts as a failed op.  The last stdout line is the
JSON result; a fuller record, with run metadata, goes to
``.bench_out/result-<workload>-<seed>-<trace>.json`` and spans of traced runs
to ``.bench_out/spans-<workload>-<seed>.tsv.gz``.

--record-digests stores the digests of this run's ops in ``digests.json``
(used once per workload for the default seed, when the benchmark changes).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# Untraced sessions per run; each runs the whole op list in a fresh
# interpreter, and an op reports its median session.
SESSIONS = {"engine": 5, "cli": 3}
# In-process latencies are scaled to a reference speed.  The speed of a shared
# 2-vCPU machine switches between two modes about 1.5 times apart, each held
# for seconds to minutes, so a run's raw times depend on how much of it fell
# in the fast mode.  The worker times a fixed loop (the probe) just before each
# op, and the op's latency is scaled by PROBE_S / probe: its time at the speed
# where the probe takes PROBE_S, about the machine's usual speed.  This cut the
# spread of session sums from 17 % to 6 %.  cli latencies are not scaled: a
# subprocess call's time followed the probe before it too loosely (correlation
# 0.2-0.3, on one CPU) for scaling to help.
PROBE_S = 0.6e-3
DEADLINE_S = 170  # the whole invocation must end within 180 s
DIGESTS = HERE / "digests.json"
END_TO_END = ["setup_s", "run_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "ok_ratio"]
PER_LAYER = list(tracer.METRICS) + ["trace.overhead_s"]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def pin_to_one_cpu() -> int | None:
    """Keep this process and every process it starts on one CPU; return it.

    On a shared 2-vCPU machine a tensorcat subprocess call that may land on
    either CPU took 25 % longer on average and varied twice as much (CV 0.26
    against 0.12) as one kept on its parent's CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # no affinity control on this platform
        return None
    return cpu


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = now()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("TENSORCAT_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def remaining(self) -> float:
        left = DEADLINE_S - (now() - self.started)
        if left <= 0:
            raise TimeoutError("benchmark deadline passed")
        return left

    def build(self) -> None:
        """Byte-compile the program so that no timed phase compiles it."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "tensorcat"), str(HERE)],
            env=self.env, check=True, stdout=subprocess.DEVNULL, timeout=self.remaining(),
        )

    def worker(self, *, trace=False, setup_only=False, spans=None) -> dict:
        a = self.args
        # the sessions of one run share about --seconds of timed work
        session_seconds = a.seconds / SESSIONS[a.workload]
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", repr(session_seconds),
            "--root", str(ROOT),
        ]
        if trace:
            cmd += ["--trace", "--spans", str(spans)]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--spawned", repr(now())]
        # own process group, so that a timeout also stops the cli workload's children
        proc = subprocess.Popen(
            cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=self.remaining())
        except (subprocess.TimeoutExpired, TimeoutError):
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])


def scaled(report: dict) -> list[float]:
    """A session's op latencies, scaled to PROBE_S where probes were taken."""
    if not report["probes"]:
        return report["latencies"]
    return [lat * PROBE_S / probe for lat, probe in zip(report["latencies"], report["probes"])]


def summarize(reports: list[dict], recorded: dict) -> dict:
    """Latency statistics and the correctness verdict of full worker runs of one op list."""
    lat_ms = [statistics.median(op) * 1000 for op in zip(*map(scaled, reports))]
    failures = []
    for report in reports:
        for key, ok, digest, error in report["outcome"]:
            expected = recorded.get(key)
            if not ok:
                failures.append((key, error))
            elif expected is not None and expected != digest:
                failures.append((key, "digest mismatch"))
    keys = [key for key, *_ in reports[0]["outcome"]]
    return {
        "run_s": sum(lat_ms) / 1000,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "ops": len(keys),
        "attempted": len(keys) * len(reports),
        "failed": len(failures),
        "failures": failures,
        "checked_digests": sum(1 for key in keys if key in recorded),
        "op_ms": list(zip(keys, lat_ms)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "tensorcat" / "__init__.py").is_file():
        print(f"run.py: no tensorcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    all_digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = all_digests.get(args.workload, {})
    cpu = pin_to_one_cpu()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "commit": commit(),
        "cpu": cpu,
    }

    runner = Runner(args)
    try:
        runner.build()
        if args.trace:
            plain = runner.worker()
            spans = out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz"
            spans.unlink(missing_ok=True)
            traced = runner.worker(trace=True, spans=spans)
            summary = summarize([traced, plain], recorded)
            layers = tracer.finalize(traced["layer_stats"])
            layers["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
            metrics = {name: layers[name] for name in PER_LAYER}
            meta["untraced_run_s"] = plain["run_s"]
            meta["traced_run_s"] = traced["run_s"]
            meta["spans"] = str(spans.relative_to(ROOT))
        else:
            n_sessions = SESSIONS[args.workload]
            setups = [runner.worker(setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - n_sessions)]
            sessions = [runner.worker() for _ in range(n_sessions)]
            setups += [session["setup_s"] for session in sessions]
            summary = summarize(sessions, recorded)
            summary["setup_s"] = statistics.median(setups)
            summary["ok_ratio"] = 1 - summary["failed"] / summary["attempted"]
            metrics = {name: summary[name] for name in END_TO_END}
            meta["setup_samples_s"] = setups
            meta["session_run_s"] = [session["run_s"] for session in sessions]
            probes = [p for session in sessions for p in session["probes"]]
            meta["probe_median_ms"] = statistics.median(probes) * 1000 if probes else None
    except (RuntimeError, TimeoutError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    meta["loadavg_end"] = os.getloadavg()
    correct = summary["failed"] == 0

    if args.record_digests:
        if args.trace or summary["failed"]:
            print("run.py: digests are recorded only from an untraced run with no failed op", file=sys.stderr)
            return 3
        all_digests[args.workload] = {key: digest for key, _, digest, _ in sessions[0]["outcome"]}
        DIGESTS.write_text(json.dumps(all_digests, indent=1, sort_keys=True) + "\n")

    fail_ratio = summary["failed"] / summary["attempted"]
    record = {
        "meta": meta,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "fail_ratio": fail_ratio,
        "failures": summary["failures"],
        "checked_digests": summary["checked_digests"],
        "op_ms": summary["op_ms"],
    }
    (out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(
        f"# {args.workload} seed={args.seed} python={meta['python']} nproc={meta['nproc']} "
        f"loadavg={meta['loadavg_start'][0]:.2f}->{meta['loadavg_end'][0]:.2f} commit={meta['commit']}"
    )
    print(
        f"# ops={summary['ops']} per session (p90 has {summary['ops'] // 10} samples beyond it) "
        f"attempted={summary['attempted']} failed={summary['failed']} fail_ratio={fail_ratio:.4f} "
        f"digests checked={summary['checked_digests']}"
    )
    for key, error in summary["failures"][:10]:
        print(f"# FAILED {key}: {error}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
