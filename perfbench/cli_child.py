"""Traced stand-in for ``python -m tensorcat``, one per call of the cli workload.

Usage: cli_child.py REPORTS SPANS INDEX [tensorcat arguments...]

Installs the tracer's wrappers, runs ``tensorcat.cli.main`` with the given
arguments, appends a JSON line of per-layer totals to REPORTS and its spans to
SPANS, and exits with main's exit code.  Stdout is exactly tensorcat's.
"""

import time

T_BOOT = time.clock_gettime(time.CLOCK_MONOTONIC)  # first statement of the script

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    reports, spans, index, argv = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
    t0 = time.perf_counter()
    import tensorcat.cli

    import_s = time.perf_counter() - t0
    import tracer

    trace = tracer.Trace()
    tracer.install(trace)
    trace.enabled = True
    try:
        code = tensorcat.cli.main(argv)
    finally:
        trace.enabled = False
        sys.stdout.flush()
        memo = getattr(sys.modules["tensorcat.symfunc"], "_memo", {})
        report = {"t_boot": T_BOOT, "import_s": import_s, "memo_entries": len(memo), "stats": trace.stats()}
        with open(reports, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(report) + "\n")
        trace.dump(spans, process=index)
    return code


if __name__ == "__main__":
    sys.exit(main())
