"""The benchmark record (tools/bench_record.py), its aggregation driven with stub run.py records."""

from __future__ import annotations

from quads import load_tool, run_record


def test_aggregate_takes_medians_per_metric_and_sums_failures():
    tool = load_tool("bench_record")
    engine = [run_record(run_s=0.3, op_p50_ms=0.1), run_record(run_s=0.1, op_p50_ms=0.3),
              run_record(failed=1, run_s=0.2, op_p50_ms=0.2)]
    traced = run_record(**{"symfunc.lr_coefficient.calls": 7, "trace.overhead_s": 0.01})
    cli = run_record(run_s=8.0, op_p50_ms=80.0)
    data = tool.aggregate({"engine": engine, "engine_traced": [traced], "cli": [cli]})
    assert sorted(data) == ["cli", "engine", "engine_traced", "failed"]
    assert data["engine"]["runs"] == [{"run_s": 0.3, "op_p50_ms": 0.1}, {"run_s": 0.1, "op_p50_ms": 0.3},
                                      {"run_s": 0.2, "op_p50_ms": 0.2}]
    assert data["engine"]["median"] == {"run_s": 0.2, "op_p50_ms": 0.2}
    assert data["engine_traced"] == {"symfunc.lr_coefficient.calls": 7, "trace.overhead_s": 0.01}
    assert data["cli"] == {"runs": [{"run_s": 8.0, "op_p50_ms": 80.0}], "median": {"run_s": 8.0, "op_p50_ms": 80.0}}
    assert data["failed"] == 1


def test_every_key_of_the_file_is_named_in_the_docstring():
    tool = load_tool("bench_record")
    keys = ["label", "commit", "python", "nproc", "loadavg_start", "loadavg_end", "engine", "cli", "engine_traced",
            "failed", "tier1", "startup_ms", "counters", "modules_after_import", "modules_after_call"]
    assert [key for key in keys if f"``{key}``" not in tool.__doc__] == []
    assert set(tool.STARTUP) >= {"python -c pass", "python -S -c pass"}
