"""The benchmark record (tools/bench_record.py), its aggregation driven with stub run.py records."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub(failed: int = 0, **metrics: float) -> dict:
    """A run.py record, as written to .bench_out/result-*.json, cut to what the tool reads."""
    return {"meta": {}, "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
            "failed": failed, "attempted": 10}


def test_aggregate_takes_medians_per_metric_and_sums_failures():
    tool = load_tool()
    engine = [stub(run_s=0.3, op_p50_ms=0.1), stub(run_s=0.1, op_p50_ms=0.3), stub(failed=1, run_s=0.2, op_p50_ms=0.2)]
    traced = stub(**{"symfunc.lr_coefficient.calls": 7, "trace.overhead_s": 0.01})
    cli = stub(run_s=8.0, op_p50_ms=80.0)
    data = tool.aggregate({"engine": engine, "engine_traced": [traced], "cli": [cli]})
    assert sorted(data) == ["cli", "engine", "engine_traced", "failed"]
    assert data["engine"]["runs"] == [{"run_s": 0.3, "op_p50_ms": 0.1}, {"run_s": 0.1, "op_p50_ms": 0.3},
                                      {"run_s": 0.2, "op_p50_ms": 0.2}]
    assert data["engine"]["median"] == {"run_s": 0.2, "op_p50_ms": 0.2}
    assert data["engine_traced"] == {"symfunc.lr_coefficient.calls": 7, "trace.overhead_s": 0.01}
    assert data["cli"] == {"runs": [{"run_s": 8.0, "op_p50_ms": 80.0}], "median": {"run_s": 8.0, "op_p50_ms": 80.0}}
    assert data["failed"] == 1


def test_every_key_of_the_file_is_named_in_the_docstring():
    tool = load_tool()
    keys = ["label", "commit", "python", "nproc", "loadavg_start", "loadavg_end", "engine", "cli", "engine_traced",
            "failed", "tier1", "startup_ms", "counters", "modules_after_import", "modules_after_call"]
    assert [key for key in keys if f"``{key}``" not in tool.__doc__] == []
    assert set(tool.STARTUP) >= {"python -c pass", "python -S -c pass"}
