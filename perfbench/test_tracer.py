"""Tests of the benchmark's tracer and input generation (stdlib + pytest only)."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import tracer
import workloads

HERE = Path(__file__).resolve().parent


def _tensorcat_modules():
    return [m for name, m in list(sys.modules.items()) if name == "tensorcat" or name.startswith("tensorcat.")]


def test_install_wraps_every_binding():
    modules = tracer.load_layers()
    originals = {}
    for module_name, attr, _, _ in tracer.TARGETS:
        owner = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            originals[attr] = getattr(owner, cls_name).__dict__[method]
        else:
            originals[attr] = getattr(owner, attr)
    # names imported with "from .x import f" are separate bindings
    assert modules["grothendieck"].lr_coefficient is originals["lr_coefficient"]
    assert modules["oracle"].rank_of_rows is originals["rank_of_rows"]

    trace = tracer.Trace()
    patched = tracer.install(trace)
    try:
        for module in _tensorcat_modules():
            for key, value in vars(module).items():
                assert not any(value is fn for fn in originals.values()), f"{module.__name__}.{key} not wrapped"
        for module_name in ("symfunc", "grothendieck", "ext", "cli", "plethysm", "oracle"):
            assert modules[module_name].partitions.__wrapped__ is originals["partitions"]
        for module_name in ("grothendieck", "ext", "symfunc"):
            assert modules[module_name].lr_coefficient.__wrapped__ is originals["lr_coefficient"]
        for module_name in ("symalg", "oracle", "linalg"):
            assert modules[module_name].rank_of_rows.__wrapped__ is originals["rank_of_rows"]
        mul = modules["symalg"].GroupAlgebraElement.__dict__["__mul__"]
        assert mul.__wrapped__ is originals["GroupAlgebraElement.__mul__"]
    finally:
        tracer.uninstall(patched)
    assert modules["grothendieck"].lr_coefficient is originals["lr_coefficient"]
    assert modules["symalg"].GroupAlgebraElement.__dict__["__mul__"] is originals["GroupAlgebraElement.__mul__"]


def test_missing_target_records_nothing(monkeypatch):
    gone = ("symfunc", "no_such_function", "symfunc.no_such_function", None)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    trace = tracer.Trace()
    patched = tracer.install(trace)
    tracer.uninstall(patched)
    assert "symfunc.no_such_function" not in trace.stats()
    assert tracer.finalize(trace.stats())["symfunc.lr_coefficient.calls"] == 0


def test_spans_give_calls_busy_and_self_time():
    gr = importlib.import_module("tensorcat.grothendieck")
    trace = tracer.Trace()
    patched = tracer.install(trace)
    try:
        word = [gr.W_STAR, gr.F_GEN, gr.V_DUAL]
        trace.enabled = True
        dec = gr.decompose_word(word, cap=20)
        trace.enabled = False
    finally:
        tracer.uninstall(patched)
    stats = trace.stats()
    step = stats["grothendieck.tensor_decomposition"]
    assert step["calls"] == len(word)
    assert step["c1"] >= len(dec.terms)  # terms out, summed over the steps
    assert 0 < step["self"] <= step["busy"]
    # V* recurses into tensor_simple twice per term; busy counts only the outer span
    simple = stats["grothendieck.tensor_simple"]
    assert simple["calls"] > step["c0"]
    assert simple["busy"] <= step["busy"]
    assert stats["symfunc.lr_coefficient"]["calls"] > 0  # F multiplies Cauchy pairs in


def test_generation_is_seeded():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7, 10)
        assert first == workloads.generate(name, 7, 10)
        assert len(first) >= workloads.MIN_OPS
        assert first != workloads.generate(name, 8, 10)


def test_blocks_pair_mirrored_picks():
    import random

    items = list(range(40))
    for seed in range(5):
        picks = workloads._blocks(random.Random(seed), items, lambda x: x, 0.2)
        assert len(picks) == 8
        assert all(5 * b <= p < 5 * (b + 1) for b, p in enumerate(picks))  # one per block
        assert len({picks[b] - 5 * b + picks[b + 1] - 5 * (b + 1) for b in range(0, 8, 2)}) == 1  # mirrored
        assert picks[0] + picks[1] - 5 == 4
    assert workloads._blocks(random.Random(0), items, lambda x: x, 1.0) == items


def test_scaled_latencies():
    run = importlib.import_module("run")
    report = {"latencies": [0.01, 0.02], "probes": [run.PROBE_S, 2 * run.PROBE_S]}
    assert run.scaled(report) == pytest.approx([0.01, 0.01])
    assert run.scaled({"latencies": [0.01], "probes": []}) == [0.01]


def test_word_terms_counts_distinct_factors():
    gr = importlib.import_module("tensorcat.grothendieck")
    poset = importlib.import_module("tensorcat.poset")
    for q in [(1, 2, 1, 0), (0, 2, 2, 1), (2, 0, 1, 2)]:
        assert workloads._word_terms(q) == len(gr.decompose_j(poset.QuadIndex(*q), cap=12).terms)


def test_benchmark_json_names_the_printed_metrics():
    run = importlib.import_module("run")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert metric["unit"] == run.unit(metric["name"])


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
