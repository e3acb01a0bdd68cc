"""The pair comparison (tools/bench_pairs.py), its summary driven with stub run.py records."""

from __future__ import annotations

from quads import load_tool, run_record


METRICS = [{"name": "run_s", "better": "lower", "bound": 0.25}, {"name": "ok_ratio", "better": "higher", "bound": 0.01}]


def summary(parent_run_s, change_run_s, change_ok=None):
    tool = load_tool("bench_pairs")
    change_ok = change_ok or [1.0] * len(change_run_s)
    records = {"engine": {"parent": [run_record(run_s=v, ok_ratio=1.0) for v in parent_run_s],
                          "change": [run_record(run_s=v, ok_ratio=ok) for v, ok in zip(change_run_s, change_ok)]}}
    return tool, {row["metric"]: row for row in tool.summarize(records, METRICS)}


def test_rows_give_medians_quartiles_ratio_and_wins():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    change = [0.99, 1.2, 0.8, 1.1, 1.0, 1.0, 0.9, 1.0, 1.0, 1.0]
    tool, rows = summary(parent, change)
    row = rows["run_s"]
    assert (row["workload"], row["parent"], row["change"], row["pairs"]) == ("engine", 1.0, 1.0, 10)
    assert row["q1"] < row["parent"] < row["q3"] and row["ratio"] == 1.0
    assert row["wins"] == 5  # strictly lower in pairs 0, 2, 4, 6 and 8
    assert row["verdict"] == "within bound"
    assert rows["ok_ratio"]["wins"] == 0 and rows["ok_ratio"]["verdict"] == "within bound"
    text = tool.table(tool.summarize({"cli": {"parent": [run_record(run_s=v, ok_ratio=1.0) for v in parent],
                                              "change": [run_record(run_s=v, ok_ratio=1.0) for v in change]}}, METRICS))
    assert text.splitlines()[2].startswith("| cli | run_s | 1 (") and text.count("\n") == 3


def test_verdicts_against_the_bound():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    _, rows = summary(steady, [1.3 * v for v in steady])
    assert rows["run_s"]["verdict"] == "worse" and rows["run_s"]["wins"] == 0
    _, rows = summary(steady, [1.2 * v for v in steady])
    assert rows["run_s"]["verdict"] == "within bound"
    _, rows = summary(steady, steady, change_ok=[1.0] * 9 + [0.0])
    assert rows["ok_ratio"]["verdict"] == "within bound"  # median ok_ratio unchanged
    _, rows = summary(steady, steady, change_ok=[0.9] * 10)
    assert rows["ok_ratio"]["verdict"] == "worse"
    # a parent spread wider than the bound cannot tell a 30 % loss from noise
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0, 0.9, 1.1]
    _, rows = summary(wide, [1.3 * v for v in wide])
    assert rows["run_s"]["verdict"] == "unresolved"
    # unless every change run beats every parent run
    _, rows = summary(wide, [0.58] * 10)
    assert rows["run_s"]["verdict"] == "within bound" and rows["run_s"]["wins"] == 10


def test_better_needs_nine_wins_and_a_gap_past_the_parent_spread():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]  # q3 - q1 = 0.02
    tool, rows = summary(steady, [0.8 * v for v in steady])
    assert (rows["run_s"]["wins"], rows["run_s"]["verdict"]) == (10, "better")
    _, rows = summary(steady, steady, change_ok=[1.5] * 10)
    assert rows["ok_ratio"]["verdict"] == "better"  # higher is better for a ratio
    # 8 wins are not enough, however wide the gap
    _, rows = summary(steady, [0.8 * v for v in steady[:8]] + [1.1, 1.1])
    assert (rows["run_s"]["wins"], rows["run_s"]["verdict"]) == (8, "within bound")
    # 10 wins with a median gap (1.0 - 0.58) inside the parent's spread (1.225 - 0.775)
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0, 0.9, 1.1]
    _, rows = summary(wide, [0.58] * 10)
    assert (rows["run_s"]["wins"], rows["run_s"]["verdict"]) == (10, "within bound")
    _, rows = summary(wide, [0.5] * 10)
    assert rows["run_s"]["verdict"] == "better"
    # ties count for neither side
    _, rows = summary(steady, [0.5] * 8 + steady[8:])
    assert (rows["run_s"]["wins"], rows["run_s"]["verdict"]) == (8, "within bound")


def test_main_takes_exactly_two_revisions(capsys):
    tool = load_tool("bench_pairs")
    assert tool.main(["HEAD"]) == 2 and tool.main(["HEAD", "HEAD", "--pairs"]) == 2
    assert capsys.readouterr().err.count("usage: python3 tools/bench_pairs.py PARENT CHANGE") == 2
    assert tool.PAIRS == 10


def test_exit_code_is_one_only_on_worse(monkeypatch, capsys):
    tool = load_tool("bench_pairs")
    names = ("setup_s", "run_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")  # ok_ratio stays 1
    monkeypatch.setattr(tool, "unpack", lambda rev, tree: rev)
    for factor, code, verdicts in ((0.5, 0, {"better", "within bound"}), (1.0, 0, {"within bound"}),
                                   (1.5, 1, {"worse", "within bound"})):
        def bench(tree, workload, seed):
            return run_record(**dict.fromkeys(names, factor if tree.name == "change" else 1.0), ok_ratio=1.0)

        monkeypatch.setattr(tool, "bench", bench)
        assert tool.main(["PARENT", "CHANGE"]) == code, factor
        rows = capsys.readouterr().out.splitlines()[3:]
        assert {row.split(" | ")[-1].rstrip(" |") for row in rows} == verdicts, factor
