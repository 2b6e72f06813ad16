"""tools/ab_pairs.py: the alternation of runs, and the summary and exit status of canned
result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
           {"name": "op_p50_ms", "better": "lower", "bound": 0.2},
           {"name": "undecided_ratio", "better": "lower", "bound": 0.2}]


def _line(ops, p50, undecided=0.05, correct=True, failed=0) -> str:
    """A result line as benchmarks/run.py prints it last."""
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "op_p50_ms": {"value": p50, "unit": "ms"},
               "undecided_ratio": {"value": undecided, "unit": "ratio"}}
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": metrics})


def test_summary_gives_median_iqr_change_and_pairs_won():
    parent = [_line(100, 0.110), _line(104, 0.112), _line(96, 0.108), _line(102, 0.124)]
    change = [_line(110, 0.100), _line(103, 0.095), _line(108, 0.098), _line(112, 0.111)]
    assert ab_pairs.summary(parent, change, METRICS) == ([
        "ops_per_s: 101 [97-103.5] -> 109, +7.9%, won 3/4",
        "op_p50_ms: 0.111 [0.1085-0.121] -> 0.099, -10.8%, won 4/4",
        "undecided_ratio: 0.05 [0.05-0.05] -> 0.05, +0.0%, won 0/4, tied 4",
    ], [])


def test_a_median_worse_than_its_bound_is_marked():
    parent = [_line(100, 0.100, 0.05)] * 4
    # ops_per_s 20% down and op_p50_ms 20% up sit on the bound; the ratio is 40% up
    change = [_line(80, 0.120, 0.07)] * 4
    lines, past = ab_pairs.summary(parent, change, METRICS)
    assert past == ["undecided_ratio"]
    assert lines[2] == "undecided_ratio: 0.05 [0.05-0.05] -> 0.07, +40.0%, won 0/4, PAST BOUND 20%"
    assert "PAST" not in lines[0] + lines[1]
    worse = [_line(79, 0.121, 0.05)] * 4
    assert ab_pairs.summary(parent, worse, METRICS)[1] == ["ops_per_s", "op_p50_ms"]


def test_quartiles_are_those_of_the_baseline():
    # with ten runs, numpy-style inclusive quartiles would read 3.25-7.75
    parent = [_line(100, k / 1000) for k in range(1, 11)]
    assert ab_pairs.summary(parent, parent, METRICS[1:2])[0] == [
        "op_p50_ms: 0.0055 [0.00275-0.00825] -> 0.0055, +0.0%, won 0/10, tied 10"]


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 2}])
def test_refuses_a_run_that_is_not_correct_or_has_failures(bad):
    good = [_line(100, 0.1)] * 3
    with pytest.raises(ValueError, match="change run 2"):
        ab_pairs.summary(good, [good[0], _line(100, 0.1, **bad), good[0]], METRICS)
    with pytest.raises(ValueError, match="parent run 3"):
        ab_pairs.summary([good[0], good[0], _line(100, 0.1, **bad)], good, METRICS)


def test_refuses_unpaired_runs():
    with pytest.raises(ValueError, match="2 parent runs against 1"):
        ab_pairs.summary([_line(1, 1)] * 2, [_line(1, 1)], METRICS)


def test_runs_alternate_with_the_parent_first_on_odd_seeds():
    calls = []

    def run(checkout, seed):
        calls.append((checkout, seed))
        return f"{checkout}-{seed}"

    parent, change = ab_pairs.alternated("P", "C", [1, 2, 3, 4], run)
    assert calls == [("P", 1), ("C", 1), ("C", 2), ("P", 2), ("P", 3), ("C", 3), ("C", 4), ("P", 4)]
    assert parent == ["P-1", "P-2", "P-3", "P-4"] and change == ["C-1", "C-2", "C-3", "C-4"]


def test_parse_seeds():
    assert ab_pairs.parse_seeds("1-10") == list(range(1, 11))


@pytest.mark.parametrize("text", ["5-3", "4", "4-4"])
def test_parse_seeds_refuses_fewer_than_two(text):
    with pytest.raises(ValueError, match="fewer than two seeds"):
        ab_pairs.parse_seeds(text)


def test_runs_take_command_and_length_from_the_benchmark(monkeypatch):
    seen = {}

    def fake_run(cmd, cwd, **kwargs):
        seen.update(cmd=cmd, cwd=cwd)
        return type("Done", (), {"stdout": "info\nlast"})()

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    spec = {"command": ["python3", "benchmarks/run.py"], "run_seconds": 20}
    assert ab_pairs.run_once(spec, "P", "work-quantify", 3) == "last"
    assert seen == {"cmd": ["python3", "benchmarks/run.py", "--workload", "work-quantify",
                            "--seed", "3", "--seconds", "20", "--trace", "0"], "cwd": "P"}


@pytest.mark.parametrize(("p50", "status"), [(0.119, 0), (0.121, 2)])
def test_exits_2_when_a_metric_of_the_benchmark_is_past_its_bound(monkeypatch, capsys, p50,
                                                                   status):
    # op_p50_ms has a bound of 20% in BENCHMARK.json; the other metrics read the same
    metrics = {name: {"value": 1.0} for name in ("setup_s", "ops_per_s", "op_p90_ms",
                                                 "undecided_ratio", "peak_rss_mb")}

    def run_once(spec, checkout, workload, seed):
        value = 0.1 if checkout.name == "parent" else p50
        return json.dumps({"correct": True, "failed": 0,
                           "metrics": {**metrics, "op_p50_ms": {"value": value}}})

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    assert ab_pairs.main(["--parent", "parent", "--change", "change", "--workload", "W",
                          "--seeds", "1-4"]) == status
    out = capsys.readouterr().out
    assert ("PAST BOUND 20%" in out) == bool(status) and out.count("PAST") <= 1
