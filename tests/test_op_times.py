"""tools/op_times.py: the order of the runs, the table of canned timings and faults, one
child run and one real run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "op_times.py"
_spec = importlib.util.spec_from_file_location("op_times", SCRIPT)
op_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(op_times)


def test_parse_checkout():
    assert op_times.parse_checkout("change=.") == ("change", Path(".").resolve())
    for bad in ("change", "=.", "change="):
        with pytest.raises(ValueError, match="expected NAME=DIR"):
            op_times.parse_checkout(bad)


def test_checkouts_run_in_order_on_odd_rounds_and_reversed_on_even_ones():
    assert op_times.round_order(["P", "C", "K"], 1) == ["P", "C", "K"]
    assert op_times.round_order(["P", "C", "K"], 2) == ["K", "C", "P"]


def test_table_takes_the_best_round_and_the_median_over_a_label():
    runs = {"parent": [[["a", 10e-6, 0.0], ["b", 20e-6, 4.0], ["a", 30e-6, 2.0]],
                       [["a", 12e-6, 2.0], ["b", 18e-6, 6.0], ["a", 40e-6, 2.0]]],
            "change": [[["a", 9e-6, 1.0], ["b", 19e-6, 0.0], ["a", 27e-6, 3.0]]]}
    # best over rounds: parent a 10, 30 and b 18; change a 9, 27 and b 19
    # faults, mean over rounds: parent a 1, 2 and b 5; change a 1, 3 and b 0
    assert op_times.table(["parent", "change"], runs) == [
        "label   ops         parent us         change us   parent faults   change faults",
        "a         2              20.0      18.0  -10.0%             1.5             2.0",
        "b         1              18.0      19.0   +5.6%             5.0             0.0",
        "all       3              18.0      19.0   +5.6%             2.0             1.0",
    ]


def test_table_refuses_runs_of_other_operations():
    runs = {"parent": [[["a", 1e-6, 0.0]]], "change": [[["b", 1e-6, 0.0]]]}
    with pytest.raises(ValueError, match="change ran other operations than parent"):
        op_times.table(["parent", "change"], runs)


def test_the_child_counts_faults_per_call_outside_the_timed_region():
    rows = op_times.run_child(ROOT, "work-quantify", 1, 2)
    assert rows and all(len(row) == 3 and row[1] > 0.0 and row[2] >= 0.0 for row in rows)
    assert all(2 * row[2] == int(2 * row[2]) for row in rows)  # a count over two passes


def test_a_run_of_two_checkouts_prints_every_label(capsys):
    assert op_times.main(["--workload", "work-quantify", "--seed", "1", "--passes", "1",
                          "--rounds", "1", f"parent={ROOT}", f"change={ROOT}"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("work-quantify, seed 1: median of each operation's best time over "
                      "1 rounds of 1 passes")
    assert out[1].split() == ["label", "ops", "parent", "us", "change", "us",
                              "parent", "faults", "change", "faults"]
    labels = [line.split()[0] for line in out[2:]]
    assert labels[-1] == "all" and "scenario[fig1]" in labels
    assert sum(int(line.split()[1]) for line in out[2:-1]) == int(out[-1].split()[1])
