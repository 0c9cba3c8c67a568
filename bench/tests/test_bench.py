"""Tests of the benchmark itself: inputs, checks and printed metric names.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from checks import check_run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    _grid_count,
    _sweep_op,
    make_round,
    sweep_cells,
)
from worker import run_op  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert make_round(workload, 7) == make_round(workload, 7)
    assert make_round(workload, 7) != make_round(workload, 8)


def test_grid_arcs_keeps_one_seed_independent_failing_count():
    for seed in range(5):
        failing = [op for op in make_round("grid_arcs", seed) if op["expect_fail"]]
        assert [op["argv"] for op in failing] == [
            ["count", "987187", "1", "0", "1", "0", "1", "0", "--method", "grid"]
        ]


def test_sweep_cells_match_phi_sums():
    assert sweep_cells("E", (5, 5, 5)) == 1000
    assert sweep_cells("Estar", (5, 5, 14), 1) == 1400
    assert sweep_cells("Estar", (5, 5, 14), 17) == 1400
    assert sweep_cells("Estar", (5, 5, 4), 2) == 200


def _execute(ops, tmp_path, threads=(1,)):
    records = []
    for t in threads:
        for i, op in enumerate(ops):
            out = str(tmp_path / f"op{i}-t{t}.csv") if op["out"] else None
            rec = run_op(op, t, out)
            rec["op"] = i
            if out and rec["ok"] and t == threads[0]:
                with open(out, encoding="utf-8") as fh:
                    rec["out_text"] = fh.read()
            records.append(rec)
    return records


def _op(argv, items, params, **extra):
    return {"argv": argv, "items": items, "params": params, "out": False,
            "expect_fail": False, **extra}


def _assert_rejected(workload, ops, records, mutate):
    assert check_run(workload, ops, records) == []
    bad = copy.deepcopy(records)
    mutate(bad)
    assert check_run(workload, ops, bad) != []


def test_delta_check_rejects_perturbed_R(tmp_path):
    ops = [_op(["delta", "10001,10003", "3", "1", "4", "1", "5", "2"], 2,
               {"targets": [10001, 10003], "progs": [3, 1, 4, 1, 5, 2],
                "qmax": 2000, "pmax": 2000})]
    records = _execute(ops, tmp_path)

    def mutate(recs):
        recs[0]["outputs"]["rows"][1]["R"] *= 1 + 1e-4

    _assert_rejected("instances", ops, records, mutate)


def test_singular_check_rejects_perturbed_routes(tmp_path):
    ops = [
        _op(["singular", "20001", "12", "5", "9", "2", "20", "3"], 1,
            {"N": 20001, "progs": [12, 5, 9, 2, 20, 3], "qmax": 2000, "pmax": 2000}),
        _op(["singular", "30001", "1", "0", "1", "0", "1", "0"], 1,
            {"N": 30001, "progs": [1, 0, 1, 0, 1, 0], "qmax": 2000, "pmax": 2000}),
    ]
    records = _execute(ops, tmp_path)

    def apart(recs):
        recs[0]["outputs"]["qsum"] *= 1 + 1e-2

    def off_closed_form(recs):
        recs[1]["outputs"]["product"] += 1e-5

    _assert_rejected("instances", ops, records, apart)
    _assert_rejected("instances", ops, records, off_closed_form)


def test_sweep_check_rejects_perturbed_rows_and_thread_mismatch(tmp_path):
    ops = [_sweep_op(5001, "E", (3, 3, 3)),
           _sweep_op(5001, "Estar", (3, 3, 3), "alternating", 1)]
    for op in ops:
        op["expect_fail"] = False
    records = _execute(ops, tmp_path, threads=(1, 2))

    def edit_delta(recs):
        lines = recs[0]["out_text"].splitlines()
        cells = lines[5].split(",")
        cells[8] = repr(float(cells[8]) * 2 + 1.0)
        lines[5] = ",".join(cells)
        recs[0]["out_text"] = "\n".join(lines)

    def inflate_estar(recs):
        lines = recs[1]["out_text"].splitlines()
        cells = lines[1].split(",")
        cells[6] = repr(abs(float(cells[6])) * 1e3 + 1e6)
        lines[1] = ",".join(cells)
        recs[1]["out_text"] = "\n".join(lines)

    def thread_bytes(recs):
        recs[2]["out_sha256"] = "0" * 64

    for mutate in (edit_delta, inflate_estar, thread_bytes):
        _assert_rejected("instances", ops, records, mutate)


def test_grid_arcs_check_rejects_perturbed_stats_and_counts(tmp_path):
    ops = [
        _op(["arcs", "20001", "--Q", "21", "--stats", "--lambda", "alternating",
             "--kmax", "9", "--l3", "2"], 40003,
            {"N": 20001, "Q": 21, "lambda": "alternating", "kmax": 9, "l3": 2}),
        dict(_grid_count(3001, [3, 1, 4, 3, 1, 0]), out=False, expect_fail=False),
    ]
    records = _execute(ops, tmp_path)

    def parseval(recs):
        recs[0]["outputs"]["l2_full"] *= 1 + 1e-6

    def measure(recs):
        recs[0]["outputs"]["measure"] *= 1 + 1e-10

    def count(recs):
        recs[1]["outputs"]["solutions"] += 1

    for mutate in (parseval, measure, count):
        _assert_rejected("grid_arcs", ops, records, mutate)


def test_only_expected_failures_pass_the_check():
    ops = [_op(["count", "7", "1", "0", "1", "0", "1", "0"], 15, {"N": 7, "progs": [1] * 6})]
    failed = [{"op": 0, "ok": False, "seconds": 1.0, "error": "ConsistencyError: drift"}]
    assert check_run("grid_arcs", ops, failed) != []
    ops[0]["expect_fail"] = True
    assert check_run("grid_arcs", ops, failed) == []


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_are_those_in_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _run_bench(ROOT, "--workload", "instances", "--seed", "0",
                      "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    units = {m["name"]: m["unit"] for m in spec[section]}
    assert all(m["unit"] == units[name] for name, m in result["metrics"].items())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench(tmp_path, "--workload", "instances", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
