"""Tests of the benchmark's own logic, not of nsvlab.

    python3 -m pytest nsvbench -q

Covers span self time on a synthetic tree, the median and quartile math,
failure accounting for crashed and hung children and for a child with wrong
answers, the refusal to run without a program, and a smoke run of every
workload at tiny N and M through the same bench.py code path (plumbing only;
no statistical verdict is checked).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import child  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}


def test_self_time_on_nested_span_tree():
    # root [0, 10] holds a [1, 4] (holding leaf [2, 3]) and b [5, 9] (holding
    # leaf [6, 6.5]); a second root call covers [10.5, 11]
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["leaf", 1, 2.0, 3.0],
        ["b", 0, 5.0, 9.0],
        ["leaf", 3, 6.0, 6.5],
        ["root", -1, 10.5, 11.0],
    ]
    table = tracing.self_times(spans)
    assert table["root"] == {"calls": 2, "total_s": 10.5, "self_s": pytest.approx(3.5)}
    assert table["a"]["self_s"] == pytest.approx(2.0)
    assert table["b"]["self_s"] == pytest.approx(3.5)
    assert table["leaf"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    wall = 12.0
    uncovered = tracing.uncovered_time(spans, wall)
    assert uncovered == pytest.approx(1.5)
    assert sum(row["self_s"] for row in table.values()) + uncovered == pytest.approx(wall)


def test_layer_metrics_sum_self_times_and_calls():
    spans = [
        ["variation.first_variation_fd", -1, 0.0, 4.0],
        ["variation.flow_points", 0, 0.5, 3.5],
        ["fields.FourierVectorField.evaluate_at", 1, 1.0, 2.0],
        ["fields.FourierVectorField.gradient_at", 1, 2.0, 2.5],
    ]
    layers = tracing.layer_metrics(spans, {"fields.trig_terms": 12}, {"variation": 99.0}, wall_s=5.0)
    assert layers["fields.eval_s"] == (pytest.approx(1.5), "s")
    assert layers["fields.eval_calls"] == (2, "count")
    assert layers["variation.flow_points_s"] == (pytest.approx(1.5), "s")
    assert layers["variation.first_variation_fd_s"] == (pytest.approx(1.0), "s")
    assert layers["variation.fd_attempts"] == (1, "count")
    assert layers["fields.trig_terms"] == (12, "count")
    assert layers["flows.pressure_at_calls"] == (0, "count")
    assert layers["variation.rss_hwm_mb"] == (99.0, "MB")
    assert layers["trace.uncovered_s"] == (pytest.approx(1.0), "s")
    # child.py adds cli.import_s and bench.py adds trace.overhead_s
    assert set(layers) | {"cli.import_s", "trace.overhead_s"} == PER_LAYER


def test_active_half_modes_counts_each_conjugate_pair_once():
    import numpy as np

    K = 2
    coeffs = np.zeros((2 * K + 1, 2 * K + 1, 2), dtype=complex)
    coeffs[K + 1, K] = coeffs[K - 1, K] = 0.5  # k = +-(1, 0)
    coeffs[K, K + 2, 1] = coeffs[K, K - 2, 1] = 0.25j  # k = +-(0, 2)
    assert tracing._active_half_modes(coeffs) == 2


def test_summarize_median_and_quartiles():
    s = bench.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["q1"], s["q3"], s["min"], s["max"], s["n"]) == (3.0, 1.5, 4.5, 1.0, 5.0, 5)
    s = bench.summarize([4.0, 1.0, 3.0, 2.0])
    assert (s["median"], s["q1"], s["q3"]) == (2.5, 1.25, 3.75)
    s = bench.summarize([7.0])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (7.0, 7.0, 7.0, 1)


def test_account_counts_missing_checks_as_failed():
    exact, stat = child.EXACT, child.STATISTICAL
    one_fluke = [["a", True, exact], ["b", False, stat]] + [["c", True, stat]] * 3
    assert bench.account({"checks": one_fluke}, 5) == (5, 1, True)
    assert bench.account({"checks": [["a", False, exact]]}, 19) == (19, 19, False)
    assert bench.account({"checks": [["a", True, stat]] * 3}, 2) == (3, 0, True)


def test_account_fails_a_child_with_many_statistical_failures():
    exact, stat = child.EXACT, child.STATISTICAL
    checks = [["a", True, exact]] + [["b", False, stat]] * 2 + [["c", True, stat]] * 2
    assert bench.account({"checks": checks}, 5) == (5, 2, False)


def test_cli_child_whose_verdicts_all_fail_is_not_correct(tmp_path, monkeypatch):
    sys.path.insert(0, str(child.SRC))
    from nsvlab import cli

    def wrong_answers(argv):
        # a finished run whose every statistical verdict failed
        report = {
            "estimates": [{"name": "hessian_bound", "value": 1.0, "se": 0.0, "n": 1}],
            "verdicts": [{"name": f"v{i}", "pass": False} for i in range(21)],
        }
        (tmp_path / "report.json").write_text(json.dumps(report))
        return 2

    monkeypatch.setattr(cli, "main", wrong_answers)
    run, _ = child.prepare_cli("minimality", 1, "full", str(tmp_path))
    checks = run()
    assert all(ok for _, ok, kind in checks if kind == child.EXACT)
    nominal = child.NOMINAL_CHECKS["minimality"]["full"]
    assert len(checks) == nominal
    assert bench.account({"checks": checks}, nominal) == (nominal, 21, False)


def test_crashed_child_fails_every_check(tmp_path):
    cmd = [sys.executable, "-c", "import sys; print('boom', file=sys.stderr); sys.exit(3)"]
    record = bench.run_child(cmd, tmp_path / "r.json", tmp_path / "err", timeout=60)
    assert record["exit_code"] == 3 and not record["timed_out"]
    assert "boom" in record["stderr"]
    nominal = child.NOMINAL_CHECKS["criticality"]["full"]
    assert bench.account(record, nominal) == (nominal, nominal, False)


def test_hung_child_is_killed_and_fails_every_check(tmp_path):
    cmd = [sys.executable, "-c", "import time; time.sleep(60)"]
    record = bench.run_child(cmd, tmp_path / "r.json", tmp_path / "err", timeout=0.5)
    assert record["timed_out"]
    assert bench.account(record, 5) == (5, 5, False)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(HERE.name) / "bench.py"), "--workload", "bridge", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run(workload, tmp_path):
    s = bench.measure(workload, seed=7, seconds=0, trace=True, size="smoke", out_root=tmp_path)
    nominal = child.NOMINAL_CHECKS[workload]["smoke"]
    assert (s["attempted"], s["failed"], s["correct"]) == (2 * nominal, 0, True), s["records"]
    assert set(s["end_to_end"]) == END_TO_END
    assert all(m["median"] > 0 for m in s["end_to_end"].values())
    layers = {k: v[0] for k, v in s["per_layer"].items()}
    assert set(layers) == PER_LAYER
    assert s["trace_notes"] == []
    self_sum = sum(row["self_s"] for row in s["span_self_times"].values())
    assert self_sum + layers["trace.uncovered_s"] == pytest.approx(layers["trace.wall_s"], abs=1e-9)
    # counters come from the effective sizes of the calls
    N, M = child.SIZES[workload]["smoke"]
    if workload == "criticality":
        # main ensemble N x M plus the finite-difference one, capped at 1200 x 150
        assert layers["sde.path_steps"] == N * M + min(N, 1200) * min(M, 150)
        assert layers["variation.fd_attempts"] == 6
        assert layers["fields.trig_terms"] > 0
    elif workload == "minimality":
        assert layers["flows.pressure_at_calls"] > 0
        assert layers["flows.hessian_bound_calls"] == M + 1
    elif workload == "spectral":
        assert layers["flows.ns_steps"] == M
        # the simulation's drift evaluations plus the reference check's
        checks = len(child.check_times(M)) * child.REFERENCE_POINTS
        assert layers["flows.velocity_trig_terms"] == ((M + 1) * N + checks) * 144
        assert layers["cli.run_s"] == 0
    else:
        assert layers["sde.path_steps"] == N * 8160
        assert layers["sde.path_rng_calls"] == N
        assert layers["fields.eval_calls"] == 0 and layers["flows.velocity_at_calls"] == 0
