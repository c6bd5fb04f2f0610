"""Tests of the benchmark harness: tiny workload runs, checks, span arithmetic."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polybohr as pb

import calibration
import workloads as W
from layers import HOOKS, layer_metrics
from spans import Hook, Recorder, Span, covered_ns, install, self_times, unspanned_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_tiny_run_of_each_workload_is_correct(name, tmp_path):
    tally = W.Tally()
    W.run_pass(W.pass_factory(name, seed=3, workdir=tmp_path, size=W.TINY_SIZE), tally)
    assert tally.violations == []
    assert tally.attempted > 0
    assert tally.rows > 0
    if name == "sharpness":
        # Every lam -> 1 kind at delta = 1e-9 exhausts the grid (the witness gap).
        assert tally.attempted == 84 + 64 + 9
        assert tally.failed == 12
    else:
        assert tally.failed == 0


def test_cli_rows_must_match_requested_seeds(tmp_path):
    op = next(W.cli_pass(tmp_path, seeds=2))
    code, path = op.call()
    problems, rows = W.inspect_cli("refined_p2", 3, (code, path))
    assert any("2 rows, expected 3" in p for p in problems)
    assert len(rows) == 2


class _Inverted:
    lower = 1.0
    upper = 0.5


def test_injected_lower_above_upper_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(pb, "eval_functional", lambda *args, **kwargs: _Inverted())
    tally = W.Tally()
    W.run_pass(W.pass_factory("corpus_verify", seed=0, workdir=tmp_path, size=1), tally)
    assert tally.attempted == 6
    assert tally.failed == 6
    assert all("lower 1.0 > upper 0.5" in v for v in tally.violations)


def test_unexpected_exception_is_a_failed_op_and_a_violation():
    def boom():
        raise RuntimeError("broken")

    tally = W.Tally()
    W.run_op(W.Op(boom, lambda out: ([], [])), tally, count_rows=True)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.violations == ["raised RuntimeError: broken"]


def test_expected_exception_is_a_failed_op_only():
    def search():
        raise pb.WitnessSearchError("no witness")

    tally = W.Tally()
    W.run_op(W.Op(search, lambda out: ([], []), (pb.WitnessSearchError,)), tally, count_rows=True)
    assert (tally.attempted, tally.failed, tally.violations) == (1, 1, [])


def test_rows_count_inconclusive_and_genuine():
    tally = W.Tally()
    tally.add_rows([(0.9, 1.01), (0.9, 1.0 + 1e-11), (1.2, 1.3), (0.5, 0.6)])
    assert (tally.rows, tally.inconclusive, tally.genuine) == (4, 1, 1)
    assert tally.width_sum == pytest.approx(0.11 + (0.1 + 1e-11) + 0.1 + 0.1)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 40, 0),
        Span("a.x", 15, 20, 1),
        Span("a.y", 18, 30, 1),  # overlaps a.x: covered once
        Span("b", 50, 60, 0),
        Span("c", 95, 130, 0),  # runs past its parent: only 95..100 counts
    ]
    assert self_times(spans) == [100 - (30 + 10 + 5), 30 - 15, 5, 12, 10, 35]
    assert covered_ns(0, 10, [(2, 4), (3, 6), (8, 12)]) == 6
    assert unspanned_ns(spans, -20, 100) == 20


def test_install_rebinds_importing_modules_and_restores():
    import polybohr.functionals as functionals
    import polybohr.slices as slices

    original = slices.sup_modulus
    recorder = Recorder()
    inst = install(recorder, HOOKS, "polybohr")
    try:
        assert inst.missing == []
        assert functionals.sup_modulus is slices.sup_modulus is not original
        assert "polybohr.functionals.sup_modulus" in inst.bindings["slices.sup_modulus"]
        spec = pb.FunctionalSpec.improved_squared()
        pb.eval_functional(pb.extremal_slice(spec, 0.5), spec, 0.5)
    finally:
        inst.restore()
    assert functionals.sup_modulus is slices.sup_modulus is original
    names = [s.name for s in recorder.spans]
    assert names[0] == "functionals.eval_functional"
    assert "slices.sup_modulus" in names and "series.eval_series_many" in names
    assert all(s.parent == 0 for s in recorder.spans[1:] if s.name != "series.eval_series_many")


def test_missing_hook_leaves_its_metrics_absent():
    inst = install(Recorder(), [Hook("series", "no_such_function"), Hook("no_such_module", "f")], "polybohr")
    assert inst.missing == ["series.no_such_function", "no_such_module.f"]
    metrics = layer_metrics([], 0, 10, found=["radii.solve_radius"])
    assert metrics["radii.solve_calls"] == 0
    assert "series.synth_s" not in metrics and "cli.self_s" not in metrics


def test_layer_self_times_and_unspanned_add_up_to_wall(tmp_path):
    recorder = Recorder()
    inst = install(recorder, HOOKS, "polybohr")
    try:
        lo = time.perf_counter_ns()
        W.run_pass(W.pass_factory("corpus_verify", seed=0, workdir=tmp_path, size=2), W.Tally())
        hi = time.perf_counter_ns()
    finally:
        inst.restore()
    m = layer_metrics(recorder.spans, lo, hi, inst.found)
    parts = [v for k, v in m.items() if k.endswith("_s") and k not in ("functionals.eval_s", "trace.wall_s")]
    assert sum(parts) == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["functionals.eval_calls"] == 12
    assert m["series.synth_calls"] >= 4
    assert m["series.eval_cmacs"] > 0


def test_local_scales_average_the_units_around_each_op():
    cal = calibration.Calibrator()
    ms = 1_000_000
    cal.times = [0, 20 * ms, 40 * ms, 1000 * ms, 1020 * ms]
    ref = calibration.REFERENCE_NS
    cal.durations = [ref, ref, ref, 2 * ref, 2 * ref]
    starts = [10 * ms, 500 * ms, 0]
    ends = [11 * ms, 990 * ms, 1020 * ms]
    # op 0 reaches the three fast units, op 1 (a long op) the two slow ones
    # after it, op 2 all five.
    assert list(cal.local_scales(starts, ends)) == pytest.approx([1.0, 1 / 2, 5 / 7])


def test_calibrated_untraced_run_reports_the_end_to_end_metrics(tmp_path):
    result = W.untraced_run("sharpness", seed=0, seconds=0.2, workdir=tmp_path)
    assert result["violations"] == []
    assert result["failed"] == 12 * (result["attempted"] // 157)
    assert set(result["metrics"]) == {"ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "enclosure_width"}
    assert all(v > 0 for v in result["metrics"].values())
    assert result["summary"]["inconclusive_rows"] == 0
    assert result["summary"]["calibration_units"] > 0


def test_traced_sharpness_run_has_no_synthesis(tmp_path, monkeypatch):
    monkeypatch.setitem(W.TRACE_PASSES, "sharpness", 1)
    result = W.traced_run("sharpness", seed=0, workdir=tmp_path)
    m = result["metrics"]
    assert result["hooks"]["missing"] == []
    assert result["violations"] == []
    assert (result["attempted"], result["failed"]) == (157, 12)
    assert m["series.synth_calls"] == 0
    assert (m["sharpness.witness_searches"], m["sharpness.witnesses_found"]) == (84, 72)
    assert m["radii.solve_calls"] >= 64
    assert m["series.max_coeff_err"] > 1e-6  # the known seed-669 defect


def test_benchmark_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sharpness", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "enclosure_width", "setup_s"}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    layer = {m["name"] for m in spec["per_layer"]}
    produced = set(layer_metrics([], 0, 1, found=[h.name for h in HOOKS])) | {"trace.overhead_s", "series.max_coeff_err"}
    assert layer == produced
