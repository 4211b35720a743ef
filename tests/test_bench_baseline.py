"""The benchmark baseline-regression gate (benchmarks/run_bench.py)."""

import importlib.util
import json
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent


def _run_bench():
    spec = importlib.util.spec_from_file_location(
        "run_bench", REPO / "benchmarks" / "run_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _baseline(tmp_path, kernels, calibration=1.0, calibration_numpy=None):
    path = tmp_path / "baseline.json"
    meta = {"calibration_s": calibration}
    if calibration_numpy is not None:
        meta["calibration_numpy_s"] = calibration_numpy
    path.write_text(json.dumps({"meta": meta, "kernels": kernels}))
    return path


class TestCheckBaseline:
    def test_identical_times_pass(self, tmp_path):
        rb = _run_bench()
        path = _baseline(tmp_path, {"k": 1.0})
        assert rb.check_baseline({"k": 1.0}, 1.0, path, 0.25) == 0

    def test_large_regression_fails(self, tmp_path):
        rb = _run_bench()
        path = _baseline(tmp_path, {"k": 1.0})
        assert rb.check_baseline({"k": 2.0}, 1.0, path, 0.25) == 1

    def test_within_tolerance_passes(self, tmp_path):
        rb = _run_bench()
        path = _baseline(tmp_path, {"k": 1.0})
        assert rb.check_baseline({"k": 1.2}, 1.0, path, 0.25) == 0

    def test_calibration_scales_limit(self, tmp_path):
        rb = _run_bench()
        # This machine is 2x slower than the baseline machine, so a 2x
        # kernel time is not a regression.
        path = _baseline(tmp_path, {"k": 1.0}, calibration=1.0)
        assert rb.check_baseline({"k": 2.0}, 2.0, path, 0.25) == 0

    def test_mixed_calibration_takes_lenient_scale(self, tmp_path):
        rb = _run_bench()
        # Interpreter 30% faster than baseline machine but NumPy speed
        # unchanged: a NumPy-bound kernel at its baseline cost must not
        # become a false regression, so the larger ratio wins.
        path = _baseline(tmp_path, {"k": 1.0}, calibration=1.0,
                         calibration_numpy=1.0)
        assert rb.check_baseline({"k": 1.0}, 0.7, path, 0.25,
                                 calibration_numpy=1.0) == 0

    def test_absolute_slack_absorbs_tiny_kernel_noise(self, tmp_path):
        rb = _run_bench()
        path = _baseline(tmp_path, {"k": 0.001})
        noisy = 0.001 * 1.25 + rb.BASELINE_SLACK_S * 0.9
        assert rb.check_baseline({"k": noisy}, 1.0, path, 0.25) == 0

    def test_new_kernel_without_baseline_is_not_a_failure(self, tmp_path):
        rb = _run_bench()
        path = _baseline(tmp_path, {"k": 1.0})
        assert rb.check_baseline({"k": 1.0, "new": 5.0}, 1.0, path, 0.25) == 0

    def test_dropped_baseline_kernel_is_a_failure(self, tmp_path):
        # Renaming or removing a gated kernel must not silently disable
        # its regression coverage.
        rb = _run_bench()
        path = _baseline(tmp_path, {"old": 1.0})
        assert rb.check_baseline({"new": 5.0}, 1.0, path, 0.25) == 1

    def test_overhead_kernel_uses_absolute_budget(self, tmp_path):
        rb = _run_bench()
        # Ratio kernels: baseline + OVERHEAD_SLACK, no machine scaling
        # — a 10x faster machine must not shrink the overhead budget.
        path = _baseline(tmp_path, {"k_overhead": 0.0}, calibration=10.0)
        under = rb.OVERHEAD_SLACK * 0.8
        over = rb.OVERHEAD_SLACK * 1.2
        assert rb.check_baseline({"k_overhead": under}, 1.0, path, 0.25) == 0
        assert rb.check_baseline({"k_overhead": over}, 1.0, path, 0.25) == 1

    def test_negative_overhead_passes(self, tmp_path):
        # Noise can make the supervised arm measure faster than raw.
        rb = _run_bench()
        path = _baseline(tmp_path, {"k_overhead": 0.0})
        assert rb.check_baseline({"k_overhead": -0.08}, 1.0, path, 0.25) == 0

    def test_committed_quick_baseline_covers_engine(self):
        data = json.loads(
            (REPO / "benchmarks" / "quick_baseline.json").read_text()
        )
        assert "engine_3level_policies_512_x3" in data["kernels"]
        assert "engine_3level_generic_512" in data["kernels"]
        assert "prefetch_3level_next_k_512" in data["kernels"]
        assert "prefetch_3level_fidelity_next_k_512" in data["kernels"]
        assert "supervised_runner_overhead" in data["kernels"]
        assert "residency_accrual_overhead" in data["kernels"]
        assert "fidelity_replay_speedup" in data["kernels"]
        assert _run_bench().SPEEDUP_FLOORS["fidelity_replay_speedup"] >= 3.0
        assert "wide_group_pricing_speedup" in data["kernels"]
        assert _run_bench().SPEEDUP_FLOORS["wide_group_pricing_speedup"] >= 1.3
        assert data["meta"]["calibration_s"] > 0
        # The committed overhead baseline is pinned at zero so the gate
        # is exactly the OVERHEAD_SLACK budget, not a noisy measurement.
        assert data["kernels"]["supervised_runner_overhead"] == 0.0
        # The gate's absolute slack must stay small relative to every
        # *timed* kernel, or relative regressions hide inside it; ratio
        # kernels use the absolute OVERHEAD_SLACK rule instead.
        rb = _run_bench()
        for name, seconds in data["kernels"].items():
            if name.endswith("_overhead"):
                continue
            assert rb.BASELINE_SLACK_S <= 0.25 * seconds, (name, seconds)
