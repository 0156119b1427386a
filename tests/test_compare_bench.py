"""The perf-regression gate: benchmarks/compare_bench.py.

The script lives in ``benchmarks/`` (not a package), so it is loaded
via importlib straight from its path — exactly how CI executes it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).parent.parent / "benchmarks"
_SCRIPT = _BENCHMARKS / "compare_bench.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_bench = _load("compare_bench", _SCRIPT)

ESTIMATOR_BASELINE = {
    "n_samples": 1000,
    "scalar_seconds": 0.60,
    "batch_seconds": 0.10,
    "batch_speedup": 6.0,
}

SERVE_BASELINE = {
    "speedup_vs_serial": 2.0,
    "service": {"throughput_rps": 4000.0},
    "serial_baseline": {"throughput_rps": 2000.0},
}


class TestExtractMetrics:
    def test_estimator_schema_ratio_only(self):
        metrics = compare_bench.extract_metrics(ESTIMATOR_BASELINE)
        assert metrics == {"batch_speedup": 6.0}

    def test_estimator_schema_absolute(self):
        metrics = compare_bench.extract_metrics(ESTIMATOR_BASELINE,
                                                absolute=True)
        assert metrics["batch_inversions_per_s"] == pytest.approx(10000.0)
        assert metrics["scalar_inversions_per_s"] == pytest.approx(
            1000 / 0.60)

    def test_serve_schema(self):
        assert compare_bench.extract_metrics(SERVE_BASELINE) == {
            "speedup_vs_serial": 2.0}
        absolute = compare_bench.extract_metrics(SERVE_BASELINE,
                                                 absolute=True)
        assert absolute["service_throughput_rps"] == 4000.0
        assert absolute["serial_throughput_rps"] == 2000.0

    def test_cache_schema(self):
        report = {"warm_speedup": 3.8, "cold_seconds": 7.0,
                  "warm_seconds": 1.85}
        assert compare_bench.extract_metrics(report) == {
            "warm_speedup": 3.8}

    def test_reader_schema(self):
        report = {"cold_speedup": 24.8, "oracle_frames_per_s": 2.4e5,
                  "fast_frames_per_s": 5.9e6,
                  "stream_batch_speedup": 0.96}
        assert compare_bench.extract_metrics(report) == {
            "cold_speedup": 24.8}
        absolute = compare_bench.extract_metrics(report, absolute=True)
        assert absolute["fast_frames_per_s"] == 5.9e6
        assert absolute["oracle_frames_per_s"] == 2.4e5

    def test_gateway_schema(self):
        report = {
            "gateway_vs_inprocess": 0.62,
            "gateway": {"rejection_rate": 0.25,
                        "throughput_rps": 4200.0,
                        "p50_latency_ms": 105.0,
                        "p99_latency_ms": 115.0},
        }
        assert compare_bench.extract_metrics(report) == {
            "gateway_vs_inprocess": 0.62,
            "gateway_accept_rate": 0.75}
        absolute = compare_bench.extract_metrics(report, absolute=True)
        assert absolute["gateway_throughput_rps"] == 4200.0
        assert absolute["gateway_p50_latency_ms"] == 105.0
        assert absolute["gateway_p99_latency_ms"] == 115.0

    def test_gateway_latency_rise_fails_only_with_absolute(self):
        baseline = {
            "gateway_vs_inprocess": 0.6,
            "gateway": {"rejection_rate": 0.0,
                        "p99_latency_ms": 100.0},
        }
        fresh = {
            "gateway_vs_inprocess": 0.6,
            "gateway": {"rejection_rate": 0.0,
                        "p99_latency_ms": 150.0},  # +50% latency
        }
        _, failures = compare_bench.compare(baseline, fresh)
        assert failures == []
        _, failures = compare_bench.compare(baseline, fresh,
                                            absolute=True)
        assert len(failures) == 1
        assert "gateway_p99_latency_ms" in failures[0]
        assert "rose" in failures[0]

    def test_gateway_latency_drop_passes(self):
        baseline = {"gateway_vs_inprocess": 0.6,
                    "gateway": {"rejection_rate": 0.0,
                                "p99_latency_ms": 100.0}}
        fresh = {"gateway_vs_inprocess": 0.6,
                 "gateway": {"rejection_rate": 0.0,
                             "p99_latency_ms": 40.0}}
        _, failures = compare_bench.compare(baseline, fresh,
                                            absolute=True)
        assert failures == []

    def test_chaos_schema(self):
        report = {"survival": {"survival_rate": 0.98, "crashes": 0},
                  "injected_faults": 20}
        assert compare_bench.extract_metrics(report) == {
            "chaos_survival_rate": 0.98}

    def test_chaos_survival_regression_fails(self):
        baseline = {"survival": {"survival_rate": 1.0}}
        fresh = {"survival": {"survival_rate": 0.5}}
        _, failures = compare_bench.compare(baseline, fresh)
        assert len(failures) == 1
        assert "chaos_survival_rate" in failures[0]

    def test_unknown_schema_is_empty(self):
        assert compare_bench.extract_metrics({"something": 1}) == {}


class TestCompare:
    def test_small_drop_passes(self):
        fresh = dict(ESTIMATOR_BASELINE, batch_speedup=5.5)
        lines, failures = compare_bench.compare(ESTIMATOR_BASELINE, fresh)
        assert failures == []
        assert any("ok" in line for line in lines)

    def test_large_drop_fails(self):
        fresh = dict(ESTIMATOR_BASELINE, batch_speedup=4.0)  # -33%
        _, failures = compare_bench.compare(ESTIMATOR_BASELINE, fresh)
        assert len(failures) == 1
        assert "batch_speedup" in failures[0]
        assert "33.3%" in failures[0]

    def test_improvement_passes(self):
        fresh = dict(ESTIMATOR_BASELINE, batch_speedup=9.0)
        _, failures = compare_bench.compare(ESTIMATOR_BASELINE, fresh)
        assert failures == []

    def test_gate_threshold_is_configurable(self):
        fresh = dict(ESTIMATOR_BASELINE, batch_speedup=5.5)  # -8.3%
        _, failures = compare_bench.compare(ESTIMATOR_BASELINE, fresh,
                                            max_regression=0.05)
        assert failures

    def test_missing_fresh_metric_fails(self):
        _, failures = compare_bench.compare(ESTIMATOR_BASELINE,
                                            {"something": 1})
        assert any("missing" in f for f in failures)

    def test_empty_baseline_fails(self):
        _, failures = compare_bench.compare({"something": 1},
                                            ESTIMATOR_BASELINE)
        assert failures == ["baseline report carries no tracked metrics"]

    def test_metric_missing_from_baseline_fails(self):
        """A kind the fresh report carries needs its metrics in the
        baseline too — a regenerated baseline cannot drop a gate."""
        fresh = dict(ESTIMATOR_BASELINE,
                     campaign={"parallel_speedup": 3.5,
                               "cold_speedup": 3.0})
        _, failures = compare_bench.compare(ESTIMATOR_BASELINE, fresh)
        assert sorted(failures) == [
            "metric campaign_cold_speedup missing from baseline",
            "metric campaign_parallel_speedup missing from baseline"]
        dropped = {key: value for key, value in fresh.items()
                   if key != "batch_speedup"}
        _, failures = compare_bench.compare(dropped, fresh)
        assert failures == ["metric batch_speedup missing from baseline"]

    def test_metric_missing_from_fresh_fails(self):
        baseline = dict(ESTIMATOR_BASELINE,
                        campaign={"parallel_speedup": 3.5,
                                  "cold_speedup": 3.0})
        fresh = dict(ESTIMATOR_BASELINE,
                     campaign={"parallel_speedup": 3.5})
        _, failures = compare_bench.compare(baseline, fresh)
        assert failures == [
            "metric campaign_cold_speedup missing from fresh report"]

    def test_hard_gate_fails_at_any_threshold(self):
        baseline = {"sharded_vs_single": 1.0, "shard_balance": 0.7,
                    "parity": {"max_force_delta_n": 0.0,
                               "max_location_delta_m": 0.0,
                               "touched_match": True, "compared": 8}}
        fresh = json.loads(json.dumps(baseline))
        fresh["parity"]["max_location_delta_m"] = 1e-12
        _, failures = compare_bench.compare(baseline, fresh,
                                            max_regression=0.99)
        assert len(failures) == 1
        assert "fleet_parity_ok" in failures[0]
        fresh["parity"] = dict(baseline["parity"], compared=0)
        _, failures = compare_bench.compare(baseline, fresh)
        assert "fleet_parity_ok" in failures[0]

    def test_non_positive_baseline_skipped(self):
        baseline = {"batch_speedup": 0.0}
        lines, failures = compare_bench.compare(
            baseline, {"batch_speedup": 1.0})
        assert failures == []
        assert any("skip" in line for line in lines)


class TestMain:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", ESTIMATOR_BASELINE)
        fresh = self._write(tmp_path, "fresh.json",
                            dict(ESTIMATOR_BASELINE, batch_speedup=5.8))
        assert compare_bench.main(["--baseline", baseline,
                                   "--fresh", fresh]) == 0
        out = capsys.readouterr().out
        assert "perf gate passed" in out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", ESTIMATOR_BASELINE)
        fresh = self._write(tmp_path, "fresh.json",
                            dict(ESTIMATOR_BASELINE, batch_speedup=3.0))
        assert compare_bench.main(["--baseline", baseline,
                                   "--fresh", fresh]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "FAIL" in captured.out

    def test_absolute_flag_gates_throughput(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", SERVE_BASELINE)
        slow = {
            "speedup_vs_serial": 2.0,  # ratio unchanged
            "service": {"throughput_rps": 1000.0},  # -75% absolute
            "serial_baseline": {"throughput_rps": 500.0},
        }
        fresh = self._write(tmp_path, "fresh.json", slow)
        assert compare_bench.main(["--baseline", baseline,
                                   "--fresh", fresh]) == 0
        assert compare_bench.main(["--baseline", baseline,
                                   "--fresh", fresh, "--absolute"]) == 1
        capsys.readouterr()

    def test_rejects_bad_threshold(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", ESTIMATOR_BASELINE)
        with pytest.raises(SystemExit):
            compare_bench.main(["--baseline", baseline,
                                "--fresh", baseline,
                                "--max-regression", "1.5"])

    def test_gates_committed_baselines(self, capsys):
        """Every committed BENCH_*.json passes against itself."""
        paths = sorted((_BENCHMARKS / "results").glob("BENCH_*.json"))
        assert len(paths) >= 9
        for path in paths:
            assert compare_bench.main(["--baseline", str(path),
                                       "--fresh", str(path)]) == 0, path
        capsys.readouterr()


class TestMergeReport:
    def test_partial_report_keeps_the_other_keys(self, tmp_path):
        conftest = _load("bench_conftest", _BENCHMARKS / "conftest.py")
        path = tmp_path / "BENCH_x.json"
        conftest.merge_report(path, {"a": 1, "b": {"c": 2}, "d": 3})
        merged = conftest.merge_report(path, {"b": {"e": 4}})
        assert merged == {"a": 1, "b": {"e": 4}, "d": 3}
        assert json.loads(path.read_text()) == merged
