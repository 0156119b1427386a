"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/tests``.
The end-to-end cases spawn the real gateway and reader for about two
seconds each; the first one in a fresh checkout primes the private
cache (about 25 s).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from speed import REFERENCE_S, SpeedTrace  # noqa: E402
from workloads import WORKLOADS, PressSource, arrival_offsets  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class _LinearModel:
    """Stand-in forward model: no calibration needed for tape tests."""

    locations = np.array([0.02, 0.06])

    def predict_batch(self, force, location):
        force = np.asarray(force, dtype=float)
        location = np.asarray(location, dtype=float)
        return -0.3 * force - 10.0 * location, -0.2 * force - 5.0 * location


def _tape_arrays(tape):
    return [getattr(tape, name) for name in (
        "sensor", "sample", "phi1", "phi2", "force", "location", "touched")]


@pytest.mark.parametrize("name", ["ws-grid-steady", "ws-touch-lifecycle"])
def test_same_seed_same_tape(name):
    workload = WORKLOADS[name]
    tapes = [PressSource(_LinearModel(), workload, seed).take(700)
             for seed in (5, 5, 6)]
    for a, b in zip(_tape_arrays(tapes[0]), _tape_arrays(tapes[1])):
        assert np.array_equal(a, b)
    assert not np.array_equal(tapes[0].phi1, tapes[2].phi1)


def test_tape_continues_across_takes():
    workload = WORKLOADS["ws-grid-steady"]
    whole = PressSource(_LinearModel(), workload, seed=3).take(5000)
    parts = PressSource(_LinearModel(), workload, seed=3)
    joined = [parts.take(1234), parts.take(3766)]
    assert np.array_equal(np.concatenate([t.phi1 for t in joined]),
                          whole.phi1)


@pytest.mark.parametrize("arrival", ["uniform", "pareto"])
def test_same_seed_same_arrivals(arrival):
    a = arrival_offsets(5000, 900.0, arrival, seed=9)
    b = arrival_offsets(5000, 900.0, arrival, seed=9)
    assert np.array_equal(a, b)
    # Every seed offers exactly the stated mean rate.
    gaps = np.diff(arrival_offsets(5000, 900.0, arrival, seed=10))
    assert abs(gaps.mean() * 900.0 - 1.0) < 0.01


def test_lifecycle_closing_samples_end_presses():
    source = PressSource(_LinearModel(), WORKLOADS["ws-touch-lifecycle"], 4)
    touched = source.schedule(2).touched
    closing = source.closing_samples(2)
    assert closing.size > 10
    assert not touched[closing].any()
    assert touched[closing - 1].all()


def test_speed_trace_normalizes_to_reference_speed():
    # Twice as slow as the reference for 2 s, then at the reference speed.
    times = np.arange(0.0, 4.0, 0.05)
    costs = np.where(times < 2.0, 2.0, 1.0) * REFERENCE_S
    speed = SpeedTrace(times, costs)
    assert speed.at([0.5, 3.5]).tolist() == [2.0, 1.0]
    assert speed.normalize(0.4, 1.4) == pytest.approx(0.5)
    assert speed.normalize(2.6, 3.6) == pytest.approx(1.0)
    # Between samples the nearest one counts.
    assert speed.over(3.501, 3.502) == 1.0


def _fake_result(names, problems=()):
    return {"attempted": 10, "failed": 0, "problems": list(problems),
            "metrics": {name: 1.5 for name in names}, "detail": {}}


def _run_with(monkeypatch, capsys, result, trace=0):
    async def fake_run_one(name, seed, seconds, trace, primed):
        return result

    monkeypatch.setattr(run, "run_one", fake_run_one)
    monkeypatch.setattr(run, "ensure_cache", lambda targets: {})
    monkeypatch.setattr(run, "save", lambda *args: None)
    monkeypatch.setattr(run.common, "pin_process", lambda pid, cpus: None)
    code = run.main(["--workload", "ws-grid-steady", "--seed", "1",
                     "--seconds", "1", "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"),
                                        (1, "per_layer")])
def test_every_metric_emitted_with_unit(monkeypatch, capsys, trace, kind):
    names = [entry["name"] for entry in SPEC[kind]]
    code, line = _run_with(monkeypatch, capsys, _fake_result(names), trace)
    assert code == 0 and line["correct"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for entry in SPEC[kind]:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_missing_metric_exits_nonzero(monkeypatch, capsys):
    names = [entry["name"] for entry in SPEC["end_to_end"]][1:]
    code, line = _run_with(monkeypatch, capsys, _fake_result(names))
    assert code != 0 and not line["correct"]


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    names = [entry["name"] for entry in SPEC["end_to_end"]]
    code, line = _run_with(monkeypatch, capsys,
                           _fake_result(names, ["replies differ"]))
    assert code != 0 and not line["correct"]


def test_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ws-grid-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _bench(*args):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=900)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [("ws-grid-steady", "0"),
                                            ("ws-grid-steady", "1"),
                                            ("acquire-read", "0")])
def test_tiny_real_run(workload, trace):
    code, line = _bench("--workload", workload, "--seed", "2",
                        "--seconds", "2", "--trace", trace)
    assert code == 0, line
    assert line["correct"] and line["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert [entry["name"] for entry in SPEC[kind]] == list(line["metrics"])
    if trace == "1":
        metrics = line["metrics"]
        assert metrics["core.estimator.invert_batch_calls"]["value"] > 0
        assert metrics["core.tracking.samples_scanned_per_call"]["value"] == 0


def test_tracking_scan_grows_with_history():
    code, line = _bench("--workload", "ws-touch-lifecycle", "--seed", "2",
                        "--seconds", "2", "--trace", "1")
    assert code == 0, line
    metrics = {name: body["value"] for name, body in line["metrics"].items()}
    assert metrics["core.tracking.touch_events_calls"] > 0
    assert (metrics["core.tracking.samples_scanned_max"]
            > metrics["core.tracking.samples_scanned_per_call"] > 0)
    assert metrics["event_latency_p99_ms"] > 0
