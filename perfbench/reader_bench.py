"""``acquire-read``: the live reader in its own worker process.

The worker (:mod:`reader_proc`) is the process under test: ``setup_s``
runs from its spawn to its captured baseline, ``server_rss_mb`` is its
peak RSS.  Per-read latency and live reads per second come from
``WiForceReader.read``; the sweep rate from ``measure_phases_batch``
plus ``invert_batch``.  Reads are sequential (one reader owns the
sounder clock), so ``capacity_rps`` here is the closed-loop live read
rate.  Every timing is normalized to the reference host speed by a
:class:`speed.SpeedProbe` on the worker's CPU.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import List, Optional, Tuple

import numpy as np

from common import (BENCH_DIR, ROOT, STATE, child_env, cpu_roles, median,
                    percentile, pin_process)
from speed import SpeedProbe

_perf = time.perf_counter

#: Consecutive reads per latency block (at least ten beyond the p99).
READ_BLOCK = 1000
#: Worker processes spawned per run to time set-up.
SETUP_SPAWNS = 3
START_TIMEOUT_S = 120.0


class ReaderProcess:
    """``reader_proc.py`` in a child process, timed from spawn."""

    def __init__(self, seed: int, trace_path: Optional[str] = None):
        self.seed = seed
        self.trace_path = trace_path
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.spawned_at = 0.0
        STATE.mkdir(parents=True, exist_ok=True)
        self._log = open(STATE / "reader.log", "ab")

    async def start(self) -> Tuple[float, float]:
        """Spawn; (spawn, baseline captured) perf_counter times."""
        extra = {"PERFBENCH_TRACE_OUT": self.trace_path} \
            if self.trace_path else None
        self.spawned_at = _perf()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(BENCH_DIR / "reader_proc.py"),
            str(self.seed), stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, stderr=self._log,
            env=child_env(extra), cwd=str(ROOT))
        pin_process(self.proc.pid, cpu_roles()[1])
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      START_TIMEOUT_S)
        ready = _perf()
        if line.strip() != b"ready":
            raise RuntimeError(f"reader worker did not start: {line!r}")
        return self.spawned_at, ready

    async def run(self, seconds: float, out_path: str) -> None:
        self.proc.stdin.write(f"run {seconds} {out_path}\n".encode())
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      seconds + 120.0)
        if line.strip() != b"done":
            raise RuntimeError(f"reader worker failed: {line!r}")

    async def stop(self) -> None:
        """Ask the worker to quit; kill it on timeout; wait for it."""
        if self.proc is not None and self.proc.returncode is None:
            try:
                self.proc.stdin.write(b"quit\n")
                await self.proc.stdin.drain()
                self.proc.stdin.close()
                await asyncio.wait_for(self.proc.wait(), 15.0)
            except (asyncio.TimeoutError, ConnectionError):
                self.proc.kill()
                await self.proc.wait()
        self._log.close()


async def spawn_measured(seed: int, spawns: int,
                         trace_path: Optional[str] = None,
                         ) -> Tuple[List[Tuple[float, float]],
                                    ReaderProcess]:
    """``spawns`` workers timed to their baseline; the last is kept."""
    times: List[Tuple[float, float]] = []
    for index in range(spawns):
        last = index + 1 == spawns
        worker = ReaderProcess(seed, trace_path if last else None)
        try:
            times.append(await worker.start())
        except BaseException:
            await worker.stop()
            raise
        if last:
            return times, worker
        await worker.stop()
    raise ValueError("spawns must be >= 1")


def check_and_score(result: dict) -> Tuple[List[str], dict]:
    """Live reads equal an in-process ``invert_batch`` over their
    phases; accuracy against the generated ground truth."""
    from reader_proc import SCORED_READS, SCORED_SWEEP
    from repro.core.estimator import build_estimator
    from repro.experiments.scenarios import calibrated_model

    problems: List[str] = []
    reads = np.array([row[:8] for row in result["reads"]], dtype=float)
    estimator = build_estimator(calibrated_model(900e6, fast=True), "grid")
    expected = estimator.invert_batch(reads[:, 2], reads[:, 3])
    mismatched = int(np.sum(
        (expected.force != reads[:, 4]) | (expected.location != reads[:, 5])
        | (expected.residual != reads[:, 6])
        | (expected.touched != reads[:, 7].astype(bool))))
    if mismatched:
        problems.append(f"{mismatched} live reads differ from in-process "
                        "invert_batch over their phases")
    sweep = np.array(result["sweep"], dtype=float)
    scored = np.concatenate([reads[:SCORED_READS, [0, 1, 4, 5]],
                             sweep[:SCORED_SWEEP, [0, 1, 4, 5]]])
    force_err = np.abs(scored[:, 2] - scored[:, 0])
    location_err = 1e3 * np.abs(scored[:, 3] - scored[:, 1])
    force_p90 = float(np.percentile(force_err, 90))
    location_p90 = float(np.percentile(location_err, 90))
    # Sanity floor: an estimate must beat pairing each press with another
    # press's truth (chance level over the same set).
    shifted = np.roll(scored, scored.shape[0] // 2, axis=0)
    chance_force = float(np.percentile(
        np.abs(shifted[:, 0] - scored[:, 0]), 90))
    chance_location = float(np.percentile(
        1e3 * np.abs(shifted[:, 1] - scored[:, 1]), 90))
    if not (force_p90 < chance_force and location_p90 < chance_location):
        problems.append(f"accuracy no better than chance: force p90 "
                        f"{force_p90:.3f} N (chance {chance_force:.3f}), "
                        f"location p90 {location_p90:.3f} mm (chance "
                        f"{chance_location:.3f})")
    sweep_err = np.abs(sweep[:SCORED_SWEEP, 4] - sweep[:SCORED_SWEEP, 0])
    drift = np.array(result["drift"], dtype=float)
    return problems, {"force_p90": force_p90, "location_p90": location_p90,
                      "chance_force_p90": chance_force,
                      "chance_location_p90": chance_location,
                      "sweep_force_p90": float(np.percentile(sweep_err, 90)),
                      "one_baseline_force_p90": float(np.percentile(
                          np.abs(drift[:, 1] - drift[:, 0]), 90)),
                      "reads_checked": int(reads.shape[0])}


async def run_reader(seed: int, seconds: float,
                     trace_path: Optional[str] = None,
                     spawns: int = SETUP_SPAWNS) -> dict:
    """One ``acquire-read`` run; returns metrics plus the raw result."""
    probe = SpeedProbe(cpu_roles()[1], str(STATE / "speed-reader.json"))
    await probe.start()
    try:
        setup, worker = await spawn_measured(seed, spawns, trace_path)
        out_path = str(STATE / f"reader-{seed}.json")
        try:
            await worker.run(seconds, out_path)
        finally:
            await worker.stop()
    finally:
        speed = await probe.stop()
    if speed is None:
        raise RuntimeError("the speed probe failed")
    with open(out_path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    problems, scores = check_and_score(result)
    raw = np.array([1e3 * row[8] for row in result["reads"]])
    latencies = list(raw / speed.at([row[9] for row in result["reads"]]))
    read_seconds = sum(speed.normalize(start, end)
                       for start, end in result["read_segments"])
    # p99 per block of consecutive reads, median over blocks, so one
    # stall moves one block, not the figure.
    blocks = [latencies[start:start + READ_BLOCK]
              for start in range(0, len(latencies), READ_BLOCK)]
    blocks = [block for block in blocks if len(block) == READ_BLOCK] \
        or [latencies]
    return {
        "attempted": len(result["reads"]) + len(result["sweep"]),
        "failed": 0,
        "problems": problems,
        "metrics": {
            "setup_s": median([speed.normalize(*span) for span in setup]),
            "latency_p50_ms": median(latencies),
            "latency_p99_ms": median([percentile(block, 99)
                                      for block in blocks]),
            "capacity_rps": len(result["reads"]) / read_seconds,
            "force_err_p90_n": scores["force_p90"],
            "location_err_p90_mm": scores["location_p90"],
            "server_rss_mb": result["rss_mb"],
        },
        "detail": {
            "setup_s_raw": [end - start for start, end in setup],
            "latency_p50_raw_ms": float(np.median(raw)),
            "capacity_raw_rps": (len(result["reads"])
                                 / result["read_seconds"]),
            "speed_factor": speed.mean(),
            "reads": len(result["reads"]),
            "sweep_presses": len(result["sweep"]),
            "latency_mean_ms": float(raw.mean()),
            "sweep_presses_per_s": (len(result["sweep"])
                                    / result["sweep_seconds"]),
            "checks": scores,
        },
    }
