"""Host-speed probe: timings normalized to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed swings
between modes 1.65-2.2x apart, each lasting from under a second to
many minutes.  On a 2-vCPU sandbox twenty passes of a fixed reference
loop took 0.95 ms or 1.6 ms on the same vCPU within one 20 s run, and
one live ``WiForceReader.read`` took 0.73 ms or 1.39 ms.  The guest
reports no steal time, so CPU time swings with wall time.  Whole runs
fall mostly in one mode or the other, so raw timings spread between
runs far beyond what a benchmark bound can tolerate.

A probe process pinned to the CPU under test runs a fixed reference
pass (:func:`reference_pass`) every :data:`PERIOD_S` and records the
pass's thread CPU time (so preemption by the process under test is not
counted).  The ratio of that time to :data:`REFERENCE_S` is the host's
slowdown at that moment; its trimmed mean over a second, or over a
timed interval, is the slowdown there.  A timing divided by the
slowdown around it reads as it would on a host running at the
reference speed.  Within one second, a live read and the reference
pass kept a ratio within 4% of each other while the raw read time
moved by 1.9x.  Work that is less sensitive to the host's mode than
the reference pass is divided by a power of the slowdown instead
(``sensitivity``).

Run as a script only by the benchmark:
``python perfbench/speed.py <out.json>``; SIGTERM ends it.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

#: Seconds between reference passes (about 0.4% of one CPU).
PERIOD_S = 0.05
#: Thread CPU time of one warm reference pass at the reference speed:
#: the fast mode of the 2-vCPU sandbox the bounds were tuned on.
REFERENCE_S = 110e-6
#: Half-width of the window over which pass times are averaged.
SMOOTH_S = 0.5
#: Share of the pass times cut from each end before averaging: passes
#: that a cache-cold start or an interrupt made odd.
TRIM = 0.1
START_TIMEOUT_S = 60.0


def reference_pass() -> float:
    """A fixed mix of interpreter and small-array numpy work."""
    total = 0
    for i in range(600):
        total += i * i
    values = np.arange(64.0)
    for _ in range(40):
        values = np.sin(values) + values * 0.5
    return total + float(values[0])


def probe_main(out_path: str) -> int:
    """Sample the reference pass until SIGTERM; write the samples."""
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    clock = time.thread_time
    times: List[float] = []
    costs: List[float] = []
    print("ready", flush=True)
    while not stopping:
        time.sleep(PERIOD_S)
        reference_pass()        # warm the caches the last sleep cooled
        began = clock()
        reference_pass()
        costs.append(clock() - began)
        times.append(time.perf_counter())
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"times": times, "costs": costs}, handle)
    return 0


class SpeedTrace:
    """The host slowdown over time on one CPU (1.0 = reference speed)."""

    def __init__(self, times: Sequence[float], costs: Sequence[float]):
        if not len(times):
            raise RuntimeError("the speed probe recorded no sample")
        self.times = np.asarray(times, dtype=float)
        self.raw = np.asarray(costs, dtype=float) / REFERENCE_S
        low = np.searchsorted(self.times, self.times - SMOOTH_S)
        high = np.searchsorted(self.times, self.times + SMOOTH_S, "right")
        self.slowdown = np.array([_trimmed_mean(self.raw[a:b])
                                  for a, b in zip(low, high)])

    def at(self, moments, sensitivity: float = 1.0) -> np.ndarray:
        """Slowdown at each of ``moments`` (nearest sample), raised to
        ``sensitivity`` (see :data:`gateway_bench.GATEWAY_SENSITIVITY`)."""
        moments = np.asarray(moments, dtype=float)
        index = np.searchsorted(self.times, moments)
        index = np.clip(index, 1, self.times.size - 1) \
            if self.times.size > 1 else np.zeros_like(index)
        if self.times.size > 1:
            before = np.abs(moments - self.times[index - 1]) \
                < np.abs(self.times[index] - moments)
            index = index - before
        return self.slowdown[index] ** sensitivity

    def over(self, start: float, end: float,
             sensitivity: float = 1.0) -> float:
        """Mean slowdown over ``[start, end]``, raised to
        ``sensitivity``."""
        inside = (self.times >= start) & (self.times <= end)
        if inside.sum() < 1 / TRIM:
            return float(self.at([0.5 * (start + end)], sensitivity)[0])
        return _trimmed_mean(self.raw[inside]) ** sensitivity

    def normalize(self, start: float, end: float) -> float:
        """``end - start`` as it would read at the reference speed."""
        return (end - start) / self.over(start, end)

    def mean(self) -> float:
        """Mean slowdown over the whole trace."""
        return _trimmed_mean(self.raw)


def _trimmed_mean(values: np.ndarray) -> float:
    """Mean of ``values`` without the ``TRIM`` share at each end.

    A mean, not a median: in some periods the host alternates between
    its modes faster than the probe samples, and then the process under
    test runs at the average speed, which a median would miss.
    """
    ordered = np.sort(values)
    cut = int(TRIM * ordered.size)
    return float(np.mean(ordered[cut:ordered.size - cut]))


class SpeedProbe:
    """:func:`probe_main` in a child process pinned to ``cpus``."""

    def __init__(self, cpus: set, out_path: str):
        self.cpus = cpus
        self.out_path = out_path
        self.proc: Optional[asyncio.subprocess.Process] = None

    async def start(self) -> None:
        from common import BENCH_DIR, ROOT, child_env, pin_process

        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(BENCH_DIR / "speed.py"), self.out_path,
            stdout=asyncio.subprocess.PIPE, env=child_env(), cwd=str(ROOT))
        pin_process(self.proc.pid, self.cpus)
        try:
            line = await asyncio.wait_for(self.proc.stdout.readline(),
                                          START_TIMEOUT_S)
            if line.strip() != b"ready":
                raise RuntimeError(f"speed probe did not start: {line!r}")
        except BaseException:
            if self.proc.returncode is None:
                self.proc.kill()
            await self.proc.wait()
            raise

    async def stop(self) -> Optional[SpeedTrace]:
        """End the probe, wait for it; its trace (None if it died)."""
        if self.proc is None:
            return None
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.proc.wait(), 15.0)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
                return None
        if self.proc.returncode != 0:
            return None
        with open(self.out_path, "r", encoding="utf-8") as handle:
            samples = json.load(handle)
        return SpeedTrace(samples["times"], samples["costs"])


if __name__ == "__main__":
    sys.exit(probe_main(sys.argv[1]))
