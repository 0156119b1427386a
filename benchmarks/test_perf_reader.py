"""Performance benchmark for the batched sounder cold path.

The claim under test: the fused capture+extract path of
:class:`repro.reader.batch.FastSounder` (``capture_matrices``) delivers
>= 10x the cold-capture throughput of the oracle path
(:class:`FrameLevelSounder.capture` followed by
:meth:`HarmonicExtractor.extract`) on identical physics — the
prerequisite for running campaign-scale simulation (~337k frames per
cold campaign, see ``BENCH_cache.json``'s ``reader.frames``) at
training-data-factory rates.

Both paths run in this process, interleaved measurement-for-
measurement on the same press states, so the ratio is machine
normalized.  A bit-identity spot check (the parity suite's tier 1) runs
first: a timing win on diverging physics would be meaningless.

The oracle's ``(frames, K)`` temporaries sit near glibc's dynamic
mmap threshold, which moves with whatever the process freed before, so
the ratio would depend on allocator history rather than on the two
timed paths.  Where glibc is present the module pins that threshold
with ``mallopt`` before timing (``mmap_threshold_pinned`` in the
report says whether it could).

The machine-readable summary lands in
``benchmarks/results/BENCH_reader.json`` with the obs counter snapshot
of the measured runs, and ``compare_bench.py`` gates ``cold_speedup``.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import time
from pathlib import Path

import numpy as np
import pytest

from repro.channel.multipath import MultipathChannel, Path as ChannelPath
from repro.channel.propagation import BackscatterLink
from repro.core.harmonics import (
    HarmonicExtractor,
    integer_period_group_length,
)
from repro.experiments.scenarios import fast_transducer
from repro.obs import observed, stamp_report
from repro.reader._kernels import HAVE_NUMBA
from repro.reader.batch import FastSounder
from repro.reader.sounder import FrameLevelSounder
from repro.reader.waveform import OFDMSounderConfig
from repro.sensor.tag import TagState, WiForceTag

from conftest import merge_report

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_reader.json"

#: Phase groups per capture (the reader's default protocol: 2 groups
#: of 625 frames = 1250 frames per read).
GROUPS = 2

#: Timed captures per path.
REPEATS = 40

#: Distinct press states cycled through the timed captures.
BATCH = 8

#: The hard floor the tentpole promises for the fused path.
MIN_COLD_SPEEDUP = 10.0

#: glibc's ``mallopt`` parameter number for the mmap threshold.
M_MMAP_THRESHOLD = -3

#: The pinned threshold [bytes]: glibc's dynamic ceiling on 64-bit
#: hosts, so every capture temporary comes from the heap.
MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024

_report: dict = {
    "groups": GROUPS,
    "repeats": REPEATS,
    "batch": BATCH,
    "min_cold_speedup": MIN_COLD_SPEEDUP,
    "numba": HAVE_NUMBA,
}


def _build(cls, seed=7):
    config = OFDMSounderConfig(carrier_frequency=900e6)
    clutter = MultipathChannel([ChannelPath(2e-3, 8e-9),
                                ChannelPath(1e-3j, 15e-9)])
    tag = WiForceTag(fast_transducer(), clock_offset_ppm=20.0)
    return cls(config, tag, BackscatterLink(), clutter,
               rng=np.random.default_rng(seed))


def _extractor(config):
    length = integer_period_group_length(config.frame_period, 1000.0)
    return HarmonicExtractor(tones=(1000.0, 4000.0), group_length=length)


def _states(count):
    rng = np.random.default_rng(3)
    return [TagState(force=float(rng.uniform(0.5, 8.0)),
                     location=float(rng.uniform(0.02, 0.06)))
            for _ in range(count)]


def _pin_mmap_threshold() -> bool:
    """Pin glibc's mmap threshold for this process.

    Returns whether it took: ``False`` without glibc (no ``mallopt``,
    or musl's stub that refuses every parameter).
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Write the machine-readable summary after the module finishes."""
    _report["mmap_threshold_pinned"] = _pin_mmap_threshold()
    yield
    stamp_report(_report, config={"groups": GROUPS, "repeats": REPEATS,
                                  "batch": BATCH,
                                  "min_cold_speedup": MIN_COLD_SPEEDUP,
                                  "numba": HAVE_NUMBA})
    merge_report(BENCH_PATH, _report)


def test_cold_capture_speedup():
    """Fused capture+extract >= 10x the oracle path, same physics."""
    oracle = _build(FrameLevelSounder)
    fast = _build(FastSounder)
    extractor = _extractor(oracle.config)
    frames = GROUPS * extractor.group_length

    # Parity first: a speedup on diverging physics proves nothing.
    ref = oracle.capture(TagState(2.0, 0.04), frames)
    got = fast.capture(TagState(2.0, 0.04), frames)
    assert np.array_equal(ref.estimates, got.estimates)

    # Cycle a pre-warmed state pool: the tag's per-state RF table is
    # press-state physics paid identically by both sounders (and
    # LRU-cached by the tag they share a design with), so timing it
    # would only dilute the sounder + extraction cost under test.
    pool = _states(BATCH)
    states = [pool[index % BATCH] for index in range(REPEATS)]
    for state in pool:
        extractor.extract(oracle.capture(state, frames))
        fast.capture_matrices(state, GROUPS, extractor)

    with observed() as registry:
        start = time.perf_counter()
        for index, state in enumerate(states):
            extractor.extract(oracle.capture(
                state, frames, start_time=float(index)))
        oracle_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for index, state in enumerate(states):
            fast.capture_matrices(state, GROUPS, extractor,
                                  start_time=float(index))
        fast_seconds = time.perf_counter() - start
        counters = registry.snapshot()["counters"]

    speedup = oracle_seconds / fast_seconds
    total_frames = REPEATS * frames
    _report.update({
        "frames_per_capture": frames,
        "oracle_seconds": oracle_seconds,
        "fast_seconds": fast_seconds,
        "cold_speedup": speedup,
        "oracle_frames_per_s": total_frames / oracle_seconds,
        "fast_frames_per_s": total_frames / fast_seconds,
        "counters": counters,
    })
    assert speedup >= MIN_COLD_SPEEDUP, (
        f"fused capture path is only {speedup:.2f}x faster than the "
        f"oracle; the batched sounder should deliver "
        f">= {MIN_COLD_SPEEDUP:.0f}x"
    )


def test_perf_oracle_read(benchmark):
    """pytest-benchmark: one oracle capture+extract read."""
    oracle = _build(FrameLevelSounder)
    extractor = _extractor(oracle.config)
    frames = GROUPS * extractor.group_length
    state = TagState(2.0, 0.04)
    extractor.extract(oracle.capture(state, frames))
    benchmark.pedantic(
        lambda: extractor.extract(oracle.capture(state, frames)),
        rounds=3, iterations=1)


def test_perf_fast_read(benchmark):
    """pytest-benchmark: one fused capture_matrices read."""
    fast = _build(FastSounder)
    extractor = _extractor(fast.config)
    state = TagState(2.0, 0.04)
    fast.capture_matrices(state, GROUPS, extractor)
    benchmark.pedantic(
        lambda: fast.capture_matrices(state, GROUPS, extractor),
        rounds=3, iterations=1)
