"""The process under test for ``acquire-read``: one live WiForce reader.

Builds ``build_wireless_scenario(900e6, fast=True, seed)`` in a fixed
room (clutter seeded by ``ENVIRONMENT``), captures the
baseline and prints ``ready``.  On ``run <seconds> <out.json>`` from
stdin it reads a seeded press set live through ``WiForceReader.read``
for half the time, then sweeps presses through ``measure_phases_batch``
plus ``invert_batch`` (the surrogate-training acquisition loop) for the
other half, and writes phases, estimates, ground truth and timings to
``out.json``.  ``quit`` exits.

The reader re-captures its baseline every ``REBASELINE_EVERY`` reads
(and before every sweep chunk).  On a single baseline the tag clock's
drift residual grows with sounding time: the force error p90 climbs
from about 0.7 N to over 3 N within 300 reads, so accuracy would depend
on how long a run went.  That single-baseline error is still measured,
on a final unscored block, and reported by the traced run.

When ``PERFBENCH_TRACE_OUT`` names a file the reader-layer wrappers of
:mod:`tracing` are installed first and the ledger is written there at
exit.

Run only by the benchmark:
``python perfbench/reader_proc.py <seed>``.
"""

import json
import os
import sys
import time

#: Live reads and swept presses whose accuracy is scored (fixed
#: counts, so accuracy repeats exactly for a seed).
SCORED_READS = 2048
SCORED_SWEEP = 512
#: Presses per ``measure_phases_batch`` call (one baseline each).
SWEEP_CHUNK = 32
#: Live reads per baseline capture.
REBASELINE_EVERY = 16
#: Seed of the room's multipath clutter, the same for every run: the
#: run's seed draws the presses and the receiver noise, not the room.
ENVIRONMENT = 20210412
#: Reads of the final single-baseline drift block.
DRIFT_READS = 256
#: Seeded presses: live reads use the first ``SWEEP_FROM``, the sweep
#: the rest.
PRESSES = 1 << 14
SWEEP_FROM = 1 << 13


def _peak_rss_mb() -> float:
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line")


def run(reader, seed: int, seconds: float) -> dict:
    """Scored reads, scored sweep, then both continue until their half
    of ``seconds`` is spent.

    The scored sets come first, so they start at the same sounder clock
    and noise state on every run of a seed and their accuracy repeats
    exactly.
    """
    from repro.sensor.tag import TagState
    from workloads import acquire_presses

    perf = time.perf_counter
    forces, locations = acquire_presses(seed, PRESSES)
    reads = []
    sweep = []
    timing = {"read": 0.0, "sweep": 0.0}
    segments = []
    next_sweep = [SWEEP_FROM]

    def read_until(count: int, deadline: float) -> None:
        began = perf()
        index = len(reads)
        while (index < count or perf() - began < deadline) \
                and index < SWEEP_FROM - DRIFT_READS:
            if index and index % REBASELINE_EVERY == 0:
                reader.capture_baseline()
            state = TagState(force=float(forces[index]),
                             location=float(locations[index]))
            start = perf()
            reading = reader.read(state)
            ended = perf()
            estimate = reading.estimate
            reads.append([float(forces[index]), float(locations[index]),
                          float(reading.phi1), float(reading.phi2),
                          float(estimate.force), float(estimate.location),
                          float(estimate.residual), bool(estimate.touched),
                          ended - start, start])
            index += 1
        segments.append([began, perf()])
        timing["read"] += segments[-1][1] - began

    def sweep_until(count: int, deadline: float) -> None:
        began = perf()
        while ((len(sweep) < count or perf() - began < deadline)
               and next_sweep[0] + SWEEP_CHUNK <= PRESSES):
            chunk = range(next_sweep[0], next_sweep[0] + SWEEP_CHUNK)
            states = [TagState(force=float(forces[i]),
                               location=float(locations[i])) for i in chunk]
            reader.capture_baseline()
            phi1, phi2 = reader.measure_phases_batch(states)
            batch = reader.estimator.invert_batch(phi1, phi2)
            for row, i in enumerate(chunk):
                sweep.append([float(forces[i]), float(locations[i]),
                              float(phi1[row]), float(phi2[row]),
                              float(batch.force[row]),
                              float(batch.location[row])])
            next_sweep[0] += SWEEP_CHUNK
        timing["sweep"] += perf() - began

    read_until(SCORED_READS, 0.0)
    sweep_until(SCORED_SWEEP, 0.0)
    read_until(0, 0.5 * seconds - timing["read"])
    sweep_until(0, 0.5 * seconds - timing["sweep"])
    drift = []
    reader.capture_baseline()
    for index in range(SWEEP_FROM - DRIFT_READS, SWEEP_FROM):
        reading = reader.read(TagState(force=float(forces[index]),
                                       location=float(locations[index])))
        drift.append([float(forces[index]), float(reading.estimate.force)])
    return {"reads": reads, "read_seconds": timing["read"],
            "read_segments": segments,
            "sweep": sweep, "sweep_seconds": timing["sweep"],
            "drift": drift, "rss_mb": _peak_rss_mb()}


def main() -> int:
    seed = int(sys.argv[1])
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT", "")
    ledger = None
    if trace_out:
        from tracing import Ledger, install_reader

        ledger = Ledger()
        install_reader(ledger)
    import numpy as np

    from repro.channel.multipath import indoor_channel
    from repro.experiments.scenarios import build_wireless_scenario

    began = time.perf_counter()
    clutter = indoor_channel(900e6, rng=np.random.default_rng(ENVIRONMENT))
    reader = build_wireless_scenario(900e6, fast=True, seed=seed,
                                     clutter=clutter)
    if ledger is not None:
        ledger.values["warm_load_s"] = time.perf_counter() - began
    reader.capture_baseline()
    print("ready", flush=True)
    try:
        for line in sys.stdin:
            words = line.split()
            if not words or words[0] == "quit":
                break
            if words[0] == "run":
                result = run(reader, seed, float(words[1]))
                with open(words[2], "w", encoding="utf-8") as handle:
                    json.dump(result, handle)
                print("done", flush=True)
    finally:
        if ledger is not None:
            ledger.dump(trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
