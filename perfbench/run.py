"""WiForce serving and acquisition benchmark: one command, every layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ws-grid-steady --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --all --seconds 10      # every workload,
                                                    # untraced + traced

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json`` with tracing off; ``--trace 1`` is the separate
traced run that reports the per-layer table.  Every run checks its
outputs (exact parity of every reply against an in-process
``invert_batch``, answered-or-failed accounting, touch events against
the post-hoc query, accuracy against ground truth) and prints, as its
last stdout line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed check or missing metric exits
non-zero.  Results with the machine record (nproc, Python, numpy,
numba availability, source revision) go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import subprocess
import sys
import time
from typing import Dict, List

import common

common.pin_threads()

#: Hard bound on one invocation (the contract allows 180 s).
RUN_TIMEOUT_S = 170.0
#: Bound on the one-time cold prime of the private cache.
PRIME_TIMEOUT_S = 850.0


def ensure_cache(targets: List[str]) -> Dict[str, float]:
    """Prime the private cache once per target; cold seconds per target.

    The cold time of each target is kept in ``primed.json`` so every
    later run can report it as a diagnostic.
    """
    common.CACHE_DIR.mkdir(parents=True, exist_ok=True)
    marker = common.CACHE_DIR / "primed.json"
    primed = json.loads(marker.read_text()) if marker.exists() else {}
    for target in targets:
        if target in primed:
            continue
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "prime.py"), target],
            env=common.child_env(), cwd=str(common.ROOT), check=True,
            timeout=PRIME_TIMEOUT_S, stdout=subprocess.DEVNULL)
        primed[target] = time.perf_counter() - began
        marker.write_text(json.dumps(primed))
    return primed


#: Everything any workload loads from the cache, primed on first use.
CACHE_TARGETS = ("grid", "surrogate")


def cache_targets(workload) -> List[str]:
    return ["grid", "surrogate"] if workload.backend == "surrogate" \
        else ["grid"]


def warm_model():
    """The calibrated model, from the (primed) private cache."""
    import os

    os.environ["REPRO_CACHE_DIR"] = str(common.CACHE_DIR)
    from repro.experiments.scenarios import calibrated_model

    return calibrated_model(900e6, fast=True)


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------

async def traced_ws(workload, model, seed: int, seconds: float) -> dict:
    """Untraced then traced steady phase; the per-layer table."""
    import gateway_bench as gb
    from speed import SpeedProbe
    from tracing import layer_metrics, request_ledger

    half = max(0.5, 0.5 * seconds)
    passes = {}
    probe = SpeedProbe(common.cpu_roles()[1],
                       str(common.STATE / "speed-traced.json"))
    await probe.start()
    try:
        for traced in (False, True):
            trace_path = str(common.STATE / f"trace-{workload.name}.json") \
                if traced else None
            _, gateway = await gb.measure_setup(workload, 1, trace_path)
            try:
                generator, warmup, steady, _ = await gb.run_steady(
                    workload, model, seed, half, gateway,
                    gb.connection_count())
                try:
                    problems, _ = gb.check_replies(generator, model)
                    events = {"event_latency_ms": []}
                    if workload.lifecycle:
                        touch, events = await gb.check_touch_events(
                            generator, gateway.port, steady)
                        problems += touch
                finally:
                    generator.close()
            finally:
                await gateway.stop()
            passes[traced] = (warmup, steady, problems, events)
    finally:
        speed = await probe.stop()
    if speed is None:
        raise RuntimeError("the speed probe failed")
    warmup, steady, problems, _ = passes[True]
    _, plain, plain_problems, events = passes[False]
    problems = plain_problems + problems
    with open(str(common.STATE / f"trace-{workload.name}.json"), "r",
              encoding="utf-8") as handle:
        ledger = json.load(handle)
    # The traced process also served the warm-up and the set-up probe,
    # so per-request figures divide by everything it served, over the
    # wall time from the first warm-up due time to the last reply.
    latencies = steady.latencies_ms()
    served = len(ledger["samples"].get("service.seconds", []))
    wall = (max(steady.arrival.values()) - warmup.due[0]) \
        if steady.arrival else 0.0
    metrics = layer_metrics(ledger, served, wall)
    service = dict(zip(ledger["samples"].get("service.sequence", []),
                       ledger["samples"].get("service.seconds", [])))
    hops = [1e3 * (steady.arrival[seq] - steady.due[seq - steady.first])
            - 1e3 * service[seq]
            for seq in steady.arrival if seq in service]
    metrics["gateway.hop_ms_p50"] = common.median(hops) if hops else 0.0
    lag = steady.lag_ms()
    metrics["loadgen.lag_p50_ms"] = common.median(lag)
    metrics["loadgen.lag_p99_ms"] = common.percentile(lag, 99)
    # Both passes normalized to the reference host speed, so a change of
    # host speed between them does not read as tracing overhead.
    plain_p50 = common.median(plain.latencies_ms(speed))
    metrics["trace.overhead_ratio"] = (
        common.median(steady.latencies_ms(speed)) / plain_p50
        if plain_p50 > 0 else 0.0)
    metrics["host.speed_factor"] = speed.mean()
    e2e = common.mean(latencies)
    layers = request_ledger(ledger, served)
    layers["loadgen"] = common.mean(lag)
    metrics.update(shares(layers, e2e))
    metrics["latency_p99_ms"] = plain.window_percentile(99, speed)
    metrics["failed_share"] = plain.failed() / plain.count
    event_latency = events["event_latency_ms"]
    metrics["event_latency_p50_ms"] = (
        common.median(event_latency) if event_latency else 0.0)
    metrics["event_latency_p99_ms"] = (
        common.percentile(event_latency, 99) if event_latency else 0.0)
    metrics["sweep_presses_per_s"] = 0.0
    metrics["reader.one_baseline_force_err_p90_n"] = 0.0
    return {"attempted": steady.count + plain.count,
            "failed": steady.failed() + plain.failed(),
            "problems": problems, "metrics": metrics,
            "detail": {"layers_ms": layers, "e2e_mean_ms": e2e}}


async def traced_reader(seed: int, seconds: float) -> dict:
    """Untraced then traced reader pass; the per-layer table."""
    from reader_bench import run_reader
    from tracing import layer_metrics

    half = max(0.5, 0.5 * seconds)
    trace_path = str(common.STATE / "trace-acquire-read.json")
    plain = await run_reader(seed, half, spawns=1)
    traced = await run_reader(seed, half, trace_path=trace_path, spawns=1)
    with open(trace_path, "r", encoding="utf-8") as handle:
        ledger = json.load(handle)
    reads = traced["detail"]["reads"]
    metrics = layer_metrics(ledger, reads, 0.0)
    metrics["trace.overhead_ratio"] = (
        traced["metrics"]["latency_p50_ms"]
        / plain["metrics"]["latency_p50_ms"])
    read_ms = 1e-3 * metrics["reader.capture_matrices_us"]
    invert_ms = 1e-3 * metrics["reader.invert_us"]
    metrics.update(shares({"reader": read_ms, "core.estimator": invert_ms},
                          traced["detail"]["latency_mean_ms"]))
    for name in ("gateway.hop_ms_p50", "loadgen.lag_p50_ms",
                 "loadgen.lag_p99_ms", "failed_share",
                 "event_latency_p50_ms", "event_latency_p99_ms"):
        metrics[name] = 0.0
    metrics["latency_p99_ms"] = plain["metrics"]["latency_p99_ms"]
    metrics["sweep_presses_per_s"] = plain["detail"]["sweep_presses_per_s"]
    metrics["host.speed_factor"] = plain["detail"]["speed_factor"]
    metrics["reader.one_baseline_force_err_p90_n"] = (
        plain["detail"]["checks"]["one_baseline_force_p90"])
    return {"attempted": plain["attempted"] + traced["attempted"],
            "failed": 0, "problems": plain["problems"] + traced["problems"],
            "metrics": metrics, "detail": {}}


#: Layers of the per-request ledger, in reply-path order.
SHARE_LAYERS = ("loadgen", "gateway", "serve.protocol", "serve.session",
                "serve.scheduler", "core.estimator", "surrogate", "reader")


def shares(layers_ms: Dict[str, float], e2e_ms: float) -> Dict[str, float]:
    """Each layer's share of end-to-end latency; the rest unattributed."""
    out = {}
    for layer in SHARE_LAYERS:
        value = layers_ms.get(layer, 0.0)
        out[f"share.{layer}"] = value / e2e_ms if e2e_ms > 0 else 0.0
    out["unattributed_share"] = 1.0 - sum(out.values())
    return out


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

async def run_one(name: str, seed: int, seconds: float, trace: bool,
                  primed: Dict[str, float]) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if workload.kind == "reader":
        if trace:
            result = await traced_reader(seed, seconds)
        else:
            from reader_bench import run_reader
            result = await run_reader(seed, seconds)
    else:
        model = warm_model()
        if trace:
            result = await traced_ws(workload, model, seed, seconds)
        else:
            from gateway_bench import run_ws
            result = await run_ws(workload, model, seed, seconds)
    if trace:
        result["metrics"]["cache.cold_prime_s"] = sum(
            primed.get(target, 0.0) for target in cache_targets(workload))
    return result


def report(name: str, seed: int, trace: bool, result: dict,
           spec: dict) -> dict:
    """Validate the metric set, print the table, build the JSON line."""
    kind = "per_layer" if trace else "end_to_end"
    problems = list(result["problems"])
    metrics = {}
    for entry in spec[kind]:
        value = result["metrics"].get(entry["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {entry['name']} missing or not finite")
            continue
        metrics[entry["name"]] = {"value": float(value),
                                  "unit": entry["unit"]}
    print(f"== {name}  seed={seed}  trace={int(trace)}")
    for metric, body in metrics.items():
        print(f"  {metric:44s} {body['value']:14.6g} {body['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics,
            "problems": problems}


def save(name: str, seed: int, trace: bool, line: dict,
         result: dict) -> None:
    common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = common.RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "trace": trace,
        "environment": common.environment_record(),
        "result": line, "detail": result.get("detail", {})},
        indent=1, default=float))


async def main_async(args, names: List[str], spec: dict,
                     primed: Dict[str, float]) -> int:
    traces = [False, True] if args.all else [bool(args.trace)]
    summary = {}
    correct = True
    for name in names:
        for trace in traces:
            result = await run_one(name, args.seed, args.seconds, trace,
                                   primed)
            line = report(name, args.seed, trace, result, spec)
            save(name, args.seed, trace, line, result)
            correct = correct and line["correct"]
            summary[f"{name}/trace{int(trace)}"] = line
    if args.all:
        common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (common.RESULTS_DIR / "all.json").write_text(json.dumps(
            {"environment": common.environment_record(),
             "runs": summary}, indent=1))
        last = {"correct": correct,
                "attempted": sum(r["attempted"] for r in summary.values()),
                "failed": sum(r["failed"] for r in summary.values()),
                "metrics": {}}
    else:
        line = next(iter(summary.values()))
        last = {key: line[key] for key in ("correct", "attempted", "failed",
                                           "metrics")}
    print(json.dumps(last))
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="ws-grid-steady")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.source_available() or not common.SPEC_PATH.is_file():
        print("perfbench: no program to measure (src/repro and "
              "BENCHMARK.json must sit next to perfbench/)",
              file=sys.stderr)
        return 2
    common.use_source()
    from workloads import WORKLOADS

    spec = common.load_spec()
    names = [w["name"] for w in spec["workloads"]] if args.all \
        else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
    primed = ensure_cache(list(CACHE_TARGETS))
    common.pin_process(0, common.cpu_roles()[0])
    timeout = None if args.all else RUN_TIMEOUT_S
    try:
        return asyncio.run(asyncio.wait_for(
            main_async(args, names, spec, primed), timeout))
    except asyncio.TimeoutError:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
