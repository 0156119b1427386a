"""Perf-regression gate: diff a fresh ``BENCH_*.json`` vs a baseline.

CI runs this after the bench-smoke suites regenerate the benchmark
reports, comparing them against the baselines committed in
``benchmarks/results/``.  The gate fails (exit code 1) when any
tracked metric moves the wrong way by more than ``--max-regression``
(default 20%), when a hard contract breaks, or when a tracked metric
is missing from either report.

What is tracked is one declarative table, :data:`KINDS`: each report
kind (recognized by a marker key) maps to its metrics, and each
metric gives its path in the report, its direction, and its gate:

* ``ratio`` — a machine-normalized ratio (speedup, accept rate),
  always gated against the relative threshold;
* ``hard`` — a pass/fail contract collapsed to 1.0/0.0 (bit-identical
  parity, an error cap); the fresh report must read 1.0;
* ``absolute`` — raw throughput or latency, which gates hardware as
  much as code, so it is gated only with ``--absolute`` (useful when
  baseline and fresh report come from the same machine).

A kind present on either side requires its metrics on both: a ratio
or hard metric missing from the baseline or the fresh report fails,
and so does an absolute metric present on one side only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

RATIO, HARD, ABSOLUTE = "ratio", "hard", "absolute"


def _as_float(value: Any, report: dict) -> float:
    return float(value)


class Metric(NamedTuple):
    """One gated metric: ``derive(value at path, report)`` -> float."""

    name: str
    path: str
    gate: str = RATIO
    lower_is_better: bool = False
    derive: Callable[[Any, dict], float] = _as_float


def _parity_ok(parity: dict, report: dict) -> float:
    return float(parity.get("max_force_delta_n", 1.0) == 0.0
                 and parity.get("max_location_delta_m", 1.0) == 0.0
                 and parity.get("touched_match", False)
                 and parity.get("compared", 1) > 0)


def _accept_rate(rate: float, report: dict) -> float:
    return 1.0 - float(rate)


def _per_second(seconds: float, report: dict) -> float:
    return report["n_samples"] / seconds


#: Report kind -> (marker paths, any of which identifies the kind;
#: the kind's metrics).
KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[Metric, ...]]] = {
    "estimator": (("batch_speedup", "batch_seconds"), (
        Metric("batch_speedup", "batch_speedup"),
        Metric("batch_inversions_per_s", "batch_seconds", ABSOLUTE,
               derive=_per_second),
        Metric("scalar_inversions_per_s", "scalar_seconds", ABSOLUTE,
               derive=_per_second),
    )),
    # Warm- and cold-pool speedups over the acquisition-paced serial
    # campaign (paced by sleeps, not host compute).
    "campaign": (("campaign",), (
        Metric("campaign_parallel_speedup", "campaign.parallel_speedup"),
        Metric("campaign_cold_speedup", "campaign.cold_speedup"),
    )),
    "cache": (("warm_speedup",), (
        Metric("warm_speedup", "warm_speedup"),
    )),
    # Only the fused-vs-oracle cold speedup is a ratio gate; the
    # stream batch ratio sits near 1 by design and would gate on
    # timer noise.
    "reader": (("cold_speedup",), (
        Metric("cold_speedup", "cold_speedup"),
        Metric("fast_frames_per_s", "fast_frames_per_s", ABSOLUTE),
        Metric("oracle_frames_per_s", "oracle_frames_per_s", ABSOLUTE),
    )),
    "chaos": (("survival",), (
        Metric("chaos_survival_rate", "survival.survival_rate"),
    )),
    "faults": (("fault_gate_overhead",), (
        Metric("faults_chaos_survival_rate", "chaos.survival_rate"),
    )),
    "serve": (("speedup_vs_serial",), (
        Metric("speedup_vs_serial", "speedup_vs_serial"),
        Metric("service_throughput_rps", "service.throughput_rps",
               ABSOLUTE),
        Metric("serial_throughput_rps", "serial_baseline.throughput_rps",
               ABSOLUTE),
    )),
    "gateway": (("gateway_vs_inprocess",), (
        Metric("gateway_vs_inprocess", "gateway_vs_inprocess"),
        Metric("gateway_accept_rate", "gateway.rejection_rate",
               derive=_accept_rate),
        Metric("gateway_throughput_rps", "gateway.throughput_rps",
               ABSOLUTE),
        Metric("gateway_p50_latency_ms", "gateway.p50_latency_ms",
               ABSOLUTE, lower_is_better=True),
        Metric("gateway_p99_latency_ms", "gateway.p99_latency_ms",
               ABSOLUTE, lower_is_better=True),
    )),
    "fleet": (("sharded_vs_single",), (
        Metric("sharded_vs_single", "sharded_vs_single"),
        Metric("fleet_shard_balance", "shard_balance"),
        Metric("fleet_parity_ok", "parity", HARD, derive=_parity_ok),
        Metric("fleet_throughput_rps", "fleet.throughput_rps", ABSOLUTE),
        Metric("fleet_p99_latency_ms", "fleet.p99_latency_ms", ABSOLUTE,
               lower_is_better=True),
    )),
    "surrogate": (("surrogate_speedup",), (
        Metric("surrogate_speedup", "surrogate_speedup"),
        Metric("surrogate_parity_ok", "surrogate_p95_error_delta", HARD,
               derive=lambda delta, report: float(delta <= 1.0)),
        Metric("surrogate_accept_rate", "surrogate_fallback_rate",
               derive=_accept_rate),
    )),
}

_MISSING = object()


def _lookup(report: dict, path: str) -> Any:
    node: Any = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def tracked_metrics(*reports: dict, absolute: bool = False
                    ) -> List[Metric]:
    """Metrics of every kind present in any of ``reports``."""
    return [metric
            for markers, metrics in KINDS.values()
            if any(_lookup(report, marker) is not _MISSING
                   for report in reports for marker in markers)
            for metric in metrics
            if absolute or metric.gate != ABSOLUTE]


def extract_metrics(report: dict, absolute: bool = False
                    ) -> Dict[str, float]:
    """The tracked metrics this report carries, by name."""
    values = {}
    for metric in tracked_metrics(report, absolute=absolute):
        value = _lookup(report, metric.path)
        if value is not _MISSING and value is not None:
            values[metric.name] = metric.derive(value, report)
    return values


def _row(name: str, base: str, fresh: str, change: str,
         verdict: str) -> str:
    return f"{name:<26}  {base:>12}  {fresh:>12}  {change:>8}  {verdict}"


def _shown(value: Optional[float]) -> str:
    return "missing" if value is None else f"{value:.3f}"


def compare(baseline: dict, fresh: dict, max_regression: float = 0.20,
            absolute: bool = False
            ) -> Tuple[List[str], List[str]]:
    """Compare two reports; returns (table lines, failure messages)."""
    base_metrics = extract_metrics(baseline, absolute=absolute)
    fresh_metrics = extract_metrics(fresh, absolute=absolute)
    if not base_metrics:
        return [], ["baseline report carries no tracked metrics"]
    lines = [_row("metric", "baseline", "fresh", "change", "verdict")]
    failures: List[str] = []
    for metric in sorted(tracked_metrics(baseline, fresh,
                                         absolute=absolute),
                         key=lambda metric: metric.name):
        name = metric.name
        base_value = base_metrics.get(name)
        fresh_value = fresh_metrics.get(name)
        shown = (name, _shown(base_value), _shown(fresh_value))
        if base_value is None or fresh_value is None:
            if base_value is None and fresh_value is None:
                if metric.gate == ABSOLUTE:
                    continue
                side = "both reports"
            else:
                side = "baseline" if base_value is None else "fresh report"
            failures.append(f"metric {name} missing from {side}")
            lines.append(_row(*shown, "-", "FAIL"))
            continue
        if metric.gate == HARD:
            verdict = "ok" if fresh_value == 1.0 else "FAIL"
            lines.append(_row(*shown, "-", verdict))
            if verdict == "FAIL":
                failures.append(f"{name} broke its hard contract "
                                f"({base_value:.3f} -> {fresh_value:.3f})")
            continue
        if base_value <= 0.0:
            lines.append(_row(*shown, "-", "skip (non-positive baseline)"))
            continue
        change = fresh_value / base_value - 1.0
        if metric.lower_is_better:
            regressed = change > max_regression
            direction = "rose"
        else:
            regressed = change < -max_regression
            direction = "regressed"
        lines.append(_row(*shown, f"{change:+7.1%}",
                          "FAIL" if regressed else "ok"))
        if regressed:
            failures.append(
                f"{name} {direction} {abs(change):.1%} "
                f"({base_value:.3f} -> {fresh_value:.3f}), "
                f"above the {max_regression:.0%} gate")
    return lines, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a fresh benchmark report regresses "
                    "throughput vs a baseline")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline BENCH_*.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="tolerated fractional drop (default 0.20)")
    parser.add_argument("--absolute", action="store_true",
                        help="also gate raw throughputs, not just "
                             "machine-normalized speedups")
    parser.add_argument("--slo", action="store_true",
                        help="also evaluate the declarative serve SLOs "
                             "against the fresh report")
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must be in [0, 1)")
    baseline = json.loads(Path(args.baseline).read_text())
    fresh = json.loads(Path(args.fresh).read_text())
    lines, failures = compare(baseline, fresh,
                              max_regression=args.max_regression,
                              absolute=args.absolute)
    print(f"perf gate: {args.fresh} vs baseline {args.baseline} "
          f"(max regression {args.max_regression:.0%})")
    for line in lines:
        print(line)
    if args.slo:
        try:
            from repro.obs.slo import (
                evaluate_report,
                render_statuses,
                report_slos,
            )
        except ImportError:
            # Running from a checkout without an installed package.
            sys.path.insert(
                0, str(Path(__file__).resolve().parents[1] / "src"))
            from repro.obs.slo import (
                evaluate_report,
                render_statuses,
                report_slos,
            )

        statuses = evaluate_report(report_slos(), fresh)
        print()
        print(render_statuses(statuses))
        failures.extend(
            f"SLO {status['name']} violated" for status in statuses
            if not status["ok"])
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
