"""Shared benchmark fixtures and result reporting.

Benchmarks reproduce the paper's tables/figures at full resolution, so
the expensive pieces (the accuracy sweeps that feed both Fig. 13 and
Fig. 14) are computed once per session and shared.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import runners

RESULTS_DIR = Path(__file__).parent / "results"


def _report(name: str, text: str) -> None:
    """Print a paper-style result block and persist it to disk."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def merge_report(path: Path, updates: dict) -> dict:
    """Merge ``updates`` into the JSON report at ``path``; rewrite it.

    Keys the run did not produce keep their existing values, so a
    filtered run (``pytest benchmarks/test_perf_fleet.py -k ring``)
    refreshes only its own keys instead of truncating the report.
    """
    report = json.loads(path.read_text()) if path.exists() else {}
    report.update(updates)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


@pytest.fixture(scope="session")
def report():
    """The result reporter (print + persist under benchmarks/results)."""
    return _report


@pytest.fixture(scope="session")
def accuracy_900():
    """Figs. 13-14 protocol at 900 MHz (shared by both benches)."""
    return runners.run_wireless_accuracy(900e6, fast=False, force_points=8,
                                         repeats=3, seed=5)


@pytest.fixture(scope="session")
def accuracy_2g4():
    """Figs. 13-14 protocol at 2.4 GHz."""
    return runners.run_wireless_accuracy(2.4e9, fast=False, force_points=8,
                                         repeats=3, seed=5)
