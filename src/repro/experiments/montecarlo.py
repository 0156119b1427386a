"""Monte-Carlo campaigns: robustness across environments and units.

The paper evaluates "in different indoor environments" (section 5);
these campaigns quantify that: re-run the accuracy protocol across many
random multipath draws, and separately across fabricated sensor units
(calibration-transfer study), reporting the distribution of medians.

Every trial is a module-level function seeded entirely by its
arguments, so campaigns shard across a
:class:`repro.experiments.parallel.CampaignExecutor` without changing
a single bit of the output.

The deterministic cold path of every trial — contact-table
construction for each fabricated unit and the per-unit harmonic
calibrations — flows through :mod:`repro.cache`, so repeated campaigns
(and campaign workers across processes, which inherit
``REPRO_CACHE_DIR`` through the environment) skip straight to the
RNG-dependent wireless protocol.  ``REPRO_CACHE=0`` recomputes
everything with bit-identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.calibration import calibrate_harmonic_observable
from repro.core.estimator import ForceLocationEstimator
from repro.core.pipeline import WiForceReader
from repro.channel.multipath import indoor_channel
from repro.channel.propagation import BackscatterLink
from repro.experiments.metrics import median_absolute_error
from repro.experiments.parallel import CampaignExecutor
from repro.experiments.scenarios import (
    build_wireless_scenario,
    calibrated_model,
)
from repro.mechanics.indenter import GroundTruthRig
from repro.reader.batch import FastSounder
from repro.reader.sounder import FrameLevelSounder
from repro.reader.waveform import OFDMSounderConfig
from repro.sensor.fabrication import FabricationTolerances, perturbed_design
from repro.sensor.tag import TagState, WiForceTag
from repro.sensor.transduction import ForceTransducer


@dataclass(frozen=True)
class CampaignResult:
    """Medians per trial of a Monte-Carlo campaign.

    Attributes:
        label: What varied across trials.
        force_medians: Median |force error| per trial [N].
        location_medians: Median |location error| per trial [m].
    """

    label: str
    force_medians: np.ndarray
    location_medians: np.ndarray

    @property
    def worst_force_median(self) -> float:
        """Worst trial's force median [N]."""
        return float(self.force_medians.max())

    @property
    def worst_location_median(self) -> float:
        """Worst trial's location median [m]."""
        return float(self.location_medians.max())


def _protocol(reader: WiForceReader,
              rng: np.random.Generator) -> Tuple[float, float]:
    rig = GroundTruthRig(rng=rng)
    force_errors = []
    location_errors = []
    for location in (0.025, 0.040, 0.058):
        for force in (1.5, 4.0, 7.0):
            press = rig.press(force, location)
            reading = reader.read(
                TagState(press.applied_force, press.applied_location),
                rebaseline=True)
            force_errors.append(reading.force - press.measured_force)
            location_errors.append(reading.location
                                   - press.commanded_location)
    return (median_absolute_error(force_errors),
            median_absolute_error(location_errors))


def _environment_trial(trial: int, carrier: float, fast: bool,
                       seed: int) -> Tuple[float, float]:
    """One environment draw: fresh clutter, fresh rig, same protocol."""
    rng = np.random.default_rng(seed + trial)
    reader = build_wireless_scenario(carrier, seed=seed + trial, fast=fast)
    return _protocol(reader, rng)


def _acquisition_trial(trial: int, carrier: float, fast: bool,
                       seed: int, window_s: float) -> Tuple[float, float]:
    """One environment draw paced by a frame-acquisition window.

    Models the deployed capture loop: a trial blocks for one sounder
    acquisition window (the real-time frame budget of the hardware
    front end) before the deterministic protocol runs.  The wait never
    touches the RNG, so the medians are bit-identical to
    :func:`_environment_trial` with the same arguments.
    """
    time.sleep(window_s)
    return _environment_trial(trial, carrier, fast, seed)


def _fabricated_unit(unit: int, carrier: float, seed: int,
                     tolerances: FabricationTolerances
                     ) -> Tuple[WiForceTag, FrameLevelSounder,
                                np.random.Generator]:
    """Fabricate and deploy one toleranced unit (shared by both
    unit campaigns; keeps their rng draw sequences identical)."""
    rng = np.random.default_rng(seed + unit)
    design = perturbed_design(tolerances=tolerances, rng=rng)
    transducer = ForceTransducer(design, force_points=16,
                                 location_points=17)
    tag = WiForceTag(transducer, clock_offset_ppm=20.0)
    config = OFDMSounderConfig(carrier_frequency=carrier)
    sounder = FastSounder(config, tag, BackscatterLink(),
                          indoor_channel(carrier, rng=rng),
                          rng=rng)
    return tag, sounder, rng


def _transfer_trial(unit: int, carrier: float, seed: int,
                    tolerances: FabricationTolerances,
                    fast: bool = True) -> Tuple[float, float]:
    """One toleranced unit read with the nominal calibration."""
    _, sounder, rng = _fabricated_unit(unit, carrier, seed, tolerances)
    nominal_model = calibrated_model(carrier, fast=fast)
    reader = WiForceReader(sounder, nominal_model)
    return _protocol(reader, rng)


def _per_unit_trial(unit: int, carrier: float, seed: int,
                    tolerances: FabricationTolerances
                    ) -> Tuple[float, float]:
    """One toleranced unit read with its own calibration."""
    tag, sounder, rng = _fabricated_unit(unit, carrier, seed, tolerances)
    model = calibrate_harmonic_observable(
        tag, carrier, (0.020, 0.030, 0.040, 0.050, 0.060),
        np.linspace(0.5, 8.0, 12))
    reader = WiForceReader(sounder, model)
    reader.estimator = ForceLocationEstimator(model)
    return _protocol(reader, rng)


def _training_sweep_trial(level: int, carrier: float, fast: bool,
                          tx_power_dbm: float,
                          forces: Tuple[float, ...],
                          locations: Tuple[float, ...],
                          repeats: int, seed: int,
                          chunk_captures: int = 64,
                          baseline_groups: int = 32):
    """One SNR level of a surrogate training sweep.

    Builds a fresh deployment at ``tx_power_dbm`` (its own clutter
    draw), then drives the (force, location) x repeats press grid
    through
    :meth:`~repro.core.pipeline.WiForceReader.measure_phases_batch`,
    one per-press harmonic capture each, exactly as a live read
    takes them.  The sweep
    rebaselines every ``chunk_captures`` presses with a
    ``baseline_groups``-group drift fit: a single baseline's linear
    clock-drift extrapolation drifts ~1.5 rad across a thousand
    contiguous captures, which would scramble the training labels
    (the paper's protocol re-references between presses for the same
    reason).  Seeded entirely by its arguments, so it shards across
    warm campaign pools bit-identically to a serial run.

    Returns:
        (phi1, phi2, force, location, tx_power_dbm) arrays, one row
        per press.
    """
    reader = build_wireless_scenario(carrier, seed=seed + level,
                                     fast=fast,
                                     tx_power_dbm=tx_power_dbm,
                                     baseline_groups=baseline_groups)
    force_grid, location_grid = np.meshgrid(
        np.asarray(forces, dtype=float),
        np.asarray(locations, dtype=float), indexing="ij")
    truth_force = np.tile(force_grid.ravel(), repeats)
    truth_location = np.tile(location_grid.ravel(), repeats)
    states = [TagState(float(force), float(location))
              for force, location in zip(truth_force, truth_location)]
    phi1 = np.zeros(truth_force.size)
    phi2 = np.zeros(truth_force.size)
    step = max(int(chunk_captures), 1)
    for start in range(0, len(states), step):
        reader.capture_baseline()
        chunk1, chunk2 = reader.measure_phases_batch(
            states[start:start + step])
        phi1[start:start + step] = chunk1
        phi2[start:start + step] = chunk2
    return (phi1, phi2, truth_force, truth_location,
            np.full(truth_force.size, float(tx_power_dbm)))


def training_sweep_campaign(carrier: float = 900e6, fast: bool = True,
                            tx_power_sweep: Tuple[float, ...] = (10.0,),
                            forces: Tuple[float, ...] = (),
                            locations: Tuple[float, ...] = (),
                            repeats: int = 1, seed: int = 17,
                            chunk_captures: int = 64,
                            baseline_groups: int = 32,
                            executor: Optional[CampaignExecutor] = None):
    """Surrogate training sweep, one campaign trial per SNR level.

    The campaign-runner face of :mod:`repro.surrogate.data`: each
    transmit-power level is one :func:`_training_sweep_trial`, sharded
    across the executor's persistent warm pools (or run serially when
    ``executor`` is None) and concatenated in level order.

    Returns:
        (phi1, phi2, force, location, tx_power_dbm) stacked arrays.
    """
    argument_lists = [
        (level, carrier, fast, float(power), tuple(forces),
         tuple(locations), repeats, seed, int(chunk_captures),
         int(baseline_groups))
        for level, power in enumerate(tx_power_sweep)
    ]
    if executor is None:
        rows = [_training_sweep_trial(*arguments)
                for arguments in argument_lists]
    else:
        rows = executor.run(_training_sweep_trial, argument_lists).results
    return tuple(np.concatenate(column) for column in zip(*rows))


def _campaign(label: str, trial, argument_lists,
              executor: Optional[CampaignExecutor]) -> CampaignResult:
    execution = (executor or CampaignExecutor()).run(trial, argument_lists)
    if execution.results:
        force_medians, location_medians = zip(*execution.results)
    else:
        force_medians, location_medians = (), ()
    return CampaignResult(
        label=label,
        force_medians=np.array(force_medians),
        location_medians=np.array(location_medians),
    )


def environment_campaign(trials: int = 8, carrier: float = 900e6,
                         fast: bool = True, seed: int = 101,
                         executor: Optional[CampaignExecutor] = None
                         ) -> CampaignResult:
    """Accuracy across random indoor environments (clutter draws)."""
    return _campaign(
        "environment", _environment_trial,
        [(trial, carrier, fast, seed) for trial in range(trials)],
        executor)


def acquisition_campaign(trials: int = 8, carrier: float = 900e6,
                         fast: bool = True, seed: int = 101,
                         window_s: float = 0.1,
                         executor: Optional[CampaignExecutor] = None
                         ) -> CampaignResult:
    """The environment campaign paced at hardware acquisition rate.

    Each trial waits out one frame-acquisition window before its
    compute — the shape of a hardware-in-the-loop data-collection
    campaign, where the sounder's frame rate (not the host CPU) sets
    the floor on trial latency.  This is the benchmark workload for
    the campaign executor: overlapping acquisition windows across
    workers measures executor concurrency and orchestration overhead
    on any machine, where a purely compute-bound campaign would just
    measure the host's core count.  Results are bit-identical to
    :func:`environment_campaign` with the same trial arguments.
    """
    return _campaign(
        "acquisition", _acquisition_trial,
        [(trial, carrier, fast, seed, window_s) for trial in range(trials)],
        executor)


def calibration_transfer_campaign(
    units: int = 4, carrier: float = 900e6, seed: int = 211,
    tolerances: FabricationTolerances = FabricationTolerances(),
    executor: Optional[CampaignExecutor] = None,
    fast: bool = True,
) -> CampaignResult:
    """Read *toleranced* units with the *nominal* unit's calibration.

    Each trial fabricates a unit with manufacturing deviations, deploys
    it, and inverts its wireless phases with the nominal model — the
    zero-per-unit-calibration scenario.  The residual error quantifies
    how much per-unit trimming buys.

    Args:
        fast: Calibrate the nominal model on the reduced-resolution
            transducer (the default, matching the fast scenario
            builders).  ``False`` uses the full-resolution nominal
            model — much slower cold, but its contact tables and fit
            come from the artifact cache on every run after the first.
    """
    return _campaign(
        "calibration-transfer", _transfer_trial,
        [(unit, carrier, seed, tolerances, fast) for unit in range(units)],
        executor)


def per_unit_calibration_campaign(
    units: int = 4, carrier: float = 900e6, seed: int = 211,
    tolerances: FabricationTolerances = FabricationTolerances(),
    executor: Optional[CampaignExecutor] = None,
) -> CampaignResult:
    """The same toleranced units, each with its own calibration.

    The reference point for the transfer study: how much of the
    transfer error disappears when every unit is trimmed individually.
    Uses the same seeds as :func:`calibration_transfer_campaign` so the
    two are unit-for-unit comparable.
    """
    return _campaign(
        "per-unit-calibration", _per_unit_trial,
        [(unit, carrier, seed, tolerances) for unit in range(units)],
        executor)
