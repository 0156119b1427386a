"""Parity suite for the batched fast sounder (repro.reader.batch).

Two tiers of agreement with the frame-level oracle, matching the
contract in DESIGN.md "Batched sounder":

* ``FastSounder.capture`` (inherited from the oracle) and
  ``FastSounder.capture_batch`` (a loop over it with a running
  clock) — bit-identical for every configuration, noise and armed
  fault plans included.
* ``FastSounder.capture_matrices`` — statistically exact; noiseless
  runs agree to rounding, noisy runs differ by two independent noise
  draws of the same distribution.

``WiForceReader.measure_phases_batch`` (the sweep acquisition loop)
must equal a loop over the per-press read path bit for bit.
"""

import importlib
from contextlib import nullcontext

import numpy as np
import pytest

from repro.channel.multipath import MultipathChannel, Path
from repro.channel.propagation import BackscatterLink
from repro.core.harmonics import (
    HarmonicExtractor,
    integer_period_group_length,
)
from repro.core.pipeline import WiForceReader
from repro.errors import ConfigurationError, ReaderError
from repro.experiments.scenarios import calibrated_model
from repro.faults.inject import inject
from repro.faults.plan import FaultPlan, FaultSpec
from repro.reader import _kernels
from repro.reader.batch import FastSounder, resolve_sounder
from repro.reader.fmcw import FMCWSounder, FMCWSounderConfig
from repro.reader.frontend import SDRFrontEnd
from repro.reader.ofdm import OFDMModem
from repro.reader.sounder import FrameLevelSounder
from repro.reader.uwb import UWBSounder, UWBSounderConfig
from repro.reader.waveform import OFDMSounderConfig
from repro.sensor.tag import TagState, WiForceTag

PRESS = TagState(force=2.0, location=0.04)


@pytest.fixture(scope="module")
def config():
    return OFDMSounderConfig(carrier_frequency=900e6)


@pytest.fixture(scope="module")
def clutter():
    return MultipathChannel([Path(2e-3, 8e-9), Path(1e-3j, 15e-9)])


@pytest.fixture(scope="module")
def extractor(config):
    length = integer_period_group_length(config.frame_period, 1000.0)
    return HarmonicExtractor(tones=(1000.0, 4000.0), group_length=length)


def _pair(cls_args, seed=7, quiet=False, **kwargs):
    """Build (oracle, fast) sounders with identical RNG streams."""
    config, transducer, clutter = cls_args
    if quiet:
        # Exactly zero noise (not merely tiny): the batch bit-identity
        # contract only holds when the sounder consumes no randomness,
        # and a sub-ulp quantization floor still flips bits where the
        # static field fades.
        kwargs.setdefault("front_end",
                          SDRFrontEnd(dynamic_range_db=float("inf")))
        kwargs.setdefault("noise_figure_db", float("-inf"))
        kwargs.setdefault("tag_phase_jitter_deg_per_sqrt_s", 0.0)
    sounders = []
    for cls in (FrameLevelSounder, FastSounder):
        tag = WiForceTag(transducer, clock_offset_ppm=20.0)
        sounders.append(cls(config, tag, BackscatterLink(), clutter,
                            rng=np.random.default_rng(seed), **kwargs))
    return sounders


@pytest.fixture()
def builder(config, transducer, clutter):
    return (config, transducer, clutter)


class TestSingleCaptureBitParity:
    def test_noisy_jittery_captures_bit_identical(self, builder):
        oracle, fast = _pair(builder)
        for start in (0.0, 0.25, 1.5):
            ref = oracle.capture(PRESS, 1250, start_time=start)
            got = fast.capture(PRESS, 1250, start_time=start)
            assert np.array_equal(ref.estimates, got.estimates)
            assert np.array_equal(ref.times, got.times)
            assert ref.frame_period == got.frame_period

    def test_consecutive_captures_share_jitter_walk(self, builder):
        # The jitter phase is stateful; streams must stay aligned
        # across captures, not just within one.
        oracle, fast = _pair(builder, seed=3)
        clock = 0.0
        for state in (TagState(), PRESS, TagState()):
            ref = oracle.capture(state, 625, start_time=clock)
            got = fast.capture(state, 625, start_time=clock)
            clock += 625 * oracle.config.frame_period
            assert np.array_equal(ref.estimates, got.estimates)

    @pytest.mark.parametrize("site,kind,magnitude", [
        ("sensor.clock", "drift", 3.0),
        ("sensor.clock", "duty_jitter", 0.4),
        ("channel.snr", "collapse", 12.0),
        ("channel.snr", "interference", 5.0),
    ])
    def test_armed_fault_plans_bit_identical(self, builder, site, kind,
                                             magnitude):
        plan = FaultPlan(specs=(FaultSpec(site=site, kind=kind,
                                          probability=1.0,
                                          magnitude=magnitude),),
                         seed=42, name=f"parity-{kind}")
        oracle, fast = _pair(builder)
        with inject(plan):
            ref = [oracle.capture(PRESS, 625, start_time=i * 0.036)
                   for i in range(3)]
        with inject(plan):
            got = [fast.capture(PRESS, 625, start_time=i * 0.036)
                   for i in range(3)]
        for r, g in zip(ref, got):
            assert np.array_equal(r.estimates, g.estimates)

    def test_combined_fault_plan_bit_identical(self, builder):
        specs = tuple(
            FaultSpec(site=site, kind=kind, probability=0.7, magnitude=mag)
            for site, kind, mag in (
                ("sensor.clock", "drift", 3.0),
                ("sensor.clock", "duty_jitter", 0.4),
                ("channel.snr", "collapse", 12.0),
                ("channel.snr", "interference", 5.0),
            ))
        plan = FaultPlan(specs=specs, seed=9, name="combo")
        oracle, fast = _pair(builder)
        with inject(plan):
            ref = [oracle.capture(PRESS, 625, start_time=i * 0.036)
                   for i in range(6)]
        with inject(plan):
            got = [fast.capture(PRESS, 625, start_time=i * 0.036)
                   for i in range(6)]
        for r, g in zip(ref, got):
            assert np.array_equal(r.estimates, g.estimates)


class TestCaptureBatch:
    @pytest.mark.parametrize("quiet", [True, False],
                             ids=["noiseless", "noisy"])
    def test_batch_bit_identical_to_sequential(self, builder, quiet):
        oracle, fast = _pair(builder, seed=5, quiet=quiet)
        states = [TagState(), PRESS, TagState(force=1.0, location=0.06),
                  TagState()]
        streams = fast.capture_batch(states, 625)
        clock = 0.0
        for state, stream in zip(states, streams):
            ref = oracle.capture(state, 625, start_time=clock)
            clock += 625 * oracle.config.frame_period
            assert np.array_equal(ref.estimates, stream.estimates)
            assert np.array_equal(ref.times, stream.times)

    def test_variable_frame_counts(self, builder):
        oracle, fast = _pair(builder, quiet=True)
        states = [PRESS, TagState()]
        streams = fast.capture_batch(states, [625, 1250])
        clock = 0.0
        for state, frames, stream in zip(states, (625, 1250), streams):
            ref = oracle.capture(state, frames, start_time=clock)
            clock += frames * oracle.config.frame_period
            assert np.array_equal(ref.estimates, stream.estimates)

    def test_rejects_empty_and_mismatched_inputs(self, builder):
        _, fast = _pair(builder, quiet=True)
        with pytest.raises(ConfigurationError):
            fast.capture_batch([], 625)
        with pytest.raises(ConfigurationError):
            fast.capture_batch([PRESS], [625, 625])
        with pytest.raises(ConfigurationError):
            fast.capture_batch([PRESS], 0)

    def test_armed_plan_fires_per_capture_in_order(self, builder):
        # Sounder-level fault sites see the same visit sequence a
        # sequential oracle run would, and every noise draw matches.
        plan = FaultPlan(specs=(
            FaultSpec(site="sensor.clock", kind="drift",
                      probability=0.7, magnitude=4.0),
            FaultSpec(site="channel.snr", kind="interference",
                      probability=0.7, magnitude=6.0),
        ), seed=13, name="batch-order")
        oracle, fast = _pair(builder)
        states = [PRESS, TagState(), PRESS]
        with inject(plan) as injector:
            streams = fast.capture_batch(states, 625)
            fast_counts = {site: injector.counter(site)
                           for site in ("sensor.clock", "channel.snr")}
        clock = 0.0
        with inject(plan) as injector:
            refs = []
            for state in states:
                refs.append(oracle.capture(state, 625, start_time=clock))
                clock += 625 * oracle.config.frame_period
            oracle_counts = {site: injector.counter(site)
                             for site in ("sensor.clock", "channel.snr")}
        assert fast_counts == oracle_counts
        for ref, got in zip(refs, streams):
            assert np.array_equal(ref.estimates, got.estimates)


class TestHarmonicFastPath:
    def test_supports_default_extractor(self, builder, extractor):
        _, fast = _pair(builder)
        assert fast.supports_matrices(extractor)

    def test_rejects_hann_window(self, builder, extractor):
        _, fast = _pair(builder)
        hann = HarmonicExtractor(tones=extractor.tones,
                                 group_length=extractor.group_length,
                                 window="hann")
        assert not fast.supports_matrices(hann)
        with pytest.raises(ReaderError):
            fast.capture_matrices(PRESS, 2, hann)

    def test_rejects_non_integer_period_tones(self, builder, extractor):
        _, fast = _pair(builder)
        odd = HarmonicExtractor(tones=(997.0, 4000.0),
                                group_length=extractor.group_length)
        assert not fast.supports_matrices(odd)

    def test_noiseless_matrices_match_oracle_extract(self, builder,
                                                     extractor):
        oracle, fast = _pair(builder, quiet=True)
        groups = 6
        ref = extractor.extract(oracle.capture(
            PRESS, groups * extractor.group_length, start_time=0.5))
        got = fast.capture_matrices(PRESS, groups, extractor,
                                    start_time=0.5)
        for tone in extractor.tones:
            assert np.array_equal(ref[tone].group_times,
                                  got[tone].group_times)
            scale = np.abs(ref[tone].values).mean()
            delta = np.abs(ref[tone].values - got[tone].values).max()
            assert delta < 1e-9 * scale

    def test_noisy_matrices_statistically_exact(self, builder, extractor):
        # The group-level noise draw is distributionally identical to
        # extracting a per-frame AWGN stream: the difference between
        # the two paths is two independent draws of the same
        # (sigma^2 * v)-variance complex Gaussian per group entry.
        oracle, fast = _pair(builder, seed=11)
        groups = 8
        ref = extractor.extract(oracle.capture(
            PRESS, groups * extractor.group_length, start_time=0.0))
        got = fast.capture_matrices(PRESS, groups, extractor,
                                    start_time=0.0)
        sigma = oracle.effective_noise_std()
        variance_factor = 1.0 / extractor.group_length  # rect window
        group_noise = sigma * np.sqrt(variance_factor)
        for tone in extractor.tones:
            delta = np.abs(ref[tone].values - got[tone].values)
            # Difference of two independent draws: std sqrt(2) times
            # the group noise; 6 sigma over ~512 Rayleigh samples plus
            # the (smaller) independent jitter-walk contribution.
            assert delta.max() < 8.0 * np.sqrt(2.0) * group_noise
            assert np.sqrt(np.mean(delta ** 2)) < 3.0 * np.sqrt(
                2.0) * group_noise

    def test_reader_uses_fast_path_and_matches_statistically(
            self, builder, extractor):
        model = calibrated_model(900e6, fast=True)
        oracle, fast = _pair(builder, seed=21)
        reader_oracle = WiForceReader(oracle, model)
        reader_fast = WiForceReader(fast, model)
        assert reader_fast._use_fast_path()
        reading_ref = reader_oracle.read(PRESS, rebaseline=True)
        reading_fast = reader_fast.read(PRESS, rebaseline=True)
        tolerance = 6.0 * max(reader_oracle.measured_phase_std(),
                              reader_fast.measured_phase_std())
        assert reading_fast.phi1 == pytest.approx(reading_ref.phi1,
                                                  abs=tolerance)
        assert reading_fast.phi2 == pytest.approx(reading_ref.phi2,
                                                  abs=tolerance)

    def test_reader_falls_back_to_stream_path_under_faults(self, builder):
        # Armed plans disable the harmonic shortcut entirely, so the
        # fast reader is bit-identical to the oracle reader: every
        # fault site sees the same visit sequence and every sounder
        # draw matches.
        model = calibrated_model(900e6, fast=True)
        plan = FaultPlan(specs=(
            FaultSpec(site="reader.capture", kind="dropout",
                      probability=0.5, magnitude=0.2),
            FaultSpec(site="reader.capture", kind="desync",
                      probability=0.3, magnitude=1.5),
            FaultSpec(site="reader.capture", kind="phase_jump",
                      probability=0.3, magnitude=0.8),
            FaultSpec(site="sensor.clock", kind="duty_jitter",
                      probability=0.5, magnitude=0.3),
            FaultSpec(site="channel.snr", kind="interference",
                      probability=0.5, magnitude=4.0),
        ), seed=31, name="reader-parity")
        oracle, fast = _pair(builder, seed=17)
        reader_oracle = WiForceReader(oracle, model)
        reader_fast = WiForceReader(fast, model)

        def protocol(reader):
            # A heavy plan can degrade a read past recovery (e.g. a
            # dropout burst erasing the tag signal); parity then means
            # both readers fail identically, not that both succeed.
            outcomes = []
            for _ in range(3):
                try:
                    reading = reader.read(PRESS, rebaseline=True)
                    outcomes.append(("ok", reading.phi1, reading.phi2,
                                     reading.force, reading.location))
                except Exception as exc:  # noqa: BLE001 - parity check
                    outcomes.append(("error", type(exc).__name__, str(exc)))
            return outcomes

        with inject(plan):
            assert not reader_fast._use_fast_path()
            ref = protocol(reader_oracle)
        with inject(plan):
            got = protocol(reader_fast)
        assert ref == got


class TestSweepPath:
    """``measure_phases_batch`` is the per-press read path, looped."""

    SWEEP = [PRESS, TagState(force=5.5, location=0.03),
             TagState(force=1.0, location=0.055), PRESS]

    def _compare(self, builder, plan=None):
        model = calibrated_model(900e6, fast=True)
        _, batched = _pair(builder, seed=23)
        _, looped = _pair(builder, seed=23)
        sweep_reader = WiForceReader(batched, model)
        loop_reader = WiForceReader(looped, model)
        with inject(plan) if plan is not None else nullcontext():
            phi1, phi2 = sweep_reader.measure_phases_batch(self.SWEEP)
        with inject(plan) if plan is not None else nullcontext():
            loop_reader.capture_baseline()
            pairs = [loop_reader._measure_phases(state)
                     for state in self.SWEEP]
        assert np.array_equal(phi1, [pair[0] for pair in pairs])
        assert np.array_equal(phi2, [pair[1] for pair in pairs])
        assert sweep_reader.elapsed == loop_reader.elapsed

    def test_unarmed_sweep_equals_per_press_loop(self, builder):
        self._compare(builder)

    def test_armed_sweep_equals_per_press_loop(self, builder):
        plan = FaultPlan(specs=(
            FaultSpec(site="reader.capture", kind="desync",
                      probability=0.5, magnitude=1.5),
            FaultSpec(site="reader.capture", kind="phase_jump",
                      probability=0.5, magnitude=0.8),
            FaultSpec(site="sensor.clock", kind="duty_jitter",
                      probability=0.5, magnitude=0.3),
            FaultSpec(site="channel.snr", kind="collapse",
                      probability=0.5, magnitude=4.0),
        ), seed=37, name="sweep-parity")
        self._compare(builder, plan)


class TestWaveformAdapters:
    def test_fmcw_gather_matches_per_sweep_reference(self, transducer):
        # The vectorized sweep gather must reproduce the per-sweep
        # diagonal of the full reflection block bit for bit.
        config = FMCWSounderConfig()
        tag = WiForceTag(transducer, clock_offset_ppm=20.0)
        sounder = FMCWSounder(config, tag, BackscatterLink(),
                              rng=np.random.default_rng(0))
        stream = sounder.capture(PRESS, 16, start_time=0.25)
        frequencies = config.step_frequencies()
        step_offsets = (np.arange(config.steps) + 0.5) * config.step_dwell
        noise = stream.estimates - (
            sounder._static[None, :] + sounder._tag_gain[None, :] * 0.0)
        for index in range(16):
            sample_times = stream.times[index] + step_offsets
            gamma = tag.reflection_series(frequencies, sample_times, PRESS)
            expected = (sounder._static
                        + sounder._tag_gain * np.diagonal(gamma))
            residual = stream.estimates[index] - expected
            # Residual is exactly the AWGN term: bounded by a few
            # noise sigmas, far below the gather mismatch that a
            # wrong diagonal would produce (signal-scale).
            assert np.abs(residual).max() < 10.0 * sounder.estimate_noise_std()
        assert noise.shape == stream.estimates.shape

    def test_fmcw_noiseless_bit_exact_reference(self, transducer):
        config = FMCWSounderConfig(tx_power_dbm=60.0)  # noise negligible
        tag = WiForceTag(transducer, clock_offset_ppm=20.0)
        sounder = FMCWSounder(config, tag, BackscatterLink(),
                              rng=np.random.default_rng(0))
        stream = sounder.capture(PRESS, 8)
        frequencies = config.step_frequencies()
        step_offsets = (np.arange(config.steps) + 0.5) * config.step_dwell
        for index in range(8):
            sample_times = stream.times[index] + step_offsets
            gamma = tag.reflection_series(frequencies, sample_times, PRESS)
            expected = (sounder._static
                        + sounder._tag_gain * np.diagonal(gamma))
            np.testing.assert_allclose(stream.estimates[index], expected,
                                       rtol=1e-6)

    def test_uwb_capture_matches_reflection_series(self, transducer):
        config = UWBSounderConfig(bins=64)
        tag = WiForceTag(transducer, clock_offset_ppm=20.0)
        sounder = UWBSounder(config, tag, BackscatterLink(),
                             rng=np.random.default_rng(0))
        stream = sounder.capture(PRESS, 40, start_time=0.1)
        frequencies = config.bin_frequencies()
        midpoints = stream.times + 0.5 * config.estimate_period
        gamma = tag.reflection_series(frequencies, midpoints, PRESS)
        expected = (sounder._static[None, :]
                    + sounder._tag_gain[None, :] * gamma)
        residual = stream.estimates - expected
        assert np.abs(residual).max() < 10.0 * sounder.estimate_noise_std()


class TestBatchedTagAPI:
    def test_state_table_rows_match_state_reflections(self, transducer,
                                                      config):
        tag = WiForceTag(transducer)
        frequencies = config.subcarrier_frequencies()
        table = tag.state_table(frequencies, PRESS)
        reflections = tag.state_reflections(frequencies, PRESS)
        np.testing.assert_array_equal(table[0], reflections[(False, False)])
        np.testing.assert_array_equal(table[1], reflections[(False, True)])
        np.testing.assert_array_equal(table[2], reflections[(True, False)])
        np.testing.assert_array_equal(table[3], reflections[(True, True)])

    def test_state_indices_match_reflection_series_gather(self, transducer,
                                                          config):
        tag = WiForceTag(transducer, clock_offset_ppm=50.0)
        frequencies = config.subcarrier_frequencies()
        times = np.linspace(0.0, 0.01, 173)
        series = tag.reflection_series(frequencies, times, PRESS)
        table = tag.state_table(frequencies, PRESS)
        indices = tag.state_indices(times)
        np.testing.assert_array_equal(series, table[indices])


class TestOFDMSoundMany:
    def test_batched_estimates_match_single_statistically(self, config):
        modem = OFDMModem(config, rng=np.random.default_rng(2))
        channel = 1e-2 * np.exp(1j * np.linspace(0.0, 2.0,
                                                 config.subcarriers))
        frames = 64
        batched = modem.sound_many(np.tile(channel, (frames, 1)))
        assert batched.shape == (frames, config.subcarriers)
        residual = batched - channel[None, :]
        measured = np.sqrt(np.mean(np.abs(residual) ** 2))
        assert measured == pytest.approx(modem.estimate_noise_std(),
                                         rel=0.15)

    def test_rejects_wrong_shape(self, config):
        modem = OFDMModem(config, rng=np.random.default_rng(2))
        with pytest.raises(ReaderError):
            modem.sound_many(np.zeros((4, 10), dtype=complex))


class TestKernelsAndSwitches:
    def test_accumulate_matches_numpy_reference(self):
        rng = np.random.default_rng(0)
        bins = rng.integers(0, 32, 5000)
        weights = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        got = _kernels.accumulate_harmonics(bins, weights, 32)
        ref = _kernels._accumulate_numpy(bins, weights, 32)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_numba_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUMBA", "0")
        module = importlib.reload(_kernels)
        try:
            assert module.HAVE_NUMBA is False
            bins = np.array([0, 1, 1, 3])
            weights = np.array([1.0, 2.0, 3.0, 4.0j])
            out = module.accumulate_harmonics(bins, weights, 4)
            np.testing.assert_allclose(out,
                                       [1.0, 5.0, 0.0, 4.0j])
        finally:
            monkeypatch.delenv("REPRO_NUMBA")
            importlib.reload(_kernels)

    def test_resolve_sounder(self):
        assert resolve_sounder("fast") is FastSounder
        assert resolve_sounder("oracle") is FrameLevelSounder
        with pytest.raises(ConfigurationError):
            resolve_sounder("warp")

    def test_builders_honor_oracle_switch(self):
        from repro.experiments.scenarios import build_wireless_scenario
        reader = build_wireless_scenario(seed=1, fast=True,
                                         sounder="oracle")
        assert type(reader.sounder) is FrameLevelSounder
        reader = build_wireless_scenario(seed=1, fast=True)
        assert type(reader.sounder) is FastSounder
