"""Vectorized sounding: the simulator's fast cold path.

A reader press is one capture followed by phase-group harmonic
extraction (:class:`repro.core.harmonics.HarmonicExtractor`).  Through
the frame-level oracle
(:meth:`repro.reader.sounder.FrameLevelSounder.capture`) that costs a
``(frames, K)`` AWGN draw plus repeated broadcast passes over the
estimate block, and the extraction then keeps only the per-group DFT
bins at the readout tones.  :meth:`FastSounder.capture_matrices`
evaluates those bins **analytically** from per-state coefficient sums
(an ``O(frames)`` scalar reduction plus a rank-4 matmul) and, because
white Gaussian noise is invariant under the unitary group DFT, draws
the noise directly at the group level: ``groups x tones x K``
Gaussians instead of ``frames x K``.  For a rectangular window with
integer-period groups this is exactly equivalent in distribution (see
DESIGN.md "Batched sounder" for the proof sketch and the RNG-stream
contract).

Parity contract (enforced by ``tests/test_fast_sounder.py``):

* ``FastSounder.capture`` *is* the oracle's (inherited), and
  ``capture_batch`` loops it with a running clock — both are
  bit-identical to sequential oracle captures, noise and armed fault
  plans included.
* ``capture_matrices`` is bounded-delta: statistically exact, with the
  tolerance justified in DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, ReaderError
from repro.obs.registry import active
from repro.reader._kernels import accumulate_harmonics
from repro.reader.sounder import ChannelEstimateStream, FrameLevelSounder
from repro.sensor.tag import TagState

__all__ = ["FastSounder", "SOUNDER_KINDS", "resolve_sounder"]


class FastSounder(FrameLevelSounder):
    """Drop-in replacement for :class:`FrameLevelSounder` with the
    analytic harmonic path.

    Same constructor, same physics, same noise model, and the oracle's
    own frame-level :meth:`capture`; :meth:`capture_matrices` adds the
    fused capture + extraction the reader uses when it can.  The
    oracle class remains available behind the ``sounder="oracle"``
    switch of the system builders.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Memoized per (frames,): arange(frames) * frame_period.
        self._time_base: Dict[int, np.ndarray] = {}
        # Memoized per (tone, frames, group_length, remove_mean):
        # mean-removed normalized DFT weights, their per-group sums,
        # and the per-group noise variance factor.
        self._basis_cache: Dict[Tuple[float, int, int, bool],
                                Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # shared helpers

    def _frame_base(self, frames: int) -> np.ndarray:
        """``arange(frames) * frame_period`` (cached, read-only)."""
        base = self._time_base.get(frames)
        if base is None:
            base = self.config.frame_times(frames)
            base.setflags(write=False)
            self._time_base[frames] = base
        return base

    def capture_batch(self, states: Sequence[TagState],
                      frames: Union[int, Sequence[int]],
                      start_time: float = 0.0
                      ) -> List[ChannelEstimateStream]:
        """Record consecutive captures with a running clock.

        Capture ``c`` starts where capture ``c - 1`` ended, exactly as
        a sequential protocol driving :meth:`capture` would, so every
        stream is bit-identical to the sequential oracle captures,
        noise and armed fault plans included.

        Args:
            states: Press state held during each capture.
            frames: Frame count per capture (scalar applies to all).
            start_time: Start of the first capture [s].

        Returns:
            One :class:`ChannelEstimateStream` per state.
        """
        if not states:
            raise ConfigurationError("need at least one capture state")
        if isinstance(frames, (int, np.integer)):
            per_frames = [int(frames)] * len(states)
        else:
            per_frames = [int(value) for value in frames]
            if len(per_frames) != len(states):
                raise ConfigurationError(
                    f"got {len(states)} states but {len(per_frames)} "
                    f"frame counts")
        for count in per_frames:
            if count < 1:
                raise ConfigurationError(f"frames must be >= 1, got {count}")
        streams = []
        clock = start_time
        for state, count in zip(states, per_frames):
            streams.append(self.capture(state, count, start_time=clock))
            clock = clock + count * self.config.frame_period
        return streams

    # ------------------------------------------------------------------
    # harmonic-domain fast path

    def supports_matrices(self, extractor) -> bool:
        """Whether :meth:`capture_matrices` can stand in for
        ``extract(capture(...))`` for this extractor.

        Requires the rectangular window with integer-period groups
        (the default configuration): the readout tones must land on
        distinct non-DC DFT bins of the group, which is what makes the
        group-level noise draw exactly equivalent.
        """
        if extractor.window != "rect":
            return False
        length = extractor.group_length
        period = self.config.frame_period
        bins = []
        for tone in extractor.tones:
            if tone * period > 0.5:  # beyond Nyquist
                return False
            cycles = tone * length * period
            if abs(cycles - round(cycles)) > 1e-9 * max(1.0, cycles):
                return False
            bins.append(int(round(cycles)) % length)
        if 0 in bins or len(set(bins)) != len(bins):
            return False
        return True

    def _tone_basis(self, tone: float, frames: int, group_length: int,
                    remove_mean: bool
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalized (mean-removed) DFT weights for one readout tone.

        Returns ``(weights, group_sums, variance_factor)`` where
        ``weights`` are the per-frame complex weights the extractor
        would apply to a capture starting at t=0, ``group_sums`` their
        per-group totals before mean removal, and ``variance_factor``
        the per-group ``sum |w|^2`` that scales the group-level noise.
        """
        key = (tone, frames, group_length, remove_mean)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        groups = frames // group_length
        base = self._frame_base(frames)
        weights = np.exp(-2j * np.pi * tone * base) / group_length
        sums = weights.reshape(groups, group_length).sum(axis=1)
        if remove_mean:
            weights = weights - np.repeat(sums / group_length, group_length)
        variance = np.abs(weights.reshape(groups, group_length)
                          ) ** 2
        variance = variance.sum(axis=1)
        weights.setflags(write=False)
        sums.setflags(write=False)
        variance.setflags(write=False)
        self._basis_cache[key] = (weights, sums, variance)
        return weights, sums, variance

    def capture_matrices(self, state: TagState, groups: int, extractor,
                         start_time: float = 0.0):
        """Fused capture + harmonic extraction for one press state.

        Equivalent to ``extractor.extract(self.capture(state, groups *
        extractor.group_length, start_time))`` in distribution, at a
        fraction of the cost: the per-group readout-tone DFT is
        evaluated analytically from per-state coefficient sums, and
        the receiver noise — white, circular, Gaussian — is drawn
        directly at the group level where the unitary DFT projection
        leaves it i.i.d.

        Raises:
            ReaderError: The extractor configuration is outside the
                fast path's support (use :meth:`supports_matrices`).
        """
        from repro.core.harmonics import HarmonicMatrix

        if groups < 1:
            raise ReaderError(f"groups must be >= 1, got {groups}")
        if not self.supports_matrices(extractor):
            raise ReaderError(
                "extractor configuration outside the fast harmonic path "
                "(needs rect window and integer-period readout tones)")
        length = extractor.group_length
        frames = groups * length
        period = self.config.frame_period
        base = self._frame_base(frames)
        times = start_time + base
        midpoints = times + 0.5 * (self.config.preamble_samples
                                   / self.config.bandwidth)
        table = self.tag.state_table(self._frequencies, state)
        delta = table - table[0][None, :]
        switch_index = self.tag.state_indices(midpoints)

        rotation: Optional[np.ndarray] = None
        if self.tag_phase_jitter > 0.0:
            step = np.radians(self.tag_phase_jitter) * np.sqrt(period)
            walk = self._jitter_phase + np.cumsum(
                self._rng.normal(0.0, step, frames))
            self._jitter_phase = float(walk[-1])
            rotation = np.exp(1j * walk)

        resting_field = self._static + self._tag_gain * table[0]
        bins = switch_index + 4 * (np.arange(frames) // length)
        noise_std = self.effective_noise_std()
        group_times = times.reshape(groups, length).mean(axis=1)

        result: Dict[float, HarmonicMatrix] = {}
        for tone in extractor.tones:
            weights, sums, variance = self._tone_basis(
                tone, frames, length, extractor.remove_mean)
            if rotation is not None:
                weights = weights * rotation
            coefficients = accumulate_harmonics(
                bins, weights, 4 * groups).reshape(groups, 4)
            values = self._tag_gain[None, :] * (coefficients @ delta)
            if not extractor.remove_mean:
                values = values + sums[:, None] * resting_field[None, :]
            # The capture's absolute start rotates every DFT weight by
            # a common factor; the noise is circular so only the
            # signal needs it.
            values = values * np.exp(-2j * np.pi * tone * start_time)
            if noise_std > 0.0:
                scale = np.sqrt(noise_std ** 2 * variance / 2.0)[:, None]
                values = values + scale * (
                    self._rng.normal(0.0, 1.0, values.shape)
                    + 1j * self._rng.normal(0.0, 1.0, values.shape))
            result[tone] = HarmonicMatrix(tone=tone, values=values,
                                          group_times=group_times)
        obs = active()
        if obs is not None:
            obs.counter("reader.harmonic_captures").increment()
            obs.counter("reader.harmonic_frames").increment(frames)
        return result


#: The sounder switch exposed by the system builders.
SOUNDER_KINDS = ("fast", "oracle")


def resolve_sounder(kind: str):
    """Map a ``sounder=`` switch value to its class.

    ``"fast"`` is the batched default; ``"oracle"`` selects the
    bit-level verification sounder.
    """
    if kind == "fast":
        return FastSounder
    if kind == "oracle":
        return FrameLevelSounder
    raise ConfigurationError(
        f"unknown sounder kind {kind!r}; choose from {SOUNDER_KINDS}")
