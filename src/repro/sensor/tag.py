"""The complete backscatter tag: sensor + switches + splitter + antenna.

Computes the tag's composite reflection coefficient as a function of
time and press state.  Both switch branches merge onto one antenna
through an ideal splitter (paper section 3.2, Fig. 15's five
components), so the antenna sees::

    Gamma(t) = 0.5 * (Gamma_branch1(t) + Gamma_branch2(t))

with each branch's reflection determined by its switch state.  When
both switches are on (only possible with a naive clocking scheme) the
ends couple through the line and the cross-transmission terms appear —
the intermodulation of Fig. 7 falls out of this model naturally.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SensorError
from repro.rf.elements import ideal_splitter_reflection
from repro.sensor.clock import ClockingScheme, wiforce_clocking
from repro.sensor.transduction import ForceTransducer


@dataclass(frozen=True)
class TagState:
    """A press state applied to the tag.

    Attributes:
        force: Contact force [N] (0 = untouched).
        location: Contact location [m] from port 1.
    """

    force: float = 0.0
    location: float = 0.0


class WiForceTag:
    """Backscatter tag model producing time-varying reflection.

    Args:
        transducer: The sensor's force-to-RF transducer.
        clocking: Switch clocking scheme; defaults to the paper's
            duty-cycled 1 kHz / 2 kHz scheme.
        antenna_gain_dbi: Tag antenna gain [dBi] (used by link budgets).
        clock_offset_ppm: Frequency error of the tag's clock crystal in
            parts per million.  The tag is a separate, unsynchronized
            device (paper section 4.4), so its real toggle rates are
            ``nominal * (1 + ppm * 1e-6)`` while the reader extracts at
            the nominal tones — producing the slow phase drift the
            reader's baseline tracking must absorb.
    """

    #: Bound on the per-tag state-reflection LRU.  64 states cover a
    #: full calibration schedule plus the untouched baseline.
    STATE_CACHE_LIMIT = 64

    def __init__(self, transducer: ForceTransducer,
                 clocking: Optional[ClockingScheme] = None,
                 antenna_gain_dbi: float = 2.0,
                 clock_offset_ppm: float = 0.0):
        self._transducer = transducer
        self._clocking = clocking or wiforce_clocking()
        self.antenna_gain_dbi = float(antenna_gain_dbi)
        self.clock_offset_ppm = float(clock_offset_ppm)
        self._state_cache: OrderedDict[
            Tuple[float, float, bytes],
            Dict[Tuple[bool, bool], np.ndarray]] = OrderedDict()
        self._table_cache: OrderedDict[
            Tuple[float, float, bytes], np.ndarray] = OrderedDict()

    @property
    def transducer(self) -> ForceTransducer:
        """The underlying force transducer."""
        return self._transducer

    @property
    def clocking(self) -> ClockingScheme:
        """The switch clocking scheme."""
        return self._clocking

    def _branch_reflections(self, frequency: np.ndarray,
                            state: TagState) -> Dict[Tuple[bool, bool], np.ndarray]:
        """Composite antenna reflection for each (on1, on2) state."""
        switch = self._transducer.design.switch
        off_gamma = switch.off_reflection
        branch_off = switch.branch_off_reflection
        through = switch.through_gain

        if state.force > 0.0:
            network = self._transducer.touched_twoport(
                frequency, state.force, state.location)
        else:
            network = self._transducer.untouched_twoport(frequency)
        flipped = network.flipped()

        ones = np.ones(frequency.shape, dtype=complex)
        off_wave = branch_off * ones

        # Exactly one switch on: that port sees the line terminated by
        # the other (off, reflective) switch; the off branch reflects at
        # its own switch input.
        gamma_port1 = through ** 2 * network.terminated_reflection(off_gamma)
        gamma_port2 = through ** 2 * flipped.terminated_reflection(off_gamma)

        # Both on: each port is terminated by the matched path through
        # the other on-switch into the splitter's isolated port, and the
        # through path couples the branches (intermodulation source).
        matched1 = through ** 2 * network.terminated_reflection(0.0)
        matched2 = through ** 2 * flipped.terminated_reflection(0.0)
        cross = through ** 2 * 0.5 * (network.s21 + network.s12)

        return {
            (False, False): ideal_splitter_reflection(off_wave, off_wave),
            (True, False): ideal_splitter_reflection(gamma_port1, off_wave),
            (False, True): ideal_splitter_reflection(off_wave, gamma_port2),
            (True, True): (ideal_splitter_reflection(matched1, matched2)
                           + cross),
        }

    def state_reflections(self, frequency: np.ndarray,
                          state: TagState) -> Dict[Tuple[bool, bool], np.ndarray]:
        """Public access to the four switch-state reflections.

        Memoized per (force, location, frequency grid) in a bounded
        LRU: a hit refreshes the entry and eviction drops only the
        least-recently-used state, so the hot untouched-baseline entry
        survives a long sweep of distinct presses.
        """
        frequency = np.asarray(frequency, dtype=float)
        key = (state.force, state.location, frequency.tobytes())
        cached = self._state_cache.get(key)
        if cached is not None:
            self._state_cache.move_to_end(key)
            return cached
        reflections = self._branch_reflections(frequency, state)
        self._state_cache[key] = reflections
        while len(self._state_cache) > self.STATE_CACHE_LIMIT:
            self._state_cache.popitem(last=False)
        return reflections

    def state_table(self, frequency: np.ndarray,
                    state: TagState) -> np.ndarray:
        """The four switch-state reflections as one stacked array.

        Returns shape ``(4, len(frequency))`` in switch-index order
        ``on1 * 2 + on2`` — row 0 is the resting (off, off) state.
        This is the gather table the sounders index per frame;
        the stack is memoized alongside :meth:`state_reflections` in
        its own bounded LRU so the hot loop never re-stacks.  The
        returned array is shared — treat it as read-only.
        """
        frequency = np.asarray(frequency, dtype=float)
        if state.force < 0.0:
            raise SensorError(f"force must be non-negative, got {state.force}")
        key = (state.force, state.location, frequency.tobytes())
        cached = self._table_cache.get(key)
        if cached is not None:
            self._table_cache.move_to_end(key)
            return cached
        reflections = self.state_reflections(frequency, state)
        table = np.stack([
            reflections[(False, False)],
            reflections[(False, True)],
            reflections[(True, False)],
            reflections[(True, True)],
        ])
        self._table_cache[key] = table
        while len(self._table_cache) > self.STATE_CACHE_LIMIT:
            self._table_cache.popitem(last=False)
        return table

    def state_indices(self, times: np.ndarray) -> np.ndarray:
        """Switch-state index ``on1 * 2 + on2`` at each time sample.

        The tag's own crystal sets the pace of the switch windows, so
        the nominal reader timestamps are rescaled by the clock offset
        before the clocking scheme is consulted.
        """
        times = np.asarray(times, dtype=float)
        tag_times = times * (1.0 + self.clock_offset_ppm * 1e-6)
        on1, on2 = self._clocking.states(tag_times)
        return on1.astype(int) * 2 + on2.astype(int)

    def reflection_series(self, frequency: np.ndarray, times: np.ndarray,
                          state: TagState) -> np.ndarray:
        """Gamma(t, f): composite reflection, shape (len(times), len(f)).

        Piecewise constant over the switch states at each time sample;
        the clocking scheme decides which state each sample is in.
        """
        frequency = np.asarray(frequency, dtype=float)
        lookup = self.state_table(frequency, state)
        return lookup[self.state_indices(times)]

    def modulation_spectrum(self, frequency: float, state: TagState,
                            duration: Optional[float] = None,
                            samples: int = 8192) -> Tuple[np.ndarray, np.ndarray]:
        """Baseband spectrum of Gamma(t) at one carrier frequency.

        Returns (offsets [Hz], complex amplitudes) of the FFT of the
        reflection time series over ``duration`` (default: 8 periods of
        the slower clock).  Used to reproduce Figs. 7-8: the WiForce
        scheme puts clean energy at fs and 4 fs, the naive scheme smears
        energy into intermodulation tones.
        """
        if duration is None:
            duration = 8.0 * max(self._clocking.clock_port1.period,
                                 self._clocking.clock_port2.period)
        times = np.arange(samples) * (duration / samples)
        grid = np.array([float(frequency)])
        series = self.reflection_series(grid, times, state)[:, 0]
        spectrum = np.fft.fft(series) / samples
        offsets = np.fft.fftfreq(samples, d=duration / samples)
        order = np.argsort(offsets)
        return offsets[order], spectrum[order]
