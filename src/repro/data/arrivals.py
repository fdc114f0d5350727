"""Request arrival processes for the online serving workloads.

The serving tier is driven over the *simulated* device clock, so arrival
times are plain floats in simulated seconds.  Two classic processes cover
the load-generator's open- and closed-loop modes:

* :class:`PoissonProcess` — memoryless open-loop arrivals at a fixed
  offered rate, the standard model for the superposition of requests
  from millions of independent users (the aggregate of many sparse
  per-user streams converges to Poisson regardless of per-user timing);
* :class:`ThinkTimeProcess` — exponentially distributed per-user think
  times for closed-loop load, where each simulated user waits for its
  response before "thinking" and issuing the next request.

Production traffic is not homogeneous, so the multi-tenant serving
cluster additionally drives *rate-modulated* (non-homogeneous) Poisson
processes generated by Lewis–Shedler thinning:

* :class:`DiurnalProcess` — a sinusoidal day/night load curve between a
  trough and a peak rate;
* :class:`FlashCrowdProcess` — a baseline rate with a rectangular spike
  window (a product launch, a retweeted link);
* :class:`HotKeyStorm` — not an arrival-*time* process but the key-side
  storm that rides along: during a window, a fraction of requests
  collapses onto a small hot key set (everyone asking for the same
  item), which is what stresses duplicate-key coalescing and per-key
  staleness.

All are deterministic under a seed, like every other generator in
:mod:`repro.data`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.draws import ChunkedStream


class PoissonProcess:
    """Open-loop arrival times with exponential interarrival gaps.

    Parameters
    ----------
    rate:
        Offered load in requests per simulated second.
    seed:
        RNG seed; the same seed replays the same arrival trace.
    start:
        Simulated time of the window start.
    """

    def __init__(self, rate: float, seed: int = 0, start: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self.rate = rate
        self.start = float(start)
        self._rng = np.random.default_rng(seed)

    def times(self, count: int) -> np.ndarray:
        """The next ``count`` arrival times (ascending float seconds)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        gaps = self._rng.exponential(1.0 / self.rate, count)
        times = self.start + np.cumsum(gaps)
        if count:
            self.start = float(times[-1])
        return times


class ModulatedPoissonProcess:
    """Non-homogeneous Poisson arrivals via Lewis–Shedler thinning.

    Subclasses define :meth:`rate_at`, the instantaneous offered rate
    λ(t) in requests per simulated second; ``peak_rate`` must upper-bound
    it everywhere.  Candidates are drawn from a homogeneous process at
    ``peak_rate`` and accepted with probability ``rate_at(t) /
    peak_rate`` — the standard exact construction, deterministic under
    the seed.

    Parameters
    ----------
    peak_rate:
        The thinning envelope; an upper bound on ``rate_at`` over the
        whole run.
    seed:
        RNG seed; the same seed replays the same arrival trace.
    start:
        Simulated time of the window start.
    """

    def __init__(self, peak_rate: float, seed: int = 0, start: float = 0.0) -> None:
        if peak_rate <= 0:
            raise ValueError(f"peak rate must be positive, got {peak_rate}")
        self.peak_rate = peak_rate
        self.start = float(start)
        self._rng = np.random.default_rng(seed)

    def rate_at(self, t: float) -> float:
        """Instantaneous rate λ(t); subclasses must override."""
        raise NotImplementedError

    def times(self, count: int) -> np.ndarray:
        """The next ``count`` arrival times (ascending float seconds)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        out = np.empty(count, dtype=np.float64)
        filled = 0
        t = self.start
        # Draw candidate gaps in chunks: thinning accepts with
        # probability rate/peak, so ~count/acceptance candidates total.
        chunk = max(64, count)
        while filled < count:
            gaps = self._rng.exponential(1.0 / self.peak_rate, chunk)
            accepts = self._rng.random(chunk)
            for gap, u in zip(gaps, accepts):
                t += gap
                rate = self.rate_at(t)
                if rate > self.peak_rate + 1e-9 * self.peak_rate:
                    raise ValueError(
                        f"rate_at({t}) = {rate} exceeds the thinning "
                        f"envelope peak_rate = {self.peak_rate}"
                    )
                if u * self.peak_rate <= rate:
                    out[filled] = t
                    filled += 1
                    if filled == count:
                        break
        if count:
            self.start = float(out[-1])
        return out


class DiurnalProcess(ModulatedPoissonProcess):
    """Sinusoidal day/night load curve between a trough and a peak.

    The rate is ``trough + (peak - trough) * (1 - cos(2π (t - phase) /
    period)) / 2`` — the trough at ``t = phase``, the peak half a period
    later.  ``period`` is in simulated seconds, so benches compress a
    "day" into milliseconds of simulated time.

    Parameters
    ----------
    trough_rate / peak_rate:
        The rate envelope in requests per simulated second.
    period:
        Length of one full cycle in simulated seconds.
    phase:
        Simulated time of a trough.
    seed / start:
        As in :class:`ModulatedPoissonProcess`.
    """

    def __init__(
        self,
        trough_rate: float,
        peak_rate: float,
        period: float,
        phase: float = 0.0,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        if trough_rate < 0 or trough_rate > peak_rate:
            raise ValueError(
                f"need 0 <= trough_rate <= peak_rate, got {trough_rate} "
                f"and {peak_rate}"
            )
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        super().__init__(peak_rate, seed=seed, start=start)
        self.trough_rate = trough_rate
        self.period = period
        self.phase = phase

    def rate_at(self, t: float) -> float:
        """λ(t) on the sinusoidal curve."""
        swing = (self.peak_rate - self.trough_rate) / 2.0
        return self.trough_rate + swing * (
            1.0 - math.cos(2.0 * math.pi * (t - self.phase) / self.period)
        )


class FlashCrowdProcess(ModulatedPoissonProcess):
    """Baseline Poisson load with a rectangular flash-crowd window.

    Outside ``[flash_at, flash_at + flash_duration)`` the rate is
    ``base_rate``; inside it jumps to ``flash_rate`` — the sudden
    arrival surge (a launch, a viral link) the admission controller and
    autoscaler exist to absorb.

    Parameters
    ----------
    base_rate / flash_rate:
        Steady and surge rates in requests per simulated second.
    flash_at / flash_duration:
        Window start (simulated seconds) and length.
    seed / start:
        As in :class:`ModulatedPoissonProcess`.
    """

    def __init__(
        self,
        base_rate: float,
        flash_rate: float,
        flash_at: float,
        flash_duration: float,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        if base_rate <= 0 or flash_rate < base_rate:
            raise ValueError(
                f"need 0 < base_rate <= flash_rate, got {base_rate} "
                f"and {flash_rate}"
            )
        if flash_duration <= 0:
            raise ValueError(f"flash_duration must be positive, got {flash_duration}")
        super().__init__(flash_rate, seed=seed, start=start)
        self.base_rate = base_rate
        self.flash_at = flash_at
        self.flash_duration = flash_duration

    def rate_at(self, t: float) -> float:
        """λ(t): ``flash_rate`` inside the window, ``base_rate`` outside."""
        if self.flash_at <= t < self.flash_at + self.flash_duration:
            return self.peak_rate
        return self.base_rate


class HotKeyStorm:
    """Time-windowed key-side storm: traffic collapses onto a hot set.

    Wraps any key chooser (``next_key()``): outside the storm window
    keys come from the base chooser; inside it, each request picks a key
    from a small fixed hot set with probability ``hot_fraction`` (and
    falls through to the base chooser otherwise).  The hot set is drawn
    once, deterministically, from the key space.

    Parameters
    ----------
    chooser:
        Base key chooser (zipfian/uniform) with ``next_key()`` and an
        ``item_count`` attribute.
    hot_keys:
        Size of the hot set.
    storm_at / storm_duration:
        Storm window start (simulated seconds) and length.
    hot_fraction:
        Probability a storm-window request hits the hot set.
    seed:
        RNG seed for the hot-set draw and the per-request coin flips.
    """

    def __init__(
        self,
        chooser,
        hot_keys: int,
        storm_at: float,
        storm_duration: float,
        hot_fraction: float = 0.9,
        seed: int = 0,
    ) -> None:
        item_count = getattr(chooser, "item_count", None)
        if item_count is None or hot_keys <= 0 or hot_keys > item_count:
            raise ValueError(
                f"hot_keys must be in 1..item_count, got {hot_keys} over "
                f"{item_count}"
            )
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
        if storm_duration <= 0:
            raise ValueError(f"storm_duration must be positive, got {storm_duration}")
        self.chooser = chooser
        self.storm_at = storm_at
        self.storm_duration = storm_duration
        self.hot_fraction = hot_fraction
        self._rng = np.random.default_rng(seed)
        self.hot_set = np.sort(
            self._rng.choice(item_count, size=hot_keys, replace=False)
        )

    def in_storm(self, t: float) -> bool:
        """Whether simulated time ``t`` falls inside the storm window."""
        return self.storm_at <= t < self.storm_at + self.storm_duration

    def key_at(self, t: float) -> int:
        """The key of a request arriving at simulated time ``t``."""
        if self.in_storm(t) and float(self._rng.random()) < self.hot_fraction:
            return int(self.hot_set[int(self._rng.integers(len(self.hot_set)))])
        return int(self.chooser.next_key())


class ThinkTimeProcess:
    """Closed-loop think times: how long a user waits before re-requesting.

    Parameters
    ----------
    mean_seconds:
        Mean of the exponential think-time distribution.  ``0`` models
        users that fire again immediately on response (a saturation
        closed loop).
    seed:
        RNG seed.
    """

    def __init__(self, mean_seconds: float, seed: int = 0) -> None:
        if mean_seconds < 0:
            raise ValueError("mean think time must be non-negative")
        self.mean_seconds = mean_seconds
        rng = np.random.default_rng(seed)
        self._times = ChunkedStream(lambda n: rng.exponential(mean_seconds, n))

    def sample(self) -> float:
        """One think-time draw in simulated seconds (served from a chunk
        of draws; a zero mean draws nothing)."""
        if self.mean_seconds == 0:
            return 0.0
        return next(self._times.scalars)
