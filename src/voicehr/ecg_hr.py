"""R-peak detection and heart-rate extraction via the 1500 rule.

The detector is the classic envelope chain: band-pass, differentiate,
square, moving-window integrate, then an adaptive relative threshold
with a refractory floor. Detected envelope peaks are refined back onto
the band-passed signal so indices line up with the R waves themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage, signal

from .errors import (
    InsufficientPeaksError,
    NonPositiveIntervalError,
    NoPeaksFoundError,
    SignalTooShortError,
)
from .signal_io import EcgRecord

# One "small square" on standard ECG paper, in seconds.
SMALL_SQUARE_S = 0.04


@dataclass(frozen=True)
class PeakConfig:
    band_low_hz: float = 5.0
    band_high_hz: float = 15.0
    integration_window_s: float = 0.150
    refractory_s: float = 0.2
    threshold_fraction: float = 0.5
    median_window_s: float = 2.0
    min_signal_s: float = 2.0


@dataclass(frozen=True, eq=False)
class RPeakSeries:
    """Strictly increasing R-peak sample indices at a fixed rate."""

    peak_indices: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        idx = np.asarray(self.peak_indices, dtype=np.int64)
        object.__setattr__(self, "peak_indices", idx)
        if idx.size > 1 and np.any(np.diff(idx) <= 0):
            raise ValueError("peak indices must be strictly increasing")

    def rr_intervals_s(self) -> np.ndarray:
        return np.diff(self.peak_indices) / self.sample_rate_hz


@dataclass(frozen=True)
class HeartRate:
    bpm: float
    n_intervals: int


def _envelope(samples: np.ndarray, rate: float, config: PeakConfig):
    nyq = rate / 2.0
    high = min(config.band_high_hz, 0.99 * nyq)
    low = min(config.band_low_hz, 0.5 * high)
    b, a = signal.butter(2, [low / nyq, high / nyq], btype="band")
    band = signal.filtfilt(b, a, samples)
    deriv = np.gradient(band)
    squared = deriv * deriv
    win = max(1, int(round(config.integration_window_s * rate)))
    return ndimage.uniform_filter1d(squared, size=win, mode="nearest"), band


def refractory_select(candidates, strength, min_gap):
    """Enforce a refractory gap over candidate peak indices.

    Candidates must be ascending. Within `min_gap` samples of the last
    kept peak, the stronger one wins. Returns kept candidate positions
    (indices into `candidates`).
    """
    n = candidates.shape[0]
    kept = np.empty(n, dtype=np.int64)
    m = 0
    for i in range(n):
        if m == 0 or candidates[i] - candidates[kept[m - 1]] >= min_gap:
            kept[m] = i
            m += 1
        elif strength[i] > strength[kept[m - 1]]:
            kept[m - 1] = i
    return kept[:m]


def detect_r_peaks(record: EcgRecord, config: PeakConfig = PeakConfig()) -> RPeakSeries:
    """Locate R-peaks with an adaptive threshold and refractory floor."""
    rate = record.sample_rate_hz
    if record.duration_s < config.min_signal_s:
        raise SignalTooShortError(
            f"need >= {config.min_signal_s} s of ECG, got {record.duration_s:.3f} s")
    env, band = _envelope(record.samples, rate, config)
    peak_floor = env.max()
    if peak_floor <= 0.0:
        raise NoPeaksFoundError("flat signal: empty envelope")
    med_win = max(1, int(round(config.median_window_s * rate)))
    running_median = ndimage.median_filter(env, size=med_win, mode="nearest")
    # Relative floor keeps the threshold scale-invariant but nonzero on
    # records whose running median is exactly zero between beats.
    threshold = np.maximum(config.threshold_fraction * running_median, 1e-3 * peak_floor)

    interior = (env[1:-1] > env[:-2]) & (env[1:-1] >= env[2:]) & (env[1:-1] > threshold[1:-1])
    candidates = np.flatnonzero(interior) + 1
    if candidates.size == 0:
        raise NoPeaksFoundError("no envelope maxima above threshold")

    min_gap = int(round(config.refractory_s * rate))
    kept = refractory_select(candidates, env[candidates], min_gap)
    peaks_env = candidates[kept]

    # Refine each envelope peak to the strongest band-passed excursion nearby;
    # filtfilt is zero-phase so this lands on the R wave.
    half = max(1, int(round(config.integration_window_s * rate)) // 2 + 1)
    power = band * band
    refined = np.empty(peaks_env.size, dtype=np.int64)
    for i, p in enumerate(peaks_env):
        lo = max(0, p - half)
        hi = min(power.size, p + half + 1)
        refined[i] = lo + int(np.argmax(power[lo:hi]))
    refined = np.unique(refined)
    kept2 = refractory_select(refined, power[refined], min_gap)
    return RPeakSeries(peak_indices=refined[kept2], sample_rate_hz=rate)


def heart_rate_1500(rr_interval_s: float) -> float:
    """Heart rate from one RR interval via the 1500 rule.

    The interval is expressed in standard 0.04 s small squares and the
    rate is 1500 divided by that count (algebraically 60 / RR).
    """
    if rr_interval_s <= 0:
        raise NonPositiveIntervalError(f"rr_interval_s={rr_interval_s}")
    n_small_squares = rr_interval_s / SMALL_SQUARE_S
    return 1500.0 / n_small_squares


def extract_heart_rate(record: EcgRecord, config: PeakConfig = PeakConfig()) -> HeartRate:
    """Mean 1500-rule rate over all consecutive RR intervals of a record."""
    peaks = detect_r_peaks(record, config)
    if peaks.peak_indices.size < 2:
        raise InsufficientPeaksError("need >= 2 peaks for a rate estimate")
    rr = peaks.rr_intervals_s()
    rates = [heart_rate_1500(float(r)) for r in rr]
    return HeartRate(bpm=float(np.mean(rates)), n_intervals=rr.size)
