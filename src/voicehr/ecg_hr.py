"""R-peak detection and heart-rate extraction via the 1500 rule.

The detector is the classic envelope chain: band-pass, differentiate,
square, moving-window integrate, then an adaptive relative threshold
with a refractory floor. Detected envelope peaks are refined back onto
the band-passed signal so indices line up with the R waves themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, signal

from .config import PeakConfig
from .errors import (
    InsufficientPeaksError,
    NonPositiveIntervalError,
    NoPeaksFoundError,
    SignalTooShortError,
)
from .signal_io import EcgRecord
from .speech_features import frame_signal

# One "small square" on standard ECG paper, in seconds.
SMALL_SQUARE_S = 0.04

# filtfilt's padding at each end: three lengths of the order-2 band-pass's 5 coefficients
_PADLEN = 15


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


@functools.lru_cache(maxsize=8)
def _band_pass(rate: float, band_low_hz: float, band_high_hz: float):
    """Read-only Butterworth (b, a) and its steady state `lfilter_zi`, once per rate and band."""
    nyq = rate / 2.0
    high = min(band_high_hz, 0.99 * nyq)
    low = min(band_low_hz, 0.5 * high)
    b, a = signal.butter(2, [low / nyq, high / nyq], btype="band")
    zi = signal.lfilter_zi(b, a)
    for array in (b, a, zi):
        array.setflags(write=False)
    return b, a, zi


def band_pass_filtfilt(samples: np.ndarray, rate: float, config: PeakConfig) -> np.ndarray:
    """`signal.filtfilt(b, a, samples)` of the band-pass, with the memoised zi.

    The same steps as filtfilt's default: an odd extension by three
    filter lengths at each end, a forward pass started from `zi` times
    the first sample, a backward pass started from `zi` times the last
    output, then the extension trimmed off. The bits are the same.
    """
    b, a, zi = _band_pass(rate, config.band_low_hz, config.band_high_hz)
    edge = 3 * max(len(a), len(b))
    if samples.size <= edge:
        raise ValueError("The length of the input vector x must be greater than padlen, "
                         f"which is {edge}.")
    ext = np.concatenate((2 * samples[:1] - samples[edge:0:-1],
                          samples,
                          2 * samples[-1:] - samples[-2:-(edge + 2):-1]))
    y, _ = signal.lfilter(b, a, ext, zi=zi * ext[:1])
    y, _ = signal.lfilter(b, a, y[::-1], zi=zi * y[-1:])
    return y[::-1][edge:-edge]


def _central_difference(x: np.ndarray) -> np.ndarray:
    """`np.gradient(x)` of a 1-D float array of two or more samples, bit for bit.

    Halved central differences inside, one-sided differences at the ends,
    without `np.gradient`'s argument handling.
    """
    out = np.empty_like(x)
    np.subtract(x[2:], x[:-2], out=out[1:-1])
    out[1:-1] /= 2.0
    out[0] = x[1] - x[0]
    out[-1] = x[-1] - x[-2]
    return out


def _envelope(samples: np.ndarray, rate: float, config: PeakConfig):
    band = band_pass_filtfilt(samples, rate, config)
    deriv = _central_difference(band)
    squared = deriv * deriv
    win = max(1, int(round(config.integration_window_s * rate)))
    return ndimage.uniform_filter1d(squared, size=win, mode="nearest"), band


def _threshold_candidates(env, fraction, width, floor):
    """Interior maxima of `env` above max(`fraction` * running median, `floor`).

    The running median at sample i is the element of rank `width // 2` in
    the window of `width` samples from i - width // 2, with the end
    samples repeated past the ends: scipy's median filter of size `width`
    in "nearest" mode. Rounding is monotone, so for `fraction >= 0` the
    product fl(fraction * v) never falls as v grows, and sorting a window
    by v sorts it by fl(fraction * v) too. So env[i] > fl(fraction *
    median) holds exactly when more than `width // 2` window samples v
    have fl(fraction * v) < env[i]: a count, with the same outcome as the
    filter and no sort, taken only at the maxima above `floor`.
    """
    maxima = np.flatnonzero((env[1:-1] > env[:-2]) & (env[1:-1] >= env[2:])
                            & (env[1:-1] > floor)) + 1
    scaled = fraction * env
    half = width // 2
    padded = np.concatenate((np.full(half, scaled[0]), scaled,
                             np.full(width - 1 - half, scaled[-1])))
    windows = frame_signal(padded, width)[maxima]
    # a sum of bools in int32 counts them faster than count_nonzero's int64
    return maxima[(windows < env[maxima, None]).sum(axis=1, dtype=np.int32) > half]


def refractory_select(candidates, strength, min_gap):
    """Enforce a refractory gap over candidate peak indices.

    Candidates must be ascending. Within `min_gap` samples of the last
    kept peak, the stronger one wins. Returns kept candidate positions
    (indices into `candidates`). The loop runs over Python lists, which
    index and compare about 3x faster than numpy scalars.
    """
    positions = candidates.tolist()
    strength = strength.tolist()
    kept = []
    for i, position in enumerate(positions):
        if not kept or position - positions[kept[-1]] >= min_gap:
            kept.append(i)
        elif strength[i] > strength[kept[-1]]:
            kept[-1] = i
    return np.array(kept, dtype=np.int64)


def refine_peaks(power: np.ndarray, peaks: np.ndarray, half: int) -> np.ndarray:
    """Index of the first maximum of `power` within `half` samples of each peak.

    One argmax over all windows: the signal is padded with -1.0 at both
    ends, which never wins because power is non-negative, so windows cut
    short by an end pick the same sample as a clipped slice would.
    """
    pad = np.full(half, -1.0)
    windows = frame_signal(np.concatenate((pad, power, pad)), 2 * half + 1)
    return peaks - half + np.argmax(windows[peaks], axis=1)


def detect_r_peaks(record: EcgRecord, config: PeakConfig = PeakConfig()) -> RPeakSeries:
    """Locate R-peaks with an adaptive threshold and refractory floor."""
    rate = record.sample_rate_hz
    if record.duration_s < config.min_signal_s:
        raise SignalTooShortError(
            f"need >= {config.min_signal_s} s of ECG, got {record.duration_s:.3f} s")
    if record.samples.size <= _PADLEN:
        raise SignalTooShortError(f"need > {_PADLEN} ECG samples for the band-pass filter, "
                                  f"got {record.samples.size}")
    env, band = _envelope(record.samples, rate, config)
    peak_floor = env.max()
    if peak_floor <= 0.0:
        raise NoPeaksFoundError("flat signal: empty envelope")
    med_win = max(1, int(round(config.median_window_s * rate)))
    # Relative floor keeps the threshold scale-invariant but nonzero on
    # records whose running median is exactly zero between beats.
    candidates = _threshold_candidates(env, config.threshold_fraction, med_win,
                                       1e-3 * peak_floor)
    if candidates.size == 0:
        raise NoPeaksFoundError("no envelope maxima above threshold")

    min_gap = int(round(config.refractory_s * rate))
    kept = refractory_select(candidates, env[candidates], min_gap)
    peaks_env = candidates[kept]

    # Refine each envelope peak to the strongest band-passed excursion nearby;
    # filtfilt is zero-phase so this lands on the R wave.
    half = max(1, int(round(config.integration_window_s * rate)) // 2 + 1)
    power = band * band
    refined = refine_peaks(power, peaks_env, half)
    refined = np.unique(refined)
    kept2 = refractory_select(refined, power[refined], min_gap)
    return RPeakSeries(peak_indices=refined[kept2], sample_rate_hz=rate)


def heart_rate_1500(rr_interval_s):
    """Heart rate from an RR interval, or from an array of them, via the 1500 rule.

    The interval is expressed in standard 0.04 s small squares and the
    rate is 1500 divided by that count (algebraically 60 / RR). A float
    gives a float, an array the rate of each interval.
    """
    if np.any(rr_interval_s <= 0):
        raise NonPositiveIntervalError(f"rr_interval_s={rr_interval_s}")
    n_small_squares = rr_interval_s / SMALL_SQUARE_S
    return 1500.0 / n_small_squares


def extract_heart_rate(record: EcgRecord, config: PeakConfig = PeakConfig()) -> HeartRate:
    """Mean 1500-rule rate over all consecutive RR intervals of a record."""
    peaks = detect_r_peaks(record, config)
    if peaks.peak_indices.size < 2:
        raise InsufficientPeaksError("need >= 2 peaks for a rate estimate")
    rr = peaks.rr_intervals_s()
    return HeartRate(bpm=float(np.mean(heart_rate_1500(rr))), n_intervals=rr.size)
