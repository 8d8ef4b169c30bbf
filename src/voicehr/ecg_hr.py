"""R-peak detection and heart-rate extraction via the 1500 rule.

The detector is the classic envelope chain: band-pass, differentiate,
square, moving-window integrate, then an adaptive relative threshold
with a refractory floor. Detected envelope peaks are refined back onto
the band-passed signal so indices line up with the R waves themselves.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
# the band-pass recursion runs rows of _BLOCK samples, up to _CHUNK rows a product
_BLOCK = 64
_CHUNK = 32


@dataclass(frozen=True)
class HeartRate:
    bpm: float
    n_intervals: int


def butter_band(low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """(b, a) of the order-2 digital Butterworth band-pass from `low` to `high`.

    The edges are fractions of the Nyquist rate, 0 < low < high < 1. The
    steps are those of `scipy.signal.butter(2, [low, high], btype="band")`,
    and so are the bits: the analog prototype's poles, the low-pass to
    band-pass transform, the bilinear transform of frequencies prewarped
    to a 2 Hz sampling rate, then the polynomials of the zeros and poles.
    """
    if not 0 < low < high < 1:
        raise ValueError(f"band-pass edges must satisfy 0 < low < high < 1 of Nyquist, "
                         f"got {low}, {high}")
    warped = 4.0 * np.tan(np.pi * np.array([low, high]) / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    prototype = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4) * bw / 2
    shift = np.sqrt(prototype ** 2 - wo ** 2)
    poles = np.concatenate((prototype + shift, prototype - shift))
    zeros = np.zeros(2, dtype=complex)
    gain = bw ** 2 * np.real(np.prod(4.0 - zeros) / np.prod(4.0 - poles))
    b = gain * np.poly(np.concatenate(((4.0 + zeros) / (4.0 - zeros), -np.ones(2))))
    return b, np.poly((4.0 + poles) / (4.0 - poles))


def _steady_state(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The transposed direct form's state that a constant input keeps still,
    solved as scipy's `lfilter_zi` solves it."""
    companion = np.eye(a.size - 1, k=-1)
    companion[0] = -a[1:]
    return np.linalg.solve(np.eye(a.size - 1) - companion.T, b[1:] - a[1:] * b[0])


class _Blocks(NamedTuple):
    """The band-pass recursion as products over rows of `_BLOCK` samples.

    The state is the transposed direct form's (scipy's `lfilter`) in an
    input-normal basis, where the one-step transition has norm at most 1.
    So no product below sums large terms that cancel, at any rate and
    band: the transposed direct form's own block transition grows to
    1e3 at 500 Hz and 1e9 at 44.1 kHz, and products in that basis lose
    as many digits.
    """

    start: np.ndarray       # (order,) lfilter_zi in this basis
    impulse: np.ndarray     # (_BLOCK, _BLOCK) a row's zero-state output is `row @ impulse`
    to_state: np.ndarray    # (_BLOCK, order) a row's share of the state at its end
    from_state: np.ndarray  # (order, _BLOCK) the output of the state at a row's start
    carry: np.ndarray       # k rows' start states are `[start state, shares] @ carry[:4k+4, :4k+4]`


def _input_normal_basis(trans, gain):
    """Cholesky factor of the controllability Gramian, or None where there is none.

    The Gramian, the sum over n >= 0 of trans^n gain gain^T trans^nT, is
    summed by doubling its span 80 times. It exists only while every
    pole is inside the unit circle; a band edge far below the rate can
    round a pole onto it.
    """
    gramian, power = np.outer(gain, gain), trans
    try:
        for _ in range(80):
            gramian = gramian + power @ gramian @ power.T
            power = power @ power
    except decimal.Overflow:
        return None
    r = np.zeros_like(gramian)
    for j in range(r.shape[0]):
        pivot = gramian[j, j] - r[j, :j] @ r[j, :j]
        if not pivot > 0:
            return None
        r[j, j] = pivot.sqrt()
        r[j + 1:, j] = (gramian[j + 1:, j] - r[j + 1:, :j] @ r[j, :j]) / r[j, j]
    return r


def _lower_solve(r, m):
    """r^-1 @ m for a lower triangular r."""
    out = np.array(m)
    for i in range(r.shape[0]):
        out[i] = (out[i] - r[i, :i] @ out[:i]) / r[i, i]
    return out


@functools.lru_cache(maxsize=8)
def _blocks(rate: float, band_low_hz: float, band_high_hz: float) -> _Blocks:
    """The band-pass's `_Blocks`, once per rate and band, worked out to 80 digits.

    The high edge is clamped to 0.99 of Nyquist and the low one to half
    the high; a low edge whose fraction of Nyquist underflows to 0 is kept
    at the least positive double.
    """
    nyq = rate / 2.0
    high = min(band_high_hz, 0.99 * nyq)
    low = max(min(band_low_hz, 0.5 * high) / nyq, math.ulp(0.0))
    b, a = butter_band(low, high / nyq)
    zi = _steady_state(b, a)
    order = a.size - 1
    # `localcontext(prec=80)` would need Python 3.11
    with decimal.localcontext(decimal.Context(prec=80)):
        exact = np.vectorize(decimal.Decimal, otypes=[object])
        b, a, zi = exact(b), exact(a), exact(zi)
        one = exact(np.eye(order))
        trans = exact(np.eye(order, k=1))
        trans[:, 0] = -a[1:]
        gain = b[1:] - a[1:] * b[0]
        basis = _input_normal_basis(trans, gain)
        if basis is None:
            # keep the transposed direct form's basis, as scipy runs such a filter
            basis = one
        trans = _lower_solve(basis, trans @ basis)
        gain = _lower_solve(basis, gain)
        out = one[0] @ basis
        shares, outputs = [gain], [out]
        for _ in range(_BLOCK - 1):
            shares.append(trans @ shares[-1])
            outputs.append(outputs[-1] @ trans)
        step = one
        for _ in range(_BLOCK):
            step = trans @ step
        powers = [one]
        for _ in range(_CHUNK):
            powers.append(step @ powers[-1])
        response = np.array([b[0]] + [out @ share for share in shares[:-1]]).astype(float)
        start = _lower_solve(basis, zi).astype(float)
        to_state = np.array(shares[::-1]).astype(float)
        from_state = np.array(outputs).T.astype(float)
        powers = np.array(powers).astype(float)
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    impulse = np.where(lag <= 0, response[np.maximum(-lag, 0)], 0.0)
    lag = np.subtract.outer(np.arange(_CHUNK + 1), np.arange(_CHUNK + 1))
    carry = np.where((lag <= 0)[:, :, None, None],
                     powers[np.maximum(-lag, 0)].transpose(0, 1, 3, 2), 0.0)
    carry = carry.transpose(0, 2, 1, 3).reshape((_CHUNK + 1) * order, -1)
    for array in (start, impulse, to_state, from_state, carry):
        array.setflags(write=False)
    return _Blocks(start, impulse, to_state, from_state, carry)


def _lfilter(blocks: _Blocks, x: np.ndarray, x0: float) -> np.ndarray:
    """`signal.lfilter(b, a, x, zi=lfilter_zi(b, a) * x0)[0]` of the band-pass.

    `x` is cut into rows of `_BLOCK` samples, the last one zero-padded.
    Over up to `_CHUNK` rows at a time, three products give every row's
    zero-state output, its share of the state at its end, and, through
    `carry`, the state at each row's start; the output is the first
    plus the response to that state.
    """
    order = blocks.start.size
    out = np.empty(x.size)
    state = blocks.start * x0
    span = _CHUNK * _BLOCK
    for begin in range(0, x.size, span):
        part = x[begin:begin + span]
        n_rows = -(-part.size // _BLOCK)
        rows = np.zeros((n_rows, _BLOCK))
        rows.reshape(-1)[:part.size] = part
        shares = np.empty((n_rows + 1, order))
        shares[0] = state
        np.matmul(rows, blocks.to_state, out=shares[1:])
        width = shares.size
        states = (shares.reshape(-1) @ blocks.carry[:width, :width]).reshape(-1, order)
        y = rows @ blocks.impulse
        y += states[:-1] @ blocks.from_state
        out[begin:begin + part.size] = y.reshape(-1)[:part.size]
        state = states[-1]
    return out


def band_pass_filtfilt(samples: np.ndarray, rate: float, config: PeakConfig) -> np.ndarray:
    """`signal.filtfilt(b, a, samples)` of the band-pass, to within rounding.

    The same steps as filtfilt's default: an odd extension by three
    filter lengths at each end, a forward pass started from `lfilter_zi`
    times the first sample, a backward pass started from it times the
    last output, then the extension trimmed off. Each pass runs as block
    products (`_lfilter`).
    """
    blocks = _blocks(rate, config.band_low_hz, config.band_high_hz)
    edge = _PADLEN
    if samples.size <= edge:
        raise ValueError("The length of the input vector x must be greater than padlen, "
                         f"which is {edge}.")
    ext = np.concatenate((2 * samples[:1] - samples[edge:0:-1],
                          samples,
                          2 * samples[-1:] - samples[-2:-(edge + 2):-1]))
    y = _lfilter(blocks, ext, ext[0])
    y = _lfilter(blocks, y[::-1], y[-1])
    return y[::-1][edge:-edge]


def moving_mean(x: np.ndarray, width: int) -> np.ndarray:
    """`ndimage.uniform_filter1d(x, width, mode="nearest")` of 1-D float `x`, bit for bit.

    The mean over `width` samples from i - width // 2, with the end
    samples repeated past the ends, by scipy's recurrence: the first
    window summed left to right, then each step adds the sample that
    enters minus the one that leaves, and every sum is divided by the
    width.
    """
    n, half = x.size, width // 2
    padded = np.empty(n + width - 1)
    padded[:half] = x[0]
    padded[half:half + n] = x
    padded[half + n:] = x[-1]
    sums = np.empty(n)
    sums[0] = np.add.accumulate(padded[:width])[-1]
    np.subtract(padded[width:width + n - 1], padded[:n - 1], out=sums[1:])
    np.add.accumulate(sums, out=sums)
    sums /= width
    return sums


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
    return moving_mean(squared, win), band


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


def detect_r_peaks(record: EcgRecord, config: PeakConfig = PeakConfig()) -> np.ndarray:
    """R-peak sample indices, strictly increasing int64: the envelope maxima above an
    adaptive threshold, one per refractory gap, refined onto the band-passed signal."""
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
    refined = np.sort(refine_peaks(power, peaks_env, half))
    # np.unique's result, without the numpy.ma import np.unique makes
    refined = refined[np.concatenate(([True], refined[1:] != refined[:-1]))]
    kept2 = refractory_select(refined, power[refined], min_gap)
    return refined[kept2]


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
    if peaks.size < 2:
        raise InsufficientPeaksError("need >= 2 peaks for a rate estimate")
    rr = np.diff(peaks) / record.sample_rate_hz
    return HeartRate(bpm=float(np.mean(heart_rate_1500(rr))), n_intervals=rr.size)
