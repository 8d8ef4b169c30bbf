"""Independent brute-force oracles shared by the test modules."""

import math

import numpy as np


def dft_filter_energies(frames, fb, fft_size):
    """Mel filter energies via an explicit O(N^2) DFT summation (no FFT)."""
    windowed = frames * np.hamming(frames.shape[1])
    k = np.arange(fft_size // 2 + 1)[:, None]
    n = np.arange(frames.shape[1])[None, :]
    angles = -2.0 * np.pi * k * n / fft_size
    real = windowed @ np.cos(angles).T
    imag = windowed @ np.sin(angles).T
    return (real ** 2 + imag ** 2) @ fb.T


def ols_closed_form(x, y):
    """Closed-form least-squares coefficients with compensated summation."""
    n = len(x)
    x_bar = math.fsum(x) / n
    y_bar = math.fsum(y) / n
    s_xx = math.fsum((xi - x_bar) ** 2 for xi in x)
    s_xy = math.fsum((xi - x_bar) * (yi - y_bar) for xi, yi in zip(x, y))
    beta1 = s_xy / s_xx
    beta0 = y_bar - beta1 * x_bar
    return beta0, beta1


def split_scan_loop(values, targets, min_leaf):
    """Best variance-reduction split of one ascending feature, one scalar step at a time.

    Returns (threshold, gain) with the first maximum winning ties, or
    (0.0, -1.0) when no split leaves `min_leaf` samples on both sides.
    """
    n = values.shape[0]
    best_gain = -1.0
    best_thr = 0.0
    if n < 2 * min_leaf:
        return best_thr, best_gain
    total = 0.0
    total_sq = 0.0
    for i in range(n):
        total += targets[i]
        total_sq += targets[i] * targets[i]
    parent_sse = total_sq - total * total / n
    left_sum = 0.0
    for i in range(n - 1):
        left_sum += targets[i]
        n_left = i + 1
        if n_left < min_leaf:
            continue
        if n - n_left < min_leaf:
            break
        if values[i + 1] <= values[i]:
            continue
        right_sum = total - left_sum
        children_sse = (total_sq
                        - left_sum * left_sum / n_left
                        - right_sum * right_sum / (n - n_left))
        gain = parent_sse - children_sse
        if gain > best_gain:
            best_gain = gain
            best_thr = 0.5 * (values[i] + values[i + 1])
    return best_thr, best_gain


def write_ecg_loop(record, path):
    """`# rate_hz=` ECG text, written one formatted sample at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# rate_hz={record.sample_rate_hz:g}\n")
        for v in record.samples:
            fh.write(f"{v:.6f}\n")


def load_ecg_rate_loop(path):
    """(rate, samples) of a `# rate_hz=` ECG file, parsed line by line.

    Blank lines are skipped; a line that is not one float raises
    ValueError naming `path:lineno`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rate = float(fh.readline().strip().split("=", 1)[1])
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {line!r}") from None
    return rate, np.asarray(values)


def synth_utterance_formula(voice, g, rate_hz, duration_s, n_harmonics=10, peak=0.5):
    """Harmonic utterance samples, every sine evaluated afresh."""
    n = int(round(rate_hz * duration_s))
    t = np.arange(n) / rate_hz
    k = np.arange(1, n_harmonics + 1)
    amps = np.exp(g * voice.tilt) / k
    signal = np.sum(
        amps[:, None] * np.sin(2.0 * np.pi * voice.f0_hz * k[:, None] * t[None, :]
                               + voice.phases[:, None]),
        axis=0)
    signal *= peak / np.max(np.abs(signal))
    return signal
