"""Mel cepstral front-end and the scalar feature distance.

Pipeline per utterance: pre-emphasis, Hamming-windowed frames,
magnitude-squared DFT, triangular mel filterbank, floored natural log,
type-II DCT. An utterance embedding is the frame-mean cepstral vector;
the feature distance is its Euclidean distance to a per-subject
reference embedding built from neutral takes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import FeatureConfig
from .errors import (
    ClipTooShortError,
    DimensionMismatchError,
    EmptyEnrollmentError,
    InvalidSignalError,
)
from .signal_io import AudioClip

# An utterance's frames times the FFT size, the size of the block each
# `mfcc` transforms: 32 MiB of float64. The default feature config at
# 16 kHz reaches it at 8192 frames, 81.9 s of audio.
MAX_FRAME_BLOCK = 2 ** 22


@dataclass(frozen=True, eq=False)
class CepstraMatrix:
    """T x n_cepstra matrix of per-frame cepstral coefficients."""

    frames: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(n_filters: int, fft_size: int, rate_hz: float) -> np.ndarray:
    """Triangular filters over [0, rate/2], evaluated at FFT bin centers.

    Returns an (n_filters, fft_size//2 + 1) weight matrix. It is built
    once per argument triple and shared, so it is read-only.
    """
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(rate_hz / 2.0), n_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(fft_size // 2 + 1) * rate_hz / fft_size
    fb = np.zeros((n_filters, bin_freqs.size))
    for m in range(n_filters):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    fb.setflags(write=False)
    return fb


@functools.lru_cache(maxsize=8)
def _hamming_window(n: int) -> np.ndarray:
    """`np.hamming(n)`, built once per length and shared, so read-only."""
    window = np.hamming(n)
    window.setflags(write=False)
    return window


@functools.lru_cache(maxsize=8)
def dct_matrix(n_inputs: int, n_outputs: int) -> np.ndarray:
    """(n_inputs, n_outputs) orthonormal type-II DCT: `rows @ dct_matrix` transforms each row.

    Column k is sqrt(2 / N) cos(pi k (2n + 1) / 2N) over n, with N =
    `n_inputs`; column 0 is 1 / sqrt(N). The first `n_outputs` columns
    of scipy's `dct(type=2, norm="ortho")`. It is built once per size
    and shared, so it is read-only.
    """
    n = np.arange(n_inputs)[:, None]
    k = np.arange(n_outputs)[None, :]
    matrix = np.sqrt(2.0 / n_inputs) * np.cos(np.pi * k * (2 * n + 1) / (2 * n_inputs))
    matrix[:, 0] = 1.0 / np.sqrt(n_inputs)
    matrix.setflags(write=False)
    return matrix


def frame_count(n_samples: int, frame: int, hop: int) -> int:
    if n_samples < frame:
        return 0
    return 1 + (n_samples - frame) // hop


def frame_block(n_samples: int, rate_hz: float, config: FeatureConfig) -> tuple[int, int]:
    """(frames, FFT size) of the block `mfcc` transforms for `n_samples` at `rate_hz`."""
    return (frame_count(n_samples, config.frame_samples(rate_hz), config.hop_samples(rate_hz)),
            config.resolve_fft_size(rate_hz))


def pre_emphasize(samples: np.ndarray, alpha: float) -> np.ndarray:
    out = np.copy(samples)
    out[1:] -= alpha * samples[:-1]
    return out


def frame_signal(samples: np.ndarray, frame: int, hop: int = 1) -> np.ndarray:
    """Read-only (frame_count, frame) view of 1-D `samples`, one row per frame.

    Row i starts at sample i * hop. A signal shorter than one frame has
    no rows. The speech framing and the detector's windows share it.
    """
    step = samples.strides[0]
    return as_strided(samples, (frame_count(samples.size, frame, hop), frame),
                      (hop * step, step), writeable=False)


def filterbank_energies(frames: np.ndarray, fb: np.ndarray, fft_size: int) -> np.ndarray:
    """Mel filter energies of Hamming-windowed frames (rows).

    The windowed frames are written into a zeroed (frames, fft_size)
    block, so `rfft` transforms it as it stands: the zero padding, or
    the first `fft_size` columns, that `rfft(..., n=fft_size)` would cut.
    """
    n_frames, frame = frames.shape
    width = min(frame, fft_size)
    block = np.zeros((n_frames, fft_size))
    np.multiply(frames[:, :width], _hamming_window(frame)[:width], out=block[:, :width])
    power = np.abs(np.fft.rfft(block, axis=1)) ** 2
    return power @ fb.T


def mfcc(clip: AudioClip, config: FeatureConfig = FeatureConfig()) -> CepstraMatrix:
    """Compute the cepstral matrix of an utterance."""
    rate = clip.sample_rate_hz
    frame = config.frame_samples(rate)
    hop = config.hop_samples(rate)
    if clip.samples.size < frame:
        raise ClipTooShortError(
            f"clip of {clip.samples.size} samples shorter than one {frame}-sample frame")
    frames, fft_size = frame_block(clip.samples.size, rate, config)
    if frames * fft_size > MAX_FRAME_BLOCK:
        raise InvalidSignalError(
            f"clip of {clip.samples.size} samples must make at most {MAX_FRAME_BLOCK} frames x "
            f"FFT size with this feature config, got {frames} x {fft_size}")
    emphasized = pre_emphasize(clip.samples, config.pre_emphasis)
    fb = mel_filterbank(config.n_mel_filters, fft_size, rate)
    energies = filterbank_energies(frame_signal(emphasized, frame, hop), fb, fft_size)
    log_energies = np.log(np.maximum(energies, config.log_floor))
    return CepstraMatrix(log_energies @ dct_matrix(config.n_mel_filters, config.n_cepstra))


def utterance_embedding(cepstra: CepstraMatrix) -> np.ndarray:
    """Frame-mean cepstral vector of one utterance, float64."""
    return cepstra.frames.mean(axis=0)


def feature_distance(embedding: np.ndarray, reference: np.ndarray) -> float:
    """Euclidean distance between an embedding and a reference embedding."""
    if embedding.shape != reference.shape:
        raise DimensionMismatchError(f"embedding dims {embedding.shape} vs {reference.shape}")
    return float(np.linalg.norm(embedding - reference))


def subject_reference(embeddings: list[np.ndarray]) -> np.ndarray:
    """Mean embedding over a subject's enrollment takes.

    Callers pass the neutral-emotion embeddings when any exist, otherwise
    all available embeddings for the subject.
    """
    if not embeddings:
        raise EmptyEnrollmentError("no embeddings to enroll")
    if len({e.size for e in embeddings}) != 1:
        raise DimensionMismatchError("enrollment embeddings differ in length")
    return np.stack(embeddings).mean(axis=0)
