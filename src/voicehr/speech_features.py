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
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct, rfft

from .errors import ClipTooShortError, DimensionMismatchError, EmptyEnrollmentError
from .signal_io import AudioClip


@dataclass(frozen=True)
class FeatureConfig:
    frame_length_s: float = 0.025
    hop_length_s: float = 0.010
    pre_emphasis: float = 0.97
    n_mel_filters: int = 26
    n_cepstra: int = 13
    fft_size: int | None = None  # default: smallest power of two >= frame samples
    log_floor: float = 1e-10

    def __post_init__(self):
        if not 0 < self.hop_length_s <= self.frame_length_s:
            raise ValueError("require 0 < hop <= frame length")
        if self.n_cepstra > self.n_mel_filters:
            raise ValueError("n_cepstra must not exceed n_mel_filters")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    def frame_samples(self, rate_hz: float) -> int:
        return int(round(self.frame_length_s * rate_hz))

    def hop_samples(self, rate_hz: float) -> int:
        return max(1, int(round(self.hop_length_s * rate_hz)))

    def resolve_fft_size(self, rate_hz: float) -> int:
        if self.fft_size is not None:
            return self.fft_size
        n = 1
        while n < self.frame_samples(rate_hz):
            n *= 2
        return n


@dataclass(frozen=True, eq=False)
class CepstraMatrix:
    """T x n_cepstra matrix of per-frame cepstral coefficients."""

    frames: np.ndarray
    config: FeatureConfig

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True, eq=False)
class UtteranceEmbedding:
    mean_cepstra: np.ndarray


@dataclass(frozen=True)
class FeatureDistance:
    value: float
    reference_id: str = ""


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


def frame_count(n_samples: int, frame: int, hop: int) -> int:
    if n_samples < frame:
        return 0
    return 1 + (n_samples - frame) // hop


def pre_emphasize(samples: np.ndarray, alpha: float) -> np.ndarray:
    out = np.copy(samples)
    out[1:] -= alpha * samples[:-1]
    return out


def frame_signal(samples: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """Read-only (frame_count, frame) view of `samples`, one row per frame."""
    if samples.size < frame:
        return np.empty((0, frame), dtype=samples.dtype)
    return sliding_window_view(samples, frame)[::hop]


def filterbank_energies(frames: np.ndarray, fb: np.ndarray, fft_size: int) -> np.ndarray:
    """Mel filter energies of Hamming-windowed frames (rows)."""
    windowed = frames * _hamming_window(frames.shape[1])
    power = np.abs(rfft(windowed, n=fft_size, axis=1)) ** 2
    return power @ fb.T


def mfcc(clip: AudioClip, config: FeatureConfig = FeatureConfig()) -> CepstraMatrix:
    """Compute the cepstral matrix of an utterance."""
    rate = clip.sample_rate_hz
    frame = config.frame_samples(rate)
    hop = config.hop_samples(rate)
    if clip.samples.size < frame:
        raise ClipTooShortError(
            f"clip of {clip.samples.size} samples shorter than one {frame}-sample frame")
    fft_size = config.resolve_fft_size(rate)
    emphasized = pre_emphasize(clip.samples, config.pre_emphasis)
    frames = frame_signal(emphasized, frame, hop)
    fb = mel_filterbank(config.n_mel_filters, fft_size, rate)
    energies = filterbank_energies(frames, fb, fft_size)
    log_energies = np.log(np.maximum(energies, config.log_floor))
    cepstra = dct(log_energies, type=2, norm="ortho", axis=1)[:, : config.n_cepstra]
    return CepstraMatrix(frames=cepstra, config=config)


def utterance_embedding(cepstra: CepstraMatrix) -> UtteranceEmbedding:
    """Frame-mean cepstral vector of one utterance."""
    return UtteranceEmbedding(mean_cepstra=cepstra.frames.mean(axis=0))


def feature_distance(embedding: UtteranceEmbedding, reference: UtteranceEmbedding,
                     reference_id: str = "") -> FeatureDistance:
    """Euclidean distance between an embedding and a reference embedding."""
    a = embedding.mean_cepstra
    b = reference.mean_cepstra
    if a.shape != b.shape:
        raise DimensionMismatchError(f"embedding dims {a.shape} vs {b.shape}")
    return FeatureDistance(value=float(np.linalg.norm(a - b)), reference_id=reference_id)


def subject_reference(embeddings: list[UtteranceEmbedding]) -> UtteranceEmbedding:
    """Mean embedding over a subject's enrollment takes.

    Callers pass the neutral-emotion embeddings when any exist, otherwise
    all available embeddings for the subject.
    """
    if not embeddings:
        raise EmptyEnrollmentError("no embeddings to enroll")
    lengths = {e.mean_cepstra.size for e in embeddings}
    if len(lengths) != 1:
        raise DimensionMismatchError("enrollment embeddings differ in length")
    stacked = np.stack([e.mean_cepstra for e in embeddings])
    return UtteranceEmbedding(mean_cepstra=stacked.mean(axis=0))
