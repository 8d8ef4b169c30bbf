"""The pipeline config schema: every section of `PipelineConfig`.

One record type per JSON section, each checking its own values, so a
config file is validated where it is decoded. Nothing here does signal
work: the report side loads its config without the signal front end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .signal_io import decode_json

# Largest `fft_size` a config may set: a frame block of 2**16 columns is
# 512 KiB a frame, and the default size at 16 kHz is 512.
MAX_FFT_SIZE = 2 ** 16


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
        if not 0 < self.hop_length_s <= self.frame_length_s < math.inf:
            raise ValueError("require 0 < hop <= frame length, both finite, got "
                             f"{self.hop_length_s}, {self.frame_length_s}")
        if self.n_cepstra < 1:
            raise ValueError(f"n_cepstra must be >= 1, got {self.n_cepstra}")
        if self.n_cepstra > self.n_mel_filters:
            raise ValueError("n_cepstra must not exceed n_mel_filters")
        if self.fft_size is not None and not 1 <= self.fft_size <= MAX_FFT_SIZE:
            raise ValueError(f"fft_size must be null or in [1, {MAX_FFT_SIZE}], "
                             f"got {self.fft_size}")
        if not 0 <= self.pre_emphasis <= 1:
            raise ValueError(f"pre_emphasis must be a number in [0, 1], got {self.pre_emphasis}")
        if not 0 < self.log_floor <= 1:
            raise ValueError(f"log_floor must be a number in (0, 1], got {self.log_floor}")

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


@dataclass(frozen=True)
class PeakConfig:
    band_low_hz: float = 5.0
    band_high_hz: float = 15.0
    integration_window_s: float = 0.150
    refractory_s: float = 0.2
    threshold_fraction: float = 0.5
    median_window_s: float = 2.0
    min_signal_s: float = 2.0

    def __post_init__(self):
        if not (0 < self.band_low_hz < self.band_high_hz < math.inf):
            raise ValueError("require 0 < band_low_hz < band_high_hz, both finite, got "
                             f"{self.band_low_hz}, {self.band_high_hz}")
        for name in ("integration_window_s", "median_window_s", "min_signal_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {getattr(self, name)}")
        for name in ("refractory_s", "threshold_fraction"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.66
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 6
    min_leaf: int = 5

    def __post_init__(self):
        if self.max_depth < 0 or self.min_leaf < 1:
            raise ValueError("require max_depth >= 0 and min_leaf >= 1, got "
                             f"{self.max_depth}, {self.min_leaf}")


@dataclass(frozen=True)
class FilterWindow:
    hr_min_bpm: float = 30.0
    hr_max_bpm: float = 220.0

    def __post_init__(self):
        if not 0 <= self.hr_min_bpm <= self.hr_max_bpm < math.inf:
            raise ValueError("require 0 <= hr_min_bpm <= hr_max_bpm, both finite, got "
                             f"{self.hr_min_bpm}, {self.hr_max_bpm}")


@dataclass(frozen=True)
class HoldoutSpec:
    test_fraction: float = 0.2
    seed: int = 0
    in_sample: bool = False

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PipelineConfig:
    feature: FeatureConfig = field(default_factory=FeatureConfig)
    peak: PeakConfig = field(default_factory=PeakConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    tree: TreeConfig = field(default_factory=TreeConfig)
    filter_window: FilterWindow = field(default_factory=FilterWindow)
    holdout: HoldoutSpec = field(default_factory=HoldoutSpec)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, d, source="config") -> "PipelineConfig":
        """The config of a parsed JSON object, decoded as `decode_json` does.

        `split.seed` and `holdout.seed` default to the top-level `seed`.
        """
        config = decode_json(d, cls, source)
        return replace(config, **{name: replace(getattr(config, name), seed=config.seed)
                                  for name in ("split", "holdout")
                                  if "seed" not in d.get(name, {})})
