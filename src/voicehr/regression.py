"""Simple linear regression and the descriptive statistics around it.

Covers least-squares fitting of heart rate on feature distance, sample
mean/variance/standard deviation, relative-error scoring, and
the 68-95-99.7 normal-coverage check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CorruptJsonError,
    CorruptModelError,
    DegenerateXError,
    NonPositiveMeasuredError,
    TooFewPointsError,
)
from .signal_io import EmotionLabel, read_json, write_json


@dataclass(frozen=True)
class Observation:
    """One (subject, emotion, feature-distance, heart-rate) row."""

    subject_id: str
    emotion: EmotionLabel
    feature_distance: float
    heart_rate_bpm: float
    take_index: int = 0


@dataclass(frozen=True)
class LinearModel:
    """Fitted line: predicted bpm = beta0_hat + beta1_hat * distance.

    In a model file the coefficients are keyed "beta0" and "beta1"; a
    file from before the store kept `s_xx` and `s_xy` reads them as 0.0.
    """

    beta0_hat: float = field(metadata={"json_key": "beta0"})
    beta1_hat: float = field(metadata={"json_key": "beta1"})
    n: int
    s_xx: float = field(metadata={"json_default": 0.0})
    s_xy: float = field(metadata={"json_default": 0.0})
    residual_std: float
    subject_id: str = ""
    emotion: str = ""  # emotion value or "combined"


def save_model(model: LinearModel, path: str | Path) -> None:
    write_json(path, model)


def load_model(path: str | Path) -> LinearModel:
    try:
        return read_json(path, LinearModel)
    except CorruptJsonError as exc:
        raise CorruptModelError(str(exc)) from None


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    variance: float | None = None
    std_dev: float | None = None
    is_population: bool = False


def fit_ols(points, subject_id: str = "", emotion: str = "") -> LinearModel:
    """Least-squares line through (x, y) pairs.

    Uses two-pass centered sums so S_xx/S_xy do not suffer catastrophic
    cancellation on narrow x ranges.
    """
    pts = list(points)
    n = len(pts)
    if n < 2:
        raise TooFewPointsError(f"need >= 2 points, got {n}")
    x = np.asarray([p[0] for p in pts], dtype=np.float64)
    y = np.asarray([p[1] for p in pts], dtype=np.float64)
    x_bar = float(x.mean())
    y_bar = float(y.mean())
    dx = x - x_bar
    dy = y - y_bar
    s_xx = float(np.dot(dx, dx))
    s_xy = float(np.dot(dx, dy))
    if s_xx <= 0.0:
        raise DegenerateXError("all x values equal; slope undefined")
    beta1 = s_xy / s_xx
    beta0 = y_bar - beta1 * x_bar
    residuals = y - (beta0 + beta1 * x)
    residual_std = float(np.std(residuals, ddof=1))
    return LinearModel(
        beta0_hat=beta0,
        beta1_hat=beta1,
        n=n,
        s_xx=s_xx,
        s_xy=s_xy,
        residual_std=residual_std,
        subject_id=subject_id,
        emotion=emotion,
    )


def predict(model: LinearModel, x: float) -> float:
    """Predicted heart rate at a feature distance."""
    return model.beta0_hat + model.beta1_hat * x


def summary_stats(values, population: bool = False) -> SummaryStats:
    """Mean, variance and standard deviation of a list of measurements.

    Sample statistics use the n-1 denominator; pass ``population=True``
    when the values are a declared full population.
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size < 1:
        raise TooFewPointsError("need >= 1 value for a mean")
    mean = float(vals.mean())
    ddof = 0 if population else 1
    if vals.size < 2 and not population:
        raise TooFewPointsError("need >= 2 values for a sample variance")
    dev = vals - mean
    variance = float(np.dot(dev, dev) / (vals.size - ddof))
    return SummaryStats(mean=mean, variance=variance,
                        std_dev=math.sqrt(variance), is_population=population)


def relative_error(hr_estimated: float, hr_measured: float) -> float:
    """Relative prediction error in percent against the measured rate."""
    if hr_measured <= 0:
        raise NonPositiveMeasuredError(f"hr_measured={hr_measured}")
    return abs(hr_estimated - hr_measured) / hr_measured * 100.0


def normal_coverage(values) -> tuple[float, float, float]:
    """Fractions of values inside mean +/- 1, 2 and 3 standard deviations.

    A degenerate zero-width spread counts every value as covered.
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size < 30:
        raise TooFewPointsError(f"need >= 30 values, got {vals.size}")
    stats = summary_stats(vals)
    if stats.std_dev == 0.0:
        return (1.0, 1.0, 1.0)
    dev = np.abs(vals - stats.mean)
    return tuple(float(np.mean(dev <= k * stats.std_dev)) for k in (1, 2, 3))
