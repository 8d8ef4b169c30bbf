"""Synthetic corpus generator with planted ground truth.

Each (subject, emotion, take) gets a harmonic "utterance" whose spectral
tilt is steered, closed-loop, until its measured feature distance lands
on a drawn target, a heart rate planted on the cell's linear law, and an
ECG built from a QRS-like template at that rate. The planted values are
written to a ledger CSV that downstream tests use as the oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from ._parallel import map_jobs
from .errors import ConvergenceFailureError, SpecInvalidError
from .signal_io import (
    EMOTION_ORDER,
    AudioClip,
    EcgRecord,
    EmotionLabel,
    ManifestEntry,
    read_table,
    write_audio,
    write_ecg,
    write_manifest,
    write_table,
)
from .speech_features import (
    FeatureConfig,
    feature_distance,
    mfcc,
    utterance_embedding,
)

N_HARMONICS = 10
PEAK_AMPLITUDE = 0.5

# Per-emotion defaults: feature-distance range, intercept range (bpm),
# slope range (bpm per distance unit). Emotion-dependent lines make the
# combined-emotions fit systematically worse than the per-emotion fits.
EMOTION_PROFILES = {
    EmotionLabel.JOY: {"fd": (8.0, 25.0), "beta0": (85.0, 95.0), "beta1": (0.30, 0.50)},
    EmotionLabel.NEUTRAL: {"fd": (2.0, 6.0), "beta0": (70.0, 80.0), "beta1": (0.20, 0.40)},
    EmotionLabel.ANGER: {"fd": (8.0, 25.0), "beta0": (92.0, 102.0), "beta1": (0.40, 0.60)},
}

# Homogeneous alternative: one line per subject shared by all emotions.
HOMOGENEOUS_BETA0 = (75.0, 95.0)
HOMOGENEOUS_BETA1 = (0.25, 0.45)


@dataclass(frozen=True)
class SynthSpec:
    n_subjects: int = 15
    takes_per_emotion: int = 90
    seed: int = 0
    noise_std_bpm: float = 3.0
    homogeneous: bool = False  # same planted line for all emotions of a subject
    audio_rate_hz: float = 16000.0
    utterance_s: float = 0.4
    ecg_rate_hz: float = 250.0
    ecg_duration_s: float = 8.0
    fd_tolerance: float = 0.05
    max_fd_iterations: int = 10
    feature: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self):
        if self.n_subjects < 1 or self.takes_per_emotion < 1:
            raise SpecInvalidError("need at least one subject and one take")
        if self.noise_std_bpm < 0:
            raise SpecInvalidError("noise_std_bpm must be non-negative")
        if not 0 < self.fd_tolerance < 1:
            raise SpecInvalidError("fd_tolerance must be in (0, 1)")


@dataclass(frozen=True)
class PlantedTake:
    subject_id: str
    emotion: EmotionLabel
    take_index: int
    beta0: float
    beta1: float
    feature_distance: float
    heart_rate_bpm: float


# Harmonic bases one voice keeps: one per (rate, length) it renders at.
BASIS_CACHE_SIZE = 4


@dataclass(frozen=True, eq=False)
class SubjectVoice:
    """Fixed harmonic profile of one synthetic speaker.

    `phases` and `tilt` are stored as read-only copies, so the harmonic
    basis cached from them stays valid for the life of the voice.
    """

    f0_hz: float
    phases: np.ndarray  # one phase per harmonic
    # Spectral-tilt weights; the steering parameter g scales these
    # log-amplitude offsets, moving the utterance through cepstral space.
    tilt: np.ndarray
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("phases", "tilt"):
            values = np.array(getattr(self, name), dtype=np.float64)
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def _harmonic_basis(self, rate_hz: float, n: int) -> np.ndarray:
        """Read-only (N_HARMONICS, n) matrix of sin(2π f0 k t + φ_k)."""
        key = (rate_hz, n)
        basis = self._bases.get(key)
        if basis is None:
            t = np.arange(n) / rate_hz
            k = np.arange(1, N_HARMONICS + 1)
            basis = np.sin(2.0 * np.pi * self.f0_hz * k[:, None] * t[None, :]
                           + self.phases[:, None])
            basis.setflags(write=False)
            if len(self._bases) >= BASIS_CACHE_SIZE:
                del self._bases[next(iter(self._bases))]
            self._bases[key] = basis
        return basis


def make_voice(rng: np.random.Generator) -> SubjectVoice:
    f0 = float(rng.uniform(110.0, 200.0))
    phases = rng.uniform(0.0, 2.0 * np.pi, N_HARMONICS)
    k = np.arange(1, N_HARMONICS + 1)
    tilt = (k - (N_HARMONICS + 1) / 2.0) / (N_HARMONICS / 2.0)
    return SubjectVoice(f0_hz=f0, phases=phases, tilt=tilt)


def synth_utterance(voice: SubjectVoice, g: float, rate_hz: float,
                    duration_s: float) -> AudioClip:
    """Harmonic utterance with spectral tilt g, normalized to fixed peak."""
    n = int(round(rate_hz * duration_s))
    k = np.arange(1, N_HARMONICS + 1)
    amps = np.exp(g * voice.tilt) / k
    signal = np.sum(amps[:, None] * voice._harmonic_basis(rate_hz, n), axis=0)
    signal *= PEAK_AMPLITUDE / np.max(np.abs(signal))
    return AudioClip(samples=signal, sample_rate_hz=rate_hz)


class FdTargeter:
    """Closed-loop solver: find g whose measured distance hits a target.

    Calibrated once per (voice, sign) on a |g| grid, then refined with
    secant steps against the actual feature extractor.
    """

    def __init__(self, voice: SubjectVoice, reference, spec: SynthSpec):
        self.voice = voice
        self.reference = reference
        self.spec = spec
        self._grids = {}

    def _measure(self, g: float) -> tuple[float, AudioClip]:
        clip = synth_utterance(self.voice, g, self.spec.audio_rate_hz, self.spec.utterance_s)
        emb = utterance_embedding(mfcc(clip, self.spec.feature))
        return feature_distance(emb, self.reference).value, clip

    def _grid(self, sign: float):
        if sign not in self._grids:
            magnitudes = np.array([0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 9.0, 13.0])
            fds = np.array([self._measure(sign * m)[0] for m in magnitudes])
            self._grids[sign] = (magnitudes, fds)
        return self._grids[sign]

    def solve(self, target_fd: float, sign: float) -> tuple[float, AudioClip]:
        """Return (measured_fd, clip) with measured within tolerance of target."""
        mags, fds = self._grid(sign)
        tol = self.spec.fd_tolerance * target_fd
        # Bracket from the calibration grid; the distance vanishes at g=0.
        below = np.flatnonzero(fds < target_fd)
        above = np.flatnonzero(fds >= target_fd)
        m_lo, f_lo = (mags[below[-1]], fds[below[-1]]) if below.size else (0.0, 0.0)
        if above.size:
            m_hi, f_hi = mags[above[0]], fds[above[0]]
        else:
            m_hi, f_hi = 2.0 * mags[-1], self._measure(sign * 2.0 * mags[-1])[0]
        closest = min(f_lo, f_hi, key=lambda x: abs(x - target_fd))
        for _ in range(self.spec.max_fd_iterations):
            if f_hi > f_lo:
                m = m_lo + (target_fd - f_lo) * (m_hi - m_lo) / (f_hi - f_lo)
                m = min(max(m, m_lo + 0.05 * (m_hi - m_lo)), m_hi - 0.05 * (m_hi - m_lo))
            else:
                m = 0.5 * (m_lo + m_hi)
            f, clip = self._measure(sign * m)
            if abs(f - target_fd) <= tol:
                return f, clip
            closest = min(closest, f, key=lambda x: abs(x - target_fd))
            if f < target_fd:
                m_lo, f_lo = m, f
            else:
                m_hi, f_hi = m, f
        raise ConvergenceFailureError(
            f"feature-distance target {target_fd:.3f} not bracketed within "
            f"{self.spec.max_fd_iterations} iterations; closest measured fd {closest:.3f}")


def qrs_template_value(t: np.ndarray) -> np.ndarray:
    """One heartbeat in mV around the R-peak at t = 0."""
    def gauss(center, width, amp):
        return amp * np.exp(-0.5 * ((t - center) / width) ** 2)

    return (gauss(0.0, 0.012, 1.0)        # R
            + gauss(-0.025, 0.008, -0.12)  # Q
            + gauss(0.028, 0.009, -0.20)   # S
            + gauss(-0.180, 0.025, 0.12)   # P
            + gauss(0.180, 0.040, 0.25))   # T


def synth_ecg(bpm, rate_hz: float, duration_s: float,
              phase_s: float = 0.0, noise_std_mv: float = 0.0,
              rng: np.random.Generator | None = None) -> tuple[EcgRecord, np.ndarray]:
    """ECG as a QRS-template train; bpm may be a constant or callable of time.

    Returns the record and the planted beat times in seconds.
    """
    n = int(round(rate_hz * duration_s))
    beats = []
    tb = phase_s
    bpm_fn = bpm if callable(bpm) else (lambda _t: bpm)
    while tb < duration_s:
        beats.append(tb)
        tb += 60.0 / bpm_fn(tb)
    beats = np.asarray(beats)
    # Beat k covers samples [lo[k], hi[k]) clipped to the record (a beat
    # that ends before it adds nothing). Every beat is evaluated at once
    # over the widest span, at the sample times np.arange(n) / rate_hz
    # gives, and the rows are added in beat order.
    lo = ((beats - 0.35) * rate_hz).astype(np.int64)
    hi = ((beats + 0.45) * rate_hz).astype(np.int64) + 1
    at = lo[:, None] + np.arange(np.max(hi - lo, initial=0))
    template = qrs_template_value(at / rate_hz - beats[:, None])
    signal = np.zeros(n)
    for row, first, a, b in zip(template, lo.tolist(), np.maximum(lo, 0).tolist(),
                                np.clip(hi, 0, n).tolist()):
        signal[a:b] += row[a - first:b - first]
    if noise_std_mv > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        signal = signal + rng.normal(0.0, noise_std_mv, n)
    return EcgRecord(samples=signal, sample_rate_hz=rate_hz), beats


def _draw_planted_lines(rng: np.random.Generator, spec: SynthSpec):
    lines = {}
    if spec.homogeneous:
        beta0 = float(rng.uniform(*HOMOGENEOUS_BETA0))
        beta1 = float(rng.uniform(*HOMOGENEOUS_BETA1))
        for emotion in EMOTION_ORDER:
            lines[emotion] = (beta0, beta1)
    else:
        for emotion in EMOTION_ORDER:
            profile = EMOTION_PROFILES[emotion]
            lines[emotion] = (float(rng.uniform(*profile["beta0"])),
                              float(rng.uniform(*profile["beta1"])))
    return lines


@dataclass(frozen=True)
class _SubjectPlan:
    """Every random draw one subject's takes need, made before any rendering.

    A take is `(emotion, take_index, target_fd, sign, noise_bpm, u)`, where
    `u` is the raw uniform draw that places the first heartbeat.
    """

    subject_id: str
    voice: SubjectVoice
    lines: dict
    takes: list


def _plan_corpus(rng: np.random.Generator, spec: SynthSpec) -> list[_SubjectPlan]:
    """Draw the whole corpus in the generator's fixed order.

    No draw depends on a targeting result: the noise has fixed
    parameters and `rng.uniform(0, 60 / hr)` is `0.0 + (60 / hr) * u`
    for one raw uniform `u`, so the render can compute the phase later.
    """
    plans = []
    for s in range(spec.n_subjects):
        voice = make_voice(rng)
        lines = _draw_planted_lines(rng, spec)
        takes = []
        for emotion in EMOTION_ORDER:
            lo, hi = EMOTION_PROFILES[emotion]["fd"]
            prev_target = None
            for take in range(spec.takes_per_emotion):
                if emotion == EmotionLabel.NEUTRAL:
                    # Antithetic pairs: consecutive takes share a target
                    # magnitude with opposite tilt signs, keeping the
                    # neutral enrollment mean centered on the reference.
                    if take % 2 == 0:
                        target_fd = float(rng.uniform(lo, hi))
                        prev_target = target_fd
                        sign = 1.0
                    else:
                        target_fd = prev_target
                        sign = -1.0
                else:
                    target_fd = float(rng.uniform(lo, hi))
                    sign = 1.0 if emotion == EmotionLabel.JOY else -1.0
                noise = float(rng.normal(0.0, spec.noise_std_bpm)) if spec.noise_std_bpm else 0.0
                takes.append((emotion, take, target_fd, sign, noise, float(rng.random())))
        plans.append(_SubjectPlan(f"s{s + 1:02d}", voice, lines, takes))
    return plans


def _render_subject(plan: _SubjectPlan, spec: SynthSpec, outdir: Path):
    """Solve, synthesise and write one subject's takes; (entries, ledger rows)."""
    # a fresh copy, so the basis it caches is freed with this render and
    # does not live as long as the plan
    voice = replace(plan.voice)
    reference_clip = synth_utterance(voice, 0.0, spec.audio_rate_hz, spec.utterance_s)
    reference = utterance_embedding(mfcc(reference_clip, spec.feature))
    targeter = FdTargeter(voice, reference, spec)
    entries, ledger = [], []
    for emotion, take, target_fd, sign, noise, u in plan.takes:
        beta0, beta1 = plan.lines[emotion]
        stem = f"{plan.subject_id}_{emotion.value}_{take:03d}"
        try:
            fd, clip = targeter.solve(target_fd, sign)
        except ConvergenceFailureError as exc:
            raise ConvergenceFailureError(f"take {stem}: {exc}") from exc
        hr = beta0 + beta1 * fd + noise
        hr = float(np.clip(hr, 35.0, 215.0))  # keep inside the filter window
        phase = 0.0 + (60.0 / hr) * u
        ecg, _ = synth_ecg(hr, spec.ecg_rate_hz, spec.ecg_duration_s, phase_s=phase)
        audio_rel = f"audio/{stem}.wav"
        ecg_rel = f"ecg/{stem}.csv"
        write_audio(clip, outdir / audio_rel)
        write_ecg(ecg, outdir / ecg_rel)
        entries.append(ManifestEntry(plan.subject_id, emotion, take, audio_rel, ecg_rel))
        ledger.append(PlantedTake(plan.subject_id, emotion, take, beta0, beta1, fd, hr))
    return entries, ledger


def generate_synthetic_corpus(spec: SynthSpec, outdir) -> tuple[Path, list[PlantedTake]]:
    """Write a corpus (audio/, ecg/, manifest.csv, ledger.csv) to outdir.

    Returns the manifest path and the planted-ground-truth ledger.
    Fully deterministic for a fixed spec. All draws are made first; the
    subjects are then rendered independently, in a second process too
    when the corpus is large (see `_parallel.map_jobs`).
    """
    outdir = Path(outdir)
    (outdir / "audio").mkdir(parents=True, exist_ok=True)
    (outdir / "ecg").mkdir(parents=True, exist_ok=True)
    plans = _plan_corpus(np.random.default_rng(spec.seed), spec)
    rendered = map_jobs(functools.partial(_render_subject, spec=spec, outdir=outdir),
                        plans, n_takes=sum(len(plan.takes) for plan in plans))
    entries = [entry for subject_entries, _ in rendered for entry in subject_entries]
    ledger = [row for _, subject_ledger in rendered for row in subject_ledger]
    manifest_path = outdir / "manifest.csv"
    write_manifest(entries, manifest_path)
    write_ledger(ledger, outdir / "ledger.csv")
    return manifest_path, ledger


LEDGER_HEADER = ["subject_id", "emotion", "take_index", "beta0", "beta1",
                 "feature_distance", "heart_rate_bpm"]


def write_ledger(ledger, path) -> None:
    write_table(path, LEDGER_HEADER, map(attrgetter(*LEDGER_HEADER), ledger))


def load_ledger(path) -> list[PlantedTake]:
    return read_table(path, PlantedTake, LEDGER_HEADER)
