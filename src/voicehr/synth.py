"""Synthetic corpus generator with planted ground truth.

Each (subject, emotion, take) gets a harmonic "utterance" whose spectral
tilt is steered, closed-loop, until its measured feature distance lands
on a drawn target, a heart rate planted on the cell's linear law, and an
ECG built from a QRS-like template at that rate. The planted values are
written to a ledger CSV that downstream tests use as the oracle.

Every random draw is made first; each take is then rendered on its own,
from its draws and its subject's voice alone, so takes may be rendered
in any order and in either of two processes.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from ._parallel import TAKES_PER_JOB, Stages, map_jobs
from .config import FeatureConfig
from .errors import ConvergenceFailureError, SpecInvalidError
from .signal_io import (
    EMOTION_ORDER,
    MAX_WAV_RATE_HZ,
    AudioClip,
    EcgRecord,
    EmotionLabel,
    ManifestEntry,
    read_table,
    take_stem,
    wav_holds_rate,
    write_audio,
    write_ecg,
    write_manifest,
    write_table,
)
from .speech_features import (
    MAX_FRAME_BLOCK,
    feature_distance,
    frame_block,
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

# Planted heart rates are clipped to this range, inside the detector's filter window.
PLANTED_BPM_RANGE = (35.0, 215.0)
# A take holds at most this many audio or ECG samples (65.5 s at 16 kHz),
# and an ECG record at most this many beats at the fastest planted rate.
MAX_TAKE_SAMPLES = 2 ** 20
MAX_ECG_BEATS = 2 ** 16
# A synth slice holds its takes' clips and ECGs until it writes them, so
# it holds at most this many samples (8 MiB of float64), or one take: 32
# default takes of 8400 samples fit, and a take of MAX_TAKE_SAMPLES clip
# and ECG samples runs alone.
SLICE_SAMPLES = 2 ** 20


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
        if self.seed < 0:
            raise SpecInvalidError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.noise_std_bpm < math.inf:
            raise SpecInvalidError(
                f"noise_std_bpm must be a finite number >= 0, got {self.noise_std_bpm}")
        for name in ("audio_rate_hz", "utterance_s", "ecg_rate_hz", "ecg_duration_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise SpecInvalidError(f"{name} must be a finite number > 0, "
                                       f"got {getattr(self, name)}")
        # each take's sample counts round to at least one and stay within
        # MAX_TAKE_SAMPLES, the ECG's beats within MAX_ECG_BEATS, and the
        # utterance holds one analysis frame and at most MAX_FRAME_BLOCK
        # frames x FFT size
        for name, rate in (("utterance_s", "audio_rate_hz"), ("ecg_duration_s", "ecg_rate_hz")):
            seconds, hz = getattr(self, name), getattr(self, rate)
            if seconds * hz < 1:
                raise SpecInvalidError(f"{name} must hold one sample at {rate}, got "
                                       f"{seconds} s at {hz} Hz")
            if seconds * hz > MAX_TAKE_SAMPLES:
                raise SpecInvalidError(f"{name} must hold at most {MAX_TAKE_SAMPLES} samples "
                                       f"at {rate}, got {seconds} s at {hz} Hz")
        # the rate the WAV header holds, so the one extract reads back
        if not wav_holds_rate(self.audio_rate_hz):
            raise SpecInvalidError(f"audio_rate_hz must be a whole number of Hz up to "
                                   f"{MAX_WAV_RATE_HZ}, got {self.audio_rate_hz}")
        if self.ecg_duration_s > MAX_ECG_BEATS * 60 / PLANTED_BPM_RANGE[1]:
            raise SpecInvalidError(f"ecg_duration_s must hold at most {MAX_ECG_BEATS} beats "
                                   f"at {PLANTED_BPM_RANGE[1]:g} bpm, got {self.ecg_duration_s} s")
        if self.utterance_s < self.feature.frame_length_s:
            raise SpecInvalidError(f"utterance_s must hold one feature frame of "
                                   f"{self.feature.frame_length_s} s, got {self.utterance_s}")
        frames, fft_size = frame_block(int(round(self.utterance_s * self.audio_rate_hz)),
                                       self.audio_rate_hz, self.feature)
        if frames * fft_size > MAX_FRAME_BLOCK:
            raise SpecInvalidError(f"utterance_s must hold at most {MAX_FRAME_BLOCK} frames x "
                                   f"FFT size with this feature config, got {frames} x {fft_size}")
        if not 0 < self.fd_tolerance < 1:
            raise SpecInvalidError("fd_tolerance must be in (0, 1)")
        if self.max_fd_iterations < 1:
            raise SpecInvalidError(f"max_fd_iterations must be >= 1, got {self.max_fd_iterations}")


@dataclass(frozen=True)
class PlantedTake:
    subject_id: str
    emotion: EmotionLabel
    take_index: int
    beta0: float
    beta1: float
    feature_distance: float
    heart_rate_bpm: float


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

    def __post_init__(self):
        for name in ("phases", "tilt"):
            values = np.array(getattr(self, name), dtype=np.float64)
            values.setflags(write=False)
            object.__setattr__(self, name, values)


# One slot: the generator renders every take of a voice at one (rate,
# length), and each process renders its takes in slices of consecutive
# takes. The caller claims slices from the tail, so after a slice that
# straddles two subjects it rebuilds the first voice's basis; a second slot
# saved that and read no faster on the full corpus. A voice is keyed by
# identity (eq=False).
@functools.lru_cache(maxsize=1)
def _harmonic_basis(voice: SubjectVoice, rate_hz: float, n: int) -> np.ndarray:
    """Read-only (N_HARMONICS, n) matrix of sin(2π f0 k t + φ_k)."""
    t = np.arange(n) / rate_hz
    k = np.arange(1, N_HARMONICS + 1)
    basis = np.sin(2.0 * np.pi * voice.f0_hz * k[:, None] * t[None, :]
                   + voice.phases[:, None])
    basis.setflags(write=False)
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
    signal = np.sum(amps[:, None] * _harmonic_basis(voice, rate_hz, n), axis=0)
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
        return feature_distance(utterance_embedding(mfcc(clip, self.spec.feature)),
                                self.reference), clip

    def _grid(self, sign: float):
        if sign not in self._grids:
            magnitudes = np.array([0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 9.0, 13.0])
            fds = np.array([self._measure(sign * m)[0] for m in magnitudes])
            self._grids[sign] = (magnitudes, fds)
        return self._grids[sign]

    def solve(self, target_fd: float, sign: float) -> tuple[float, AudioClip]:
        """Return (measured_fd, clip) with measured within tolerance of target.

        A target past the voice's ceiling, above every fd measured for it,
        gets the clip of the highest fd measured, measured again. A target
        that some fd reaches but no step hits within tolerance raises
        ConvergenceFailureError.
        """
        mags, fds = self._grid(sign)
        tol = self.spec.fd_tolerance * target_fd
        # Bracket from the calibration grid; the distance vanishes at g=0.
        below = np.flatnonzero(fds < target_fd)
        above = np.flatnonzero(fds >= target_fd)
        m_lo, f_lo = (mags[below[-1]], fds[below[-1]]) if below.size else (0.0, 0.0)
        highest = max(zip(fds, mags))
        if above.size:
            m_hi, f_hi = mags[above[0]], fds[above[0]]
        else:
            m_hi, f_hi = 2.0 * mags[-1], self._measure(sign * 2.0 * mags[-1])[0]
            highest = max(highest, (f_hi, m_hi))
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
            highest = max(highest, (f, m))
            if f < target_fd:
                m_lo, f_lo = m, f
            else:
                m_hi, f_hi = m, f
        if f_hi < target_fd:
            return self._measure(sign * highest[1])
        raise ConvergenceFailureError(
            f"feature-distance target {target_fd:.3f} not reached within "
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
    # gives. bincount adds each sample's contributions in beat order,
    # starting from 0.0, as a loop adding beat after beat would.
    lo = ((beats - 0.35) * rate_hz).astype(np.int64)
    hi = ((beats + 0.45) * rate_hz).astype(np.int64) + 1
    at = lo[:, None] + np.arange(np.max(hi - lo, initial=0))
    template = qrs_template_value(at / rate_hz - beats[:, None])
    keep = (at >= 0) & (at < n) & (at < hi[:, None])
    signal = np.bincount(at[keep], weights=template[keep], minlength=n)
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


# One slot, like the basis: a process renders a voice's takes in a run
# of slices, so it measures the voice's g = 0 reference and calibrates its
# targeter about once. Keyed by the voice's identity and the spec.
@functools.lru_cache(maxsize=1)
def _voice_targeter(voice: SubjectVoice, spec: SynthSpec) -> FdTargeter:
    """The voice's `FdTargeter`, steering against its g = 0 utterance."""
    reference_clip = synth_utterance(voice, 0.0, spec.audio_rate_hz, spec.utterance_s)
    reference = utterance_embedding(mfcc(reference_clip, spec.feature))
    return FdTargeter(voice, reference, spec)


def _render_slice(jobs: list[tuple[_SubjectPlan, tuple]], spec: SynthSpec, outdir: str):
    """Solve, synthesise and write a slice of `(plan, take)`; (entry, ledger row) each.

    Stage by stage across the slice: every fd target, then every ECG,
    then every WAV, then every ECG file.
    """
    def solve(job):
        plan, (emotion, take, target_fd, sign, _, _) = job
        try:
            return _voice_targeter(plan.voice, spec).solve(target_fd, sign)
        except ConvergenceFailureError as exc:
            raise ConvergenceFailureError(
                f"take {take_stem(plan.subject_id, emotion, take)}: {exc}") from exc

    def plant(job, solved):
        plan, (emotion, take, _, _, noise, u) = job
        beta0, beta1 = plan.lines[emotion]
        fd = solved[0]
        hr = beta0 + beta1 * fd + noise
        hr = float(np.clip(hr, *PLANTED_BPM_RANGE))
        phase = 0.0 + (60.0 / hr) * u
        ecg, _ = synth_ecg(hr, spec.ecg_rate_hz, spec.ecg_duration_s, phase_s=phase)
        stem = take_stem(plan.subject_id, emotion, take)
        entry = ManifestEntry(plan.subject_id, emotion, take, f"audio/{stem}.wav",
                              f"ecg/{stem}.csv")
        return entry, PlantedTake(plan.subject_id, emotion, take, beta0, beta1, fd, hr), ecg

    stages = Stages()
    solved = stages.map(solve, jobs)
    planted = stages.map(plant, jobs, solved)
    stages.map(write_audio, [clip for _, clip in solved],
               [os.path.join(outdir, entry.audio_path) for entry, _, _ in planted])
    stages.map(write_ecg, [ecg for _, _, ecg in planted],
               [os.path.join(outdir, entry.ecg_path) for entry, _, _ in planted])
    return stages.result([(entry, row) for entry, row, _ in planted])


def generate_synthetic_corpus(spec: SynthSpec, outdir) -> tuple[Path, list[PlantedTake]]:
    """Write a corpus (audio/, ecg/, manifest.csv, ledger.csv) to outdir.

    Returns the manifest path and the planted-ground-truth ledger.
    Fully deterministic for a fixed spec. All draws are made first; the
    takes are then rendered independently, in slices of consecutive takes
    and in a second process too when the corpus is large (see
    `_parallel.map_jobs`). The manifest and ledger of an earlier corpus
    in `outdir` are deleted before the first take renders, and the new
    ones are written after the last, so a run that fails leaves neither.
    """
    outdir = Path(outdir)
    (outdir / "audio").mkdir(parents=True, exist_ok=True)
    (outdir / "ecg").mkdir(parents=True, exist_ok=True)
    manifest_path, ledger_path = outdir / "manifest.csv", outdir / "ledger.csv"
    # an earlier index beside the files a failed run wrote over would
    # describe a corpus that is no longer there
    for path in (manifest_path, ledger_path):
        path.unlink(missing_ok=True)
    plans = _plan_corpus(np.random.default_rng(spec.seed), spec)
    jobs = [(plan, take) for plan in plans for take in plan.takes]
    take_samples = (round(spec.utterance_s * spec.audio_rate_hz)
                    + round(spec.ecg_duration_s * spec.ecg_rate_hz))
    # a take's paths stay str: a Path per file would add its name to the
    # interpreter's intern table, which never shrinks
    rendered = map_jobs(functools.partial(_render_slice, spec=spec, outdir=os.fspath(outdir)),
                        jobs,
                        takes_per_job=max(1, min(TAKES_PER_JOB, SLICE_SAMPLES // take_samples)))
    entries = [entry for entry, _ in rendered]
    ledger = [row for _, row in rendered]
    write_manifest(entries, manifest_path)
    write_ledger(ledger, ledger_path)
    return manifest_path, ledger


LEDGER_HEADER = ["subject_id", "emotion", "take_index", "beta0", "beta1",
                 "feature_distance", "heart_rate_bpm"]


def write_ledger(ledger, path) -> None:
    write_table(path, LEDGER_HEADER, map(attrgetter(*LEDGER_HEADER), ledger))


def load_ledger(path) -> list[PlantedTake]:
    return read_table(path, PlantedTake, LEDGER_HEADER)
