"""Loading, validation and writing of speech/ECG signals and dataset manifests.

Audio lives in mono 16-bit linear PCM WAV containers, ECG in CSV text
(either `time_s,mv` rows or a `# rate_hz=<R>` header followed by one mV
value per line). A manifest CSV binds files to subjects and emotion labels.
"""

from __future__ import annotations

import csv
import wave
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    CorruptHeaderError,
    CorruptRowError,
    DuplicateEntryError,
    EmptySignalError,
    InvalidSignalError,
    MissingFileError,
    NonUniformSamplingError,
    UnknownEmotionError,
    UnsupportedFormatError,
)

# 16-bit full scale; -32768 maps to -1.0 exactly.
PCM_FULL_SCALE = 32768.0


class EmotionLabel(str, Enum):
    JOY = "joy"
    NEUTRAL = "neutral"
    ANGER = "anger"

    @classmethod
    def parse(cls, text: str) -> "EmotionLabel":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise UnknownEmotionError(f"unknown emotion label: {text!r}") from None


# Deterministic class order used for tie-breaking everywhere.
EMOTION_ORDER = (EmotionLabel.JOY, EmotionLabel.NEUTRAL, EmotionLabel.ANGER)


def _check_signal(samples: np.ndarray, sample_rate_hz: float, kind: str,
                  source_id: str = "") -> None:
    if source_id:
        kind = f"{kind} {source_id}"
    if sample_rate_hz <= 0:
        raise InvalidSignalError(f"{kind}: sample_rate_hz must be positive")
    if samples.size == 0:
        raise EmptySignalError(f"{kind}: no samples")
    if not np.all(np.isfinite(samples)):
        raise InvalidSignalError(f"{kind}: non-finite sample values")


@dataclass(frozen=True, eq=False)
class AudioClip:
    """Mono speech signal, amplitudes normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: float
    source_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        _check_signal(self.samples, self.sample_rate_hz, "AudioClip", self.source_id)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True, eq=False)
class EcgRecord:
    """Single-lead ECG voltages in millivolts."""

    samples: np.ndarray
    sample_rate_hz: float
    source_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        _check_signal(self.samples, self.sample_rate_hz, "EcgRecord", self.source_id)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def load_audio(path: str | Path) -> AudioClip:
    """Read a mono 16-bit PCM WAV file and rescale samples to [-1, 1]."""
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            samp_width = wav.getsampwidth()
            comp_type = wav.getcomptype()
            rate = wav.getframerate()
            n_frames = wav.getnframes()
            raw = wav.readframes(n_frames)
    except (wave.Error, EOFError) as exc:
        raise CorruptHeaderError(f"{path}: {exc}") from exc
    if comp_type != "NONE":
        raise UnsupportedFormatError(f"{path}: compressed audio not supported")
    if n_channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {n_channels} channels")
    if samp_width != 2:
        raise UnsupportedFormatError(f"{path}: expected 16-bit samples, got {8 * samp_width}-bit")
    if n_frames == 0:
        raise EmptySignalError(f"{path}: empty audio file")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_FULL_SCALE
    return AudioClip(samples=samples, sample_rate_hz=float(rate), source_id=str(path))


def write_audio(clip: AudioClip, path: str | Path) -> None:
    """Write a clip as mono 16-bit PCM WAV, clipping to full scale."""
    quantized = np.clip(np.rint(clip.samples * PCM_FULL_SCALE), -32768, 32767)
    data = quantized.astype("<i2").tobytes()
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(round(clip.sample_rate_hz)))
        wav.writeframes(data)


def load_ecg(path: str | Path) -> EcgRecord:
    """Read an ECG CSV record.

    Accepts either `time_s,mv` rows (rate inferred from the time column,
    uniformity enforced) or a `# rate_hz=<R>` header with one mV value
    per following line.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first.startswith("# rate_hz="):
            try:
                rate = float(first.split("=", 1)[1])
            except ValueError:
                raise CorruptHeaderError(f"{path}: bad rate header {first!r}") from None
            lines = fh.read().split("\n")
            try:
                # Lines split at "\n" as file iteration splits them (splitlines
                # would also split at \f and \v). float() takes surrounding
                # whitespace but not "1.0 2.0"; a blank or bad line sends the
                # record through the loop below, which skips blanks and names
                # a bad line.
                values = list(map(float, lines[:-1] if lines[-1] == "" else lines))
            except ValueError:
                values = []
                for lineno, line in enumerate(lines, start=2):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        values.append(float(line))
                    except ValueError:
                        raise CorruptRowError(f"{path}:{lineno}: {line!r}") from None
            if not values:
                raise EmptySignalError(f"{path}: no samples")
            return EcgRecord(np.asarray(values), rate, source_id=str(path))
        if first.replace(" ", "") != "time_s,mv":
            raise CorruptHeaderError(f"{path}: unrecognized header {first!r}")
        times, values = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                t, v = float(parts[0]), float(parts[1])
            except (ValueError, IndexError):
                raise CorruptRowError(f"{path}:{lineno}: {line!r}") from None
            times.append(t)
            values.append(v)
    if not values:
        raise EmptySignalError(f"{path}: no samples")
    if len(values) < 2:
        raise NonUniformSamplingError(f"{path}: need >= 2 timestamped rows")
    times_arr = np.asarray(times)
    dt = np.diff(times_arr)
    rate = 1.0 / float(np.median(dt))
    expected = times_arr[0] + np.arange(times_arr.size) / rate
    jitter = float(np.max(np.abs(times_arr - expected)))
    if jitter >= 0.25 / rate:
        raise NonUniformSamplingError(f"{path}: timestamp jitter {jitter:.6g} s at rate {rate:g} Hz")
    return EcgRecord(np.asarray(values), rate, source_id=str(path))


def write_ecg(record: EcgRecord, path: str | Path) -> None:
    """Write an ECG record as CSV in the `# rate_hz=<R>` header layout."""
    samples = record.samples.tolist()
    text = f"# rate_hz={record.sample_rate_hz:g}\n" + ("%.6f\n" * len(samples)) % tuple(samples)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    emotion: EmotionLabel
    take_index: int
    audio_path: str
    ecg_path: str


MANIFEST_HEADER = ["subject_id", "emotion", "take_index", "audio_path", "ecg_path"]


@dataclass(frozen=True)
class DatasetManifest:
    """Binding of audio/ECG files to (subject, emotion, take) triples.

    Paths are stored resolved (absolute); entry order follows the file.
    """

    entries: tuple = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.entries)

    def subjects(self) -> list[str]:
        seen = dict.fromkeys(e.subject_id for e in self.entries)
        return sorted(seen)


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load and validate a manifest CSV; paths resolve relative to it."""
    path = Path(path)
    base = path.parent
    entries = []
    seen = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MANIFEST_HEADER:
            raise CorruptHeaderError(f"{path}: expected header {','.join(MANIFEST_HEADER)}")
        for row in reader:
            try:
                take = int(row["take_index"])
            except (TypeError, ValueError):
                raise CorruptRowError(f"{path}: bad take_index {row['take_index']!r}") from None
            if take < 0:
                raise CorruptRowError(f"{path}: negative take_index {take}")
            emotion = EmotionLabel.parse(row["emotion"])
            key = (row["subject_id"], emotion, take)
            if key in seen:
                raise DuplicateEntryError(f"{path}: duplicate entry {key}")
            seen.add(key)
            audio = (base / row["audio_path"]).resolve()
            ecg = (base / row["ecg_path"]).resolve()
            for p in (audio, ecg):
                if not p.is_file():
                    raise MissingFileError(f"{path}: referenced file missing: {p}")
            entries.append(ManifestEntry(row["subject_id"], emotion, take, str(audio), str(ecg)))
    return DatasetManifest(entries=tuple(entries))


def write_manifest(entries, path: str | Path) -> None:
    """Write manifest rows; paths are emitted as given (keep them relative)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for e in entries:
            writer.writerow([e.subject_id, e.emotion.value, e.take_index, e.audio_path, e.ecg_path])
