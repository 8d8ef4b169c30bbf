"""Loading, validation and writing of speech/ECG signals, manifests and tables.

Audio lives in mono 16-bit linear PCM WAV containers, ECG in CSV text
(either `time_s,mv` rows or a `# rate_hz=<R>` header followed by one mV
value per line). A manifest CSV binds files to subjects and emotion labels.
Every CSV table of the pipeline goes through `write_table` and `read_table`.
"""

from __future__ import annotations

import csv
import io
import os
import re
import typing
import wave
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

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
            return _LABELS[text.strip().lower()]
        except KeyError:
            raise UnknownEmotionError(f"unknown emotion label: {text!r}") from None


# A dict lookup; calling the enum class per table cell costs ten times as much
_LABELS = {label.value: label for label in EmotionLabel}


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
        # EOFError carries no message
        reason = str(exc) or "file ends inside the WAV header"
        raise CorruptHeaderError(f"{path}: {reason}") from exc
    if comp_type != "NONE":
        raise UnsupportedFormatError(f"{path}: compressed audio not supported")
    if n_channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {n_channels} channels")
    if samp_width != 2:
        raise UnsupportedFormatError(f"{path}: expected 16-bit samples, got {8 * samp_width}-bit")
    if n_frames == 0:
        raise EmptySignalError(f"{path}: empty audio file")
    if len(raw) != n_frames * samp_width:
        raise CorruptHeaderError(f"{path}: header gives {n_frames} frames, data chunk holds "
                                 f"{len(raw) // samp_width} ({len(raw)} bytes)")
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

    Paths are absolute: each is the manifest's resolved directory joined
    with the path as the file gives it, so a `..` or a symlink inside it
    is kept, not resolved. Entry order follows the file.
    """

    entries: tuple = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.entries)

    def subjects(self) -> list[str]:
        seen = dict.fromkeys(e.subject_id for e in self.entries)
        return sorted(seen)


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load and validate a manifest CSV; paths are joined to its resolved directory."""
    path = Path(path)
    base = str(path.parent.resolve())
    entries, seen = [], set()
    for row in read_table(path, ManifestEntry, MANIFEST_HEADER):
        if row.take_index < 0:
            raise CorruptRowError(f"{path}: negative take_index {row.take_index}")
        key = (row.subject_id, row.emotion, row.take_index)
        if key in seen:
            raise DuplicateEntryError(f"{path}: duplicate entry {key}")
        seen.add(key)
        audio = os.path.join(base, row.audio_path)
        ecg = os.path.join(base, row.ecg_path)
        for p in (audio, ecg):
            if not os.path.isfile(p):
                raise MissingFileError(f"{path}: referenced file missing: {p}")
        entries.append(replace(row, audio_path=audio, ecg_path=ecg))
    return DatasetManifest(entries=tuple(entries))


def write_manifest(entries, path: str | Path) -> None:
    """Write manifest rows; paths are emitted as given (keep them relative)."""
    write_table(path, MANIFEST_HEADER, map(attrgetter(*MANIFEST_HEADER), entries))


def write_table(path, header, rows) -> None:
    """Write a CSV table: UTF-8, "\n" line ends, `csv`'s minimal quoting.

    A float cell is written as `repr(float(v))`, which reads back to the
    same bits, and an `EmotionLabel` cell as its value. A text cell that
    holds a delimiter, a quote, "\n" or "\r" is quoted. `path` may also be
    an open text stream, which is left open.
    """
    with (nullcontext(path) if hasattr(path, "write")
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        # csv quotes only the characters of its line terminator, so rows
        # are made with "\r\n" and written with "\n": a lone "\r" is quoted
        writer = csv.writer(SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n")),
                            lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows([repr(float(cell)) if isinstance(cell, float)
                          else cell.value if isinstance(cell, EmotionLabel) else cell
                          for cell in row] for row in rows)


# Cell parser per declared field type; numpy parses str cells as float() does
_PARSERS = {str: str, int: int, float: float, EmotionLabel: EmotionLabel.parse,
            np.ndarray: lambda cells: np.array(cells, dtype=np.float64)}


# A line ends at "\r\n", "\r" or "\n", as text read with newline="" splits it
_LINE_END = re.compile("\r\n?|\n")


def read_table(path, record, header) -> list:
    """The rows of a CSV table as instances of the dataclass `record`.

    Each field is read from the column of its name and parsed by its
    declared type (`str`, `int`, `float`, `EmotionLabel`); a last field
    declared `np.ndarray` takes every column from its position on. The
    header must equal `header`, or `header(n)` for a function of the file's
    column count n; else CorruptHeaderError. A row of the wrong width, a
    cell that does not parse or a byte that is not UTF-8 raises
    CorruptRowError naming `path:line`; a parser's VoicehrError passes
    through. Blank lines are skipped.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line the undecodable byte is on, as csv counts lines
        line = len(_LINE_END.findall(raw[:exc.start].decode("utf-8"))) + 1
        raise CorruptRowError(f"{path}:{line}: {exc}") from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, [])
        expected = list(header(len(found)) if callable(header) else header)
        if found != expected:
            raise CorruptHeaderError(f"{path}: expected header {','.join(expected)}")
        types = typing.get_type_hints(record)
        columns = [(slice(i, None) if types[f.name] is np.ndarray else expected.index(f.name),
                    _PARSERS[types[f.name]]) for i, f in enumerate(fields(record))]
        rows = []
        try:
            for row in reader:
                if len(row) != len(expected):
                    if not row:
                        continue
                    raise CorruptRowError(f"{path}:{reader.line_num}: expected "
                                          f"{len(expected)} fields, got {len(row)}")
                rows.append(record(*[parse(row[at]) for at, parse in columns]))
        except (ValueError, csv.Error) as exc:  # csv.Error: a quote left open to the end
            raise CorruptRowError(f"{path}:{reader.line_num}: {exc}") from None
    return rows
