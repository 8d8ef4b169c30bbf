"""Loading, validation and writing of speech/ECG signals, manifests and tables.

Audio lives in mono 16-bit linear PCM WAV containers, ECG in text files
of a `# rate_hz=<R>` header followed by one mV value per line. A
manifest CSV binds files to subjects and emotion labels.
Every CSV table of the pipeline goes through `write_table` and `read_table`,
and every JSON file (spec, config, model, summary) through `write_json` and
`read_json`. Every file the pipeline writes goes through `_write_file`,
which writes over an existing file's bytes rather than truncating it first.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import json
import math
import os
import re
import stat
import typing
import warnings
import wave
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import (
    CorruptHeaderError,
    CorruptJsonError,
    CorruptRowError,
    DuplicateEntryError,
    EmptySignalError,
    InvalidSignalError,
    MissingFileError,
    UnknownEmotionError,
    UnsupportedFormatError,
    VoicehrError,
    named,
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


@dataclass(frozen=True, eq=False)
class _Signal:
    """Samples at a fixed rate, checked on construction; the body of AudioClip and EcgRecord."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        kind = type(self).__name__
        if not 0 < self.sample_rate_hz < math.inf:
            raise InvalidSignalError(f"{kind}: sample_rate_hz must be a finite number "
                                     f"> 0, got {self.sample_rate_hz}")
        if self.samples.size == 0:
            raise EmptySignalError(f"{kind}: no samples")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidSignalError(f"{kind}: non-finite sample values")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True, eq=False)
class AudioClip(_Signal):
    """Mono speech signal, amplitudes normalized to [-1, 1]."""


@dataclass(frozen=True, eq=False)
class EcgRecord(_Signal):
    """Single-lead ECG voltages in millivolts."""


# The loaders keep a take's path a str: a `Path` per file would add each of its
# parts to the interpreter's intern table, which never shrinks.
def load_audio(path: str | Path) -> AudioClip:
    """Read a mono 16-bit PCM WAV file and rescale samples to [-1, 1]."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh, wave.open(fh, "rb") as wav:
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
    except RuntimeError:  # wave's seek past the end of the chunk it reads in
        raise CorruptHeaderError(
            f"{path}: a chunk size runs past the end of the RIFF chunk") from None
    if comp_type != "NONE":
        raise UnsupportedFormatError(f"{path}: compressed audio not supported")
    if n_channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {n_channels} channels")
    if samp_width != 2:
        raise UnsupportedFormatError(
            f"{path}: expected 16-bit samples, got {8 * samp_width}-bit")
    if n_frames == 0:
        raise EmptySignalError(f"{path}: empty audio file")
    if len(raw) != n_frames * samp_width:
        raise CorruptHeaderError(f"{path}: header gives {n_frames} frames, data chunk "
                                 f"holds {len(raw) // samp_width} ({len(raw)} bytes)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_FULL_SCALE
    with named(path):
        return AudioClip(samples=samples, sample_rate_hz=float(rate))


def _open_in_place(path, flags: int) -> int:
    """`open`'s opener for a write that keeps the old bytes until written over."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _write_file(path, mode: str = "wb", **kwargs):
    """Open `path` to write as `open(path, mode, **kwargs)` does, without truncating it.

    The new bytes are written over the old ones, and on a clean exit the
    old bytes past the new end, if any, are cut, so the file ends up as a
    fresh write would leave it; a new file, a rewrite of the same length,
    /dev/null or a FIFO is never truncated. `open` still picks the flags
    (`O_BINARY` where the platform has it), less `O_TRUNC`. The gain is
    ext4's: a file truncated to zero and written again has its new data
    sent to disk at close (the `auto_da_alloc` guard for files replaced
    by truncation), which costs several times a rewrite in place. So a
    run stopped in the middle of a write can leave the new bytes followed
    by old ones, where a truncating write left a short file.
    """
    with open(path, mode, opener=_open_in_place, **kwargs) as fh:
        yield fh
        # a pipe or a device has no old bytes, nor a position to cut at
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
            fh.truncate()


MAX_WAV_RATE_HZ = 2 ** 31 - 1  # its byte rate, twice this for 16-bit mono, fills 32 bits


def wav_holds_rate(rate: float) -> bool:
    """A 16-bit mono WAV header holds a whole number of Hz up to `MAX_WAV_RATE_HZ`."""
    return float(rate).is_integer() and rate <= MAX_WAV_RATE_HZ


def write_audio(clip: AudioClip, path: str | Path) -> None:
    """Write a clip as mono 16-bit PCM WAV, clipping to full scale."""
    if not wav_holds_rate(clip.sample_rate_hz):
        raise InvalidSignalError(f"{path}: a WAV holds a whole number of Hz up to "
                                 f"{MAX_WAV_RATE_HZ}, got {clip.sample_rate_hz}")
    quantized = np.clip(np.rint(clip.samples * PCM_FULL_SCALE), -32768, 32767)
    data = quantized.astype("<i2").tobytes()
    with _write_file(path) as fh, wave.open(fh, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(clip.sample_rate_hz))
        wav.writeframes(data)


# No ECG sample (in mV), classifier feature value or fitted feature distance
# reaches this magnitude: nine integer digits, as `_parse_fixed6` reads them.
# The detector, the classifiers and the fit square such values, which would
# overflow from about 1e154.
VALUE_LIMIT = 1e9


def load_ecg(path: str | Path) -> EcgRecord:
    r"""Read an ECG record: a `# rate_hz=<R>` header, then one mV value per line.

    Any other first line raises CorruptHeaderError, and a finite value of
    magnitude `VALUE_LIMIT` or more CorruptRowError. The file is read as
    UTF-8 with "\r\n" and "\r" taken as "\n"; a byte that is not UTF-8
    raises CorruptRowError.

    A `# rate_hz=` body whose every line is `-?[0-9]{1,9}\.[0-9]{6}\n`,
    the form `write_ecg` gives, is parsed without a float() per line: a
    line with digits N (the point dropped) is +-(N / 1e6), N summed from
    its digits. That is the float float() gives: N < 2**53 and 1e6 are
    exact doubles, every partial sum of N is an integer below 2**53, and
    IEEE division rounds the exact quotient correctly, as float() rounds
    the decimal; the sign is applied after, so "-0.000000" is -0.0. Any
    other body is parsed line by line as float() does.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:  # raised again naming its line
        text = _decode_utf8(path, raw)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    first, _, body = text.partition("\n")
    first = first.strip()
    if not first.startswith("# rate_hz="):
        raise CorruptHeaderError(f"{path}: unrecognized header {first!r}")
    try:
        rate = float(first.split("=", 1)[1])
    except ValueError:
        raise CorruptHeaderError(f"{path}: bad rate header {first!r}") from None
    values = _parse_fixed6(body.encode())
    if values is None:
        values = _parse_lines(path, body)
    if not len(values):
        raise EmptySignalError(f"{path}: no samples")
    with named(path):
        return EcgRecord(values, rate)


def _parse_lines(path, body: str) -> list:
    r"""Values of a `# rate_hz=` body, one float() per non-blank line.

    Lines split at "\n" as file iteration splits them (splitlines would
    also split at \f and \v); a bad line is named by its line number, and
    so is a finite value outside the range `_parse_fixed6` reads.
    """
    values = []
    for lineno, line in enumerate(body.split("\n"), start=2):
        line = line.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            raise CorruptRowError(f"{path}:{lineno}: {line!r}") from None
        if VALUE_LIMIT <= abs(value) < math.inf:
            raise CorruptRowError(f"{path}:{lineno}: {line!r}: |value| must be below "
                                  f"{VALUE_LIMIT:g} mV")
        values.append(value)
    return values


def _parse_fixed6(body: bytes) -> np.ndarray | None:
    r"""Values of a body of `-?[0-9]{1,9}\.[0-9]{6}\n` lines, else None."""
    b = np.frombuffer(body, dtype=np.uint8)
    if not b.size or b[-1] != 10:
        return None
    ends = np.flatnonzero(b == 10)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    neg = b[starts] == 45
    n_int = ends - starts - 7 - neg
    most = n_int.max()
    if n_int.min() < 1 or most > 9 or not (b[ends - 7] == 46).all():
        return None
    # every byte but each line's "\n", its "." and a leading "-" is a digit
    if b.size - np.count_nonzero(b - 48 < 10) != 2 * ends.size + np.count_nonzero(neg):
        return None
    # N is the weighted sum of the 8 bytes before each "\n" (ones digit,
    # "." and six fraction digits) and, on a line with more integer digits,
    # of the 8 before those, less 48 ("0") per weight. Every product and
    # partial sum is an integer below 2**53, so the float sums are exact.
    n = _bytes_before(body, ends) @ _LOW_WEIGHTS - 48.0 * _LOW_WEIGHTS.sum()
    if most > 1:
        high = _bytes_before(b"0" * 8 + body, ends) - 48.0
        n += np.einsum("ij,ij->i", high, _HIGH_WEIGHTS[n_int])
    n /= 1e6
    np.negative(n, out=n, where=neg)
    return n


# Weights of the 8 bytes before "\n": ones digit, ".", six fraction digits
_LOW_WEIGHTS = np.array([1e6, 0.0, 1e5, 1e4, 1e3, 1e2, 1e1, 1.0])
# Weights of the 8 bytes before those, by the line's integer digit count k:
# the last k - 1 are its digits from 10 up, the others are not digits
_HIGH_WEIGHTS = np.array([[10.0 ** (14 - i) if i >= 9 - k else 0.0 for i in range(8)]
                          for k in range(10)])


def _bytes_before(data: bytes, ends: np.ndarray) -> np.ndarray:
    """(len(ends), 8) uint8 array of the 8 bytes of `data` before each index of `ends`."""
    windows = np.ndarray((len(data) - 7,), dtype="V8", buffer=data, strides=(1,))
    return windows[ends - 8].view(np.uint8).reshape(-1, 8)


# "%.6f\n" of |x| < 1000 as two little-endian words per line: the sign and
# integer part right-aligned in 7 bytes and ".", by index whole + 1001 *
# negative; then six fraction digits, "\n" and a space
_HEADS = np.array([b"%7d." % i for i in range(1001)]
                  + [(b"-%d" % i).rjust(7) + b"." for i in range(1001)]).view("<u8")
_DIGITS3 = np.array([int.from_bytes(b"%03d" % i, "little") for i in range(1000)],
                    dtype=np.uint64)
_TAIL_END = np.uint64(int.from_bytes(b"\n ", "little") << 48)


def _format_fixed6(samples: np.ndarray) -> bytes | None:
    r"""`"%.6f\n"` of every sample, or None where that needs CPython's formatter."""
    magnitude = np.abs(samples)
    if not (magnitude < 1000.0).all():
        return None
    scaled = magnitude * 1e6
    n = np.rint(scaled)
    if not (np.abs(scaled - n) < 0.5 - 1e-6).all():
        return None
    n = n.astype(np.int64)
    whole = n // 1_000_000
    micro = n - whole * 1_000_000
    milli = micro // 1000
    np.add(whole, 1001, out=whole, where=np.signbit(samples))
    lines = np.empty((samples.size, 2), dtype="<u8")
    lines[:, 0] = _HEADS[whole]
    lines[:, 1] = (_DIGITS3[milli] | _DIGITS3[micro - milli * 1000] << np.uint64(24)
                   | _TAIL_END)
    # drop the spaces that align the sign and integer part and end a line
    return lines.tobytes().translate(None, b" ")


def write_ecg(record: EcgRecord, path: str | Path) -> None:
    r"""Write an ECG record as CSV in the `# rate_hz=<R>` header layout.

    Each sample is a `"%.6f\n"` line. Where every |x| < 1000 and no
    |x| * 1e6 lies within 1e-6 of a half-integer, the lines are built from
    n = rint(|x| * 1e6) and the sign bit, and are the bytes CPython's
    correctly rounded "%.6f" gives: below 1000, |x| * 1e6 < 2**30, so the
    product is off the exact decimal by under 1.2e-7 and rounds to the
    same integer. Ties such as 0.0078125, and any other record, go
    through CPython's formatter. The rate is written exactly, as `repr`
    gives it less a final ".0": `250`, `1000.123`.
    """
    body = _format_fixed6(record.samples)
    if body is None:
        samples = record.samples.tolist()
        body = (("%.6f\n" * len(samples)) % tuple(samples)).encode()
    rate = repr(float(record.sample_rate_hz)).removesuffix(".0")
    with _write_file(path) as fh:
        fh.write(f"# rate_hz={rate}\n".encode() + body)


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    emotion: EmotionLabel
    take_index: int
    audio_path: str
    ecg_path: str


MANIFEST_HEADER = ["subject_id", "emotion", "take_index", "audio_path", "ecg_path"]


def take_stem(subject_id: str, emotion: EmotionLabel, take_index: int) -> str:
    """`<subject>_<emotion>_<take>`, the take three digits wide: the stem of a
    take's WAV, ECG and cepstra files, and its name in errors."""
    return f"{subject_id}_{emotion.value}_{take_index:03d}"


def load_manifest(path: str | Path) -> tuple[ManifestEntry, ...]:
    """The validated entries of a manifest CSV, in file order.

    Paths are absolute: each is the manifest's resolved directory joined
    with the path as the file gives it, so a `..` or a symlink inside it
    is kept, not resolved.
    """
    base = str(Path(path).parent.resolve())
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
    return tuple(entries)


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
          else _write_file(path, "w", encoding="utf-8", newline="")) as fh:
        # csv quotes only the characters of its line terminator, so rows
        # are made with "\r\n" and written with "\n": a lone "\r" is quoted
        writer = csv.writer(SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n")),
                            lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows([repr(float(cell)) if isinstance(cell, float)
                          else cell.value if isinstance(cell, EmotionLabel) else cell
                          for cell in row] for row in rows)


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a 2-D float array as CSV, one row per line, as `np.savetxt` formats it."""
    with _write_file(path) as fh:
        np.savetxt(fh, matrix, delimiter=",")


class _LabelCells(dict):
    """Emotion label of a table cell: a cell that is a label's value is one lookup."""

    def __missing__(self, text):
        return EmotionLabel.parse(text)


# Cell parser per declared scalar field type
_PARSERS = {str: str, int: int, float: float, EmotionLabel: _LabelCells(_LABELS).__getitem__}

# Bytes numpy's float parser skips as space, and float() does not
_C_ONLY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


# A line ends at "\r\n", "\r" or "\n", as csv and text-mode files count lines
_LINE_END = re.compile("\r\n?|\n")


def _decode_utf8(path, raw: bytes) -> str:
    """`raw` as UTF-8; a byte that is not raises CorruptRowError naming its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_LINE_END.findall(raw[:exc.start].decode("utf-8"))) + 1
        raise CorruptRowError(f"{path}:{line}: {exc}") from None


# Bytes the UTF-8 check of a table decodes at a time
_CHECK_BYTES = 1 << 16


def _check_utf8(path, raw: bytes) -> None:
    """Raise as `_decode_utf8` does if `raw` is not UTF-8, holding no copy of its text."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    try:
        for at in range(0, len(raw), _CHECK_BYTES):
            decoder.decode(raw[at:at + _CHECK_BYTES])
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        _decode_utf8(path, raw)


def _text(raw: bytes) -> io.TextIOWrapper:
    """The UTF-8 text of `raw` as `csv` reads it: line ends are left in place."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")


def read_table(path, record, header) -> list:
    """The rows of a CSV table as instances of the dataclass `record`.

    The table is read as `read_columns` reads it; a field declared
    `np.ndarray` holds its row of the read-only block.
    """
    return list(map(record, *read_columns(path, record, header)))


def read_columns(path, record, header) -> list:
    """The columns of a CSV table, one per field of the dataclass `record`.

    Each field is read from the column of its name and parsed by its
    declared type (`str`, `int`, `float`, `EmotionLabel`) into a list of
    one value per row; a last field declared `np.ndarray` takes every
    column from its position on, as one read-only float64 block of a row
    per table row. The header must equal `header`, or `header(n)` for a
    function of the file's column count n; else CorruptHeaderError.
    Blank lines are skipped.

    The whole file is checked to be UTF-8 before any row is parsed: a
    byte that is not raises CorruptRowError naming its `path:line`, even
    when an earlier row holds another fault.

    The rows are parsed in one call of numpy's C text reader, with the
    cells as `csv` splits them. That reader parses the float cells, which
    it reads as `float()` does or not at all; every other cell is read as
    its text and parsed as the `csv` path parses it, an `int` cell by
    `int()`. A table that reader could read otherwise takes the `csv`
    path, which gives the same records and alone raises the row errors:
    one that holds a byte of 0x1c-0x1f, one in which a field could pass
    `csv.field_size_limit()`, and one whose rows that reader rejects or
    warns about, such as a float cell `1_000`, `١٢` or `1e`, an unknown
    label, a row of the wrong width or no rows at all.

    The `csv` path reads the file's bytes one decoded chunk (8 KB) at a
    time and parses a row at a time, so the first row fault in file order
    is the one raised: a row of the wrong width, a cell that does not
    parse or a quote left open raises CorruptRowError naming `path:line`,
    and a parser's VoicehrError is raised again as its type, prefixed
    with `path:line`.
    """
    raw = Path(path).read_bytes()
    if not raw.isascii():
        _check_utf8(path, raw)
    with _text(raw) as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, [])
        except csv.Error as exc:  # a quote left open past csv's field size limit
            raise CorruptRowError(f"{path}:{reader.line_num}: {exc}") from None
        expected = list(header(len(found)) if callable(header) else header)
        if found != expected:
            raise CorruptHeaderError(f"{path}: expected header {','.join(expected)}")
        # (column, type) per field; np.ndarray takes the float64 block from the column on
        columns = [(i if kind is np.ndarray else expected.index(f.name), kind)
                   for i, (f, kind) in enumerate(_json_fields(record).values())]
        if _c_reader_fits(raw):
            values = _c_columns(fh, len(expected), columns)
            if values is not None:
                return values
    with _text(raw) as fh:
        reader = csv.reader(fh)
        next(reader)
        return _csv_columns(path, reader, len(expected), columns)


def _c_reader_fits(raw: bytes) -> bool:
    """Whether numpy's C text reader may read the table `raw` in place of `csv`.

    Not when it holds a byte that numpy's float parser alone skips as
    space, nor when a field could pass `csv.field_size_limit()`: a table
    longer than the limit must hold no quote, and a line break in every
    aligned span of half the limit, since a longer line would hold one
    such span whole.
    """
    if any(space in raw for space in _C_ONLY_SPACES):
        return False
    limit = csv.field_size_limit()
    if len(raw) <= limit:
        return True
    span = (limit + 1) // 2
    if b'"' in raw or span < 1024:  # a lowered limit takes the csv path
        return False
    return all(raw.find(b"\n", at, at + span) >= 0 or raw.find(b"\r", at, at + span) >= 0
               for at in range(0, len(raw) - span + 1, span))


def _c_columns(fh, width: int, columns):
    """The columns of the table body `fh` as numpy's C text reader reads them.

    None when it raises or warns, or a cell does not parse: the `csv`
    path then reads the table and raises its errors.
    """
    at_block = columns[-1][0] if columns[-1][1] is np.ndarray else width
    cells = [object] * at_block  # a column no field reads is read as text
    for at, kind in columns:
        if kind is float:
            cells[at] = np.float64
    if at_block < width:
        cells.append((np.float64, (width - at_block,)))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(fh, dtype=[(str(at), cell) for at, cell in enumerate(cells)],
                               delimiter=",", quotechar='"', comments=None, ndmin=1)
        values = []
        for at, kind in columns:
            column = table[str(at)]
            if kind is np.ndarray:
                column.flags.writeable = False
                values.append(column)
            else:
                values.append(column.tolist() if kind in (str, float)
                              else list(map(_PARSERS[kind], column.tolist())))
        return values
    except Exception:  # the csv path raises the error with its path:line
        return None


def _csv_columns(path, reader, width: int, columns) -> list:
    """The columns of the table body `reader` yields, parsed a row at a time."""
    values = [array("d") if kind is np.ndarray else [] for _, kind in columns]
    n_rows = 0
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            for column, (at, kind) in zip(values, columns):
                if kind is np.ndarray:
                    column.extend(map(float, row[at:]))
                else:
                    column.append(_PARSERS[kind](row[at]))
            n_rows += 1
    except (csv.Error, ValueError) as exc:  # csv.Error: a quote left open to the end
        raise CorruptRowError(f"{path}:{reader.line_num}: {exc}") from None
    except VoicehrError as exc:  # a parser's own, such as a bad label
        raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
    at, kind = columns[-1]
    if kind is np.ndarray:
        values[-1] = np.frombuffer(values[-1], dtype=np.float64).reshape(n_rows, width - at)
        values[-1].flags.writeable = False
    return values


def write_json(path, value) -> None:
    """Write `value` as JSON: 2-space indent, sorted keys and a final "\n".

    A dataclass is an object with a key per field: the field's name, or
    its `metadata["json_key"]`.
    """
    text = json.dumps(value, indent=2, sort_keys=True, default=lambda record: {
        key: getattr(record, f.name) for key, (f, _) in _json_fields(type(record)).items()})
    with _write_file(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def read_json(path, record):
    """The UTF-8 JSON file at `path` as a value of the type `record`.

    `float` takes a number, `int` an integer, `str` a string and `bool`
    true or false; a bool is no number. `X | None` also takes null,
    `list[X]` an array, `dict[str, X]` an object and a bare `dict` any
    object. A dataclass takes an object keyed as `write_json` keys it. A
    missing key reads as its field's `metadata["json_default"]`, else the
    field's default, else is an error; so is a key that names no field.
    Each error, and one the dataclass raises on its values, is a
    CorruptJsonError naming `path` and the key, such as `feature.n_cepstra`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except ValueError as exc:  # bad JSON, or a byte that is not UTF-8
            raise CorruptJsonError(f"{path}: {exc}") from None
    return decode_json(value, record, path)


def decode_json(value, record, source):
    """A parsed JSON value as `read_json` builds it; errors name `source`."""
    try:
        return _decode(value, record, "")
    except CorruptJsonError as exc:
        raise CorruptJsonError(f"{source}: {exc}") from None


# The JSON values each type takes, as errors name them; a bool is no number
_JSON_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"),
               str: (str, "a string"), bool: (bool, "true or false"),
               list: (list, "an array"), dict: (dict, "an object")}


def _decode(value, record, key: str):
    origin, args = typing.get_origin(record) or record, typing.get_args(record)
    if type(None) in args:  # X | None
        inner, = set(args) - {type(None)}
        return None if value is None else _decode(value, inner, key)
    is_record = is_dataclass(origin)
    kinds, expected = _JSON_KINDS[dict if is_record else origin]
    if not isinstance(value, kinds) or (isinstance(value, bool) and origin is not bool):
        shown = _JSON_KINDS[type(value)][1] if type(value) in (list, dict) else json.dumps(value)
        raise _corrupt(key, f"expected {expected}, got {shown}")
    if is_record:
        return _decode_record(value, origin, key)
    if origin is list:
        return [_decode(item, args[0], f"{key}[{i}]") for i, item in enumerate(value)]
    if origin is dict:
        return {name: _decode(item, args[1], _join(key, name))
                for name, item in value.items()} if args else value
    try:
        return origin(value)
    except OverflowError:
        raise _corrupt(key, "expected a number, got an integer beyond float range") from None


def _decode_record(value: dict, record, key: str):
    spec = _json_fields(record)
    for name in value:
        if name not in spec:
            raise _corrupt(_join(key, name), f"no such field in {record.__name__}")
    kwargs = {}
    for name, (f, field_type) in spec.items():
        if name in value:
            kwargs[f.name] = _decode(value[name], field_type, _join(key, name))
        elif "json_default" in f.metadata:
            kwargs[f.name] = f.metadata["json_default"]
        elif f.default is MISSING and f.default_factory is MISSING:
            raise _corrupt(_join(key, name), "missing")
    try:
        return record(**kwargs)
    except (ValueError, VoicehrError) as exc:  # the record's own checks
        raise _corrupt(key, str(exc)) from None


@functools.lru_cache(maxsize=None)
def _json_fields(record) -> dict:
    """JSON key -> (field, declared type) of each field of a dataclass, in field order."""
    hints = typing.get_type_hints(record)
    return {f.metadata.get("json_key", f.name): (f, hints[f.name]) for f in fields(record)}


def _join(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


def _corrupt(key: str, problem: str) -> CorruptJsonError:
    return CorruptJsonError(f"{key}: {problem}" if key else problem)
