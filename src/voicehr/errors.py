"""Exception hierarchy for the voicehr package."""


class VoicehrError(Exception):
    """Base class for all voicehr errors.

    `exit_code` is the CLI's exit class for the error: 3, a data error
    (missing or corrupt input), unless a subclass says otherwise.
    """

    exit_code = 3


class named:
    """Context: a VoicehrError of the block is raised again as its type, prefixed with `source`."""

    def __init__(self, source):
        self.source = source

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, VoicehrError):
            raise type(exc)(f"{self.source}: {exc}") from None


# --- signal I/O ---

class UnsupportedFormatError(VoicehrError):
    """Audio file is not mono 16-bit linear PCM."""


class CorruptHeaderError(VoicehrError):
    """Container header could not be parsed."""


class EmptySignalError(VoicehrError):
    """Signal contains no samples."""


class InvalidSignalError(VoicehrError):
    """Signal has a non-finite sample or a bad sample rate, a clip more frames than one
    `mfcc` block holds, or a feature vector a bad value."""


class CorruptRowError(VoicehrError):
    """A CSV row could not be parsed."""


class CorruptJsonError(VoicehrError):
    """A JSON file does not parse or does not fit its declared record."""

    exit_code = 2


class DuplicateEntryError(VoicehrError):
    """Manifest contains a repeated (subject, emotion, take) triple."""


class UnknownEmotionError(VoicehrError):
    """Emotion label outside the closed {joy, neutral, anger} set."""


class MissingFileError(VoicehrError):
    """A referenced or required input file does not exist."""


# --- ECG / heart rate ---

class SignalTooShortError(VoicehrError):
    """ECG record shorter than the detector minimum."""


class NoPeaksFoundError(VoicehrError):
    """No R-peaks exceed the adaptive threshold."""


class NonPositiveIntervalError(VoicehrError):
    """RR interval must be strictly positive."""


class InsufficientPeaksError(VoicehrError):
    """Fewer than two peaks; no RR interval exists."""


# --- speech features ---

class ClipTooShortError(VoicehrError):
    """Audio clip shorter than one analysis frame."""


class DimensionMismatchError(VoicehrError):
    """Embedding vectors have different lengths."""


class EmptyEnrollmentError(VoicehrError):
    """No embeddings available to build a subject reference."""


# --- regression / statistics ---

class TooFewPointsError(VoicehrError):
    """Not enough data points for the requested statistic."""


class DegenerateXError(VoicehrError):
    """All predictor values equal; slope undefined."""


class NonPositiveMeasuredError(VoicehrError):
    """Measured heart rate must be positive for a relative error."""


class CorruptModelError(VoicehrError):
    """A model file lacks a field or holds a value of the wrong type."""


# --- classification ---

class TooFewExamplesError(VoicehrError):
    """Too few training examples per class."""


class SingleClassError(VoicehrError):
    """Training data contains only one class."""


class EmptyTestSetError(VoicehrError):
    """Accuracy requested on an empty test set."""


# --- pipeline ---

class NothingToEvaluateError(VoicehrError):
    """No observation survived the filter, no cell has the rows a fit needs, or no
    subject has vectors to classify."""


class OutOfRangeError(VoicehrError):
    """Percentage argument outside [0, 100]."""


class ConvergenceFailureError(VoicehrError):
    """Closed-loop feature-distance targeting did not converge."""

    exit_code = 4


class SpecInvalidError(VoicehrError):
    """A synthetic corpus spec or a command-line value violates its rules."""

    exit_code = 2
