"""Exception hierarchy for the voicehr package."""


class VoicehrError(Exception):
    """Base class for all voicehr errors."""


# --- signal I/O ---

class UnsupportedFormatError(VoicehrError):
    """Audio file is not mono 16-bit linear PCM."""


class CorruptHeaderError(VoicehrError):
    """Container header could not be parsed."""


class EmptySignalError(VoicehrError):
    """Signal contains no samples."""


class InvalidSignalError(VoicehrError):
    """Signal has a non-finite sample or a non-positive sample rate."""


class NonUniformSamplingError(VoicehrError):
    """ECG timestamps deviate too far from a uniform grid."""


class CorruptRowError(VoicehrError):
    """A CSV row could not be parsed."""


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

class CellTooSmallError(VoicehrError):
    """A (subject, emotion) cell has too few observations to fit."""


class SubjectTooSmallError(VoicehrError):
    """A subject has too few pooled observations to fit."""


class SubjectMismatchError(VoicehrError):
    """Experiment outputs cover different subject sets."""


class OutOfRangeError(VoicehrError):
    """Percentage argument outside [0, 100]."""


class ConvergenceFailureError(VoicehrError):
    """Closed-loop feature-distance targeting did not converge."""


class SpecInvalidError(VoicehrError):
    """Synthetic corpus spec violates its invariants."""
