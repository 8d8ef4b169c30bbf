"""Heart-rate estimation from speech via cepstral feature distances.

Extracts mel cepstral feature distances from speech, ground-truth heart
rates from ECG via the 1500 rule, fits per-subject/per-emotion linear
predictors, classifies emotional state, and evaluates the combined
model. See the CLI in `voicehr.cli` for the batch entry points.

Importing the package loads none of its modules; import the one you
need, such as `voicehr.pipeline`.
"""

__version__ = "0.1.0"
