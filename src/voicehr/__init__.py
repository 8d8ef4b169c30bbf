"""Heart-rate estimation from speech via cepstral feature distances.

Extracts mel cepstral feature distances from speech, ground-truth heart
rates from ECG via the 1500 rule, fits per-subject/per-emotion linear
predictors, classifies emotional state, and evaluates the combined
model. See the CLI in `voicehr.cli` for the batch entry points.
"""

from .classify import (
    LabeledVector,
    SplitSpec,
    TreeConfig,
    classification_accuracy,
    split,
    train_cvr,
    train_gnb,
    train_knn,
)
from .ecg_hr import (
    HeartRate,
    PeakConfig,
    RPeakSeries,
    detect_r_peaks,
    extract_heart_rate,
    heart_rate_1500,
)
from .pipeline import (
    EvaluationReport,
    FilterWindow,
    HoldoutSpec,
    PipelineConfig,
    build_report,
    compare_experiments,
    filter_observations,
    general_model_score,
    render_report,
    run_experiment_combined,
    run_experiment_separate,
)
from .regression import (
    LinearModel,
    Observation,
    SummaryStats,
    fit_ols,
    normal_coverage,
    predict,
    relative_error,
    summary_stats,
)
from .signal_io import (
    AudioClip,
    DatasetManifest,
    EcgRecord,
    EmotionLabel,
    load_audio,
    load_ecg,
    load_manifest,
    write_audio,
    write_ecg,
    write_manifest,
)
from .speech_features import (
    CepstraMatrix,
    FeatureConfig,
    FeatureDistance,
    UtteranceEmbedding,
    feature_distance,
    mfcc,
    subject_reference,
    utterance_embedding,
)
from .synth import SynthSpec, generate_synthetic_corpus, synth_ecg, synth_utterance

__version__ = "0.1.0"
