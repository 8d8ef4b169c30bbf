"""End-to-end experiment orchestration and report rendering.

Filters observations, runs the separate-emotion and combined-emotion
regression experiments, sweeps the classifiers, combines prediction and
classification accuracy into the general-model score, and renders the
four report tables as CSV plus a full-precision JSON summary.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from . import classify
from .classify import LabeledVector, SplitSpec, TreeConfig
from .ecg_hr import PeakConfig
from .errors import (
    CellTooSmallError,
    NothingToEvaluateError,
    OutOfRangeError,
    SubjectMismatchError,
    SubjectTooSmallError,
)
from .regression import (
    LinearModel,
    Observation,
    fit_ols,
    predict,
    relative_error,
)
from .signal_io import EMOTION_ORDER, EmotionLabel, decode_json, read_json, write_json, write_table
from .speech_features import FeatureConfig

ALGORITHMS = ("cvr", "gnb", "knn")

# Reference model echoed by the report renderer; its coefficients come
# from the published study this pipeline benchmarks against.
BENCHMARK_MODEL = LinearModel(
    beta0_hat=97.031, beta1_hat=0.091, n=0, s_xx=0.0, s_xy=0.0,
    residual_std=0.0, subject_id="s01", emotion="joy")


@dataclass(frozen=True)
class FilterWindow:
    hr_min_bpm: float = 30.0
    hr_max_bpm: float = 220.0

    def __post_init__(self):
        if not 0 <= self.hr_min_bpm <= self.hr_max_bpm < math.inf:
            raise ValueError("require 0 <= hr_min_bpm <= hr_max_bpm, both finite, got "
                             f"{self.hr_min_bpm}, {self.hr_max_bpm}")


@dataclass(frozen=True)
class HoldoutSpec:
    test_fraction: float = 0.2
    seed: int = 0
    in_sample: bool = False

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


@dataclass(frozen=True)
class PipelineConfig:
    feature: FeatureConfig = field(default_factory=FeatureConfig)
    peak: PeakConfig = field(default_factory=PeakConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    tree: TreeConfig = field(default_factory=TreeConfig)
    filter_window: FilterWindow = field(default_factory=FilterWindow)
    holdout: HoldoutSpec = field(default_factory=HoldoutSpec)
    seed: int = 0

    @classmethod
    def from_dict(cls, d, source="config") -> "PipelineConfig":
        """The config of a parsed JSON object, decoded as `decode_json` does.

        `split.seed` and `holdout.seed` default to the top-level `seed`.
        """
        config = decode_json(d, cls, source)
        return replace(config, **{name: replace(getattr(config, name), seed=config.seed)
                                  for name in ("split", "holdout")
                                  if "seed" not in d.get(name, {})})


def filter_observations(rows, window: FilterWindow = FilterWindow()):
    """Split observations into kept rows and (row, reason) rejections."""
    kept, rejected = [], []
    for obs in rows:
        if not (math.isfinite(obs.feature_distance) and math.isfinite(obs.heart_rate_bpm)):
            rejected.append((obs, "non_finite"))
        elif not window.hr_min_bpm <= obs.heart_rate_bpm <= window.hr_max_bpm:
            rejected.append((obs, "hr_out_of_range"))
        elif obs.feature_distance < 0:
            rejected.append((obs, "negative_fd"))
        else:
            kept.append(obs)
    return kept, rejected


@dataclass(frozen=True)
class CellScore:
    subject_id: str
    emotion: str  # emotion value or "combined"
    relative_error_pct: float
    n_train: int
    n_test: int

    @property
    def accuracy_pct(self) -> float:
        return 100.0 - self.relative_error_pct


def _holdout_split(observations, holdout: HoldoutSpec, salt: str):
    """Seeded train/test cut of one cell; salt decorrelates cells."""
    n = len(observations)
    if holdout.in_sample:
        return list(observations), list(observations)
    rng = np.random.default_rng([holdout.seed, zlib.crc32(salt.encode())])
    perm = rng.permutation(n)
    n_test = max(1, int(round(holdout.test_fraction * n)))
    n_test = min(n_test, n - 2)  # keep at least 2 training points
    test_idx = set(perm[:n_test].tolist())
    train = [observations[i] for i in range(n) if i not in test_idx]
    test = [observations[i] for i in sorted(test_idx)]
    return train, test


def _score_cell(observations, holdout: HoldoutSpec, subject_id: str, tag: str):
    if len(observations) < 4:
        raise CellTooSmallError(f"{subject_id}/{tag}: {len(observations)} observations")
    train, test = _holdout_split(observations, holdout, f"{subject_id}/{tag}")
    model = fit_ols(
        [(o.feature_distance, o.heart_rate_bpm) for o in train],
        subject_id=subject_id, emotion=tag)
    errors = [relative_error(predict(model, o.feature_distance), o.heart_rate_bpm)
              for o in test]
    score = CellScore(subject_id=subject_id, emotion=tag,
                      relative_error_pct=float(np.mean(errors)),
                      n_train=len(train), n_test=len(test))
    return model, score


def _cells(observations, mode: str):
    """Yield (subject_id, tag, rows) for every regression cell.

    Subjects come sorted. "separate" yields one cell per emotion in
    EMOTION_ORDER, tagged with the emotion value; "combined" yields one
    pooled cell per subject, tagged "combined".
    """
    groups: dict[str, list] = {}
    for obs in observations:
        groups.setdefault(obs.subject_id, []).append(obs)
    for subject_id, group in sorted(groups.items()):
        if mode == "combined":
            yield subject_id, "combined", group
        else:
            for emotion in EMOTION_ORDER:
                yield subject_id, emotion.value, [o for o in group if o.emotion == emotion]


def _run_experiment(observations, config: PipelineConfig, mode: str):
    scores, models, skipped = [], [], []
    for subject_id, tag, rows in _cells(observations, mode):
        try:
            model, score = _score_cell(rows, config.holdout, subject_id, tag)
        except CellTooSmallError as exc:
            skipped.append((subject_id, tag, str(exc)))
            continue
        models.append(model)
        scores.append(score)
    return scores, models, skipped


def run_experiment_separate(observations, config: PipelineConfig):
    """Per-(subject, emotion) regression scores; unfittable cells are listed.

    Returns (scores, models, skipped) where skipped holds
    (subject, emotion, reason) triples.
    """
    return _run_experiment(observations, config, "separate")


def run_experiment_combined(observations, config: PipelineConfig):
    """Per-subject regression scores with all three emotions pooled."""
    scores, models, skipped = _run_experiment(observations, config, "combined")
    if not scores and skipped:
        raise SubjectTooSmallError("no subject had enough pooled observations")
    return scores, models, skipped


@dataclass(frozen=True)
class ComparisonRow:
    subject_id: str
    combined_error_pct: float
    average_error_pct: float
    joy_error_pct: float
    neutral_error_pct: float
    anger_error_pct: float
    separate_better: bool


def _errors_by_subject(separate_scores) -> dict[str, dict[str, float]]:
    """subject -> emotion -> relative error of the separate-emotion cells."""
    by_subject: dict[str, dict[str, float]] = {}
    for s in separate_scores:
        by_subject.setdefault(s.subject_id, {})[s.emotion] = s.relative_error_pct
    return by_subject


def compare_experiments(separate_scores, combined_scores) -> list[ComparisonRow]:
    """Per-subject combined vs separate errors, flagging separate-better."""
    sep_by_subject = _errors_by_subject(separate_scores)
    comb_by_subject = {s.subject_id: s.relative_error_pct for s in combined_scores}
    complete = {sid for sid, cells in sep_by_subject.items()
                if len(cells) == len(EMOTION_ORDER)}
    if complete != set(comb_by_subject):
        raise SubjectMismatchError(
            f"separate covers {sorted(complete)}, combined covers {sorted(comb_by_subject)}")
    rows = []
    for sid in sorted(complete):
        cells = sep_by_subject[sid]
        average = float(np.mean([cells[e.value] for e in EMOTION_ORDER]))
        rows.append(ComparisonRow(
            subject_id=sid,
            combined_error_pct=comb_by_subject[sid],
            average_error_pct=average,
            joy_error_pct=cells["joy"],
            neutral_error_pct=cells["neutral"],
            anger_error_pct=cells["anger"],
            separate_better=average < comb_by_subject[sid],
        ))
    return rows


def general_model_score(prediction_accuracy_pct: float,
                        classification_accuracy_pct: float) -> float:
    """Pipeline-level score: product of the two accuracies as a percent."""
    for v in (prediction_accuracy_pct, classification_accuracy_pct):
        if not 0.0 <= v <= 100.0:
            raise OutOfRangeError(f"accuracy {v} outside [0, 100]")
    return prediction_accuracy_pct * classification_accuracy_pct / 100.0


def _train_algo(algo: str, train, tree_config: TreeConfig):
    if algo == "cvr":
        return classify.train_cvr(train, tree_config)
    if algo == "gnb":
        return classify.train_gnb(train)
    if algo == "knn":
        return classify.train_knn(train)
    raise ValueError(f"unknown algorithm {algo!r}")


def classifier_matrix(vectors_by_subject: dict[str, list[LabeledVector]],
                      config: PipelineConfig, algorithms=ALGORITHMS):
    """Per-subject accuracy of each algorithm under the stratified split.

    Returns (matrix, subjects) with matrix[algo][subject] in percent.
    Each subject's train and test sets are stacked once for every algorithm.
    """
    subjects = sorted(vectors_by_subject)
    matrix: dict[str, dict[str, float]] = {a: {} for a in algorithms}
    for sid in subjects:
        train, test = map(classify.stack_vectors,
                          classify.split(vectors_by_subject[sid], config.split))
        for algo in algorithms:
            model = _train_algo(algo, train, config.tree)
            matrix[algo][sid] = classify.classification_accuracy(model, test)
    return matrix, subjects


@dataclass
class EvaluationReport:
    table_separate: list[CellScore]
    table_combined_vs_separate: list[ComparisonRow]
    classifier_matrix: dict[str, dict[str, float]]  # algo -> subject -> accuracy pct
    classifier_averages: dict[str, float]  # algo -> mean accuracy pct
    general_model_pct: float
    benchmark_model: LinearModel = field(default_factory=lambda: BENCHMARK_MODEL)


def build_report(observations, vectors_by_subject, config: PipelineConfig) -> EvaluationReport:
    """Run both regression experiments and the classifier sweep.

    Raises NothingToEvaluateError, with the rejected count per reason,
    when no observation survives the filter, and when there are no vectors.
    """
    kept, rejected = filter_observations(observations, config.filter_window)
    if not kept:
        counts = Counter(reason for _, reason in rejected)
        detail = ", ".join(f"{reason}: {n}" for reason, n in sorted(counts.items()))
        raise NothingToEvaluateError("no observation survived the filter: " + (
            f"all {len(rejected)} rejected ({detail})" if rejected else "there are none"))
    if not vectors_by_subject:
        raise NothingToEvaluateError("the embeddings hold no subject to classify")
    sep_scores, _, _ = run_experiment_separate(kept, config)
    comb_scores, _, _ = run_experiment_combined(kept, config)
    comparison = compare_experiments(sep_scores, comb_scores)
    matrix, _ = classifier_matrix(vectors_by_subject, config)
    averages = {a: float(np.mean(list(per_subj.values())))
                for a, per_subj in matrix.items()}
    prediction_accuracy = float(np.mean([s.accuracy_pct for s in sep_scores]))
    best_classification = max(averages.values())
    return EvaluationReport(
        table_separate=sep_scores,
        table_combined_vs_separate=comparison,
        classifier_matrix=matrix,
        classifier_averages=averages,
        general_model_pct=general_model_score(prediction_accuracy, best_classification),
    )


def round2(value: float) -> str:
    """Half-up rounding to 2 decimals, e.g. 97.356 -> '97.36'."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def render_report(report: EvaluationReport, outdir, models=None) -> list[Path]:
    """Write table1..table4 CSVs (2-decimal) and a full-precision summary.

    `models`, when given, is a list of `LinearModel` echoed into the
    summary under "models".
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def table(name, header, rows):
        written.append(outdir / name)
        write_table(outdir / name, header, rows)

    # Table 1: per-subject separate-emotion errors and accuracies.
    by_subject = _errors_by_subject(report.table_separate)
    rows = []
    for sid in sorted(by_subject):
        errs = [by_subject[sid].get(e.value, float("nan")) for e in EMOTION_ORDER]
        rows.append([sid] + [round2(v) for v in errs] + [round2(100.0 - v) for v in errs])
    table("table1_separate.csv", ["subject", "joy_err", "neutral_err", "anger_err",
                                  "joy_acc", "neutral_acc", "anger_acc"], rows)

    # Table 2: combined vs average-of-separate errors.
    table("table2_combined.csv",
          ["subject", "combined", "average", "joy", "neutral", "anger"],
          ([r.subject_id, round2(r.combined_error_pct), round2(r.average_error_pct),
            round2(r.joy_error_pct), round2(r.neutral_error_pct), round2(r.anger_error_pct)]
           for r in report.table_combined_vs_separate))

    # Table 3: per-subject classifier accuracies with footer rows.
    matrix = report.classifier_matrix
    subjects = sorted({sid for per in matrix.values() for sid in per})
    col_max = {sid: max(matrix[a][sid] for a in matrix) for sid in subjects}
    table("table3_classifiers.csv", ["classifier"] + subjects,
          [[algo] + [round2(matrix[algo][sid]) for sid in subjects] for algo in matrix]
          + [["max_accuracy"] + [round2(col_max[sid]) for sid in subjects],
             ["min_error"] + [round2(100.0 - col_max[sid]) for sid in subjects]])

    # Table 4: average classifier accuracy.
    table("table4_averages.csv", ["classifier", "average_accuracy"],
          ([algo, round2(avg)] for algo, avg in report.classifier_averages.items()))

    path = outdir / "summary.json"
    write_json(path, report if models is None else {**vars(report), "models": models})
    written.append(path)
    return written


def load_report(path) -> EvaluationReport:
    """The report of a summary.json; the models it may echo are not read back."""
    summary = read_json(path, dict)
    summary.pop("models", None)
    return decode_json(summary, EvaluationReport, path)
