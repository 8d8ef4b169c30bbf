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
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from . import classify
from .classify import VectorSet
from .config import FilterWindow, HoldoutSpec, PipelineConfig
from .errors import (
    NothingToEvaluateError,
    OutOfRangeError,
    SingleClassError,
    TooFewExamplesError,
    named,
)
from .regression import LinearModel, fit_ols, predict, relative_error
from .signal_io import EMOTION_ORDER, VALUE_LIMIT, decode_json, read_json, write_json, write_table

# name -> trainer(train, tree_config); each looks its `classify` function
# up at call time, so a wrapper patched onto that name sees the call
ALGORITHMS = {
    "cvr": lambda train, tree_config: classify.train_cvr(train, tree_config),
    "gnb": lambda train, tree_config: classify.train_gnb(train),
    "knn": lambda train, tree_config: classify.train_knn(train),
}

# the fewest rows of a cell that a fit and its holdout split need
MIN_CELL_ROWS = 4

# Reference model echoed by the report renderer; its coefficients come
# from the published study this pipeline benchmarks against.
BENCHMARK_MODEL = LinearModel(
    beta0_hat=97.031, beta1_hat=0.091, n=0, s_xx=0.0, s_xy=0.0,
    residual_std=0.0, subject_id="s01", emotion="joy")


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
        elif obs.feature_distance >= VALUE_LIMIT:  # its square would overflow in a fit
            rejected.append((obs, "fd_too_large"))
        else:
            kept.append(obs)
    return kept, rejected


def kept_observations(rows, window: FilterWindow):
    """(kept, rejected) as `filter_observations` splits them; NothingToEvaluateError,
    with the rejected count per reason, when no row is kept."""
    kept, rejected = filter_observations(rows, window)
    if not kept:
        counts = Counter(reason for _, reason in rejected)
        detail = ", ".join(f"{reason}: {n}" for reason, n in sorted(counts.items()))
        raise NothingToEvaluateError("no observation survived the filter: " + (
            f"all {len(rejected)} rejected ({detail})" if rejected else "there are none"))
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
    """The one rule for a cell: fewer than MIN_CELL_ROWS rows is skipped.

    Returns (scores, models, skipped), skipped holding (subject, tag,
    reason) triples. NothingToEvaluateError is raised when no cell is
    left to fit.
    """
    scores, models, skipped = [], [], []
    for subject_id, tag, rows in _cells(observations, mode):
        if len(rows) < MIN_CELL_ROWS:
            skipped.append((subject_id, tag, f"{subject_id}/{tag}: {len(rows)} observations"))
            continue
        model, score = _score_cell(rows, config.holdout, subject_id, tag)
        models.append(model)
        scores.append(score)
    if not scores:
        raise NothingToEvaluateError(
            f"no {mode} cell has the {MIN_CELL_ROWS} observations a fit needs: "
            f"{len(skipped)} skipped")
    return scores, models, skipped


def run_experiment_separate(observations, config: PipelineConfig):
    """Per-(subject, emotion) regression scores; see `_run_experiment`."""
    return _run_experiment(observations, config, "separate")


def run_experiment_combined(observations, config: PipelineConfig):
    """Per-subject regression scores with all three emotions pooled."""
    return _run_experiment(observations, config, "combined")


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
    """Per-subject combined vs separate errors, flagging separate-better.

    Only a subject with a combined score and all three separate scores
    is compared.
    """
    sep_by_subject = _errors_by_subject(separate_scores)
    comb_by_subject = {s.subject_id: s.relative_error_pct for s in combined_scores}
    complete = {sid for sid, cells in sep_by_subject.items()
                if len(cells) == len(EMOTION_ORDER)}
    rows = []
    for sid in sorted(complete & comb_by_subject.keys()):
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


def classifier_matrix(vectors_by_subject: dict[str, VectorSet],
                      config: PipelineConfig, algorithms=ALGORITHMS):
    """Per-subject accuracy of each algorithm under the stratified split.

    The one rule for a subject: one whose training split cannot train
    every algorithm of `algorithms` (too few examples of a class, or a
    single class) is skipped. Returns (matrix, subjects, skipped) with
    matrix[algo][subject] in percent for each subject left, and skipped
    holding (subject, reason) pairs. NothingToEvaluateError is raised
    when no subject is left.
    """
    if not vectors_by_subject:
        raise NothingToEvaluateError("the embeddings hold no subject to classify")
    matrix: dict[str, dict[str, float]] = {a: {} for a in algorithms}
    subjects, skipped = [], []
    for sid in sorted(vectors_by_subject):
        train, test = classify.split(vectors_by_subject[sid], config.split)
        models = {}
        try:
            for algo in algorithms:
                models[algo] = ALGORITHMS[algo](train, config.tree)
        except (TooFewExamplesError, SingleClassError) as exc:
            skipped.append((sid, f"{sid}/{algo}: {exc}"))
            continue
        subjects.append(sid)
        for algo, model in models.items():
            matrix[algo][sid] = classify.classification_accuracy(model, test)
    if not subjects:
        raise NothingToEvaluateError(
            f"no subject has the examples every classifier needs: {len(skipped)} skipped "
            f"({skipped[0][1]})")
    return matrix, subjects, skipped


@dataclass
class EvaluationReport:
    table_separate: list[CellScore]
    table_combined_vs_separate: list[ComparisonRow]
    classifier_matrix: dict[str, dict[str, float]]  # algo -> subject -> accuracy pct
    classifier_averages: dict[str, float]  # algo -> mean accuracy pct
    general_model_pct: float
    benchmark_model: LinearModel = field(default_factory=lambda: BENCHMARK_MODEL)


def build_report(observations, vectors_by_subject, config: PipelineConfig,
                 sources=("observations", "vectors")) -> EvaluationReport:
    """Run the classifier sweep and both regression experiments.

    An error is prefixed with the name of the input it comes from:
    `sources[0]` for the observations, `sources[1]` for the vectors.
    NothingToEvaluateError is raised when there are no vectors, when no
    observation survives the filter and when an experiment has no cell
    left to fit.
    """
    observations_source, vectors_source = sources
    with named(vectors_source):
        matrix, _, _ = classifier_matrix(vectors_by_subject, config)
    averages = {a: float(np.mean(list(per_subj.values())))
                for a, per_subj in matrix.items()}
    # a classification accuracy lies in [0, 100]; a prediction accuracy need not
    with named(observations_source):
        kept, _ = kept_observations(observations, config.filter_window)
        sep_scores, _, _ = run_experiment_separate(kept, config)
        comb_scores, _, _ = run_experiment_combined(kept, config)
        comparison = compare_experiments(sep_scores, comb_scores)
        prediction_accuracy = float(np.mean([s.accuracy_pct for s in sep_scores]))
        general = general_model_score(prediction_accuracy, max(averages.values()))
    return EvaluationReport(
        table_separate=sep_scores,
        table_combined_vs_separate=comparison,
        classifier_matrix=matrix,
        classifier_averages=averages,
        general_model_pct=general,
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
