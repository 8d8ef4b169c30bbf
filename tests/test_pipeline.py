import copy
import json
import math
import re

import numpy as np
import pytest

from make_outputs_sha256 import SPEC as GATE_SPEC
from oracles import classifier_matrix_loop
from voicehr.classify import SplitSpec, VectorSet
from voicehr.errors import CorruptJsonError, NothingToEvaluateError, OutOfRangeError
from voicehr.pipeline import (
    CellScore,
    FilterWindow,
    HoldoutSpec,
    PipelineConfig,
    build_report,
    classifier_matrix,
    compare_experiments,
    filter_observations,
    general_model_score,
    load_report,
    render_report,
    round2,
    run_experiment_combined,
    run_experiment_separate,
)
from voicehr.regression import Observation
from voicehr.extract import extract_observations
from voicehr.signal_io import EMOTION_ORDER, EmotionLabel, load_manifest, read_json
from voicehr.synth import generate_synthetic_corpus


def make_observations(lines, n_per_cell, noise_std, seed):
    """Fabricate observations from per-(subject, emotion) planted lines."""
    rng = np.random.default_rng(seed)
    out = []
    for (sid, emotion), (beta0, beta1, fd_lo, fd_hi) in lines.items():
        for take in range(n_per_cell):
            fd = float(rng.uniform(fd_lo, fd_hi))
            hr = beta0 + beta1 * fd + float(rng.normal(0.0, noise_std))
            out.append(Observation(subject_id=sid, emotion=emotion,
                                   feature_distance=fd, heart_rate_bpm=hr,
                                   take_index=take))
    return out


def line_grid(subjects, emotion_dependent=True):
    lines = {}
    for i, sid in enumerate(subjects):
        for j, emotion in enumerate(EMOTION_ORDER):
            if emotion_dependent:
                lines[(sid, emotion)] = (70.0 + 10.0 * j + i, 0.2 + 0.15 * j,
                                         2.0, 20.0)
            else:
                lines[(sid, emotion)] = (80.0 + i, 0.3, 2.0, 20.0)
    return lines


class TestFilterObservations:
    def obs(self, fd, hr):
        return Observation("s01", EmotionLabel.JOY, fd, hr)

    def test_keeps_good_row(self):
        kept, rejected = filter_observations([self.obs(10.0, 80.0)])
        assert len(kept) == 1 and not rejected

    def test_rejects_non_finite(self):
        for bad in (self.obs(float("nan"), 80.0), self.obs(10.0, float("inf"))):
            kept, rejected = filter_observations([bad])
            assert not kept and rejected[0][1] == "non_finite"

    def test_rejects_out_of_window(self):
        for hr in (25.0, 225.0):
            _, rejected = filter_observations([self.obs(10.0, hr)])
            assert rejected[0][1] == "hr_out_of_range"
        kept, _ = filter_observations([self.obs(10.0, 30.0), self.obs(10.0, 220.0)])
        assert len(kept) == 2  # window bounds are inclusive

    def test_rejects_negative_distance(self):
        _, rejected = filter_observations([self.obs(-0.1, 80.0)])
        assert rejected[0][1] == "negative_fd"

    def test_rejects_distance_too_large_to_fit(self):
        kept, rejected = filter_observations([self.obs(1e9, 80.0), self.obs(3.2e250, 80.0),
                                              self.obs(999999999.999999, 80.0)])
        assert [r for _, r in rejected] == ["fd_too_large", "fd_too_large"]
        assert [o.feature_distance for o in kept] == [999999999.999999]

    def test_custom_window(self):
        kept, _ = filter_observations([self.obs(1.0, 25.0)],
                                      FilterWindow(hr_min_bpm=20.0))
        assert len(kept) == 1

    def test_fuzzed_partition(self):
        rng = np.random.default_rng(71)
        rows = []
        for i in range(300):
            fd = float(rng.choice([rng.uniform(-5, 40), float("nan")]))
            hr = float(rng.choice([rng.uniform(10, 260), float("inf")]))
            rows.append(Observation(f"s{i % 4}", EMOTION_ORDER[i % 3], fd, hr))
        kept, rejected = filter_observations(rows)
        assert len(kept) + len(rejected) == len(rows)
        assert {r for _, r in rejected} <= {"non_finite", "hr_out_of_range",
                                            "negative_fd"}
        for obs in kept:
            assert math.isfinite(obs.feature_distance) and obs.feature_distance >= 0
            assert 30.0 <= obs.heart_rate_bpm <= 220.0


class TestRunExperiments:
    def test_noiseless_cells_near_exact(self):
        rows = make_observations(line_grid(["s01", "s02"]), 12, 0.0, seed=5)
        scores, models, skipped = run_experiment_separate(rows, PipelineConfig())
        assert not skipped and len(scores) == 6
        for score in scores:
            assert score.relative_error_pct < 1e-8
            assert score.n_train + score.n_test == 12
        for model in models:
            assert model.subject_id in ("s01", "s02")

    def test_small_cells_are_skipped(self):
        rows = make_observations({("s01", EmotionLabel.JOY): (80, 0.3, 2, 20)},
                                 3, 0.0, seed=6)
        # the undersized joy cell and the two empty cells leave no cell to fit
        with pytest.raises(NothingToEvaluateError, match="^no separate cell has the 4 "
                           "observations a fit needs: 3 skipped$"):
            run_experiment_separate(rows, PipelineConfig())
        with pytest.raises(NothingToEvaluateError, match="^no combined cell has the 4 "
                           "observations a fit needs: 1 skipped$"):
            run_experiment_combined(rows, PipelineConfig())

    def test_small_cell_is_listed_beside_the_fitted_ones(self):
        rows = [o for o in make_observations(line_grid(["s01", "s02"]), 6, 0.0, seed=6)
                if (o.subject_id, o.emotion) != ("s01", EmotionLabel.NEUTRAL) or o.take_index < 3]
        scores, models, skipped = run_experiment_separate(rows, PipelineConfig())
        assert len(scores) == len(models) == 5
        assert skipped == [("s01", "neutral", "s01/neutral: 3 observations")]
        scores, models, skipped = run_experiment_combined(rows, PipelineConfig())
        assert len(scores) == len(models) == 2 and not skipped

    def test_in_sample_holdout(self):
        rows = make_observations(line_grid(["s01"]), 10, 1.0, seed=7)
        config = PipelineConfig(holdout=HoldoutSpec(in_sample=True))
        scores, _, _ = run_experiment_separate(rows, config)
        for score in scores:
            assert score.n_train == score.n_test == 10

    def test_determinism(self):
        rows = make_observations(line_grid(["s01", "s02", "s03"]), 15, 2.0, seed=8)
        a = run_experiment_separate(rows, PipelineConfig())[0]
        b = run_experiment_separate(rows, PipelineConfig())[0]
        assert a == b

    def test_combined_pools_all_emotions(self):
        rows = make_observations(line_grid(["s01"]), 10, 0.0, seed=9)
        scores, models, _ = run_experiment_combined(rows, PipelineConfig())
        assert len(scores) == 1
        assert scores[0].emotion == "combined"
        assert scores[0].n_train + scores[0].n_test == 30
        assert models[0].emotion == "combined"

    def test_emotion_dependent_lines_favor_separate(self):
        rows = make_observations(line_grid(["s01", "s02"]), 30, 1.0, seed=10)
        config = PipelineConfig()
        sep = run_experiment_separate(rows, config)[0]
        comb = run_experiment_combined(rows, config)[0]
        for row in compare_experiments(sep, comb):
            assert row.separate_better


class TestCompareExperiments:
    def cell(self, sid, emotion, err):
        return CellScore(sid, emotion, err, 8, 2)

    def test_average_and_flag(self):
        sep = [self.cell("s01", "joy", 3.0), self.cell("s01", "neutral", 4.0),
               self.cell("s01", "anger", 5.0)]
        comb = [self.cell("s01", "combined", 6.0)]
        row, = compare_experiments(sep, comb)
        assert row.average_error_pct == pytest.approx(4.0)
        assert (row.joy_error_pct, row.neutral_error_pct, row.anger_error_pct) == (3, 4, 5)
        assert row.separate_better

    def test_combined_wins(self):
        sep = [self.cell("s01", e.value, 5.0) for e in EMOTION_ORDER]
        comb = [self.cell("s01", "combined", 2.0)]
        assert not compare_experiments(sep, comb)[0].separate_better

    def test_subject_mismatch(self):
        # s02 has no separate score and s03 lacks its anger score; s04 has
        # no combined score: only s01 has all four
        sep = [self.cell(sid, e.value, 5.0) for sid in ("s01", "s03", "s04")
               for e in EMOTION_ORDER if (sid, e) != ("s03", EmotionLabel.ANGER)]
        comb = [self.cell(sid, "combined", 2.0) for sid in ("s01", "s02", "s03")]
        assert [r.subject_id for r in compare_experiments(sep, comb)] == ["s01"]
        assert compare_experiments(sep, comb[1:]) == []

    def test_rows_sorted_by_subject(self):
        sep = [self.cell(sid, e.value, 5.0)
               for sid in ("s09", "s02") for e in EMOTION_ORDER]
        comb = [self.cell("s09", "combined", 2.0), self.cell("s02", "combined", 2.0)]
        assert [r.subject_id for r in compare_experiments(sep, comb)] == ["s02", "s09"]


class TestGeneralModelScore:
    def test_perfect(self):
        assert general_model_score(100.0, 100.0) == 100.0

    def test_ninety_by_sixty(self):
        assert general_model_score(90.0, 60.0) == pytest.approx(54.0)

    def test_commutative(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            a, b = rng.uniform(0, 100, 2)
            assert general_model_score(a, b) == pytest.approx(
                general_model_score(b, a), abs=1e-12)

    def test_bounded_by_min(self):
        for a in np.linspace(0, 100, 21):
            for b in np.linspace(0, 100, 21):
                assert general_model_score(a, b) <= min(a, b) + 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            general_model_score(-1.0, 50.0)
        with pytest.raises(OutOfRangeError):
            general_model_score(50.0, 100.5)


class TestRound2:
    def test_half_up(self):
        assert round2(97.356) == "97.36"
        assert round2(2.675) == "2.68"  # true half-up, not banker's
        assert round2(4.0) == "4.00"
        assert round2(61.180758) == "61.18"


@pytest.fixture(scope="module")
def rendered(tmp_path_factory, small_corpus_extracted):
    observations, vectors_by_subject, _ = small_corpus_extracted
    config = PipelineConfig()
    report = build_report(observations, vectors_by_subject, config)
    outdir = tmp_path_factory.mktemp("report")
    written = render_report(report, outdir)
    return report, outdir, written


class TestReport:
    def test_files_written(self, rendered):
        _, outdir, written = rendered
        assert [p.name for p in written] == [
            "table1_separate.csv", "table2_combined.csv",
            "table3_classifiers.csv", "table4_averages.csv", "summary.json"]

    def test_table_headers(self, rendered):
        _, outdir, _ = rendered
        first = {p.name: p.read_text().splitlines()[0]
                 for p in outdir.iterdir()}
        assert first["table1_separate.csv"] == (
            "subject,joy_err,neutral_err,anger_err,joy_acc,neutral_acc,anger_acc")
        assert first["table2_combined.csv"] == "subject,combined,average,joy,neutral,anger"
        assert first["table3_classifiers.csv"] == "classifier,s01,s02,s03"
        assert first["table4_averages.csv"] == "classifier,average_accuracy"

    def test_two_decimal_cells(self, rendered):
        _, outdir, _ = rendered
        for line in (outdir / "table2_combined.csv").read_text().splitlines()[1:]:
            for cell in line.split(",")[1:]:
                whole, frac = cell.split(".")
                assert len(frac) == 2

    def test_table3_footers(self, rendered):
        _, outdir, _ = rendered
        lines = (outdir / "table3_classifiers.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines] == [
            "classifier", "cvr", "gnb", "knn", "max_accuracy", "min_error"]
        body = {ln.split(",")[0]: [float(v) for v in ln.split(",")[1:]]
                for ln in lines[1:]}
        for j in range(3):
            col_max = max(body[a][j] for a in ("cvr", "gnb", "knn"))
            assert body["max_accuracy"][j] == pytest.approx(col_max)
            assert body["min_error"][j] == pytest.approx(100.0 - col_max, abs=0.01)

    def test_summary_round_trip(self, rendered):
        report, outdir, _ = rendered
        loaded = load_report(outdir / "summary.json")
        assert loaded.table_separate == report.table_separate
        assert loaded.table_combined_vs_separate == report.table_combined_vs_separate
        assert loaded.classifier_matrix == report.classifier_matrix
        assert loaded.general_model_pct == report.general_model_pct
        assert loaded.benchmark_model.beta0_hat == report.benchmark_model.beta0_hat

    def test_internal_consistency(self, rendered):
        report, _, _ = rendered
        for algo, per_subject in report.classifier_matrix.items():
            assert report.classifier_averages[algo] == pytest.approx(
                np.mean(list(per_subject.values())))
        prediction = float(np.mean([s.accuracy_pct for s in report.table_separate]))
        best = max(report.classifier_averages.values())
        assert report.general_model_pct == pytest.approx(
            general_model_score(prediction, best))
        for row in report.table_combined_vs_separate:
            assert row.average_error_pct == pytest.approx(np.mean(
                [row.joy_error_pct, row.neutral_error_pct, row.anger_error_pct]))
            assert row.separate_better == (
                row.average_error_pct < row.combined_error_pct)

    def test_summary_is_sorted_json(self, rendered):
        _, outdir, _ = rendered
        text = (outdir / "summary.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestConfig:
    def test_seed_propagates(self):
        config = PipelineConfig.from_dict({"seed": 9})
        assert config.holdout.seed == 9
        assert config.split.seed == 9

    def test_explicit_seed_wins(self):
        config = PipelineConfig.from_dict({"seed": 9, "holdout": {"seed": 4}})
        assert config.holdout.seed == 4

    def test_from_dict_leaves_input_unchanged(self):
        d = {"seed": 9, "holdout": {"test_fraction": 0.3}, "split": {}}
        before = copy.deepcopy(d)
        config = PipelineConfig.from_dict(d)
        assert d == before
        assert config.holdout.seed == 9
        assert config.split.seed == 9

    @pytest.mark.parametrize("d", [{"split": []}, {"holdout": 3}, {"split": None}])
    def test_section_that_is_not_an_object_is_reported(self, d):
        with pytest.raises(CorruptJsonError,
                           match="^config: (split|holdout): expected an object, got "):
            PipelineConfig.from_dict(d)

    def test_from_a_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"filter_window": {"hr_max_bpm": 200.0},
                                    "seed": 3}))
        config = PipelineConfig.from_dict(read_json(path, dict), path)
        assert config.filter_window.hr_max_bpm == 200.0
        assert config.split.seed == 3


class TestConfigRules:
    @pytest.mark.parametrize("hr_min, hr_max", [
        (float("nan"), 220.0), (30.0, float("nan")), (30.0, -5.0), (-1.0, 220.0),
        (100.0, 90.0), (30.0, float("inf")), (-float("inf"), 220.0)])
    def test_bad_filter_window(self, hr_min, hr_max):
        with pytest.raises(ValueError, match="^require 0 <= hr_min_bpm <= hr_max_bpm"):
            FilterWindow(hr_min_bpm=hr_min, hr_max_bpm=hr_max)

    @pytest.mark.parametrize("hr_min, hr_max", [(0.0, 0.0), (80.0, 80.0), (0.0, 1e300)])
    def test_filter_window_edges_accepted(self, hr_min, hr_max):
        window = FilterWindow(hr_min_bpm=hr_min, hr_max_bpm=hr_max)
        assert (window.hr_min_bpm, window.hr_max_bpm) == (hr_min, hr_max)

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), 0.0, 1.0, 1.5, -0.2])
    def test_bad_test_fraction(self, fraction):
        with pytest.raises(ValueError, match=r"^test_fraction must be in \(0, 1\)"):
            HoldoutSpec(test_fraction=fraction)

    @pytest.mark.parametrize("fraction", [5e-324, 0.5, 0.9999])
    def test_test_fraction_accepted(self, fraction):
        assert HoldoutSpec(test_fraction=fraction).test_fraction == fraction


@pytest.fixture(scope="module")
def noisy_gate_vectors(tmp_path_factory):
    """The byte gate corpus's vectors with seeded noise, doubled until no
    classifier scores 100 % on split seed 0 (it scores 100 % without noise)."""
    manifest_path, _ = generate_synthetic_corpus(GATE_SPEC, tmp_path_factory.mktemp("gate"))
    _, vectors_by_subject = extract_observations(load_manifest(manifest_path))
    spread = np.concatenate([vs.features for vs in vectors_by_subject.values()]).std(axis=0)
    for scale in 0.05 * 2.0 ** np.arange(8):
        rng = np.random.default_rng(11)
        noisy = {sid: VectorSet(vs.features + scale * spread * rng.normal(size=vs.features.shape),
                                vs.labels)
                 for sid, vs in vectors_by_subject.items()}
        matrix, _, _ = classifier_matrix(noisy, PipelineConfig())
        if all(acc < 100.0 for row in matrix.values() for acc in row.values()):
            return noisy
    raise AssertionError("every noise scale left a classifier at 100 %")


class TestClassifierMatrixAgainstOracle:
    """A flipped decision changes no byte of the gate corpus's 100 % matrix;
    on noisy vectors it changes an accuracy."""

    @pytest.mark.parametrize("split_seed", range(6))
    def test_matches_per_vector_models(self, noisy_gate_vectors, split_seed):
        config = PipelineConfig(split=SplitSpec(seed=split_seed))
        matrix, _, _ = classifier_matrix(noisy_gate_vectors, config)
        assert matrix == classifier_matrix_loop(noisy_gate_vectors, config)


class TestClassifierSubjectRule:
    """A subject whose split cannot train a requested classifier is skipped and listed."""

    def _vectors(self, blob_vectors):
        """s01 with 4 joy rows, s02 whole, s03 only its joy rows."""
        labels = blob_vectors.labels
        joy = [i for i, label in enumerate(labels) if label == EmotionLabel.JOY]
        few_joy = joy[:4] + [i for i, label in enumerate(labels) if label != EmotionLabel.JOY]

        def subset(rows):
            return VectorSet(blob_vectors.features[rows], tuple(labels[i] for i in rows))
        return {"s01": subset(sorted(few_joy)), "s02": blob_vectors, "s03": subset(joy)}

    def test_small_subjects_are_skipped(self, blob_vectors):
        vectors = self._vectors(blob_vectors)
        matrix, subjects, skipped = classifier_matrix(vectors, PipelineConfig())
        assert subjects == ["s02"]
        assert {algo: list(row) for algo, row in matrix.items()} == {
            "cvr": ["s02"], "gnb": ["s02"], "knn": ["s02"]}
        assert matrix == classifier_matrix(
            {"s02": blob_vectors}, PipelineConfig())[0]
        assert skipped == [("s01", "s01/cvr: class joy: 3 < 5 examples"),
                           ("s03", "s03/cvr: training data contains a single class")]

    def test_only_the_requested_algorithms_count(self, blob_vectors):
        # 3 joy rows to train on are enough for 1-NN and GNB
        _, subjects, skipped = classifier_matrix(self._vectors(blob_vectors), PipelineConfig(),
                                                 algorithms=("knn", "gnb"))
        assert subjects == ["s01", "s02"]
        assert skipped == [("s03", "s03/knn: training data contains a single class")]

    def test_no_subject_left(self, blob_vectors):
        vectors = self._vectors(blob_vectors)
        del vectors["s02"]
        with pytest.raises(NothingToEvaluateError, match=re.escape(
                "no subject has the examples every classifier needs: 2 skipped "
                "(s01/cvr: class joy: 3 < 5 examples)")):
            classifier_matrix(vectors, PipelineConfig())
