"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL verdict line (visible with -s or on
failure) and asserts the same condition, so the suite doubles as a
human-readable checklist.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from oracles import dft_filter_energies, ols_closed_form
from voicehr.classify import SplitSpec, classification_accuracy, split, train_cvr, \
    train_gnb, train_knn
from voicehr.ecg_hr import extract_heart_rate, heart_rate_1500
from voicehr.extract import extract_observations
from voicehr.pipeline import (
    BENCHMARK_MODEL,
    EvaluationReport,
    PipelineConfig,
    build_report,
    compare_experiments,
    classifier_matrix,
    filter_observations,
    general_model_score,
    load_report,
    render_report,
    round2,
    run_experiment_combined,
    run_experiment_separate,
)
from voicehr.regression import fit_ols, normal_coverage, predict, save_model, load_model
from voicehr.signal_io import load_manifest
from voicehr.speech_features import (
    FeatureConfig,
    frame_count,
    filterbank_energies,
    mel_filterbank,
    mfcc,
)
from voicehr.signal_io import AudioClip
from voicehr.synth import SynthSpec, generate_synthetic_corpus, synth_ecg

DATA_DIR = Path(__file__).parent / "data"


def verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} {detail}"


def run_corpus(spec: SynthSpec, outdir):
    """Generate, extract and score one corpus; returns everything timed."""
    t0 = time.perf_counter()
    manifest_path, ledger = generate_synthetic_corpus(spec, outdir)
    observations, vectors = extract_observations(load_manifest(manifest_path))
    kept, _ = filter_observations(observations)
    config = PipelineConfig()
    separate, _, skipped = run_experiment_separate(kept, config)
    combined, _, _ = run_experiment_combined(kept, config)
    comparison = compare_experiments(separate, combined)
    elapsed = time.perf_counter() - t0
    assert not skipped
    return {"separate": separate, "comparison": comparison, "vectors": vectors,
            "observations": observations, "elapsed_s": elapsed}


@pytest.fixture(scope="module")
def full_noisy_run(tmp_path_factory):
    """The full-scale corpus: 15 subjects x 3 emotions x 90 takes."""
    spec = SynthSpec(seed=2024)
    return run_corpus(spec, tmp_path_factory.mktemp("full_noisy"))


@pytest.fixture(scope="module")
def noiseless_run(tmp_path_factory):
    spec = SynthSpec(n_subjects=15, takes_per_emotion=12, noise_std_bpm=0.0, seed=77)
    return run_corpus(spec, tmp_path_factory.mktemp("noiseless"))


@pytest.fixture(scope="module")
def homogeneous_run(tmp_path_factory):
    spec = SynthSpec(n_subjects=15, takes_per_emotion=30, noise_std_bpm=3.0,
                     homogeneous=True, seed=501)
    return run_corpus(spec, tmp_path_factory.mktemp("homogeneous"))


class TestAcceptance:
    def test_01_ols_oracle_equivalence(self):
        rng = np.random.default_rng(314)
        datasets = []
        for _ in range(1000):
            n = int(rng.integers(2, 501))
            x = rng.uniform(-100.0, 100.0, n)
            while np.ptp(x) == 0.0:
                x = rng.uniform(-100.0, 100.0, n)
            datasets.append((x, rng.uniform(-200.0, 200.0, n)))
        t0 = time.perf_counter()
        models = [fit_ols(list(zip(x, y))) for x, y in datasets]
        elapsed = time.perf_counter() - t0
        worst = 0.0
        for model, (x, y) in zip(models, datasets):
            beta0, beta1 = ols_closed_form(x, y)
            worst = max(worst,
                        abs(model.beta0_hat - beta0) / max(abs(beta0), 1e-30),
                        abs(model.beta1_hat - beta1) / max(abs(beta1), 1e-30))
        verdict("criterion 1 (OLS oracle equivalence)",
                worst < 1e-10 and elapsed < 5.0,
                f"worst rel dev {worst:.2e}, {elapsed:.2f}s")

    def test_02_benchmark_coefficient_fixture(self, tmp_path):
        save_model(BENCHMARK_MODEL, tmp_path / "benchmark.json")
        stored = load_model(tmp_path / "benchmark.json")
        exact = predict(stored, 100.0) == 106.131
        report = EvaluationReport(table_separate=[], table_combined_vs_separate=[],
                                  classifier_matrix={}, classifier_averages={},
                                  general_model_pct=0.0)
        render_report(report, tmp_path / "report")
        echoed = load_report(tmp_path / "report" / "summary.json").benchmark_model
        three_dp = (round(echoed.beta0_hat, 3) == 97.031
                    and round(echoed.beta1_hat, 3) == 0.091)
        verdict("criterion 2 (benchmark coefficient fixture)", exact and three_dp)

    def test_03_fifteen_hundred_rule(self):
        rr = np.arange(0.3, 2.0 + 1e-9, 0.001)
        worst = max(abs(heart_rate_1500(r) - 60.0 / r) for r in rr)
        record, _ = synth_ecg(75.0, 250.0, 30.0, phase_s=0.2)
        bpm = extract_heart_rate(record).bpm
        verdict("criterion 3 (1500 rule)",
                worst <= 1e-12 and abs(bpm - 75.0) <= 0.5,
                f"worst dev {worst:.1e}, end-to-end {bpm:.3f} bpm")

    def test_04_mfcc_oracle(self):
        rng = np.random.default_rng(2718)
        fft_size, rate = 512, 16000.0
        fb = mel_filterbank(26, fft_size, rate)
        frames = rng.normal(0.0, 0.3, (100, 400))
        fast = filterbank_energies(frames, fb, fft_size)
        slow = dft_filter_energies(frames, fb, fft_size)
        mask = slow > 1e-12
        energies_ok = np.max(np.abs(fast[mask] - slow[mask]) / slow[mask]) < 1e-9
        zero = mfcc(AudioClip(np.zeros(8000), rate), FeatureConfig())
        zero_ok = np.max(np.abs(zero.frames[:, 1:])) < 1e-9
        counts_ok = True
        for _ in range(1000):
            frame = int(rng.integers(1, 100))
            hop = int(rng.integers(1, frame + 1))
            n = int(rng.integers(frame, 3000))
            counts_ok &= frame_count(n, frame, hop) == len(
                range(0, n - frame + 1, hop))
        verdict("criterion 4 (MFCC oracle)", energies_ok and zero_ok and counts_ok)

    def test_05_planted_relation_recovery(self, full_noisy_run, noiseless_run):
        noisy_cells = full_noisy_run["separate"]
        noisy_ok = (len(noisy_cells) == 45
                    and all(c.accuracy_pct >= 90.0 for c in noisy_cells))
        runtime_ok = full_noisy_run["elapsed_s"] <= 120.0
        clean_cells = noiseless_run["separate"]
        clean_ok = (len(clean_cells) == 45
                    and all(c.relative_error_pct <= 0.5 for c in clean_cells))
        verdict("criterion 5 (planted relation recovery)",
                noisy_ok and runtime_ok and clean_ok,
                f"worst noisy acc {min(c.accuracy_pct for c in noisy_cells):.2f}%, "
                f"worst clean err {max(c.relative_error_pct for c in clean_cells):.3f}%, "
                f"{full_noisy_run['elapsed_s']:.0f}s")

    def test_06_separate_beats_combined(self, full_noisy_run, homogeneous_run,
                                        tmp_path):
        rows = full_noisy_run["comparison"]
        all_flagged = len(rows) == 15 and all(r.separate_better for r in rows)
        flags = sum(r.separate_better for r in homogeneous_run["comparison"])
        p_value = stats.binomtest(flags, 15, 0.5).pvalue
        report = EvaluationReport(table_separate=[], table_combined_vs_separate=rows,
                                  classifier_matrix={}, classifier_averages={},
                                  general_model_pct=0.0)
        render_report(report, tmp_path)
        golden = (DATA_DIR / "table2_golden.csv").read_bytes()
        layout_ok = (tmp_path / "table2_combined.csv").read_bytes() == golden
        verdict("criterion 6 (separate beats combined)",
                all_flagged and p_value > 0.01 and layout_ok,
                f"null flags {flags}/15 (p={p_value:.3f})")

    def test_07_classifier_sanity(self, blob_vectors, tmp_path):
        train, test = split(blob_vectors, SplitSpec(train_fraction=0.66, seed=7))
        accuracies = {
            "cvr": classification_accuracy(train_cvr(train), test),
            "gnb": classification_accuracy(train_gnb(train), test),
            "knn": classification_accuracy(train_knn(train), test),
        }
        accuracy_ok = all(v >= 95.0 for v in accuracies.values())
        config = PipelineConfig.from_dict({"seed": 5})
        vectors = {"s01": blob_vectors}
        matrix_a, subjects, _ = classifier_matrix(vectors, config)
        matrix_b, _, _ = classifier_matrix(vectors, config)
        deterministic = matrix_a == matrix_b
        report = EvaluationReport(table_separate=[], table_combined_vs_separate=[],
                                  classifier_matrix=matrix_a,
                                  classifier_averages={a: np.mean(list(m.values()))
                                                       for a, m in matrix_a.items()},
                                  general_model_pct=0.0)
        render_report(report, tmp_path)
        lines = (tmp_path / "table3_classifiers.csv").read_text().splitlines()
        shape_ok = ([ln.split(",")[0] for ln in lines]
                    == ["classifier", "cvr", "gnb", "knn", "max_accuracy", "min_error"]
                    and lines[0] == "classifier," + ",".join(subjects))
        verdict("criterion 7 (classifier sanity)",
                accuracy_ok and deterministic and shape_ok,
                ", ".join(f"{a} {v:.1f}%" for a, v in accuracies.items()))

    def test_08_general_model_arithmetic(self):
        score = general_model_score(95.58, 64.01)
        # full-precision product; 61.18 is its 2-decimal rendering
        fixture_ok = (abs(score - 95.58 * 64.01 / 100.0) < 1e-10
                      and round2(score) == "61.18")
        grid = np.linspace(0.0, 100.0, 101)
        props_ok = True
        for a in grid:
            for b in grid:
                s = general_model_score(a, b)
                props_ok &= abs(s - general_model_score(b, a)) < 1e-12
                props_ok &= s <= min(a, b) + 1e-12
        verdict("criterion 8 (general model arithmetic)", fixture_ok and props_ok,
                f"score {score:.6f}")

    def test_09_normal_coverage(self):
        rng = np.random.default_rng(90210)
        f1, f2, f3 = normal_coverage(rng.normal(72.0, 9.0, 100_000))
        ok = (abs(f1 - 0.6827) <= 0.01 and abs(f2 - 0.9545) <= 0.005
              and abs(f3 - 0.9973) <= 0.003)
        verdict("criterion 9 (normal coverage)", ok,
                f"{f1:.4f}/{f2:.4f}/{f3:.4f}")

    def test_10_determinism(self, tmp_path):
        spec = SynthSpec(n_subjects=3, takes_per_emotion=12, noise_std_bpm=1.0,
                         seed=404)
        reports = []
        for run in ("a", "b"):
            manifest_path, _ = generate_synthetic_corpus(spec, tmp_path / run)
            observations, vectors = extract_observations(load_manifest(manifest_path))
            report = build_report(observations, vectors, PipelineConfig())
            outdir = tmp_path / f"report_{run}"
            render_report(report, outdir)
            reports.append(outdir)
        names = sorted(p.name for p in reports[0].iterdir())
        identical = (names == sorted(p.name for p in reports[1].iterdir())
                     and all((reports[0] / n).read_bytes()
                             == (reports[1] / n).read_bytes() for n in names))
        verdict("criterion 10 (determinism)", identical,
                f"{len(names)} files compared")
