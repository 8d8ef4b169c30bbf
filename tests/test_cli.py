import dataclasses
import gc
import json
import os
import pickle
import shutil
import warnings

import numpy as np
import pytest

from voicehr import pipeline
from voicehr.cli import (
    EXIT_CONVERGENCE,
    EXIT_DATA,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from voicehr.extract import read_embeddings_csv


# A model file as the store wrote it before it kept s_xx and s_xy
MODEL = {"subject_id": "s01", "emotion": "joy", "beta0": 70.0, "beta1": 0.1, "n": 4,
         "residual_std": 1.0}


def _blank_ecg(path):
    """An all-zero 10 s ECG record at 250 Hz: its envelope is empty."""
    path.write_text("# rate_hz=250\n" + "0.000000\n" * 2500)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus taken through the whole CLI chain once."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps({
        "n_subjects": 2, "takes_per_emotion": 12, "noise_std_bpm": 1.0,
        "ecg_duration_s": 4.0, "seed": 11}))
    corpus = root / "corpus"
    features = root / "features.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(corpus)]) == EXIT_OK
    assert main(["extract", "--manifest", str(corpus / "manifest.csv"),
                 "--out", str(features)]) == EXIT_OK
    return root, corpus, features


class TestSynth:
    def test_outputs(self, workspace):
        _, corpus, _ = workspace
        assert (corpus / "manifest.csv").is_file()
        assert (corpus / "ledger.csv").is_file()
        assert len(list((corpus / "audio").glob("*.wav"))) == 72

    def test_seed_override(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_subjects": 1, "takes_per_emotion": 1, "ecg_duration_s": 4.0}))
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "c"), "--seed", "5"]) == EXIT_OK
        assert "wrote 3 takes" in capsys.readouterr().out

    def test_invalid_spec_exit_code(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"n_subjects": 0}))
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "c")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("text, key", [
        ('{"bogus": 1}', "bogus"),
        ('{"noise_std_bpm": "3"}', "noise_std_bpm"),
        ('{"n_subjects": true}', "n_subjects"),
        ('{"seed": "5"}', "seed"),
        ('{"feature": {"n_cepstra": 2.5}}', "feature.n_cepstra"),
        ('{"seed": 5', None),
    ], ids=["unknown_key", "string_float", "bool_int", "string_int", "nested_float_int",
            "bad_syntax"])
    def test_malformed_spec_is_validation_error(self, tmp_path, capsys, text, key):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "c")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"error: {spec_path}: {key}: " if key else f"error: {spec_path}: ")
        assert not (tmp_path / "c").exists()

    def test_convergence_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "tight.json"
        spec_path.write_text(json.dumps({
            "n_subjects": 1, "takes_per_emotion": 1, "ecg_duration_s": 4.0,
            "fd_tolerance": 1e-6, "max_fd_iterations": 1}))
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "c")]) == EXIT_CONVERGENCE
        assert capsys.readouterr().err.startswith("error: take s01_joy_000: ")


class TestMalformedConfig:
    """A config that is not JSON or does not fit PipelineConfig exits 2 naming the file."""

    @pytest.mark.parametrize("verb", ["extract", "fit", "classify", "report"])
    @pytest.mark.parametrize("text, key", [
        ('{"feature": {"bogus": 1}}', "feature.bogus"),
        ('{"feature": [1, 2]}', "feature"),
        ('[1, 2]', None),
        ('{"seed": "5"}', "seed"),
        ('{"holdout": {"seed": null}}', "holdout.seed"),
        ('{"split": {"train_fraction": 1.5}}', "split"),
        ('{"seed": 5,}', None),
        ('{"peak": {"threshold_fraction": NaN}}', "peak"),
        ('{"peak": {"threshold_fraction": Infinity}}', "peak"),
        ('{"peak": {"threshold_fraction": -0.5}}', "peak"),
        ('{"peak": {"median_window_s": NaN}}', "peak"),
        ('{"peak": {"refractory_s": -1}}', "peak"),
        ('{"peak": {"integration_window_s": -1}}', "peak"),
        ('{"peak": {"min_signal_s": 0}}', "peak"),
        ('{"peak": {"band_low_hz": 0}}', "peak"),
        ('{"peak": {"band_low_hz": 20, "band_high_hz": 15}}', "peak"),
        ('{"peak": {"band_high_hz": Infinity}}', "peak"),
        ('{"filter_window": {"hr_min_bpm": NaN}}', "filter_window"),
        ('{"filter_window": {"hr_max_bpm": -5}}', "filter_window"),
        ('{"filter_window": {"hr_min_bpm": 100, "hr_max_bpm": 90}}', "filter_window"),
        ('{"filter_window": {"hr_max_bpm": Infinity}}', "filter_window"),
        ('{"holdout": {"test_fraction": NaN}}', "holdout"),
        ('{"holdout": {"test_fraction": 1.5}}', "holdout"),
        ('{"holdout": {"test_fraction": 0}}', "holdout"),
        ('{"tree": {"min_leaf": 0}}', "tree"),
        ('{"tree": {"max_depth": -3}}', "tree"),
    ], ids=["unknown_nested_key", "array_section", "array_config", "string_seed",
            "null_seed", "invalid_value", "bad_syntax", "nan_threshold_fraction",
            "infinite_threshold_fraction", "negative_threshold_fraction",
            "nan_median_window", "negative_refractory", "negative_integration_window",
            "zero_min_signal", "zero_band_low", "inverted_band", "infinite_band_high",
            "nan_hr_min", "negative_hr_max", "inverted_window", "infinite_hr_max",
            "nan_test_fraction", "test_fraction_above_one", "zero_test_fraction",
            "zero_min_leaf", "negative_max_depth"])
    def test_exit_code(self, workspace, tmp_path, capsys, verb, text, key):
        _, corpus, features = workspace
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        source = (["--manifest", str(corpus / "manifest.csv")] if verb == "extract"
                  else ["--features", str(features)])
        assert main([verb, *source, "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"error: {config_path}: {key}: " if key else f"error: {config_path}: ")
        assert not (tmp_path / "out").exists()


class TestExtract:
    def test_features_and_embeddings(self, workspace):
        _, _, features = workspace
        lines = features.read_text().splitlines()
        assert lines[0] == "subject_id,emotion,take_index,feature_distance,heart_rate_bpm"
        assert len(lines) == 1 + 72
        sibling = features.with_name("features_embeddings.csv")
        assert sibling.is_file()
        header = sibling.read_text().splitlines()[0].split(",")
        assert header[:2] == ["subject_id", "emotion"]
        assert header[-1] == "fd"

    def test_missing_manifest_exit_code(self, tmp_path):
        assert main(["extract", "--manifest", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_DATA

    def test_nan_ecg_sample_is_data_error(self, workspace, tmp_path, capsys):
        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        ecg = sorted((broken / "ecg").glob("*.csv"))[0]
        lines = ecg.read_text().splitlines()
        lines[2] = "nan"
        ecg.write_text("\n".join(lines) + "\n")
        assert main(["extract", "--manifest", str(broken / "manifest.csv"),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_DATA
        assert f"EcgRecord {ecg}: non-finite sample values" in capsys.readouterr().err

    def test_non_utf8_ecg_byte_is_data_error(self, workspace, tmp_path, capsys):
        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        ecg = sorted((broken / "ecg").glob("*.csv"))[0]
        lines = ecg.read_bytes().split(b"\n")
        lines[2] = b"0.1\xff"
        ecg.write_bytes(b"\n".join(lines))
        assert main(["extract", "--manifest", str(broken / "manifest.csv"),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_DATA
        assert f"{ecg}:3: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_earlier_bad_ecg_is_reported_before_later_bad_wav(self, workspace, tmp_path,
                                                              capsys):
        # each take reads its WAV and then its ECG, so take order decides
        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        ecg = broken / "ecg" / "s01_joy_001.csv"
        ecg.write_text(ecg.read_text().replace("\n", "\nnan\n", 1))
        (broken / "audio" / "s01_joy_005.wav").write_bytes(b"RIFF")
        assert main(["extract", "--manifest", str(broken / "manifest.csv"),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_DATA
        assert f"EcgRecord {ecg}: non-finite" in capsys.readouterr().err

    def test_flat_ecg_names_its_file(self, workspace, tmp_path, capsys):
        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        ecg = broken.resolve() / "ecg" / "s01_joy_003.csv"
        _blank_ecg(ecg)
        assert main(["extract", "--manifest", str(broken / "manifest.csv"),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {ecg}: flat signal: empty envelope\n"

    def test_short_clip_names_its_file(self, workspace, tmp_path, capsys):
        from voicehr.signal_io import AudioClip, write_audio

        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        wav = broken.resolve() / "audio" / "s02_anger_007.wav"
        write_audio(AudioClip(np.zeros(10), 16000.0), wav)
        assert main(["extract", "--manifest", str(broken / "manifest.csv"),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {wav}: ")

    def test_first_failing_take_names_its_file_when_shared(self, workspace, tmp_path, capsys,
                                                           monkeypatch):
        # 144 takes, above MIN_SHARED_TAKES: the child takes jobs from the
        # head, the caller from the tail, and each meets a flat ECG
        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        rows = (broken / "manifest.csv").read_text().splitlines()
        first, last = broken.resolve() / "ecg" / "first.csv", broken.resolve() / "ecg" / "last.csv"
        lines = [rows[0]]
        for copy in range(2):
            for row in rows[1:]:
                subject, emotion, take, audio, ecg = row.split(",")
                lines.append(",".join([subject, emotion, str(int(take) + 100 * copy),
                                       audio, ecg]))
        lines[3] = lines[3].rsplit(",", 1)[0] + ",ecg/first.csv"
        lines[-2] = lines[-2].rsplit(",", 1)[0] + ",ecg/last.csv"
        for path in (first, last):
            _blank_ecg(path)
        (broken / "manifest.csv").write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(["extract", "--manifest", str(broken / "manifest.csv"),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {first}: flat signal: empty envelope\n"

    def test_named_error_pickles_as_its_class(self, workspace, tmp_path):
        from voicehr.errors import NoPeaksFoundError
        from voicehr.extract import extract_take
        from voicehr.signal_io import load_manifest

        _, corpus, _ = workspace
        entry = load_manifest(corpus / "manifest.csv").entries[0]
        ecg = tmp_path / "flat.csv"
        _blank_ecg(ecg)
        with pytest.raises(NoPeaksFoundError) as raised:
            extract_take(dataclasses.replace(entry, ecg_path=str(ecg)))
        copy = pickle.loads(pickle.dumps(raised.value))
        assert type(copy) is NoPeaksFoundError
        assert str(copy) == str(raised.value) == f"{ecg}: flat signal: empty envelope"

    def test_cepstra_dump(self, workspace, tmp_path):
        _, corpus, _ = workspace
        dump = tmp_path / "cepstra"
        assert main(["extract", "--manifest", str(corpus / "manifest.csv"),
                     "--out", str(tmp_path / "f.csv"),
                     "--cepstra-dir", str(dump)]) == EXIT_OK
        files = sorted(dump.glob("*.csv"))
        assert len(files) == 72
        first_row = files[0].read_text().splitlines()[0].split(",")
        assert len(first_row) == 13


class TestFit:
    def test_separate_store(self, workspace):
        root, _, features = workspace
        store = root / "models"
        assert main(["fit", "--features", str(features),
                     "--out", str(store)]) == EXIT_OK
        names = sorted(p.name for p in store.glob("*.json"))
        assert names == ["s01_anger.json", "s01_joy.json", "s01_neutral.json",
                         "s02_anger.json", "s02_joy.json", "s02_neutral.json"]
        model = json.loads((store / "s01_joy.json").read_text())
        assert set(model) == {"subject_id", "emotion", "beta0", "beta1", "n",
                              "s_xx", "s_xy", "residual_std"}

    def test_combined_store(self, workspace, tmp_path):
        _, _, features = workspace
        store = tmp_path / "models"
        assert main(["fit", "--features", str(features), "--mode", "combined",
                     "--out", str(store)]) == EXIT_OK
        assert sorted(p.name for p in store.glob("*.json")) == [
            "s01_combined.json", "s02_combined.json"]

    def test_one_row_cell_is_skipped(self, workspace, tmp_path, capsys):
        _, _, features = workspace
        header, *rows = features.read_text().splitlines()
        s01_anger = [r for r in rows if r.startswith("s01,anger,")]
        kept = [r for r in rows if r not in s01_anger[1:]]
        sparse = tmp_path / "sparse.csv"
        sparse.write_text("\n".join([header] + kept) + "\n")
        store = tmp_path / "models"
        assert main(["fit", "--features", str(sparse), "--out", str(store)]) == EXIT_OK
        assert "s01_anger.json" not in {p.name for p in store.glob("*.json")}
        assert len(list(store.glob("*.json"))) == 5
        assert "1 cells skipped" in capsys.readouterr().out


class TestClassify:
    def test_matrix_csv(self, workspace, tmp_path):
        _, _, features = workspace
        out = tmp_path / "matrix.csv"
        assert main(["classify", "--features", str(features), "--algo", "knn",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "classifier,s01,s02"
        assert lines[1].split(",")[0] == "knn"

    def test_out_file_closed(self, workspace, tmp_path):
        _, _, features = workspace
        out = tmp_path / "matrix.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["classify", "--features", str(features), "--algo", "gnb",
                         "--out", str(out)]) == EXIT_OK
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert out.read_text().startswith("classifier,s01,s02\ngnb,")

    def test_stdout_default(self, workspace, capsys):
        _, _, features = workspace
        assert main(["classify", "--features", str(features)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("classifier,s01,s02\ncvr,")

    def test_config_reaches_the_matrix(self, workspace, tmp_path, capsys):
        _, _, features = workspace
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "split": {"train_fraction": 0.5, "seed": 3}, "tree": {"max_depth": 0}}))
        assert main(["classify", "--features", str(features)]) == EXIT_OK
        default_row = capsys.readouterr().out.splitlines()[1]
        assert main(["classify", "--features", str(features),
                     "--config", str(config_path)]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1]
        matrix, subjects = pipeline.classifier_matrix(
            read_embeddings_csv(features.with_name("features_embeddings.csv")),
            pipeline.PipelineConfig.from_dict(json.loads(config_path.read_text())),
            algorithms=("cvr",))
        assert row == ",".join(["cvr"] + [pipeline.round2(matrix["cvr"][s]) for s in subjects])
        assert row != default_row


class TestReport:
    def test_full_report(self, workspace):
        root, _, features = workspace
        out = root / "report"
        assert main(["report", "--features", str(features),
                     "--models", str(root / "models"),
                     "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "summary.json", "table1_separate.csv", "table2_combined.csv",
            "table3_classifiers.csv", "table4_averages.csv"]
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["models"]) == 6
        assert 0.0 <= summary["general_model_pct"] <= 100.0

    @pytest.mark.parametrize("verb", ["report", "classify"])
    def test_missing_embeddings_exit_code(self, workspace, tmp_path, capsys, verb):
        _, _, features = workspace
        orphan = tmp_path / "orphan.csv"
        orphan.write_text(features.read_text())
        assert main([verb, "--features", str(orphan),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "orphan_embeddings.csv" in err and "run extract first" in err

    @pytest.mark.parametrize("emptied, message", [
        ("hr_500", "no observation survived the filter: all 72 rejected (hr_out_of_range: 72)"),
        ("features", "no observation survived the filter: there are none"),
        ("embeddings", "the embeddings hold no subject to classify"),
    ])
    def test_nothing_to_evaluate_is_named(self, workspace, tmp_path, capsys, emptied, message):
        _, _, features = workspace
        tables = {"features": features.read_text().splitlines(),
                  "embeddings": features.with_name("features_embeddings.csv")
                  .read_text().splitlines()}
        if emptied == "hr_500":
            tables["features"][1:] = [row.rsplit(",", 1)[0] + ",500.0"
                                      for row in tables["features"][1:]]
        else:
            del tables[emptied][1:]
        copy = _write_lines(tmp_path / "features.csv", tables["features"])
        _write_lines(tmp_path / "features_embeddings.csv", tables["embeddings"])
        # a numpy RuntimeWarning would be an error here (pyproject filterwarnings)
        assert main(["report", "--features", str(copy),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"


# Edits that break a copied table; lines[2] is the file's line 3.
def _drop_last_field(lines):
    lines[2] = lines[2].rsplit(",", 1)[0]


def _bad_last_field(lines):
    lines[2] = lines[2].rsplit(",", 1)[0] + ",seventy"


def _rename_last_column(lines):
    lines[0] = lines[0].rsplit(",", 1)[0] + ",renamed"


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestMalformedTables:
    """A malformed table is a data error naming the file, and the line for a row."""

    @pytest.mark.parametrize("verb", ["fit", "report"])
    @pytest.mark.parametrize("edit, where", [
        (_bad_last_field, ":3: could not convert string to float: 'seventy'"),
        (_rename_last_column, ": expected header subject_id,"),
        (_drop_last_field, ":3: expected 5 fields, got 4"),
    ], ids=["bad_float", "renamed_column", "short_row"])
    def test_features(self, workspace, tmp_path, capsys, verb, edit, where):
        _, _, features = workspace
        shutil.copy(features.with_name("features_embeddings.csv"), tmp_path)
        lines = features.read_text().splitlines()
        edit(lines)
        broken = _write_lines(tmp_path / "features.csv", lines)
        assert main([verb, "--features", str(broken),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {broken}{where}")

    @pytest.mark.parametrize("edit, where", [
        (_bad_last_field, ":3: could not convert string to float: 'seventy'"),
        (_drop_last_field, ":3: expected 16 fields, got 15"),
    ], ids=["bad_cell", "short_row"])
    def test_embeddings(self, workspace, tmp_path, capsys, edit, where):
        _, _, features = workspace
        copy = tmp_path / "features.csv"
        shutil.copy(features, copy)
        lines = features.with_name("features_embeddings.csv").read_text().splitlines()
        edit(lines)
        broken = _write_lines(tmp_path / "features_embeddings.csv", lines)
        assert main(["classify", "--features", str(copy)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {broken}{where}")

    def test_undecodable_byte_names_its_line(self, tmp_path, capsys):
        # line 3001 lies far past the first chunk a text reader decodes
        lines = [b"subject_id,emotion,take_index,feature_distance,heart_rate_bpm"]
        lines += [b"s01,joy,%d,1.0,70.0" % i for i in range(3000)]
        lines[3000] = b"s01,joy,2999,1.0,\xff70.0"
        broken = tmp_path / "features.csv"
        broken.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["fit", "--features", str(broken),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"error: {broken}:3001: 'utf-8' codec can't decode byte 0xff")

    def test_manifest_short_row(self, workspace, tmp_path, capsys):
        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        manifest = broken / "manifest.csv"
        lines = manifest.read_text().splitlines()
        _drop_last_field(lines)
        _write_lines(manifest, lines)
        assert main(["extract", "--manifest", str(manifest),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}:3: expected 5 fields, got 4")


class TestPredict:
    def test_prints_prediction(self, workspace, capsys, tmp_path):
        from voicehr.regression import LinearModel, save_model

        path = tmp_path / "m.json"
        save_model(LinearModel(97.031, 0.091, 10, 1.0, 1.0, 0.0), path)
        assert main(["predict", "--model", str(path), "--fd", "100"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "106.131"

    @pytest.mark.parametrize("fd", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_fd_is_validated(self, tmp_path, capsys, fd):
        from voicehr.regression import LinearModel, save_model

        path = tmp_path / "m.json"
        save_model(LinearModel(97.031, 0.091, 10, 1.0, 1.0, 0.0), path)
        assert main(["predict", "--model", str(path), f"--fd={fd}"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --fd must be a finite number >= 0, got {float(fd)}\n"

    def test_missing_model_exit_code(self, tmp_path):
        assert main(["predict", "--model", str(tmp_path / "nope.json"),
                     "--fd", "1"]) == EXIT_DATA

    @pytest.mark.parametrize("payload, key", [
        ({"subject_id": "s01", "emotion": "joy", "beta1": 0.1, "n": 4, "residual_std": 1.0},
         "beta0"),
        ({"subject_id": "s01", "emotion": "joy", "beta0": "ninety", "beta1": 0.1, "n": 4,
          "residual_std": 1.0}, "beta0"),
        ({**MODEL, "n": 3.9}, "n"),
        ({**MODEL, "n": "7"}, "n"),
        ({**MODEL, "n": True}, "n"),
        ({**MODEL, "subject_id": 5}, "subject_id"),
        ({**MODEL, "emotion": None}, "emotion"),
        ({**MODEL, "beta0_hat": 70.0}, "beta0_hat"),
        ([MODEL], None),
    ], ids=["missing_beta0", "non_numeric_beta0", "fractional_n", "string_n", "bool_n",
            "numeric_subject_id", "null_emotion", "unknown_key", "array"])
    def test_malformed_model_is_data_error(self, workspace, tmp_path, capsys, payload, key):
        _, _, features = workspace
        store = tmp_path / "models"
        store.mkdir()
        path = store / "s01_joy.json"
        path.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(path), "--fd", "1"]) == EXIT_DATA
        assert main(["report", "--features", str(features), "--models", str(store),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count(str(path)) == 2
        assert err.count(f"error: {path}: {key}: " if key else f"error: {path}: ") == 2
