import dataclasses
import gc
import json
import os
import pickle
import re
import shutil
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from voicehr import cli, errors, pipeline
from voicehr.cli import (
    EXIT_CONVERGENCE,
    EXIT_DATA,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from voicehr.classify import read_embeddings_csv
from voicehr.signal_io import EMOTION_ORDER


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
        ('{"feature": {"n_cepstra": 0}}', "feature"),
        ('{"feature": {"fft_size": -1}}', "feature"),
        ('{"feature": {"fft_size": 1099511627776}}', "feature"),
        ('{"feature": {"pre_emphasis": NaN}}', "feature"),
        ('{"feature": {"pre_emphasis": 1e300}}', "feature"),
        ('{"feature": {"frame_length_s": Infinity}}', "feature"),
        ('{"feature": {"log_floor": Infinity}}', "feature"),
        ('{"feature": {"log_floor": 1e300}}', "feature"),
        ('{"split": {"seed": -1}}', "split"),
        ('{"holdout": {"seed": -1}}', "holdout"),
        ('{"seed": -1}', None),
    ], ids=["unknown_nested_key", "array_section", "array_config", "string_seed",
            "null_seed", "invalid_value", "bad_syntax", "nan_threshold_fraction",
            "infinite_threshold_fraction", "negative_threshold_fraction",
            "nan_median_window", "negative_refractory", "negative_integration_window",
            "zero_min_signal", "zero_band_low", "inverted_band", "infinite_band_high",
            "nan_hr_min", "negative_hr_max", "inverted_window", "infinite_hr_max",
            "nan_test_fraction", "test_fraction_above_one", "zero_test_fraction",
            "zero_min_leaf", "negative_max_depth", "zero_cepstra", "negative_fft_size",
            "huge_fft_size", "nan_pre_emphasis", "huge_pre_emphasis", "infinite_frame_length",
            "infinite_log_floor", "huge_log_floor",
            "negative_split_seed", "negative_holdout_seed", "negative_seed"])
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
        assert f"{ecg}: EcgRecord: non-finite sample values" in capsys.readouterr().err

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
        assert f"{ecg}: EcgRecord: non-finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("damage", ["short clip", "corrupt WAV", "zero WAV rate",
                                        "flat ECG", "non-finite ECG", "zero ECG rate",
                                        "bad ECG header"])
    def test_every_stage_names_a_file_as_the_manifest_joins_it(self, workspace, tmp_path,
                                                              capsys, damage):
        # the loaders, the record checks, `mfcc` and the detector all name
        # a take's file by its joined path, "./" and "//" kept
        from voicehr.signal_io import AudioClip, write_audio

        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        manifest = broken / "manifest.csv"
        text = manifest.read_text()
        manifest.write_text(text.replace(",audio/", ",./audio//").replace(",ecg/", ",./ecg//"))
        wav = os.path.join(broken.resolve(), "./audio//s01_joy_002.wav")
        ecg = os.path.join(broken.resolve(), "./ecg//s01_joy_002.csv")
        # the record checks name the record's class after the file
        named = {"short clip": wav, "corrupt WAV": wav, "zero WAV rate": f"{wav}: AudioClip",
                 "flat ECG": ecg, "non-finite ECG": f"{ecg}: EcgRecord",
                 "zero ECG rate": f"{ecg}: EcgRecord", "bad ECG header": ecg}[damage]
        if damage == "short clip":
            write_audio(AudioClip(np.zeros(10), 16000.0), wav)
        elif damage == "corrupt WAV":
            with open(wav, "r+b") as fh:
                fh.truncate(20)
        elif damage == "zero WAV rate":
            with open(wav, "r+b") as fh:  # the fmt chunk's sample rate field
                fh.seek(24)
                fh.write((0).to_bytes(4, "little"))
        elif damage == "flat ECG":
            _blank_ecg(Path(ecg))
        elif damage == "non-finite ECG":
            Path(ecg).write_text("# rate_hz=250\n" + "nan\n" * 2500)
        elif damage == "zero ECG rate":
            Path(ecg).write_text("# rate_hz=0\n" + "0.0\n" * 2500)
        else:
            Path(ecg).write_text("rate=250\n" + "0.0\n" * 2500)
        assert main(["extract", "--manifest", str(manifest),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {named}: ")

    def test_band_edge_below_float_resolution(self, workspace, tmp_path):
        # 5e-324 Hz is 0.0 of the Nyquist rate at 250 Hz, and detects as 1e-300 Hz does
        _, corpus, _ = workspace
        features = {}
        for low in ("5e-324", "1e-300"):
            config = tmp_path / f"config_{low}.json"
            config.write_text(f'{{"peak": {{"band_low_hz": {low}}}}}')
            features[low] = tmp_path / f"features_{low}.csv"
            assert main(["extract", "--manifest", str(corpus / "manifest.csv"),
                         "--config", str(config), "--out", str(features[low])]) == EXIT_OK
        assert features["5e-324"].read_bytes() == features["1e-300"].read_bytes()

    def test_high_band_edge_below_float_resolution(self, workspace, tmp_path, capsys):
        # 1e-322 Hz is 0.0 of the Nyquist rate at 250 Hz: the band passes
        # nothing, and the first take is a data error, not a traceback
        _, corpus, _ = workspace
        config = tmp_path / "config.json"
        config.write_text('{"peak": {"band_low_hz": 5e-324, "band_high_hz": 1e-322}}')
        assert main(["extract", "--manifest", str(corpus / "manifest.csv"),
                     "--config", str(config), "--out", str(tmp_path / "f.csv")]) == EXIT_DATA
        assert capsys.readouterr().err.endswith(": flat signal: empty envelope\n")

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
        from voicehr.extract import _extract_slice
        from voicehr.signal_io import load_manifest

        _, corpus, _ = workspace
        entry = load_manifest(corpus / "manifest.csv")[0]
        ecg = tmp_path / "flat.csv"
        _blank_ecg(ecg)
        with pytest.raises(NoPeaksFoundError) as raised:
            _extract_slice([dataclasses.replace(entry, ecg_path=str(ecg))])
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

    def test_no_row_left_by_the_filter_is_named(self, workspace, tmp_path, capsys):
        _, _, features = workspace
        header, *rows = features.read_text().splitlines()
        copy = _write_lines(tmp_path / "features.csv",
                            [header] + [row.rsplit(",", 1)[0] + ",500.0" for row in rows])
        assert main(["fit", "--features", str(copy), "--out", str(tmp_path / "m")]) == EXIT_DATA
        assert capsys.readouterr().err == (f"error: {copy}: no observation survived the "
                                           "filter: all 72 rejected (hr_out_of_range: 72)\n")


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
        matrix, subjects, _ = pipeline.classifier_matrix(
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
        source = tmp_path / "features_embeddings.csv" if emptied == "embeddings" else copy
        assert capsys.readouterr().err == f"error: {source}: {message}\n"

    def test_classify_names_empty_embeddings(self, workspace, tmp_path, capsys):
        _, _, features = workspace
        copy = _write_lines(tmp_path / "features.csv", features.read_text().splitlines())
        header = features.with_name("features_embeddings.csv").read_text().splitlines()[:1]
        empty = _write_lines(tmp_path / "features_embeddings.csv", header)
        assert main(["classify", "--features", str(copy)]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {empty}: the embeddings hold no subject to classify\n"


@pytest.fixture(scope="module")
def two_subjects(tmp_path_factory):
    """The features and embeddings CSVs of 2 subjects × 3 emotions × 8 takes."""
    root = tmp_path_factory.mktemp("cells")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps({"n_subjects": 2, "takes_per_emotion": 8, "seed": 2024}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(root / "corpus")]) == EXIT_OK
    assert main(["extract", "--manifest", str(root / "corpus" / "manifest.csv"),
                 "--out", str(root / "features.csv")]) == EXIT_OK
    return root / "features.csv"


def _first_rows(table, rows_left):
    """The lines of `table` that keep the first `rows_left[(subject, emotion)]` rows
    of each cell the dict names."""
    header, *rows = table.read_text().splitlines()
    seen = Counter()
    kept = []
    for row in rows:
        cell = tuple(row.split(",")[:2])
        seen[cell] += 1
        if seen[cell] <= rows_left.get(cell, len(rows)):
            kept.append(row)
    return [header] + kept


def _cut_cells(features, tmp_path, rows_left):
    """A copy of `features`, cut by `_first_rows`, beside a copy of its embeddings."""
    shutil.copy(features.with_name("features_embeddings.csv"),
                tmp_path / "features_embeddings.csv")
    return _write_lines(tmp_path / "features.csv", _first_rows(features, rows_left))


def _cut_embeddings(features, tmp_path, rows_left):
    """A copy of `features` beside a copy of its embeddings, cut by `_first_rows`."""
    _write_lines(tmp_path / "features_embeddings.csv",
                 _first_rows(features.with_name("features_embeddings.csv"), rows_left))
    return shutil.copy(features, tmp_path / "features.csv")


class TestCellRule:
    """A cell under 4 rows is skipped; no cell left to fit is a data error."""

    def test_report_skips_one_small_cell(self, two_subjects, tmp_path):
        features = _cut_cells(two_subjects, tmp_path, {("s01", "neutral"): 3})
        out = tmp_path / "r"
        assert main(["report", "--features", str(features), "--out", str(out)]) == EXIT_OK
        table1 = [line.split(",") for line in
                  (out / "table1_separate.csv").read_text().splitlines()[1:]]
        # s01's neutral_err and neutral_acc, and no other value
        assert [(row[0], i) for row in table1 for i, value in enumerate(row)
                if value == "NaN"] == [("s01", 2), ("s01", 5)]
        table2 = (out / "table2_combined.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in table2] == ["s02"]

    @pytest.mark.parametrize("verb, rows_left, message", [
        (["fit", "--mode", "separate"], 3, "no separate cell has the 4 observations a fit "
         "needs: 6 skipped"),
        # 3 rows a subject
        (["fit", "--mode", "combined"], 1, "no combined cell has the 4 observations a fit "
         "needs: 2 skipped"),
        (["report"], 3, "no separate cell has the 4 observations a fit needs: 6 skipped"),
    ], ids=["fit-separate", "fit-combined", "report"])
    def test_no_cell_left_is_a_data_error(self, two_subjects, tmp_path, capsys,
                                          verb, rows_left, message):
        features = _cut_cells(two_subjects, tmp_path, {
            (sid, e.value): rows_left for sid in ("s01", "s02") for e in EMOTION_ORDER})
        out = tmp_path / "out"
        assert main(verb + ["--features", str(features), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr() == ("", f"error: {features}: {message}\n")
        assert not out.exists()


class TestClassifierSubjectRule:
    """A subject whose split cannot train a requested classifier is left out of the
    sweep; no subject left is a data error."""

    def test_report_skips_a_subject_with_few_examples(self, two_subjects, tmp_path):
        features = _cut_embeddings(two_subjects, tmp_path, {("s01", "joy"): 4})
        out = tmp_path / "r"
        assert main(["report", "--features", str(features), "--out", str(out)]) == EXIT_OK
        assert (out / "table3_classifiers.csv").read_text().splitlines()[0] == "classifier,s02"
        table1 = (out / "table1_separate.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in table1] == ["s01", "s02"]

    @pytest.mark.parametrize("algo, subjects", [("cvr", "s02"), ("gnb", "s01,s02"),
                                                ("knn", "s01,s02")])
    def test_classify_needs_only_its_algorithm(self, two_subjects, tmp_path, capsys,
                                               algo, subjects):
        # s01 keeps 3 joy rows to train on: enough for GNB and 1-NN, not for CVR;
        # a subject left out is named on stderr
        features = _cut_embeddings(two_subjects, tmp_path, {("s01", "joy"): 4})
        assert main(["classify", "--features", str(features), "--algo", algo]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == f"classifier,{subjects}"
        assert err == ("skipped s01/cvr: class joy: 3 < 5 examples\n" if algo == "cvr" else "")

    @pytest.mark.parametrize("verb", [["report", "--out", "r"], ["classify"]])
    def test_no_subject_left_is_a_data_error(self, two_subjects, tmp_path, capsys, verb):
        features = _cut_embeddings(two_subjects, tmp_path,
                                   {("s01", "joy"): 4, ("s02", "joy"): 4})
        verb = [str(tmp_path / arg) if arg == "r" else arg for arg in verb]
        assert main(verb + ["--features", str(features)]) == EXIT_DATA
        assert capsys.readouterr() == ("", (
            f"error: {tmp_path / 'features_embeddings.csv'}: no subject has the examples "
            "every classifier needs: 2 skipped (s01/cvr: class joy: 3 < 5 examples)\n"))


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


def _broken_ecg(text):
    """A case: the workspace corpus with one ECG file replaced by `text`, run through extract."""
    def build(workspace, tmp_path):
        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        ecg = broken.resolve() / "ecg" / "s01_joy_002.csv"
        ecg.write_text(text)
        return ["extract", "--manifest", str(broken / "manifest.csv"),
                "--out", str(tmp_path / "f.csv")], str(ecg)
    return build


def _bad_spec(payload):
    """A case: synth with a spec of one subject and take, changed by `payload`."""
    def build(workspace, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_subjects": 1, "takes_per_emotion": 1,
                                         "ecg_duration_s": 4.0, **payload}))
        return ["synth", "--spec", str(spec_path), "--out", str(tmp_path / "c")], str(spec_path)
    return build


def _long_wav(n_samples):
    """A case: extract, under a 1-sample hop, of one take whose WAV holds `n_samples` zeros.

    Frames of 400 samples, each a 512-point FFT, make n - 399 frames:
    8591 samples fill the frame block and 8592 pass it.
    """
    def build(workspace, tmp_path):
        from voicehr.signal_io import AudioClip, write_audio

        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        wav = broken.resolve() / "audio" / "s01_joy_000.wav"
        write_audio(AudioClip(np.zeros(n_samples), 16000.0), wav)
        rows = (broken / "manifest.csv").read_text().splitlines()
        _write_lines(broken / "manifest.csv", [rows[0], rows[1]])
        (tmp_path / "config.json").write_text('{"feature": {"hop_length_s": 1e-6}}')
        return ["extract", "--manifest", str(broken / "manifest.csv"), "--config",
                str(tmp_path / "config.json"), "--out", str(tmp_path / "f.csv")], str(wav)
    return build


def _fd_nan(workspace, tmp_path):
    from voicehr.regression import LinearModel, save_model

    path = tmp_path / "m.json"
    save_model(LinearModel(97.031, 0.091, 10, 1.0, 1.0, 0.0), path)
    return ["predict", "--model", str(path), "--fd", "nan"], "--fd"


def _path_with_line_break(workspace, tmp_path):
    _, corpus, _ = workspace
    broken = tmp_path / "corpus"
    shutil.copytree(corpus, broken)
    manifest = broken / "manifest.csv"
    lines = manifest.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ',"ecg/gone\n.csv"'
    _write_lines(manifest, lines)
    return ["extract", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")], \
        str(manifest)


def _infinite_embedding(workspace, tmp_path):
    _, _, features = workspace
    copy = tmp_path / "features.csv"
    shutil.copy(features, copy)
    lines = features.with_name("features_embeddings.csv").read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",inf"
    broken = _write_lines(tmp_path / "features_embeddings.csv", lines)
    return ["classify", "--features", str(copy)], str(broken)


def _header_quote_left_open(workspace, tmp_path):
    # the rest of the file becomes one header field, longer than csv's field limit
    path = tmp_path / "features.csv"
    path.write_text('"subject_id' + "\ns01,joy,1,1.0,70.0" * 10000 + "\n")
    return ["fit", "--features", str(path), "--out", str(tmp_path / "models")], str(path)


class TestExitClass:
    """The exit class is the error type's; a fault's one `error:` line names its file."""

    @pytest.mark.parametrize("build, code, text", [
        (_broken_ecg("# rate_hz=1\n0.1\n0.2\n0.3\n"), EXIT_DATA,
         "need > 15 ECG samples for the band-pass filter, got 3"),
        (_broken_ecg("# rate_hz=nan\n" + "0.1\n" * 1000), EXIT_DATA,
         "sample_rate_hz must be a finite number > 0, got nan"),
        (_broken_ecg("time_s,mv\n" + "".join(f"{i / 250:.6f},0.1\n" for i in range(1000))),
         EXIT_DATA, "unrecognized header 'time_s,mv'"),
        (_fd_nan, EXIT_VALIDATION, "must be a finite number >= 0, got nan"),
        (_bad_spec({"audio_rate_hz": 0}), EXIT_VALIDATION, "audio_rate_hz must be"),
        (_bad_spec({"audio_rate_hz": float("nan")}), EXIT_VALIDATION, "audio_rate_hz must be"),
        (_bad_spec({"utterance_s": 0}), EXIT_VALIDATION, "utterance_s must be"),
        (_bad_spec({"feature": {"fft_size": -1}}), EXIT_VALIDATION, "feature: fft_size must be"),
        (_bad_spec({"feature": {"fft_size": 2 ** 40}}), EXIT_VALIDATION,
         "feature: fft_size must be"),
        (_bad_spec({"noise_std_bpm": float("nan")}), EXIT_VALIDATION, "noise_std_bpm must be"),
        (_bad_spec({"feature": {"n_cepstra": 0}}), EXIT_VALIDATION,
         "feature: n_cepstra must be"),
        (_bad_spec({"feature": {"n_cepstra": -3}}), EXIT_VALIDATION,
         "feature: n_cepstra must be"),
        (_bad_spec({"feature": {"pre_emphasis": float("nan")}}), EXIT_VALIDATION,
         "feature: pre_emphasis must be"),
        (_bad_spec({"feature": {"pre_emphasis": 1e300}}), EXIT_VALIDATION,
         "feature: pre_emphasis must be"),
        (_bad_spec({"feature": {"log_floor": 1e300}}), EXIT_VALIDATION,
         "feature: log_floor must be"),
        (_bad_spec({"ecg_duration_s": float("inf")}), EXIT_VALIDATION,
         "ecg_duration_s must be"),
        (_bad_spec({"feature": {"frame_length_s": float("inf")}}), EXIT_VALIDATION,
         "feature: require 0 < hop <= frame length, both finite"),
        (_bad_spec({"max_fd_iterations": 0}), EXIT_VALIDATION, "max_fd_iterations must be"),
        (_bad_spec({"audio_rate_hz": 1e-300}), EXIT_VALIDATION, "utterance_s must hold one sample"),
        (_bad_spec({"audio_rate_hz": 16000.4}), EXIT_VALIDATION,
         "audio_rate_hz must be a whole number of Hz"),
        (_bad_spec({"utterance_s": 1e6}), EXIT_VALIDATION,
         "utterance_s must hold at most 1048576 samples"),
        (_bad_spec({"ecg_rate_hz": 1e-6, "ecg_duration_s": 1e12}), EXIT_VALIDATION,
         "ecg_duration_s must hold at most 65536 beats"),
        (_bad_spec({"utterance_s": 60, "feature": {"hop_length_s": 1e-6}}), EXIT_VALIDATION,
         "utterance_s must hold at most 4194304 frames x FFT size"),
        (_long_wav(8592), EXIT_DATA, "clip of 8592 samples must make at most 4194304 frames "
         "x FFT size with this feature config, got 8193 x 512"),
        (_header_quote_left_open, EXIT_DATA, "field larger than field limit"),
        (_path_with_line_break, EXIT_DATA, "referenced file missing: "),
        (_infinite_embedding, EXIT_DATA, "a feature value is not finite"),
    ], ids=["ecg_shorter_than_filter_padding", "ecg_nan_rate", "ecg_timestamped", "fd_nan",
            "zero_audio_rate", "nan_audio_rate", "zero_utterance", "negative_fft_size",
            "huge_fft_size", "nan_noise", "zero_cepstra", "negative_cepstra", "nan_pre_emphasis",
            "huge_pre_emphasis", "huge_log_floor",
            "infinite_ecg_duration", "infinite_frame_length", "zero_fd_iterations",
            "no_audio_sample", "fractional_audio_rate", "audio_too_long", "ecg_too_many_beats",
            "frame_block_too_large",
            "wav_past_frame_block", "header_quote_left_open", "path_with_line_break", "infinite_embedding"])
    def test_fault_exits_in_its_class(self, workspace, tmp_path, capsys, build, code, text):
        argv, named = build(workspace, tmp_path)
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert named in err and text in err
        if code == EXIT_VALIDATION:  # the file, then the key
            assert err.startswith(f"error: {named}: {text}" if named != "--fd"
                                  else f"error: --fd {text}")
        assert not (tmp_path / "c").exists()

    def test_wav_at_the_frame_block_bound_extracts(self, workspace, tmp_path, capsys):
        argv, _ = _long_wav(8591)(workspace, tmp_path)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_stray_value_error_is_a_traceback(self, tmp_path, monkeypatch):
        from voicehr.regression import LinearModel, save_model

        def stray(model, fd):
            raise ValueError("stray")

        path = tmp_path / "m.json"
        save_model(LinearModel(97.031, 0.091, 10, 1.0, 1.0, 0.0), path)
        monkeypatch.setattr(cli, "predict", stray)
        with pytest.raises(ValueError, match="^stray$"):
            main(["predict", "--model", str(path), "--fd", "1"])

    def test_every_error_type_keeps_its_class(self):
        types = [value for value in vars(errors).values()
                 if isinstance(value, type) and issubclass(value, errors.VoicehrError)]
        assert len(types) == 28
        special = {errors.ConvergenceFailureError: EXIT_CONVERGENCE,
                   errors.SpecInvalidError: EXIT_VALIDATION,
                   errors.CorruptJsonError: EXIT_VALIDATION}
        assert {t: t.exit_code for t in types} == {t: special.get(t, EXIT_DATA) for t in types}


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    """A 24-take corpus with every file a verb reads: features, embeddings, config, models.

    Eight takes per emotion leave the tree classifier the five training
    examples per class it needs.
    """
    from voicehr.signal_io import write_json

    root = tmp_path_factory.mktemp("damage").resolve()
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps({"n_subjects": 1, "takes_per_emotion": 8,
                                     "ecg_duration_s": 4.0, "seed": 5}))
    write_json(root / "config.json", pipeline.PipelineConfig())
    assert main(["synth", "--spec", str(spec_path), "--out", str(root / "corpus")]) == EXIT_OK
    assert main(["extract", "--manifest", str(root / "corpus" / "manifest.csv"),
                 "--out", str(root / "features.csv")]) == EXIT_OK
    assert main(["fit", "--features", str(root / "features.csv"),
                 "--out", str(root / "models")]) == EXIT_OK
    (root / "out").mkdir()
    for verb in ("classify", "report"):
        assert main(_argv(root, verb, root / "out")) == EXIT_OK
    return root


# The verbs that read each kind of input
READERS = {"wav": ["extract"], "ecg": ["extract"], "manifest": ["extract"],
           "features": ["fit", "report"], "embeddings": ["classify", "report"],
           "config": ["extract", "fit", "classify", "report"], "model": ["predict", "report"]}


def _damaged_file(root, kind, take):
    stem = f"s01_{['joy', 'neutral', 'anger'][take % 3]}_{take // 3:03d}"
    return root / {"wav": f"corpus/audio/{stem}.wav", "ecg": f"corpus/ecg/{stem}.csv",
                   "manifest": "corpus/manifest.csv", "features": "features.csv",
                   "embeddings": "features_embeddings.csv", "config": "config.json",
                   "model": "models/s01_joy.json"}[kind]


def _damage(data: bytes, op: str, at: int, byte: int) -> bytes:
    """`data` after one change `op` at offset `at` (taken modulo the length)."""
    at %= len(data) + 1
    if op == "truncate":
        return data[:at]
    if op == "insert":
        return data[:at] + bytes([byte]) + data[at:]
    if op == "empty":
        return b""
    if op == "crlf":
        return data.replace(b"\n", b"\r\n")
    at = min(at, len(data) - 1)
    if op == "delete":
        return data[:at] + data[at + 1:]
    return data[:at] + bytes([byte]) + data[at + 1:]  # replace


def _argv(root, verb, out):
    config = ["--config", str(root / "config.json")]
    features = ["--features", str(root / "features.csv")]
    return {"extract": ["extract", "--manifest", str(root / "corpus" / "manifest.csv"), *config,
                        "--out", str(out / "f.csv")],
            "fit": ["fit", *features, *config, "--out", str(out / "models")],
            "classify": ["classify", *features, *config, "--out", str(out / "m.csv")],
            "report": ["report", *features, "--models", str(root / "models"), *config,
                       "--out", str(out / "r")],
            "predict": ["predict", "--model", str(root / "models" / "s01_joy.json"),
                        "--fd", "5"]}[verb]


class TestDamagedInputs:
    """One byte-level change to one input never ends a verb in a traceback."""

    # capsys is read before and after each example
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), kind=st.sampled_from(sorted(READERS)),
           op=st.sampled_from(["replace", "insert", "delete", "truncate", "empty", "crlf"]),
           at=st.integers(min_value=0, max_value=1 << 16), byte=st.integers(0, 255),
           take=st.integers(0, 23))
    def test_one_error_line_in_the_documented_class(self, small_store, tmp_path_factory,
                                                    capsys, data, kind, op, at, byte, take):
        verb = data.draw(st.sampled_from(READERS[kind]), label="verb")
        path = _damaged_file(small_store, kind, take)
        original = path.read_bytes()
        path.write_bytes(_damage(original, op, at, byte))
        capsys.readouterr()
        try:
            code = main(_argv(small_store, verb, tmp_path_factory.mktemp("out")))
        finally:
            path.write_bytes(original)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_DATA, EXIT_CONVERGENCE)
        if code == EXIT_OK:
            # on success only `classify` writes to stderr: one documented
            # `skipped <subject>/<algo>: <reason>` line for each subject it
            # leaves out, as a damaged subject id can make one
            algo = "|".join(map(re.escape, pipeline.ALGORITHMS))
            skipped = rf"(skipped .+/({algo}): .+\n)*"
            assert err == "" or (verb == "classify" and re.fullmatch(skipped, err)), err
            return
        assert err.count("\n") == 1 and err.startswith("error: ")
        if code == EXIT_VALIDATION:
            assert kind == "config" and err.startswith(f"error: {path}: ")
        if code == EXIT_DATA:  # a changed config names the input it rejects
            assert str(small_store if kind == "config" else path) in err
