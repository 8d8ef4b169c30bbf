import gc
import json
import shutil
import warnings

import pytest

from voicehr.cli import (
    EXIT_CONVERGENCE,
    EXIT_DATA,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


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

    def test_convergence_exit_code(self, tmp_path):
        spec_path = tmp_path / "tight.json"
        spec_path.write_text(json.dumps({
            "n_subjects": 1, "takes_per_emotion": 1, "ecg_duration_s": 4.0,
            "fd_tolerance": 1e-6, "max_fd_iterations": 1}))
        assert main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "c")]) == EXIT_CONVERGENCE


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

    def test_nan_ecg_sample_is_data_error(self, workspace, tmp_path):
        _, corpus, _ = workspace
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        ecg = sorted((broken / "ecg").glob("*.csv"))[0]
        lines = ecg.read_text().splitlines()
        lines[2] = "nan"
        ecg.write_text("\n".join(lines) + "\n")
        assert main(["extract", "--manifest", str(broken / "manifest.csv"),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_DATA

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
        assert {"subject_id", "emotion", "beta0", "beta1", "n",
                "residual_std"} <= set(model)

    def test_combined_store(self, workspace, tmp_path):
        _, _, features = workspace
        store = tmp_path / "models"
        assert main(["fit", "--features", str(features), "--mode", "combined",
                     "--out", str(store)]) == EXIT_OK
        assert sorted(p.name for p in store.glob("*.json")) == [
            "s01_combined.json", "s02_combined.json"]


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

    def test_missing_embeddings_exit_code(self, workspace, tmp_path):
        _, _, features = workspace
        orphan = tmp_path / "orphan.csv"
        orphan.write_text(features.read_text())
        assert main(["report", "--features", str(orphan),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA


class TestPredict:
    def test_prints_prediction(self, workspace, capsys, tmp_path):
        from voicehr.regression import LinearModel, save_model

        path = tmp_path / "m.json"
        save_model(LinearModel(97.031, 0.091, 10, 1.0, 1.0, 0.0), path)
        assert main(["predict", "--model", str(path), "--fd", "100"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "106.131"

    def test_missing_model_exit_code(self, tmp_path):
        assert main(["predict", "--model", str(tmp_path / "nope.json"),
                     "--fd", "1"]) == EXIT_DATA
