"""The shared CSV table codec against the per-table loops it replaced."""

import io
import math
import re
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (
    load_ledger_loop,
    load_manifest_loop,
    read_embeddings_loop,
    read_features_loop,
    write_embeddings_loop,
    write_features_loop,
    write_ledger_loop,
    write_manifest_loop,
)
from voicehr.classify import LabeledVector
from voicehr.errors import CorruptHeaderError, CorruptRowError, UnknownEmotionError
from voicehr.extract import (
    read_embeddings_csv,
    read_features_csv,
    write_embeddings_csv,
    write_features_csv,
)
from voicehr.regression import Observation
from voicehr.signal_io import (
    EmotionLabel,
    ManifestEntry,
    load_manifest,
    write_manifest,
    write_table,
)
from voicehr.synth import PlantedTake, load_ledger, write_ledger

FUNCTION_TMP_PATH = settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
                             deadline=None, max_examples=60)

EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
EMOTIONS = st.sampled_from(list(EmotionLabel))
# A lone "\r" is not quoted under "\n" line ends, so it cannot round-trip
# through either writer; surrogates cannot be encoded as UTF-8.
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
               max_size=6)


def _bits(value):
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    return type(value), value


def _record_bits(record):
    return [_bits(getattr(record, f.name)) for f in fields(record)]


def _embeddings(n_cepstra):
    """vectors_by_subject with `n_cepstra` cepstra and the fd per vector."""
    width = n_cepstra + 1
    return st.dictionaries(TEXT, st.lists(st.builds(
        LabeledVector, st.lists(FLOATS, min_size=width, max_size=width).map(np.array),
        EMOTIONS), max_size=4), max_size=4)


def _same_outcome(read, oracle, path):
    """Both readers return records with the same bits, or raise alike."""
    try:
        expected = oracle(path)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            read(path)
        assert str(raised.value) == str(exc)
        return
    assert [_record_bits(r) for r in read(path)] == [_record_bits(r) for r in expected]


class TestMatchesLoops:
    @FUNCTION_TMP_PATH
    @given(rows=st.lists(st.builds(PlantedTake, TEXT, EMOTIONS, st.integers(), FLOATS,
                                   FLOATS, FLOATS, FLOATS), max_size=20))
    @example(rows=[PlantedTake("s01", EmotionLabel.JOY, 0, *EDGE_FLOATS[:4])])
    @example(rows=[PlantedTake("a,\"b\"\n", EmotionLabel.ANGER, -1, *EDGE_FLOATS[2:])])
    def test_ledger(self, tmp_path, rows):
        write_ledger(rows, tmp_path / "codec.csv")
        write_ledger_loop(rows, tmp_path / "loop.csv")
        assert (tmp_path / "codec.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
        _same_outcome(load_ledger, load_ledger_loop, tmp_path / "codec.csv")

    @FUNCTION_TMP_PATH
    @given(rows=st.lists(st.builds(Observation, TEXT, EMOTIONS, FLOATS, FLOATS,
                                   st.integers()), max_size=20))
    @example(rows=[Observation("s01", EmotionLabel.NEUTRAL, -0.0, 5e-324, 3),
                   Observation("", EmotionLabel.JOY, math.nan, math.inf, 0),
                   Observation(" x ", EmotionLabel.ANGER, 1.7976931348623157e308,
                               -math.inf, -7)])
    def test_features(self, tmp_path, rows):
        write_features_csv(rows, tmp_path / "codec.csv")
        write_features_loop(rows, tmp_path / "loop.csv")
        assert (tmp_path / "codec.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
        _same_outcome(read_features_csv, read_features_loop, tmp_path / "codec.csv")

    @FUNCTION_TMP_PATH
    @given(table=st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), _embeddings(n))))
    @example(table=(2, {
        "s02": [LabeledVector(np.array([-0.0, 5e-324, math.nan]), EmotionLabel.JOY, "s02")],
        "s01": [LabeledVector(np.array([1.7976931348623157e308, math.inf, -math.inf]),
                              EmotionLabel.ANGER, "s01")]}))
    def test_embeddings(self, tmp_path, table):
        n_cepstra, vectors = table
        write_embeddings_csv(vectors, tmp_path / "codec.csv", n_cepstra)
        write_embeddings_loop(vectors, tmp_path / "loop.csv", n_cepstra)
        assert (tmp_path / "codec.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
        got = read_embeddings_csv(tmp_path / "codec.csv")
        expected = read_embeddings_loop(tmp_path / "codec.csv")
        assert list(got) == list(expected)
        for subject_id, vecs in expected.items():
            assert [(_bits(v.features), v.label, v.subject_id) for v in got[subject_id]] \
                == [(_bits(v.features), v.label, v.subject_id) for v in vecs]

    @pytest.mark.parametrize("cell", [" 1.5", "1.5\t", "1_000", "+.5", "Infinity", "-NaN",
                                      "1e400", "5e-324", "\u0661\u0662", "0x10", "abc", ""])
    def test_hand_written_embedding_cells(self, tmp_path, cell):
        path = tmp_path / "emb.csv"
        path.write_text(f"subject_id,emotion,c0,fd\ns01, Joy ,{cell},2.0\n", encoding="utf-8")
        try:
            expected = read_embeddings_loop(path)
        except ValueError as exc:
            with pytest.raises(CorruptRowError, match=re.escape(f"{path}:2: {exc}")):
                read_embeddings_csv(path)
            return
        assert _bits(read_embeddings_csv(path)["s01"][0].features) \
            == _bits(expected["s01"][0].features)

    @FUNCTION_TMP_PATH
    @given(rows=st.lists(st.tuples(TEXT, EMOTIONS, st.integers(-2, 3),
                                   st.sampled_from(["a.wav", "b.wav", "gone.wav"])),
                         max_size=8))
    @example(rows=[("s01", EmotionLabel.JOY, 0, "a.wav"),
                   ("s01", EmotionLabel.JOY, 0, "b.wav")])
    def test_manifest(self, tmp_path, rows):
        for name in ("a.wav", "b.wav", "x.csv"):
            (tmp_path / name).write_bytes(b"")
        entries = [ManifestEntry(sid, emotion, take, audio, "x.csv")
                   for sid, emotion, take, audio in rows]
        write_manifest(entries, tmp_path / "codec.csv")
        write_manifest_loop(entries, tmp_path / "loop.csv")
        assert (tmp_path / "codec.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

        def load(path):
            return load_manifest(path).entries

        def load_loop(path):
            return load_manifest_loop(path).entries

        _same_outcome(load, load_loop, tmp_path / "codec.csv")


def _features_file(tmp_path, text):
    path = tmp_path / "features.csv"
    path.write_text("subject_id,emotion,take_index,feature_distance,heart_rate_bpm\n" + text)
    return path


class TestMalformedTables:
    def test_renamed_column_names_the_file(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("subject_id,emotion,take,feature_distance,heart_rate_bpm\n"
                        "s01,joy,0,1.0,70.0\n")
        with pytest.raises(CorruptHeaderError, match=f"^{re.escape(str(path))}: expected "
                           "header subject_id,emotion,take_index,feature_distance,"
                           "heart_rate_bpm$"):
            read_features_csv(path)

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text("")
        with pytest.raises(CorruptHeaderError, match=re.escape(str(path))):
            load_ledger(path)

    @pytest.mark.parametrize("row, message", [
        ("s01,joy,0,1.0", "expected 5 fields, got 4"),
        ("s01,joy,0,1.0,70.0,9", "expected 5 fields, got 6"),
        ("s01,joy,0,abc,70.0", "could not convert string to float: 'abc'"),
        ("s01,joy,zero,1.0,70.0", "invalid literal for int"),
    ], ids=["short", "long", "bad_float", "bad_int"])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = _features_file(tmp_path, f"s01,joy,0,1.0,70.0\n{row}\n")
        with pytest.raises(CorruptRowError, match=f"^{re.escape(str(path))}:3: {message}"):
            read_features_csv(path)

    def test_line_counts_quoted_newlines(self, tmp_path):
        path = _features_file(tmp_path, '"s\n01",joy,0,1.0,70.0\ns01,joy,1,1.0\n')
        with pytest.raises(CorruptRowError, match=f"^{re.escape(str(path))}:4: "):
            read_features_csv(path)

    def test_quote_left_open(self, tmp_path):
        # the rest of the file becomes one field, longer than csv's field limit
        path = _features_file(tmp_path, '"s01,joy,0,1.0,70.0\n' + "s01,joy,1,1.0,70.0\n" * 10000)
        with pytest.raises(CorruptRowError, match=f"^{re.escape(str(path))}:[0-9]+: field larger"):
            read_features_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _features_file(tmp_path, "\ns01,joy,0,1.0,70.0\n\n")
        assert [o.take_index for o in read_features_csv(path)] == [0]

    def test_unknown_emotion_passes_through(self, tmp_path):
        path = _features_file(tmp_path, "s01,bliss,0,1.0,70.0\n")
        with pytest.raises(UnknownEmotionError, match="'bliss'"):
            read_features_csv(path)

    def test_short_embeddings_row(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("subject_id,emotion,c0,c1,fd\ns01,joy,0.1,0.2,3.0\ns01,joy,0.1,3.0\n")
        with pytest.raises(CorruptRowError,
                           match=f"^{re.escape(str(path))}:3: expected 5 fields, got 4"):
            read_embeddings_csv(path)

    def test_embeddings_header_follows_its_width(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("subject_id,emotion,c0,c2,fd\ns01,joy,0.1,0.2,3.0\n")
        with pytest.raises(CorruptHeaderError, match="subject_id,emotion,c0,c1,fd$"):
            read_embeddings_csv(path)

    def test_short_ledger_row(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text("subject_id,emotion,take_index,beta0,beta1,feature_distance,"
                        "heart_rate_bpm\ns01,joy,0,97.0,0.1,10.0\n")
        with pytest.raises(CorruptRowError,
                           match=f"^{re.escape(str(path))}:2: expected 7 fields, got 6"):
            load_ledger(path)


class TestWriteTable:
    def test_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b", "c", "d"],
                    [[EmotionLabel.ANGER, np.float64(0.1), 3, "x,y"], ["", -0.0, 5e-324, "q"]])
        assert path.read_bytes() == b'a,b,c,d\nanger,0.1,3,"x,y"\n,-0.0,5e-324,q\n'

    def test_stream_is_left_open(self):
        out = io.StringIO()
        write_table(out, ["classifier", "s01"], [["knn", "97.50"]])
        assert not out.closed
        assert out.getvalue() == "classifier,s01\nknn,97.50\n"
