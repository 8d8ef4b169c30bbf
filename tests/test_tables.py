"""The shared CSV table codec against the per-table loops it replaced."""

import csv
import io
import math
import re
import struct
import tracemalloc
from dataclasses import dataclass, fields
from itertools import permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import vector_set
from oracles import (
    load_ledger_loop,
    load_manifest_loop,
    read_embeddings_loop,
    read_features_loop,
    read_table_stringio,
    write_embeddings_loop,
    write_features_loop,
    write_ledger_loop,
    write_manifest_loop,
)
from voicehr.errors import (
    CorruptHeaderError,
    CorruptRowError,
    InvalidSignalError,
    UnknownEmotionError,
)
from voicehr.classify import embeddings_header, read_embeddings_csv, write_embeddings_csv
from voicehr.extract import write_features_csv
from voicehr.regression import FEATURES_HEADER, Observation, read_features_csv
from voicehr.signal_io import (
    _BATCH_ROWS,
    EMOTION_ORDER,
    VALUE_LIMIT,
    EmotionLabel,
    ManifestEntry,
    load_manifest,
    read_table,
    write_manifest,
    write_table,
)
from voicehr.synth import PlantedTake, load_ledger, write_ledger

FUNCTION_TMP_PATH = settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
                             deadline=None, max_examples=60)

EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
# A feature vector holds values below VALUE_LIMIT in magnitude, down to subnormals
FEATURE_VALUES = st.one_of(
    st.floats(-VALUE_LIMIT, VALUE_LIMIT, exclude_min=True, exclude_max=True),
    st.sampled_from([-0.0, 5e-324, -999999999.999999, 999999999.9999999]))
EMOTIONS = st.sampled_from(list(EmotionLabel))
# Surrogates cannot be encoded as UTF-8.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


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
    rows = st.lists(st.tuples(st.lists(FEATURE_VALUES, min_size=width, max_size=width),
                              EMOTIONS), max_size=4)
    return st.dictionaries(TEXT, rows.map(lambda rows: vector_set(
        [features for features, _ in rows], [label for _, label in rows])), max_size=4)


def _vector_bits(vectors):
    """(bits, label) of each vector of a `VectorSet`, in row order."""
    return [(_bits(features), label) for features, label in zip(vectors.features, vectors.labels)]


def _same_bytes(tmp_path, texts):
    """The codec writes the old loop's bytes unless a text cell holds "\r".

    The old loops could leave such a cell unquoted, and a reader then
    split its row in two; the codec quotes it, and the caller checks that
    the rows read back.
    """
    if not any("\r" in text for text in texts):
        assert (tmp_path / "codec.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


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
    @example(rows=[PlantedTake("x\ry", EmotionLabel.JOY, 0, *EDGE_FLOATS[:4])])
    def test_ledger(self, tmp_path, rows):
        write_ledger(rows, tmp_path / "codec.csv")
        write_ledger_loop(rows, tmp_path / "loop.csv")
        _same_bytes(tmp_path, [r.subject_id for r in rows])
        _same_outcome(load_ledger, load_ledger_loop, tmp_path / "codec.csv")
        assert [r.subject_id for r in load_ledger(tmp_path / "codec.csv")] \
            == [r.subject_id for r in rows]

    @FUNCTION_TMP_PATH
    @given(rows=st.lists(st.builds(Observation, TEXT, EMOTIONS, FLOATS, FLOATS,
                                   st.integers()), max_size=20))
    @example(rows=[Observation("s01", EmotionLabel.NEUTRAL, -0.0, 5e-324, 3),
                   Observation("", EmotionLabel.JOY, math.nan, math.inf, 0),
                   Observation(" x ", EmotionLabel.ANGER, 1.7976931348623157e308,
                               -math.inf, -7)])
    @example(rows=[Observation("\r", EmotionLabel.JOY, 1.0, 70.0, 0)])
    def test_features(self, tmp_path, rows):
        write_features_csv(rows, tmp_path / "codec.csv")
        write_features_loop(rows, tmp_path / "loop.csv")
        _same_bytes(tmp_path, [r.subject_id for r in rows])
        _same_outcome(read_features_csv, read_features_loop, tmp_path / "codec.csv")
        assert [r.subject_id for r in read_features_csv(tmp_path / "codec.csv")] \
            == [r.subject_id for r in rows]

    @FUNCTION_TMP_PATH
    @given(table=st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), _embeddings(n))))
    @example(table=(2, {
        "s02": vector_set([[-0.0, 5e-324, -999999999.999999]], [EmotionLabel.JOY]),
        "s01": vector_set([[999999999.9999999, 2.2250738585072014e-308, -1e-300]],
                          [EmotionLabel.ANGER])}))
    def test_embeddings(self, tmp_path, table):
        n_cepstra, vectors = table
        write_embeddings_csv(vectors, tmp_path / "codec.csv", n_cepstra)
        write_embeddings_loop(vectors, tmp_path / "loop.csv", n_cepstra)
        _same_bytes(tmp_path, [sid for sid, vecs in vectors.items() if vecs])
        got = read_embeddings_csv(tmp_path / "codec.csv")
        assert {sid: len(vecs) for sid, vecs in got.items()} \
            == {sid: len(vecs) for sid, vecs in vectors.items() if vecs}
        expected = read_embeddings_loop(tmp_path / "codec.csv")
        assert list(got) == list(expected)
        for subject_id, vecs in expected.items():
            assert _vector_bits(got[subject_id]) == _vector_bits(vecs)

    @pytest.mark.parametrize("cell", [" 1.5", "1.5\t", "1_000", "+.5", "Infinity", "-NaN",
                                      "1e400", "5e-324", "\u0661\u0662", "0x10", "abc", "",
                                      "1e9", "-1e9", "3.2e250", "-999999999.999999"])
    def test_hand_written_embedding_cells(self, tmp_path, cell):
        path = tmp_path / "emb.csv"
        path.write_text(f"subject_id,emotion,c0,fd\ns01, Joy ,{cell},2.0\n", encoding="utf-8")
        try:
            expected = read_embeddings_loop(path)
        except ValueError as exc:
            with pytest.raises(CorruptRowError, match=re.escape(f"{path}:2: {exc}")):
                read_embeddings_csv(path)
            return
        except InvalidSignalError as exc:  # a value that is not finite or too large
            with pytest.raises(InvalidSignalError, match=f"^{re.escape(f'{path}: {exc}')}$"):
                read_embeddings_csv(path)
            return
        assert _bits(read_embeddings_csv(path)["s01"].features) == _bits(expected["s01"].features)

    @FUNCTION_TMP_PATH
    @given(rows=st.lists(st.tuples(TEXT, EMOTIONS, st.integers(-2, 3),
                                   st.sampled_from(["a.wav", "b.wav", "gone.wav"])),
                         max_size=8))
    @example(rows=[("s01", EmotionLabel.JOY, 0, "a.wav"),
                   ("s01", EmotionLabel.JOY, 0, "b.wav")])
    @example(rows=[("s\r01", EmotionLabel.JOY, 0, "a.wav"), ("\r", EmotionLabel.JOY, 0, "b.wav")])
    def test_manifest(self, tmp_path, rows):
        for name in ("a.wav", "b.wav", "x.csv"):
            (tmp_path / name).write_bytes(b"")
        entries = [ManifestEntry(sid, emotion, take, audio, "x.csv")
                   for sid, emotion, take, audio in rows]
        write_manifest(entries, tmp_path / "codec.csv")
        write_manifest_loop(entries, tmp_path / "loop.csv")
        _same_bytes(tmp_path, [e.subject_id for e in entries])

        _same_outcome(load_manifest, load_manifest_loop, tmp_path / "codec.csv")


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
        with pytest.raises(UnknownEmotionError,
                           match=f"^{re.escape(str(path))}:2: unknown emotion label: 'bliss'$"):
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


    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
    def test_undecodable_byte_names_its_line(self, tmp_path, line_end):
        rows = [f"s01,joy,{i},1.0,70.0" for i in range(2000)] + ['"s\n01",joy,0,1.0,70.0']
        text = line_end.join(rows + ["s01,joy,0,1.0,\udcff"]) + line_end
        path = _features_file(tmp_path, "")
        path.write_bytes(path.read_bytes() + text.encode("utf-8", "surrogateescape"))
        # the header, 2000 rows, a row over two lines, then the bad byte
        with pytest.raises(CorruptRowError, match=f"^{re.escape(str(path))}:2004: 'utf-8' "
                           "codec can't decode byte 0xff"):
            read_features_csv(path)

    def test_undecodable_byte_in_the_header(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_bytes(b"subject_\xffid\n")
        with pytest.raises(CorruptRowError, match=f"^{re.escape(str(path))}:1: "):
            read_features_csv(path)


def _feature_rows(n):
    """`n` distinct valid rows of a features table, without their line ends."""
    rng = np.random.default_rng(n)
    return [f"s{i % 7:02d},{EMOTION_ORDER[i % 3].value},{i},{rng.normal()!r},"
            f"{60.0 + 40.0 * rng.random()!r}" for i in range(n)]


# Table lengths around the reader's batch size, up to more than two batches
LENGTHS = [_BATCH_ROWS - 1, _BATCH_ROWS, _BATCH_ROWS + 1, 2 * _BATCH_ROWS, 2 * _BATCH_ROWS + 37]

# A fault in a features row: (edit of the row, the error read_features_csv raises,
# its text after `path:line: `, where None takes the oracle's text)
FAULTS = {
    "bad_float": (lambda row: row.rsplit(",", 2)[0] + ",abc," + row.rsplit(",", 1)[1],
                  CorruptRowError, None),
    "unknown_emotion": (lambda row: row.replace(row.split(",")[1], "bliss", 1),
                        UnknownEmotionError, None),
    "short_row": (lambda row: row.rsplit(",", 1)[0], CorruptRowError,
                  "expected 5 fields, got 4"),
}


def _read_error_line(path):
    """(line, text) of the csv.Error a row-by-row csv.reader meets in `path`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        with pytest.raises(csv.Error) as raised:
            for _ in reader:
                pass
        return reader.line_num, str(raised.value)


class TestAcrossBatches:
    """Tables longer than one batch read as the row-by-row loops read them."""

    @pytest.mark.parametrize("n", LENGTHS)
    def test_long_tables_match_loops(self, tmp_path, n):
        path = _features_file(tmp_path, "".join(row + "\n" for row in _feature_rows(n)))
        _same_outcome(read_features_csv, read_features_loop, path)
        assert len(read_features_csv(path)) == n

        rng = np.random.default_rng(n)
        vectors = {f"s{j}": vector_set([rng.normal(size=4) for i in range(n // 3 + j)],
                                       [EMOTION_ORDER[i % 3] for i in range(n // 3 + j)])
                   for j in range(3)}
        write_embeddings_csv(vectors, tmp_path / "emb.csv", 3)
        got, expected = (read(tmp_path / "emb.csv")
                         for read in (read_embeddings_csv, read_embeddings_loop))
        assert list(got) == list(expected)
        for subject_id, vecs in expected.items():
            assert _vector_bits(got[subject_id]) == _vector_bits(vecs)

    @pytest.mark.parametrize("at", [_BATCH_ROWS - 1, _BATCH_ROWS, _BATCH_ROWS + 1,
                                    2 * _BATCH_ROWS])
    def test_blank_line_and_quoted_newline_on_a_boundary(self, tmp_path, at):
        n = 2 * _BATCH_ROWS + 37
        rows = _feature_rows(n)
        rows[at] = '"s\n' + rows[at][1:].replace(",", '",', 1)
        rows[at:at] = [""]
        path = _features_file(tmp_path, "".join(row + "\n" for row in rows))
        _same_outcome(read_features_csv, read_features_loop, path)
        assert read_features_csv(path)[at].subject_id.startswith("s\n")
        # a fault after them names its line: the header, the rows and one more
        # line for the quoted newline
        path.write_text(path.read_text() + "s01,joy,0,1.0\n")
        with pytest.raises(CorruptRowError, match=f"^{re.escape(str(path))}:{len(rows) + 3}: "
                           "expected 5 fields, got 4$"):
            read_features_csv(path)

        # the embeddings row at `at` is the first of subject "b\n"
        vectors = {sid: vector_set([[0.5 * i, 2.0] for i in range(size)],
                                   [EMOTION_ORDER[i % 3] for i in range(size)])
                   for sid, size in (("a", at), ("b\n", n - at))}
        write_embeddings_csv(vectors, tmp_path / "emb.csv", 1)
        got, expected = (read(tmp_path / "emb.csv")
                         for read in (read_embeddings_csv, read_embeddings_loop))
        assert {sid: _vector_bits(vecs) for sid, vecs in got.items()} \
            == {sid: _vector_bits(vecs) for sid, vecs in expected.items()}

    @pytest.mark.parametrize("where", [(_BATCH_ROWS + 3, _BATCH_ROWS + 10),
                                       (_BATCH_ROWS - 2, _BATCH_ROWS + 2)],
                             ids=["one_batch", "two_batches"])
    @pytest.mark.parametrize("first, second", list(permutations(FAULTS, 2)))
    def test_first_of_two_faults_wins(self, tmp_path, first, second, where):
        rows = _feature_rows(2 * _BATCH_ROWS + 37)
        for kind, at in zip((first, second), where):
            rows[at] = FAULTS[kind][0](rows[at])
        path = _features_file(tmp_path, "".join(row + "\n" for row in rows))
        _, error, text = FAULTS[first]
        if text is None:  # the oracle stops at the first fault too
            with pytest.raises((ValueError, UnknownEmotionError)) as oracle:
                read_features_loop(path)
            text = str(oracle.value)
        text = f"{path}:{where[0] + 2}: {text}"
        with pytest.raises(error) as raised:
            read_features_csv(path)
        assert str(raised.value) == text

    @pytest.mark.parametrize("tail_rows", [50, 8000], ids=["short_tail", "over_field_limit"])
    def test_bad_cell_before_a_quote_left_open(self, tmp_path, tail_rows):
        rows = _feature_rows(_BATCH_ROWS + 20 + tail_rows)
        rows[_BATCH_ROWS + 3] = FAULTS["bad_float"][0](rows[_BATCH_ROWS + 3])
        rows[_BATCH_ROWS + 10] = '"' + rows[_BATCH_ROWS + 10]
        path = _features_file(tmp_path, "".join(row + "\n" for row in rows))
        with pytest.raises(CorruptRowError, match=f"^{re.escape(str(path))}:{_BATCH_ROWS + 5}: "
                           "could not convert string to float: 'abc'$"):
            read_features_csv(path)

    def test_quote_left_open_names_the_readers_line(self, tmp_path):
        rows = _feature_rows(_BATCH_ROWS + 8020)
        rows[_BATCH_ROWS + 10] = '"' + rows[_BATCH_ROWS + 10]
        path = _features_file(tmp_path, "".join(row + "\n" for row in rows))
        line, text = _read_error_line(path)
        with pytest.raises(CorruptRowError, match=f"^{re.escape(f'{path}:{line}: {text}')}$"):
            read_features_csv(path)

    def test_header_only_embeddings(self, tmp_path):
        path = tmp_path / "emb.csv"
        write_embeddings_csv({}, path, 2)
        assert read_embeddings_csv(path) == read_embeddings_loop(path) == {}

    def test_rows_of_a_subject_are_one_block(self, tmp_path):
        # rows of two subjects interleave across a batch boundary
        n = _BATCH_ROWS + 9
        path = tmp_path / "emb.csv"
        path.write_text("subject_id,emotion,c0,fd\n" + "".join(
            f"s0{i % 2},joy,{1.0 * i},-1.0\n" for i in range(n)), encoding="utf-8")
        got = read_embeddings_csv(path)
        assert list(got) == ["s00", "s01"]
        for parity, vectors in enumerate(got.values()):
            assert vectors.features.shape == (len(range(parity, n, 2)), 2)
            assert vectors.features.flags.c_contiguous
            assert vectors.features[:, 0].tolist() == [1.0 * i for i in range(parity, n, 2)]
            assert vectors.labels == (EmotionLabel.JOY,) * len(range(parity, n, 2))
        got["s00"].features[0, 0] = 9.0  # its own block, shared with no other subject
        assert got["s01"].features[0].tolist() == [1.0, -1.0]


class TestWriteTable:
    def test_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b", "c", "d"],
                    [[EmotionLabel.ANGER, np.float64(0.1), 3, "x,y"], ["", -0.0, 5e-324, "q"]])
        assert path.read_bytes() == b'a,b,c,d\nanger,0.1,3,"x,y"\n,-0.0,5e-324,q\n'

    def test_carriage_return_cells_are_quoted_and_read_back(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [Observation("x\ry", EmotionLabel.JOY, 1.0, 70.0, 0),
                Observation("\r", EmotionLabel.ANGER, 2.0, 80.0, 1),
                Observation("a\r\nb", EmotionLabel.NEUTRAL, 3.0, 90.0, 2)]
        write_features_csv(rows, path)
        assert path.read_bytes().partition(b"\n")[2] == (
            b'"x\ry",joy,0,1.0,70.0\n"\r",anger,1,2.0,80.0\n"a\r\nb",neutral,2,3.0,90.0\n')
        assert read_features_csv(path) == rows

    def test_stream_is_left_open(self):
        out = io.StringIO()
        write_table(out, ["classifier", "s01"], [["knn", "97.50"]])
        assert not out.closed
        assert out.getvalue() == "classifier,s01\nknn,97.50\n"


@dataclass(frozen=True)
class _VectorRow:
    subject_id: str
    emotion: EmotionLabel
    features: np.ndarray


def _read_vectors(path):
    return read_table(path, _VectorRow, lambda width: embeddings_header(width - 3))


# The bytes a text reader decodes at a time (io.TextIOWrapper's chunk)
CHUNK = 8192

HEADER = ",".join(FEATURES_HEADER) + "\n"


def _tail_at(offset, tail):
    """A features table whose byte `offset` starts `tail`: the header, then plain rows."""
    room = offset - len(HEADER)
    n_rows = (room - 19) // 19  # a row "s00,joy,0,1.0,70.0\n" is 19 bytes
    pad = room - 19 * n_rows - 16  # the last row's subject_id fills the rest
    return (HEADER + "s00,joy,0,1.0,70.0\n" * n_rows + "s" * pad + ",joy,0,1.0,70.0\n"
            + tail).encode()


LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
# A features line without its end: a valid row, a quoted subject holding a
# line break, a blank line, or a fault
LINES = st.one_of(
    st.builds("s{},{},{},{!r},70.0".format, st.integers(0, 9),
              st.sampled_from(["joy", "neutral", "anger"]), st.integers(0, 99),
              st.floats(0.0, 50.0)),
    LINE_ENDS.map('"s{}1",joy,2,3.0,80.0'.format),
    st.just(""),
    st.sampled_from(["s01,joy,1,1.0", "s01,joy,1,x,70.0", "s01,bliss,1,1.0,70.0",
                     '"s01,joy,1,1.0,70.0']))


class TestChunkedReader:
    """`read_table` reads the bytes a chunk at a time, as a reader of the whole text would."""

    def test_peak_memory_stays_near_the_bytes(self, tmp_path):
        # about 2 MB: 7000 rows of 13 cepstra and the fd
        rng = np.random.default_rng(0)
        vectors = {f"s{j:02d}": vector_set(rng.normal(size=(1400, 14)),
                                           [EMOTION_ORDER[i % 3] for i in range(1400)])
                   for j in range(5)}
        path = tmp_path / "emb.csv"
        write_embeddings_csv(vectors, path, 13)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            rows = _read_vectors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 7000
        # the bytes and, during the UTF-8 check, their text; a copy of the
        # text at 4 bytes a character would take the peak past 6x
        assert peak < 3 * size, f"peak {peak} bytes for a {size}-byte table"

    @settings(FUNCTION_TMP_PATH, max_examples=150)
    @given(shift=st.integers(-40, 40), lines=st.lists(st.tuples(LINES, LINE_ENDS), max_size=8),
           last_end=st.booleans())
    @example(shift=-1, lines=[("s01,joy,1,1.0,70.0", "\r\n")], last_end=True)
    @example(shift=-1, lines=[("s01,joy,1,1.0,70.0", "\r"), ("s02,joy,2,1.0,70.0", "\n")],
             last_end=False)
    @example(shift=-4, lines=[('"s\r\n1",joy,2,3.0,80.0', "\r"), ("", "\r\n"),
                              ("s01,joy,1,x,70.0", "\n")], last_end=True)
    def test_matches_the_whole_text_reader(self, tmp_path, shift, lines, last_end):
        tail = "".join(line + end for line, end in lines)
        if lines and not last_end:
            tail = tail[:-len(lines[-1][1])]
        path = tmp_path / "features.csv"
        path.write_bytes(_tail_at(CHUNK + shift, tail))
        _same_outcome(read_features_csv, lambda p: read_table_stringio(
            p, Observation, FEATURES_HEADER), path)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_line_end_on_the_chunk_boundary(self, tmp_path, end):
        path = tmp_path / "features.csv"
        # the "\r" that ends row s09 is the last byte of the first chunk
        path.write_bytes(_tail_at(CHUNK - 21, "s09,anger,9,9.0,90.0" + end
                                  + '"a\r\nb",joy,1,1.0,70.0' + end + "s01,joy,1,1.0"))
        assert path.read_bytes()[CHUNK - 1:].startswith(end.encode())
        with pytest.raises(CorruptRowError) as oracle:
            read_table_stringio(path, Observation, FEATURES_HEADER)
        # the header, the plain rows, row s09, the quoted row's two lines
        assert str(oracle.value) == f"{path}:{(CHUNK - 21 - len(HEADER)) // 19 + 5}: " \
            "expected 5 fields, got 4"
        with pytest.raises(CorruptRowError) as raised:
            read_features_csv(path)
        assert str(raised.value) == str(oracle.value)

    def test_vectors_across_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        vectors = {"a": vector_set(rng.normal(size=(300, 4)), [EMOTION_ORDER[i % 3]
                                                                for i in range(300)])}
        path = tmp_path / "emb.csv"
        write_embeddings_csv(vectors, path, 3)
        lines = path.read_bytes().split(b"\n")
        # every line end kind, and no final one
        path.write_bytes(b"".join(line + (b"\n", b"\r\n", b"\r")[i % 3]
                                  for i, line in enumerate(lines[:-2])) + lines[-2])
        assert path.stat().st_size > 2 * CHUNK
        _same_outcome(_read_vectors, lambda p: read_table_stringio(
            p, _VectorRow, lambda width: embeddings_header(width - 3)), path)

    def test_utf8_check_comes_before_any_row(self, tmp_path):
        # a bad take_index on line 3, a byte that is not UTF-8 on line 6
        rows = ["s01,joy,0,1.0,70.0", "s01,joy,three,1.0,70.0", "s01,joy,2,1.0,70.0",
                "s01,joy,3,1.0,70.0", "s01,joy,4,1.0,\udcff70.0"]
        path = tmp_path / "features.csv"
        path.write_bytes((HEADER + "\n".join(rows) + "\n").encode("utf-8", "surrogateescape"))
        with pytest.raises(CorruptRowError, match=f"^{re.escape(str(path))}:6: 'utf-8' "
                           "codec can't decode byte 0xff"):
            read_features_csv(path)
        path.write_bytes(path.read_bytes().replace(b"\xff", b""))
        with pytest.raises(CorruptRowError, match=f"^{re.escape(str(path))}:3: invalid literal"):
            read_features_csv(path)
