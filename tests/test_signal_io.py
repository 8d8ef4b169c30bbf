import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import load_ecg_rate_loop, write_ecg_loop
from voicehr.errors import (
    CorruptHeaderError,
    CorruptRowError,
    DuplicateEntryError,
    EmptySignalError,
    InvalidSignalError,
    MissingFileError,
    NonUniformSamplingError,
    UnknownEmotionError,
    UnsupportedFormatError,
)
from voicehr.signal_io import (
    AudioClip,
    EcgRecord,
    MANIFEST_HEADER,
    EmotionLabel,
    ManifestEntry,
    load_audio,
    load_ecg,
    load_manifest,
    write_audio,
    write_ecg,
    write_manifest,
)


def _write_wav(path, samples_int16, rate=16000):
    import wave

    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(np.asarray(samples_int16, dtype="<i2").tobytes())


class TestLoadAudio:
    def test_full_scale_normalization(self, tmp_path):
        path = tmp_path / "one.wav"
        _write_wav(path, [32767])
        clip = load_audio(path)
        assert clip.sample_rate_hz == 16000
        assert clip.samples.shape == (1,)
        assert clip.samples[0] == pytest.approx(32767 / 32768)

    def test_negative_full_scale_maps_to_minus_one(self, tmp_path):
        path = tmp_path / "neg.wav"
        _write_wav(path, [-32768])
        assert load_audio(path).samples[0] == -1.0

    def test_zero_second_of_silence(self, tmp_path):
        path = tmp_path / "zeros.wav"
        _write_wav(path, np.zeros(16000, dtype=np.int16))
        clip = load_audio(path)
        assert clip.duration_s == 1.0
        assert np.all(clip.samples == 0.0)

    def test_sine_round_trip(self, tmp_path):
        t = np.arange(16000) / 16000.0
        original = AudioClip(0.8 * np.sin(2 * np.pi * 440 * t), 16000.0)
        path = tmp_path / "sine.wav"
        write_audio(original, path)
        reloaded = load_audio(path)
        assert np.max(np.abs(reloaded.samples - original.samples)) <= 2.0 ** -15

    def test_stereo_rejected(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(2)
            wav.setsampwidth(2)
            wav.setframerate(16000)
            wav.writeframes(b"\x00\x00" * 32)
        with pytest.raises(UnsupportedFormatError):
            load_audio(path)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a wav file at all")
        with pytest.raises(CorruptHeaderError):
            load_audio(path)
        riff4 = tmp_path / "riff4.wav"
        riff4.write_bytes(b"RIFF")
        with pytest.raises(CorruptHeaderError) as raised:
            load_audio(riff4)
        assert str(raised.value) == f"{riff4}: file ends inside the WAV header"

    # a 44-byte header and 6400 frames of 2 bytes, cut to half and to an odd length
    @pytest.mark.parametrize("size", [6422, 6423], ids=["half", "odd_length"])
    def test_truncated_data_chunk(self, tmp_path, size):
        whole = tmp_path / "whole.wav"
        write_audio(AudioClip(np.full(6400, 0.25), 16000.0), whole)
        assert len(whole.read_bytes()) == 12844
        cut = tmp_path / "cut.wav"
        cut.write_bytes(whole.read_bytes()[:size])
        with pytest.raises(CorruptHeaderError) as raised:
            load_audio(cut)
        assert str(raised.value) == (f"{cut}: header gives 6400 frames, data chunk holds "
                                     f"3189 ({size - 44} bytes)")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.wav"
        _write_wav(path, [])
        with pytest.raises(EmptySignalError):
            load_audio(path)


class TestLoadEcg:
    def test_rate_from_timestamps(self, tmp_path):
        path = tmp_path / "ecg.csv"
        rows = "\n".join(f"{0.002 * i:.3f},{0.1 * (i + 1):.3f}" for i in range(10))
        path.write_text("time_s,mv\n" + rows + "\n")
        record = load_ecg(path)
        assert record.sample_rate_hz == pytest.approx(500.0)
        assert record.samples[0] == pytest.approx(0.1)

    def test_corrupt_row(self, tmp_path):
        path = tmp_path / "ecg.csv"
        path.write_text("time_s,mv\n0.000,0.1\n0.002,0.2\n0.004,abc\n")
        with pytest.raises(CorruptRowError):
            load_ecg(path)

    def test_non_uniform_sampling(self, tmp_path):
        path = tmp_path / "ecg.csv"
        path.write_text("time_s,mv\n0.000,0.1\n0.002,0.2\n0.010,0.3\n0.012,0.2\n")
        with pytest.raises(NonUniformSamplingError):
            load_ecg(path)

    def test_rate_header_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        record = EcgRecord(np.round(rng.normal(0, 0.4, 500), 6), 500.0)
        path = tmp_path / "rt.csv"
        write_ecg(record, path)
        reloaded = load_ecg(path)
        assert reloaded.sample_rate_hz == 500.0
        assert np.array_equal(reloaded.samples, record.samples)

    def test_timestamped_round_trip(self, tmp_path):
        samples = np.linspace(-1, 1, 100)
        path = tmp_path / "ts.csv"
        path.write_text("time_s,mv\n" + "".join(
            f"{i / 250.0:.6f},{v:.6f}\n" for i, v in enumerate(samples)))
        reloaded = load_ecg(path)
        assert reloaded.sample_rate_hz == pytest.approx(250.0)
        np.testing.assert_allclose(reloaded.samples, samples, atol=1e-6)

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# rate_hz=500\n")
        with pytest.raises(EmptySignalError):
            load_ecg(path)

    def test_non_finite_sample(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("# rate_hz=500\n0.1\nnan\n0.2\n")
        with pytest.raises(InvalidSignalError):
            load_ecg(path)

    def test_non_positive_rate(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("# rate_hz=0\n0.1\n0.2\n")
        with pytest.raises(InvalidSignalError):
            load_ecg(path)

    def test_rate_header_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("# rate_hz=500\n0.1\n\n  \n0.2\n\n")
        record = load_ecg(path)
        assert record.samples.tolist() == [0.1, 0.2]

    def test_rate_header_bad_row_after_blank_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rate_hz=500\n0.1\n\n0.2\nabc\n0.3\n")
        with pytest.raises(CorruptRowError, match=r"bad\.csv:5: 'abc'"):
            load_ecg(path)

    @pytest.mark.parametrize("header", [b"# rate_hz=500", b"time_s,mv"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, header):
        path = tmp_path / "latin1.csv"
        path.write_bytes(header + b"\r\n0.000,0.1\r0.002,0.2\n0.004,\xb50.3\n")
        with pytest.raises(CorruptRowError, match=r"latin1\.csv:4: 'utf-8' codec"):
            load_ecg(path)

    def test_rate_header_two_numbers_on_a_line_is_corrupt(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("# rate_hz=500\n0.1\n1.0 2.0\n0.3\n")
        with pytest.raises(CorruptRowError, match=r"pair\.csv:3: '1\.0 2\.0'"):
            load_ecg(path)


# Values below 1000 whose |x| * 1e6 lies near a half-integer: at an exact tie
# "%.6f" rounds half to even, and write_ecg's fixed-point path must step aside
NEAR_TIES = st.builds(lambda k, off, sign: sign * (k + 0.5 + off) / 1e6,
                      st.integers(0, 10**9 - 1), st.sampled_from([0.0, 5e-7, -1e-6, 2e-6]),
                      st.sampled_from([1.0, -1.0]))
# -0.0 and values that round to -0.000000 keep their sign; large
# magnitudes print every integer digit. The second list draws records
# whose every |x| < 1000, as an ECG in mV has.
ECG_SAMPLES = st.one_of(
    st.lists(
        st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, -4e-7, 4e-7, -5e-7, 1e3, -1234.5678915,
                                   9.9999995e5])),
        min_size=1, max_size=300),
    st.lists(st.one_of(st.floats(-10.0, 10.0), st.floats(-999.9999999, 999.9999999), NEAR_TIES),
             min_size=1, max_size=300))
# The second list draws bodies of "%.6f" lines, which load_ecg parses
# without float(), with now and then a line it must leave to float()
ECG_LINES = st.one_of(
    st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                  st.floats(-10.0, 10.0).map("{:.6f}".format),
                  st.sampled_from(["", "  ", "-0.000000", " 1.5\t", "1.0 2.0", "abc", "1e3",
                                   "1_000", "1.0\f2.0", "\f", "0.5\r0.25", "0.5\r\n"])),
        max_size=60),
    st.lists(
        st.one_of(st.floats(-1e10, 1e10).map("{:.6f}".format),
                  st.floats(-10.0, 10.0).map("{:.6f}".format),
                  st.sampled_from(["-0.000000", "+0.500000", "00.500000", "-.500000",
                                   "0.5000000", "1_0.000000", " 0.500000", "0.500000\r"])),
        min_size=1, max_size=60))
FUNCTION_TMP_PATH = settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
                             deadline=None)


class TestEcgTextMatchesLoops:
    @FUNCTION_TMP_PATH
    @given(samples=ECG_SAMPLES, rate=st.sampled_from([250.0, 500.0, 360.0, 128.5, 1e-3]))
    @example(samples=[-0.0, -4e-7, 1e3, -2.5e6, 123456.7890125], rate=250.0)
    @example(samples=[0.0078125], rate=250.0)
    @example(samples=[np.nextafter(0.0078125, 0.0), np.nextafter(0.0078125, 1.0)], rate=250.0)
    @example(samples=[0.0078125 + 1.5e-12, -0.0078125 - 1.5e-12], rate=250.0)
    @example(samples=[999.9999995], rate=250.0)
    @example(samples=[999.9999994, -999.9999996], rate=250.0)
    @example(samples=[1000.0], rate=250.0)
    @example(samples=[-0.0], rate=250.0)
    @example(samples=[-5e-7], rate=250.0)
    @example(samples=[-0.0, -4e-7, 0.25, -12.5000004], rate=250.0)
    @example(samples=[1.7976931348623157e308, -1e300], rate=250.0)
    def test_write_same_bytes(self, tmp_path, samples, rate):
        record = EcgRecord(np.array(samples), rate)
        write_ecg(record, tmp_path / "bulk.csv")
        write_ecg_loop(record, tmp_path / "loop.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @FUNCTION_TMP_PATH
    @given(lines=ECG_LINES, trailing_newline=st.booleans())
    @example(lines=["0.1", "", "abc", "0.2"], trailing_newline=True)
    @example(lines=["0.1", "1.0 2.0"], trailing_newline=False)
    @example(lines=["-0.0", "", "  ", "1e300"], trailing_newline=True)
    @example(lines=["-0.000000", "123456789.123456", "-7.000001"], trailing_newline=True)
    @example(lines=["0.250000", "1234567890.123456"], trailing_newline=True)
    @example(lines=["0.250000", "+0.500000"], trailing_newline=True)
    @example(lines=["0.250000", "00.500000"], trailing_newline=True)
    @example(lines=["0.250000", "-.500000"], trailing_newline=True)
    @example(lines=["0.250000", "0.5000000"], trailing_newline=True)
    @example(lines=["0.250000", "1_0.000000"], trailing_newline=True)
    @example(lines=["0.250000", " 0.500000"], trailing_newline=True)
    @example(lines=["0.250000\r", "-0.500000\r"], trailing_newline=True)
    @example(lines=["0.250000", "-0.500000"], trailing_newline=False)
    def test_load_same_bits(self, tmp_path, lines, trailing_newline):
        path = tmp_path / "ecg.csv"
        body = "\n".join(lines) + ("\n" if trailing_newline else "")
        path.write_bytes(("# rate_hz=500\n" + body).encode("utf-8"))
        try:
            rate, values = load_ecg_rate_loop(path)
        except ValueError as exc:
            with pytest.raises(CorruptRowError) as raised:
                load_ecg(path)
            assert str(raised.value) == str(exc)
            return
        if values.size == 0:
            with pytest.raises(EmptySignalError):
                load_ecg(path)
            return
        record = load_ecg(path)
        assert record.sample_rate_hz == rate
        assert record.samples.tobytes() == values.tobytes()


HEADER = ",".join(MANIFEST_HEADER)


def _touch_pair(tmp_path, stem):
    _write_wav(tmp_path / f"{stem}.wav", [0, 1, 2])
    (tmp_path / f"{stem}.csv").write_text("# rate_hz=500\n0.1\n")
    return f"{stem}.wav", f"{stem}.csv"


class TestManifest:
    def test_three_emotions_one_subject(self, tmp_path):
        lines = ["subject_id,emotion,take_index,audio_path,ecg_path"]
        for emotion in ("joy", "neutral", "anger"):
            wav, csv_ = _touch_pair(tmp_path, emotion)
            lines.append(f"s01,{emotion},0,{wav},{csv_}")
        path = tmp_path / "manifest.csv"
        path.write_text("\n".join(lines) + "\n")
        manifest = load_manifest(path)
        assert len(manifest) == 3
        assert manifest.subjects() == ["s01"]

    def test_duplicate_triple_rejected(self, tmp_path):
        wav, csv_ = _touch_pair(tmp_path, "a")
        path = tmp_path / "manifest.csv"
        path.write_text(
            "subject_id,emotion,take_index,audio_path,ecg_path\n"
            f"s01,joy,0,{wav},{csv_}\n"
            f"s01,joy,0,{wav},{csv_}\n")
        with pytest.raises(DuplicateEntryError):
            load_manifest(path)

    def test_unknown_emotion(self, tmp_path):
        wav, csv_ = _touch_pair(tmp_path, "a")
        path = tmp_path / "manifest.csv"
        path.write_text(
            "subject_id,emotion,take_index,audio_path,ecg_path\n"
            f"s01,ecstasy,0,{wav},{csv_}\n")
        with pytest.raises(UnknownEmotionError):
            load_manifest(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "subject_id,emotion,take_index,audio_path,ecg_path\n"
            "s01,joy,0,nope.wav,nope.csv\n")
        with pytest.raises(MissingFileError):
            load_manifest(path)

    def test_missing_file_names_the_manifest_and_the_path(self, tmp_path):
        wav, _ = _touch_pair(tmp_path, "a")
        path = tmp_path / "manifest.csv"
        path.write_text(f"{HEADER}\ns01,joy,0,{wav},gone.csv\n")
        with pytest.raises(MissingFileError, match=re.escape(
                f"{path}: referenced file missing: {tmp_path.resolve() / 'gone.csv'}")):
            load_manifest(path)

    def test_parent_relative_paths_load(self, tmp_path):
        wav, csv_ = _touch_pair(tmp_path, "a")
        (tmp_path / "lists").mkdir()
        path = tmp_path / "lists" / "manifest.csv"
        path.write_text(f"{HEADER}\ns01,joy,0,../{wav},../{csv_}\n")
        entry, = load_manifest(path).entries
        assert os.path.isabs(entry.audio_path)
        assert Path(entry.audio_path).resolve() == (tmp_path / wav).resolve()
        assert Path(entry.ecg_path).resolve() == (tmp_path / csv_).resolve()

    def test_corpus_through_a_symlinked_directory(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        wav, csv_ = _touch_pair(corpus, "a")
        (corpus / "manifest.csv").write_text(f"{HEADER}\ns01,joy,0,{wav},{csv_}\n")
        (tmp_path / "link").symlink_to(corpus, target_is_directory=True)
        entry, = load_manifest(tmp_path / "link" / "manifest.csv").entries
        # the manifest's directory is resolved, the paths within it are joined
        assert entry.audio_path == str(corpus.resolve() / wav)
        assert entry.ecg_path == str(corpus.resolve() / csv_)

    def test_order_insensitive(self, tmp_path):
        pairs = [_touch_pair(tmp_path, f"t{i}") for i in range(4)]
        rows = [f"s01,joy,{i},{wav},{csv_}" for i, (wav, csv_) in enumerate(pairs)]
        header = "subject_id,emotion,take_index,audio_path,ecg_path"
        p1 = tmp_path / "m1.csv"
        p2 = tmp_path / "m2.csv"
        p1.write_text("\n".join([header] + rows) + "\n")
        p2.write_text("\n".join([header] + rows[::-1]) + "\n")
        assert set(load_manifest(p1).entries) == set(load_manifest(p2).entries)

    def test_fuzzed_rows_establish_invariants(self, tmp_path):
        rng = np.random.default_rng(5)
        wav, csv_ = _touch_pair(tmp_path, "x")
        header = "subject_id,emotion,take_index,audio_path,ecg_path"
        emotions = ["joy", "neutral", "anger", "bliss"]
        for trial in range(50):
            n_rows = int(rng.integers(1, 8))
            rows, keys, valid = [], set(), True
            for _ in range(n_rows):
                sid = f"s{rng.integers(1, 3):02d}"
                emo = emotions[rng.integers(0, len(emotions))]
                take = int(rng.integers(0, 3))
                if emo == "bliss":
                    valid = False
                if (sid, emo, take) in keys:
                    valid = False
                keys.add((sid, emo, take))
                rows.append(f"{sid},{emo},{take},{wav},{csv_}")
            path = tmp_path / f"fuzz{trial}.csv"
            path.write_text("\n".join([header] + rows) + "\n")
            if valid:
                manifest = load_manifest(path)
                triples = [(e.subject_id, e.emotion, e.take_index)
                           for e in manifest.entries]
                assert len(set(triples)) == len(triples)
                assert all(isinstance(e.emotion, EmotionLabel)
                           for e in manifest.entries)
            else:
                with pytest.raises((DuplicateEntryError, UnknownEmotionError)):
                    load_manifest(path)

    def test_write_round_trip(self, tmp_path):
        wav, csv_ = _touch_pair(tmp_path, "w")
        entries = [ManifestEntry("s01", EmotionLabel.JOY, 0, wav, csv_)]
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        manifest = load_manifest(path)
        assert len(manifest) == 1
        assert manifest.entries[0].emotion is EmotionLabel.JOY
