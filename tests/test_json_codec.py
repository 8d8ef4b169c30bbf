"""The shared JSON codec: spec, config, model store and report summary."""

import math
import struct
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from voicehr.config import (
    MAX_FFT_SIZE,
    FeatureConfig,
    FilterWindow,
    HoldoutSpec,
    PeakConfig,
    PipelineConfig,
    SplitSpec,
    TreeConfig,
)
from voicehr.errors import CorruptJsonError, CorruptModelError
from voicehr.pipeline import CellScore, ComparisonRow, EvaluationReport, load_report, render_report
from voicehr.regression import LinearModel, load_model, save_model
from voicehr.signal_io import MAX_WAV_RATE_HZ, decode_json, read_json, write_json
from voicehr.speech_features import MAX_FRAME_BLOCK, frame_count
from voicehr.synth import MAX_ECG_BEATS, MAX_TAKE_SAMPLES, PLANTED_BPM_RANGE, SynthSpec

DATA = Path(__file__).parent / "data"

FUNCTION_TMP_PATH = settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
                             deadline=None)


def bits(value):
    """`value` with every float replaced by its exact bits, so -0.0 differs from 0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if is_dataclass(value):
        return type(value), tuple((f.name, bits(getattr(value, f.name)))
                                  for f in fields(value))
    if isinstance(value, list):
        return [bits(item) for item in value]
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    return type(value), value


def round_trip(tmp_path, value):
    path = tmp_path / "value.json"
    write_json(path, value)
    return read_json(path, type(value))


# NaN aside (it equals nothing), every double: -0.0, subnormals, the extremes, infinities
FLOATS = st.floats(allow_nan=False)
# the values each record's checks accept, down to subnormals and the largest double
FINITE_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
FINITE_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
OPEN_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
SEEDS = st.integers(min_value=0)


def feature_configs(longest_s=sys.float_info.max):
    """FeatureConfigs whose frame lasts at most `longest_s`."""
    lengths = st.floats(min_value=0.0, max_value=longest_s, exclude_min=True)
    return st.builds(
        lambda hop_frame, filters_cepstra, **kw: FeatureConfig(
            hop_length_s=min(hop_frame), frame_length_s=max(hop_frame),
            n_cepstra=min(filters_cepstra), n_mel_filters=max(filters_cepstra), **kw),
        hop_frame=st.tuples(lengths, lengths),
        filters_cepstra=st.tuples(st.integers(min_value=1), st.integers(min_value=1)),
        pre_emphasis=st.floats(0.0, 1.0), fft_size=st.none() | st.integers(1, MAX_FFT_SIZE),
        log_floor=st.floats(0.0, 1.0, exclude_min=True))


FEATURE_CONFIGS = feature_configs()


# the shortest duration that a finite rate can fill with one sample, with room to round
SHORTEST_S = 2 / sys.float_info.max


def rates_for(seconds):
    """Finite rates at which `seconds` holds from one to MAX_TAKE_SAMPLES samples."""
    most = min(MAX_TAKE_SAMPLES, seconds * sys.float_info.max)
    return st.floats(1.0, most).map(lambda samples: samples / seconds).filter(
        lambda hz: hz < math.inf and 1 <= seconds * hz <= MAX_TAKE_SAMPLES)


@st.composite
def synth_specs(draw):
    """Specs whose audio rate is a whole number of Hz that a WAV holds, whose
    utterance holds one feature frame and at most MAX_FRAME_BLOCK frames x
    FFT size, whose takes hold from one to MAX_TAKE_SAMPLES samples and
    whose ECG holds at most MAX_ECG_BEATS beats."""
    # at 1 Hz or more, an utterance of MAX_TAKE_SAMPLES samples lasts at
    # most as many seconds, and so does its frame
    feature = draw(feature_configs(MAX_TAKE_SAMPLES))
    most = min(MAX_WAV_RATE_HZ, MAX_TAKE_SAMPLES / feature.frame_length_s)
    audio_rate_hz = float(draw(st.integers(1, max(1, int(most)))))
    shortest = max(feature.frame_length_s, 1 / audio_rate_hz)
    assume(shortest <= MAX_TAKE_SAMPLES / audio_rate_hz)
    utterance_s = draw(st.floats(shortest, MAX_TAKE_SAMPLES / audio_rate_hz).filter(
        lambda seconds: 1 <= seconds * audio_rate_hz <= MAX_TAKE_SAMPLES))
    frames = frame_count(int(round(utterance_s * audio_rate_hz)),
                         feature.frame_samples(audio_rate_hz), feature.hop_samples(audio_rate_hz))
    assume(frames * feature.resolve_fft_size(audio_rate_hz) <= MAX_FRAME_BLOCK)
    ecg_duration_s = draw(st.floats(SHORTEST_S, MAX_ECG_BEATS * 60 / PLANTED_BPM_RANGE[1]))
    return draw(st.builds(
        SynthSpec, n_subjects=st.integers(min_value=1), takes_per_emotion=st.integers(min_value=1),
        seed=SEEDS, noise_std_bpm=FINITE_NON_NEGATIVE, homogeneous=st.booleans(),
        audio_rate_hz=st.just(audio_rate_hz), utterance_s=st.just(utterance_s),
        ecg_rate_hz=rates_for(ecg_duration_s), ecg_duration_s=st.just(ecg_duration_s),
        fd_tolerance=OPEN_UNIT, max_fd_iterations=st.integers(min_value=1),
        feature=st.just(feature)))


PIPELINE_CONFIGS = st.builds(
    PipelineConfig, feature=FEATURE_CONFIGS,
    peak=st.builds(
        lambda band, **kw: PeakConfig(band_low_hz=min(band), band_high_hz=max(band), **kw),
        band=st.tuples(FINITE_POSITIVE, FINITE_POSITIVE).filter(lambda band: band[0] != band[1]),
        integration_window_s=FINITE_POSITIVE, refractory_s=FINITE_NON_NEGATIVE,
        threshold_fraction=FINITE_NON_NEGATIVE, median_window_s=FINITE_POSITIVE,
        min_signal_s=FINITE_POSITIVE),
    split=st.builds(SplitSpec, OPEN_UNIT, SEEDS),
    tree=st.builds(TreeConfig, st.integers(min_value=0), st.integers(min_value=1)),
    filter_window=st.builds(lambda bounds: FilterWindow(min(bounds), max(bounds)),
                            st.tuples(FINITE_NON_NEGATIVE, FINITE_NON_NEGATIVE)),
    holdout=st.builds(HoldoutSpec, OPEN_UNIT, SEEDS, st.booleans()),
    seed=SEEDS)


class TestRoundTrip:
    @FUNCTION_TMP_PATH
    @given(model=st.builds(LinearModel, FLOATS, FLOATS, st.integers(), FLOATS, FLOATS, FLOATS,
                           st.text(), st.text()))
    @example(model=LinearModel(-0.0, 5e-324, 0, -1.7e308, 1.7e308, 2.2250738585072014e-308,
                               "s01", "combined"))
    @example(model=LinearModel(1.7976931348623157e308, -5e-324, -(2 ** 70), -0.0, 0.0,
                               float("inf"), "", "é\n\"\\"))
    def test_linear_model(self, tmp_path, model):
        assert bits(round_trip(tmp_path, model)) == bits(model)
        assert bits(round_trip(tmp_path, model)) == bits(load_model(tmp_path / "value.json"))

    @FUNCTION_TMP_PATH
    @given(spec=synth_specs())
    @example(spec=SynthSpec())
    @example(spec=SynthSpec(feature=FeatureConfig(fft_size=1024)))
    @example(spec=SynthSpec(utterance_s=MAX_TAKE_SAMPLES / 16000.0))
    def test_synth_spec(self, tmp_path, spec):
        assert bits(round_trip(tmp_path, spec)) == bits(spec)

    @FUNCTION_TMP_PATH
    @given(config=PIPELINE_CONFIGS)
    @example(config=PipelineConfig())
    def test_pipeline_config(self, tmp_path, config):
        assert bits(round_trip(tmp_path, config)) == bits(config)
        # every seed is written, so the seed rule of from_dict changes nothing
        read_back = PipelineConfig.from_dict(read_json(tmp_path / "value.json", dict))
        assert bits(read_back) == bits(config)


class TestModelStore:
    MODEL = LinearModel(70.0, 0.1, 4, 1.0, 0.1, 0.5, "s01", "joy")

    def test_written_with_sorted_keys(self, tmp_path):
        save_model(self.MODEL, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_text() == (
            '{\n  "beta0": 70.0,\n  "beta1": 0.1,\n  "emotion": "joy",\n  "n": 4,\n'
            '  "residual_std": 0.5,\n  "s_xx": 1.0,\n  "s_xy": 0.1,\n'
            '  "subject_id": "s01"\n}\n')

    def test_reads_the_earlier_key_order(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{\n  "subject_id": "s01",\n  "emotion": "joy",\n  "beta0": 70.0,\n'
                        '  "beta1": 0.1,\n  "n": 4,\n  "s_xx": 1.0,\n  "s_xy": 0.1,\n'
                        '  "residual_std": 0.5\n}\n')
        assert bits(load_model(path)) == bits(self.MODEL)

    def test_file_without_s_xx_and_s_xy_reads_them_as_zero(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{\n  "subject_id": "s01",\n  "emotion": "joy",\n  "beta0": 70.0,\n'
                        '  "beta1": 0.1,\n  "n": 4,\n  "residual_std": 0.5\n}\n')
        assert bits(load_model(path)) == bits(
            LinearModel(70.0, 0.1, 4, 0.0, 0.0, 0.5, "s01", "joy"))

    def test_missing_residual_std_is_corrupt(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"beta0": 70.0, "beta1": 0.1, "n": 4}')
        with pytest.raises(CorruptModelError, match=f"^{path}: residual_std: missing$"):
            load_model(path)


class TestSummary:
    REPORT = EvaluationReport(
        table_separate=[CellScore("s01", "joy", 2.5, 8, 2)],
        table_combined_vs_separate=[ComparisonRow("s01", 3.0, 2.0, 1.0, 2.0, 3.0, True)],
        classifier_matrix={"cvr": {"s01": 100.0}}, classifier_averages={"cvr": 100.0},
        general_model_pct=97.5)

    @pytest.mark.parametrize("models, golden", [
        (None, "summary_golden.json"),
        ([TestModelStore.MODEL], "summary_models_golden.json"),
    ], ids=["without_models", "with_models"])
    def test_bytes_and_reload(self, tmp_path, models, golden):
        render_report(self.REPORT, tmp_path, models)
        assert (tmp_path / "summary.json").read_bytes() == (DATA / golden).read_bytes()
        assert bits(load_report(tmp_path / "summary.json")) == bits(self.REPORT)
        assert bits(load_report(DATA / golden)) == bits(self.REPORT)


@dataclass(frozen=True)
class Inner:
    count: int
    label: str = "x"


@dataclass(frozen=True)
class Outer:
    ratio: float
    flag: bool
    inner: Inner
    items: list[Inner]
    table: dict[str, float]
    maybe: int | None = None
    renamed: float = field(default=0.0, metadata={"json_key": "alias"})
    legacy: float = field(default=0.0, metadata={"json_default": 2.5})

    def __post_init__(self):
        if self.ratio < 0:
            raise ValueError("ratio must be non-negative")


VALID = {"ratio": 1, "flag": True, "inner": {"count": 2}, "items": [{"count": 3, "label": "y"}],
         "table": {"a": 4}, "maybe": None, "alias": 5.5}


class TestDecode:
    def test_valid(self):
        value = decode_json(VALID, Outer, "v.json")
        assert bits(value) == bits(Outer(1.0, True, Inner(2), [Inner(3, "y")], {"a": 4.0},
                                         None, 5.5, 2.5))

    def test_json_default_only_when_missing(self):
        assert decode_json({**VALID, "legacy": 1.0}, Outer, "v.json").legacy == 1.0

    def test_write_uses_declared_keys(self, tmp_path):
        write_json(tmp_path / "v.json", Outer(1.0, False, Inner(2), [], {}, 7))
        assert (tmp_path / "v.json").read_text() == (
            '{\n  "alias": 0.0,\n  "flag": false,\n  "inner": {\n    "count": 2,\n'
            '    "label": "x"\n  },\n  "items": [],\n  "legacy": 0.0,\n  "maybe": 7,\n'
            '  "ratio": 1.0,\n  "table": {}\n}\n')

    @pytest.mark.parametrize("change, message", [
        ({"ratio": True}, 'ratio: expected a number, got true'),
        ({"ratio": "1"}, 'ratio: expected a number, got "1"'),
        ({"ratio": 10 ** 400}, "ratio: expected a number, got an integer beyond float range"),
        ({"ratio": -1.0}, "ratio must be non-negative"),
        ({"flag": 1}, "flag: expected true or false, got 1"),
        ({"inner": {"count": 1.0}}, "inner.count: expected an integer, got 1.0"),
        ({"inner": {"count": False}}, "inner.count: expected an integer, got false"),
        ({"inner": {}}, "inner.count: missing"),
        ({"inner": [1]}, "inner: expected an object, got an array"),
        ({"items": [{"count": 1}, {"count": 1, "label": 5}]},
         "items[1].label: expected a string, got 5"),
        ({"items": {}}, "items: expected an array, got an object"),
        ({"table": {"a": "x"}}, 'table.a: expected a number, got "x"'),
        ({"maybe": 1.5}, "maybe: expected an integer, got 1.5"),
        ({"renamed": 1.0}, "renamed: no such field in Outer"),
        ({"zz": 1, "aa": 2, "mm": 3}, "zz: no such field in Outer"),  # the first, in file order
        ({"inner": {"count": 1, "extra": None}}, "inner.extra: no such field in Inner"),
    ])
    def test_errors_name_the_source_and_key(self, change, message):
        with pytest.raises(CorruptJsonError) as caught:
            decode_json({**VALID, **change}, Outer, "v.json")
        assert str(caught.value) == f"v.json: {message}"

    @pytest.mark.parametrize("value", [[], None, "x", 1])
    def test_record_needs_an_object(self, value):
        with pytest.raises(CorruptJsonError, match="^v.json: expected an object, got "):
            decode_json(value, Outer, "v.json")

    def test_record_check_names_its_key(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"feature": {"n_cepstra": 30}}')
        with pytest.raises(CorruptJsonError,
                           match=f"^{path}: feature: n_cepstra must not exceed n_mel_filters$"):
            read_json(path, SynthSpec)

    @pytest.mark.parametrize("payload, message", [
        ({"audio_rate_hz": 0.0}, "audio_rate_hz must be a finite number > 0, got 0.0"),
        ({"audio_rate_hz": float("nan")}, "audio_rate_hz must be a finite number > 0, got nan"),
        ({"utterance_s": 0.0}, "utterance_s must be a finite number > 0, got 0.0"),
        ({"ecg_rate_hz": -250.0}, "ecg_rate_hz must be a finite number > 0, got -250.0"),
        ({"ecg_duration_s": float("inf")}, "ecg_duration_s must be a finite number > 0, got inf"),
        ({"noise_std_bpm": float("nan")}, "noise_std_bpm must be a finite number >= 0, got nan"),
        ({"noise_std_bpm": -1.0}, "noise_std_bpm must be a finite number >= 0, got -1.0"),
        ({"max_fd_iterations": 0}, "max_fd_iterations must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"audio_rate_hz": 1e-300},
         "utterance_s must hold one sample at audio_rate_hz, got 0.4 s at 1e-300 Hz"),
        ({"audio_rate_hz": 16000.4},
         "audio_rate_hz must be a whole number of Hz up to 2147483647, got 16000.4"),
        ({"audio_rate_hz": 5e9, "utterance_s": 1e-4,
          "feature": {"frame_length_s": 1e-7, "hop_length_s": 1e-7}},
         "audio_rate_hz must be a whole number of Hz up to 2147483647, got 5000000000.0"),
        ({"ecg_duration_s": 0.001},
         "ecg_duration_s must hold one sample at ecg_rate_hz, got 0.001 s at 250.0 Hz"),
        ({"utterance_s": 1e6},
         "utterance_s must hold at most 1048576 samples at audio_rate_hz, got 1000000.0 s at "
         "16000.0 Hz"),
        ({"ecg_rate_hz": 1e6, "ecg_duration_s": 2.0},
         "ecg_duration_s must hold at most 1048576 samples at ecg_rate_hz, got 2.0 s at "
         "1000000.0 Hz"),
        ({"ecg_rate_hz": 1e-6, "ecg_duration_s": 1e12},
         "ecg_duration_s must hold at most 65536 beats at 215 bpm, got 1000000000000.0 s"),
        ({"utterance_s": 0.02}, "utterance_s must hold one feature frame of 0.025 s, got 0.02"),
        ({"utterance_s": 60.0, "feature": {"hop_length_s": 1e-6}},
         "utterance_s must hold at most 4194304 frames x FFT size with this feature config, "
         "got 959601 x 512"),
        ({"feature": {"frame_length_s": float("inf")}},
         "feature: require 0 < hop <= frame length, both finite, got 0.01, inf"),
        ({"feature": {"n_cepstra": 0}}, "feature: n_cepstra must be >= 1, got 0"),
        ({"feature": {"n_cepstra": -3}}, "feature: n_cepstra must be >= 1, got -3"),
        ({"feature": {"fft_size": -1}}, "feature: fft_size must be null or in [1, 65536], got -1"),
        ({"feature": {"fft_size": 0}}, "feature: fft_size must be null or in [1, 65536], got 0"),
        ({"feature": {"fft_size": 2 ** 40}},
         "feature: fft_size must be null or in [1, 65536], got 1099511627776"),
        ({"feature": {"pre_emphasis": float("nan")}},
         "feature: pre_emphasis must be a number in [0, 1], got nan"),
        ({"feature": {"pre_emphasis": 1e300}},
         "feature: pre_emphasis must be a number in [0, 1], got 1e+300"),
        ({"feature": {"pre_emphasis": -0.5}},
         "feature: pre_emphasis must be a number in [0, 1], got -0.5"),
        ({"feature": {"log_floor": float("inf")}},
         "feature: log_floor must be a number in (0, 1], got inf"),
        ({"feature": {"log_floor": 1e300}},
         "feature: log_floor must be a number in (0, 1], got 1e+300"),
    ], ids=["zero_audio_rate", "nan_audio_rate", "zero_utterance", "negative_ecg_rate",
            "infinite_ecg_duration", "nan_noise", "negative_noise", "zero_iterations",
            "negative_seed", "no_audio_sample", "fractional_audio_rate", "audio_rate_past_wav",
            "no_ecg_sample", "audio_too_long",
            "ecg_too_long", "ecg_too_many_beats", "utterance_shorter_than_frame",
            "frame_block_too_large", "infinite_frame_length", "zero_cepstra", "negative_cepstra",
            "negative_fft_size", "zero_fft_size", "huge_fft_size", "nan_pre_emphasis",
            "huge_pre_emphasis", "negative_pre_emphasis", "infinite_log_floor",
            "huge_log_floor"])
    def test_synth_spec_rules(self, payload, message):
        with pytest.raises(CorruptJsonError) as caught:
            decode_json(payload, SynthSpec, "spec.json")
        assert str(caught.value) == f"spec.json: {message}"

    def test_frame_block_bound_is_inclusive(self):
        # 400-sample frames every 160 samples with 1024-point FFTs: 4096
        # frames fill MAX_FRAME_BLOCK, and one more hop adds a frame
        assert 4096 * 1024 == MAX_FRAME_BLOCK
        fits = {"utterance_s": (400 + 4095 * 160) / 16000.0, "feature": {"fft_size": 1024}}
        assert decode_json(fits, SynthSpec, "spec.json").utterance_s == fits["utterance_s"]
        with pytest.raises(CorruptJsonError, match="got 4097 x 1024$"):
            decode_json({**fits, "utterance_s": (400 + 4096 * 160) / 16000.0}, SynthSpec,
                        "spec.json")

    @pytest.mark.parametrize("payload, message", [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"split": {"seed": -2}}, "split: seed must be >= 0, got -2"),
        ({"holdout": {"seed": -3}}, "holdout: seed must be >= 0, got -3"),
    ], ids=["top_level", "split", "holdout"])
    def test_config_seeds_are_non_negative(self, payload, message):
        with pytest.raises(CorruptJsonError) as caught:
            PipelineConfig.from_dict(payload, "config.json")
        assert str(caught.value) == f"config.json: {message}"

    @pytest.mark.parametrize("raw", [b'{"seed": 5', b"", b'{"seed": 5}\xff', b"[1, 2] 3"])
    def test_unreadable_file_names_it(self, tmp_path, raw):
        path = tmp_path / "spec.json"
        path.write_bytes(raw)
        with pytest.raises(CorruptJsonError, match=f"^{path}: "):
            read_json(path, SynthSpec)
