"""The shared JSON codec: spec, config, model store and report summary."""

import struct
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from voicehr.classify import SplitSpec, TreeConfig
from voicehr.ecg_hr import PeakConfig
from voicehr.errors import CorruptJsonError, CorruptModelError
from voicehr.pipeline import (
    CellScore,
    ComparisonRow,
    EvaluationReport,
    FilterWindow,
    HoldoutSpec,
    PipelineConfig,
    load_report,
    render_report,
)
from voicehr.regression import LinearModel, load_model, save_model
from voicehr.signal_io import decode_json, read_json, write_json
from voicehr.speech_features import FeatureConfig
from voicehr.synth import SynthSpec

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
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
FEATURE_CONFIGS = st.builds(
    lambda hop_frame, filters_cepstra, **kw: FeatureConfig(
        hop_length_s=min(hop_frame), frame_length_s=max(hop_frame),
        n_cepstra=min(filters_cepstra), n_mel_filters=max(filters_cepstra), **kw),
    hop_frame=st.tuples(POSITIVE, POSITIVE),
    filters_cepstra=st.tuples(st.integers(), st.integers()),
    pre_emphasis=FLOATS, fft_size=st.none() | st.integers(), log_floor=POSITIVE)
SYNTH_SPECS = st.builds(
    SynthSpec, n_subjects=st.integers(min_value=1), takes_per_emotion=st.integers(min_value=1),
    seed=st.integers(), noise_std_bpm=st.floats(min_value=0.0, allow_nan=False),
    homogeneous=st.booleans(), audio_rate_hz=FLOATS, utterance_s=FLOATS,
    ecg_rate_hz=FLOATS, ecg_duration_s=FLOATS,
    fd_tolerance=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    max_fd_iterations=st.integers(), feature=FEATURE_CONFIGS)
PIPELINE_CONFIGS = st.builds(
    PipelineConfig, feature=FEATURE_CONFIGS,
    peak=st.builds(PeakConfig, *[FLOATS] * 7),
    split=st.builds(SplitSpec, st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                                         exclude_max=True), st.integers()),
    tree=st.builds(TreeConfig, st.integers(), st.integers()),
    filter_window=st.builds(FilterWindow, FLOATS, FLOATS),
    holdout=st.builds(HoldoutSpec, FLOATS, st.integers(), st.booleans()),
    seed=st.integers())


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
    @given(spec=SYNTH_SPECS)
    @example(spec=SynthSpec())
    @example(spec=SynthSpec(feature=FeatureConfig(fft_size=1024)))
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

    @pytest.mark.parametrize("raw", [b'{"seed": 5', b"", b'{"seed": 5}\xff', b"[1, 2] 3"])
    def test_unreadable_file_names_it(self, tmp_path, raw):
        path = tmp_path / "spec.json"
        path.write_bytes(raw)
        with pytest.raises(CorruptJsonError, match=f"^{path}: "):
            read_json(path, SynthSpec)
