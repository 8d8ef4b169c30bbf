"""Tracer hygiene and benchmark-definition checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import contextlib
import inspect
import io
import json
from pathlib import Path

import pytest

import voicehr
from voicehr import cli
from voicehr.synth import FdTargeter

import run
from tracer import Tracer, layer_stats, nested_measures, voicehr_modules

ROOT = Path(__file__).resolve().parent.parent


def bindings() -> dict:
    """Every public function binding the tracer may patch, by identity."""
    out = {}
    for mod in voicehr_modules():
        for attr, value in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(value):
                out[(mod.__name__, attr)] = value
    out[("FdTargeter", "solve")] = FdTargeter.solve
    return out


def small_pipeline(workdir: Path) -> None:
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({"n_subjects": 2, "takes_per_emotion": 8, "seed": 5}))
    verbs = [
        ["synth", "--spec", str(spec), "--out", str(workdir / "corpus")],
        ["extract", "--manifest", str(workdir / "corpus" / "manifest.csv"),
         "--out", str(workdir / "features.csv")],
        ["fit", "--features", str(workdir / "features.csv"), "--out", str(workdir / "models")],
        ["report", "--features", str(workdir / "features.csv"),
         "--models", str(workdir / "models"), "--out", str(workdir / "report")],
    ]
    for argv in verbs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    before = bindings()
    with Tracer() as tracer:
        during = bindings()
        small_pipeline(tmp_path_factory.mktemp("traced"))
    return before, during, tracer


def test_wraps_every_binding_site(traced):
    before, during, tracer = traced
    assert voicehr.synth.mfcc is voicehr.speech_features.mfcc
    wrapped = {k for k in before if during[k] is not before[k]}
    assert ("voicehr.synth", "mfcc") in wrapped
    assert ("voicehr.extract", "mfcc") in wrapped
    assert ("voicehr.classify", "best_split_scan") in wrapped
    assert ("FdTargeter", "solve") in wrapped
    sites = {(name, site) for name, site, *_ in tracer.spans}
    assert ("speech_features.mfcc", "synth") in sites
    assert ("speech_features.mfcc", "extract") in sites


def test_restores_every_binding(traced):
    before, _, _ = traced
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_run_records_nothing(traced, tmp_path):
    _, _, tracer = traced
    n = len(tracer.spans)
    small_pipeline(tmp_path)
    assert len(tracer.spans) == n
    assert not any(hasattr(f, "__wrapped__") for f in bindings().values())


def test_restores_after_an_error():
    before = bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_children_fit_inside_their_parent(traced):
    _, _, tracer = traced
    spans = tracer.spans
    children = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
            children[parent] += end - start
    assert all(c <= s[3] - s[2] for c, s in zip(children, spans))
    rows, violations = layer_stats(spans)
    assert violations == 0
    roots = sum(end - start for _, _, start, end, parent in spans if parent < 0)
    assert sum(r["self_s"] for r in rows) == pytest.approx(roots, rel=1e-9)


def test_counts(traced):
    _, _, tracer = traced
    calls = {r["name"]: r["calls"] for r in layer_stats(tracer.spans)[0]}
    takes = 2 * 3 * 8
    assert calls["synth.FdTargeter.solve"] == takes
    assert calls["ecg_hr.extract_heart_rate"] == takes
    assert nested_measures(tracer.spans) >= takes
    assert tracer.counts["samples"] == takes * 2000  # 8 s at 250 Hz
    assert tracer.counts["rows_rejected"] == 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
