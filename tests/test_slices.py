"""`synth` and `extract` over take slices: the same work and the same errors.

Each job of `_parallel.map_jobs` is a slice of consecutive takes, and a
slice runs one stage across all of its takes before the next stage. The
order changes, not the work: the counts below are exact, and a failing
run reports the first failing take in take order, from the first stage
that fails within it, as a take-by-take run does.
"""

import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from test_cli import _blank_ecg
from voicehr import _parallel, extract, synth
from voicehr._parallel import TAKES_PER_JOB
from voicehr.errors import ClipTooShortError, ConvergenceFailureError, NoPeaksFoundError
from voicehr.extract import extract_observations
from voicehr.signal_io import AudioClip, load_manifest, write_audio
from voicehr.synth import SynthSpec, generate_synthetic_corpus

# takes 40 and 41 share the second slice of a 72-take corpus
FIRST_FAILING_TAKE = 40


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """72 takes: slices of 32, 32 and 8."""
    outdir = tmp_path_factory.mktemp("slices")
    spec = SynthSpec(n_subjects=2, takes_per_emotion=12, ecg_duration_s=4.0, seed=11)
    manifest_path, _ = generate_synthetic_corpus(spec, outdir)
    return manifest_path


@pytest.fixture
def in_process(monkeypatch):
    monkeypatch.setattr(_parallel, "MIN_SHARED_TAKES", 10**9)


@pytest.mark.parametrize("mode", ["in_process", "shared"])
def test_extract_reports_the_first_failing_take_across_stages(corpus, tmp_path, request, mode):
    # takes k and k + 1 of one slice fail, one in the WAV stage, which
    # runs first, and one in the ECG stage: either way round the error
    # names take k's file
    request.getfixturevalue(mode)
    k = FIRST_FAILING_TAKE
    assert k // TAKES_PER_JOB == (k + 1) // TAKES_PER_JOB
    for flat, short in ((k, k + 1), (k + 1, k)):
        broken = tmp_path / f"flat_{flat}"
        shutil.copytree(corpus.parent, broken)
        entries = load_manifest(broken / "manifest.csv")
        _blank_ecg(Path(entries[flat].ecg_path))
        write_audio(AudioClip(np.zeros(10), 16000.0), entries[short].audio_path)
        manifest = load_manifest(broken / "manifest.csv")
        if flat == k:
            with pytest.raises(NoPeaksFoundError) as raised:
                extract_observations(manifest)
            assert str(raised.value) == f"{entries[k].ecg_path}: flat signal: empty envelope"
        else:
            with pytest.raises(ClipTooShortError) as raised:
                extract_observations(manifest)
            assert str(raised.value).startswith(f"{entries[k].audio_path}: ")


def test_synth_failure_in_the_middle_of_a_slice(tmp_path, in_process):
    # one refining step: job 138, the first take it leaves off target,
    # sits in the slice of takes [128, 160)
    spec = SynthSpec(seed=9, n_subjects=2, takes_per_emotion=30, max_fd_iterations=1)
    with pytest.raises(ConvergenceFailureError) as raised:
        generate_synthetic_corpus(spec, tmp_path / "c")
    assert str(raised.value) == (
        "take s02_neutral_018: feature-distance target 5.165 not bracketed within "
        "1 iterations; closest measured fd 5.427")


def _counting(monkeypatch, module, names, counts):
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _key=f"{module.__name__}.{name}", **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_work_is_counted_exactly(tmp_path, monkeypatch, in_process):
    # 270 takes: 21 calibration measures (the g = 0 reference and a
    # 10-point grid per tilt sign) and one targeting measure per take
    counts = Counter()
    _counting(monkeypatch, synth, ["mfcc", "synth_ecg", "write_audio", "write_ecg"], counts)
    _counting(monkeypatch, extract, ["load_audio", "mfcc", "load_ecg", "extract_heart_rate"],
              counts)
    manifest_path, _ = generate_synthetic_corpus(SynthSpec(seed=2024, n_subjects=1), tmp_path)
    extract_observations(load_manifest(manifest_path))
    assert counts == {
        "voicehr.synth.mfcc": 291,
        "voicehr.synth.synth_ecg": 270,
        "voicehr.synth.write_audio": 270,
        "voicehr.synth.write_ecg": 270,
        "voicehr.extract.load_audio": 270,
        "voicehr.extract.mfcc": 270,
        "voicehr.extract.load_ecg": 270,
        "voicehr.extract.extract_heart_rate": 270,
    }


class _Cut(Exception):
    pass


@pytest.mark.parametrize("utterance_s, ecg_duration_s, takes_per_job", [
    (0.4, 8.0, TAKES_PER_JOB),  # 8400 samples a take
    (8.0, 8.0, 8),  # 130000
    (65.0, 4000.0, 1),  # 2040000, past SLICE_SAMPLES on its own
])
def test_long_takes_make_short_synth_slices(tmp_path, monkeypatch, utterance_s,
                                            ecg_duration_s, takes_per_job):
    # a slice holds its clips and ECGs until its write stages, so it holds
    # at most SLICE_SAMPLES samples, or one take
    def cut(fn, takes, **kwargs):
        raise _Cut(kwargs)

    monkeypatch.setattr(synth, "map_jobs", cut)
    spec = SynthSpec(n_subjects=1, takes_per_emotion=2, utterance_s=utterance_s,
                     ecg_duration_s=ecg_duration_s)
    with pytest.raises(_Cut) as raised:
        generate_synthetic_corpus(spec, tmp_path)
    assert raised.value.args == ({"takes_per_job": takes_per_job},)
    assert takes_per_job == 1 or takes_per_job * (
        utterance_s * spec.audio_rate_hz + ecg_duration_s * spec.ecg_rate_hz) <= synth.SLICE_SAMPLES
