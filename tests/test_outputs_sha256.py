"""Byte identity of every CLI output on a one-subject corpus.

The digests in `tests/data/outputs_sha256.json` come from
`tests/make_outputs_sha256.py`. A change that alters one byte of the
corpus, features, embeddings, cepstra, models, report or classifier
matrices fails here. Regenerate the file only for a change that means
to alter bytes, and list the digests it changes.
"""

import json
import os

import pytest

from make_outputs_sha256 import GOLDEN, SPEC, digests, run_verbs
from voicehr import _parallel
from voicehr.cli import EXIT_OK, main
from voicehr.signal_io import EMOTION_ORDER, _parse_fixed6

N_TAKES = SPEC.n_subjects * len(EMOTION_ORDER) * SPEC.takes_per_emotion


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(output directory, its digests), with extract shared with a forked child."""
    assert N_TAKES >= _parallel.MIN_SHARED_TAKES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = run_verbs(tmp_path_factory.mktemp("outputs"))
    return out, digests(out)


def test_every_output_matches_its_golden_digest(outputs):
    _, table = outputs
    golden = json.loads(GOLDEN.read_text())
    assert sorted(table) == sorted(golden)
    assert [name for name in golden if table[name] != golden[name]] == []


def test_in_process_extract_writes_the_same_bytes(outputs, tmp_path, monkeypatch):
    out, table = outputs
    monkeypatch.setattr(_parallel, "MIN_SHARED_TAKES", 10**9)
    assert main(["extract", "--manifest", str(out / "corpus" / "manifest.csv"),
                 "--out", str(tmp_path / "features.csv"),
                 "--cepstra-dir", str(tmp_path / "cepstra")]) == EXIT_OK
    alone = digests(tmp_path)
    assert len(alone) == 2 + N_TAKES
    assert alone == {name: table[name] for name in alone}


def test_every_ecg_body_takes_the_fixed_point_parser(outputs):
    # the line-by-line parser is kept for other writers' files; a change to
    # write_ecg that sent these records to it would keep the bytes above
    # and lose the speed
    out, _ = outputs
    paths = sorted((out / "corpus" / "ecg").glob("*.csv"))
    assert len(paths) == N_TAKES
    for path in paths:
        _, _, body = path.read_bytes().partition(b"\n")
        assert _parse_fixed6(body) is not None, path.name
