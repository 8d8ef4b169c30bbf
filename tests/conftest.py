import os

import numpy as np
import pytest

from voicehr import _parallel
from voicehr.extract import extract_observations
from voicehr.signal_io import load_manifest
from voicehr.synth import SynthSpec, generate_synthetic_corpus


@pytest.fixture
def shared(monkeypatch):
    """Share every take list with a child, whatever the host's CPU count."""
    monkeypatch.setattr(_parallel, "MIN_SHARED_TAKES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Noiseless 3-subject corpus shared across test modules."""
    outdir = tmp_path_factory.mktemp("small_corpus")
    spec = SynthSpec(n_subjects=3, takes_per_emotion=12, noise_std_bpm=0.0, seed=101)
    manifest_path, ledger = generate_synthetic_corpus(spec, outdir)
    return spec, manifest_path, ledger


@pytest.fixture(scope="session")
def small_corpus_extracted(small_corpus):
    _, manifest_path, ledger = small_corpus
    manifest = load_manifest(manifest_path)
    observations, vectors_by_subject = extract_observations(manifest)
    return observations, vectors_by_subject, ledger


def vector_set(features, labels):
    """A `VectorSet` of the feature rows `features` (vectors or lists) and their labels."""
    from voicehr.classify import VectorSet

    return VectorSet(np.array(features, dtype=np.float64), tuple(labels))


@pytest.fixture(scope="session")
def blob_vectors():
    """Three well-separated 2-feature blobs, 100 per class."""
    from voicehr.signal_io import EMOTION_ORDER

    rng = np.random.default_rng(42)
    centers = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    features, labels = [], []
    for label, center in zip(EMOTION_ORDER, centers):
        for _ in range(100):
            features.append(center + rng.normal(0.0, 0.1, 2))
            labels.append(label)
    return vector_set(features, labels)
