"""Manifest-to-observations extraction.

Walks a dataset manifest, computes per-utterance embeddings and feature
distances against each subject's neutral enrollment reference, extracts
heart rates from the paired ECG records, and emits Observation rows plus
the classification feature vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from ._parallel import map_jobs
from .classify import VectorSet
from .ecg_hr import PeakConfig, extract_heart_rate
from .errors import named
from .regression import Observation
from .signal_io import (
    DatasetManifest,
    EmotionLabel,
    ManifestEntry,
    load_audio,
    load_ecg,
    read_table,
    write_table,
)
from .speech_features import (
    FeatureConfig,
    feature_distance,
    mfcc,
    subject_reference,
    utterance_embedding,
)

FEATURES_HEADER = ["subject_id", "emotion", "take_index",
                   "feature_distance", "heart_rate_bpm"]


def extract_take(entry: ManifestEntry, feature_config: FeatureConfig = FeatureConfig(),
                 peak_config: PeakConfig = PeakConfig(), cepstra_dir=None):
    """(embedding, heart rate) of one take.

    With `cepstra_dir`, the take's cepstra matrix is also written there
    as `<subject>_<emotion>_<take>.csv`. An error of `mfcc` or of the
    detector names the WAV or ECG file it came from, as the loaders'
    errors do.
    """
    clip = load_audio(entry.audio_path)
    with named(entry.audio_path):
        cepstra = mfcc(clip, feature_config)
    if cepstra_dir is not None:
        name = f"{entry.subject_id}_{entry.emotion.value}_{entry.take_index:03d}.csv"
        np.savetxt(Path(cepstra_dir) / name, cepstra.frames, delimiter=",")
    embedding = utterance_embedding(cepstra)
    record = load_ecg(entry.ecg_path)
    with named(entry.ecg_path):
        return embedding, extract_heart_rate(record, peak_config)


def extract_observations(manifest: DatasetManifest,
                         feature_config: FeatureConfig = FeatureConfig(),
                         peak_config: PeakConfig = PeakConfig(),
                         cepstra_dir=None):
    """Compute (observations, vectors_by_subject) for a whole manifest.

    Each take goes through `extract_take`, in a second process too when
    the manifest is large (see `_parallel.map_jobs`). The reference
    embedding per subject is then the mean over its neutral takes (all
    of them; the evaluation holdout happens downstream), or over every
    take when a subject has no neutral recordings. A subject's
    `VectorSet` has a row per take, in manifest order: its embedding,
    then its feature distance. With `cepstra_dir`, every take's cepstra
    matrix is written there too.
    """
    if cepstra_dir is not None:
        Path(cepstra_dir).mkdir(parents=True, exist_ok=True)
    entries = manifest.entries
    per_take = map_jobs(functools.partial(extract_take, feature_config=feature_config,
                                          peak_config=peak_config, cepstra_dir=cepstra_dir),
                        entries, n_takes=len(entries))
    # each subject's neutral takes and all its takes, in entry order: the
    # order the reference mean adds them in
    neutral, every = {}, {}
    for entry, (emb, _) in zip(entries, per_take):
        every.setdefault(entry.subject_id, []).append(emb)
        if entry.emotion == EmotionLabel.NEUTRAL:
            neutral.setdefault(entry.subject_id, []).append(emb)
    references = {subject_id: subject_reference(neutral.get(subject_id) or every[subject_id])
                  for subject_id in manifest.subjects()}

    observations, rows, labels = [], {}, {}
    for entry, (emb, hr) in zip(entries, per_take):
        fd = feature_distance(emb, references[entry.subject_id])
        observations.append(Observation(
            subject_id=entry.subject_id, emotion=entry.emotion, feature_distance=fd,
            heart_rate_bpm=hr.bpm, take_index=entry.take_index))
        rows.setdefault(entry.subject_id, []).append(np.append(emb, fd))
        labels.setdefault(entry.subject_id, []).append(entry.emotion)
    return observations, {subject_id: VectorSet(np.array(vectors), tuple(labels[subject_id]))
                          for subject_id, vectors in rows.items()}


def write_features_csv(observations, path) -> None:
    write_table(path, FEATURES_HEADER, map(attrgetter(*FEATURES_HEADER), observations))


def read_features_csv(path) -> list[Observation]:
    return read_table(path, Observation, FEATURES_HEADER)


def embeddings_csv_path(features_path) -> Path:
    """Sibling file carrying the embedding vectors next to features CSV."""
    p = Path(features_path)
    return p.with_name(p.stem + "_embeddings.csv")


def embeddings_header(n_cepstra: int) -> list[str]:
    return ["subject_id", "emotion"] + [f"c{i}" for i in range(n_cepstra)] + ["fd"]


@dataclass
class _EmbeddingRow:  # not frozen: a frozen record costs twice as much to build per row
    subject_id: str
    emotion: EmotionLabel
    features: np.ndarray  # the c0.. columns, then fd


def write_embeddings_csv(vectors_by_subject, path, n_cepstra: int) -> None:
    write_table(path, embeddings_header(n_cepstra),
                ([subject_id, label, *features]
                 for subject_id in sorted(vectors_by_subject)
                 for features, label in zip(vectors_by_subject[subject_id].features.tolist(),
                                            vectors_by_subject[subject_id].labels)))


def read_embeddings_csv(path) -> dict[str, VectorSet]:
    """The vectors of an embeddings CSV as one `VectorSet` per subject, in file order.

    A feature value that is not finite or is `VALUE_LIMIT` or more in
    magnitude raises InvalidSignalError naming `path`.
    """
    rows, labels = {}, {}
    for row in read_table(path, _EmbeddingRow, lambda width: embeddings_header(width - 3)):
        rows.setdefault(row.subject_id, []).append(row.features)
        labels.setdefault(row.subject_id, []).append(row.emotion)
    with named(path):
        return {subject_id: VectorSet(np.array(vectors), tuple(labels[subject_id]))
                for subject_id, vectors in rows.items()}
