"""Manifest-to-observations extraction.

Walks a dataset manifest, computes per-utterance embeddings and feature
distances against each subject's neutral enrollment reference, extracts
heart rates from the paired ECG records, and emits Observation rows plus
the classification feature vectors.
"""

from __future__ import annotations

import functools
import os
from operator import attrgetter
from pathlib import Path

import numpy as np

from ._parallel import Stages, map_jobs
from .classify import VectorSet
from .config import FeatureConfig, PeakConfig
from .ecg_hr import extract_heart_rate
from .errors import named
from .regression import FEATURES_HEADER, Observation
from .signal_io import (
    EmotionLabel,
    ManifestEntry,
    load_audio,
    load_ecg,
    take_stem,
    write_matrix,
    write_table,
)
from .speech_features import feature_distance, mfcc, subject_reference, utterance_embedding


def _extract_slice(entries: list[ManifestEntry], feature_config: FeatureConfig = FeatureConfig(),
                   peak_config: PeakConfig = PeakConfig(), cepstra_dir=None):
    """(embedding, heart rate) of each take of a slice.

    Stage by stage across the slice: every WAV is loaded and embedded,
    then every ECG is loaded and its peaks detected. With `cepstra_dir`,
    each take's cepstra matrix is also written there as
    `<subject>_<emotion>_<take>.csv`. An error of `mfcc` or of the
    detector names the WAV or ECG file it came from, as the loaders'
    errors do.
    """
    def embed(entry):
        clip = load_audio(entry.audio_path)
        with named(entry.audio_path):
            cepstra = mfcc(clip, feature_config)
        if cepstra_dir is not None:
            stem = take_stem(entry.subject_id, entry.emotion, entry.take_index)
            write_matrix(os.path.join(cepstra_dir, f"{stem}.csv"), cepstra.frames)
        return utterance_embedding(cepstra)

    def heart_rate(entry):
        record = load_ecg(entry.ecg_path)
        with named(entry.ecg_path):
            return extract_heart_rate(record, peak_config)

    stages = Stages()
    embeddings = stages.map(embed, entries)
    heart_rates = stages.map(heart_rate, entries)
    return stages.result(list(zip(embeddings, heart_rates)))


def extract_observations(entries: tuple[ManifestEntry, ...],
                         feature_config: FeatureConfig = FeatureConfig(),
                         peak_config: PeakConfig = PeakConfig(),
                         cepstra_dir=None):
    """Compute (observations, vectors_by_subject) for a manifest's entries.

    The takes go through `_extract_slice` in slices of consecutive takes,
    in a second process too when the manifest is large (see
    `_parallel.map_jobs`). The reference embedding per subject is then
    the mean over its neutral takes (all of them; the evaluation holdout
    happens downstream), or over every take when a subject has no
    neutral recordings. A subject's
    `VectorSet` has a row per take, in manifest order: its embedding,
    then its feature distance. With `cepstra_dir`, every take's cepstra
    matrix is written there too.
    """
    if cepstra_dir is not None:
        Path(cepstra_dir).mkdir(parents=True, exist_ok=True)
    per_take = map_jobs(functools.partial(_extract_slice, feature_config=feature_config,
                                          peak_config=peak_config, cepstra_dir=cepstra_dir),
                        entries)
    # each subject's neutral takes and all its takes, in entry order: the
    # order the reference mean adds them in
    neutral, every = {}, {}
    for entry, (emb, _) in zip(entries, per_take):
        every.setdefault(entry.subject_id, []).append(emb)
        if entry.emotion == EmotionLabel.NEUTRAL:
            neutral.setdefault(entry.subject_id, []).append(emb)
    references = {subject_id: subject_reference(neutral.get(subject_id) or takes)
                  for subject_id, takes in every.items()}

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
