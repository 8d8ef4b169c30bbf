"""Emotion classifiers over per-utterance feature vectors.

Three algorithms: classification-via-regression (one-vs-rest regression
trees on 0/1 indicators, variance-reduction splits), Gaussian naive
Bayes, and k-nearest-neighbor. Everything is deterministic: seeded
stratified splits and fixed tie-breaking in Joy < Neutral < Anger order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyTestSetError,
    SingleClassError,
    TooFewExamplesError,
)
from .signal_io import EMOTION_ORDER, EmotionLabel

GNB_VARIANCE_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class LabeledVector:
    features: np.ndarray
    label: EmotionLabel
    subject_id: str = ""


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.66
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 6
    min_leaf: int = 5


def _as_arrays(data):
    X = np.stack([d.features for d in data]).astype(np.float64)
    labels = [d.label for d in data]
    return X, labels


def _classes_present(labels):
    return [c for c in EMOTION_ORDER if c in labels]


def _check_training(data, min_per_class: int):
    labels = [d.label for d in data]
    classes = _classes_present(labels)
    if len(classes) < 2:
        raise SingleClassError("training data contains a single class")
    for c in classes:
        count = labels.count(c)
        if count < min_per_class:
            raise TooFewExamplesError(f"class {c.value}: {count} < {min_per_class} examples")
    return classes


# --- regression trees on class indicators ---

def best_split_scan(values, targets, min_leaf):
    """Best variance-reduction split of one feature.

    `values` must be ascending with `targets` permuted alongside.
    Returns (threshold, gain); gain is the drop in total squared error
    relative to predicting the node mean. gain = -1.0 when no split
    leaves at least `min_leaf` samples on both sides. Among equal gains
    the leftmost split wins.
    """
    n = values.shape[0]
    if n < 2 * min_leaf:
        return 0.0, -1.0
    # cumsum adds left to right, so the totals carry the same bits as a
    # running sum; np.sum adds pairwise and would not.
    left_sum = np.cumsum(targets)
    total = left_sum[-1]
    total_sq = np.cumsum(targets * targets)[-1]
    parent_sse = total_sq - total * total / n
    n_left = np.arange(1, n)
    left_sum = left_sum[:-1]
    right_sum = total - left_sum
    children_sse = (total_sq
                    - left_sum * left_sum / n_left
                    - right_sum * right_sum / (n - n_left))
    gain = parent_sse - children_sse
    valid = ((values[1:] > values[:-1]) & (n_left >= min_leaf)
             & (n - n_left >= min_leaf) & (gain > -1.0))
    if not valid.any():
        return 0.0, -1.0
    i = int(np.argmax(np.where(valid, gain, -np.inf)))
    return 0.5 * (values[i] + values[i + 1]), gain[i]


def _build_tree(X, y, depth, config: TreeConfig) -> dict:
    n = y.size
    leaf = {"leaf": float(y.mean())}
    if depth >= config.max_depth or n < 2 * config.min_leaf:
        return leaf
    best = (-1.0, -1, 0.0)  # (gain, feature, threshold)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        thr, gain = best_split_scan(
            np.ascontiguousarray(X[order, j]),
            np.ascontiguousarray(y[order]),
            config.min_leaf,
        )
        if gain > best[0] + 1e-12:
            best = (gain, j, thr)
    gain, feature, threshold = best
    if gain <= 1e-12:
        return leaf
    mask = X[:, feature] <= threshold
    return {
        "feature": int(feature),
        "threshold": float(threshold),
        "left": _build_tree(X[mask], y[mask], depth + 1, config),
        "right": _build_tree(X[~mask], y[~mask], depth + 1, config),
    }


def _tree_predict(tree: dict, x: np.ndarray) -> float:
    node = tree
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


@dataclass(frozen=True, eq=False)
class CvrModel:
    classes: tuple
    trees: tuple  # one nested-dict tree per class, aligned with classes

    def predict(self, x: np.ndarray) -> EmotionLabel:
        scores = [_tree_predict(t, x) for t in self.trees]
        return self.classes[int(np.argmax(scores))]


def train_cvr(data, tree_config: TreeConfig = TreeConfig()) -> CvrModel:
    """One-vs-rest regression trees over 0/1 class indicators."""
    classes = _check_training(data, min_per_class=5)
    X, labels = _as_arrays(data)
    trees = []
    for c in classes:
        y = np.asarray([1.0 if lab == c else 0.0 for lab in labels])
        trees.append(_build_tree(X, y, 0, tree_config))
    return CvrModel(classes=tuple(classes), trees=tuple(trees))


# --- Gaussian naive Bayes ---

@dataclass(frozen=True, eq=False)
class GnbModel:
    classes: tuple
    means: np.ndarray      # (n_classes, d)
    variances: np.ndarray  # (n_classes, d)
    log_priors: np.ndarray

    def predict(self, x: np.ndarray) -> EmotionLabel:
        log_lik = -0.5 * np.sum(
            np.log(2.0 * np.pi * self.variances)
            + (x - self.means) ** 2 / self.variances, axis=1)
        return self.classes[int(np.argmax(log_lik + self.log_priors))]


def train_gnb(data) -> GnbModel:
    """Per-class Gaussian likelihoods with class priors."""
    classes = _check_training(data, min_per_class=2)
    X, labels = _as_arrays(data)
    means, variances, priors = [], [], []
    for c in classes:
        rows = X[np.asarray([lab == c for lab in labels])]
        means.append(rows.mean(axis=0))
        variances.append(np.maximum(rows.var(axis=0), GNB_VARIANCE_FLOOR))
        priors.append(rows.shape[0] / X.shape[0])
    return GnbModel(classes=tuple(classes), means=np.stack(means),
                    variances=np.stack(variances),
                    log_priors=np.log(np.asarray(priors)))


# --- k nearest neighbors ---

@dataclass(frozen=True, eq=False)
class KnnModel:
    classes: tuple
    train_x: np.ndarray
    train_labels: tuple
    k: int = 1

    def predict(self, x: np.ndarray) -> EmotionLabel:
        dist = np.linalg.norm(self.train_x - x, axis=1)
        nearest = np.argsort(dist, kind="stable")[: self.k]
        votes = {}
        for i in nearest:
            lab = self.train_labels[i]
            count, total = votes.get(lab, (0, 0.0))
            votes[lab] = (count + 1, total + dist[i])
        # majority vote; ties by smaller summed distance, then class order
        return min(
            votes,
            key=lambda lab: (-votes[lab][0], votes[lab][1], EMOTION_ORDER.index(lab)),
        )


def train_knn(data, k: int = 1) -> KnnModel:
    classes = _check_training(data, min_per_class=1)
    X, labels = _as_arrays(data)
    return KnnModel(classes=tuple(classes), train_x=X, train_labels=tuple(labels), k=k)


# --- evaluation ---

def split(data, spec: SplitSpec):
    """Seeded stratified train/test split.

    Each label stratum is shuffled independently and cut at
    round(train_fraction * stratum size); output order follows the
    original dataset order.
    """
    rng = np.random.default_rng(spec.seed)
    train_idx, test_idx = [], []
    for c in EMOTION_ORDER:
        stratum = [i for i, d in enumerate(data) if d.label == c]
        if not stratum:
            continue
        perm = rng.permutation(len(stratum))
        n_train = int(np.floor(spec.train_fraction * len(stratum) + 0.5))
        n_train = min(max(n_train, 1 if len(stratum) > 1 else 0), len(stratum))
        chosen = {stratum[p] for p in perm[:n_train]}
        train_idx.extend(sorted(chosen))
        test_idx.extend(sorted(set(stratum) - chosen))
    train_idx.sort()
    test_idx.sort()
    return [data[i] for i in train_idx], [data[i] for i in test_idx]


def classification_accuracy(model, test) -> float:
    """Percent of correctly labeled test vectors."""
    if not test:
        raise EmptyTestSetError("empty test set")
    correct = sum(1 for d in test if model.predict(d.features) == d.label)
    return 100.0 * correct / len(test)
