"""Emotion classifiers over per-utterance feature vectors.

Three algorithms: classification-via-regression (one-vs-rest regression
trees on 0/1 indicators, variance-reduction splits), Gaussian naive
Bayes, and k-nearest-neighbor. Everything is deterministic: seeded
stratified splits and fixed tie-breaking in Joy < Neutral < Anger order.

Training sorts each feature once, stably, for all trees; a node scans
every feature in one `best_split_scan` call and its children keep their
rows in that order. Each model's `predict` labels every row of a 2-D array.
The trainers and `classification_accuracy` take a list of LabeledVector or
a `VectorSet`, so a set used several times is stacked once.
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
    """One feature vector and its emotion.

    `features` may be a read-only view that shares its buffer with other
    vectors (`read_embeddings_csv` gives such rows); treat it as read-only.
    """

    features: np.ndarray
    label: EmotionLabel
    subject_id: str = ""


@dataclass(frozen=True, eq=False)
class VectorSet:
    """Labeled vectors stacked once: `features` is (n, d) float64, `labels` in row order."""

    features: np.ndarray
    labels: tuple

    def __len__(self) -> int:
        return len(self.labels)


def stack_vectors(data) -> VectorSet:
    """`data`, a list of LabeledVector or a VectorSet, as a VectorSet."""
    if isinstance(data, VectorSet):
        return data
    return VectorSet(np.array([d.features for d in data], dtype=np.float64),
                     tuple(d.label for d in data))


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

    def __post_init__(self):
        if self.max_depth < 0 or self.min_leaf < 1:
            raise ValueError("require max_depth >= 0 and min_leaf >= 1, got "
                             f"{self.max_depth}, {self.min_leaf}")


def _classes_present(labels):
    return [c for c in EMOTION_ORDER if c in labels]


def _check_training(labels, min_per_class: int):
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
    """Best variance-reduction split of every feature of a node.

    `values` is (n, d) with each column ascending and `targets` (n, d)
    permuted alongside it. Returns (thresholds, gains), one per column;
    a gain is the drop in total squared error relative to predicting the
    node mean, and -1.0 (threshold 0.0) when no split leaves at least
    `min_leaf` samples on both sides. Among equal gains in a column the
    leftmost split wins.
    """
    n, d = values.shape
    if n < 2 * min_leaf:
        return np.zeros(d), np.full(d, -1.0)
    # cumsum adds down each column in turn, so the totals carry the same
    # bits as a running sum; np.sum adds pairwise and would not.
    left_sum = np.cumsum(targets, axis=0)
    total = left_sum[-1]
    total_sq = np.cumsum(targets * targets, axis=0)[-1]
    parent_sse = total_sq - total * total / n
    n_left = np.arange(1, n)[:, None]
    left_sum = left_sum[:-1]
    right_sum = total - left_sum
    children_sse = (total_sq
                    - left_sum * left_sum / n_left
                    - right_sum * right_sum / (n - n_left))
    gain = parent_sse - children_sse
    valid = ((values[1:] > values[:-1]) & (n_left >= min_leaf)
             & (n - n_left >= min_leaf) & (gain > -1.0))
    i = np.argmax(np.where(valid, gain, -np.inf), axis=0)
    cols = np.arange(d)
    found = valid[i, cols]
    return (np.where(found, 0.5 * (values[i, cols] + values[i + 1, cols]), 0.0),
            np.where(found, gain[i, cols], -1.0))


def _build_tree(X, y, rows, orders, depth, config: TreeConfig) -> dict:
    """Tree over the ascending training `rows`; column j of `orders` holds
    them sorted stably by feature j, and each child keeps its share in order."""
    leaf = {"leaf": float(y[rows].mean())}
    if depth >= config.max_depth or rows.size < 2 * config.min_leaf:
        return leaf
    thresholds, gains = best_split_scan(
        np.take_along_axis(X, orders, axis=0), y[orders], config.min_leaf)
    best, feature = -1.0, -1
    for j, gain in enumerate(gains.tolist()):
        if gain > best + 1e-12:
            best, feature = gain, j
    if best <= 1e-12:
        return leaf
    threshold = float(thresholds[feature])
    goes_left = X[:, feature] <= threshold
    node = {"feature": feature, "threshold": threshold}
    for side, mask in (("left", goes_left), ("right", ~goes_left)):
        kept = orders.T[mask[orders].T].reshape(X.shape[1], -1).T
        node[side] = _build_tree(X, y, rows[mask[rows]], kept, depth + 1, config)
    return node


def _tree_predict(tree: dict, X: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Write the leaf value of each of `X[rows]` into `out[rows]`."""
    if "leaf" in tree:
        out[rows] = tree["leaf"]
        return
    left = X[rows, tree["feature"]] <= tree["threshold"]
    _tree_predict(tree["left"], X, rows[left], out)
    _tree_predict(tree["right"], X, rows[~left], out)


@dataclass(frozen=True, eq=False)
class CvrModel:
    classes: tuple
    trees: tuple  # one nested-dict tree per class, aligned with classes

    def predict(self, X: np.ndarray) -> list:
        scores = np.empty((len(self.trees), X.shape[0]))
        for tree, out in zip(self.trees, scores):
            _tree_predict(tree, X, np.arange(X.shape[0]), out)
        return [self.classes[i] for i in np.argmax(scores, axis=0)]


def train_cvr(data, tree_config: TreeConfig = TreeConfig()) -> CvrModel:
    """One-vs-rest regression trees over 0/1 class indicators."""
    data = stack_vectors(data)
    classes = _check_training(data.labels, min_per_class=5)
    X, labels = data.features, data.labels
    rows = np.arange(X.shape[0])
    orders = np.argsort(X, axis=0, kind="stable")  # shared by every tree
    trees = []
    for c in classes:
        y = np.asarray([1.0 if lab == c else 0.0 for lab in labels])
        trees.append(_build_tree(X, y, rows, orders, 0, tree_config))
    return CvrModel(classes=tuple(classes), trees=tuple(trees))


# --- Gaussian naive Bayes ---

@dataclass(frozen=True, eq=False)
class GnbModel:
    classes: tuple
    means: np.ndarray      # (n_classes, d)
    variances: np.ndarray  # (n_classes, d)
    log_priors: np.ndarray

    def log_likelihoods(self, X: np.ndarray) -> np.ndarray:
        """(n, n_classes) Gaussian log-likelihoods of the rows of X, priors left out."""
        return -0.5 * np.sum(
            np.log(2.0 * np.pi * self.variances)
            + (X[:, None, :] - self.means) ** 2 / self.variances, axis=2)

    def predict(self, X: np.ndarray) -> list:
        best = np.argmax(self.log_likelihoods(X) + self.log_priors, axis=1)
        return [self.classes[i] for i in best]


def train_gnb(data) -> GnbModel:
    """Per-class Gaussian likelihoods with class priors."""
    data = stack_vectors(data)
    classes = _check_training(data.labels, min_per_class=2)
    X, labels = data.features, data.labels
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

    def predict(self, X: np.ndarray) -> list:
        # Euclidean distances with np.linalg.norm's bits, a test row at a
        # time: a (n_test, n_train, d) broadcast has the same bits but
        # measured slower
        dist = np.empty((X.shape[0], self.train_x.shape[0]))
        for x, out in zip(X, dist):
            d = self.train_x - x
            np.sqrt(np.add.reduce(d * d, axis=1), out=out)
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :self.k]
        codes = np.array([EMOTION_ORDER.index(lab) for lab in self.train_labels])
        # votes[row, class]: the k neighbours' count and summed distance,
        # added in neighbour order as a running sum
        hits = codes[nearest][:, :, None] == np.arange(len(EMOTION_ORDER))
        counts = hits.sum(axis=1)
        near = np.take_along_axis(dist, nearest, axis=1)
        totals = np.cumsum(np.where(hits, near[:, :, None], 0.0), axis=1)[:, -1]
        # majority vote; ties by smaller summed distance, then class order
        best = np.lexsort((totals, -counts), axis=1)[:, 0]
        return [EMOTION_ORDER[i] for i in best]


def train_knn(data, k: int = 1) -> KnnModel:
    data = stack_vectors(data)
    classes = _check_training(data.labels, min_per_class=1)
    return KnnModel(classes=tuple(classes), train_x=data.features, train_labels=data.labels,
                    k=k)


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
    if not len(test):
        raise EmptyTestSetError("empty test set")
    test = stack_vectors(test)
    correct = sum(1 for got, lab in zip(model.predict(test.features), test.labels) if got == lab)
    return 100.0 * correct / len(test)
