"""Emotion classifiers over per-utterance feature vectors.

Three algorithms: classification-via-regression (one-vs-rest regression
trees on 0/1 indicators, variance-reduction splits), Gaussian naive
Bayes, and the nearest-neighbour rule (1-NN). Everything is deterministic:
seeded stratified splits, fixed tie-breaking in Joy < Neutral < Anger order
for the trees and naive Bayes, and the first of equally near training rows
for 1-NN.

Training sorts each feature once, stably, for all trees; a pure node is a
leaf, any other node scans every feature in one `best_split_scan` call and
its children keep their rows in that order. Each model's `predict` labels
every row of a 2-D array; 1-NN screens the training rows with one matrix
product per block of test rows and measures only near ties exactly. The
trainers, `split` and `classification_accuracy` take a `VectorSet`, one
subject's vectors stacked once as an (n, d) array with a label per row;
the embeddings CSV holds one row per vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SplitSpec, TreeConfig
from .errors import (
    EmptyTestSetError,
    InvalidSignalError,
    SingleClassError,
    TooFewExamplesError,
    named,
)
from .signal_io import EMOTION_ORDER, VALUE_LIMIT, EmotionLabel, read_columns, write_table

GNB_VARIANCE_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class VectorSet:
    """Labeled feature vectors: `features` is (n, d) float64, `labels` in row order.

    Each value must be finite with magnitude below `VALUE_LIMIT`.
    """

    features: np.ndarray
    labels: tuple

    def __post_init__(self):
        if not (np.abs(self.features) < VALUE_LIMIT).all():
            raise InvalidSignalError(f"a feature value is not finite or is {VALUE_LIMIT:g} "
                                     "or more in magnitude")

    def __len__(self) -> int:
        return len(self.labels)


def embeddings_header(n_cepstra: int) -> list[str]:
    return ["subject_id", "emotion"] + [f"c{i}" for i in range(n_cepstra)] + ["fd"]


@dataclass(frozen=True)
class _EmbeddingRow:  # the columns of an embeddings table, as `read_columns` reads them
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
    subject_ids, labels, block = read_columns(
        path, _EmbeddingRow, lambda width: embeddings_header(width - 3))
    rows = {}
    for i, subject_id in enumerate(subject_ids):
        rows.setdefault(subject_id, []).append(i)
    with named(path):
        return {subject_id: VectorSet(block[at], tuple(map(labels.__getitem__, at)))
                for subject_id, at in rows.items()}


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
    targets = y[rows]
    leaf = {"leaf": float(targets.mean())}
    # a pure node's scan sums small integers, so every gain it finds is exactly 0
    if (depth >= config.max_depth or rows.size < 2 * config.min_leaf
            or targets.min() == targets.max()):
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


def train_cvr(data: VectorSet, tree_config: TreeConfig = TreeConfig()) -> CvrModel:
    """One-vs-rest regression trees over 0/1 class indicators."""
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


def train_gnb(data: VectorSet) -> GnbModel:
    """Per-class Gaussian likelihoods with class priors."""
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


# --- nearest neighbour ---

# The screen holds at most this many (test row, training row) pairs at a
# time, 512 KiB per float64 temporary: a default subject's test rows fit
# in one block.
SCREEN_PAIRS = 2 ** 16


@dataclass(frozen=True, eq=False)
class KnnModel:
    classes: tuple
    train_x: np.ndarray
    train_labels: tuple

    def predict(self, X: np.ndarray) -> list:
        """The label of each row's nearest training row; the first of equally near ones wins.

        "Nearest" is by the distance `np.linalg.norm(train_x - x, axis=1)`
        gives, bit for bit: `sqrt` of `np.add.reduce` over the squared
        differences. A screen finds the training rows that can be nearest,
        and only a test row left with two or more is measured that way.

        The screen takes a block of test rows' squared distances from one
        product, s = N − 2 x·t with N = |x|² + |t|². With d columns and unit
        roundoff u, s and the exact squared distance E (before `sqrt`) each
        lie within 2 (d + 2) u N of the true one, whatever order the sums
        take. Below the normal range each product may also lose up to
        2⁻¹⁰⁷⁵ outright, which the `tiny` added to N covers. The slack,
        16 (d + 4) eps N with eps = 2u, is eight times the two errors
        together. A training row is dropped only when its s − slack
        exceeds the s + slack of another row, which is itself kept. Then
        its E exceeds that row's E by more than 4u times that E, the
        relative gap below which `sqrt` could round the two alike. So an
        excluded row's rounded distance is strictly larger than a kept
        row's, the first nearest row is always kept, and a test row left
        with one kept row needs no exact check.
        """
        train = self.train_x
        n_train, d = train.shape
        train_sq = np.einsum("ij,ij->i", train, train)
        finfo = np.finfo(np.float64)
        relative = 16 * (d + 4) * finfo.eps
        step = max(1, SCREEN_PAIRS // n_train)
        nearest = np.empty(X.shape[0], dtype=np.intp)
        for start in range(0, X.shape[0], step):
            block = X[start:start + step]
            both = np.einsum("ij,ij->i", block, block)[:, None] + train_sq
            screen = both - 2.0 * (block @ train.T)
            slack = relative * (both + finfo.tiny)
            # a NaN compares false, so its row stays a candidate
            dropped = screen - slack > np.min(screen + slack, axis=1, keepdims=True)
            out = nearest[start:start + step]
            out[:] = np.argmin(dropped, axis=1)
            for i in np.flatnonzero(np.count_nonzero(dropped, axis=1) < n_train - 1).tolist():
                out[i] = _first_nearest(train, np.flatnonzero(~dropped[i]), block[i])
        return [self.train_labels[i] for i in nearest.tolist()]


def _first_nearest(train: np.ndarray, rows: np.ndarray, x: np.ndarray) -> int:
    """The first of the ascending `rows` of `train` nearest to `x`, by
    `np.linalg.norm`'s distance."""
    diff = train[rows] - x
    return rows[np.argmin(np.sqrt(np.add.reduce(diff * diff, axis=1)))]


def train_knn(data: VectorSet) -> KnnModel:
    classes = _check_training(data.labels, min_per_class=1)
    return KnnModel(classes=tuple(classes), train_x=data.features, train_labels=data.labels)


# --- evaluation ---

def split(data: VectorSet, spec: SplitSpec) -> tuple[VectorSet, VectorSet]:
    """Seeded stratified train/test split.

    Each label stratum is shuffled independently and cut at
    round(train_fraction * stratum size); output order follows the
    original dataset order.
    """
    rng = np.random.default_rng(spec.seed)
    in_train = np.zeros(len(data), dtype=bool)
    for c in EMOTION_ORDER:
        stratum = np.flatnonzero([label == c for label in data.labels])
        if not stratum.size:
            continue
        perm = rng.permutation(stratum.size)
        n_train = int(np.floor(spec.train_fraction * stratum.size + 0.5))
        n_train = min(max(n_train, 1 if stratum.size > 1 else 0), stratum.size)
        in_train[stratum[perm[:n_train]]] = True
    return tuple(VectorSet(data.features[rows], tuple(data.labels[i] for i in rows.tolist()))
                 for rows in (np.flatnonzero(in_train), np.flatnonzero(~in_train)))


def classification_accuracy(model, test: VectorSet) -> float:
    """Percent of correctly labeled test vectors."""
    if not len(test):
        raise EmptyTestSetError("empty test set")
    correct = sum(1 for got, lab in zip(model.predict(test.features), test.labels) if got == lab)
    return 100.0 * correct / len(test)
