import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import vector_set
from oracles import (
    cvr_predict_one,
    cvr_trees_loop,
    gnb_log_likelihood_one,
    gnb_predict_one,
    knn_predict_one,
    split_loop,
    split_scan_loop,
)
from voicehr import classify
from voicehr.classify import (
    SplitSpec,
    TreeConfig,
    best_split_scan,
    classification_accuracy,
    split,
    train_cvr,
    train_gnb,
    train_knn,
)
from voicehr.errors import (
    EmptyTestSetError,
    InvalidSignalError,
    SingleClassError,
    TooFewExamplesError,
)
from voicehr.signal_io import EMOTION_ORDER, VALUE_LIMIT, EmotionLabel


def shuffled(data, rng):
    """`data` with its rows in the order `rng.shuffle` gives a list of them."""
    order = list(range(len(data)))
    rng.shuffle(order)
    return vector_set(data.features[order], [data.labels[i] for i in order])


def scaled(data, factor):
    return vector_set(data.features * factor, data.labels)


class TestTrainCvr:
    def test_single_class(self):
        data = vector_set([[i, 0] for i in range(10)], [EmotionLabel.JOY] * 10)
        with pytest.raises(SingleClassError):
            train_cvr(data)

    def test_too_few_per_class(self):
        data = vector_set([[i, 0] for i in range(8)],
                         [EmotionLabel.JOY] * 5 + [EmotionLabel.ANGER] * 3)
        with pytest.raises(TooFewExamplesError):
            train_cvr(data)

    def test_blobs_holdout_accuracy(self, blob_vectors):
        train, test = split(blob_vectors, SplitSpec(seed=3))
        model = train_cvr(train)
        assert classification_accuracy(model, test) >= 95.0

    def test_axis_separable_root_split(self):
        # feature 0 < 0 <=> Joy, with a clear margin gap (-0.5, 0.5)
        rng = np.random.default_rng(13)
        features, labels = [], []
        for _ in range(50):
            features.append([rng.uniform(-2.0, -0.5), rng.normal()])
            labels.append(EmotionLabel.JOY)
        for _ in range(50):
            features.append([rng.uniform(0.5, 2.0), rng.normal()])
            labels.append(EmotionLabel.NEUTRAL if rng.random() < 0.5
                          else EmotionLabel.ANGER)
        model = train_cvr(vector_set(features, labels))
        joy_tree = model.trees[model.classes.index(EmotionLabel.JOY)]
        assert joy_tree["feature"] == 0
        assert -0.5 < joy_tree["threshold"] < 0.5

    def test_leaf_values_are_indicator_means(self, blob_vectors):
        model = train_cvr(blob_vectors)

        def walk(node):
            if "leaf" in node:
                assert 0.0 <= node["leaf"] <= 1.0
            else:
                walk(node["left"])
                walk(node["right"])

        for tree in model.trees:
            walk(tree)

    def test_permutation_invariance(self, blob_vectors):
        a = train_cvr(blob_vectors)
        b = train_cvr(shuffled(blob_vectors, np.random.default_rng(7)))
        probes = blob_vectors.features[::7]
        assert a.predict(probes) == b.predict(probes)

    def test_monotone_scaling_invariance(self, blob_vectors):
        model = train_cvr(blob_vectors)
        scaled_model = train_cvr(scaled(blob_vectors, 4.0))
        probes = blob_vectors.features[::5]
        assert model.predict(probes) == scaled_model.predict(probes * 4.0)

    def test_pure_node_is_a_leaf_without_a_scan(self, monkeypatch):
        # feature j separates class j from the rest, so each root split
        # leaves two pure children; the loop oracle scans them, the
        # presorted trees do not
        labels = [c for c in EMOTION_ORDER for _ in range(12)]
        rng = np.random.default_rng(29)
        features = np.array([[float(lab == c) for c in EMOTION_ORDER] for lab in labels])
        data = vector_set(features + 0.1 * rng.random(features.shape), labels)
        calls = []

        def counted(*args):
            calls.append(args)
            return best_split_scan(*args)

        monkeypatch.setattr(classify, "best_split_scan", counted)
        model = train_cvr(data)
        assert len(calls) == 3
        assert (model.classes, model.trees) == cvr_trees_loop(data, TreeConfig())
        assert all("leaf" in tree["left"] and "leaf" in tree["right"] for tree in model.trees)


class TestTrainGnb:
    def test_decision_boundary_symmetric_classes(self):
        rng = np.random.default_rng(19)
        features = ([[rng.normal(-3.0, 1.0)] for _ in range(400)]
                    + [[rng.normal(3.0, 1.0)] for _ in range(400)])
        labels = [EmotionLabel.JOY] * 400 + [EmotionLabel.ANGER] * 400
        model = train_gnb(vector_set(features, labels))
        xs = np.linspace(-1.0, 1.0, 2001)
        predictions = model.predict(xs[:, None])
        flips = [x for x, a, b in zip(xs[1:], predictions, predictions[1:]) if a != b]
        assert len(flips) == 1
        assert abs(flips[0]) <= 0.1

    def test_blobs_holdout_accuracy(self, blob_vectors):
        train, test = split(blob_vectors, SplitSpec(seed=3))
        model = train_gnb(train)
        assert classification_accuracy(model, test) >= 95.0

    def test_permutation_invariance(self, blob_vectors):
        a = train_gnb(blob_vectors)
        b = train_gnb(shuffled(blob_vectors, np.random.default_rng(7)))
        probes = blob_vectors.features[::7]
        assert a.predict(probes) == b.predict(probes)


class TestTrainKnn:
    def test_perfect_on_own_training_set(self, blob_vectors):
        model = train_knn(blob_vectors)
        assert classification_accuracy(model, blob_vectors) == 100.0

    def test_blobs_holdout_accuracy(self, blob_vectors):
        train, test = split(blob_vectors, SplitSpec(seed=3))
        model = train_knn(train)
        assert classification_accuracy(model, test) >= 95.0

    def test_scaling_invariance(self, blob_vectors):
        model = train_knn(blob_vectors)
        scaled_model = train_knn(scaled(blob_vectors, 2.5))
        probes = blob_vectors.features[::5]
        assert model.predict(probes) == scaled_model.predict(probes * 2.5)


class TestSplit:
    def test_stratified_counts(self):
        data = vector_set([[i] for i in range(90)],
                         [EMOTION_ORDER[i % 3] for i in range(90)])
        train, test = split(data, SplitSpec(train_fraction=0.66, seed=1))
        assert len(train) == 60
        assert len(test) == 30
        for c in EMOTION_ORDER:
            assert train.labels.count(c) == 20
            assert test.labels.count(c) == 10

    def test_determinism(self):
        data = vector_set([[i] for i in range(50)],
                         [EMOTION_ORDER[i % 3] for i in range(50)])
        a = split(data, SplitSpec(seed=9))
        b = split(data, SplitSpec(seed=9))
        # each row's feature is its index
        for got, again in zip(a, b):
            assert got.features.tobytes() == again.features.tobytes()
            assert got.labels == again.labels

    def test_fuzzed_partition_invariants(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(3, 60))
            labels = [EMOTION_ORDER[int(rng.integers(0, 3))] for _ in range(n)]
            data = vector_set([[float(i)] for i in range(n)], labels)
            spec = SplitSpec(train_fraction=float(rng.uniform(0.2, 0.9)),
                             seed=int(rng.integers(0, 1000)))
            train, test = split(data, spec)
            assert len(train) + len(test) == n
            # each row's feature is its index
            assert set(train.features[:, 0]).isdisjoint(test.features[:, 0])
            for c in EMOTION_ORDER:
                stratum = data.labels.count(c)
                if stratum == 0:
                    continue
                got = train.labels.count(c)
                target = spec.train_fraction * stratum
                assert abs(got - target) <= 1.0

    def test_matches_list_split_oracle(self):
        """Index arrays cut the rows that the per-vector split draws, in order."""
        rng = np.random.default_rng(62)
        for _ in range(300):
            n = int(rng.integers(0, 60))
            labels = [EMOTION_ORDER[int(rng.integers(0, 3))] for _ in range(n)]
            data = vector_set(rng.normal(size=(n, 3)), labels)
            spec = SplitSpec(train_fraction=float(rng.uniform(0.05, 0.95)),
                             seed=int(rng.integers(0, 1000)))
            for got, rows in zip(split(data, spec), split_loop(data.labels, spec)):
                assert got.features.tobytes() == data.features[rows].tobytes()
                assert got.features.shape == (len(rows), 3)
                assert got.labels == tuple(data.labels[i] for i in rows)


class TestClassificationAccuracy:
    def test_empty_test_set(self, blob_vectors):
        model = train_knn(blob_vectors)
        with pytest.raises(EmptyTestSetError):
            classification_accuracy(model, vector_set(np.empty((0, 2)), []))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e9, 3.2e250])
    def test_feature_value_out_of_range(self, blob_vectors, value):
        # a set with such a value cannot be made, so no trainer sees one
        edge = vector_set([[0.5, -999999999.999999]], EMOTION_ORDER[:1])
        assert edge.features.shape == (1, 2)
        with pytest.raises(InvalidSignalError, match="^a feature value is not finite or "
                           "is 1e[+]09 or more in magnitude$"):
            vector_set([*blob_vectors.features, [0.5, value]],
                       [*blob_vectors.labels, EMOTION_ORDER[0]])

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(67)
        data = vector_set(rng.normal(size=(1000, 3)).tolist(),
                         [EMOTION_ORDER[int(rng.integers(0, 3))] for _ in range(1000)])
        train, test = split(data, SplitSpec(seed=2))
        model = train_gnb(train)
        accuracy = classification_accuracy(model, test)
        assert 33.3 - 5.0 <= accuracy <= 33.3 + 5.0


@st.composite
def split_columns(draw):
    """One node's (n, d) ascending feature columns (often tied), their targets
    (often 0/1) and a min_leaf <= n/2; each column is drawn on its own."""
    n = draw(st.integers(1, 200))
    values, targets = [], []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            value = st.integers(0, 5).map(float)
        else:
            value = st.floats(-1e3, 1e3, allow_nan=False)
        if draw(st.booleans()):
            target = st.sampled_from([0.0, 1.0])
        else:
            target = st.floats(-10.0, 10.0, allow_nan=False)
        values.append(np.sort(np.asarray(draw(st.lists(value, min_size=n, max_size=n)))))
        targets.append(draw(st.lists(target, min_size=n, max_size=n)))
    min_leaf = draw(st.integers(1, max(1, n // 2)))
    return np.column_stack(values), np.column_stack(targets), min_leaf


class TestBestSplitScan:
    @settings(max_examples=400, deadline=None)
    @given(split_columns())
    def test_matches_loop_oracle(self, case):
        values, targets, min_leaf = case
        thresholds, gains = best_split_scan(values, targets, min_leaf)
        assert list(zip(thresholds.tolist(), gains.tolist())) == [
            split_scan_loop(values[:, j], targets[:, j], min_leaf)
            for j in range(values.shape[1])]


CLASS_SETS = [EMOTION_ORDER[:2], EMOTION_ORDER[1:], EMOTION_ORDER[::2], EMOTION_ORDER]


@st.composite
def labeled_sets(draw, max_columns=16):
    """(training vectors, probe rows) with heavily tied, constant and
    continuous feature columns; the probes include every training row."""
    labels = []
    for c in draw(st.sampled_from(CLASS_SETS)):
        labels += [c] * draw(st.integers(5, 25))
    # up to 16 columns: numpy sums 8 or more terms pairwise, fewer in a row
    kinds = draw(st.lists(st.sampled_from(["ties", "constant", "normal"]),
                          min_size=1, max_size=max_columns))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rng.shuffle(labels)
    rows = len(labels) + 20
    columns = []
    for kind in kinds:
        if kind == "ties":
            columns.append(0.5 * rng.integers(0, 5, rows))
        elif kind == "constant":
            columns.append(np.full(rows, rng.normal()))
        else:
            columns.append(rng.normal(size=rows))
    X = np.column_stack(columns)
    return vector_set(X[:len(labels)], labels), X


# Column scales for the 1-NN screen: squares that underflow to zero, squares
# in the subnormal range, and values up to just below VALUE_LIMIT
SCREEN_EXPONENTS = [-170, -162, -160, -155, -3, 0, 4, 9]
BELOW_LIMIT = np.nextafter(VALUE_LIMIT, 0.0)


@st.composite
def screened_sets(draw):
    """(training vectors, probe rows) for the 1-NN screen: `labeled_sets`
    with up to 40 columns, each scaled by a power of ten from
    SCREEN_EXPONENTS and held below VALUE_LIMIT. The probes add copies of
    training rows moved one ulp, up or down, in some of their columns."""
    train, X = draw(labeled_sets(max_columns=40))
    exponents = draw(st.lists(st.sampled_from(SCREEN_EXPONENTS),
                              min_size=X.shape[1], max_size=X.shape[1]))
    X = np.clip(X * 10.0 ** np.array(exponents, dtype=float), -BELOW_LIMIT, BELOW_LIMIT)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    near = X[rng.integers(0, len(train), 20)]
    step = np.where(rng.random(near.shape) < 0.5, -np.inf, np.inf)
    near = np.where(rng.random(near.shape) < 0.5, np.nextafter(near, step), near)
    train = vector_set(X[:len(train)], train.labels)
    return train, np.vstack([X, np.clip(near, -BELOW_LIMIT, BELOW_LIMIT)])


class TestAgainstPerVectorOracle:
    """Presorted trees and batched predict against the per-vector models."""

    @settings(max_examples=400, deadline=None)
    @given(labeled_sets(), st.integers(0, 8), st.integers(1, 12))
    def test_cvr_trees_and_labels(self, case, max_depth, min_leaf):
        train, probes = case
        config = TreeConfig(max_depth=max_depth, min_leaf=min_leaf)
        model = train_cvr(train, config)
        assert (model.classes, model.trees) == cvr_trees_loop(train, config)
        assert model.predict(probes) == [cvr_predict_one(model, x) for x in probes]

    @settings(max_examples=200, deadline=None)
    @given(labeled_sets())
    def test_gnb_log_likelihoods_and_labels(self, case):
        train, probes = case
        model = train_gnb(train)
        assert np.array_equal(model.log_likelihoods(probes),
                              np.stack([gnb_log_likelihood_one(model, x) for x in probes]))
        assert model.predict(probes) == [gnb_predict_one(model, x) for x in probes]

    @settings(max_examples=300, deadline=None)
    @given(screened_sets(), st.data())
    def test_knn_labels(self, case, data):
        """Copies of training rows, under any label, give equal distances
        that the stable order must break as the oracle does; they and the
        probes one ulp from a training row leave the screen more than one
        candidate, which the exact check decides."""
        train, probes = case
        copies = data.draw(st.lists(st.tuples(st.integers(0, len(train) - 1),
                                              st.sampled_from(EMOTION_ORDER)), max_size=12))
        train = vector_set([*train.features, *(train.features[i] for i, _ in copies)],
                           [*train.labels, *(label for _, label in copies)])
        model = train_knn(train)
        assert model.predict(probes) == [knn_predict_one(model, x) for x in probes]


class TestKnnScreen:
    def test_duplicated_rows_take_the_exact_check(self, monkeypatch):
        # the screen cannot tell copies apart, so a probe at a duplicated
        # row keeps every copy and the exact distance decides; a probe
        # with one candidate left skips the check
        calls = []

        def counted(train, rows, x):
            calls.append(rows.tolist())
            return first_nearest(train, rows, x)

        first_nearest = classify._first_nearest
        monkeypatch.setattr(classify, "_first_nearest", counted)
        joy, neutral, anger = EMOTION_ORDER
        model = train_knn(vector_set([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0], [9.0, 9.0]],
                                     [joy, neutral, anger, joy, anger]))
        probes = np.array([[1.0, 2.0], [3.0, 4.0], [9.0, 9.0]])
        assert model.predict(probes) == [joy, neutral, anger]
        assert calls == [[0, 2], [1, 3]]

    @pytest.mark.parametrize("rows, probe, nearest", [
        # 1 + eps is one ulp farther from 0 than 1: too close for the
        # screen to drop, so only the exact check puts row 1 first
        ([[1.0 + np.finfo(float).eps], [1.0]], [0.0], 1),
        # one unit 2⁻⁵³⁹ either side of the probe, the exact distances tie;
        # below the normal range the screen's own rounding would drop row 0
        # but for the `tiny` in its slack
        ([[5 * 2.0 ** -539], [3 * 2.0 ** -539]], [4 * 2.0 ** -539], 0),
    ])
    def test_exact_check_decides(self, rows, probe, nearest):
        model = train_knn(vector_set(rows, EMOTION_ORDER[:2]))
        assert model.predict(np.array([probe])) == [EMOTION_ORDER[nearest]]

    def test_blocks_of_test_rows(self, blob_vectors, monkeypatch):
        # the same labels however many test rows share a block
        model = train_knn(blob_vectors)
        probes = blob_vectors.features[::3] + 0.01
        whole = model.predict(probes)
        monkeypatch.setattr(classify, "SCREEN_PAIRS", 7 * len(blob_vectors))
        assert model.predict(probes) == whole == [knn_predict_one(model, x) for x in probes]


class TestTreeConfig:
    @pytest.mark.parametrize("max_depth, min_leaf", [(-1, 5), (-3, 5), (6, 0), (6, -2)])
    def test_bad_numbers(self, max_depth, min_leaf):
        with pytest.raises(ValueError, match="^require max_depth >= 0 and min_leaf >= 1, "
                                             f"got {max_depth}, {min_leaf}$"):
            TreeConfig(max_depth=max_depth, min_leaf=min_leaf)

    def test_edges_accepted(self):
        config = TreeConfig(max_depth=0, min_leaf=1)
        assert (config.max_depth, config.min_leaf) == (0, 1)
