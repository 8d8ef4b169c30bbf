import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cvr_predict_one,
    cvr_trees_loop,
    gnb_log_likelihood_one,
    gnb_predict_one,
    knn_predict_one,
    split_scan_loop,
)
from voicehr.classify import (
    LabeledVector,
    SplitSpec,
    TreeConfig,
    best_split_scan,
    classification_accuracy,
    split,
    train_cvr,
    train_gnb,
    train_knn,
)
from voicehr.errors import EmptyTestSetError, SingleClassError, TooFewExamplesError
from voicehr.signal_io import EMOTION_ORDER, EmotionLabel


def make_data(features, labels):
    return [LabeledVector(features=np.asarray(f, dtype=float), label=lab)
            for f, lab in zip(features, labels)]


class TestTrainCvr:
    def test_single_class(self):
        data = make_data([[i, 0] for i in range(10)], [EmotionLabel.JOY] * 10)
        with pytest.raises(SingleClassError):
            train_cvr(data)

    def test_too_few_per_class(self):
        data = make_data([[i, 0] for i in range(8)],
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
        model = train_cvr(make_data(features, labels))
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
        rng = np.random.default_rng(7)
        shuffled = list(blob_vectors)
        rng.shuffle(shuffled)
        a = train_cvr(blob_vectors)
        b = train_cvr(shuffled)
        probes = np.stack([v.features for v in blob_vectors[::7]])
        assert a.predict(probes) == b.predict(probes)

    def test_monotone_scaling_invariance(self, blob_vectors):
        model = train_cvr(blob_vectors)
        scaled = [LabeledVector(features=v.features * 4.0, label=v.label)
                  for v in blob_vectors]
        scaled_model = train_cvr(scaled)
        probes = np.stack([v.features for v in blob_vectors[::5]])
        assert model.predict(probes) == scaled_model.predict(probes * 4.0)


class TestTrainGnb:
    def test_decision_boundary_symmetric_classes(self):
        rng = np.random.default_rng(19)
        features = ([[rng.normal(-3.0, 1.0)] for _ in range(400)]
                    + [[rng.normal(3.0, 1.0)] for _ in range(400)])
        labels = [EmotionLabel.JOY] * 400 + [EmotionLabel.ANGER] * 400
        model = train_gnb(make_data(features, labels))
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
        rng = np.random.default_rng(7)
        shuffled = list(blob_vectors)
        rng.shuffle(shuffled)
        a, b = train_gnb(blob_vectors), train_gnb(shuffled)
        probes = np.stack([v.features for v in blob_vectors[::7]])
        assert a.predict(probes) == b.predict(probes)


class TestTrainKnn:
    def test_perfect_on_own_training_set(self, blob_vectors):
        model = train_knn(blob_vectors, k=1)
        assert classification_accuracy(model, blob_vectors) == 100.0

    def test_blobs_holdout_accuracy(self, blob_vectors):
        train, test = split(blob_vectors, SplitSpec(seed=3))
        model = train_knn(train, k=1)
        assert classification_accuracy(model, test) >= 95.0

    def test_scaling_invariance(self, blob_vectors):
        model = train_knn(blob_vectors, k=3)
        scaled = [LabeledVector(features=v.features * 2.5, label=v.label)
                  for v in blob_vectors]
        scaled_model = train_knn(scaled, k=3)
        probes = np.stack([v.features for v in blob_vectors[::5]])
        assert model.predict(probes) == scaled_model.predict(probes * 2.5)


class TestSplit:
    def test_stratified_counts(self):
        data = make_data([[i] for i in range(90)],
                         [EMOTION_ORDER[i % 3] for i in range(90)])
        train, test = split(data, SplitSpec(train_fraction=0.66, seed=1))
        assert len(train) == 60
        assert len(test) == 30
        for c in EMOTION_ORDER:
            assert sum(1 for d in train if d.label == c) == 20
            assert sum(1 for d in test if d.label == c) == 10

    def test_determinism(self):
        data = make_data([[i] for i in range(50)],
                         [EMOTION_ORDER[i % 3] for i in range(50)])
        a = split(data, SplitSpec(seed=9))
        b = split(data, SplitSpec(seed=9))
        assert [id(v) for v in a[0]] == [id(v) for v in b[0]]
        assert [id(v) for v in a[1]] == [id(v) for v in b[1]]

    def test_fuzzed_partition_invariants(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(3, 60))
            labels = [EMOTION_ORDER[int(rng.integers(0, 3))] for _ in range(n)]
            data = make_data([[float(i)] for i in range(n)], labels)
            spec = SplitSpec(train_fraction=float(rng.uniform(0.2, 0.9)),
                             seed=int(rng.integers(0, 1000)))
            train, test = split(data, spec)
            assert len(train) + len(test) == n
            assert {id(v) for v in train}.isdisjoint({id(v) for v in test})
            for c in EMOTION_ORDER:
                stratum = sum(1 for d in data if d.label == c)
                if stratum == 0:
                    continue
                got = sum(1 for d in train if d.label == c)
                target = spec.train_fraction * stratum
                assert abs(got - target) <= 1.0


class TestClassificationAccuracy:
    def test_empty_test_set(self, blob_vectors):
        model = train_knn(blob_vectors)
        with pytest.raises(EmptyTestSetError):
            classification_accuracy(model, [])

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(67)
        data = make_data(rng.normal(size=(1000, 3)).tolist(),
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
def labeled_sets(draw):
    """(training vectors, probe rows) with heavily tied, constant and
    continuous feature columns; the probes include every training row."""
    labels = []
    for c in draw(st.sampled_from(CLASS_SETS)):
        labels += [c] * draw(st.integers(5, 25))
    # up to 16 columns: numpy sums 8 or more terms pairwise, fewer in a row
    kinds = draw(st.lists(st.sampled_from(["ties", "constant", "normal"]),
                          min_size=1, max_size=16))
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
    return make_data(X[:len(labels)], labels), X


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
    @given(labeled_sets(), st.sampled_from([1, 2, 3, 5]), st.data())
    def test_knn_labels(self, case, k, data):
        """Even k ties votes, so the summed distance decides; k may exceed a
        class's count; copies of training rows, under any label, give equal
        distances that the stable order must break as the oracle does."""
        train, probes = case
        copies = data.draw(st.lists(st.tuples(st.integers(0, len(train) - 1),
                                              st.sampled_from(EMOTION_ORDER)), max_size=12))
        train = train + [LabeledVector(train[i].features, label) for i, label in copies]
        model = train_knn(train, k=k)
        assert model.predict(probes) == [knn_predict_one(model, x) for x in probes]


class TestTreeConfig:
    @pytest.mark.parametrize("max_depth, min_leaf", [(-1, 5), (-3, 5), (6, 0), (6, -2)])
    def test_bad_numbers(self, max_depth, min_leaf):
        with pytest.raises(ValueError, match="^require max_depth >= 0 and min_leaf >= 1, "
                                             f"got {max_depth}, {min_leaf}$"):
            TreeConfig(max_depth=max_depth, min_leaf=min_leaf)

    def test_edges_accepted(self):
        config = TreeConfig(max_depth=0, min_leaf=1)
        assert (config.max_depth, config.min_leaf) == (0, 1)
