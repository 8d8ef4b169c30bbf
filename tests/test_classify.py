import numpy as np
import pytest

from voicehr.classify import (
    LabeledVector,
    SplitSpec,
    TreeConfig,
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
        probes = [v.features for v in blob_vectors[::7]]
        assert [a.predict(x) for x in probes] == [b.predict(x) for x in probes]

    def test_monotone_scaling_invariance(self, blob_vectors):
        model = train_cvr(blob_vectors)
        scaled = [LabeledVector(features=v.features * 4.0, label=v.label)
                  for v in blob_vectors]
        scaled_model = train_cvr(scaled)
        for v in blob_vectors[::5]:
            assert model.predict(v.features) == scaled_model.predict(v.features * 4.0)


class TestTrainGnb:
    def test_decision_boundary_symmetric_classes(self):
        rng = np.random.default_rng(19)
        features = ([[rng.normal(-3.0, 1.0)] for _ in range(400)]
                    + [[rng.normal(3.0, 1.0)] for _ in range(400)])
        labels = [EmotionLabel.JOY] * 400 + [EmotionLabel.ANGER] * 400
        model = train_gnb(make_data(features, labels))
        xs = np.linspace(-1.0, 1.0, 2001)
        predictions = [model.predict(np.array([x])) for x in xs]
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
        probes = [v.features for v in blob_vectors[::7]]
        assert [a.predict(x) for x in probes] == [b.predict(x) for x in probes]


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
        for v in blob_vectors[::5]:
            assert model.predict(v.features) == scaled_model.predict(v.features * 2.5)


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
