import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import split_scan_loop
from voicehr.classify import best_split_scan
from voicehr.ecg_hr import refractory_select


@st.composite
def split_cases(draw):
    """Ascending feature values (often tied), targets (often 0/1), min_leaf <= n/2."""
    n = draw(st.integers(1, 200))
    if draw(st.booleans()):
        value = st.integers(0, 5).map(float)
    else:
        value = st.floats(-1e3, 1e3, allow_nan=False)
    if draw(st.booleans()):
        target = st.sampled_from([0.0, 1.0])
    else:
        target = st.floats(-10.0, 10.0, allow_nan=False)
    values = draw(st.lists(value, min_size=n, max_size=n))
    targets = draw(st.lists(target, min_size=n, max_size=n))
    min_leaf = draw(st.integers(1, max(1, n // 2)))
    return np.sort(np.asarray(values)), np.asarray(targets), min_leaf


class TestBestSplitScan:
    @settings(max_examples=400, deadline=None)
    @given(split_cases())
    def test_matches_loop_oracle(self, case):
        values, targets, min_leaf = case
        assert (best_split_scan(values, targets, min_leaf)
                == split_scan_loop(values, targets, min_leaf))


class TestRefractorySelect:
    def test_stronger_peak_wins_within_gap(self):
        candidates = np.array([100, 130, 400, 420, 450, 900], dtype=np.int64)
        strength = np.array([1.0, 2.0, 5.0, 3.0, 4.0, 1.0])
        kept = refractory_select(candidates, strength, 100)
        np.testing.assert_array_equal(kept, [1, 2, 5])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 80), st.floats(0.0, 1.0)), max_size=100),
           st.integers(1, 120))
    def test_drops_only_for_a_stronger_neighbour(self, steps, gap):
        candidates = np.cumsum([s for s, _ in steps]).astype(np.int64)
        strength = np.asarray([w for _, w in steps])
        kept = refractory_select(candidates, strength, gap)
        assert np.all(np.diff(candidates[kept]) >= gap)
        for i in sorted(set(range(candidates.size)) - set(kept.tolist())):
            near = np.abs(candidates - candidates[i]) < gap
            near[i] = False
            assert np.any(strength[near] >= strength[i])
