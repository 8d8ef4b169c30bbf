import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from voicehr.ecg_hr import (
    PeakConfig,
    _band_pass,
    detect_r_peaks,
    extract_heart_rate,
    heart_rate_1500,
    refractory_select,
)
from voicehr.errors import (
    InsufficientPeaksError,
    NonPositiveIntervalError,
    NoPeaksFoundError,
    SignalTooShortError,
)
from voicehr.signal_io import EcgRecord
from voicehr.synth import synth_ecg


def impulse_train(n, start, period, rate=500.0):
    x = np.zeros(n)
    x[start::period] = 1.0
    return EcgRecord(x, rate)


class TestBandPass:
    @pytest.mark.parametrize("rate", [250.0, 500.0, 25.0])
    def test_memoised_coefficients_match_a_fresh_design(self, rate):
        b, a = _band_pass(rate, 5.0, 15.0)
        with pytest.raises(ValueError):
            b[0] = 0.0
        with pytest.raises(ValueError):
            a[0] = 0.0
        nyq = rate / 2.0
        high = min(15.0, 0.99 * nyq)
        fresh_b, fresh_a = signal.butter(2, [min(5.0, 0.5 * high) / nyq, high / nyq],
                                         btype="band")
        assert b.tobytes() == fresh_b.tobytes() and a.tobytes() == fresh_a.tobytes()


class TestDetectRPeaks:
    def test_impulse_train_found_at_impulses(self):
        record = impulse_train(5000, 200, 400)  # 10 s at 500 Hz
        peaks = detect_r_peaks(record)
        planted = np.arange(200, 5000, 400)
        assert peaks.peak_indices.size == planted.size
        assert np.max(np.abs(peaks.peak_indices - planted)) <= 2

    def test_all_zero_record(self):
        with pytest.raises(NoPeaksFoundError):
            detect_r_peaks(EcgRecord(np.zeros(5000), 500.0))

    def test_too_short(self):
        with pytest.raises(SignalTooShortError):
            detect_r_peaks(EcgRecord(np.ones(100), 500.0))

    def test_noisy_template_train_snr_20db(self):
        record, beats = synth_ecg(75.0, 250.0, 30.0, phase_s=0.2)
        signal_power = np.mean(record.samples ** 2)
        rng = np.random.default_rng(1)
        noise = rng.normal(0.0, np.sqrt(signal_power / 100.0), record.samples.size)
        noisy = EcgRecord(record.samples + noise, 250.0)
        peaks = detect_r_peaks(noisy)
        assert abs(peaks.peak_indices.size - beats.size) <= 1

    def test_scale_invariance(self):
        record = impulse_train(5000, 200, 400)
        reference = detect_r_peaks(record)
        for c in (1e-3, 0.5, 40.0, 1e4):
            scaled = detect_r_peaks(EcgRecord(record.samples * c, 500.0))
            assert np.array_equal(scaled.peak_indices, reference.peak_indices)

    def test_time_shift_equivariance(self):
        record, _ = synth_ecg(80.0, 250.0, 12.0, phase_s=0.4)
        base_hr = extract_heart_rate(record).bpm
        k = 2.0  # seconds of prepended baseline
        shifted = EcgRecord(
            np.concatenate([np.zeros(int(k * 250)), record.samples]), 250.0)
        base_peaks = detect_r_peaks(record).peak_indices
        shifted_peaks = detect_r_peaks(shifted).peak_indices
        expect = base_peaks + int(k * 250)
        matched = shifted_peaks[-expect.size:]
        assert np.max(np.abs(matched - expect)) <= 2
        assert abs(extract_heart_rate(shifted).bpm - base_hr) < 0.5


class TestHeartRate1500:
    def test_twenty_small_squares(self):
        assert heart_rate_1500(0.8) == pytest.approx(75.0)

    def test_one_second(self):
        assert heart_rate_1500(1.0) == pytest.approx(60.0)

    def test_matches_sixty_over_rr(self):
        rng = np.random.default_rng(3)
        for rr in rng.uniform(0.4, 1.5, 500):
            assert heart_rate_1500(rr) == pytest.approx(60.0 / rr, abs=1e-12)

    def test_strictly_decreasing(self):
        rr = np.linspace(0.3, 2.0, 200)
        rates = [heart_rate_1500(r) for r in rr]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_non_positive(self):
        with pytest.raises(NonPositiveIntervalError):
            heart_rate_1500(0.0)
        with pytest.raises(NonPositiveIntervalError):
            heart_rate_1500(-0.5)


class TestExtractHeartRate:
    def test_perfect_75_bpm_train(self):
        record = impulse_train(5000, 200, 400)  # RR = 0.8 s
        hr = extract_heart_rate(record)
        assert hr.bpm == pytest.approx(75.0, abs=0.5)
        assert hr.n_intervals == 11

    def test_single_peak(self):
        x = np.zeros(2000)
        x[1000] = 1.0
        with pytest.raises(InsufficientPeaksError):
            extract_heart_rate(EcgRecord(x, 500.0))

    def test_sinusoidally_varying_rate(self):
        mean_bpm = 80.0
        bpm = lambda t: mean_bpm + 6.0 * np.sin(2 * np.pi * t / 10.0)
        record, beats = synth_ecg(bpm, 250.0, 30.0, phase_s=0.3)
        # planted mean over the realized RR intervals
        rr = np.diff(beats)
        planted_mean = np.mean(60.0 / rr)
        hr = extract_heart_rate(record)
        assert hr.bpm == pytest.approx(planted_mean, abs=2.0)

    def test_custom_config(self):
        record = impulse_train(5000, 200, 400)
        config = PeakConfig(refractory_s=0.25, threshold_fraction=0.4)
        assert extract_heart_rate(record, config).bpm == pytest.approx(75.0, abs=0.5)


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
