import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage, signal

from oracles import (
    band_pass_filtfilt_fresh,
    detect_r_peaks_scipy,
    mean_rate_per_interval,
    refine_peaks_loop,
    refractory_select_numpy,
    threshold_candidates_median_filter,
)
from voicehr.ecg_hr import (
    PeakConfig,
    _central_difference,
    _envelope,
    _steady_state,
    _threshold_candidates,
    band_pass_filtfilt,
    butter_band,
    detect_r_peaks,
    extract_heart_rate,
    heart_rate_1500,
    moving_mean,
    refine_peaks,
    refractory_select,
)
from voicehr.errors import (
    InsufficientPeaksError,
    NonPositiveIntervalError,
    NoPeaksFoundError,
    SignalTooShortError,
)
from voicehr.signal_io import EcgRecord, load_ecg, load_manifest
from voicehr.synth import SynthSpec, generate_synthetic_corpus, synth_ecg


def impulse_train(n, start, period, rate=500.0):
    x = np.zeros(n)
    x[start::period] = 1.0
    return EcgRecord(x, rate)


# the band-pass's distance from scipy's filtfilt, in units of max|x|: the
# largest over 20000 draws of `test_filtfilt_matches_scipy`'s strategy was
# 3.4e-12 (500 Hz, 0.5-40 Hz). Most of it is scipy's: against a filtfilt
# in extended precision scipy's error is of that size, the block
# products' under 1e-15
FILTFILT_BOUND = 2e-11

RATES = [25.0, 100.0, 250.0, 500.0]
BANDS = [(5.0, 15.0), (0.5, 40.0), (8.0, 12.0)]


def clamped_edges(rate, band):
    """The band's edges as fractions of Nyquist, clamped as `_blocks` clamps them."""
    nyq = rate / 2.0
    high = min(band[1], 0.99 * nyq)
    return [min(band[0], 0.5 * high) / nyq, high / nyq]


class TestBandPass:
    @pytest.mark.parametrize("rate", RATES)
    def test_memoised_coefficients_match_a_fresh_design(self, rate):
        for band in BANDS:
            edges = clamped_edges(rate, band)
            b, a = butter_band(*edges)
            fresh_b, fresh_a = signal.butter(2, edges, btype="band")
            assert b.tobytes() == fresh_b.tobytes() and a.tobytes() == fresh_a.tobytes()

    @pytest.mark.parametrize("low, high", [(0.0, 0.5), (0.5, 0.5), (0.6, 0.5), (0.5, 1.0)])
    def test_design_needs_ordered_edges_inside_nyquist(self, low, high):
        with pytest.raises(ValueError, match="^band-pass edges must satisfy"):
            butter_band(low, high)

    def test_memoised_initial_state_is_read_only(self):
        for rate in RATES:
            for band in BANDS:
                b, a = butter_band(*clamped_edges(rate, band))
                assert _steady_state(b, a).tobytes() == signal.lfilter_zi(b, a).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(rate=st.sampled_from(RATES),
           n=st.integers(2, 600),
           seed=st.integers(0, 2**32 - 1),
           band=st.sampled_from(BANDS))
    def test_filtfilt_matches_scipy(self, rate, n, seed, band):
        samples = np.random.default_rng(seed).normal(0.0, 1.0, n).cumsum()
        config = PeakConfig(band_low_hz=band[0], band_high_hz=band[1])
        try:
            expected = band_pass_filtfilt_fresh(samples, rate, *band)
        except ValueError as exc:
            # a record no longer than the odd extension, 15 samples here
            with pytest.raises(ValueError) as raised:
                band_pass_filtfilt(samples, rate, config)
            assert str(raised.value) == str(exc)
            return
        found = band_pass_filtfilt(samples, rate, config)
        assert np.max(np.abs(found - expected)) <= FILTFILT_BOUND * np.max(np.abs(samples))

    @pytest.mark.parametrize("n", [16, 2047, 2048, 2049, 6000])
    def test_long_records_carry_the_state_across_products(self, n):
        # `_CHUNK` rows of `_BLOCK` samples a product: 2048 samples, 2018
        # once the extension is added, so these records take one to three
        samples = np.random.default_rng(n).normal(0.0, 1.0, n).cumsum()
        expected = band_pass_filtfilt_fresh(samples, 360.0)
        found = band_pass_filtfilt(samples, 360.0, PeakConfig())
        assert np.max(np.abs(found - expected)) <= FILTFILT_BOUND * np.max(np.abs(samples))

    @pytest.mark.parametrize("n", [1, 2, 15])
    def test_record_within_the_extension_raises_as_scipy(self, n):
        samples = np.ones(n)
        with pytest.raises(ValueError) as expected:
            band_pass_filtfilt_fresh(samples, 250.0)
        with pytest.raises(ValueError) as raised:
            band_pass_filtfilt(samples, 250.0, PeakConfig())
        assert str(raised.value) == str(expected.value)


class TestMovingMean:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 400), width=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
    def test_matches_uniform_filter_bits(self, n, width, seed):
        # widths run past the record, odd and even
        x = np.random.default_rng(seed).normal(0.0, 1.0, n) ** 2
        assert moving_mean(x, width).tobytes() == ndimage.uniform_filter1d(
            x, size=width, mode="nearest").tobytes()


@pytest.fixture(scope="module")
def reference_ecgs(tmp_path_factory):
    """The 270 ECG records of `SynthSpec(seed=2024, n_subjects=1)`, as extract reads them."""
    outdir = tmp_path_factory.mktemp("reference")
    manifest_path, _ = generate_synthetic_corpus(SynthSpec(seed=2024, n_subjects=1), outdir)
    return [load_ecg(entry.ecg_path) for entry in load_manifest(manifest_path)]


class TestAgainstTheScipyDetector:
    def test_reference_takes(self, reference_ecgs):
        assert len(reference_ecgs) == 270
        for record in reference_ecgs:
            peaks = detect_r_peaks(record)
            assert peaks.dtype == np.int64 and (np.diff(peaks) > 0).all()
            assert np.array_equal(peaks, detect_r_peaks_scipy(record, PeakConfig()))

    @pytest.mark.parametrize("low", [1e-6, 1e-9, 1e-20, 1e-300, 5e-324])
    def test_band_edge_far_below_the_rate(self, low):
        # from 1e-9 Hz a pole rounds onto the unit circle, where the
        # input-normal basis does not exist and the direct form's is kept.
        # 5e-324 Hz is 0.0 of the Nyquist rate, an edge scipy's `butter`
        # refuses: it detects as 1e-300 Hz does
        record, _ = synth_ecg(70.0, 250.0, 8.0)
        config = PeakConfig(band_low_hz=low)
        expected = (detect_r_peaks(record, PeakConfig(band_low_hz=1e-300)) if low == 5e-324
                    else detect_r_peaks_scipy(record, config))
        assert np.array_equal(detect_r_peaks(record, config), expected)

    def test_high_band_edge_below_float_resolution(self):
        # 1e-322 Hz is 0.0 of the Nyquist rate at 250 Hz, below the low
        # edge's least positive double: the high edge is kept above it, and
        # the band passes nothing, as one of 1e-300 to 1e-299 Hz does
        record, _ = synth_ecg(70.0, 250.0, 8.0)
        for low, high in ((5e-324, 1e-322), (1e-300, 1e-299)):
            with pytest.raises(NoPeaksFoundError, match="^flat signal: empty envelope$"):
                detect_r_peaks(record, PeakConfig(band_low_hz=low, band_high_hz=high))

    @settings(max_examples=150, deadline=None)
    @given(bpm=st.floats(35.0, 215.0), phase=st.floats(0.0, 1.0, exclude_max=True),
           rate=st.sampled_from([125.0, 250.0, 360.0, 500.0]), seconds=st.floats(2.0, 20.0))
    def test_synth_ecg_draws(self, bpm, phase, rate, seconds):
        record, _ = synth_ecg(bpm, rate, seconds, phase_s=phase * 60.0 / bpm)
        try:
            expected = detect_r_peaks_scipy(record, PeakConfig())
        except NoPeaksFoundError:
            with pytest.raises(NoPeaksFoundError):
                detect_r_peaks(record)
            return
        assert np.array_equal(detect_r_peaks(record), expected)


class TestPeakConfig:
    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -float("inf"), -0.5,
                                          -5e-324])
    def test_threshold_fraction_must_be_finite_and_non_negative(self, fraction):
        with pytest.raises(ValueError, match="^threshold_fraction must be a finite number"):
            PeakConfig(threshold_fraction=fraction)

    @pytest.mark.parametrize("fraction", [0.0, -0.0, 5e-324, 0.5, 1e300])
    def test_threshold_fraction_accepted(self, fraction):
        assert PeakConfig(threshold_fraction=fraction).threshold_fraction == fraction

    @pytest.mark.parametrize("low, high", [
        (0.0, 15.0), (-1.0, 15.0), (15.0, 15.0), (20.0, 15.0), (float("nan"), 15.0),
        (5.0, float("nan")), (5.0, float("inf")), (float("inf"), float("inf"))])
    def test_band_edges_must_be_ordered_and_finite(self, low, high):
        with pytest.raises(ValueError, match="^require 0 < band_low_hz < band_high_hz"):
            PeakConfig(band_low_hz=low, band_high_hz=high)

    @pytest.mark.parametrize("name", ["integration_window_s", "median_window_s",
                                      "min_signal_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_windows_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0"):
            PeakConfig(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, -5e-324])
    def test_refractory_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="^refractory_s must be a finite number >= 0"):
            PeakConfig(refractory_s=value)

    @pytest.mark.parametrize("kwargs", [
        {"band_low_hz": 0.5, "band_high_hz": 40.0}, {"band_low_hz": 8.0, "band_high_hz": 12.0},
        {"band_low_hz": 5e-324, "band_high_hz": 1e300}, {"refractory_s": 0.0},
        {"integration_window_s": 5e-324, "median_window_s": 1e300, "min_signal_s": 0.1}])
    def test_edge_values_accepted(self, kwargs):
        config = PeakConfig(**kwargs)
        assert {name: getattr(config, name) for name in kwargs} == kwargs


class TestDetectRPeaks:
    def test_impulse_train_found_at_impulses(self):
        record = impulse_train(5000, 200, 400)  # 10 s at 500 Hz
        peaks = detect_r_peaks(record)
        planted = np.arange(200, 5000, 400)
        assert peaks.size == planted.size
        assert np.max(np.abs(peaks - planted)) <= 2

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
        assert abs(peaks.size - beats.size) <= 1

    def test_scale_invariance(self):
        record = impulse_train(5000, 200, 400)
        reference = detect_r_peaks(record)
        for c in (1e-3, 0.5, 40.0, 1e4):
            scaled = detect_r_peaks(EcgRecord(record.samples * c, 500.0))
            assert np.array_equal(scaled, reference)

    @settings(max_examples=150, deadline=None)
    @given(bpm=st.floats(35.0, 215.0), phase=st.floats(0.0, 1.0, exclude_max=True),
           rate=st.sampled_from([125.0, 250.0, 360.0, 500.0]), seconds=st.floats(2.0, 20.0),
           power=st.integers(-30, 30))
    def test_power_of_two_scale_keeps_the_peaks(self, bpm, phase, rate, seconds, power):
        # scaling by 2**power changes no mantissa, so every step's bits scale exactly
        record, _ = synth_ecg(bpm, rate, seconds, phase_s=phase * 60.0 / bpm)
        scaled = EcgRecord(record.samples * 2.0 ** power, rate)
        assert np.array_equal(detect_r_peaks(scaled), detect_r_peaks(record))

    def test_time_shift_equivariance(self):
        record, _ = synth_ecg(80.0, 250.0, 12.0, phase_s=0.4)
        base_hr = extract_heart_rate(record).bpm
        k = 2.0  # seconds of prepended baseline
        shifted = EcgRecord(
            np.concatenate([np.zeros(int(k * 250)), record.samples]), 250.0)
        base_peaks = detect_r_peaks(record)
        shifted_peaks = detect_r_peaks(shifted)
        expect = base_peaks + int(k * 250)
        matched = shifted_peaks[-expect.size:]
        assert np.max(np.abs(matched - expect)) <= 2
        assert abs(extract_heart_rate(shifted).bpm - base_hr) < 0.5


    @settings(max_examples=200, deadline=None)
    @given(power=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 10.0),
                          min_size=1, max_size=120),
           half=st.integers(1, 40), data=st.data())
    def test_refine_matches_per_peak_loop(self, power, half, data):
        # few distinct values, so ties are common and the first maximum must win
        power = np.asarray(power)
        peaks = np.asarray(sorted(data.draw(st.sets(st.integers(0, power.size - 1),
                                                    min_size=1))), dtype=np.int64)
        refined = refine_peaks(power, peaks, half)
        assert refined.dtype == np.int64
        assert refined.tobytes() == refine_peaks_loop(power, peaks, half).tobytes()


class TestThresholdCandidates:
    # few distinct values, so ties and plateaus are common; subnormals too
    envelopes = st.lists(
        st.sampled_from([0.0, 5e-324, 2.2e-308, 0.25, 0.5, 1.0, 2.0])
        | st.floats(0.0, 1e3, allow_subnormal=True), min_size=1, max_size=70)

    @settings(max_examples=500, deadline=None)
    @given(env=envelopes, width=st.integers(1, 90),
           fraction=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1e3), data=st.data())
    def test_matches_the_running_median_formula(self, env, width, fraction, data):
        # widths run past the longest array, and are odd and even; a floor
        # equal to a sample tests the strict comparison with it
        floor = data.draw(st.sampled_from([0.0, 1e-3 * max(env), *env]))
        env = np.asarray(env)
        found = _threshold_candidates(env, fraction, width, floor)
        expected = threshold_candidates_median_filter(env, fraction, width, floor)
        assert found.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 499, 500, 501])
    def test_detector_envelope(self, width):
        record, _ = synth_ecg(72.0, 250.0, 6.0, phase_s=0.1)
        env, _ = _envelope(record.samples, 250.0, PeakConfig())
        floor = 1e-3 * env.max()
        found = _threshold_candidates(env, 0.5, width, floor)
        assert found.size > 0
        assert found.tobytes() == threshold_candidates_median_filter(
            env, 0.5, width, floor).tobytes()


class TestCentralDifference:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(16, 5000), exponent=st.floats(-300.0, 9.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_np_gradient(self, n, exponent, seed):
        x = np.random.default_rng(seed).normal(0.0, 1.0, n) * 10.0 ** exponent
        assert _central_difference(x).tobytes() == np.gradient(x).tobytes()


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
        with pytest.raises(NonPositiveIntervalError):
            heart_rate_1500(np.array([0.8, 0.0, 0.9]))

    @settings(max_examples=300, deadline=None)
    @given(rr=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=300))
    def test_array_mean_matches_per_interval_calls(self, rr):
        rr = np.asarray(rr)
        assert float(np.mean(heart_rate_1500(rr))) == mean_rate_per_interval(rr)


class TestExtractHeartRate:
    @pytest.mark.xfail(strict=True, reason="at low rates the running-median threshold keeps "
                       "bumps around the first beat of a clean record")
    def test_clean_low_rate_record(self):
        # planted beats at 0.037, 1.653 and 3.268 s; peaks are found at
        # 0.084, 0.288, 1.652 and 3.268 s, which reads 125.08 bpm
        record, beats = synth_ecg(37.13936120525331, 250.0, 4.838446577263792,
                                  phase_s=0.03741783222142384)
        planted = float(np.mean(60.0 / np.diff(beats)))
        assert extract_heart_rate(record).bpm == pytest.approx(planted, abs=2.0)

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
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 80),
                              st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 1.0)),
                    max_size=100),
           st.integers(0, 120))
    def test_matches_the_numpy_scalar_loop(self, steps, gap):
        candidates = np.cumsum([s for s, _ in steps], dtype=np.int64)
        strength = np.asarray([w for _, w in steps], dtype=np.float64)
        kept = refractory_select(candidates, strength, gap)
        assert kept.dtype == np.int64
        assert kept.tobytes() == refractory_select_numpy(candidates, strength, gap).tobytes()

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
