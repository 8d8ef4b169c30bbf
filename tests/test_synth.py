import filecmp
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import generate_corpus_single_loop, synth_ecg_loop, synth_utterance_formula
from voicehr.errors import ConvergenceFailureError, SpecInvalidError
from voicehr.signal_io import EmotionLabel, load_manifest, read_json, write_json
from voicehr.synth import (
    BASIS_CACHE_SIZE,
    SynthSpec,
    generate_synthetic_corpus,
    load_ledger,
    synth_ecg,
    synth_utterance,
    make_voice,
)

TINY = dict(n_subjects=1, takes_per_emotion=4, noise_std_bpm=0.0,
            ecg_duration_s=4.0)


class TestSynthSpec:
    def test_defaults_match_target_corpus_size(self):
        spec = SynthSpec()
        assert spec.n_subjects * 3 * spec.takes_per_emotion == 4050

    def test_invalid_counts(self):
        with pytest.raises(SpecInvalidError):
            SynthSpec(n_subjects=0)
        with pytest.raises(SpecInvalidError):
            SynthSpec(takes_per_emotion=0)

    def test_invalid_noise(self):
        with pytest.raises(SpecInvalidError):
            SynthSpec(noise_std_bpm=-1.0)

    def test_invalid_tolerance(self):
        with pytest.raises(SpecInvalidError):
            SynthSpec(fd_tolerance=0.0)

    def test_json_round_trip(self, tmp_path):
        spec = SynthSpec(n_subjects=2, seed=9, homogeneous=True)
        write_json(tmp_path / "spec.json", spec)
        assert read_json(tmp_path / "spec.json", SynthSpec) == spec


class TestSynthEcg:
    def test_constant_rate_beat_times(self):
        record, beats = synth_ecg(75.0, 250.0, 20.0)
        rr = np.diff(beats)
        np.testing.assert_allclose(rr, 0.8, atol=1e-12)
        assert record.samples.size == 5000
        assert len(beats) == 25  # one beat every 0.8 s starting at t=0

    def test_r_peaks_dominate(self):
        record, beats = synth_ecg(60.0, 500.0, 10.0, phase_s=0.5)
        idx = np.round(beats * 500.0).astype(int)
        assert np.all(record.samples[idx] > 0.9)
        assert np.max(record.samples) <= 1.1

    def test_callable_rate(self):
        bpm = lambda t: 60.0 if t < 5.0 else 120.0
        _, beats = synth_ecg(bpm, 250.0, 10.0)
        rr = np.diff(beats)
        assert rr[0] == pytest.approx(1.0)
        assert rr[-1] == pytest.approx(0.5)

    def test_noise_is_seed_stable(self):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        a, _ = synth_ecg(70.0, 250.0, 5.0, noise_std_mv=0.05, rng=rng_a)
        b, _ = synth_ecg(70.0, 250.0, 5.0, noise_std_mv=0.05, rng=rng_b)
        np.testing.assert_array_equal(a.samples, b.samples)

    @settings(max_examples=150, deadline=None)
    @given(bpm=st.one_of(
               st.floats(35.0, 215.0),
               st.tuples(st.floats(40.0, 180.0), st.floats(0.0, 30.0), st.floats(0.5, 12.0))
               .map(lambda p: lambda t: p[0] + p[1] * np.sin(2 * np.pi * t / p[2]))),
           rate_hz=st.sampled_from([100.0, 125.0, 250.0, 360.0, 500.0, 1000.0]),
           duration_s=st.floats(0.1, 12.0),
           phase_frac=st.floats(0.0, 1.0))
    def test_matches_beat_by_beat_loop(self, bpm, rate_hz, duration_s, phase_frac):
        # phases run from a first beat whose span starts before the record
        # to past the record's end, where no beat is drawn
        phase_s = phase_frac * (duration_s + 0.94) - 0.44
        record, beats = synth_ecg(bpm, rate_hz, duration_s, phase_s=phase_s)
        samples, expected_beats = synth_ecg_loop(bpm, rate_hz, duration_s, phase_s=phase_s)
        assert record.samples.tobytes() == samples.tobytes()
        assert beats.dtype == expected_beats.dtype
        assert beats.tobytes() == expected_beats.tobytes()

    def test_beat_that_ends_before_the_record_adds_nothing(self):
        record, beats = synth_ecg(60.0, 250.0, 4.0, phase_s=-1.25)
        assert beats[0] == -1.25
        later, _ = synth_ecg(60.0, 250.0, 4.0, phase_s=-0.25)
        assert record.samples.tobytes() == later.samples.tobytes()

    @pytest.mark.parametrize("hr, phase_s", [(57.3, 0.21), (131.0, 0.0), (215.0, 0.27)])
    def test_reference_rate_matches_beat_by_beat_loop(self, hr, phase_s):
        record, _ = synth_ecg(hr, 250.0, 8.0, phase_s=phase_s)
        assert record.samples.tobytes() == synth_ecg_loop(hr, 250.0, 8.0, phase_s)[0].tobytes()


class TestSynthUtterance:
    def test_peak_normalized(self):
        voice = make_voice(np.random.default_rng(3))
        clip = synth_utterance(voice, 1.5, 16000.0, 0.4)
        assert np.max(np.abs(clip.samples)) == pytest.approx(0.5)

    def test_tilt_changes_spectrum_not_length(self):
        voice = make_voice(np.random.default_rng(4))
        a = synth_utterance(voice, 0.0, 16000.0, 0.4)
        b = synth_utterance(voice, 2.0, 16000.0, 0.4)
        assert a.samples.size == b.samples.size == 6400
        assert np.max(np.abs(a.samples - b.samples)) > 0.01

    # more (rate, duration) shapes than one voice keeps bases for, so the
    # cache key and its eviction are both exercised; the first two share
    # a length at different rates
    SHAPES = [(16000.0, 0.4), (8000.0, 0.8), (8000.0, 0.25), (16000.0, 0.1),
              (22050.0, 0.05), (16000.0, 0.2)]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           gs=st.lists(st.floats(-26.0, 26.0), min_size=1, max_size=5),
           shapes=st.lists(st.sampled_from(SHAPES), min_size=2, max_size=8))
    def test_matches_uncached_formula(self, seed, gs, shapes):
        assert len(self.SHAPES) > BASIS_CACHE_SIZE
        voice = make_voice(np.random.default_rng(seed))
        for g in gs:
            for rate, duration in shapes:
                clip = synth_utterance(voice, g, rate, duration)
                expected = synth_utterance_formula(voice, g, rate, duration)
                assert clip.samples.tobytes() == expected.tobytes()

    def test_writes_do_not_reach_a_later_take(self):
        voice = make_voice(np.random.default_rng(5))
        first = synth_utterance(voice, 0.7, 16000.0, 0.4)
        expected = first.samples.copy()
        first.samples[:] = 0.0
        with pytest.raises(ValueError):
            voice.phases[0] = 0.0
        with pytest.raises(ValueError):
            voice.tilt[0] = 0.0
        assert synth_utterance(voice, 0.7, 16000.0, 0.4).samples.tobytes() == expected.tobytes()


class TestSubjectVoice:
    def test_identity_semantics(self):
        rng = np.random.default_rng(6)
        a, b = make_voice(rng), make_voice(rng)
        assert a == a and a != b
        assert len({a, b}) == 2


class TestPlanThenRender:
    @pytest.mark.parametrize("noise_std_bpm", [0.0, 2.5])
    def test_matches_single_loop_generator(self, tmp_path, noise_std_bpm):
        spec = SynthSpec(n_subjects=2, takes_per_emotion=5, noise_std_bpm=noise_std_bpm,
                         ecg_duration_s=4.0, seed=2024)
        _, ledger = generate_synthetic_corpus(spec, tmp_path / "plan")
        assert ledger == generate_corpus_single_loop(spec, tmp_path / "loop")
        files = sorted(p.relative_to(tmp_path / "loop")
                       for p in (tmp_path / "loop").rglob("*") if p.is_file())
        assert len(files) == 2 + 2 * len(ledger)
        for rel in files:
            assert (tmp_path / "plan" / rel).read_bytes() == (tmp_path / "loop" / rel).read_bytes(), rel

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 63 - 1), hr=st.floats(35.0, 215.0))
    def test_phase_from_raw_uniform_matches_numpy_uniform(self, seed, hr):
        drawn = np.random.default_rng(seed)
        raw = np.random.default_rng(seed)
        expected = float(drawn.uniform(0.0, 60.0 / hr))
        assert struct.pack("<d", 0.0 + (60.0 / hr) * float(raw.random())) == struct.pack("<d", expected)
        assert drawn.random() == raw.random()  # both consumed one double


class TestGenerateCorpus:
    def test_layout_and_counts(self, small_corpus, tmp_path):
        spec, manifest_path, ledger = small_corpus
        corpus = manifest_path.parent
        manifest = load_manifest(manifest_path)
        expected = spec.n_subjects * 3 * spec.takes_per_emotion
        assert len(manifest.entries) == len(ledger) == expected
        assert (corpus / "ledger.csv").is_file()
        for entry in manifest.entries:
            assert Path(entry.audio_path).is_file()
            assert Path(entry.ecg_path).is_file()

    def test_ledger_round_trip(self, small_corpus):
        _, manifest_path, ledger = small_corpus
        loaded = load_ledger(manifest_path.parent / "ledger.csv")
        assert loaded == ledger

    def test_noiseless_ledger_lies_on_planted_line(self, small_corpus):
        _, _, ledger = small_corpus
        for row in ledger:
            assert row.heart_rate_bpm == pytest.approx(
                row.beta0 + row.beta1 * row.feature_distance, abs=1e-9)
            assert 35.0 <= row.heart_rate_bpm <= 215.0

    def test_extraction_recovers_ledger(self, small_corpus_extracted):
        observations, _, ledger = small_corpus_extracted
        planted = {(r.subject_id, r.emotion, r.take_index): r for r in ledger}
        worst_fd, worst_hr = 0.0, 0.0
        for obs in observations:
            row = planted[(obs.subject_id, obs.emotion, obs.take_index)]
            worst_fd = max(worst_fd, abs(obs.feature_distance - row.feature_distance)
                           / row.feature_distance)
            worst_hr = max(worst_hr, abs(obs.heart_rate_bpm - row.heart_rate_bpm))
        assert worst_fd <= 0.05
        assert worst_hr <= 1.0

    def test_determinism_byte_identical(self, tmp_path):
        spec = SynthSpec(seed=33, **TINY)
        path_a, _ = generate_synthetic_corpus(spec, tmp_path / "a")
        path_b, _ = generate_synthetic_corpus(spec, tmp_path / "b")
        files = sorted(p.relative_to(tmp_path / "a")
                       for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel,
                               shallow=False), rel

    def test_different_seeds_differ(self, tmp_path):
        _, ledger_a = generate_synthetic_corpus(SynthSpec(seed=1, **TINY),
                                                tmp_path / "a")
        _, ledger_b = generate_synthetic_corpus(SynthSpec(seed=2, **TINY),
                                                tmp_path / "b")
        assert ledger_a != ledger_b

    def test_noise_widens_residuals(self, tmp_path):
        def residual_spread(noise, seed=11):
            spec = SynthSpec(n_subjects=1, takes_per_emotion=10,
                             noise_std_bpm=noise, ecg_duration_s=4.0, seed=seed)
            _, ledger = generate_synthetic_corpus(spec, tmp_path / f"n{noise}")
            residuals = [r.heart_rate_bpm - (r.beta0 + r.beta1 * r.feature_distance)
                         for r in ledger]
            return float(np.std(residuals))

        assert residual_spread(0.0) < 1e-9
        assert residual_spread(5.0) > 1.0

    def test_homogeneous_shares_one_line_per_subject(self, tmp_path):
        spec = SynthSpec(seed=21, homogeneous=True, **TINY)
        _, ledger = generate_synthetic_corpus(spec, tmp_path / "h")
        lines = {(r.subject_id, r.beta0, r.beta1) for r in ledger}
        assert len(lines) == spec.n_subjects

    def test_neutral_takes_straddle_reference(self, small_corpus_extracted):
        # antithetic neutral tilts keep the enrollment mean near the
        # canonical voice, so measured neutral distances stay in range
        observations, _, _ = small_corpus_extracted
        neutral = [o.feature_distance for o in observations
                   if o.emotion == EmotionLabel.NEUTRAL]
        assert 1.0 <= min(neutral) and max(neutral) <= 8.0


class TestConvergence:
    def test_unreachable_tolerance_raises(self, tmp_path):
        spec = SynthSpec(n_subjects=1, takes_per_emotion=1, fd_tolerance=1e-6,
                         max_fd_iterations=1, ecg_duration_s=4.0, seed=3)
        with pytest.raises(ConvergenceFailureError) as raised:
            generate_synthetic_corpus(spec, tmp_path / "c")
        assert re.fullmatch(
            r"take s01_joy_000: feature-distance target (\d+\.\d{3}) not bracketed within "
            r"1 iterations; closest measured fd (\d+\.\d{3})", str(raised.value))
