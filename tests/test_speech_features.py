import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import frame_signal_fancy, frame_signal_sliding_window, mfcc_fancy_framing
from voicehr.errors import (
    ClipTooShortError,
    DimensionMismatchError,
    EmptyEnrollmentError,
    InvalidSignalError,
)
from voicehr.signal_io import AudioClip
from voicehr.speech_features import (
    MAX_FRAME_BLOCK,
    CepstraMatrix,
    FeatureConfig,
    _hamming_window,
    feature_distance,
    filterbank_energies,
    frame_block,
    frame_count,
    frame_signal,
    mel_filterbank,
    mfcc,
    pre_emphasize,
    subject_reference,
    utterance_embedding,
)

CONFIG = FeatureConfig()


def brute_force_filter_energies(frame, fb, fft_size):
    """O(N^2) DFT-summation oracle for one frame's mel filter energies."""
    windowed = frame * np.hamming(frame.size)
    n_bins = fft_size // 2 + 1
    energies = np.zeros(fb.shape[0])
    for m in range(fb.shape[0]):
        acc = 0.0
        for k in range(n_bins):
            re = 0.0
            im = 0.0
            for n in range(windowed.size):
                angle = -2.0 * np.pi * k * n / fft_size
                re += windowed[n] * np.cos(angle)
                im += windowed[n] * np.sin(angle)
            acc += fb[m, k] * (re * re + im * im)
        energies[m] = acc
    return energies


class TestMfcc:
    def test_zero_clip_constant_cepstra(self):
        # zero signal floors every filter, so the log-energy vector is
        # constant and only DCT coefficient 0 survives
        cepstra = mfcc(AudioClip(np.zeros(16000), 16000.0), CONFIG)
        assert np.max(np.abs(cepstra.frames[:, 1:])) < 1e-9
        expected_c0 = np.sqrt(CONFIG.n_mel_filters) * np.log(CONFIG.log_floor)
        np.testing.assert_allclose(cepstra.frames[:, 0], expected_c0, atol=1e-9)

    def test_frame_count_16000(self):
        clip = AudioClip(np.random.default_rng(0).normal(0, 0.1, 16000), 16000.0)
        cepstra = mfcc(clip, CONFIG)
        assert cepstra.n_frames == 1 + (16000 - 400) // 160 == 98

    def test_pure_tone_matches_dft_oracle(self):
        rate = 16000.0
        t = np.arange(400) / rate
        frame = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
        fft_size = 512
        fb = mel_filterbank(26, fft_size, rate)
        fast = filterbank_energies(frame[None, :], fb, fft_size)[0]
        slow = brute_force_filter_energies(frame, fb, fft_size)
        mask = slow > 1e-12
        assert np.max(np.abs(fast[mask] - slow[mask]) / slow[mask]) < 1e-9

    def test_clip_too_short(self):
        with pytest.raises(ClipTooShortError):
            mfcc(AudioClip(np.ones(10), 16000.0), CONFIG)

    def test_frame_block_bound_is_inclusive(self):
        # a 1-sample hop makes n - 399 frames of 400 samples, each a
        # 512-point FFT: 8591 samples fill MAX_FRAME_BLOCK
        config = FeatureConfig(hop_length_s=1e-6)
        assert frame_block(8591, 16000.0, config) == (8192, 512)
        assert 8192 * 512 == MAX_FRAME_BLOCK
        assert mfcc(AudioClip(np.zeros(8591), 16000.0), config).n_frames == 8192

    def test_clip_past_the_frame_block_bound(self):
        config = FeatureConfig(hop_length_s=1e-6)
        with pytest.raises(InvalidSignalError) as caught:
            mfcc(AudioClip(np.zeros(8592), 16000.0), config)
        assert str(caught.value) == ("clip of 8592 samples must make at most 4194304 frames x "
                                     "FFT size with this feature config, got 8193 x 512")

    def test_amplitude_scaling_shifts_only_c0(self):
        rng = np.random.default_rng(7)
        clip = AudioClip(rng.normal(0, 0.1, 4800), 16000.0)
        scaled = AudioClip(clip.samples * 3.7, 16000.0)
        a = mfcc(clip, CONFIG).frames
        b = mfcc(scaled, CONFIG).frames
        assert np.max(np.abs(a[:, 1:] - b[:, 1:])) < 1e-9
        c0_shift = b[:, 0] - a[:, 0]
        assert np.max(np.abs(c0_shift - c0_shift[0])) < 1e-9
        assert abs(c0_shift[0]) > 0.1


class TestSharedFilterbank:
    def test_memoised_filterbank_rejects_writes(self):
        fb = mel_filterbank(26, 512, 16000.0)
        before = fb.copy()
        with pytest.raises(ValueError):
            fb[0, 1] = 1.0
        with pytest.raises(ValueError):
            fb *= 2.0
        again = mel_filterbank(26, 512, 16000.0)
        assert again.tobytes() == before.tobytes()
        assert again.tobytes() == mel_filterbank.__wrapped__(26, 512, 16000.0).tobytes()

    def test_mfcc_output_writes_do_not_reach_a_later_take(self):
        clip = AudioClip(np.random.default_rng(3).normal(0, 0.1, 4800), 16000.0)
        first = mfcc(clip, CONFIG)
        expected = first.frames.copy()
        first.frames[:] = 0.0
        assert mfcc(clip, CONFIG).frames.tobytes() == expected.tobytes()


class TestFrameCount:
    def test_formula_matches_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            frame = int(rng.integers(1, 100))
            hop = int(rng.integers(1, frame + 1))
            n = int(rng.integers(frame, 2000))
            count = 0
            start = 0
            while start + frame <= n:
                count += 1
                start += hop
            assert frame_count(n, frame, hop) == count


class TestFraming:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 5000), frame=st.integers(1, 600), hop=st.integers(1, 400),
           stride=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @example(n=5, frame=6, hop=1, stride=1, seed=0)
    def test_windows_match_fancy_index(self, n, frame, hop, stride, seed):
        # strided inputs too, and inputs shorter than one frame, which have no rows
        samples = np.random.default_rng(seed).normal(0.0, 1.0, n * stride)[::stride]
        frames = frame_signal(samples, frame, hop)
        for expected in (frame_signal_fancy(samples, frame, hop),
                         frame_signal_sliding_window(samples, frame, hop)):
            assert frames.shape == expected.shape == (frame_count(n, frame, hop), frame)
            assert frames.dtype == expected.dtype
            assert frames.tobytes() == expected.tobytes()
        assert not frames.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frames[...] = 0.0

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(560, 6000), rate=st.sampled_from([8000.0, 16000.0, 22050.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_cepstra_bits_match_fancy_framing(self, n, rate, seed):
        clip = AudioClip(np.random.default_rng(seed).normal(0.0, 0.1, n), rate)
        expected = mfcc_fancy_framing(clip, CONFIG)
        assert mfcc(clip, CONFIG).frames.tobytes() == expected.tobytes()

    def test_memoised_window_rejects_writes(self):
        window = _hamming_window(400)
        with pytest.raises(ValueError):
            window[0] = 1.0
        assert window.tobytes() == np.hamming(400).tobytes()


class TestEmbeddingAndDistance:
    def test_single_frame_identity(self):
        frame = np.arange(13.0)
        cepstra = CepstraMatrix(frames=frame[None, :])
        np.testing.assert_array_equal(utterance_embedding(cepstra), frame)

    def test_symmetric_frames_cancel(self):
        v = np.random.default_rng(1).normal(size=13)
        cepstra = CepstraMatrix(frames=np.stack([v, -v]))
        np.testing.assert_allclose(utterance_embedding(cepstra),
                                   np.zeros(13), atol=1e-15)

    def test_mean_matches_summation_oracle(self):
        rng = np.random.default_rng(2)
        frames = rng.normal(size=(98, 13))
        expected = np.array([sum(frames[t, j] for t in range(98)) / 98.0
                             for j in range(13)])
        got = utterance_embedding(CepstraMatrix(frames=frames))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_embedding_of_a_clip_is_a_float64_vector(self):
        got = utterance_embedding(mfcc(AudioClip(np.sin(np.arange(4000.0)), 16000.0), CONFIG))
        assert got.dtype == np.float64 and got.shape == (CONFIG.n_cepstra,)

    def test_distance_identity(self):
        e = np.arange(13.0)
        assert feature_distance(e, e) == 0.0

    def test_three_four_five(self):
        a = np.zeros(13)
        b = np.zeros(13)
        b[0], b[1] = 3.0, 4.0
        got = feature_distance(a, b)
        assert type(got) is float and got == 5.0

    def test_distance_matches_summation_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.normal(size=13), rng.normal(size=13)
            expected = np.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            assert feature_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            feature_distance(np.zeros(13), np.zeros(12))

    def test_metric_properties(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b, c = (rng.normal(size=13) for _ in range(3))
            d_ab = feature_distance(a, b)
            d_ba = feature_distance(b, a)
            d_ac = feature_distance(a, c)
            d_cb = feature_distance(c, b)
            assert d_ab == pytest.approx(d_ba, abs=1e-12)
            assert d_ab <= d_ac + d_cb + 1e-12
        e = rng.normal(size=13)
        assert feature_distance(e, e.copy()) < 1e-12


class TestSubjectReference:
    def test_single_embedding(self):
        e = np.arange(13.0)
        np.testing.assert_array_equal(subject_reference([e]), e)

    def test_opposite_pair_cancels(self):
        v = np.random.default_rng(5).normal(size=13)
        ref = subject_reference([v, -v])
        np.testing.assert_allclose(ref, np.zeros(13), atol=1e-15)

    def test_mean_of_many(self):
        rng = np.random.default_rng(6)
        vecs = [rng.normal(size=13) for _ in range(90)]
        expected = np.array([sum(v[j] for v in vecs) / 90.0 for j in range(13)])
        ref = subject_reference(vecs)
        np.testing.assert_allclose(ref, expected, atol=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyEnrollmentError):
            subject_reference([])

    def test_lengths_differ(self):
        with pytest.raises(DimensionMismatchError, match="^enrollment embeddings differ"):
            subject_reference([np.zeros(13), np.zeros(12)])


class TestPreEmphasis:
    def test_definition(self):
        x = np.array([1.0, 2.0, 3.0])
        y = pre_emphasize(x, 0.97)
        np.testing.assert_allclose(y, [1.0, 2.0 - 0.97, 3.0 - 0.97 * 2.0])
