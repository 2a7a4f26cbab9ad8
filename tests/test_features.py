import numpy as np
import pytest

from ohm.audio_io import AudioBuffer, frame_signal, resample
from ohm.errors import ConfigError
from ohm.features import (
    MfccConfig,
    append_deltas,
    compute_mfcc13,
    extract_features,
    from_audio,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
)

from oracles import naive_mfcc13

CFG = MfccConfig()


def _frames(samples, fs=16000):
    return frame_signal(AudioBuffer(samples, fs))


def test_mel_scale_inverse():
    f = np.linspace(0, 8000, 50)
    np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-8)


def test_mel_scale_reference_point():
    # 1000 Hz sits at 2595 * log10(1 + 1000/700) mel
    assert abs(hz_to_mel(1000.0) - 999.98553) < 1e-3


def test_zero_frames_dc_only():
    frames = _frames(np.zeros(1000))
    mfcc = compute_mfcc13(frames, CFG)
    expected_c0 = np.sqrt(CFG.n_mels) * np.log(CFG.log_floor)
    np.testing.assert_allclose(mfcc[:, 0], expected_c0, rtol=1e-12)
    np.testing.assert_allclose(mfcc[:, 1:], 0.0, atol=1e-9)


def test_identical_frames_identical_rows():
    frame = np.random.default_rng(3).standard_normal(320)
    frames = _frames(np.concatenate([frame, frame[:160], frame[160:]]))
    mfcc = compute_mfcc13(frames, CFG)
    np.testing.assert_array_equal(mfcc[0], mfcc[2])


def test_sine_matches_naive_oracle():
    t = np.arange(16000) / 16000.0
    frames = _frames(0.3 * np.sin(2 * np.pi * 1000.0 * t))
    mfcc = compute_mfcc13(frames, CFG)
    expected = naive_mfcc13(frames.frames[5], CFG.n_fft, CFG.n_mels, 16000, 0.0, 8000.0,
                            CFG.log_floor)
    assert np.max(np.abs(mfcc[5] - expected)) < 1e-6


def test_random_frames_match_naive_oracle():
    rng = np.random.default_rng(7)
    frames = _frames(rng.standard_normal(320 + 160 * 9))
    mfcc = compute_mfcc13(frames, CFG)
    for i in range(frames.n_frames):
        expected = naive_mfcc13(frames.frames[i], CFG.n_fft, CFG.n_mels, 16000, 0.0,
                                8000.0, CFG.log_floor)
        assert np.max(np.abs(mfcc[i] - expected)) < 1e-6


def test_amplitude_scaling_shifts_only_c0():
    rng = np.random.default_rng(11)
    signal = rng.standard_normal(2000)
    alpha = 3.7
    a = compute_mfcc13(_frames(signal), CFG)
    b = compute_mfcc13(_frames(alpha * signal), CFG)
    np.testing.assert_allclose(
        b[:, 0] - a[:, 0], np.sqrt(CFG.n_mels) * 2.0 * np.log(alpha), rtol=1e-8
    )
    assert np.max(np.abs(b[:, 1:] - a[:, 1:])) < 1e-8


def test_nfft_too_small():
    frames = _frames(np.zeros(1000))
    with pytest.raises(ConfigError):
        compute_mfcc13(frames, MfccConfig(n_fft=256))


def test_nceps_exceeds_nmels():
    with pytest.raises(ConfigError):
        MfccConfig(n_mels=10, n_ceps=13)


def test_filterbank_shape_and_coverage():
    fb = mel_filterbank(CFG, 16000)
    assert fb.shape == (40, 257)
    assert np.all(fb >= 0.0)
    assert np.all(fb.max(axis=1) > 0.0)


def test_delta_constant_is_zero():
    static = np.ones((10, 13)) * 4.2
    out = append_deltas(static)
    np.testing.assert_array_equal(out[:, 13:], 0.0)
    assert out.shape == (10, 39)


def test_delta_linear_ramp_interior():
    # c_t = t with the +/-2 regression window: delta = (1*2 + 2*4) / (2*5) = 1
    static = np.arange(20.0)[:, None].repeat(13, axis=1)
    out = append_deltas(static, delta_window=2)
    np.testing.assert_allclose(out[4:-4, 13:26], 1.0, atol=1e-12)
    # acceleration of a linear ramp vanishes away from the edges
    np.testing.assert_allclose(out[6:-6, 26:], 0.0, atol=1e-12)


def test_output_width_is_39():
    rng = np.random.default_rng(2)
    for n in (1, 2, 5, 50):
        assert append_deltas(rng.standard_normal((n, 13))).shape[1] == 39


def test_frame_times_increase_by_hop():
    feats = extract_features(_frames(np.random.default_rng(0).standard_normal(4000)))
    diffs = np.diff(feats.frame_times_s)
    np.testing.assert_allclose(diffs, 0.010, atol=1e-12)
    assert feats.vectors.shape[1] == 39
    assert np.all(np.isfinite(feats.vectors))


def test_config_hash_stability():
    assert MfccConfig().hash32() == MfccConfig().hash32()
    assert MfccConfig().hash32() != MfccConfig(n_mels=41).hash32()


def test_from_audio_is_resample_frame_extract():
    buf = AudioBuffer(0.1 * np.random.default_rng(4).standard_normal(11025), 22050)
    got = from_audio(buf, CFG)
    want = extract_features(frame_signal(resample(buf, 16000)), CFG)
    np.testing.assert_array_equal(got.vectors, want.vectors)
    np.testing.assert_array_equal(got.frame_times_s, want.frame_times_s)
