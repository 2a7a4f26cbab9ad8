import struct
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohm.audio_io import AudioBuffer, frame_signal, load_wav, resample, write_wav
from ohm.errors import AudioFormatError, AudioParseError, ConfigError, EmptyInputError

from oracles import dft_peak_hz, reference_resample


def _pcm16_wav_bytes(samples, fs=16000, n_channels=1):
    data = np.asarray(samples, dtype="<i2").tobytes()
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, n_channels, fs, fs * 2 * n_channels, 2 * n_channels, 16,
        b"data", len(data),
    ) + data


def test_pcm16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(_pcm16_wav_bytes([0, 16384, -32768]))
    buf = load_wav(path)
    assert buf.sample_rate_hz == 16000
    np.testing.assert_allclose(buf.samples, [0.0, 0.5, -1.0])


def test_stereo_average_downmix(tmp_path):
    path = tmp_path / "st.wav"
    # interleaved L/R: L = 32767 (~1.0), R = 0
    path.write_bytes(_pcm16_wav_bytes([32767, 0, 32767, 0], n_channels=2))
    buf = load_wav(path)
    np.testing.assert_allclose(buf.samples, [32767 / 65536.0] * 2)


def test_float32_roundtrip(tmp_path):
    path = tmp_path / "f.wav"
    original = AudioBuffer(np.linspace(-0.9, 0.9, 50), 22050)
    write_wav(path, original, dtype="float32")
    loaded = load_wav(path)
    np.testing.assert_allclose(loaded.samples, original.samples, atol=1e-7)
    assert loaded.sample_rate_hz == 22050


def test_truncated_data_chunk(tmp_path):
    raw = _pcm16_wav_bytes([1, 2, 3, 4])
    # declare 8 bytes of data but deliver 4
    truncated = raw[: len(raw) - 4]
    path = tmp_path / "bad.wav"
    path.write_bytes(truncated)
    with pytest.raises(AudioParseError):
        load_wav(path)


def test_unsupported_codec(tmp_path):
    data = b"\x00" * 8
    raw = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 7, 1, 8000, 8000, 1, 8,  # mu-law
        b"data", len(data),
    ) + data
    path = tmp_path / "ulaw.wav"
    path.write_bytes(raw)
    with pytest.raises(AudioFormatError):
        load_wav(path)


def test_skips_unknown_chunks(tmp_path):
    data = np.asarray([100, -100], dtype="<i2").tobytes()
    raw = struct.pack("<4sI4s", b"RIFF", 4 + 8 + 6 + 8 + 16 + 8 + len(data), b"WAVE")
    raw += struct.pack("<4sI", b"LIST", 6) + b"abcdef"
    raw += struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, 16000, 32000, 2, 16)
    raw += struct.pack("<4sI", b"data", len(data)) + data
    path = tmp_path / "chunks.wav"
    path.write_bytes(raw)
    assert len(load_wav(path).samples) == 2


def test_resample_identity():
    buf = AudioBuffer(np.random.default_rng(0).standard_normal(1000), 16000)
    assert resample(buf, 16000) is buf


def test_resample_zero_rate():
    buf = AudioBuffer(np.zeros(100), 16000)
    with pytest.raises(ConfigError):
        resample(buf, 0)


def test_resample_length():
    buf = AudioBuffer(np.zeros(44100), 44100)
    out = resample(buf, 16000)
    assert abs(len(out.samples) - 16000) <= 1
    assert out.sample_rate_hz == 16000


def test_resample_preserves_tone_frequency():
    fs = 44100
    t = np.arange(fs) / fs
    buf = AudioBuffer(0.5 * np.sin(2 * np.pi * 440.0 * t), fs)
    out = resample(buf, 16000)
    peak = dft_peak_hz(out.samples[1000:-1000], 16000)
    assert abs(peak - 440.0) / 440.0 < 0.005


def test_resample_idempotent_at_target_rate():
    rng = np.random.default_rng(1)
    buf = AudioBuffer(rng.standard_normal(8000), 48000)
    once = resample(buf, 16000)
    twice = resample(once, 16000)
    assert np.max(np.abs(once.samples - twice.samples)) < 1e-6


@pytest.mark.parametrize(
    "source_hz, target_hz",
    [(16000, 20000), (44100, 55125), (44100, 16000), (48000, 16000), (22050, 27562)],
)
def test_resample_matches_reference(source_hz, target_hz):
    x = np.random.default_rng(source_hz + target_hz).standard_normal(source_hz // 2)
    out = resample(AudioBuffer(x, source_hz), target_hz)
    expected = reference_resample(x, source_hz, target_hz)
    assert out.sample_rate_hz == target_hz
    assert len(out.samples) == len(expected)
    assert np.max(np.abs(out.samples - expected)) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 17, 31, 32, 33])
@pytest.mark.parametrize("source_hz, target_hz", [(44100, 16000), (16000, 20000), (48000, 8000)])
def test_resample_short_inputs_match_reference(n, source_hz, target_hz):
    # Fewer samples than taps; n = 1..3 include zero and single outputs.
    x = np.random.default_rng(n).standard_normal(n)
    out = resample(AudioBuffer(x, source_hz), target_hz).samples
    expected = reference_resample(x, source_hz, target_hz)
    assert len(out) == len(expected) == int(round(n * target_hz / source_hz))
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=3000),
    source_hz=st.integers(min_value=8000, max_value=48000),
    target_hz=st.integers(min_value=8000, max_value=48000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_resample_matches_reference_property(n, source_hz, target_hz, seed):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    out = resample(AudioBuffer(x, source_hz), target_hz).samples
    if source_hz == target_hz:
        np.testing.assert_array_equal(out, x)
        return
    expected = reference_resample(x, source_hz, target_hz)
    assert len(out) == len(expected)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)


def test_resample_rejects_fractional_rate():
    with pytest.raises(ConfigError):
        resample(AudioBuffer(np.zeros(100), 16000), 22050.5)


def test_resample_peak_memory_is_a_few_outputs():
    # 10 s at 44.1 kHz -> 16 kHz: the padded input (2.8x the output) and
    # fixed-size chunk temporaries, never temporaries that grow with the
    # signal (a 65536 x 32 block of weights alone is 13x this output).
    buf = AudioBuffer(np.random.default_rng(3).standard_normal(441000), 44100)
    tracemalloc.start()
    try:
        out = resample(buf, 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * out.samples.nbytes


def test_load_wav_missing_file_names_path(tmp_path):
    path = tmp_path / "absent.wav"
    with pytest.raises(AudioFormatError, match="absent.wav"):
        load_wav(path)


def test_frame_count_formula():
    buf = AudioBuffer(np.ones(16000), 16000)
    frames = frame_signal(buf, 20.0, 10.0)
    assert frames.frames.shape == (99, 320)
    assert frames.n_frames == (16000 - 320) // 160 + 1


@pytest.mark.parametrize("n", [320, 479, 480, 16000, 12345])
def test_frame_count_formula_random_lengths(n):
    buf = AudioBuffer(np.zeros(n), 16000)
    frames = frame_signal(buf)
    assert frames.n_frames == (n - 320) // 160 + 1


def test_zero_signal_zero_frames():
    buf = AudioBuffer(np.zeros(1000), 16000)
    frames = frame_signal(buf)
    assert np.all(frames.frames == 0.0)


def test_single_frame_boundary():
    buf = AudioBuffer(np.ones(320), 16000)
    assert frame_signal(buf).n_frames == 1


def test_too_short_signal():
    buf = AudioBuffer(np.ones(319), 16000)
    with pytest.raises(EmptyInputError):
        frame_signal(buf)


def test_hamming_window_applied():
    buf = AudioBuffer(np.ones(320), 16000)
    frames = frame_signal(buf)
    k = np.arange(320)
    expected = 0.54 - 0.46 * np.cos(2 * np.pi * k / 319)
    np.testing.assert_allclose(frames.frames[0], expected, atol=1e-12)


def test_buffer_rejects_nan():
    with pytest.raises(ConfigError):
        AudioBuffer(np.array([0.0, np.nan]), 16000)
