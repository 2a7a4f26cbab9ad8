import numpy as np
import pytest

from ohm.audio_io import AudioBuffer, write_wav
from ohm.augment import (
    AugmentSpec,
    add_noise_at_snr,
    apply_augmentation,
    change_rate,
    expand_manifest,
    load_noise_sources,
    variant_seed,
    vtlp_filterbank,
    warp_frequencies,
)
from ohm.errors import ConfigError
from ohm.features import MfccConfig, mel_band_edges_hz, mel_filterbank

from oracles import dft_peak_hz

FS = 16000


def _tone(freq_hz=440.0, duration_s=1.0):
    t = np.arange(int(duration_s * FS)) / FS
    return AudioBuffer(0.5 * np.sin(2 * np.pi * freq_hz * t), FS)


def _measured_snr_db(clean, scaled_noise):
    return 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(scaled_noise**2))


@pytest.mark.parametrize("snr", [5.0, 10.0, 15.0, 20.0])
def test_white_noise_snr(snr):
    clean = _tone()
    mixed, noise = add_noise_at_snr(clean, None, snr, seed=7, return_components=True)
    assert abs(_measured_snr_db(clean, noise) - snr) < 0.1
    np.testing.assert_allclose(mixed.samples, clean.samples + noise, atol=1e-12)


def test_supplied_noise_snr_and_tiling():
    rng = np.random.default_rng(0)
    clean = _tone(duration_s=2.0)
    noise = AudioBuffer(rng.standard_normal(FS // 2) * 0.3, FS)  # shorter than clean
    mixed, scaled = add_noise_at_snr(clean, noise, 12.0, seed=3, return_components=True)
    assert abs(_measured_snr_db(clean, scaled) - 12.0) < 0.1
    assert len(mixed.samples) == len(clean.samples)


def test_noise_deterministic():
    clean = _tone()
    a = add_noise_at_snr(clean, None, 10.0, seed=5)
    b = add_noise_at_snr(clean, None, 10.0, seed=5)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_zero_clean_rejected():
    with pytest.raises(ConfigError):
        add_noise_at_snr(AudioBuffer(np.zeros(1000), FS), None, 10.0)


def test_change_rate_identity_duration():
    audio = _tone()
    out = change_rate(audio, 1.0)
    assert abs(len(out.samples) - len(audio.samples)) <= int(0.025 * FS)


def test_change_rate_slowdown():
    audio = _tone()
    out = change_rate(audio, 0.8)
    assert abs(len(out.samples) - 1.25 * len(audio.samples)) <= int(0.025 * FS)


def test_change_rate_preserves_pitch():
    audio = _tone(440.0)
    out = change_rate(audio, 1.2)
    peak = dft_peak_hz(out.samples[1000:-1000], FS)
    assert abs(peak - 440.0) / 440.0 < 0.02


def test_change_rate_out_of_range():
    with pytest.raises(ConfigError):
        change_rate(_tone(), 0.4)


def test_vtlp_identity():
    cfg = MfccConfig()
    np.testing.assert_allclose(vtlp_filterbank(cfg, FS, 1.0), mel_filterbank(cfg, FS), atol=1e-12)


def test_vtlp_scales_below_breakpoint():
    alpha = 1.1
    fmax = 8000.0
    freqs = np.linspace(100.0, 2000.0, 20)  # all well below the breakpoint
    warped = warp_frequencies(freqs, alpha, fmax)
    np.testing.assert_allclose(warped, alpha * freqs, rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.9, 0.95, 1.05, 1.1, 0.8, 1.25])
def test_vtlp_monotone_and_bounded(alpha):
    edges = mel_band_edges_hz(40, 0.0, 8000.0)
    warped = warp_frequencies(edges, alpha, 8000.0)
    assert np.all(np.diff(warped) > 0.0)
    assert warped[-1] == pytest.approx(8000.0)
    assert np.all(warped <= 8000.0 + 1e-9)


def test_vtlp_alpha_out_of_range():
    with pytest.raises(ConfigError):
        warp_frequencies([100.0], 1.5, 8000.0)


def test_expand_manifest_counts():
    spec = AugmentSpec(
        noise_types={"white": None, "babble": None, "factory": None},
        seed=1,
    )
    rows = [{"utterance_id": f"u{i}", "audio_path": f"u{i}.wav", "speaker_id": "s"}
            for i in range(10)]
    expanded = expand_manifest(rows, spec)
    # 1 original + 3*4 noise + 4 rate + 4 vtlp per row
    assert spec.variants_per_row() == 20
    assert len(expanded) == 10 * 21
    noise_rows = [e for e in expanded if e[1] == "noise"]
    assert len(noise_rows) == 10 * 12


def test_expand_manifest_family_switches():
    spec = AugmentSpec(noise_types={}, rate_factors=(), vtlp_alphas=(0.9,), seed=0)
    expanded = expand_manifest([{"utterance_id": "u", "audio_path": "u.wav"}], spec)
    assert [e[1] for e in expanded] == ["none", "vtlp"]


def test_variant_seed_deterministic():
    assert variant_seed(1, "u1", "noise", "white@10") == variant_seed(1, "u1", "noise", "white@10")
    assert variant_seed(1, "u1", "noise", "white@10") != variant_seed(1, "u2", "noise", "white@10")


def test_missing_noise_file_degrades_with_warning(tmp_path):
    with pytest.warns(UserWarning, match="babble"):
        sources = load_noise_sources({"babble": str(tmp_path / "missing.wav")})
    assert sources == {"babble": None}


def test_load_noise_sources_reads_wav(tmp_path):
    path = tmp_path / "noise.wav"
    write_wav(path, AudioBuffer(np.random.default_rng(0).standard_normal(1000) * 0.1, FS))
    sources = load_noise_sources({"factory": str(path)})
    assert isinstance(sources["factory"], AudioBuffer)


def test_apply_augmentation_dispatch():
    audio = _tone()
    assert apply_augmentation(audio, "none", "", 0) is audio
    assert apply_augmentation(audio, "vtlp", "1.1", 0) is audio
    noisy = apply_augmentation(audio, "noise", "white@10", 3)
    assert len(noisy.samples) == len(audio.samples)
    slower = apply_augmentation(audio, "rate", "0.8", 0)
    assert len(slower.samples) > len(audio.samples)
    with pytest.raises(ConfigError):
        apply_augmentation(audio, "reverb", "", 0)


def test_named_noise_without_source_raises():
    audio = _tone()
    with pytest.raises(ConfigError, match="babble"):
        apply_augmentation(audio, "noise", "babble@10", 3)
    with pytest.raises(ConfigError, match="babble"):
        apply_augmentation(audio, "noise", "babble@10", 3, {"babble": None})
