"""Data augmentation for supervised training: additive noise at a target SNR,
speaking-rate modification, and vocal tract length perturbation (VTLP)."""

import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import audio_io, features, preprocess
from .errors import ConfigError

RATE_MIN, RATE_MAX = 0.5, 2.0
ALPHA_MIN, ALPHA_MAX = 0.8, 1.25

DEFAULT_SNR_DB = (5.0, 10.0, 15.0, 20.0)
DEFAULT_RATE_FACTORS = (0.8, 0.9, 1.1, 1.2)
DEFAULT_VTLP_ALPHAS = (0.9, 0.95, 1.05, 1.1)


@dataclass(frozen=True)
class AugmentSpec:
    """Which augmentation variants to generate per original utterance.

    noise_types maps a noise name to a WAV path; only "white" may map to
    None, for generated white Gaussian noise. Each family can be disabled by
    passing an empty collection.
    """

    noise_types: dict = field(default_factory=lambda: {"white": None})
    snr_db_values: tuple = DEFAULT_SNR_DB
    rate_factors: tuple = DEFAULT_RATE_FACTORS
    vtlp_alphas: tuple = DEFAULT_VTLP_ALPHAS
    seed: int = 42

    def variants_per_row(self):
        """Number of augmented variants generated for one original row."""
        return (
            len(self.noise_types) * len(self.snr_db_values)
            + len(self.rate_factors)
            + len(self.vtlp_alphas)
        )


def add_noise_at_snr(clean, noise, snr_db, seed=0, return_components=False):
    """Mix noise into clean at the requested SNR in dB.

    noise is an AudioBuffer, or None for white Gaussian noise. A supplied
    noise shorter than the clean signal is tiled; the excerpt offset is a
    seeded random draw. Pass return_components=True to also get the scaled
    noise track (used to verify the realized SNR).
    """
    x = clean.samples
    p_clean = float(np.mean(x**2))
    if p_clean <= 0.0:
        raise ConfigError("clean signal has zero power; SNR is undefined")
    rng = np.random.default_rng(seed)
    if noise is None:
        n = rng.standard_normal(len(x))
    else:
        if noise.sample_rate_hz != clean.sample_rate_hz:
            noise = audio_io.resample(noise, clean.sample_rate_hz)
        src = noise.samples
        if len(src) < len(x):
            src = np.tile(src, int(np.ceil(len(x) / len(src))))
        offset = int(rng.integers(0, len(src) - len(x) + 1))
        n = src[offset : offset + len(x)]
    p_noise = float(np.mean(n**2))
    if p_noise <= 0.0:
        raise ConfigError("noise excerpt has zero power")
    scale = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    scaled = scale * n
    mixed = audio_io.AudioBuffer(x + scaled, clean.sample_rate_hz)
    if return_components:
        return mixed, scaled
    return mixed


def change_rate(audio, factor):
    """Speaking-rate modification: duration scales by 1/factor, pitch preserved."""
    if not RATE_MIN <= factor <= RATE_MAX:
        raise ConfigError(f"rate factor must be in [{RATE_MIN}, {RATE_MAX}], got {factor}")
    return preprocess.time_stretch(audio, 1.0 / factor)


def warp_frequencies(freqs_hz, alpha, fmax_hz, f_hi_hz=None):
    """Piecewise-linear VTLP frequency warp with fmax fixed.

    f' = alpha * f below the breakpoint f_hi * min(alpha, 1) / alpha; the
    remaining band maps linearly onto [alpha * breakpoint, fmax].
    """
    if not ALPHA_MIN <= alpha <= ALPHA_MAX:
        raise ConfigError(f"vtlp alpha must be in [{ALPHA_MIN}, {ALPHA_MAX}], got {alpha}")
    if f_hi_hz is None:
        f_hi_hz = 0.8 * fmax_hz
    f = np.asarray(freqs_hz, dtype=np.float64)
    breakpoint_hz = f_hi_hz * min(alpha, 1.0) / alpha
    low = alpha * f
    high = fmax_hz - (fmax_hz - alpha * breakpoint_hz) * (fmax_hz - f) / (fmax_hz - breakpoint_hz)
    return np.where(f <= breakpoint_hz, low, high)


def vtlp_filterbank(cfg, sample_rate_hz, alpha, f_hi_hz=None):
    """Mel filterbank with VTLP-warped center/edge frequencies.

    Passing the result to compute_mfcc13 yields the perturbed features; the
    warp is exact in the filter domain, no waveform processing is involved.
    """
    fmax = cfg.resolved_fmax(sample_rate_hz)
    edges = features.mel_band_edges_hz(cfg.n_mels, cfg.fmin_hz, fmax)
    warped = warp_frequencies(edges, alpha, fmax, f_hi_hz=f_hi_hz)
    return features.filterbank_from_edges(warped, cfg.n_fft, sample_rate_hz)


def variant_seed(base_seed, utterance_id, aug_type, aug_param):
    """Deterministic per-variant seed derived from the spec seed and provenance."""
    key = f"{base_seed}|{utterance_id}|{aug_type}|{aug_param}"
    return zlib.crc32(key.encode()) & 0x7FFFFFFF


def expand_manifest(rows, spec, include_originals=True):
    """Expand manifest rows into (row, aug_type, aug_param, aug_seed) variants.

    aug_type is one of none/noise/rate/vtlp; aug_param encodes the noise name
    and SNR ("white@10"), the rate factor, or the VTLP alpha. Counts are exact:
    each original yields spec.variants_per_row() augmented rows.
    """
    out = []
    for row in rows:
        utt = row.get("utterance_id", row.get("audio_path", ""))
        if include_originals:
            out.append((row, "none", "", 0))
        for name in spec.noise_types:
            for snr in spec.snr_db_values:
                param = f"{name}@{snr:g}"
                out.append((row, "noise", param, variant_seed(spec.seed, utt, "noise", param)))
        for factor in spec.rate_factors:
            param = f"{factor:g}"
            out.append((row, "rate", param, variant_seed(spec.seed, utt, "rate", param)))
        for alpha in spec.vtlp_alphas:
            param = f"{alpha:g}"
            out.append((row, "vtlp", param, variant_seed(spec.seed, utt, "vtlp", param)))
    return out


def load_noise_sources(noise_types):
    """Resolve noise name -> AudioBuffer (None for generated white noise).

    A missing or unreadable file maps to None with a warning; such a noise is
    unavailable, and apply_augmentation refuses it.
    """
    sources = {}
    for name, path in noise_types.items():
        if path is None:
            sources[name] = None
            continue
        try:
            sources[name] = audio_io.load_wav(path)
        except Exception as exc:  # warn here; realizing the noise fails later
            warnings.warn(f"noise source {name!r} ({path}): {exc}; noise unavailable")
            sources[name] = None
    return sources


def apply_augmentation(audio, aug_type, aug_param, aug_seed, noise_sources=None):
    """Realize one manifest variant in the waveform domain.

    VTLP is feature-domain; for it this returns the audio unchanged and the
    caller must extract features with the filterbank from vtlp_filterbank.
    A named noise other than white needs its AudioBuffer in noise_sources.
    """
    if aug_type in ("none", "", "vtlp"):
        return audio
    if aug_type == "noise":
        name, snr = aug_param.rsplit("@", 1)
        source = (noise_sources or {}).get(name)
        if source is None and name != "white":
            raise ConfigError(f"noise {name!r} has no source WAV; only white is generated")
        return add_noise_at_snr(audio, source, float(snr), seed=aug_seed)
    if aug_type == "rate":
        return change_rate(audio, float(aug_param))
    raise ConfigError(f"unknown augmentation type {aug_type!r}")
