"""39-dimensional MFCC features: 13 static cepstra plus velocity and acceleration."""

import zlib
from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import audio_io
from .errors import ConfigError

N_STATIC = 13


@dataclass(frozen=True)
class MfccConfig:
    n_mels: int = 40
    n_fft: int = 512
    n_ceps: int = N_STATIC
    fmin_hz: float = 0.0
    fmax_hz: float | None = None  # None means sample_rate / 2
    log_floor: float = 1e-10
    delta_window: int = 2

    def __post_init__(self):
        if self.n_ceps > self.n_mels:
            raise ConfigError(f"n_ceps ({self.n_ceps}) must not exceed n_mels ({self.n_mels})")

    def resolved_fmax(self, sample_rate_hz):
        return self.fmax_hz if self.fmax_hz is not None else sample_rate_hz / 2.0

    def hash32(self):
        """Stable 32-bit identifier binding a model to its feature configuration."""
        key = (
            self.n_mels,
            self.n_fft,
            self.n_ceps,
            float(self.fmin_hz),
            self.fmax_hz if self.fmax_hz is None else float(self.fmax_hz),
            float(self.log_floor),
            self.delta_window,
        )
        return zlib.crc32(repr(key).encode()) & 0xFFFFFFFF


@dataclass(frozen=True)
class FeatureSequence:
    """Per-frame feature matrix (n_frames x 39) with frame center times."""

    vectors: np.ndarray
    frame_times_s: np.ndarray
    config: MfccConfig


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_band_edges_hz(n_mels, fmin_hz, fmax_hz):
    """The n_mels + 2 edge/center frequencies of the triangular filters, in Hz."""
    return mel_to_hz(np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2))


def filterbank_from_edges(edges_hz, n_fft, sample_rate_hz):
    """Triangular filters (n_mels x n_fft//2+1) from explicit edge frequencies.

    Filter m rises from edges[m] to edges[m+1] and falls to edges[m+2], peak 1.
    """
    n_mels = len(edges_hz) - 2
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate_hz / n_fft
    weights = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(n_mels):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_freqs - lo) / max(center - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - center, 1e-12)
        weights[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return weights


def mel_filterbank(cfg, sample_rate_hz):
    edges = mel_band_edges_hz(cfg.n_mels, cfg.fmin_hz, cfg.resolved_fmax(sample_rate_hz))
    return filterbank_from_edges(edges, cfg.n_fft, sample_rate_hz)


def compute_mfcc13(frames, cfg, filterbank=None):
    """Static MFCCs (n_frames x 13) from windowed frames.

    Per frame: zero-pad to n_fft, magnitude-squared DFT, triangular mel
    filterbank, floored natural log, orthonormal DCT-II, keep coefficients
    0..12. A pre-warped filterbank may be supplied (used by VTLP augmentation).
    """
    if cfg.n_fft < frames.window_len:
        raise ConfigError(
            f"n_fft ({cfg.n_fft}) must be at least the window length ({frames.window_len})"
        )
    if filterbank is None:
        filterbank = mel_filterbank(cfg, frames.sample_rate_hz)
    spectrum = np.fft.rfft(frames.frames, n=cfg.n_fft, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    mel_energy = power @ filterbank.T
    log_mel = np.log(np.maximum(mel_energy, cfg.log_floor))
    cepstra = scipy.fft.dct(log_mel, type=2, norm="ortho", axis=1)
    return cepstra[:, : cfg.n_ceps]


def _delta(seq, window):
    """Regression-based delta with edge replication."""
    n = len(seq)
    padded = np.concatenate([seq[:1].repeat(window, axis=0), seq, seq[-1:].repeat(window, axis=0)])
    num = np.zeros_like(seq)
    for k in range(1, window + 1):
        num += k * (padded[window + k : window + k + n] - padded[window - k : window - k + n])
    return num / (2.0 * sum(k * k for k in range(1, window + 1)))


def append_deltas(static, delta_window=2):
    """Stack [static | delta | delta-delta] into an n_frames x 39 matrix."""
    static = np.asarray(static, dtype=np.float64)
    vel = _delta(static, delta_window)
    acc = _delta(vel, delta_window)
    return np.hstack([static, vel, acc])


def extract_features(frames, cfg=None, filterbank=None):
    """Full front end: windowed frames -> FeatureSequence of 39-dim vectors."""
    if cfg is None:
        cfg = MfccConfig()
    static = compute_mfcc13(frames, cfg, filterbank=filterbank)
    vectors = append_deltas(static, cfg.delta_window)
    return FeatureSequence(vectors, frames.frame_times_s(), cfg)


def from_audio(buf, cfg=None, filterbank=None):
    """The audio front end: resample to audio_io.DEFAULT_SAMPLE_RATE, frame,
    and extract MFCC-39. A supplied filterbank must be built at that rate."""
    buf = audio_io.resample(buf, audio_io.DEFAULT_SAMPLE_RATE)
    return extract_features(audio_io.frame_signal(buf), cfg, filterbank=filterbank)
