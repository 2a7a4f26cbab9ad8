"""WAV loading, band-limited resampling, and Hamming-window framing.

All functions are pure: they never mutate their inputs and are safe to call
from multiple workers.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AudioFormatError, AudioParseError, ConfigError, EmptyInputError, open_input

DEFAULT_SAMPLE_RATE = 16000
WINDOW_MS = 20.0
HOP_MS = 10.0

# Windowed-sinc interpolation: 32 taps per output sample, Kaiser beta=8.
_RESAMPLE_TAPS = 32
_KAISER_BETA = 8.0
_RESAMPLE_CHUNK = 4096  # outputs per block: two 1 MB chunk x 32 temporaries, cache-sized


@dataclass(frozen=True)
class AudioBuffer:
    """Mono signal with its sample rate; samples are float64 in [-1, 1] nominally."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ConfigError("AudioBuffer samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ConfigError("AudioBuffer samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self):
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class FrameSet:
    """Windowed analysis frames plus the framing metadata that produced them."""

    frames: np.ndarray  # n_frames x window_len
    window_ms: float
    hop_ms: float
    sample_rate_hz: int

    @property
    def n_frames(self):
        return self.frames.shape[0]

    @property
    def window_len(self):
        return self.frames.shape[1]

    @property
    def hop_len(self):
        return int(round(self.hop_ms / 1000.0 * self.sample_rate_hz))

    def frame_times_s(self):
        """Center time of each frame in seconds."""
        centers = np.arange(self.n_frames) * self.hop_len + self.window_len / 2.0
        return centers / self.sample_rate_hz


def load_wav(path):
    """Read a RIFF/WAVE file (PCM16 or IEEE float32, mono or stereo) as a mono buffer.

    16-bit samples are scaled by 1/32768; stereo is downmixed by channel average.
    Chunks other than `fmt ` and `data` are skipped. A file that cannot be
    read raises AudioFormatError naming the path.
    """
    with open_input(path, AudioFormatError, mode="rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_len,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + chunk_len]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise AudioParseError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_len:
                raise AudioParseError(
                    f"{path}: data chunk declares {chunk_len} bytes, {len(body)} present"
                )
            data = body
        pos += 8 + chunk_len + (chunk_len & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise AudioParseError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1:
        raise AudioFormatError(f"{path}: invalid channel count {n_channels}")

    if audio_format == 1 and bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == 3 and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise AudioFormatError(
            f"{path}: unsupported codec (format={audio_format}, bits={bits}); "
            "only PCM16 and IEEE float32 are supported"
        )

    if len(samples) % n_channels != 0:
        raise AudioParseError(f"{path}: data length not divisible by channel count")
    if n_channels > 1:
        samples = samples.reshape(-1, n_channels).mean(axis=1)
    return AudioBuffer(samples, sample_rate)


def write_wav(path, buf, dtype="int16"):
    """Write a mono AudioBuffer as PCM16 or float32 WAV."""
    if dtype == "int16":
        payload = np.clip(np.round(buf.samples * 32768.0), -32768, 32767).astype("<i2")
        audio_format, bits = 1, 16
    elif dtype == "float32":
        payload = buf.samples.astype("<f4")
        audio_format, bits = 3, 32
    else:
        raise ConfigError(f"unsupported wav dtype {dtype!r}")
    data = payload.tobytes()
    block_align = bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(data),
        b"WAVE",
        b"fmt ",
        16,
        audio_format,
        1,
        buf.sample_rate_hz,
        buf.sample_rate_hz * block_align,
        block_align,
        bits,
        b"data",
        len(data),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def _kaiser(x, half_width):
    """Continuous Kaiser window, zero outside |x| > half_width."""
    inside = np.abs(x) <= half_width
    arg = np.zeros_like(x)
    arg[inside] = 1.0 - (x[inside] / half_width) ** 2
    return np.where(inside, np.i0(_KAISER_BETA * np.sqrt(arg)) / np.i0(_KAISER_BETA), 0.0)


def _phase_table(up, cutoff):
    """Windowed-sinc taps for the fractional phases p/up, p = 0 .. up, one row each.

    Row p holds the weights of input offsets -half+1 .. half relative to
    floor(t) for an output at t = floor(t) + p/up. Row `up` (fraction 1)
    serves outputs read from one sample early; see resample.
    """
    half = _RESAMPLE_TAPS // 2
    x = np.arange(-half + 1, half + 1)[None, :] - np.arange(up + 1)[:, None] / up
    return cutoff * np.sinc(cutoff * x) * _kaiser(x, half)


def resample(buf, target_hz):
    """Band-limited resampling by windowed-sinc interpolation (polyphase).

    The rate ratio reduces to up/down = target/source in lowest terms, so
    output j sits at input position j*down/up and uses one of only up + 1
    fractional phases p/up. Their 32-tap Kaiser-sinc weights (beta=8, cutoff
    min(1, up/down)) are computed once per call, (up + 1) x 32 kernel
    evaluations instead of one set per output; each output is then the dot
    product of its 32 input samples with its phase's row, evaluated in
    vectorised chunks.

    Both rates must be whole numbers of Hz. Output length is
    round(n * target/source). When target equals the source rate the buffer
    is returned unchanged.
    """
    if target_hz <= 0:
        raise ConfigError(f"target_hz must be positive, got {target_hz}")
    if target_hz == buf.sample_rate_hz:
        return buf
    if target_hz != int(target_hz) or buf.sample_rate_hz != int(buf.sample_rate_hz):
        raise ConfigError(
            f"resampling needs whole-Hz rates, got {buf.sample_rate_hz} -> {target_hz}"
        )

    target_hz, source_hz = int(target_hz), int(buf.sample_rate_hz)
    g = math.gcd(target_hz, source_hz)
    up, down = target_hz // g, source_hz // g
    src = buf.samples
    n_out = int(round(len(src) * (target_hz / source_hz)))
    table = _phase_table(up, min(1.0, up / down))
    half = _RESAMPLE_TAPS // 2

    # Output j reads padded[base + 2 : base + 2 + taps]. base is the floor of
    # the float position j * source/target, as in the per-sample resampler;
    # where that lands just below a whole position the phase is `up`. When
    # downsampling that sum differs from the one at base + 1, phase 0, as the
    # kernel does not vanish at the window's edge.
    padded = np.concatenate([np.zeros(half + 1), src, np.zeros(half + 1)])
    windows = sliding_window_view(padded, _RESAMPLE_TAPS)
    out = np.empty(n_out)
    for start in range(0, n_out, _RESAMPLE_CHUNK):
        j = np.arange(start, min(start + _RESAMPLE_CHUNK, n_out))
        base = np.floor(j / (target_hz / source_hz)).astype(np.int64)
        phase = j * down - base * up
        out[start : start + len(base)] = np.einsum("ij,ij->i", windows[base + 2], table[phase])
    return AudioBuffer(out, target_hz)


def frame_signal(buf, window_ms=WINDOW_MS, hop_ms=HOP_MS):
    """Slice the signal into Hamming-windowed frames, left-aligned at sample 0.

    The trailing partial frame is dropped; a signal shorter than one window
    raises EmptyInputError.
    """
    window_len = int(round(window_ms / 1000.0 * buf.sample_rate_hz))
    hop_len = int(round(hop_ms / 1000.0 * buf.sample_rate_hz))
    n = len(buf.samples)
    if n < window_len:
        raise EmptyInputError(
            f"signal of {n} samples is shorter than one {window_len}-sample window"
        )
    n_frames = (n - window_len) // hop_len + 1
    idx = np.arange(window_len)[None, :] + hop_len * np.arange(n_frames)[:, None]
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(window_len) / (window_len - 1))
    frames = buf.samples[idx] * window[None, :]
    return FrameSet(frames, window_ms, hop_ms, buf.sample_rate_hz)
