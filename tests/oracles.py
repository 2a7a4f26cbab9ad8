"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written from the defining formulas (explicit
DFT/DCT matrices, direct summation) and shares no code with the package.
"""

import math

import numpy as np


def naive_mfcc13(frame, n_fft, n_mels, fs, fmin, fmax, log_floor, n_ceps=13):
    """Static MFCCs of one windowed frame via explicit DFT, triangular mel
    filters, floored natural log, and an orthonormal DCT-II matrix."""
    padded = np.zeros(n_fft)
    padded[: len(frame)] = frame
    k = np.arange(n_fft // 2 + 1)
    dft = np.exp(-2j * np.pi * np.outer(k, np.arange(n_fft)) / n_fft)
    power = np.abs(dft @ padded) ** 2

    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def inv_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [inv_mel(mel(fmin) + (mel(fmax) - mel(fmin)) * i / (n_mels + 1))
             for i in range(n_mels + 2)]
    bin_freq = k * fs / n_fft
    energies = np.zeros(n_mels)
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        for b in range(len(bin_freq)):
            f = bin_freq[b]
            if lo < f < hi:
                w = (f - lo) / (center - lo) if f <= center else (hi - f) / (hi - center)
                energies[m] += w * power[b]
            elif f == center:
                energies[m] += power[b]
    log_e = np.log(np.maximum(energies, log_floor))

    out = np.zeros(n_ceps)
    for c in range(n_ceps):
        scale = math.sqrt(1.0 / n_mels) if c == 0 else math.sqrt(2.0 / n_mels)
        out[c] = scale * sum(
            log_e[m] * math.cos(math.pi * c * (2 * m + 1) / (2 * n_mels))
            for m in range(n_mels)
        )
    return out


def dft_peak_hz(samples, fs, zero_pad=8):
    """Dominant frequency by zero-padded DFT with quadratic peak interpolation."""
    x = np.asarray(samples, dtype=np.float64)
    x = x * np.hanning(len(x))
    n = len(x) * zero_pad
    mag = np.abs(np.fft.rfft(x, n=n))
    k = int(np.argmax(mag[1:])) + 1
    if 1 <= k < len(mag) - 1:
        a, b, c = mag[k - 1], mag[k], mag[k + 1]
        denom = a - 2 * b + c
        delta = 0.5 * (a - c) / denom if denom != 0 else 0.0
    else:
        delta = 0.0
    return (k + delta) * fs / n


def naive_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(sum((b - my) ** 2 for b in y))
    return num / den


def naive_welch(a, b):
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((v - ma) ** 2 for v in a) / (na - 1)
    vb = sum((v - mb) ** 2 for v in b) / (nb - 1)
    t = (ma - mb) / math.sqrt(va / na + vb / nb)
    dof = (va / na + vb / nb) ** 2 / (
        (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
    )
    return t, dof


def _reference_kaiser(x, half_width, beta=8.0):
    """Continuous Kaiser window, zero outside |x| > half_width."""
    inside = np.abs(x) <= half_width
    arg = np.zeros_like(x)
    arg[inside] = 1.0 - (x[inside] / half_width) ** 2
    return np.where(inside, np.i0(beta * np.sqrt(arg)) / np.i0(beta), 0.0)


def reference_resample(src, source_hz, target_hz, taps=32):
    """Direct windowed-sinc resampler: 32 Kaiser(beta=8)-sinc taps evaluated
    afresh for every output sample at its float position j * source/target.

    This is the package's original per-sample implementation, kept as the
    reference for the polyphase resampler.
    """
    src = np.asarray(src, dtype=np.float64)
    ratio = target_hz / source_hz
    n_out = int(round(len(src) * ratio))
    cutoff = min(1.0, ratio)
    half = taps // 2

    padded = np.concatenate([np.zeros(half + 1), src, np.zeros(half + 1)])
    out = np.empty(n_out)
    chunk = 1 << 16
    for start in range(0, n_out, chunk):
        idx_out = np.arange(start, min(start + chunk, n_out))
        t = idx_out / ratio  # center position in input samples
        base = np.floor(t).astype(np.int64)
        k = np.arange(-half + 1, half + 1)
        offsets = base[:, None] + k[None, :]
        x = offsets - t[:, None]
        weights = cutoff * np.sinc(cutoff * x) * _reference_kaiser(x, half)
        out[idx_out] = np.sum(padded[offsets + half + 1] * weights, axis=1)
    return out
