"""Correctness checks on the program's outputs.

Each check compares an output with a property of the method or with a value
the benchmark computes itself from the generated inputs, never with a stored
copy of earlier output. A failed check raises CheckFailed.
"""

import csv
import math
import struct
from collections import Counter, defaultdict

import numpy as np

SAMPLE_RATE = 16000
WINDOW = 320  # 20 ms at 16 kHz
HOP = 160  # 10 ms at 16 kHz

NASAL_CONSONANTS = {"M", "N", "NG"}
ORAL_CONSONANTS = {"B", "D", "G", "P", "T", "K", "Z", "ZH", "V", "S", "SH", "F", "HH",
                   "JH", "CH", "L", "R"}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_csv(path, delimiter=","):
    """Rows of a CSV or TSV file as dicts, skipping `#` comment lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader((line for line in fh if not line.startswith("#")),
                                   delimiter=delimiter))


def n_frames(n_samples):
    """Analysis frames of a 16 kHz signal: 20 ms windows every 10 ms."""
    return (n_samples - WINDOW) // HOP + 1 if n_samples >= WINDOW else 0


def score_frames(n_samples, rate, tempo_factor):
    """Frames implied by a WAV's length once it is brought to 16 kHz and its
    duration divided by the tempo factor."""
    return n_frames(math.floor(n_samples * SAMPLE_RATE / rate / tempo_factor))


def check_scores(rows, utterances, tempo_factor):
    """rows: the scores CSV; utterances: (speaker, utterance) ->
    {"is_oral", "rate", "n_samples"} for every manifest row."""
    keys = [(r["speaker_id"], r["utterance_id"]) for r in rows]
    require(len(keys) == len(set(keys)), "scores CSV repeats an utterance")
    missing = set(utterances) - set(keys)
    extra = set(keys) - set(utterances)
    require(not missing and not extra,
            f"scores CSV rows do not match the manifest: missing {sorted(missing)[:3]}, "
            f"unexpected {sorted(extra)[:3]}")
    nasal, oral = defaultdict(list), defaultdict(list)
    for row, key in zip(rows, keys):
        score = float(row["sentence_ohm"])
        require(math.isfinite(score), f"{key}: sentence_ohm {score} is not finite")
        info = utterances[key]
        expect = score_frames(info["n_samples"], info["rate"], tempo_factor)
        got = int(row["n_frames"])
        require(abs(got - expect) <= 1, f"{key}: {got} frames, expected {expect} +/- 1")
        (oral if info["is_oral"] else nasal)[key[0]].append(score)
    for speaker in sorted(set(nasal) | set(oral)):
        require(speaker in nasal and speaker in oral,
                f"speaker {speaker}: needs both nasal-bearing and oral sentences")
        n_mean, o_mean = np.mean(nasal[speaker]), np.mean(oral[speaker])
        require(n_mean > o_mean,
                f"speaker {speaker}: nasal-bearing mean OHM {n_mean:.3f} does not exceed "
                f"oral mean {o_mean:.3f}")


def check_frames(frame_rows, score_rows):
    """The frames CSV holds n_frames rows per utterance, indexed 0.., and their
    mean is the sentence score."""
    per_utt = defaultdict(list)
    for row in frame_rows:
        per_utt[(row["speaker_id"], row["utterance_id"])].append(
            (int(row["frame_index"]), float(row["frame_ohm"])))
    for row in score_rows:
        key = (row["speaker_id"], row["utterance_id"])
        frames = per_utt.get(key, [])
        require(len(frames) == int(row["n_frames"]),
                f"{key}: {len(frames)} frame rows, scores CSV says {row['n_frames']}")
        require([i for i, _ in frames] == list(range(len(frames))),
                f"{key}: frame indices are not 0..n-1")
        mean = float(np.mean([s for _, s in frames]))
        require(abs(mean - float(row["sentence_ohm"])) <= 1e-6,
                f"{key}: mean frame OHM {mean:.8f} != sentence OHM {row['sentence_ohm']}")


def check_agreement(rows, reference_rows, bound):
    """Every utterance's OHM is within `bound` of its reference score."""
    reference = {(r["speaker_id"], r["utterance_id"]): float(r["sentence_ohm"])
                 for r in reference_rows}
    for row in rows:
        key = (row["speaker_id"], row["utterance_id"])
        require(key in reference, f"{key}: no reference score")
        diff = abs(float(row["sentence_ohm"]) - reference[key])
        require(diff <= bound, f"{key}: OHM differs from its 16 kHz score by {diff:.3f} "
                f"> {bound}")


def read_model(path):
    """(layer sizes, feature-config hash, [(W, b), ...]) of an OHMNET01 file,
    parsed from the format description rather than with the program's loader."""
    with open(path, "rb") as fh:
        raw = fh.read()
    require(raw[:8] == b"OHMNET01", f"{path}: bad magic")
    (n,) = struct.unpack_from("<I", raw, 8)
    sizes = list(struct.unpack_from(f"<{n}I", raw, 12))
    pos = 12 + 4 * n + 1
    (cfg_hash,) = struct.unpack_from("<I", raw, pos)
    payload = np.frombuffer(raw, dtype="<f4", offset=pos + 4).astype(np.float64)
    require(payload.size == sum(o * i + o for i, o in zip(sizes, sizes[1:])),
            f"{path}: payload size does not match layer sizes {sizes}")
    layers, at = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = payload[at:at + fan_in * fan_out].reshape(fan_out, fan_in)
        at += fan_in * fan_out
        layers.append((w, payload[at:at + fan_out]))
        at += fan_out
    return sizes, cfg_hash, layers


def predict_classes(layers, x):
    """argmax of a ReLU MLP's output (softmax does not change the argmax)."""
    a = x
    for i, (w, b) in enumerate(layers):
        a = a @ w.T + b
        if i < len(layers) - 1:
            a = np.maximum(a, 0.0)
    return np.argmax(a, axis=1)


def macro_f1(y_true, y_pred, n_classes=4):
    scores = []
    for c in range(n_classes):
        tp = np.sum((y_pred == c) & (y_true == c))
        denom = 2 * tp + np.sum((y_pred == c) & (y_true != c)) + np.sum((y_pred != c) & (y_true == c))
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def check_losses(rows):
    losses = [float(r["mean_loss"]) for r in rows]
    require(len(losses) >= 2, f"loss log has {len(losses)} epochs")
    require(all(math.isfinite(v) for v in losses), "loss log holds a non-finite loss")
    require(losses[-1] < losses[0], f"last epoch loss {losses[-1]} is not below the first "
            f"{losses[0]}")


def consonant_frames(tsv_path, n_samples):
    """NC and OC frame counts of one 16 kHz utterance, from its alignment TSV
    and WAV length: each frame takes the phone whose [start, end) holds its
    center."""
    segments = []
    with open(tsv_path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 3:
                segments.append((float(parts[0]), float(parts[1]),
                                 parts[2].strip().upper().rstrip("012")))
    centers = (np.arange(n_frames(n_samples)) * HOP + WINDOW / 2.0) / SAMPLE_RATE
    counts = Counter()
    for start, end, phone in segments:
        inside = int(np.sum((centers >= start) & (centers < end)))
        if phone in NASAL_CONSONANTS:
            counts["NC"] += inside
        elif phone in ORAL_CONSONANTS:
            counts["OC"] += inside
    return counts


def check_augmented(out_rows, in_rows, variants):
    """The augmented manifest holds each input row once plus `variants`
    variants of it, and nothing else."""
    expect = len(in_rows) * (1 + variants)
    require(len(out_rows) == expect,
            f"augmented manifest has {len(out_rows)} rows, expected {len(in_rows)} x "
            f"(1 + {variants}) = {expect}")
    per_utt = Counter(r["utterance_id"] for r in out_rows)
    for row in in_rows:
        require(per_utt[row["utterance_id"]] == 1 + variants,
                f"{row['utterance_id']}: {per_utt[row['utterance_id']]} rows, expected "
                f"{1 + variants}")


def check_loso(rows, speakers):
    got = [r["speaker_id"] for r in rows]
    require(sorted(got) == sorted(speakers),
            f"LOSO results for {sorted(got)}, expected one per speaker {sorted(speakers)}")
    for row in rows:
        require(row["fold_status"] == "ok", f"fold {row['speaker_id']}: {row['fold_status']}")
        require(math.isfinite(float(row["predicted_score"])),
                f"fold {row['speaker_id']}: prediction {row['predicted_score']}")


def variant_lengths(n_samples, rate_factors, n_other):
    """Sample counts of one utterance's variants: a rate change by r scales the
    length by 1/r; noise and VTLP variants keep it."""
    return [int(round(n_samples * (1.0 / r))) for r in rate_factors] + [n_samples] * n_other
