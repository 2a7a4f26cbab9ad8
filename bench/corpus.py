"""Seeded inputs for the benchmark, synthesized with tests/synthcorpus.py.

Every function here writes files under a work directory and returns plain
rows; the program under test only ever sees the written files.
"""

import csv
import wave

import numpy as np

import synthcorpus
from ohm.alignment import write_alignment_tsv
from ohm.audio_io import AudioBuffer, write_wav


def write_corpus(root, seed, n_speakers, utts_per_speaker, words, nasal_every, prefix):
    """Write one WAV and one alignment TSV per utterance; return manifest rows.

    Each utterance draws its word count uniformly from the inclusive range
    `words`, so lengths are mixed. With nasal_every=k, every k-th utterance of
    a speaker is nasal-bearing (is_oral false); 0 keeps the corpus oral.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for si in range(n_speakers):
        speaker = synthcorpus.make_speaker(f"{prefix}{si:02d}", rng)
        for ui in range(utts_per_speaker):
            nasal = nasal_every > 0 and ui % nasal_every == 0
            n_words = int(rng.integers(words[0], words[1] + 1))
            audio, segments = synthcorpus.synth_utterance(speaker, rng, n_words=n_words,
                                                          nasal=nasal)
            utt = f"{speaker.speaker_id}_u{ui:02d}"
            wav, tsv = root / f"{utt}.wav", root / f"{utt}.tsv"
            write_wav(wav, audio)
            write_alignment_tsv(tsv, segments)
            rows.append({
                "audio_path": str(wav), "alignment_path": str(tsv),
                "speaker_id": speaker.speaker_id, "utterance_id": utt,
                "is_oral": not nasal, "aug_type": "none", "aug_param": "", "aug_seed": 0,
            })
    synthcorpus.write_manifest_tsv(root / "manifest.tsv", rows)
    return rows


def write_44k_copy(rows, root):
    """Rewrite 16 kHz rows at 44.1 kHz with scipy's polyphase resampler, which
    shares no code with the program's own resampler."""
    from scipy.signal import resample_poly

    root.mkdir(parents=True, exist_ok=True)
    out = []
    for row in rows:
        rate, samples = read_wav(row["audio_path"])
        assert rate == synthcorpus.FS
        up = resample_poly(samples, 441, 160)
        wav = root / f"{row['utterance_id']}.wav"
        write_wav(wav, AudioBuffer(np.clip(up, -1.0, 1.0), 44100))
        out.append({**row, "audio_path": str(wav)})
    synthcorpus.write_manifest_tsv(root / "manifest.tsv", out)
    return out


def write_ratings(path, speakers, seed):
    """Ratings CSV for the LOSO baseline: three seeded rater scores per speaker."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["speaker_id", "cohort", "rater_1", "rater_2", "rater_3"])
        for i, speaker in enumerate(speakers):
            level = rng.uniform(1.0, 4.0)
            scores = np.clip(level + rng.normal(0.0, 0.3, 3), 0.0, 5.0)
            writer.writerow([speaker, "cp" if i % 2 else "control",
                             *(f"{s:.3f}" for s in scores)])


def read_wav(path):
    """(sample rate, float samples) of a mono PCM16 WAV, read with the standard
    library so that the checks do not depend on the program's parser."""
    with wave.open(str(path)) as wf:
        rate, n = wf.getframerate(), wf.getnframes()
        raw = wf.readframes(n)
    return rate, np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def utterance_lengths(rows):
    """(speaker, utterance) -> is_oral, sample rate and sample count, the last
    two read from each WAV header."""
    info = {}
    for row in rows:
        with wave.open(str(row["audio_path"])) as wf:
            rate, n = wf.getframerate(), wf.getnframes()
        info[(row["speaker_id"], row["utterance_id"])] = {
            "is_oral": row["is_oral"], "rate": rate, "n_samples": n}
    return info
