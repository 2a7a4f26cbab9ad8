"""Shared extraction and training plumbing used by the CLI, the regressor
baseline, and the end-to-end tests."""

import warnings

import numpy as np

from . import alignment, audio_io, augment, features, nn
from .errors import ConfigError, ManifestError


def extract_row_features(row, mfcc_cfg=None, noise_sources=None):
    """Load one manifest row's audio, realize its augmentation variant, and
    return its FeatureSequence (n_frames x 39) from features.from_audio.

    VTLP variants are realized in the feature domain via a warped filterbank;
    all other variants are waveform-domain.
    """
    if mfcc_cfg is None:
        mfcc_cfg = features.MfccConfig()
    audio = audio_io.load_wav(row["audio_path"])
    aug_type = row.get("aug_type", "none")
    audio = augment.apply_augmentation(
        audio, aug_type, row.get("aug_param", ""), row.get("aug_seed", 0), noise_sources
    )
    filterbank = None
    if aug_type == "vtlp":
        filterbank = augment.vtlp_filterbank(
            mfcc_cfg, audio_io.DEFAULT_SAMPLE_RATE, float(row["aug_param"])
        )
    return features.from_audio(audio, mfcc_cfg, filterbank)


def build_nasality_dataset(rows, mfcc_cfg=None, nv_fraction=0.3, seed=42):
    """Aligned manifest rows -> (X, y) frame dataset for the 4-class model.

    Nasalized-vowel sampling is done per-corpus: vowel candidates from every
    utterance are pooled before the seeded fraction is drawn. Alignments are
    read and classed before any audio is processed.
    """
    for row in rows:
        if not row.get("alignment_path"):
            raise ManifestError(f"row {row['utterance_id']}: alignment_path required for training")
    segment_lists = [alignment.parse_alignment(row["alignment_path"]) for row in rows]
    classified = _classify_pooled(segment_lists, nv_fraction, seed)
    matrices, labels = [], []
    for row, utt_classes in zip(rows, classified):
        feats = extract_row_features(row, mfcc_cfg)
        matrices.append(feats.vectors)
        labels.append(alignment.label_frames(utt_classes, feats.frame_times_s))
    return nn.build_classification_dataset(matrices, labels)


def _classify_pooled(segment_lists, nv_fraction, seed):
    """Assign each segment of each utterance one of NC/OC/NV/OV/Excluded.

    Among vowels adjacent to a nasal consonant, a seeded uniformly random
    nv_fraction become NV; the unselected remainder are Excluded (they are
    neither clean oral vowels nor certainly nasalized enough to train on).
    Sampling is over the candidates pooled from every utterance, so the NV
    count is exactly round(nv_fraction * M) corpus-wide; a single utterance
    is the one-list case. Unknown phone labels are Excluded with a warning.
    """
    if not 0.0 <= nv_fraction <= 1.0:
        raise ConfigError(f"nv_fraction must be in [0, 1], got {nv_fraction}")
    base = [
        [(seg, alignment._base_class(seg.phone)) for seg in segs] for segs in segment_lists
    ]
    unknown = {
        alignment.normalize_phone(seg.phone)
        for utt in base
        for seg, cls in utt
        if cls is alignment.PhoneClass.EXCLUDED
    } - alignment.KNOWN_EXCLUDED - alignment.SILENCE_LABELS
    if unknown:
        warnings.warn(f"unknown phone labels treated as Excluded: {sorted(unknown)}")
    candidates = [
        (u, i)
        for u, segs in enumerate(segment_lists)
        for i, (_, cls) in enumerate(base[u])
        if cls is alignment.PhoneClass.OV and alignment._nasal_adjacent(segs, i)
    ]
    rng = np.random.default_rng(seed)
    n_select = int(round(nv_fraction * len(candidates)))
    chosen = set(np.asarray(rng.permutation(len(candidates))[:n_select]).tolist())
    for rank, (u, i) in enumerate(candidates):
        seg, _ = base[u][i]
        new = alignment.PhoneClass.NV if rank in chosen else alignment.PhoneClass.EXCLUDED
        base[u][i] = (seg, new)
    return base


def train_nasality_model(rows, train_cfg=None, mfcc_cfg=None, nv_fraction=0.3, log_fn=None):
    """Train the 4-class nasality model from an aligned manifest."""
    if train_cfg is None:
        train_cfg = nn.TrainConfig()
    if mfcc_cfg is None:
        mfcc_cfg = features.MfccConfig()
    x, y = build_nasality_dataset(rows, mfcc_cfg, nv_fraction=nv_fraction, seed=train_cfg.seed)
    return nn.train(
        x,
        y,
        nn.NASALITY_LAYERS,
        train_cfg,
        feature_config_hash=mfcc_cfg.hash32(),
        log_fn=log_fn,
    )
