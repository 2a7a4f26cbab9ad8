"""The objective hypernasality measure: frame log posterior ratios and their
aggregation to sentence and speaker level."""

from dataclasses import dataclass

import numpy as np

from . import audio_io, features, preprocess
from .errors import ConfigError, ModelCompatibilityError
from .nn import forward

DEFAULT_EPS = 1e-8


@dataclass(frozen=True)
class PosteriorFrame:
    """Four class posteriors for one frame: nasal/oral consonant, nasalized/oral vowel."""

    p_nc: float
    p_oc: float
    p_nv: float
    p_ov: float


@dataclass(frozen=True)
class OhmReport:
    frame_scores: np.ndarray
    sentence_score: float
    utterance_id: str = ""
    speaker_id: str = ""


def frame_ohm(posteriors, eps=DEFAULT_EPS):
    """max(ln(p_nc/p_oc), ln(p_nv/p_ov)) with posteriors clamped at eps.

    Accepts a PosteriorFrame, a length-4 vector, or an (N, 4) matrix in
    NC/OC/NV/OV order. Clamping keeps the score finite for any input in
    [0, 1]^4.
    """
    if isinstance(posteriors, PosteriorFrame):
        p = np.array([posteriors.p_nc, posteriors.p_oc, posteriors.p_nv, posteriors.p_ov])
    else:
        p = np.asarray(posteriors, dtype=np.float64)
    if eps <= 0:
        raise ConfigError("eps must be positive")
    p = np.maximum(p, eps)
    if p.ndim == 1:
        return float(max(np.log(p[0] / p[1]), np.log(p[2] / p[3])))
    return np.maximum(np.log(p[:, 0] / p[:, 1]), np.log(p[:, 2] / p[:, 3]))


def aggregate_mean(scores):
    """Arithmetic mean; used both frame->sentence and sentence->speaker."""
    scores = list(scores)
    if not scores:
        raise ConfigError("cannot aggregate an empty score list")
    return float(np.mean(scores))


def score_utterance(
    audio,
    model,
    preprocess_cfg=None,
    mfcc_cfg=None,
    eps=DEFAULT_EPS,
    utterance_id="",
    speaker_id="",
):
    """Full scoring pipeline for one utterance.

    Optional pitch/tempo modification, resample to 16 kHz, frame, MFCC-39,
    posteriors from the 4-class nasality model, frame scores, sentence mean.
    """
    if mfcc_cfg is None:
        mfcc_cfg = features.MfccConfig()
    if model.feature_config_hash != mfcc_cfg.hash32():
        raise ModelCompatibilityError(
            f"model was trained with feature config hash {model.feature_config_hash:#010x}, "
            f"requested config hashes to {mfcc_cfg.hash32():#010x}"
        )
    if model.output_activation != "softmax" or model.layer_sizes[-1] != 4:
        raise ConfigError("score_utterance requires a 4-class softmax nasality model")

    if preprocess_cfg is not None and preprocess_cfg.enabled:
        audio = preprocess.modify_pitch_tempo(audio, preprocess_cfg)
    audio = audio_io.resample(audio, audio_io.DEFAULT_SAMPLE_RATE)
    frames = audio_io.frame_signal(audio)
    feats = features.extract_features(frames, mfcc_cfg)
    posteriors = forward(model, feats.vectors)
    frame_scores = frame_ohm(posteriors, eps=eps)
    return OhmReport(
        frame_scores=frame_scores,
        sentence_score=aggregate_mean(frame_scores),
        utterance_id=utterance_id,
        speaker_id=speaker_id,
    )
