import math

import numpy as np
import pytest

from ohm.audio_io import AudioBuffer
from ohm.errors import ConfigError, EmptyInputError, ModelCompatibilityError
from ohm.features import MfccConfig
from ohm.nn import init_model
from ohm.scoring import aggregate_mean, frame_ohm, score_utterance


def test_uniform_posteriors_zero():
    assert frame_ohm([0.25] * 4) == 0.0


def test_dominant_nasal_consonant():
    assert abs(frame_ohm((0.7, 0.1, 0.1, 0.1)) - math.log(7.0)) < 1e-12


def test_vowel_ratio_drives_score():
    # equal consonant posteriors, nasal vowel twice the oral one
    assert abs(frame_ohm((0.2, 0.2, 0.4, 0.2)) - math.log(2.0)) < 1e-12


def test_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = rng.uniform(1e-6, 1.0, size=4)
        scaled = p * rng.uniform(0.1, 10.0)
        assert abs(frame_ohm(p) - frame_ohm(scaled)) < 1e-9


def test_swap_antisymmetry():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p_nc, p_oc, p_nv, p_ov = rng.uniform(1e-6, 1.0, size=4)
        original_terms = (math.log(p_nc / p_oc), math.log(p_nv / p_ov))
        swapped = frame_ohm((p_oc, p_nc, p_ov, p_nv))
        assert abs(swapped - (-min(original_terms))) < 1e-9


def test_finite_on_unit_cube_corners():
    for p in ([0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 1], [1, 1, 1, 1]):
        assert math.isfinite(frame_ohm(p))


def test_eps_validation():
    with pytest.raises(ConfigError):
        frame_ohm((0.25, 0.25, 0.25, 0.25), eps=0.0)


def test_aggregate_mean():
    assert aggregate_mean([3.25]) == 3.25
    assert aggregate_mean([0.0, 2.0]) == 1.0
    with pytest.raises(ConfigError):
        aggregate_mean([])


def test_matrix_input():
    scores = frame_ohm(np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]]))
    np.testing.assert_allclose(scores, [0.0, math.log(7.0)], atol=1e-12)


def _nasality_model(cfg, zero=False):
    model = init_model([39, 16, 4], "softmax", seed=0, feature_config_hash=cfg.hash32())
    if zero:
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
    return model


def test_zero_model_scores_zero():
    cfg = MfccConfig()
    model = _nasality_model(cfg, zero=True)
    audio = AudioBuffer(np.random.default_rng(0).standard_normal(8000) * 0.1, 16000)
    report = score_utterance(audio, model, None, cfg, speaker_id="s", utterance_id="u")
    np.testing.assert_array_equal(report.frame_scores, 0.0)
    assert report.sentence_score == 0.0
    assert report.speaker_id == "s"


def test_scoring_deterministic():
    cfg = MfccConfig()
    model = _nasality_model(cfg)
    audio = AudioBuffer(np.random.default_rng(1).standard_normal(16000) * 0.1, 16000)
    a = score_utterance(audio, model, None, cfg)
    b = score_utterance(audio, model, None, cfg)
    np.testing.assert_array_equal(a.frame_scores, b.frame_scores)
    assert a.sentence_score == b.sentence_score


def test_config_hash_mismatch():
    cfg = MfccConfig()
    model = init_model([39, 16, 4], "softmax", seed=0, feature_config_hash=12345)
    audio = AudioBuffer(np.zeros(8000), 16000)
    with pytest.raises(ModelCompatibilityError):
        score_utterance(audio, model, None, cfg)


def test_audio_too_short():
    cfg = MfccConfig()
    model = _nasality_model(cfg)
    with pytest.raises(EmptyInputError):
        score_utterance(AudioBuffer(np.zeros(100), 16000), model, None, cfg)


def test_regressor_model_rejected():
    cfg = MfccConfig()
    model = init_model([39, 16, 1], "linear", seed=0, feature_config_hash=cfg.hash32())
    with pytest.raises(ConfigError):
        score_utterance(AudioBuffer(np.zeros(8000), 16000), model, None, cfg)
