import numpy as np
import pytest

from ohm.alignment import (
    AlignmentSegment,
    PhoneClass,
    label_frames,
    normalize_phone,
    parse_alignment,
    textgrid_to_segments,
    write_alignment_tsv,
)
from ohm.audio_io import AudioBuffer, write_wav
from ohm.errors import AlignmentParseError, AlignmentValidationError, ConfigError
from ohm.pipeline import _classify_pooled, build_nasality_dataset


def _seg(phone, start, end):
    return AlignmentSegment(phone, start, end)


def test_parse_basic(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("0.00\t0.12\tN\n0.12\t0.30\tAA1\n")
    segs = parse_alignment(path)
    assert [(s.phone, s.start_s, s.end_s) for s in segs] == [("N", 0.0, 0.12), ("AA1", 0.12, 0.30)]


def test_parse_empty(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("")
    assert parse_alignment(path) == []


def test_parse_overlap(tmp_path):
    path = tmp_path / "o.tsv"
    path.write_text("0.0\t0.1\tN\n0.05\t0.2\tAA\n")
    with pytest.raises(AlignmentValidationError):
        parse_alignment(path)


def test_parse_non_numeric(tmp_path):
    path = tmp_path / "n.tsv"
    path.write_text("zero\t0.1\tN\n")
    with pytest.raises(AlignmentParseError):
        parse_alignment(path)


def test_normalize_strips_stress():
    assert normalize_phone("AH0") == "AH"
    assert normalize_phone("iy1") == "IY"
    assert normalize_phone("NG") == "NG"


def test_vowels_around_nasal_become_nv():
    segs = [_seg("OW", 0.0, 0.1), _seg("N", 0.1, 0.2), _seg("IY", 0.2, 0.3)]
    classified = dict((s.phone, c) for s, c in _classify_pooled([segs], 1.0, 0)[0])
    assert classified == {"OW": PhoneClass.NV, "N": PhoneClass.NC, "IY": PhoneClass.NV}


def test_oral_context_stays_oral():
    segs = [_seg("AE", 0.0, 0.1), _seg("T", 0.1, 0.2)]
    classified = dict((s.phone, c) for s, c in _classify_pooled([segs], 1.0, 0)[0])
    assert classified == {"AE": PhoneClass.OV, "T": PhoneClass.OC}


def test_nv_fraction_zero():
    segs = [_seg("OW", 0.0, 0.1), _seg("N", 0.1, 0.2)]
    classes = [c for _, c in _classify_pooled([segs], 0.0, 0)[0]]
    assert PhoneClass.NV not in classes
    # the unselected nasal-adjacent vowel is excluded, not oral
    assert classes[0] is PhoneClass.EXCLUDED


def test_nv_fraction_out_of_range():
    with pytest.raises(ConfigError):
        _classify_pooled([[]], 1.5, 0)


def test_nv_count_matches_round():
    rng = np.random.default_rng(5)
    segs = []
    t = 0.0
    for _ in range(40):  # 40 (vowel, nasal) pairs -> 40 candidates
        segs.append(_seg("AA", t, t + 0.1))
        segs.append(_seg("M", t + 0.1, t + 0.2))
        t += 0.2
    classified = _classify_pooled([segs], 0.3, int(rng.integers(1 << 30)))[0]
    nv = sum(1 for _, c in classified if c is PhoneClass.NV)
    assert nv == round(0.3 * 40)


def test_classify_reproducible():
    segs = []
    t = 0.0
    for _ in range(20):
        segs.append(_seg("AA", t, t + 0.1))
        segs.append(_seg("N", t + 0.1, t + 0.2))
        t += 0.2
    a = _classify_pooled([segs], 0.5, 9)[0]
    b = _classify_pooled([segs], 0.5, 9)[0]
    assert [c for _, c in a] == [c for _, c in b]


def test_short_silence_keeps_adjacency():
    segs = [_seg("AA", 0.0, 0.1), _seg("sil", 0.1, 0.13), _seg("N", 0.13, 0.2)]
    classified = _classify_pooled([segs], 1.0, 0)[0]
    assert classified[0][1] is PhoneClass.NV


def test_long_silence_breaks_adjacency():
    segs = [_seg("AA", 0.0, 0.1), _seg("sil", 0.1, 0.2), _seg("N", 0.2, 0.3)]
    classified = _classify_pooled([segs], 1.0, 0)[0]
    assert classified[0][1] is PhoneClass.OV


def test_excluded_inventory():
    segs = [_seg("W", 0.0, 0.1), _seg("TH", 0.1, 0.2), _seg("sil", 0.2, 0.3)]
    classes = [c for _, c in _classify_pooled([segs], 0.3, 0)[0]]
    assert classes == [PhoneClass.EXCLUDED] * 3


def test_unknown_phone_warns():
    segs = [_seg("QQ", 0.0, 0.1)]
    with pytest.warns(UserWarning, match="QQ"):
        classes = [c for _, c in _classify_pooled([segs], 0.3, 0)[0]]
    assert classes == [PhoneClass.EXCLUDED]


def test_label_frames_containment_and_outside():
    classified = [(_seg("N", 0.0, 0.12), PhoneClass.NC)]
    labels = label_frames(classified, [0.05, 0.50])
    assert labels == [PhoneClass.NC, PhoneClass.EXCLUDED]


def test_label_frames_boundary_goes_to_later_segment():
    classified = [
        (_seg("N", 0.0, 0.1), PhoneClass.NC),
        (_seg("T", 0.1, 0.2), PhoneClass.OC),
    ]
    assert label_frames(classified, [0.1]) == [PhoneClass.OC]


def test_textgrid_roundtrip(tmp_path):
    tg = """File type = "ooTextFile"
Object class = "TextGrid"
xmin = 0
xmax = 0.5
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "phones"
        xmin = 0
        xmax = 0.5
        intervals: size = 2
        intervals [1]:
            xmin = 0.0
            xmax = 0.25
            text = "N"
        intervals [2]:
            xmin = 0.25
            xmax = 0.5
            text = "AA1"
"""
    path = tmp_path / "a.TextGrid"
    path.write_text(tg)
    segs = textgrid_to_segments(path)
    assert [(s.phone, s.start_s, s.end_s) for s in segs] == [("N", 0.0, 0.25), ("AA1", 0.25, 0.5)]

    tsv = tmp_path / "a.tsv"
    write_alignment_tsv(tsv, segs)
    again = parse_alignment(tsv)
    assert [(s.phone, s.start_s, s.end_s) for s in again] == [("N", 0.0, 0.25), ("AA1", 0.25, 0.5)]


def test_textgrid_missing_tier(tmp_path):
    path = tmp_path / "b.TextGrid"
    path.write_text('item [1]:\nclass = "IntervalTier"\nname = "words"\n')
    with pytest.raises(AlignmentParseError):
        textgrid_to_segments(path)


def test_pooled_sampling_matches_round_over_corpus():
    pairs = [[_seg("AA", 0.2 * k, 0.2 * k + 0.1), _seg("M", 0.2 * k + 0.1, 0.2 * k + 0.2)]
             for k in range(3)]
    utterances = [sum(pairs[:n], []) for n in (1, 2, 3)]  # 1 + 2 + 3 = 6 candidates
    classified = _classify_pooled(utterances, 0.5, 4)
    assert sum(c is PhoneClass.NV for utt in classified for _, c in utt) == 3


def test_training_dataset_warns_on_unknown_phone(tmp_path):
    wav, tsv = tmp_path / "u.wav", tmp_path / "u.tsv"
    write_wav(wav, AudioBuffer(0.1 * np.random.default_rng(0).standard_normal(8000), 16000))
    write_alignment_tsv(tsv, [_seg("N", 0.0, 0.1), _seg("AA", 0.1, 0.3), _seg("QQ", 0.3, 0.5)])
    row = {"audio_path": str(wav), "alignment_path": str(tsv), "utterance_id": "u"}
    with pytest.warns(UserWarning, match="QQ"):
        _, y = build_nasality_dataset([row], nv_fraction=1.0, seed=0)
    assert len(y) > 0
