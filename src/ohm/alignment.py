"""Forced-alignment parsing and phone-to-class mapping.

Alignment input is a 3-column TSV per utterance (start_s, end_s, phone).
A converter from Praat TextGrid "phones" interval tiers is provided.
"""

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlignmentParseError, AlignmentValidationError, open_input


class PhoneClass(Enum):
    NC = "NC"  # nasal consonant
    OC = "OC"  # oral consonant
    NV = "NV"  # nasalized vowel
    OV = "OV"  # oral vowel
    EXCLUDED = "Excluded"


NASAL_CONSONANTS = frozenset({"M", "N", "NG"})
ORAL_CONSONANTS = frozenset(
    {
        "B", "D", "G", "P", "T", "K",          # plosives
        "Z", "ZH", "V", "S", "SH", "F", "HH",  # fricatives
        "JH", "CH",                            # affricates
        "L", "R",                              # liquids
    }
)
VOWELS = frozenset(
    {
        "AA", "AE", "AH", "AO", "AW", "AX", "AY",
        "EH", "ER", "EY", "IH", "IX", "IY",
        "OW", "OY", "UH", "UW",
    }
)
SILENCE_LABELS = frozenset({"", "SIL", "SP", "SPN", "<EPS>", "PAU"})

# Deliberately excluded from training (outside the four-class inventory).
KNOWN_EXCLUDED = frozenset({"W", "Y", "TH", "DH"})

# A pause at least this long breaks nasal-vowel adjacency.
ADJACENCY_SILENCE_BREAK_S = 0.050


@dataclass(frozen=True)
class AlignmentSegment:
    phone: str
    start_s: float
    end_s: float

    def __post_init__(self):
        if not (0.0 <= self.start_s < self.end_s):
            raise AlignmentValidationError(
                f"segment {self.phone!r}: invalid times [{self.start_s}, {self.end_s}]"
            )

    def contains(self, t):
        """Half-open containment [start, end)."""
        return self.start_s <= t < self.end_s


def normalize_phone(label):
    """Uppercase and strip trailing stress digits (AH0 -> AH)."""
    return label.strip().upper().rstrip("012")


def is_silence(label):
    return normalize_phone(label) in SILENCE_LABELS


def parse_alignment(path):
    """Parse a start/end/phone TSV into a sorted, validated segment list."""
    segments = []
    with open_input(path, AlignmentParseError, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise AlignmentParseError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                start, end = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise AlignmentParseError(f"{path}:{lineno}: non-numeric time") from exc
            segments.append(AlignmentSegment(parts[2].strip(), start, end))
    segments.sort(key=lambda s: s.start_s)
    for prev, cur in zip(segments, segments[1:]):
        if cur.start_s < prev.end_s - 1e-9:
            raise AlignmentValidationError(
                f"{path}: segments {prev.phone!r} and {cur.phone!r} overlap "
                f"([{prev.start_s}, {prev.end_s}] vs [{cur.start_s}, {cur.end_s}])"
            )
    return segments


def _base_class(phone):
    """Class before nasal-adjacency is applied; vowels come back as OV candidates."""
    p = normalize_phone(phone)
    if p in NASAL_CONSONANTS:
        return PhoneClass.NC
    if p in ORAL_CONSONANTS:
        return PhoneClass.OC
    if p in VOWELS:
        return PhoneClass.OV
    return PhoneClass.EXCLUDED


def _nasal_adjacent(segments, i):
    """True if the vowel at index i has an NC neighbor, ignoring short pauses."""
    for step in (-1, 1):
        j = i + step
        while 0 <= j < len(segments):
            seg = segments[j]
            if is_silence(seg.phone):
                if seg.end_s - seg.start_s >= ADJACENCY_SILENCE_BREAK_S:
                    break
                j += step
                continue
            if normalize_phone(seg.phone) in NASAL_CONSONANTS:
                return True
            break
    return False


def label_frames(classified, frame_times_s):
    """Class label per frame: the class of the segment containing the frame center.

    Frames whose center lies in no segment are Excluded. Boundaries are
    half-open, so a center exactly at one segment's end belongs to the next.
    """
    labels = [PhoneClass.EXCLUDED] * len(frame_times_s)
    if not classified:
        return labels
    starts = np.array([seg.start_s for seg, _ in classified])
    for i, t in enumerate(frame_times_s):
        j = int(np.searchsorted(starts, t, side="right")) - 1
        if j >= 0 and classified[j][0].contains(t):
            labels[i] = classified[j][1]
    return labels


_TG_FLOAT = r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"


def textgrid_to_segments(path, tier_name="phones"):
    """Extract (start, end, label) intervals from a Praat TextGrid interval tier."""
    with open_input(path, AlignmentParseError, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    tiers = re.split(r'item\s*\[\d+\]\s*:', text)
    for tier in tiers[1:]:
        name_m = re.search(r'name\s*=\s*"([^"]*)"', tier)
        class_m = re.search(r'class\s*=\s*"([^"]*)"', tier)
        if not name_m or not class_m:
            continue
        if class_m.group(1) != "IntervalTier" or name_m.group(1) != tier_name:
            continue
        segments = []
        pattern = re.compile(
            r'xmin\s*=\s*({f})\s*xmax\s*=\s*({f})\s*text\s*=\s*"([^"]*)"'.format(f=_TG_FLOAT)
        )
        for m in pattern.finditer(tier):
            start, end, label = float(m.group(1)), float(m.group(2)), m.group(3).strip()
            if end > start:
                segments.append(AlignmentSegment(label, start, end))
        return segments
    raise AlignmentParseError(f"{path}: no IntervalTier named {tier_name!r}")


def write_alignment_tsv(path, segments):
    with open(path, "w", encoding="utf-8") as fh:
        for seg in segments:
            fh.write(f"{seg.start_s:.6f}\t{seg.end_s:.6f}\t{seg.phone}\n")
