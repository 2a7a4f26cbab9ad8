"""Evaluation statistics: Pearson correlation with significance, Welch's
t-test, rater-agreement summaries, split-half reliability, and the tables
that `ohm evaluate` writes."""

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import stdtr

from .errors import ConfigError, DegenerateInputError, ManifestError
from .manifest import parse_number, read_table


@dataclass(frozen=True)
class RatingRecord:
    """Per-speaker perceptual ratings; NaN marks a missing rater cell."""

    speaker_id: str
    rater_scores: tuple
    cohort: str = ""
    pct_active_errors: float | None = None
    pct_passive_errors: float | None = None

    @property
    def ground_truth(self):
        """Mean over available rater scores."""
        return float(np.nanmean(np.asarray(self.rater_scores, dtype=np.float64)))


def pearson_r(x, y):
    """Sample Pearson correlation and its two-sided p-value.

    Significance from t = r * sqrt((n-2) / (1-r^2)) against Student's t with
    n-2 degrees of freedom.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ConfigError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ConfigError(f"need at least 3 points, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        raise DegenerateInputError("zero variance in at least one input")
    r = float(dx @ dy) / denom
    if abs(r) >= 1.0:
        return (1.0 if r > 0 else -1.0), 0.0
    t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t_stat)))
    return r, p


def welch_t(a, b):
    """Welch's unequal-variance t statistic, two-sided p, and its dof."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ConfigError("each group needs at least 2 observations")
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    sa, sb = va / len(a), vb / len(b)
    if sa + sb == 0.0:
        raise DegenerateInputError("both groups have zero within-group variance")
    t_stat = (float(a.mean()) - float(b.mean())) / math.sqrt(sa + sb)
    dof = (sa + sb) ** 2 / (sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1))
    p = 2.0 * float(stdtr(dof, -abs(t_stat)))
    return t_stat, p, dof


def _rater_matrix(records):
    widths = {len(r.rater_scores) for r in records}
    if len(widths) != 1:
        raise ManifestError("records disagree on the number of raters")
    return np.array([r.rater_scores for r in records], dtype=np.float64)


def rater_stats(records, ohm_scores):
    """Agreement summaries against a per-speaker score vector.

    Returns ((inter_rater_mean, inter_rater_std), (score_rater_mean,
    score_rater_std)). Pairs with a constant column, and pairs left with
    fewer than 3 speakers after dropping missing cells, are skipped with a
    warning. The std is over the correlation values themselves (population).
    """
    if len(records) < 3:
        raise ConfigError("need at least 3 speakers")
    matrix = _rater_matrix(records)
    n_raters = matrix.shape[1]
    if n_raters < 2:
        raise ConfigError("need at least 2 raters")
    scores = np.asarray(ohm_scores, dtype=np.float64)
    if len(scores) != len(records):
        raise ManifestError("score vector length does not match the record count")

    def _corr(u, v, label):
        mask = np.isfinite(u) & np.isfinite(v)
        if mask.sum() < 3:
            warnings.warn(f"{label}: fewer than 3 complete speakers, skipped")
            return None
        try:
            return pearson_r(u[mask], v[mask])[0]
        except DegenerateInputError:
            warnings.warn(f"{label}: constant ratings, skipped")
            return None

    inter = [
        r
        for i, j in combinations(range(n_raters), 2)
        if (r := _corr(matrix[:, i], matrix[:, j], f"rater pair ({i}, {j})")) is not None
    ]
    vs_score = [
        r
        for i in range(n_raters)
        if (r := _corr(matrix[:, i], scores, f"rater {i} vs score")) is not None
    ]
    if not inter or not vs_score:
        raise DegenerateInputError("no usable rater pairs")
    return (
        (float(np.mean(inter)), float(np.std(inter))),
        (float(np.mean(vs_score)), float(np.std(vs_score))),
    )


def split_half(scores_set1, scores_set2):
    """Pearson r between two per-speaker score dicts covering the same speakers."""
    if set(scores_set1) != set(scores_set2):
        raise ManifestError(
            "speaker sets differ: "
            f"{sorted(set(scores_set1) ^ set(scores_set2))} not shared"
        )
    speakers = sorted(scores_set1)
    a = [scores_set1[s] for s in speakers]
    b = [scores_set2[s] for s in speakers]
    return pearson_r(a, b)[0]


def load_ratings_csv(path):
    """Read a ratings CSV: speaker_id, cohort, rater_1..rater_K, and optional
    pct_active_errors / pct_passive_errors columns. Empty rater cells are NaN."""
    columns, table = read_table(path)
    if "speaker_id" not in columns:
        raise ManifestError(f"{path}: missing column speaker_id")
    rater_cols = sorted(
        (c for c in columns if c.startswith("rater_")),
        key=lambda c: int(c.split("_", 1)[1]),
    )
    if not rater_cols:
        raise ManifestError(f"{path}: no rater_N columns found")
    records = []
    for lineno, row in table:
        where = f"{path}:{lineno}"
        records.append(
            RatingRecord(
                speaker_id=row["speaker_id"].strip(),
                rater_scores=tuple(_number_or(row, c, where, math.nan) for c in rater_cols),
                cohort=(row.get("cohort") or "").strip(),
                pct_active_errors=_number_or(row, "pct_active_errors", where, None),
                pct_passive_errors=_number_or(row, "pct_passive_errors", where, None),
            )
        )
    return records


def _number_or(row, column, where, empty):
    """A ratings cell as a float, or `empty` when the cell is blank or absent."""
    value = (row.get(column) or "").strip()
    return parse_number(value, float, where, column) if value else empty


def evaluate(score_rows, records):
    """Sentence OHM scores against perceptual ratings.

    score_rows are dicts with speaker_id, utterance_id and sentence_ohm;
    records are RatingRecords. Returns (overall_r, overall_p, tables): the
    Pearson correlation of speaker mean OHM with the rater mean, and six
    (name, columns, rows, note) tables: per_sentence, speaker_summary,
    rater_agreement, split_half, ttest and error_robustness. Rows hold the
    cells as written to CSV; a non-empty note extends the file's header.
    """
    by_record = {r.speaker_id: r for r in records}
    speakers = sorted({r["speaker_id"] for r in score_rows})
    missing = [s for s in speakers if s not in by_record]
    if missing:
        raise ManifestError(f"scored speakers missing from ratings: {missing}")
    truth = {s: by_record[s].ground_truth for s in speakers}
    per_speaker = {s: [r for r in score_rows if r["speaker_id"] == s] for s in speakers}
    speaker_ohm = {
        s: float(np.mean([r["sentence_ohm"] for r in rows])) for s, rows in per_speaker.items()
    }
    ohm_vec = [speaker_ohm[s] for s in speakers]
    overall_r, overall_p = pearson_r(ohm_vec, [truth[s] for s in speakers])

    # per-sentence correlations across speakers
    sentence_rows = []
    for utt in sorted({r["utterance_id"] for r in score_rows}):
        rows = [r for r in score_rows if r["utterance_id"] == utt]
        if len(rows) >= 3:
            r_val, p_val = pearson_r(
                [r["sentence_ohm"] for r in rows], [truth[r["speaker_id"]] for r in rows]
            )
            sentence_rows.append((utt, len(rows), f"{r_val:.6f}", f"{p_val:.6g}"))

    (inter_m, inter_s), (vs_m, vs_s) = rater_stats([by_record[s] for s in speakers], ohm_vec)

    # split-half reliability: first half of each speaker's sentences vs the rest
    set1, set2 = {}, {}
    for s in speakers:
        utts = sorted(per_speaker[s], key=lambda r: r["utterance_id"])
        half = len(utts) // 2
        if half:
            set1[s] = float(np.mean([r["sentence_ohm"] for r in utts[:half]]))
            set2[s] = float(np.mean([r["sentence_ohm"] for r in utts[half:]]))
    split_rows = []
    if len(set1) >= 3:
        split_rows.append(("split_half_r", f"{split_half(set1, set2):.6f}"))

    # control vs CP group comparison
    control = [speaker_ohm[s] for s in speakers if by_record[s].cohort == "control"]
    cp = [speaker_ohm[s] for s in speakers if by_record[s].cohort == "cp"]
    ttest_rows = []
    if len(control) >= 2 and len(cp) >= 2:
        t_stat, p_val, dof = welch_t(control, cp)
        ttest_rows.append(
            ("control_vs_cp", f"{t_stat:.6f}", f"{p_val:.6g}", f"{dof:.3f}",
             len(control), len(cp))
        )

    # robustness to articulation errors
    err_rows = []
    for attr in ("pct_active_errors", "pct_passive_errors"):
        pairs = [
            (speaker_ohm[s], getattr(by_record[s], attr))
            for s in speakers
            if getattr(by_record[s], attr) is not None
        ]
        if len(pairs) >= 3:
            r_val, p_val = pearson_r([p[0] for p in pairs], [p[1] for p in pairs])
            err_rows.append((f"ohm_vs_{attr}", f"{r_val:.6f}", f"{p_val:.6g}", len(pairs)))

    return overall_r, overall_p, [
        ("per_sentence", ("utterance_id", "n_speakers", "r", "p"), sentence_rows, ""),
        (
            "speaker_summary",
            ("speaker_id", "speaker_ohm", "ground_truth"),
            [(s, f"{speaker_ohm[s]:.10f}", f"{truth[s]:.6f}") for s in speakers],
            f"overall_r={overall_r:.6f} overall_p={overall_p:.6g}",
        ),
        (
            "rater_agreement",
            ("statistic", "mean", "std"),
            [
                ("inter_rater_correlation", f"{inter_m:.6f}", f"{inter_s:.6f}"),
                ("ohm_rater_correlation", f"{vs_m:.6f}", f"{vs_s:.6f}"),
            ],
            "",
        ),
        ("split_half", ("statistic", "value"), split_rows, ""),
        ("ttest", ("comparison", "t", "p", "dof", "n_a", "n_b"), ttest_rows, ""),
        ("error_robustness", ("comparison", "r", "p", "n"), err_rows, ""),
    ]
