"""Evaluation statistics: Pearson correlation with significance, Welch's
t-test, rater-agreement summaries, and split-half reliability."""

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.stats import t as student_t

from .errors import ConfigError, DegenerateInputError, ManifestError


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
    p = 2.0 * float(student_t.sf(abs(t_stat), n - 2))
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
    p = 2.0 * float(student_t.sf(abs(t_stat), dof))
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
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        if reader.fieldnames is None:
            raise ManifestError(f"{path}: empty ratings file")
        rater_cols = sorted(
            (c for c in reader.fieldnames if c.startswith("rater_")),
            key=lambda c: int(c.split("_", 1)[1]),
        )
        if not rater_cols:
            raise ManifestError(f"{path}: no rater_N columns found")
        for row in reader:
            raters = tuple(
                float(row[c]) if row.get(c, "").strip() else math.nan for c in rater_cols
            )
            def _opt(col):
                value = row.get(col, "").strip()
                return float(value) if value else None

            records.append(
                RatingRecord(
                    speaker_id=row["speaker_id"].strip(),
                    rater_scores=raters,
                    cohort=row.get("cohort", "").strip(),
                    pct_active_errors=_opt("pct_active_errors"),
                    pct_passive_errors=_opt("pct_passive_errors"),
                )
            )
    return records
