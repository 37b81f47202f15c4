"""AUROC, bootstrap confidence intervals, and the traditional fairness score.

AUROC is the Mann-Whitney pair statistic: the fraction of (positive, negative)
score pairs ranked correctly, ties counted half. The fast path uses a rank-sum
in O(n log n); it agrees exactly with exhaustive pair counting.

The traditional group-fairness score is 1 minus the largest AUROC disparity
across included subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

from .cohort import InclusionPolicy, PredictionSet
from .seeding import substream


@dataclass(frozen=True)
class BootstrapConfig:
    """Percentile-bootstrap settings; defaults follow the evaluation protocol."""

    n_resamples: int = 300
    confidence_level: float = 0.95
    seed: int = 0
    method: str = "percentile"

    def __post_init__(self) -> None:
        if self.n_resamples < 1:
            raise ValueError("n_resamples must be >= 1")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError("confidence_level must be in (0, 1)")
        if self.method != "percentile":
            raise ValueError(f"unsupported bootstrap method {self.method!r}")


@dataclass(frozen=True)
class SubgroupPerformance:
    group_id: str
    n_pos: int
    n_neg: int
    included: bool
    auroc: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    low_confidence: bool = False


@dataclass(frozen=True)
class FairnessSummary:
    """Per-finding roll-up: overall AUROC plus the subgroup fairness picture.

    fairness_score is None (not fabricated) when fewer than two subgroups are
    included for this finding.
    """

    finding_id: str
    overall_auroc: float
    per_group: tuple[SubgroupPerformance, ...]
    fairness_score: float | None
    worst_group: str | None


def auroc(scores_pos: Sequence[float], scores_neg: Sequence[float]) -> float:
    """Probability a random positive outscores a random negative, ties half.

    Exactly equals exhaustive pair counting: the rank-sum numerator is an
    exact half-integer for any input, so no tolerance is needed.
    """
    pos = np.asarray(scores_pos, dtype=np.float64)
    neg = np.asarray(scores_neg, dtype=np.float64)
    if pos.size == 0:
        raise ValueError("undefined AUROC: no positive scores")
    if neg.size == 0:
        raise ValueError("undefined AUROC: no negative scores")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise ValueError("undefined AUROC: non-finite score")
    ranks = rankdata(np.concatenate([pos, neg]))
    n_pos, n_neg = pos.size, neg.size
    u = ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def bootstrap_auroc_ci(
    scores_pos: np.ndarray,
    scores_neg: np.ndarray,
    boot: BootstrapConfig,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Percentile CI from label-stratified resamples.

    Positives and negatives are resampled separately with replacement,
    preserving their counts, so no resample is degenerate.
    """
    n_pos, n_neg = len(scores_pos), len(scores_neg)
    stats = np.empty(boot.n_resamples)
    for i in range(boot.n_resamples):
        p = scores_pos[rng.integers(0, n_pos, n_pos)]
        n = scores_neg[rng.integers(0, n_neg, n_neg)]
        stats[i] = auroc(p, n)
    alpha = 1.0 - boot.confidence_level
    low, high = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return max(0.0, float(low)), min(1.0, float(high))


def group_performance(
    pset: PredictionSet,
    finding: str,
    policy: InclusionPolicy = InclusionPolicy(),
    boot: BootstrapConfig | None = BootstrapConfig(),
) -> list[SubgroupPerformance]:
    """Per-subgroup AUROC with bootstrap CIs, flagged by the inclusion policy.

    CIs are only computed for included groups, and for none when boot is
    None. If the point estimate falls outside the percentile interval
    (possible at tiny n), the interval is widened to cover it and the group
    flagged low_confidence.
    """
    out: list[SubgroupPerformance] = []
    for cell in pset.cells(finding):
        pos, neg = pset.score[cell.pos], pset.score[cell.neg]
        n_pos, n_neg = len(pos), len(neg)
        included = policy.admits(n_pos, n_neg)
        point = auroc(pos, neg) if n_pos and n_neg else None
        if not included or boot is None:
            out.append(SubgroupPerformance(cell.group_id, n_pos, n_neg, included, point))
            continue
        rng = substream(boot.seed, "bootstrap", pset.model_id, finding, cell.group_id)
        low, high = bootstrap_auroc_ci(pos, neg, boot, rng)
        low_confidence = False
        if point < low:
            low, low_confidence = point, True
        if point > high:
            high, low_confidence = point, True
        out.append(
            SubgroupPerformance(cell.group_id, n_pos, n_neg, True, point, low, high, low_confidence)
        )
    return out


def overall_auroc(pset: PredictionSet, finding: str) -> float:
    """Pooled AUROC over all records of a finding, regardless of inclusion."""
    cell = pset.pooled(finding)
    return auroc(pset.score[cell.pos], pset.score[cell.neg])


def summarize(
    pset: PredictionSet,
    finding: str,
    policy: InclusionPolicy = InclusionPolicy(),
    boot: BootstrapConfig | None = BootstrapConfig(),
) -> FairnessSummary:
    """Overall AUROC plus fairness over included subgroups for one finding.

    With boot=None no subgroup gets a CI; every other field is unchanged.
    """
    per_group = tuple(group_performance(pset, finding, policy, boot))
    evaluable = [g for g in per_group if g.included]
    fairness_score: float | None = None
    worst_group: str | None = None
    if len(evaluable) >= 2:
        aurocs = [g.auroc for g in evaluable]
        fairness_score = 1.0 - (max(aurocs) - min(aurocs))
        worst_group = min(evaluable, key=lambda g: (g.auroc, g.group_id)).group_id
    return FairnessSummary(
        finding_id=finding,
        overall_auroc=overall_auroc(pset, finding),
        per_group=per_group,
        fairness_score=fairness_score,
        worst_group=worst_group,
    )


def macro_average(summaries: Sequence[FairnessSummary]) -> float:
    """Unweighted mean of overall AUROC across findings."""
    if not summaries:
        raise ValueError("macro_average of empty summary list")
    return float(sum(s.overall_auroc for s in summaries) / len(summaries))


__all__ = [
    "BootstrapConfig",
    "SubgroupPerformance",
    "FairnessSummary",
    "auroc",
    "bootstrap_auroc_ci",
    "group_performance",
    "overall_auroc",
    "summarize",
    "macro_average",
]
