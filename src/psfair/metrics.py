"""AUROC, bootstrap confidence intervals, and the traditional fairness score.

AUROC is the Mann-Whitney pair statistic: the fraction of (positive, negative)
score pairs ranked correctly, ties counted half. It is counted, not ranked:
a cell's negatives are sorted once and every positive is bracketed among them,
so the point estimate and each bootstrap resample reduce to integer counts
read off a prefix sum of negatives per level, one flattened prefix sum per
block of resamples. A bootstrap call allocates its index scratch once, sized
to one block, and every block and model writes into it. ``2U`` (twice the
number of correct pairs, ties once) is exact, so every AUROC agrees bit for
bit with exhaustive pair counting.
``_FindingPass`` scores a finding for audit and compare alike: it buckets
the finding into cells, brackets each cell once per model, and draws every
resample, of audit and of paired delta CIs, on streams whose keys it owns.

The traditional group-fairness score is 1 minus the largest AUROC disparity
across included subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Real
from typing import Sequence

import numpy as np

from .cohort import CohortError, InclusionPolicy, PredictionSet, _check_types
from .seeding import check_seed, substream


@dataclass(frozen=True)
class BootstrapConfig:
    """Percentile-bootstrap settings; defaults follow the evaluation protocol."""

    n_resamples: int = 300
    confidence_level: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        _check_types(self, n_resamples=int, confidence_level=Real)
        check_seed(self.seed)
        if self.n_resamples < 1:
            raise ValueError("n_resamples must be >= 1")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError("confidence_level must be in (0, 1)")

    def interval(self, stats: np.ndarray) -> tuple:
        """Percentile interval at this confidence level: two floats, or two lists for 2-D stats.

        ``np.quantile``'s default linear rule, written out bit for bit, since
        ``np.quantile`` loads ``numpy.ma`` (through ``np.unique``) on first use.
        """
        alpha = 1.0 - self.confidence_level
        stats, last = np.sort(stats, axis=-1), stats.shape[-1] - 1
        ends = []
        for index in (last * (alpha / 2.0), last * (1.0 - alpha / 2.0)):
            if index >= last:
                ends.append(stats[..., last])
            else:
                below = int(index)
                t, a, b = index - below, stats[..., below], stats[..., below + 1]
                ends.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
        return tuple(np.stack(ends).tolist())


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


# Most draw indices one block of a cell's resamples holds; the kernel's flat
# prefix sum (``count * (n_levels + 1)`` slots) and every other temporary are
# small multiples of it. A resample larger than this gets a block of its own.
# ``_resample`` sizes its scratch to one block, once per call, so the blocks
# reuse one set of buffers instead of each allocating and freeing its own.
_BLOCK_ELEMS = 1 << 15


class _Brackets:
    """One cell's scores under one model, prepared for exact pair counting.

    The negatives are sorted once into distinct levels. Each positive is
    bracketed by ``searchsorted``: ``lo`` levels lie strictly below it and
    ``hi`` levels at or below it, so ``hi - lo`` is 1 on a tie and 0 otherwise.
    With ``cum[j]`` the number of negatives on levels below ``j``, the exact
    ``2U = cum[lo].sum() + cum[hi].sum()``, and AUROC is ``2U / 2 / n_pairs``.
    """

    def __init__(self, pos: np.ndarray, neg: np.ndarray):
        levels, self.neg_level = np.unique(neg, return_inverse=True)
        self.n_levels = len(levels)
        self.lo = np.searchsorted(levels, pos, "left")
        self.hi = np.searchsorted(levels, pos, "right")
        self.n_pairs = len(pos) * len(neg)

    def point(self) -> float:
        cum = np.zeros(self.n_levels + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.neg_level, minlength=self.n_levels), out=cum[1:])
        return float((cum[self.lo].sum() + cum[self.hi].sum()) / 2.0 / self.n_pairs)

    def aurocs(self, pos_draws: np.ndarray, neg_draws: np.ndarray, out: np.ndarray,
               scratch: tuple[np.ndarray, np.ndarray]) -> None:
        """Write into ``out`` the AUROC of each resample, given as rows of
        positive and negative indices.

        Row r's negative levels are shifted by ``r * width + 1`` (``width =
        n_levels + 1``), and one ``bincount`` and 1-D ``cumsum`` of the flat
        block give ``total``. Every earlier row drew ``n_neg`` negatives, so
        row r's ``cum[j]`` is ``total[r * width + j] - r * n_neg``.

        ``scratch`` is a ``(negatives, positives)`` pair of intp arrays that
        ``_resample`` allocates once per call, with as many rows as its
        largest block; the block's levels, then its ``lo`` and its ``hi``
        bounds, are gathered into their first rows (``mode="clip"``, since
        ``take`` with the default mode buffers ``out``; every index is in
        range). ``2U / (2 * n_pairs)`` has the bits of ``2U / 2 / n_pairs``,
        since halving is exact.
        """
        (rows, n_pos), (_, n_neg) = pos_draws.shape, neg_draws.shape
        level, bound = scratch[0][:rows], scratch[1][:rows]
        width = self.n_levels + 1
        shift = np.arange(rows)[:, None] * width
        np.take(self.neg_level, neg_draws, out=level, mode="clip")
        level += shift + 1
        total = np.bincount(level.ravel(), minlength=rows * width)
        total.cumsum(out=total)
        two_u = -2 * n_pos * n_neg * np.arange(rows)
        for side in (self.lo, self.hi):
            np.take(side, pos_draws, out=bound, mode="clip")
            bound += shift
            two_u += total[bound].sum(axis=1)
        np.divide(two_u, 2.0 * self.n_pairs, out=out)


def _resample(brackets: Sequence[_Brackets], n_resamples: int,
              rng: np.random.Generator) -> np.ndarray:
    """AUROC of every model on each label-stratified resample of one cell.

    ``brackets`` holds one model's brackets of the cell each, over the same
    examples; the result holds one row of ``n_resamples`` AUROCs per model.
    Positives and negatives are resampled separately with replacement,
    keeping their counts, so no resample is degenerate. ``rng`` is split into
    a positive and a negative stream, and each side of a block of resamples
    is one ``integers`` call on its own stream. Philox yields the same indices
    for one large draw as for consecutive smaller ones, so the result depends
    on neither ``_BLOCK_ELEMS`` nor on other cells. Every model is scored on
    the same draws, so model differences are paired.
    """
    pos_rng, neg_rng = rng.spawn(2)
    n_pos, n_neg = len(brackets[0].lo), len(brackets[0].neg_level)
    stats = np.empty((len(brackets), n_resamples))
    step = max(1, _BLOCK_ELEMS // (n_pos + n_neg))
    rows = min(step, n_resamples)
    scratch = np.empty((rows, n_neg), np.intp), np.empty((rows, n_pos), np.intp)
    for start in range(0, n_resamples, step):
        count = min(step, n_resamples - start)
        pos_draws = pos_rng.integers(0, n_pos, (count, n_pos))
        neg_draws = neg_rng.integers(0, n_neg, (count, n_neg))
        for row, b in zip(stats, brackets):
            b.aurocs(pos_draws, neg_draws, row[start:start + count], scratch)
    return stats


def _bucket(pset: PredictionSet, finding: str) -> list[tuple[str | None, np.ndarray, np.ndarray]]:
    """The cells of one finding as (group_id, positive rows, negative rows):
    the pooled cell (group_id None), then one cell per group present in the
    finding, in group_id order.

    Rows are sorted by (finding, example_id), so the finding's rows are one
    run. Each cell is a stable pick from that run, so its rows stay in
    example_id order, which fixes the rows that bootstrap resamples draw.
    """
    if finding not in pset.findings:
        raise CohortError(f"unknown finding {finding!r} in {pset.model_id!r}")
    f = pset.findings.index(finding)
    lo, hi = np.searchsorted(pset.finding_code, (f, f + 1)).tolist()
    negative = pset.label[lo:hi] == 0
    key = pset.group_code[lo:hi] * 2 + negative  # (group, label) cells, positives first
    sizes = np.bincount(key, minlength=2 * len(pset.groups)).reshape(-1, 2)
    present = np.flatnonzero(sizes.any(axis=1))
    sides = np.split(lo + np.argsort(key, kind="stable"), np.cumsum(sizes[present])[:-1])
    return [(None, lo + np.flatnonzero(~negative), lo + np.flatnonzero(negative)),
            *zip([pset.groups[g] for g in present.tolist()], sides[::2], sides[1::2])]


class _FindingPass:
    """One finding scored for one or more aligned models, in one pass.

    Each cell with both sides, the pooled cell first, is bracketed once per
    model; ``points[c][m]`` is model m's AUROC of cell c, else None.
    ``included`` holds the inclusion policy's verdict on each group cell, and
    ``kept`` the index of each included cell. Aligned sets share their row
    layout, so the first model's cells, from ``_bucket``, serve every model.

    Given ``paired``, ``draws`` holds every model's resampled AUROCs of the
    pooled cell and each kept cell on the key ``("delta-bootstrap",)``, else
    None; every model is scored on the same draws, as ``resample`` keys them.
    """

    def __init__(self, models: Sequence[PredictionSet], finding: str, policy: InclusionPolicy,
                 paired: BootstrapConfig | None = None):
        self.finding, self.policy, self.paired = finding, policy, paired
        self.model_ids = [m.model_id for m in models]
        self.cells = _bucket(models[0], finding)
        self.brackets = [[_Brackets(m.score[pos], m.score[neg]) for m in models]
                         if len(pos) and len(neg) else None for _, pos, neg in self.cells]
        self.points = [[None] * len(models) if row is None else [b.point() for b in row]
                       for row in self.brackets]
        self.included = [policy.admits(len(pos), len(neg)) for _, pos, neg in self.cells[1:]]
        self.kept = [c for c, keep in enumerate(self.included, 1) if keep]
        self.draws = (None if paired is None or not self.kept
                      else self.resample(paired, ("delta-bootstrap",), [0, *self.kept]))

    def resample(self, boot: BootstrapConfig, key: tuple[str, ...],
                 cells: Sequence[int]) -> list[np.ndarray]:
        """Every model's resampled AUROCs of each listed cell (an index into ``cells``).

        Cell c is drawn on ``substream(boot.seed, *key, finding, group_id or "")``,
        so its resamples depend on neither the other cells nor the other models.
        """
        return [_resample(self.brackets[c], boot.n_resamples,
                          substream(boot.seed, *key, self.finding, g or ""))
                for c in cells for g, _, _ in [self.cells[c]]]

    def summary(self, m: int, boot: BootstrapConfig | None = None) -> FairnessSummary:
        """Model m's overall AUROC, per-group rows and fairness (see ``summarize``).

        With boot, each included group gets a CI drawn on the key ``("bootstrap",
        model_id)``. If the point estimate falls outside the percentile interval
        (possible at tiny n), the interval is widened to cover it and the group
        flagged low_confidence. One quantile call gives every CI of the finding.
        """
        per_group = [SubgroupPerformance(g, len(pos), len(neg), keep, p[m])
                     for (g, pos, neg), p, keep
                     in zip(self.cells[1:], self.points[1:], self.included)]
        if boot is not None and self.kept:
            draws = self.resample(boot, ("bootstrap", self.model_ids[m]), self.kept)
            bounds = zip(*boot.interval(np.array([d[m] for d in draws])))
            for c, (low, high) in zip(self.kept, bounds):
                g = per_group[c - 1]
                per_group[c - 1] = replace(g, ci_low=min(low, g.auroc), ci_high=max(high, g.auroc),
                                           low_confidence=not low <= g.auroc <= high)
        evaluable = [per_group[c - 1] for c in self.kept]
        if len(evaluable) < 2:
            return FairnessSummary(self.finding, self.points[0][m], tuple(per_group), None, None)
        aurocs = [g.auroc for g in evaluable]
        worst = min(evaluable, key=lambda g: (g.auroc, g.group_id))
        return FairnessSummary(self.finding, self.points[0][m], tuple(per_group),
                               1.0 - (max(aurocs) - min(aurocs)), worst.group_id)


def summarize(
    pset: PredictionSet,
    finding: str,
    policy: InclusionPolicy = InclusionPolicy(),
    boot: BootstrapConfig | None = BootstrapConfig(),
) -> FairnessSummary:
    """Overall AUROC plus fairness over included subgroups for one finding.

    The overall AUROC pools all of the finding's rows, regardless of
    inclusion. Fairness is 1 minus the AUROC range of the included subgroups,
    and the worst group the lowest-AUROC one (ties to the smaller group id);
    both are None with fewer than two included subgroups. Included subgroups
    get bootstrap CIs; with boot=None none does and every other field is
    unchanged.
    """
    return _FindingPass([pset], finding, policy).summary(0, boot)


def macro_average(summaries: Sequence[FairnessSummary]) -> float:
    """Unweighted mean of overall AUROC across findings."""
    if not summaries:
        raise ValueError("macro_average of empty summary list")
    return float(sum(s.overall_auroc for s in summaries) / len(summaries))


@dataclass(frozen=True)
class StudyAudit:
    """``audit_study``'s result, with one summary per finding in the set's finding order."""

    model_id: str
    summaries: tuple[FairnessSummary, ...]
    macro_average_auroc: float
    fairness_undefined: tuple[str, ...]  # the findings whose fairness_score is None


def audit_study(pset: PredictionSet, policy: InclusionPolicy = InclusionPolicy(),
                boot: BootstrapConfig = BootstrapConfig()) -> StudyAudit:
    """Every finding of one model, as ``psfair audit`` reports it."""
    summaries = tuple(summarize(pset, f, policy, boot) for f in pset.findings)
    return StudyAudit(pset.model_id, summaries, macro_average(summaries),
                      tuple(s.finding_id for s in summaries if s.fairness_score is None))


__all__ = ["BootstrapConfig", "SubgroupPerformance", "FairnessSummary", "StudyAudit", "summarize",
           "macro_average", "audit_study"]
