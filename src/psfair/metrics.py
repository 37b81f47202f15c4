"""AUROC, bootstrap confidence intervals, and the traditional fairness score.

AUROC is the Mann-Whitney pair statistic: the fraction of (positive, negative)
score pairs ranked correctly, ties counted half. It is counted, not ranked:
a cell's negatives are sorted once, for all its models, into levels, and every
positive is bracketed among them under each model. One routine, ``_score``,
turns rows of draw counts (how often a row drew each level and each
positive) into every model's AUROC of each row, through a prefix sum of the
row's negatives per level and a gather at each positive's brackets, so a
row's count depends on that row alone. The point estimate is its one-row
case, the draw that takes every example once.
``_resample`` is the bootstrap's draw plan: it tallies a block of resamples
once for every model, one count of the drawn levels and one of the drawn
positives, and hands the tallies to ``_score``, which consumes them. Each
block allocates its own temporaries, and no other block reuses them.
``2U`` (twice the number of correct pairs, ties once) is a sum of integer
counts, so it is exact: every AUROC agrees bit for bit with exhaustive pair
counting, whichever models share the cell.
``_FindingPass`` scores a finding for audit and compare alike: it buckets
the finding into cells, brackets each cell once for every model, and draws
every resample, of audit and of paired delta CIs, on streams whose keys it
owns.

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


# Most draw indices one block of a cell's resamples holds; the kernel's
# prefix sums (``count * (n_levels + 1)`` slots) and every other temporary are
# small multiples of it. A resample larger than this gets a block of its own.
# Each block allocates its own temporaries, freed as the next block's replace
# them, so a call's memory grows with its resamples only by the results.
_BLOCK_ELEMS = 1 << 15


class _Brackets:
    """One cell's scores under each of its models, prepared for exact pair counting.

    ``pos`` and ``neg`` hold one score array per model, the baseline first. A
    level is a distinct tuple of one negative's scores under every model;
    ``level`` maps each negative to its level, and the levels are sorted by
    model 0's score. Only where model 0 ties do the other models' scores
    order the sort (``np.lexsort``, far slower than ``argsort``), so that
    equal tuples are neighbours. A row of counts per level has column 0
    empty and level j in column j + 1; ``orders[m]`` puts those columns in
    the order of model m's scores (None for model 0, whose order they are
    in). Each positive is bracketed by ``searchsorted`` into model m's
    sorted levels: ``lo[m]`` levels lie strictly below it and ``hi[m]`` at
    or below it. ``hi[m]`` is ``lo[m]`` itself when no positive ties a
    level, and then one gather, doubled, stands for both.

    With ``cum[j]`` the number of negatives on model m's first ``j`` levels,
    the exact ``2U = cum[lo].sum() + cum[hi].sum()``, and AUROC is
    ``2U / 2 / n_pairs``. Levels that tie under model m lie between two of its
    brackets, never across one, so their order among themselves moves no
    ``cum[lo]`` or ``cum[hi]``: model m's ``2U`` is the one it has alone,
    whichever models share the cell.
    """

    def __init__(self, pos: Sequence[np.ndarray], neg: Sequence[np.ndarray]):
        order = neg[0].argsort()
        if len(neg) > 1 and (np.diff(neg[0][order]) == 0).any():
            order = np.lexsort(neg[::-1])
        ranked = [scores[order] for scores in neg]
        first = np.empty(len(order), bool)  # where a level starts in ``ranked``
        first[0] = True
        np.not_equal(ranked[0][1:], ranked[0][:-1], out=first[1:])
        for scores in ranked[1:]:
            first[1:] |= scores[1:] != scores[:-1]
        ranked_level = np.add.accumulate(first, dtype=np.intp)
        ranked_level -= 1
        self.level = np.empty(len(order), np.intp)
        self.level[order] = ranked_level
        self.n_levels, self.n_pairs = int(ranked_level[-1]) + 1, len(pos[0]) * len(order)
        self.orders, self.lo, self.hi = [], [], []
        for m, scores in enumerate(ranked):
            edges, columns = scores[first], None
            if m:
                by_score = edges.argsort()
                edges, columns = edges[by_score], np.concatenate(([0], by_score + 1))
            lo, hi = np.searchsorted(edges, pos[m], "left"), np.searchsorted(edges, pos[m], "right")
            self.orders.append(columns)
            self.lo.append(lo)
            self.hi.append(lo if (lo == hi).all() else hi)

    def points(self) -> list[float]:
        """Every model's point AUROC of the cell: ``_score`` of one row, the
        draw that takes every example once."""
        counts = np.bincount(self.level + 1, minlength=self.n_levels + 1)[None]
        points = np.empty((len(self.lo), 1))
        _score(self, counts, np.ones((1, len(self.lo[0])), np.intp), points)
        return points[:, 0].tolist()


def _score(cell: _Brackets, counts: np.ndarray, weight: np.ndarray, out: np.ndarray) -> None:
    """Every model's AUROC of ``cell`` on each row of draw counts, written into ``out[m]``.

    ``counts[r, j + 1]`` is how often row r drew level j (column 0 is empty)
    and ``weight[r, i]`` how often it drew positive i. A row may draw any
    totals: its ``2U`` depends only on its own counts and weights. Only the
    division assumes that every row has the cell's ``n_pairs`` pairs, as
    every row does that draws ``n_pos`` positives and ``n_neg`` negatives.

    Only a prefix sum and a gather are each model's own: ``counts``, in
    model m's column order, is summed along each row by ``np.add.accumulate``
    into ``total``, so ``total[r, j]`` is row r's negatives on model m's
    first ``j`` levels, and ``2U_r = sum_i weight[r, i] * (total[r, lo_i] +
    total[r, hi_i])``, one doubled gather when ``hi`` is ``lo``. Every term
    is an integer, so each ``2U`` is exact, and each model's row is the one
    it has alone. ``2U / (2 * n_pairs)`` has the bits of ``2U / 2 /
    n_pairs``, since halving is exact.

    ``_score`` consumes ``counts``: each model but model 0 sums its own
    reordered copy, and model 0, whose order ``counts`` is in, sums it in
    place, so it goes last. The prefix sums call ``np.add.accumulate``, not
    ``ndarray.cumsum``: ``cumsum`` looks ``accumulate`` up by a new name
    string on each call, which CPython's type attribute cache keeps alive,
    so a call's traced memory would depend on what ran before it.
    """
    for m in [*range(1, len(cell.lo)), 0]:
        total = counts.take(cell.orders[m], axis=1) if m else counts
        np.add.accumulate(total, axis=1, out=total)
        two_u = np.einsum("ij,ij->i", total.take(cell.lo[m], axis=1), weight)
        if cell.hi[m] is cell.lo[m]:
            two_u *= 2
        else:
            two_u += np.einsum("ij,ij->i", total.take(cell.hi[m], axis=1), weight)
        np.divide(two_u, 2.0 * cell.n_pairs, out=out[m])


def _resample(cell: _Brackets, n_resamples: int, rng: np.random.Generator) -> np.ndarray:
    """AUROC of every model of ``cell`` on each label-stratified resample of it.

    The result holds one row of ``n_resamples`` AUROCs per model. Positives
    and negatives are resampled separately with replacement, keeping their
    counts, so no resample is degenerate. ``rng`` is split into a positive
    and a negative stream, and each side of a block of resamples is one
    ``integers`` call on its own stream. Philox yields the same indices for
    one large draw as for consecutive smaller ones, so the result depends on
    neither ``_BLOCK_ELEMS`` nor on other cells. Every model is scored on the
    same draws, so model differences are paired.

    This is the draw plan; ``_score`` counts. A block is tallied once for
    every model: row r's drawn levels, shifted by ``r * width + 1`` (``width
    = n_levels + 1``), go through one ``bincount`` into ``counts``, and its
    drawn positives, shifted by ``r * n_pos``, through another into
    ``weight``, so row r of each holds resample r's draws alone and
    ``_score`` counts it on its own. Every temporary, the draws, the tallies
    and ``_score``'s prefix sums and gathers, is its block's own, and no
    other block reuses it; only ``stats`` is allocated once per call.
    """
    pos_rng, neg_rng = rng.spawn(2)
    n_pos, n_neg, width = len(cell.lo[0]), len(cell.level), cell.n_levels + 1
    stats = np.empty((len(cell.lo), n_resamples))
    step = max(1, _BLOCK_ELEMS // (n_pos + n_neg))
    for start in range(0, n_resamples, step):
        count = min(step, n_resamples - start)
        pos_draws = pos_rng.integers(0, n_pos, (count, n_pos))
        neg_draws = neg_rng.integers(0, n_neg, (count, n_neg))
        row = np.arange(count)[:, None]
        level = cell.level.take(neg_draws)
        level += row * width + 1
        counts = np.bincount(level.ravel(), minlength=count * width).reshape(count, width)
        pos_draws += row * n_pos
        weight = np.bincount(pos_draws.ravel(), minlength=count * n_pos).reshape(count, n_pos)
        _score(cell, counts, weight, stats[:, start:start + count])
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

    Each cell with both sides, the pooled cell first, is bracketed once for
    every model; ``points[c][m]`` is model m's AUROC of cell c, else None.
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
        self.brackets = [_Brackets([m.score[pos] for m in models], [m.score[neg] for m in models])
                         if len(pos) and len(neg) else None for _, pos, neg in self.cells]
        self.points = [[None] * len(models) if b is None else b.points() for b in self.brackets]
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
