"""Rank-based AUROC and one-resample-at-a-time bootstrap loops, kept as a reference.

These are the straightforward forms of ``psfair.metrics.auroc``,
``bootstrap_auroc_ci`` and ``positive_sum._delta_bootstrap_cis``: every
resample is drawn on its own and re-ranked with ``scipy.stats.rankdata``.
The counting kernel must agree with them bit for bit.
"""

import numpy as np
from scipy.stats import rankdata

from psfair.seeding import substream


def rank_auroc(scores_pos, scores_neg) -> float:
    """Mann-Whitney AUROC from a rank sum; ties get midranks."""
    pos = np.asarray(scores_pos, dtype=np.float64)
    neg = np.asarray(scores_neg, dtype=np.float64)
    ranks = rankdata(np.concatenate([pos, neg]))
    n_pos, n_neg = pos.size, neg.size
    u = ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _interval(stats, boot) -> tuple[float, float]:
    alpha = 1.0 - boot.confidence_level
    low, high = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(low), float(high)


def rank_bootstrap_auroc_ci(scores_pos, scores_neg, boot, rng) -> tuple[float, float]:
    n_pos, n_neg = len(scores_pos), len(scores_neg)
    stats = np.empty(boot.n_resamples)
    for i in range(boot.n_resamples):
        p = scores_pos[rng.integers(0, n_pos, n_pos)]
        n = scores_neg[rng.integers(0, n_neg, n_neg)]
        stats[i] = rank_auroc(p, n)
    low, high = _interval(stats, boot)
    return max(0.0, low), min(1.0, high)


def rank_delta_bootstrap_cis(baseline, candidate, finding, included, boot):
    """Paired CIs for (overall delta, min group delta); pooled cell drawn first."""
    b, c = baseline.score, candidate.score
    sides = [
        (b[cell.pos], c[cell.pos], b[cell.neg], c[cell.neg])
        for cell in (baseline.pooled(finding), *included)
    ]
    rng = substream(boot.seed, "delta-bootstrap", candidate.model_id, finding)
    stats = np.empty((len(sides), boot.n_resamples))
    for i in range(boot.n_resamples):
        for k, (b_pos, c_pos, b_neg, c_neg) in enumerate(sides):
            pi = rng.integers(0, len(b_pos), len(b_pos))
            ni = rng.integers(0, len(b_neg), len(b_neg))
            stats[k, i] = rank_auroc(c_pos[pi], c_neg[ni]) - rank_auroc(b_pos[pi], b_neg[ni])
    return _interval(stats[0], boot), _interval(stats[1:].min(axis=0), boot)
