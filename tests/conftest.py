import os
from pathlib import Path

import numpy as np
import pytest

import psfair
from psfair import metrics
from psfair.cohort import PredictionSet


def child_env():
    """The environment with this checkout's psfair first on PYTHONPATH."""
    src = str(Path(psfair.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def make_set(model_id, rows):
    """Build a PredictionSet from the columns of (example_id, finding, label, score, group) rows."""
    return PredictionSet(model_id, *([list(column) for column in zip(*rows)] or [[]] * 5))


def set_rows(pset):
    """A set's (example_id, finding, label, score, group) rows, in (finding, example_id) order."""
    example_id, finding_id, group_id = pset._ids()
    return list(zip(example_id, finding_id, pset.label.tolist(), pset.score.tolist(), group_id))


def group_rows(finding, group, pos_scores, neg_scores, prefix=""):
    rows = [(f"{prefix}{group}-p{i}", finding, 1, s, group) for i, s in enumerate(pos_scores)]
    rows += [(f"{prefix}{group}-n{i}", finding, 0, s, group) for i, s in enumerate(neg_scores)]
    return rows


def random_instance(rng, max_records=200, tie_prone=True):
    """Random (pos, neg) score lists; discrete scores force plenty of ties."""
    n_pos = int(rng.integers(1, max_records // 2))
    n_neg = int(rng.integers(1, max_records - n_pos))
    if tie_prone and rng.random() < 0.5:
        levels = rng.integers(2, 12)
        pos = rng.integers(0, levels, n_pos).astype(float)
        neg = rng.integers(0, levels, n_neg).astype(float)
    else:
        pos = rng.normal(size=n_pos)
        neg = rng.normal(size=n_neg)
    return list(pos), list(neg)


def brackets(scores_pos, scores_neg):
    """One model's cell, bracketed as audit and compare bracket it."""
    return metrics._Brackets([np.asarray(scores_pos, np.float64)],
                             [np.asarray(scores_neg, np.float64)])


def auroc(scores_pos, scores_neg):
    """Point AUROC of one cell, as audit and compare compute it: ``_Brackets.points``."""
    return brackets(scores_pos, scores_neg).points()[0]


def bootstrap_ci(scores_pos, scores_neg, boot, rng):
    """Percentile CI of one cell's resampled AUROCs, as the kernel computes it:
    the counterpart of ``reference.rank_bootstrap_auroc_ci``."""
    cell = brackets(scores_pos, scores_neg)
    return boot.interval(metrics._resample(cell, boot.n_resamples, rng)[0])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
