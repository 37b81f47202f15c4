"""Statistical checks of the bootstrap on binormal cells with a known AUC.

Under the unit-variance binormal model the true AUC is Phi(mu / sqrt(2)), so
the coverage of the percentile intervals can be counted directly. The
bootstrap's spread is cross-checked against the DeLong standard error
(DeLong, DeLong & Clarke-Pearson, Biometrics 1988), computed from the
levels and brackets of a one-model ``_Brackets`` (``conftest.brackets``), as
the kernel counts with them, as in Sun & Xu (IEEE SPL 2014). The paired
DeLong SE of a candidate-minus-baseline delta, drawn by ``_resample`` from
one ``_Brackets`` of both models, checks that every model of a cell is
scored on the same resamples.
"""

import math
import statistics

import numpy as np
import pytest

from psfair import metrics
from psfair.metrics import BootstrapConfig
from psfair.seeding import substream
from psfair.synth import GroupRecipe, ScenarioSpec, build_study, mu_for_auc
from conftest import auroc, bootstrap_ci, brackets


def binormal_cells(n_cells, n_per_side, target_auc, seed):
    """(positive, negative) scores of independent binormal cells."""
    recipes = tuple(GroupRecipe(f"g{k}", n_per_side, n_per_side, target_auc)
                    for k in range(n_cells))
    pset = build_study(ScenarioSpec("cells", recipes, (), seed)).baseline
    return [(pset.score[pos], pset.score[neg]) for _, pos, neg in metrics._bucket(pset, "finding")[1:]]


def delong(pos, neg):
    """DeLong placements of each positive and each negative, and the AUROC's SE.

    A positive's placement is the share of negatives below it, ties half:
    ``(cum[lo] + cum[hi]) / 2 / n_neg``. A negative's is the share of
    positives above it, ties half: those with ``lo`` above its level, plus
    those with ``hi`` above it, over ``2 * n_pos``. With one model, the
    cell's levels are in score order.
    """
    b = brackets(pos, neg)
    (lo,), (hi,), n_pos, n_neg = b.lo, b.hi, len(pos), len(neg)
    cum = np.concatenate([[0], np.cumsum(np.bincount(b.level, minlength=b.n_levels))])
    v10 = (cum[lo] + cum[hi]) / 2 / n_neg

    def above(edge):  # positives with ``edge`` above each level
        return n_pos - np.cumsum(np.bincount(edge, minlength=b.n_levels + 1))

    v01 = (above(lo) + above(hi))[b.level] / 2 / n_pos
    return v10, v01, math.sqrt(v10.var(ddof=1) / n_pos + v01.var(ddof=1) / n_neg)


@pytest.mark.parametrize("target", [0.7, 0.85])
def test_percentile_intervals_cover_the_true_auc(target):
    # 400 cells of 100 per side; the rate must lie within 3 binomial
    # standard errors of the nominal 0.95.
    truth = statistics.NormalDist().cdf(mu_for_auc(target) / math.sqrt(2))
    cells = binormal_cells(400, 100, target, seed=11)
    boot = BootstrapConfig(n_resamples=200)
    covered = [low <= truth <= high for low, high in (
        bootstrap_ci(pos, neg, boot, substream(0, "coverage", str(k)))
        for k, (pos, neg) in enumerate(cells))]
    rate = sum(covered) / len(covered)
    assert abs(rate - 0.95) <= 3 * math.sqrt(0.95 * 0.05 / len(covered)), rate


def cells_for_delong():
    (pos, neg), = binormal_cells(1, 200, 0.75, seed=3)
    (small_pos, small_neg), = binormal_cells(1, 25, 0.85, seed=4)
    return {"binormal": (pos, neg),
            "tied": (np.round(pos, 0), np.round(neg, 0)),
            "small": (small_pos, small_neg)}


@pytest.mark.parametrize("name", ["binormal", "tied", "small"])
def test_placements_average_to_the_auroc(name):
    pos, neg = cells_for_delong()[name]
    v10, v01, _ = delong(pos, neg)
    assert v10.mean() == pytest.approx(auroc(pos, neg), abs=1e-12)
    assert v01.mean() == pytest.approx(auroc(pos, neg), abs=1e-12)


@pytest.mark.parametrize("name", ["binormal", "tied", "small"])
def test_bootstrap_sd_matches_delong_se(name):
    # Both estimate the same sampling SD; with 2,000 resamples the bootstrap
    # SD carries ~1.6% noise, so a factor of 1.1 is a wide margin.
    pos, neg = cells_for_delong()[name]
    *_, se = delong(pos, neg)
    rng = substream(0, "delong", name)
    stats = metrics._resample(brackets(pos, neg), 2000, rng)[0]
    assert 1 / 1.1 <= stats.std(ddof=1) / se <= 1.1


@pytest.mark.parametrize("n_per_side, rho", [(200, 0.8), (200, 0.95), (30, 0.8)])
def test_paired_delta_sd_matches_paired_delong_se(n_per_side, rho):
    # A baseline and a candidate of equal true AUC 0.75 whose scores correlate
    # by rho. The delta's paired DeLong SE comes from the differences of the
    # two models' placements. Drawn on streams of its own, the candidate's
    # delta SD would be 1.8-4 times that SE, so the band also checks pairing.
    rng = np.random.default_rng(n_per_side + int(100 * rho))
    shift = np.array([[mu_for_auc(0.75)], [0.0]])  # positives, then negatives
    z, e = rng.standard_normal((2, 2, n_per_side))
    base, cand = z + shift, rho * z + math.sqrt(1 - rho**2) * e + shift
    (b10, b01, _), (c10, c01, _) = delong(*base), delong(*cand)
    se = math.sqrt((c10 - b10).var(ddof=1) / n_per_side + (c01 - b01).var(ddof=1) / n_per_side)
    cell = metrics._Brackets([base[0], cand[0]], [base[1], cand[1]])
    rows = metrics._resample(cell, 2000, substream(0, "paired-delong", str(n_per_side), str(rho)))
    assert 1 / 1.1 <= (rows[1] - rows[0]).std(ddof=1) / se <= 1.1
