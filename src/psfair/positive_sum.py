"""Baseline-relative comparison: harmful vs non-harmful disparity changes.

A candidate is compared to the baseline on two axes: the change in overall
AUROC, and the change for the least-improved subgroup. A disparity increase is
non-harmful when neither axis drops; it is harmful when the overall
performance falls or any subgroup pays for the improvement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cohort import AlignedStudy, Cell, InclusionPolicy, PredictionSet
from .metrics import BootstrapConfig, auroc, overall_auroc
from .seeding import substream


class Classification(enum.Enum):
    NON_HARMFUL = "non_harmful"
    HARMFUL_TO_SUBGROUP = "harmful_to_subgroup"
    HARMFUL_TO_OVERALL = "harmful_to_overall"
    HARMFUL_BOTH = "harmful_both"


class NarrativeKind(enum.Enum):
    ADVANTAGED_IMPROVED = "advantaged_improved"
    ALL_IMPROVED_UNEVENLY = "all_improved_unevenly"
    WORST_GROUP_DECLINED = "worst_group_declined"
    ALL_DECLINED_UNEVENLY = "all_declined_unevenly"
    MIXED = "mixed"
    NO_CHANGE = "no_change"


@dataclass(frozen=True)
class GroupDelta:
    group_id: str
    baseline_auroc: float | None
    candidate_auroc: float | None
    delta: float | None
    jointly_included: bool


@dataclass(frozen=True)
class GatePolicy:
    """Hard promotion constraints; defaults require no loss on either axis.

    conservative_ci switches the gate to reject only when the bootstrap CI of
    a delta lies entirely below -epsilon (needs compare(..., conservative=True)).
    """

    epsilon: float = 0.0
    require_overall_gain: bool = True
    require_no_group_loss: bool = True
    conservative_ci: bool = False

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


@dataclass(frozen=True)
class GateVerdict:
    promote: bool
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class ChangeNarrative:
    kind: NarrativeKind
    signs: dict[str, int] = field(default_factory=dict)  # -1 / 0 / +1 vs the epsilon band


@dataclass(frozen=True)
class PositiveSumComparison:
    finding_id: str
    candidate_id: str
    overall_delta: float
    group_deltas: tuple[GroupDelta, ...]
    min_group_delta: float
    min_group: str
    classification: Classification
    disparity_change: float | None
    epsilon: float = 0.0
    overall_delta_ci: tuple[float, float] | None = None
    min_group_delta_ci: tuple[float, float] | None = None


def classify(overall_delta: float, min_group_delta: float, epsilon: float = 0.0) -> Classification:
    """Four-way harm classification; total over the delta plane for any eps >= 0."""
    overall_ok = overall_delta >= -epsilon
    groups_ok = min_group_delta >= -epsilon
    if overall_ok and groups_ok:
        return Classification.NON_HARMFUL
    if overall_ok:
        return Classification.HARMFUL_TO_SUBGROUP
    if groups_ok:
        return Classification.HARMFUL_TO_OVERALL
    return Classification.HARMFUL_BOTH


def compare(
    study: AlignedStudy,
    finding: str,
    candidate_id: str,
    policy: InclusionPolicy = InclusionPolicy(),
    boot: BootstrapConfig = BootstrapConfig(),
    epsilon: float = 0.0,
    conservative: bool = False,
) -> PositiveSumComparison:
    """Point-estimate deltas of a candidate vs the baseline for one finding.

    A group enters min_group_delta only when it passes the inclusion policy
    (the shared key set makes inclusion identical for both models) and its
    AUROC is defined on both sides. With conservative=True, paired stratified
    bootstrap CIs for the overall and minimum-group deltas are attached.
    """
    baseline = study.baseline
    candidate = study.candidate(candidate_id)

    # Aligned sets share their row layout, so a baseline cell indexes the
    # same examples in the candidate's score column.
    b, c = baseline.score, candidate.score
    cells = baseline.cells(finding)
    deltas: list[GroupDelta] = []
    for cell in cells:
        n_pos, n_neg = len(cell.pos), len(cell.neg)
        defined = n_pos >= 1 and n_neg >= 1
        b_auc = auroc(b[cell.pos], b[cell.neg]) if defined else None
        c_auc = auroc(c[cell.pos], c[cell.neg]) if defined else None
        delta = c_auc - b_auc if defined else None
        deltas.append(GroupDelta(cell.group_id, b_auc, c_auc, delta, policy.admits(n_pos, n_neg)))

    included_deltas = [d for d in deltas if d.jointly_included]
    if not included_deltas:
        raise ValueError(
            f"no jointly included group for finding {finding!r} under policy {policy}"
        )
    worst = min(included_deltas, key=lambda d: (d.delta, d.group_id))

    overall_delta = overall_auroc(candidate, finding) - overall_auroc(baseline, finding)

    disparity_change: float | None = None
    if len(included_deltas) >= 2:
        b_aucs = [d.baseline_auroc for d in included_deltas]
        c_aucs = [d.candidate_auroc for d in included_deltas]
        disparity_change = (max(c_aucs) - min(c_aucs)) - (max(b_aucs) - min(b_aucs))

    overall_ci = min_ci = None
    if conservative:
        overall_ci, min_ci = _delta_bootstrap_cis(
            baseline, candidate, finding,
            [cell for cell, d in zip(cells, deltas) if d.jointly_included], boot,
        )

    return PositiveSumComparison(
        finding_id=finding,
        candidate_id=candidate_id,
        overall_delta=overall_delta,
        group_deltas=tuple(deltas),
        min_group_delta=worst.delta,
        min_group=worst.group_id,
        classification=classify(overall_delta, worst.delta, epsilon),
        disparity_change=disparity_change,
        epsilon=epsilon,
        overall_delta_ci=overall_ci,
        min_group_delta_ci=min_ci,
    )


def _delta_bootstrap_cis(
    baseline: PredictionSet,
    candidate: PredictionSet,
    finding: str,
    included: list[Cell],
    boot: BootstrapConfig,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Paired percentile CIs for (overall delta, min group delta).

    Resampling is paired: the same resampled examples are scored by both
    models, so only score differences drive the interval width. Each
    resample draws the pooled cell first, then the included groups' cells.
    """
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
            stats[k, i] = auroc(c_pos[pi], c_neg[ni]) - auroc(b_pos[pi], b_neg[ni])

    alpha = 1.0 - boot.confidence_level
    qs = [alpha / 2.0, 1.0 - alpha / 2.0]
    o_lo, o_hi = np.quantile(stats[0], qs)
    m_lo, m_hi = np.quantile(stats[1:].min(axis=0), qs)
    return (float(o_lo), float(o_hi)), (float(m_lo), float(m_hi))


def gate(cmp: PositiveSumComparison, policy: GatePolicy = GatePolicy()) -> GateVerdict:
    """Apply the hard promotion constraints; Reject lists every violation."""
    eps = policy.epsilon
    reasons: list[str] = []
    if policy.require_overall_gain:
        if policy.conservative_ci and cmp.overall_delta_ci is not None:
            violated = cmp.overall_delta_ci[1] < -eps
        else:
            violated = cmp.overall_delta < -eps
        if violated:
            reasons.append(
                f"overall-loss: overall_delta {cmp.overall_delta:+.6g} < {-eps:+.6g}"
            )
    if policy.require_no_group_loss:
        if policy.conservative_ci and cmp.min_group_delta_ci is not None:
            violated = cmp.min_group_delta_ci[1] < -eps
        else:
            violated = cmp.min_group_delta < -eps
        if violated:
            reasons.append(
                f"group-loss: group {cmp.min_group!r} delta "
                f"{cmp.min_group_delta:+.6g} < {-eps:+.6g}"
            )
    return GateVerdict(promote=not reasons, reasons=tuple(reasons))


def decompose_disparity_change(
    cmp: PositiveSumComparison, epsilon: float | None = None
) -> ChangeNarrative:
    """Name the sign pattern behind a disparity change.

    epsilon (default: the comparison's own) is the zero band: deltas within
    +/-epsilon count as "stayed the same".
    """
    eps = cmp.epsilon if epsilon is None else epsilon
    included = [d for d in cmp.group_deltas if d.jointly_included]
    if len(included) < 2:
        raise ValueError("disparity-change decomposition needs >= 2 jointly included groups")
    signs = {
        d.group_id: (1 if d.delta > eps else -1 if d.delta < -eps else 0) for d in included
    }
    values = [d.delta for d in included]
    n_up = sum(1 for s in signs.values() if s == 1)
    n_down = sum(1 for s in signs.values() if s == -1)
    n_flat = len(signs) - n_up - n_down

    if n_up == 0 and n_down == 0:
        kind = NarrativeKind.NO_CHANGE
    elif n_up == 1 and n_down == 0 and n_flat == len(signs) - 1:
        kind = NarrativeKind.ADVANTAGED_IMPROVED
    elif n_up == len(signs) and (max(values) - min(values)) > eps:
        kind = NarrativeKind.ALL_IMPROVED_UNEVENLY
    elif n_down == 1 and n_up == 0 and n_flat == len(signs) - 1:
        kind = NarrativeKind.WORST_GROUP_DECLINED
    elif n_down == len(signs):
        kind = NarrativeKind.ALL_DECLINED_UNEVENLY
    else:
        kind = NarrativeKind.MIXED
    return ChangeNarrative(kind=kind, signs=signs)


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True if a is at least as good as b on both axes and better on one."""
    return a[0] >= b[0] and a[1] >= b[1] and (a[0] > b[0] or a[1] > b[1])


def pareto_select(cmps: Sequence[PositiveSumComparison]) -> list[str]:
    """Non-dominated candidates under joint maximization of both gains.

    Ordered by descending overall delta, then descending minimum group delta,
    then candidate id.
    """
    if not cmps:
        raise ValueError("pareto_select of empty comparison list")
    findings = {c.finding_id for c in cmps}
    if len(findings) != 1:
        raise ValueError(f"pareto_select mixes findings {sorted(findings)}")
    points = {c.candidate_id: (c.overall_delta, c.min_group_delta) for c in cmps}
    front = [
        cid
        for cid, p in points.items()
        if not any(dominates(q, p) for other, q in points.items() if other != cid)
    ]
    front.sort(key=lambda cid: (-points[cid][0], -points[cid][1], cid))
    return front


def plot_coordinates(
    cmps: Sequence[PositiveSumComparison],
) -> list[tuple[str, str, float, float]]:
    """(candidate, finding, x, y) points: x = overall delta, y = min group delta.

    A candidate indistinguishable from the baseline sits exactly at (0, 0).
    """
    return [(c.candidate_id, c.finding_id, c.overall_delta, c.min_group_delta) for c in cmps]
