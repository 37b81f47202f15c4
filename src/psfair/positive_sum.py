"""Baseline-relative comparison: harmful vs non-harmful disparity changes.

A candidate is compared to the baseline on two axes: the change in overall
AUROC, and the change for the least-improved subgroup. A disparity increase is
non-harmful when neither axis drops; it is harmful when the overall
performance falls or any subgroup pays for the improvement.
The math is here; ``metrics._FindingPass`` scores and resamples each finding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Sequence

import numpy as np

from .cohort import AlignedStudy, InclusionPolicy, _check_types
from .metrics import BootstrapConfig, FairnessSummary, _FindingPass


class Classification(enum.Enum):
    NON_HARMFUL = "non_harmful"
    HARMFUL_TO_SUBGROUP = "harmful_to_subgroup"
    HARMFUL_TO_OVERALL = "harmful_to_overall"
    HARMFUL_BOTH = "harmful_both"


class NarrativeKind(enum.Enum):
    ADVANTAGED_IMPROVED = "advantaged_improved"
    OTHER_GROUP_IMPROVED = "other_group_improved"
    ALL_IMPROVED_EVENLY = "all_improved_evenly"
    ALL_IMPROVED_UNEVENLY = "all_improved_unevenly"
    WORST_GROUP_DECLINED = "worst_group_declined"
    OTHER_GROUP_DECLINED = "other_group_declined"
    ALL_DECLINED_EVENLY = "all_declined_evenly"
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


def _check_epsilon(epsilon: float) -> None:
    # NaN fails every comparison, so a NaN band would pass every delta.
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")


@dataclass(frozen=True)
class GatePolicy:
    """Promotion gate: promote what classify calls non-harmful at epsilon.

    It classifies the point deltas or, with conservative_ci, the upper ends of
    the overall and minimum-group delta CIs (needs compare(..., conservative=True)).
    """

    epsilon: float = 0.0
    conservative_ci: bool = False

    def __post_init__(self) -> None:
        _check_types(self, epsilon=Real, conservative_ci=bool)
        _check_epsilon(self.epsilon)


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

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)


# Each quadrant's class, by (overall_delta >= -eps, min_group_delta >= -eps).
_QUADRANTS = {(True, True): Classification.NON_HARMFUL,
              (True, False): Classification.HARMFUL_TO_SUBGROUP,
              (False, True): Classification.HARMFUL_TO_OVERALL,
              (False, False): Classification.HARMFUL_BOTH}
_LONE = {(1, True): NarrativeKind.ADVANTAGED_IMPROVED,
         (1, False): NarrativeKind.OTHER_GROUP_IMPROVED,
         (-1, True): NarrativeKind.WORST_GROUP_DECLINED,
         (-1, False): NarrativeKind.OTHER_GROUP_DECLINED}
_EVERY = {(1, True): NarrativeKind.ALL_IMPROVED_EVENLY,
          (1, False): NarrativeKind.ALL_IMPROVED_UNEVENLY,
          (-1, True): NarrativeKind.ALL_DECLINED_EVENLY,
          (-1, False): NarrativeKind.ALL_DECLINED_UNEVENLY}


def classify(overall_delta: float, min_group_delta: float, epsilon: float = 0.0) -> Classification:
    """Four-way harm classification; total over the delta plane for any finite eps >= 0."""
    _check_epsilon(epsilon)
    return _QUADRANTS[overall_delta >= -epsilon, min_group_delta >= -epsilon]


def _no_group(p: _FindingPass) -> str:
    """Why no candidate of pass p is compared: inclusion is shared by aligned models."""
    return f"no jointly included group for finding {p.finding!r} under policy {p.policy}"


def _comparison(p: _FindingPass, k: int, epsilon: float) -> PositiveSumComparison:
    """Model k of pass p against model 0, the baseline, with CIs if p drew paired resamples."""
    if not p.kept:
        raise ValueError(_no_group(p))
    deltas = [GroupDelta(g, q[0], q[k], None if q[0] is None else q[k] - q[0], keep)
              for (g, _, _), q, keep in zip(p.cells[1:], p.points[1:], p.included)]
    included = [d for d in deltas if d.jointly_included]
    worst = min(included, key=lambda d: (d.delta, d.group_id))
    overall_delta = p.points[0][k] - p.points[0][0]

    b_aucs, c_aucs = [d.baseline_auroc for d in included], [d.candidate_auroc for d in included]
    disparity_change = ((max(c_aucs) - min(c_aucs)) - (max(b_aucs) - min(b_aucs))
                        if len(included) >= 2 else None)

    cis = (None, None)  # of the overall delta and of the minimum group delta
    if p.draws is not None:
        stats = [rows[k] - rows[0] for rows in p.draws]
        cis = p.paired.interval(stats[0]), p.paired.interval(np.min(stats[1:], axis=0))

    return PositiveSumComparison(
        p.finding, p.model_ids[k], overall_delta, tuple(deltas), worst.delta,
        worst.group_id, classify(overall_delta, worst.delta, epsilon), disparity_change,
        epsilon, *cis)


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
    bootstrap CIs of the overall and minimum-group deltas are attached; each
    cell's resamples are drawn as in ``metrics._FindingPass``.
    """
    p = _FindingPass([study.baseline, study.candidate(candidate_id)], finding, policy,
                     boot if conservative else None)
    return _comparison(p, 1, epsilon)


def gate(cmp: PositiveSumComparison, policy: GatePolicy = GatePolicy()) -> GateVerdict:
    """Promote what classify calls non-harmful; Reject lists each harmed axis's point delta."""
    overall, worst = cmp.overall_delta, cmp.min_group_delta
    if policy.conservative_ci:
        if cmp.overall_delta_ci is None or cmp.min_group_delta_ci is None:
            raise ValueError("conservative_ci needs delta CIs from compare(..., conservative=True)")
        overall, worst = cmp.overall_delta_ci[1], cmp.min_group_delta_ci[1]
    verdict = classify(overall, worst, policy.epsilon)
    bound = f"{-policy.epsilon:+.6g}"
    reasons: list[str] = []
    if verdict in (Classification.HARMFUL_TO_OVERALL, Classification.HARMFUL_BOTH):
        reasons.append(f"overall-loss: overall_delta {cmp.overall_delta:+.6g} < {bound}")
    if verdict in (Classification.HARMFUL_TO_SUBGROUP, Classification.HARMFUL_BOTH):
        reasons.append(f"group-loss: group {cmp.min_group!r} delta "
                       f"{cmp.min_group_delta:+.6g} < {bound}")
    return GateVerdict(promote=verdict is Classification.NON_HARMFUL, reasons=tuple(reasons))


def decompose_disparity_change(cmp: PositiveSumComparison) -> ChangeNarrative:
    """Name the sign pattern behind a disparity change.

    The comparison's epsilon is the zero band: deltas within +/-epsilon count
    as "stayed the same". A lone mover's kind is ``_LONE[direction, whether it
    held the extreme baseline AUROC]``: the highest for a rise, the lowest for a
    fall, ties count. When every group moved one way it is ``_EVERY[direction,
    whether the deltas' spread is within epsilon]``. Anything else is mixed:
    some groups rose and some fell, or several moved one way while others stayed.
    """
    eps = cmp.epsilon
    included = [d for d in cmp.group_deltas if d.jointly_included]
    if len(included) < 2:
        raise ValueError("disparity-change decomposition needs >= 2 jointly included groups")
    signs = {
        d.group_id: (1 if d.delta > eps else -1 if d.delta < -eps else 0) for d in included
    }
    moved = [d for d in included if signs[d.group_id]]
    way = sum({signs[d.group_id] for d in moved})  # +1 or -1 if every mover went that way, else 0
    if not moved:
        kind = NarrativeKind.NO_CHANGE
    elif not way or 1 < len(moved) < len(included):
        kind = NarrativeKind.MIXED
    elif len(moved) == 1:
        base = [d.baseline_auroc for d in included]
        kind = _LONE[way, moved[0].baseline_auroc == (max(base) if way > 0 else min(base))]
    else:
        values = [d.delta for d in included]
        kind = _EVERY[way, max(values) - min(values) <= eps]
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


@dataclass(frozen=True)
class StudyComparison:
    """``compare_study``'s result. ``summaries`` maps each model id, the baseline
    first, to its point summary per finding. ``comparisons`` runs candidate by
    candidate, finding by finding, with ``verdicts`` and ``narratives`` (None
    below two jointly included groups) beside it; ``unevaluated`` lists
    (candidate_id, finding_id, reason) per pair with no jointly included group.
    """

    summaries: dict[str, tuple[FairnessSummary, ...]]
    comparisons: tuple[PositiveSumComparison, ...]
    narratives: tuple[ChangeNarrative | None, ...]
    verdicts: tuple[GateVerdict, ...]
    unevaluated: tuple[tuple[str, str, str], ...]
    pareto: dict[str, list[str]]  # finding -> pareto_select front
    macro_deltas: dict[str, tuple[float, float]]  # candidate -> mean (overall, min group) delta
    all_promoted: bool


def compare_study(study: AlignedStudy, policy: InclusionPolicy = InclusionPolicy(),
                  boot: BootstrapConfig = BootstrapConfig(),
                  gate_policy: GatePolicy = GatePolicy()) -> StudyComparison:
    """Every candidate against the baseline on every finding, as ``psfair compare``
    reports it: each comparison is ``compare``'s at ``gate_policy.epsilon``, with
    delta CIs only under ``gate_policy.conservative_ci``, and ``gate``'s verdict.
    ``all_promoted`` holds only if every pair was evaluated and promotes.
    """
    models = (study.baseline, *study.candidates)
    passes = [_FindingPass(models, f, policy, boot if gate_policy.conservative_ci else None)
              for f in study.findings]
    cmps, unevaluated = [], []
    for k, cand in enumerate(study.candidates, 1):
        for p in passes:
            if p.kept:
                cmps.append(_comparison(p, k, gate_policy.epsilon))
            else:
                unevaluated.append((cand.model_id, p.finding, _no_group(p)))
    verdicts = tuple(gate(c, gate_policy) for c in cmps)
    by_finding = {f: [c for c in cmps if c.finding_id == f] for f in study.findings}
    by_cand = {m.model_id: [c for c in cmps if c.candidate_id == m.model_id]
               for m in study.candidates}
    return StudyComparison(
        summaries={m.model_id: tuple(p.summary(i) for p in passes) for i, m in enumerate(models)},
        comparisons=tuple(cmps),
        narratives=tuple(None if c.disparity_change is None else decompose_disparity_change(c)
                         for c in cmps),
        verdicts=verdicts, unevaluated=tuple(unevaluated),
        pareto={f: pareto_select(own) for f, own in by_finding.items() if own},
        macro_deltas={cid: (sum(c.overall_delta for c in own) / len(own),
                            sum(c.min_group_delta for c in own) / len(own))
                      for cid, own in by_cand.items() if own},
        all_promoted=not unevaluated and all(v.promote for v in verdicts))

