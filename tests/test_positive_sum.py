import json
from pathlib import Path

import numpy as np
import pytest

from psfair.cohort import InclusionPolicy, align
from psfair.positive_sum import (
    Classification,
    GatePolicy,
    NarrativeKind,
    PositiveSumComparison,
    classify,
    compare,
    decompose_disparity_change,
    gate,
    pareto_select,
)
from conftest import group_rows, make_set, set_rows

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_cmp(overall_delta, min_group_delta, candidate_id="c", finding="f",
             epsilon=0.0, group_deltas=()):
    return PositiveSumComparison(
        finding_id=finding,
        candidate_id=candidate_id,
        overall_delta=overall_delta,
        group_deltas=tuple(group_deltas),
        min_group_delta=min_group_delta,
        min_group="g",
        classification=classify(overall_delta, min_group_delta, epsilon),
        disparity_change=None,
        epsilon=epsilon,
    )


def study_from_group_aurocs(base_aurocs, cand_aurocs, n=20):
    """Groups with exact AUROCs: k of n negatives lifted above the positives."""
    def rows(aurocs, prefix=""):
        out = []
        for g, auc in aurocs.items():
            k = round((1 - auc) * n)
            out += group_rows("f", g, [1.0] * n, [2.0] * k + [0.0] * (n - k))
        return out

    base = make_set("baseline", rows(base_aurocs))
    cand = make_set("cand", rows(cand_aurocs))
    return align(base, [cand])


class TestClassify:
    def test_non_harmful(self):
        assert classify(0.02, 0.0) is Classification.NON_HARMFUL

    def test_harmful_to_subgroup(self):
        assert classify(0.02, -0.05) is Classification.HARMFUL_TO_SUBGROUP

    def test_harmful_to_overall(self):
        assert classify(-0.02, 0.01) is Classification.HARMFUL_TO_OVERALL

    def test_harmful_both(self):
        assert classify(-0.02, -0.01) is Classification.HARMFUL_BOTH

    def test_epsilon_band(self):
        assert classify(-0.01, -0.01, epsilon=0.02) is Classification.NON_HARMFUL
        assert classify(-0.03, 0.0, epsilon=0.02) is Classification.HARMFUL_TO_OVERALL

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.01])
    def test_rejects_nonfinite_or_negative_epsilon(self, epsilon):
        # A NaN band fails every comparison, so the gate would pass every delta.
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            classify(-0.02, -0.01, epsilon)
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            GatePolicy(epsilon=epsilon)
        # A comparison's epsilon is also its narrative's zero band.
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            PositiveSumComparison("f", "c", 0.0, (), 0.0, "g", Classification.NON_HARMFUL,
                                  None, epsilon=epsilon)


@pytest.mark.parametrize("field,value", [
    ("epsilon", True), ("epsilon", "0.01"), ("epsilon", None),
    ("conservative_ci", "no"), ("conservative_ci", 1), ("conservative_ci", None),
])
def test_gate_policy_field_types(field, value):
    # conservative_ci="no" is truthy, so the gate used to classify the CIs.
    with pytest.raises(ValueError, match=f"^{field} must be (a number|a bool), got"):
        GatePolicy(**{field: value})
    assert GatePolicy(epsilon=0, conservative_ci=True).epsilon == 0
    assert GatePolicy(epsilon=np.float64(0.01)).epsilon == 0.01


class TestCompare:
    def test_advantaged_group_improved(self):
        study = study_from_group_aurocs({"A": 0.7, "B": 0.7}, {"A": 0.8, "B": 0.7})
        cmp = compare(study, "f", "cand", InclusionPolicy())
        assert cmp.overall_delta > 0
        assert cmp.min_group_delta == 0.0
        assert cmp.classification is Classification.NON_HARMFUL
        assert cmp.disparity_change == pytest.approx(0.1)

    def test_identity_candidate(self):
        study = study_from_group_aurocs({"A": 0.7, "B": 0.75}, {"A": 0.7, "B": 0.75})
        cmp = compare(study, "f", "cand")
        assert cmp.overall_delta == 0.0
        assert all(d.delta == 0.0 for d in cmp.group_deltas)
        assert cmp.classification is Classification.NON_HARMFUL
        assert decompose_disparity_change(cmp).kind is NarrativeKind.NO_CHANGE

    def test_harmful_to_subgroup(self):
        study = study_from_group_aurocs({"A": 0.7, "B": 0.7}, {"A": 0.8, "B": 0.65})
        cmp = compare(study, "f", "cand")
        assert cmp.overall_delta > 0
        assert cmp.min_group_delta == pytest.approx(-0.05)
        assert cmp.min_group == "B"
        assert cmp.classification is Classification.HARMFUL_TO_SUBGROUP

    def test_unknown_candidate(self):
        study = study_from_group_aurocs({"A": 0.7}, {"A": 0.7})
        with pytest.raises(Exception, match="unknown candidate"):
            compare(study, "f", "nope")

    def test_no_jointly_included_group(self):
        study = study_from_group_aurocs({"A": 0.7}, {"A": 0.8}, n=3)
        with pytest.raises(ValueError, match="no jointly included group"):
            compare(study, "f", "cand")

    def test_antisymmetry(self):
        a = study_from_group_aurocs({"A": 0.7, "B": 0.8}, {"A": 0.75, "B": 0.7})
        fwd = compare(a, "f", "cand")
        b = align(a.candidates[0], [a.baseline])
        rev = compare(b, "f", "baseline")
        assert rev.overall_delta == -fwd.overall_delta
        fwd_by_group = {d.group_id: d.delta for d in fwd.group_deltas}
        for d in rev.group_deltas:
            assert d.delta == -fwd_by_group[d.group_id]

    def test_rank_invariance_of_deltas(self):
        study = study_from_group_aurocs({"A": 0.7, "B": 0.8}, {"A": 0.75, "B": 0.85})
        cmp = compare(study, "f", "cand")
        # monotone transform of the candidate's scores only
        warped = make_set(
            "cand",
            [(e, f, y, float(np.exp(s)), g) for e, f, y, s, g in set_rows(study.candidates[0])],
        )
        cmp2 = compare(align(study.baseline, [warped]), "f", "cand")
        assert cmp2.overall_delta == cmp.overall_delta
        assert [d.delta for d in cmp2.group_deltas] == [d.delta for d in cmp.group_deltas]

    def test_conservative_attaches_cis(self):
        study = study_from_group_aurocs({"A": 0.7, "B": 0.8}, {"A": 0.75, "B": 0.85})
        cmp = compare(study, "f", "cand", conservative=True)
        lo, hi = cmp.overall_delta_ci
        assert lo <= hi
        assert cmp.min_group_delta_ci is not None


class TestGate:
    def test_promote_on_gains(self):
        v = gate(make_cmp(0.02, 0.0))
        assert v.promote and v.reasons == ()

    def test_reject_group_loss(self):
        v = gate(make_cmp(0.02, -0.01))
        assert not v.promote
        assert any("group-loss" in r for r in v.reasons)

    def test_epsilon_tolerance(self):
        assert gate(make_cmp(0.02, -0.01), GatePolicy(epsilon=0.02)).promote

    def test_reject_lists_all_violations(self):
        v = gate(make_cmp(-0.05, -0.05))
        assert len(v.reasons) == 2

    def test_coherence_with_classification(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            od, mgd = rng.uniform(-0.1, 0.1, 2)
            cmp = make_cmp(od, mgd)
            assert gate(cmp).promote == (cmp.classification is Classification.NON_HARMFUL)

    def test_conservative_gate_uses_ci(self):
        cmp = PositiveSumComparison(
            "f", "c", overall_delta=0.01, group_deltas=(), min_group_delta=-0.02,
            min_group="g", classification=classify(0.01, -0.02), disparity_change=None,
            min_group_delta_ci=(-0.05, 0.01), overall_delta_ci=(0.0, 0.02),
        )
        # CI straddles zero: not a confident harm, so the conservative gate promotes
        assert gate(cmp, GatePolicy(conservative_ci=True)).promote
        assert not gate(cmp, GatePolicy()).promote

    def test_conservative_gate_without_cis_raises(self):
        # Gating on point deltas instead would report conservative_ci it never applied.
        cmp = compare(study_from_group_aurocs({"A": 0.7, "B": 0.8}, {"A": 0.6, "B": 0.8}),
                      "f", "cand")
        with pytest.raises(ValueError, match=r"compare\(\.\.\., conservative=True\)"):
            gate(cmp, GatePolicy(conservative_ci=True))


class TestDecompose:
    def _cmp_with_deltas(self, deltas, epsilon=0.0, baselines=None):
        from psfair.positive_sum import GroupDelta

        gds = [
            GroupDelta(f"g{i}", b, b + d, d, True)
            for i, (d, b) in enumerate(zip(deltas, baselines or [0.7] * len(deltas)))
        ]
        worst = min(deltas)
        return make_cmp(sum(deltas) / len(deltas), worst, epsilon=epsilon,
                        group_deltas=gds)

    def test_advantaged_improved(self):
        cmp = self._cmp_with_deltas([0.1, 0.0, 0.0])
        assert decompose_disparity_change(cmp).kind is NarrativeKind.ADVANTAGED_IMPROVED

    def test_all_improved_unevenly(self):
        cmp = self._cmp_with_deltas([0.05, 0.02, 0.08])
        assert decompose_disparity_change(cmp).kind is NarrativeKind.ALL_IMPROVED_UNEVENLY

    def test_no_change(self):
        cmp = self._cmp_with_deltas([0.0, 0.0])
        assert decompose_disparity_change(cmp).kind is NarrativeKind.NO_CHANGE

    def test_worst_group_declined(self):
        cmp = self._cmp_with_deltas([0.0, -0.04, 0.0])
        assert decompose_disparity_change(cmp).kind is NarrativeKind.WORST_GROUP_DECLINED

    def test_all_declined(self):
        cmp = self._cmp_with_deltas([-0.02, -0.05])
        assert decompose_disparity_change(cmp).kind is NarrativeKind.ALL_DECLINED_UNEVENLY

    def test_mixed(self):
        cmp = self._cmp_with_deltas([0.05, -0.05, 0.0])
        assert decompose_disparity_change(cmp).kind is NarrativeKind.MIXED

    def test_even_improvement_is_all_improved_evenly(self):
        # Every group rose, within epsilon of each other: not "mixed".
        cmp = self._cmp_with_deltas([0.030, 0.031, 0.032], epsilon=0.01)
        assert decompose_disparity_change(cmp).kind is NarrativeKind.ALL_IMPROVED_EVENLY

    def test_even_decline_is_all_declined_evenly(self):
        cmp = self._cmp_with_deltas([-0.030, -0.031, -0.032], epsilon=0.01)
        assert decompose_disparity_change(cmp).kind is NarrativeKind.ALL_DECLINED_EVENLY

    def test_lone_improver_with_lowest_baseline_is_other_group_improved(self):
        # The worst group at baseline alone gains: it was not the advantaged one.
        cmp = self._cmp_with_deltas([0.0416, 0.0, 0.0], baselines=[0.6913, 0.7483, 0.7741])
        assert decompose_disparity_change(cmp).kind is NarrativeKind.OTHER_GROUP_IMPROVED

    def test_lone_decliner_above_lowest_baseline_is_other_group_declined(self):
        cmp = self._cmp_with_deltas([0.0, -0.04, 0.0], baselines=[0.69, 0.75, 0.77])
        assert decompose_disparity_change(cmp).kind is NarrativeKind.OTHER_GROUP_DECLINED

    def test_lone_movers_at_the_baseline_extremes_keep_their_kinds(self):
        up = self._cmp_with_deltas([0.0, 0.0, 0.05], baselines=[0.69, 0.75, 0.77])
        down = self._cmp_with_deltas([-0.05, 0.0, 0.0], baselines=[0.69, 0.75, 0.77])
        assert decompose_disparity_change(up).kind is NarrativeKind.ADVANTAGED_IMPROVED
        assert decompose_disparity_change(down).kind is NarrativeKind.WORST_GROUP_DECLINED

    def test_epsilon_band_absorbs_noise(self):
        cmp = self._cmp_with_deltas([0.005, -0.005], epsilon=0.01)
        assert decompose_disparity_change(cmp).kind is NarrativeKind.NO_CHANGE

    def test_requires_two_groups(self):
        cmp = self._cmp_with_deltas([0.1])
        with pytest.raises(ValueError, match=">= 2"):
            decompose_disparity_change(cmp)

    def test_exactly_one_kind_fires(self, rng):
        # the rule chain is deterministic; spot-check over random delta vectors
        for _ in range(300):
            k = int(rng.integers(2, 6))
            deltas = list(rng.uniform(-0.05, 0.05, k))
            if rng.random() < 0.5:
                deltas = [0.0 if rng.random() < 0.5 else d for d in deltas]
            narrative = decompose_disparity_change(self._cmp_with_deltas(deltas))
            assert narrative.kind in NarrativeKind
            again = decompose_disparity_change(self._cmp_with_deltas(deltas))
            assert again.kind is narrative.kind


def test_readme_and_schema_list_every_verdict():
    # A compare report carries both verdicts; the README says what each value means.
    readme = (REPO_ROOT / "README.md").read_text()
    schema = json.loads((REPO_ROOT / "schemas" / "compare_report.schema.json").read_text())
    fields = schema["$defs"]["comparison"]["properties"]
    kinds = fields["narrative"]["oneOf"][1]["properties"]["kind"]["enum"]
    for enum, listed in ((Classification, fields["classification"]["enum"]), (NarrativeKind, kinds)):
        values = {member.value for member in enum}
        assert set(listed) == values
        assert sorted(v for v in values if f"`{v}`" not in readme) == []


def brute_force_front(points):
    """The candidates no other candidate weakly dominates: none is at least as
    good on both axes and better on one. Written out here, not taken from
    ``positive_sum``, so that the oracle cannot share a fault of the code."""
    return sorted(
        (
            cid
            for cid, p in points.items()
            if not any(q[0] >= p[0] and q[1] >= p[1] and (q[0] > p[0] or q[1] > p[1])
                       for o, q in points.items() if o != cid)
        ),
        key=lambda cid: (-points[cid][0], -points[cid][1], cid),
    )


class TestPareto:
    def test_given_example(self):
        cmps = [
            make_cmp(0.02, 0.01, "a"),
            make_cmp(0.01, 0.03, "b"),
            make_cmp(0.005, 0.0, "c"),
        ]
        assert pareto_select(cmps) == ["a", "b"]

    def test_single_candidate(self):
        assert pareto_select([make_cmp(-0.3, -0.4, "only")]) == ["only"]

    @pytest.mark.parametrize("worse", [(0.02, 0.0), (0.01, 0.01)])
    def test_tied_on_one_axis_and_worse_on_the_other_is_off_the_front(self, worse):
        cmps = [make_cmp(0.02, 0.01, "a"), make_cmp(*worse, "b")]
        assert pareto_select(cmps) == ["a"]

    def test_duplicate_points_both_kept(self):
        cmps = [make_cmp(0.01, 0.01, "a"), make_cmp(0.01, 0.01, "b")]
        assert pareto_select(cmps) == ["a", "b"]

    def test_mixed_findings_rejected(self):
        with pytest.raises(ValueError, match="mixes findings"):
            pareto_select([make_cmp(0, 0, "a", "f1"), make_cmp(0, 0, "b", "f2")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_select([])

    def test_matches_oracle_on_random_instances(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 21))
            cmps = [
                make_cmp(float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1)), f"c{i:02d}")
                for i in range(k)
            ]
            points = {c.candidate_id: (c.overall_delta, c.min_group_delta) for c in cmps}
            assert pareto_select(cmps) == brute_force_front(points)

    def test_matches_oracle_where_candidates_tie(self, rng):
        # Deltas on a grid of five values, so most instances tie on some axis.
        for _ in range(100):
            k = int(rng.integers(1, 21))
            deltas = rng.integers(-2, 3, (k, 2)) / 100
            cmps = [make_cmp(float(o), float(m), f"c{i:02d}") for i, (o, m) in enumerate(deltas)]
            points = {c.candidate_id: (c.overall_delta, c.min_group_delta) for c in cmps}
            assert pareto_select(cmps) == brute_force_front(points)


class TestPlotCoordinates:
    def test_no_change_at_origin(self):
        study = study_from_group_aurocs({"A": 0.7, "B": 0.8}, {"A": 0.7, "B": 0.8})
        cmp = compare(study, "f", "cand")
        assert (cmp.overall_delta, cmp.min_group_delta) == (0.0, 0.0)
