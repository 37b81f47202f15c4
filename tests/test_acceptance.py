"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not calibrated elsewhere.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from psfair.cli import main
from psfair.cohort import InclusionPolicy
from psfair.metrics import BootstrapConfig, summarize
from psfair.positive_sum import (
    Classification,
    GatePolicy,
    classify,
    compare,
    gate,
    pareto_select,
)
from psfair.synth import build_study, preset
from conftest import auroc, group_rows, make_set, random_instance
from reference import oracle_auroc
from test_positive_sum import brute_force_front, make_cmp


def _report(name: str, ok: bool) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_auroc_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    ok = True
    for _ in range(1000):
        pos, neg = random_instance(rng, max_records=200)
        ok = ok and auroc(pos, neg) == oracle_auroc(pos, neg)
    elapsed = time.monotonic() - start
    _report("auroc-oracle-equivalence (1000 instances, exact)", ok and elapsed < 10.0)


def test_rank_invariance_and_complement_symmetry():
    rng = np.random.default_rng(2025)
    ok = True
    for _ in range(500):
        pos, neg = random_instance(rng, max_records=120)
        base = auroc(pos, neg)
        ok = ok and auroc(np.exp(pos), np.exp(neg)) == base
        ok = ok and auroc(3.0 * np.asarray(pos) - 1.0, 3.0 * np.asarray(neg) - 1.0) == base
    for _ in range(500):
        pos, neg = random_instance(rng, max_records=120)
        p, n = np.asarray(pos), np.asarray(neg)
        diff = p[:, None] - n[None, :]
        exact = Fraction(2 * int((diff > 0).sum()) + int((diff == 0).sum()),
                         2 * p.size * n.size)
        ok = ok and auroc(pos, neg) == float(exact)
        ok = ok and auroc(-p, -n) == float(1 - exact)
    _report("rank-invariance and complement-symmetry (500 each, exact)", ok)


def test_binormal_calibration():
    from psfair.synth import GroupRecipe, ScenarioSpec

    start = time.monotonic()
    ok = True
    for i, target in enumerate((0.55, 0.65, 0.75, 0.85, 0.95)):
        spec = ScenarioSpec("g", (GroupRecipe("g", 100_000, 100_000, target),), (), 100 + i)
        pset = build_study(spec).baseline
        pos, neg = pset.score[pset.label == 1], pset.score[pset.label == 0]
        ok = ok and abs(auroc(pos, neg) - target) < 0.01
    elapsed = time.monotonic() - start
    _report("binormal-calibration (targets 0.55..0.95, +/-0.01)", ok and elapsed < 30.0)


def test_inclusion_rule_boundary():
    rows = group_rows("f", "four_pos", [0.9] * 4, [0.1] * 100)
    rows += group_rows("f", "five_five", [0.9] * 5, [0.1] * 5)
    perf = {g.group_id: g for g in summarize(make_set("m", rows), "f").per_group}
    ok = (not perf["four_pos"].included) and perf["five_five"].included
    ok = ok and perf["four_pos"].ci_low is None
    _report("inclusion-rule boundary (4 pos excluded, 5/5 included)", ok)


def test_fairness_score_definition():
    # constructed per-group AUROCs: a=0.80, b=0.70, c=0.75 exactly
    rows = []
    for g, k in (("a", 4), ("b", 6), ("c", 5)):
        rows += group_rows("f", g, [1.0] * 20, [2.0] * k + [0.0] * (20 - k))
    s = summarize(make_set("m", rows), "f")
    aurocs = {g.group_id: g.auroc for g in s.per_group}
    ok = aurocs == {"a": 0.80, "b": 0.70, "c": 0.75}
    ok = ok and s.fairness_score == 1.0 - (max(aurocs.values()) - min(aurocs.values()))
    ok = ok and s.worst_group == "b"
    _report("fairness-score = 1 - (max - min) AUROC, full precision", ok)


def test_classification_gate_coherence_grid():
    grid = [round(-0.1 + 0.005 * i, 10) for i in range(41)]
    ok = True
    for eps in (0.0, 0.01):
        for od in grid:
            for mgd in grid:
                cls = classify(od, mgd, eps)
                ok = ok and isinstance(cls, Classification)
                # totality: membership is exhaustive and deterministic
                ok = ok and classify(od, mgd, eps) is cls
        for od in grid:
            for mgd in grid:
                cmp = make_cmp(od, mgd)  # classification at eps=0 defaults
                promote = gate(cmp, GatePolicy()).promote
                ok = ok and promote == (
                    classify(od, mgd, 0.0) is Classification.NON_HARMFUL
                )
    _report("classification totality + gate coherence on delta grid", ok)


def test_scenario_reproduction():
    start = time.monotonic()
    hits = {"m2_like": 0, "m4_like": 0}
    for seed in range(100):
        study = build_study(preset("m2_like", seed=seed))
        c = compare(study, "lung_lesion", "m2")
        if c.classification is Classification.NON_HARMFUL and c.disparity_change > 0:
            hits["m2_like"] += 1
        study = build_study(preset("m4_like", seed=seed))
        c = compare(study, "lung_lesion", "m4")
        if c.classification is Classification.HARMFUL_TO_SUBGROUP and c.disparity_change < 0:
            hits["m4_like"] += 1
    elapsed = time.monotonic() - start
    ok = hits["m2_like"] >= 95 and hits["m4_like"] >= 95 and elapsed < 120.0
    _report(
        f"scenario-reproduction (m2 {hits['m2_like']}/100, m4 {hits['m4_like']}/100)", ok
    )


def test_pareto_matches_brute_force():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(500):
        k = int(rng.integers(1, 21))
        cmps = [
            make_cmp(float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1)), f"c{i:02d}")
            for i in range(k)
        ]
        points = {c.candidate_id: (c.overall_delta, c.min_group_delta) for c in cmps}
        ok = ok and pareto_select(cmps) == brute_force_front(points)
    _report("pareto-selection equals brute-force oracle (500 instances)", ok)


def test_bootstrap_determinism_and_ci_sanity():
    rng = np.random.default_rng(88)
    ok = True
    for trial in range(100):
        rows = []
        for g in ("a", "b"):
            n_pos = int(rng.integers(5, 40))
            n_neg = int(rng.integers(5, 40))
            rows += group_rows(
                "f", g, list(rng.normal(0.6, 1, n_pos)), list(rng.normal(0, 1, n_neg))
            )
        pset = make_set("m", rows)
        boot = BootstrapConfig(n_resamples=60, seed=trial)
        first = summarize(pset, "f", boot=boot).per_group
        second = summarize(pset, "f", boot=boot).per_group
        ok = ok and first == second
        for g in first:
            if g.included:
                ok = ok and g.ci_low <= g.auroc <= g.ci_high
    _report("bootstrap determinism + CI sanity (100 cohorts)", ok)


def test_end_to_end_determinism(tmp_path, capsys):
    reports = []
    for run in ("one", "two"):
        data = tmp_path / run / "data"
        report = tmp_path / run / "report.json"
        report.parent.mkdir(parents=True, exist_ok=True)
        assert main(["gen", "m2_like", "--out-dir", str(data), "--seed", "7"]) == 0
        rc = main([
            "compare", "--baseline", str(data / "baseline.csv"),
            "--candidate", str(data / "m2.csv"),
            "--seed", "11", "--out", str(report),
        ])
        assert rc == 0
        reports.append(report.read_bytes())
    ok = reports[0] == reports[1] and json.loads(reports[0])["report_type"] == "compare"
    _report("end-to-end determinism (gen -> compare, byte-identical JSON)", ok)
