"""Property tests for the invariants reports depend on.

Examples are derandomized, so every run checks the same cases.
"""

import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from psfair.cli import main
from psfair.cohort import InclusionPolicy, IngestError, align, emit, ingest
from psfair.metrics import BootstrapConfig, summarize
from psfair.positive_sum import (Classification, GatePolicy, GroupDelta, NarrativeKind,
                                 PositiveSumComparison, compare, decompose_disparity_change,
                                 gate)
from psfair.synth import CandidateSpec, GroupRecipe, ScenarioSpec, build_study, load_scenario
from conftest import make_set
from reference import scenario_to_dict

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
HEADER = "example_id,finding,label,score,group\n"
SMALL_POLICY = ["--min-pos", "2", "--min-neg", "2", "--bootstrap-n", "10"]

# Few distinct levels force ties; free floats cover the continuous case.
scores = st.one_of(st.integers(0, 4).map(float),
                   st.floats(-5, 5, allow_nan=False, allow_infinity=False))


@st.composite
def paired_rows(draw):
    """(example, finding, label, baseline score, candidate score, group) rows.

    Every (finding, group) cell has at least one positive and one negative.
    """
    findings = draw(st.lists(st.sampled_from(["f1", "f2", "f3"]), min_size=1, max_size=2,
                             unique=True))
    groups = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3,
                           unique=True))
    rows = []
    for f in findings:
        for g in groups:
            n_pos, n_neg = draw(st.integers(1, 6)), draw(st.integers(1, 6))
            for i in range(n_pos + n_neg):
                rows.append((f"{g}{i}", f, int(i < n_pos), draw(scores), draw(scores), g))
    return rows


def write(path: Path, rows, column: int) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(HEADER + "".join(
        f"{r[0]},{r[1]},{r[2]},{r[column]!r},{r[5]}\n" for r in rows))
    return path


def reports(folder: Path, rows) -> tuple[bytes, bytes, int]:
    base, cand = write(folder / "base.csv", rows, 3), write(folder / "cand.csv", rows, 4)
    audit, cmp = folder / "audit.json", folder / "compare.json"
    assert main(["audit", str(base), "--out", str(audit), *SMALL_POLICY]) == 0
    rc = main(["compare", "--baseline", str(base), "--candidate", str(cand),
               "--conservative-ci", "--out", str(cmp), *SMALL_POLICY])
    return audit.read_bytes(), cmp.read_bytes(), rc


@PROPERTY
@given(paired_rows(), st.randoms(use_true_random=False))
def test_reports_invariant_to_row_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    with tempfile.TemporaryDirectory() as tmp:
        assert reports(Path(tmp) / "a", rows) == reports(Path(tmp) / "b", shuffled)


# Ids holding every delimiter, quotes, CR, LF and non-ASCII text, and some
# starting or ending with whitespace, which ingest would strip from a file.
ids = st.text(alphabet="ab,\t; \"\r\né1-", min_size=1, max_size=4)


@st.composite
def prediction_rows(draw):
    # Few sets of ten or more ids have none padded, so half the sets strip theirs.
    id_ = ids if draw(st.booleans()) else ids.map(str.strip).filter(len)
    examples = draw(st.lists(id_, min_size=2, max_size=8, unique=True))
    findings = draw(st.lists(id_, min_size=1, max_size=3, unique=True))
    group_of = {e: draw(id_) for e in examples}
    rows = []
    for f in findings:
        labels = [1, 0] + draw(st.lists(st.integers(0, 1), min_size=len(examples) - 2,
                                        max_size=len(examples) - 2))
        rows += [
            (e, f, y, draw(st.floats(allow_nan=False, allow_infinity=False)), group_of[e])
            for e, y in zip(examples, labels)
        ]
    return draw(st.permutations(rows))


@settings(PROPERTY, max_examples=50)
@given(prediction_rows(), st.sampled_from([",", "\t", ";", " "]))
def test_ingest_emit_identity(rows, delimiter):
    if any(s != s.strip() for e, f, _, _, g in rows for s in (e, f, g)):
        with pytest.raises(IngestError, match=r"^row \d+: \w+ must not start or end with "):
            make_set("m", rows)
        return
    pset = make_set("m", rows)
    text = io.StringIO()
    emit(pset, text, delimiter=delimiter)
    again = ingest(io.StringIO(text.getvalue()), "m", delimiter=delimiter)
    assert again == pset
    retext = io.StringIO()
    emit(again, retext, delimiter=delimiter)
    assert retext.getvalue() == text.getvalue()


@PROPERTY
@given(paired_rows(), st.randoms(use_true_random=False))
def test_score_identical_candidate_has_zero_deltas(rows, rnd):
    base = [(e, f, y, b, g) for e, f, y, b, _, g in rows]
    baseline = make_set("base", base)
    rnd.shuffle(base)
    study = align(baseline, [make_set("same", base)])
    boot = BootstrapConfig(n_resamples=10)
    for finding in study.findings:
        cmp = compare(study, finding, "same", InclusionPolicy(1, 1), boot, conservative=True)
        assert cmp.overall_delta == 0.0 and cmp.min_group_delta == 0.0
        assert all(d.delta == 0.0 for d in cmp.group_deltas)
        assert cmp.disparity_change in (0.0, None)
        assert cmp.overall_delta_ci == (0.0, 0.0) and cmp.min_group_delta_ci == (0.0, 0.0)
        assert gate(cmp, GatePolicy(conservative_ci=True)).promote


def study_of(rows):
    """The baseline (column 3) and candidate "cand" (column 4) of paired rows."""
    base = [(e, f, y, b, g) for e, f, y, b, _, g in rows]
    cand = [(e, f, y, c, g) for e, f, y, _, c, g in rows]
    return align(make_set("base", base), [make_set("cand", cand)])


@PROPERTY
@given(paired_rows(), st.floats(0, 0.5), st.floats(0, 0.5))
def test_gate_promotion_monotone_in_epsilon(rows, e1, e2):
    low, high = sorted((e1, e2))
    study = study_of(rows)
    boot = BootstrapConfig(n_resamples=10)
    for finding in study.findings:
        cmp = compare(study, finding, "cand", InclusionPolicy(1, 1), boot, conservative=True)
        for conservative_ci in (False, True):
            if gate(cmp, GatePolicy(epsilon=low, conservative_ci=conservative_ci)).promote:
                assert gate(cmp, GatePolicy(epsilon=high, conservative_ci=conservative_ci)).promote


@PROPERTY
@given(paired_rows(), st.sampled_from([0.0, 0.01, 0.1]))
def test_point_gate_agrees_with_classification(rows, epsilon):
    # epsilon 0.0 is the default of both compare and GatePolicy.
    study = study_of(rows)
    for finding in study.findings:
        cmp = compare(study, finding, "cand", InclusionPolicy(1, 1), epsilon=epsilon)
        assert (gate(cmp, GatePolicy(epsilon=epsilon)).promote
                == (cmp.classification is Classification.NON_HARMFUL))


def narrative_kinds(deltas, baselines, eps):
    """Every kind whose definition holds for these group deltas and baseline AUROCs."""
    up, down = [d > eps for d in deltas], [d < -eps for d in deltas]
    spread = max(deltas) - min(deltas)
    lone_up, lone_down = sum(up) == 1 and not any(down), sum(down) == 1 and not any(up)
    mover = baselines[(up if lone_up else down).index(True)] if lone_up or lone_down else None
    holds = {
        NarrativeKind.NO_CHANGE: not any(up) and not any(down),
        NarrativeKind.ADVANTAGED_IMPROVED: lone_up and mover >= max(baselines),
        NarrativeKind.OTHER_GROUP_IMPROVED: lone_up and mover < max(baselines),
        NarrativeKind.WORST_GROUP_DECLINED: lone_down and mover <= min(baselines),
        NarrativeKind.OTHER_GROUP_DECLINED: lone_down and mover > min(baselines),
        NarrativeKind.ALL_IMPROVED_EVENLY: all(up) and spread <= eps,
        NarrativeKind.ALL_IMPROVED_UNEVENLY: all(up) and spread > eps,
        NarrativeKind.ALL_DECLINED_EVENLY: all(down) and spread <= eps,
        NarrativeKind.ALL_DECLINED_UNEVENLY: all(down) and spread > eps,
        NarrativeKind.MIXED: sum(up) + sum(down) >= 2 and not all(up) and not all(down),
    }
    return {kind for kind, holds_here in holds.items() if holds_here}


@st.composite
def group_moves(draw):
    """(deltas, baseline AUROCs, epsilon) of 2-6 groups. Deltas cluster around a
    shared shift so that even moves are common; levels repeat so ties are too."""
    n = draw(st.integers(2, 6))
    shift = draw(st.floats(-0.1, 0.1))
    deltas = [draw(st.one_of(st.just(0.0), st.floats(-0.1, 0.1),
                             st.floats(-0.02, 0.02).map(lambda d: shift + d)))
              for _ in range(n)]
    levels = st.one_of(st.sampled_from([0.6, 0.7, 0.8]), st.floats(0.5, 1.0))
    return deltas, [draw(levels) for _ in range(n)], draw(st.floats(0, 0.05))


@settings(PROPERTY, max_examples=500)
@given(group_moves())
def test_exactly_one_narrative_kind_holds(moves):
    deltas, baselines, eps = moves
    cmp = PositiveSumComparison(
        "f", "cand", 0.0, tuple(GroupDelta(f"g{i}", b, b + d, d, True)
                                for i, (d, b) in enumerate(zip(deltas, baselines))),
        min(deltas), "g0", Classification.NON_HARMFUL, 0.0, eps)
    assert narrative_kinds(deltas, baselines, eps) == {decompose_disparity_change(cmp).kind}


@st.composite
def scenarios(draw):
    names = draw(st.lists(st.sampled_from(["g1", "g2", "g10"]), min_size=1, max_size=3,
                          unique=True))
    aucs = st.floats(0.55, 0.9)
    recipes = tuple(GroupRecipe(g, draw(st.integers(5, 25)), draw(st.integers(5, 25)),
                                draw(aucs)) for g in names)
    overrides = {names[0]: draw(aucs)}
    return ScenarioSpec("p", recipes, (CandidateSpec("cand", overrides),),
                        draw(st.integers(0, 2**32)), "f")


@st.composite
def accepted_specs(draw):
    """Any spec the constructors accept, over the whole range of each field."""
    ids = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    aucs = st.floats(0, 1, exclude_min=True, exclude_max=True)
    try:
        recipes = tuple(GroupRecipe(g, draw(st.integers(1, 2**40)), draw(st.integers(1, 2**40)),
                                    draw(aucs)) for g in ids)
        candidates = tuple(CandidateSpec(m, draw(st.dictionaries(st.sampled_from(ids), aucs)))
                           for m in draw(st.lists(st.text(min_size=1, max_size=4), max_size=3)))
        return ScenarioSpec(draw(st.text(max_size=4)), recipes, candidates,
                            draw(st.integers(0, 2**64 - 1)), draw(st.text(max_size=4)))
    except ValueError:
        assume(False)


@PROPERTY
@given(accepted_specs())
def test_accepted_spec_survives_its_scenario_file(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(spec)))
        assert load_scenario(path) == spec


@PROPERTY
@given(scenarios(), st.integers(0, 1000))
def test_in_memory_study_matches_gen_then_ingest(spec, seed):
    study = build_study(spec)
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(scenario_to_dict(spec)))
        assert main(["gen", str(scenario), "--out-dir", tmp]) == 0
        baseline = ingest(Path(tmp) / "baseline.csv", "baseline")
        on_disk = align(baseline, [ingest(Path(tmp) / "cand.csv", "cand")])
    boot = BootstrapConfig(n_resamples=20, seed=seed)
    for memory, disk in ((study.baseline, on_disk.baseline),
                         (study.candidates[0], on_disk.candidates[0])):
        assert summarize(memory, "f", boot=boot) == summarize(disk, "f", boot=boot)
    assert (compare(study, "f", "cand", boot=boot, conservative=True)
            == compare(on_disk, "f", "cand", boot=boot, conservative=True))


def test_overall_delta_ci_ignores_which_groups_are_included(tmp_path):
    # Raising --min-pos drops group "c"; the pooled cell's CI must not move.
    spec = ScenarioSpec("drop", (GroupRecipe("a", 30, 30, 0.7), GroupRecipe("b", 30, 30, 0.75),
                                 GroupRecipe("c", 8, 30, 0.8)),
                        (CandidateSpec("cand", {"a": 0.78, "c": 0.7}),), 5, "f")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_to_dict(spec)))
    assert main(["gen", str(scenario), "--out-dir", str(tmp_path)]) == 0
    comparisons = []
    for min_pos in ("5", "10"):
        out = tmp_path / f"compare-{min_pos}.json"
        main(["compare", "--baseline", str(tmp_path / "baseline.csv"), "--candidate",
              str(tmp_path / "cand.csv"), "--conservative-ci", "--bootstrap-n", "50",
              "--min-pos", min_pos, "--out", str(out)])
        (cmp,) = json.loads(out.read_text())["comparisons"]
        comparisons.append(cmp)
    kept, dropped = comparisons
    included = [[d["jointly_included"] for d in c["group_deltas"]] for c in comparisons]
    assert included == [[True, True, True], [True, True, False]]
    assert kept["overall_delta"] == dropped["overall_delta"]
    assert kept["overall_delta_ci"] == dropped["overall_delta_ci"]
