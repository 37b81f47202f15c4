"""Property tests for the invariants reports depend on.

Examples are derandomized, so every run checks the same cases.
"""

import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from psfair.cli import main
from psfair.cohort import InclusionPolicy, PredictionRecord, PredictionSet, align, emit, ingest
from psfair.metrics import BootstrapConfig, summarize
from psfair.positive_sum import GatePolicy, compare, gate
from psfair.synth import CandidateSpec, GroupRecipe, ScenarioSpec, build_study, scenario_to_dict

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


ids = st.text(alphabet="ab,\"é1-", min_size=1, max_size=4)


@st.composite
def prediction_sets(draw):
    examples = draw(st.lists(ids, min_size=2, max_size=8, unique=True))
    findings = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    group_of = {e: draw(ids) for e in examples}
    records = []
    for f in findings:
        labels = [1, 0] + draw(st.lists(st.integers(0, 1), min_size=len(examples) - 2,
                                        max_size=len(examples) - 2))
        records += [
            PredictionRecord(e, f, y, draw(st.floats(allow_nan=False, allow_infinity=False)),
                             group_of[e])
            for e, y in zip(examples, labels)
        ]
    return PredictionSet("m", draw(st.permutations(records)))


@PROPERTY
@given(prediction_sets(), st.sampled_from([",", "\t"]))
def test_ingest_emit_identity(pset, delimiter):
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
    records = [PredictionRecord(e, f, y, b, g) for e, f, y, b, _, g in rows]
    baseline = PredictionSet("base", records)
    rnd.shuffle(records)
    study = align(baseline, [PredictionSet("same", records)])
    boot = BootstrapConfig(n_resamples=10)
    for finding in study.findings:
        cmp = compare(study, finding, "same", InclusionPolicy(1, 1), boot, conservative=True)
        assert cmp.overall_delta == 0.0 and cmp.min_group_delta == 0.0
        assert all(d.delta == 0.0 for d in cmp.group_deltas)
        assert cmp.disparity_change in (0.0, None)
        assert cmp.overall_delta_ci == (0.0, 0.0) and cmp.min_group_delta_ci == (0.0, 0.0)
        assert gate(cmp, GatePolicy(conservative_ci=True)).promote


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
