"""audit and compare score each finding in one pass over every model.

The pass brackets each cell once per model and resamples each resampled cell
once for all models, on a stream keyed by the finding and the cell alone. So
the report's ``models`` block must equal the one-model ``summarize``, a
candidate's delta CIs must not depend on the other candidates passed with
it, and the library's ``compare`` must give the CLI's CIs. ``compare_study``
is the study-level verdict: its comparisons are ``compare``'s, its verdicts
``gate``'s, and its ``all_promoted`` is ``psfair compare``'s exit code.
Examples are derandomized, so every run checks the same cases.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from psfair import metrics, positive_sum
from psfair.cli import main
from psfair.cohort import InclusionPolicy, align, emit, ingest
from psfair.metrics import BootstrapConfig, summarize
from psfair.positive_sum import (
    GatePolicy, compare, compare_study, decompose_disparity_change, gate,
    pareto_select,
)
from psfair.synth import build_study, preset
from conftest import group_rows, make_set

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def multi_study(draw):
    """A baseline and 1-3 candidates over 1-2 findings of 1-4 groups; a group
    may lack one side, and its scores have few levels, so ties are common."""
    score = st.integers(0, 4).map(float)
    n_models = draw(st.integers(2, 4))
    rows = [[] for _ in range(n_models)]
    for f in draw(st.lists(st.sampled_from(["f1", "f2"]), min_size=1, max_size=2, unique=True)):
        labels = set()
        for g in draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True)):
            n_pos, n_neg = draw(st.integers(0, 7)), draw(st.integers(0, 7))
            for i in range(n_pos + n_neg):
                labels.add(int(i < n_pos))
                for model in rows:
                    model.append((f"{g}{i}", f, int(i < n_pos), draw(score), g))
        assume(labels == {0, 1})
    sets = [make_set(f"m{i}", model) for i, model in enumerate(rows)]
    return align(sets[0], sets[1:])


@PROPERTY
@given(multi_study(), st.integers(0, 4), st.integers(0, 4))
def test_models_block_is_summarize(study, min_pos, min_neg):
    policy = InclusionPolicy(min_pos, min_neg)
    models = (study.baseline, *study.candidates)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{m.model_id}.csv" for m in models]
        for m, path in zip(models, paths):
            emit(m, path)
        argv = ["compare", "--baseline", str(paths[0]), "--min-pos", str(min_pos),
                "--min-neg", str(min_neg), "--out", str(Path(tmp) / "report.json")]
        for path in paths[1:]:
            argv += ["--candidate", str(path)]
        main(argv)
        doc = json.loads((Path(tmp) / "report.json").read_text())
    for block, m in zip(doc["models"], models, strict=True):
        expected = []
        for f in study.findings:
            summary = dataclasses.asdict(summarize(m, f, policy, None))
            del summary["per_group"]
            expected.append(summary)
        assert block == {"model_id": m.model_id, "findings": expected}


@PROPERTY
@given(multi_study(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 12),
       st.integers(0, 2**32))
def test_candidate_cis_do_not_depend_on_the_others(study, min_pos, min_neg, n, seed):
    policy, boot = InclusionPolicy(min_pos, min_neg), BootstrapConfig(n, seed=seed)
    models = (study.baseline, *study.candidates)
    for finding in study.findings:
        scores = metrics._FindingPass(models, finding, policy, boot)
        for k, cand in enumerate(study.candidates, 1):
            try:
                alone = compare(study, finding, cand.model_id, policy, boot, conservative=True)
            except ValueError:
                assert not any(scores.included)
                continue
            assert positive_sum._comparison(scores, k, 0.0) == alone


@PROPERTY
@given(multi_study(), st.integers(0, 4), st.integers(0, 4), st.integers(1, 12),
       st.integers(0, 2**32), st.sampled_from([0.0, 0.1, 1.0]), st.booleans())
def test_compare_study_is_compare_gate_and_the_exit_code(study, min_pos, min_neg, n, seed,
                                                         epsilon, conservative):
    policy, boot = InclusionPolicy(min_pos, min_neg), BootstrapConfig(n, seed=seed)
    gate_policy = GatePolicy(epsilon, conservative)
    result = compare_study(study, policy, boot, gate_policy)
    models = (study.baseline, *study.candidates)
    assert result.summaries == {m.model_id: tuple(summarize(m, f, policy, None)
                                                  for f in study.findings) for m in models}
    cmps, unevaluated = [], []
    for cand in study.candidates:
        for f in study.findings:
            try:
                cmps.append(compare(study, f, cand.model_id, policy, boot, epsilon, conservative))
            except ValueError as exc:
                unevaluated.append((cand.model_id, f, str(exc)))
    assert result.comparisons == tuple(cmps)
    assert result.unevaluated == tuple(unevaluated)
    assert result.verdicts == tuple(gate(c, gate_policy) for c in cmps)
    assert result.narratives == tuple(
        decompose_disparity_change(c) if sum(d.jointly_included for d in c.group_deltas) >= 2
        else None for c in cmps)
    assert result.pareto == {f: pareto_select([c for c in cmps if c.finding_id == f])
                             for f in study.findings if any(c.finding_id == f for c in cmps)}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{m.model_id}.csv" for m in models]
        for m, path in zip(models, paths):
            emit(m, path)
        argv = ["compare", "--baseline", str(paths[0]), "--min-pos", str(min_pos),
                "--min-neg", str(min_neg), "--bootstrap-n", str(n), "--seed", str(seed),
                "--epsilon", str(epsilon), "--out", str(Path(tmp) / "report.json")]
        argv += ["--conservative-ci"] * conservative
        for path in paths[1:]:
            argv += ["--candidate", str(path)]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code == (0 if result.all_promoted else 1)


def test_compare_study_lists_an_unevaluated_pair_and_rejects():
    # Finding "f" has 4 positives and 4 negatives, so no group passes the 5/5
    # rule; on finding "h" the candidate equals the baseline and promotes.
    rows = group_rows("f", "g", [0.9, 0.8, 0.7, 0.6], [0.1, 0.2, 0.3, 0.4])
    same = group_rows("h", "g", [0.9] * 6, [0.1] * 6)
    study = align(make_set("base", rows + same),
                  [make_set("cand", [(e, f, y, -s, g) for e, f, y, s, g in rows] + same)])
    result = compare_study(study)
    reason = ("no jointly included group for finding 'f' under policy "
              "InclusionPolicy(min_positives=5, min_negatives=5)")
    assert result.unevaluated == (("cand", "f", reason),)
    assert [(c.candidate_id, c.finding_id) for c in result.comparisons] == [("cand", "h")]
    assert [v.promote for v in result.verdicts] == [True]
    assert result.all_promoted is False


def test_compare_study_raises_what_is_not_a_skip():
    # A pair is unevaluated only when its finding keeps no group. Any other
    # ValueError, here from classify, is a fault and must not read as a skip.
    with (mock.patch.object(positive_sum, "classify", side_effect=ValueError("boom")),
          pytest.raises(ValueError, match="^boom$")):
        compare_study(build_study(preset("m2_like")))


def write_study(folder):
    """Prediction files of a study_ci-shaped study: 3 models, 2 findings and
    5 groups of 8 positives and 12 negatives, so every group is admitted."""
    rng = np.random.default_rng(0)
    keys = [(f"{f}-g{g}-{i}", f, int(i < 8), f"g{g}")
            for f in ("edema", "effusion") for g in range(5) for i in range(20)]
    folder.mkdir()
    paths = []
    for m in range(3):
        rows = [(e, f, y, float(rng.normal(y)), g) for e, f, y, g in keys]
        paths.append(folder / f"m{m}.csv")
        emit(make_set(f"m{m}", rows), paths[-1])
    return paths


def run_compare(capsys, baseline, candidates, *flags):
    argv = ["compare", "--baseline", str(baseline), "--bootstrap-n", "30", *flags]
    for c in candidates:
        argv += ["--candidate", str(c)]
    main(argv)
    return json.loads(capsys.readouterr().out)


@contextlib.contextmanager
def counting():
    """Collect every ``_Brackets`` built and the model count of every ``_resample`` call."""
    built, draws = [], []
    init, resample = metrics._Brackets.__init__, metrics._resample

    def counting_init(self, pos, neg):
        built.append(self)
        init(self, pos, neg)

    def counting_resample(brackets, n_resamples, rng):
        draws.append(len(brackets))
        return resample(brackets, n_resamples, rng)

    with mock.patch.object(metrics._Brackets, "__init__", counting_init), \
            mock.patch.object(metrics, "_resample", counting_resample):
        yield built, draws


def test_study_brackets_each_cell_once_and_resamples_it_once(tmp_path, capsys):
    # 3 models x 2 findings x (pooled + 5 groups): 36 brackets, and one
    # resample call per finding's pooled and group cells: 12.
    baseline, *candidates = write_study(tmp_path / "s")
    with counting() as (built, draws):
        run_compare(capsys, baseline, candidates, "--conservative-ci")
    assert len(built) == 36
    assert draws == [3] * 12


def test_point_gated_compare_study_never_resamples(tmp_path):
    # desk_gate runs the point gate, which must not pay for the bootstrap.
    baseline, *candidates = [ingest(p, p.stem) for p in write_study(tmp_path / "s")]
    study = align(baseline, candidates)
    with counting() as (built, draws):
        result = compare_study(study, boot=BootstrapConfig(30))
    assert len(result.comparisons) == 4 and len(built) == 36
    assert draws == []
    with counting() as (built, draws):
        compare_study(study, boot=BootstrapConfig(30), gate_policy=GatePolicy(conservative_ci=True))
    assert draws == [3] * 12


def test_audit_brackets_each_cell_once_and_resamples_each_included_cell(tmp_path, capsys):
    # Per finding: the pooled cell, 5 admitted groups, "g5" (3 positives, so
    # excluded, but bracketed for its reported AUROC) and "g6" (negatives
    # only, so never bracketed). 2 findings x 7 brackets, and one one-model
    # resample call per admitted cell: 2 x 5.
    rng = np.random.default_rng(1)
    sizes = [(8, 12)] * 5 + [(3, 12), (0, 6)]
    rows = [(f"{f}-g{g}-{i}", f, int(i < n_pos), float(rng.normal()), f"g{g}")
            for f in ("edema", "effusion") for g, (n_pos, n_neg) in enumerate(sizes)
            for i in range(n_pos + n_neg)]
    path = tmp_path / "m.csv"
    emit(make_set("m", rows), path)
    with counting() as (built, draws):
        assert main(["audit", str(path), "--bootstrap-n", "30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [g["included"] for f in doc["findings"] for g in f["groups"]] == ([True] * 5 + [False] * 2) * 2
    assert len(built) == 14
    assert draws == [1] * 10


def test_cli_cis_match_compare_alone_and_together(tmp_path, capsys):
    # A candidate's report entry is the same whether it is passed alone or
    # next to another candidate, and its CIs are those of the library's compare.
    baseline, *candidates = write_study(tmp_path / "s")
    together = run_compare(capsys, baseline, candidates, "--conservative-ci")
    sets = [ingest(p, p.stem) for p in (baseline, *candidates)]
    study = align(sets[0], sets[1:])
    boot = BootstrapConfig(30)
    for cand in candidates:
        alone = run_compare(capsys, baseline, [cand], "--conservative-ci")
        own = [c for c in together["comparisons"] if c["candidate_id"] == cand.stem]
        assert alone["comparisons"] == own and len(own) == 2
        for entry in own:
            lib = compare(study, entry["finding_id"], cand.stem, boot=boot, conservative=True)
            assert entry["overall_delta_ci"] == list(lib.overall_delta_ci)
            assert entry["min_group_delta_ci"] == list(lib.min_group_delta_ci)
