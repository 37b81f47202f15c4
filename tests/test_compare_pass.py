"""audit and compare score each finding in one pass over every model.

The pass brackets each cell once per model and resamples each resampled cell
once for all models, on a stream keyed by the finding and the cell alone. So
the report's ``models`` block must equal the one-model ``summarize``, a
candidate's delta CIs must not depend on the other candidates passed with
it, and the library's ``compare`` must give the CLI's CIs. Examples are
derandomized, so every run checks the same cases.
"""

import contextlib
import dataclasses
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from psfair import metrics
from psfair.cli import main
from psfair.cohort import InclusionPolicy, align, emit, ingest
from psfair.metrics import BootstrapConfig, summarize
from psfair.positive_sum import _FindingDeltas, compare
from conftest import make_set

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
        scores = _FindingDeltas(models, finding, policy, boot)
        for k, cand in enumerate(study.candidates, 1):
            try:
                alone = compare(study, finding, cand.model_id, policy, boot, conservative=True)
            except ValueError:
                assert not any(scores.included)
                continue
            assert scores.comparison(k, 0.0) == alone


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
