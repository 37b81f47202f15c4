"""The benchmark's workloads: psfair CLI invocations with their expected outcomes.

Each workload is a list of operations; one operation is one CLI invocation
with the exit code it must return, the files it writes and a check of those
files. Paths are relative to the checkout root, which is the working
directory of every invocation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
from checks import Expect, Scores

SCHEMAS = Path("schemas")


@dataclass(frozen=True)
class Op:
    name: str
    args: tuple[str, ...]  # psfair CLI arguments
    exit_code: int
    outputs: tuple[Path, ...]  # files the invocation writes
    check: Callable[[str], list[str]]  # given the invocation's stdout
    report: Path | None = None  # the report among the outputs, if any


def _compare_check(report_path: Path, baseline: Path, candidates: dict[str, Path],
                   expect: dict[tuple[str, str], Expect], conservative: bool):
    def check(stdout: str) -> list[str]:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        problems = checks.schema_problems(report, SCHEMAS / "compare_report.schema.json")
        if problems:
            return problems
        if report["config"]["conservative_ci"] != conservative:
            problems.append(f"config.conservative_ci is not {conservative}")
        if conservative and any(c["min_group_delta_ci"] is None for c in report["comparisons"]):
            problems.append("a conservative comparison has no delta CI")
        scores = {cid: Scores(path) for cid, path in candidates.items()}
        return problems + checks.compare_problems(report, Scores(baseline), scores, expect)
    return check


def _gen_check(written: tuple[Path, ...]):
    def check(stdout: str) -> list[str]:
        listed = stdout.split()
        want = [str(p) for p in written]
        problems = [] if listed == want else [f"gen listed {listed}, expected {want}"]
        return problems + [f"{p} was not written" for p in written if not p.is_file()]
    return check


# Desk-scale presets with the verdict each was built to produce. Candidate
# variants reuse the baseline's deviates and only shift group means, so these
# hold for every seed.
DESK_PRESETS = (
    ("m2_like", "m2", Expect("non_harmful", True)),
    ("m3_like", "m3", Expect("harmful_both", False, "group_b")),
    ("m4_like", "m4", Expect("harmful_to_subgroup", False, "group_c")),
    ("no_change", "m_same", Expect("non_harmful", True, zero=True)),
)
DESK_FINDING = "lung_lesion"

# study_ci and wide_audit run 100 bootstrap resamples instead of the default
# 300, so one invocation takes a few seconds and a run can median several.
BOOTSTRAP_N = "100"


def desk_gate(seed: int, work: Path) -> list[Op]:
    """README's desk-scale reproduction: gen each preset, then gate its candidate.

    Dominated by interpreter set-up and by the bootstrap CIs that compare
    computes; the only workload that runs the write path (synth + emit).
    """
    ops = []
    for preset, cand, expect in DESK_PRESETS:
        folder = work / preset
        baseline, candidate = folder / "baseline.csv", folder / f"{cand}.csv"
        ops.append(Op(f"gen.{preset}",
                      ("gen", preset, "--seed", str(seed), "--out-dir", str(folder)),
                      0, (baseline, candidate), _gen_check((baseline, candidate))))
        report = work / f"{preset}.json"
        ops.append(Op(f"compare.{preset}",
                      ("compare", "--baseline", str(baseline), "--candidate", str(candidate),
                       "--out", str(report)),
                      0 if expect.promote else 1, (report,),
                      _compare_check(report, baseline, {cand: candidate},
                                     {(cand, DESK_FINDING): expect}, conservative=False),
                      report))
    return ops


def study_ci(seed: int, work: Path) -> list[Op]:
    """Conservative-CI compare of two candidates over a few large groups.

    Dominated by the cost per element of AUROC and by the paired delta
    bootstrap in positive_sum.
    """
    files = inputs.study_ci(seed, work / "inputs")
    first, second = inputs.STUDY_FINDINGS
    expect = {
        ("lift", first): Expect("non_harmful", True),
        ("lift", second): Expect("non_harmful", True),
        ("harm", first): Expect("harmful_both", False, files.harmed_group),
        ("harm", second): Expect("non_harmful", True, zero=True),
    }
    report = work / "study.json"
    args = ("compare", "--conservative-ci", "--bootstrap-n", BOOTSTRAP_N,
            "--baseline", str(files.baseline), "--candidate", str(files.lift),
            "--candidate", str(files.harm), "--out", str(report))
    check = _compare_check(report, files.baseline, {"lift": files.lift, "harm": files.harm},
                           expect, conservative=True)
    return [Op("compare.study", args, 1, (report,), check, report)]


def wide_audit(seed: int, work: Path) -> list[Op]:
    """Audit of one model over 5 findings x 60 intersectional groups.

    Dominated by the overhead of many small AUROC calls (one bootstrap per
    included cell), with a large ingest and report; audit keeps its CIs.
    """
    model = inputs.wide_audit(seed, work / "inputs")
    report = work / "wide.json"

    def check(stdout: str) -> list[str]:
        doc = json.loads(report.read_text(encoding="utf-8"))
        problems = checks.schema_problems(doc, SCHEMAS / "audit_report.schema.json")
        return problems or checks.audit_problems(doc, Scores(model))

    args = ("audit", str(model), "--bootstrap-n", BOOTSTRAP_N, "--out", str(report))
    return [Op("audit.wide", args, 0, (report,), check, report)]


WORKLOADS = {"desk_gate": desk_gate, "study_ci": study_ci, "wide_audit": wide_audit}
