"""Output checks for psfair reports, written without psfair's own code.

Every point AUROC in a report is compared, bit for bit, with an exact pair
count made here from the input file: negatives sorted once, each positive
bracketed by ``searchsorted`` left/right, and the integer ``2U`` divided by
``2 * n_pos * n_neg``. Each check returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIN_POS = MIN_NEG = 5  # psfair's default inclusion rule, used by every workload


@dataclass(frozen=True)
class Expect:
    """What one (candidate, finding) comparison was built to produce."""

    classification: str
    promote: bool
    min_group: str | None = None
    zero: bool = False  # candidate is score-identical to the baseline here


class Scores:
    """One input file bucketed by finding and by (finding, group)."""

    def __init__(self, path: Path):
        cells: dict[str, dict[str, tuple[list[float], list[float]]]] = {}
        with open(path, encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            col = {name: i for i, name in enumerate(next(rows))}
            f, g, y, s = col["finding"], col["group"], col["label"], col["score"]
            for row in rows:
                pos, neg = cells.setdefault(row[f], {}).setdefault(row[g], ([], []))
                (pos if row[y] == "1" else neg).append(float(row[s]))
        self.cells = {
            finding: {group: (np.sort(np.array(p)), np.sort(np.array(n)))
                      for group, (p, n) in groups.items()}
            for finding, groups in cells.items()
        }

    def overall(self, finding: str) -> tuple[np.ndarray, np.ndarray]:
        groups = self.cells[finding].values()
        return (np.concatenate([p for p, _ in groups]), np.concatenate([n for _, n in groups]))


def exact_auroc(pos: np.ndarray, neg: np.ndarray) -> float:
    """Mann-Whitney AUROC, ties half, from an integer pair count."""
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left")
    below_or_tied = np.searchsorted(neg, pos, side="right")
    two_u = int(below.sum()) + int(below_or_tied.sum())
    return two_u / (2 * len(pos) * len(neg))


def schema_problems(report: dict, schema_path: Path) -> list[str]:
    import jsonschema

    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    return [f"schema: {'/'.join(map(str, e.absolute_path))}: {e.message}"
            for e in validator.iter_errors(report)]


def _fairness(aurocs: dict[str, float]) -> tuple[float | None, str | None]:
    if len(aurocs) < 2:
        return None, None
    values = list(aurocs.values())
    worst = min(aurocs, key=lambda g: (aurocs[g], g))
    return 1.0 - (max(values) - min(values)), worst


def audit_problems(report: dict, scores: Scores) -> list[str]:
    problems: list[str] = []
    found = [f["finding_id"] for f in report["findings"]]
    if found != sorted(scores.cells):
        problems.append(f"findings {found} != {sorted(scores.cells)}")
    for entry in report["findings"]:
        finding = entry["finding_id"]
        cells = scores.cells.get(finding, {})
        where = f"audit {finding}"
        if entry["overall_auroc"] != exact_auroc(*scores.overall(finding)):
            problems.append(f"{where}: overall_auroc {entry['overall_auroc']!r} is not exact")
        groups = [g["group_id"] for g in entry["groups"]]
        if groups != sorted(cells):
            problems.append(f"{where}: groups differ from the input")
        included: dict[str, float] = {}
        for g in entry["groups"]:
            gid = g["group_id"]
            if gid not in cells:
                continue
            pos, neg = cells[gid]
            at = f"{where}/{gid}"
            if (g["n_pos"], g["n_neg"]) != (len(pos), len(neg)):
                problems.append(f"{at}: counts {(g['n_pos'], g['n_neg'])} != {(len(pos), len(neg))}")
            if g["included"] != (len(pos) >= MIN_POS and len(neg) >= MIN_NEG):
                problems.append(f"{at}: included flag {g['included']} breaks the 5/5 rule")
            if len(pos) and len(neg):
                exact = exact_auroc(pos, neg)
                if g["auroc"] != exact:
                    problems.append(f"{at}: auroc {g['auroc']!r} != exact {exact!r}")
            if g["included"]:
                bounds = (g["ci_low"], g["ci_high"], g["auroc"])
                if None in bounds or not g["ci_low"] <= g["auroc"] <= g["ci_high"]:
                    problems.append(f"{at}: auroc {g['auroc']!r} outside CI "
                                    f"[{g['ci_low']!r}, {g['ci_high']!r}]")
                else:
                    included[gid] = g["auroc"]
        if (entry["fairness_score"], entry["worst_group"]) != _fairness(included):
            problems.append(f"{where}: fairness_score/worst_group != 1 - (max - min) of included")
    return problems


def compare_problems(report: dict, baseline: Scores, candidates: dict[str, Scores],
                     expect: dict[tuple[str, str], Expect]) -> list[str]:
    problems: list[str] = []
    models = {report["baseline_id"]: baseline, **candidates}
    for model in report["models"]:
        scores = models.get(model["model_id"])
        if scores is None:
            problems.append(f"unexpected model {model['model_id']!r}")
            continue
        for entry in model["findings"]:
            exact = exact_auroc(*scores.overall(entry["finding_id"]))
            if entry["overall_auroc"] != exact:
                problems.append(f"{model['model_id']}/{entry['finding_id']}: overall_auroc "
                                f"{entry['overall_auroc']!r} != exact {exact!r}")

    seen = set()
    for cmp in report["comparisons"]:
        key = (cmp["candidate_id"], cmp["finding_id"])
        seen.add(key)
        at = "/".join(key)
        want = expect.get(key)
        if want is None:
            problems.append(f"{at}: unexpected comparison")
            continue
        if cmp["classification"] != want.classification:
            problems.append(f"{at}: classification {cmp['classification']} != {want.classification}")
        if cmp["gate"]["promote"] != want.promote:
            problems.append(f"{at}: gate.promote {cmp['gate']['promote']} != {want.promote}")
        if want.min_group is not None and cmp["min_group"] != want.min_group:
            problems.append(f"{at}: min_group {cmp['min_group']} != {want.min_group}")
        base_cells = baseline.cells[cmp["finding_id"]]
        cand = candidates[cmp["candidate_id"]]
        cand_cells = cand.cells[cmp["finding_id"]]
        overall = (exact_auroc(*cand.overall(cmp["finding_id"]))
                   - exact_auroc(*baseline.overall(cmp["finding_id"])))
        if cmp["overall_delta"] != overall:
            problems.append(f"{at}: overall_delta {cmp['overall_delta']!r} != exact {overall!r}")
        if [d["group_id"] for d in cmp["group_deltas"]] != sorted(base_cells):
            problems.append(f"{at}: group_deltas groups differ from the input")
        for d in cmp["group_deltas"]:
            gid = d["group_id"]
            if gid not in base_cells:
                continue
            b_pos, b_neg = base_cells[gid]
            if d["jointly_included"] != (len(b_pos) >= MIN_POS and len(b_neg) >= MIN_NEG):
                problems.append(f"{at}/{gid}: jointly_included breaks the 5/5 rule")
            if d["baseline_auroc"] is not None and d["baseline_auroc"] != exact_auroc(b_pos, b_neg):
                problems.append(f"{at}/{gid}: baseline_auroc {d['baseline_auroc']!r} is not exact")
            if d["candidate_auroc"] is not None and d["candidate_auroc"] != exact_auroc(*cand_cells[gid]):
                problems.append(f"{at}/{gid}: candidate_auroc {d['candidate_auroc']!r} is not exact")
            if None not in (d["baseline_auroc"], d["candidate_auroc"]) and \
                    d["delta"] != d["candidate_auroc"] - d["baseline_auroc"]:
                problems.append(f"{at}/{gid}: delta {d['delta']!r} != candidate - baseline")
            if want.zero and d["delta"] != 0.0:
                problems.append(f"{at}/{gid}: delta {d['delta']!r} is not exactly 0.0")
        if want.zero:
            for name in ("overall_delta", "min_group_delta", "disparity_change"):
                if cmp[name] not in (0.0, None):
                    problems.append(f"{at}: {name} {cmp[name]!r} is not exactly 0.0")
    if seen != set(expect):
        problems.append(f"comparisons {sorted(seen)} != expected {sorted(expect)}")
    promoted = all(e.promote for e in expect.values())
    if report["all_promoted"] != promoted:
        problems.append(f"all_promoted {report['all_promoted']} != {promoted}")
    return problems
