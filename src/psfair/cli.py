"""Command-line front end: audit, compare, and synthetic-study generation.

Exit codes: 0 success (and, for compare, every candidate promoted), 1 at least
one candidate rejected by the gate, 2 input or validation error. This makes
`psfair compare` usable directly as a CI promotion gate.

Every flag can also be set through an environment variable with the PSFAIR_
prefix (e.g. PSFAIR_BOOTSTRAP_N=500); explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from . import metrics, positive_sum, synth
from .cohort import CohortError, InclusionPolicy, align, emit, ingest
from .metrics import BootstrapConfig, FairnessSummary
from .positive_sum import GatePolicy

_ENV_PREFIX = "PSFAIR_"
REPORT_FORMATS = ("json", "csv")
_FLAG_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "": False, "0": False, "false": False, "no": False, "off": False}


def _flag(raw: str) -> bool:
    value = raw.strip().lower()
    if value not in _FLAG_WORDS:
        raise ValueError(f"not a flag value, expected one of {sorted(_FLAG_WORDS)}")
    return _FLAG_WORDS[value]


def _report_format(raw: str) -> str:
    if raw not in REPORT_FORMATS:
        raise ValueError(f"not a report format, expected one of {list(REPORT_FORMATS)}")
    return raw


def _env(name: str, convert=str, default=None):
    """A flag's default from PSFAIR_<name>; a malformed value is an input error."""
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return convert(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_PREFIX}{name}={raw!r}: {exc}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-pos", type=int, default=_env("MIN_POS", int, 5),
                        help="minimum positive cases for a subgroup to be included (default 5)")
    parser.add_argument("--min-neg", type=int, default=_env("MIN_NEG", int, 5),
                        help="minimum negative cases for a subgroup to be included (default 5)")
    parser.add_argument("--bootstrap-n", type=int, default=_env("BOOTSTRAP_N", int, 300),
                        help="bootstrap resample count (default 300)")
    parser.add_argument("--confidence", type=float, default=_env("CONFIDENCE", float, 0.95),
                        help="bootstrap confidence level (default 0.95)")
    parser.add_argument("--seed", type=int, default=_env("SEED", int, 0),
                        help="master seed for all randomized steps (default 0)")
    parser.add_argument("--format", choices=REPORT_FORMATS,
                        default=_env("FORMAT", _report_format, "json"),
                        help="report format (default json)")
    parser.add_argument("--out", default=_env("OUT"),
                        help="write the report here instead of stdout")
    parser.add_argument("--tab", action="store_true", default=_env("TAB", _flag, False),
                        help="read input files as tab-separated instead of comma-separated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psfair",
        description="Fairness audit and positive-sum model comparison over scored test sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="per-finding performance and fairness of one model")
    p_audit.add_argument("model_file", help="prediction file for the model to audit")
    p_audit.add_argument("--model-id", default=None,
                         help="model identifier (default: input file stem)")
    _add_common(p_audit)

    p_cmp = sub.add_parser("compare", help="positive-sum comparison of candidates vs a baseline")
    baseline = _env("BASELINE")
    p_cmp.add_argument("--baseline", required=baseline is None, default=baseline,
                       help="baseline prediction file")
    p_cmp.add_argument("--candidate", action="append", default=None,
                       help="candidate prediction file (repeatable)")
    p_cmp.add_argument("--epsilon", type=float, default=_env("EPSILON", float, 0.0),
                       help="tolerance band for harm classification and gating (default 0)")
    p_cmp.add_argument("--conservative-ci", action="store_true",
                       default=_env("CONSERVATIVE_CI", _flag, False),
                       help="gate on bootstrap delta CIs instead of point estimates")
    _add_common(p_cmp)

    p_gen = sub.add_parser("gen", help="write a synthetic baseline/candidate study to disk")
    p_gen.add_argument("scenario",
                       help=f"scenario JSON file or preset name {sorted(synth.PRESET_NAMES)}")
    p_gen.add_argument("--out-dir", default=_env("OUT_DIR", default="."),
                       help="directory for the generated prediction files (default .)")
    p_gen.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_gen.add_argument("--tab", action="store_true", default=_env("TAB", _flag, False),
                       help="write tab-separated files")
    return parser


AUDIT_CSV_COLUMNS = (
    "finding", "group", "n_pos", "n_neg", "included", "auroc", "ci_low", "ci_high",
    "low_confidence", "overall_auroc", "fairness_score", "worst_group",
)
COMPARE_CSV_COLUMNS = (
    "candidate", "finding", "group", "jointly_included", "baseline_auroc", "candidate_auroc",
    "delta", "overall_delta", "min_group_delta", "min_group", "classification", "narrative",
    "disparity_change", "promote", "reasons",
)


def _config_block(policy: InclusionPolicy, boot: BootstrapConfig,
                  gate_policy: GatePolicy | None = None) -> dict:
    block = {
        "min_positives": policy.min_positives,
        "min_negatives": policy.min_negatives,
        "n_resamples": boot.n_resamples,
        "confidence_level": boot.confidence_level,
        "seed": boot.seed,
        "method": boot.method,
    }
    if gate_policy is not None:
        block.update(
            epsilon=gate_policy.epsilon,
            require_overall_gain=gate_policy.require_overall_gain,
            require_no_group_loss=gate_policy.require_no_group_loss,
            conservative_ci=gate_policy.conservative_ci,
        )
    return block


def _summary_dict(summary: FairnessSummary, with_groups: bool = True) -> dict:
    doc = {
        "finding_id": summary.finding_id,
        "overall_auroc": summary.overall_auroc,
        "fairness_score": summary.fairness_score,
        "worst_group": summary.worst_group,
    }
    if with_groups:
        doc["groups"] = [
            {
                "group_id": g.group_id,
                "n_pos": g.n_pos,
                "n_neg": g.n_neg,
                "included": g.included,
                "auroc": g.auroc,
                "ci_low": g.ci_low,
                "ci_high": g.ci_high,
                "low_confidence": g.low_confidence,
            }
            for g in summary.per_group
        ]
    return doc


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _render_csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    buf = io.StringIO()
    # Rows may carry keys beyond the columns; None is written as an empty field.
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_audit(args: argparse.Namespace) -> int:
    policy = InclusionPolicy(args.min_pos, args.min_neg)
    boot = BootstrapConfig(args.bootstrap_n, args.confidence, args.seed)
    delimiter = "\t" if args.tab else ","
    model_id = args.model_id or Path(args.model_file).stem
    pset = ingest(args.model_file, model_id, delimiter=delimiter)

    summaries = [metrics.summarize(pset, f, policy, boot) for f in pset.findings]
    warnings = [
        f"finding {s.finding_id!r}: fairness score undefined "
        f"(fewer than 2 included subgroups)"
        for s in summaries
        if s.fairness_score is None
    ]
    for w in warnings:
        print(f"psfair: warning: {w}", file=sys.stderr)

    findings = [_summary_dict(s) for s in summaries]
    if args.format == "json":
        doc = {
            "report_type": "audit",
            "model_id": model_id,
            "config": _config_block(policy, boot),
            "findings": findings,
            "macro_average_auroc": metrics.macro_average(summaries),
            "warnings": warnings,
        }
        _write_output(_render_json(doc), args.out)
    else:
        rows = [{**f, **g, "finding": f["finding_id"], "group": g["group_id"]}
                for f in findings for g in f["groups"]]
        _write_output(_render_csv(AUDIT_CSV_COLUMNS, rows), args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if not args.candidate:
        env_cand = _env("CANDIDATE")
        if env_cand:
            args.candidate = [env_cand]
        else:
            raise CohortError("compare needs at least one --candidate")
    policy = InclusionPolicy(args.min_pos, args.min_neg)
    boot = BootstrapConfig(args.bootstrap_n, args.confidence, args.seed)
    gate_policy = GatePolicy(epsilon=args.epsilon, conservative_ci=args.conservative_ci)
    delimiter = "\t" if args.tab else ","

    baseline = ingest(args.baseline, Path(args.baseline).stem, delimiter=delimiter)
    candidates = [ingest(p, Path(p).stem, delimiter=delimiter) for p in args.candidate]
    study = align(baseline, candidates)

    # The models block carries point estimates only, so no bootstrap runs for it.
    model_summaries = {
        m.model_id: [metrics.summarize(m, f, policy, None) for f in study.findings]
        for m in (baseline, *study.candidates)
    }

    comparisons = []
    warnings: list[str] = []
    for cand in study.candidates:
        for finding in study.findings:
            try:
                cmp = positive_sum.compare(
                    study, finding, cand.model_id, policy, boot,
                    epsilon=args.epsilon, conservative=args.conservative_ci,
                )
            except ValueError as exc:
                warnings.append(f"{cand.model_id}/{finding}: skipped ({exc})")
                continue
            narrative = None
            if sum(d.jointly_included for d in cmp.group_deltas) >= 2:
                narrative = positive_sum.decompose_disparity_change(cmp)
            comparisons.append((cmp, narrative, positive_sum.gate(cmp, gate_policy)))
    for w in warnings:
        print(f"psfair: warning: {w}", file=sys.stderr)

    pareto = []
    for finding in study.findings:
        per_finding = [c for c, _, _ in comparisons if c.finding_id == finding]
        if per_finding:
            pareto.append({"finding_id": finding,
                           "front": positive_sum.pareto_select(per_finding)})

    macro_deltas = []
    for cand in study.candidates:
        own = [c for c, _, _ in comparisons if c.candidate_id == cand.model_id]
        if own:
            macro_deltas.append({
                "candidate_id": cand.model_id,
                "mean_overall_delta": sum(c.overall_delta for c in own) / len(own),
                "mean_min_group_delta": sum(c.min_group_delta for c in own) / len(own),
            })

    # A skipped (candidate, finding) was never evaluated, so it cannot promote.
    all_promoted = not warnings and all(verdict.promote for _, _, verdict in comparisons)

    reports = [
        {
            "candidate_id": cmp.candidate_id,
            "finding_id": cmp.finding_id,
            "overall_delta": cmp.overall_delta,
            "min_group_delta": cmp.min_group_delta,
            "min_group": cmp.min_group,
            "classification": cmp.classification.value,
            "disparity_change": cmp.disparity_change,
            "epsilon": cmp.epsilon,
            "group_deltas": [
                {
                    "group_id": d.group_id,
                    "baseline_auroc": d.baseline_auroc,
                    "candidate_auroc": d.candidate_auroc,
                    "delta": d.delta,
                    "jointly_included": d.jointly_included,
                }
                for d in cmp.group_deltas
            ],
            "narrative": None if narrative is None else {
                "kind": narrative.kind.value,
                "signs": dict(sorted(narrative.signs.items())),
            },
            "gate": {"promote": verdict.promote, "reasons": list(verdict.reasons)},
            "overall_delta_ci": (
                None if cmp.overall_delta_ci is None else list(cmp.overall_delta_ci)
            ),
            "min_group_delta_ci": (
                None if cmp.min_group_delta_ci is None else list(cmp.min_group_delta_ci)
            ),
        }
        for cmp, narrative, verdict in comparisons
    ]

    if args.format == "json":
        doc = {
            "report_type": "compare",
            "baseline_id": baseline.model_id,
            "config": _config_block(policy, boot, gate_policy),
            "models": [
                {
                    "model_id": mid,
                    "findings": [_summary_dict(s, with_groups=False) for s in summ],
                }
                for mid, summ in model_summaries.items()
            ],
            "comparisons": reports,
            "coordinates": [
                {"candidate_id": cid, "finding_id": fid, "x": x, "y": y}
                for cid, fid, x, y in positive_sum.plot_coordinates(
                    [c for c, _, _ in comparisons]
                )
            ],
            "pareto": pareto,
            "macro_deltas": macro_deltas,
            "all_promoted": all_promoted,
            "warnings": warnings,
        }
        _write_output(_render_json(doc), args.out)
    else:
        rows = [
            {**c, **d, **c["gate"], "candidate": c["candidate_id"], "finding": c["finding_id"],
             "group": d["group_id"], "narrative": c["narrative"] and c["narrative"]["kind"],
             "reasons": "; ".join(c["gate"]["reasons"])}
            for c in reports for d in c["group_deltas"]
        ]
        _write_output(_render_csv(COMPARE_CSV_COLUMNS, rows), args.out)

    return 0 if all_promoted else 1


def cmd_gen(args: argparse.Namespace) -> int:
    if os.path.exists(args.scenario):
        spec = synth.load_scenario(args.scenario)
    elif args.scenario in synth.PRESET_NAMES:
        spec = synth.preset(args.scenario)
    else:
        raise ValueError(
            f"{args.scenario!r} is neither a scenario file nor a preset "
            f"{sorted(synth.PRESET_NAMES)}"
        )
    if args.seed is not None:
        spec = synth.ScenarioSpec(
            spec.name, spec.baseline_recipes, spec.candidates, args.seed, spec.finding
        )
    study = synth.build_study(spec)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    delimiter = "\t" if args.tab else ","
    ext = "tsv" if args.tab else "csv"
    written = []
    for pset in (study.baseline, *study.candidates):
        path = out_dir / f"{pset.model_id}.{ext}"
        emit(pset, path, delimiter=delimiter)
        written.append(path)
    for path in written:
        print(path)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    handlers = {"audit": cmd_audit, "compare": cmd_compare, "gen": cmd_gen}
    try:
        args = build_parser().parse_args(argv)  # reads PSFAIR_* defaults
        return handlers[args.command](args)
    except (CohortError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"psfair: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
