"""Command-line front end: audit, compare, and synthetic-study generation.

Exit codes: 0 success (and, for compare, every candidate promoted), 1 at least
one candidate rejected by the gate, 2 input or validation error or out of
memory. This makes `psfair compare` usable directly as a CI promotion gate.
Each command imports the psfair modules it runs, and no others.

The `psfair` program (`entrypoint`, also run by `python -m psfair.cli`) sets
OPENBLAS_NUM_THREADS=1 unless the caller set it, because psfair makes no BLAS
call; `main` and the library never change the environment.

These flags take their default from a PSFAIR_<NAME> variable (e.g.
PSFAIR_BOOTSTRAP_N=500); explicit flags win and a malformed value exits 2:
--min-pos, --min-neg, --bootstrap-n, --confidence, --seed, --format, --out
and --tab of audit and compare; --baseline, --candidate (one file),
--epsilon and --conservative-ci of compare; --out-dir and --tab of gen.
audit --model-id and gen --seed read none. --epsilon must be finite and >= 0,
and every --seed in [0, 2**64).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import io
import json
import os
import sys
from pathlib import Path
from typing import Sequence

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
    parser.add_argument("--out", default=_env("OUT") or None,
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
    baseline = _env("BASELINE") or None
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
                       help="scenario JSON file or preset name (listed in the README)")
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


def _plain(obj):
    """A result object as JSON values: dataclasses become dicts in field order,
    enums their value, tuples and lists lists; dict values are converted too."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


def _summary_dict(summary, with_groups: bool = True) -> dict:
    doc = _plain(summary)
    groups = doc.pop("per_group")
    return {**doc, "groups": groups} if with_groups else doc


# Key order of a comparison in the report (compare_report.schema.json).
_COMPARISON_KEYS = (
    "candidate_id", "finding_id", "overall_delta", "min_group_delta", "min_group",
    "classification", "disparity_change", "epsilon", "group_deltas", "narrative", "gate",
    "overall_delta_ci", "min_group_delta_ci",
)


def _report(args: argparse.Namespace, doc: dict, columns: tuple, rows: list) -> None:
    """Print the report's warnings to stderr, then write `doc` as JSON or
    `rows` as CSV to --out or stdout."""
    for w in doc["warnings"]:
        print(f"psfair: warning: {w}", file=sys.stderr)
    if args.format == "json":
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        # Rows may carry keys beyond the columns; None is written as an empty field.
        writer = csv.DictWriter(buf, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def cmd_audit(args: argparse.Namespace) -> int:
    from .cohort import InclusionPolicy, ingest
    from .metrics import BootstrapConfig, macro_average, summarize

    policy = InclusionPolicy(args.min_pos, args.min_neg)
    boot = BootstrapConfig(args.bootstrap_n, args.confidence, args.seed)
    delimiter = "\t" if args.tab else ","
    model_id = args.model_id or Path(args.model_file).stem
    pset = ingest(args.model_file, model_id, delimiter=delimiter)

    summaries = [summarize(pset, f, policy, boot) for f in pset.findings]
    findings = [_summary_dict(s) for s in summaries]
    doc = {
        "report_type": "audit",
        "model_id": model_id,
        "config": {**_plain(policy), **_plain(boot)},
        "findings": findings,
        "macro_average_auroc": macro_average(summaries),
        "warnings": [f"finding {s.finding_id!r}: fairness score undefined "
                     f"(fewer than 2 included subgroups)"
                     for s in summaries if s.fairness_score is None],
    }
    rows = [{**f, **g, "finding": f["finding_id"], "group": g["group_id"]}
            for f in findings for g in f["groups"]]
    _report(args, doc, AUDIT_CSV_COLUMNS, rows)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .cohort import CohortError, InclusionPolicy, align, ingest
    from .metrics import BootstrapConfig
    from .positive_sum import GatePolicy, compare_study

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
    result = compare_study(align(baseline, candidates), policy, boot, gate_policy)
    reports = [{**_plain(c), "narrative": _plain(n), "gate": _plain(v)}
               for c, n, v in zip(result.comparisons, result.narratives, result.verdicts)]
    reports = [{key: doc[key] for key in _COMPARISON_KEYS} for doc in reports]
    doc = {
        "report_type": "compare",
        "baseline_id": baseline.model_id,
        "config": {**_plain(policy), **_plain(boot), **_plain(gate_policy)},
        "models": [{"model_id": mid,
                    "findings": [_summary_dict(s, with_groups=False) for s in sums]}
                   for mid, sums in result.summaries.items()],
        "comparisons": reports,
        "pareto": [{"finding_id": f, "front": front} for f, front in result.pareto.items()],
        "macro_deltas": [{"candidate_id": cid, "mean_overall_delta": overall,
                          "mean_min_group_delta": worst}
                         for cid, (overall, worst) in result.macro_deltas.items()],
        "all_promoted": result.all_promoted,
        "warnings": [f"{cid}/{fid}: skipped ({reason})" for cid, fid, reason in result.unevaluated],
    }
    rows = [
        {**c, **d, **c["gate"], "candidate": c["candidate_id"], "finding": c["finding_id"],
         "group": d["group_id"], "narrative": c["narrative"] and c["narrative"]["kind"],
         "reasons": "; ".join(c["gate"]["reasons"])}
        for c in reports for d in c["group_deltas"]
    ]
    _report(args, doc, COMPARE_CSV_COLUMNS, rows)
    return 0 if result.all_promoted else 1


def cmd_gen(args: argparse.Namespace) -> int:
    from .cohort import emit
    from .synth import PRESET_NAMES, build_study, load_scenario, preset

    if os.path.exists(args.scenario):
        spec = load_scenario(args.scenario)
    elif args.scenario in PRESET_NAMES:
        spec = preset(args.scenario)
    else:
        raise ValueError(
            f"{args.scenario!r} is neither a scenario file nor a preset "
            f"{sorted(PRESET_NAMES)}"
        )
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    study = build_study(spec)

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
    except (ValueError, OSError) as exc:
        print(f"psfair: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"psfair: error: out of memory: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    # Before any command imports numpy, whose OpenBLAS would otherwise start a
    # worker pool that only spins. OpenBLAS reads an empty value as unset.
    if not os.environ.get("OPENBLAS_NUM_THREADS"):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
