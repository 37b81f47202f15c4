"""Benchmark of the psfair CLI: end-to-end process metrics and a traced run.

Run from the root of a psfair checkout:

    python3 perfbench/run.py --workload desk_gate --seed 1 --seconds 22 --trace 0

Workloads are defined in ``workloads.py``: desk_gate, study_ci, wide_audit.
The load is a closed loop with one client: this process starts one
``python -m psfair.cli`` child at a time, with the checkout's ``src`` on
PYTHONPATH, and cycles through the workload's invocations until ``--seconds``
have passed and every invocation has run at least once. Inputs are made from
``--seed`` before timing starts. Every invocation's exit code and outputs are
checked; a wrong one counts as a failed operation.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over several fresh interpreters of the time to import
  ``psfair.cli`` and build its parser;
* ``wall_s`` / ``cpu_s``: one pass over the workload, summed over its
  invocations, each the median of its repeats; wall from spawn to exit, CPU
  from the child's own ``os.wait4`` rusage (user + sys);
* ``peak_rss_mb``: the largest max RSS of any single child.

The machine this runs on may be shared, and the CPU speed it gives a process
can drift by a quarter within minutes. So before every timed child this
process times ``calibrate.sample()``, a fixed task that uses nothing from the
checkout, and the three times are reported at a reference speed: measured
seconds times ``calibrate.NOMINAL_S`` over the median of the samples taken
just before and just after that child (its wall time for ``setup_s`` and
``wall_s``, its CPU time for ``cpu_s``). The measured figures are printed
beside them and kept in the detailed record.

``--trace 1`` runs each invocation twice in-process through ``tracer.py``,
untraced and then with layer spans, asserts both write byte-identical
outputs, and reports the per-layer metrics; ``setup.import.*`` come from
``python -X importtime``. A layer that a workload never calls reads 0.

The failure ratio (failed / attempted operations) is printed with the metrics
and carried by the result's ``attempted`` and ``failed`` fields. The last line
of standard output is the JSON result; a detailed record, with the seed,
``psfair.__file__`` and the sha256 of every output, is written to
``.perfbench_run/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import workloads
from workloads import Op

HERE = Path(__file__).resolve().parent
RUN_DIR = Path(".perfbench_run")
SETUP_SPAWNS = 5
CALIBRATION_SAMPLES = 3  # calibrate.sample() calls before each timed child
IMPORTTIME_SPAWNS = 3
TIME_LIMIT_S = 170.0  # children still running past this are killed
SETUP_CODE = "import psfair.cli; psfair.cli.build_parser(); import psfair; print(psfair.__file__)"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics from spans: (metric, span names summed, quantity).
SPAN_METRICS = (
    ("cli.main.s", ("cli.main",), "s"),
    ("cli.self.s", ("cli.main",), "self"),
    ("cohort.ingest.s", ("cohort.ingest",), "s"),
    ("cohort.ingest.rows", ("cohort.ingest",), "size"),
    ("cohort.align.s", ("cohort.align",), "s"),
    ("cohort.emit.s", ("cohort.emit",), "s"),
    ("synth.build_study.s", ("synth.build_study",), "s"),
    ("metrics.summarize.s", ("metrics.summarize",), "s"),
    ("metrics.summarize.calls", ("metrics.summarize",), "calls"),
    ("metrics.bootstrap_auroc_ci.s", ("metrics.bootstrap_auroc_ci",), "s"),
    ("metrics.bootstrap_auroc_ci.self.s", ("metrics.bootstrap_auroc_ci",), "self"),
    ("metrics.bootstrap_auroc_ci.calls", ("metrics.bootstrap_auroc_ci",), "calls"),
    ("metrics.overall_auroc.s", ("metrics.overall_auroc",), "s"),
    ("metrics.auroc.s", ("metrics.auroc",), "s"),
    ("metrics.auroc.calls", ("metrics.auroc",), "calls"),
    ("metrics.auroc.elems", ("metrics.auroc",), "size"),
    ("positive_sum.compare.s", ("positive_sum.compare",), "s"),
    ("positive_sum.compare.self.s", ("positive_sum.compare",), "self"),
    ("positive_sum.compare.calls", ("positive_sum.compare",), "calls"),
    ("positive_sum.verdict.s",
     ("positive_sum.gate", "positive_sum.decompose_disparity_change", "positive_sum.pareto_select"),
     "s"),
    ("seeding.substream.s", ("seeding.substream",), "s"),
    ("seeding.substream.calls", ("seeding.substream",), "calls"),
)
IMPORT_MODULES = ("psfair.metrics", "psfair.synth", "psfair.cli")
UNITS = {"s": "s", "self": "s", "calls": "count", "size": "count"}
PER_LAYER = (
    *((name, UNITS[quantity]) for name, _, quantity in SPAN_METRICS),
    ("cli.report_bytes", "bytes"),
    *((f"setup.import.{m}_s", "s") for m in IMPORT_MODULES),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    stdout: str
    stderr: str


class Runner:
    """Spawns one child at a time and measures it with its own rusage."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PSFAIR_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.work = work
        self.deadline = deadline

    def spawn(self, argv: list[str]) -> Sample:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
                      out_path.read_text(encoding="utf-8", errors="replace"),
                      err_path.read_text(encoding="utf-8", errors="replace"))

    def timed_out(self) -> bool:
        return time.monotonic() >= self.deadline


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


class Ledger:
    """Checks each operation's outputs and counts attempts and failures.

    Outputs are checked in full once per distinct content; a repeat must
    write byte-identical outputs, since reports are deterministic.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, dict[str, str | None]] = {}
        self.problems: list[str] = []

    def record(self, op: Op, sample: Sample, expect_digests: dict | None = None) -> dict:
        digests = {str(p): sha256(p) for p in op.outputs}
        problems = []
        if sample.exit_code != op.exit_code:
            problems.append(f"exit code {sample.exit_code}, expected {op.exit_code}: "
                            f"{sample.stderr.strip()[-300:]}")
        elif expect_digests is not None and digests != expect_digests:
            problems.append("traced outputs differ from untraced outputs")
        elif op.name in self.digests and digests != self.digests[op.name]:
            problems.append("outputs differ from the first repeat")
        elif op.name not in self.digests:
            problems = op.check(sample.stdout)
            self.digests[op.name] = digests
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op.name}: {p}" for p in problems[:5]]
        return digests


def cycle(ops: list[Op], seconds: float, runner: Runner):
    """Yield (index, op) round-robin until `seconds` passed after a full pass."""
    start = time.monotonic()
    index = 0
    while not runner.timed_out():
        if index >= len(ops) and time.monotonic() - start >= seconds:
            return
        yield index % len(ops), ops[index % len(ops)]
        index += 1


def sum_of_medians(per_op: list[list[float]]) -> float:
    """Sum over operations of each one's median repeat."""
    return sum(statistics.median(values) for values in per_op if values)


def run_plain(ops: list[Op], seconds: float, runner: Runner, ledger: Ledger) -> tuple[dict, dict]:
    python = sys.executable
    calibrations: list[list[tuple[float, float]]] = []  # before each child, and at the end
    children: list[tuple[int | None, Sample]] = []  # (op index, or None for set-up)

    def calibrate_now() -> None:
        calibrations.append([calibrate.sample() for _ in range(CALIBRATION_SAMPLES)])

    def timed(index: int | None, argv: list[str]) -> Sample:
        calibrate_now()
        sample = runner.spawn(argv)
        children.append((index, sample))
        return sample

    for _ in range(SETUP_SPAWNS):
        timed(None, [python, "-c", SETUP_CODE])
    for i, op in cycle(ops, seconds, runner):
        ledger.record(op, timed(i, [python, "-m", "psfair.cli", *op.args]))
    calibrate_now()

    # Each child is scaled by the calibration samples taken just before and after it.
    series = {key: [[] for _ in ops] for key in ("raw_wall", "raw_cpu", "wall", "cpu")}
    setup: dict[str, list[float]] = {"raw": [], "scaled": []}
    for j, (i, sample) in enumerate(children):
        walls, cpus = zip(*calibrations[j], *calibrations[j + 1])
        wall_scale = calibrate.NOMINAL_S / statistics.median(walls)
        cpu_scale = calibrate.NOMINAL_S / statistics.median(cpus)
        if i is None:
            setup["raw"].append(sample.wall_s)
            setup["scaled"].append(sample.wall_s * wall_scale)
            continue
        for key, value in (("raw_wall", sample.wall_s), ("raw_cpu", sample.cpu_s),
                           ("wall", sample.wall_s * wall_scale),
                           ("cpu", sample.cpu_s * cpu_scale)):
            series[key][i].append(value)
    peak_kb = max((s.maxrss_kb for i, s in children if i is not None), default=0)
    values = {
        "setup_s": statistics.median(setup["scaled"]),
        "wall_s": sum_of_medians(series["wall"]),
        "cpu_s": sum_of_medians(series["cpu"]),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    raw = {"setup_s": statistics.median(setup["raw"]),
           "wall_s": sum_of_medians(series["raw_wall"]),
           "cpu_s": sum_of_medians(series["raw_cpu"])}
    samples = {"raw": raw, "calibration_s": calibrations, "setup_s": setup,
               **{op.name: {key: series[key][i] for key in series} for i, op in enumerate(ops)}}
    return values, samples


def span_metrics(doc: dict) -> dict[str, float]:
    """Per-layer totals of one traced invocation.

    Self time is a span's duration minus the durations of its direct children.
    """
    names, spans = doc["names"], doc["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name_id, start, end, _, size) in enumerate(spans):
        t = totals.setdefault(names[name_id], {"s": 0.0, "self": 0.0, "calls": 0, "size": 0})
        t["s"] += (end - start) / 1e9
        t["self"] += (end - start - child_ns[i]) / 1e9
        t["calls"] += 1
        t["size"] += size
    return {metric: sum(totals.get(n, {}).get(quantity, 0) for n in span_names)
            for metric, span_names, quantity in SPAN_METRICS}


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, module = line.split("|")
            if cumulative.strip().isdigit():
                out[module.strip()] = int(cumulative) / 1e6
    return out


def run_traced(ops: list[Op], seconds: float, runner: Runner, ledger: Ledger) -> tuple[dict, dict]:
    python, tracer = sys.executable, str(HERE / "tracer.py")
    imports = [import_times(runner.spawn([python, "-X", "importtime", "-c", SETUP_CODE]).stderr)
               for _ in range(IMPORTTIME_SPAWNS)]
    per_op: list[dict[str, list[float]]] = [{} for _ in ops]
    missing: set[str] = set()  # layer functions this psfair does not define
    result = runner.work / "tracer.json"
    for i, op in cycle(ops, seconds, runner):
        untraced = {}
        for spans in (False, True):
            argv = [python, tracer, "--result", str(result), "--op-id", str(i),
                    *(["--spans"] if spans else []), "--", *op.args]
            sample = runner.spawn(argv)
            digests = ledger.record(op, sample, untraced["digests"] if spans else None)
            if sample.exit_code != op.exit_code:
                break
            doc = json.loads(result.read_text(encoding="utf-8"))
            if not spans:
                untraced = {"digests": digests, "main_s": doc["main_ns"] / 1e9}
                continue
            missing.update(doc["missing"])
            values = span_metrics(doc)
            values["cli.report_bytes"] = op.report.stat().st_size if op.report else 0
            values["traced_main_s"] = doc["main_ns"] / 1e9
            values["untraced_main_s"] = untraced["main_s"]
            for name, value in values.items():
                per_op[i].setdefault(name, []).append(value)
    totals = {name: sum_of_medians([d.get(name, []) for d in per_op])
              for name in (*(m for m, _, _ in SPAN_METRICS), "cli.report_bytes",
                           "traced_main_s", "untraced_main_s")}
    for module in IMPORT_MODULES:
        totals[f"setup.import.{module}_s"] = statistics.median(t.get(module, 0.0) for t in imports)
    if totals["untraced_main_s"]:
        totals["trace.overhead_ratio"] = totals["traced_main_s"] / totals["untraced_main_s"]
    if missing:
        print(f"perfbench: not traced, absent from psfair: {sorted(missing)}", file=sys.stderr)
    return totals, {"missing": sorted(missing), **{op.name: d for op, d in zip(ops, per_op)}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "psfair" / "cli.py").is_file() or not (root / "schemas").is_dir():
        print("perfbench: src/psfair and schemas/ not found; run from a psfair checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    work = RUN_DIR / "work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, deadline)
        probe = runner.spawn([sys.executable, "-c", SETUP_CODE])  # also compiles bytecode
        psfair_file = probe.stdout.strip()
        if probe.exit_code != 0 or not Path(psfair_file).resolve().is_relative_to(
                (root / "src").resolve()):
            print(f"perfbench: psfair did not import from this checkout's src: "
                  f"{psfair_file or probe.stderr.strip()[-300:]}", file=sys.stderr)
            return 2
        ops = workloads.WORKLOADS[args.workload](args.seed, work)
        ledger = Ledger()
        run = run_traced if args.trace else run_plain
        values, samples = run(ops, args.seconds, runner, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in declared}
    result = {"correct": ledger.failed == 0 and ledger.attempted > 0,
              "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "psfair_file": psfair_file, "python": sys.version,
              "outputs_sha256": ledger.digests, "problems": ledger.problems, **result,
              "samples": samples}
    results_dir = RUN_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail_path = results_dir / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    for problem in ledger.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} psfair={psfair_file}")
    raw = samples.get("raw", {})
    for name, metric in metrics.items():
        measured = f"  (measured {raw[name]!r})" if name in raw else ""
        print(f"  {name:<36} {metric['value']!r} {metric['unit']}{measured}")
    ratio = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"  {'fail_ratio':<36} {ratio!r} ratio ({ledger.failed}/{ledger.attempted})")
    for digests in ledger.digests.values():
        for path, digest in digests.items():
            print(f"  sha256 {digest} {path}")
    print(f"  details: {detail_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
