"""Run one psfair CLI invocation in-process, optionally with layer spans.

Usage (from the checkout root, with the checkout's ``src`` on PYTHONPATH):

    python perfbench/tracer.py --result OUT.json --op-id N [--spans] -- <psfair args>

Without ``--spans`` it only times ``psfair.cli.main``. With ``--spans`` it
first replaces each public layer function below at every psfair module
binding that holds it (``psfair.metrics.auroc`` and
``psfair.positive_sum.auroc`` alike) with a wrapper that records a span, and
restores every binding afterwards. Spans are kept in memory and written to
OUT.json when the invocation ends. The process exits with main's exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# Public functions per psfair module whose calls become spans.
LAYERS = {
    "cli": ("main",),
    "cohort": ("ingest", "align", "emit"),
    "synth": ("build_study",),
    "metrics": ("summarize", "bootstrap_auroc_ci", "overall_auroc", "auroc"),
    "positive_sum": ("compare", "gate", "decompose_disparity_change", "pareto_select"),
    "seeding": ("substream",),
}

# Work sizes recorded on a span, from the call's arguments and result.
SIZES = {
    "metrics.auroc": lambda args, result: len(args[0]) + len(args[1]),
    "cohort.ingest": lambda args, result: len(result),
}


class Recorder:
    """Collects spans as [name, start_ns, end_ns, parent, size] rows.

    ``parent`` is the index of the enclosing span or -1. ``size`` is the
    number of scores an ``auroc`` call ranks or the rows an ``ingest`` call
    returns, else 0. A function re-entered through itself (``ingest`` on a
    path calls ``ingest`` on the open file) records only the outer call.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._active: set[int] = set()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns
        size = SIZES.get(name)

        def wrapper(*args, **kwargs):
            if name_id in active:
                return fn(*args, **kwargs)
            index = len(spans)
            row = [name_id, clock(), 0, stack[-1] if stack else -1, 0]
            spans.append(row)
            stack.append(index)
            active.add(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
                active.discard(name_id)
            if size is not None:
                row[4] = size(args, result)
            return result

        return wrapper


def install(recorder: Recorder) -> tuple[list[tuple[object, str, object]], list[str]]:
    """Wrap every layer function at every psfair binding of it.

    Returns the (module, attribute, original) bindings to restore and the
    layer functions that this psfair does not define.
    """
    import importlib

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "psfair" or n.startswith("psfair."))]
    replaced: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"psfair.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                missing.append(f"{layer}.{name}")
                continue
            wrapper = recorder.wrap(f"{layer}.{name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        replaced.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
    return replaced, missing


def restore(replaced: list[tuple[object, str, object]]) -> None:
    for mod, attr, fn in reversed(replaced):
        setattr(mod, attr, fn)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--op-id", type=int, required=True)
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import psfair
    import psfair.cli

    recorder = Recorder()
    replaced, missing = install(recorder) if args.spans else ([], [])
    try:
        start = time.perf_counter_ns()
        try:
            code = psfair.cli.main(cli_args)
        except SystemExit as exc:  # argparse errors exit from inside main
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        main_ns = time.perf_counter_ns() - start
    finally:
        restore(replaced)

    doc = {
        "op_id": args.op_id,
        "exit": code,
        "main_ns": main_ns,
        "psfair_file": psfair.__file__,
        "names": recorder.names,
        "spans": recorder.spans,
        "missing": missing,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
