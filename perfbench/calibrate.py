"""Fixed reference task whose duration tracks how fast this machine runs right now.

On a shared machine the CPU speed a process gets, and the share of time it
gets to run, can drift by a quarter within minutes. ``run.py`` times this
task in its own process around every timed child and reports the child's
times at a reference speed: wall times scaled by NOMINAL_S over the task's
wall time, CPU times by NOMINAL_S over its CPU time. The task does
the kinds of work a psfair invocation does (numpy sorting, a Python-level loop
over strings) on fixed inputs and uses nothing from the checkout under test,
so no change to psfair can change it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.08  # about its wall and CPU time on a 2-vCPU VM at a quiet moment

_DATA = np.random.default_rng(0).random(50_000)


def sample() -> tuple[float, float]:
    """Wall and CPU seconds this process takes for the fixed task now."""
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(8):
        np.argsort(_DATA, kind="stable")
    total = 0.0
    for i in range(120_000):
        total += float(f"{i}.5")
    return time.perf_counter() - wall, time.process_time() - cpu
