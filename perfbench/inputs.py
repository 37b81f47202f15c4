"""Seeded input files for the study_ci and wide_audit workloads.

Written independently of ``psfair.synth`` (numpy's PCG64, its own score
models), so a change to psfair's generator cannot change these inputs. Every
per-(finding, group) count is fixed by the layout below and never by the
seed: the seed moves score values and which examples are positive, so the
work per run is the same across seeds and spreads measure noise, not input
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER = "example_id,finding,label,score,group\n"

# study_ci: a few large groups, continuous logits, two findings.
STUDY_FINDINGS = ("edema", "effusion")
STUDY_GROUPS = ("g0", "g1", "g2", "g3", "g4")
STUDY_PER_SIDE = 500  # positives and negatives per (finding, group)
STUDY_BASE_MU = (0.7, 0.85, 1.0, 1.15, 1.3)  # binormal separation per group
STUDY_LIFT = 0.25  # every positive of the "lift" candidate moves up by this
STUDY_HARM = 0.9  # positives of one group in the first finding move down by this

# wide_audit: many findings of mixed prevalence crossed with 60 groups of
# uneven size; scores are probabilities rounded to 3 decimals (heavy ties).
WIDE_SEXES = ("F", "M")
WIDE_AGES = ("18-39", "40-59", "60-79", "80+", "unk")
WIDE_SITES = ("s1", "s2", "s3", "s4", "s5", "s6")
WIDE_FINDINGS = (
    ("atelectasis", 0.30),
    ("cardiomegaly", 0.16),
    ("consolidation", 0.08),
    ("fracture", 0.035),
    ("lung_lesion", 0.012),
)


@dataclass(frozen=True)
class StudyInputs:
    baseline: Path
    lift: Path
    harm: Path
    harmed_group: str


def _write(path: Path, rows: list[str]) -> Path:
    path.write_text(HEADER + "".join(rows), encoding="utf-8")
    return path


def study_ci(seed: int, out_dir: Path) -> StudyInputs:
    """Baseline plus two candidates over the same keys.

    "lift" shifts every positive up, so every group and the pooled AUROC
    improve in both findings. "harm" shifts the positives of one seeded group
    down, in the first finding only; its second finding is score-identical to
    the baseline, so all of its deltas there are exactly zero.
    """
    rng = np.random.default_rng([seed, 1])
    harmed = int(rng.integers(len(STUDY_GROUPS)))
    base, lift, harm = [], [], []
    n = STUDY_PER_SIDE
    for gi, group in enumerate(STUDY_GROUPS):
        examples = [f"{group}-{i:05d}" for i in range(2 * n)]
        for fi, finding in enumerate(STUDY_FINDINGS):
            labels = np.zeros(2 * n, dtype=np.int64)
            labels[rng.permutation(2 * n)[:n]] = 1
            z = rng.standard_normal(2 * n)
            score = z + STUDY_BASE_MU[gi] * labels
            lifted = score + STUDY_LIFT * labels
            harmed_score = score - STUDY_HARM * labels if (fi == 0 and gi == harmed) else score
            for ex, y, b, l_, h in zip(examples, labels.tolist(), score.tolist(),
                                       lifted.tolist(), harmed_score.tolist()):
                base.append(f"{ex},{finding},{y},{b!r},{group}\n")
                lift.append(f"{ex},{finding},{y},{l_!r},{group}\n")
                harm.append(f"{ex},{finding},{y},{h!r},{group}\n")
    out_dir.mkdir(parents=True, exist_ok=True)
    return StudyInputs(
        baseline=_write(out_dir / "baseline.csv", base),
        lift=_write(out_dir / "lift.csv", lift),
        harm=_write(out_dir / "harm.csv", harm),
        harmed_group=STUDY_GROUPS[harmed],
    )


def wide_groups() -> list[tuple[str, int]]:
    """The 60 intersectional groups with their fixed, uneven sizes (17 to 456)."""
    groups = []
    for si, sex in enumerate(WIDE_SEXES):
        for ai, age in enumerate(WIDE_AGES):
            for ti, site in enumerate(WIDE_SITES):
                size = 12 + (37 * (si + 1) * (ai + 2) * (ti + 3)) % 460
                groups.append((f"{sex}_{age}_{site}", size))
    return groups


def wide_audit(seed: int, out_dir: Path) -> Path:
    """One model's scores over every (example, finding) of the wide cohort."""
    rng = np.random.default_rng([seed, 2])
    rows = []
    start = 0
    for group, size in wide_groups():
        examples = [f"w{start + i:06d}" for i in range(size)]
        start += size
        for fi, (finding, prevalence) in enumerate(WIDE_FINDINGS):
            n_pos = int(round(prevalence * size))
            labels = np.zeros(size, dtype=np.int64)
            labels[rng.permutation(size)[:n_pos]] = 1
            logit = -1.5 + 1.2 * labels + 0.15 * fi + rng.standard_normal(size)
            prob = 1.0 / (1.0 + np.exp(-logit))
            for ex, y, p in zip(examples, labels.tolist(), prob.tolist()):
                rows.append(f"{ex},{finding},{y},{p:.3f},{group}\n")
    out_dir.mkdir(parents=True, exist_ok=True)
    return _write(out_dir / "model.csv", rows)
