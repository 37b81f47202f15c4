"""Synthetic cohorts with analytically controlled per-group AUC.

Scores follow the unit-variance binormal model: negatives ~ Normal(0, 1),
positives ~ Normal(mu, 1) with mu = sqrt(2) * probit(target_auc), which gives
AUC = Phi(mu / sqrt(2)) in closed form.

Candidate variants reuse the baseline's normal deviates and only shift the
positive-class mean per overridden group, so a candidate with no overrides is
score-identical to the baseline and overriding one group perturbs no other.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from .cohort import AlignedStudy, PredictionSet, align
from .seeding import check_seed, substream


@dataclass(frozen=True)
class GroupRecipe:
    group_id: str
    n_pos: int
    n_neg: int
    target_auc: float

    def __post_init__(self) -> None:
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError(f"group {self.group_id!r}: n_pos and n_neg must be >= 1")
        if not 0.0 < self.target_auc < 1.0:
            raise ValueError(f"group {self.group_id!r}: target_auc must be in (0, 1)")


@dataclass(frozen=True)
class CandidateSpec:
    model_id: str
    overrides: dict[str, float] = field(default_factory=dict)  # group_id -> target_auc


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    baseline_recipes: tuple[GroupRecipe, ...]
    candidates: tuple[CandidateSpec, ...]
    seed: int
    finding: str = "finding"

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if not self.baseline_recipes:
            raise ValueError(f"scenario {self.name!r} has no groups")
        ids = [r.group_id for r in self.baseline_recipes]
        repeated = sorted({g for g in ids if ids.count(g) > 1})
        if repeated:
            raise ValueError(f"scenario {self.name!r} repeats group ids {repeated}")
        groups = set(ids)
        for cand in self.candidates:
            # gen writes <out-dir>/<model_id>.csv, so an id must name one file in that directory.
            if cand.model_id in (".", "..") or set(cand.model_id) & {"/", "\\", "\0"}:
                raise ValueError(f"candidate {cand.model_id!r}: model id must be a plain file name")
            for g, auc in cand.overrides.items():
                if g not in groups:
                    raise ValueError(
                        f"candidate {cand.model_id!r} overrides unknown group {g!r}"
                    )
                if not 0.0 < auc < 1.0:
                    raise ValueError(
                        f"candidate {cand.model_id!r}, group {g!r}: "
                        f"target_auc must be in (0, 1)"
                    )


def mu_for_auc(target_auc: float) -> float:
    """Positive-class mean shift achieving the target AUC under the binormal model."""
    if not 0.0 < target_auc < 1.0:
        raise ValueError(f"target_auc must be in (0, 1), got {target_auc}")
    return math.sqrt(2.0) * statistics.NormalDist().inv_cdf(target_auc)


def build_study(spec: ScenarioSpec) -> AlignedStudy:
    """Materialize the baseline and all candidate variants as an aligned study.

    Every model shares one set of example, label and group columns and one
    draw of normal deviates per group; only the positives' shift differs.
    """
    recipes = spec.baseline_recipes
    example_id, label, group_id, deviates = [], [], [], []
    for r in recipes:
        example_id += [f"{r.group_id}-p{i}" for i in range(r.n_pos)]
        example_id += [f"{r.group_id}-n{i}" for i in range(r.n_neg)]
        label += [1] * r.n_pos + [0] * r.n_neg
        group_id += [r.group_id] * (r.n_pos + r.n_neg)
        rng = substream(spec.seed, "binormal", spec.finding, r.group_id)
        deviates.append((rng.standard_normal(r.n_pos), rng.standard_normal(r.n_neg)))
    finding_id = [spec.finding] * len(label)

    def model(model_id: str, overrides: dict[str, float]) -> PredictionSet:
        score = np.concatenate([
            np.concatenate([z_pos + mu_for_auc(overrides.get(r.group_id, r.target_auc)), z_neg])
            for r, (z_pos, z_neg) in zip(recipes, deviates)
        ])
        return PredictionSet(model_id, example_id, finding_id, label, score, group_id)

    return align(model("baseline", {}), [model(c.model_id, c.overrides) for c in spec.candidates])


# Preset scenarios at desk scale. Baseline subgroup targets are deliberately
# unequal (0.70 / 0.74 / 0.78); magnitudes of change are fixture choices.
_BASE_RECIPES = (
    GroupRecipe("group_a", 1000, 1000, 0.70),
    GroupRecipe("group_b", 1000, 1000, 0.74),
    GroupRecipe("group_c", 1000, 1000, 0.78),
)

_PRESET_CANDIDATES = {
    # Every group improves, the already-best group improves most: disparity
    # widens, yet nobody is worse off.
    "m2_like": CandidateSpec(
        "m2", {"group_a": 0.73, "group_b": 0.77, "group_c": 0.84}
    ),
    # Inconsistent update: slight gain for the worst group, losses elsewhere.
    "m3_like": CandidateSpec(
        "m3", {"group_a": 0.71, "group_b": 0.71, "group_c": 0.77}
    ),
    # Disparity-narrowing update that lifts the worst group but shaves the
    # best one: fairer by the traditional score, yet a subgroup is harmed.
    "m4_like": CandidateSpec(
        "m4", {"group_a": 0.75, "group_c": 0.76}
    ),
    "no_change": CandidateSpec("m_same", {}),
}

PRESET_NAMES = tuple(_PRESET_CANDIDATES)
DEFAULT_PRESET_SEED = 20240824


def preset(name: str, seed: int = DEFAULT_PRESET_SEED) -> ScenarioSpec:
    """A named desk-scale scenario; raises ValueError for unknown names."""
    if name not in _PRESET_CANDIDATES:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(_PRESET_CANDIDATES)}")
    return ScenarioSpec(
        name=name,
        baseline_recipes=_BASE_RECIPES,
        candidates=(_PRESET_CANDIDATES[name],),
        seed=seed,
        finding="lung_lesion",
    )


_KINDS = {int: "an integer", str: "a string", (int, float): "a number", dict: "an object"}


def _typed(value, kind, what: str):
    """``value`` if it is a ``kind`` and not a bool, else a ValueError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def _count(group: dict, name: str) -> int:
    """A group's case count; a boolean or a non-integral number is an error."""
    value = group[name]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _typed(value, int, f"group {group['group_id']!r}: {name}")


def _auc(value, where: str) -> float:
    return float(_typed(value, (int, float), f"{where}: target_auc"))


def _candidate(raw: dict) -> CandidateSpec:
    model_id = _typed(raw["model_id"], str, "model_id")
    where = f"candidate {model_id!r}"
    overrides = _typed(raw.get("overrides", {}), dict, f"{where}: overrides")
    return CandidateSpec(model_id, {g: _auc(auc, f"{where}, group {g!r}")
                                    for g, auc in overrides.items()})


def load_scenario(path: str | os.PathLike) -> ScenarioSpec:
    """Load a scenario from its JSON file format (see docs/scenario format in README).

    Every field must have its JSON type: a bool or a string is never read as
    a number, nor a number as a string.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        recipes = tuple(
            GroupRecipe(_typed(g["group_id"], str, "group_id"), _count(g, "n_pos"),
                        _count(g, "n_neg"), _auc(g["target_auc"], f"group {g['group_id']!r}"))
            for g in raw["groups"]
        )
        return ScenarioSpec(
            name=_typed(raw["name"], str, "name"),
            baseline_recipes=recipes,
            candidates=tuple(_candidate(c) for c in raw["candidates"]),
            seed=_typed(raw["seed"], int, "seed"),
            finding=_typed(raw.get("finding", "finding"), str, "finding"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid scenario file {os.fspath(path)!r}: {exc}") from exc
