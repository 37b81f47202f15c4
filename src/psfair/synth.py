"""Synthetic cohorts with analytically controlled per-group AUC.

Scores follow the unit-variance binormal model: negatives ~ Normal(0, 1),
positives ~ Normal(mu, 1) with mu = sqrt(2) * probit(target_auc), which gives
AUC = Phi(mu / sqrt(2)) in closed form.

Candidate variants reuse the baseline's normal deviates and only shift the
positive-class mean per overridden group, so a candidate with no overrides is
score-identical to the baseline and overriding one group perturbs no other.

A scenario's group, model and finding ids follow the one id rule of
``cohort._check_id``, so every id it names can be written to a file and read
back unchanged.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .cohort import AlignedStudy, PredictionSet, _check_id, _check_types, align
from .seeding import check_seed, substream


@dataclass(frozen=True)
class GroupRecipe:
    group_id: str
    n_pos: int
    n_neg: int
    target_auc: float

    def __post_init__(self) -> None:
        _check_id(self.group_id, "group_id")
        where = f"group {self.group_id!r}: "
        _check_types(self, where, n_pos=int, n_neg=int, target_auc=Real)
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError(f"{where}n_pos and n_neg must be >= 1")
        if not 0.0 < self.target_auc < 1.0:
            raise ValueError(f"{where}target_auc must be in (0, 1)")


@dataclass(frozen=True)
class CandidateSpec:
    model_id: str
    overrides: dict[str, float] = field(default_factory=dict)  # group_id -> target_auc

    def __post_init__(self) -> None:
        _check_id(self.model_id, "model_id")
        _check_types(self, f"candidate {self.model_id!r}: ", overrides=dict)
        # gen writes <out-dir>/<model_id>.csv, so an id must name one file in that directory.
        if self.model_id in (".", "..") or set(self.model_id) & {"/", "\\", "\0"}:
            raise ValueError(f"candidate {self.model_id!r}: model id must be a plain file name")
        for g, auc in self.overrides.items():
            where = f"candidate {self.model_id!r}, group {g!r}: "
            _check_types({"target_auc": auc}, where, target_auc=Real)
            if not 0.0 < auc < 1.0:
                raise ValueError(f"{where}target_auc must be in (0, 1)")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    baseline_recipes: tuple[GroupRecipe, ...]
    candidates: tuple[CandidateSpec, ...]
    seed: int
    finding: str = "finding"

    def __post_init__(self) -> None:
        _check_types(self, name=str)
        _check_id(self.finding, "finding")
        check_seed(self.seed)
        for name, kind in (("baseline_recipes", GroupRecipe), ("candidates", CandidateSpec)):
            for i, item in enumerate(getattr(self, name)):
                if not isinstance(item, kind):
                    raise ValueError(f"{name}[{i}] must be a {kind.__name__}, got {item!r}")
        if not self.baseline_recipes:
            raise ValueError(f"scenario {self.name!r} has no groups")
        ids = [r.group_id for r in self.baseline_recipes]
        repeated = sorted({g for g in ids if ids.count(g) > 1})
        if repeated:
            raise ValueError(f"scenario {self.name!r} repeats group ids {repeated}")
        for cand in self.candidates:
            for g in cand.overrides:
                if g not in ids:
                    raise ValueError(f"candidate {cand.model_id!r} overrides unknown group {g!r}")


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


def _objects(raw: dict, key: str, *fields: str) -> list[dict]:
    """The array raw[key], each item a JSON object holding every one of fields."""
    _check_types(raw, **{key: list})
    return [_object(item, f"{key}[{i}]", *fields) for i, item in enumerate(raw[key])]


def _object(raw, where: str, *fields: str) -> dict:
    """raw, a JSON object holding every one of fields; else a ValueError naming
    where, or nothing at the top level."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where or 'the top level'} must be an object, got {raw!r}")
    for name in fields:
        if name not in raw:
            raise ValueError(f"{where}{': ' if where else ''}missing field {name!r}")
    return raw


def _count(value):
    """A whole JSON number as an int: 10.0 counts as 10."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def load_scenario(path: str | os.PathLike) -> ScenarioSpec:
    """Load a scenario from its JSON file format (see docs/scenario format in README).

    The spec dataclasses check every field's type: a bool or a string is never
    read as a number, nor a number as a string.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:  # json.load recurses once per nested array or object
                raise ValueError("arrays or objects nested too deeply") from None
        raw = _object(doc, "", "name", "seed", "groups", "candidates")
        recipes = tuple(
            GroupRecipe(g["group_id"], _count(g["n_pos"]), _count(g["n_neg"]), g["target_auc"])
            for g in _objects(raw, "groups", "group_id", "n_pos", "n_neg", "target_auc"))
        candidates = tuple(CandidateSpec(c["model_id"], c.get("overrides", {}))
                           for c in _objects(raw, "candidates", "model_id"))
        return ScenarioSpec(raw["name"], recipes, candidates, raw["seed"],
                            raw.get("finding", "finding"))
    except ValueError as exc:
        raise ValueError(f"invalid scenario file {os.fspath(path)!r}: {exc}") from exc
