import json
import math
import re

import numpy as np
import pytest

from psfair.positive_sum import Classification, compare, decompose_disparity_change
from psfair.synth import (
    PRESET_NAMES,
    CandidateSpec,
    GroupRecipe,
    ScenarioSpec,
    build_study,
    load_scenario,
    mu_for_auc,
    preset,
)
from conftest import auroc, set_rows
from reference import oracle_auroc, scenario_to_dict


class TestOracle:
    def test_pair_count_example(self):
        assert oracle_auroc([0.9, 0.4], [0.8, 0.2]) == 0.75

    def test_single_tied_pair(self):
        assert oracle_auroc([0.5], [0.5]) == 0.5

    def test_single_ordered_pair(self):
        assert oracle_auroc([1.0], [0.0]) == 1.0

    def test_size_guard(self):
        with pytest.raises(ValueError, match="oracle limited"):
            oracle_auroc([0.0] * 6000, [1.0] * 6000)

    def test_empty_side(self):
        with pytest.raises(ValueError):
            oracle_auroc([], [1.0])


def one_group(recipe, seed):
    """The baseline of a study holding only ``recipe``'s group."""
    return build_study(ScenarioSpec("one", (recipe,), (), seed)).baseline


class TestBinormal:
    def test_mu_at_half_is_zero(self):
        assert mu_for_auc(0.5) == 0.0

    def test_mu_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                mu_for_auc(bad)

    def test_determinism(self):
        recipe = GroupRecipe("g", 50, 50, 0.8)
        assert one_group(recipe, 7) == one_group(recipe, 7)
        assert one_group(recipe, 7) != one_group(recipe, 8)

    def test_large_sample_hits_target(self):
        recipe = GroupRecipe("g", 100_000, 100_000, 0.8)
        pset = one_group(recipe, 1)
        pos, neg = pset.score[pset.label == 1], pset.score[pset.label == 0]
        assert abs(auroc(pos, neg) - 0.8) < 0.01

    def test_mu_matches_scipy_ndtri(self):
        from scipy.special import ndtri

        targets = {k / 1000 for k in range(1, 1000)}
        for name in PRESET_NAMES:
            spec = preset(name)
            targets |= {r.target_auc for r in spec.baseline_recipes}
            targets |= {auc for c in spec.candidates for auc in c.overrides.values()}
        for target in sorted(targets):
            expected = math.sqrt(2.0) * float(ndtri(target))
            assert math.isclose(mu_for_auc(target), expected, rel_tol=2e-15), target

    def test_analytic_auc_formula(self):
        # AUC of the binormal model is Phi(mu / sqrt(2)); invert and check
        from scipy.stats import norm

        for target in (0.55, 0.7, 0.9):
            mu = mu_for_auc(target)
            assert norm.cdf(mu / math.sqrt(2)) == pytest.approx(target, abs=1e-12)


class TestBuildStudy:
    def _spec(self, overrides, seed=3):
        return ScenarioSpec(
            name="t",
            baseline_recipes=(
                GroupRecipe("a", 50, 50, 0.7),
                GroupRecipe("b", 50, 50, 0.75),
            ),
            candidates=(CandidateSpec("cand", overrides),),
            seed=seed,
            finding="f",
        )

    def test_no_override_candidate_identical(self):
        study = build_study(self._spec({}))
        base_scores = {e: s for e, _, _, s, _ in set_rows(study.baseline)}
        for e, _, _, s, _ in set_rows(study.candidates[0]):
            assert s == base_scores[e]
        cmp = compare(study, "f", "cand")
        assert cmp.overall_delta == 0.0
        assert cmp.min_group_delta == 0.0

    def test_override_perturbs_only_that_group(self):
        study = build_study(self._spec({"a": 0.85}))
        base = {e: s for e, _, _, s, _ in set_rows(study.baseline)}
        for e, _, y, s, g in set_rows(study.candidates[0]):
            if g == "b" or y == 0:
                assert s == base[e]
            else:
                assert s != base[e]

    def test_unknown_override_group(self):
        with pytest.raises(ValueError, match="unknown group"):
            self._spec({"zz": 0.8})

    @pytest.mark.parametrize("model_id", ["../evil", "a/b", "a\\b", ".", "..", "a\0b"])
    def test_model_id_must_be_a_plain_file_name(self, model_id):
        with pytest.raises(ValueError, match=re.escape(
                f"candidate {model_id!r}: model id must be a plain file name")):
            ScenarioSpec("s", (GroupRecipe("a", 5, 5, 0.7),), (CandidateSpec(model_id),), 0)

    def test_determinism(self):
        a = build_study(self._spec({"a": 0.8}))
        b = build_study(self._spec({"a": 0.8}))
        assert a.baseline == b.baseline
        assert a.candidates[0] == b.candidates[0]


class TestPresets:
    def test_m2_like_non_harmful_widening(self):
        study = build_study(preset("m2_like", seed=0))
        cmp = compare(study, "lung_lesion", "m2")
        assert cmp.classification is Classification.NON_HARMFUL
        assert cmp.disparity_change > 0
        assert decompose_disparity_change(cmp).kind.value == "all_improved_unevenly"

    def test_m4_like_harmful_narrowing(self):
        study = build_study(preset("m4_like", seed=0))
        cmp = compare(study, "lung_lesion", "m4")
        assert cmp.classification is Classification.HARMFUL_TO_SUBGROUP
        assert cmp.disparity_change < 0
        assert cmp.min_group == "group_c"

    def test_m3_like_negative_x(self):
        study = build_study(preset("m3_like", seed=0))
        cmp = compare(study, "lung_lesion", "m3")
        assert cmp.overall_delta < 0
        assert cmp.min_group_delta < 0

    def test_no_change_preset(self):
        study = build_study(preset("no_change", seed=0))
        cmp = compare(study, "lung_lesion", "m_same")
        assert (cmp.overall_delta, cmp.min_group_delta) == (0.0, 0.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("m9_like")


# One wrongly typed value per scenario field, an empty group list, empty ids,
# ids with surrounding whitespace and values out of range: (path in the file,
# value, error).
WRONG_TYPES = [
    (("seed",), 1.5, "seed must be an integer, got 1.5"),
    (("seed",), True, "seed must be an integer, got True"),
    (("name",), 5, "name must be a string, got 5"),
    (("finding",), 5, "finding must be a string, got 5"),
    (("groups", 0, "group_id"), 5, "group_id must be a string, got 5"),
    (("groups", 1, "target_auc"), "0.7", "group 'group_b': target_auc must be a number, "
                                         "got '0.7'"),
    (("groups", 1, "target_auc"), True, "group 'group_b': target_auc must be a number, "
                                        "got True"),
    (("candidates", 0, "model_id"), 5, "model_id must be a string, got 5"),
    (("candidates", 0, "overrides"), [0.7], "candidate 'm2': overrides must be an object, "
                                            "got [0.7]"),
    (("candidates", 0, "overrides", "group_a"), "0.7",
     "candidate 'm2', group 'group_a': target_auc must be a number, got '0.7'"),
    (("groups",), [], "scenario 'm2_like' has no groups"),
    (("groups", 0, "group_id"), "", "group_id must be a non-empty string, got ''"),
    (("candidates", 0, "model_id"), "", "model_id must be a non-empty string, got ''"),
    (("finding",), "", "finding must be a non-empty string, got ''"),
    # gen wrote such ids and ingest stripped them, so " group_b" was read back as
    # group_b: beside group_b, it gave a file that its own audit rejected.
    (("groups", 0, "group_id"), " group_b",
     "group_id must not start or end with whitespace, got ' group_b'"),
    (("groups", 2, "group_id"), "group_c\u3000",
     "group_id must not start or end with whitespace, got 'group_c\\u3000'"),
    (("candidates", 0, "model_id"), "m2\t",
     "model_id must not start or end with whitespace, got 'm2\\t'"),
    (("finding",), "lung_lesion\n",
     "finding must not start or end with whitespace, got 'lung_lesion\\n'"),
    (("groups", 0, "n_pos"), 0, "group 'group_a': n_pos and n_neg must be >= 1"),
    (("groups", 1, "target_auc"), 1.0, "group 'group_b': target_auc must be in (0, 1)"),
    (("candidates", 0, "overrides", "group_a"), 1.5,
     "candidate 'm2', group 'group_a': target_auc must be in (0, 1)"),
]


# Scenario files not in the shape of a scenario, which no constructor sees:
# (path in the file, value or DELETE, error).
DELETE = object()
MALFORMED = [
    ((), [], "the top level must be an object, got []"),
    (("name",), DELETE, "missing field 'name'"),
    (("groups",), {"group_a": 5}, "groups must be an array, got {'group_a': 5}"),
    (("groups", 1), 5, "groups[1] must be an object, got 5"),
    (("groups", 1, "n_neg"), DELETE, "groups[1]: missing field 'n_neg'"),
    (("candidates", 0), "m2", "candidates[0] must be an object, got 'm2'"),
    (("candidates", 0, "model_id"), DELETE, "candidates[0]: missing field 'model_id'"),
]


def set_field(raw, where, value):
    """raw with the field at where set to value, or deleted if value is DELETE;
    an empty where replaces raw itself."""
    if not where:
        return value
    *parents, last = where
    parent = raw
    for key in parents:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return raw


def spec_from_dict(raw):
    """The spec a scenario file's dict describes, built by the constructors alone."""
    return ScenarioSpec(raw["name"], tuple(GroupRecipe(**g) for g in raw["groups"]),
                        tuple(CandidateSpec(**c) for c in raw["candidates"]), raw["seed"],
                        raw["finding"])


class TestScenarioFile:
    def test_roundtrip(self, tmp_path):
        spec = preset("m2_like", seed=11)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(spec)))
        loaded = load_scenario(path)
        assert loaded == spec

    @pytest.mark.parametrize("field, value", [("n_pos", 10.9), ("n_neg", True), ("n_pos", "10")])
    def test_rejects_non_integer_count(self, tmp_path, field, value):
        raw = scenario_to_dict(preset("m2_like"))
        raw["groups"][1][field] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        message = f"group 'group_b': {field} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario(path)

    @pytest.mark.parametrize("where, value, message", WRONG_TYPES)
    def test_rejects_wrong_field_type(self, tmp_path, where, value, message):
        raw = scenario_to_dict(preset("m2_like"))
        set_field(raw, where, value)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario(path)

    @pytest.mark.parametrize("where, value, message", WRONG_TYPES)
    def test_constructors_give_the_file_message(self, tmp_path, where, value, message):
        # One checker behind both entry points: a spec built in code fails
        # with the message its scenario file gets, after the file's name.
        raw = set_field(scenario_to_dict(preset("m2_like")), where, value)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError) as from_file:
            load_scenario(path)
        with pytest.raises(ValueError) as from_code:
            spec_from_dict(raw)
        assert str(from_code.value) == message
        assert str(from_file.value) == f"invalid scenario file {str(path)!r}: {message}"

    @pytest.mark.parametrize("where, value, message", MALFORMED)
    def test_rejects_malformed_file(self, tmp_path, where, value, message):
        # A missing field read as the bare key, "'name'", and a top-level
        # array as "list indices must be integers or slices, not str".
        raw = set_field(scenario_to_dict(preset("m2_like")), where, value)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError) as caught:
            load_scenario(path)
        assert str(caught.value) == f"invalid scenario file {str(path)!r}: {message}"

    def test_integral_float_count_is_a_count(self, tmp_path):
        spec = preset("m2_like", seed=11)
        raw = scenario_to_dict(spec)
        raw["groups"][0]["n_pos"] = 1000.0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        assert load_scenario(path) == spec

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, tmp_path, seed):
        # build_study used to reject it, in a message naming no file.
        raw = scenario_to_dict(preset("m2_like"))
        raw["seed"] = seed
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        message = f"invalid scenario file {str(path)!r}: seed must be in [0, 2**64), got {seed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario(path)

    @pytest.mark.parametrize("content", [b'{"name": "x", "seed":', b'{"name": "\xff"}'])
    def test_undecodable_file_names_the_file(self, tmp_path, content):
        # Truncated JSON and bytes that are not UTF-8 used to exit 2 with the
        # decoder's message alone, naming no file.
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"invalid scenario file {str(path)!r}: ")):
            load_scenario(path)

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_spec_checks_its_seed(self, seed):
        # A float or bool seed used to generate seed 1's data, silently.
        with pytest.raises(ValueError, match=r"^seed must be (an integer|in \[0, 2\*\*64\))"):
            ScenarioSpec("s", (GroupRecipe("a", 5, 5, 0.7),), (), seed)

    @pytest.mark.parametrize("build, message", [
        (lambda: build_study(ScenarioSpec("s", (GroupRecipe("a", 2.5, 5, 0.7),), (), 0)),
         "group 'a': n_pos must be an integer, got 2.5"),
        (lambda: GroupRecipe("a", True, 5, 0.7), "group 'a': n_pos must be an integer, got True"),
        (lambda: ScenarioSpec("s", (GroupRecipe("a", 5, 5, 0.7),), (CandidateSpec(5),), 0),
         "model_id must be a string, got 5"),
        (lambda: ScenarioSpec("s", ("a",), (), 0),
         "baseline_recipes[0] must be a GroupRecipe, got 'a'"),
        (lambda: ScenarioSpec("s", (GroupRecipe("a", 5, 5, 0.7),), (CandidateSpec("m"), "m"), 0),
         "candidates[1] must be a CandidateSpec, got 'm'"),
    ], ids=["float-count", "bool-count", "int-model-id", "str-recipe", "str-candidate"])
    def test_spec_checks_its_field_types(self, build, message):
        # Each used to fail later with a TypeError or AttributeError that named no field.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_repeated_group_id(self):
        with pytest.raises(ValueError, match=r"scenario 's' repeats group ids \['a'\]"):
            ScenarioSpec("s", (GroupRecipe("a", 5, 5, 0.7), GroupRecipe("b", 5, 5, 0.7),
                               GroupRecipe("a", 5, 5, 0.8)), (), 0)

    def test_invalid_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ValueError, match="invalid scenario file"):
            load_scenario(path)
