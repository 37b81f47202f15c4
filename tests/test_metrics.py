import re
import zlib

import numpy as np
import pytest

from psfair.cohort import InclusionPolicy, IngestError
from psfair.metrics import (
    BootstrapConfig,
    audit_study,
    macro_average,
    summarize,
)
from psfair.seeding import substream
from conftest import auroc, group_rows, make_set, random_instance, set_rows
from reference import oracle_auroc


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([1.0, 0.9], [0.1, 0.2]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5], [0.5, 0.5]) == 0.5

    def test_pair_count_example(self):
        # 3 of the 4 (pos, neg) pairs are correctly ordered.
        assert auroc([0.9, 0.4], [0.8, 0.2]) == 0.75

    def test_empty_side_errors(self):
        # A cell's AUROC needs both sides, so every set must give each finding both.
        with pytest.raises(IngestError, match="finding 'f' in 'm' has no positive records"):
            make_set("m", [("e0", "f", 0, 0.1, "a")])
        with pytest.raises(IngestError, match="finding 'f' in 'm' has no negative records"):
            make_set("m", [("e0", "f", 1, 0.9, "a")])

    def test_matches_oracle_on_random_instances(self, rng):
        for _ in range(200):
            pos, neg = random_instance(rng)
            assert auroc(pos, neg) == oracle_auroc(pos, neg)

    def test_rank_invariance(self, rng):
        transforms = [
            lambda x: 2.0 * x + 1.0,
            np.exp,
            lambda x: x**3,
            lambda x: np.arctan(x) * 7.0 - 2.0,
        ]
        for _ in range(50):
            pos, neg = random_instance(rng)
            base = auroc(pos, neg)
            for f in transforms:
                assert auroc(f(np.array(pos)), f(np.array(neg))) == base

    def test_complement_symmetry(self, rng):
        # Negating scores turns each correctly ordered pair into a reversed
        # one; the result is the correctly rounded value of 1 - exact AUROC.
        from fractions import Fraction

        for _ in range(50):
            pos, neg = random_instance(rng)
            p, n = np.array(pos), np.array(neg)
            diff = p[:, None] - n[None, :]
            wins = int((diff > 0).sum())
            ties = int((diff == 0).sum())
            exact = Fraction(2 * wins + ties, 2 * p.size * n.size)
            assert auroc(pos, neg) == float(exact)
            assert auroc(-p, -n) == float(1 - exact)


class TestGroupPerformance:
    def test_small_group_excluded_without_ci(self):
        rows = group_rows("f", "small", [0.9] * 4, [0.1] * 20)
        rows += group_rows("f", "big", [0.9] * 8, [0.1] * 8)
        perf = {g.group_id: g for g in summarize(make_set("m", rows), "f").per_group}
        assert not perf["small"].included
        assert perf["small"].ci_low is None and perf["small"].ci_high is None
        assert perf["small"].auroc is not None  # point estimate still reported
        assert perf["big"].included and perf["big"].ci_low is not None

    def test_perfect_separation_ci_stays_perfect(self):
        pset = make_set("m", group_rows("f", "g", [2.0 + i for i in range(6)], [-i * 1.0 for i in range(6)]))
        (g,) = summarize(pset, "f").per_group
        assert g.auroc == 1.0
        assert g.ci_high == 1.0

    def test_fixed_seed_bit_identical(self, rng):
        rows = group_rows("f", "g", list(rng.normal(1, 1, 30)), list(rng.normal(0, 1, 40)))
        pset = make_set("m", rows)
        boot = BootstrapConfig(seed=99)
        a = summarize(pset, "f", boot=boot).per_group
        b = summarize(pset, "f", boot=boot).per_group
        assert a == b

    def test_different_seed_differs(self, rng):
        rows = group_rows("f", "g", list(rng.normal(1, 1, 30)), list(rng.normal(0, 1, 40)))
        pset = make_set("m", rows)
        a = summarize(pset, "f", boot=BootstrapConfig(seed=1)).per_group
        b = summarize(pset, "f", boot=BootstrapConfig(seed=2)).per_group
        assert (a[0].ci_low, a[0].ci_high) != (b[0].ci_low, b[0].ci_high)

    def test_ci_brackets_point_estimate(self, rng):
        for _ in range(20):
            pos, neg = random_instance(rng, max_records=60)
            if len(pos) < 5 or len(neg) < 5:
                continue
            pset = make_set("m", group_rows("f", "g", pos, neg))
            (g,) = summarize(pset, "f", boot=BootstrapConfig(n_resamples=50, seed=3)).per_group
            assert g.ci_low <= g.auroc <= g.ci_high


class TestSummarize:
    def _three_group_set(self):
        # AUROCs by construction: a=0.80, b=0.70, c=0.75 over 20x20 pairs.
        rows = []
        for g, auc in (("a", 0.80), ("b", 0.70), ("c", 0.75)):
            n_wrong = round((1 - auc) * 400)
            pos = [1.0] * 20
            neg = [0.0] * 20
            # invert n_wrong pairs by lifting some negatives above one positive
            k = n_wrong // 20
            neg[:k] = [2.0] * k
            rows += group_rows("f", g, pos, neg)
        return make_set("m", rows)

    def test_fairness_score_and_worst_group(self):
        s = summarize(self._three_group_set(), "f")
        aurocs = {g.group_id: g.auroc for g in s.per_group}
        assert aurocs == {"a": 0.80, "b": 0.70, "c": 0.75}
        assert s.fairness_score == 1.0 - (0.80 - 0.70)
        assert s.worst_group == "b"

    def test_all_equal_fairness_one(self):
        rows = []
        for g in ("x", "y", "z"):
            rows += group_rows("f", g, [0.9] * 5 + [0.2] * 5, [0.8] * 5 + [0.1] * 5)
        s = summarize(make_set("m", rows), "f")
        assert s.fairness_score == 1.0

    def test_single_included_group_flagged_undefined(self):
        rows = group_rows("f", "only", [0.9] * 6, [0.1] * 6)
        rows += group_rows("f", "tiny", [0.9] * 2, [0.1] * 2)
        s = summarize(make_set("m", rows), "f")
        assert s.fairness_score is None
        assert s.worst_group is None
        assert 0.0 <= s.overall_auroc <= 1.0

    def test_overall_pools_excluded_groups(self):
        rows = group_rows("f", "big", [0.9] * 10, [0.1] * 10)
        rows += group_rows("f", "tiny", [0.0] * 2, [1.0] * 2)  # inverted scores
        s = summarize(make_set("m", rows), "f")
        pooled = auroc([0.9] * 10 + [0.0] * 2, [0.1] * 10 + [1.0] * 2)
        assert s.overall_auroc == pooled
        assert s.overall_auroc < 1.0

    def test_interior_group_does_not_change_fairness(self):
        base = self._three_group_set()
        s_base = summarize(base, "f")
        extra = group_rows("f", "d", [1.0] * 20, [0.0] * 15 + [2.0] * 5)  # auroc 0.75
        s_more = summarize(make_set("m", set_rows(base) + extra), "f")
        d = {g.group_id: g.auroc for g in s_more.per_group}["d"]
        assert 0.70 <= d <= 0.80
        assert s_more.fairness_score == s_base.fairness_score


class TestMacroAverage:
    def test_mean(self):
        s1 = summarize(make_set("m", group_rows("f1", "g", [0.9] * 5, [0.1] * 5)), "f1")
        assert macro_average([s1]) == s1.overall_auroc
        assert macro_average([s1, s1]) == s1.overall_auroc

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            macro_average([])


def test_audit_study_summarizes_every_finding_in_order():
    rows = [*group_rows("f2", "a", [0.9] * 6, [0.1] * 6),
            *group_rows("f2", "b", [0.9] * 6, [0.5] * 6),
            *group_rows("f1", "a", [0.7, 0.2] * 3, [0.4] * 6, prefix="x")]
    pset, policy, boot = make_set("m", rows), InclusionPolicy(), BootstrapConfig(40, 0.9, 3)
    result = audit_study(pset, policy, boot)
    summaries = tuple(summarize(pset, f, policy, boot) for f in ("f1", "f2"))
    assert result.model_id == "m"
    assert result.summaries == summaries
    assert result.macro_average_auroc == macro_average(summaries)
    assert result.fairness_undefined == ("f1",)  # one included group


def test_overall_auroc_matches_direct():
    pset = make_set("m", group_rows("f", "g", [0.9, 0.4], [0.8, 0.2]))
    assert summarize(pset, "f", boot=None).overall_auroc == 0.75


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(n_resamples=0)
    with pytest.raises(ValueError):
        BootstrapConfig(confidence_level=1.0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
def test_seed_outside_64_bits_is_rejected(seed):
    # Masked to 64 bits, seed 2**64 drew the streams of seed 0 while the
    # report's config block said 2**64.
    with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**64), got {seed}")):
        BootstrapConfig(seed=seed)
    with pytest.raises(ValueError, match=re.escape("seed must be in [0, 2**64)")):
        substream(seed, "bootstrap")


@pytest.mark.parametrize("seed", [1.5, True, "5", np.int64(5), None])
def test_substream_seed_must_be_an_int(seed):
    # int() used to be applied first, so 1.5 and True drew seed 1's stream and "5" seed 5's.
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        substream(seed, "a")


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63, 2**64 - 1])
def test_in_range_seed_streams_are_unchanged(seed):
    assert BootstrapConfig(seed=seed).seed == seed
    words = [zlib.crc32(t.encode()) for t in ("bootstrap", "m", "f", "g")]
    masked = np.random.SeedSequence([seed & (2**64 - 1), *words])
    expected = np.random.Generator(np.random.Philox(masked)).integers(0, 2**62, 8)
    assert (substream(seed, "bootstrap", "m", "f", "g").integers(0, 2**62, 8) == expected).all()


@pytest.mark.parametrize("field,value", [
    ("seed", 1.5), ("seed", True), ("seed", "1"),
    ("n_resamples", 2.5), ("n_resamples", True), ("n_resamples", np.int64(5)),
    ("confidence_level", "0.9"), ("confidence_level", None), ("confidence_level", True),
])
def test_bootstrap_config_field_types(field, value):
    # A report's config block holds these values as given, so a float or bool
    # seed must not resample as seed 1 and then be written as 1.5 or true.
    with pytest.raises(ValueError, match=f"^{field} must be (an integer|a number), got"):
        BootstrapConfig(**{field: value})
