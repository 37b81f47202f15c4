"""The counting AUROC kernel equals the rank-based reference bit for bit.

Point AUROCs, audit CIs and paired delta CIs are compared with ``==``
against ``reference.py``, which draws one resample at a time from each cell
side's stream, under heavy ties, sides of one score, a single resample,
ragged last blocks and blocks of one resample each. CIs must not depend on
the block cap or on the cells around them, and no block may exceed the cap.
``compare`` brackets each cell once for both models and must agree with the
one-model ``summarize``; a model's resamples and point of a cell shared with
1-3 other models must be those it has alone. ``_score`` must count rows of
multinomial draw counts as the indices they stand for, however the rows were
drawn. The cells that every resample draws from must be
``reference.rowwise_cells``, index for index. Examples are derandomized, so
every run checks the same cases.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from psfair import metrics
from psfair.cohort import InclusionPolicy, align
from psfair.metrics import BootstrapConfig, summarize
from psfair.positive_sum import compare
from psfair.seeding import substream
from conftest import auroc, bootstrap_ci, make_set
from reference import (_resamples, rank_auroc, rank_bootstrap_auroc_ci, rank_delta_bootstrap_cis,
                       rowwise_cells)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# 1 puts every resample in a block of its own; 7 and 50 leave ragged last blocks.
block_caps = st.sampled_from([1, 7, 50, metrics._BLOCK_ELEMS])
resample_counts = st.one_of(st.just(1), st.integers(1, 25))
seeds = st.integers(0, 2**32)


def side_size(max_size: int, min_size: int = 1):
    return st.one_of(st.just(min_size), st.integers(min_size, max_size))


@st.composite
def tied_score(draw):
    """A score strategy rounded to 0-3 decimals: few levels, many ties."""
    decimals = draw(st.integers(0, 3))
    return st.floats(-2, 2, allow_nan=False).map(lambda x: round(x, decimals))


@st.composite
def sides(draw, max_size=30):
    score = draw(tied_score())
    return tuple(np.array(draw(st.lists(score, min_size=n, max_size=n)))
                 for n in (draw(side_size(max_size)), draw(side_size(max_size))))


@PROPERTY
@given(sides(max_size=200))
def test_point_auroc_matches_rank_sum(scores):
    assert auroc(*scores) == rank_auroc(*scores)


@PROPERTY
@given(sides(), resample_counts, block_caps, seeds)
def test_bootstrap_ci_matches_reference(scores, n, cap, seed):
    boot = BootstrapConfig(n_resamples=n)
    with mock.patch.object(metrics, "_BLOCK_ELEMS", cap):
        got = bootstrap_ci(*scores, boot, substream(seed, "ci"))
    assert got == rank_bootstrap_auroc_ci(*scores, boot, substream(seed, "ci"))


@st.composite
def paired_study(draw, min_side=1):
    """An aligned baseline and candidate over 1-3 groups of one finding; with
    min_side=0 a group may lack one side, never both, but the finding has both."""
    score = draw(tied_score())
    rows = ([], [])
    for g in draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)):
        n_pos = draw(side_size(8, min_side))
        n_neg = draw(side_size(8, min_side if n_pos else 1))
        for i in range(n_pos + n_neg):
            for model in rows:
                model.append((f"{g}{i}", "f", int(i < n_pos), draw(score), g))
    assume({label for _, _, label, _, _ in rows[0]} == {0, 1})
    return align(make_set("base", rows[0]), [make_set("cand", rows[1])])


@st.composite
def bucketed_set(draw):
    """One model's rows over 1-3 findings of up to 4 groups each. A group may
    be absent from a finding or lack one side there, and example ids are
    shuffled across groups and labels, so no cell is a run of rows."""
    rows = []
    for f in draw(st.lists(st.sampled_from(["f1", "f2", "f3"]), min_size=1, max_size=3,
                           unique=True)):
        cells = [(g, label) for g in draw(st.lists(st.sampled_from("abcd"), min_size=1,
                                                   max_size=4, unique=True))
                 for label in (1, 0) for _ in range(draw(st.integers(0, 4)))]
        assume({label for _, label in cells} == {0, 1})
        ids = draw(st.permutations(range(len(cells))))  # "x10" sorts before "x2"
        rows += [(f"x{k}", f, label, 0.5, g) for k, (g, label) in zip(ids, cells)]
    return make_set("m", rows)


@PROPERTY
@given(bucketed_set())
def test_bucket_matches_rowwise_cells(pset):
    for finding in pset.findings:
        cells = [(g, pos.tolist(), neg.tolist()) for g, pos, neg in metrics._bucket(pset, finding)]
        assert cells == rowwise_cells(pset, finding)


@PROPERTY
@given(paired_study(), resample_counts, block_caps, seeds)
def test_audit_cis_match_reference(study, n, cap, seed):
    pset = study.baseline
    boot = BootstrapConfig(n_resamples=n, seed=seed)
    with mock.patch.object(metrics, "_BLOCK_ELEMS", cap):
        perf = summarize(pset, "f", InclusionPolicy(1, 1), boot).per_group
    for (group_id, pos_rows, neg_rows), g in zip(metrics._bucket(pset, "f")[1:], perf):
        pos, neg = pset.score[pos_rows], pset.score[neg_rows]
        assert g.auroc == rank_auroc(pos, neg)
        low, high = rank_bootstrap_auroc_ci(
            pos, neg, boot, substream(seed, "bootstrap", "base", "f", group_id))
        assert (g.ci_low, g.ci_high) == (min(low, g.auroc), max(high, g.auroc))


@PROPERTY
@given(paired_study(), resample_counts, block_caps, seeds)
def test_delta_cis_match_reference(study, n, cap, seed):
    boot = BootstrapConfig(n_resamples=n, seed=seed)
    baseline, candidate = study.baseline, study.candidates[0]
    cells = metrics._bucket(baseline, "f")[1:]
    with mock.patch.object(metrics, "_BLOCK_ELEMS", cap):
        cmp = compare(study, "f", "cand", InclusionPolicy(1, 1), boot, conservative=True)
    expected = rank_delta_bootstrap_cis(baseline, candidate, "f", baseline.groups, boot)
    assert (cmp.overall_delta_ci, cmp.min_group_delta_ci) == expected
    for (_, pos, neg), d in zip(cells, cmp.group_deltas):
        b, c = baseline.score, candidate.score
        assert d.baseline_auroc == rank_auroc(b[pos], b[neg])
        assert d.candidate_auroc == rank_auroc(c[pos], c[neg])


@PROPERTY
@given(paired_study(min_side=0), st.integers(0, 4), st.integers(0, 4))
def test_compare_matches_group_performance(study, min_pos, min_neg):
    # compare brackets each cell once for both models; its AUROCs, inclusion
    # and overall delta must still be those of the one-model functions.
    policy = InclusionPolicy(min_pos, min_neg)
    baseline, candidate = study.baseline, study.candidates[0]
    summaries = [summarize(m, "f", policy, None) for m in (baseline, candidate)]
    perf = [s.per_group for s in summaries]
    try:
        cmp = compare(study, "f", "cand", policy)
    except ValueError:
        assert not any(g.included for g in perf[0])
        return
    assert len(cmp.group_deltas) == len(perf[0]) == len(perf[1])
    for d, b, c in zip(cmp.group_deltas, *perf):
        assert (d.group_id, d.baseline_auroc, d.candidate_auroc) == (b.group_id, b.auroc, c.auroc)
        assert d.jointly_included == b.included == c.included
    assert cmp.overall_delta == summaries[1].overall_auroc - summaries[0].overall_auroc


@PROPERTY
@given(paired_study(min_side=0), st.integers(0, 3), st.integers(0, 3), resample_counts, seeds)
def test_compare_brackets_each_cell_once_per_model(study, min_pos, min_neg, n, seed):
    # Each cell with both sides is bracketed once, for both models; excluded
    # cells too (their AUROCs are reported). The resamples reuse the brackets
    # of the included ones.
    policy = InclusionPolicy(min_pos, min_neg)
    cells = metrics._bucket(study.baseline, "f")
    assume(any(policy.admits(len(pos), len(neg)) for _, pos, neg in cells[1:]))
    built = []
    init = metrics._Brackets.__init__

    def counting_init(self, pos, neg):
        built.append(len(pos))
        init(self, pos, neg)

    with mock.patch.object(metrics._Brackets, "__init__", counting_init):
        compare(study, "f", "cand", policy, BootstrapConfig(n, seed=seed), conservative=True)
    assert built == [2] * sum(1 for _, pos, neg in cells if len(pos) and len(neg))


@st.composite
def companion_cells(draw, max_models=4, continuous=True):
    """One cell of 1-40 per side scored by 1-``max_models`` models, each with
    tie-prone or (if ``continuous``) continuous scores: a list of (positive,
    negative) scores per model."""
    n_pos, n_neg = draw(side_size(40)), draw(side_size(40))
    scores = st.one_of(tied_score(), st.just(st.floats(-2, 2, allow_nan=False)))
    cells = []
    for _ in range(draw(st.integers(1, max_models))):
        score = draw(scores if continuous else tied_score())
        cells.append(tuple(np.array(draw(st.lists(score, min_size=n, max_size=n)))
                           for n in (n_pos, n_neg)))
    return cells


@PROPERTY
@given(companion_cells(), resample_counts, block_caps, seeds)
def test_a_models_resamples_do_not_depend_on_its_companions(cells, n, cap, seed):
    # Levels are shared by every model of a cell, but each model's row and
    # point must be those it has alone: each resample's rank-sum AUROC.
    shared = metrics._Brackets(*zip(*cells))
    with mock.patch.object(metrics, "_BLOCK_ELEMS", cap):
        rows = metrics._resample(shared, n, substream(seed, "companions"))
        for (pos, neg), row, point in zip(cells, rows, shared.points()):
            alone = metrics._Brackets([pos], [neg])
            assert alone.points() == [point] == [rank_auroc(pos, neg)]
            (own,) = metrics._resample(alone, n, substream(seed, "companions"))
            assert row.tolist() == own.tolist()
            draws = _resamples(len(pos), len(neg), n, substream(seed, "companions"))
            assert row.tolist() == [rank_auroc(pos[pi], neg[ni]) for pi, ni in draws]


@PROPERTY
@given(companion_cells(max_models=3, continuous=False), st.integers(1, 6), seeds)
def test_counting_does_not_depend_on_how_rows_were_drawn(cells, n_rows, seed):
    # ``_score`` is fed per-row draw counts, whatever drew them: here each row
    # is one multinomial draw of n_neg negatives and one of n_pos positives,
    # at uneven odds, and must score as the indices it stands for.
    cell = metrics._Brackets(*zip(*cells))
    n_pos, n_neg, width = len(cell.lo[0]), len(cell.level), cell.n_levels + 1
    rng = np.random.default_rng(seed)
    neg_w, weight = (np.array([rng.multinomial(n, rng.dirichlet(np.ones(n)))
                               for _ in range(n_rows)]) for n in (n_neg, n_pos))
    counts = np.zeros((n_rows, width), np.intp)
    for r in range(n_rows):
        np.add.at(counts[r], cell.level + 1, neg_w[r])
    out = np.empty((len(cells), n_rows))
    metrics._score(cell, counts, weight, np.empty((n_rows, n_pos), np.intp),
                   np.empty(counts.size, np.intp), out)
    for (pos, neg), row in zip(cells, out):
        assert row.tolist() == [rank_auroc(pos[np.repeat(np.arange(n_pos), pw)],
                                           neg[np.repeat(np.arange(n_neg), nw)])
                                for pw, nw in zip(weight, neg_w)]


@st.composite
def gated_set(draw):
    """One model's cells over 2-8 groups of one finding; an excluded group has
    a side below 3, possibly empty, so excluded cells fall between included ones."""
    score = draw(tied_score())
    groups = draw(st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=8, unique=True))
    admitted = draw(st.lists(st.booleans(), min_size=len(groups), max_size=len(groups))
                    .filter(any))
    rows = []
    for g, admit in zip(groups, admitted):
        sizes = [draw(st.integers(3, 8)), draw(st.integers(3, 8))]
        if not admit:
            sizes[draw(st.integers(0, 1))] = draw(st.integers(0, 2))
        n_pos, n_neg = sizes
        for i in range(n_pos + n_neg):
            rows.append((f"{g}{i}", "f", int(i < n_pos), draw(score), g))
    return make_set("m", rows)


@PROPERTY
@given(gated_set(), resample_counts, block_caps, seeds)
def test_audit_rows_follow_their_cells(pset, n, cap, seed):
    # One quantile call serves every included cell: each CI must still come
    # from its own cell's stream, whichever cells around it are excluded.
    policy = InclusionPolicy(3, 3)
    boot = BootstrapConfig(n_resamples=n, seed=seed)
    with mock.patch.object(metrics, "_BLOCK_ELEMS", cap):
        perf = summarize(pset, "f", policy, boot).per_group
    cells = metrics._bucket(pset, "f")[1:]
    assert len(perf) == len(cells)
    for (group_id, pos_rows, neg_rows), g in zip(cells, perf):
        pos, neg = pset.score[pos_rows], pset.score[neg_rows]
        assert (g.group_id, g.n_pos, g.n_neg) == (group_id, len(pos), len(neg))
        assert g.included == policy.admits(len(pos), len(neg))
        assert g.auroc == (rank_auroc(pos, neg) if len(pos) and len(neg) else None)
        if not g.included:
            assert (g.ci_low, g.ci_high, g.low_confidence) == (None, None, False)
            continue
        low, high = rank_bootstrap_auroc_ci(
            pos, neg, boot, substream(seed, "bootstrap", "m", "f", group_id))
        assert (g.ci_low, g.ci_high) == (min(low, g.auroc), max(high, g.auroc))
        assert g.low_confidence == (not low <= g.auroc <= high)


@PROPERTY
@given(st.integers(1, 8), resample_counts, st.floats(0.5, 0.99), seeds)
def test_interval_of_rows_matches_each_row(rows, n, level, seed):
    boot = BootstrapConfig(n_resamples=n, confidence_level=level)
    stats = np.round(np.random.default_rng(seed).random((rows, n)), 1)  # with ties
    low, high = boot.interval(stats)
    assert list(zip(low, high)) == [boot.interval(row) for row in stats]
    assert all(type(end) is float for end in boot.interval(stats[0]))


@settings(PROPERTY, max_examples=300)
@given(st.one_of(st.none(), st.integers(1, 4)), st.one_of(st.just(1), st.integers(1, 400)),
       st.one_of(st.sampled_from([0.5, 1e-9, 0.01, 0.99, 1 - 1e-9]),
                 st.floats(0, 1, exclude_min=True, exclude_max=True)),
       st.sampled_from([0, 1, 2, None]), st.booleans(), seeds)
def test_interval_is_numpys_linear_quantile(rows, n, level, decimals, signed, seed):
    # interval writes np.quantile's default rule out; the two must agree bit for bit.
    stats = np.random.default_rng(seed).random((n,) if rows is None else (rows, n))
    if signed:
        stats = 2.0 * stats - 1.0
    if decimals is not None:  # ties; + 0.0 makes each rounded -0.0 a 0.0, since a sort
        stats = np.round(stats, decimals) + 0.0  # and a partition may order the two apart
    alpha = 1.0 - level
    expected = tuple(np.quantile(stats, [alpha / 2, 1 - alpha / 2], axis=-1).tolist())
    assert repr(BootstrapConfig(confidence_level=level).interval(stats)) == repr(expected)


# AUROC-like values, ties at the ends and values next to them, and subnormals.
interval_values = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, np.nextafter(1.0, 0.0), 5e-324, 2.2e-308]),
    st.floats(0, 1), st.integers(0, 20).map(lambda i: i / 20))


@settings(PROPERTY, max_examples=100)
@given(st.integers(1, 4).flatmap(lambda rows: st.integers(1, 59).flatmap(
           lambda n: st.lists(st.lists(interval_values, min_size=n, max_size=n),
                              min_size=rows, max_size=rows))),
       st.one_of(st.sampled_from([0.5, 0.95, 0.999]), st.floats(0.5, 0.999)))
def test_interval_stays_within_each_rows_range(stats, level):
    # Interpolating between two sorted resamples never leaves them, so an AUROC CI
    # needs no clamp to [0, 1].
    stats = np.array(stats)
    low, high = BootstrapConfig(confidence_level=level).interval(stats)
    for row, a, b in zip(stats, low, high):
        assert row.min() <= a <= b <= row.max()


def test_cell_larger_than_block_cap():
    # With the real cap: one resample per block, then a ragged last block.
    rng = np.random.default_rng(5)
    boot = BootstrapConfig(n_resamples=3)
    big = (np.round(rng.normal(0.5, 1, 40_000), 2), np.round(rng.normal(0, 1, 30_000), 2))
    assert sum(map(len, big)) > metrics._BLOCK_ELEMS
    assert (bootstrap_ci(*big, boot, substream(1, "big"))
            == rank_bootstrap_auroc_ci(*big, boot, substream(1, "big")))
    mid = (big[0][:3000], big[1][:2000])
    # Two full blocks and a ragged last one.
    boot = BootstrapConfig(n_resamples=2 * (metrics._BLOCK_ELEMS // 5000) + 1)
    assert (bootstrap_ci(*mid, boot, substream(2, "mid"))
            == rank_bootstrap_auroc_ci(*mid, boot, substream(2, "mid")))


@PROPERTY
@given(paired_study(), resample_counts, seeds)
def test_cis_ignore_block_cap_and_cell_order(study, n, seed):
    boot = BootstrapConfig(n_resamples=n, seed=seed)

    def cis():
        cmp = compare(study, "f", "cand", InclusionPolicy(1, 1), boot, conservative=True)
        return (summarize(study.baseline, "f", InclusionPolicy(1, 1), boot).per_group,
                cmp.overall_delta_ci, cmp.min_group_delta_ci)

    expected = cis()
    for cap in (1, 7, 50):
        with mock.patch.object(metrics, "_BLOCK_ELEMS", cap):
            assert cis() == expected


class RecordingStream:
    """A cell's stream that keeps a copy of every index array drawn from each of
    the two streams it spawns, positives' then negatives'."""

    def __init__(self, rng):
        self.rng, self.draws = rng, ([], [])

    def spawn(self, n_children):
        children = self.rng.spawn(n_children)
        self.sides = [RecordingSide(child, log) for child, log in zip(children, self.draws)]
        return self.sides


class RecordingSide:
    """One side's stream: ``log`` keeps a copy of each index array as drawn,
    ``issued`` the array itself, which the kernel may then write into."""

    def __init__(self, rng, log):
        self.rng, self.log, self.issued = rng, log, []

    def integers(self, *args):
        drawn = self.rng.integers(*args)
        self.log.append(drawn.copy())
        self.issued.append(drawn)
        return drawn


@PROPERTY
@given(side_size(40), side_size(40), st.integers(1, 3), resample_counts, block_caps)
def test_blocks_respect_the_cap(n_pos, n_neg, n_models, n, cap):
    # Each block draws each side once, for every model, and holds at most
    # the cap's indices unless it is a single resample.
    stream = RecordingStream(substream(0, "blocks"))
    cell = metrics._Brackets([np.zeros(n_pos)] * n_models, [np.zeros(n_neg)] * n_models)
    with (mock.patch.object(metrics, "_BLOCK_ELEMS", cap),
          mock.patch.object(metrics.np, "take", wraps=np.take) as take):
        stats = metrics._resample(cell, n, stream)
    assert stats.shape == (n_models, n) and (stats == 0.5).all()
    pos_draws, neg_draws = stream.draws
    assert len(pos_draws) == len(neg_draws) and sum(len(pos) for pos in pos_draws) == n
    for pos, neg in zip(pos_draws, neg_draws):
        count = len(pos)
        assert count == 1 or count * (n_pos + n_neg) <= cap
        assert pos.shape == (count, n_pos) and neg.shape == (count, n_neg)
        assert 0 <= pos.min() and pos.max() < n_pos and 0 <= neg.min() and neg.max() < n_neg
    # Every ``take`` writes into the block's drawn positives (the gathers) or
    # into one scratch array that serves every block and model of the call:
    # the drawn levels, then each model's reordered counts but model 0's. It
    # holds the largest block's rows of n_neg + 1 slots.
    outs = [call.kwargs.get("out") for call in take.call_args_list]
    assert all(out is not None for out in outs)
    drawn = stream.sides[0].issued
    scratch = [out for out in outs if not any(out is pos for pos in drawn)]
    assert len(scratch) == len(pos_draws) * n_models
    buffer = scratch[0].base
    assert buffer is not None and all(out.base is buffer for out in scratch)
    assert buffer.size == max(len(pos) for pos in pos_draws) * (n_neg + 1)


def test_memory_does_not_grow_with_resamples():
    # Scratch holds one block, so the peak of a multi-block cell grows with
    # n_resamples only by the result array.
    rng = np.random.default_rng(9)
    cell = metrics._Brackets([np.round(rng.normal(0.5, 1, 900), 2) for _ in range(3)],
                             [np.round(rng.normal(0, 1, 1100), 2) for _ in range(3)])
    assert metrics._BLOCK_ELEMS // 2000 < 60  # several blocks even at 60 resamples

    def peak(n):
        metrics._resample(cell, n, substream(3, "peak"))  # warm every code path first
        tracemalloc.start()
        try:
            metrics._resample(cell, n, substream(3, "peak"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The 1 KiB allows for the int objects (above 256) that bound the later blocks.
    assert peak(600) - peak(60) <= 3 * (600 - 60) * np.dtype(np.float64).itemsize + 1024
