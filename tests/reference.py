"""Straightforward forms of psfair's kernels, and test-only helpers.

``rank_auroc``, ``rank_bootstrap_auroc_ci`` and ``rank_delta_bootstrap_cis``
are the plain forms of a cell's point AUROC (``metrics._Brackets.points`` of a
one-model cell, as ``conftest.auroc`` takes it), of one cell's CI from
``metrics._resample`` and ``BootstrapConfig.interval`` (as
``conftest.bootstrap_ci`` takes it) and of
the delta CIs of ``positive_sum.compare(..., conservative=True)``. Each cell's stream is split
into a positive and a negative stream; every resample draws one index array
from each, on its own, and is re-ranked with ``scipy.stats.rankdata``. The
counting kernel must agree with them bit for bit.

``rowwise_cells`` is the plain form of ``psfair.metrics._bucket``: it puts
one row at a time into its cells, sorted by example id, where ``_bucket``
splits the finding's run of rows with one sort. The delta CIs' reference
takes its cells from it, so it shares no bucketing with the code it checks.

``rowwise_ingest`` is the plain form of ``psfair.cohort.ingest``: it checks
and converts one row at a time, where ``ingest`` works a chunk of columns at
a time. Both must return equal sets and raise the same messages.

``oracle_auroc`` is the exhaustive pair count that every AUROC is checked
against, and ``scenario_to_dict`` writes a scenario in its JSON file format.
"""

import csv

import numpy as np
from scipy.stats import rankdata

from psfair.cohort import REQUIRED_COLUMNS, IngestError, PredictionSet
from psfair.seeding import substream

ORACLE_SIZE_LIMIT = 10_000
LABELS = {"0": 0, "1": 1}


def oracle_auroc(pos, neg) -> float:
    """Exhaustive pair-count AUROC, ties half; the independent test oracle."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("undefined AUROC: empty side")
    if pos.size + neg.size > ORACLE_SIZE_LIMIT:
        raise ValueError(
            f"oracle limited to {ORACLE_SIZE_LIMIT} records, got {pos.size + neg.size}"
        )
    diff = pos[:, None] - neg[None, :]
    wins = int((diff > 0).sum())
    ties = int((diff == 0).sum())
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def rank_auroc(scores_pos, scores_neg) -> float:
    """Mann-Whitney AUROC from a rank sum; ties get midranks."""
    pos = np.asarray(scores_pos, dtype=np.float64)
    neg = np.asarray(scores_neg, dtype=np.float64)
    ranks = rankdata(np.concatenate([pos, neg]))
    n_pos, n_neg = pos.size, neg.size
    u = ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _interval(stats, boot) -> tuple[float, float]:
    alpha = 1.0 - boot.confidence_level
    low, high = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(low), float(high)


def _resamples(n_pos, n_neg, n_resamples, rng):
    """Yield one resample's (positive, negative) indices at a time."""
    pos_rng, neg_rng = rng.spawn(2)
    for _ in range(n_resamples):
        yield pos_rng.integers(0, n_pos, n_pos), neg_rng.integers(0, n_neg, n_neg)


def rank_bootstrap_auroc_ci(scores_pos, scores_neg, boot, rng) -> tuple[float, float]:
    draws = _resamples(len(scores_pos), len(scores_neg), boot.n_resamples, rng)
    stats = [rank_auroc(scores_pos[pi], scores_neg[ni]) for pi, ni in draws]
    return _interval(stats, boot)


def rowwise_cells(pset, finding):
    """A finding's cells as (group_id, positive rows, negative rows): the pooled
    cell (group_id None) first, then each group present in the finding, in
    group_id order. Rows are taken one at a time, in example id order."""
    rows = [i for i in range(len(pset)) if pset.findings[pset.finding_code[i]] == finding]
    cells = {None: ([], [])}
    for i in sorted(rows, key=lambda i: pset.examples[pset.example_code[i]]):
        side = 0 if pset.label[i] == 1 else 1
        for group in (None, pset.groups[pset.group_code[i]]):
            cells.setdefault(group, ([], []))[side].append(i)
    return [(g, *cells[g]) for g in [None, *sorted(g for g in cells if g is not None)]]


def rank_delta_bootstrap_cis(baseline, candidate, finding, groups, boot):
    """Paired CIs for (overall delta, min group delta) over the pooled cell and
    the cells of ``groups``, from ``rowwise_cells``; one stream per cell,
    keyed by the finding and the cell alone, so every candidate shares it."""
    b, c = baseline.score, candidate.score
    cells = {g: (np.array(pos, np.intp), np.array(neg, np.intp))
             for g, pos, neg in rowwise_cells(baseline, finding)}
    stats = []
    for token, (pos, neg) in [("", cells[None]), *[(g, cells[g]) for g in groups]]:
        rng = substream(boot.seed, "delta-bootstrap", finding, token)
        draws = _resamples(len(pos), len(neg), boot.n_resamples, rng)
        stats.append([rank_auroc(c[pos[pi]], c[neg[ni]]) - rank_auroc(b[pos[pi]], b[neg[ni]])
                      for pi, ni in draws])
    stats = np.array(stats)
    return _interval(stats[0], boot), _interval(stats[1:].min(axis=0), boot)


def rowwise_ingest(source, model_id, delimiter=","):
    """``ingest`` of an open text source, checking each row as it is read."""
    header = None
    col = []
    example_ids, findings, labels, scores, groups, lines = [], [], [], [], [], []
    reader = csv.reader(source, delimiter=delimiter)
    try:
        for row in reader:
            lineno = reader.line_num  # physical line: a quoted field may span several
            if not row or all(not cell.strip() for cell in row):
                continue
            if header is None:
                header = [cell.strip() for cell in row]
                missing = [c for c in REQUIRED_COLUMNS if c not in header]
                if missing:
                    raise IngestError(f"line {lineno}: header missing columns {missing}")
                repeated = [c for c in REQUIRED_COLUMNS if header.count(c) > 1]
                if repeated:
                    raise IngestError(f"line {lineno}: header repeats columns {repeated}")
                col = [header.index(name) for name in REQUIRED_COLUMNS]
                continue
            if len(row) != len(header):
                raise IngestError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            example_id, finding, label, score, group = (row[i].strip() for i in col)
            try:
                scores.append(float(score))
            except ValueError:
                raise IngestError(f"line {lineno}: score not a number: {score!r}") from None
            example_ids.append(example_id)
            findings.append(finding)
            labels.append(LABELS.get(label, label))
            groups.append(group)
            lines.append(lineno)
    except csv.Error as exc:
        raise IngestError(f"line {reader.line_num}: {exc}") from None
    return PredictionSet(model_id, example_ids, findings, labels, scores, groups, lines)


def scenario_to_dict(spec) -> dict:
    """A ``ScenarioSpec`` in the JSON form that ``load_scenario`` reads."""
    return {
        "name": spec.name,
        "seed": spec.seed,
        "finding": spec.finding,
        "groups": [
            {
                "group_id": r.group_id,
                "n_pos": r.n_pos,
                "n_neg": r.n_neg,
                "target_auc": r.target_auc,
            }
            for r in spec.baseline_recipes
        ],
        "candidates": [
            {"model_id": c.model_id, "overrides": dict(sorted(c.overrides.items()))}
            for c in spec.candidates
        ],
    }
