"""Prediction-set ingestion, validation, alignment, and subgroup bucketing.

Input files are UTF-8 delimited text with a header row naming the columns
``example_id, finding, label, score, group`` in any order. One file holds one
model's scored test set, long format: one row per (example, finding).

In memory a set is one column table: ``score`` (float64), ``label`` (int8)
and integer codes into sorted vocabularies of example, finding and group ids.
Rows are sorted by (finding, example_id), so nothing computed from a set
depends on the row order of its input, and sets over the same keys have
equal vocabularies and the same row layout.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

REQUIRED_COLUMNS = ("example_id", "finding", "label", "score", "group")
_LABELS = {"0": 0, "1": 1}


class CohortError(ValueError):
    """Base class for prediction-data validation failures."""


class IngestError(CohortError):
    """Malformed or inconsistent prediction rows, from a file or from records."""


class AlignmentError(CohortError):
    """Candidate model does not share the baseline's test set."""


@dataclass(frozen=True)
class PredictionRecord:
    example_id: str
    finding_id: str
    label: int
    score: float
    group_id: str


@dataclass(frozen=True)
class InclusionPolicy:
    """Minimum per-(finding, group) case counts for a subgroup to be evaluated.

    The defaults drop subgroups with fewer than 5 positive or 5 negative
    cases, whose AUROC estimates would be too noisy to act on.
    """

    min_positives: int = 5
    min_negatives: int = 5

    def __post_init__(self) -> None:
        if self.min_positives < 0 or self.min_negatives < 0:
            raise ValueError("inclusion thresholds must be >= 0")

    def admits(self, n_pos: int, n_neg: int) -> bool:
        """The inclusion rule. A zero threshold still needs one case per side,
        since AUROC is undefined without it."""
        return n_pos >= max(self.min_positives, 1) and n_neg >= max(self.min_negatives, 1)


@dataclass(frozen=True)
class Cell:
    """Row indices of one bucket's positives and negatives, each in example_id order.

    Aligned sets share their row layout, so a baseline cell picks the same
    examples out of every candidate's ``score`` column.
    """

    group_id: str | None  # None for all of a finding's rows
    pos: np.ndarray
    neg: np.ndarray


def _encode(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    vocab = sorted(set(values))
    index = {v: i for i, v in enumerate(vocab)}
    return tuple(vocab), np.array([index[v] for v in values], dtype=np.intp)


class PredictionSet:
    """One model's scored test set, immutable after construction.

    Enforces: labels binary, scores finite, ids non-empty, (example_id,
    finding) unique, and every finding present has at least one positive and
    one negative record.
    """

    def __init__(self, model_id: str, records: Iterable[PredictionRecord]):
        recs = tuple(records)
        self._load(model_id, [r.example_id for r in recs], [r.finding_id for r in recs],
                   [r.label for r in recs], [r.score for r in recs], [r.group_id for r in recs])

    def _load(self, model_id, example_id, finding_id, label, score, group_id, lines=None) -> None:
        """Validate parallel per-row columns once, then encode, sort and bucket them.

        ``lines`` holds each row's input line number for error messages.
        """

        def where(i) -> str:
            return f"record {i}" if lines is None else f"line {lines[i]}"

        if not model_id:
            raise CohortError("model_id must be non-empty")
        if len(score) == 0:
            raise IngestError(f"empty input: no data rows for {model_id!r}")
        for i, y in enumerate(label):
            if y not in (0, 1):
                raise IngestError(f"{where(i)}: label not binary: {y!r}")
        scores = np.array(score, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise IngestError(f"{where(bad[0])}: score not finite: {float(scores[bad[0]])!r}")
        encoded = [_encode(ids) for ids in (example_id, finding_id, group_id)]
        for name, (vocab, codes) in zip(("example_id", "finding", "group"), encoded):
            if vocab[0] == "":
                raise IngestError(f"{where(np.argmax(codes == 0))}: empty {name}")
        (examples, ex), (findings, fi), (groups, gr) = encoded

        order = np.lexsort((ex, fi))
        ex, fi = ex[order], fi[order]
        repeats = np.flatnonzero((ex[1:] == ex[:-1]) & (fi[1:] == fi[:-1])) + 1
        if repeats.size:
            i = int(order[repeats].min())  # the first row that repeats an earlier key
            raise IngestError(f"{where(i)}: duplicate key {(example_id[i], finding_id[i])}")
        labels = np.array(label, dtype=np.int8)[order]
        n_pos = np.bincount(fi, weights=labels, minlength=len(findings))
        n_rows = np.bincount(fi, minlength=len(findings))
        for f, (p, n) in enumerate(zip(n_pos.tolist(), n_rows.tolist())):
            if p == 0 or p == n:
                raise IngestError(f"finding {findings[f]!r} in {model_id!r} has no "
                                  f"{'positive' if p == 0 else 'negative'} records")

        self.model_id = model_id
        self.examples, self.findings, self.groups = examples, findings, groups
        self.example_code, self.finding_code, self.group_code = ex, fi, gr[order]
        self.label, self.score = labels, scores[order]
        pooled = self._bucket(np.zeros_like(self.group_code), (None,))
        by_group = self._bucket(self.group_code, groups)
        self._cells = {f: (p[0], tuple(g)) for f, p, g in zip(findings, pooled, by_group)}

    def _bucket(self, group_code: np.ndarray, groups: Sequence[str | None]) -> list[list[Cell]]:
        """Split rows by (finding, group, label) into one list of cells per finding.

        The stable sort keeps each cell's rows in example_id order, which
        fixes the order bootstrap resamples draw from.
        """
        key = (self.finding_code * len(groups) + group_code) * 2 + (self.label == 0)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        runs = dict(zip(key[starts].tolist(), np.split(order, starts[1:])))
        none = order[:0]
        cells: list[list[Cell]] = [[] for _ in self.findings]
        for c in sorted({k // 2 for k in runs}):
            f, g = divmod(c, len(groups))
            cells[f].append(Cell(groups[g], runs.get(2 * c, none), runs.get(2 * c + 1, none)))
        return cells

    def _finding(self, finding: str) -> tuple[Cell, tuple[Cell, ...]]:
        if finding not in self._cells:
            raise CohortError(f"unknown finding {finding!r} in {self.model_id!r}")
        return self._cells[finding]

    def pooled(self, finding: str) -> Cell:
        """All rows of a finding, regardless of group."""
        return self._finding(finding)[0]

    def cells(self, finding: str) -> tuple[Cell, ...]:
        """One cell per group present in the finding, in group_id order."""
        return self._finding(finding)[1]

    @property
    def records(self) -> tuple[PredictionRecord, ...]:
        """The rows as records, in (finding, example_id) order."""
        return tuple(
            PredictionRecord(self.examples[e], self.findings[f], y, s, self.groups[g])
            for e, f, y, s, g in zip(self.example_code.tolist(), self.finding_code.tolist(),
                                     self.label.tolist(), self.score.tolist(),
                                     self.group_code.tolist())
        )

    def __len__(self) -> int:
        return len(self.score)

    def __eq__(self, other: object) -> bool:
        # Rows are canonically ordered, so input order never affects identity.
        if not isinstance(other, PredictionSet):
            return NotImplemented
        return self.model_id == other.model_id and self.records == other.records

    def __repr__(self) -> str:
        return (
            f"PredictionSet({self.model_id!r}, {len(self)} records, "
            f"{len(self.findings)} findings)"
        )


@dataclass(frozen=True)
class AlignedStudy:
    """A baseline and its candidates over one identical test set.

    Alignment guarantees every candidate scores exactly the baseline's
    (example, finding) keys with identical label and group per key, so every
    performance delta is attributable to scores alone. Model ids are unique.
    """

    baseline: PredictionSet
    candidates: tuple[PredictionSet, ...]

    def candidate(self, model_id: str) -> PredictionSet:
        for c in self.candidates:
            if c.model_id == model_id:
                return c
        raise CohortError(f"unknown candidate {model_id!r}")

    @property
    def findings(self) -> tuple[str, ...]:
        return self.baseline.findings


def ingest(source: str | os.PathLike | TextIO, model_id: str, delimiter: str = ",") -> PredictionSet:
    """Parse a delimited prediction file into a validated PredictionSet.

    Raises IngestError with a line number for malformed rows, a named key for
    duplicates, and outright for empty input.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return ingest(fh, model_id, delimiter=delimiter)

    header: list[str] | None = None
    col: list[int] = []
    example_ids, findings, labels, scores, groups, lines = [], [], [], [], [], []
    for lineno, row in enumerate(csv.reader(source, delimiter=delimiter), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if header is None:
            header = [cell.strip() for cell in row]
            missing = [c for c in REQUIRED_COLUMNS if c not in header]
            if missing:
                raise IngestError(f"line {lineno}: header missing columns {missing}")
            col = [header.index(name) for name in REQUIRED_COLUMNS]
            continue
        if len(row) != len(header):
            raise IngestError(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        example_id, finding, label, score, group = (row[i].strip() for i in col)
        try:
            scores.append(float(score))
        except ValueError:
            raise IngestError(f"line {lineno}: score not a number: {score!r}") from None
        example_ids.append(example_id)
        findings.append(finding)
        labels.append(_LABELS.get(label, label))
        groups.append(group)
        lines.append(lineno)
    pset = PredictionSet.__new__(PredictionSet)
    pset._load(model_id, example_ids, findings, labels, scores, groups, lines)
    return pset


def emit(pset: PredictionSet, target: str | os.PathLike | TextIO, delimiter: str = ",") -> None:
    """Write a PredictionSet in the ingestion format, canonically ordered.

    Rows are sorted by (finding, example_id) and scores use shortest
    round-trip decimals, so identical sets emit byte-identical files.
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            emit(pset, fh, delimiter=delimiter)
        return
    writer = csv.writer(target, delimiter=delimiter, lineterminator="\n")
    writer.writerow(REQUIRED_COLUMNS)
    writer.writerows(
        (r.example_id, r.finding_id, r.label, repr(r.score), r.group_id) for r in pset.records
    )


def align(baseline: PredictionSet, candidates: list[PredictionSet] | tuple[PredictionSet, ...]) -> AlignedStudy:
    """Verify model ids are unique and candidates share the baseline's exact test set.

    Reports up to 10 offending keys per candidate on mismatch.
    """
    ids = [baseline.model_id, *(c.model_id for c in candidates)]
    repeated = sorted({m for m in ids if ids.count(m) > 1})
    if repeated:
        raise AlignmentError(f"model ids must be unique, repeated: {repeated}")
    for cand in candidates:
        if not (cand.examples == baseline.examples and cand.findings == baseline.findings
                and np.array_equal(cand.example_code, baseline.example_code)
                and np.array_equal(cand.finding_code, baseline.finding_code)):
            base_keys = {(r.example_id, r.finding_id) for r in baseline.records}
            cand_keys = {(r.example_id, r.finding_id) for r in cand.records}
            missing = sorted(base_keys - cand_keys)
            extra = sorted(cand_keys - base_keys)
            parts = []
            if missing:
                parts.append(f"missing {len(missing)} baseline keys, e.g. {missing[:10]}")
            if extra:
                parts.append(f"has {len(extra)} keys absent from baseline, e.g. {extra[:10]}")
            raise AlignmentError(f"candidate {cand.model_id!r}: " + "; ".join(parts))
        if not (cand.groups == baseline.groups
                and np.array_equal(cand.label, baseline.label)
                and np.array_equal(cand.group_code, baseline.group_code)):
            mismatched = [
                (b.example_id, b.finding_id)
                for b, c in zip(baseline.records, cand.records)
                if (b.label, b.group_id) != (c.label, c.group_id)
            ]
            raise AlignmentError(
                f"candidate {cand.model_id!r} disagrees on label/group for keys "
                f"{mismatched[:10]}"
            )
    return AlignedStudy(baseline=baseline, candidates=tuple(candidates))
