"""Prediction-set ingestion, validation and alignment.

Input files are UTF-8 delimited text with a header row naming the columns
``example_id, finding, label, score, group`` in any order; a leading
byte-order mark is ignored. One file holds one model's scored test set, long
format: one row per (example, finding).

Both readers share one grammar, ``csv.reader``'s default dialect with the
given delimiter. A chunk of lines, each ending in LF or CRLF, is split with
``str.split``, which reads it as ``csv.reader`` does, unless it holds a quote,
a NUL, any other CR, a blank or bad row, a bad score or a field past the field
size limit. From the first such chunk ``csv.reader`` reads the rest. ``emit``
writes the same grammar and quotes an id that holds the delimiter, a quote,
CR or LF.

An id (example, finding or group) is a non-empty string with no surrounding
whitespace, as a file carries it, since ingest strips every field it reads.
``_check_id`` states that rule once, for a ``PredictionSet`` and for the ids of
a synthetic scenario.

In memory a set is its column table and nothing more: ``score`` (float64),
``label`` (int8) and integer codes into sorted vocabularies of example,
finding and group ids. Rows are sorted by (finding, example_id), so nothing
computed from a set depends on the row order of its input, sets over the
same keys have equal vocabularies and the same row layout, and each
finding's rows are one contiguous run.

Ingest encodes each chunk of lines as soon as it is read, so it never holds
a whole file's strings: per chunk it holds the chunk's fields, and per row
only numbers, three id codes, a label, a score and a line number. An id's
string is held once, in its column's vocabulary. Memory thus grows with rows
as numeric columns and with distinct ids as strings.
"""

from __future__ import annotations

import csv
import os
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, islice
from numbers import Real
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

REQUIRED_COLUMNS = ("example_id", "finding", "label", "score", "group")
# Lines read and encoded at a time. A chunk's lists of strings die young, so
# the cyclic garbage collector does not rescan a whole file's rows. Per chunk
# ingest holds those lists; per row it keeps 41 bytes of numbers (three id
# codes, a label, a score, a line number) until the set is built.
_CHUNK_ROWS = 1024


class CohortError(ValueError):
    """Base class for prediction-data validation failures."""


class IngestError(CohortError):
    """Malformed or inconsistent prediction rows, from a file or from columns."""


class AlignmentError(CohortError):
    """Candidate model does not share the baseline's test set."""


# The wording of each kind, as a scenario file's reader would say it.
_KINDS = {int: "an integer", Real: "a number", str: "a string", dict: "an object",
          list: "an array", bool: "a bool"}


def _check_types(obj, prefix: str = "", **kinds: type) -> None:
    """ValueError, its message starting with prefix, unless each named field
    of obj (an attribute, or a key of a dict) is of its kind. A bool is only
    ever a bool, never an int or a number, since a report's config block or a
    generated study keeps the value as given."""
    for name, kind in kinds.items():
        value = obj[name] if isinstance(obj, dict) else getattr(obj, name)
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{prefix}{name} must be {_KINDS[kind]}, got {value!r}")


@dataclass(frozen=True)
class InclusionPolicy:
    """Minimum per-(finding, group) case counts for a subgroup to be evaluated.

    The defaults drop subgroups with fewer than 5 positive or 5 negative
    cases, whose AUROC estimates would be too noisy to act on.
    """

    min_positives: int = 5
    min_negatives: int = 5

    def __post_init__(self) -> None:
        _check_types(self, min_positives=int, min_negatives=int)
        if self.min_positives < 0 or self.min_negatives < 0:
            raise ValueError("inclusion thresholds must be >= 0")

    def admits(self, n_pos: int, n_neg: int) -> bool:
        """The inclusion rule. A zero threshold still needs one case per side,
        since AUROC is undefined without it."""
        return n_pos >= max(self.min_positives, 1) and n_neg >= max(self.min_negatives, 1)


def _check_id(value, name: str) -> None:
    """ValueError unless value, the field name, is an id: a non-empty string
    with no surrounding whitespace, since ingest strips it from every field
    it reads. The one statement of the rule, for every id of a PredictionSet
    and of a scenario."""
    _check_types({name: value}, **{name: str})
    if not value:
        raise ValueError(f"{name} must be a non-empty string, got ''")
    if value != value.strip():
        raise ValueError(f"{name} must not start or end with whitespace, got {value!r}")


def _check_model_id(model_id) -> None:
    if not isinstance(model_id, str) or not model_id:
        raise CohortError(f"model_id must be a non-empty string, got {model_id!r}")


def _check_delimiter(delimiter) -> None:
    """The delimiters ``emit`` can write unambiguously, and so ``ingest`` reads:
    one character that no header name, label or score can hold."""
    if (not isinstance(delimiter, str) or len(delimiter) != 1
            or delimiter in '"\r\n0123456789.+-' + "".join(REQUIRED_COLUMNS)):
        raise ValueError("delimiter must be one character other than a quote, a line end, "
                         f"a digit, '.', '+', '-' or a letter of the header, got {delimiter!r}")


class _Columns:
    """Rows added a chunk at a time, each chunk encoded as it is added: the
    one encoder of ``ingest`` and of the ``PredictionSet`` constructor.

    Each id column becomes integer codes into a running vocabulary, in the
    order ids are first seen. Each id costs one lookup: the vocabulary is a
    ``defaultdict`` that gives an unseen id the next code. ``labels`` holds
    the two values read as 0 and 1, and the first row with any other label
    is remembered, not raised at once, so that an error found later in
    reading still comes first. Only numbers are kept per row; strings are
    kept once per distinct id.
    """

    def __init__(self, labels: tuple):
        self.labels = labels
        # example, finding, group: id -> code
        self.vocabs = tuple(defaultdict(count().__next__) for _ in range(3))
        self.codes: tuple[list[np.ndarray], ...] = ([], [], [])
        self.label: list[np.ndarray] = []
        self.score: list[np.ndarray] = []
        self.lines: list[np.ndarray] = []  # each row's input line number, if given
        self.rows = 0
        self.bad_label: tuple[int, object] | None = None  # (row, value) of the first

    def add(self, example_id: Sequence, finding_id: Sequence, label: Sequence,
            score: Sequence[float], group_id: Sequence,
            lines: Sequence[int] | None = None) -> None:
        """Append one chunk of rows, its columns of equal length."""
        n = len(score)
        for vocab, codes, ids in zip(self.vocabs, self.codes, (example_id, finding_id, group_id)):
            codes.append(np.fromiter(map(vocab.__getitem__, ids), np.intp, n))
        try:
            self.label.append(np.fromiter(map(self.labels.index, label), np.int8, n))
        except ValueError:
            if self.bad_label is None:
                i = next(i for i, y in enumerate(label) if y not in self.labels)
                self.bad_label = (self.rows + i, label[i])
        self.score.append(np.asarray(score, np.float64))
        if lines is not None:
            self.lines.append(np.asarray(lines))
        self.rows += n

    def ids(self) -> list[tuple[tuple, np.ndarray]]:
        """Each id column's sorted vocabulary, and every row's code into it."""
        out = []
        for vocab, codes in zip(self.vocabs, self.codes):
            ids = sorted(vocab)
            rank = np.empty(len(ids), np.intp)
            rank[np.fromiter(map(vocab.__getitem__, ids), np.intp, len(ids))] = np.arange(len(ids))
            out.append((tuple(ids), rank.take(_joined(codes))))
        return out


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    """The chunks as one array. The list is emptied, so each chunk is freed."""
    joined = np.concatenate(chunks)
    chunks.clear()
    return joined


class PredictionSet:
    """One model's scored test set, built from parallel per-row columns and
    immutable after construction.

    Enforces: a non-empty string model_id, columns of equal length, labels
    binary, scores finite, ids as ``_check_id`` has them, (example_id, finding)
    unique, and every finding present has at least one positive and one
    negative row. ``lines`` holds each row's input line number, for error
    messages; without it a row is named by its index. A bad id is named by the
    first row that holds it, the example column checked first, then finding,
    then group.
    """

    def __init__(self, model_id: str, example_id: Sequence[str], finding_id: Sequence[str],
                 label: Sequence[int], score: Sequence[float], group_id: Sequence[str],
                 lines: Sequence[int] | None = None):
        _check_model_id(model_id)
        lengths = dict(zip(("example_id", "finding_id", "label", "score", "group_id"),
                           map(len, (example_id, finding_id, label, score, group_id))))
        if len(set(lengths.values())) > 1:
            raise IngestError(f"columns differ in length: {lengths}")
        columns = _Columns((0, 1))
        columns.add(example_id, finding_id, label, score, group_id, lines)
        self._build(model_id, columns)

    def _build(self, model_id: str, columns: _Columns) -> None:
        """Check and sort the rows of ``columns``, freeing each of its chunks
        once they are joined. The checks run in the order of the class
        docstring, after every row is read."""
        def where(i) -> str:
            return f"line {np.concatenate(columns.lines)[i]}" if columns.lines else f"row {i}"

        if columns.rows == 0:
            raise IngestError(f"empty input: no data rows for {model_id!r}")
        if columns.bad_label is not None:
            i, y = columns.bad_label
            raise IngestError(f"{where(i)}: label not binary: {y!r}")
        scores = _joined(columns.score)
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise IngestError(f"{where(bad[0])}: score not finite: {float(scores[bad[0]])!r}")
        for name, ids, codes in zip(("example_id", "finding", "group"), columns.vocabs,
                                    columns.codes):
            for code, value in enumerate(ids):  # in first-seen order
                try:
                    _check_id(value, name)
                except ValueError as exc:
                    i = np.argmax(np.concatenate(codes) == code)
                    message = f"empty {name}" if value == "" else exc
                    raise IngestError(f"{where(i)}: {message}") from None
        (examples, ex), (findings, fi), (groups, gr) = columns.ids()

        order = np.lexsort((ex, fi))
        ex, fi, gr = ex[order], fi[order], gr[order]
        repeats = np.flatnonzero((ex[1:] == ex[:-1]) & (fi[1:] == fi[:-1])) + 1
        if repeats.size:
            j = repeats[np.argmin(order[repeats])]  # the first row that repeats an earlier key
            key = (examples[ex[j]], findings[fi[j]])
            raise IngestError(f"{where(order[j])}: duplicate key {key}")
        labels = _joined(columns.label)[order]
        n_pos = np.bincount(fi, weights=labels, minlength=len(findings))
        n_rows = np.bincount(fi, minlength=len(findings))
        for f, (p, n) in enumerate(zip(n_pos.tolist(), n_rows.tolist())):
            if p == 0 or p == n:
                raise IngestError(f"finding {findings[f]!r} in {model_id!r} has no "
                                  f"{'positive' if p == 0 else 'negative'} records")

        self.model_id = model_id
        self.examples, self.findings, self.groups = examples, findings, groups
        self.example_code, self.finding_code, self.group_code = ex, fi, gr
        self.label, self.score = labels, scores[order]

    def _ids(self) -> tuple[list[str], list[str], list[str]]:
        """Every row's example, finding and group id, in row order."""
        return tuple(
            [vocab[c] for c in codes.tolist()]
            for vocab, codes in ((self.examples, self.example_code),
                                 (self.findings, self.finding_code),
                                 (self.groups, self.group_code))
        )

    def __len__(self) -> int:
        return len(self.score)

    def __eq__(self, other: object) -> bool:
        # Rows are canonically ordered, so input order never affects identity.
        if not isinstance(other, PredictionSet):
            return NotImplemented
        return (self.model_id == other.model_id and _same_rows(self, other)
                and np.array_equal(self.score, other.score))

    def __repr__(self) -> str:
        return (
            f"PredictionSet({self.model_id!r}, {len(self)} rows, "
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


def ingest(source: str | os.PathLike | TextIO | Iterable[str], model_id: str,
           delimiter: str = ",") -> PredictionSet:
    """Parse a delimited prediction file into a validated PredictionSet.

    ``source`` is a path, an open text file or any iterable of lines as a
    text file yields them. Raises IngestError with a line number for
    malformed rows and malformed CSV, a named key for duplicates, and
    outright for empty input. Read from a path, each IngestError names the
    path, also the one for a file not in UTF-8. A bad ``model_id`` raises
    CohortError before a line of ``source`` is read; a path is opened first.
    A delimiter that ``emit`` could not write raises ValueError before
    anything is opened or read.
    """
    _check_delimiter(delimiter)
    if isinstance(source, (str, os.PathLike)):
        # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports start with.
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            try:
                return ingest(fh, model_id, delimiter=delimiter)
            except IngestError as exc:
                raise IngestError(f"{source}: {exc}") from None
            except UnicodeDecodeError:
                # The codec's byte position counts from its read buffer, not the file.
                raise IngestError(f"{source}: not UTF-8 text") from None

    _check_model_id(model_id)
    lines = iter(source)
    reader = csv.reader(lines, delimiter=delimiter)
    try:
        header = next((row for row in reader if any(map(str.strip, row))), None)
    except csv.Error as exc:
        raise IngestError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        return PredictionSet(model_id, [], [], [], [], [])  # raises: empty input
    header = [cell.strip() for cell in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise IngestError(f"line {reader.line_num}: header missing columns {missing}")
    repeated = [c for c in REQUIRED_COLUMNS if header.count(c) > 1]
    if repeated:
        raise IngestError(f"line {reader.line_num}: header repeats columns {repeated}")
    rows = _Rows(delimiter, len(header), [header.index(c) for c in REQUIRED_COLUMNS])
    rows.read(lines, reader.line_num)
    pset = PredictionSet.__new__(PredictionSet)
    pset._build(model_id, rows)
    return pset


class _Rows(_Columns):
    """The data rows of one source, read a chunk of whole lines at a time and
    encoded as each chunk is read; the labels are "0" and "1".

    ``split`` alone decides each chunk's route: it takes a chunk that
    ``csv.reader`` would read the same and accept, and from the first chunk
    it refuses, ``read_csv`` reads the rest. That checks rows one at a time,
    so the first bad row raises as it is read.
    """

    def __init__(self, delimiter: str, width: int, col: list[int]):
        # width: fields per row; col: the field index of each REQUIRED_COLUMNS name
        super().__init__(("0", "1"))
        self.delimiter, self.width, self.col = delimiter, width, col
        # What str.strip removes besides CR and LF: a chunk with none of it needs no strip.
        self.spaces = [c for c in " \t\x0b\x0c\x1c\x1d\x1e\x1f" if c != delimiter]

    def read(self, lines: Iterator[str], line: int) -> None:
        """Read every remaining line of ``lines``, the first being line ``line + 1``."""
        while True:
            chunk: list[str] = []
            try:
                chunk.extend(islice(lines, _CHUNK_ROWS))
            except (OSError, UnicodeError) as exc:
                lines = _raising(exc)  # read after the chunk, so a bad row in it raises first
                break
            if not chunk:
                return
            if not self.split(chunk, line):
                break
            line += len(chunk)
        self.read_csv(chain(chunk, lines), line)

    def split(self, chunk: list[str], line: int) -> bool:
        """Append the rows of ``chunk``, lines ``line + 1`` on, split with
        ``str.split``; False, appending nothing, unless ``csv.reader`` reads
        each the same and accepts it. A CRLF reads as an LF. A quote, a NUL or
        other CR, a blank or bad row, a bad score, or a field longer than
        ``csv.field_size_limit()`` (measured only if the chunk is) refuses."""
        width, d, n, limit = self.width, self.delimiter, len(chunk), csv.field_size_limit()
        text = "".join(chunk).replace("\r\n", "\n")
        if not text.endswith("\n"):  # a last line with no line end
            text += "\n"
        # An item of the source that is not one line is refused too.
        if text.count("\n") != n or any(map(text.__contains__, '"\r\0')):
            return False
        # Each newline ends a field, so the rows are the lines only if the
        # last column holds all n of them. A last field is measured with its LF.
        fields = text.replace("\n", "\n" + d).split(d)
        if (len(fields) != n * width + 1 or "".join(fields[width - 1::width]).count("\n") != n
                or len(text) > limit and max(map(len, fields)) > limit):
            return False
        fields.pop()
        strip = not text.isascii() or any(map(text.__contains__, self.spaces))
        example_id, finding, label, score, group = (
            [*map(str.strip, fields[i::width])] if strip or i == width - 1 else fields[i::width]
            for i in self.col)
        try:
            score = np.fromiter(map(float, score), np.float64, n)  # float() ignores whitespace
        except ValueError:
            return False
        self.add(example_id, finding, label, score, group, np.arange(line + 1, line + n + 1))
        return True

    def read_csv(self, lines: Iterable[str], line: int) -> None:
        """Read ``lines``, the first being line ``line + 1``, with ``csv.reader``,
        one row at a time: a blank row is skipped, and the first row with a bad
        field count or score raises as it is read. Checked rows are appended
        ``_CHUNK_ROWS`` at a time, their fields stripped."""
        width, at = self.width, self.col[3]  # at: the score's field index
        rows, scores, numbers = [], [], []  # checked rows not yet appended

        def append() -> None:
            fields = list(zip(*rows))
            self.add(*(scores if i == at else [*map(str.strip, fields[i])] for i in self.col),
                     np.array(numbers))
            del rows[:], scores[:], numbers[:]

        reader = csv.reader(lines, delimiter=self.delimiter)
        try:
            for row in reader:
                if len(row) != width:
                    error = f"expected {width} fields, got {len(row)}"
                else:
                    try:
                        scores.append(float(row[at]))  # float() ignores whitespace
                    except ValueError:
                        error = f"score not a number: {row[at].strip()!r}"
                    else:
                        rows.append(row)
                        numbers.append(line + reader.line_num)  # a quoted field may span lines
                        if len(rows) == _CHUNK_ROWS:
                            append()
                        continue
                if any(map(str.strip, row)):  # else a blank row, skipped
                    raise IngestError(f"line {line + reader.line_num}: {error}")
        except csv.Error as exc:
            raise IngestError(f"line {line + reader.line_num}: {exc}") from None
        if rows:
            append()


def _raising(exc: Exception) -> Iterator[str]:
    """A source of lines whose first read raises ``exc``, a read failure."""
    raise exc
    yield  # unreached: it makes this a generator, which raises when read


def emit(pset: PredictionSet, target: str | os.PathLike | TextIO, delimiter: str = ",") -> None:
    """Write a PredictionSet in the ingestion format, canonically ordered.

    Rows are sorted by (finding, example_id) and scores use shortest
    round-trip decimals, so identical sets emit byte-identical files. An id
    holding the delimiter, a quote, CR or LF is quoted, its quotes doubled.
    Header names, labels and scores are never quoted, so the delimiter is
    one character that none of them can hold.
    """
    _check_delimiter(delimiter)
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            emit(pset, fh, delimiter=delimiter)
        return
    special = (delimiter, '"', "\r", "\n")

    def column(vocab: Sequence[str], codes: np.ndarray) -> list[str]:
        """Each row's value, each vocabulary value encoded once."""
        if any(map("".join(vocab).__contains__, special)):
            vocab = ['"' + v.replace('"', '""') + '"' if any(map(v.__contains__, special)) else v
                     for v in vocab]
        return np.array(vocab, dtype=object)[codes].tolist()

    rows = zip(column(pset.examples, pset.example_code), column(pset.findings, pset.finding_code),
               column(("0", "1"), pset.label), map(repr, pset.score.tolist()),
               column(pset.groups, pset.group_code))
    target.write("\n".join([delimiter.join(REQUIRED_COLUMNS), *map(delimiter.join, rows), ""]))


def align(baseline: PredictionSet, candidates: list[PredictionSet] | tuple[PredictionSet, ...]) -> AlignedStudy:
    """Verify model ids are unique and candidates share the baseline's exact test set.

    Reports up to 10 offending keys per candidate on mismatch.
    """
    ids = [baseline.model_id, *(c.model_id for c in candidates)]
    repeated = sorted({m for m in ids if ids.count(m) > 1})
    if repeated:
        raise AlignmentError(f"model ids must be unique, repeated: {repeated}")
    for cand in candidates:
        if _same_rows(cand, baseline):
            continue
        base_rows, cand_rows = ({(e, f): (y, g) for e, f, g, y in zip(*p._ids(), p.label.tolist())}
                                for p in (baseline, cand))  # in row order
        missing = sorted(base_rows.keys() - cand_rows.keys())
        extra = sorted(cand_rows.keys() - base_rows.keys())
        parts = []
        if missing:
            parts.append(f"missing {len(missing)} baseline keys, e.g. {missing[:10]}")
        if extra:
            parts.append(f"has {len(extra)} keys absent from baseline, e.g. {extra[:10]}")
        if parts:
            raise AlignmentError(f"candidate {cand.model_id!r}: " + "; ".join(parts))
        mismatched = [key for key, row in base_rows.items() if cand_rows[key] != row]
        raise AlignmentError(f"candidate {cand.model_id!r} disagrees on label/group for keys "
                             f"{mismatched[:10]}")
    return AlignedStudy(baseline=baseline, candidates=tuple(candidates))


def _same_rows(a: PredictionSet, b: PredictionSet) -> bool:
    """Whether two sets hold the same keys with the same label and group, row for row."""
    return ((a.examples, a.findings, a.groups) == (b.examples, b.findings, b.groups)
            and all(np.array_equal(getattr(a, col), getattr(b, col))
                    for col in ("example_code", "finding_code", "group_code", "label")))

