import csv
import io
import random
import re
import sys
import tracemalloc
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from psfair import cohort
from psfair.cohort import (
    AlignmentError,
    CohortError,
    InclusionPolicy,
    IngestError,
    PredictionSet,
    align,
    emit,
    ingest,
)
from psfair.metrics import _bucket
from conftest import group_rows, make_set, set_rows
from reference import rowwise_ingest

WELL_FORMED = """\
example_id,finding,label,score,group
ex1,pneumonia,1,0.9,white
ex2,pneumonia,0,0.2,asian
ex1,effusion,0,0.1,white
ex2,effusion,1,0.7,asian
"""


def emits(pset):
    buf = io.StringIO()
    emit(pset, buf)
    return buf.getvalue()


def by_key(pset):
    """Each row's label and score by (example_id, finding)."""
    return {(e, f): {"label": y, "score": s} for e, f, y, s, _ in set_rows(pset)}


def included_groups(pset, finding, policy=InclusionPolicy()):
    """Groups the one inclusion rule admits, over the one bucketing routine."""
    return {g for g, pos, neg in _bucket(pset, finding)[1:] if policy.admits(len(pos), len(neg))}


def test_ingest_well_formed():
    pset = ingest(io.StringIO(WELL_FORMED), "m1")
    assert len(pset) == 4
    assert pset.findings == ("effusion", "pneumonia")
    assert pset.groups == ("asian", "white")
    assert by_key(pset)[("ex1", "pneumonia")]["score"] == 0.9


def test_ingest_column_order_irrelevant():
    text = "score,group,label,finding,example_id\n0.5,g,1,f,e1\n0.2,g,0,f,e2\n"
    pset = ingest(io.StringIO(text), "m")
    assert by_key(pset)[("e1", "f")]["label"] == 1


def test_ingest_nonbinary_label():
    text = "example_id,finding,label,score,group\nex1,pneumonia,2,0.5,g\nex2,pneumonia,x,0.5,g\n"
    with pytest.raises(IngestError, match=r"^line 2: label not binary: '2'$"):
        ingest(io.StringIO(text), "m")


def test_ingest_duplicate_key():
    text = (
        "example_id,finding,label,score,group\n"
        "ex1,pneumonia,1,0.5,g\n"
        "ex1,pneumonia,0,0.4,g\n"
    )
    with pytest.raises(IngestError, match=r"\('ex1', 'pneumonia'\)"):
        ingest(io.StringIO(text), "m")


def test_ingest_nonfinite_score():
    text = "example_id,finding,label,score,group\nex1,f,1,nan,g\n"
    with pytest.raises(IngestError, match="line 2: score not finite"):
        ingest(io.StringIO(text), "m")


def test_ingest_wrong_arity():
    text = "example_id,finding,label,score,group\nex1,f,1,0.5\n"
    with pytest.raises(IngestError, match="line 2"):
        ingest(io.StringIO(text), "m")


def test_ingest_header_repeating_required_column():
    # The first score column ranks perfectly and the second inverts it; neither may win silently.
    text = ("example_id,finding,label,score,group,score\n"
            "e1,f,1,0.9,g,0.1\ne2,f,0,0.1,g,0.9\n")
    with pytest.raises(IngestError, match=r"line 1: header repeats columns \['score'\]"):
        ingest(io.StringIO(text), "m")


def test_ingest_header_may_repeat_extra_columns():
    text = "example_id,finding,label,score,group,note,note\ne1,f,1,0.9,g,a,b\ne2,f,0,0.1,g,c,d\n"
    assert len(ingest(io.StringIO(text), "m")) == 2


def test_ingest_empty():
    with pytest.raises(IngestError, match="empty input"):
        ingest(io.StringIO("example_id,finding,label,score,group\n"), "m")
    with pytest.raises(IngestError, match=r"^empty input: no data rows for 'm'$"):
        ingest([], "m")


def test_ingest_header_past_the_field_limit():
    limit = csv.field_size_limit(10)
    try:
        with pytest.raises(IngestError, match=r"^line 1: field larger than field limit \(10\)$"):
            ingest(io.StringIO("example_id,finding,label,score,group,model_version\n"), "m")
    finally:
        csv.field_size_limit(limit)


def test_ingest_blank_lines_ignored():
    text = "example_id,finding,label,score,group\n\nex1,f,1,0.5,g\n\nex2,f,0,0.4,g\n"
    assert len(ingest(io.StringIO(text), "m")) == 2


def test_ingest_path_ignores_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with a BOM.
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(WELL_FORMED, encoding="utf-8")
    bom.write_text(WELL_FORMED, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert ingest(bom, "m") == ingest(plain, "m")


def test_ingest_tab_delimiter():
    text = "example_id\tfinding\tlabel\tscore\tgroup\ne1\tf\t1\t0.5\tg\ne2\tf\t0\t0.1\tg\n"
    assert len(ingest(io.StringIO(text), "m", delimiter="\t")) == 2


# 1 and 2 convert every row or pair on its own, 7 leaves ragged chunks.
CHUNK_SIZES = [1, 2, 7, cohort._CHUNK_ROWS]
# 60 caps a chunk at a few lines and is passed by a long unquoted line; the
# default lets a chunk reach its row count.
FIELD_LIMITS = [60, csv.field_size_limit()]
DIFFERENTIAL = settings(max_examples=400, deadline=None, derandomize=True, database=None)
# Faults put into an otherwise valid row: a field and its new value, or a change of shape.
FAULTS = [("label", "2"), ("label", "1.0"), ("label", ""), ("label", " 1 "),
          ("score", ""), ("score", "abc"), ("score", "nan"), ("score", "-inf"),
          ("score", "1e999"), ("score", " 0.25 "), ("example_id", ""), ("example_id", "  "),
          ("example_id", "e0"), ("example_id", "e\nq"), ("example_id", "e\0"),
          ("example_id", "\u3000e9"), ("finding", ""), ("group", ""), ("group", "a\r\nb"),
          ("group", "a\rb"), ("group", "b\x0c"), ("drop", None), ("extra", None),
          ("unclosed", None)]
BLANK_ROWS = [[], [""], ["  "], ["", "", "", "", ""], [" ", "\t"], ["", ""] * 4, ["\x0c "]]
# Notes csv.writer leaves plain, and notes it quotes. At a limit of 60, a row
# with 59 or 60 y's is longer than the limit while no field is past it.
PLAIN_NOTES = ["", "x", "y" * 40, "y" * 59, "y" * 60, "y" * 70]
QUOTED_NOTES = ["two\nlines", "a,b"]


@st.composite
def prediction_texts(draw):
    """(text, delimiter, field size limit, newline, lines read before a read
    failure or None) of a prediction file with blank rows and a few faults.

    Quoted newlines, CRLF, an extra column and the tab delimiter are drawn
    too, so line numbers and field counts vary. Quoted notes start at a drawn
    row, so a file's first quote can come after several clean chunks. The
    text is read as lines split at CR and LF, or at LF alone, so that a line
    can hold a CR.
    """
    delimiter = draw(st.sampled_from([",", "\t"]))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, delimiter=delimiter,
                        lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    header = list(draw(st.permutations(cohort.REQUIRED_COLUMNS)))
    header.insert(draw(st.integers(0, 5)), "note")
    header = header[:draw(st.sampled_from([6] * 10 + [5, 4]))]  # 4 drops a required one
    fault_odds = draw(st.sampled_from([0, 1, 2, 4]))  # in 12, per row
    first_quoted = draw(st.integers(0, 25))
    rows = [*draw(st.lists(st.sampled_from(BLANK_ROWS), max_size=2)), header]
    for i in range(draw(st.sampled_from(range(25)))):
        # The first four rows give both findings a positive and a negative.
        notes = PLAIN_NOTES + QUOTED_NOTES if i >= first_quoted else PLAIN_NOTES
        fields = {"example_id": f"e{i}",
                  "finding": "fg"[i // 2] if i < 4 else draw(st.sampled_from("fg")),
                  "label": "10"[i % 2] if i < 4 else draw(st.sampled_from("01")),
                  "group": draw(st.sampled_from("ab")),
                  "score": repr(draw(st.floats(-2, 2).map(lambda x: round(x, 2)))),
                  "note": draw(st.sampled_from(notes))}
        if draw(st.integers(1, 12)) <= fault_odds:
            fault, value = draw(st.sampled_from(FAULTS))
            fields[fault] = value
        else:
            fault = None
        row = [fields[name] for name in header]
        if fault == "drop":
            row.pop()
        elif fault == "extra":
            row.append("x")
        rows.append(None if fault == "unclosed" else row)
        if draw(st.integers(0, 5)) == 0:
            rows.append(draw(st.sampled_from(BLANK_ROWS)))
    for row in rows:
        if row is None:  # a quote that never closes runs into the field size limit
            buf.write(delimiter.join(["e99", "f", "0", '"0.4', "b"]) + "\n")
        else:
            writer.writerow(row)
    text = buf.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    newline = draw(st.sampled_from(["", "\n"]))
    n_lines = len(io.StringIO(text, newline=newline).readlines())
    return (text, delimiter, draw(st.sampled_from(FIELD_LIMITS)), newline,
            draw(st.none() | st.integers(0, n_lines)))


def parsed(parse, text, delimiter, newline="", fail_after=None):
    """What parse makes of text, read as a file or, given fail_after, as
    lines whose reading fails after that many."""
    lines = io.StringIO(text, newline=newline)
    if fail_after is not None:
        head = list(islice(lines, fail_after))

        def failing():
            yield from head
            raise OSError("disk gone")
        lines = failing()
    try:
        return parse(lines, "m", delimiter=delimiter)
    except (IngestError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"


HEADER = "example_id,finding,label,score,group\n"
CLEAN = "".join(f"e{i},f,{i % 2},0.{i},g\n" for i in range(6))
MORE = CLEAN.replace("e", "x")


@DIFFERENTIAL
@given(prediction_texts())
# Hand-overs to csv.reader, each also drawn at random: a quote first met after
# three clean chunks of two lines, a quote that opens a field spanning chunks,
# an unquoted line longer than the limit, a lone CR, a NUL.
@example((HEADER + CLEAN + 'e6,f,0,0.6,"g"\n', ",", 60, "", None))
@example((HEADER + CLEAN + 'e6,f,0,0.6,"g\nh"\ne7,f,1,0.7,g\n', ",", 10_000, "", None))
@example((HEADER + CLEAN + f"e6,f,0,0.6,{'g' * 70}\n" + MORE, ",", 60, "", None))
@example((HEADER + CLEAN + f"e6,f,0,0.6,{'g' * 50}\n" + MORE, ",", 60, "", None))
@example((HEADER + CLEAN + "e6,f,0,0.6,g\rh\n", ",", 10_000, "\n", None))
@example((HEADER + CLEAN + "e6,f,0,0.6,g\0\n", ",", 10_000, "", None))
# Read by str.split: a clean CRLF file; quote-free chunks longer than the limit,
# their last field short of it or just at it.
@example((HEADER.replace("\n", "\r\n") + CLEAN.replace("\n", "\r\n"), ",", 10_000, "", None))
@example((HEADER.replace("\n", ",note\n") + CLEAN.replace("\n", f",{'n' * 40}\n"), ",", 60, "",
          None))
@example((HEADER.replace("\n", ",note\n") + CLEAN.replace("\n", f",{'n' * 60}\n"), ",", 60, "",
          None))
# A last field one past the limit, which csv.reader rejects; example_id, with a
# distinct value per row, as the last column.
@example((HEADER + CLEAN + f"e6,f,0,0.6,{'g' * 61}\n" + MORE, ",", 60, "", None))
@example(("finding,label,score,group,example_id\n"
          + "".join(f"f,{i % 2},0.{i},g,e{i}\n" for i in range(6)), ",", 10_000, "", None))
# No trailing newline; blank and whitespace-only lines at chunk boundaries.
@example((HEADER + CLEAN.removesuffix("\n"), ",", 10_000, "", None))
@example((HEADER + CLEAN.replace("e2", "\n e2").replace("e4", " ,\n\t\ne4"), ",", 10_000, "",
          None))
# csv.reader reads on from a quote-free chunk that split refuses for its blank row:
# to an unquoted field past the limit, and to a bad field count, chunks later.
@example((HEADER + "\n" + CLEAN + MORE + f"x6,f,0,0.6,{'g' * 70}\n" + CLEAN.replace("e", "y"),
          ",", 60, "", None))
@example((HEADER + CLEAN.replace("e1", " \ne1") + MORE + "x9,f,0\n" + CLEAN.replace("e", "y"),
          ",", 10_000, "", None))
# A read failure in the middle of a chunk, after a bad row and after none.
@example((HEADER + CLEAN.replace("e3,f,1,0.3", "e3,f,1,x"), ",", 10_000, "", 5))
@example((HEADER + CLEAN, ",", 10_000, "", 5))
# Chunks encoded as read: a finding and a group first met in a later chunk that
# sort first; an empty group, then an empty example_id, first met in a later
# chunk; a bad label before a bad field count, which still wins, and before
# another bad label, which does not; a bad label in a quoted chunk, which
# csv.reader reads.
@example((HEADER + CLEAN + MORE + CLEAN.replace("e", "y").replace("f", "a").replace("g", "A"),
          ",", 10_000, "", None))
@example((HEADER + CLEAN + MORE + "y1,f,0,0.9,\n,f,1,0.8,g\n", ",", 10_000, "", None))
@example((HEADER + CLEAN.replace("e1,f,1", "e1,f,2") + MORE + "x9,f,0\n", ",", 10_000, "", None))
@example((HEADER + CLEAN.replace("e1,f,1", "e1,f,2") + MORE.replace("x4,f,0", "x4,f,3"), ",",
          10_000, "", None))
@example((HEADER + CLEAN + 'e6,f,"2",0.6,g\n' + MORE, ",", 10_000, "", None))
# A bad field count read by csv.reader beats a csv error later in its chunk.
@example((HEADER + 'e1,f,1,0.5,"g"\ne2,f,0\ne4,f,0,"0.4,g\n' + CLEAN, ",", 60, "", None))
def test_ingest_matches_rowwise_reference(case):
    text, delimiter, field_limit, newline, fail_after = case
    limit = csv.field_size_limit(field_limit)
    try:
        expected = parsed(rowwise_ingest, text, delimiter, newline, fail_after)
        for chunk in CHUNK_SIZES:
            with mock.patch.object(cohort, "_CHUNK_ROWS", chunk):
                assert parsed(ingest, text, delimiter, newline, fail_after) == expected, chunk
    finally:
        csv.field_size_limit(limit)


def test_split_alone_routes_each_chunk_to_csv_reader():
    # csv.writer ends rows in CRLF, and a long extra column makes every chunk longer
    # than the field size limit; str.split reads both. A lone CR inside a line and a
    # field past the limit go to csv.reader, which rejects them.
    rows = [[f"e{i}", "f", str(i % 2), f"0.{i}", "g"] for i in range(3 * cohort._CHUNK_ROWS)]
    written = io.StringIO(newline="")
    csv.writer(written).writerows([cohort.REQUIRED_COLUMNS, *rows])
    plain = "".join(",".join(row) + "\n" for row in [cohort.REQUIRED_COLUMNS, *rows])
    long = "".join(",".join([*row, "p" * 120]) + "\n" for row in [cohort.REQUIRED_COLUMNS, *rows])
    assert len(long) // len(rows) > 128 and "\r\n" in written.getvalue()

    def ingested(text):
        """The set ingest makes of text, or its error, and whether csv.reader read any of it."""
        with mock.patch.object(cohort._Rows, "read_csv", autospec=True,
                               side_effect=cohort._Rows.read_csv) as spy:
            try:
                result = ingest(io.StringIO(text, newline="\n"), "m")  # lines end at LF
            except IngestError as exc:
                result = str(exc)
        return result, spy.called

    expected = ingest(io.StringIO(plain), "m")
    assert ingested(plain) == ingested(written.getvalue()) == ingested(long) == (expected, False)
    lone_cr = plain.replace("e7,f,1,0.7,g\n", "e7,f,1,0.7,g\rh\n")
    assert ingested(lone_cr) == ("line 9: new-line character seen in unquoted field - do you "
                                 "need to open the file in universal-newline mode?", True)
    past = plain.replace("e7,f,1,0.7,g\n", f"e7,f,1,0.7,{'g' * (csv.field_size_limit() + 1)}\n")
    assert ingested(past) == (f"line 9: field larger than field limit ({csv.field_size_limit()})",
                              True)
    # A last field is measured without its line end, as csv.reader measures it.
    at = plain.replace("e7,f,1,0.7,g\n", f"e7,f,1,0.7,{'g' * csv.field_size_limit()}\n")
    assert ingested(at) == (ingest(io.StringIO(at), "m"), False)
    assert len(max(ingested(at)[0].groups, key=len)) == csv.field_size_limit()


def test_ingest_reads_a_path_an_open_file_and_lines_alike(tmp_path):
    text = WELL_FORMED + 'ex3,effusion,0,0.3,"black, hispanic"\n'
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(cohort, "_CHUNK_ROWS", 2):
        with open(path, encoding="utf-8", newline="") as fh:
            from_file = ingest(fh, "m")
        from_lines = ingest((line for line in text.splitlines(keepends=True)), "m")
        assert ingest(path, "m") == from_file == from_lines
    assert "black, hispanic" in from_file.groups
    # An item of an iterable source is one line; csv.reader rejects one that holds two.
    header, *rows = text.splitlines(keepends=True)
    with pytest.raises(IngestError, match=r"^line 2: new-line character seen in unquoted field"):
        ingest([header, "".join(rows)], "m")


def test_quote_free_item_of_two_lines_is_rejected():
    # With no quote, str.split reads the chunk; its line count must catch the
    # item's second line, which would otherwise be read as one of the row's
    # fields. In the second item the two short lines fill one row, their line
    # end in the note column.
    for header, item in (("example_id,finding,label,score,group\n", "e1,f,1\n0.5,g\n"),
                         ("example_id,finding,note,label,score,group\n", "e1,f\n1,0.5,g\n")):
        with pytest.raises(IngestError,
                           match=r"^line 2: new-line character seen in unquoted field"):
            ingest([header, item], "m")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.permutations(cohort.REQUIRED_COLUMNS), st.sampled_from([",", "\t"]),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_a_clean_file_is_encoded_once(header, delimiter, end, quoted):
    # Neither reader leaves a line end on a field, so with no whitespace around
    # a value _Rows.strip changes no value and rebuilds no vocabulary, whichever
    # column is last; a quoted file is read by csv.reader.
    # The first four rows give both findings a positive and a negative.
    values = [{"example_id": f"e{i}", "finding": "fg"[i % 4 // 2], "label": str(i % 2),
               "score": f"0.{i}", "group": "ab"[i % 3 // 2]} for i in range(12)]
    rows = [header, *([row[name] for name in header] for row in values)]
    quote = '"' if quoted else ""
    text = "".join(delimiter.join(quote + field + quote for field in row) + end for row in rows)
    strip, rebuilt = cohort._Rows.strip, []

    def spy(self):
        before = list(self.vocabs)
        strip(self)
        rebuilt.extend(k for k, vocab in enumerate(before) if vocab is not self.vocabs[k])

    with mock.patch.object(cohort._Rows, "strip", spy):
        pset = ingest(io.StringIO(text, newline=""), "m", delimiter=delimiter)
    assert rebuilt == []
    assert (pset.examples, pset.findings, pset.groups) == (
        tuple(sorted(f"e{i}" for i in range(12))), ("f", "g"), ("a", "b"))


def test_ingest_opens_a_path_before_checking_the_model_id(tmp_path):
    # So an unreadable path is reported as such, not as a bad id.
    with pytest.raises(FileNotFoundError):
        ingest(tmp_path / "missing.csv", "")
    with pytest.raises(IsADirectoryError):
        ingest(tmp_path, "")
    path = tmp_path / "m.csv"
    path.write_text(WELL_FORMED, encoding="utf-8")
    with pytest.raises(CohortError, match="^model_id must be a non-empty string, got ''$"):
        ingest(path, "")


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_earlier_field_count_beats_later_bad_score(chunk):
    # With chunks of 1 or 2 the bad field count (line 3) and the bad score (line 5) fall
    # in different chunks; with 7 or more they share one, with a blank row between them.
    text = ("example_id,finding,label,score,group\n"
            "e1,f,1,0.5,g\ne2,f,0\n , , , , \ne3,f,1,oops,g\n")
    with mock.patch.object(cohort, "_CHUNK_ROWS", chunk):
        with pytest.raises(IngestError, match=r"^line 3: expected 5 fields, got 3$"):
            ingest(io.StringIO(text), "m")


@pytest.mark.parametrize("bad_row, message", [
    ("e2,f,0\n", "line 3: expected 5 fields, got 3"),
    ("e2,f,0,0.1,g\n", "disk gone"),
])
def test_bad_row_read_before_a_read_failure_is_reported(bad_row, message):
    def source():
        yield from ("example_id,finding,label,score,group\n", "e1,f,1,0.5,g\n", bad_row)
        raise OSError("disk gone")

    with pytest.raises((IngestError, OSError), match=f"^{message}$"):
        rowwise_ingest(source(), "m")
    with pytest.raises((IngestError, OSError), match=f"^{message}$"):
        ingest(source(), "m")


def test_ingest_holds_numbers_per_row_not_strings():
    # 4,000 studies x 5 findings over 60 groups, one finding after another as
    # in a wide audit's file: 20,000 rows, each id repeated.
    text = HEADER + "".join(
        f"study-{i:06d},finding_{f},{(i * 7 + k) % 3 == 0:d},{(i * 31 + k) % 997 / 997!r},"
        f"group_{i % 60}\n" for k, f in enumerate("abcde") for i in range(4000))
    source = io.StringIO(text)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        pset = ingest(source, "m")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pset) == 20_000
    # The traced peak was 367 bytes a row when ingest kept whole-file lists of
    # ids, labels and scores until the set was built, and is 123 bytes a row
    # with each chunk encoded as it is read (Python 3.11, numpy 2.4).
    assert peak / len(pset) < 200


def test_set_requires_pos_and_neg_per_finding():
    with pytest.raises(CohortError, match="no negative"):
        make_set("m", [("e1", "f", 1, 0.5, "g"), ("e2", "f", 1, 0.6, "g")])


COLUMNS = (["e1", "e2"], ["f", "f"], [1, 0], [0.9, 0.1], ["g", "g"])


@pytest.mark.parametrize("column", range(5))
def test_set_rejects_columns_of_unequal_length(column):
    # A short column used to fail with numpy's IndexError or shape error.
    columns = [list(c) for c in COLUMNS]
    columns[column].pop()
    lengths = [len(c) for c in columns]
    with pytest.raises(IngestError, match=r"^columns differ in length: \{'example_id': %d, "
                       r"'finding_id': %d, 'label': %d, 'score': %d, 'group_id': %d\}$"
                       % tuple(lengths)):
        PredictionSet("m", *columns)


@pytest.mark.parametrize("lines", [[5], [5, 6, 7]])
def test_set_rejects_lines_of_another_length(lines):
    # A short lines column raised numpy's IndexError, and a long one named a
    # line of another row.
    with pytest.raises(IngestError, match=r"^columns differ in length: \{'example_id': 2, "
                       r"'finding_id': 2, 'label': 2, 'score': 2, 'group_id': 2, "
                       r"'lines': %d\}$" % len(lines)):
        PredictionSet("m", ["a", "b"], ["f", "f"], [0, 2], [0.1, 0.2], ["g", "g"], lines=lines)


@pytest.mark.parametrize("model_id", [5, None, b"m", ""])
def test_set_requires_a_non_empty_string_model_id(model_id):
    # Both report schemas hold model ids as strings.
    with pytest.raises(CohortError, match="^model_id must be a non-empty string, got "):
        PredictionSet(model_id, *COLUMNS)


@pytest.mark.parametrize("model_id", [5, None, ""])
def test_ingest_rejects_a_bad_model_id_before_reading(model_id):
    # The id was checked only after the whole source was read and encoded.
    class Unread:
        def __iter__(self):
            raise AssertionError("source was read")

    with pytest.raises(CohortError, match="^model_id must be a non-empty string, got "):
        ingest(Unread(), model_id)


def test_set_from_columns_names_a_bad_row_by_index():
    with pytest.raises(IngestError, match=r"^row 1: label not binary: 2$"):
        PredictionSet("m", ["e1", "e2"], ["f", "f"], [1, 2], [0.9, 0.1], ["g", "g"])
    # Labels are checked by their distinct values, in first-seen order: 1.0
    # and True are the label 1, a bad label is named by the first row that
    # holds it, and an unhashable label raises as an unhashable id does.
    labels = [1.0, 0, True, 3, None, 3]
    columns = (["e1", "e2", "e3", "e4", "e5", "e6"], ["f"] * 6, labels, [0.5] * 6, ["g"] * 6)
    with pytest.raises(IngestError, match=r"^row 3: label not binary: 3$"):
        PredictionSet("m", *columns)
    labels[3] = None
    with pytest.raises(IngestError, match=r"^line 9: label not binary: None$"):
        PredictionSet("m", *columns, lines=range(6, 12))
    labels[3] = [1]
    with pytest.raises(TypeError, match="unhashable"):
        PredictionSet("m", *columns)
    pset = PredictionSet("m", *columns[:2], [1.0, 0, True, 0, 1, 0], *columns[3:])
    assert pset.label.tolist() == [1, 0, 1, 0, 1, 0]


@pytest.mark.parametrize("column, ids, row, message", [
    (0, [1, 2], 0, "example_id must be a string, got 1"),
    (4, ["g", 5], 1, "group must be a string, got 5"),
    (1, ["f", "f "], 1, "finding must not start or end with whitespace, got 'f '"),
    (0, ["e1", ""], 1, "empty example_id"),
])
def test_set_refuses_an_id_no_file_can_carry(column, ids, row, message):
    # Ingest strips every field, so a padded id would not read back as written,
    # and a vocabulary of mixed types cannot be sorted.
    columns = [list(c) for c in COLUMNS]
    columns[column] = ids
    with pytest.raises(IngestError, match=f"^row {row}: {re.escape(message)}$"):
        PredictionSet("m", *columns)
    with pytest.raises(IngestError, match=f"^line {row + 2}: {re.escape(message)}$"):
        PredictionSet("m", *columns, lines=[2, 3])


def test_set_takes_numpy_string_ids():
    columns = [list(c) for c in COLUMNS]
    columns[0], columns[4] = np.array(columns[0]), np.array(columns[4])
    assert PredictionSet("m", *columns) == PredictionSet("m", *COLUMNS)


# Every character that str.strip removes, '\x1c' and '\u3000' among them.
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
ID_COLUMNS = ("example_id", "finding", "group")


def first_bad_id(columns, lines=None):
    """The error a set of these id columns must raise, found one value at a
    time: the first column, in the order example, finding, group, that holds
    a value other than a non-empty str that neither starts nor ends with a
    space character, and the first row that holds one."""
    for name, column in zip(ID_COLUMNS, columns):
        for row, value in enumerate(column):
            if not isinstance(value, str):
                message = f"{name} must be a string, got {value!r}"
            elif value == "":
                message = f"empty {name}"
            elif value[0].isspace() or value[-1].isspace():
                message = f"{name} must not start or end with whitespace, got {value!r}"
            else:
                continue
            return f"line {lines[row]}: {message}" if lines else f"row {row}: {message}"
    return None


@st.composite
def planted_ids(draw):
    """Three id columns of a valid set, plain and numpy ids mixed, with one
    or more bad ids planted: an int, None, '' or an id padded with a
    character that str.strip removes."""
    n = draw(st.integers(2, 12))
    good = st.sampled_from(["a", "b", "c", np.str_("a"), np.str_("d")])
    columns = [[f"e{i}" for i in range(n)], draw(st.lists(good, min_size=n, max_size=n)),
               draw(st.lists(good, min_size=n, max_size=n))]
    pad = st.sampled_from(WHITESPACE)
    bad = st.one_of(st.integers(-3, 3), st.none(), st.just(""),
                    st.builds(lambda core, c: c + core, good, pad),
                    st.builds(lambda core, c: core + c, good, pad))
    for _ in range(draw(st.integers(1, 4))):
        columns[draw(st.integers(0, 2))][draw(st.integers(0, n - 1))] = draw(bad)
    return columns


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(planted_ids())
# Two bad example ids, the later one first in sorted order.
@example([["e0", "e1 ", " e0", "e3"], ["f"] * 4, ["g"] * 4])
# One bad id, in the group column only.
@example([["e0", "e1"], ["f", "f"], ["g", np.str_("g\u3000")]])
def test_set_names_the_first_bad_id_as_a_per_value_check_does(columns):
    # An id column is checked in one pass over its distinct ids, in
    # first-seen order; the error is the one a check of every value, row by
    # row, finds first.
    n = len(columns[0])
    lines = list(range(7, 7 + 3 * n, 3))
    example_id, finding, group = columns
    rest = ([i % 2 for i in range(n)], [0.5] * n)
    for given_lines in (None, lines):
        expected = first_bad_id(columns, given_lines)
        assert expected is not None
        with pytest.raises(IngestError) as raised:
            PredictionSet("m", example_id, finding, *rest, group, lines=given_lines)
        assert str(raised.value) == expected


# Padding of a text field: what str.strip removes, none of it a line end to
# a text file read with newline="" or to csv.reader, though str.splitlines
# splits at '\x1c' and '\x85'.
PADS = [" ", "\t", "\x0b", "\x1c", "\x85", "\xa0", "\u3000"]
TEXT_FIELDS = ("example_id", "finding", "label", "group")
# Faults planted in one row of both copies: a field and its value, or a row
# that repeats an earlier row's example id in that row's finding.
PAD_FAULTS = [None, ("label", "2"), ("label", ""), ("example_id", ""), ("finding", ""),
              ("group", ""), ("duplicate", None)]


@st.composite
def padded_files(draw):
    """(clean text, padded text, delimiter, chunk rows, fault) of one small
    prediction file. The padded copy surrounds each example, finding, label
    and group field with drawn padding. From a drawn row on, the padded copy
    quotes every field, so csv.reader reads from that row's chunk on and
    str.split the chunks before it; the clean copy quotes nothing. Both may
    carry the same planted fault; a repeated example id is padded in its
    second row, so its two spellings differ."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    pad = st.text(st.sampled_from([c for c in PADS if c != delimiter]), max_size=2)
    header = draw(st.permutations(cohort.REQUIRED_COLUMNS))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    n = draw(st.integers(4, 14))
    # The first four rows give both findings a positive and a negative.
    rows = [{"example_id": f"e{i}",
             "finding": "fg"[i // 2] if i < 4 else draw(st.sampled_from("fg")),
             "label": "10"[i % 2] if i < 4 else draw(st.sampled_from("01")),
             "score": repr(draw(st.integers(-9, 9)) / 4),
             "group": draw(st.sampled_from(["a", "b", "a b"]))} for i in range(n)]
    fault = draw(st.sampled_from(PAD_FAULTS))
    at = draw(st.integers(1, n - 1))
    if fault == ("duplicate", None):
        earlier = rows[draw(st.integers(0, at - 1))]
        rows[at].update(example_id=earlier["example_id"], finding=earlier["finding"])
    elif fault is not None:
        rows[at][fault[0]] = fault[1]
    first_quoted = draw(st.integers(0, n))
    clean, padded = [delimiter.join(header)], [delimiter.join(header)]
    for i, row in enumerate(rows):
        clean.append(delimiter.join(row[name] for name in header))
        fields = {name: draw(pad) + row[name] + draw(pad) for name in TEXT_FIELDS}
        if fault == ("duplicate", None) and i == at:
            fields["example_id"] = draw(pad.filter(bool)) + row["example_id"]
        fields["score"] = row["score"]
        padded.append(delimiter.join(f'"{fields[name]}"' if i >= first_quoted else fields[name]
                                     for name in header))
    chunk = draw(st.sampled_from([1, 3, cohort._CHUNK_ROWS]))
    return end.join(clean) + end, end.join(padded) + end, delimiter, chunk, fault


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(padded_files())
# Two spellings of one id in one finding.
@example((HEADER + "e1,f,1,0.5,g\ne2,f,0,0.1,g\ne1,f,0,0.2,g\n",
          HEADER + "e1,f,1,0.5,g\ne2,f,0,0.1,g\n e1,f,0,0.2,g\n", ",", 1024,
          ("duplicate", None)))
# Padded labels and group, the group the last column and padded with '\x85'
# and '\x1c', in a chunk str.split reads and in one csv.reader reads.
@example((HEADER + "e1,f,1,0.5,g\ne2,f,0,0.1,g\ne3,f,0,0.2,g\n",
          HEADER + 'e1,f,\u30001,0.5,\x85g\ne2,f,0\xa0,0.1,g\x1c\ne3,f,"\x0b0",0.2,"g "\n', ",", 2,
          None))
def test_padding_a_text_field_changes_nothing(case):
    # Ingest strips each distinct value once, after reading: padded values
    # merge with their clean spellings, a bad row is named as in the clean
    # file, and two spellings of one key are a duplicate.
    clean, padded, delimiter, chunk, fault = case
    with mock.patch.object(cohort, "_CHUNK_ROWS", chunk):
        expected, got = (parsed(ingest, text, delimiter) for text in (clean, padded))
    assert got == expected
    if fault is None:
        assert isinstance(got, PredictionSet)
    elif fault == ("duplicate", None):
        assert "duplicate key" in got


@pytest.mark.parametrize("column", range(3))
def test_ingest_names_an_empty_id_first_seen_after_the_first_chunk(column):
    n = cohort._CHUNK_ROWS + 300
    rows = [[f"e{i}", "f", str(i % 2), "0.5", "g"] for i in range(n)]
    rows[cohort._CHUNK_ROWS + 100][(0, 1, 4)[column]] = ""
    text = "".join(",".join(row) + "\n" for row in [cohort.REQUIRED_COLUMNS, *rows])
    with pytest.raises(IngestError, match=f"^line {cohort._CHUNK_ROWS + 102}: "
                                          f"empty {ID_COLUMNS[column]}$"):
        ingest(io.StringIO(text), "m")


def test_ingest_checks_each_id_column_in_one_call():
    # The id rule runs once per column, over its distinct ids, not once per
    # id: each call paid ~0.65 us of set-up, 11 ms over 16,940 example ids.
    text = "example_id,finding,label,score,group\n" + "".join(
        f"e{i},f,{i % 2},0.5,g{i % 3}\n" for i in range(2000))
    with mock.patch.object(cohort, "_check_ids", wraps=cohort._check_ids) as check:
        pset = ingest(io.StringIO(text), "m")
    assert len(pset.examples) == 2000
    assert [call.args[1] for call in check.call_args_list] == list(ID_COLUMNS)


@pytest.mark.parametrize("score, message", [
    ("x", "'x'"), ("0.9", "'0.9'"), (b"0.9", "b'0.9'"), (None, "None"), (1j, "1j"),
    (np.complex64(0.5), repr(np.complex64(0.5))), (np.str_("0.9"), repr(np.str_("0.9"))),
])
def test_set_refuses_a_score_that_is_not_a_number(score, message):
    # A string score was parsed, None read as nan, and 'x' or a complex value
    # raised numpy's own error, naming no row.
    columns = [list(c) for c in COLUMNS]
    columns[3][1] = score
    with pytest.raises(IngestError, match=f"^row 1: score not a number: {re.escape(message)}$"):
        PredictionSet("m", *columns)
    with pytest.raises(IngestError, match=f"^line 3: score not a number: {re.escape(message)}$"):
        PredictionSet("m", *columns, lines=[2, 3])


@pytest.mark.parametrize("score", [
    [1, 0], [True, False], np.array([0.9, 0.1], np.float32), np.array([9, 1], np.uint8),
    [0.9, 2 ** 70], np.array([0.9, 0.1], object),
])
def test_set_takes_any_real_scores(score):
    pset = PredictionSet("m", *COLUMNS[:3], score, COLUMNS[4])
    assert pset.score.dtype == np.float64
    assert pset.score.tolist() == [float(s) for s in score]


def test_roundtrip_emit_ingest():
    pset = ingest(io.StringIO(WELL_FORMED), "m1")
    again = ingest(io.StringIO(emits(pset)), "m1")
    assert again == pset


def test_roundtrip_preserves_exact_scores():
    rows = group_rows("f", "g", [0.1234567890123456789, 1e-17 + 1], [0.1, -3.5])
    pset = make_set("m", rows)
    assert ingest(io.StringIO(emits(pset)), "m") == pset


@pytest.mark.parametrize("delimiter", ["", "ab", "::", '"', "\r", "\n", "5", ".", "-", "+", "e",
                                       "_"])
def test_emit_rejects_a_delimiter_it_cannot_write_unambiguously(tmp_path, delimiter):
    # ingest rejects the same delimiters, before it opens a path or reads a
    # line: reading the source fails the test, and the path does not exist.
    def unread():
        pytest.fail("ingest read a line before checking its delimiter")
        yield

    pset = ingest(io.StringIO(WELL_FORMED), "m1")
    message = r"^delimiter must be one character other than .*, got " + re.escape(repr(delimiter))
    with pytest.raises(ValueError, match=message):
        emit(pset, tmp_path / "out.csv", delimiter=delimiter)
    assert not (tmp_path / "out.csv").exists()
    with pytest.raises(ValueError, match=message):
        ingest(unread(), "m", delimiter=delimiter)
    with pytest.raises(ValueError, match=message):
        ingest(tmp_path / "missing.csv", "m", delimiter=delimiter)


def test_align_identity():
    base = ingest(io.StringIO(WELL_FORMED), "m1")
    cand = ingest(io.StringIO(WELL_FORMED), "m2")
    study = align(base, [cand])
    assert [c.model_id for c in study.candidates] == ["m2"]
    assert len(study.baseline) == 4
    assert set_rows(study.candidates[0]) == set_rows(study.baseline)


def test_align_order_insensitive():
    base = make_set("m1", group_rows("f", "g", [0.9, 0.8], [0.1, 0.2]))
    rows = group_rows("f", "g", [0.5, 0.6], [0.3, 0.4])
    random.Random(7).shuffle(rows)
    shuffled = make_set("m2", rows)
    study = align(base, [shuffled])
    in_order = align(base, [make_set("m2", sorted(rows))])
    assert set_rows(study.candidates[0]) == set_rows(in_order.candidates[0])


def test_align_rejects_repeated_model_ids():
    base = make_set("m1", group_rows("f", "g", [0.9], [0.1]))
    with pytest.raises(AlignmentError, match=r"unique, repeated: \['m2'\]"):
        align(base, [make_set("m2", group_rows("f", "g", [0.9], [0.1])),
                     make_set("m2", group_rows("f", "g", [0.1], [0.9]))])
    with pytest.raises(AlignmentError, match=r"repeated: \['m1'\]"):
        align(base, [make_set("m1", group_rows("f", "g", [0.5], [0.1]))])


def test_align_missing_key():
    base = make_set("m1", group_rows("f", "g", [0.9] * 5, [0.1] * 5))
    cand = make_set("m2", group_rows("f", "g", [0.9] * 5, [0.1] * 4))
    with pytest.raises(AlignmentError, match="missing 1 baseline key"):
        align(base, [cand])
    with pytest.raises(AlignmentError, match="has 1 keys absent from baseline"):
        align(cand, [base])


def test_align_flipped_label():
    base = make_set("m1", [("e1", "f", 1, 0.9, "g"), ("e2", "f", 0, 0.1, "g")])
    cand = make_set(
        "m2", [("e1", "f", 0, 0.9, "g"), ("e2", "f", 1, 0.1, "g")]
    )
    with pytest.raises(AlignmentError, match=r"\('e1', 'f'\)|\('e2', 'f'\)"):
        align(base, [cand])


def test_align_group_mismatch():
    base = make_set("m1", [("e1", "f", 1, 0.9, "g1"), ("e2", "f", 0, 0.1, "g1")])
    cand = make_set("m2", [("e1", "f", 1, 0.9, "g2"), ("e2", "f", 0, 0.1, "g1")])
    with pytest.raises(AlignmentError, match="disagrees on label/group"):
        align(base, [cand])


def test_align_names_the_first_10_disagreeing_keys_in_row_order():
    # Rows run by (finding, example_id), so the first 10 of the 12 keys that disagree
    # are all six of finding a and four of b, not the sorted keys' e0-e4 of each.
    rows = [(f"e{i}", f, i % 2, 0.5, "g") for f in "ab" for i in range(8)]
    base = make_set("m1", rows)
    # e0-e5 move to group h in finding a and flip their label in finding b.
    cand = make_set("m2", [(e, f, 1 - y if f == "b" else y, s, "h" if f == "a" else g)
                           if int(e[1]) < 6 else (e, f, y, s, g) for e, f, y, s, g in rows])
    with pytest.raises(AlignmentError) as info:
        align(base, [cand])
    keys = [(f"e{i}", "a") for i in range(6)] + [(f"e{i}", "b") for i in range(4)]
    assert str(info.value) == f"candidate 'm2' disagrees on label/group for keys {keys}"


def test_align_names_missing_and_extra_keys():
    shared = [(f"s{i}", f, i % 2, 0.5, "g") for f in "ab" for i in range(2)]
    base = make_set("m1", shared + [(f"x{i:02}", "ab"[i % 2], 0, 0.5, "g") for i in range(12)])
    cand = make_set("m2", shared + [(f"c{i:02}", "ab"[i % 2], 1, 0.5, "g") for i in range(11)])
    with pytest.raises(AlignmentError) as info:
        align(base, [cand])
    missing = [(f"x{i:02}", "ab"[i % 2]) for i in range(10)]
    extra = [(f"c{i:02}", "ab"[i % 2]) for i in range(10)]
    assert str(info.value) == (f"candidate 'm2': missing 12 baseline keys, e.g. {missing}; "
                               f"has 11 keys absent from baseline, e.g. {extra}")


def test_eligible_4_positives_excluded():
    rows = group_rows("f", "small", [0.9] * 4, [0.1] * 100)
    rows += group_rows("f", "big", [0.9] * 10, [0.1] * 10)
    pset = make_set("m", rows)
    assert included_groups(pset, "f") == {"big"}


def test_eligible_5_5_boundary_included():
    pset = make_set("m", group_rows("f", "g", [0.9] * 5, [0.1] * 5))
    assert included_groups(pset, "f") == {"g"}


def test_eligible_zero_policy_includes_all():
    rows = group_rows("f", "a", [0.9], [0.1])
    rows += [("b-p0", "f", 1, 0.5, "b")]  # group with positives only
    pset = make_set("m", rows + group_rows("f", "c", [0.8], [0.2]))
    # A zero threshold admits every group whose AUROC is defined; "b" has no
    # negatives, so it stays out.
    assert included_groups(pset, "f", InclusionPolicy(0, 0)) == {"a", "c"}
    assert InclusionPolicy(0, 0).admits(1, 1) and not InclusionPolicy(0, 0).admits(1, 0)
    with pytest.raises(ValueError, match=r"^inclusion thresholds must be >= 0$"):
        InclusionPolicy(-1, 5)


@pytest.mark.parametrize("value", [2.5, True, "5", None])
@pytest.mark.parametrize("field", ["min_positives", "min_negatives"])
def test_inclusion_policy_field_types(field, value):
    # A threshold of 2.5 admitted a cell of 3 positives, as a threshold of 3
    # would, while the report's config block recorded 2.5.
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
        InclusionPolicy(**{field: value})


def test_eligible_unknown_finding():
    pset = make_set("m", group_rows("f", "g", [0.9], [0.1]))
    with pytest.raises(CohortError, match="unknown finding"):
        included_groups(pset, "nope")


def test_eligible_monotone_in_policy(rng):
    for _ in range(50):
        rows = []
        for g in "abcd":
            n_pos = int(rng.integers(1, 12))
            n_neg = int(rng.integers(1, 12))
            rows += group_rows("f", g, [0.9] * n_pos, [0.1] * n_neg)
        pset = make_set("m", rows)
        mp, mn = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        strict = included_groups(pset, "f", InclusionPolicy(mp, mn))
        relaxed = included_groups(
            pset, "f", InclusionPolicy(max(0, mp - 1), max(0, mn - 1))
        )
        assert strict <= relaxed
