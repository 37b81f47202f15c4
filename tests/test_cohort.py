import io
import random

import pytest

from psfair.cohort import (
    AlignmentError,
    CohortError,
    InclusionPolicy,
    IngestError,
    PredictionRecord,
    PredictionSet,
    align,
    emit,
    ingest,
)
from conftest import group_rows, make_set

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
    return {(r.example_id, r.finding_id): r for r in pset.records}


def included_groups(pset, finding, policy=InclusionPolicy()):
    """Groups the one inclusion rule admits, over the set's own bucketing."""
    return {c.group_id for c in pset.cells(finding) if policy.admits(len(c.pos), len(c.neg))}


def test_ingest_well_formed():
    pset = ingest(io.StringIO(WELL_FORMED), "m1")
    assert len(pset) == 4
    assert pset.findings == ("effusion", "pneumonia")
    assert pset.groups == ("asian", "white")
    assert by_key(pset)[("ex1", "pneumonia")].score == 0.9


def test_ingest_column_order_irrelevant():
    text = "score,group,label,finding,example_id\n0.5,g,1,f,e1\n0.2,g,0,f,e2\n"
    pset = ingest(io.StringIO(text), "m")
    assert by_key(pset)[("e1", "f")].label == 1


def test_ingest_nonbinary_label():
    text = "example_id,finding,label,score,group\nex1,pneumonia,2,0.5,g\n"
    with pytest.raises(IngestError, match=r"line 2: label not binary"):
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


def test_ingest_empty():
    with pytest.raises(IngestError, match="empty input"):
        ingest(io.StringIO("example_id,finding,label,score,group\n"), "m")


def test_ingest_blank_lines_ignored():
    text = "example_id,finding,label,score,group\n\nex1,f,1,0.5,g\n\nex2,f,0,0.4,g\n"
    assert len(ingest(io.StringIO(text), "m")) == 2


def test_ingest_tab_delimiter():
    text = "example_id\tfinding\tlabel\tscore\tgroup\ne1\tf\t1\t0.5\tg\ne2\tf\t0\t0.1\tg\n"
    assert len(ingest(io.StringIO(text), "m", delimiter="\t")) == 2


def test_set_requires_pos_and_neg_per_finding():
    with pytest.raises(CohortError, match="no negative"):
        make_set("m", [("e1", "f", 1, 0.5, "g"), ("e2", "f", 1, 0.6, "g")])


def test_roundtrip_emit_ingest():
    pset = ingest(io.StringIO(WELL_FORMED), "m1")
    again = ingest(io.StringIO(emits(pset)), "m1")
    assert again == pset


def test_roundtrip_preserves_exact_scores():
    rows = group_rows("f", "g", [0.1234567890123456789, 1e-17 + 1], [0.1, -3.5])
    pset = make_set("m", rows)
    assert ingest(io.StringIO(emits(pset)), "m") == pset


def test_align_identity():
    base = ingest(io.StringIO(WELL_FORMED), "m1")
    cand = ingest(io.StringIO(WELL_FORMED), "m2")
    study = align(base, [cand])
    assert [c.model_id for c in study.candidates] == ["m2"]
    assert len(study.baseline) == 4
    assert study.candidates[0].records == study.baseline.records


def test_align_order_insensitive():
    base = make_set("m1", group_rows("f", "g", [0.9, 0.8], [0.1, 0.2]))
    rows = group_rows("f", "g", [0.5, 0.6], [0.3, 0.4])
    random.Random(7).shuffle(rows)
    shuffled = make_set("m2", rows)
    study = align(base, [shuffled])
    in_order = align(base, [make_set("m2", sorted(rows))])
    assert study.candidates[0].records == in_order.candidates[0].records


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
