import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from psfair.cli import COMPARE_CSV_COLUMNS, main
from psfair.cohort import emit, ingest
from psfair.synth import build_study, preset
from conftest import group_rows

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = REPO_ROOT / "schemas"


def validate(doc, schema_name):
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validate(doc, schema)


@pytest.fixture
def study_files(tmp_path, capsys):
    """Prediction files for the m2-like preset, written via the CLI gen path."""
    out = tmp_path / "data"
    rc = main(["gen", "m2_like", "--out-dir", str(out)])
    assert rc == 0
    capsys.readouterr()  # drop the printed file list
    return {"baseline": out / "baseline.csv", "m2": out / "m2.csv"}


def run_json(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, json.loads(captured.out) if captured.out.strip() else None, captured.err


class TestAudit:
    def test_two_findings_json(self, tmp_path, capsys):
        text = (
            "example_id,finding,label,score,group\n"
            + "".join(f"e{i},f1,{i % 2},{i / 20},g\n" for i in range(20))
            + "".join(f"e{i},f2,{(i + 1) % 2},{i / 20},g\n" for i in range(20))
        )
        path = tmp_path / "m.csv"
        path.write_text(text)
        rc, doc, _ = run_json(capsys, ["audit", str(path), "--bootstrap-n", "20"])
        assert rc == 0
        assert doc["report_type"] == "audit"
        assert [f["finding_id"] for f in doc["findings"]] == ["f1", "f2"]
        validate(doc, "audit_report.schema.json")

    def test_single_group_warns_undefined_fairness(self, tmp_path, capsys):
        text = "example_id,finding,label,score,group\n" + "".join(
            f"e{i},f,{i % 2},{i / 20},only\n" for i in range(20)
        )
        path = tmp_path / "m.csv"
        path.write_text(text)
        rc, doc, err = run_json(capsys, ["audit", str(path), "--bootstrap-n", "20"])
        assert rc == 0
        assert doc["findings"][0]["fairness_score"] is None
        assert "fairness score undefined" in err
        validate(doc, "audit_report.schema.json")

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("example_id,finding,label,score,group\ne1,f,7,0.5,g\n")
        rc = main(["audit", str(path)])
        assert rc == 2
        assert "label not binary" in capsys.readouterr().err

    def test_csv_format(self, tmp_path, capsys):
        text = "example_id,finding,label,score,group\n" + "".join(
            f"e{i},f,{i % 2},{i / 20},g\n" for i in range(20)
        )
        path = tmp_path / "m.csv"
        path.write_text(text)
        rc = main(["audit", str(path), "--format", "csv", "--bootstrap-n", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("finding,group,n_pos,n_neg")

    def test_env_var_override(self, tmp_path, capsys, monkeypatch):
        text = "example_id,finding,label,score,group\n" + "".join(
            f"e{i},f,{i % 2},{i / 20},g\n" for i in range(20)
        )
        path = tmp_path / "m.csv"
        path.write_text(text)
        monkeypatch.setenv("PSFAIR_MIN_POS", "50")
        rc, doc, _ = run_json(capsys, ["audit", str(path), "--bootstrap-n", "20"])
        assert rc == 0
        assert doc["config"]["min_positives"] == 50
        assert not doc["findings"][0]["groups"][0]["included"]


class TestCompare:
    def test_m2_like_promotes(self, study_files, capsys):
        rc, doc, _ = run_json(
            capsys,
            ["compare", "--baseline", str(study_files["baseline"]),
             "--candidate", str(study_files["m2"]), "--bootstrap-n", "20"],
        )
        assert rc == 0
        assert doc["all_promoted"] is True
        (comparison,) = doc["comparisons"]
        assert comparison["classification"] == "non_harmful"
        (coord,) = doc["coordinates"]
        assert coord["x"] > 0 and coord["y"] > 0
        validate(doc, "compare_report.schema.json")

    def test_m4_like_rejects_with_group_loss(self, tmp_path, capsys):
        out = tmp_path / "m4data"
        assert main(["gen", "m4_like", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        rc, doc, _ = run_json(
            capsys,
            ["compare", "--baseline", str(out / "baseline.csv"),
             "--candidate", str(out / "m4.csv"), "--bootstrap-n", "20"],
        )
        assert rc == 1
        (comparison,) = doc["comparisons"]
        assert not comparison["gate"]["promote"]
        assert any("group-loss" in r for r in comparison["gate"]["reasons"])
        assert doc["coordinates"][0]["y"] < 0
        validate(doc, "compare_report.schema.json")

    def test_candidate_equals_baseline(self, study_files, tmp_path, capsys):
        base = study_files["baseline"]
        copy = tmp_path / "copy.csv"
        copy.write_text(base.read_text())
        rc, doc, _ = run_json(
            capsys,
            ["compare", "--baseline", str(base), "--candidate", str(copy),
             "--bootstrap-n", "20"],
        )
        assert rc == 0
        (comparison,) = doc["comparisons"]
        assert comparison["narrative"]["kind"] == "no_change"
        assert comparison["overall_delta"] == 0.0
        validate(doc, "compare_report.schema.json")

    def test_alignment_failure_exits_2(self, study_files, tmp_path, capsys):
        lines = study_files["m2"].read_text().splitlines()
        (tmp_path / "short.csv").write_text("\n".join(lines[:-1]) + "\n")
        rc = main(
            ["compare", "--baseline", str(study_files["baseline"]),
             "--candidate", str(tmp_path / "short.csv")]
        )
        assert rc == 2

    def test_pareto_over_multiple_candidates(self, tmp_path, capsys):
        out = tmp_path / "multi"
        for name in ("m2_like", "m4_like"):
            assert main(["gen", name, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        rc, doc, _ = run_json(
            capsys,
            ["compare", "--baseline", str(out / "baseline.csv"),
             "--candidate", str(out / "m2.csv"),
             "--candidate", str(out / "m4.csv"), "--bootstrap-n", "20"],
        )
        assert rc == 1  # m4 rejects
        (front,) = doc["pareto"]
        assert front["front"] == ["m2"]
        validate(doc, "compare_report.schema.json")

    def test_conservative_ci_flag(self, study_files, capsys):
        rc, doc, _ = run_json(
            capsys,
            ["compare", "--baseline", str(study_files["baseline"]),
             "--candidate", str(study_files["m2"]),
             "--conservative-ci", "--bootstrap-n", "20"],
        )
        assert rc == 0
        (comparison,) = doc["comparisons"]
        assert comparison["overall_delta_ci"] is not None
        validate(doc, "compare_report.schema.json")

    def test_csv_format(self, study_files, capsys):
        rc = main(
            ["compare", "--baseline", str(study_files["baseline"]),
             "--candidate", str(study_files["m2"]),
             "--format", "csv", "--bootstrap-n", "20"],
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("candidate,finding,group")
        assert len(out.splitlines()) == 4  # header + 3 groups


    def test_duplicate_candidate_stem_exits_2(self, tmp_path, capsys):
        # An m4-like (harmful) file saved under the stem of a promotable one.
        x, y = tmp_path / "x", tmp_path / "y"
        assert main(["gen", "m2_like", "--out-dir", str(x)]) == 0
        assert main(["gen", "m4_like", "--out-dir", str(y)]) == 0
        (y / "m4.csv").rename(y / "m2.csv")
        capsys.readouterr()
        rc = main(["compare", "--baseline", str(x / "baseline.csv"),
                   "--candidate", str(x / "m2.csv"), "--candidate", str(y / "m2.csv"),
                   "--bootstrap-n", "20"])
        assert rc == 2
        assert "model ids must be unique" in capsys.readouterr().err

    def test_candidate_with_baseline_id_exits_2(self, study_files, tmp_path, capsys):
        copy = tmp_path / "other" / "baseline.csv"
        copy.parent.mkdir()
        copy.write_text(study_files["m2"].read_text())
        rc = main(["compare", "--baseline", str(study_files["baseline"]),
                   "--candidate", str(copy), "--bootstrap-n", "20"])
        assert rc == 2
        assert "['baseline']" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unevaluated_candidate_rejects(self, tmp_path, capsys, fmt):
        # 4 positives and 4 negatives: no group passes the 5/5 rule, so the
        # comparison is skipped; the candidate's scores are inverted.
        rows = group_rows("f", "g", [0.9, 0.8, 0.7, 0.6], [0.1, 0.2, 0.3, 0.4])
        header = "example_id,finding,label,score,group\n"
        base, cand = tmp_path / "base.csv", tmp_path / "cand.csv"
        base.write_text(header + "".join(f"{e},{f},{y},{s},{g}\n" for e, f, y, s, g in rows))
        cand.write_text(header + "".join(f"{e},{f},{y},{-s},{g}\n" for e, f, y, s, g in rows))
        rc = main(["compare", "--baseline", str(base), "--candidate", str(cand),
                   "--format", fmt, "--bootstrap-n", "20"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "skipped" in captured.err
        if fmt == "csv":
            assert captured.out == ",".join(COMPARE_CSV_COLUMNS) + "\n"
        else:
            doc = json.loads(captured.out)
            assert doc["all_promoted"] is False and doc["comparisons"] == []
            validate(doc, "compare_report.schema.json")


class TestEnvironment:
    @pytest.mark.parametrize("name,value", [
        ("PSFAIR_BOOTSTRAP_N", "abc"),
        ("PSFAIR_CONFIDENCE", "high"),
        ("PSFAIR_FORMAT", "xml"),
        ("PSFAIR_TAB", "maybe"),
    ])
    def test_malformed_variable_exits_2(self, tmp_path, capsys, monkeypatch, name, value):
        path = tmp_path / "m.csv"
        path.write_text("example_id,finding,label,score,group\ne1,f,1,0.5,g\ne2,f,0,0.1,g\n")
        monkeypatch.setenv(name, value)
        assert main(["audit", str(path)]) == 2
        assert f"psfair: error: {name}={value!r}" in capsys.readouterr().err


class TestGen:
    def test_preset_writes_baseline_and_candidate(self, tmp_path, capsys):
        rc = main(["gen", "m2_like", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "baseline.csv").exists()
        assert (tmp_path / "m2.csv").exists()

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "m4_like", "--out-dir", str(a)]) == 0
        assert main(["gen", "m4_like", "--out-dir", str(b)]) == 0
        assert (a / "baseline.csv").read_bytes() == (b / "baseline.csv").read_bytes()
        assert (a / "m4.csv").read_bytes() == (b / "m4.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "no_change", "--out-dir", str(a), "--seed", "1"]) == 0
        assert main(["gen", "no_change", "--out-dir", str(b), "--seed", "2"]) == 0
        assert (a / "baseline.csv").read_bytes() != (b / "baseline.csv").read_bytes()

    def test_no_override_candidate_matches_baseline_scores(self, tmp_path, capsys):
        assert main(["gen", "no_change", "--out-dir", str(tmp_path)]) == 0
        base = ingest(tmp_path / "baseline.csv", "x")
        cand = ingest(tmp_path / "m_same.csv", "x")
        assert base == cand

    def test_scenario_file(self, tmp_path, capsys):
        from psfair.synth import scenario_to_dict

        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(scenario_to_dict(preset("m3_like", seed=5))))
        rc = main(["gen", str(spec_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "m3.csv").exists()

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert main(["gen", "nonexistent_preset", "--out-dir", str(tmp_path)]) == 2

    def test_invalid_scenario_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\"}")
        assert main(["gen", str(bad), "--out-dir", str(tmp_path)]) == 2


class TestEndToEnd:
    def test_gen_compare_roundtrip_matches_library(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen", "m2_like", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        rc, doc, _ = run_json(
            capsys,
            ["compare", "--baseline", str(out / "baseline.csv"),
             "--candidate", str(out / "m2.csv"), "--bootstrap-n", "20"],
        )
        assert rc == 0
        from psfair.positive_sum import compare as ps_compare

        study = build_study(preset("m2_like"))
        lib = ps_compare(study, "lung_lesion", "m2")
        (comparison,) = doc["comparisons"]
        assert comparison["overall_delta"] == lib.overall_delta
        assert comparison["min_group_delta"] == lib.min_group_delta
