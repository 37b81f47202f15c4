import csv
import dataclasses
import gc
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from psfair.cli import COMPARE_CSV_COLUMNS, main
from psfair.cohort import InclusionPolicy, emit, ingest
from psfair.metrics import BootstrapConfig, audit_study
from psfair.synth import build_study, preset
from conftest import child_env, group_rows
from reference import scenario_to_dict
from test_golden import write_multi_finding_study
from test_synth import MALFORMED, WRONG_TYPES, set_field

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


def assert_schema_key_order(doc, node, root) -> int:
    """Assert every object of doc lists its keys in its schema's properties order.

    Follows $ref, oneOf, items and properties; returns how many objects it checked.
    """
    if "$ref" in node:
        return assert_schema_key_order(doc, root["$defs"][node["$ref"].split("/")[-1]], root)
    checked = sum(assert_schema_key_order(doc, option, root) for option in node.get("oneOf", ()))
    if isinstance(doc, dict) and "properties" in node:
        props = node["properties"]
        assert [k for k in doc if k in props] == [k for k in props if k in doc], list(doc)
        checked += 1 + sum(assert_schema_key_order(v, props[k], root)
                           for k, v in doc.items() if k in props)
    elif isinstance(doc, list) and "items" in node:
        checked += sum(assert_schema_key_order(item, node["items"], root) for item in doc)
    return checked


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_single_group_warns_undefined_fairness(self, tmp_path, capsys, fmt):
        text = "example_id,finding,label,score,group\n" + "".join(
            f"e{i},f,{i % 2},{i / 20},only\n" for i in range(20)
        )
        path = tmp_path / "m.csv"
        path.write_text(text)
        rc = main(["audit", str(path), "--bootstrap-n", "20", "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ("psfair: warning: finding 'f': fairness score undefined "
                                "(fewer than 2 included subgroups)\n")
        if fmt == "json":
            doc = json.loads(captured.out)
            assert doc["findings"][0]["fairness_score"] is None
            validate(doc, "audit_report.schema.json")

    def test_report_comes_from_audit_study(self, tmp_path, capsys, monkeypatch):
        from psfair import metrics

        calls = []
        summarize = metrics.summarize
        monkeypatch.setattr(metrics, "summarize",
                            lambda *args: calls.append(args[1]) or summarize(*args))
        write_multi_finding_study(tmp_path)
        path = tmp_path / "slip.csv"
        rc, doc, err = run_json(capsys, ["audit", str(path), "--bootstrap-n", "40",
                                         "--min-pos", "4", "--min-neg", "4", "--seed", "9"])
        assert rc == 0
        assert calls == ["alpha", "beta", "gamma"]  # one summarize call per finding

        result = audit_study(ingest(path, "slip"), InclusionPolicy(4, 4),
                             BootstrapConfig(40, seed=9))
        findings = [json.loads(json.dumps(dataclasses.asdict(s))) for s in result.summaries]
        for f in findings:
            f["groups"] = f.pop("per_group")
        warnings = [f"finding {f!r}: fairness score undefined (fewer than 2 included subgroups)"
                    for f in result.fairness_undefined]
        assert (doc["model_id"], doc["findings"]) == ("slip", findings)
        assert doc["macro_average_auroc"] == result.macro_average_auroc
        assert result.fairness_undefined == ("beta",)  # gamma's groups pass at 4 / 4
        assert doc["warnings"] == warnings
        assert err == "".join(f"psfair: warning: {w}\n" for w in warnings)
        validate(doc, "audit_report.schema.json")

    def test_empty_model_id_is_taken_as_given(self, study_files, capsys):
        # An explicit "" is not replaced by the file stem; it fails as an id.
        assert main(["audit", str(study_files["m2"]), "--model-id", ""]) == 2
        assert capsys.readouterr() == (
            "", "psfair: error: model_id must be a non-empty string, got ''\n")

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("example_id,finding,label,score,group\ne1,f,7,0.5,g\n")
        rc = main(["audit", str(path)])
        assert rc == 2
        assert "label not binary" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["audit", "compare"])
    def test_malformed_csv_exits_2(self, tmp_path, capsys, command):
        # Line 6 opens a quote that never closes, so the field runs past csv's size limit.
        rows = [f"e{i},f,{i % 2},0.{i % 9 + 1},g" for i in range(20_000)]
        rows[4] = 'e4,f,0,"0.4,g'
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text("example_id,finding,label,score,group\n" + "\n".join(rows) + "\n")
        good.write_text("example_id,finding,label,score,group\ne1,f,1,0.5,g\ne2,f,0,0.4,g\n")
        argv = (["audit", str(bad)] if command == "audit"
                else ["compare", "--baseline", str(bad), "--candidate", str(good)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"psfair: error: {bad}: line ")
        assert "field larger than field limit" in err

    @pytest.mark.parametrize("bad_bytes, message", [
        (b"e9,f,0\n", ": line 3: expected 5 fields, got 3"),
        (b"e9,f,0,0.\xff,g\n", ": not UTF-8 text"),
    ])
    def test_ingest_error_names_the_file(self, study_files, tmp_path, capsys, bad_bytes,
                                         message):
        # The second of two candidates is bad; the error must say which file it is.
        bad = tmp_path / "m2b.csv"
        bad.write_bytes(b"example_id,finding,label,score,group\ne1,f,1,0.5,g\n" + bad_bytes)
        rc = main(["compare", "--baseline", str(study_files["baseline"]),
                   "--candidate", str(study_files["m2"]), "--candidate", str(bad)])
        assert rc == 2
        assert capsys.readouterr().err == f"psfair: error: {bad}{message}\n"

    @pytest.mark.parametrize("path, message", [
        ("", "[Errno 2] No such file or directory: ''"),
        ("/", "[Errno 21] Is a directory: '/'"),
    ], ids=["empty", "directory"])
    def test_unreadable_path_is_named_not_its_model_id(self, capsys, path, message):
        # Its stem is empty, and the id made from it used to be reported instead.
        assert main(["audit", path]) == 2
        assert capsys.readouterr().err == f"psfair: error: {message}\n"

    def test_error_line_counts_quoted_newlines(self, tmp_path, capsys):
        # The quoted id spans lines 2-3, so the bad label sits on physical line 5.
        path = tmp_path / "bad.csv"
        path.write_text('example_id,finding,label,score,group\n"e\n1",f,1,0.5,g\n'
                        "e2,f,0,0.4,g\ne3,f,7,0.3,g\n")
        assert main(["audit", str(path)]) == 2
        assert "line 5: label not binary" in capsys.readouterr().err

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


class TestUnwritableOut:
    @pytest.fixture
    def never_read(self, monkeypatch):
        """ingest and audit_study replaced by functions that fail if called."""
        from psfair import cohort, metrics

        def boom(*args, **kwargs):
            raise AssertionError("input read before --out was checked")
        monkeypatch.setattr(cohort, "ingest", boom)
        monkeypatch.setattr(metrics, "audit_study", boom)

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("command", ["audit", "compare"])
    def test_fails_before_any_input_is_read(self, study_files, tmp_path, capsys, monkeypatch,
                                            never_read, command, via):
        argv = {"audit": ["audit", str(study_files["m2"])],
                "compare": ["compare", "--baseline", str(study_files["baseline"]),
                            "--candidate", str(study_files["m2"])]}[command]
        for out, error in ((tmp_path, f"[Errno 21] Is a directory: '{tmp_path}'"),
                           (tmp_path / "missing" / "r.json",
                            f"[Errno 2] No such file or directory: '{tmp_path}/missing/r.json'")):
            if via == "env":
                monkeypatch.setenv("PSFAIR_OUT", str(out))
            assert main(argv + (["--out", str(out)] if via == "flag" else [])) == 2
            assert capsys.readouterr() == ("", f"psfair: error: {error}\n")
        assert not (tmp_path / "missing").exists()

    def test_bad_input_leaves_no_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("bad.csv").write_text("example_id,finding,label,score,group\ne1,f,7,0.5,g\n")
        assert main(["audit", "bad.csv", "--out", "new.json"]) == 2
        assert capsys.readouterr().err == "psfair: error: bad.csv: line 2: label not binary: '7'\n"
        assert sorted(os.listdir()) == ["bad.csv"]


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
        assert comparison["overall_delta"] > 0 and comparison["min_group_delta"] > 0
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
        assert comparison["min_group_delta"] < 0
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

    def test_conservative_csv_carries_the_delta_ci_ends_it_gated_on(self, tmp_path, capsys):
        # "slip" loses on alpha's group b at the point, yet promotes: the gate
        # classified the upper ends of the delta CIs, and the CSV row shows them.
        write_multi_finding_study(tmp_path)
        compare = ["compare", "--baseline", str(tmp_path / "baseline.csv"),
                   *(f"--candidate={tmp_path / m}.csv" for m in ("lift", "slip")),
                   "--conservative-ci", "--bootstrap-n", "80"]
        rows = {}
        for fmt in ("json", "csv", "point-csv"):
            argv = [a for a in compare if fmt != "point-csv" or a != "--conservative-ci"]
            assert main([*argv, "--format", fmt.removeprefix("point-")]) == 1  # gamma skipped
            rows[fmt] = capsys.readouterr().out
        (cmp,) = [c for c in json.loads(rows["json"])["comparisons"]
                  if (c["candidate_id"], c["finding_id"]) == ("slip", "alpha")]
        ends = [f"{ci}_{end}" for ci in ("overall_delta_ci", "min_group_delta_ci")
                for end in ("low", "high")]
        assert list(COMPARE_CSV_COLUMNS[-4:]) == ends
        slip = [r for r in csv.DictReader(io.StringIO(rows["csv"]))
                if (r["candidate"], r["finding"]) == ("slip", "alpha")]
        assert len(slip) == 3  # a row per group
        for row in slip:
            assert (row["classification"], row["promote"]) == ("harmful_both", "True")
            got = [float(row[e]) for e in ends]
            assert got == [*cmp["overall_delta_ci"], *cmp["min_group_delta_ci"]]
            assert got[1] >= 0 and got[3] >= 0  # the upper ends that promoted it
        for row in csv.DictReader(io.StringIO(rows["point-csv"])):
            assert [row[e] for e in ends] == ["", "", "", ""]  # no CIs on a point-gated run

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

    def test_unreadable_candidate_is_named_not_its_model_id(self, study_files, capsys):
        assert main(["compare", "--baseline", str(study_files["baseline"]),
                     "--candidate", "/"]) == 2
        assert capsys.readouterr().err == "psfair: error: [Errno 21] Is a directory: '/'\n"

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


class TestEpsilon:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_nonfinite_epsilon_exits_2(self, tmp_path, capsys, monkeypatch, via, value):
        # m3 is harmful on both axes; a NaN band used to promote it with exit 0.
        assert main(["gen", "m3_like", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = ["compare", "--baseline", str(tmp_path / "baseline.csv"),
                "--candidate", str(tmp_path / "m3.csv"), "--bootstrap-n", "20"]
        if via == "flag":
            argv += ["--epsilon", value]
        else:
            monkeypatch.setenv("PSFAIR_EPSILON", value)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "epsilon must be finite and >= 0" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize("command", ["audit", "compare", "gen"])
def test_seed_outside_64_bits_exits_2(study_files, tmp_path, capsys, command, seed):
    # 2**64 used to draw the streams of seed 0, and -1 those of 2**64 - 1.
    argv = {"audit": ["audit", str(study_files["m2"])],
            "compare": ["compare", "--baseline", str(study_files["baseline"]),
                        "--candidate", str(study_files["m2"])],
            "gen": ["gen", "m2_like", "--out-dir", str(tmp_path / "out")]}[command]
    assert main([*argv, f"--seed={seed}"]) == 2
    captured = capsys.readouterr()
    assert f"psfair: error: seed must be in [0, 2**64), got {seed}\n" == captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


class TestReportKeyOrder:
    @pytest.mark.parametrize("command,flags", [
        ("audit", []),
        ("audit", ["--min-pos", "1001"]),
        ("compare", []),
        ("compare", ["--conservative-ci"]),
        ("compare", ["--min-pos", "1001"]),  # skips the only comparison
    ])
    def test_keys_follow_schema(self, study_files, capsys, command, flags):
        if command == "audit":
            argv = ["audit", str(study_files["m2"])]
        else:
            argv = ["compare", "--baseline", str(study_files["baseline"]),
                    "--candidate", str(study_files["m2"])]
        _, doc, _ = run_json(capsys, [*argv, "--bootstrap-n", "20", *flags])
        schema = json.loads((SCHEMAS / f"{command}_report.schema.json").read_text())
        assert assert_schema_key_order(doc, schema, schema) >= 3

    def test_closed_objects_require_every_property(self):
        # A key dropped from only one of `properties` and `required` fails here.
        def objects(node):
            if isinstance(node, dict):
                if "properties" in node:
                    yield node
                for value in node.values():
                    yield from objects(value)
            elif isinstance(node, list):
                for value in node:
                    yield from objects(value)

        for path in sorted(SCHEMAS.glob("*.schema.json")):
            found = list(objects(json.loads(path.read_text())))
            assert len(found) >= 3, path.name
            for node in found:
                assert node.get("additionalProperties") is False, (path.name, node)
                assert node.get("required") == list(node["properties"]), (path.name, node)


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

    @pytest.mark.parametrize("name,value", [
        ("PSFAIR_EPSILON", "abc"),
        ("PSFAIR_CONSERVATIVE_CI", "maybe"),
    ])
    def test_malformed_compare_variable_exits_2(self, study_files, capsys, monkeypatch, name,
                                                value):
        monkeypatch.setenv(name, value)
        assert main(["compare", "--baseline", str(study_files["baseline"]),
                     "--candidate", str(study_files["m2"])]) == 2
        assert capsys.readouterr().err.startswith(f"psfair: error: {name}={value!r}: ")

    @pytest.mark.parametrize("name,value,argv", [
        ("PSFAIR_BOOTSTRAP_N", "abc", ["gen", "m2_like"]),
        ("PSFAIR_FORMAT", "xml", ["gen", "m2_like"]),
        ("PSFAIR_EPSILON", "abc", ["audit", "m.csv"]),
        ("PSFAIR_BOOTSTRAP_N", "abc", ["audit", "m.csv", "--bootstrap-n", "10"]),
    ], ids=["gen-bootstrap-n", "gen-format", "audit-epsilon", "audit-given-flag"])
    def test_malformed_variable_fails_only_commands_that_read_it(self, tmp_path, capsys,
                                                                 monkeypatch, name, value,
                                                                 argv):
        # gen and audit read no such variable, and an explicit flag needs none.
        (tmp_path / "m.csv").write_text(
            "example_id,finding,label,score,group\ne1,f,1,0.5,g\ne2,f,0,0.1,g\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(name, value)
        assert main(argv) == 0
        assert name not in capsys.readouterr().err

    def test_malformed_variable_leaves_help_alone(self, capsys, monkeypatch):
        monkeypatch.setenv("PSFAIR_CONSERVATIVE_CI", "maybe")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: psfair ")

    def test_format_variable_writes_csv(self, study_files, capsys, monkeypatch):
        monkeypatch.setenv("PSFAIR_FORMAT", "csv")
        assert main(["audit", str(study_files["m2"]), "--bootstrap-n", "10"]) == 0
        assert capsys.readouterr().out.startswith("finding,group,n_pos,n_neg,")

    def test_tab_variable_reads_tab_separated(self, study_files, tmp_path, capsys, monkeypatch):
        tsv = tmp_path / "tsv" / "m2.csv"
        tsv.parent.mkdir()
        tsv.write_text(study_files["m2"].read_text().replace(",", "\t"))
        _, expected, _ = run_json(capsys, ["audit", str(study_files["m2"]), "--bootstrap-n", "10"])
        monkeypatch.setenv("PSFAIR_TAB", "1")
        rc, doc, _ = run_json(capsys, ["audit", str(tsv), "--bootstrap-n", "10"])
        assert rc == 0 and doc == expected

    def test_candidate_variable_is_read_only_without_the_flag(self, study_files, tmp_path,
                                                               capsys, monkeypatch):
        argv = ["compare", "--baseline", str(study_files["baseline"]), "--bootstrap-n", "10"]
        expected = run_json(capsys, [*argv, "--candidate", str(study_files["m2"])])
        monkeypatch.setenv("PSFAIR_CANDIDATE", str(study_files["m2"]))
        assert run_json(capsys, argv) == expected
        monkeypatch.setenv("PSFAIR_CANDIDATE", str(tmp_path / "missing.csv"))
        assert run_json(capsys, [*argv, "--candidate", str(study_files["m2"])]) == expected

    def test_empty_candidate_variable_is_unset(self, study_files, capsys, monkeypatch):
        monkeypatch.setenv("PSFAIR_CANDIDATE", "")
        assert main(["compare", "--baseline", str(study_files["baseline"])]) == 2
        assert capsys.readouterr().err == "psfair: error: compare needs at least one --candidate\n"

    def test_empty_out_writes_stdout(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "m.csv"
        path.write_text("example_id,finding,label,score,group\ne1,f,1,0.5,g\ne2,f,0,0.1,g\n")
        monkeypatch.setenv("PSFAIR_OUT", "")
        rc, doc, _ = run_json(capsys, ["audit", str(path), "--bootstrap-n", "10"])
        assert rc == 0
        assert doc["report_type"] == "audit"

    def test_empty_baseline_is_unset(self, study_files, capsys, monkeypatch):
        monkeypatch.setenv("PSFAIR_BASELINE", "")
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--candidate", str(study_files["m2"])])
        assert exc.value.code == 2
        assert "the following arguments are required: --baseline" in capsys.readouterr().err


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
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(scenario_to_dict(preset("m3_like", seed=5))))
        rc = main(["gen", str(spec_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "m3.csv").exists()

    def test_scenario_file_starting_with_a_bom_writes_the_same_files(self, tmp_path, capsys):
        # Notepad starts a UTF-8 file with a byte-order mark, as ingest's input may.
        spec = json.dumps(scenario_to_dict(preset("m3_like", seed=5))).encode()
        outputs = []
        for name, text in (("plain", spec), ("bom", b"\xef\xbb\xbf" + spec)):
            (tmp_path / f"{name}.json").write_bytes(text)
            out = tmp_path / name
            assert main(["gen", str(tmp_path / f"{name}.json"), "--out-dir", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == ["baseline.csv", "m3.csv"]
        assert outputs[1] == outputs[0]

    def test_out_dir_named_after_the_preset_is_not_read_as_a_scenario(self, tmp_path,
                                                                       monkeypatch, capsys):
        # The second run finds the first run's m2_like directory in its working directory.
        monkeypatch.chdir(tmp_path)
        runs = []
        for _ in range(2):
            assert main(["gen", "m2_like", "--out-dir", "m2_like"]) == 0
            runs.append({p.name: p.read_bytes() for p in Path("m2_like").iterdir()})
        assert sorted(runs[0]) == ["baseline.csv", "m2.csv"]
        assert runs[1] == runs[0]

    def test_scenario_read_from_stdin(self, tmp_path):
        # /dev/stdin is a pipe here: a scenario file that is neither regular nor a directory.
        spec = json.dumps(scenario_to_dict(preset("m3_like", seed=5)))
        out = subprocess.run([sys.executable, "-m", "psfair.cli", "gen", "/dev/stdin",
                              "--out-dir", str(tmp_path)], input=spec, env=child_env(),
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "m3.csv").exists()

    def test_ids_holding_a_line_break_survive_gen_then_audit(self, tmp_path, capsys):
        raw = scenario_to_dict(preset("m2_like"))
        raw["groups"][0]["group_id"] = "a\rb"
        raw["candidates"][0]["overrides"] = {}
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(raw))
        assert main(["gen", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 0
        assert main(["audit", str(tmp_path / "out" / "baseline.csv"), "--bootstrap-n", "10",
                     "--out", str(tmp_path / "audit.json")]) == 0

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert main(["gen", "nonexistent_preset", "--out-dir", str(tmp_path)]) == 2

    def test_unknown_scenario_names_every_preset(self, capsys):
        # gen's help cannot list the presets without loading synth, so the error must.
        assert main(["gen", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("psfair: error: 'nosuch' is neither a scenario file nor a preset")
        for name in ("no_change", "m2_like", "m3_like", "m4_like"):
            assert repr(name) in err

    def test_invalid_scenario_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\"}")
        assert main(["gen", str(bad), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field, value, message", [
        ("n_pos", 10.9, "group 'group_a': n_pos must be an integer, got 10.9"),
        ("n_neg", True, "group 'group_a': n_neg must be an integer, got True"),
        ("group_id", "group_b", "repeats group ids ['group_b']"),
    ])
    def test_invalid_scenario_group_exits_2(self, tmp_path, capsys, field, value, message):
        raw = scenario_to_dict(preset("m2_like"))
        raw["groups"][0][field] = value
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(raw))
        assert main(["gen", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scenario_seed_outside_64_bits_exits_2(self, tmp_path, capsys):
        raw = scenario_to_dict(preset("m2_like"))
        raw["seed"] = -1
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(raw))
        assert main(["gen", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert (f"invalid scenario file {str(spec_path)!r}: seed must be in [0, 2**64)"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_scenario_file_exits_2(self, tmp_path, capsys):
        # json.load recurses once per nested array, so this depth raises RecursionError.
        spec_path = tmp_path / "s.json"
        spec_path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["gen", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"psfair: error: invalid scenario file {str(spec_path)!r}: "
            "arrays or objects nested too deeply\n")
        assert not (tmp_path / "out").exists()

    def test_model_id_outside_out_dir_exits_2(self, tmp_path, capsys):
        raw = scenario_to_dict(preset("m2_like"))
        raw["candidates"][0]["model_id"] = "../evil"
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(raw))
        assert main(["gen", str(spec_path), "--out-dir", str(tmp_path / "o3")]) == 2
        assert "model id must be a plain file name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    @pytest.mark.parametrize("where, value, message", WRONG_TYPES)
    def test_wrongly_typed_scenario_field_exits_2(self, tmp_path, capsys, where, value,
                                                  message):
        raw = scenario_to_dict(preset("m2_like"))
        set_field(raw, where, value)
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(raw))
        assert main(["gen", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, value, message", MALFORMED)
    def test_malformed_scenario_file_exits_2(self, tmp_path, capsys, where, value, message):
        raw = set_field(scenario_to_dict(preset("m2_like")), where, value)
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(raw))
        assert main(["gen", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"psfair: error: invalid scenario file {str(spec_path)!r}: {message}\n")
        assert not (tmp_path / "out").exists()


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


def test_cli_import_loads_no_scipy(tmp_path):
    # psfair runs on numpy alone: no command loads scipy, gen included.
    code = (
        "import contextlib, io, sys\n"
        "from psfair.cli import main\n"
        "d = sys.argv[1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['gen', 'm2_like', '--out-dir', d]) == 0\n"
        "    assert main(['audit', d + '/baseline.csv', '--bootstrap-n', '5']) == 0\n"
        "    assert main(['compare', '--baseline', d + '/baseline.csv', '--candidate',\n"
        "                 d + '/m2.csv', '--conservative-ci', '--bootstrap-n', '5']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


LOADED_MODULES = """
import sys
before = set(sys.modules)  # whatever site or the interpreter loaded first
from psfair import cli
if sys.argv[1:]:
    code = cli.main(sys.argv[1:])
else:
    cli.build_parser()
    code = 0
added = sorted(set(sys.modules) - before)
import json
print(json.dumps([code, added]))
"""


def loaded_modules(*argv: str, code: int = 0, **env: str) -> set[str]:
    """The modules that a fresh interpreter adds by importing psfair.cli and
    running `psfair *argv` with env set, or building the parser when argv is
    empty; the run must exit with code."""
    out = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                         env={**child_env(), **env}, capture_output=True, text=True, check=True)
    got, added = json.loads(out.stdout.splitlines()[-1])
    assert got == code, out.stderr
    return set(added)


# What only a command's report or numpy work needs.
REPORT_MODULES = {"csv", "dataclasses", "inspect", "json", "numpy"}


def test_parser_loads_no_numpy_and_no_other_psfair_module():
    loaded = loaded_modules()
    assert loaded & REPORT_MODULES == set()
    assert sorted(m for m in loaded if m.startswith("psfair.")) == ["psfair.cli"]


@pytest.mark.parametrize("argv, env", [
    (["audit", "x.csv"], {"PSFAIR_BOOTSTRAP_N": "abc"}),
    (["audit", "x.csv", "--out", "/"], {}),
    (["compare", "--baseline", "b.csv", "--candidate", "c.csv", "--out", "/"], {}),
], ids=["malformed-env", "audit-out-dir", "compare-out-dir"])
def test_exit_2_before_input_loads_nothing_for_reports(argv, env):
    # Configuration errors exit on the parser's path, before any report module loads.
    loaded = loaded_modules(*argv, code=2, **env)
    assert loaded & REPORT_MODULES == set()
    assert sorted(m for m in loaded if m.startswith("psfair.")) == ["psfair.cli"]


@pytest.mark.parametrize("command, unloaded", [
    (["gen", "m2_like", "--out-dir", "{out}"], {"psfair.metrics", "psfair.positive_sum"}),
    (["audit", "{baseline}"], {"psfair.synth", "psfair.positive_sum", "numpy.ma"}),
    (["compare", "--conservative-ci", "--baseline", "{baseline}", "--candidate", "{m2}"],
     {"psfair.synth", "numpy.ma"}),
], ids=["gen", "audit", "compare"])
def test_each_command_loads_only_what_it_runs(study_files, tmp_path, command, unloaded):
    # np.quantile would load numpy.ma, through np.unique, partway through a run.
    argv = [arg.format(out=tmp_path / "gen", **study_files) for arg in command]
    if command[0] != "gen":
        argv += ["--bootstrap-n", "5"]
    assert loaded_modules(*argv) & unloaded == set()


@pytest.mark.parametrize("command", [
    ["audit", "{baseline}"],
    ["compare", "--conservative-ci", "--baseline", "{baseline}", "--candidate", "{m2}"],
])
def test_out_of_memory_exits_2(study_files, command):
    # 10**12 resamples cannot be allocated; exit 1 would read as "rejected".
    # The address-space cap keeps the child small wherever memory is overcommitted.
    argv = [arg.format(**study_files) for arg in command] + ["--bootstrap-n", str(10**12)]

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    out = subprocess.run([sys.executable, "-m", "psfair.cli", *argv], env=child_env(),
                         preexec_fn=cap_memory, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("psfair: error: out of memory: ")



# Imported at start-up from PYTHONPATH; records what the child saw when it exits.
EXIT_PROBE = """
import atexit, gc, json, os, sys

def record():
    seen = {"blas": os.environ.get("OPENBLAS_NUM_THREADS"), "numpy": "numpy" in sys.modules,
            "gc": [gc.isenabled(), gc.get_freeze_count()]}
    if os.path.isfile("/proc/self/status"):
        with open("/proc/self/status") as status:
            seen["threads"] = next(int(line.split()[1]) for line in status
                                   if line.startswith("Threads:"))
    with open(os.environ["EXIT_PROBE_OUT"], "w") as out:
        json.dump(seen, out)

atexit.register(record)
"""


def blas_env(value: str | None) -> dict:
    """child_env() with OPENBLAS_NUM_THREADS unset (None) or set to value."""
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env if value is None else {**env, "OPENBLAS_NUM_THREADS": value}


def probed_child(tmp_path, args: list[str], blas: str | None = None) -> dict:
    """Run `python *args` with EXIT_PROBE loaded; what it recorded at exit."""
    (tmp_path / "probe").mkdir()
    (tmp_path / "probe" / "sitecustomize.py").write_text(EXIT_PROBE)
    env = blas_env(blas)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path / "probe"), env["PYTHONPATH"]])
    env["EXIT_PROBE_OUT"] = str(tmp_path / "seen.json")
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads((tmp_path / "seen.json").read_text())


def stub_main_child(main_body: str) -> list[str]:
    """Arguments that run cli.entrypoint() with cli.main replaced by a stub."""
    return ["-c", f"from psfair import cli\ndef main():\n    {main_body}\n    return 0\n"
                  "cli.main = main\ncli.entrypoint()\n"]


@pytest.mark.parametrize("value, expected", [(None, "1"), ("", "1"), ("3", "3")],
                         ids=["unset", "empty", "caller"])
def test_entrypoint_gives_openblas_one_thread_unless_the_caller_chose(tmp_path, value,
                                                                      expected):
    # The program makes no BLAS call, so OpenBLAS gets one thread before numpy loads;
    # OpenBLAS reads an empty value as unset, and any other value is the caller's.
    seen = probed_child(tmp_path, stub_main_child("pass"), value)
    assert (seen["blas"], seen["numpy"]) == (expected, False)


@pytest.mark.parametrize("args", [
    stub_main_child("import numpy"),
    ["-m", "psfair.cli", "audit", "{m2}", "--bootstrap-n", "5"],
], ids=["stub", "module"])
def test_program_starts_no_openblas_pool(study_files, tmp_path, args):
    seen = probed_child(tmp_path, [arg.format(**study_files) for arg in args])
    assert (seen["blas"], seen["numpy"]) == ("1", True)
    if "threads" in seen:  # Linux
        assert seen["threads"] == 1


def test_program_runs_without_the_cycle_collector(study_files, tmp_path):
    seen = probed_child(tmp_path, ["-m", "psfair.cli", "audit", str(study_files["m2"]),
                                   "--bootstrap-n", "5"])
    enabled, frozen = seen["gc"]
    assert not enabled and frozen > 0


@pytest.mark.parametrize("code", [1, 2])
def test_program_exits_with_the_code_main_returns(code):
    # entrypoint holds main's code across the freeze.
    out = subprocess.run([sys.executable, *stub_main_child(f"return {code}")],
                         env=child_env(), capture_output=True, text=True)
    assert out.returncode == code, out.stderr


# Run in a child: cyclic garbage that `psfair audit` of each file leaves, after a
# warm-up run has made every lazy import and cache.
AUDIT_GARBAGE = """
import gc, sys
from psfair import cli

def garbage(path):
    gc.collect()
    assert cli.main(["audit", path, "--bootstrap-n", "5", "--out", sys.argv[3]]) == 0
    return gc.collect()

gc.disable()
garbage(sys.argv[1])
print(garbage(sys.argv[1]), garbage(sys.argv[2]))
"""


def test_cyclic_garbage_does_not_grow_with_rows(study_files, tmp_path):
    # Why the program may run without the collector: a run leaves the same
    # garbage at desk scale and at ten times as many rows.
    spec = preset("m2_like")
    big = dataclasses.replace(spec, baseline_recipes=tuple(
        dataclasses.replace(r, n_pos=10 * r.n_pos, n_neg=10 * r.n_neg)
        for r in spec.baseline_recipes))
    emit(build_study(big).baseline, tmp_path / "big.csv")
    out = subprocess.run([sys.executable, "-c", AUDIT_GARBAGE, str(study_files["baseline"]),
                          str(tmp_path / "big.csv"), str(tmp_path / "audit.json")],
                         env=child_env(), capture_output=True, text=True, check=True)
    desk, ten_times = map(int, out.stdout.split())
    assert desk == ten_times


REPORT_COMMANDS = [
    ["audit", "{m2}"],
    ["compare", "--conservative-ci", "--bootstrap-n", "20", "--baseline", "{baseline}",
     "--candidate", "{m2}"],
]


@pytest.mark.parametrize("command", REPORT_COMMANDS, ids=["audit", "compare"])
def test_in_process_run_leaves_the_environment_alone(study_files, capsys, monkeypatch,
                                                    command):
    # Unset, as a program would find it; only the entry point sets it.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ), gc.isenabled(), gc.get_freeze_count()
    main([arg.format(**study_files) for arg in command])
    capsys.readouterr()
    assert (dict(os.environ), gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("command", REPORT_COMMANDS, ids=["audit", "compare"])
def test_report_does_not_depend_on_blas_threads(study_files, command):
    argv = [sys.executable, "-m", "psfair.cli", *(arg.format(**study_files) for arg in command)]
    unset, two = (subprocess.run(argv, env=blas_env(value), capture_output=True)
                  for value in (None, "2"))
    assert unset.returncode in (0, 1), unset.stderr
    assert (two.returncode, two.stdout, two.stderr) == \
        (unset.returncode, unset.stdout, unset.stderr)
