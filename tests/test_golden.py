"""Golden report hashes: every report and generated file of the four presets,
the files ``gen`` writes for a custom scenario file, one conservative
compare of that scenario's three models, and every report of a study of
three findings, as stdout and stderr.

``gen`` writes each preset at seed 0, then ``audit`` and ``compare`` read it
back, all through ``cli.main``. Each output file's sha256 and each exit code
must equal the tables below, so a change that alters any byte of a report or
of a ``gen`` file fails here. A declared change of output updates the table
in the same diff.
"""

import hashlib
import json
import os

import pytest

from psfair.cli import main

# (preset, candidate) -> ({output: sha256}, exit codes), as ``outputs`` returns them.
GOLDEN = {
    ("m2_like", "m2"): (
        {"baseline.csv": "9c3743af556ae14536b1d7e4f2365a4019fd281d048c02eb7cedcd78ad2682bf",
         "m2.csv": "db0fed49b6578ff610e61e9b15fe38d2520073955149b50d4d828c7a19ddc87b",
         "audit.json": "c7579048f35add594ec5ba0e7646b86592618951dd2a5d3013565960e28e8f16",
         "audit.csv": "58e87359b96e4be850bb501f4f3eb77655703b249677d7820a2c0558249eb422",
         "compare.json": "c7428ad6cb528e7f658900b81549b0806d0c34aa35cbf44d3f87e7059376ec39",
         "compare.csv": "39d3e040ea06dd2d9a5b437b69043cc5421818b26dd2ba88923f981b0d9dd48b",
         "conservative.json": "f3d167b6c64ab808a9627edea1461afeecce2d31ef0fe03cfcad022b9943ab22"},
        (0, 0, 0, 0, 0, 0)),
    ("m3_like", "m3"): (
        {"baseline.csv": "9c3743af556ae14536b1d7e4f2365a4019fd281d048c02eb7cedcd78ad2682bf",
         "m3.csv": "49154530a547cdf2dfafb9bcd1b48093beb450cc80d5170b1a8428690c5e3790",
         "audit.json": "713ce08635fdab7d5dcbb0a3fe5e2d411781612c2d782f22ff3474d2f569da78",
         "audit.csv": "77187e1c11b677818aafc4f01f62c0cd10471185356f9ecd49ec0a1fe604669b",
         "compare.json": "84ce29e888e7970f4bbcef4f8106dbd0e7afaea6a56d1481afc7463ffc8c6952",
         "compare.csv": "80f5e6e8f3c85a3a5bb68a5f045484ee00f2b6867a22e27df2602fcaa179e3fc",
         "conservative.json": "1a3e68cd83889fee1f5d0dcfde8a224747621a61f356554f8606cd28ffb70a23"},
        (0, 0, 0, 1, 1, 1)),
    ("m4_like", "m4"): (
        {"baseline.csv": "9c3743af556ae14536b1d7e4f2365a4019fd281d048c02eb7cedcd78ad2682bf",
         "m4.csv": "ad5ca03534984b5ff1335867476b6f2f6756fca389425dd99ced2e27a416ed6c",
         "audit.json": "0507a32ae144e9f8940f9618438a8751a0f899677ba632a50dd466d85b848c32",
         "audit.csv": "d9d871242ac653e589c46108132b8208d2b29f35dfdf8fafa6bde26dcf9a2a71",
         "compare.json": "5beb294befd404a0683b08b190e88280a03d139c2f838d6a3686dd878a535c8e",
         "compare.csv": "bb5c0e389be19bf078f26a805cc055030dd65a6f637b34a4ee33b018a3ccd22a",
         "conservative.json": "3facf339888e844a3d4464b9f1d53a3587d4a1136756443afbe623488003b35f"},
        (0, 0, 0, 1, 1, 1)),
    ("no_change", "m_same"): (
        {"baseline.csv": "9c3743af556ae14536b1d7e4f2365a4019fd281d048c02eb7cedcd78ad2682bf",
         "m_same.csv": "9c3743af556ae14536b1d7e4f2365a4019fd281d048c02eb7cedcd78ad2682bf",
         "audit.json": "8061ccc11467c89c2f8e7286a22386181d59d8bf090247e837e71005ca0d754f",
         "audit.csv": "631a06404b2940ea34c5771c2cdd0f8b455877108414cc1a55cfe531b1012629",
         "compare.json": "da0aa78f71b82113174c9c1279c008ddc435a720327292ffbd8b95f74a190e7f",
         "compare.csv": "e262c41f262321b7d045cbda2167842b2480ae1a2cbd34423b7ba5370fa332c4",
         "conservative.json": "c24b925787e61919d6f911a6410c39f9b15d9c578c4dc8fcecf620bb0ca35207"},
        (0, 0, 0, 0, 0, 0)),
}


def outputs(folder, preset, candidate):
    """Run gen, audit and compare for one preset in ``folder``: the sha256 of
    each output file by name, and the exit code of each invocation in order."""
    base, cand = folder / "baseline.csv", folder / f"{candidate}.csv"
    runs = {
        "gen": ["gen", preset, "--seed", "0", "--out-dir", str(folder)],
        "audit.json": ["audit", str(cand), "--bootstrap-n", "60"],
        "audit.csv": ["audit", str(cand), "--bootstrap-n", "60", "--format", "csv"],
        "compare.json": ["compare", "--baseline", str(base), "--candidate", str(cand)],
        "compare.csv": ["compare", "--baseline", str(base), "--candidate", str(cand),
                        "--format", "csv"],
        "conservative.json": ["compare", "--baseline", str(base), "--candidate", str(cand),
                              "--conservative-ci", "--bootstrap-n", "60"],
    }
    codes = tuple(main(argv if name == "gen" else [*argv, "--out", str(folder / name)])
                  for name, argv in runs.items())
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in (base, cand, *(folder / name for name in runs if name != "gen"))}
    return hashes, codes


@pytest.mark.parametrize("preset, candidate", list(GOLDEN))
def test_outputs_match_golden_hashes(tmp_path, monkeypatch, capsys, preset, candidate):
    for name in [n for n in os.environ if n.startswith("PSFAIR_")]:
        monkeypatch.delenv(name)
    assert outputs(tmp_path, preset, candidate) == GOLDEN[preset, candidate]


# A scenario file that reaches what no preset does: load_scenario, uneven
# groups, a whole-number float count, two candidates and no overrides.
SCENARIO = {
    "name": "custom", "seed": 11, "finding": "effusion",
    "groups": [
        {"group_id": "a", "n_pos": 40, "n_neg": 60.0, "target_auc": 0.7},
        {"group_id": "b", "n_pos": 25, "n_neg": 35, "target_auc": 0.8},
        {"group_id": "c", "n_pos": 12, "n_neg": 50, "target_auc": 0.66},
    ],
    "candidates": [{"model_id": "tuned", "overrides": {"a": 0.76, "c": 0.6}},
                   {"model_id": "same"}],
}

# gen run -> {output: sha256}
SCENARIO_GOLDEN = {
    "csv": {"baseline.csv": "8b0a58f8d916e89fc83346ea433421b48635257f478e117e39aa8220df0d8580",
            "same.csv": "8b0a58f8d916e89fc83346ea433421b48635257f478e117e39aa8220df0d8580",
            "tuned.csv": "fa9d1b3f23311a735d3b16ccd38a83e6be0e882e6c5c9127efefceec447288f1"},
    "tab": {"baseline.tsv": "a9159f5e7f3f1248c765d5185a04a2dae99943a6afecae6ace4e79a0c1bca116",
            "same.tsv": "a9159f5e7f3f1248c765d5185a04a2dae99943a6afecae6ace4e79a0c1bca116",
            "tuned.tsv": "268425b4e198e133f255b5147d59a1ba4ef5e0b892d7fa59beb2fe87a2c20e4e"},
    "seed-3": {"baseline.csv": "14b0772abdba79e4bf29941d5abdc74739d877c4f32740b01f3bdbe3e8a74707",
               "same.csv": "14b0772abdba79e4bf29941d5abdc74739d877c4f32740b01f3bdbe3e8a74707",
               "tuned.csv": "806aedbb028ed9e0521c9891f3dc266ca62c62592ddde65adab103926b8aa9e0"},
}


def test_scenario_file_gen_matches_golden_hashes(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    hashes = {}
    for name, flags in {"csv": [], "tab": ["--tab"], "seed-3": ["--seed", "3"]}.items():
        out = tmp_path / name
        assert main(["gen", str(path), "--out-dir", str(out), *flags]) == 0
        hashes[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.iterdir())}
    assert hashes == SCENARIO_GOLDEN


# The scenario's baseline and both candidates in one conservative compare:
# three models share each cell's draws, "tuned" has other score levels than
# the baseline, and 700 resamples leave every cell several blocks and a
# ragged last one (a cell's block holds 32768 // its row count resamples).
# "tuned" loses on group c, so the gate rejects it and compare exits 1.
SCENARIO_COMPARE_GOLDEN = ("227540d3d8578d23aeb06a8faa2bf8cb84a363d947485516d42a48d60b34a1fb", 1)


def test_scenario_three_model_conservative_compare_matches_golden_hash(tmp_path, monkeypatch,
                                                                       capsys):
    for name in [n for n in os.environ if n.startswith("PSFAIR_")]:
        monkeypatch.delenv(name)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    assert main(["gen", str(path), "--out-dir", str(tmp_path)]) == 0
    report = tmp_path / "conservative.json"
    code = main(["compare", "--baseline", str(tmp_path / "baseline.csv"),
                 "--candidate", str(tmp_path / "tuned.csv"),
                 "--candidate", str(tmp_path / "same.csv"),
                 "--conservative-ci", "--bootstrap-n", "700", "--out", str(report)])
    assert (hashlib.sha256(report.read_bytes()).hexdigest(), code) == SCENARIO_COMPARE_GOLDEN


# A study of three findings that no preset reaches. "alpha" includes every
# group; "beta" includes only group a, so its fairness score and every
# narrative are undefined; "gamma" includes no group (no group has 5
# positives and 5 negatives), so each candidate's (candidate, "gamma") pair is
# skipped with a warning, compare exits 1, and the audit's macro average
# spans all three findings. "lift" gains on group a, the lowest at baseline
# (other_group_improved); "slip" jitters alpha's group b, a point loss that the
# conservative gate lets through.
MULTI_FINDING = {  # finding -> ((group, n_pos, n_neg), ...)
    "alpha": (("a", 6, 7), ("b", 8, 6), ("c", 5, 9)),
    "beta": (("a", 7, 6), ("b", 3, 8)),
    "gamma": (("a", 4, 6), ("b", 6, 4)),
}
MULTI_SHIFT = {  # model -> score shift of (finding, group, row index, label)
    "baseline": lambda finding, group, i, label: 0.0,
    "lift": lambda finding, group, i, label: 0.15 * label * (group == "a"),
    "slip": lambda finding, group, i, label: ((i * 5) % 7 - 3) / 20 * ((finding, group)
                                                                        == ("alpha", "b")),
}


def write_multi_finding_study(folder):
    """Write baseline.csv, lift.csv and slip.csv of MULTI_FINDING to ``folder``."""
    for model, shift in MULTI_SHIFT.items():
        lines = ["example_id,finding,label,score,group"]
        for f, (finding, groups) in enumerate(MULTI_FINDING.items()):
            for g, (group, n_pos, n_neg) in enumerate(groups):
                for i in range(n_pos + n_neg):
                    label = int(i < n_pos)
                    score = ((i * 7 + f * 3 + g * 5) % 13) / 13 + 0.3 * label
                    score += shift(finding, group, i, label)
                    lines.append(f"{finding}-{group}-{i},{finding},{label},{score:.4f},{group}")
        (folder / f"{model}.csv").write_text("\n".join(lines) + "\n")


# run -> (sha256 of stdout, sha256 of stderr, exit code)
MULTI_FINDING_GOLDEN = {
    "audit.json": ("042b669376d4dc7909cae6138cc6c2806b6e14f0e61f6e0217ddf2d8d02d9108",
        "2b51c06c9659907a6de64ea3571e51ab07f4bb2b55a4ecde2c42bcf298dba38b", 0),
    "audit.csv": ("80b6d9a31c5c9d34cff9fdd4886acac3a802191a65da2dc4feb8bec993340eb9",
        "2b51c06c9659907a6de64ea3571e51ab07f4bb2b55a4ecde2c42bcf298dba38b", 0),
    "compare.json": ("f863a45865d980f47a667999fa700d87055b453a70713d74ed4470782575daba",
        "842bcc5655f7a27b94c13752ce99f00d56067f2439ecca662d2288a8664adafd", 1),
    "compare.csv": ("a59ba45a08a43c6ef0b5015a3b19359478ede72e40e768a3ee9a4d1315080699",
        "842bcc5655f7a27b94c13752ce99f00d56067f2439ecca662d2288a8664adafd", 1),
    "conservative.json": ("7304f619a57256cc560e01150717a224c17a0dd8de57c4d1eb718cea38d67645",
        "842bcc5655f7a27b94c13752ce99f00d56067f2439ecca662d2288a8664adafd", 1),
    "conservative.csv": ("dcf0accdb2f5514a1053bdf99dbeb62b6f7e758bc6325d5e9a0cbac2b3670534",
        "842bcc5655f7a27b94c13752ce99f00d56067f2439ecca662d2288a8664adafd", 1),
}


def test_multi_finding_reports_match_golden_hashes(tmp_path, monkeypatch, capsys):
    for name in [n for n in os.environ if n.startswith("PSFAIR_")]:
        monkeypatch.delenv(name)
    write_multi_finding_study(tmp_path)
    base, lift, slip = (str(tmp_path / f"{model}.csv") for model in MULTI_SHIFT)
    compare = ["compare", "--baseline", base, "--candidate", lift, "--candidate", slip]
    conservative = [*compare, "--conservative-ci", "--bootstrap-n", "80"]
    runs = {
        "audit.json": ["audit", lift, "--bootstrap-n", "80"],
        "audit.csv": ["audit", lift, "--bootstrap-n", "80", "--format", "csv"],
        "compare.json": compare,
        "compare.csv": [*compare, "--format", "csv"],
        "conservative.json": conservative,
        "conservative.csv": [*conservative, "--format", "csv"],
    }
    got = {}
    for name, argv in runs.items():
        code = main(argv)
        out, err = capsys.readouterr()
        got[name] = (hashlib.sha256(out.encode()).hexdigest(),
                     hashlib.sha256(err.encode()).hexdigest(), code)
    assert got == MULTI_FINDING_GOLDEN
