import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdcluster.cli import main

from conftest import (
    RISING_ELBOW_HEADER, RISING_ELBOW_ROWS, mp_mean_std, mp_pearson_r, write_csv,
    write_tenth_column_csv,
)


def make_blob_csv(tmp_path, seed=0, c=3, n=60):
    rng = np.random.default_rng(seed)
    centers = np.arange(c) * 25.0
    membership = np.repeat(np.arange(c), n // c)
    x = centers[membership] + rng.normal(scale=1.0, size=n)
    y = 0.9 * x + rng.normal(scale=3.0, size=n)
    w = 0.8 * x + rng.normal(scale=5.0, size=n)
    noise = rng.normal(size=n)
    rows = [
        [f"a{i}", repr(float(x[i])), repr(float(y[i])), repr(float(w[i])),
         repr(float(noise[i]))]
        for i in range(n)
    ]
    return write_csv(
        tmp_path / "blobs.csv", ["animal_id", "BW", "DA", "CW", "NZ"], rows
    ), membership


class TestDescribeCommand:
    def test_bundled_scores_to_stdout(self, capsys):
        assert main(["describe", "--input", "builtin:scores"]) == 0
        out = capsys.readouterr().out
        rows = {line.split(",")[0]: line for line in out.splitlines()[1:]}
        ss = rows["SS"].split(",")
        assert [f"{float(v):.2f}" for v in ss[1:]] == [
            "2.90", "1.17", "1.33", "2.17", "2.67", "3.50", "5.33"
        ]

    def test_json_output_file(self, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["describe", "--input", "builtin:scores",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {row["key"] for row in doc} >= {"S1", "S2", "S3", "SS"}

    def test_single_animal(self, tmp_path, capsys):
        path = write_csv(tmp_path / "one.csv", ["animal_id", "CH"], [["a", 5]])
        assert main(["describe", "--input", str(path)]) == 0
        assert ",0.0," in capsys.readouterr().out.splitlines()[1]

    def test_missing_cell_exit_code(self, tmp_path, capsys):
        path = write_csv(tmp_path / "bad.csv", ["animal_id", "CH"], [["a", ""]])
        assert main(["describe", "--input", str(path)]) == 2
        assert "CH" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["describe", "--input", "/nope/missing.csv"]) == 2


class TestCorrelateCommand:
    def test_csv_stdout(self, capsys):
        assert main(["correlate", "--input", "builtin:synthetic"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("key,BW,")

    def test_csv_file_matches_stdout_and_parses(self, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        assert main(["correlate", "--input", "builtin:synthetic"]) == 0
        printed = capsys.readouterr().out
        assert main(["correlate", "--input", "builtin:synthetic",
                     "--out", str(out)]) == 0
        assert out.read_bytes().decode() == printed
        for line in printed.splitlines()[1:]:
            assert all(-1.0 <= float(v) <= 1.0 for v in line.split(",")[1:])

    def test_json_file(self, tmp_path):
        out = tmp_path / "corr.json"
        assert main(["correlate", "--input", "builtin:synthetic",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["r"]) == len(doc["keys"])


class TestClusterCommand:
    def test_explicit_k(self, tmp_path, capsys):
        path, _ = make_blob_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["cluster", "--input", str(path), "--target", "BW",
                     "--features", "2", "--k", "3", "--seed", "7",
                     "--out", str(out)]) == 0
        assert (out / "centroids.csv").exists()
        assert (out / "labels.csv").exists()
        assert (out / "model.json").exists()
        assert "k=3" in capsys.readouterr().out

    def test_elbow_fallback(self, tmp_path, capsys):
        path, _ = make_blob_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["cluster", "--input", str(path), "--target", "BW",
                     "--features", "2", "--out", str(out)]) == 0
        assert "k=3" in capsys.readouterr().out

    def test_k_zero_rejected(self, tmp_path, capsys):
        path, _ = make_blob_csv(tmp_path)
        assert main(["cluster", "--input", str(path), "--target", "BW",
                     "--k", "0", "--out", str(tmp_path / "out")]) == 2
        assert "k override 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["cluster", "pipeline"])
    @pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 7])
    def test_seed_outside_64_bits_rejected(self, command, seed, tmp_path, capsys):
        # -5 and 2**64 - 5 once wrote the same labels under different seeds
        path, _ = make_blob_csv(tmp_path)
        assert main([command, "--input", str(path), "--target", "BW", "--features", "2",
                     "--seed", str(seed), "--out", str(tmp_path / "out")]) == 2
        assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rounding_residue_column_is_not_a_feature(self, tmp_path, capsys):
        # B is 0.1 in every row: constant, so only C is left to select
        path = write_tenth_column_csv(tmp_path / "t.csv")
        assert main(["cluster", "--input", str(path), "--target", "A",
                     "--features", "2", "--k", "2", "--out", str(tmp_path / "out")]) == 2
        assert "count 2 exceeds 1 candidate keys" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEvaluateCommand:
    def test_anova_and_tukey(self, tmp_path, capsys):
        path, _ = make_blob_csv(tmp_path)
        out = tmp_path / "out"
        main(["cluster", "--input", str(path), "--target", "BW",
              "--features", "2", "--k", "3", "--out", str(out)])
        result = tmp_path / "eval.json"
        assert main(["evaluate", "--input", str(path),
                     "--labels", str(out / "labels.csv"),
                     "--target", "BW", "--out", str(result)]) == 0
        doc = json.loads(result.read_text())
        assert doc["anova"]["p_value"] < 0.05
        assert len(doc["tukey"]["pairs"]) == 3
        assert all(p["reject"] for p in doc["tukey"]["pairs"])
        text = capsys.readouterr().out
        assert "ANOVA BW" in text

    def test_labels_mismatch(self, tmp_path, capsys):
        path, _ = make_blob_csv(tmp_path)
        labels = write_csv(
            tmp_path / "labels.csv", ["animal_id", "cluster"], [["zz", 1]]
        )
        assert main(["evaluate", "--input", str(path),
                     "--labels", str(labels), "--target", "BW"]) == 2

    def test_non_integer_label(self, tmp_path, capsys):
        path, _ = make_blob_csv(tmp_path, n=6)
        for bad in ("1.5", "9" * 25):
            rows = [[f"a{i}", 1 + i % 2] for i in range(6)]
            rows[3][1] = bad
            labels = write_csv(tmp_path / "labels.csv", ["animal_id", "cluster"], rows)
            assert main(["evaluate", "--input", str(path),
                         "--labels", str(labels), "--target", "BW"]) == 2
            err = capsys.readouterr().err
            assert "labels.csv:5" in err and repr(bad) in err

    def test_label_record_width(self, tmp_path, capsys):
        path, _ = make_blob_csv(tmp_path, n=6)
        rows = [[f"a{i}", 1 + i % 2] for i in range(6)]
        rows[2].append(9)
        labels = write_csv(tmp_path / "labels.csv", ["animal_id", "cluster"], rows)
        assert main(["evaluate", "--input", str(path),
                     "--labels", str(labels), "--target", "BW"]) == 2
        assert "labels.csv:4: expected 2 fields, got 3" in capsys.readouterr().err

    def test_duplicate_animal(self, tmp_path, capsys):
        path, _ = make_blob_csv(tmp_path, n=6)
        rows = [[f"a{i}", 1 + i % 2] for i in range(6)] + [["a2", 1]]
        labels = write_csv(tmp_path / "labels.csv", ["animal_id", "cluster"], rows)
        assert main(["evaluate", "--input", str(path),
                     "--labels", str(labels), "--target", "BW"]) == 2
        err = capsys.readouterr().err
        assert "labels.csv:8" in err and "duplicate animal_id a2" in err

    def test_duplicate_label_column(self, tmp_path, capsys):
        # the last `cluster` column was once read silently
        path, _ = make_blob_csv(tmp_path, n=6)
        rows = [[f"a{i}", 1 + i % 2, 1] for i in range(6)]
        labels = write_csv(tmp_path / "labels.csv", ["animal_id", "cluster", " cluster"], rows)
        assert main(["evaluate", "--input", str(path),
                     "--labels", str(labels), "--target", "BW"]) == 2
        assert "labels.csv: duplicate column name cluster" in capsys.readouterr().err

    def test_labels_with_byte_order_mark(self, tmp_path, capsys):
        # spreadsheet tools save CSVs with a UTF-8 BOM before the header
        path, _ = make_blob_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["cluster", "--input", str(path), "--target", "BW",
                     "--features", "2", "--k", "3", "--out", str(out)]) == 0
        plain = out / "labels.csv"
        bom = tmp_path / "bom_labels.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        capsys.readouterr()
        stdout = []
        for labels in (plain, bom):
            assert main(["evaluate", "--input", str(path),
                         "--labels", str(labels), "--target", "BW"]) == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1]

    def test_labels_with_padded_cells(self, tmp_path, capsys):
        # ids are stripped as load_table strips them, header names too
        path, _ = make_blob_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["cluster", "--input", str(path), "--target", "BW",
                     "--features", "2", "--k", "3", "--out", str(out)]) == 0
        plain = out / "labels.csv"
        rows = plain.read_text().splitlines()
        padded_ids = tmp_path / "padded_ids.csv"
        padded_ids.write_text("\n".join(rows[:1] + [f" {r.replace(',', ' ,')}" for r in rows[1:]]))
        padded_header = tmp_path / "padded_header.csv"
        padded_header.write_text("\n".join(["animal_id, cluster", *rows[1:]]))
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("\n".join(["cluster,note,animal_id"] + [
            f"{c},x,{a}" for a, c in (r.split(",") for r in rows[1:])]))
        capsys.readouterr()
        stdout = []
        for labels in (plain, padded_ids, padded_header, reordered):
            assert main(["evaluate", "--input", str(path),
                         "--labels", str(labels), "--target", "BW"]) == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1] == stdout[2] == stdout[3]

    def test_duplicate_after_stripping(self, tmp_path, capsys):
        path, _ = make_blob_csv(tmp_path, n=6)
        rows = [[f"a{i}", 1 + i % 2] for i in range(6)] + [["a2 ", 1]]
        labels = write_csv(tmp_path / "labels.csv", ["animal_id", "cluster"], rows)
        assert main(["evaluate", "--input", str(path),
                     "--labels", str(labels), "--target", "BW"]) == 2
        assert "labels.csv:8: duplicate animal_id a2" in capsys.readouterr().err


class TestTargetChecked:
    """cluster and pipeline reject a bad --target with one message each."""

    @pytest.mark.parametrize("command", ["pipeline", "cluster"])
    def test_missing_column(self, command, tmp_path, capsys):
        assert main([command, "--input", "builtin:synthetic", "--target", "ZZ",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: target column ZZ not in input\n"

    @pytest.mark.parametrize("command", ["pipeline", "cluster"])
    def test_constant_column(self, command, tmp_path, capsys):
        path, _ = make_blob_csv(tmp_path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for row in rows[1:]:
            row[1] = "5.0"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        assert main([command, "--input", str(path), "--target", "BW",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: target column BW is constant\n"


class TestRisingElbowCurve:
    @pytest.mark.parametrize("command", ["pipeline", "cluster"])
    def test_scan_completes(self, command, tmp_path, capsys):
        path = write_csv(tmp_path / "t.csv", RISING_ELBOW_HEADER, RISING_ELBOW_ROWS)
        assert main([command, "--input", str(path), "--target", "BW",
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("k=4 ")


class TestPipelineCommand:
    def test_blob_pipeline_end_to_end(self, tmp_path):
        path, membership = make_blob_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--input", str(path), "--target", "BW",
                     "--features", "2", "--seed", "3", "--charts",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["k"] == 3
        assert doc["selection"]["selected"] == ["DA", "CW"]
        assert doc["evaluation"]["BW"]["anova"]["p_value"] < 0.05
        assert all(
            p["reject"] for p in doc["evaluation"]["BW"]["tukey"]["pairs"]
        )
        for name in doc["artifacts"]:
            assert (out / name).exists()
        # labels must match blob membership up to renaming
        labels = np.array(doc["model"]["labels"])
        for blob in np.unique(membership):
            assert len(set(labels[membership == blob])) == 1

    def test_determinism_modulo_timestamp(self, tmp_path):
        path, _ = make_blob_csv(tmp_path)
        docs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["pipeline", "--input", str(path), "--target", "BW",
                         "--seed", "11", "--out", str(out)]) == 0
            text = (out / "report.json").read_text()
            doc = json.loads(text)
            doc.pop("timestamp")
            doc["config"].pop("output_dir")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_preset_dorsum_on_synthetic(self, tmp_path):
        out = tmp_path / "dorsum"
        assert main(["pipeline", "--input", "builtin:synthetic",
                     "--preset", "dorsum", "--k", "3", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["selection"]["selected"] == ["DA", "CW", "DL"]
        firsts = [c[0] for c in doc["model"]["centroids"]]
        assert firsts == sorted(firsts)

    def test_preset_structure_on_synthetic(self, tmp_path):
        out = tmp_path / "structure"
        assert main(["pipeline", "--input", "builtin:synthetic",
                     "--preset", "structure", "--k", "4", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["selection"]["selected"] == ["CW", "BW", "CH"]
        signs = [np.sign(r) for r in doc["selection"]["r_values"]]
        assert signs == [1, 1, -1]
        firsts = [c[0] for c in doc["model"]["centroids"]]
        assert len(firsts) == 4 and firsts == sorted(firsts)

    def test_exclude_echo_leaves_out_target(self, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", "--input", "builtin:synthetic", "--target", "BW",
                     "--exclude", "FW,DMI", "--k", "3", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["exclude"] == ["DMI", "FW"]
        assert "BW" not in doc["selection"]["selected"]

    def test_preset_conflicts_with_target(self, capsys):
        assert main(["pipeline", "--input", "builtin:synthetic",
                     "--preset", "dorsum", "--target", "BW"]) == 2

    def test_no_knee_requires_k(self, tmp_path, capsys, rng):
        # featureless uniform noise: flat-ish distortion curve may still
        # produce a knee, so force failure with a tiny k range
        rows = [[f"a{i}", repr(float(v)), repr(float(w))]
                for i, (v, w) in enumerate(rng.normal(size=(12, 2)))]
        path = write_csv(tmp_path / "n.csv", ["animal_id", "A", "B"], rows)
        code = main(["pipeline", "--input", str(path), "--target", "A",
                     "--k-range", "1:2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "k" in capsys.readouterr().err

    def test_unknown_target_exit_code(self, capsys):
        assert main(["pipeline", "--input", "builtin:synthetic",
                     "--target", "NOPE"]) == 2

    # cluster parsed --k-range only without --k, so "--k 2 --k-range x" exited 0
    @pytest.mark.parametrize("command", [["pipeline"], ["cluster", "--k", "2"]],
                             ids=["pipeline", "cluster"])
    def test_bad_k_range_syntax(self, command, tmp_path, capsys):
        assert main([*command, "--input", "builtin:synthetic", "--target", "BW",
                     "--k-range", "x", "--out", str(tmp_path / "o")]) == 2
        assert "--k-range must look like LO:HI, got 'x'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("k_range", ["30:40", "0:40", "40:30"])
    def test_k_range_outside_herd_names_the_request(self, k_range, tmp_path, capsys):
        # the range was clipped to the 23 animals first: "empty k range [30, 23]"
        assert main(["pipeline", "--input", "builtin:synthetic", "--target", "BW",
                     "--k-range", k_range, "--out", str(tmp_path / "o")]) == 2
        lo, hi = k_range.split(":")
        assert f"k range [{lo}, {hi}] must start in [1, 23], the herd size" in capsys.readouterr().err




class TestInputChecks:
    """Each check of a table, a labels file or the pipeline's flags exits 2
    with a message that names the fault."""

    @pytest.mark.parametrize("argv, header, rows, message", [
        (["describe"], ["animal_id", "CH"], [["a", "nan"]], "non-finite value in column CH"),
        (["describe"], ["animal_id", "CH"], [["a", "inf"]], "non-finite value in column CH"),
        (["describe"], ["animal_id"], [["a"]], "need an id column plus measurements"),
        (["describe"], ["animal_id", "CH"], [[" ", 1]], "empty animal id"),
        # the table is its own labels file: its animals, but no cluster column
        (["evaluate", "--labels", "{table}", "--target", "CH"], ["animal_id", "CH"],
         [["a", 1], ["b", 2]], "labels CSV needs animal_id,cluster columns"),
        (["pipeline", "--out", "{out}"], ["animal_id", "CH"], [["a", 1], ["b", 2]],
         "either --preset or --target is required"),
    ], ids=["nan", "inf", "id-only", "empty-id", "labels-without-cluster", "no-target"])
    def test_exit_2_with_message(self, argv, header, rows, message, tmp_path, capsys):
        table = write_csv(tmp_path / "t.csv", header, rows)
        argv = [arg.format(table=table, out=tmp_path / "o") for arg in argv]
        assert main([*argv, "--input", str(table)]) == 2
        assert message in capsys.readouterr().err


class TestOverflowingColumn:
    """Finite cells whose moments overflow unless each column is scaled
    first: every command reports finite values, checked against mpmath,
    and exits 0. Exit 3 is left for a reported value past the double
    range."""

    X = [1e308, 1e308, -1e308, 1.0]
    BW = [300.0, 310.0, 305.0, 320.0]

    def _table(self, tmp_path):
        rows = [[a, x, bw] for a, x, bw in zip("abcd", self.X, self.BW)]
        return write_csv(tmp_path / "huge.csv", ["animal_id", "X", "BW"], rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_describe(self, tmp_path, capsys):
        assert main(["describe", "--input", str(self._table(tmp_path))]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == "X"
        mean, std = mp_mean_std(self.X)
        assert float(row[1]) == pytest.approx(mean, rel=1e-12)
        assert float(row[2]) == pytest.approx(std, rel=1e-12)
        assert row[2] == "9.57427107756338e+307"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_correlate(self, tmp_path, capsys):
        assert main(["correlate", "--input", str(self._table(tmp_path))]) == 0
        r = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        assert r == pytest.approx(mp_pearson_r(self.X, self.BW), rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pipeline(self, tmp_path, capsys):
        assert main(["pipeline", "--input", str(self._table(tmp_path)),
                     "--target", "BW", "--features", "1", "--k", "2",
                     "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        mean, std = mp_mean_std(self.X)
        assert doc["model"]["means"] == [pytest.approx(mean, rel=1e-12)]
        assert doc["model"]["stds"] == [pytest.approx(std, rel=1e-12)]
        assert doc["selection"]["r_values"] == [
            pytest.approx(mp_pearson_r(self.X, self.BW), rel=1e-12)]
        assert "BW" in doc["evaluation"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cluster_names_the_pair(self, tmp_path, capsys):
        # this exited 3 with "correlation overflowed for pair (X, BW)"
        assert main(["cluster", "--input", str(self._table(tmp_path)),
                     "--target", "BW", "--features", "1", "--k", "2",
                     "--out", str(tmp_path / "out")]) == 0
        assert "features=X" in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "model.json").read_text())
        assert doc["stds"] == [pytest.approx(mp_mean_std(self.X)[1], rel=1e-12)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_evaluate(self, tmp_path, capsys):
        # the F tests are finite; the reported ms_within, about 1.25e615 and
        # 1e-400, is not (the second was printed as 0.0 with exit 0)
        for bw, groups, past in [([1e308] + [0] * 8, [1] * 8 + [2], "overflowed"),
                                 ([1e-200, 2e-200, 3e-200, 5e-200, 4e-200], [1, 1, 2, 2, 2],
                                  "underflowed")]:
            path = write_csv(tmp_path / "t.csv", ["animal_id", "BW"],
                             [[f"a{i}", v] for i, v in enumerate(bw)])
            labels = write_csv(tmp_path / "labels.csv", ["animal_id", "cluster"],
                               [[f"a{i}", g] for i, g in enumerate(groups)])
            assert main(["evaluate", "--input", str(path), "--labels", str(labels),
                         "--target", "BW"]) == 3
            captured = capsys.readouterr()
            assert f"numerical error: within-group mean square {past}" in captured.err
            assert "ANOVA" not in captured.out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_derived_score_of_huge_grader_scores(self, tmp_path, capsys):
        # SS was the unscaled mean, which overflowed: "column SS contains
        # non-finite values", exit 2 (a traceback under RuntimeWarning errors)
        s1 = [1.5e308, -1.5e308, 1.5e308, -1.5e308]
        path = write_csv(tmp_path / "t.csv", ["animal_id", "S1", "S2", "S3"],
                         [[a, v, 1.2e308, 1.6e308] for a, v in zip("abcd", s1)])
        assert main(["describe", "--input", str(path)]) == 0
        rows = {r[0]: r for r in csv.reader(capsys.readouterr().out.splitlines())}
        ss = [mp_mean_std([v, 1.2e308, 1.6e308])[0] for v in s1]
        assert float(rows["SS"][1]) == pytest.approx(mp_mean_std(ss)[0], rel=1e-12)
        assert float(rows["SS"][7]) == pytest.approx(max(ss), rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_std_past_the_double_range(self, tmp_path, capsys):
        path = write_csv(tmp_path / "t.csv", ["animal_id", "X"],
                         [[a, 1.7e308 * (-1) ** i] for i, a in enumerate("abcd")])
        assert main(["describe", "--input", str(path)]) == 3
        assert "numerical error: std of column X overflowed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_boxplot_of_a_huge_target(self, tmp_path):
        # the boxplot's value span, 3.3e308, overflowed into NaN coordinates
        rows = [["a", 1.5e308, 1, 3], ["b", 1.6e308, 2, 1], ["c", -1.7e308, 3, 4],
                ["d", 1, 4, 1], ["e", 2, 5, 9]]
        path = write_csv(tmp_path / "t.csv", ["animal_id", "X", "A", "B"], rows)
        assert main(["pipeline", "--input", str(path), "--target", "X", "--features", "2",
                     "--k", "1", "--charts", "--out", str(tmp_path / "out")]) == 0
        assert "nan" not in (tmp_path / "out" / "boxplot.svg").read_text()


class TestUnderflowingPair:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_correlate(self, tmp_path, capsys):
        # unscaled, the product of the two sums of squares (about 1e-400)
        # underflows to 0; this was a ZeroDivisionError traceback, then exit 3
        cols = {"A": [1e-100, 2e-100, 4e-100], "B": [1e-100, 3e-100, 2e-100], "C": [2, 1, 3]}
        path = write_csv(tmp_path / "tiny.csv", ["animal_id", *cols],
                         [[a, *(c[i] for c in cols.values())] for i, a in enumerate("abc")])
        assert main(["correlate", "--input", str(path)]) == 0
        r = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        assert r == pytest.approx(mp_pearson_r(cols["A"], cols["B"]), rel=1e-12)


class TestAlphaChecked:
    """--alpha outside (0, 1) exits 2 before any work, also where no
    Tukey test would run."""

    def _exit_code(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code

    def test_evaluate_with_degenerate_anova(self, tmp_path, capsys):
        path = write_csv(tmp_path / "t.csv", ["animal_id", "BW"],
                         [["a", 1], ["b", 1], ["c", 5], ["d", 5]])
        labels = write_csv(tmp_path / "labels.csv", ["animal_id", "cluster"],
                           [["a", 1], ["b", 1], ["c", 2], ["d", 2]])
        argv = ["evaluate", "--input", str(path), "--labels", str(labels),
                "--target", "BW", "--out", str(tmp_path / "e.json")]
        assert main(argv) == 0
        assert "[degenerate]" in capsys.readouterr().out
        for bad in ("7", "0", "1", "-0.1", "nan", "abc"):
            assert self._exit_code(argv + ["--alpha", bad]) == 2
            assert "alpha must be in (0, 1)" in capsys.readouterr().err

    def test_pipeline_with_one_cluster(self, tmp_path, capsys):
        argv = ["pipeline", "--input", "builtin:synthetic", "--preset", "dorsum",
                "--k", "1", "--out", str(tmp_path / "out")]
        assert self._exit_code(argv + ["--alpha", "7"]) == 2
        assert "alpha must be in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(argv + ["--alpha", "0.5"]) == 0


class TestUnwritableOutput:
    """An output path that cannot be written exits 2, not in a traceback."""

    def test_describe_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["describe", "--input", "builtin:scores", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_pipeline_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["pipeline", "--input", "builtin:synthetic", "--preset", "dorsum",
                     "--out", str(tmp_path / "file" / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestJsonOutputs:
    def test_every_json_output_has_one_format(self, tmp_path):
        """report.json, model.json and the --out files of evaluate,
        describe and correlate parse, have sorted keys and a 2-space
        indent, and end with exactly one newline."""
        run = tmp_path / "run"
        synthetic = ["--input", "builtin:synthetic"]
        for argv in (
            ["pipeline", "--preset", "dorsum", "--k", "3", "--out", str(run)],
            ["evaluate", "--labels", str(run / "labels.csv"), "--target", "BW",
             "--out", str(tmp_path / "evaluate.json")],
            ["describe", "--format", "json", "--out", str(tmp_path / "describe.json")],
            ["correlate", "--format", "json", "--out", str(tmp_path / "correlate.json")],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv[:1] + synthetic + argv[1:]) == 0
        paths = [run / "report.json", run / "model.json",
                 *(tmp_path / f"{cmd}.json" for cmd in ("evaluate", "describe", "correlate"))]
        for path in paths:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path
            assert text.endswith("}\n") or text.endswith("]\n"), path


_BAD_CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "1e308", "x", '"', "1.5",
                     "a1", "b w", "9" * 30]),
    st.text(max_size=3),
)


@st.composite
def _csv_text(draw, header, n, cell):
    """A well-formed CSV table of `n` animals, then often up to two cells
    (header included) replaced by junk and sometimes one row cut short."""
    rows = [list(header)] + [
        [f"a{i}"] + [draw(cell) for _ in header[1:]] for i in range(n)
    ]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = draw(st.integers(0, n))
        rows[row][draw(st.integers(0, len(header) - 1))] = draw(_BAD_CELLS)
    if draw(st.integers(0, 9)) == 0:
        del rows[draw(st.integers(0, n))][-1]
    return ("\n".join(",".join(r) for r in rows) + "\n").encode()


@st.composite
def _inputs(draw):
    n = draw(st.integers(1, 9))
    values = st.one_of(st.integers(0, 3).map(str),
                       st.floats(-100, 100, allow_nan=False).map(repr))
    data = draw(_csv_text(("animal_id", "BW", "DA", "CW", "S1", "S2", "S3"), n, values))
    n_labelled = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    labels = draw(_csv_text(("animal_id", "cluster"), max(n_labelled, 0),
                            st.integers(1, 3).map(str)))
    if draw(st.integers(0, 4)) == 0:  # undecodable or truncated bytes
        junk = draw(st.binary(max_size=30))
        return (data, junk) if len(junk) % 2 else (junk, labels)
    return data, labels


class TestMalformedInputFuzz:
    """Whatever the input files hold, every subcommand ends with exit
    code 0, 2 or 3, never an uncaught exception."""

    @given(files=_inputs(), k=st.sampled_from([None, "0", "2"]))
    @settings(max_examples=20, deadline=None)
    def test_exit_codes(self, files, k):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            data_path, labels_path = tmp / "data.csv", tmp / "labels.csv"
            data_path.write_bytes(files[0])
            labels_path.write_bytes(files[1])
            fit = ["--target", "BW", "--out", str(tmp / "out")]
            fit += ["--k", k] if k else []
            for argv in (
                ["describe"],
                ["correlate"],
                ["cluster", *fit],
                ["evaluate", "--labels", str(labels_path), "--target", "BW"],
                ["pipeline", *fit, "--charts"],
            ):
                argv[1:1] = ["--input", str(data_path)]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    assert main(argv) in (0, 2, 3), argv
