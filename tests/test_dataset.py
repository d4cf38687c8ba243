import csv
import functools
import itertools
import math
import tempfile
import time
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdcluster import (
    HerdTable,
    NumericalError,
    ValidationError,
    aggregate_scores,
    describe,
    load_table,
)
from herdcluster import dataset
from herdcluster.dataset import _parse_cell, bulk_csv, canonical_key

from conftest import csv_files, mp_mean_std, outcome, row_parse, write_csv

# published per-animal (mean, std) rows of the grader-score table
TABLE3 = [
    ("1", 2.3, 0.58), ("2", 1.3, 0.58), ("3", 4.7, 0.58), ("4", 5.3, 0.58),
    ("5", 4.3, 1.15), ("6", 3.3, 0.58), ("7", 4.7, 0.58), ("8", 3.3, 0.58),
    ("9", 4.3, 0.58), ("10", 3.0, 1.00), ("11", 2.3, 0.58), ("12", 2.3, 0.58),
    ("13", 1.3, 0.58), ("14", 3.0, 0.00), ("15", 2.7, 0.58), ("16", 1.3, 0.58),
    ("17", 1.3, 0.58), ("18", 2.0, 1.00), ("19", 2.0, 1.00), ("20", 2.7, 0.58),
    ("21", 2.7, 0.58), ("22", 2.7, 0.58), ("23", 3.7, 0.58),
]


class TestLoadTable:
    def test_bundled_scores_has_derived_ss(self, scores_table):
        assert scores_table.n_animals == 23
        assert scores_table.provenance["SS"] == "derived"
        np.testing.assert_allclose(
            scores_table.column("SS"),
            (scores_table.column("S1") + scores_table.column("S2")
             + scores_table.column("S3")) / 3.0,
        )

    def test_single_animal_single_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["animal_id", "CH"], [["a", 130.5]])
        table = load_table(path)
        assert table.n_animals == 1
        assert table.column("CH")[0] == 130.5

    def test_byte_order_mark_skipped(self, tmp_path):
        plain = write_csv(tmp_path / "t.csv", ["animal_id", "CH", "BW"],
                          [["a", 130.5, 300], ["b", 128.0, 310]])
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_table(plain), load_table(bom)
        assert got.animal_ids == want.animal_ids
        assert got.keys == want.keys
        assert dict(got.provenance) == dict(want.provenance)
        for key in want.keys:
            np.testing.assert_array_equal(got.column(key), want.column(key))

    def test_duplicate_animal_id(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", ["animal_id", "CH"], [["7", 1], ["7", 2]]
        )
        with pytest.raises(ValidationError, match="duplicate animal_id"):
            load_table(path)

    def test_duplicate_animal_id_in_a_large_table(self):
        # the check is linear: a quadratic one took minutes at this size
        ids = [f"a{i}" for i in range(100_000)]
        ids[-1] = "a5"
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"^duplicate animal_id: a5$"):
            HerdTable(tuple(ids), {"CH": np.zeros(len(ids))})
        assert time.perf_counter() - start < 5.0

    def test_missing_cell(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["animal_id", "CH"], [["a", ""]])
        with pytest.raises(ValidationError, match="missing value"):
            load_table(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["animal_id", "CH"], [["a", "x"]])
        with pytest.raises(ValidationError, match="non-numeric"):
            load_table(path)

    @pytest.mark.parametrize("cell, message", [
        ("", "missing value in column RH"),
        ("abc", "non-numeric value 'abc' in column RH"),
        ("nan", "non-finite value in column RH"),
        ("inf", "non-finite value in column RH"),
        ("-inf", "non-finite value in column RH"),
    ])
    def test_first_bad_cell_of_a_row_is_named(self, tmp_path, cell, message):
        # CH parses and BW is bad too: the message names RH, the first bad cell
        path = write_csv(tmp_path / "t.csv", ["animal_id", "CH", "RH", "BW"],
                         [["a", 1, 2, 3], ["b", 4, cell, "x"]])
        with pytest.raises(ValidationError) as exc:
            load_table(path)
        assert str(exc.value) == f"{path}:3: {message}"

    def test_bad_cell_reported_before_a_later_empty_id(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["animal_id", "CH"],
                         [["a", 1], ["b", "x"], ["c", 3], ["", 4]])
        with pytest.raises(ValidationError) as exc:
            load_table(path)
        assert str(exc.value) == f"{path}:3: non-numeric value 'x' in column CH"

    def test_padded_cells_parse_as_each_cell_did(self, tmp_path):
        # float() strips what str.strip() does, except \x1c-\x1f, which it
        # rejects: that row is parsed again cell by cell
        cells = [" 1.5 ", "\t2\t", "1_000", "\xa0-0\xa0", "\x1c3\x1f", "1e3 "]
        keys = [f"C{i}" for i in range(len(cells))]
        path = tmp_path / "t.csv"
        path.write_text(f"animal_id,{','.join(keys)}\na,{','.join(cells)}\n", encoding="utf-8")
        table = load_table(path)
        got = np.array([table.column(key)[0] for key in keys])
        want = np.array([_parse_cell(cell, path, 2, key) for cell, key in zip(cells, keys)])
        assert want.tolist() == [1.5, 2.0, 1000.0, -0.0, 3.0, 1000.0]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(cells=st.lists(
        st.sampled_from(["1", " 2.5 ", "1_000", "", " ", "abc", "nan", "-inf", "1e999",
                         "-0", "\x1c4\x1f", "0x1", "1__0"])
        | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                  max_size=6),
        min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_row_parse_matches_cell_by_cell_parse(self, cells):
        keys = [f"C{i}" for i in range(len(cells))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([["animal_id", *keys], ["a", *cells]])
            try:
                want = [_parse_cell(cell, path, 2, key) for cell, key in zip(cells, keys)]
            except ValidationError as exc:
                with pytest.raises(ValidationError) as got:
                    load_table(path)
                assert str(got.value) == str(exc)
            else:
                table = load_table(path)
                got = np.array([table.column(key)[0] for key in keys])
                assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))

    def test_record_width_checked(self, tmp_path):
        # the blank line 3 is skipped, not counted as a short record
        path = tmp_path / "t.csv"
        path.write_text("animal_id,CH,RH\na,1,2\n\nb,3\n")
        with pytest.raises(ValidationError, match=r"t\.csv:4: expected 3 fields, got 2$"):
            load_table(path)

    def test_duplicate_column(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", ["animal_id", "CH", "ch"], [["a", 1, 2]]
        )
        with pytest.raises(ValidationError, match="duplicate column name CH$"):
            load_table(path)
        path = write_csv(
            tmp_path / "t.csv", ["animal_id", "RH", "CH", "ch", "rh"], [["a", 1, 2, 3, 4]]
        )
        with pytest.raises(ValidationError, match="duplicate column name RH, CH$"):
            load_table(path)

    def test_empty_table(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["animal_id", "CH"], [])
        with pytest.raises(ValidationError, match="no data rows"):
            load_table(path)

    def test_supplied_ss_alongside_graders_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            ["animal_id", "S1", "S2", "S3", "SS"],
            [["a", 1, 2, 3, 2]],
        )
        with pytest.raises(ValidationError, match="SS may not be supplied"):
            load_table(path)

    def test_unknown_columns_kept(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["animal_id", "girth9"], [["a", 1]])
        assert load_table(path).keys == ("GIRTH9",)

    def test_key_canonicalization(self):
        assert canonical_key(" bw ") == "BW"
        with pytest.raises(ValidationError):
            canonical_key("not a key!")

    def test_non_string_key(self):
        # a non-string key is bad input (exit 2), whether it names a column or looks one up
        with pytest.raises(ValidationError, match=r"^measurement key must be a string, got 1$"):
            HerdTable(("a",), {1: [1.0]})
        table = HerdTable(("a",), {"BW": [1.0]})
        for key in (1, None, b"BW"):
            with pytest.raises(ValidationError, match="measurement key must be a string"):
                table.column(key)

    @pytest.mark.parametrize("ids, columns, message", [
        ((), {"CH": []}, "table has no animals"),
        (("a",), {}, "table has no measurement columns"),
        (("a", "b"), {"CH": [1.0]}, "column CH has 1 values for 2 animals"),
        (("a", "b"), {"CH": [1.0, math.inf]}, "column CH contains non-finite values"),
        # `column` canonicalizes the key it looks up, so it could never find these
        (("a", "b", "c"), {"ch": [1.0, 2.0, 4.0], "BW": [3.0, 1.0, 2.0]},
         "column key 'ch' must be given as 'CH'"),
        (("a",), {" BW": [3.0]}, "column key ' BW' must be given as 'BW'"),
        (("a",), {"B W": [3.0]}, "invalid measurement key: 'B W'"),
    ])
    def test_herd_table_checks(self, ids, columns, message):
        with pytest.raises(ValidationError, match=message):
            HerdTable(ids, columns)

    def test_provenance_follows_the_ss_rule(self):
        ids, x = ("a", "b"), [1.0, 2.0]
        graders = {"S1": x, "S2": x, "S3": x}
        table = HerdTable(ids, {"BW": x, **graders, "SS": x})
        assert dict(table.provenance) == {"BW": "supplied", "S1": "supplied", "S2": "supplied",
                                          "S3": "supplied", "SS": "derived"}
        with pytest.raises(TypeError):
            table.provenance["SS"] = "supplied"
        with pytest.raises(AttributeError):
            table.provenance = {}
        # without all three graders SS is a supplied column like any other
        table = HerdTable(ids, {"S1": x, "S2": x, "SS": x})
        assert dict(table.provenance) == dict.fromkeys(("S1", "S2", "SS"), "supplied")
        assert dict(HerdTable(ids, graders).provenance) == dict.fromkeys(graders, "supplied")


def table_outcome(path):
    """load_table's table as plain values, or its message."""
    table = outcome(load_table, path)
    if isinstance(table, str):
        return table
    columns = {key: table.column(key).tobytes() for key in table.keys}
    return table.animal_ids, columns, dict(table.provenance)


def row_path_outcome(path):
    """table_outcome with the bulk reader declining: today's row path alone."""
    with mock.patch.object(dataset, "bulk_csv", return_value=None):
        return table_outcome(path)


class TestBulkParse:
    """`bulk_csv` only speeds load_table up: it declines, or returns the row
    path's header, ids and values bit for bit, and every message comes from
    the row path."""

    @pytest.mark.parametrize("prefix, end", [(b"", b"\n"), (b"\xef\xbb\xbf", b"\r\n")])
    def test_bulk_path_taken_on_lf_and_crlf(self, tmp_path, prefix, end):
        path = tmp_path / "t.csv"
        path.write_bytes(prefix + end.join([b"animal_id,CH,S1,S2,S3", b"a,130.5,1,2,4",
                                            b" b , -0 ,1e-320,2,3", b""]))
        header, ids, values = bulk_csv(path, float)
        assert (header, ids) == (["animal_id", "CH", "S1", "S2", "S3"], ["a", "b"])
        assert np.array_equal(values.view(np.int64),
                              row_parse(path, float)[2].view(np.int64))
        with mock.patch.object(dataset, "read_csv", wraps=dataset.read_csv) as spy:
            assert table_outcome(path) == row_path_outcome(path)
        assert spy.call_count == 1  # by row_path_outcome alone

    @given(raw=csv_files(
        header=st.sampled_from([["animal_id", "CH"], ["animal_id", "CH", "RH", "BW"],
                                ["animal_id", "S1", "S2", "S3"], ["animal_id", "CH", "ch"]]),
        ids=st.lists(st.sampled_from(["a", "b", "c", " d ", "é", " "]), max_size=5),
        cell=st.floats(allow_nan=False, allow_infinity=False).map(repr)
        | st.integers(-999, 999).map(str)
        | st.sampled_from([" 2.5 ", "-0", "+.5", "5.", "1E3", "1e-400", "\t7"]),
        oddity=st.sampled_from(["", " ", "1_000", "nan", "-inf", "infinity", "1e999", "0x1",
                                "\x1c4\x1f", "\x0b5", "\xa06", "١", "x", "1 2", "#3"])
        | st.text(max_size=4)))
    @settings(max_examples=300, deadline=None)
    def test_bulk_parse_matches_row_parse(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(raw)
            got = bulk_csv(path, float)
            if got is not None:
                header, ids, values = row_parse(path, lambda cell: _parse_cell(cell, path, 0, "C"))
                assert (got[0], got[1]) == (header, ids)
                assert got[2].shape == values.shape
                assert np.array_equal(got[2].view(np.int64), values.view(np.int64))
            assert table_outcome(path) == row_path_outcome(path)

    # one test per input on which numpy's parser and the row path disagree:
    # each declines, and the row path gives its value or message as before
    def test_extra_cell_is_not_dropped(self, tmp_path):
        # usecols=range(1, 3) would parse 1, 2 and drop the 9
        path = tmp_path / "t.csv"
        path.write_text("animal_id,CH,RH\na,1,2\nA,1,2,9\n")
        assert bulk_csv(path, float) is None
        assert outcome(load_table, path) == f"{path}:3: expected 3 fields, got 4"

    @pytest.mark.parametrize("cell", ["infinity", "nan", "-Infinity", "1e999"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"animal_id,CH,RH\na,1,2\nb,3,{cell}\n")
        assert bulk_csv(path, float) is None
        assert outcome(load_table, path) == f"{path}:3: non-finite value in column RH"

    def test_cells_numpy_rejects(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("animal_id,CH,RH\na,1_000,2\nb,\x1c3\x1f,4\n")
        assert bulk_csv(path, float) is None
        table = load_table(path)
        assert table.column("CH").tolist() == [1000.0, 3.0]

    def test_whitespace_only_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("animal_id,CH\na,1\n   \n\t\nb,2\n")
        assert bulk_csv(path, float) is None
        table = load_table(path)
        assert (table.animal_ids, table.column("CH").tolist()) == (("a", "b"), [1.0, 2.0])

    def test_quoted_ids(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('animal_id,CH\n"a,1",5\n"b\nc",6\n')
        assert bulk_csv(path, float) is None
        table = load_table(path)
        assert (table.animal_ids, table.column("CH").tolist()) == (("a,1", "b\nc"), [5.0, 6.0])

    def test_non_utf8_text(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"animal_id,CH\n\xe9,1\n")
        assert bulk_csv(path, float) is None
        assert outcome(load_table, path) == (
            f"{path}: unreadable CSV: 'utf-8' codec can't decode byte 0xe9 in position 13: "
            "invalid continuation byte")

    def test_bare_carriage_return(self, tmp_path):
        # csv ends a record at a lone CR, where numpy strips it from the cell "\r1"
        path = tmp_path / "t.csv"
        path.write_bytes(b"animal_id,CH\na,\r1\n")
        assert bulk_csv(path, float) is None
        assert outcome(load_table, path) == f"{path}:2: missing value in column CH"
        path.write_bytes(b"animal_id,CH\ra,1\rb,2\r\n")
        table = load_table(path)
        assert (table.animal_ids, table.column("CH").tolist()) == (("a", "b"), [1.0, 2.0])

    def test_field_past_csv_limit(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"animal_id,CH\na,{'0' * csv.field_size_limit()}1\n")
        assert bulk_csv(path, float) is None
        assert outcome(load_table, path).startswith(f"{path}: unreadable CSV: field larger")


class TestAggregateScores:
    def test_published_rows(self, scores_table):
        summaries = aggregate_scores(scores_table)
        assert [s.animal_id for s in summaries] == [a for a, _, _ in TABLE3]
        for summary, (_, mean, std) in zip(summaries, TABLE3):
            assert summary.mean == pytest.approx(mean, abs=0.05)
            assert summary.std == pytest.approx(std, abs=0.005)

    def test_specific_animals(self, scores_table):
        by_id = {s.animal_id: s for s in aggregate_scores(scores_table)}
        assert by_id["4"].mean == pytest.approx(16 / 3)
        assert by_id["4"].std == pytest.approx(np.std([5, 6, 5], ddof=1))
        assert by_id["14"].std == 0.0
        assert by_id["5"].std == pytest.approx(np.std([5, 5, 3], ddof=1))

    def test_means_match_ss_column(self, scores_table):
        summaries = aggregate_scores(scores_table)
        np.testing.assert_allclose(
            [s.mean for s in summaries], scores_table.column("SS")
        )

    def test_mean_within_score_range(self, scores_table, tmp_path):
        # equal scores of 0.1 had the mean 0.1 + 2^-56 and a std of 1.7e-17,
        # and equal scores of 1.1e-150 a mean one ulp above them
        tiny = itertools.product([1.1e-150, 2.3e-150, 3.7e-150], repeat=3)
        path = write_csv(tmp_path / "t.csv", ["animal_id", "S1", "S2", "S3"],
                         [["tenth", 0.1, 0.1, 0.1]]
                         + [[f"a{i}", *row] for i, row in enumerate(tiny)])
        tables = (scores_table, load_table(path))
        for s in (s for table in tables for s in aggregate_scores(table)):
            assert min(s.scores) <= s.mean <= max(s.scores)
            assert (s.std == 0.0) == (len(set(s.scores)) == 1)
            mean, std = mp_mean_std(s.scores)
            assert s.mean == pytest.approx(mean, rel=1e-15)
            assert s.std == pytest.approx(std, rel=1e-15)

    def test_missing_grader_column(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", ["animal_id", "S1", "S2"], [["a", 1, 2]]
        )
        with pytest.raises(ValidationError, match="missing grader column S3"):
            aggregate_scores(load_table(path))


class TestDescribe:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_moments_raise(self, tmp_path):
        # the std, about 1.96e308, is past the double range
        path = write_csv(tmp_path / "t.csv", ["animal_id", "X"],
                         [["a", 1.7e308], ["b", -1.7e308], ["c", 1.7e308], ["d", -1.7e308]])
        with pytest.raises(NumericalError, match=r"^std of column X overflowed$"):
            describe(load_table(path), "X")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x, std", [
        ([1e308, 1e308, -1e308, 1.0], 9.57427107756338e+307),
        ([1e-200, 2e-200, 3e-200, 5e-200], 1.707825127659933e-200),  # was 0.0
        # q25 interpolates across 2e308
        ([1e308, -1e308, 1e308, -1e308, 1e308], 1.0954451150103322e+308),
        ([5e-324, 1e-323, 2e-323, 5e-324], 5e-324),  # subnormal
    ])
    def test_extreme_columns_match_mpmath(self, x, std):
        d = describe(HerdTable(tuple(f"a{i}" for i in range(len(x))), {"X": x}), "X")
        near = functools.partial(pytest.approx, rel=1e-12, abs=5e-324)
        assert (d.mean, d.std) == tuple(map(near, mp_mean_std(x)))
        assert d.std == std
        assert (d.min, d.max) == (min(x), max(x))
        with mpmath.workdps(40):  # linear interpolation between order statistics
            s = [mpmath.mpf(v) for v in sorted(x)] + [0]
            h = [(len(x) - 1) * p for p in (0.25, 0.5, 0.75)]
            want = [float(s[int(i)] + (i - int(i)) * (s[int(i) + 1] - s[int(i)])) for i in h]
        assert [d.q25, d.q50, d.q75] == list(map(near, want))

    def test_scaling_by_a_power_of_two_scales_exactly(self, synthetic_table):
        for key in synthetic_table.keys:
            base = describe(synthetic_table, key).as_dict()
            for p in (-600, 5, 600):
                t = HerdTable(synthetic_table.animal_ids,
                              {key: np.ldexp(synthetic_table.column(key), p)})
                got = describe(t, key).as_dict()
                assert all(got[f] == math.ldexp(base[f], p) for f in got if f != "key"), (key, p)

    def test_published_ss_row(self, scores_table):
        d = describe(scores_table, "SS")
        assert round(d.mean, 2) == 2.90
        assert round(d.std, 2) == 1.17
        assert round(d.min, 2) == 1.33
        assert round(d.q25, 2) == 2.17
        assert round(d.q50, 2) == 2.67
        assert round(d.q75, 2) == 3.50
        assert round(d.max, 2) == 5.33

    def test_published_grader_rows(self, scores_table):
        s1 = describe(scores_table, "S1")
        assert (round(s1.mean, 2), round(s1.std, 2)) == (3.04, 1.22)
        assert (s1.min, s1.q25, s1.q50, s1.q75, s1.max) == (2, 2, 3, 4, 5)
        s2 = describe(scores_table, "S2")
        assert (round(s2.mean, 2), round(s2.std, 2)) == (3.09, 1.35)
        assert s2.q25 == 2.5
        s3 = describe(scores_table, "S3")
        assert (round(s3.mean, 2), round(s3.std, 2)) == (2.57, 1.24)
        assert s3.q25 == 1.5

    def test_constant_column(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", ["animal_id", "CH"],
            [["a", 5], ["b", 5], ["c", 5]],
        )
        d = describe(load_table(path), "CH")
        assert (d.mean, d.std) == (5.0, 0.0)
        assert d.min == d.q25 == d.q50 == d.q75 == d.max == 5.0

    def test_constant_column_mean_within_range(self, tmp_path):
        # 23 rows of 0.1 had the mean 0.10000000000000003, above min = max
        path = write_csv(tmp_path / "t.csv", ["animal_id", "X"],
                         [[f"a{i}", 0.1] for i in range(23)])
        d = describe(load_table(path), "X")
        assert d.mean == d.min == d.max == 0.1 and d.std == 0.0

    def test_single_row_std_zero(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["animal_id", "CH"], [["a", 3]])
        assert describe(load_table(path), "CH").std == 0.0

    def test_unknown_key(self, scores_table):
        with pytest.raises(ValidationError, match="unknown measurement key"):
            describe(scores_table, "BW")

    def test_permutation_invariance(self, tmp_path, rng):
        values = rng.uniform(0, 10, size=15)
        p1 = write_csv(
            tmp_path / "a.csv", ["animal_id", "X"],
            [[f"a{i}", repr(float(v))] for i, v in enumerate(values)],
        )
        perm = rng.permutation(15)
        p2 = write_csv(
            tmp_path / "b.csv", ["animal_id", "X"],
            [[f"a{i}", repr(float(values[i]))] for i in perm],
        )
        d1 = describe(load_table(p1), "X")
        d2 = describe(load_table(p2), "X")
        for name in ("mean", "std", "min", "q25", "q50", "q75", "max"):
            assert getattr(d1, name) == pytest.approx(
                getattr(d2, name), rel=1e-12, abs=1e-12
            )

    def test_quantile_ordering(self, rng, tmp_path):
        for trial in range(20):
            values = rng.normal(size=rng.integers(1, 30))
            path = write_csv(
                tmp_path / f"t{trial}.csv", ["animal_id", "X"],
                [[f"a{i}", repr(float(v))] for i, v in enumerate(values)],
            )
            d = describe(load_table(path), "X")
            assert d.min <= d.q25 <= d.q50 <= d.q75 <= d.max
            assert d.std >= 0.0
