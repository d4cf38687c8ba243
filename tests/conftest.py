import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from herdcluster import ValidationError, data, load_table
from herdcluster.dataset import read_csv


def mp_mean_std(x):
    """Mean and sample std of `x` in 40-digit arithmetic, rounded to doubles."""
    with mpmath.workdps(40):
        v = [mpmath.mpf(float(a)) for a in x]
        mean = mpmath.fsum(v) / len(v)
        var = mpmath.fsum((a - mean) ** 2 for a in v) / (len(v) - 1)
        return float(mean), float(mpmath.sqrt(var))


def mp_pearson_r(x, y):
    """Product-moment correlation of `x` and `y` in 40-digit arithmetic."""
    with mpmath.workdps(40):
        a = [mpmath.mpf(float(t)) for t in x]
        b = [mpmath.mpf(float(t)) for t in y]
        ma, mb = mpmath.fsum(a) / len(a), mpmath.fsum(b) / len(b)
        sxy = mpmath.fsum((p - ma) * (q - mb) for p, q in zip(a, b))
        sxx = mpmath.fsum((p - ma) ** 2 for p in a)
        syy = mpmath.fsum((q - mb) ** 2 for q in b)
        return float(sxy / mpmath.sqrt(sxx * syy))


@pytest.fixture(scope="session")
def scores_table():
    return load_table(data.scores_path())


@pytest.fixture(scope="session")
def synthetic_table():
    return load_table(data.synthetic_path())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def outcome(fn, *args):
    """`fn(*args)`, or the message of the ValidationError it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


def row_parse(path, parse):
    """The header, the stripped ids and the other cells, each through `parse`,
    of a CSV file as `read_csv` reads it: the row path's reading."""
    records = read_csv(path)
    header = next(records)[1]
    recs = [rec for _, rec in records]
    return header, [rec[0].strip() for rec in recs], np.array(
        [[parse(cell) for cell in rec[1:]] for rec in recs])


@st.composite
def csv_files(draw, header, ids, cell, oddity):
    """The bytes of a CSV file, each part drawn from its strategy: a `header`,
    then a row per id of `ids` with `cell`s, lines ended LF or CRLF, after a
    BOM or not, in UTF-8 or Latin-1. Some have up to two `oddity` cells, and
    one line blank, all spaces, a cell short or long, a quoted id, or a bare
    CR after its id."""
    header = draw(header)
    rows = [[a, *(draw(cell) for _ in header[1:])] for a in draw(ids)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(oddity)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    at = draw(st.integers(1, len(lines)))
    odd = draw(st.sampled_from(["", "", "", "blank", "spaces", "short", "long", "quoted", "cr"]))
    if odd in ("blank", "spaces"):
        lines.insert(at, "" if odd == "blank" else " \t ")
    elif odd and at < len(lines):
        line = lines[at]
        lines[at] = {"short": line.rpartition(",")[0], "long": line + ",1",
                     "quoted": '"' + line.replace(",", '",', 1),
                     "cr": line.replace(",", ",\r", 1)}[odd]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + text).encode(draw(st.sampled_from(["utf-8", "latin-1"])), errors="replace")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_tenth_column_csv(path):
    """A 23-animal table whose column B is 0.1 for every animal: constant,
    though numpy's std of it is a rounding residue of about 2.8e-17."""
    rng = np.random.default_rng(23)
    a = np.round(rng.normal(300.0, 30.0, 23), 1)
    c = np.round(a / 10.0 + rng.normal(0.0, 2.0, 23), 2)
    return write_csv(path, ["animal_id", "A", "B", "C"],
                     [[f"a{i}", a[i], 0.1, c[i]] for i in range(23)])


# a table whose best-of-10-restarts fits on A, B, C (seed 0) rise in
# distortion from k = 6 to k = 7
RISING_ELBOW_HEADER = ["animal_id", "BW", "A", "B", "C"]
RISING_ELBOW_ROWS = [
    ["a0", 330.0146, 2.0018, 1.0001, -0.001],
    ["a1", 310.0083, 0.001, -0.0001, 1.0005],
    ["a2", 310.0041, 0.9994, 0.0006, 0.0002],
    ["a3", 340.0114, 1.9999, 2.001, 0.0006],
    ["a4", 319.997, 1.0009, -0.0011, 1.0006],
    ["a5", 320.0112, 2.0001, -0.0001, 0.0001],
    ["a6", 340.028, -0.0014, 2.0009, 2.0019],
    ["a7", 319.9937, -0.0009, 2.0015, 0.0013],
    ["a8", 319.9733, 1.9991, 0.0013, -0.0016],
    ["a9", 319.9863, 0.9988, 0.9992, -0.0001],
    ["a10", 310.029, 1.0006, 0.0009, 0.0006],
    ["a11", 330.0108, -0.0004, 1.0002, 2.0011],
    ["a12", 359.9806, 1.9989, 1.999, 2.0004],
    ["a13", 330.0044, 1.0011, -0.0001, 1.9996],
    ["a14", 320.0196, 0.0009, 2.0021, 0.0005],
    ["a15", 319.9949, 2.0001, -0.0012, -0.0002],
]
