import numpy as np
import pytest

from herdcluster import data, load_table


@pytest.fixture(scope="session")
def scores_table():
    return load_table(data.scores_path())


@pytest.fixture(scope="session")
def synthetic_table():
    return load_table(data.synthetic_path())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


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
