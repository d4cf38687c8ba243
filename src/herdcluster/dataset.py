"""Animal-measurement tables: ingestion, validation and summary statistics.

A herd table is rectangular (animals x measurement columns). Measurement
keys are canonicalized to uppercase; the grader-score columns S1..S3
always produce a derived SS column (their per-animal mean). Every mean,
std and sum of squares of a column, or of an animal's scores, comes from
one kernel, `_moments`: `describe_all`, `zscore`, SS and the correlations
share it.
"""

from __future__ import annotations

import csv
import math
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

GRADER_KEYS = ("S1", "S2", "S3")
DERIVED_SCORE_KEY = "SS"

_KEY_RE = re.compile(r"^[A-Z0-9_]+$")


def canonical_key(name: str) -> str:
    """Uppercase a column name and reject anything non-alphanumeric."""
    key = name.strip().upper()
    if not _KEY_RE.match(key):
        raise ValidationError(f"invalid measurement key: {name!r}")
    return key


@dataclass(frozen=True)
class HerdTable:
    """Validated rectangular dataset: one row per animal, one numeric
    column per measurement key. Immutable after construction."""

    animal_ids: tuple[str, ...]
    columns: Mapping[str, np.ndarray]
    provenance: Mapping[str, str]  # supplied | derived

    def __post_init__(self):
        ids = self.animal_ids
        if len(ids) == 0:
            raise ValidationError("table has no animals")
        dupes = sorted(a for a, count in Counter(ids).items() if count > 1)
        if dupes:
            raise ValidationError(f"duplicate animal_id: {', '.join(dupes)}")
        if not self.columns:
            raise ValidationError("table has no measurement columns")
        cols = {}
        for key, values in self.columns.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != (len(ids),):
                raise ValidationError(
                    f"column {key} has {arr.size} values for {len(ids)} animals"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"column {key} contains non-finite values")
            arr.flags.writeable = False
            cols[key] = arr
        object.__setattr__(self, "columns", MappingProxyType(cols))
        prov = dict(self.provenance)
        for key in cols:
            prov.setdefault(key, "supplied")
        object.__setattr__(self, "provenance", MappingProxyType(prov))

    @property
    def n_animals(self) -> int:
        return len(self.animal_ids)

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def column(self, key) -> np.ndarray:
        key = canonical_key(key)
        try:
            return self.columns[key]
        except KeyError:
            raise ValidationError(f"unknown measurement key: {key}") from None


@dataclass(frozen=True)
class DescriptiveStats:
    """One row of a descriptive-statistics table."""

    key: str
    mean: float
    std: float
    min: float
    q25: float
    q50: float
    q75: float
    max: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ScoreSummary:
    """Per-animal grader scores with their mean and spread."""

    animal_id: str
    scores: tuple[float, ...]
    mean: float
    std: float


def read_csv(path) -> Iterator[tuple[int, list[str]]]:
    """Stream (line number, record) for the header (line 1) and each
    non-blank record of a UTF-8 CSV file (a leading BOM is skipped). A
    missing, empty, undecodable or malformed file, or a record whose width
    differs from the header's, raises ValidationError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file")
            yield 1, header
            for lineno, rec in enumerate(reader, start=2):
                if rec and any(c.strip() for c in rec):
                    if len(rec) != len(header):
                        raise ValidationError(
                            f"{path}:{lineno}: expected {len(header)} fields, got {len(rec)}"
                        )
                    yield lineno, rec
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: unreadable CSV: {exc}") from None


def write_text(path, text: str) -> None:
    """Write `text` to the file at `path` as UTF-8, its newlines untranslated,
    or to stdout when no path is given. Every artifact is written here."""
    if not path:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _parse_cell(raw: str, path, lineno: int, colname: str) -> float:
    raw = raw.strip()
    if raw == "":
        raise ValidationError(f"{path}:{lineno}: missing value in column {colname}")
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(
            f"{path}:{lineno}: non-numeric value {raw!r} in column {colname}"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(
            f"{path}:{lineno}: non-finite value in column {colname}"
        )
    return value


def load_table(path) -> HerdTable:
    """Read a wide-format CSV (header row, first column = animal id) into a
    validated HerdTable; every column is kept as a measurement key."""
    records = read_csv(path)
    _, header = next(records)
    if len(header) < 2:
        raise ValidationError(f"{path}: need an id column plus measurements")
    keys = [canonical_key(name) for name in header[1:]]
    seen = set()
    for key in keys:
        if key in seen:
            raise ValidationError(f"{path}: duplicate column name {key}")
        seen.add(key)

    animal_ids: list[str] = []
    data: list[list[float]] = []
    for lineno, rec in records:
        animal = rec[0].strip()
        if not animal:
            raise ValidationError(f"{path}:{lineno}: empty animal id")
        animal_ids.append(animal)
        try:  # the whole row at once, then cell by cell if a cell fails
            row = list(map(float, rec[1:]))
        except ValueError:
            row = None
        if row is None or not all(map(math.isfinite, row)):
            row = [_parse_cell(raw, path, lineno, keys[i]) for i, raw in enumerate(rec[1:])]
        data.append(row)

    if not animal_ids:
        raise ValidationError(f"{path}: no data rows")

    arr = np.array(data, dtype=float)
    columns = {key: arr[:, i] for i, key in enumerate(keys)}
    provenance = {key: "supplied" for key in keys}
    if all(k in columns for k in GRADER_KEYS):  # SS = mean(S1..S3)
        if DERIVED_SCORE_KEY in columns:
            raise ValidationError("SS may not be supplied directly when S1..S3 are present")
        columns[DERIVED_SCORE_KEY] = _moments(np.column_stack([columns[k] for k in GRADER_KEYS]))[4]
        provenance[DERIVED_SCORE_KEY] = "derived"
    return HerdTable(tuple(animal_ids), columns, provenance)


def aggregate_scores(table: HerdTable) -> list[ScoreSummary]:
    """Per-animal mean and sample std (0.0 for equal scores) of the grader columns."""
    for key in GRADER_KEYS:
        if key not in table.columns:
            raise ValidationError(f"missing grader column {key}")
    scores = np.column_stack([table.columns[k] for k in GRADER_KEYS])
    _, _, _, means, stds = _described(scores, (f"animal {a}'s scores" for a in table.animal_ids))
    return [ScoreSummary(animal, tuple(row), float(mean), std)
            for animal, row, mean, std in zip(table.animal_ids, scores, means, stds)]


def scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`x` times 2^-e, where e is the frexp exponent of its largest
    magnitude (per column of a 2-d `x`), and e. Moments of the scaled
    values neither overflow nor underflow, and scaling by a power of two
    is exact for normal doubles, so taken back by `unscaled` they are
    those of `x` (Blue, ACM TOMS 4(1), 1978, scales a norm likewise)."""
    e = np.frexp(np.max(np.abs(x), axis=0))[1]
    return np.ldexp(x, -e), e


def unscaled(v: float, e, what: str) -> float:
    """`v` times 2^e, the value a scaled moment reports; NumericalError
    when that leaves the double range, or a nonzero `v` comes back as 0."""
    try:
        out = math.ldexp(v, int(e))
    except OverflowError:
        raise NumericalError(f"{what} overflowed") from None
    if out == 0.0 and v != 0.0:
        raise NumericalError(f"{what} underflowed")
    return out


def _moments(cols):
    """The moment kernel over the rows of a new (d, n) stack of the 1-d `cols`:
    the rows `scaled` by 2^-e and centred; each row's min, max and e; its mean,
    clipped to [min, max] (23 x 0.1 has the mean 0.1 + 2^-55), which never
    raises; and its sum of squared deviations, in two passes (Chan, Golub &
    LeVeque, Amer. Stat. 37(3), 1983). Each sum is a pairwise `np.add.reduce`
    along one row, so no row's values depend on another's."""
    c = np.array(cols, dtype=float)
    lo, hi = c.min(axis=1), c.max(axis=1)
    e = np.frexp(np.maximum(-lo, hi))[1]  # of max |x|
    np.ldexp(c, -e[:, None], out=c)
    m = c.mean(axis=1)
    c -= m[:, None]
    # |m| < 1 (no sum of values up to 1 - 2^-53 rounds up to their count), so 2^e m
    # cannot overflow; + 0.0 makes a zero mean +0.0 whatever the bound it ties
    mean = np.clip(np.ldexp(m, e), lo, hi) + 0.0
    return c, lo, hi, e, mean, np.add.reduce(c * c, axis=1)


def _described(cols, whats):
    """`_moments` of `cols` without the rows, each row's sample std (n - 1
    denominator; 0.0 when min equals max) in place of its sum of squares.
    The first std past the double range raises, naming its row by `whats`."""
    _, lo, hi, e, means, ss = _moments(cols)
    sd = np.sqrt(ss / max(len(cols[0]) - 1, 1))
    return lo, hi, e, means, [0.0 if l == h else unscaled(s, ei, f"std of {what}")
                              for l, h, s, ei, what in zip(lo, hi, sd, e, whats)]


def describe(table: HerdTable, key) -> DescriptiveStats:
    """`describe_all` of one column."""
    return describe_all(table, [key])[0]


def describe_all(table: HerdTable, keys: Sequence[str] | None = None) -> list[DescriptiveStats]:
    """Summary statistics of every column, or of `keys` in their order:
    sample std (n-1 denominator; 0.0 when min equals max), quantiles by
    linear interpolation. A pass over no keys returns []."""
    keys = tuple(table.keys if keys is None else (canonical_key(k) for k in keys))
    if not keys:
        return []
    cols = [table.column(k) for k in keys]
    lo, hi, e, means, stds = _described(cols, (f"column {k}" for k in keys))
    # numpy interpolates as a + t(b - a), and b - a overflows only once max |x|
    # reaches 2^1023; halving such a column is exact for its normal values
    half = np.maximum(e - 1023, 0)
    x = np.ldexp(cols, -half[:, None])
    q = np.ldexp(np.quantile(x, [0.25, 0.5, 0.75], axis=1, overwrite_input=True), half)
    return [DescriptiveStats(key, float(mean), std, float(a), *map(float, qs), float(b))
            for key, mean, std, a, qs, b in zip(keys, means, stds, lo, q.T, hi)]
