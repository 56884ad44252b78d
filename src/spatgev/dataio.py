"""Data containers, CSV readers, descriptor transforms and atomic writers.

The on-disk format for block maxima is a long-form delimited file with
columns station, year, amax; catchment descriptors live in a second file
keyed by station with coordinate columns x and y.  Descriptor transforms
follow fixed per-name conventions (log by default) and are standardized with
statistics stored from the training set so they can be replayed exactly for
new stations.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "MaximaDataset",
    "read_maxima_csv",
    "write_maxima_csv",
    "read_descriptors_csv",
    "check_finite",
    "validate_descriptors",
    "DescriptorTransform",
    "write_json_atomic",
    "write_csv_atomic",
]


@dataclass
class MaximaDataset:
    """Block maxima for a set of stations, with coordinates and covariates."""

    station_ids: list
    sites: np.ndarray  # (J, 2)
    records: list  # list of (years ndarray, y ndarray), one per station
    covariates: np.ndarray | None = None  # (J, p) transformed design, no intercept
    covariate_names: list = field(default_factory=list)

    @property
    def n_sites(self) -> int:
        return len(self.station_ids)

    def subset(self, idx) -> "MaximaDataset":
        idx = np.asarray(idx)
        return MaximaDataset(
            station_ids=[self.station_ids[i] for i in idx],
            sites=self.sites[idx],
            records=[self.records[i] for i in idx],
            covariates=None if self.covariates is None else self.covariates[idx],
            covariate_names=list(self.covariate_names),
        )

    def filter_years(self, hi: float) -> "MaximaDataset":
        """Keep only observations with year <= hi."""
        recs = []
        for years, y in self.records:
            keep = years <= hi
            recs.append((years[keep], y[keep]))
        return MaximaDataset(
            station_ids=list(self.station_ids), sites=self.sites.copy(), records=recs,
            covariates=None if self.covariates is None else self.covariates.copy(),
            covariate_names=list(self.covariate_names),
        )

    def design_matrix(self, names: list) -> np.ndarray:
        """Intercept plus the named covariate columns, in the order given."""
        cols = [np.ones(self.n_sites)]
        for nm in names:
            if nm not in self.covariate_names:
                raise ConfigError(f"unknown covariate {nm!r}")
            cols.append(self.covariates[:, self.covariate_names.index(nm)])
        return np.column_stack(cols)


def _csv_rows(path: str):
    """Rows of the UTF-8 text file at path: tab-delimited when its first line
    holds a tab and no comma, else comma-delimited.

    A file that cannot be read or decoded raises DataError naming it, and
    the line of the first byte that is not UTF-8.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            head = fh.readline()
            fh.seek(0)
            yield from csv.reader(fh, delimiter="\t" if "\t" in head and "," not in head
                                  else ",")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        # the text reader decodes in chunks: locate the byte in the whole file
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc
        raise


def read_maxima_csv(path: str) -> list:
    """Read long-form (station, year, amax) rows, comma- or tab-delimited.

    Returns a list of (station_id, year, value) tuples in file order.
    Duplicate (station, year) pairs raise DataError naming the line numbers.
    """
    rows = []
    seen: dict = {}
    reader = _csv_rows(path)
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip().lower() for h in header]
    required = ("station", "year", "amax")
    if not all(col in header for col in required):
        raise DataError(
            f"{path}: header must contain station, year, amax; got {header}"
        )
    i_st = header.index("station")
    i_yr = header.index("year")
    i_am = header.index("amax")
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            st = row[i_st].strip()
            yr = int(float(row[i_yr]))
            am = float(row[i_am])
        except (IndexError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
        key = (st, yr)
        if key in seen:
            raise DataError(
                f"{path}: duplicate station/year {st}/{yr} at lines "
                f"{seen[key]} and {lineno}"
            )
        seen[key] = lineno
        rows.append((st, yr, am))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def group_maxima(rows: list, sites_by_station: dict | None = None) -> MaximaDataset:
    """Group long-form rows into per-station records, stations sorted by id."""
    by_station: dict = {}
    for st, yr, am in rows:
        by_station.setdefault(st, []).append((yr, am))
    ids = sorted(by_station)
    records = []
    for st in ids:
        pairs = sorted(by_station[st])
        years = np.array([p[0] for p in pairs], dtype=float)
        y = np.array([p[1] for p in pairs], dtype=float)
        records.append((years, y))
    if sites_by_station is not None:
        missing = [st for st in ids if st not in sites_by_station]
        if missing:
            raise DataError(f"no coordinates for stations: {missing[:5]}")
        sites = np.array([sites_by_station[st] for st in ids], dtype=float)
    else:
        sites = np.zeros((len(ids), 2))
    return MaximaDataset(station_ids=ids, sites=sites, records=records)


def write_maxima_csv(path: str, dataset: MaximaDataset) -> None:
    """Write records back to the long-form format; read_maxima_csv inverts it."""
    write_csv_atomic(path, ["station", "year", "amax"], (
        [st, int(yr), repr(float(v))]
        for st, (years, y) in zip(dataset.station_ids, dataset.records)
        for yr, v in zip(years, y)))


_BOOL_STRINGS = {"true": 1.0, "false": 0.0, "yes": 1.0, "no": 0.0}


def _parse_cell(text: str) -> float:
    low = text.strip().lower()
    if low in _BOOL_STRINGS:
        return _BOOL_STRINGS[low]
    return float(text)


def read_descriptors_csv(path: str):
    """Read a station-keyed descriptor table, comma- or tab-delimited.

    Returns (station_ids, column_names, values) where values is (J, k) and
    column_names excludes the station key.  Coordinate columns x and y, if
    present, stay in the table like any other column.
    """
    reader = _csv_rows(path)
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in header]
    lower = [h.lower() for h in header]
    if "station" not in lower:
        raise DataError(f"{path}: missing station column")
    i_st = lower.index("station")
    names = [h for k, h in enumerate(header) if k != i_st]
    ids, rows = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            st = row[i_st].strip()
            vals = [_parse_cell(row[k]) for k in range(len(header)) if k != i_st]
        except (IndexError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
        if st in ids:
            raise DataError(f"{path}:{lineno}: duplicate station {st}")
        ids.append(st)
        rows.append(vals)
    if not ids:
        raise DataError(f"{path}: no data rows")
    return ids, names, np.asarray(rows, dtype=float)


# closed/open range checks for the named catchment descriptors
_DESCRIPTOR_RANGES = {
    "AREA": (0.0, math.inf, False, False),
    "FARL": (0.0, 1.0, False, True),
    "URBEXT": (0.0, math.inf, True, False),
    "BFIHOST": (0.0, 1.0, False, False),
}


def check_finite(names: list, values: np.ndarray) -> None:
    """Require finite values in every descriptor column."""
    values = np.asarray(values, dtype=float)
    for j, nm in enumerate(names):
        if not np.all(np.isfinite(values[:, j])):
            raise DataError(f"descriptor {nm}: non-finite values")


def validate_descriptors(names: list, values: np.ndarray) -> None:
    """Range-check known descriptor columns and require finite values."""
    check_finite(names, values)
    values = np.asarray(values, dtype=float)
    for j, nm in enumerate(names):
        col = values[:, j]
        bounds = _DESCRIPTOR_RANGES.get(nm.upper())
        if bounds is None:
            continue
        lo, hi, lo_closed, hi_closed = bounds
        ok = (col >= lo) if lo_closed else (col > lo)
        ok &= (col <= hi) if hi_closed else (col < hi)
        if not np.all(ok):
            raise DataError(f"descriptor {nm}: values outside required range")


# ----------------------------------------------------------------------------
# Descriptor transforms
# ----------------------------------------------------------------------------

# kind -> (transform, test for the values it refuses, why they are refused)
_TRANSFORMS = {
    "log": (np.log, lambda v: v <= 0, "nonpositive values cannot be log-transformed"),
    "square": (lambda v: v**2, None, None),
    "log1p": (lambda v: np.log(v + 1.0), lambda v: v < 0, "negative values under log(x+1)"),
    "scale100": (lambda v: v / 100.0, None, None),
}
# special cases by descriptor name; everything else defaults to log
_KIND_OF = {"BFIHOST": "square", "URBEXT": "log1p", "ASPBAR": "scale100"}


def _transformed(names: list, kinds: list, values: np.ndarray) -> np.ndarray:
    """Each column of values under its kind's transform, before standardizing."""
    cols = []
    for j, (nm, kind) in enumerate(zip(names, kinds)):
        fn, refuses, why = _TRANSFORMS[kind]
        v = values[:, j]
        if refuses is not None and np.any(refuses(v)):
            raise DataError(f"descriptor {nm}: {why}")
        cols.append(fn(v))
    return np.column_stack(cols) if cols else np.empty((values.shape[0], 0))


@dataclass
class DescriptorTransform:
    """Per-column transform plus standardization statistics from training data."""

    names: list
    kinds: list
    means: np.ndarray
    sds: np.ndarray

    @classmethod
    def fit(cls, names: list, values: np.ndarray) -> "DescriptorTransform":
        kinds = [_KIND_OF.get(nm.upper(), "log") for nm in names]
        X = _transformed(names, kinds, values)
        means = X.mean(axis=0)
        sds = X.std(axis=0, ddof=0)
        if np.any(sds == 0.0):
            bad = [names[j] for j in np.where(sds == 0.0)[0]]
            raise DataError(f"constant descriptor column(s): {bad}")
        return cls(names=list(names), kinds=kinds, means=means, sds=sds)

    def apply(self, names: list, values: np.ndarray) -> np.ndarray:
        """Transform new rows with the stored statistics."""
        if list(names) != self.names:
            raise DataError("descriptor columns do not match the fitted transform")
        return (_transformed(self.names, self.kinds, values) - self.means) / self.sds

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "kinds": self.kinds,
            "means": self.means.tolist(),
            "sds": self.sds.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DescriptorTransform":
        return cls(names=list(d["names"]), kinds=list(d["kinds"]),
                   means=np.asarray(d["means"]), sds=np.asarray(d["sds"]))


def write_json_atomic(path: str, obj, compact: bool = False) -> None:
    """Write JSON via a temporary file and rename, so readers never see
    partial output.  compact drops the indentation and the spaces, for
    files of numbers."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, sort_keys=True,
                  **({"separators": (",", ":")} if compact else {"indent": 2}))
        fh.write("\n")
    os.replace(tmp, path)


def write_csv_atomic(path: str, header: list, rows) -> None:
    """Write a delimited table via a temporary file and rename."""
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def write_npy_atomic(path: str, array: np.ndarray) -> None:
    """Write an array in .npy format via a temporary file and rename.  np.save
    gets an open handle because it appends .npy to a path that lacks it."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.save(fh, array, allow_pickle=False)
    os.replace(tmp, path)
