"""Core data model, validation and instance CSV I/O.

An Instance bundles the candidate turbine pool, the municipality table
(the equity unit), the existing turbine stock and the transformer set.
Instances are immutable.

The candidate pool is `Instance.sites`, a SiteTable of read-only numpy
columns sorted by site_id, and it has no other form: it is read, made,
filtered, validated and written as columns. The municipality table is
`Instance.municipalities`, a MunicipalityTable of the same kind sorted by
municipality id, and every per-municipality total is one np.bincount over
its rows. `CandidateSite` and `Municipality` records only feed hand-built
tables (`SiteTable.of`, `MunicipalityTable.of`).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

SCENICNESS_MIN = 1.0
SCENICNESS_MAX = 9.0
EARTH_RADIUS_KM = 6371.0088  # mean radius

# Physical ranges: a site or turbine value outside them is a RangeViolation,
# so that no sum or ratio of them overflows, underflows or turns into NaN
CAPACITY_MIN_MW = 1e-3  # 1 kW
CAPACITY_MAX_MW = 1e3  # 1 GW
LCOE_MAX_CT_KWH = 1e3  # 10 EUR/kWh
FULL_LOAD_HOURS_MAX = 8784.0  # every hour of a leap year
NETWORK_LENGTH_MAX_KM = math.pi * EARTH_RADIUS_KM  # no great-circle arc is longer

REGION_TAGS = ("South", "NonSouth")
TRANSFORMER_VOLTAGES = (20, 110)


class PlanError(Exception):
    """Base class for planner errors."""


class ValidationError(PlanError):
    """Malformed input data or configuration."""


class InfeasibleError(PlanError):
    """The requested targets cannot be met by the instance.

    `proven` is False when the solver only failed to find a selection and
    no bound rules the targets out. `bound`, where known, is a lower bound
    on the minimum of the capped criterion that failed.
    """

    def __init__(self, message: str, proven: bool = True, bound: float | None = None):
        super().__init__(message)
        self.proven = proven
        self.bound = bound


def json_value(value, kind: type, what: str, label: str):
    """`value` as `kind` if it is a JSON value of that kind: an int takes a
    JSON integer within int64, a float a JSON number whose float is finite,
    and neither takes a boolean. Otherwise a ValidationError that `label`
    is not `what` (or not within int64, or not a finite number)."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ValidationError(f"{label} is not {what}: {value!r}")
    if kind is int and not -2**63 <= value < 2**63:
        raise ValidationError(f"{label} is not an integer within int64: {value!r}")
    if kind is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer too large for a float
            finite = False
        if not finite:
            raise ValidationError(f"{label} is not a finite number: {value!r}")
    return kind(value)


@dataclass(frozen=True)
class CandidateSite:
    site_id: int
    municipality_id: int
    lat: float
    lon: float
    capacity: float  # MW
    lcoe: float  # euro-ct/kWh
    scenicness: float  # [1, 9]
    full_load_hours: float = 0.0  # h/yr, reporting only
    network_length: float | None = None  # km, filled by geoprep


@dataclass(frozen=True)
class ExistingTurbine:
    turbine_id: int
    municipality_id: int
    lat: float
    lon: float
    capacity: float  # MW


@dataclass(frozen=True)
class Transformer:
    transformer_id: int
    lat: float
    lon: float
    voltage_kv: int  # 20 or 110


@dataclass(frozen=True)
class Municipality:
    municipality_id: int
    name: str
    population: float
    region_tag: str  # "South" | "NonSouth"
    state_id: int
    area: float  # km^2
    existing_capacity: float = 0.0  # MW, derived from existing turbines


# SiteTable columns in constructor order
_SITE_COLUMNS = ("ids", "mun", "lat", "lon", "caps", "lcoe", "scenicness",
                 "full_load_hours", "network_length")
_SITE_DTYPES = (np.dtype(np.int64),) * 2 + (np.dtype(np.float64),) * 7


def _sorted_columns(values, dtypes) -> list[np.ndarray]:
    """Read-only copies of the columns, rows in stable order of the first."""
    cols = [np.asarray(v, dtype=t) for v, t in zip(values, dtypes)]
    order = np.argsort(cols[0], kind="stable")
    cols = [col[order] for col in cols]
    for col in cols:
        col.flags.writeable = False
    return cols


def _rows(sorted_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row of each id in a sorted id column, by one np.searchsorted, and -1
    where the id is not there."""
    if not sorted_ids.size:
        return np.full(ids.shape, -1)
    at = np.searchsorted(sorted_ids, ids)
    return np.where(sorted_ids.take(at, mode="clip") == ids, at, -1)


@dataclass(frozen=True, eq=False)
class SiteTable:
    """Numpy columns of a candidate pool, one row per site, sorted by site_id.

    network_length is NaN where a site has no length yet. by_mun lists
    the rows grouped by municipality (ascending within a group); it is
    sorted on first use, since only the equity floors and the municipal
    potentials read it. Columns are read-only.
    """
    ids: np.ndarray
    mun: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    caps: np.ndarray
    lcoe: np.ndarray
    scenicness: np.ndarray
    full_load_hours: np.ndarray
    network_length: np.ndarray

    @classmethod
    def from_columns(cls, ids, mun, lat, lon, caps, lcoe, scenicness, full_load_hours,
                     network_length=None) -> SiteTable:
        """The one constructor: rows in stable site_id order, every column a
        read-only copy. network_length defaults to all NaN (no lengths yet)."""
        if network_length is None:
            network_length = np.full(len(ids), np.nan)
        return cls(*_sorted_columns(
            (ids, mun, lat, lon, caps, lcoe, scenicness, full_load_hours, network_length),
            _SITE_DTYPES))

    @functools.cached_property
    def by_mun(self) -> np.ndarray:
        by_mun = np.argsort(self.mun, kind="stable")
        by_mun.flags.writeable = False
        return by_mun

    @classmethod
    def of(cls, candidates: list[CandidateSite]) -> SiteTable:
        """Table of hand-built site records, in any order."""
        fields = ("site_id", "municipality_id", "lat", "lon", "capacity", "lcoe",
                  "scenicness", "full_load_hours")
        return cls.from_columns(
            *([getattr(c, f) for c in candidates] for f in fields),
            network_length=[np.nan if c.network_length is None else c.network_length
                            for c in candidates])

    def take(self, rows) -> SiteTable:
        """Table of the given rows."""
        return SiteTable.from_columns(*(getattr(self, name)[rows] for name in _SITE_COLUMNS))

    def __len__(self) -> int:
        return self.ids.size

    def rows(self, site_ids) -> np.ndarray:
        """Row of each site id, in the order given; an unknown id is a
        ValidationError naming it."""
        ids = np.asarray(site_ids, dtype=np.int64)
        rows = _rows(self.ids, ids)
        if (rows < 0).any():
            raise ValidationError(f"unknown site ids {ids[rows < 0][:5].tolist()}")
        return rows


@dataclass(frozen=True, eq=False)
class MunicipalityTable:
    """Numpy columns of the municipality table, one row per municipality,
    sorted by municipality id. name and region_tag hold Python strings;
    existing_capacity is the MW of the existing turbines. Columns are
    read-only.
    """
    ids: np.ndarray
    name: np.ndarray
    population: np.ndarray
    region_tag: np.ndarray
    state_id: np.ndarray
    area: np.ndarray
    existing_capacity: np.ndarray

    @classmethod
    def from_columns(cls, ids, name, population, region_tag, state_id, area,
                     existing_capacity=None) -> MunicipalityTable:
        """The one constructor: rows in stable id order, every column a
        read-only copy. existing_capacity defaults to all zero."""
        if existing_capacity is None:
            existing_capacity = np.zeros(len(ids))
        return cls(*_sorted_columns(
            (ids, name, population, region_tag, state_id, area, existing_capacity),
            (np.int64, object, float, object, np.int64, float, float)))

    @classmethod
    def of(cls, municipalities: list[Municipality]) -> MunicipalityTable:
        """Table of hand-built municipality records, in any order."""
        fields = ("municipality_id", "name", "population", "region_tag", "state_id", "area",
                  "existing_capacity")
        return cls.from_columns(*([getattr(m, f) for m in municipalities] for f in fields))

    def with_turbines(self, turbines: list[ExistingTurbine]) -> MunicipalityTable:
        """The table whose existing_capacity is the MW of the given turbines."""
        return MunicipalityTable.from_columns(
            self.ids, self.name, self.population, self.region_tag, self.state_id, self.area,
            self.total([t.municipality_id for t in turbines], [t.capacity for t in turbines]))

    def __len__(self) -> int:
        return self.ids.size

    def rows(self, mun_ids) -> np.ndarray:
        """Row of each municipality id, in the order given; -1 for an id
        not in the table."""
        return _rows(self.ids, np.asarray(mun_ids, dtype=np.int64))

    def total(self, mun_ids, values) -> np.ndarray:
        """Per row, the sum of the values given beside its id, added in the
        order given by one np.bincount; a value beside an id not in the
        table counts nowhere."""
        rows = self.rows(mun_ids)
        known = rows >= 0
        return np.bincount(rows[known], weights=np.asarray(values, dtype=float)[known],
                           minlength=len(self))


@dataclass(frozen=True)
class Instance:
    """The candidate pool as one SiteTable, plus the municipality table,
    the existing stock and the transformer set."""
    sites: SiteTable
    municipalities: MunicipalityTable
    existing: list[ExistingTurbine] = field(default_factory=list)
    transformers: list[Transformer] = field(default_factory=list)


@dataclass(frozen=True)
class Violation:
    kind: str
    offending_id: int | None
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, offending_id: int | None, message: str) -> None:
        self.violations.append(Violation(kind, offending_id, message))


def _check_duplicates(report: ValidationReport, ids, label: str) -> None:
    """One DuplicateId per repeated occurrence of an id, in the order given."""
    seen: set[int] = set()
    for i in ids:
        if i in seen:
            report.add("DuplicateId", i, f"duplicate {label} {i}")
        seen.add(i)


def _check_sorted_duplicates(report: ValidationReport, ids: np.ndarray, label: str) -> None:
    """_check_duplicates for an id column in sorted order, where each repeated
    occurrence is a row equal to the one before it."""
    for i in ids[1:][ids[1:] == ids[:-1]].tolist():
        report.add("DuplicateId", i, f"duplicate {label} {i}")


def _check_coords(report: ValidationReport, lat: float, lon: float, label: str, oid: int) -> None:
    if not (-90.0 <= lat <= 90.0):
        report.add("RangeViolation", oid, f"{label} {oid}: lat {lat} outside [-90, 90]")
    if not (-180.0 <= lon <= 180.0):
        report.add("RangeViolation", oid, f"{label} {oid}: lon {lon} outside [-180, 180]")


def _outside(column: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return ~((column >= lo) & (column <= hi))


def _range_check(name: str, column: np.ndarray, out: np.ndarray, rule: str,
                 physical: tuple[float, float] | None = None) -> tuple:
    """A RangeViolation check of a number column: a value outside its range
    (message `rule`), failing that a non-finite one, failing that one
    outside the `physical` range (lo, hi) of its unit."""
    bad = out | ~np.isfinite(column)
    if physical is not None:
        bad |= _outside(column, *physical)

    def tail(k: int) -> str:
        why = (rule if out[k] else "is not finite" if not np.isfinite(column[k])
               else f"outside the physical range [{physical[0]}, {physical[1]}]")
        return f": {name} {column[k].tolist()} {why}"
    return "RangeViolation", bad, tail


def _check_rows(report: ValidationReport, label: str, ids: np.ndarray, checks: list) -> None:
    """The checks of a table as column masks, each (kind, failing mask,
    message tail of failing row k); a failing row's messages come in check
    order, as a per-row loop gives them, rows in table order."""
    failing = np.zeros(ids.shape, dtype=bool)
    for _, mask, _ in checks:
        failing |= mask
    for k in np.flatnonzero(failing).tolist():
        oid = ids[k].tolist()
        for kind, mask, tail in checks:
            if mask[k]:
                report.add(kind, oid, f"{label} {oid}{tail(k)}")


def validate_instance(instance: Instance) -> ValidationReport:
    """Check every instance invariant; violations become report entries.

    Never raises: a malformed instance yields a non-empty report, a
    well-formed one an empty report. Every number must be finite (a
    missing network length, NaN, excepted). Side-effect free and
    idempotent.
    """
    report = ValidationReport()
    sites, muns = instance.sites, instance.municipalities

    if not len(sites):
        report.add("EmptyCandidates", None, "instance has no candidate sites")

    _check_sorted_duplicates(report, sites.ids, "site_id")
    _check_sorted_duplicates(report, muns.ids, "municipality_id")
    _check_duplicates(report, (t.turbine_id for t in instance.existing), "turbine_id")
    _check_duplicates(report, (t.transformer_id for t in instance.transformers), "transformer_id")

    # a NaN network length means "no length yet"
    length = np.where(np.isnan(sites.network_length), 0.0, sites.network_length)
    _check_rows(report, "site", sites.ids, [
        ("MissingReference", ~np.isin(sites.mun, muns.ids),
         lambda k: f" references unknown municipality {sites.mun[k].tolist()}"),
        _range_check("scenicness", sites.scenicness,
                     _outside(sites.scenicness, SCENICNESS_MIN, SCENICNESS_MAX), "outside [1, 9]"),
        _range_check("capacity", sites.caps, sites.caps <= 0, "<= 0",
                     (CAPACITY_MIN_MW, CAPACITY_MAX_MW)),
        _range_check("lcoe", sites.lcoe, sites.lcoe <= 0, "<= 0", (0.0, LCOE_MAX_CT_KWH)),
        _range_check("full_load_hours", sites.full_load_hours, sites.full_load_hours < 0, "< 0",
                     (0.0, FULL_LOAD_HOURS_MAX)),
        _range_check("network_length", length, length < 0, "< 0", (0.0, NETWORK_LENGTH_MAX_KM)),
        _range_check("lat", sites.lat, _outside(sites.lat, -90.0, 90.0), "outside [-90, 90]"),
        _range_check("lon", sites.lon, _outside(sites.lon, -180.0, 180.0), "outside [-180, 180]"),
    ])

    mun_ids = set(muns.ids.tolist())
    for t in instance.existing:
        if t.municipality_id not in mun_ids:
            report.add("MissingReference", t.turbine_id,
                       f"turbine {t.turbine_id} references unknown municipality {t.municipality_id}")
        if t.capacity <= 0:
            report.add("RangeViolation", t.turbine_id, f"turbine {t.turbine_id}: capacity <= 0")
        elif not math.isfinite(t.capacity):
            report.add("RangeViolation", t.turbine_id,
                       f"turbine {t.turbine_id}: capacity {t.capacity} is not finite")
        elif not CAPACITY_MIN_MW <= t.capacity <= CAPACITY_MAX_MW:
            report.add("RangeViolation", t.turbine_id,
                       f"turbine {t.turbine_id}: capacity {t.capacity} outside the physical "
                       f"range [{CAPACITY_MIN_MW}, {CAPACITY_MAX_MW}]")
        _check_coords(report, t.lat, t.lon, "turbine", t.turbine_id)

    for tr in instance.transformers:
        if tr.voltage_kv not in TRANSFORMER_VOLTAGES:
            report.add("RangeViolation", tr.transformer_id,
                       f"transformer {tr.transformer_id}: voltage {tr.voltage_kv} not in {{20, 110}}")
        _check_coords(report, tr.lat, tr.lon, "transformer", tr.transformer_id)

    expected = muns.with_turbines(instance.existing).existing_capacity
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite capacity is its own violation
        inconsistent = np.abs(muns.existing_capacity - expected) > 1e-9
    _check_rows(report, "municipality", muns.ids, [
        _range_check("population", muns.population, muns.population < 0, "< 0"),
        _range_check("area", muns.area, muns.area <= 0, "<= 0"),
        ("RangeViolation", ~np.isin(muns.region_tag, REGION_TAGS),
         lambda k: f": region_tag {muns.region_tag[k]!r}"),
        ("InconsistentDerived", inconsistent,
         lambda k: f": existing_capacity {muns.existing_capacity[k].tolist()} "
                   f"!= turbine sum {expected[k].tolist()}"),
    ])
    return report


# ---------------------------------------------------------------------------
# CSV I/O
#
# All files UTF-8, '.' decimal separator, floats written with repr() so that
# a read/write round trip reproduces every numeric field bit-exactly.
#
# The csv module reads every instance CSV that has no matching column file
# (_read_columns), so that it decides each input and words every error. candidates.csv holds the whole pool (160k
# rows at desk scale), so it is written a block of rows at a time, joined by
# hand into the bytes csv.writer would write (its fields are numbers, which
# never need quoting).
#
# Beside each instance CSV, write_instance saves its table's columns to a
# column file (candidates.npz and so on) together with the sha256 of the CSV
# bytes, and read_instance loads them instead of parsing the CSV while that
# digest still matches the file. The CSV stays the source of truth: a column
# file is written only for a table that reads back from the CSV as itself,
# holds the table that parsing those exact bytes gives, and is ignored when
# missing, stale or malformed.

CANDIDATES_FILE = "candidates.csv"
CANDIDATES_COLUMN_FILE = "candidates.npz"
MUNICIPALITIES_FILE = "municipalities.csv"
EXISTING_FILE = "existing.csv"
TRANSFORMERS_FILE = "transformers.csv"
INSTANCE_FILES = (CANDIDATES_FILE, MUNICIPALITIES_FILE, EXISTING_FILE, TRANSFORMERS_FILE)

_CAND_HEADER = ["site_id", "municipality_id", "lat", "lon", "capacity_mw",
                "lcoe_ct_kwh", "scenicness", "full_load_hours"]
_LENGTH_COLUMN = "network_length_km"
_MUN_HEADER = ["municipality_id", "name", "population", "region_tag", "state_id", "area_km2"]
_EXISTING_HEADER = ["turbine_id", "municipality_id", "lat", "lon", "capacity_mw"]
_TRANSFORMER_HEADER = ["transformer_id", "lat", "lon", "voltage_kv"]

# candidates.csv rows formatted per write; bounds the strings held at once
_WRITE_BLOCK = 1 << 14
# bytes read at once when hashing a file
_READ_BLOCK = 1 << 20
# the column file's entry holding the sha256 of the CSV bytes, as 32 uint8
_DIGEST_KEY = "csv_sha256"


def instance_files(directory: str) -> list[str]:
    """Paths of the four instance CSVs in a directory."""
    return [os.path.join(directory, name) for name in INSTANCE_FILES]


def _fnum(x: float) -> str:
    return repr(float(x))


def _check_header(path: str, header: list[str], required: list[str]) -> None:
    missing = [c for c in required if c not in header]
    if missing:
        raise ValidationError(f"{path}: missing columns {missing}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise ValidationError(f"{path}: repeated columns {repeated}")


def csv_error(where: str, e: UnicodeDecodeError | csv.Error, line: int) -> ValidationError:
    """The ValidationError of a CSV file, named by `where`, that is not UTF-8
    text, or that the csv module rejects at `line` (say a field over its size
    limit)."""
    if isinstance(e, UnicodeDecodeError):
        return ValidationError(f"{where}: not UTF-8 text: {e.reason} {e.object[e.start:e.end]!r}")
    return ValidationError(f"{where}, line {line}: {e}")


def _read_columns(path: str, required: list[str]) -> dict[str, list[str]]:
    """The columns of a CSV file by header name; blank lines are skipped, and
    a row whose field count differs from the header's, a file that is not
    UTF-8 text or one the csv module rejects is a ValidationError. A file
    that cannot be opened or read is an OSError naming its path."""

    def rows(reader, width):
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise ValidationError(f"{path}, line {reader.line_num}: {len(row)} "
                                      f"fields, the header has {width}")
            yield row

    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            _check_header(path, header, required)
            # one flat list of fields, row after row, sliced into columns
            fields = list(itertools.chain.from_iterable(rows(reader, len(header))))
    except OSError as e:  # an I/O error, not a validation one; named even if raised mid-read
        e.filename = e.filename or path
        raise
    except (UnicodeDecodeError, csv.Error) as e:
        raise csv_error(path, e, reader.line_num) from None
    return {name: fields[k::len(header)] for k, name in enumerate(header)}


def _parse(path: str, columns: dict[str, list[str]], name: str, convert=float) -> list:
    try:
        return list(map(convert, columns[name]))
    except ValueError as e:
        raise ValidationError(f"{path}: column {name}: {e}") from None


def _int64(text: str) -> int:
    """An integer field that an int64 column can hold."""
    x = int(text)
    if not -2**63 <= x < 2**63:
        raise ValueError(f"{text!r} is not within int64")
    return x


def _read_sites_csv(path: str) -> SiteTable:
    """candidates.csv as a SiteTable, read by the csv module. An empty
    network_length_km field (or a missing column) is NaN, so a literal
    non-finite length is rejected: the table could not tell it from a
    missing one."""
    cols = _read_columns(path, _CAND_HEADER)
    ids = _parse(path, cols, "site_id", _int64)
    lengths = None
    if _LENGTH_COLUMN in cols:
        lengths = np.array(_parse(path, cols, _LENGTH_COLUMN,
                                  lambda x: float(x) if x else math.nan))
        for k in np.flatnonzero(~np.isfinite(lengths)).tolist():
            if cols[_LENGTH_COLUMN][k]:
                raise ValidationError(f"{path}: site {ids[k]}: {_LENGTH_COLUMN} "
                                      f"{cols[_LENGTH_COLUMN][k]!r} is not finite")
    return SiteTable.from_columns(
        ids, _parse(path, cols, "municipality_id", _int64),
        *(_parse(path, cols, name) for name in _CAND_HEADER[2:]), network_length=lengths)


def file_sha256(path: str) -> str:
    """Hex sha256 of a file's bytes, read a block at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(_READ_BLOCK), b""):
            h.update(block)
    return h.hexdigest()


def _column_file(csv_path: str) -> str:
    """The column file beside an instance CSV: its path with .npz for .csv."""
    return os.path.splitext(csv_path)[0] + ".npz"


def _same_dtype(col: np.ndarray, dtype: np.dtype) -> bool:
    """A saved column has the dtype of its schema; a text column is any U array."""
    return col.dtype.kind == "U" if dtype.kind == "U" else col.dtype == dtype


def _saved_columns(csv_path: str, schema: tuple, digests: dict[str, str] | None
                   ) -> list[np.ndarray] | None:
    """The columns saved beside an instance CSV, in `schema` order (name,
    dtype and maybe more per column), or None unless the column file holds the sha256 of
    the CSV as it is now and every column, each of its dtype, one dimension
    and all of one length. Nothing in the file is unpickled, and any failure
    to read it, or the CSV, is None. The hex sha256 of the CSV, once
    computed, goes into `digests` under its path."""
    try:
        # opened here, since np.load leaves open a file it fails to read as a zip
        with open(_column_file(csv_path), "rb") as f:
            digest = file_sha256(csv_path)
            if digests is not None:
                digests[csv_path] = digest
            with np.load(f, allow_pickle=False) as saved:
                stored = saved[_DIGEST_KEY]
                if stored.dtype != np.uint8 or stored.tobytes().hex() != digest:
                    return None
                cols = [saved[name] for name, *_ in schema]
    except Exception:  # no file, or a foreign or damaged one, whatever it raises
        return None
    if any(not _same_dtype(col, t) or col.ndim != 1 or col.size != cols[0].size
           for col, (_, t, *_) in zip(cols, schema)):
        return None
    return cols


def _save_columns(csv_path: str, digest: str, columns: dict[str, np.ndarray] | None) -> None:
    """The column file of an instance CSV just written with this hex sha256,
    by uncompressed np.savez, whose bytes depend on the columns alone. Every
    NaN is saved as the NaN the reader makes of "nan" or an empty length.
    `columns` is None for a table that does not read back from the CSV as
    itself: it gets no column file, and any left in place is removed."""
    path = _column_file(csv_path)
    if columns is None:
        if os.path.exists(path):
            os.remove(path)
        return
    cols = {}
    for name, col in columns.items():
        if col.dtype.kind == "f":
            nan = np.isnan(col)
            if nan.any():
                col = np.where(nan, np.nan, col)
        cols[name] = col
    np.savez(path, **{_DIGEST_KEY: np.frombuffer(bytes.fromhex(digest), dtype=np.uint8)},
             **cols)


def _int_column(values: list) -> np.ndarray | None:
    """Integers as an int64 column; None if one is not an integer within
    int64, which an int64 column cannot hold as the reader gives it."""
    try:
        col = np.array(values)
    except (OverflowError, ValueError):
        return None
    if not col.size:
        return np.zeros(0, dtype=np.int64)
    return col.astype(np.int64) if col.dtype.kind == "i" else None


def _text_column(values: list) -> np.ndarray | None:
    """Strings as a U column; None unless it reads back as the same strings
    (numpy drops trailing NULs, and a non-string is written as its text)."""
    col = np.array(values, dtype=str)
    return col if col.astype(object).tolist() == values else None


# the saved columns of the pool as (name, dtype), and of each small CSV as
# (header name, dtype, the reader's parse of a field), in CSV column order
_INT64, _FLOAT64, _TEXT = np.dtype(np.int64), np.dtype(np.float64), np.dtype(str)
_SITE_SCHEMA = tuple(zip(_SITE_COLUMNS, _SITE_DTYPES))
_MUN_SCHEMA = tuple(zip(_MUN_HEADER, (_INT64, _TEXT, _FLOAT64, _TEXT, _INT64, _FLOAT64),
                        (_int64, str, float, str, _int64, float)))
_EXISTING_SCHEMA = tuple(zip(_EXISTING_HEADER, (_INT64, _INT64) + (_FLOAT64,) * 3,
                             (int, _int64, float, float, float)))
_TRANSFORMER_SCHEMA = tuple(zip(_TRANSFORMER_HEADER, (_INT64, _FLOAT64, _FLOAT64, _INT64),
                                (int, float, float, int)))
_COLUMN = {_INT64: _int_column, _FLOAT64: lambda v: np.array(v, dtype=float),
           _TEXT: _text_column}


def _table_columns(schema: tuple, values: list[list]) -> dict[str, np.ndarray] | None:
    """The columns of a small table as its reader gives them, rows stably
    sorted by the id in the first; None if one does not read back as itself."""
    cols = [_COLUMN[t](v) for (_, t, _), v in zip(schema, values)]
    if any(col is None for col in cols):
        return None
    order = np.argsort(cols[0], kind="stable")
    return {name: col[order] for (name, _, _), col in zip(schema, cols)}


def _parsed(path: str, schema: tuple) -> list[list]:
    """The columns of a small CSV parsed by the csv module, in schema order."""
    cols = _read_columns(path, [name for name, _, _ in schema])
    return [_parse(path, cols, name, parse) for name, _, parse in schema]


def _records(path: str, schema: tuple, digests: dict[str, str] | None) -> list:
    """The rows of a turbine or transformer CSV as tuples of Python values in
    header order, stably sorted by the id in the first column, from its
    column file while that holds the CSV's digest; a file that does not
    exist has none."""
    cols = _saved_columns(path, schema, digests)
    if cols is not None:
        return list(zip(*(col.tolist() for col in cols)))
    if not os.path.exists(path):
        return []
    return sorted(zip(*_parsed(path, schema)), key=lambda r: r[0])


def read_instance(directory: str, digests: dict[str, str] | None = None) -> Instance:
    """Load the four instance CSVs from a directory.

    The optional network_length_km column in candidates.csv is honored;
    existing_capacity on municipalities is derived from existing.csv.
    Municipalities, turbines and transformers come sorted by id. Each table
    comes from its column file (candidates.npz beside candidates.csv, and
    so on) where that holds the digest of its CSV, which then gives the
    table that parsing the CSV would. `digests`, when given, receives the
    hex sha256 of each file hashed on the way, by path (each CSV whenever
    there is a column file to check), so that a run manifest need not hash
    it again. A file that cannot be opened or read is an OSError naming its
    path.
    """
    cand_path, mun_path, ex_path, tr_path = instance_files(directory)
    cols = _saved_columns(cand_path, _SITE_SCHEMA, digests)
    sites = _read_sites_csv(cand_path) if cols is None else SiteTable.from_columns(*cols)
    existing = [ExistingTurbine(*r) for r in _records(ex_path, _EXISTING_SCHEMA, digests)]
    # from_columns turns the U columns of names and region tags into Python strings
    municipalities = MunicipalityTable.from_columns(*(
        _saved_columns(mun_path, _MUN_SCHEMA, digests) or _parsed(mun_path, _MUN_SCHEMA)
    )).with_turbines(existing)
    transformers = [Transformer(*r) for r in _records(tr_path, _TRANSFORMER_SCHEMA, digests)]
    return Instance(sites=sites, municipalities=municipalities, existing=existing,
                    transformers=transformers)


def write_csv(path: str, header: list[str], rows) -> None:
    """A header and rows in the csv module's default dialect; every result
    and instance CSV but candidates.csv is written here."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_sites(path: str, sites: SiteTable) -> str:
    """candidates.csv in table order, byte for byte what csv.writer writes
    for the same rows: ids by str, floats by repr, the network_length_km
    column only when some site has a length, and empty where it has none.
    Returns the hex sha256 of the bytes written."""
    columns = [sites.ids, sites.mun, sites.lat, sites.lon, sites.caps, sites.lcoe,
               sites.scenicness, sites.full_load_hours]
    header = list(_CAND_HEADER)
    with_lengths = not np.isnan(sites.network_length).all()
    if with_lengths:
        header.append(_LENGTH_COLUMN)
        columns.append(sites.network_length)
    h = hashlib.sha256()
    with open(path, "wb") as f:

        def write(text: str) -> None:
            data = text.encode()
            h.update(data)
            f.write(data)

        write(",".join(header) + "\r\n")
        for start in range(0, len(sites), _WRITE_BLOCK):
            block = [col[start:start + _WRITE_BLOCK] for col in columns]
            fields = [list(map(str, col.tolist())) for col in block[:2]]
            fields += [list(map(repr, col.tolist())) for col in block[2:]]
            if with_lengths:
                for k in np.flatnonzero(np.isnan(block[-1])).tolist():
                    fields[-1][k] = ""
            write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")
    return h.hexdigest()


def write_instance(instance: Instance, directory: str) -> None:
    """Write the four instance CSVs in table and list order; the
    network_length_km column only when some site has a length. Each CSV's
    table also goes to its column file with the CSV's digest, unless it
    does not read back from the CSV as itself (an infinite network length,
    which the reader rejects, a string numpy would change, or an id beyond
    int64)."""
    os.makedirs(directory, exist_ok=True)
    cand_path, mun_path, ex_path, tr_path = instance_files(directory)
    sites, muns = instance.sites, instance.municipalities
    _save_columns(cand_path, _write_sites(cand_path, sites),
                  None if np.isinf(sites.network_length).any()
                  else {name: getattr(sites, name) for name in _SITE_COLUMNS})
    mun_cols = [muns.ids, muns.name.tolist(), muns.population, muns.region_tag.tolist(),
                muns.state_id, muns.area]
    write_csv(mun_path, _MUN_HEADER,
              zip(muns.ids.tolist(), mun_cols[1], map(repr, muns.population.tolist()),
                  mun_cols[3], muns.state_id.tolist(), map(repr, muns.area.tolist())))
    write_csv(ex_path, _EXISTING_HEADER,
              ([t.turbine_id, t.municipality_id, _fnum(t.lat), _fnum(t.lon),
                _fnum(t.capacity)] for t in instance.existing))
    write_csv(tr_path, _TRANSFORMER_HEADER,
              ([t.transformer_id, _fnum(t.lat), _fnum(t.lon), t.voltage_kv]
               for t in instance.transformers))
    for path, schema, cols in (
            (mun_path, _MUN_SCHEMA, mun_cols),
            (ex_path, _EXISTING_SCHEMA, [[getattr(t, f.name) for t in instance.existing]
                                         for f in fields(ExistingTurbine)]),
            (tr_path, _TRANSFORMER_SCHEMA, [[getattr(t, f.name) for t in instance.transformers]
                                            for f in fields(Transformer)])):
        _save_columns(path, file_sha256(path), _table_columns(schema, cols))


def with_network_lengths(instance: Instance, lengths) -> Instance:
    """New Instance whose sites carry the given network lengths (km), one
    per table row; NaN means no length."""
    lengths = np.array(lengths, dtype=float)
    lengths.flags.writeable = False
    return replace(instance, sites=replace(instance.sites, network_length=lengths))
