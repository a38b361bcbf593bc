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
import hashlib
import itertools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

SCENICNESS_MIN = 1.0
SCENICNESS_MAX = 9.0

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
    the rows grouped by municipality (ascending within a group). Columns
    are read-only.
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
    by_mun: np.ndarray

    @classmethod
    def from_columns(cls, ids, mun, lat, lon, caps, lcoe, scenicness, full_load_hours,
                     network_length=None) -> SiteTable:
        """The one constructor: rows in stable site_id order, grouped by
        municipality, every column a read-only copy. network_length
        defaults to all NaN (no lengths yet)."""
        if network_length is None:
            network_length = np.full(len(ids), np.nan)
        cols = _sorted_columns(
            (ids, mun, lat, lon, caps, lcoe, scenicness, full_load_hours, network_length),
            _SITE_DTYPES)
        by_mun = np.argsort(cols[1], kind="stable")
        by_mun.flags.writeable = False
        return cls(*cols, by_mun=by_mun)

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


def _range_check(name: str, column: np.ndarray, out: np.ndarray, rule: str) -> tuple:
    """A RangeViolation check of a number column: a value outside its range
    (message `rule`) or, failing that, a non-finite one."""
    return ("RangeViolation", out | ~np.isfinite(column),
            lambda k: f": {name} {column[k].tolist()} {rule if out[k] else 'is not finite'}")


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
        _range_check("capacity", sites.caps, sites.caps <= 0, "<= 0"),
        _range_check("lcoe", sites.lcoe, sites.lcoe <= 0, "<= 0"),
        _range_check("full_load_hours", sites.full_load_hours, sites.full_load_hours < 0, "< 0"),
        _range_check("network_length", length, length < 0, "< 0"),
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
# The csv module reads every instance CSV (_read_columns), so that it decides
# each input and words every error. candidates.csv holds the whole pool (160k
# rows at desk scale), so it is written a block of rows at a time, joined by
# hand into the bytes csv.writer would write (its fields are numbers, which
# never need quoting).
#
# Beside candidates.csv, write_instance saves its columns to candidates.npz
# together with the sha256 of the CSV bytes, and read_instance loads them
# instead of parsing the CSV while that digest still matches the file. The
# CSV stays the source of truth: the column file is written only for a table
# that reads back from the CSV as itself, holds the table that parsing those
# exact bytes gives, and is ignored when missing, stale or malformed.

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
# bytes read at once when hashing candidates.csv
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


def _saved_sites(directory: str, digests: dict[str, str] | None = None) -> SiteTable | None:
    """The SiteTable saved in the column file of a directory, or None unless
    the file holds the sha256 of candidates.csv as it is now and the nine
    columns, each of its dtype and all of one length. Nothing in the file is
    unpickled, and any failure to read it is None. The hex sha256 of
    candidates.csv, once computed, goes into `digests` under its path."""
    try:
        # opened here, since np.load leaves open a file it fails to read as a zip
        with open(os.path.join(directory, CANDIDATES_COLUMN_FILE), "rb") as f:
            path = os.path.join(directory, CANDIDATES_FILE)
            digest = file_sha256(path)
            if digests is not None:
                digests[path] = digest
            with np.load(f, allow_pickle=False) as saved:
                stored = saved[_DIGEST_KEY]
                if stored.dtype != np.uint8 or stored.tobytes().hex() != digest:
                    return None
                cols = [saved[name] for name in _SITE_COLUMNS]
    except Exception:  # no file, or a foreign or damaged one, whatever it raises
        return None
    if any(col.dtype != t or col.ndim != 1 or col.size != cols[0].size
           for col, t in zip(cols, _SITE_DTYPES)):
        return None
    return SiteTable.from_columns(*cols)


def _records(path: str, header: list[str], types: tuple, optional: bool = False) -> list:
    """The rows of a small CSV as tuples of Python values in header order,
    stably sorted by the id in the first column; an optional file that does
    not exist has none."""
    if optional and not os.path.exists(path):
        return []
    cols = _read_columns(path, header)
    return sorted(zip(*(_parse(path, cols, name, t) for name, t in zip(header, types))),
                  key=lambda r: r[0])


def read_instance(directory: str, digests: dict[str, str] | None = None) -> Instance:
    """Load the four instance CSVs from a directory.

    The optional network_length_km column in candidates.csv is honored;
    existing_capacity on municipalities is derived from existing.csv.
    Municipalities, turbines and transformers come sorted by id. The pool
    comes from candidates.npz where that holds the digest of candidates.csv,
    which then gives the table that parsing the CSV would. `digests`, when
    given, receives the hex sha256 of each file hashed on the way, by path
    (candidates.csv whenever there is a column file to check), so that a
    run manifest need not hash it again. A file that cannot be opened or
    read is an OSError naming its path.
    """
    cand_path, mun_path, ex_path, tr_path = instance_files(directory)
    sites = _saved_sites(directory, digests)
    if sites is None:
        sites = _read_sites_csv(cand_path)
    existing = [ExistingTurbine(*r) for r in _records(
        ex_path, _EXISTING_HEADER, (int, _int64, float, float, float), optional=True)]
    cols = _read_columns(mun_path, _MUN_HEADER)
    municipalities = MunicipalityTable.from_columns(*(
        _parse(mun_path, cols, name, kind)
        for name, kind in zip(_MUN_HEADER, (_int64, str, float, str, _int64, float))
    )).with_turbines(existing)
    transformers = [Transformer(*r) for r in _records(
        tr_path, _TRANSFORMER_HEADER, (int, float, float, int), optional=True)]
    return Instance(sites=sites, municipalities=municipalities, existing=existing,
                    transformers=transformers)


def write_csv(path: str, header: list[str], rows) -> None:
    """A header and rows in the csv module's default dialect; every result
    and instance CSV but candidates.csv is written here."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_sites(path: str, sites: SiteTable) -> bytes:
    """candidates.csv in table order, byte for byte what csv.writer writes
    for the same rows: ids by str, floats by repr, the network_length_km
    column only when some site has a length, and empty where it has none.
    Returns the sha256 of the bytes written."""
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
    return h.digest()


def _save_sites(path: str, sites: SiteTable, digest: bytes) -> None:
    """The column file of a candidates.csv just written with this sha256,
    by uncompressed np.savez, whose bytes depend on the table alone. Every
    NaN is saved as the NaN the reader makes of "nan" or an empty length. A
    table with an infinite network length does not read back from the CSV,
    so it gets no column file, and any left in place is removed."""
    if np.isinf(sites.network_length).any():
        if os.path.exists(path):
            os.remove(path)
        return
    cols = {name: getattr(sites, name) for name in _SITE_COLUMNS}
    for name in _SITE_COLUMNS[2:]:
        nan = np.isnan(cols[name])
        if nan.any():
            cols[name] = np.where(nan, np.nan, cols[name])
    np.savez(path, **{_DIGEST_KEY: np.frombuffer(digest, dtype=np.uint8)}, **cols)


def write_instance(instance: Instance, directory: str) -> None:
    """Write the four instance CSVs in table and list order; the
    network_length_km column only when some site has a length. The pool's
    columns also go to candidates.npz with the digest of candidates.csv."""
    os.makedirs(directory, exist_ok=True)
    cand_path, mun_path, ex_path, tr_path = instance_files(directory)
    digest = _write_sites(cand_path, instance.sites)
    _save_sites(os.path.join(directory, CANDIDATES_COLUMN_FILE), instance.sites, digest)
    muns = instance.municipalities
    write_csv(mun_path, _MUN_HEADER,
              zip(muns.ids.tolist(), muns.name.tolist(), map(repr, muns.population.tolist()),
                  muns.region_tag.tolist(), muns.state_id.tolist(),
                  map(repr, muns.area.tolist())))
    write_csv(ex_path, _EXISTING_HEADER,
              ([t.turbine_id, t.municipality_id, _fnum(t.lat), _fnum(t.lon),
                _fnum(t.capacity)] for t in instance.existing))
    write_csv(tr_path, _TRANSFORMER_HEADER,
              ([t.transformer_id, _fnum(t.lat), _fnum(t.lon), t.voltage_kv]
               for t in instance.transformers))


def with_network_lengths(instance: Instance, lengths) -> Instance:
    """New Instance whose sites carry the given network lengths (km), one
    per table row; NaN means no length."""
    lengths = np.array(lengths, dtype=float)
    lengths.flags.writeable = False
    return replace(instance, sites=replace(instance.sites, network_length=lengths))
