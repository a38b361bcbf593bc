"""Core data model, validation and instance CSV I/O.

An Instance bundles the candidate turbine pool, the municipality table
(the equity unit), the existing turbine stock and the transformer set.
Instances are treated as immutable after load; mutation happens only
during assembly.

`Instance.sites` is the columnar view of the candidate pool that the
objective, the solver and the reports read: a SiteTable of numpy columns
sorted by site_id, built on first use and kept with the instance.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

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
    """The requested targets cannot be met by the instance."""


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


@dataclass(frozen=True, eq=False)
class SiteTable:
    """Numpy columns of a candidate pool, one row per site, sorted by site_id.

    network_length is NaN where a site has no length yet. by_mun lists
    the rows grouped by municipality (ascending within a group) and
    mun_rows maps a municipality id to its (start, stop) slice of by_mun.
    Columns are read-only.
    """
    ids: np.ndarray
    mun: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    caps: np.ndarray
    lcoe: np.ndarray
    scenicness: np.ndarray
    network_length: np.ndarray
    by_mun: np.ndarray
    mun_rows: dict[int, tuple[int, int]]

    @classmethod
    def of(cls, candidates: list[CandidateSite]) -> SiteTable:
        cands = sorted(candidates, key=lambda c: c.site_id)
        mun = np.array([c.municipality_id for c in cands], dtype=np.int64)
        by_mun = np.argsort(mun, kind="stable")
        keys, starts, counts = np.unique(mun[by_mun], return_index=True,
                                         return_counts=True)
        cols = dict(
            ids=np.array([c.site_id for c in cands], dtype=np.int64),
            mun=mun,
            lat=np.array([c.lat for c in cands], dtype=float),
            lon=np.array([c.lon for c in cands], dtype=float),
            caps=np.array([c.capacity for c in cands], dtype=float),
            lcoe=np.array([c.lcoe for c in cands], dtype=float),
            scenicness=np.array([c.scenicness for c in cands], dtype=float),
            network_length=np.array([np.nan if c.network_length is None
                                     else c.network_length for c in cands], dtype=float),
            by_mun=by_mun,
        )
        for arr in cols.values():
            arr.flags.writeable = False
        return cls(**cols, mun_rows={int(j): (int(a), int(a + k))
                                     for j, a, k in zip(keys, starts, counts)})

    @property
    def n(self) -> int:
        return self.ids.size

    def rows(self, site_ids) -> np.ndarray:
        """Row of each site id, in the order given; an unknown id is a
        ValidationError naming it."""
        ids = np.asarray(site_ids, dtype=np.int64)
        unknown = ids[~np.isin(ids, self.ids)]
        if unknown.size:
            raise ValidationError(f"unknown site ids {unknown[:5].tolist()}")
        return np.searchsorted(self.ids, ids)


@dataclass
class Instance:
    candidates: list[CandidateSite]
    municipalities: list[Municipality]
    existing: list[ExistingTurbine] = field(default_factory=list)
    transformers: list[Transformer] = field(default_factory=list)
    metadata: str = ""

    @cached_property
    def sites(self) -> SiteTable:
        """The candidate pool as a SiteTable, built on first use."""
        return SiteTable.of(self.candidates)


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
    seen: set[int] = set()
    for i in ids:
        if i in seen:
            report.add("DuplicateId", i, f"duplicate {label} {i}")
        seen.add(i)


def _check_coords(report: ValidationReport, lat: float, lon: float, label: str, oid: int) -> None:
    if not (-90.0 <= lat <= 90.0):
        report.add("RangeViolation", oid, f"{label} {oid}: lat {lat} outside [-90, 90]")
    if not (-180.0 <= lon <= 180.0):
        report.add("RangeViolation", oid, f"{label} {oid}: lon {lon} outside [-180, 180]")


def validate_instance(instance: Instance) -> ValidationReport:
    """Check every instance invariant; violations become report entries.

    Never raises: a malformed instance yields a non-empty report, a
    well-formed one an empty report. Side-effect free and idempotent.
    """
    report = ValidationReport()
    mun_ids = {m.municipality_id for m in instance.municipalities}

    if not instance.candidates:
        report.add("EmptyCandidates", None, "instance has no candidate sites")

    _check_duplicates(report, (c.site_id for c in instance.candidates), "site_id")
    _check_duplicates(report, (m.municipality_id for m in instance.municipalities), "municipality_id")
    _check_duplicates(report, (t.turbine_id for t in instance.existing), "turbine_id")
    _check_duplicates(report, (t.transformer_id for t in instance.transformers), "transformer_id")

    for c in instance.candidates:
        if c.municipality_id not in mun_ids:
            report.add("MissingReference", c.site_id,
                       f"site {c.site_id} references unknown municipality {c.municipality_id}")
        if not (SCENICNESS_MIN <= c.scenicness <= SCENICNESS_MAX):
            report.add("RangeViolation", c.site_id,
                       f"site {c.site_id}: scenicness {c.scenicness} outside [1, 9]")
        if c.capacity <= 0:
            report.add("RangeViolation", c.site_id, f"site {c.site_id}: capacity {c.capacity} <= 0")
        if c.lcoe <= 0:
            report.add("RangeViolation", c.site_id, f"site {c.site_id}: lcoe {c.lcoe} <= 0")
        if c.full_load_hours < 0:
            report.add("RangeViolation", c.site_id,
                       f"site {c.site_id}: full_load_hours {c.full_load_hours} < 0")
        if c.network_length is not None and c.network_length < 0:
            report.add("RangeViolation", c.site_id,
                       f"site {c.site_id}: network_length {c.network_length} < 0")
        _check_coords(report, c.lat, c.lon, "site", c.site_id)

    for t in instance.existing:
        if t.municipality_id not in mun_ids:
            report.add("MissingReference", t.turbine_id,
                       f"turbine {t.turbine_id} references unknown municipality {t.municipality_id}")
        if t.capacity <= 0:
            report.add("RangeViolation", t.turbine_id, f"turbine {t.turbine_id}: capacity <= 0")
        _check_coords(report, t.lat, t.lon, "turbine", t.turbine_id)

    for tr in instance.transformers:
        if tr.voltage_kv not in TRANSFORMER_VOLTAGES:
            report.add("RangeViolation", tr.transformer_id,
                       f"transformer {tr.transformer_id}: voltage {tr.voltage_kv} not in {{20, 110}}")
        _check_coords(report, tr.lat, tr.lon, "transformer", tr.transformer_id)

    existing_sums = capacity_by_municipality(
        (t.municipality_id, t.capacity) for t in instance.existing)
    for m in instance.municipalities:
        if m.population < 0:
            report.add("RangeViolation", m.municipality_id,
                       f"municipality {m.municipality_id}: population {m.population} < 0")
        if m.area <= 0:
            report.add("RangeViolation", m.municipality_id,
                       f"municipality {m.municipality_id}: area {m.area} <= 0")
        if m.region_tag not in REGION_TAGS:
            report.add("RangeViolation", m.municipality_id,
                       f"municipality {m.municipality_id}: region_tag {m.region_tag!r}")
        expected = existing_sums.get(m.municipality_id, 0.0)
        if abs(m.existing_capacity - expected) > 1e-9:
            report.add("InconsistentDerived", m.municipality_id,
                       f"municipality {m.municipality_id}: existing_capacity "
                       f"{m.existing_capacity} != turbine sum {expected}")
    return report


def capacity_by_municipality(pairs) -> dict[int, float]:
    """MW per municipality from (municipality_id, MW) pairs: running sums in
    pair order, keyed in order of first appearance."""
    total: dict[int, float] = {}
    for j, cap in pairs:
        total[j] = total.get(j, 0.0) + cap
    return total


def existing_capacity_totals(instance: Instance) -> tuple[dict[int, float], float]:
    """Per-municipality existing capacity (MW) and the national total.

    Every municipality appears in the table, zero included. An existing
    turbine mapped to an unknown municipality is a hard error.
    """
    mun_ids = {m.municipality_id for m in instance.municipalities}
    for t in instance.existing:
        if t.municipality_id not in mun_ids:
            raise ValidationError(
                f"existing turbine {t.turbine_id} mapped to unknown municipality "
                f"{t.municipality_id}")
    sums = capacity_by_municipality((t.municipality_id, t.capacity) for t in instance.existing)
    table = {m.municipality_id: sums.get(m.municipality_id, 0.0)
             for m in instance.municipalities}
    return table, sum(table.values())


# ---------------------------------------------------------------------------
# CSV I/O
#
# All files UTF-8, '.' decimal separator, floats written with repr() so that
# a read/write round trip reproduces every numeric field bit-exactly.

CANDIDATES_FILE = "candidates.csv"
MUNICIPALITIES_FILE = "municipalities.csv"
EXISTING_FILE = "existing.csv"
TRANSFORMERS_FILE = "transformers.csv"

_CAND_HEADER = ["site_id", "municipality_id", "lat", "lon", "capacity_mw",
                "lcoe_ct_kwh", "scenicness", "full_load_hours"]
_MUN_HEADER = ["municipality_id", "name", "population", "region_tag", "state_id", "area_km2"]
_EXISTING_HEADER = ["turbine_id", "municipality_id", "lat", "lon", "capacity_mw"]
_TRANSFORMER_HEADER = ["transformer_id", "lat", "lon", "voltage_kv"]


def _fnum(x: float) -> str:
    return repr(float(x))


def _read_rows(path: str, required: list[str]) -> list[dict[str, str]]:
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            header = reader.fieldnames or []
            missing = [c for c in required if c not in header]
            if missing:
                raise ValidationError(f"{path}: missing columns {missing}")
            return list(reader)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e


def read_instance(directory: str) -> Instance:
    """Load the four instance CSVs from a directory.

    The optional network_length_km column in candidates.csv is honored;
    existing_capacity on municipalities is derived from existing.csv.
    """
    cand_rows = _read_rows(os.path.join(directory, CANDIDATES_FILE), _CAND_HEADER)
    mun_rows = _read_rows(os.path.join(directory, MUNICIPALITIES_FILE), _MUN_HEADER)
    ex_path = os.path.join(directory, EXISTING_FILE)
    tr_path = os.path.join(directory, TRANSFORMERS_FILE)
    ex_rows = _read_rows(ex_path, _EXISTING_HEADER) if os.path.exists(ex_path) else []
    tr_rows = _read_rows(tr_path, _TRANSFORMER_HEADER) if os.path.exists(tr_path) else []

    candidates = []
    for r in cand_rows:
        nl = r.get("network_length_km")
        candidates.append(CandidateSite(
            site_id=int(r["site_id"]),
            municipality_id=int(r["municipality_id"]),
            lat=float(r["lat"]),
            lon=float(r["lon"]),
            capacity=float(r["capacity_mw"]),
            lcoe=float(r["lcoe_ct_kwh"]),
            scenicness=float(r["scenicness"]),
            full_load_hours=float(r["full_load_hours"]),
            network_length=float(nl) if nl not in (None, "") else None,
        ))
    candidates.sort(key=lambda c: c.site_id)

    existing = [ExistingTurbine(
        turbine_id=int(r["turbine_id"]),
        municipality_id=int(r["municipality_id"]),
        lat=float(r["lat"]),
        lon=float(r["lon"]),
        capacity=float(r["capacity_mw"]),
    ) for r in ex_rows]
    existing.sort(key=lambda t: t.turbine_id)

    sums = capacity_by_municipality((t.municipality_id, t.capacity) for t in existing)

    municipalities = [Municipality(
        municipality_id=int(r["municipality_id"]),
        name=r["name"],
        population=float(r["population"]),
        region_tag=r["region_tag"],
        state_id=int(r["state_id"]),
        area=float(r["area_km2"]),
        existing_capacity=sums.get(int(r["municipality_id"]), 0.0),
    ) for r in mun_rows]
    municipalities.sort(key=lambda m: m.municipality_id)

    transformers = [Transformer(
        transformer_id=int(r["transformer_id"]),
        lat=float(r["lat"]),
        lon=float(r["lon"]),
        voltage_kv=int(r["voltage_kv"]),
    ) for r in tr_rows]
    transformers.sort(key=lambda t: t.transformer_id)

    return Instance(candidates=candidates, municipalities=municipalities,
                    existing=existing, transformers=transformers,
                    metadata=f"loaded from {directory}")


def write_instance(instance: Instance, directory: str) -> None:
    """Write the four instance CSVs; network_length_km only when present."""
    os.makedirs(directory, exist_ok=True)
    with_length = any(c.network_length is not None for c in instance.candidates)
    header = _CAND_HEADER + (["network_length_km"] if with_length else [])
    with open(os.path.join(directory, CANDIDATES_FILE), "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for c in instance.candidates:
            row = [c.site_id, c.municipality_id, _fnum(c.lat), _fnum(c.lon),
                   _fnum(c.capacity), _fnum(c.lcoe), _fnum(c.scenicness),
                   _fnum(c.full_load_hours)]
            if with_length:
                row.append("" if c.network_length is None else _fnum(c.network_length))
            w.writerow(row)
    with open(os.path.join(directory, MUNICIPALITIES_FILE), "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(_MUN_HEADER)
        for m in instance.municipalities:
            w.writerow([m.municipality_id, m.name, _fnum(m.population), m.region_tag,
                        m.state_id, _fnum(m.area)])
    with open(os.path.join(directory, EXISTING_FILE), "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(_EXISTING_HEADER)
        for t in instance.existing:
            w.writerow([t.turbine_id, t.municipality_id, _fnum(t.lat), _fnum(t.lon),
                        _fnum(t.capacity)])
    with open(os.path.join(directory, TRANSFORMERS_FILE), "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(_TRANSFORMER_HEADER)
        for t in instance.transformers:
            w.writerow([t.transformer_id, _fnum(t.lat), _fnum(t.lon), t.voltage_kv])


def with_network_lengths(instance: Instance, lengths: dict[int, float]) -> Instance:
    """New Instance whose candidates carry the given network lengths (km)."""
    cands = [replace(c, network_length=lengths[c.site_id]) if c.site_id in lengths else c
             for c in instance.candidates]
    return Instance(candidates=cands, municipalities=instance.municipalities,
                    existing=instance.existing, transformers=instance.transformers,
                    metadata=instance.metadata)
