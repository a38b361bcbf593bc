"""Output checker for the windplan benchmark.

It uses csv, json and numpy only and never imports windplan, so a fault in
the program cannot hide in the check. Every check recomputes its figure
from the instance CSVs and the result files the CLI wrote:

- ingest: site and municipality counts; the prepped candidates are the raw
  ones minus exactly those within the exclusion radius of an existing
  turbine; every network length is the distance to the nearest transformer.
- grid: every builtin scenario is present without error; its selection
  GeoJSON names real sites with their instance values and covers the added
  target (total x scale - existing capacity); on `_E` rows the
  population-share floors, clamped to municipal potential, are met;
  lower_bound <= objective and 0 <= gap <= GAP_MAX.
- front: the sweep is not truncated, caps shrink by the step factor,
  achieved_min does not decrease and 0 <= gap <= GAP_MAX.

Each violation marks the operation it belongs to as failed. Float fields
written as `np.float64(...)` are parsed and counted in `malformed_floats`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re

import numpy as np

EARTH_RADIUS_KM = 6371.0088
TOL = 1e-9
GAP_MAX = 0.05
MANIFEST_FILE = "run_manifest.json"
# builtin scenario grid: name -> national total (MW) before scaling
BUILTIN_TOTALS = {
    f"{level}_{crit}{suffix}": total
    for level, total, crits in (("Base", 105_000.0, ("LCOE", "Scenic", "Network", "all")),
                                ("High", 200_000.0, ("LCOE", "Scenic", "Network")))
    for crit in crits for suffix in ("", "_E")
}
_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


def _close(a: float, b: float, rel: float = TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


class Report:
    """Operations attempted, violations found and figures read off the outputs."""

    def __init__(self):
        self.ops: dict[str, bool] = {}  # operation -> failed
        self.violations: list[str] = []
        self.malformed_floats = 0
        self.gaps: list[float] = []
        self.sizes: dict[str, int] = {}

    def op(self, name: str) -> None:
        self.ops.setdefault(name, False)

    def fail(self, name: str, message: str) -> None:
        self.ops[name] = True
        self.violations.append(f"{name}: {message}")

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(self.ops.values())

    def parse_float(self, op: str, field: str, text: str) -> float:
        m = _NP_FLOAT.match(text)
        if m:
            self.malformed_floats += 1
            text = m.group(1)
        try:
            return float(text)
        except ValueError:
            self.fail(op, f"{field}: unparsable number {text!r}")
            return math.nan


# -- instance --------------------------------------------------------------

def _columns(path: str, names: list[str], optional: tuple[str, ...] = ()
             ) -> dict[str, tuple[str, ...]]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    cols = list(zip(*rows)) if rows else [()] * len(header)
    missing = [n for n in names if n not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    return {n: cols[header.index(n)] for n in (*names, *optional) if n in header}


def _floats(col) -> np.ndarray:
    if "" not in col:
        return np.array(col, dtype=float)
    return np.array([float(x) if x != "" else np.nan for x in col], dtype=float)


class Instance:
    """Instance CSVs as numpy columns, candidates sorted by site id."""

    def __init__(self, directory: str):
        c = _columns(os.path.join(directory, "candidates.csv"),
                     ["site_id", "municipality_id", "lat", "lon", "capacity_mw"],
                     optional=("network_length_km",))
        order = np.argsort(np.array(c["site_id"], dtype=np.int64), kind="stable")
        self.site_id = np.array(c["site_id"], dtype=np.int64)[order]
        self.site_mun = np.array(c["municipality_id"], dtype=np.int64)[order]
        self.lat = _floats(c["lat"])[order]
        self.lon = _floats(c["lon"])[order]
        self.cap = _floats(c["capacity_mw"])[order]
        self.network_length = (_floats(c["network_length_km"])[order]
                               if "network_length_km" in c else None)
        m = _columns(os.path.join(directory, "municipalities.csv"),
                     ["municipality_id", "population"])
        self.mun_id = np.array(m["municipality_id"], dtype=np.int64)
        self.population = _floats(m["population"])
        e = _columns(os.path.join(directory, "existing.csv"),
                     ["municipality_id", "lat", "lon", "capacity_mw"])
        self.ex_mun = np.array(e["municipality_id"], dtype=np.int64)
        self.ex_lat, self.ex_lon = _floats(e["lat"]), _floats(e["lon"])
        self.ex_cap = _floats(e["capacity_mw"])
        t = _columns(os.path.join(directory, "transformers.csv"), ["lat", "lon"])
        self.tr_lat, self.tr_lon = _floats(t["lat"]), _floats(t["lon"])

    def mun_index(self, ids: np.ndarray) -> np.ndarray:
        order = np.argsort(self.mun_id)
        pos = np.searchsorted(self.mun_id, ids, sorter=order)
        return order[np.clip(pos, 0, len(order) - 1)]

    def per_municipality(self, mun_ids: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.mun_index(mun_ids), weights=values,
                           minlength=len(self.mun_id))

    def site_index(self, ids: np.ndarray) -> np.ndarray:
        """Row of each site id, -1 where the id is unknown."""
        pos = np.clip(np.searchsorted(self.site_id, ids), 0, len(self.site_id) - 1)
        return np.where(self.site_id[pos] == ids, pos, -1)


# -- geometry --------------------------------------------------------------

def _unit(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    phi, lam = np.radians(lat), np.radians(lon)
    return np.stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)], 1)


def nearest_km(lat, lon, to_lat, to_lon, chunk: int = 2048) -> np.ndarray:
    """Great-circle km from each point to the nearest target.

    The nearest target has the largest dot product of unit vectors; the
    distance is taken from the chord to it, which keeps full precision
    at short range.
    """
    p, t = _unit(lat, lon), _unit(to_lat, to_lon)
    out = np.empty(len(p))
    for s in range(0, len(p), chunk):
        block = p[s:s + chunk]
        j = np.argmax(block @ t.T, axis=1)
        chord = np.linalg.norm(block - t[j], axis=1)
        out[s:s + chunk] = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, chord / 2.0))
    return out


# -- checks ----------------------------------------------------------------

def check_ingest(raw_dir: str, prep_dir: str, n_sites: int, n_municipalities: int,
                 buffer_m: float, rep: Report) -> None:
    rep.op("synth")
    rep.op("prep")
    raw = Instance(raw_dir)
    rep.sizes.update(sites_generated=len(raw.site_id), municipalities=len(raw.mun_id))
    if len(raw.site_id) != n_sites:
        rep.fail("synth", f"{len(raw.site_id)} sites generated, spec asks {n_sites}")
    if len(raw.mun_id) != n_municipalities:
        rep.fail("synth", f"{len(raw.mun_id)} municipalities, spec asks {n_municipalities}")
    if len(np.unique(raw.site_id)) != len(raw.site_id):
        rep.fail("synth", "duplicate site ids")

    prep = Instance(prep_dir)
    rep.sizes["sites_after_exclusion"] = len(prep.site_id)
    with open(os.path.join(prep_dir, "exclusion_report.json"), encoding="utf-8") as f:
        excluded_count = json.load(f)["excluded_count"]
    if len(prep.site_id) != len(raw.site_id) - excluded_count:
        rep.fail("prep", f"{len(prep.site_id)} sites kept, expected "
                         f"{len(raw.site_id)} - {excluded_count}")
    if not np.array_equal(prep.mun_id, raw.mun_id):
        rep.fail("prep", "municipality table changed")
    rows = raw.site_index(prep.site_id)
    if np.any(rows < 0):
        rep.fail("prep", f"{int(np.sum(rows < 0))} prepped sites not in the raw instance")
        return
    for name in ("site_mun", "lat", "lon", "cap"):
        if not np.array_equal(getattr(prep, name), getattr(raw, name)[rows]):
            rep.fail("prep", f"candidate column {name} changed by prep")

    # exclusion: dropped exactly when closer than the radius to a turbine
    radius_km = buffer_m / 2000.0
    d_ex = nearest_km(raw.lat, raw.lon, raw.ex_lat, raw.ex_lon)
    kept = np.zeros(len(raw.site_id), dtype=bool)
    kept[rows] = True
    clear = np.abs(d_ex - radius_km) > 1e-9
    wrong = clear & (kept != (d_ex >= radius_km))
    if np.any(wrong):
        rep.fail("prep", f"{int(wrong.sum())} sites kept or excluded against the "
                         f"{radius_km} km radius")

    # network length: km to the nearest transformer
    nl = prep.network_length
    if nl is None or not np.all(np.isfinite(nl)) or np.any(nl < 0):
        rep.fail("prep", "network_length_km missing or negative")
        return
    d_tr = nearest_km(prep.lat, prep.lon, prep.tr_lat, prep.tr_lon)
    off = np.abs(nl - d_tr) > 1e-6 * np.maximum(1.0, d_tr)
    if np.any(off):
        rep.fail("prep", f"{int(off.sum())} network lengths differ from the nearest "
                         f"transformer distance")


def _read_rows(path: str, op: str, rep: Report) -> list[dict[str, str]] | None:
    if not os.path.isfile(path):
        rep.fail(op, f"missing {os.path.basename(path)}")
        return None
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _read_selection(path: str, inst: Instance, op: str, rep: Report) -> np.ndarray | None:
    """Rows of the instance selected by a GeoJSON, after checking its features."""
    if not os.path.isfile(path):
        rep.fail(op, f"missing {os.path.basename(path)}")
        return None
    with open(path, encoding="utf-8") as f:
        features = json.load(f)["features"]
    props = [ft["properties"] for ft in features]
    ids = np.array([p["site_id"] for p in props], dtype=np.int64)
    if len(np.unique(ids)) != len(ids):
        rep.fail(op, "selection repeats a site")
    rows = inst.site_index(ids)
    if np.any(rows < 0):
        rep.fail(op, f"{int(np.sum(rows < 0))} selected sites not in the instance")
        return rows[rows >= 0]
    cap = np.array([p["capacity_mw"] for p in props], dtype=float)
    mun = np.array([p["municipality_id"] for p in props], dtype=np.int64)
    coords = np.array([ft["geometry"]["coordinates"] for ft in features], dtype=float)
    if (not np.array_equal(cap, inst.cap[rows]) or not np.array_equal(mun, inst.site_mun[rows])
            or (len(rows) and not np.array_equal(coords, np.stack([inst.lon[rows],
                                                                    inst.lat[rows]], 1)))):
        rep.fail(op, "selected site properties differ from the instance")
    return rows


def check_grid(inst: Instance, out_dir: str, scale: float, rep: Report) -> None:
    rep.op("scenarios")
    rows = _read_rows(os.path.join(out_dir, "results.csv"), "scenarios", rep)
    if rows is None:
        return
    names = [r["name"] for r in rows]
    if sorted(names) != sorted(BUILTIN_TOTALS):
        rep.fail("scenarios", f"scenario rows {names} are not the builtin grid")
    if not os.path.isfile(os.path.join(out_dir, "radar.csv")):
        rep.fail("scenarios", "missing radar.csv")
    existing_total = float(np.sum(inst.ex_cap))
    existing_mun = inst.per_municipality(inst.ex_mun, inst.ex_cap)
    potential = inst.per_municipality(inst.site_mun, inst.cap)
    pop_share = inst.population / float(np.sum(inst.population))
    for r in rows:
        op = f"scenario:{r['name']}"
        rep.op(op)
        if r["error"]:
            rep.fail(op, f"error {r['error']!r}")
            continue
        num = {k: rep.parse_float(op, k, r[k])
               for k in ("total_capacity_mw", "added_target_mw", "objective",
                         "lower_bound", "gap")}
        total, added = num["total_capacity_mw"], num["added_target_mw"]
        expected_total = BUILTIN_TOTALS.get(r["name"], math.nan) * scale
        if not _close(total, expected_total):
            rep.fail(op, f"total {total} MW, expected {expected_total}")
        if not _close(added, total - existing_total):
            rep.fail(op, f"added target {added} MW, expected {total - existing_total}")
        obj, lb, gap = num["objective"], num["lower_bound"], num["gap"]
        if not lb <= obj + TOL * max(1.0, abs(obj)):
            rep.fail(op, f"lower bound {lb} above objective {obj}")
        if not 0.0 <= gap <= GAP_MAX:
            rep.fail(op, f"gap {gap} outside [0, {GAP_MAX}]")
        rep.gaps.append(gap)

        sel = _read_selection(os.path.join(out_dir, f"selection_{r['name']}.geojson"),
                              inst, op, rep)
        if sel is None:
            continue
        if len(sel) != int(r["n_sites"]):
            rep.fail(op, f"{len(sel)} sites in the GeoJSON, {r['n_sites']} in results.csv")
        installed = float(np.sum(inst.cap[sel]))
        if installed < added - TOL * max(1.0, added):
            rep.fail(op, f"installs {installed} MW, below the added target {added} MW")
        if r["equity"] == "1":
            floors = np.clip(pop_share * total - existing_mun, 0.0, potential)
            got = inst.per_municipality(inst.site_mun[sel], inst.cap[sel])
            short = got < floors - TOL * np.maximum(1.0, floors)
            if np.any(short):
                rep.fail(op, f"{int(short.sum())} municipalities below their equity floor")


def check_front(out_dir: str, steps: int, factor: float, rep: Report) -> None:
    rep.op("sweep")
    rows = _read_rows(os.path.join(out_dir, "front.csv"), "sweep", rep)
    if rows is None:
        return
    if len(rows) != steps:
        rep.fail("sweep", f"front has {len(rows)} of {steps} points (truncated)")
    prev = None
    cap0 = None
    for k, r in enumerate(rows):
        op = f"point:{k}"
        rep.op(op)
        cap = rep.parse_float(op, "cap", r["cap"])
        achieved = rep.parse_float(op, "achieved_min", r["achieved_min"])
        gap = rep.parse_float(op, "gap", r["gap"])
        if r["step"] != str(k):
            rep.fail(op, f"step {r['step']!r} at row {k}")
        cap0 = cap if cap0 is None else cap0
        if not _close(cap, cap0 * factor ** k):
            rep.fail(op, f"cap {cap}, expected {cap0} * {factor}^{k}")
        if prev is not None and achieved < prev - TOL * max(1.0, abs(prev)):
            rep.fail(op, f"achieved_min {achieved} below the looser cap's {prev}")
        if not 0.0 <= gap <= GAP_MAX:
            rep.fail(op, f"gap {gap} outside [0, {GAP_MAX}]")
        rep.gaps.append(gap)
        prev = achieved


def digests(out_dirs: dict[str, str]) -> dict[str, str]:
    """sha256 of every result file except the run manifest, by label/file."""
    out = {}
    for label, directory in sorted(out_dirs.items()):
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if name == MANIFEST_FILE or not os.path.isfile(path):
                continue
            h = hashlib.sha256()
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    h.update(block)
            out[f"{label}/{name}"] = h.hexdigest()
    return out
