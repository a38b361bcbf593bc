"""Serialization shared by the CLI: GeoJSON, run manifests, result CSVs.

Formats are CSV, JSON and GeoJSON only. Floats are written with repr()
so identical runs produce byte-identical files; wall-clock timings live
in the run manifest, never in result files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import weakref
from dataclasses import asdict

from . import __version__
from .domain import Instance, SiteTable, ValidationError, csv_error, file_sha256, write_csv
from .metrics import RADAR_AXES, RadarValues
from .scenarios import ScenarioResult
from .solver import Means, ParetoFront, Selection, Totals

MANIFEST_FILE = "run_manifest.json"
# one selection record: the selection CSV header and the GeoJSON properties
_SELECTION_FIELDS = ("site_id", "municipality_id", "capacity_mw", "lcoe", "scenicness",
                     "network_length_km")
# what a failed scenario's results.csv row reads: no sites and every figure 0.0
_NO_SELECTION = Selection((), 0.0, Totals(0.0, 0.0, 0.0, 0.0), Means(0.0, 0.0, 0.0, 0.0), 0.0, 0.0)


# one Point feature in the layout of json.dump(..., indent=1); the %s slots
# take lon, lat and the _SELECTION_FIELDS values as JSON literals
_FEATURE = """  {
   "type": "Feature",
   "geometry": {
    "type": "Point",
    "coordinates": [
     %s,
     %s
    ]
   },
   "properties": {
""" + ",\n".join(f'    "{name}": %s' for name in _SELECTION_FIELDS) + """
   }
  }"""


def _literals(sites: SiteTable, rows: list[int]) -> list[tuple[str, ...]]:
    """The JSON literals of each row's lon, lat and _SELECTION_FIELDS values:
    repr() of a finite float is its JSON literal, and a missing network
    length is null."""
    lits = [list(map(repr, col[rows].tolist())) for col in (
        sites.lon, sites.lat, sites.ids, sites.mun, sites.caps, sites.lcoe, sites.scenicness)]
    lits.append(["null" if math.isnan(x) else repr(x)
                 for x in sites.network_length[rows].tolist()])
    return list(zip(*lits))


# per SiteTable, the feature text of each row, None until a selection holds it;
# the table's columns are read-only, so a text never goes stale
_FEATURES: weakref.WeakKeyDictionary[SiteTable, list[str | None]] = weakref.WeakKeyDictionary()


def _features(selection: Selection, instance: Instance) -> list[str]:
    """The feature text of each selected site, in selection order; each row
    of a table is formatted once, the first time a selection holds it."""
    sites = instance.sites
    rows = sites.rows(selection.site_ids).tolist()
    features = _FEATURES.setdefault(sites, [None] * len(sites))
    new = sorted({r for r in rows if features[r] is None})
    for r, lits in zip(new, _literals(sites, new)):
        features[r] = _FEATURE % lits
    return [features[r] for r in rows]


def write_geojson(selection: Selection, instance: Instance, path: str) -> None:
    """Selection as a GeoJSON FeatureCollection of Point features.

    The text is what json.dump(doc, f, indent=1) writes for the document,
    built from a per-feature template (`_features`).
    """
    features = ",\n".join(_features(selection, instance))
    body = f"[\n{features}\n ]" if features else "[]"
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'{{\n "type": "FeatureCollection",\n "features": {body}\n}}\n')


def write_json(path: str, doc) -> None:
    """`doc` as json.dump(doc, f, indent=1) writes it, plus a newline; every
    JSON result file but the GeoJSON is written here."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def write_selection_csv(selection: Selection, instance: Instance, path: str) -> None:
    sites = instance.sites
    write_csv(path, list(_SELECTION_FIELDS), (
        [*lits[2:7], "" if lits[7] == "null" else lits[7]]
        for lits in _literals(sites, sites.rows(selection.site_ids).tolist())))


def read_selection_csv(path: str) -> list[int]:
    """Site ids of a selection CSV in file order; a missing site_id column, a
    non-integer or repeated id, text that is not UTF-8 or a row the csv module
    rejects is a ValidationError naming the file (and the line, where known)."""
    where = f"selection {path}"
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        lines: dict[int, int] = {}  # site id -> line it is on
        try:
            if "site_id" not in (reader.fieldnames or []):
                raise ValidationError(f"{where}: missing column 'site_id'")
            for r in reader:
                try:
                    sid = int(r["site_id"])
                except (TypeError, ValueError):
                    raise ValidationError(f"{where}, line {reader.line_num}: "
                                          f"site_id {r['site_id']!r} is not an integer") from None
                if sid in lines:
                    raise ValidationError(f"{where}, line {reader.line_num}: "
                                          f"duplicate site_id {sid} (first on line {lines[sid]})")
                lines[sid] = reader.line_num
        except (UnicodeDecodeError, csv.Error) as e:
            # DictReader counts a line only once its row is read
            raise csv_error(where, e, reader.reader.line_num) from None
    return list(lines)


def write_summary_json(selection: Selection, path: str) -> None:
    write_json(path, {
        "n_sites": selection.n_sites,
        "objective": selection.objective_value,
        "lower_bound": selection.lower_bound,
        "gap": selection.gap,
        "totals": asdict(selection.totals),
        "means": asdict(selection.means),
    })


def write_front_csv(front: ParetoFront, path: str) -> None:
    write_csv(path, ["step", "cap", "achieved_min", "gap"],
              ([p.step, repr(p.cap), repr(p.achieved_min), repr(p.gap)] for p in front.points))


def _results_row(r: ScenarioResult) -> list:
    sel = r.selection or _NO_SELECTION
    return [r.name, repr(r.weights.w_c), repr(r.weights.w_s), repr(r.weights.w_l),
            int(r.equity), repr(r.total_capacity_mw), repr(r.added_target_mw), sel.n_sites,
            repr(sel.means.lcoe), repr(sel.means.scenicness),
            repr(sel.means.network_length_km), repr(r.equity_pct), repr(r.south_quota_pct),
            repr(sel.objective_value), repr(sel.lower_bound), repr(sel.gap), r.error or ""]


def write_results_csv(results: list[ScenarioResult], path: str) -> None:
    write_csv(path, ["name", "w_c", "w_s", "w_l", "equity", "total_capacity_mw",
                     "added_target_mw", "n_sites", "mean_lcoe", "mean_scenicness",
                     "mean_network_length_km", "equity_pct", "south_quota_pct",
                     "objective", "lower_bound", "gap", "error"],
              map(_results_row, results))


def write_radar_csv(radar: RadarValues, path: str) -> None:
    write_csv(path, ["name", *RADAR_AXES],
              ([name, *(repr(radar.values[name][a]) for a in RADAR_AXES)]
               for name in sorted(radar.values)))


def write_manifest(out_dir: str, inputs: list[str], config: dict,
                   timings_s: dict[str, float], stats: dict | None = None,
                   digests: dict[str, str] | None = None) -> None:
    """run_manifest.json; `stats` (solver statistics) is written only when
    given. An input whose path is in `digests` (as `read_instance` fills
    it) takes its hex sha256 from there instead of being hashed again."""
    digests = digests or {}
    doc = {
        "tool_version": __version__,
        "inputs": {os.path.basename(p): digests.get(p) or file_sha256(p)
                   for p in sorted(inputs) if os.path.isfile(p)},
        "config": config,
        "timings_s": timings_s,
        "warnings": [],
    }
    if stats is not None:
        doc["stats"] = stats
    write_json(os.path.join(out_dir, MANIFEST_FILE), doc)
