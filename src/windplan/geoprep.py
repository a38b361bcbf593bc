"""Geometric preprocessing.

Exclusion of candidates that conflict with the existing turbine stock
(no-build buffers) and straight-line (great-circle) network length to
the nearest transformer. A uniform lat/lon grid index keeps both
operations near-linear while staying exactly equal to the exhaustive
scan; exactness is enforced by the oracle tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import CandidateSite, Instance, PlanError, Transformer, with_network_lengths

EARTH_RADIUS_KM = 6371.0088
KM_PER_DEG = math.pi * EARTH_RADIUS_KM / 180.0  # meridian km per degree

DEFAULT_BUFFER_DIAMETER_M = 1088.0


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km on a sphere of mean radius 6371.0088 km."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = p2 - p1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


class SpatialIndex:
    """Uniform lat/lon grid over a point set.

    Cell size is chosen by the caller; for fixed-radius queries it must
    span at least the query radius at the highest indexed latitude so
    that inspecting a cell and its 8 neighbors is sufficient. Nearest
    queries expand rings outward until the ring's conservative distance
    lower bound exceeds the best hit, so they are exact for any cell
    size.
    """

    def __init__(self, points: list[tuple[int, float, float]], cell_deg: float):
        if cell_deg <= 0:
            raise ValueError("cell_deg must be positive")
        self.cell_deg = cell_deg
        self.cells: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
        max_abs_lat = 0.0
        for pid, lat, lon in points:
            key = (int(math.floor(lat / cell_deg)), int(math.floor(lon / cell_deg)))
            self.cells.setdefault(key, []).append((pid, lat, lon))
            max_abs_lat = max(max_abs_lat, abs(lat))
        for bucket in self.cells.values():
            bucket.sort()
        self.max_abs_lat = max_abs_lat
        self.n_points = len(points)
        if self.cells:
            keys = list(self.cells)
            self._i_bounds = (min(k[0] for k in keys), max(k[0] for k in keys))
            self._j_bounds = (min(k[1] for k in keys), max(k[1] for k in keys))
        else:
            self._i_bounds = self._j_bounds = (0, 0)

    def _cos_floor(self, query_lat: float) -> float:
        # conservative cos(lat) over indexed points and the query point
        lat = min(89.9, max(abs(query_lat), self.max_abs_lat))
        return math.cos(math.radians(lat))

    def query_radius(self, lat: float, lon: float, radius_km: float) -> list[tuple[int, float]]:
        """All (id, distance) with distance < radius_km, id-sorted.

        Requires one cell to span at least radius_km in both axes at the
        relevant latitude (checked).
        """
        span_km = self.cell_deg * KM_PER_DEG * self._cos_floor(lat)
        if span_km < radius_km - 1e-12:
            raise ValueError(
                f"cell size {self.cell_deg} deg spans {span_km:.3f} km < radius {radius_km} km")
        ci = int(math.floor(lat / self.cell_deg))
        cj = int(math.floor(lon / self.cell_deg))
        hits = []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for pid, plat, plon in self.cells.get((ci + di, cj + dj), ()):
                    d = haversine_km(lat, lon, plat, plon)
                    if d < radius_km:
                        hits.append((pid, d))
        hits.sort()
        return hits

    def nearest(self, lat: float, lon: float) -> tuple[int, float]:
        """(id, distance_km) of the nearest indexed point; ties to lowest id."""
        if not self.cells:
            raise PlanError("spatial index is empty")
        ci = int(math.floor(lat / self.cell_deg))
        cj = int(math.floor(lon / self.cell_deg))
        cosf = self._cos_floor(lat)
        best_d = math.inf
        best_id = -1
        # rings past the occupied cell extent cannot contain points
        max_ring = max(abs(ci - self._i_bounds[0]), abs(ci - self._i_bounds[1]),
                       abs(cj - self._j_bounds[0]), abs(cj - self._j_bounds[1]))
        ring = 0
        while ring <= max_ring:
            lower = max(0, ring - 1) * self.cell_deg * KM_PER_DEG * cosf
            if best_id >= 0 and lower > best_d:
                break
            for di in range(-ring, ring + 1):
                djs = (-ring, ring) if abs(di) != ring else range(-ring, ring + 1)
                for dj in djs:
                    bucket = self.cells.get((ci + di, cj + dj))
                    if not bucket:
                        continue
                    for pid, plat, plon in bucket:
                        d = haversine_km(lat, lon, plat, plon)
                        if d < best_d or (d == best_d and pid < best_id):
                            best_d, best_id = d, pid
            ring += 1
        return best_id, best_d


@dataclass
class ExclusionReport:
    excluded_count: int
    excluded_capacity_mw: float
    excluded_share_count: float
    excluded_share_capacity: float


def _pick_cell_deg(radius_km: float, max_abs_lat: float) -> float:
    cosf = math.cos(math.radians(min(89.9, max_abs_lat)))
    return radius_km / (KM_PER_DEG * cosf) * 1.001


def exclusion_filter(candidates: list[CandidateSite], existing,
                     buffer_diameter_m: float = DEFAULT_BUFFER_DIAMETER_M,
                     ) -> tuple[list[CandidateSite], ExclusionReport]:
    """Drop candidates closer than buffer_diameter_m / 2 to any existing turbine.

    Distance exactly equal to the radius keeps the candidate (interior
    exclusion). Output order follows the input candidate order.
    """
    if buffer_diameter_m <= 0:
        raise ValueError("buffer_diameter_m must be positive")
    radius_km = buffer_diameter_m / 2000.0
    total_cap = sum(c.capacity for c in candidates)
    if not existing:
        return list(candidates), ExclusionReport(0, 0.0, 0.0, 0.0)

    max_abs_lat = max(max(abs(c.lat) for c in candidates),
                      max(abs(t.lat) for t in existing))
    cell_deg = _pick_cell_deg(radius_km, max_abs_lat)
    index = SpatialIndex([(t.turbine_id, t.lat, t.lon) for t in existing], cell_deg)

    kept: list[CandidateSite] = []
    excluded_count = 0
    excluded_cap = 0.0
    for c in candidates:
        if index.query_radius(c.lat, c.lon, radius_km):
            excluded_count += 1
            excluded_cap += c.capacity
        else:
            kept.append(c)
    n = len(candidates)
    report = ExclusionReport(
        excluded_count=excluded_count,
        excluded_capacity_mw=excluded_cap,
        excluded_share_count=excluded_count / n if n else 0.0,
        excluded_share_capacity=excluded_cap / total_cap if total_cap else 0.0,
    )
    return kept, report


def nearest_transformer(candidates: list[CandidateSite],
                        transformers: list[Transformer],
                        ) -> tuple[dict[int, float], dict[int, int]]:
    """Straight-line km to the nearest transformer for every candidate.

    Returns (site_id -> length_km, site_id -> transformer_id). Ties go to
    the lowest transformer_id. Fails hard on an empty transformer set.
    """
    lons = [t.lon for t in transformers] + [c.lon for c in candidates]
    # the grid index does not wrap at +-180 degrees; the scan handles 0 or 1 transformers
    if len(transformers) <= 1 or (max(lons) - min(lons)) > 180.0:
        return nearest_transformer_bruteforce(candidates, transformers)
    # cell ~ expected nearest-neighbor spacing keeps ring walks short
    lat_span = max(t.lat for t in transformers) - min(t.lat for t in transformers)
    lon_span = max(t.lon for t in transformers) - min(t.lon for t in transformers)
    extent = max(lat_span, lon_span, 1e-6)
    cell_deg = max(extent / max(1.0, math.sqrt(len(transformers))), 1e-6)
    index = SpatialIndex([(t.transformer_id, t.lat, t.lon) for t in transformers], cell_deg)
    lengths: dict[int, float] = {}
    nearest_ids: dict[int, int] = {}
    for c in candidates:
        tid, d = index.nearest(c.lat, c.lon)
        lengths[c.site_id] = d
        nearest_ids[c.site_id] = tid
    return lengths, nearest_ids


def nearest_transformer_bruteforce(candidates, transformers) -> tuple[dict[int, float], dict[int, int]]:
    """Exhaustive O(n*m) reference scan; oracle for the indexed path."""
    if not transformers:
        raise PlanError("no transformers available for network-length computation")
    lengths, nearest_ids = {}, {}
    for c in candidates:
        best = min((haversine_km(c.lat, c.lon, t.lat, t.lon), t.transformer_id)
                   for t in transformers)
        lengths[c.site_id] = best[0]
        nearest_ids[c.site_id] = best[1]
    return lengths, nearest_ids


def prep_instance(instance: Instance,
                  buffer_diameter_m: float = DEFAULT_BUFFER_DIAMETER_M,
                  ) -> tuple[Instance, ExclusionReport]:
    """Exclusion filter + nearest-transformer lengths, as a new Instance."""
    kept, report = exclusion_filter(instance.candidates, instance.existing, buffer_diameter_m)
    filtered = Instance(candidates=kept, municipalities=instance.municipalities,
                        existing=instance.existing, transformers=instance.transformers,
                        metadata=instance.metadata)
    lengths, _ = nearest_transformer(kept, instance.transformers)
    return with_network_lengths(filtered, lengths), report
