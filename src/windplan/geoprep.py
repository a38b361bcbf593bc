"""Geometric preprocessing.

Exclusion of candidates that conflict with the existing turbine stock
(no-build buffers) and straight-line (great-circle) network length to
the nearest transformer.

Both queries scan every target, a block of candidate rows at a time:
points become unit vectors and one matrix product gives the dot
products of a block with all targets. A larger dot means a shorter
arc, and unit vectors wrap at +-180 degrees and at the poles, so the
dot products only mark the targets that might answer the query;
`haversine_km` decides among them. A target is marked when its dot
reaches the cut minus `_DOT_SLACK` (1e-12). The computed dots are off
by about 1e-16 and the rounding of `haversine_km` moves a distance by
less than 1e-14 in dot terms, so the slack never drops a target that
the exhaustive scan could choose, whatever the BLAS rounding or
threading; the result equals the scan, which the oracle tests check.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .domain import (ExistingTurbine, Instance, PlanError, SiteTable, Transformer,
                     ValidationError, with_network_lengths)

EARTH_RADIUS_KM = 6371.0088

DEFAULT_BUFFER_DIAMETER_M = 1088.0

_DOT_SLACK = 1e-12


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km on a sphere of mean radius 6371.0088 km."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = p2 - p1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def _unit(lat, lon) -> np.ndarray:
    """(n, 3) unit vectors of points given in degrees."""
    phi, lam = np.radians(lat), np.radians(lon)
    return np.stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)], 1)


def _marked(lat, lon, t_lat, t_lon, cut: Callable[[np.ndarray], np.ndarray | float],
            ) -> Iterator[tuple[int, int]]:
    """(point index, target index) pairs whose dot product reaches cut(dots),
    for points and targets given as lat/lon arrays in degrees.

    `dots` is a block of point-by-target dot products, about 2**16 of
    them (512 KB) so that a block stays in cache; pairs come in
    ascending point order.
    """
    p = _unit(lat, lon)
    t = _unit(t_lat, t_lon)
    height = max(1, 2**16 // len(t))
    for start in range(0, len(p), height):
        dots = p[start:start + height] @ t.T
        rows, cols = np.divmod(np.flatnonzero(dots >= cut(dots)), len(t))
        yield from zip((rows + start).tolist(), cols.tolist())


@dataclass
class ExclusionReport:
    excluded_count: int
    excluded_capacity_mw: float
    excluded_share_count: float
    excluded_share_capacity: float


def exclusion_filter(candidates: SiteTable, existing: list[ExistingTurbine],
                     buffer_diameter_m: float = DEFAULT_BUFFER_DIAMETER_M,
                     ) -> tuple[SiteTable, ExclusionReport]:
    """Drop candidates closer than buffer_diameter_m / 2 to any existing turbine.

    Distance exactly equal to the radius keeps the candidate (interior
    exclusion). Returns the table of kept rows and the report, whose
    capacity sums run in site-id order.
    """
    if not (math.isfinite(buffer_diameter_m) and buffer_diameter_m > 0):
        raise ValidationError(
            f"buffer diameter must be a positive finite number of meters, got {buffer_diameter_m}")
    radius_km = buffer_diameter_m / 2000.0
    if not existing:
        return candidates, ExclusionReport(0, 0.0, 0.0, 0.0)

    # a radius past half the circumference reaches every point
    cut = math.cos(min(radius_km / EARTH_RADIUS_KM, math.pi)) - _DOT_SLACK
    lat, lon = candidates.lat.tolist(), candidates.lon.tolist()
    t_lat, t_lon = [t.lat for t in existing], [t.lon for t in existing]
    inside = np.zeros(len(candidates), dtype=bool)
    for i, j in _marked(lat, lon, t_lat, t_lon, lambda dots: cut):
        if not inside[i] and haversine_km(lat[i], lon[i], t_lat[j], t_lon[j]) < radius_km:
            inside[i] = True
    excluded_count = int(inside.sum())
    excluded_cap = sum(candidates.caps[inside].tolist())
    total_cap = sum(candidates.caps.tolist())
    n = len(candidates)
    report = ExclusionReport(
        excluded_count=excluded_count,
        excluded_capacity_mw=excluded_cap,
        excluded_share_count=excluded_count / n if n else 0.0,
        excluded_share_capacity=excluded_cap / total_cap if total_cap else 0.0,
    )
    return candidates.take(np.flatnonzero(~inside)), report


def nearest_transformer(candidates: SiteTable, transformers: list[Transformer],
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Straight-line km to the nearest transformer for every candidate.

    Returns per-row arrays (length_km, transformer_id). Ties go to the
    lowest transformer_id. Fails hard on an empty transformer set.
    """
    if not transformers:
        raise PlanError("no transformers available for network-length computation")
    lat, lon = candidates.lat.tolist(), candidates.lon.tolist()
    t_lat, t_lon = [t.lat for t in transformers], [t.lon for t in transformers]
    t_ids = [t.transformer_id for t in transformers]
    best = [(math.inf, 0)] * len(candidates)
    for i, j in _marked(lat, lon, t_lat, t_lon,
                        lambda dots: dots.max(axis=1, keepdims=True) - _DOT_SLACK):
        hit = (haversine_km(lat[i], lon[i], t_lat[j], t_lon[j]), t_ids[j])
        if hit < best[i]:
            best[i] = hit
    return (np.array([d for d, _ in best], dtype=float),
            np.array([tid for _, tid in best], dtype=np.int64))


def nearest_transformer_bruteforce(candidates: SiteTable, transformers: list[Transformer],
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive O(n*m) reference scan; oracle for `nearest_transformer`."""
    if not transformers:
        raise PlanError("no transformers available for network-length computation")
    lengths, nearest_ids = [], []
    for lat, lon in zip(candidates.lat.tolist(), candidates.lon.tolist()):
        best = min((haversine_km(lat, lon, t.lat, t.lon), t.transformer_id)
                   for t in transformers)
        lengths.append(best[0])
        nearest_ids.append(best[1])
    return np.array(lengths, dtype=float), np.array(nearest_ids, dtype=np.int64)


def prep_instance(instance: Instance,
                  buffer_diameter_m: float = DEFAULT_BUFFER_DIAMETER_M,
                  ) -> tuple[Instance, ExclusionReport]:
    """Exclusion filter + nearest-transformer lengths, as a new Instance."""
    kept, report = exclusion_filter(instance.sites, instance.existing, buffer_diameter_m)
    lengths, _ = nearest_transformer(kept, instance.transformers)
    return with_network_lengths(replace(instance, sites=kept), lengths), report
