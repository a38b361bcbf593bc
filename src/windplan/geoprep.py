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
from dataclasses import dataclass

import numpy as np

from .domain import (CandidateSite, Instance, PlanError, Transformer, ValidationError,
                     with_network_lengths)

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


def _marked(points, targets, cut: Callable[[np.ndarray], np.ndarray | float],
            ) -> Iterator[tuple[int, int]]:
    """(point index, target index) pairs whose dot product reaches cut(dots).

    `dots` is a block of point-by-target dot products, about 2**16 of
    them (512 KB) so that a block stays in cache; pairs come in
    ascending point order.
    """
    p = _unit([q.lat for q in points], [q.lon for q in points])
    t = _unit([q.lat for q in targets], [q.lon for q in targets])
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


def exclusion_filter(candidates: list[CandidateSite], existing,
                     buffer_diameter_m: float = DEFAULT_BUFFER_DIAMETER_M,
                     ) -> tuple[list[CandidateSite], ExclusionReport]:
    """Drop candidates closer than buffer_diameter_m / 2 to any existing turbine.

    Distance exactly equal to the radius keeps the candidate (interior
    exclusion). Output order follows the input candidate order.
    """
    if not (math.isfinite(buffer_diameter_m) and buffer_diameter_m > 0):
        raise ValidationError(
            f"buffer diameter must be a positive finite number of meters, got {buffer_diameter_m}")
    radius_km = buffer_diameter_m / 2000.0
    total_cap = sum(c.capacity for c in candidates)
    if not existing:
        return list(candidates), ExclusionReport(0, 0.0, 0.0, 0.0)

    # a radius past half the circumference reaches every point
    cut = math.cos(min(radius_km / EARTH_RADIUS_KM, math.pi)) - _DOT_SLACK
    inside: set[int] = set()
    for i, j in _marked(candidates, existing, lambda dots: cut):
        c, t = candidates[i], existing[j]
        if i not in inside and haversine_km(c.lat, c.lon, t.lat, t.lon) < radius_km:
            inside.add(i)
    kept: list[CandidateSite] = []
    excluded_count = 0
    excluded_cap = 0.0
    for i, c in enumerate(candidates):
        if i in inside:
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
    if not transformers:
        raise PlanError("no transformers available for network-length computation")
    best: dict[int, tuple[float, int]] = {}
    for i, j in _marked(candidates, transformers,
                        lambda dots: dots.max(axis=1, keepdims=True) - _DOT_SLACK):
        c, t = candidates[i], transformers[j]
        hit = (haversine_km(c.lat, c.lon, t.lat, t.lon), t.transformer_id)
        if i not in best or hit < best[i]:
            best[i] = hit
    lengths = {candidates[i].site_id: d for i, (d, _) in best.items()}
    nearest_ids = {candidates[i].site_id: tid for i, (_, tid) in best.items()}
    return lengths, nearest_ids


def nearest_transformer_bruteforce(candidates, transformers) -> tuple[dict[int, float], dict[int, int]]:
    """Exhaustive O(n*m) reference scan; oracle for `nearest_transformer`."""
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
