"""Equity, south-quota and regional aggregation statistics.

Regional equity is 1 minus the Gini index of installed capacity per
inhabitant across municipalities, in percent. Every municipality in the
instance counts toward the index; zero-population municipalities are
excluded from the per-inhabitant vector (and disclosed), since capacity
per inhabitant is undefined there. Selected sites are read through
`Instance.sites` and summed in ascending site-id order, per row of the
municipality table by one np.bincount.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .domain import Instance, PlanError

RADAR_AXES = ("mean_lcoe", "mean_scenicness", "mean_network_length_km", "equity_pct")


@dataclass
class EquityReport:
    x: dict[int, float]  # municipality -> MW per inhabitant
    gini: float
    regional_equity_pct: float
    n_municipalities: int
    excluded_zero_population: int


@dataclass
class StateStats:
    state_id: int
    turbines_per_1000_km2: float
    capacity_share_pct: float
    mean_scenicness: float | None  # None when the state has no installed sites


@dataclass
class RegionalStats:
    per_state: list[StateStats]
    south_quota_pct: float


def gini_sorted(x: np.ndarray) -> float:
    """Gini index via the sorted-form identity, O(M log M).

    Equals the pairwise double sum sum_jk |x_j - x_k| / (2 M^2 mean)
    exactly (verified against the quadratic form in the tests).
    """
    m = x.size
    if m == 0:
        raise PlanError("gini of empty vector")
    total = float(x.sum())
    if total == 0.0:
        return 0.0
    xs = np.sort(x)
    ranks = np.arange(m, dtype=float)
    abs_sum = 2.0 * float(np.sum((2.0 * ranks - m + 1.0) * xs))
    return min(max(abs_sum / (2.0 * m * m * (total / m)), 0.0), 1.0)


def gini_pairwise(x: np.ndarray) -> float:
    """Direct O(M^2) double-sum evaluation; reference implementation."""
    m = x.size
    mean = float(x.mean())
    if mean == 0.0:
        return 0.0
    return float(np.abs(x[:, None] - x[None, :]).sum()) / (2.0 * m * m * mean)


def _added_capacity(site_ids: Sequence[int], instance: Instance
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the selected sites in ascending site-id order, the
    municipality table row of each, and the MW the selection adds per
    municipality row, summed in that order. A site whose municipality is
    not in the table is left out."""
    sites, muns = instance.sites, instance.municipalities
    rows = np.sort(sites.rows(site_ids))
    at = muns.rows(sites.mun[rows])
    rows, at = rows[at >= 0], at[at >= 0]
    return rows, at, np.bincount(at, weights=sites.caps[rows], minlength=len(muns))


def regional_equity(site_ids: Sequence[int], instance: Instance) -> EquityReport:
    """Equity of the existing plus added capacity distribution.

    Pass site_ids=() to score the existing stock alone.
    """
    muns = instance.municipalities
    cap = _added_capacity(site_ids, instance)[2] + muns.existing_capacity
    counted = ~(muns.population <= 0)
    if not counted.any():
        raise PlanError("no municipality has positive population")
    per_inhabitant = cap[counted] / muns.population[counted]
    g = gini_sorted(per_inhabitant)
    return EquityReport(x=dict(zip(muns.ids[counted].tolist(), per_inhabitant.tolist())), gini=g,
                        regional_equity_pct=(1.0 - g) * 100.0,
                        n_municipalities=per_inhabitant.size,
                        excluded_zero_population=len(muns) - per_inhabitant.size)


def south_quota(site_ids: Sequence[int], instance: Instance) -> float:
    """Percent of ADDED capacity placed in municipalities tagged South; the
    per-municipality totals are added in order of their first site."""
    _, at, added = _added_capacity(site_ids, instance)
    if not at.size:
        return 0.0
    _, first = np.unique(at, return_index=True)
    at = at[np.sort(first)]  # each municipality once, in order of its first site
    south = instance.municipalities.region_tag[at] == "South"
    return 100.0 * sum(added[at][south].tolist()) / sum(added[at].tolist())


def regional_stats(site_ids: Sequence[int], instance: Instance) -> RegionalStats:
    """Per-state turbine density, capacity share and mean scenicness; the
    per-state totals are added in the order each state first appears in the
    municipality table."""
    sites, muns = instance.sites, instance.municipalities
    rows, at, _ = _added_capacity(site_ids, instance)
    states, first, state_at = np.unique(muns.state_id, return_index=True, return_inverse=True)
    area = np.bincount(state_at, weights=muns.area, minlength=states.size)
    site_state, scenic = state_at[at], sites.scenicness[rows]
    count = np.bincount(site_state, minlength=states.size)
    caps = np.bincount(site_state, weights=sites.caps[rows], minlength=states.size)
    total_cap = sum(caps[np.argsort(first)].tolist())
    per_state = [StateStats(
        state_id=s,
        turbines_per_1000_km2=n / a * 1000.0,
        capacity_share_pct=100.0 * c / total_cap if total_cap else 0.0,
        mean_scenicness=float(np.mean(scenic[site_state == k])) if n else None,
    ) for k, (s, n, a, c) in enumerate(zip(states.tolist(), count.tolist(), area.tolist(),
                                           caps.tolist()))]
    return RegionalStats(per_state=per_state,
                         south_quota_pct=south_quota(site_ids, instance))


@dataclass
class RadarValues:
    values: dict[str, dict[str, float]]  # scenario -> axis -> [0, 1]
    degenerate_axes: tuple[str, ...] = ()


def radar_values(results: dict[str, dict[str, float]],
                 norm_group: list[str] | None = None) -> RadarValues:
    """Min-max normalize scenario criteria per axis for spider plots.

    `results` maps scenario name to its axis values; normalization
    bounds come from `norm_group` (default: all scenarios). Degenerate
    axes (all group values equal) map to 0 and are flagged.
    """
    if norm_group is None:
        norm_group = sorted(results)
    if len(norm_group) < 2:
        raise PlanError("radar normalization group needs at least 2 scenarios")
    out: dict[str, dict[str, float]] = {name: {} for name in sorted(results)}
    degenerate = []
    for axis in RADAR_AXES:
        vals = [results[n][axis] for n in norm_group]
        lo, hi = min(vals), max(vals)
        if hi == lo:
            degenerate.append(axis)
            for name in results:
                out[name][axis] = 0.0
        else:
            for name in results:
                out[name][axis] = (results[name][axis] - lo) / (hi - lo)
    return RadarValues(values=out, degenerate_axes=tuple(degenerate))
