"""Equity, south-quota and regional aggregation statistics.

Regional equity is 1 minus the Gini index of installed capacity per
inhabitant across municipalities, in percent. Every municipality in the
instance counts toward the index; zero-population municipalities are
excluded from the per-inhabitant vector (and disclosed), since capacity
per inhabitant is undefined there. Selected sites are read through
`Instance.sites` and summed in ascending site-id order.
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
    """The municipalities of the selected sites, ascending, the MW they add
    (running sums in ascending site-id order) and the position of each
    one's first site in that order."""
    sites = instance.sites
    rows = np.sort(sites.rows(site_ids))
    mun, first, at = np.unique(sites.mun[rows], return_index=True, return_inverse=True)
    return mun, np.bincount(at, weights=sites.caps[rows], minlength=mun.size), first


def regional_equity(site_ids: Sequence[int], instance: Instance) -> EquityReport:
    """Equity of the existing plus added capacity distribution.

    Pass site_ids=() to score the existing stock alone.
    """
    mun, added, _ = _added_capacity(site_ids, instance)
    muns = instance.municipalities
    ids = np.fromiter((m.municipality_id for m in muns), dtype=np.int64, count=len(muns))
    pop = np.fromiter((m.population for m in muns), dtype=float, count=len(muns))
    cap = np.zeros(len(muns))  # MW added per municipality
    if mun.size:
        at = np.minimum(np.searchsorted(mun, ids), mun.size - 1)
        hit = mun[at] == ids
        cap[hit] = added[at[hit]]
    cap += np.fromiter((m.existing_capacity for m in muns), dtype=float, count=len(muns))
    counted = ~(pop <= 0)
    if not counted.any():
        raise PlanError("no municipality has positive population")
    ids, per_inhabitant = ids[counted], cap[counted] / pop[counted]
    arr = per_inhabitant[np.argsort(ids)]
    g = gini_sorted(arr)
    return EquityReport(x=dict(zip(ids.tolist(), per_inhabitant.tolist())), gini=g,
                        regional_equity_pct=(1.0 - g) * 100.0, n_municipalities=arr.size,
                        excluded_zero_population=len(muns) - arr.size)


def south_quota(site_ids: Sequence[int], instance: Instance) -> float:
    """Percent of ADDED capacity placed in municipalities tagged South; the
    per-municipality totals are added in order of their first site."""
    mun, added, first = _added_capacity(site_ids, instance)
    if not mun.size:
        return 0.0
    south = np.fromiter((m.municipality_id for m in instance.municipalities
                         if m.region_tag == "South"), dtype=np.int64)
    order = np.argsort(first)
    added, mun = added[order], mun[order]
    return 100.0 * sum(added[np.isin(mun, south)].tolist()) / sum(added.tolist())


def regional_stats(site_ids: Sequence[int], instance: Instance) -> RegionalStats:
    """Per-state turbine density, capacity share and mean scenicness."""
    sites = instance.sites
    rows = np.sort(sites.rows(site_ids))
    mun_state = {m.municipality_id: m.state_id for m in instance.municipalities}
    state_area: dict[int, float] = {}
    for m in instance.municipalities:
        state_area[m.state_id] = state_area.get(m.state_id, 0.0) + m.area

    caps: dict[int, float] = {s: 0.0 for s in state_area}
    scenic: dict[int, list[float]] = {s: [] for s in state_area}
    for j, cap, scen in zip(sites.mun[rows].tolist(), sites.caps[rows].tolist(),
                            sites.scenicness[rows].tolist()):
        s = mun_state[j]
        caps[s] += cap
        scenic[s].append(scen)

    total_cap = sum(caps.values())
    per_state = []
    for s in sorted(state_area):
        per_state.append(StateStats(
            state_id=s,
            turbines_per_1000_km2=len(scenic[s]) / state_area[s] * 1000.0,
            capacity_share_pct=100.0 * caps[s] / total_cap if total_cap else 0.0,
            mean_scenicness=float(np.mean(scenic[s])) if scenic[s] else None,
        ))
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
