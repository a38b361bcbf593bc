"""Binary site-selection solver.

Minimizes the weighted site-cost sum subject to a national capacity
covering target, optional per-criterion epsilon caps and optional
per-municipality equity floors. Pools of up to BRUTE_FORCE_LIMIT (24)
sites are solved exactly: a meet-in-the-middle enumeration (Horowitz &
Sahni, J. ACM 1974) adds two tables of at most 2^12 half-subset sums to
scan every subset, and the optimum it finds is reported as its own lower
bound (gap 0). Larger pools use a certified heuristic:

  a) satisfy each equity floor by per-municipality greedy on the
     cost/capacity ratio (a single cheapest site is used when cheaper),
  b) cover the remaining national capacity by global ratio greedy,
  c) polish with single-swap local search to a local optimum,
  d) handle epsilon caps by Lagrangian penalty (Fisher, Mgmt. Sci. 1981):
     the multiplier comes from a relaxation of the penalised cost (the
     covering LP, or with floors the integral floor bound when that bound
     is larger), and a few heuristic runs bracketed around it repair
     integrality,
  e) certify with an LP-relaxation lower bound and report the gap.

The pool is the instance's SiteTable, `Instance.sites`; a row index is a
position in that table (site_id order).

A heuristic run sorts only the prefix of the global ratio order that its
greedy fill and polish rounds read (`_RatioOrder`), takes that order and
the selection in numpy blocks (running totals are sequential cumsums, so
they add as a site-by-site loop would), and polish tests all swap
candidates of a site in one vectorised check, so its cost follows the
selection size rather than the pool size.

Everything is deterministic; ties break on the lowest site id.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import (InfeasibleError, Instance, Municipality, PlanError, SiteTable,
                     ValidationError, capacity_by_municipality)
from .objective import ScaledCriteria, Weights, site_costs

FEAS_TOL = 1e-9
BRUTE_FORCE_LIMIT = 24
_FIRST_STEP = 1e-3  # first relative step of the heuristic bracket around the LP multiplier
_BISECT_STEPS = 6  # heuristic bisection steps inside that bracket
_POLISH_ROUNDS = 60

_CAP_FIELDS = {"lcoe": "m_c", "scenicness": "m_s", "network_length": "m_l"}


@dataclass(frozen=True)
class Constraints:
    cap_obj: float  # MW of added capacity to cover
    m_c: float | None = None  # cap on total LCOE over selected sites
    m_s: float | None = None  # cap on total scenicness
    m_l: float | None = None  # cap on total network length
    equity_floors: dict[int, float] | None = None  # municipality_id -> MW

    def __post_init__(self):
        if self.cap_obj < 0:
            raise PlanError(f"cap_obj {self.cap_obj} < 0")
        for name in ("m_c", "m_s", "m_l"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise PlanError(f"{name} {v} < 0")
        if self.equity_floors:
            bad = {j: f for j, f in self.equity_floors.items() if f < 0}
            if bad:
                raise PlanError(f"negative equity floors: {bad}")


@dataclass(frozen=True)
class Totals:
    capacity_mw: float
    lcoe: float
    scenicness: float
    network_length_km: float


@dataclass(frozen=True)
class Means:
    lcoe: float
    scenicness: float
    network_length_km: float
    lcoe_capacity_weighted: float


@dataclass
class Selection:
    site_ids: tuple[int, ...]
    objective_value: float
    totals: Totals
    means: Means
    lower_bound: float
    gap: float
    # how the heuristic got there: heuristic_runs and the multiplier per cap
    # ("lambda"); empty for an exact solve, and in no result file
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def n_sites(self) -> int:
        return len(self.site_ids)


@dataclass(frozen=True)
class ParetoPoint:
    step: int
    cap: float  # cap applied to the swept criterion (T0 for step 0)
    achieved_min: float  # total of the optimized criterion
    gap: float
    selection: Selection


@dataclass
class ParetoFront:
    optimize: str
    sweep: str
    step_factor: float
    points: list[ParetoPoint] = field(default_factory=list)
    # why the sweep ended: "complete", "proven_limit" (a bound rules the next
    # cap out) or "unproven_miss" (no selection found, nothing rules it out)
    stop: str = "complete"
    stop_cap: float | None = None  # the cap of the step that ended the sweep
    stop_bound: float | None = None  # lower bound on the swept total there, if known

    @property
    def truncated(self) -> bool:
        return self.stop != "complete"


class _RatioOrder:
    """Rows by ascending cost/capacity ratio, ties on the lower site id.

    Iterating yields the rows of `np.lexsort((ids, cost / caps))` but
    sorts only the prefix read so far: the rows with a ratio at most the
    m-th smallest form an exact prefix of that order, ties included.
    m starts at _FIRST_BLOCK and grows 4x whenever a reader runs past the
    sorted part; the full sort is the fallback once m reaches the pool
    size or the m-th ratio is not finite. Any number of iterations may
    run, interleaved, over one object.
    """

    _FIRST_BLOCK = 1024

    def __init__(self, sites: SiteTable, cost: np.ndarray):
        self._ids = sites.ids
        self._ratio = cost / sites.caps
        self._m = self._FIRST_BLOCK // 4
        self._sorted = np.empty(0, dtype=np.intp)
        self._complete = False

    def _grow(self) -> None:
        self._m *= 4
        ratio, ids = self._ratio, self._ids
        if self._m < ratio.size:
            t = np.partition(ratio, self._m)[self._m]
            if np.isfinite(t):
                block = np.flatnonzero(ratio <= t)
                self._sorted = block[np.lexsort((ids[block], ratio[block]))]
                return
        self._sorted = np.lexsort((ids, ratio))
        self._complete = True

    def blocks(self):
        """The order as successive arrays of rows, each as long as the sort allows."""
        done = 0
        while True:
            rows = self._sorted
            if done < rows.size:
                yield rows[done:]
                done = rows.size
            elif self._complete:
                return
            else:
                self._grow()

    def __iter__(self):
        for rows in self.blocks():
            yield from rows.tolist()


def _mun_ratio_order(sites: SiteTable, cost: np.ndarray) -> np.ndarray:
    """Rows grouped as in `sites.by_mun` (so `mun_rows` slices it), each
    group in ratio order; one sort serves every municipality."""
    return np.lexsort((sites.ids, cost / sites.caps, sites.mun))


def _ge(a: float, b: float) -> bool:
    return a >= b - FEAS_TOL * max(1.0, abs(b))


def _le(a: float, b: float) -> bool:
    return a <= b + FEAS_TOL * max(1.0, abs(b))


@dataclass(frozen=True)
class _Floors:
    """The positive equity floors of a solve, in their given order."""
    mun: list[int]  # municipality of each floor
    mw: list[float]  # the floors
    ge: np.ndarray  # each floor's `_ge` threshold
    of_site: np.ndarray  # per site, the index of its municipality's floor, -1 for none

    def __len__(self) -> int:
        return len(self.mw)


def _floors(sites: SiteTable, equity_floors: dict[int, float] | None) -> _Floors:
    """The floors above zero (the others constrain nothing); a floor in a
    municipality without candidates cannot be met."""
    pos = {int(j): float(f) for j, f in (equity_floors or {}).items() if f > 0}
    missing = sorted(j for j in pos if j not in sites.mun_rows)
    if missing:
        raise InfeasibleError(f"equity floors in municipalities without candidates: {missing}")
    mw = list(pos.values())
    of_site = np.full(len(sites), -1, dtype=np.int32)
    for k, j in enumerate(pos):
        of_site[sites.by_mun[slice(*sites.mun_rows[j])]] = k
    return _Floors(list(pos), mw, np.array(mw) - FEAS_TOL * np.maximum(1.0, mw), of_site)


class _State:
    """Incumbent selection with incrementally maintained totals and the
    ratio order of its cost, shared by greedy fill and every polish round."""

    def __init__(self, sites: SiteTable, cost: np.ndarray, floors: _Floors,
                 cap_specs: list[tuple[np.ndarray, float]],
                 rows: list[int] | tuple[int, ...] | np.ndarray = ()):
        self.sites = sites
        self.cost = cost
        self.floors = floors
        self.cap_specs = cap_specs  # (per-site values, limit) per active cap
        self.taken = np.zeros(len(sites), dtype=bool)  # the selection as a row mask
        self.cap_total = 0.0
        self.obj = 0.0
        self.floor_totals = np.zeros(len(floors))  # selected MW per floor
        self.v_totals = [0.0] * len(cap_specs)
        self.order = _RatioOrder(sites, cost)
        self.add_rows(np.asarray(rows, dtype=np.intp))

    def add_rows(self, rows: np.ndarray) -> None:
        """Add each row in turn; every total is a sequential cumsum or
        `np.add.at`, so it adds in the order of a site-by-site loop."""
        if not rows.size:
            return
        self.taken[rows] = True
        caps = self.sites.caps
        self.cap_total = _running_sum(self.cap_total, caps[rows])
        self.obj = _running_sum(self.obj, self.cost[rows])
        for k, (v, _) in enumerate(self.cap_specs):
            self.v_totals[k] = _running_sum(self.v_totals[k], v[rows])
        k = self.floors.of_site[rows]
        np.add.at(self.floor_totals, k[k >= 0], caps[rows][k >= 0])

    def remove(self, i: int) -> None:
        self.taken[i] = False
        self.cap_total -= self.sites.caps[i]
        self.obj -= self.cost[i]
        k = self.floors.of_site[i]
        if k >= 0:
            self.floor_totals[k] -= self.sites.caps[i]
        for k, (v, _) in enumerate(self.cap_specs):
            self.v_totals[k] -= v[i]

    def removable(self, i: int, cap_obj: float) -> bool:
        if not _ge(self.cap_total - self.sites.caps[i], cap_obj):
            return False
        k = self.floors.of_site[i]
        return k < 0 or self.floor_totals[k] - self.sites.caps[i] >= self.floors.ge[k]

    def caps_ok(self) -> bool:
        return all(_le(t, limit) for t, (_, limit) in zip(self.v_totals, self.cap_specs))

    def costliest_first(self) -> np.ndarray:
        """The selected rows by descending cost, ties on the lower site id."""
        rows = np.flatnonzero(self.taken)
        return rows[np.lexsort((self.sites.ids[rows], -self.cost[rows]))]

    def drop_removable(self, cap_obj: float) -> bool:
        """Drop, costliest first, each site of positive cost that is
        `removable` at its turn; True if any was dropped.

        The cover only shrinks, so a site that would uncover it now is
        never removable later: only the others are tested one by one."""
        rows = self.costliest_first()
        cover_min = cap_obj - FEAS_TOL * max(1.0, abs(cap_obj))
        rows = rows[(self.cost[rows] > 0) & (self.cap_total - self.sites.caps[rows] >= cover_min)]
        dropped = False
        for i in rows.tolist():
            if self.removable(i, cap_obj):
                self.remove(i)
                dropped = True
        return dropped

    def fill(self, cap_obj: float) -> None:
        """Add unselected rows in ratio order until the cover is met (or
        the pool runs out); nothing when it is met already."""
        cover_min = cap_obj - FEAS_TOL * max(1.0, abs(cap_obj))
        if self.cap_total >= cover_min:
            return
        for rows in self.order.blocks():
            rows = rows[~self.taken[rows]]
            covered = np.flatnonzero(
                np.cumsum(np.append(self.cap_total, self.sites.caps[rows]))[1:] >= cover_min)
            self.add_rows(rows[:covered[0] + 1] if covered.size else rows)
            if covered.size:
                return

    def first_unselected(self, count: int) -> np.ndarray:
        """The first `count` unselected rows in ratio order."""
        parts = []
        for rows in self.order.blocks():
            parts.append(rows[~self.taken[rows]][:count])
            count -= parts[-1].size
            if count <= 0:
                break
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def _running_sum(start: float, values: np.ndarray) -> float:
    """`start` plus each of `values` in turn, as a scalar loop adds them."""
    return float(np.cumsum(np.append(start, values))[-1])


def _greedy(sites: SiteTable, cost: np.ndarray, cap_obj: float,
            floors: _Floors, cap_specs: list[tuple[np.ndarray, float]]) -> _State:
    """Floor-first then global ratio greedy, followed by a trim pass.

    A floor only takes sites of its own municipality, so none of them is
    selected before that floor's turn."""
    state = _State(sites, cost, floors, cap_specs)
    caps, ids = sites.caps, sites.ids

    order = _mun_ratio_order(sites, cost) if floors else None
    covers = []
    for j, floor, ge in sorted(zip(floors.mun, floors.mw, floors.ge.tolist())):
        if 0.0 >= ge:
            continue
        local = order[slice(*sites.mun_rows[j])]
        chosen, cum, cost_a = [], 0.0, 0.0
        for i in local:
            chosen.append(i)
            cum += caps[i]
            cost_a += cost[i]
            if cum >= ge:
                break
        if not cum >= ge:
            raise InfeasibleError(
                f"equity floor {floor} MW exceeds potential {cum} MW in municipality {j}")
        # the cheapest single site that covers the floor, ties on the lower id
        fits = local[caps[local] >= ge]
        if fits.size:
            single = fits[np.lexsort((ids[fits], cost[fits]))[0]]
            if cost[single] < cost_a:
                chosen = [single]
        covers += chosen
    state.add_rows(np.array(covers, dtype=np.intp))

    state.fill(cap_obj)
    if not _ge(state.cap_total, cap_obj):
        shortfall = cap_obj - state.cap_total
        raise InfeasibleError(
            f"total potential {state.cap_total + 0.0:.3f} MW cannot cover capacity "
            f"target: shortfall {shortfall:.3f} MW")

    state.drop_removable(cap_obj)
    return state


def _polish(state: _State, cap_obj: float) -> None:
    """Single-swap (and drop) local search; in-place, deterministic.

    Each round, up to _POLISH_ROUNDS, drops removable sites, then tries
    every selected site `out` (costliest first) against the `neighborhood`
    cheapest-ratio unselected sites (every site of a pool of up to 400,
    else 120) and makes the first strictly improving feasible swap it finds
    for that `out`.
    """
    sites, cost = state.sites, state.cost
    caps, of_site, ge = sites.caps, state.floors.of_site, state.floors.ge
    neighborhood = len(sites) if len(sites) <= 400 else 120
    cover_min = cap_obj - FEAS_TOL * max(1.0, abs(cap_obj))
    cap_max = [limit + FEAS_TOL * max(1.0, abs(limit)) for _, limit in state.cap_specs]
    for _ in range(_POLISH_ROUNDS):
        improved = state.drop_removable(cap_obj)
        outs = state.costliest_first()[:neighborhood].tolist()
        ins = state.first_unselected(neighborhood)
        # the swap rule of `_ge`/`_le`, evaluated for all `ins` at once
        cost_in, caps_in, floor_in = cost[ins], caps[ins], of_site[ins]
        v_in = [v[ins] for v, _ in state.cap_specs]
        taken = np.zeros(ins.size, dtype=bool)
        for out in outs:
            ok = ~taken & ~(cost_in - cost[out] >= -1e-12)
            ok &= state.cap_total - caps[out] + caps_in >= cover_min
            ko = of_site[out]
            if ko >= 0:
                t = state.floor_totals[ko] - caps[out] + np.where(floor_in == ko, caps_in, 0.0)
                ok &= t >= ge[ko]
            for k, (v, _) in enumerate(state.cap_specs):
                ok &= state.v_totals[k] - v[out] + v_in[k] <= cap_max[k]
            hit = np.flatnonzero(ok)
            if hit.size:
                p = int(hit[0])
                state.remove(out)
                state.add_rows(ins[p:p + 1])
                taken[p] = True
                improved = True
        if not improved:
            return


def _feasible(state: _State, cap_obj: float) -> bool:
    return (_ge(state.cap_total, cap_obj) and bool(np.all(state.floor_totals >= state.floors.ge))
            and state.caps_ok())


def _fill_floor(caps: np.ndarray, cost: np.ndarray, rows: np.ndarray, floor: float,
                total: float, used: np.ndarray | None = None) -> float:
    """`total` plus the cost of covering `floor` fractionally along `rows`.

    np.inf when the rows cannot cover the floor. `used`, if given,
    accumulates the fraction taken of each site.
    """
    need = floor
    for i in rows:
        take = min(caps[i], need)
        frac = take / caps[i]
        if used is not None:
            used[i] += frac
        total += frac * cost[i]
        need -= take
        if need <= 1e-15:
            break
    return np.inf if need > 1e-9 else total


def _lp_nested(sites: SiteTable, cost: np.ndarray, order: np.ndarray | None,
               cap_obj: float, floors: _Floors,
               v: np.ndarray | None = None) -> tuple[float, float]:
    """Exact optimum of the fractional relaxation (floors + covering), and
    the total of `v` over that fractional solution (0.0 without `v`).

    Floors are filled fractionally at the cheapest within-municipality
    ratios; the residual capacity takes the globally cheapest remaining
    fractional marginals. Marginal cost curves are convex, so this
    greedy is LP-optimal. `order` is `_mun_ratio_order(sites, cost)`
    (None without floors). An infeasible relaxation gives (inf, inf).
    """
    caps = sites.caps
    used = np.zeros(len(sites))  # fraction of each site already committed
    total_cost = 0.0
    floor_cap = 0.0
    for j, floor in zip(floors.mun, floors.mw):
        total_cost = _fill_floor(caps, cost, order[slice(*sites.mun_rows[j])], floor,
                                 total_cost, used)
        if total_cost == np.inf:
            return np.inf, np.inf
        floor_cap += floor
    v_total = float(used @ v) if v is not None and floors else 0.0
    residual = cap_obj - floor_cap
    if residual > 1e-15:
        # take each site's available capacity in ratio order until the
        # residual is <= 1e-15, the last one only in part; every running sum
        # is a sequential cumsum, so it adds in the order of a scalar loop
        for rows in _RatioOrder(sites, cost).blocks():
            avail = caps[rows] * (1.0 - used[rows])
            rows, avail = rows[avail > 0], avail[avail > 0]
            left = np.cumsum(np.concatenate(([residual], -avail)))  # residual after each
            done = np.flatnonzero(left[1:] <= 1e-15)
            n = int(done[0]) + 1 if done.size else rows.size
            take = avail[:n]
            residual = float(left[n])
            if done.size and avail[n - 1] >= left[n - 1]:
                take = np.append(avail[:n - 1], left[n - 1])
                residual = 0.0
            frac = take / caps[rows[:n]]
            total_cost = float(np.cumsum(np.append(total_cost, frac * cost[rows[:n]]))[-1])
            if v is not None:
                v_total = float(np.cumsum(np.append(v_total, frac * v[rows[:n]]))[-1])
            if done.size:
                break
        if residual > 1e-9:
            return np.inf, np.inf
    return total_cost, v_total


def _floor_int_bound(sites: SiteTable, cost: np.ndarray, order: np.ndarray | None,
                     floors: _Floors,
                     v: np.ndarray | None = None) -> tuple[float, float]:
    """Lower bound keeping floor coverage integral per municipality, and
    the total of `v` over the covers it takes (0.0 without `v`).

    Exact when a floor fits a single site or the municipality is small
    enough to enumerate; otherwise the municipal fractional fill along
    `order` (`_fill_floor`, as in `_lp_nested`) is used. Ignores the
    global constraint, which only relaxes further. An unattainable floor
    gives (inf, inf).
    """
    caps = sites.caps
    used = np.zeros(len(sites)) if v is not None else None  # fractional fills
    total = v_total = 0.0
    for j, floor, ge in zip(floors.mun, floors.mw, floors.ge):
        rows = sites.mun_rows[j]
        idxs = sites.by_mun[slice(*rows)]
        min_cap = caps[idxs].min()
        if floor <= min_cap + 1e-15:
            total += cost[idxs].min()
            if v is not None:
                v_total += v[idxs[np.argmin(cost[idxs])]]
        elif len(idxs) <= 12:
            bits = _subset_rows(len(idxs))[1:]
            feas = bits @ caps[idxs] >= ge
            if not feas.any():
                return np.inf, np.inf
            costs = (bits @ cost[idxs])[feas]
            total += float(costs.min())
            if v is not None:
                v_total += float(bits[feas][np.argmin(costs)] @ v[idxs])
        else:
            total = _fill_floor(caps, cost, order[slice(*rows)], floor, total, used)
            if total == np.inf:
                return np.inf, np.inf
    if v is not None:
        v_total += float(used @ v)
    return total, v_total


def _floor_bound(sites: SiteTable, cost: np.ndarray, cap_obj: float,
                 floors: _Floors) -> float:
    order = _mun_ratio_order(sites, cost) if floors else None
    return max(_lp_nested(sites, cost, order, cap_obj, floors)[0],
               _floor_int_bound(sites, cost, order, floors)[0])


def _lower_bound(sites: SiteTable, cost: np.ndarray, cap_obj: float, floors: _Floors,
                 cap_specs: list[tuple[np.ndarray, float]],
                 lambdas: list[float]) -> float:
    bound = _floor_bound(sites, cost, cap_obj, floors)
    if cap_specs and any(l > 0 for l in lambdas):
        pen = cost.copy()
        offset = 0.0
        for (v, limit), lam in zip(cap_specs, lambdas):
            pen = pen + lam * v
            offset += lam * limit
        bound = max(bound, _floor_bound(sites, pen, cap_obj, floors) - offset)
    return float(bound) if np.isfinite(bound) else 0.0


def _gap(objective: float, lower_bound: float) -> float:
    if objective <= lower_bound:
        return 0.0
    if lower_bound > 0:
        return float((objective - lower_bound) / lower_bound)
    return float("inf")


def _make_selection(sites: SiteTable, rows, weights_cost: np.ndarray,
                    lower_bound: float | None) -> Selection:
    """The selection of `rows`; a `lower_bound` of None marks it optimal,
    so that its objective is its own bound."""
    idx = np.array(sorted(rows), dtype=np.int64)
    ids = tuple(int(i) for i in sites.ids[idx])
    if idx.size:
        cap = float(np.sum(sites.caps[idx]))
        t_lcoe = float(np.sum(sites.lcoe[idx]))
        t_scen = float(np.sum(sites.scenicness[idx]))
        t_len = float(np.sum(sites.network_length[idx]))
        obj = float(np.sum(weights_cost[idx]))
        n = idx.size
        means = Means(
            lcoe=t_lcoe / n,
            scenicness=t_scen / n,
            network_length_km=t_len / n,
            lcoe_capacity_weighted=float(np.sum(sites.lcoe[idx] * sites.caps[idx])) / cap,
        )
        totals = Totals(cap, t_lcoe, t_scen, t_len)
    else:
        obj = 0.0
        totals = Totals(0.0, 0.0, 0.0, 0.0)
        means = Means(0.0, 0.0, 0.0, 0.0)
    lower_bound = obj if lower_bound is None else float(lower_bound)
    return Selection(site_ids=ids, objective_value=obj, totals=totals, means=means,
                     lower_bound=lower_bound, gap=_gap(obj, lower_bound))


def _cap_specs(sites: SiteTable,
               constraints: Constraints) -> list[tuple[str, np.ndarray, float]]:
    return [(crit, getattr(sites, crit), float(getattr(constraints, fld)))
            for crit, fld in _CAP_FIELDS.items() if getattr(constraints, fld) is not None]


def _problem(instance: Instance, weights: Weights, constraints: Constraints,
             scaled: ScaledCriteria | None
             ) -> tuple[SiteTable, np.ndarray, float, _Floors,
                        list[tuple[str, np.ndarray, float]]]:
    """Pool, site costs, cover target, floors and named caps of a solve,
    after the checks that hold at every pool size."""
    sites = instance.sites
    if not len(sites):
        raise InfeasibleError("instance has no candidate sites")
    cost = site_costs(sites, weights, scaled)
    cap_obj = float(constraints.cap_obj)
    total_potential = float(sites.caps.sum())
    if not _ge(total_potential, cap_obj):
        raise InfeasibleError(
            f"total potential {total_potential:.3f} MW below capacity target "
            f"{cap_obj:.3f} MW: shortfall {cap_obj - total_potential:.3f} MW")
    floors = _floors(sites, constraints.equity_floors)
    return sites, cost, cap_obj, floors, _cap_specs(sites, constraints)


def _run_heuristic(sites: SiteTable, cost: np.ndarray, cap_obj: float, floors: _Floors,
                   cap_specs: list[tuple[np.ndarray, float]]) -> _State:
    state = _greedy(sites, cost, cap_obj, floors, cap_specs)
    _polish(state, cap_obj)
    return state


@functools.cache
def _subset_rows(m: int) -> np.ndarray:
    """The 0/1 rows of all 2**m subsets of m items in mask order: row k
    holds bit i of k in column i. Read-only, since every caller shares it."""
    masks = np.arange(1 << m, dtype=np.uint32)
    rows = ((masks[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(float)
    rows.flags.writeable = False
    return rows


def _mask_rows(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


_CHUNK = 1 << 20  # masks scanned per block


def _enumerate(sites: SiteTable, cost: np.ndarray, cap_obj: float, floors: _Floors,
               cap_specs: list[tuple[np.ndarray, float]]) -> tuple[int, float] | None:
    """Exhaustive subset search; returns (best mask, objective) or None
    if no feasible subset exists. Ties go to the lexicographically
    smallest installed id-set.

    Meet in the middle: mask `h << n_lo | l` splits into a high half h and
    a low half l over the first n_lo rows, and the total of a per-site
    vector over it is hi[h] + lo[l], from two tables of half-subset sums.
    Masks are scanned in ascending order, _CHUNK at a time.
    """
    n = len(sites)
    n_lo = (n + 1) // 2
    lo_rows, hi_rows = _subset_rows(n_lo), _subset_rows(n - n_lo)

    def halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return hi_rows @ v[n_lo:], lo_rows @ v[:n_lo]

    def total(pair: tuple[np.ndarray, np.ndarray], hs: slice) -> np.ndarray:
        hi, lo = pair
        return (hi[hs, None] + lo).ravel()

    caps = sites.caps
    at_least = [(halves(caps), cap_obj - FEAS_TOL * max(1.0, cap_obj))]
    at_least += [(halves(np.where(floors.of_site == k, caps, 0.0)), ge)
                 for k, ge in enumerate(floors.ge)]
    at_most = [(halves(v), limit + FEAS_TOL * max(1.0, abs(limit))) for v, limit in cap_specs]
    cost_halves = halves(cost)

    best_obj = np.inf
    best_ids: tuple[int, ...] | None = None
    best_mask = 0
    step = max(1, _CHUNK >> n_lo)  # high halves per block
    for h0 in range(0, 1 << (n - n_lo), step):
        hs = slice(h0, h0 + step)
        feas = np.logical_and.reduce([total(p, hs) >= bound for p, bound in at_least]
                                     + [total(p, hs) <= bound for p, bound in at_most])
        if not feas.any():
            continue
        obj = total(cost_halves, hs)
        obj[~feas] = np.inf
        cutoff = min(best_obj, float(obj.min())) + 1e-12
        for pos in np.flatnonzero(obj <= cutoff).tolist():
            mask = (h0 << n_lo) + pos
            o = float(obj[pos])
            ids = tuple(sites.ids[_mask_rows(mask, n)].tolist())
            if (o < best_obj - 1e-12
                    or (abs(o - best_obj) <= 1e-12 and (best_ids is None or ids < best_ids))):
                best_obj, best_ids, best_mask = o, ids, mask
    if best_ids is None:
        return None
    return best_mask, best_obj


def _solve_exact(sites: SiteTable, cost: np.ndarray, cap_obj: float, floors: _Floors,
                 named_specs: list[tuple[str, np.ndarray, float]]) -> Selection:
    """The optimum by enumeration, reported as its own lower bound. When no
    subset is feasible, the error names what enumeration proves
    unattainable: the floors, one cap, or the caps together."""
    exact = _enumerate(sites, cost, cap_obj, floors,
                       [(v, limit) for _, v, limit in named_specs])
    if exact is None:
        if floors and _enumerate(sites, cost, cap_obj, floors, []) is None:
            raise InfeasibleError("equity floors unattainable with this pool")
        for name, v, limit in named_specs:
            vmin = _enumerate(sites, v, cap_obj, floors, [])
            if vmin is not None and not _le(vmin[1], limit):
                raise InfeasibleError(
                    f"cap on total {name} ({limit}) below the minimum "
                    f"achievable {vmin[1]:.6f}", bound=vmin[1])
        raise InfeasibleError(
            f"caps {[name for name, _, _ in named_specs]} unattainable together")
    return _make_selection(sites, _mask_rows(exact[0], len(sites)), cost, None)


def _lambda_scale(cost: np.ndarray, v: np.ndarray) -> float:
    """A multiplier at which the penalty `lam * v` is on the scale of `cost`."""
    pos = v[v > 0]
    return max(1.0, float(cost.max()) / max(float(pos.min()), 1e-12)) if pos.size else 1.0


def _multiplier(relax: Callable[[np.ndarray], tuple[float, float]], base: np.ndarray,
                v: np.ndarray, limit: float) -> tuple[float, float, float]:
    """Where the Lagrangian bound of one relaxation is largest, for the cap
    `v <= limit` priced into `base + lam * v`.

    `relax(cost)` gives the relaxation's optimum and the total of `v` over
    its solution; the optimum is concave and piecewise linear in lam with
    that total as its slope, so L(lam) = relax(base + lam * v)[0] -
    lam * limit is largest where the slope crosses the limit. Returns the
    smallest lam >= 0 found at which the slope meets the limit (to a
    relative FEAS_TOL), the breakpoint it approaches from above, where the
    bound is taken, and L at the former.

    The tangents at a missing `lo` and a meeting `hi` cross inside
    [lo, hi], on the breakpoint once both touch the pieces next to it.
    Each trial is that crossing, or the midpoint after a trial that did
    not halve the interval. At the breakpoint itself the relaxation ties,
    so its v-total may read either way, but L is largest there.
    """
    def tangent(lam: float) -> tuple[float, float]:
        value, v_total = relax(base + lam * v)
        return value - lam * v_total, v_total  # intercept and slope

    lo, (c_lo, s_lo) = 0.0, tangent(0.0)
    if _le(s_lo, limit):
        return 0.0, 0.0, c_lo
    hi = _lambda_scale(base, v)
    c_hi, s_hi = tangent(hi)
    for _ in range(60):
        if _le(s_hi, limit):
            break
        lo, c_lo, s_lo = hi, c_hi, s_hi
        hi *= 2.0
        c_hi, s_hi = tangent(hi)
    else:
        return hi, hi, c_hi + hi * (s_hi - limit)
    width = np.inf
    while hi - lo > FEAS_TOL * hi:
        if hi - lo <= 0.5 * width:
            x = (c_hi - c_lo) / (s_lo - s_hi)
        else:
            x = 0.5 * (lo + hi)
        width = hi - lo
        margin = 0.5 * FEAS_TOL * hi
        x = min(max(x, lo + margin), hi - margin)
        c, s = tangent(x)
        if _le(s, limit):
            hi, c_hi, s_hi = x, c, s
        else:
            lo, c_lo, s_lo = x, c, s
    return hi, min(max((c_hi - c_lo) / (s_lo - s_hi), lo), hi), c_hi + hi * (s_hi - limit)


def _bracket_runs(meets: Callable[[float], bool], start: float) -> None:
    """Heuristic runs around the relaxation's multiplier `start` > 0;
    `meets(lam)` makes one run and says whether it meets the cap.

    The heuristic's own threshold lies near `start`: bracket it
    geometrically on the side that needs it (lam = 0 is taken to miss the
    cap), then bisect _BISECT_STEPS times. The heuristic's cost is not
    monotone in lam, so when the bracket went down, one more run goes as
    far above `start`.
    """
    step = _FIRST_STEP
    lo = hi = start
    above = None
    met = meets(start)
    if met:
        lo = 0.0
        while step < 1.0:
            trial = start * (1.0 - step)
            above = start * (1.0 + step)
            if not meets(trial):
                lo = trial
                break
            hi = trial
            step *= 4.0
    else:
        # x4 per step: after 30 the penalty swamps the cost
        for _ in range(30):
            trial = start * (1.0 + step)
            if meets(trial):
                hi, met = trial, True
                break
            lo = trial
            step *= 4.0
    if met:
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if meets(mid):
                hi = mid
            else:
                lo = mid
        if above is not None:
            meets(above)


def solve(instance: Instance, weights: Weights, constraints: Constraints,
          scaled: ScaledCriteria | None = None) -> Selection:
    """Exact (small pools) or certified-heuristic solve; see module docstring."""
    sites, cost, cap_obj, floors, named_specs = _problem(instance, weights, constraints,
                                                         scaled)
    if len(sites) <= BRUTE_FORCE_LIMIT:
        return _solve_exact(sites, cost, cap_obj, floors, named_specs)

    cap_specs = [(v, limit) for _, v, limit in named_specs]
    lambdas = [0.0] * len(cap_specs)
    at_break = [0.0] * len(cap_specs)  # the bound's multipliers
    runs = 0

    def heuristic(c: np.ndarray) -> _State:
        nonlocal runs
        runs += 1
        return _run_heuristic(sites, c, cap_obj, floors, cap_specs)

    state = heuristic(cost)
    if cap_specs and not state.caps_ok():
        feasible: list[np.ndarray] = []  # selected rows of each run that meets everything
        for k, (name, v, limit) in enumerate(named_specs):
            if feasible:
                break
            if _le(state.v_totals[k], limit):
                continue
            # is the cap attainable at all? check the min-v solution
            vmin = float(np.sum(v[heuristic(v).taken]))
            if not _le(vmin, limit):
                # the heuristic's minimum proves nothing; only the relaxation
                # bound on the minimum can rule the cap out
                bound = _floor_bound(sites, v, cap_obj, floors)
                if not _le(bound, limit):
                    raise InfeasibleError(
                        f"cap on total {name} ({limit}) below the minimum achievable, "
                        f"which is at least {bound:.6f}", bound=bound)
                raise InfeasibleError(
                    f"cap on total {name} ({limit}) not met: the lowest total found is "
                    f"{vmin:.6f}, and the lower bound {bound:.6f} does not rule the "
                    f"cap out", proven=False, bound=bound)

            base = cost.copy()
            for kk, (vv, _) in enumerate(cap_specs):
                if lambdas[kk] > 0 and kk != k:
                    base = base + lambdas[kk] * vv
            # the multiplier of the covering LP and, with floors, of the
            # integral floor bound; the larger bound wins
            def lp(c: np.ndarray) -> tuple[float, float]:
                order = _mun_ratio_order(sites, c) if floors else None
                return _lp_nested(sites, c, order, cap_obj, floors, v)

            def floor_int(c: np.ndarray) -> tuple[float, float]:
                return _floor_int_bound(sites, c, _mun_ratio_order(sites, c), floors, v)

            relaxations = [lp, floor_int] if floors else [lp]
            lambdas[k], at_break[k], _ = max(
                (_multiplier(relax, base, v, limit) for relax in relaxations),
                key=lambda m: m[2])

            def meets(lam: float) -> bool:
                nonlocal state
                s = heuristic(base + lam * v)
                if not _le(s.v_totals[k], limit):
                    return False
                state = s
                if _feasible(s, cap_obj):
                    feasible.append(np.flatnonzero(s.taken))
                return True

            _bracket_runs(meets, lambdas[k] or _FIRST_STEP * _lambda_scale(base, v))

        if not feasible:
            # repair: start from a selection minimizing each violated cap
            repair_cost = np.zeros(len(sites))
            for (v, limit) in cap_specs:
                repair_cost = repair_cost + v
            state = heuristic(repair_cost)
            if not _feasible(state, cap_obj):
                bad = [name for (name, v, limit), t in zip(named_specs, state.v_totals)
                       if not _le(t, limit)]
                found = ", ".join(f"{name} {t:.6f}" for (name, _, _), t
                                  in zip(named_specs, state.v_totals))
                raise InfeasibleError(
                    f"caps {bad} not met together: the lowest-total selection found has "
                    f"{found}, and no lower bound rules the caps out", proven=False)
            feasible.append(np.flatnonzero(state.taken))
        # constrained polish on the true objective from each distinct feasible
        # run; the cheapest result wins, ties to the earliest run
        state = None
        seen: set[bytes] = set()
        for rows in feasible:
            if rows.tobytes() in seen:
                continue
            seen.add(rows.tobytes())
            final = _State(sites, cost, floors, cap_specs, rows)
            _polish(final, cap_obj)
            if state is None or final.obj < state.obj:
                state = final

    bound = _lower_bound(sites, cost, cap_obj, floors, cap_specs, at_break)
    sel = _make_selection(sites, np.flatnonzero(state.taken), cost, bound)
    sel.stats = {"heuristic_runs": runs,
                 "lambda": {name: float(lam) for (name, _, _), lam in zip(named_specs, lambdas)}}
    return sel


def brute_force(instance: Instance, weights: Weights, constraints: Constraints,
                scaled: ScaledCriteria | None = None) -> Selection:
    """Exact optimum by exhaustive subset enumeration (oracle, N <= 24);
    the same routine as `solve` on such pools."""
    n = len(instance.sites)
    if n > BRUTE_FORCE_LIMIT:
        raise PlanError(f"brute_force refused: N={n} > {BRUTE_FORCE_LIMIT}")
    return _solve_exact(*_problem(instance, weights, constraints, scaled))


def equity_floors(municipalities: list[Municipality], total_target_2050: float,
                  municipal_potentials: dict[int, float]) -> dict[int, float]:
    """Population-share capacity floors, clamped to [0, potential].

    floor_j = clamp(pop_j / pop_total * total_target - existing_j,
                    0, potential_j).
    """
    pop_total = sum(m.population for m in municipalities)
    if pop_total <= 0:
        raise PlanError("total population must be positive for equity floors")
    floors = {}
    for m in municipalities:
        share = m.population / pop_total * total_target_2050
        raw = share - m.existing_capacity
        potential = municipal_potentials.get(m.municipality_id, 0.0)
        floors[m.municipality_id] = min(max(raw, 0.0), potential)
    return floors


def municipal_potentials(instance: Instance) -> dict[int, float]:
    """Candidate MW per municipality (zero where it has none), summed in
    ascending site-id order."""
    sites = instance.sites
    pots = {m.municipality_id: 0.0 for m in instance.municipalities}
    pots.update(capacity_by_municipality(zip(sites.mun.tolist(), sites.caps.tolist())))
    return pots


def target_constraints(instance: Instance, total_mw: float, equity: bool,
                       potentials: dict[int, float] | None = None) -> Constraints:
    """Constraints for a national total target (existing stock included).

    The added capacity to cover is the total minus the existing stock;
    with `equity` the population-share floors of that total apply
    (`potentials` defaults to `municipal_potentials(instance)`).
    """
    existing_total = sum(m.existing_capacity for m in instance.municipalities)
    added = total_mw - existing_total
    if added <= 0:
        raise ValidationError(
            f"scaled total target {total_mw} MW does not exceed existing "
            f"capacity {existing_total} MW")
    floors = None
    if equity:
        if potentials is None:
            potentials = municipal_potentials(instance)
        floors = equity_floors(instance.municipalities, total_mw, potentials)
    return Constraints(cap_obj=added, equity_floors=floors)


def pareto_sweep(instance: Instance, optimize: str, sweep: str,
                 constraints: Constraints, steps: int,
                 step_factor: float = 0.9,
                 scaled: ScaledCriteria | None = None) -> ParetoFront:
    """Epsilon-constraint front: tighten the swept criterion by the step
    factor each optimization and minimize the other criterion.

    Point 0 is the unconstrained minimum of `optimize`; its total on the
    swept criterion anchors the caps T0 * factor^k. The first cap that
    `solve` cannot meet ends the sweep, so the front has no holes, and
    `front.stop` says why: "proven_limit" when a bound rules the cap out,
    "unproven_miss" when no selection was found but nothing rules the cap
    out, "complete" when every step was solved (`truncated` is False only
    then). `stop_cap` and `stop_bound` give that cap and the lower bound on
    the swept criterion's minimum, where known.

    A backward pass propagates any strictly better tight-cap solution to
    looser-cap points, so achieved minima are monotone by construction;
    an adopted solution keeps the looser point's own lower bound and the
    solver stats of the looser point's own solve.
    """
    if optimize == sweep:
        raise PlanError("optimize and sweep criteria must differ")
    for name in (optimize, sweep):
        if name not in _CAP_FIELDS:
            raise PlanError(f"unknown criterion {name!r}")
    if steps < 1:
        raise PlanError("steps must be >= 1")
    w = Weights(w_c=1.0 if optimize == "lcoe" else 0.0,
                w_s=1.0 if optimize == "scenicness" else 0.0,
                w_l=1.0 if optimize == "network_length" else 0.0)

    def total_of(sel: Selection, crit: str) -> float:
        return {"lcoe": sel.totals.lcoe, "scenicness": sel.totals.scenicness,
                "network_length": sel.totals.network_length_km}[crit]

    sel0 = solve(instance, w, constraints, scaled)
    t0 = total_of(sel0, sweep)
    front = ParetoFront(optimize=optimize, sweep=sweep, step_factor=step_factor)
    front.points.append(ParetoPoint(0, t0, total_of(sel0, optimize), sel0.gap, sel0))
    cap_field = _CAP_FIELDS[sweep]
    for k in range(1, steps):
        cap_val = t0 * step_factor ** k
        con = replace(constraints, **{cap_field: cap_val})
        try:
            sel = solve(instance, w, con, scaled)
        except InfeasibleError as err:
            front.stop = "proven_limit" if err.proven else "unproven_miss"
            front.stop_cap, front.stop_bound = cap_val, err.bound
            break
        front.points.append(ParetoPoint(k, cap_val, total_of(sel, optimize), sel.gap, sel))
    # tighter caps can only worsen the optimum; a better solution found at a
    # tighter cap is feasible (and adopted) at every looser cap. The tighter
    # cap's bound does not bound the looser problem, so the adopted copy is
    # gapped against the looser point's own bound.
    for i in range(len(front.points) - 1, 0, -1):
        cur, prev = front.points[i], front.points[i - 1]
        if cur.achieved_min < prev.achieved_min:
            bound = prev.selection.lower_bound
            sel = replace(cur.selection, lower_bound=bound,
                          gap=_gap(cur.selection.objective_value, bound),
                          stats=prev.selection.stats)
            front.points[i - 1] = ParetoPoint(prev.step, prev.cap, cur.achieved_min,
                                              sel.gap, sel)
    return front


def verify_selection(selection: Selection, instance: Instance,
                     constraints: Constraints) -> bool:
    """Recompute feasibility of a Selection from the raw instance columns,
    in a plain loop with its own id map."""
    sites = instance.sites
    row_of = {sid: k for k, sid in enumerate(sites.ids.tolist())}
    rows = [row_of[s] for s in selection.site_ids]
    caps, mun, lcoe, scenic, length = (col.tolist() for col in (
        sites.caps, sites.mun, sites.lcoe, sites.scenicness, sites.network_length))
    if not _ge(sum(caps[k] for k in rows), constraints.cap_obj):
        return False
    crit_totals = {
        "lcoe": sum(lcoe[k] for k in rows),
        "scenicness": sum(scenic[k] for k in rows),
        "network_length": sum(0.0 if math.isnan(length[k]) else length[k] for k in rows),
    }
    for crit, fld in _CAP_FIELDS.items():
        limit = getattr(constraints, fld)
        if limit is not None and not _le(crit_totals[crit], limit):
            return False
    if constraints.equity_floors:
        mun_caps: dict[int, float] = {}
        for k in rows:
            mun_caps[mun[k]] = mun_caps.get(mun[k], 0.0) + caps[k]
        for j, floor in constraints.equity_floors.items():
            if floor > 0 and not _ge(mun_caps.get(j, 0.0), floor):
                return False
    return True
