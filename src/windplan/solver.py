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
  d) handle epsilon caps by Lagrangian penalty, bisecting the multiplier
     until the cap is met with minimal slack,
  e) certify with an LP-relaxation lower bound and report the gap.

The pool is the instance's SiteTable, `Instance.sites`; a row index is a
position in that table (site_id order).

A heuristic run sorts only the prefix of the global ratio order that its
greedy fill and polish rounds read (`_RatioOrder`), and polish tests all
swap candidates of a site in one vectorised check, so its cost follows
the selection size rather than the pool size.

Everything is deterministic; ties break on the lowest site id.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import (InfeasibleError, Instance, Municipality, PlanError, SiteTable,
                     ValidationError, capacity_by_municipality)
from .objective import ScaledCriteria, Weights, site_costs

FEAS_TOL = 1e-9
BRUTE_FORCE_LIMIT = 24
_BISECT_ITERS = 48

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
    truncated: bool = False  # sweep hit the swept criterion's feasibility limit


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

    def __iter__(self):
        done = 0
        while True:
            rows = self._sorted
            if done < rows.size:
                yield from rows[done:].tolist()
                done = rows.size
            elif self._complete:
                return
            else:
                self._grow()


def _mun_ratio_order(sites: SiteTable, cost: np.ndarray) -> np.ndarray:
    """Rows grouped as in `sites.by_mun` (so `mun_rows` slices it), each
    group in ratio order; one sort serves every municipality."""
    return np.lexsort((sites.ids, cost / sites.caps, sites.mun))


def _ge(a: float, b: float) -> bool:
    return a >= b - FEAS_TOL * max(1.0, abs(b))


def _le(a: float, b: float) -> bool:
    return a <= b + FEAS_TOL * max(1.0, abs(b))


class _State:
    """Incumbent selection with incrementally maintained totals and the
    ratio order of its cost, shared by greedy fill and every polish round."""

    def __init__(self, sites: SiteTable, cost: np.ndarray, floors: dict[int, float],
                 cap_specs: list[tuple[np.ndarray, float]],
                 rows: list[int] | tuple[int, ...] = ()):
        self.sites = sites
        self.cost = cost
        self.floors = floors
        self.cap_specs = cap_specs  # (per-site values, limit) per active cap
        self.sel: set[int] = set()
        self.cap_total = 0.0
        self.obj = 0.0
        self.mun_totals: dict[int, float] = {j: 0.0 for j in floors}
        self.v_totals = [0.0] * len(cap_specs)
        self.order = _RatioOrder(sites, cost)
        for i in rows:
            self.add(i)

    def add(self, i: int) -> None:
        self.sel.add(i)
        self.cap_total += self.sites.caps[i]
        self.obj += self.cost[i]
        j = int(self.sites.mun[i])
        if j in self.mun_totals:
            self.mun_totals[j] += self.sites.caps[i]
        for k, (v, _) in enumerate(self.cap_specs):
            self.v_totals[k] += v[i]

    def remove(self, i: int) -> None:
        self.sel.discard(i)
        self.cap_total -= self.sites.caps[i]
        self.obj -= self.cost[i]
        j = int(self.sites.mun[i])
        if j in self.mun_totals:
            self.mun_totals[j] -= self.sites.caps[i]
        for k, (v, _) in enumerate(self.cap_specs):
            self.v_totals[k] -= v[i]

    def removable(self, i: int, cap_obj: float) -> bool:
        if not _ge(self.cap_total - self.sites.caps[i], cap_obj):
            return False
        j = int(self.sites.mun[i])
        floor = self.floors.get(j, 0.0)
        if floor > 0 and not _ge(self.mun_totals[j] - self.sites.caps[i], floor):
            return False
        return True

    def caps_ok(self) -> bool:
        return all(_le(t, limit) for t, (_, limit) in zip(self.v_totals, self.cap_specs))


def _greedy(sites: SiteTable, cost: np.ndarray, cap_obj: float,
            floors: dict[int, float],
            cap_specs: list[tuple[np.ndarray, float]]) -> _State:
    """Floor-first then global ratio greedy, followed by a trim pass.

    A floor only takes sites of its own municipality, so none of them is
    selected before that floor's turn."""
    state = _State(sites, cost, floors, cap_specs)
    caps, ids = sites.caps, sites.ids

    order = _mun_ratio_order(sites, cost) if floors else None
    for j in sorted(floors):
        floor = floors[j]
        rows = sites.mun_rows.get(j)
        if rows is None:
            raise InfeasibleError(
                f"equity floor {floor} MW in municipality {j} with no candidates")
        if _ge(0.0, floor):
            continue
        local = order[slice(*rows)]
        chosen, cum, cost_a = [], 0.0, 0.0
        for i in local:
            chosen.append(i)
            cum += caps[i]
            cost_a += cost[i]
            if _ge(cum, floor):
                break
        if not _ge(cum, floor):
            raise InfeasibleError(
                f"equity floor {floor} MW exceeds potential {cum} MW in municipality {j}")
        # the cheapest single site that covers the floor, ties on the lower id
        fits = local[caps[local] >= floor - FEAS_TOL * max(1.0, abs(floor))]
        if fits.size:
            single = fits[np.lexsort((ids[fits], cost[fits]))[0]]
            if cost[single] < cost_a:
                chosen = [single]
        for i in chosen:
            state.add(i)

    if not _ge(state.cap_total, cap_obj):
        for i in state.order:
            if i in state.sel:
                continue
            state.add(i)
            if _ge(state.cap_total, cap_obj):
                break
    if not _ge(state.cap_total, cap_obj):
        shortfall = cap_obj - state.cap_total
        raise InfeasibleError(
            f"total potential {state.cap_total + 0.0:.3f} MW cannot cover capacity "
            f"target: shortfall {shortfall:.3f} MW")

    for i in sorted(state.sel, key=lambda i: (-cost[i], ids[i])):
        if cost[i] > 0 and state.removable(i, cap_obj):
            state.remove(i)
    return state


def _polish(state: _State, cap_obj: float, max_rounds: int = 60,
            neighborhood: int | None = None) -> None:
    """Single-swap (and drop) local search; in-place, deterministic.

    Each round drops removable sites, then tries every selected site
    `out` (costliest first) against the `neighborhood` cheapest-ratio
    unselected sites and makes the first strictly improving feasible
    swap it finds for that `out`.
    """
    sites, cost, ids = state.sites, state.cost, state.sites.ids
    caps, mun = sites.caps, sites.mun
    n = len(sites)
    if neighborhood is None:
        neighborhood = n if n <= 400 else 120
    cover_min = cap_obj - FEAS_TOL * max(1.0, abs(cap_obj))
    cap_max = [limit + FEAS_TOL * max(1.0, abs(limit)) for _, limit in state.cap_specs]
    for _ in range(max_rounds):
        improved = False
        for i in sorted(state.sel, key=lambda i: (-cost[i], ids[i])):
            if cost[i] > 0 and state.removable(i, cap_obj):
                state.remove(i)
                improved = True
        outs = sorted(state.sel, key=lambda i: (-cost[i], ids[i]))[:neighborhood]
        ins = np.fromiter(itertools.islice((i for i in state.order if i not in state.sel),
                                           neighborhood), dtype=np.intp)
        # the swap rule of `_ge`/`_le`, evaluated for all `ins` at once
        cost_in, caps_in, mun_in = cost[ins], caps[ins], mun[ins]
        v_in = [v[ins] for v, _ in state.cap_specs]
        taken = np.zeros(ins.size, dtype=bool)
        for out in outs:
            ok = ~taken & ~(cost_in - cost[out] >= -1e-12)
            ok &= state.cap_total - caps[out] + caps_in >= cover_min
            jo = int(mun[out])
            fo = state.floors.get(jo, 0.0)
            if fo > 0:
                t = state.mun_totals[jo] - caps[out] + np.where(mun_in == jo, caps_in, 0.0)
                ok &= t >= fo - FEAS_TOL * max(1.0, abs(fo))
            for k, (v, _) in enumerate(state.cap_specs):
                ok &= state.v_totals[k] - v[out] + v_in[k] <= cap_max[k]
            hit = np.flatnonzero(ok)
            if hit.size:
                p = int(hit[0])
                state.remove(out)
                state.add(int(ins[p]))
                taken[p] = True
                improved = True
        if not improved:
            return


def _feasible(state: _State, cap_obj: float) -> bool:
    if not _ge(state.cap_total, cap_obj):
        return False
    for j, f in state.floors.items():
        if f > 0 and not _ge(state.mun_totals.get(j, 0.0), f):
            return False
    return state.caps_ok()


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
               cap_obj: float, floors: dict[int, float]) -> float:
    """Exact optimum of the fractional relaxation (floors + covering).

    Floors are filled fractionally at the cheapest within-municipality
    ratios; the residual capacity takes the globally cheapest remaining
    fractional marginals. Marginal cost curves are convex, so this
    greedy is LP-optimal. `order` is `_mun_ratio_order(sites, cost)`
    (None without floors).
    """
    caps = sites.caps
    used = np.zeros(len(sites))  # fraction of each site already committed
    total_cost = 0.0
    floor_cap = 0.0
    for j, floor in floors.items():
        rows = sites.mun_rows.get(j)
        if rows is None:
            return np.inf
        total_cost = _fill_floor(caps, cost, order[slice(*rows)], floor, total_cost, used)
        if total_cost == np.inf:
            return np.inf
        floor_cap += floor
    residual = cap_obj - floor_cap
    if residual > 1e-15:
        for i in _RatioOrder(sites, cost):
            avail = caps[i] * (1.0 - used[i])
            if avail <= 0:
                continue
            take = min(avail, residual)
            total_cost += take / caps[i] * cost[i]
            residual -= take
            if residual <= 1e-15:
                break
        if residual > 1e-9:
            return np.inf
    return total_cost


def _floor_int_bound(sites: SiteTable, cost: np.ndarray, order: np.ndarray | None,
                     floors: dict[int, float]) -> float:
    """Lower bound keeping floor coverage integral per municipality.

    Exact when a floor fits a single site or the municipality is small
    enough to enumerate; otherwise the municipal fractional fill along
    `order` (`_fill_floor`, as in `_lp_nested`) is used. Ignores the
    global constraint, which only relaxes further.
    """
    caps = sites.caps
    total = 0.0
    for j, floor in floors.items():
        rows = sites.mun_rows.get(j)
        if rows is None:
            return np.inf
        idxs = sites.by_mun[slice(*rows)]
        min_cap = caps[idxs].min()
        if floor <= min_cap + 1e-15:
            total += cost[idxs].min()
        elif len(idxs) <= 12:
            bits = _subset_rows(len(idxs))[1:]
            feas = bits @ caps[idxs] >= floor - FEAS_TOL * max(1.0, floor)
            if not feas.any():
                return np.inf
            total += float((bits @ cost[idxs])[feas].min())
        else:
            total = _fill_floor(caps, cost, order[slice(*rows)], floor, total)
            if total == np.inf:
                return np.inf
    return total


def _floor_bound(sites: SiteTable, cost: np.ndarray, cap_obj: float,
                 floors: dict[int, float]) -> float:
    order = _mun_ratio_order(sites, cost) if floors else None
    return max(_lp_nested(sites, cost, order, cap_obj, floors),
               _floor_int_bound(sites, cost, order, floors))


def _lower_bound(sites: SiteTable, cost: np.ndarray, cap_obj: float,
                 floors: dict[int, float],
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


def _positive_floors(constraints: Constraints) -> dict[int, float]:
    """The equity floors above zero; the others constrain nothing."""
    return {int(j): float(f) for j, f in (constraints.equity_floors or {}).items()
            if f > 0}


def _cap_specs(sites: SiteTable,
               constraints: Constraints) -> list[tuple[str, np.ndarray, float]]:
    return [(crit, getattr(sites, crit), float(getattr(constraints, fld)))
            for crit, fld in _CAP_FIELDS.items() if getattr(constraints, fld) is not None]


def _problem(instance: Instance, weights: Weights, constraints: Constraints,
             scaled: ScaledCriteria | None
             ) -> tuple[SiteTable, np.ndarray, float, dict[int, float],
                        list[tuple[str, np.ndarray, float]]]:
    """Pool, site costs, cover target, positive floors and named caps of a
    solve, after the checks that hold at every pool size."""
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
    return sites, cost, cap_obj, _positive_floors(constraints), _cap_specs(sites, constraints)


def _run_heuristic(sites: SiteTable, cost: np.ndarray, cap_obj: float,
                   floors: dict[int, float],
                   cap_specs: list[tuple[np.ndarray, float]]) -> _State:
    state = _greedy(sites, cost, cap_obj, floors, cap_specs)
    _polish(state, cap_obj)
    return state


def _subset_rows(m: int) -> np.ndarray:
    """The 0/1 rows of all 2**m subsets of m items in mask order: row k
    holds bit i of k in column i."""
    masks = np.arange(1 << m, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(float)


def _mask_rows(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


_CHUNK = 1 << 20  # masks scanned per block


def _enumerate(sites: SiteTable, cost: np.ndarray, cap_obj: float,
               floors: dict[int, float],
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
    if any(j not in sites.mun_rows for j in floors):
        return None
    n_lo = (n + 1) // 2
    lo_rows, hi_rows = _subset_rows(n_lo), _subset_rows(n - n_lo)

    def halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return hi_rows @ v[n_lo:], lo_rows @ v[:n_lo]

    def total(pair: tuple[np.ndarray, np.ndarray], hs: slice) -> np.ndarray:
        hi, lo = pair
        return (hi[hs, None] + lo).ravel()

    caps = sites.caps
    at_least = [(halves(caps), cap_obj - FEAS_TOL * max(1.0, cap_obj))]
    at_least += [(halves(np.where(sites.mun == j, caps, 0.0)),
                  floor - FEAS_TOL * max(1.0, floor)) for j, floor in floors.items()]
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


def _solve_exact(sites: SiteTable, cost: np.ndarray, cap_obj: float,
                 floors: dict[int, float],
                 named_specs: list[tuple[str, np.ndarray, float]]) -> Selection:
    """The optimum by enumeration, reported as its own lower bound. When no
    subset is feasible, the error names what enumeration proves
    unattainable: the floors, one cap, or the caps together."""
    exact = _enumerate(sites, cost, cap_obj, floors,
                       [(v, limit) for _, v, limit in named_specs])
    if exact is None:
        if floors and _enumerate(sites, cost, cap_obj, floors, []) is None:
            missing = sorted(j for j in floors if j not in sites.mun_rows)
            if missing:
                raise InfeasibleError(
                    f"equity floors in municipalities without candidates: {missing}")
            raise InfeasibleError("equity floors unattainable with this pool")
        for name, v, limit in named_specs:
            vmin = _enumerate(sites, v, cap_obj, floors, [])
            if vmin is not None and not _le(vmin[1], limit):
                raise InfeasibleError(
                    f"cap on total {name} ({limit}) below the minimum "
                    f"achievable {vmin[1]:.6f}")
        raise InfeasibleError(
            f"caps {[name for name, _, _ in named_specs]} unattainable together")
    return _make_selection(sites, _mask_rows(exact[0], len(sites)), cost, None)


def solve(instance: Instance, weights: Weights, constraints: Constraints,
          scaled: ScaledCriteria | None = None) -> Selection:
    """Exact (small pools) or certified-heuristic solve; see module docstring."""
    sites, cost, cap_obj, floors, named_specs = _problem(instance, weights, constraints,
                                                         scaled)
    if len(sites) <= BRUTE_FORCE_LIMIT:
        return _solve_exact(sites, cost, cap_obj, floors, named_specs)

    cap_specs = [(v, limit) for _, v, limit in named_specs]
    lambdas = [0.0] * len(cap_specs)
    state = _run_heuristic(sites, cost, cap_obj, floors, cap_specs)

    if cap_specs and not state.caps_ok():
        best: _State | None = None
        for k, (name, v, limit) in enumerate(named_specs):
            if _le(state.v_totals[k], limit):
                continue
            # is the cap attainable at all? check the min-v solution
            vmin_state = _run_heuristic(sites, v.astype(float), cap_obj, floors, cap_specs)
            vmin = float(np.sum(v[sorted(vmin_state.sel)]))
            if not _le(vmin, limit):
                # the heuristic's minimum proves nothing; only the relaxation
                # bound on the minimum can rule the cap out
                bound = _floor_bound(sites, v.astype(float), cap_obj, floors)
                if not _le(bound, limit):
                    raise InfeasibleError(
                        f"cap on total {name} ({limit}) below the minimum achievable, "
                        f"which is at least {bound:.6f}")
                raise InfeasibleError(
                    f"cap on total {name} ({limit}) not met: the lowest total found is "
                    f"{vmin:.6f}, and the lower bound {bound:.6f} does not rule the "
                    f"cap out")

            def run(lam: float) -> _State:
                pen = cost + lam * v
                for kk, (vv, _) in enumerate(cap_specs):
                    if lambdas[kk] > 0 and kk != k:
                        pen = pen + lambdas[kk] * vv
                return _run_heuristic(sites, pen, cap_obj, floors, cap_specs)

            lo, hi = 0.0, max(1.0, float(cost.max()) / max(float(v[v > 0].min()), 1e-12)
                              if np.any(v > 0) else 1.0)
            s_hi = run(hi)
            doublings = 0
            while not _le(s_hi.v_totals[k], limit) and doublings < 60:
                hi *= 2.0
                s_hi = run(hi)
                doublings += 1
            if _feasible(s_hi, cap_obj) and (best is None or s_hi.obj < best.obj):
                best = s_hi
            for _ in range(_BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                s_mid = run(mid)
                if _le(s_mid.v_totals[k], limit):
                    hi = mid
                    if _feasible(s_mid, cap_obj) and (best is None or s_mid.obj < best.obj):
                        best = s_mid
                else:
                    lo = mid
            lambdas[k] = hi
            state = best if best is not None else s_hi

        if best is None:
            # repair: start from a selection minimizing each violated cap
            repair_cost = np.zeros(len(sites))
            for (v, limit) in cap_specs:
                repair_cost = repair_cost + v
            state = _run_heuristic(sites, repair_cost, cap_obj, floors, cap_specs)
            if not _feasible(state, cap_obj):
                bad = [name for (name, v, limit), t in zip(named_specs, state.v_totals)
                       if not _le(t, limit)]
                found = ", ".join(f"{name} {t:.6f}" for (name, _, _), t
                                  in zip(named_specs, state.v_totals))
                raise InfeasibleError(
                    f"caps {bad} not met together: the lowest-total selection found has "
                    f"{found}, and no lower bound rules the caps out")
        else:
            state = best
        # constrained polish on the true objective
        final = _State(sites, cost, floors, cap_specs, sorted(state.sel))
        _polish(final, cap_obj)
        state = final

    bound = _lower_bound(sites, cost, cap_obj, floors, cap_specs, lambdas)
    return _make_selection(sites, state.sel, cost, bound)


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
    swept criterion anchors the caps T0 * factor^k. The sweep stops
    early (front flagged truncated) once a cap becomes infeasible. A
    backward pass propagates any strictly better tight-cap solution to
    looser-cap points, so achieved minima are monotone by construction;
    an adopted solution keeps the looser point's own lower bound.
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
        except InfeasibleError:
            front.truncated = True
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
                          gap=_gap(cur.selection.objective_value, bound))
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
