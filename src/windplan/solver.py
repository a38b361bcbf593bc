"""Binary site-selection solver.

Minimizes the weighted site-cost sum subject to a national capacity
covering target, an optional epsilon cap on one criterion total and
optional per-municipality equity floors. A solve takes at most one cap,
as the epsilon-constraint method caps one criterion at a time. Pools of
up to BRUTE_FORCE_LIMIT (24) sites are solved exactly: a
meet-in-the-middle enumeration (Horowitz & Sahni, J. ACM 1974) adds two
tables of at most 2^12 half-subset sums to scan every subset, and the
optimum it finds is reported as its own lower bound (gap 0). Larger
pools use a certified heuristic:

  a) satisfy each equity floor by per-municipality greedy on the
     cost/capacity ratio (a single cheapest site is used when cheaper),
  b) cover the remaining national capacity by global ratio greedy,
  c) polish with single-swap local search to a local optimum,
  d) handle the epsilon cap by Lagrangian penalty (Fisher, Mgmt. Sci.
     1981): the multiplier comes from a relaxation of the penalised cost
     (the covering LP, or with floors the integral floor bound when that
     bound is larger), and a few heuristic runs bracketed around it
     repair integrality,
  e) certify with an LP-relaxation lower bound and report the gap.

The pool is the instance's SiteTable, `Instance.sites`; a row index is a
position in that table (site_id order).

Each solve allocates its pool-length scratch vectors once (`_Workspace`,
owned by its `_Problem`): the cost/capacity ratios of every `_RatioOrder`,
the penalised cost of every multiplier trial and bracket run, and the
fractions of the floor relaxations. An order, state or penalised cost built
on the workspace is valid only until the next one of the same solve; the
solve reads only the selection and totals of a finished run, and reading
on through a stale order raises instead of using another cost's ratios.

A heuristic run sorts only the prefix of the global ratio order that its
greedy fill and polish rounds read (`_RatioOrder`; the prefix ends at a
threshold ratio taken from a strided sample of the pool), takes that order
and the selection in numpy blocks (running totals are sequential cumsums,
so they add as a site-by-site loop would), and polish tests every swap of
a round in one outs × ins boolean matrix, so its cost follows the
selection size rather than the pool size.

The equity floors are walked all at once: the rows of their municipalities
sit in padded matrices, one per power-of-two width (`_FloorBlock`, cut from
blocks built once per SiteTable), sorted per cost only where the first site
by ratio does not settle the floor (`_FloorOrder`); row-wise cumsums and a
masked row-wise argmin give every floor's cover, fill and bound terms,
added floor after floor and site by site, as the scalar loops add them.

Everything is deterministic; ties break on the lowest site id.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import (InfeasibleError, Instance, MunicipalityTable, PlanError, SiteTable,
                     ValidationError)
from .objective import Weights, site_costs

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
        # NaN fails both comparisons, so every bound must be finite and >= 0
        for name in ("cap_obj", "m_c", "m_s", "m_l"):
            v = getattr(self, name)
            if v is not None and not 0 <= v < math.inf:
                raise PlanError(f"{name} {v} is not a finite number >= 0")
        capped = [name for name in _CAP_FIELDS.values() if getattr(self, name) is not None]
        if len(capped) > 1:
            raise PlanError(f"one epsilon cap per solve, not {len(capped)}: {capped}")
        if self.equity_floors:
            bad = {j: f for j, f in self.equity_floors.items() if not 0 <= f < math.inf}
            if bad:
                raise PlanError(f"equity floors not finite numbers >= 0: {bad}")


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
    # how the heuristic got there: heuristic_runs and the cap's multiplier
    # ("lambda", by criterion); empty for an exact solve, and in no result file
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def n_sites(self) -> int:
        return len(self.site_ids)


@dataclass(frozen=True)
class ParetoPoint:
    step: int
    cap: float  # cap applied to the swept criterion (T0 for step 0)
    achieved_min: float  # total of the optimized criterion
    selection: Selection

    @property
    def gap(self) -> float:
        return self.selection.gap


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
    sorts only the prefix read so far: the rows with a ratio at most any
    finite threshold t form an exact prefix of that order, ties included.
    t is a sampled threshold, about the m-th smallest ratio: the
    (m // step)-th smallest of every step-th ratio, with step = n // (8m),
    so that the selection runs over about 8m ratios instead of the whole
    pool of n (a pool under 8m rows takes step 1, the exact m-th smallest).
    Only the size of the sorted block depends on t, never the order. m
    starts at _FIRST_BLOCK and grows 4x whenever a reader runs past the
    sorted part, which may hold fewer than m rows; the full sort is the
    fallback once m reaches the pool size or t is not finite. Any number
    of iterations may run, interleaved, over one object. The ratios live in
    the `ratio` vector of the solve's workspace `work`, so growing the
    sorted part after a later order of the solve was built raises.
    """

    _FIRST_BLOCK = 1024

    def __init__(self, sites: SiteTable, cost: np.ndarray, work: _Workspace):
        self._ids = sites.ids
        self._work = work
        self._ratio = np.divide(cost, sites.caps, out=work.ratio)
        work.ratio_owner = self
        self._m = self._FIRST_BLOCK // 4
        self._sorted = np.empty(0, dtype=np.intp)
        self._complete = False

    def _grow(self) -> None:
        if self._work.ratio_owner is not self:
            raise RuntimeError("stale ratio order: its solve has built another since")
        self._m *= 4
        ratio, ids = self._ratio, self._ids
        if self._m < ratio.size:
            step = max(1, ratio.size // (8 * self._m))
            k = self._m // step
            t = np.partition(ratio[::step], k)[k]
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


def _at_least(b):
    """The least total that meets a lower bound `b` (a float or an array of
    bounds), to a relative FEAS_TOL."""
    return b - FEAS_TOL * np.maximum(1.0, abs(b))


def _at_most(b: float) -> float:
    """The greatest total that meets an upper bound `b`, to a relative FEAS_TOL."""
    return b + FEAS_TOL * max(1.0, abs(b))


def _ge(a: float, b: float) -> bool:
    return a >= _at_least(b)


def _le(a: float, b: float) -> bool:
    return a <= _at_most(b)


@dataclass(frozen=True)
class _FloorBlock:
    """The floors whose municipalities have more than W/2 and at most W
    sites, W a power of two, with their rows in a floors x W matrix: each
    floor's rows ascending, then padding (copies of its first row). A row
    holds fewer padded cells than real ones. A `_FloorOrder` adds the rest."""
    floors: np.ndarray  # the block's floors, ascending
    rows: np.ndarray  # floors x W
    real: np.ndarray  # floors x W, False on the padding; a prefix of each row
    size: np.ndarray  # sites per floor
    caps: np.ndarray  # floors x W, the capacity of each cell
    min_cap: np.ndarray  # the least capacity of each floor's sites
    cost: np.ndarray | None = None
    by_ratio: np.ndarray | None = None

    def take(self, keep: np.ndarray) -> _FloorBlock:
        """The block of the floors that `keep` selects."""
        return _FloorBlock(*(a if a is None else a[keep] for a in vars(self).values()))


_MUNS: weakref.WeakKeyDictionary[SiteTable, tuple] = weakref.WeakKeyDictionary()


def _mun_blocks(sites: SiteTable) -> tuple[np.ndarray, np.ndarray, list[_FloorBlock]]:
    """Once per table (`_MUNS`): the municipality ids, each site's position
    among them, and the blocks of every municipality, its position as floor."""
    ids, of_site, size = np.unique(sites.mun, return_inverse=True, return_counts=True)
    start = np.cumsum(size) - size  # each municipality's first position in `by_mun`
    # a municipality of s sites goes to the block of width 2**e, e the bit length of s - 1
    width_exp = np.frexp(size - 1)[1]
    blocks = []
    for e in np.unique(width_exp).tolist():
        k = np.flatnonzero(width_exp == e)
        real = np.arange(1 << e) < size[k, None]
        rows = sites.by_mun[start[k, None] + real * np.arange(1 << e)]
        c = sites.caps[rows]
        blocks.append(_FloorBlock(k, rows, real, size[k], c, np.where(real, c, np.inf).min(1)))
    return ids, of_site, blocks


@dataclass(frozen=True)
class _Floors:
    """The equity floors of a solve that 0 MW does not meet, in ascending
    municipality order, and their rows in blocks of similar width."""
    mun: np.ndarray  # municipality of each floor
    mw: np.ndarray  # the floors
    ge: np.ndarray  # each floor's `_at_least` threshold
    of_site: np.ndarray  # per site, the index of its municipality's floor, -1 for none
    blocks: list[_FloorBlock]

    def __len__(self) -> int:
        return self.mw.size

    def in_order(self, parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
        """The cells of `parts`, floor after floor. A part (floors, mask,
        values) gives floor floors[i] the cells values[i][mask[i]], mask[i]
        a prefix of the row; a floor is in at most one part."""
        counts = np.zeros(len(self), dtype=np.intp)
        for floors, mask, _ in parts:
            counts[floors] = mask.sum(axis=1)
        start = np.cumsum(counts) - counts
        out = np.empty(int(counts.sum()), dtype=parts[0][2].dtype if parts else float)
        for floors, mask, values in parts:
            out[(start[floors][:, None] + np.arange(mask.shape[1]))[mask]] = values[mask]
        return out


def _floors(sites: SiteTable, equity_floors: dict[int, float] | None) -> _Floors:
    """The floors that 0 MW does not meet (the others constrain nothing); a
    floor in a municipality without candidates cannot be met."""
    given = equity_floors or {}
    mun = np.fromiter(given.keys(), dtype=np.int64, count=len(given))
    mw = np.fromiter(given.values(), dtype=float, count=len(given))
    keep = _at_least(mw) > 0
    order = np.argsort(mun[keep])
    mun, mw = mun[keep][order], mw[keep][order]
    if not mun.size:
        return _Floors(mun, mw, _at_least(mw), np.full(len(sites), -1, dtype=np.int32), [])
    ids, of_site, pool = _MUNS.get(sites) or _MUNS.setdefault(sites, _mun_blocks(sites))
    if not np.isin(mun, ids).all():
        raise InfeasibleError("equity floors in municipalities without candidates: "
                              f"{mun[~np.isin(mun, ids)].tolist()}")
    floor_of = np.full(ids.size, -1, dtype=np.int32)  # per municipality, its floor or -1
    floor_of[np.searchsorted(ids, mun)] = np.arange(mun.size)
    blocks = [replace(b.take(k >= 0), floors=k[k >= 0]) for b in pool
              if ((k := floor_of[b.floors]) >= 0).any()]
    return _Floors(mun, mw, _at_least(mw), floor_of[of_site], blocks)


class _Workspace:
    """The pool-length scratch vectors of one solve, allocated once for it.

    `ratio` holds the cost/capacity ratios of the solve's latest
    `_RatioOrder` (`ratio_owner`), which makes any earlier order of the
    solve stale; `pen` the latest penalised cost (`penalised`); `used` the
    fractions taken by the latest floor relaxation."""

    def __init__(self, n: int):
        self.ratio = np.empty(n)
        self.pen = np.empty(n)
        self.used = np.empty(n)
        self.ratio_owner: _RatioOrder | None = None

    def penalised(self, base: np.ndarray, lam: float, v: np.ndarray) -> np.ndarray:
        """`base + lam * v` in `pen`, by the same two roundings in the same order."""
        np.multiply(v, lam, out=self.pen)
        return np.add(base, self.pen, out=self.pen)


@dataclass(frozen=True)
class _Problem:
    """The pool, cover target, floors and cap of one solve, and its workspace."""
    sites: SiteTable
    cap_obj: float  # MW of added capacity to cover
    floors: _Floors
    cap: tuple[str, np.ndarray, float] | None  # (criterion, per-site values, limit), or None
    work: _Workspace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "work", _Workspace(len(self.sites)))


class _State:
    """Incumbent selection with incrementally maintained totals and the
    ratio order of its cost, shared by greedy fill and every polish round."""

    def __init__(self, problem: _Problem, cost: np.ndarray,
                 rows: list[int] | tuple[int, ...] | np.ndarray = ()):
        self.problem = problem
        self.cost = cost
        self.taken = np.zeros(len(problem.sites), dtype=bool)  # the selection as a row mask
        self.cap_total = 0.0
        self.obj = 0.0
        self.floor_totals = np.zeros(len(problem.floors))  # selected MW per floor
        self.v_total = 0.0  # the capped criterion's total
        self.order = _RatioOrder(problem.sites, cost, problem.work)
        self.add_rows(np.asarray(rows, dtype=np.intp))

    def add_rows(self, rows: np.ndarray) -> None:
        """Add each row in turn; every total is a sequential cumsum or
        `np.add.at`, so it adds in the order of a site-by-site loop."""
        if not rows.size:
            return
        self.taken[rows] = True
        caps = self.problem.sites.caps
        self.cap_total = _running_sum(self.cap_total, caps[rows])
        self.obj = _running_sum(self.obj, self.cost[rows])
        if self.problem.cap:
            self.v_total = _running_sum(self.v_total, self.problem.cap[1][rows])
        k = self.problem.floors.of_site[rows]
        np.add.at(self.floor_totals, k[k >= 0], caps[rows][k >= 0])

    def remove(self, i: int) -> None:
        self.taken[i] = False
        self.cap_total -= self.problem.sites.caps[i]
        self.obj -= self.cost[i]
        k = self.problem.floors.of_site[i]
        if k >= 0:
            self.floor_totals[k] -= self.problem.sites.caps[i]
        if self.problem.cap:
            self.v_total -= self.problem.cap[1][i]

    def removable(self, i: int) -> bool:
        cap, floors = self.problem.sites.caps[i], self.problem.floors
        if not _ge(self.cap_total - cap, self.problem.cap_obj):
            return False
        k = floors.of_site[i]
        return k < 0 or self.floor_totals[k] - cap >= floors.ge[k]

    def cap_ok(self) -> bool:
        return self.problem.cap is None or _le(self.v_total, self.problem.cap[2])

    def costliest_first(self) -> np.ndarray:
        """The selected rows by descending cost, ties on the lower site id."""
        rows = np.flatnonzero(self.taken)
        return rows[np.lexsort((self.problem.sites.ids[rows], -self.cost[rows]))]

    def drop_removable(self) -> bool:
        """Drop, costliest first, each site of positive cost that is
        `removable` at its turn; True if any was dropped.

        The cover and every floor total only shrink, so a site that would
        uncover either now is never removable later: only the others are
        tested one by one."""
        rows = self.costliest_first()
        caps, floors = self.problem.sites.caps[rows], self.problem.floors
        keep = (self.cost[rows] > 0) & (self.cap_total - caps >= _at_least(self.problem.cap_obj))
        if floors:  # without floors `floor_totals` is empty
            k = floors.of_site[rows]
            keep &= (k < 0) | (self.floor_totals[k] - caps >= floors.ge[k])
        rows = rows[keep]
        dropped = False
        for i in rows.tolist():
            if self.removable(i):
                self.remove(i)
                dropped = True
        return dropped

    def fill(self) -> None:
        """Add unselected rows in ratio order until the cover is met (or
        the pool runs out); nothing when it is met already."""
        cover_min = _at_least(self.problem.cap_obj)
        if self.cap_total >= cover_min:
            return
        for rows in self.order.blocks():
            rows = rows[~self.taken[rows]]
            covered = np.flatnonzero(np.cumsum(np.append(
                self.cap_total, self.problem.sites.caps[rows]))[1:] >= cover_min)
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


class _FloorOrder:
    """The floor blocks under one cost (never NaN), with each cell's `cost` and
    `by_ratio`: each floor's first site by ratio in front (ties on the lower
    row, as in a stable sort), the rest sorted only where that site holds less."""

    def __init__(self, problem: _Problem, cost: np.ndarray):
        self.cost, self.blocks = cost, []
        for block in problem.floors.blocks:
            ratio = np.where(block.real, (c := cost[block.rows]) / block.caps, np.inf)
            first, at = ratio.argmin(axis=1), np.arange(c.shape[0])
            rows = block.rows.copy()
            rows[at, first], rows[:, 0] = block.rows[:, 0], block.rows[at, first]
            s = np.flatnonzero(block.caps[at, first] < problem.floors.mw[block.floors])
            rows[s] = np.take_along_axis(block.rows[s], ratio[s].argsort(axis=1, kind="stable"), 1)
            self.blocks.append(replace(block, cost=c, by_ratio=rows))


def _floor_covers(problem: _Problem, order: _FloorOrder) -> np.ndarray:
    """The rows that cover the floors, floor after floor: for each, the
    shortest prefix of its municipality's ratio order that meets it, or the
    cheapest single site that meets it alone (ties on the lower id) when
    that costs less; a floor that its first site meets reads no further.

    Every running total is a row-wise cumsum, so it adds in the order of a
    site-by-site loop."""
    floors, caps, cost = problem.floors, problem.sites.caps, order.cost
    parts, short = [], []
    for block in order.blocks:
        first, ge = block.by_ratio[:, 0], floors.ge[block.floors]
        alone = np.where(block.real & (block.caps >= ge[:, None]), block.cost, np.inf)
        at, p = np.arange(ge.size), alone.argmin(axis=1)
        single, alone = block.rows[at, p], alone[at, p]  # the cheapest site alone, its cost
        met = caps[first] >= ge
        parts.append((block.floors[met], np.ones((met.sum(), 1), dtype=bool),
                      np.where(alone < cost[first], single, first)[met, None]))
        block, ge, single, alone = block.take(~met), ge[~met], single[~met], alone[~met]
        rows = block.by_ratio
        cum = np.cumsum(np.where(block.real, caps[rows], 0.0), axis=1)  # MW after each site
        covered = cum >= ge[:, None]
        n = covered.argmax(axis=1)  # the last site of each cover
        at = np.arange(n.size)
        met = covered[at, n]
        short += zip(block.floors[~met].tolist(), cum[~met, -1].tolist())
        cost_a = np.cumsum(np.where(block.real, cost[rows], 0.0), axis=1)[at, n]
        cheaper = alone < cost_a
        rows[cheaper, 0] = single[cheaper]
        n[cheaper] = 0
        parts.append((block.floors, np.arange(rows.shape[1]) <= n[:, None], rows))
    if short:
        k, cum = min(short)
        raise InfeasibleError(f"equity floor {floors.mw[k].item()} MW exceeds potential "
                              f"{cum} MW in municipality {floors.mun[k].item()}")
    return floors.in_order(parts)


def _greedy(problem: _Problem, order: _FloorOrder) -> _State:
    """Floor-first then global ratio greedy, followed by a trim pass.

    A floor only takes sites of its own municipality, so none of them is
    selected before that floor's turn."""
    state = _State(problem, order.cost)
    if problem.floors:
        state.add_rows(_floor_covers(problem, order))

    state.fill()
    cap_obj = problem.cap_obj
    if not _ge(state.cap_total, cap_obj):
        shortfall = cap_obj - state.cap_total
        raise InfeasibleError(
            f"total potential {state.cap_total + 0.0:.3f} MW cannot cover capacity "
            f"target: shortfall {shortfall:.3f} MW")

    state.drop_removable()
    return state


def _polish(state: _State) -> None:
    """Single-swap (and drop) local search; in-place, deterministic.

    Each round, up to _POLISH_ROUNDS, drops removable sites, then tries
    every selected site `out` (costliest first) against the `neighborhood`
    cheapest-ratio unselected sites (every site of a pool of up to 400,
    else 120) and makes the first strictly improving feasible swap it finds
    for that `out`.

    The swap rule of `_ge`/`_le` is tested for all outs × ins of a round in
    one boolean matrix: the first row with a feasible swap gives the out,
    its first column the in. After that swap only the rows below it are
    tested again, against the new totals, so each out sees the totals the
    swaps before it left, as in a loop over the outs.
    """
    problem, cost = state.problem, state.cost
    caps, of_site, ge = problem.sites.caps, problem.floors.of_site, problem.floors.ge
    neighborhood = len(caps) if len(caps) <= 400 else 120
    cover_min = _at_least(problem.cap_obj)
    if problem.cap:
        _, v, limit = problem.cap
        cap_max = _at_most(limit)
    for _ in range(_POLISH_ROUNDS):
        improved = state.drop_removable()
        outs = state.costliest_first()[:neighborhood]
        ins = state.first_unselected(neighborhood)
        caps_in, caps_out = caps[ins], caps[outs]
        if problem.cap:
            v_in, v_out = v[ins], v[outs]
        # the tests that the totals do not enter; a column swapped in is
        # cleared, so no later out is offered it
        free = ~(cost[ins] - cost[outs][:, None] >= -1e-12)
        if problem.floors:
            ko = of_site[outs]
            unfloored, ge_out = (ko < 0)[:, None], ge[ko][:, None]
            floor_in = np.where(of_site[ins] == ko[:, None], caps_in, 0.0)
        r = 0
        while r < outs.size:
            ok = free[r:] & ((state.cap_total - caps_out[r:])[:, None] + caps_in >= cover_min)
            if problem.floors:
                t = (state.floor_totals[ko[r:]] - caps_out[r:])[:, None] + floor_in[r:]
                ok &= unfloored[r:] | (t >= ge_out[r:])
            if problem.cap:
                ok &= (state.v_total - v_out[r:])[:, None] + v_in <= cap_max
            hit = ok.any(axis=1)
            row = int(hit.argmax())
            if not hit[row]:
                break
            p = int(ok[row].argmax())
            r += row
            state.remove(int(outs[r]))
            state.add_rows(ins[p:p + 1])
            free[:, p] = False
            improved = True
            r += 1
        if not improved:
            return


def _fill(block: _FloorBlock, need: np.ndarray, caps: np.ndarray, cost: np.ndarray,
          used: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None:
    """Cover each floor of `block`, `need` MW, fractionally along its
    municipality's ratio order, as a site-by-site loop does: take
    min(capacity, need) of each site until the need is at most 1e-15; a
    floor that its first site brings there reads no further.

    Sets the fraction taken of each site in `used` and returns the cost
    of each take as parts of `_Floors.in_order`; None when a floor ends
    with a need above 1e-9 (is not met). The need after each site is a
    row-wise cumsum, so it subtracts in the loop's order.
    """
    first = block.by_ratio[:, 0]
    alone = need - caps[first] <= 1e-15
    frac = np.minimum(caps[first[alone]], need[alone]) / caps[first[alone]]
    used[first[alone]] = frac
    parts = [(block.floors[alone], np.ones((frac.size, 1), dtype=bool),
              (frac * cost[first[alone]])[:, None])]
    block, need = block.take(~alone), need[~alone]
    rows = block.by_ratio
    c = caps[rows]
    left = np.cumsum(np.concatenate((need[:, None], np.where(block.real, -c, 0.0)), axis=1),
                     axis=1)  # the need before each site, and after the last
    if not (left[:, -1] <= 1e-9).all():
        return None
    done = left[:, 1:] <= 1e-15
    n = np.where(done.any(axis=1), done.argmax(axis=1) + 1, block.size)
    taken = np.arange(rows.shape[1]) < n[:, None]
    frac = np.minimum(c, left[:, :-1])[taken] / c[taken]
    used[rows[taken]] = frac
    terms = np.zeros(rows.shape)
    terms[taken] = frac * cost[rows[taken]]
    return parts + [(block.floors, taken, terms)]


def _lp_nested(problem: _Problem, order: _FloorOrder, v: np.ndarray) -> tuple[float, float]:
    """Exact optimum of the fractional relaxation (floors + covering), and
    the total of `v` over that fractional solution.

    Floors are filled fractionally at the cheapest within-municipality
    ratios (`_fill`), their costs added floor after floor; the residual
    capacity takes the globally cheapest remaining fractional marginals.
    Marginal cost curves are convex, so this greedy is LP-optimal. An
    infeasible relaxation gives (inf, inf).
    """
    sites, floors, caps, cost = problem.sites, problem.floors, problem.sites.caps, order.cost
    used = problem.work.used  # fraction of each site already committed, with floors
    total_cost = 0.0
    floor_cap = 0.0
    v_total = 0.0
    if floors:
        used.fill(0)
        parts = [_fill(block, floors.mw[block.floors], caps, cost, used)
                 for block in order.blocks]
        if None in parts:
            return np.inf, np.inf
        total_cost = _running_sum(0.0, floors.in_order(sum(parts, [])))
        floor_cap = _running_sum(0.0, floors.mw)
        v_total = float(np.sum(used * v))
    residual = problem.cap_obj - floor_cap
    if residual > 1e-15:
        # take each site's available capacity in ratio order until the
        # residual is <= 1e-15, the last one only in part; every running sum
        # is a sequential cumsum, so it adds in the order of a scalar loop
        for rows in _RatioOrder(sites, cost, problem.work).blocks():
            # without floors nothing is committed, and caps * (1.0 - 0.0) is caps
            avail = caps[rows] * (1.0 - used[rows]) if floors else caps[rows]
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
            total_cost = _running_sum(total_cost, frac * cost[rows[:n]])
            v_total = _running_sum(v_total, frac * v[rows[:n]])
            if done.size:
                break
        if residual > 1e-9:
            return np.inf, np.inf
    return total_cost, v_total


def _floor_int_bound(problem: _Problem, order: _FloorOrder, v: np.ndarray
                     ) -> tuple[float, float]:
    """Lower bound keeping floor coverage integral per municipality, and
    the total of `v` over the covers it takes.

    Exact when every site of a municipality meets its floor alone (the
    cheapest is taken, ties on the lower id) or the municipality is small
    enough to enumerate; otherwise the municipal fractional fill in ratio
    order (`_fill`, as in `_lp_nested`) is used. The terms are added floor
    after floor. Ignores the global constraint, which only relaxes further.
    An unattainable floor gives (inf, inf).
    """
    floors, caps, cost = problem.floors, problem.sites.caps, order.cost
    used = problem.work.used  # fractional fills
    used.fill(0)
    parts, v_parts = [], []  # cost and v terms, per block and kind of floor
    for block in order.blocks:
        mw = floors.mw[block.floors]
        single = mw <= block.min_cap + 1e-15
        if single.any():
            p = block.rows[single, np.where(block.real, block.cost, np.inf)[single].argmin(axis=1)]
            one = np.ones((p.size, 1), dtype=bool)
            parts.append((block.floors[single], one, cost[p, None]))
            v_parts.append((block.floors[single], one, v[p, None]))
        fill = ~single & (block.size > 12)
        if fill.any():
            filled = _fill(block.take(fill), mw[fill], caps, cost, used)
            if filled is None:
                return np.inf, np.inf
            parts += filled
        small = ~single & ~fill
        if small.any():
            b = block.take(small)
            one = np.ones((b.size.size, 1), dtype=bool)
            terms, v_terms = np.empty(one.shape), np.empty(one.shape)
            for i, (k, size) in enumerate(zip(b.floors.tolist(), b.size.tolist())):
                idxs = b.rows[i, :size]
                bits = _subset_rows(size)[1:]
                feas = bits @ caps[idxs] >= floors.ge[k]
                if not feas.any():
                    return np.inf, np.inf
                # an inf cost (a penalised cost that overflowed) times a bit
                # of 0 is NaN: sum the finite costs, then price every subset
                # that holds an inf site at inf
                inf = cost[idxs] == np.inf
                costs = bits @ np.where(inf, 0.0, cost[idxs])
                costs[bits @ inf > 0] = np.inf
                costs = costs[feas]
                terms[i] = costs.min()
                v_terms[i] = bits[feas.nonzero()[0][costs.argmin()]] @ v[idxs]
            parts.append((b.floors, one, terms))
            v_parts.append((b.floors, one, v_terms))
    total = _running_sum(0.0, floors.in_order(parts))
    v_total = _running_sum(0.0, floors.in_order(v_parts))
    return total, v_total + float(np.sum(used * v))


def _relaxations(problem: _Problem) -> list[Callable[..., tuple[float, float]]]:
    """The relaxations that bound a solve: the covering LP and, with
    floors, the integral floor bound; the larger bound holds."""
    return [_lp_nested, _floor_int_bound] if problem.floors else [_lp_nested]


def _floor_bound(problem: _Problem, order: _FloorOrder) -> float:
    zeros = np.broadcast_to(0.0, len(problem.sites))  # no v total wanted; a view, not a vector
    return max(relax(problem, order, zeros)[0] for relax in _relaxations(problem))


def _lower_bound(problem: _Problem, order: _FloorOrder, lam: float) -> float:
    """The floor bound, or with a multiplier `lam` > 0 on the cap the
    larger of it and the Lagrangian bound at `lam`; 0 when not finite."""
    bound = _floor_bound(problem, order)
    if lam > 0:
        _, v, limit = problem.cap
        bound = max(bound, _floor_bound(problem, _FloorOrder(problem, order.cost + lam * v))
                    - lam * limit)
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
    idx = np.sort(np.asarray(rows, dtype=np.int64))
    ids = tuple(sites.ids[idx].tolist())
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


def require_potential(sites: SiteTable, cap_obj: float) -> None:
    """InfeasibleError unless the pool's total capacity covers `cap_obj`."""
    total_potential = float(sites.caps.sum())
    if not _ge(total_potential, cap_obj):
        raise InfeasibleError(
            f"total potential {total_potential:.3f} MW below capacity target "
            f"{cap_obj:.3f} MW: shortfall {cap_obj - total_potential:.3f} MW")


def _problem(instance: Instance, weights: Weights, constraints: Constraints
             ) -> tuple[_Problem, np.ndarray]:
    """The problem and site costs of a solve, after the checks that hold at
    every pool size."""
    sites = instance.sites
    if not len(sites):
        raise InfeasibleError("instance has no candidate sites")
    cost = site_costs(sites, weights)
    cap_obj = float(constraints.cap_obj)
    require_potential(sites, cap_obj)
    cap = next(((crit, getattr(sites, crit), float(getattr(constraints, fld)))
                for crit, fld in _CAP_FIELDS.items() if getattr(constraints, fld) is not None),
               None)
    return _Problem(sites, cap_obj, _floors(sites, constraints.equity_floors), cap), cost


def _run_heuristic(problem: _Problem, order: _FloorOrder) -> _State:
    state = _greedy(problem, order)
    _polish(state)
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


def _enumerate(problem: _Problem, cost: np.ndarray) -> tuple[int, float] | None:
    """Exhaustive subset search; returns (best mask, objective) or None
    if no feasible subset exists. Ties go to the lexicographically
    smallest installed id-set.

    Meet in the middle: mask `h << n_lo | l` splits into a high half h and
    a low half l over the first n_lo rows, and the total of a per-site
    vector over it is hi[h] + lo[l], from two tables of half-subset sums.
    Masks are scanned in ascending order, _CHUNK at a time.
    """
    sites, floors, caps = problem.sites, problem.floors, problem.sites.caps
    n = len(sites)
    n_lo = (n + 1) // 2
    lo_rows, hi_rows = _subset_rows(n_lo), _subset_rows(n - n_lo)

    def halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return hi_rows @ v[n_lo:], lo_rows @ v[:n_lo]

    def total(pair: tuple[np.ndarray, np.ndarray], hs: slice) -> np.ndarray:
        hi, lo = pair
        return (hi[hs, None] + lo).ravel()

    at_least = [(halves(caps), _at_least(problem.cap_obj))]
    at_least += [(halves(np.where(floors.of_site == k, caps, 0.0)), ge)
                 for k, ge in enumerate(floors.ge)]
    at_most = [] if problem.cap is None else [(halves(problem.cap[1]), _at_most(problem.cap[2]))]
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


def _solve_exact(problem: _Problem, cost: np.ndarray) -> Selection:
    """The optimum by enumeration, reported as its own lower bound. When no
    subset is feasible, the error names what enumeration proves
    unattainable: the floors, or else the cap.

    The whole pool meets the cover target (`require_potential`), so
    without a cap only the floors can fail; with the floors met, the cap
    fails, and the least total of its criterion exceeds it."""
    exact = _enumerate(problem, cost)
    if exact is None:
        uncapped = replace(problem, cap=None)
        if problem.floors and _enumerate(uncapped, cost) is None:
            raise InfeasibleError("equity floors unattainable with this pool")
        name, v, limit = problem.cap
        vmin = _enumerate(uncapped, v)[1]
        raise InfeasibleError(
            f"cap on total {name} ({limit}) below the minimum achievable {vmin:.6f}", bound=vmin)
    return _make_selection(problem.sites, _mask_rows(exact[0], len(problem.sites)), cost, None)


def _lambda_scale(cost: np.ndarray, v: np.ndarray) -> float:
    """A multiplier at which the penalty `lam * v` is on the scale of `cost`."""
    pos = v[v > 0]
    return max(1.0, float(cost.max()) / max(float(pos.min()), 1e-12)) if pos.size else 1.0


def _multiplier(relax: Callable[[_FloorOrder], tuple[float, float]], problem: _Problem,
                base: np.ndarray, v: np.ndarray, limit: float) -> tuple[float, float, float]:
    """Where the Lagrangian bound of one relaxation is largest, for the cap
    `v <= limit` priced into `base + lam * v`.

    `relax(order)` gives the relaxation's optimum under `order.cost` and the
    total of `v` over its solution; the optimum at `base + lam * v` is
    concave and piecewise linear in lam with that total as its slope, so
    L(lam), that optimum less lam * limit, is largest where the slope
    crosses the limit. Returns the smallest lam >= 0 found at which the
    slope meets the limit (to a relative FEAS_TOL), the breakpoint it
    approaches from above, where the bound is taken, and L at the former.

    The tangents at a missing `lo` and a meeting `hi` cross inside
    [lo, hi], on the breakpoint once both touch the pieces next to it.
    Each trial is that crossing, or the midpoint after a trial that did
    not halve the interval. At the breakpoint itself the relaxation ties,
    so its v-total may read either way, but L is largest there. Each
    trial's penalised cost is the solve's `work.pen`.
    """
    def tangent(lam: float) -> tuple[float, float]:
        value, v_total = relax(_FloorOrder(problem, problem.work.penalised(base, lam, v)))
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


def solve(instance: Instance, weights: Weights, constraints: Constraints) -> Selection:
    """Exact (small pools) or certified-heuristic solve; see module docstring."""
    problem, cost = _problem(instance, weights, constraints)
    sites = problem.sites
    if len(sites) <= BRUTE_FORCE_LIMIT:
        return _solve_exact(problem, cost)

    lam = at_break = 0.0  # the cap's multiplier, and the bound's
    runs = 0

    def heuristic(order: _FloorOrder) -> _State:
        nonlocal runs
        runs += 1
        return _run_heuristic(problem, order)

    state = heuristic(order := _FloorOrder(problem, cost))  # the bound reads `order` again
    if not state.cap_ok():
        name, v, limit = problem.cap
        # is the cap attainable at all? check the min-v solution
        low = heuristic(_FloorOrder(problem, v))
        vmin = float(np.sum(v[low.taken]))
        if not _le(vmin, limit):
            # the heuristic's minimum proves nothing; only the relaxation
            # bound on the minimum can rule the cap out
            bound = _floor_bound(problem, _FloorOrder(problem, v))
            if not _le(bound, limit):
                raise InfeasibleError(
                    f"cap on total {name} ({limit}) below the minimum achievable, "
                    f"which is at least {bound:.6f}", bound=bound)
            raise InfeasibleError(
                f"cap on total {name} ({limit}) not met: the lowest total found is "
                f"{vmin:.6f}, and the lower bound {bound:.6f} does not rule the "
                f"cap out", proven=False, bound=bound)

        # the multiplier of the relaxation with the larger bound
        lam, at_break, _ = max(
            (_multiplier(functools.partial(relax, problem, v=v), problem, cost, v, limit)
             for relax in _relaxations(problem)),
            key=lambda m: m[2])
        met: list[np.ndarray] = []  # selected rows of each run that meets the cap

        def meets(trial: float) -> bool:
            s = heuristic(_FloorOrder(problem, problem.work.penalised(cost, trial, v)))
            if not _le(s.v_total, limit):
                return False
            met.append(np.flatnonzero(s.taken))
            return True

        _bracket_runs(meets, lam or _FIRST_STEP * _lambda_scale(cost, v))
        # every run meets the cover and the floors, so the min-v run meets
        # everything when no bracket run did. Constrained polish on the true
        # objective from each distinct run that meets the cap; the cheapest
        # result wins, ties to the earliest run
        state = None
        seen: set[bytes] = set()
        for rows in met or [np.flatnonzero(low.taken)]:
            if rows.tobytes() in seen:
                continue
            seen.add(rows.tobytes())
            final = _State(problem, cost, rows)
            _polish(final)
            if state is None or final.obj < state.obj:
                state = final

    bound = _lower_bound(problem, order, at_break)
    sel = _make_selection(sites, np.flatnonzero(state.taken), cost, bound)
    sel.stats = {"heuristic_runs": runs,
                 "lambda": {} if problem.cap is None else {problem.cap[0]: float(lam)}}
    return sel


def equity_floors(municipalities: MunicipalityTable, total_target_2050: float,
                  municipal_potentials: np.ndarray) -> dict[int, float]:
    """Population-share capacity floors, clamped to [0, potential], keyed
    by municipality id; `municipal_potentials` holds the MW per table row.

    floor_j = clamp(pop_j / pop_total * total_target - existing_j,
                    0, potential_j).
    """
    pop_total = sum(municipalities.population.tolist())
    if pop_total <= 0:
        raise PlanError("total population must be positive for equity floors")
    share = municipalities.population / pop_total * total_target_2050
    floors = np.minimum(np.maximum(share - municipalities.existing_capacity, 0.0),
                        municipal_potentials)
    return dict(zip(municipalities.ids.tolist(), floors.tolist()))


def municipal_potentials(instance: Instance) -> np.ndarray:
    """Candidate MW per municipality table row (zero where it has none),
    summed in ascending site-id order. The sites go in `by_mun` order, which
    keeps that order within each municipality and, its ids being sorted,
    makes their row lookup a cheap one."""
    sites = instance.sites
    return instance.municipalities.total(sites.mun[sites.by_mun], sites.caps[sites.by_mun])


def target_constraints(instance: Instance, total_mw: float, equity: bool,
                       potentials: np.ndarray | None = None) -> Constraints:
    """Constraints for a national total target (existing stock included).

    The added capacity to cover is the total minus the existing stock;
    with `equity` the population-share floors of that total apply
    (`potentials` defaults to `municipal_potentials(instance)`).
    """
    existing_total = sum(instance.municipalities.existing_capacity.tolist())
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
                 step_factor: float = 0.9) -> ParetoFront:
    """Epsilon-constraint front: tighten the swept criterion by the step
    factor each optimization and minimize the other criterion.

    `constraints` may cap no criterion but the swept one, since a solve
    takes one cap. Point 0 is the unconstrained minimum of `optimize`; its
    total on the swept criterion anchors the caps T0 * factor^k. The first cap that
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
    for crit, fld in _CAP_FIELDS.items():
        if crit != sweep and getattr(constraints, fld) is not None:
            raise PlanError(f"a sweep caps only {sweep}, but the constraints also cap {crit}")
    if steps < 1:
        raise PlanError("steps must be >= 1")
    if not 0.0 < step_factor < 1.0:
        raise PlanError(f"step factor {step_factor} outside (0, 1)")
    w = Weights(w_c=1.0 if optimize == "lcoe" else 0.0,
                w_s=1.0 if optimize == "scenicness" else 0.0,
                w_l=1.0 if optimize == "network_length" else 0.0)

    def total_of(sel: Selection, crit: str) -> float:
        return {"lcoe": sel.totals.lcoe, "scenicness": sel.totals.scenicness,
                "network_length": sel.totals.network_length_km}[crit]

    sel0 = solve(instance, w, constraints)
    t0 = total_of(sel0, sweep)
    front = ParetoFront(optimize=optimize, sweep=sweep, step_factor=step_factor)
    front.points.append(ParetoPoint(0, t0, total_of(sel0, optimize), sel0))
    cap_field = _CAP_FIELDS[sweep]
    for k in range(1, steps):
        cap_val = t0 * step_factor ** k
        con = replace(constraints, **{cap_field: cap_val})
        try:
            sel = solve(instance, w, con)
        except InfeasibleError as err:
            front.stop = "proven_limit" if err.proven else "unproven_miss"
            front.stop_cap, front.stop_bound = cap_val, err.bound
            break
        front.points.append(ParetoPoint(k, cap_val, total_of(sel, optimize), sel))
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
            front.points[i - 1] = ParetoPoint(prev.step, prev.cap, cur.achieved_min, sel)
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
