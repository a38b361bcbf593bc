import copy
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SITE_COLUMNS, mk_instance, mk_mun, mk_site
from windplan import solver
from windplan.domain import InfeasibleError, PlanError, SiteTable
from windplan.geoprep import prep_instance
from windplan.objective import Weights, site_costs
from windplan.solver import (
    BRUTE_FORCE_LIMIT,
    Constraints,
    Means,
    Selection,
    Totals,
    brute_force,
    equity_floors,
    municipal_potentials,
    pareto_sweep,
    solve,
    verify_selection,
)
from windplan.synth import SynthSpec, generate

W_LCOE = Weights(1.0, 0.0, 0.0)


def rand_instance(seed, n_sites, n_muns=3):
    spec = SynthSpec(seed=seed, n_sites=n_sites, n_municipalities=n_muns,
                     n_states=2, n_transformers=3, n_existing=2,
                     rho_lcoe_scenicness=0.0)
    inst, _ = prep_instance(generate(spec))
    return inst


def test_three_site_example(abc_instance):
    for run in (solve, brute_force):
        sel = run(abc_instance, W_LCOE, Constraints(cap_obj=4.0))
        assert sel.site_ids == (1, 2)
        assert sel.objective_value == 4.0
        assert sel.totals.capacity_mw == 4.0
        # the exact path reports its optimum as its own bound
        assert sel.lower_bound == 4.0 and sel.gap == 0.0


def test_zero_target_empty_selection(abc_instance):
    sel = solve(abc_instance, W_LCOE, Constraints(cap_obj=0.0))
    assert sel.site_ids == ()
    assert sel.objective_value == 0.0


def test_target_above_potential_infeasible(abc_instance):
    for run in (solve, brute_force):
        with pytest.raises(InfeasibleError, match="below capacity target"):
            run(abc_instance, W_LCOE, Constraints(cap_obj=9.0))


def test_selection_invariants(abc_instance):
    sel = solve(abc_instance, W_LCOE, Constraints(cap_obj=5.0))
    sites = abc_instance.sites
    rows = sites.rows(sel.site_ids)
    assert sel.totals.capacity_mw == sum(sites.caps[rows].tolist())
    assert sel.totals.lcoe == sum(sites.lcoe[rows].tolist())
    assert sel.objective_value >= sel.lower_bound
    assert sel.gap >= 0.0
    assert verify_selection(sel, abc_instance, Constraints(cap_obj=5.0))


def test_brute_force_refusal():
    inst = rand_instance(1, BRUTE_FORCE_LIMIT + 4)
    with pytest.raises(PlanError):
        brute_force(inst, W_LCOE, Constraints(cap_obj=1.0))


def test_brute_force_tie_break_lexicographic():
    # sites 1 and 2 are interchangeable; the optimum must use site 1
    sites = [mk_site(1, lcoe=2.0, capacity=3.0), mk_site(2, lcoe=2.0, capacity=3.0),
             mk_site(3, lcoe=9.0, capacity=3.0)]
    inst = mk_instance(sites)
    sel = brute_force(inst, W_LCOE, Constraints(cap_obj=3.0))
    assert sel.site_ids == (1,)
    sel = solve(inst, W_LCOE, Constraints(cap_obj=3.0))
    assert sel.site_ids == (1,)


def test_cap_below_achievable_names_criterion(abc_instance):
    con = Constraints(cap_obj=4.0, m_s=1.0)  # min scenicness total is 4.0
    for run in (solve, brute_force):
        with pytest.raises(InfeasibleError, match=r"scenicness \(1.0\) below the minimum "
                                                  r"achievable 4.000000"):
            run(abc_instance, W_LCOE, con)


def test_cap_constrained_solution_respects_cap():
    inst = rand_instance(5, 14)
    base = solve(inst, W_LCOE, Constraints(cap_obj=10.0))
    cap = base.totals.scenicness * 1.1
    con = Constraints(cap_obj=10.0, m_s=cap)
    sel = solve(inst, W_LCOE, con)
    assert verify_selection(sel, inst, con)
    assert sel.totals.scenicness <= cap + 1e-9


def test_equity_floor_clamping_cases():
    muns = [mk_mun(1, population=75.0, existing=10.0),
            mk_mun(2, population=25.0, existing=0.0)]
    pots = {1: 1000.0, 2: 1000.0}
    floors = equity_floors(muns, 100.0, pots)
    assert floors == {1: 65.0, 2: 25.0}
    # existing above the share clamps to zero
    muns = [mk_mun(1, population=50.0, existing=80.0), mk_mun(2, population=50.0)]
    floors = equity_floors(muns, 100.0, {1: 1000.0, 2: 1000.0})
    assert floors[1] == 0.0
    # and the potential caps the floor
    muns = [mk_mun(1, population=40.0), mk_mun(2, population=60.0)]
    floors = equity_floors(muns, 100.0, {1: 12.0, 2: 1000.0})
    assert floors[1] == 12.0


def test_floors_are_satisfied():
    inst = rand_instance(9, 16, n_muns=3)
    pots = municipal_potentials(inst)
    total = 0.6 * sum(pots.values())
    floors = equity_floors(inst.municipalities, total, pots)
    existing = sum(m.existing_capacity for m in inst.municipalities)
    con = Constraints(cap_obj=max(total - existing, 0.0), equity_floors=floors)
    sel = solve(inst, W_LCOE, con)
    assert verify_selection(sel, inst, con)


def test_floor_in_municipality_without_candidates():
    inst = mk_instance([mk_site(1, mun=1)], municipalities=[mk_mun(1), mk_mun(2)])
    con = Constraints(cap_obj=1.0, equity_floors={2: 1.0})
    for run in (solve, brute_force):
        with pytest.raises(InfeasibleError, match=r"without candidates: \[2\]"):
            run(inst, W_LCOE, con)
    # the same message on the heuristic path
    big = mk_instance([mk_site(i, mun=1) for i in range(1, BRUTE_FORCE_LIMIT + 6)],
                      municipalities=[mk_mun(1), mk_mun(2)])
    assert len(big.sites) > BRUTE_FORCE_LIMIT
    with pytest.raises(InfeasibleError, match=r"without candidates: \[2\]"):
        solve(big, W_LCOE, con)


def test_scale_argmin_invariance():
    inst = rand_instance(13, 15)
    con = Constraints(cap_obj=12.0)
    sel = solve(inst, W_LCOE, con)
    scaled = replace(inst, sites=replace(inst.sites, lcoe=inst.sites.lcoe * 7.0))
    sel7 = solve(scaled, W_LCOE, con)
    assert sel7.site_ids == sel.site_ids
    assert abs(sel7.objective_value - 7.0 * sel.objective_value) < 1e-9


def test_determinism():
    inst = rand_instance(21, 17)
    con = Constraints(cap_obj=15.0)
    a = solve(inst, Weights(1.0, 1.0, 1.0), con)
    b = solve(inst, Weights(1.0, 1.0, 1.0), con)
    assert a.site_ids == b.site_ids
    assert a.objective_value == b.objective_value


def test_equity_floor_dominance():
    from windplan.metrics import regional_equity
    inst = rand_instance(33, 60, n_muns=8)
    pots = municipal_potentials(inst)
    total = 0.5 * sum(pots.values())
    existing = sum(m.existing_capacity for m in inst.municipalities)
    added = max(total - existing, 1.0)
    plain = solve(inst, W_LCOE, Constraints(cap_obj=added))
    floors = equity_floors(inst.municipalities, total, pots)
    floored = solve(inst, W_LCOE, Constraints(cap_obj=added, equity_floors=floors))
    eq_plain = regional_equity(plain.site_ids, inst).regional_equity_pct
    eq_floored = regional_equity(floored.site_ids, inst).regional_equity_pct
    assert eq_floored >= eq_plain


def test_heuristic_path_feasible_and_bounded():
    # above the enumeration limit: heuristic + LP bound path
    inst = rand_instance(41, 120, n_muns=10)
    con = Constraints(cap_obj=0.4 * sum(inst.sites.caps.tolist()))
    sel = solve(inst, Weights(1.0, 1.0, 1.0), con)
    assert verify_selection(sel, inst, con)
    assert sel.objective_value >= sel.lower_bound
    assert np.isfinite(sel.gap)


def test_heuristic_lagrangian_cap_path():
    inst = rand_instance(43, 150, n_muns=10)
    cap_obj = 0.35 * sum(inst.sites.caps.tolist())
    base = solve(inst, W_LCOE, Constraints(cap_obj=cap_obj))
    cap = base.totals.network_length_km * 0.8
    con = Constraints(cap_obj=cap_obj, m_l=cap)
    sel = solve(inst, W_LCOE, con)
    assert verify_selection(sel, inst, con)
    assert sel.totals.network_length_km <= cap + 1e-9 * max(1.0, cap)
    assert sel.objective_value >= base.objective_value - 1e-9


def test_pareto_front_shape_and_feasibility():
    inst = rand_instance(55, 14)
    cap_obj = 0.4 * sum(inst.sites.caps.tolist())
    front = pareto_sweep(inst, "lcoe", "scenicness",
                         Constraints(cap_obj=cap_obj), steps=6)
    assert front.points[0].step == 0
    mins = [p.achieved_min for p in front.points]
    # tighter caps can only worsen the achieved minimum
    assert all(a <= b for a, b in zip(mins, mins[1:]))
    for p in front.points[1:]:
        assert p.selection.totals.scenicness <= p.cap + 1e-9 * max(1.0, p.cap)


def test_pareto_sweep_rejects_bad_args():
    inst = rand_instance(55, 8)
    con = Constraints(cap_obj=1.0)
    with pytest.raises(PlanError):
        pareto_sweep(inst, "lcoe", "lcoe", con, steps=3)
    with pytest.raises(PlanError):
        pareto_sweep(inst, "lcoe", "scenicness", con, steps=0)
    with pytest.raises(PlanError):
        pareto_sweep(inst, "lcoe", "color", con, steps=3)


def test_pareto_truncation_flag():
    inst = rand_instance(57, 10)
    cap_obj = 0.7 * sum(inst.sites.caps.tolist())
    front = pareto_sweep(inst, "lcoe", "scenicness",
                         Constraints(cap_obj=cap_obj), steps=40)
    # forty 10% cuts push the cap far below the feasibility limit
    assert front.truncated
    assert len(front.points) < 40


def test_pareto_stop_reasons():
    # the heuristic misses the step-1 cap, which the bound does not rule out
    inst = rand_instance(10, 52)
    front = pareto_sweep(inst, "lcoe", "scenicness", Constraints(cap_obj=57.03099829779829),
                         steps=3, step_factor=31.439414949797282 / 69.38336043787855)
    assert len(front.points) == 1 and front.truncated
    assert front.stop == "unproven_miss"
    assert front.stop_cap == pytest.approx(31.439414949797282, rel=1e-12)
    assert f"{front.stop_bound:.6f}" == "30.869855"
    # enumeration proves the next cap infeasible
    inst = rand_instance(57, 10)
    front = pareto_sweep(inst, "lcoe", "scenicness",
                         Constraints(cap_obj=0.7 * sum(inst.sites.caps.tolist())), steps=40)
    assert front.truncated and front.stop == "proven_limit"
    assert front.stop_cap == pytest.approx(front.points[0].cap * 0.9 ** len(front.points))
    assert front.stop_bound > front.stop_cap
    # every step solved
    front = pareto_sweep(inst, "lcoe", "scenicness",
                         Constraints(cap_obj=0.7 * sum(inst.sites.caps.tolist())), steps=1)
    assert not front.truncated and front.stop == "complete"
    assert front.stop_cap is None and front.stop_bound is None


def _lp_v_total(sites, pen, v, cap_obj):
    """Total of `v` over the covering LP optimum of cost `pen` (no floors):
    one full sort by ratio, then the cheapest prefix, the last site in part."""
    order = np.lexsort((sites.ids, pen / sites.caps))
    caps = sites.caps[order]
    frac = np.clip((cap_obj - (np.cumsum(caps) - caps)) / caps, 0.0, 1.0)
    return float(frac @ v[order])


def test_capped_solve_takes_multiplier_from_relaxation(monkeypatch):
    inst = rand_instance(43, 150, n_muns=10)
    sites = inst.sites
    assert len(sites) > BRUTE_FORCE_LIMIT
    cap_obj = 0.35 * sum(sites.caps.tolist())
    runs = []
    heuristic = solver._run_heuristic
    monkeypatch.setattr(solver, "_run_heuristic",
                        lambda *a: runs.append(1) or heuristic(*a))
    # one cap per criterion, each minimizing another criterion
    cases = [(Weights(0.0, 1.0, 0.0), "lcoe", "m_c"), (W_LCOE, "scenicness", "m_s"),
             (W_LCOE, "network_length", "m_l")]
    for weights, crit, fld in cases:
        free = solve(inst, weights, Constraints(cap_obj=cap_obj))
        v = getattr(sites, crit)
        limit = 0.9 * float(np.sum(v[sites.rows(free.site_ids)]))
        con = Constraints(cap_obj=cap_obj, **{fld: limit})
        runs.clear()
        sel = solve(inst, weights, con)
        assert len(runs) == sel.stats["heuristic_runs"] <= 15, (crit, len(runs))
        assert verify_selection(sel, inst, con)
        assert sel.lower_bound <= sel.objective_value
        lam = sel.stats["lambda"][crit]
        cost = site_costs(sites, weights)
        assert lam > 0
        assert solver._le(_lp_v_total(sites, cost + lam * v, v, cap_obj), limit)
        assert not solver._le(_lp_v_total(sites, cost + lam * (1 - 1e-6) * v, v, cap_obj),
                              limit)
    # small equity floors: the integral floor bound is the larger relaxation,
    # and its multiplier lifts the bound above the uncapped one
    floored = rand_instance(47, 400, n_muns=60)
    small = 0.1 * sum(floored.sites.caps.tolist())
    existing = sum(m.existing_capacity for m in floored.municipalities)
    con = Constraints(cap_obj=small, equity_floors=equity_floors(
        floored.municipalities, small + existing, municipal_potentials(floored)))
    limit = 0.95 * solve(floored, W_LCOE, con).totals.scenicness
    con = replace(con, m_s=limit)
    runs.clear()
    sel = solve(floored, W_LCOE, con)
    assert len(runs) == sel.stats["heuristic_runs"] <= 15
    assert verify_selection(sel, floored, con)
    assert sel.stats["lambda"]["scenicness"] > 0
    cost = site_costs(floored.sites, W_LCOE)
    plain = solver._floor_bound(floored.sites, cost, small,
                                solver._floors(floored.sites, con.equity_floors))
    assert plain < sel.lower_bound <= sel.objective_value
    # two caps together
    free = solve(inst, W_LCOE, Constraints(cap_obj=cap_obj))
    con = Constraints(cap_obj=cap_obj, m_s=0.95 * free.totals.scenicness,
                      m_l=0.9 * free.totals.network_length_km)
    runs.clear()
    sel = solve(inst, W_LCOE, con)
    assert len(runs) == sel.stats["heuristic_runs"] <= 30
    assert set(sel.stats["lambda"]) == {"scenicness", "network_length"}
    assert verify_selection(sel, inst, con)
    assert sel.lower_bound <= sel.objective_value


def _shuffled(inst, seed):
    """The instance with its table rebuilt from columns in shuffled row order."""
    order = np.random.default_rng(seed).permutation(len(inst.sites))
    assert (order != np.arange(order.size)).any()
    return replace(inst, sites=SiteTable.from_columns(
        *(getattr(inst.sites, c)[order] for c in SITE_COLUMNS)))


def _floored(inst, share):
    pots = municipal_potentials(inst)
    total = share * sum(pots.values())
    existing = sum(m.existing_capacity for m in inst.municipalities)
    return Constraints(cap_obj=max(total - existing, 1.0),
                       equity_floors=equity_floors(inst.municipalities, total, pots))


@pytest.mark.parametrize("weights", [W_LCOE, Weights(1.0, 1.0, 1.0)])
def test_candidate_order_does_not_matter(weights):
    small = rand_instance(61, 16, n_muns=3)
    large = rand_instance(63, 140, n_muns=9)
    cap = 0.3 * sum(large.sites.caps.tolist())
    cases = [(small, _floored(small, 0.5), True),
             (large, Constraints(cap_obj=cap), False),
             (large, _floored(large, 0.4), False),
             (large, Constraints(cap_obj=cap, m_s=solve(large, weights, Constraints(
                 cap_obj=cap)).totals.scenicness * 0.9), False)]
    for inst, con, exact in cases:
        runs = [solve] + ([brute_force] if exact else [])
        for run in runs:
            a = run(inst, weights, con)
            b = run(_shuffled(inst, 5), weights, con)
            assert a.site_ids == b.site_ids
            assert a.objective_value == b.objective_value
            assert a.lower_bound == b.lower_bound
            assert a.gap == b.gap


def _canned(site_ids, objective, lower_bound, scenicness):
    return Selection(site_ids=site_ids, objective_value=objective,
                     totals=Totals(1.0, objective, scenicness, 0.0),
                     means=Means(0.0, 0.0, 0.0, 0.0), lower_bound=lower_bound,
                     gap=(objective - lower_bound) / lower_bound)


def test_pareto_backward_pass_keeps_looser_bound(monkeypatch, abc_instance):
    # the free solve misses an optimum that the capped solve finds
    loose = _canned((3,), 10.0, 7.0, 9.0)
    tight = _canned((1, 2), 8.0, 7.95, 8.0)
    monkeypatch.setattr(solver, "solve",
                        lambda inst, w, con, scaled=None: loose if con.m_s is None else tight)
    front = pareto_sweep(abc_instance, "lcoe", "scenicness",
                         Constraints(cap_obj=1.0), steps=2, step_factor=0.95)
    p0, p1 = front.points
    assert p0.achieved_min == 8.0
    assert p0.selection.site_ids == (1, 2)
    # the tight point's bound 7.95 does not hold at the loose cap
    assert p0.selection.lower_bound == 7.0
    assert p0.gap == p0.selection.gap == pytest.approx(1.0 / 7.0)
    # the tight point still carries its own certificate
    assert p1.selection is tight
    assert tight.lower_bound == 7.95 and p1.gap == tight.gap


def _ratio_pool(n, seed, zero_share, decimals):
    """Ids, capacities and costs whose cost/capacity ratios tie heavily."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(10 * n)[:n]
    caps = rng.choice([2.0, 3.0, 4.5], size=n)
    cost = np.round(rng.uniform(0.0, 5.0, size=n), decimals)
    cost[rng.random(n) < zero_share] = 0.0
    empty = np.zeros(n)
    sites = SiteTable(ids=ids, mun=np.zeros(n, dtype=np.int64), lat=empty, lon=empty,
                      caps=caps, lcoe=empty, scenicness=empty, full_load_hours=empty,
                      network_length=empty, by_mun=np.arange(n), mun_rows={0: (0, n)})
    return sites, cost


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
       zero_share=st.sampled_from([0.0, 0.05, 0.5]), decimals=st.integers(0, 2))
def test_ratio_order_is_exact_full_lexsort(n, seed, zero_share, decimals):
    sites, cost = _ratio_pool(n, seed, zero_share, decimals)
    full = np.lexsort((sites.ids, cost / sites.caps)).tolist()
    for rows in (1, 1024, 1025):
        assert list(itertools.islice(solver._RatioOrder(sites, cost), rows)) == full[:rows]
    order = solver._RatioOrder(sites, cost)
    assert list(order) == full
    assert list(order) == full  # a second iteration of the same object
    # a reader paused while another one grows the sorted prefix
    shared = solver._RatioOrder(sites, cost)
    early = iter(shared)
    head = list(itertools.islice(early, 1100))
    assert list(shared) == full
    assert head + list(early) == full


def test_ratio_order_infinite_ratio_takes_full_sort():
    sites, cost = _ratio_pool(3000, 7, 0.05, 1)
    cost[:2500] = np.inf  # the 1024th-smallest ratio is inf
    order = solver._RatioOrder(sites, cost)
    assert next(iter(order)) == np.lexsort((sites.ids, cost / sites.caps))[0]
    assert order._complete and order._sorted.size == 3000
    assert list(order) == np.lexsort((sites.ids, cost / sites.caps)).tolist()


def _scalar_polish(state, cap_obj, max_rounds=60):
    """Reference swap polish: full ratio sort and one feasibility test per pair."""
    sites, cost, ids = state.sites, state.cost, state.sites.ids
    caps, mun = sites.caps, sites.mun
    neighborhood = len(sites) if len(sites) <= 400 else 120

    def swap_feasible(out, inn):
        if not solver._ge(state.cap_total - caps[out] + caps[inn], cap_obj):
            return False
        ko = state.floors.of_site[out]
        if ko >= 0:
            t = state.floor_totals[ko] - caps[out] + (caps[inn] if mun[inn] == mun[out] else 0.0)
            if not solver._ge(t, state.floors.mw[ko]):
                return False
        return all(solver._le(state.v_totals[k] - v[out] + v[inn], limit)
                   for k, (v, limit) in enumerate(state.cap_specs))

    def selected():
        return sorted(np.flatnonzero(state.taken).tolist(), key=lambda i: (-cost[i], ids[i]))

    for _ in range(max_rounds):
        improved = False
        for i in selected():
            if cost[i] > 0 and state.removable(i, cap_obj):
                state.remove(i)
                improved = True
        outs = selected()[:neighborhood]
        unsel = [i for i in np.lexsort((ids, cost / caps)) if not state.taken[i]]
        ins = unsel[:neighborhood]
        for out in outs:
            for inn in ins:
                if state.taken[inn] or cost[inn] - cost[out] >= -1e-12:
                    continue
                if swap_feasible(out, inn):
                    state.remove(out)
                    state.add_rows(np.array([inn]))
                    improved = True
                    break
        if not improved:
            return


@pytest.mark.parametrize("share", [0.4, 0.5])
def test_vector_swap_scan_matches_scalar_rule_mid_size(share):
    # at 0.4 polish reads past the first sorted block; at 0.5 one round
    # swaps several sites, so a swapped-in site must not be offered again
    inst = rand_instance(71, 3000, n_muns=40)
    sites = inst.sites
    pots = municipal_potentials(inst)
    potential = sum(pots.values())
    floors = equity_floors(inst.municipalities, 0.1 * potential, pots)
    cap_obj = share * potential
    cost = site_costs(sites, W_LCOE)
    pos_floors = solver._floors(sites, floors)
    free = solver._greedy(sites, cost, cap_obj, pos_floors, [])
    m_s = 1.002 * float(np.sum(sites.scenicness[free.taken]))
    start = solver._greedy(sites, cost, cap_obj, pos_floors, [(sites.scenicness, m_s)])
    ours, ref = copy.deepcopy(start), copy.deepcopy(start)
    solver._polish(ours, cap_obj)
    _scalar_polish(ref, cap_obj)
    assert (ours.taken != start.taken).any()  # the scan made swaps
    assert ours.order._sorted.size > 1025  # and read past the first sorted block
    assert (ours.taken == ref.taken).all()
    assert ours.obj == ref.obj
    assert ours.floor_totals.tolist() == ref.floor_totals.tolist()
    con = Constraints(cap_obj=cap_obj, m_s=m_s, equity_floors=floors)
    sel = solve(inst, W_LCOE, con)
    assert verify_selection(sel, inst, con)
    assert sel.lower_bound <= sel.objective_value


def _random_pool(rng, n):
    """A pool over a few municipalities whose cost/capacity ratios tie often."""
    ids = rng.permutation(10 * n)[:n]
    mun = rng.integers(0, 6, n)
    caps = rng.choice([2.0, 3.0, 4.5, 0.7], size=n)
    caps = caps * rng.uniform(0.5, 1.5, n) ** rng.integers(0, 2)
    zero = np.zeros(n)
    sites = SiteTable.from_columns(ids, mun, zero, zero, caps, rng.uniform(0.0, 5.0, n),
                                   rng.uniform(0.0, 3.0, n), zero, rng.uniform(0.0, 50.0, n))
    cost = np.round(sites.lcoe + rng.uniform(0.0, 1.0) * sites.scenicness, int(rng.integers(1, 4)))
    cost[rng.random(n) < 0.05] = 0.0
    floors = {int(j): float(rng.uniform(0.0, 0.6)) * float(caps[mun == j].sum())
              for j in np.unique(mun)[: int(rng.integers(0, 4))]}
    return sites, cost, floors


def _scalar_lp(sites, cost, order, cap_obj, floors, v):
    """Reference for `_lp_nested`: the floors, then one site at a time along
    the full ratio sort."""
    caps = sites.caps
    used = np.zeros(len(sites))
    total, floor_cap = 0.0, 0.0
    for j, floor in zip(floors.mun, floors.mw):
        total = solver._fill_floor(caps, cost, order[slice(*sites.mun_rows[j])], floor,
                                   total, used)
        if total == np.inf:
            return np.inf, np.inf
        floor_cap += floor
    v_total = float(used @ v) if floors else 0.0
    residual = cap_obj - floor_cap
    if residual > 1e-15:
        for i in np.lexsort((sites.ids, cost / caps)).tolist():
            avail = caps[i] * (1.0 - used[i])
            if avail <= 0:
                continue
            take = min(avail, residual)
            total += take / caps[i] * cost[i]
            v_total += take / caps[i] * v[i]
            residual -= take
            if residual <= 1e-15:
                break
        if residual > 1e-9:
            return np.inf, np.inf
    return total, v_total


def _scalar_fill_and_trim(state, cap_obj):
    """Reference for `_State.fill` and `drop_removable`: one site at a time."""
    sites, cost = state.sites, state.cost
    if not solver._ge(state.cap_total, cap_obj):
        for i in np.lexsort((sites.ids, cost / sites.caps)).tolist():
            if state.taken[i]:
                continue
            state.add_rows(np.array([i]))
            if solver._ge(state.cap_total, cap_obj):
                break
    for i in sorted(np.flatnonzero(state.taken).tolist(),
                    key=lambda i: (-cost[i], sites.ids[i])):
        if cost[i] > 0 and state.removable(i, cap_obj):
            state.remove(i)


def test_block_passes_match_scalar_loops():
    # the relaxation, the greedy fill and the trim pass take numpy blocks;
    # every total must equal the site-by-site loop's to the last bit
    rng = np.random.default_rng(31)
    for trial in range(120):
        n = int(rng.integers(1, 3000))
        sites, cost, floors = _random_pool(rng, n)
        floors = solver._floors(sites, floors)
        cap_obj = float(rng.uniform(0.0, 1.02)) * float(sites.caps.sum())
        order = solver._mun_ratio_order(sites, cost)
        v = sites.scenicness
        got = solver._lp_nested(sites, cost, order, cap_obj, floors, v)
        assert got == _scalar_lp(sites, cost, order, cap_obj, floors, v), trial
        assert solver._lp_nested(sites, cost, order, cap_obj, floors)[0] == got[0]
        specs = [(v, float(v.sum()) * 0.3), (sites.network_length, 1e9)]
        start = [int(i) for i in order[:int(rng.integers(0, n + 1)) // 3]]
        ours = solver._State(sites, cost, floors, specs, start)
        ref = copy.deepcopy(ours)
        ours.fill(cap_obj)
        ours.drop_removable(cap_obj)
        _scalar_fill_and_trim(ref, cap_obj)
        assert (ours.taken == ref.taken).all(), trial
        assert (ours.obj, ours.cap_total, ours.v_totals, ours.floor_totals.tolist()) == (
            ref.obj, ref.cap_total, ref.v_totals, ref.floor_totals.tolist()), trial


def _scan_subsets(sites, cost, cap_obj, floors, cap_specs):
    """Reference for `_enumerate`: every subset in plain Python, then the
    lowest objective (within 1e-12) with the smallest id-set."""
    n = len(sites)
    caps, mun, ids = sites.caps.tolist(), sites.mun.tolist(), sites.ids.tolist()
    found = []
    for mask in range(1 << n):
        rows = [i for i in range(n) if mask >> i & 1]
        if not solver._ge(sum(caps[i] for i in rows), cap_obj):
            continue
        if any(not solver._le(sum(v[i] for i in rows), limit) for v, limit in cap_specs):
            continue
        if any(not solver._ge(sum(caps[i] for i in rows if mun[i] == j), floor)
               for j, floor in floors.items()):
            continue
        found.append((sum(cost[i] for i in rows), tuple(ids[i] for i in rows), mask))
    if not found:
        return None
    low = min(o for o, _, _ in found)
    o, _, mask = min((t for t in found if t[0] <= low + 1e-12), key=lambda t: t[1])
    return mask, o


def test_enumerate_matches_plain_subset_scan():
    # integer capacities and costs: sums are exact and optima tie heavily
    rng = np.random.default_rng(8)
    outcomes = {"feasible": 0, "infeasible": 0}
    for trial in range(150):
        n = int(rng.integers(1, 13))
        ids = np.sort(rng.choice(100, size=n, replace=False)) + 1
        sites = SiteTable.of([
            mk_site(int(sid), mun=int(rng.integers(1, 4)), capacity=float(rng.integers(1, 5)),
                    lcoe=float(rng.integers(0, 4)), scenicness=float(rng.integers(1, 10)))
            for sid in ids])
        cost = sites.lcoe.copy()
        total = float(sites.caps.sum())
        cap_obj = float(rng.integers(0, int(total) + 2))
        floors = {int(j): float(rng.integers(1, 5))
                  for j in rng.choice(4, size=int(rng.integers(0, 3)), replace=False) + 1}
        cap_specs = ([(sites.scenicness, float(rng.integers(0, 5 * n)))]
                     if rng.random() < 0.5 else [])
        want = _scan_subsets(sites, cost, cap_obj, floors, cap_specs)
        if any(j not in sites.mun_rows for j in floors):
            # a floor in a municipality without candidates
            assert want is None, trial
            with pytest.raises(InfeasibleError, match="without candidates"):
                solver._floors(sites, floors)
        else:
            got = solver._enumerate(sites, cost, cap_obj, solver._floors(sites, floors),
                                    cap_specs)
            assert got == want, (trial, n, floors, cap_specs)
        outcomes["infeasible" if want is None else "feasible"] += 1
    assert min(outcomes.values()) >= 30, outcomes


@pytest.mark.parametrize("seed, n_sites, n", [(3, 24, 23), (7, 25, 24)])
def test_exact_path_at_23_and_24_sites(monkeypatch, seed, n_sites, n):
    inst = rand_instance(seed, n_sites)
    assert len(inst.sites) == n
    cap_obj = 0.5 * sum(inst.sites.caps.tolist())
    con = _floored(inst, 0.45)
    free = brute_force(inst, W_LCOE, replace(con, cap_obj=cap_obj))
    con = replace(con, cap_obj=cap_obj, m_s=1.05 * free.totals.scenicness)
    sel = solve(inst, W_LCOE, con)
    assert sel == brute_force(inst, W_LCOE, con)
    assert sel.gap == 0.0 and sel.lower_bound == sel.objective_value
    assert verify_selection(sel, inst, con)
    monkeypatch.setattr(solver, "BRUTE_FORCE_LIMIT", 0)
    assert solve(inst, W_LCOE, con).objective_value >= sel.objective_value - 1e-9


def test_heuristic_cap_failure_without_proof_says_so():
    # the heuristic's lowest scenicness total is 31.529, but a selection of
    # 57.20 MW with scenicness 31.349 exists; the LP bound is 30.87
    inst = rand_instance(10, 52)
    assert len(inst.sites) == 50  # after the exclusion buffer
    con = Constraints(cap_obj=57.03099829779829, m_s=31.439414949797282)
    witness = solver._make_selection(
        inst.sites, inst.sites.rows((1, 5, 8, 11, 13, 16, 17, 21, 22, 28, 32, 35, 45, 48, 51)),
        site_costs(inst.sites, W_LCOE), None)
    assert verify_selection(witness, inst, con)
    assert witness.totals.scenicness < 31.35
    with pytest.raises(InfeasibleError) as err:
        solve(inst, W_LCOE, con)
    msg = str(err.value)
    assert "does not rule the cap out" in msg and "31.529381" in msg and "30.869855" in msg
    assert "below the minimum achievable" not in msg
    # a cap below the bound is proven unattainable
    with pytest.raises(InfeasibleError,
                       match=r"\(30.0\) below the minimum achievable, which is at least "
                             r"30.869855"):
        solve(inst, W_LCOE, replace(con, m_s=30.0))


def test_heuristic_certificate_against_exact_optimum(monkeypatch):
    """The heuristic path, forced on pools that enumeration solves, never
    claims more than it has: lower_bound <= OPT <= objective and the true
    gap is at most the claimed one."""
    rng = np.random.default_rng(1974)
    weightings = [Weights(1, 0, 0), Weights(0, 1, 0), Weights(0, 0, 1), Weights(1, 1, 1)]
    tally = {"certified": 0, "unproven": 0, "infeasible": 0}
    for trial in range(400):
        inst = rand_instance(int(rng.integers(1, 10 ** 6)), int(rng.integers(6, 19)),
                             n_muns=int(rng.integers(2, 5)))
        cap_obj = float(rng.uniform(0.2, 0.75)) * sum(inst.sites.caps.tolist())
        weights = weightings[int(rng.integers(0, 4))]
        mode = int(rng.integers(0, 4))  # 1: floors, 2: a cap, 3: both
        con = Constraints(cap_obj=cap_obj)
        if mode in (1, 3):
            existing = sum(m.existing_capacity for m in inst.municipalities)
            con = replace(con, equity_floors=equity_floors(
                inst.municipalities, (cap_obj + existing) * 0.7, municipal_potentials(inst)))
        if mode >= 2:
            crit, fld = list(solver._CAP_FIELDS.items())[int(rng.integers(0, 3))]
            anchor = getattr(brute_force(inst, weights, con).totals,
                             "network_length_km" if crit == "network_length" else crit)
            con = replace(con, **{fld: anchor * float(rng.uniform(0.85, 1.3))})
        with monkeypatch.context() as m:
            try:
                oracle = brute_force(inst, weights, con)
            except InfeasibleError:
                m.setattr(solver, "BRUTE_FORCE_LIMIT", 0)
                with pytest.raises(InfeasibleError):
                    solve(inst, weights, con)
                tally["infeasible"] += 1
                continue
            m.setattr(solver, "BRUTE_FORCE_LIMIT", 0)
            try:
                sel = solve(inst, weights, con)
            except InfeasibleError as err:
                assert "rule the cap" in str(err) or "rules the caps" in str(err), trial
                tally["unproven"] += 1
                continue
        opt = oracle.objective_value
        tol = 1e-9 * max(1.0, abs(opt))
        assert oracle.gap == 0.0 and oracle.lower_bound == opt
        assert verify_selection(sel, inst, con), trial
        assert sel.lower_bound <= opt + tol <= sel.objective_value + 2 * tol, trial
        assert solver._gap(sel.objective_value, opt) <= sel.gap + 1e-9, trial
        tally["certified"] += 1
    assert tally["certified"] >= 300 and tally["infeasible"] >= 15, tally
    assert tally["unproven"] == 0, tally
