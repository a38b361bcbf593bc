import ast
import collections
import copy
import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SITE_COLUMNS, mk_instance, mk_mun, mk_site, subset_scan
from windplan import solver
from windplan.domain import InfeasibleError, Instance, MunicipalityTable, PlanError, SiteTable
from windplan.geoprep import prep_instance
from windplan.objective import Weights, site_costs
from windplan.solver import (
    BRUTE_FORCE_LIMIT,
    Constraints,
    Means,
    Selection,
    Totals,
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
    sel = solve(abc_instance, W_LCOE, Constraints(cap_obj=4.0))
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
    with pytest.raises(InfeasibleError, match="below capacity target"):
        solve(abc_instance, W_LCOE, Constraints(cap_obj=9.0))


def test_selection_invariants(abc_instance):
    sel = solve(abc_instance, W_LCOE, Constraints(cap_obj=5.0))
    sites = abc_instance.sites
    rows = sites.rows(sel.site_ids)
    assert sel.totals.capacity_mw == sum(sites.caps[rows].tolist())
    assert sel.totals.lcoe == sum(sites.lcoe[rows].tolist())
    assert sel.objective_value >= sel.lower_bound
    assert sel.gap >= 0.0
    assert verify_selection(sel, abc_instance, Constraints(cap_obj=5.0))


def test_exact_tie_break_lexicographic():
    # sites 1 and 2 are interchangeable; the optimum must use site 1
    sites = [mk_site(1, lcoe=2.0, capacity=3.0), mk_site(2, lcoe=2.0, capacity=3.0),
             mk_site(3, lcoe=9.0, capacity=3.0)]
    inst = mk_instance(sites)
    sel = solve(inst, W_LCOE, Constraints(cap_obj=3.0))
    assert sel.site_ids == (1,)


def test_cap_below_achievable_names_criterion(abc_instance):
    con = Constraints(cap_obj=4.0, m_s=1.0)  # min scenicness total is 4.0
    with pytest.raises(InfeasibleError, match=r"scenicness \(1.0\) below the minimum "
                                              r"achievable 4.000000"):
        solve(abc_instance, W_LCOE, con)


def test_cap_constrained_solution_respects_cap():
    inst = rand_instance(5, 14)
    base = solve(inst, W_LCOE, Constraints(cap_obj=10.0))
    cap = base.totals.scenicness * 1.1
    con = Constraints(cap_obj=10.0, m_s=cap)
    sel = solve(inst, W_LCOE, con)
    assert verify_selection(sel, inst, con)
    assert sel.totals.scenicness <= cap + 1e-9


def test_equity_floor_clamping_cases():
    muns = MunicipalityTable.of([mk_mun(1, population=75.0, existing=10.0),
                                 mk_mun(2, population=25.0, existing=0.0)])
    pots = np.array([1000.0, 1000.0])
    floors = equity_floors(muns, 100.0, pots)
    assert floors == {1: 65.0, 2: 25.0}
    # existing above the share clamps to zero
    muns = MunicipalityTable.of([mk_mun(1, population=50.0, existing=80.0),
                                 mk_mun(2, population=50.0)])
    floors = equity_floors(muns, 100.0, pots)
    assert floors[1] == 0.0
    # and the potential caps the floor
    muns = MunicipalityTable.of([mk_mun(1, population=40.0), mk_mun(2, population=60.0)])
    floors = equity_floors(muns, 100.0, np.array([12.0, 1000.0]))
    assert floors[1] == 12.0


def test_floors_are_satisfied():
    inst = rand_instance(9, 16, n_muns=3)
    pots = municipal_potentials(inst)
    total = 0.6 * sum(pots.tolist())
    floors = equity_floors(inst.municipalities, total, pots)
    existing = sum(inst.municipalities.existing_capacity.tolist())
    con = Constraints(cap_obj=max(total - existing, 0.0), equity_floors=floors)
    sel = solve(inst, W_LCOE, con)
    assert verify_selection(sel, inst, con)


def test_floor_in_municipality_without_candidates():
    inst = mk_instance([mk_site(1, mun=1)], municipalities=[mk_mun(1), mk_mun(2)])
    con = Constraints(cap_obj=1.0, equity_floors={2: 1.0})
    with pytest.raises(InfeasibleError, match=r"without candidates: \[2\]"):
        solve(inst, W_LCOE, con)
    # the same message on the heuristic path
    big = mk_instance([mk_site(i, mun=1) for i in range(1, BRUTE_FORCE_LIMIT + 6)],
                      municipalities=[mk_mun(1), mk_mun(2)])
    assert len(big.sites) > BRUTE_FORCE_LIMIT
    with pytest.raises(InfeasibleError, match=r"without candidates: \[2\]"):
        solve(big, W_LCOE, con)


def test_floor_that_zero_meets_enters_no_bound():
    # municipality 1 is dear, but its floor of 1e-10 MW is met by no site
    # at all: charging its cheapest site would lift the bound to about 100
    rng = np.random.default_rng(5)
    sites = [mk_site(i, mun=1 if i <= 10 else 2, capacity=float(rng.uniform(2.0, 5.0)),
                     lcoe=float(rng.uniform(100.0, 101.0) if i <= 10 else rng.uniform(1.0, 2.0)))
             for i in range(1, 41)]
    inst = mk_instance(sites)
    con = Constraints(cap_obj=10.0, equity_floors={1: 1e-10})
    sel = solve(inst, W_LCOE, con)
    assert verify_selection(sel, inst, con)
    assert all(sid > 10 for sid in sel.site_ids)
    assert 0 < sel.lower_bound <= sel.objective_value < 10
    # nor does it need a candidate, on either path
    con = replace(con, equity_floors={1: 1e-10, 3: 1e-10})
    assert solve(inst, W_LCOE, con) == sel
    small = mk_instance(sites[:3])
    assert solve(small, W_LCOE, con).site_ids == (1, 2, 3)


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
    total = 0.5 * sum(pots.tolist())
    existing = sum(inst.municipalities.existing_capacity.tolist())
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
    for factor in (0.0, 1.0, float("nan")):
        with pytest.raises(PlanError, match="step factor"):
            pareto_sweep(inst, "lcoe", "scenicness", con, steps=3, step_factor=factor)


@pytest.mark.parametrize("bounds", [{"cap_obj": float("nan")}, {"cap_obj": float("inf")},
                                    {"m_s": float("nan")}, {"m_l": -1.0},
                                    {"equity_floors": {1: float("inf")}}])
def test_constraints_reject_bounds_that_are_not_finite_and_non_negative(bounds):
    with pytest.raises(PlanError, match="finite numbers? >= 0"):
        Constraints(**{"cap_obj": 1.0, **bounds})


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
    existing = sum(floored.municipalities.existing_capacity.tolist())
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
    plain = solver._floor_bound(solver._problem(floored, W_LCOE, replace(con, m_s=None))[0], cost)
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


class _ToleranceProducts(ast.NodeVisitor):
    """Enclosing function of every product of FEAS_TOL with `max(1.0, ...)`
    or `np.maximum(1.0, ...)`, in either order."""

    def __init__(self):
        self.functions = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_BinOp(self, node):
        def is_tol(x):
            return isinstance(x, ast.Name) and x.id == "FEAS_TOL"

        def is_max_one(x):
            return (isinstance(x, ast.Call) and ast.unparse(x.func) in ("max", "np.maximum")
                    and any(isinstance(a, ast.Constant) and a.value == 1 for a in x.args))

        if isinstance(node.op, ast.Mult) and (
                (is_tol(node.left) and is_max_one(node.right))
                or (is_max_one(node.left) and is_tol(node.right))):
            self.found.append(self.functions[-1])
        self.generic_visit(node)


def test_tolerance_rule_has_one_home():
    # a total meets a bound b to FEAS_TOL * max(1, |b|): `_at_least` and
    # `_at_most` hold that rule, and every threshold goes through them
    with open(solver.__file__, encoding="utf-8") as f:
        products = _ToleranceProducts()
        products.visit(ast.parse(f.read()))
    assert sorted(products.found) == ["_at_least", "_at_most"]


def _reads_floors(node):
    """Whether an expression reads the floors, given (`equity_floors`) or
    held by the solver (a `_Floors`, or a block's floors), other than as
    `floors.blocks`, the width blocks."""
    if isinstance(node, ast.Attribute) and node.attr == "blocks":
        return False
    return any(isinstance(n, ast.Name) and n.id in ("floors", "equity_floors")
               or isinstance(n, ast.Attribute) and n.attr in ("floors", "equity_floors")
               for n in ast.walk(node))


def test_floors_are_walked_at_once():
    # the solver walks the floors as matrices. The loops over them that are
    # left: the subset branch of the integral floor bound (municipalities of
    # at most 12 sites), one constraint per floor on the exact path (pools of
    # at most 24 sites), and the two checks of given floors, `Constraints`'
    # range check and `verify_selection`, a plain loop by design
    with open(solver.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    loops = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            loops += [func.name for node in ast.walk(func)
                      if isinstance(node, (ast.For, ast.comprehension))
                      and _reads_floors(node.iter)]
    assert sorted(loops) == ["__post_init__", "_enumerate", "_floor_int_bound",
                             "verify_selection"]


def _shuffled(inst, seed):
    """The instance with its table rebuilt from columns in shuffled row order."""
    order = np.random.default_rng(seed).permutation(len(inst.sites))
    assert (order != np.arange(order.size)).any()
    return replace(inst, sites=SiteTable.from_columns(
        *(getattr(inst.sites, c)[order] for c in SITE_COLUMNS)))


def _floored(inst, share):
    pots = municipal_potentials(inst)
    total = share * sum(pots.tolist())
    existing = sum(inst.municipalities.existing_capacity.tolist())
    return Constraints(cap_obj=max(total - existing, 1.0),
                       equity_floors=equity_floors(inst.municipalities, total, pots))


@pytest.mark.parametrize("weights", [W_LCOE, Weights(1.0, 1.0, 1.0)])
def test_candidate_order_does_not_matter(weights):
    small = rand_instance(61, 16, n_muns=3)
    large = rand_instance(63, 140, n_muns=9)
    cap = 0.3 * sum(large.sites.caps.tolist())
    cases = [(small, _floored(small, 0.5)),
             (large, Constraints(cap_obj=cap)),
             (large, _floored(large, 0.4)),
             (large, Constraints(cap_obj=cap, m_s=solve(large, weights, Constraints(
                 cap_obj=cap)).totals.scenicness * 0.9))]
    for inst, con in cases:
        a = solve(inst, weights, con)
        b = solve(_shuffled(inst, 5), weights, con)
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
                        lambda inst, w, con: loose if con.m_s is None else tight)
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
                      network_length=empty)
    return sites, cost


def _assert_exact_order(sites, cost, prefixes):
    """`_RatioOrder` yields the full lexsort: read to each of `prefixes`,
    read whole (twice over one object), and by readers that pause while
    others grow the sorted prefix."""
    full = np.lexsort((sites.ids, cost / sites.caps)).tolist()
    for rows in prefixes:
        assert list(itertools.islice(solver._RatioOrder(sites, cost), rows)) == full[:rows]
    order = solver._RatioOrder(sites, cost)
    assert list(order) == full
    assert list(order) == full  # a second iteration of the same object
    shared = solver._RatioOrder(sites, cost)
    early, middle = iter(shared), iter(shared)
    head = list(itertools.islice(early, 1100))
    assert list(itertools.islice(middle, 4500)) == full[:4500]
    assert list(shared) == full
    assert head + list(early) == full
    assert list(middle) == full[4500:]


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
       zero_share=st.sampled_from([0.0, 0.05, 0.5]), decimals=st.integers(0, 2))
def test_ratio_order_is_exact_full_lexsort(n, seed, zero_share, decimals):
    _assert_exact_order(*_ratio_pool(n, seed, zero_share, decimals), (1, 1024, 1025))


def test_ratio_order_infinite_ratio_takes_full_sort():
    sites, cost = _ratio_pool(3000, 7, 0.05, 1)
    cost[:2500] = np.inf  # the 1024th-smallest ratio is inf
    order = solver._RatioOrder(sites, cost)
    assert next(iter(order)) == np.lexsort((sites.ids, cost / sites.caps))[0]
    assert order._complete and order._sorted.size == 3000
    assert list(order) == np.lexsort((sites.ids, cost / sites.caps)).tolist()


def _tied_ratios(n, seed, zero_share, decimals):
    """A `_ratio_pool` whose costs also hold inf and NaN, so that some
    ratios are inf or NaN."""
    sites, cost = _ratio_pool(n, seed, zero_share, decimals)
    rng = np.random.default_rng(seed + 1)
    odd = rng.random(n)
    cost[odd < 0.01] = np.inf
    cost[odd > 0.99] = np.nan
    return sites, cost


@settings(deadline=None, max_examples=12)
@given(n=st.integers(10_000, 40_000), seed=st.integers(0, 2**32 - 1),
       zero_share=st.sampled_from([0.0, 0.05, 0.5]), decimals=st.integers(0, 2))
def test_sampled_ratio_order_is_exact_full_lexsort(n, seed, zero_share, decimals):
    # pools of at least 8 * 1024 rows take the threshold from a strided sample
    _assert_exact_order(*_tied_ratios(n, seed, zero_share, decimals), (1, 1024, 1025, 5000))


def test_sampled_threshold_short_of_the_block_grows_again():
    # at the first grow of a 20,000-row pool the sample is every second
    # ratio; the odd rows rank last, so its 512th smallest ratio bounds
    # only about 512 rows and a reader of 1024 rows must grow again
    n = 20_000
    sites, _ = _ratio_pool(n, 11, 0.0, 2)
    ratio = np.where(np.arange(n) % 2 == 0, np.arange(n) // 2, n + np.arange(n)) / 7.0
    cost = ratio * sites.caps
    full = np.lexsort((sites.ids, cost / sites.caps)).tolist()
    order = solver._RatioOrder(sites, cost)
    reader = iter(order)
    assert next(reader) == full[0]
    assert 0 < order._sorted.size < 1024
    assert [full[0]] + list(itertools.islice(reader, 1024)) == full[:1025]
    assert order._sorted.size >= 1025 and not order._complete
    assert list(order) == full


def _problem_of(sites, cap_obj=0.0):
    return solver._Problem(sites, cap_obj, solver._floors(sites, None), [])


def test_stale_ratio_order_raises():
    # an order built on the workspace reads on only while it is the solve's
    # latest; a later one has overwritten its ratios
    sites, cost = _ratio_pool(5000, 3, 0.05, 2)
    work = _problem_of(sites).work
    first = solver._RatioOrder(sites, cost, work)
    head = list(itertools.islice(first, 10))
    second = solver._RatioOrder(sites, 2.0 * cost + 1.0, work)
    assert list(itertools.islice(first, 10)) == head  # its sorted prefix is its own
    with pytest.raises(RuntimeError, match="stale ratio order"):
        list(first)
    assert list(second) == np.lexsort((sites.ids, (2.0 * cost + 1.0) / sites.caps)).tolist()
    # an order without a workspace has ratios of its own
    own = solver._RatioOrder(sites, cost)
    solver._RatioOrder(sites, cost + 1.0, work)
    assert list(own) == np.lexsort((sites.ids, cost / sites.caps)).tolist()


@pytest.mark.parametrize("equity", [False, True])
def test_every_order_of_a_solve_shares_one_ratio_buffer(monkeypatch, equity):
    inst = rand_instance(43, 150, n_muns=10)
    cap_obj = 0.35 * sum(inst.sites.caps.tolist())
    con = Constraints(cap_obj=cap_obj)
    if equity:
        existing = sum(inst.municipalities.existing_capacity.tolist())
        con = replace(con, equity_floors=equity_floors(
            inst.municipalities, cap_obj + existing, municipal_potentials(inst)))
    con = replace(con, m_s=0.95 * solve(inst, W_LCOE, con).totals.scenicness)
    ratios = []
    init = solver._RatioOrder.__init__

    def recording(self, *args):
        init(self, *args)
        ratios.append(self._ratio)

    monkeypatch.setattr(solver._RatioOrder, "__init__", recording)
    sel = solve(inst, W_LCOE, con)
    assert sel.stats["lambda"]["scenicness"] > 0
    assert verify_selection(sel, inst, con)
    # the heuristic runs, the LP trials and the final states
    assert len(ratios) > sel.stats["heuristic_runs"] + 5
    assert all(np.shares_memory(r, ratios[0]) for r in ratios)
    assert ratios[0].size == len(inst.sites)


def test_penalised_cost_equals_base_plus_lam_v_bit_for_bit():
    rng = np.random.default_rng(5)
    n = 4000
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf,
                        1.7976931348623157e308, -1.7976931348623157e308, 1e-300])

    def vector():
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        pick = rng.random(n) < 0.2
        x[pick] = rng.choice(special, int(pick.sum()))
        return x

    work = solver._Workspace(n)
    for lam in [0.0, 5e-324, 1e-3, 0.7, 3.0, 1e150, 1e300, 1.7976931348623157e308,
                *rng.uniform(0.0, 100.0, 5).tolist()]:
        base, v = vector(), vector()
        with np.errstate(all="ignore"):  # inf - inf and overflow, the same in both
            want = base + lam * v
            got = work.penalised(base, lam, v)
        assert got is work.pen
        assert got.tobytes() == want.tobytes(), lam


def _scalar_polish(state, max_rounds=60):
    """Reference swap polish: full ratio sort and one feasibility test per pair."""
    problem, cost = state.problem, state.cost
    sites, ids = problem.sites, problem.sites.ids
    caps, mun = sites.caps, sites.mun
    neighborhood = len(sites) if len(sites) <= 400 else 120

    def swap_feasible(out, inn):
        if not solver._ge(state.cap_total - caps[out] + caps[inn], problem.cap_obj):
            return False
        ko = problem.floors.of_site[out]
        if ko >= 0:
            t = state.floor_totals[ko] - caps[out] + (caps[inn] if mun[inn] == mun[out] else 0.0)
            if not solver._ge(t, problem.floors.mw[ko]):
                return False
        return all(solver._le(state.v_totals[k] - v[out] + v[inn], limit)
                   for k, (_, v, limit) in enumerate(problem.caps))

    def selected():
        return sorted(np.flatnonzero(state.taken).tolist(), key=lambda i: (-cost[i], ids[i]))

    for _ in range(max_rounds):
        improved = False
        for i in selected():
            if cost[i] > 0 and state.removable(i):
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
    potential = sum(pots.tolist())
    floors = equity_floors(inst.municipalities, 0.1 * potential, pots)
    cap_obj = share * potential
    cost = site_costs(sites, W_LCOE)
    free = solver._Problem(sites, cap_obj, solver._floors(sites, floors), [])
    m_s = 1.002 * float(np.sum(sites.scenicness[solver._greedy(free, cost).taken]))
    capped = replace(free, caps=[("scenicness", sites.scenicness, m_s)])
    start = solver._greedy(capped, cost)
    ours, ref = copy.deepcopy(start), copy.deepcopy(start)
    solver._polish(ours)
    _scalar_polish(ref)
    assert (ours.taken != start.taken).any()  # the scan made swaps
    assert ours.order._sorted.size > 1025  # and read past the first sorted block
    assert (ours.taken == ref.taken).all()
    assert ours.obj == ref.obj
    assert ours.floor_totals.tolist() == ref.floor_totals.tolist()
    con = Constraints(cap_obj=cap_obj, m_s=m_s, equity_floors=floors)
    sel = solve(inst, W_LCOE, con)
    assert verify_selection(sel, inst, con)
    assert sel.lower_bound <= sel.objective_value


def _counting_swaps(state):
    """The number of swaps of each polish round of `state`, as a list that
    grows while it is polished."""
    rounds = []
    first_unselected, add_rows = state.first_unselected, state.add_rows

    def new_round(count):
        rounds.append(0)
        return first_unselected(count)

    def swap(rows):
        rounds[-1] += 1
        add_rows(rows)

    state.first_unselected, state.add_rows = new_round, swap
    return rounds


@pytest.mark.parametrize("seed", [73, 75])
def test_matrix_polish_matches_scalar_rule_front_shape(seed):
    # the shape of a capped sweep solve: over 400 sites, so 120 outs
    # against 120 ins, no floors and two caps; a round makes several swaps
    inst = rand_instance(seed, 1200, n_muns=10)
    sites = inst.sites
    cap_obj = 0.5 * sum(sites.caps.tolist())
    cost = site_costs(sites, Weights(1.0, 0.3, 0.0))
    free = solver._Problem(sites, cap_obj, solver._floors(sites, None), [])
    taken = solver._greedy(free, cost).taken
    capped = replace(free, caps=[
        ("scenicness", sites.scenicness, 1.001 * float(np.sum(sites.scenicness[taken]))),
        ("network_length", sites.network_length,
         1.001 * float(np.sum(sites.network_length[taken])))])
    start = solver._greedy(capped, cost)
    ours, ref = copy.deepcopy(start), copy.deepcopy(start)
    rounds = _counting_swaps(ours)
    solver._polish(ours)
    _scalar_polish(ref)
    assert max(rounds) >= 3
    assert (ours.taken == ref.taken).all()
    assert ours.obj == ref.obj and ours.cap_total == ref.cap_total
    assert ours.v_totals == ref.v_totals


def test_matrix_polish_matches_scalar_rule_random_pools():
    # floors, caps and ties in random pools small and large
    rng = np.random.default_rng(2024)
    swapped = 0
    for _ in range(40):
        n = int(rng.integers(30, 700))
        sites, cost, floors = _random_pool(rng, n)
        caps = [("scenicness", sites.scenicness, 0.0), ("network_length", sites.network_length, 0.0)]
        cap_obj = float(rng.uniform(0.1, 0.6)) * sum(sites.caps.tolist())
        free = solver._Problem(sites, cap_obj, solver._floors(sites, floors), [])
        taken = solver._greedy(free, cost).taken
        limits = [float(rng.uniform(0.95, 1.2)) * float(np.sum(v[taken])) for _, v, _ in caps]
        problem = replace(free, caps=[(name, v, m) for (name, v, _), m in zip(
            caps[:int(rng.integers(0, 3))], limits)])
        start = solver._greedy(problem, cost)
        ours, ref = copy.deepcopy(start), copy.deepcopy(start)
        solver._polish(ours)
        _scalar_polish(ref)
        swapped += int((ours.taken != start.taken).any())
        assert (ours.taken == ref.taken).all()
        assert ours.obj == ref.obj and ours.v_totals == ref.v_totals
        assert ours.floor_totals.tolist() == ref.floor_totals.tolist()
    assert swapped >= 10


def test_polish_has_no_loop_over_outs():
    # a polish round tests all its swaps in one matrix, not out by out
    with open(solver.__file__, encoding="utf-8") as f:
        polish = next(node for node in ast.walk(ast.parse(f.read()))
                      if isinstance(node, ast.FunctionDef) and node.name == "_polish")
    loops = [ast.unparse(node.iter) for node in ast.walk(polish)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert not [it for it in loops if "outs" in it], loops


def _random_pool(rng, n, n_muns=6):
    """A pool over a few municipalities whose cost/capacity ratios tie often."""
    ids = rng.permutation(10 * n)[:n]
    mun = rng.integers(0, n_muns, n)
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


def _small_mun_pool(rng):
    """A `_random_pool` of municipalities of about 8 sites each, with floors
    that every site covers, that need several sites, that exceed a prefix of
    the ratio order by 1e-12 MW (so a fill is left with a need between its
    cutoffs 1e-15 and 1e-9), or (rarely) that exceed the municipality's
    capacity."""
    n = int(rng.integers(20, 200))
    sites, cost, _ = _random_pool(rng, n, n_muns=n // 8)
    floors = {}
    for j in np.unique(sites.mun).tolist():
        caps = sites.caps[sites.mun == j]
        kind = rng.random()
        if kind < 0.3:
            floors[j] = float(rng.uniform(0.0, 1.0)) * float(caps.min())
        elif kind < 0.45 and caps.size > 1:
            rows = _ratio_rows(sites, cost, j)[:int(rng.integers(1, caps.size))]
            floors[j] = float(sum(sites.caps[rows].tolist())) + 1e-12
        elif kind < 0.98:
            floors[j] = float(rng.uniform(0.0, 1.0)) * float(caps.sum())
        else:
            floors[j] = float(rng.uniform(1.001, 1.2)) * float(caps.sum())
    return sites, cost, floors


def _ratio_rows(sites, cost, j):
    """Municipality j's rows by ascending cost/capacity ratio, ties on the lower id."""
    return sorted(np.flatnonzero(sites.mun == j).tolist(),
                  key=lambda i: (cost[i] / sites.caps[i], sites.ids[i]))


def _frac_fill(caps, cost, rows, need, total, used):
    """`total` plus the cost of covering `need` MW fractionally along `rows`,
    one site at a time, or inf when the rows fall short; `used` takes the
    fraction taken of each site."""
    for i in rows:
        take = min(caps[i], need)
        used[i] += take / caps[i]
        total += take / caps[i] * cost[i]
        need -= take
        if need <= 1e-15:
            break
    return total if need <= 1e-9 else np.inf


def _scalar_lp(sites, cost, cap_obj, floors, v):
    """Reference for `_lp_nested`: the floors of the dict `floors` that 0 MW
    does not meet, in its order, then one site at a time along the full
    ratio sort."""
    caps = sites.caps
    floors = {j: f for j, f in floors.items() if solver._at_least(f) > 0}
    used = np.zeros(len(sites))
    total, floor_cap = 0.0, 0.0
    for j, floor in floors.items():
        total = _frac_fill(caps, cost, _ratio_rows(sites, cost, j), floor, total, used)
        if total == np.inf:
            return np.inf, np.inf
        floor_cap += floor
    v_total = float(np.sum(used * v)) if floors else 0.0
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


@functools.cache
def _masks(m):
    """The 0/1 rows of the nonempty subsets of m items, row k - 1 holding
    bit i of k in column i."""
    rows = np.array(list(itertools.product((0.0, 1.0), repeat=m)))[:, ::-1]
    return np.ascontiguousarray(rows)[1:]


def _scalar_floor_int(sites, cost, floors, v, reached):
    """Reference for `_floor_int_bound`, one floor of the dict `floors` that
    0 MW does not meet at a time, in its order: the cheapest site when every
    site of the municipality covers the floor, else the cheapest covering
    subset of a municipality of up to 12 sites, else the fractional fill;
    (inf, inf) for an unattainable floor. `reached` counts each case."""
    caps, ids = sites.caps, sites.ids
    used = np.zeros(len(sites))
    total = v_total = 0.0
    for j, floor in floors.items():
        if solver._at_least(floor) <= 0:
            continue
        rows = np.flatnonzero(sites.mun == j)
        if all(floor <= caps[i] + 1e-15 for i in rows):
            reached["single"] += 1
            i = min(rows.tolist(), key=lambda i: (cost[i], ids[i]))
            total += cost[i]
            v_total += v[i]
        elif rows.size <= 12:
            reached["subset"] += 1
            # subset sums by a matrix product, as the solver takes them: BLAS
            # adds in an order of its own, which a Python loop may miss by an ulp
            bits = _masks(rows.size)
            feas = bits @ caps[rows] >= floor - 1e-9 * max(1.0, floor)
            if not feas.any():
                reached["unattainable"] += 1
                return np.inf, np.inf
            costs = bits @ cost[rows]
            k = int(np.argmin(np.where(feas, costs, np.inf)))
            total += float(costs[k])
            v_total += float(bits[k] @ v[rows])
        else:
            reached["fill"] += 1
            total = _frac_fill(caps, cost, _ratio_rows(sites, cost, j), floor, total, used)
            if total == np.inf:
                reached["unattainable"] += 1
                return np.inf, np.inf
    return total, v_total + float(np.sum(used * v))


def _check_relaxations(sites, cost, cap_obj, floors, reached):
    """Both floor relaxations against their references, with the v-totals
    of the scenicness and of zeros."""
    problem = solver._Problem(sites, cap_obj, solver._floors(sites, floors), [])
    for v, count in ((sites.scenicness, reached), (np.zeros(len(sites)), collections.Counter())):
        assert solver._lp_nested(problem, cost, v) == _scalar_lp(
            sites, cost, cap_obj, floors, v)
        assert solver._floor_int_bound(problem, cost, v) == _scalar_floor_int(
            sites, cost, floors, v, count)


def _scalar_floor_covers(sites, cost, floors, reached):
    """Reference for `_floor_covers`: the per-floor loop that `_greedy` ran
    before the floors were walked all at once, one floor of the dict
    `floors` that 0 MW does not meet at a time, in ascending municipality
    order. `reached` counts the covers taken as a single site."""
    caps, ids = sites.caps, sites.ids
    covers = []
    for j, floor in sorted(floors.items()):
        ge = solver._at_least(floor)
        if ge <= 0:
            continue
        local = np.array(_ratio_rows(sites, cost, j))
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
                reached["single"] += 1
                chosen = [single]
        covers += chosen
    return covers


def _check_floor_covers(sites, cost, floors, reached):
    """`_floor_covers` against its reference: the same rows in the order
    they are added, or the same InfeasibleError text."""
    problem = solver._Problem(sites, 0.0, solver._floors(sites, floors), [])
    try:
        expected = _scalar_floor_covers(sites, cost, floors, reached)
    except InfeasibleError as err:
        reached["infeasible"] += 1
        with pytest.raises(InfeasibleError) as ours:
            solver._floor_covers(problem, cost)
        assert str(ours.value) == str(err)
        return
    reached["met"] += bool(floors)
    assert solver._floor_covers(problem, cost).tolist() == [int(i) for i in expected]


def _scalar_fill_and_trim(state):
    """Reference for `_State.fill` and `drop_removable`: one site at a time."""
    sites, cost, cap_obj = state.problem.sites, state.cost, state.problem.cap_obj
    if not solver._ge(state.cap_total, cap_obj):
        for i in np.lexsort((sites.ids, cost / sites.caps)).tolist():
            if state.taken[i]:
                continue
            state.add_rows(np.array([i]))
            if solver._ge(state.cap_total, cap_obj):
                break
    for i in sorted(np.flatnonzero(state.taken).tolist(),
                    key=lambda i: (-cost[i], sites.ids[i])):
        if cost[i] > 0 and state.removable(i):
            state.remove(i)


def test_block_passes_match_scalar_loops():
    # the relaxations, the greedy's floor pass and fill and the trim pass take
    # numpy blocks; every total must equal the site-by-site loop's to the last
    # bit, and the floor pass must add the same rows in the same order
    rng = np.random.default_rng(31)
    small_rng = np.random.default_rng(32)  # small municipalities, for the floor bound
    reached = collections.Counter()
    covers = collections.Counter()  # floor passes of the greedy, by outcome
    for trial in range(120):
        n = int(rng.integers(1, 3000))
        sites, cost, raw_floors = _random_pool(rng, n)
        floors = solver._floors(sites, raw_floors)
        cap_obj = float(rng.uniform(0.0, 1.02)) * float(sites.caps.sum())
        order = np.lexsort((sites.ids, cost / sites.caps, sites.mun))
        _check_relaxations(sites, cost, cap_obj, raw_floors, reached)
        _check_floor_covers(sites, cost, raw_floors, covers)
        small, small_cost, small_floors = _small_mun_pool(small_rng)
        _check_relaxations(small, small_cost,
                           float(small_rng.uniform(0.0, 1.02)) * float(small.caps.sum()),
                           small_floors, reached)
        _check_floor_covers(small, small_cost, small_floors, covers)
        v = sites.scenicness
        specs = [("scenicness", v, float(v.sum()) * 0.3),
                 ("network_length", sites.network_length, 1e9)]
        problem = solver._Problem(sites, cap_obj, floors, specs)
        # a prefix that the fill extends, and a random part of the pool in
        # which each floor holds its cheapest cover and up to two more sites,
        # so the trim runs into floors with little to spare
        near = rng.random(n) < rng.uniform(0.0, 1.0)
        grouped = sites.mun[sites.by_mun]
        for j, ge in zip(floors.mun, floors.ge):
            rows = order[np.searchsorted(grouped, j):np.searchsorted(grouped, j, "right")]
            cover = int(np.searchsorted(np.cumsum(sites.caps[rows]), ge)) + 1
            near[rows] = False
            near[rows[:cover + int(rng.integers(0, 3))]] = True
        for start in (order[:int(rng.integers(0, n + 1)) // 3], np.flatnonzero(near)):
            ours = solver._State(problem, cost, start)
            ref = copy.deepcopy(ours)
            ours.fill()
            ours.drop_removable()
            _scalar_fill_and_trim(ref)
            assert (ours.taken == ref.taken).all(), trial
            assert (ours.obj, ours.cap_total, ours.v_totals, ours.floor_totals.tolist()) == (
                ref.obj, ref.cap_total, ref.v_totals, ref.floor_totals.tolist()), trial
    # every case of the integral floor bound was compared often enough
    assert min(reached[k] for k in ("single", "subset", "fill", "unattainable")) >= 20, reached
    assert min(covers[k] for k in ("met", "single", "infeasible")) >= 20, covers


def test_skewed_pool_matches_scalar_loops():
    # one municipality of 4000 sites next to 1000 of one site and 20 of 8:
    # the greedy and both floor bounds equal the site-by-site loops, and the
    # width blocks pad fewer cells than they hold, so the large municipality
    # does not pad every floor to its width
    rng = np.random.default_rng(41)
    mun = np.concatenate((np.zeros(4000, dtype=int), np.arange(1, 1001),
                          np.repeat(np.arange(1001, 1021), 8)))
    n = mun.size
    zero = np.zeros(n)
    sites = SiteTable.from_columns(rng.permutation(n) + 1, mun, zero, zero,
                                   rng.choice([2.0, 3.0, 4.5, 0.7], size=n),
                                   rng.uniform(0.0, 5.0, n), rng.uniform(0.0, 3.0, n), zero,
                                   rng.uniform(0.0, 50.0, n))
    cost = np.round(sites.lcoe + 0.5 * sites.scenicness, 2)
    floors = {j: float(rng.uniform(0.05, 0.9)) * float(sites.caps[sites.mun == j].sum())
              for j in range(1021)}
    problem = solver._Problem(sites, 0.6 * float(sites.caps.sum()),
                              solver._floors(sites, floors), [])
    blocks = problem.floors.blocks
    assert sum(int(b.size.sum()) for b in blocks) == n
    assert sum(b.rows.size for b in blocks) <= 2 * n
    assert max(b.rows.shape[1] for b in blocks) == 4096

    ours = solver._greedy(problem, cost)
    ref = solver._State(problem, cost, np.array(
        _scalar_floor_covers(sites, cost, floors, collections.Counter())))
    _scalar_fill_and_trim(ref)
    assert (ours.taken == ref.taken).all()
    assert (ours.obj, ours.cap_total, ours.floor_totals.tolist()) == (
        ref.obj, ref.cap_total, ref.floor_totals.tolist())
    reached = collections.Counter()
    _check_relaxations(sites, cost, problem.cap_obj, floors, reached)
    assert min(reached[k] for k in ("single", "subset", "fill")) >= 1, reached


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
        if not set(floors) <= set(sites.mun.tolist()):
            # a floor in a municipality without candidates
            assert want is None, trial
            with pytest.raises(InfeasibleError, match="without candidates"):
                solver._floors(sites, floors)
        else:
            problem = solver._Problem(sites, cap_obj, solver._floors(sites, floors),
                                      [("scenicness", v, limit) for v, limit in cap_specs])
            got = solver._enumerate(problem, cost)
            assert got == want, (trial, n, floors, cap_specs)
        outcomes["infeasible" if want is None else "feasible"] += 1
    assert min(outcomes.values()) >= 30, outcomes


@pytest.mark.parametrize("seed, n_sites, n", [(3, 24, 23), (7, 25, 24)])
def test_exact_path_at_23_and_24_sites(monkeypatch, seed, n_sites, n):
    inst = rand_instance(seed, n_sites)
    assert len(inst.sites) == n
    cap_obj = 0.5 * sum(inst.sites.caps.tolist())
    con = _floored(inst, 0.45)
    free = solve(inst, W_LCOE, replace(con, cap_obj=cap_obj))
    con = replace(con, cap_obj=cap_obj, m_s=1.05 * free.totals.scenicness)
    sel = solve(inst, W_LCOE, con)
    opt, rows = subset_scan(inst, W_LCOE, con)
    assert sel.site_ids == tuple(inst.sites.ids[rows].tolist())
    assert sel.objective_value == pytest.approx(opt, rel=1e-12)
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
            existing = sum(inst.municipalities.existing_capacity.tolist())
            con = replace(con, equity_floors=equity_floors(
                inst.municipalities, (cap_obj + existing) * 0.7, municipal_potentials(inst)))
        if mode >= 2:
            crit, fld = list(solver._CAP_FIELDS.items())[int(rng.integers(0, 3))]
            _, rows = subset_scan(inst, weights, con)
            anchor = float(getattr(inst.sites, crit)[rows].sum())
            con = replace(con, **{fld: anchor * float(rng.uniform(0.85, 1.3))})
        oracle = subset_scan(inst, weights, con)
        with monkeypatch.context() as m:
            m.setattr(solver, "BRUTE_FORCE_LIMIT", 0)
            if oracle is None:
                with pytest.raises(InfeasibleError):
                    solve(inst, weights, con)
                tally["infeasible"] += 1
                continue
            try:
                sel = solve(inst, weights, con)
            except InfeasibleError as err:
                assert "rule the cap" in str(err) or "rules the caps" in str(err), trial
                tally["unproven"] += 1
                continue
        opt, _ = oracle
        tol = 1e-9 * max(1.0, abs(opt))
        assert verify_selection(sel, inst, con), trial
        assert sel.lower_bound <= opt + tol <= sel.objective_value + 2 * tol, trial
        assert solver._gap(sel.objective_value, opt) <= sel.gap + 1e-9, trial
        tally["certified"] += 1
    assert tally["certified"] >= 300 and tally["infeasible"] >= 15, tally
    assert tally["unproven"] == 0, tally


def _multi_site_pool(rng, n):
    """An instance of `n` sites in municipalities of 13-31 sites, and floors
    of 0-0.5 of each municipality's capacity."""
    sizes = rng.integers(13, 32, n // 13 + 1)
    mun = np.repeat(np.arange(1, sizes.size + 1), sizes)[:n]
    sites = SiteTable.from_columns(
        rng.permutation(n) + 1, mun, rng.uniform(47.0, 55.0, n), rng.uniform(6.0, 15.0, n),
        rng.uniform(2.0, 5.0, n), rng.uniform(40.0, 90.0, n), rng.uniform(1.0, 10.0, n),
        rng.uniform(1500.0, 3000.0, n), rng.uniform(0.5, 20.0, n))
    floors = {j: float(rng.uniform(0.0, 0.5)) * float(sites.caps[sites.mun == j].sum())
              for j in np.unique(mun).tolist()}
    return Instance(sites=sites, municipalities=MunicipalityTable.of([])), floors


def test_bound_does_not_depend_on_floor_order():
    rng = np.random.default_rng(2025)
    for trial in range(20):
        inst, floors = _multi_site_pool(rng, int(rng.integers(30, 401)))
        con = Constraints(cap_obj=float(rng.uniform(0.2, 0.7)) * float(inst.sites.caps.sum()),
                          equity_floors=floors)
        if trial % 2:
            con = replace(con, m_s=0.97 * solve(inst, W_LCOE, con).totals.scenicness)
        sel = solve(inst, W_LCOE, con)
        back = solve(inst, W_LCOE, replace(con, equity_floors=dict(reversed(floors.items()))))
        assert (sel, sel.stats) == (back, back.stats), trial


def _milp_optimum(sites, cost, con):
    """The optimum of `con` by HiGHS's branch and cut, each bound met to
    1e-9 * max(1, |bound|), as the objective of the selection it takes."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    def tol(bound):
        return 1e-9 * max(1.0, abs(bound))

    rows, lower, upper = [sites.caps], [con.cap_obj - tol(con.cap_obj)], [np.inf]
    for j, floor in con.equity_floors.items():
        rows.append(np.where(sites.mun == j, sites.caps, 0.0))
        lower.append(floor - tol(floor))
        upper.append(np.inf)
    if con.m_s is not None:
        rows.append(sites.scenicness)
        lower.append(-np.inf)
        upper.append(con.m_s + tol(con.m_s))
    res = milp(cost, integrality=np.ones(len(sites)), bounds=Bounds(0.0, 1.0),
               constraints=LinearConstraint(np.array(rows), lower, upper),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message  # an optimum, proven
    taken = res.x > 0.5
    assert np.allclose(res.x, taken, rtol=0.0, atol=1e-6)
    return float(np.sum(cost[taken]))


def test_heuristic_certificate_against_milp_optimum():
    """On pools of 50-450 sites with multi-site floors, the heuristic path
    never claims more than HiGHS proves: lower_bound <= OPT <= objective,
    and the true gap is at most the claimed one."""
    rng = np.random.default_rng(1)
    weightings = [W_LCOE, Weights(0.0, 0.0, 1.0), Weights(1.0, 1.0, 1.0)]
    for trial in range(9):
        inst, floors = _multi_site_pool(rng, int(rng.integers(50, 451)))
        sites, weights = inst.sites, weightings[trial % 3]
        con = Constraints(cap_obj=float(rng.uniform(0.2, 0.7)) * float(sites.caps.sum()),
                          equity_floors=floors)
        if trial % 2:
            # a cap between the scenicness totals of two selections that
            # meet the floors, the least-scenic one found and the uncapped one
            free = solve(inst, weights, con).totals.scenicness
            least = solve(inst, Weights(0.0, 1.0, 0.0), con).totals.scenicness
            con = replace(con, m_s=least + float(rng.uniform(0.1, 0.9)) * (free - least))
        cost = site_costs(sites, weights)
        opt = _milp_optimum(sites, cost, con)
        sel = solve(inst, weights, con)
        tol = 1e-9 * max(1.0, abs(opt))
        assert verify_selection(sel, inst, con), trial
        assert sel.lower_bound <= opt + tol <= sel.objective_value + 2 * tol, trial
        assert solver._gap(sel.objective_value, opt) <= sel.gap + 1e-9, trial
