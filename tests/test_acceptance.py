"""Acceptance suite: one test per acceptance criterion.

The desk-scale grid (criteria 3, 4 and 9) is computed once per module.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from windplan.domain import MunicipalityTable, SiteTable
from windplan.geoprep import (
    exclusion_filter,
    haversine_km,
    nearest_transformer,
    nearest_transformer_bruteforce,
    prep_instance,
)
from windplan.metrics import gini_sorted
from windplan.objective import Weights, minmax_scale, scale_candidates
from windplan.scenarios import builtin_grid, run_grid
from windplan.solver import (
    Constraints,
    equity_floors,
    municipal_potentials,
    pareto_sweep,
    solve,
    verify_selection,
)
from windplan.synth import SynthSpec, generate, germany_like

from conftest import mk_mun, mk_site, subset_scan
from windplan.cli import main as cli_main

WEIGHT_CHOICES = [Weights(1, 0, 0), Weights(0, 1, 0), Weights(0, 0, 1),
                  Weights(1, 1, 1)]
CRITERIA = ("lcoe", "scenicness", "network_length")
CAP_FIELD = {"lcoe": "m_c", "scenicness": "m_s", "network_length": "m_l"}


def _rand_instance(rng, n_sites, n_muns):
    spec = SynthSpec(seed=int(rng.integers(1, 10 ** 6)), n_sites=n_sites,
                     n_municipalities=n_muns, n_states=2, n_transformers=3,
                     n_existing=2, rho_lcoe_scenicness=0.0)
    inst, _ = prep_instance(generate(spec))
    return inst


def _total_of(sel, crit):
    return {"lcoe": sel.totals.lcoe, "scenicness": sel.totals.scenicness,
            "network_length": sel.totals.network_length_km}[crit]


@pytest.fixture(scope="module")
def desk_grid():
    inst, _ = prep_instance(generate(germany_like()))
    t0 = time.perf_counter()
    results = run_grid(inst, builtin_grid(), scale=0.01)
    elapsed = time.perf_counter() - t0
    return inst, results, elapsed


def test_acceptance_01_oracle_equivalence():
    """200 random instances, N <= 18: solve within 2% of a plain subset scan."""
    rng = np.random.default_rng(2050)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(6, 19))
        inst = _rand_instance(rng, n, int(rng.integers(2, 5)))
        total_cap = sum(inst.sites.caps.tolist())
        cap_obj = float(rng.uniform(0.2, 0.75)) * total_cap
        weights = WEIGHT_CHOICES[int(rng.integers(0, 4))]
        mode = int(rng.integers(0, 4))
        floors = None
        if mode == 1:
            existing = sum(inst.municipalities.existing_capacity.tolist())
            floors = equity_floors(inst.municipalities,
                                   (cap_obj + existing) * 0.7,
                                   municipal_potentials(inst))
        con = Constraints(cap_obj=cap_obj, equity_floors=floors)
        if mode >= 2:
            # cap one criterion at or above its value in an optimum
            _, rows = subset_scan(inst, weights, con)
            crit = CRITERIA[int(rng.integers(0, 3))]
            limit = float(getattr(inst.sites, crit)[rows].sum()) * float(rng.uniform(1.0, 1.3))
            con = Constraints(cap_obj=cap_obj, equity_floors=floors,
                              **{CAP_FIELD[crit]: limit})
        opt, _ = subset_scan(inst, weights, con)
        sel = solve(inst, weights, con)
        assert verify_selection(sel, inst, con)
        assert sel.objective_value >= sel.lower_bound - 1e-9
        assert sel.lower_bound <= opt + 1e-9
        rel = (sel.objective_value - opt) / max(opt, 1e-12)
        worst = max(worst, rel)
        assert rel <= 0.02, (trial, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"battery took {elapsed:.1f} s"
    print(f"PASS criterion 1: 200 trials, worst gap {worst:.2e}, {elapsed:.1f} s")


def test_acceptance_02_gini_closed_forms():
    assert abs(gini_sorted(np.full(7, 2.5)) - 0.0) <= 1e-12  # equity 100%
    assert abs((1.0 - gini_sorted(np.array([0.0, 3.0]))) - 0.5) <= 1e-12
    assert abs((1.0 - gini_sorted(np.array([0.0, 0.0, 0.0, 4.0]))) - 0.25) <= 1e-12
    print("PASS criterion 2: Gini closed forms exact to 1e-12")


def test_acceptance_03_equity_dominance(desk_grid):
    _, results, _ = desk_grid
    by_name = {r.name: r for r in results}
    pairs = 0
    for name, r in by_name.items():
        if name.endswith("_E"):
            twin = by_name[name[:-2]]
            assert r.error is None and twin.error is None
            assert r.equity_pct >= twin.equity_pct, (name, r.equity_pct,
                                                     twin.equity_pct)
            pairs += 1
    assert pairs == 7
    print("PASS criterion 3: every equity scenario dominates its twin")


def test_acceptance_04_diagonal_dominance(desk_grid):
    _, results, _ = desk_grid
    by_name = {r.name: r for r in results}
    group = [by_name[n] for n in ("Base_LCOE", "Base_Scenic", "Base_Network",
                                  "Base_all")]
    for crit, minimizer in (("lcoe", "Base_LCOE"),
                            ("scenicness", "Base_Scenic"),
                            ("network_length_km", "Base_Network")):
        vals = {r.name: getattr(r.selection.means, crit) for r in group}
        best = min(vals.values())
        own = vals[minimizer]
        gap = by_name[minimizer].selection.gap
        assert own <= best * (1.0 + gap) + 1e-9, (crit, vals)
    print("PASS criterion 4: single-criterion scenarios hit the diagonal minima")


def test_acceptance_05_pareto_fronts():
    rng = np.random.default_rng(99)
    pairs = [("lcoe", "scenicness"), ("scenicness", "network_length"),
             ("network_length", "lcoe"), ("lcoe", "network_length")]
    checked_points = 0
    for trial in range(8):
        inst = _rand_instance(rng, int(rng.integers(8, 16)), 3)
        if len(inst.sites) > 15:
            continue
        cap_obj = float(rng.uniform(0.25, 0.6)) * sum(inst.sites.caps.tolist())
        optimize, sweep = pairs[trial % len(pairs)]
        front = pareto_sweep(inst, optimize, sweep, Constraints(cap_obj=cap_obj),
                             steps=6)
        mins = [p.achieved_min for p in front.points]
        assert all(a <= b for a, b in zip(mins, mins[1:])), mins
        w = Weights(*(1.0 if c == optimize else 0.0 for c in CRITERIA))
        for k, p in enumerate(front.points):
            con = Constraints(cap_obj=cap_obj) if k == 0 else Constraints(
                cap_obj=cap_obj, **{CAP_FIELD[sweep]: p.cap})
            opt, _ = subset_scan(inst, w, con)
            assert abs(p.selection.objective_value - opt) <= 1e-9, (trial, k)
            checked_points += 1
    assert checked_points >= 20
    print(f"PASS criterion 5: fronts monotone, {checked_points} points match "
          f"a subset scan")


def test_acceptance_06_equity_floor_construction():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = int(rng.integers(2, 12))
        muns = MunicipalityTable.of([mk_mun(j + 1, population=float(rng.uniform(0, 5000)),
                                            existing=float(rng.uniform(0, 30)))
                                     for j in range(m)])
        pots = np.array([float(rng.uniform(0, 60)) for _ in range(m)])
        target = float(rng.uniform(10, 500))
        floors = equity_floors(muns, target, pots)
        pop_total = sum(muns.population.tolist())
        for j, pop, existing, pot in zip(muns.ids.tolist(), muns.population.tolist(),
                                         muns.existing_capacity.tolist(), pots.tolist()):
            share = pop / pop_total * target - existing
            assert 0.0 <= floors[j] <= pot
            if 0.0 <= share <= pot:
                assert math.isclose(floors[j], share, rel_tol=1e-12, abs_tol=1e-12)
    print("PASS criterion 6: floor clamping rule verified on 100 random tables")


def test_acceptance_07_geoprep_exactness():
    assert abs(haversine_km(0.0, 0.0, 0.0, 1.0) - 111.195) < 1e-3
    rnd = random.Random(70)
    from windplan.domain import ExistingTurbine, Transformer
    for _ in range(50):
        transformers = [Transformer(transformer_id=t + 1,
                                    lat=rnd.uniform(47, 55),
                                    lon=rnd.uniform(6, 15),
                                    voltage_kv=rnd.choice([20, 110]))
                        for t in range(rnd.randint(1, 40))]
        cands = SiteTable.of([mk_site(i + 1, lat=rnd.uniform(47, 55),
                                      lon=rnd.uniform(6, 15)) for i in range(60)])
        fast = nearest_transformer(cands, transformers)
        slow = nearest_transformer_bruteforce(cands, transformers)
        assert all(a.tolist() == b.tolist() for a, b in zip(fast, slow))
    cands = SiteTable.of([mk_site(i + 1, lat=rnd.uniform(49, 51), lon=rnd.uniform(9, 11))
                          for i in range(150)])
    existing = [ExistingTurbine(turbine_id=t + 1, municipality_id=1,
                                lat=rnd.uniform(49, 51), lon=rnd.uniform(9, 11),
                                capacity=1.0) for t in range(15)]
    prev = -1
    for diameter in (300.0, 1088.0, 4000.0, 15000.0):
        _, report = exclusion_filter(cands, existing, buffer_diameter_m=diameter)
        assert report.excluded_count >= prev
        prev = report.excluded_count
    print("PASS criterion 7: geoprep equals the exhaustive scan")


def test_acceptance_08_scaling_contract():
    rng = np.random.default_rng(8)
    pool = [mk_site(i + 1, capacity=float(rng.uniform(2, 5)),
                    lcoe=float(rng.uniform(3, 12)),
                    scenicness=float(rng.uniform(1, 9)),
                    length=float(rng.uniform(0, 50)))
            for i in range(500)]
    raws = {"lcoe": np.array([c.lcoe for c in pool]),
            "scenicness": np.array([c.scenicness for c in pool]),
            "network_length": np.array([c.network_length for c in pool])}
    for raw in raws.values():
        scaled, _, _, degen = minmax_scale(raw)
        assert not degen
        assert scaled.min() == 0.0 and scaled.max() == 1.0
    eq = scale_candidates(SiteTable.of(pool))
    for name, raw in raws.items():
        arr = eq.by_name(name)
        assert abs(float(arr.mean()) - 1.0) <= 1e-9
        assert np.array_equal(np.argsort(raw, kind="stable"),
                              np.argsort(arr, kind="stable"))
    print("PASS criterion 8: endpoints, equalized means and argsort verified")


def test_acceptance_09_desk_scale_performance(desk_grid):
    _, results, elapsed = desk_grid
    assert elapsed < 120.0, f"grid took {elapsed:.1f} s"
    assert len(results) == 14
    for r in results:
        assert r.error is None, (r.name, r.error)
        assert r.selection.gap < 0.05, (r.name, r.selection.gap)
    print(f"PASS criterion 9: 14 scenarios in {elapsed:.1f} s, "
          f"max gap {max(r.selection.gap for r in results):.4f}")


def test_acceptance_10_determinism(tmp_path):
    spec = {"seed": 606, "n_sites": 200, "n_municipalities": 10, "n_states": 3,
            "n_transformers": 5, "n_existing": 4}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"name": "t", "w_c": 1.0, "w_s": 1.0,
                                    "w_l": 1.0, "equity": True,
                                    "total_capacity_mw": 150.0}))
    outputs = []
    for run in ("one", "two"):
        base = tmp_path / run
        raw, prep, sol, swp = (base / "raw", base / "prep", base / "solve",
                               base / "sweep")
        assert cli_main(["synth", "--spec", str(spec_path), "--out", str(raw)]) == 0
        assert cli_main(["prep", "--instance", str(raw), "--out", str(prep)]) == 0
        assert cli_main(["solve", "--instance", str(prep), "--scenario",
                         str(scenario), "--out", str(sol)]) == 0
        assert cli_main(["sweep", "--instance", str(prep), "--optimize", "lcoe",
                         "--sweep", "scenicness", "--steps", "4",
                         "--total-capacity-mw", "150", "--out", str(swp)]) == 0
        files = {}
        for d in (raw, prep, sol, swp):
            for f in sorted(d.iterdir()):
                # the manifest records wall-clock timings, everything else
                # must be byte-identical across reruns
                if f.name == "run_manifest.json":
                    continue
                files[f"{d.name}/{f.name}"] = f.read_bytes()
        outputs.append(files)
    assert outputs[0].keys() == outputs[1].keys()
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], key
    print("PASS criterion 10: pipeline reruns byte-identical")
