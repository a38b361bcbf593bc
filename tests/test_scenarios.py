import pytest

from windplan.domain import InfeasibleError, PlanError, ValidationError
from windplan.geoprep import prep_instance
from windplan.objective import Weights
from windplan.scenarios import (
    BASE_TOTAL_MW,
    HIGH_TOTAL_MW,
    ScenarioConfig,
    builtin_grid,
    grid_from_rows,
    run_grid,
    scenario_from_row,
)
from windplan.solver import solve, target_constraints
from windplan.synth import SynthSpec, generate


def small_instance(seed=101, n_sites=300):
    spec = SynthSpec(seed=seed, n_sites=n_sites, n_municipalities=25,
                     n_states=4, n_transformers=8, n_existing=6)
    inst, _ = prep_instance(generate(spec))
    return inst


def test_builtin_grid_composition():
    grid = builtin_grid()
    assert len(grid) == 14
    names = {c.name for c in grid}
    expected = {f"Base_{k}{s}" for k in ("LCOE", "Scenic", "Network", "all")
                for s in ("", "_E")}
    expected |= {f"High_{k}{s}" for k in ("LCOE", "Scenic", "Network")
                 for s in ("", "_E")}
    assert names == expected
    base = [c for c in grid if c.name.startswith("Base")]
    assert all(c.total_capacity_2050 == BASE_TOTAL_MW for c in base)
    high = [c for c in grid if c.name.startswith("High")]
    assert all(c.total_capacity_2050 == HIGH_TOTAL_MW for c in high)
    assert sum(c.equity for c in grid) == 7


def test_grid_from_rows():
    rows = [{"name": "x", "w_c": 1, "w_s": 0, "w_l": 0, "equity": False,
             "total_capacity_mw": 50.0}]
    grid = grid_from_rows(rows)
    assert grid[0].name == "x"
    assert grid[0].weights.w_c == 1.0
    with pytest.raises(PlanError, match="duplicate"):
        grid_from_rows(rows + rows)


def test_scenario_name_fits_a_file_name():
    # selection_<name>.geojson may take up to 255 bytes in UTF-8
    row = {"w_c": 1, "w_s": 0, "w_l": 0, "equity": False, "total_capacity_mw": 50.0}
    for name in ("x" * 237, "\u00e9" * 118, "a.b", "..."):
        assert scenario_from_row({**row, "name": name}).name == name
    for name in ("x" * 238, "\u00e9" * 119, "", ".", "..", "/", "a/", "\0"):
        with pytest.raises(ValidationError, match="field 'name' is not usable"):
            scenario_from_row({**row, "name": name})


def test_run_grid_results_ordered_and_feasible():
    inst = small_instance()
    potential = sum(inst.sites.caps.tolist())
    existing = sum(inst.municipalities.existing_capacity.tolist())
    scale = (existing + 0.4 * potential) / BASE_TOTAL_MW
    results = run_grid(inst, builtin_grid(), scale=scale)
    assert [r.name for r in results] == sorted(r.name for r in results)
    assert len(results) == 14
    for r in results:
        assert r.error is None, r.error
        assert r.selection is not None
        assert r.selection.totals.capacity_mw >= r.added_target_mw - 1e-9
        assert r.selection.gap >= 0.0


def test_run_grid_target_below_existing_errors():
    inst = small_instance(n_sites=120)
    with pytest.raises(PlanError, match="existing"):
        run_grid(inst, builtin_grid(), scale=1e-9)


def test_run_grid_target_above_potential_aborts():
    inst = small_instance(n_sites=120)
    with pytest.raises(InfeasibleError, match="potential"):
        run_grid(inst, builtin_grid(), scale=1.0)


def test_run_grid_and_solve_share_the_potential_rule():
    # a target a hair above the total potential is within the solver's tolerance
    inst = small_instance(n_sites=120)
    potential = sum(inst.sites.caps.tolist())
    existing = sum(inst.municipalities.existing_capacity.tolist())
    total = existing + potential * (1 + 1e-11)
    weights = Weights(1.0, 0.0, 0.0)
    sel = solve(inst, weights, target_constraints(inst, total, False))
    assert sel.n_sites == len(inst.sites)
    [r] = run_grid(inst, [ScenarioConfig("edge", weights, False, total)])
    assert r.error is None and r.selection == sel
