"""Declarative scenario grid and results-matrix runner.

The builtin grid holds the 14 standard scenarios: four minimization
variants (LCOE, scenicness, network length, all criteria) at the 105 GW
total target, each with and without equity floors, plus the three
single-criterion variants at the 200 GW target, again with and without
equity. Capacity targets scale down with a single factor for desk-scale
synthetic instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .domain import Instance, PlanError, ValidationError, json_value
from .metrics import added_capacity, regional_equity, south_quota
from .objective import Weights
from .solver import (Constraints, Selection, municipal_potentials, require_potential, solve,
                     target_constraints)

BASE_TOTAL_MW = 105_000.0
HIGH_TOTAL_MW = 200_000.0


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    weights: Weights
    equity: bool
    total_capacity_2050: float  # MW, national total (existing + added)


@dataclass
class ScenarioResult:
    name: str
    weights: Weights
    equity: bool
    total_capacity_mw: float
    added_target_mw: float
    selection: Selection | None  # None when the scenario failed
    equity_pct: float = 0.0
    south_quota_pct: float = 0.0
    runtime_s: float = 0.0
    error: str | None = None


_CRITERIA_WEIGHTS = {
    "LCOE": Weights(1.0, 0.0, 0.0),
    "Scenic": Weights(0.0, 1.0, 0.0),
    "Network": Weights(0.0, 0.0, 1.0),
    "all": Weights(1.0, 1.0, 1.0),
}


def builtin_grid() -> list[ScenarioConfig]:
    """The 14 standard scenarios (no all-criteria rows at the high target)."""
    grid = []
    for crit in ("LCOE", "Scenic", "Network", "all"):
        for equity in (False, True):
            name = f"Base_{crit}" + ("_E" if equity else "")
            grid.append(ScenarioConfig(name, _CRITERIA_WEIGHTS[crit], equity, BASE_TOTAL_MW))
    for crit in ("LCOE", "Scenic", "Network"):
        for equity in (False, True):
            name = f"High_{crit}" + ("_E" if equity else "")
            grid.append(ScenarioConfig(name, _CRITERIA_WEIGHTS[crit], equity, HIGH_TOTAL_MW))
    return grid


def _field(row: dict, key: str, kind: type, what: str):
    """row[key] as `kind` if it is a JSON value of that kind (`json_value`);
    a missing or mistyped field is a ValidationError naming it."""
    if key not in row:
        raise ValidationError(f"missing field {key!r}")
    return json_value(row[key], kind, what, f"field {key!r}")


def _file_name(name: str) -> str:
    """`name` if `selection_<name>.geojson` is a file name: not empty, "."
    or "..", without "/" or NUL, and at most 255 bytes in UTF-8."""
    try:
        size = len(f"selection_{name}.geojson".encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate
        size = None
    if name in ("", ".", "..") or "/" in name or "\0" in name or size is None or size > 255:
        raise ValidationError(
            f"field 'name' is not usable in the file name selection_<name>.geojson: {name!r}")
    return name


def scenario_from_row(row: dict) -> ScenarioConfig:
    """A scenario from the JSON object {name: string, w_c, w_s, w_l: finite
    numbers, equity: boolean, total_capacity_mw: finite number}; the name
    must be usable in a file name (`_file_name`)."""
    if not isinstance(row, dict):
        raise ValidationError(f"expected a JSON object, got {type(row).__name__}")

    def number(key: str) -> float:
        return _field(row, key, float, "a number")

    return ScenarioConfig(
        name=_file_name(_field(row, "name", str, "a string")),
        weights=Weights(number("w_c"), number("w_s"), number("w_l")),
        equity=_field(row, "equity", bool, "a boolean"),
        total_capacity_2050=number("total_capacity_mw"),
    )


def grid_from_rows(rows: list[dict]) -> list[ScenarioConfig]:
    """Build a grid from JSON rows, one `scenario_from_row` object each."""
    if not isinstance(rows, list):
        raise ValidationError(f"expected a JSON list of scenarios, got {type(rows).__name__}")
    grid = []
    names = set()
    for k, r in enumerate(rows):
        try:
            cfg = scenario_from_row(r)
        except ValidationError as e:
            raise ValidationError(f"row {k}: {e}") from None
        if cfg.name in names:
            raise PlanError(f"duplicate scenario name {cfg.name!r}")
        names.add(cfg.name)
        grid.append(cfg)
    return grid


def run_grid(instance: Instance, grid: list[ScenarioConfig],
             scale: float = 1.0) -> list[ScenarioResult]:
    """Solve every scenario; results ordered by scenario name.

    A failing scenario is recorded in-row and the grid continues;
    instance-wide infeasibility (capacity target above total potential)
    aborts with the offending scenario named.
    """
    pots = municipal_potentials(instance)
    # one Constraints per (target, equity), so each floor table is built once
    cache: dict[tuple[float, bool], Constraints] = {}
    jobs = []
    for cfg in sorted(grid, key=lambda c: c.name):
        total = cfg.total_capacity_2050 * scale
        key = (total, cfg.equity)
        try:
            if key not in cache:
                cache[key] = target_constraints(instance, total, cfg.equity, pots)
                require_potential(instance.sites, cache[key].cap_obj)
        except PlanError as e:
            raise type(e)(f"scenario {cfg.name}: {e}") from e
        jobs.append((cfg, total, cache[key]))

    def run_one(job) -> ScenarioResult:
        cfg, total, constraints = job
        row = (cfg.name, cfg.weights, cfg.equity, total, constraints.cap_obj)
        t_start = time.perf_counter()
        try:
            sel = solve(instance, cfg.weights, constraints)
            added = added_capacity(sel.site_ids, instance)
            result = ScenarioResult(
                *row, sel, regional_equity(sel.site_ids, instance, added).regional_equity_pct,
                south_quota(sel.site_ids, instance, added))
        except PlanError as e:
            result = ScenarioResult(*row, None, error=str(e))
        result.runtime_s = time.perf_counter() - t_start
        return result

    return [run_one(j) for j in jobs]
