"""Command-line front door.

Subcommands: synth, prep, scale, solve, sweep, scenarios, metrics.
Exit codes: 0 success, 1 validation/usage error, 2 infeasibility,
3 I/O error.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict

import click
import numpy as np

from .domain import (
    InfeasibleError,
    PlanError,
    ValidationError,
    instance_files,
    read_instance,
    validate_instance,
    write_csv,
    write_instance,
)
from .geoprep import DEFAULT_BUFFER_DIAMETER_M, prep_instance
from .metrics import radar_values, regional_equity, regional_stats
from .objective import scale_candidates
from .runio import (
    read_selection_csv,
    write_front_csv,
    write_geojson,
    write_json,
    write_manifest,
    write_radar_csv,
    write_results_csv,
    write_selection_csv,
    write_summary_json,
)
from .scenarios import builtin_grid, grid_from_rows, run_grid, scenario_from_row
from .solver import pareto_sweep, solve, target_constraints
from .synth import generate, germany_like, spec_from_json, SynthSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


def _load_validated(directory: str):
    """The validated instance of a directory, and the hex sha256 of each
    file hashed while reading it, by path, for the run manifest."""
    digests: dict[str, str] = {}
    instance = read_instance(directory, digests)
    report = validate_instance(instance)
    if not report.ok():
        lines = "\n".join(f"  {v.kind}: {v.message}" for v in report.violations[:20])
        raise ValidationError(f"instance {directory} is invalid:\n{lines}")
    return instance, digests


@click.group(name="plan")
def cli():
    """Multi-objective onshore wind expansion planner."""


@cli.command("synth")
@click.option("--spec", "spec_path", type=click.Path(), default=None,
              help="JSON spec; 'germany-like' or omitted for the builtin specs.")
@click.option("--seed", type=int, default=None, help="Override the spec seed.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def synth_cmd(spec_path, seed, out_dir):
    """Generate a synthetic instance (four CSVs) into --out."""
    t0 = time.perf_counter()
    if spec_path in (None, "default"):
        spec = SynthSpec(seed=seed) if seed is not None else SynthSpec()
    elif spec_path == "germany-like":
        spec = germany_like(seed) if seed is not None else germany_like()
    else:
        spec = spec_from_json(_read_json(spec_path, "synth spec"), seed_override=seed)
    instance = generate(spec)
    os.makedirs(out_dir, exist_ok=True)
    write_instance(instance, out_dir)
    write_manifest(out_dir, [spec_path] if spec_path and os.path.isfile(spec_path) else [],
                   {"command": "synth", "seed": spec.seed, "n_sites": spec.n_sites},
                   {"synth": time.perf_counter() - t0})
    click.echo(f"wrote instance with {len(instance.sites)} candidates to {out_dir}")


@cli.command("prep")
@click.option("--instance", "instance_dir", required=True, type=click.Path())
@click.option("--buffer-m", type=float, default=DEFAULT_BUFFER_DIAMETER_M,
              show_default=True, help="Exclusion buffer diameter in meters.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def prep_cmd(instance_dir, buffer_m, out_dir):
    """Exclusion filter + nearest-transformer network lengths."""
    t0 = time.perf_counter()
    instance, digests = _load_validated(instance_dir)
    prepped, report = prep_instance(instance, buffer_m)
    os.makedirs(out_dir, exist_ok=True)
    write_instance(prepped, out_dir)
    write_json(os.path.join(out_dir, "exclusion_report.json"), asdict(report))
    write_manifest(out_dir, instance_files(instance_dir),
                   {"command": "prep", "buffer_m": buffer_m},
                   {"prep": time.perf_counter() - t0}, digests=digests)
    click.echo(f"excluded {report.excluded_count} candidates "
               f"({report.excluded_share_count:.1%} of sites, "
               f"{report.excluded_share_capacity:.1%} of capacity)")


@cli.command("scale")
@click.option("--instance", "instance_dir", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Output CSV of per-criterion scaled-value histograms.")
@click.option("--bins", type=click.IntRange(min=1), default=40, show_default=True)
def scale_cmd(instance_dir, out_path, bins):
    """Emit the scaled-equalized criterion value distributions."""
    t0 = time.perf_counter()
    instance, digests = _load_validated(instance_dir)
    scaled = scale_candidates(instance.sites)
    arrays = {"lcoe": scaled.lcoe, "scenicness": scaled.scenicness,
              "network_length": scaled.network_length}
    hi = max(float(a.max()) for a in arrays.values())
    edges = np.linspace(0.0, hi, bins + 1)
    out_dir = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for name, arr in arrays.items():
        counts, _ = np.histogram(arr, bins=edges)
        mean = repr(float(arr.mean()))
        for b in range(bins):
            rows.append([name, repr(float(edges[b])), repr(float(edges[b + 1])),
                         int(counts[b]), mean])
    write_csv(out_path, ["criterion", "bin_left", "bin_right", "count", "mean"], rows)
    write_manifest(out_dir, instance_files(instance_dir),
                   {"command": "scale", "bins": bins},
                   {"scale": time.perf_counter() - t0}, digests=digests)
    click.echo(f"wrote scaled histograms to {out_path}")


def _read_json(path: str, what: str):
    """Parsed JSON of a user file; malformed JSON is a ValidationError."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise ValidationError(f"{what} {path}: invalid JSON: {e}") from None


@cli.command("solve")
@click.option("--instance", "instance_dir", required=True, type=click.Path())
@click.option("--scenario", "scenario_path", required=True, type=click.Path(),
              help="JSON {name, w_c, w_s, w_l, equity, total_capacity_mw}.")
@click.option("--scale", type=float, default=1.0, show_default=True,
              help="Factor applied to the scenario capacity target.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def solve_cmd(instance_dir, scenario_path, scale, out_dir):
    """Solve one scenario; writes selection.csv/.geojson and summary.json."""
    t0 = time.perf_counter()
    instance, digests = _load_validated(instance_dir)
    sc = _read_json(scenario_path, "scenario")
    try:
        cfg = scenario_from_row(sc)
    except ValidationError as e:
        raise ValidationError(f"scenario {scenario_path}: {e}") from None
    constraints = target_constraints(instance, cfg.total_capacity_2050 * scale, cfg.equity)
    sel = solve(instance, cfg.weights, constraints)
    os.makedirs(out_dir, exist_ok=True)
    write_selection_csv(sel, instance, os.path.join(out_dir, "selection.csv"))
    write_geojson(sel, instance, os.path.join(out_dir, "selection.geojson"))
    write_summary_json(sel, os.path.join(out_dir, "summary.json"))
    write_manifest(out_dir, instance_files(instance_dir) + [scenario_path],
                   {"command": "solve", "scenario": sc, "scale": scale},
                   {"solve": time.perf_counter() - t0}, digests=digests)
    click.echo(f"selected {sel.n_sites} sites, objective {sel.objective_value:.6g}, "
               f"gap {sel.gap:.2%}")


@cli.command("sweep")
@click.option("--instance", "instance_dir", required=True, type=click.Path())
@click.option("--optimize", required=True,
              type=click.Choice(["lcoe", "scenicness", "network_length"]))
@click.option("--sweep", "sweep_crit", required=True,
              type=click.Choice(["lcoe", "scenicness", "network_length"]))
@click.option("--steps", type=int, default=10, show_default=True)
@click.option("--factor", type=float, default=0.9, show_default=True)
@click.option("--total-capacity-mw", type=float, required=True,
              help="National total capacity target (MW), existing included.")
@click.option("--scale", type=float, default=1.0, show_default=True)
@click.option("--equity", is_flag=True, default=False)
@click.option("--out", "out_dir", required=True, type=click.Path())
def sweep_cmd(instance_dir, optimize, sweep_crit, steps, factor,
              total_capacity_mw, scale, equity, out_dir):
    """Epsilon-constraint Pareto sweep between two criteria."""
    t0 = time.perf_counter()
    instance, digests = _load_validated(instance_dir)
    constraints = target_constraints(instance, total_capacity_mw * scale, equity)
    front = pareto_sweep(instance, optimize, sweep_crit, constraints,
                         steps=steps, step_factor=factor)
    os.makedirs(out_dir, exist_ok=True)
    write_front_csv(front, os.path.join(out_dir, "front.csv"))
    write_manifest(out_dir, instance_files(instance_dir),
                   {"command": "sweep", "optimize": optimize, "sweep": sweep_crit,
                    "steps": steps, "factor": factor, "equity": equity,
                    "total_capacity_mw": total_capacity_mw, "scale": scale,
                    "stop": {"reason": front.stop, "cap": front.stop_cap,
                             "bound": front.stop_bound}},
                   {"sweep": time.perf_counter() - t0},
                   stats={"points": [{"step": p.step, **p.selection.stats}
                                     for p in front.points]}, digests=digests)
    note = ""
    if front.truncated:
        bound = "unknown" if front.stop_bound is None else f"{front.stop_bound:.6g}"
        if front.stop == "proven_limit":
            note = (f" (truncated at feasibility limit: the cap {front.stop_cap:.6g} is "
                    f"below the minimum, which is at least {bound})")
        else:
            note = (f" (stopped at the cap {front.stop_cap:.6g}: no selection found, and "
                    f"the lower bound {bound} does not rule the cap out)")
    click.echo(f"front with {len(front.points)} points{note}")


@cli.command("scenarios")
@click.option("--instance", "instance_dir", required=True, type=click.Path())
@click.option("--grid", "grid_spec", default="builtin", show_default=True,
              help="'builtin' or a JSON grid file.")
@click.option("--scale", type=float, default=1.0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
def scenarios_cmd(instance_dir, grid_spec, scale, out_dir):
    """Run a scenario grid; writes results.csv, radar.csv and GeoJSONs."""
    t0 = time.perf_counter()
    instance, digests = _load_validated(instance_dir)
    if grid_spec == "builtin":
        grid = builtin_grid()
        inputs = instance_files(instance_dir)
    else:
        rows = _read_json(grid_spec, "grid")
        try:
            grid = grid_from_rows(rows)
        except PlanError as e:
            raise type(e)(f"grid {grid_spec}: {e}") from None
        inputs = instance_files(instance_dir) + [grid_spec]
    results = run_grid(instance, grid, scale=scale)
    os.makedirs(out_dir, exist_ok=True)
    write_results_csv(results, os.path.join(out_dir, "results.csv"))
    for r in results:
        if r.selection is not None:
            write_geojson(r.selection, instance,
                          os.path.join(out_dir, f"selection_{r.name}.geojson"))
    ok = {r.name: {"mean_lcoe": r.selection.means.lcoe,
                   "mean_scenicness": r.selection.means.scenicness,
                   "mean_network_length_km": r.selection.means.network_length_km,
                   "equity_pct": r.equity_pct}
          for r in results if r.selection is not None}
    base = sorted(n for n in ok if n.startswith("Base"))
    if len(ok) >= 2:
        group = base if len(base) >= 2 else sorted(ok)
        write_radar_csv(radar_values(ok, norm_group=group),
                        os.path.join(out_dir, "radar.csv"))
    write_manifest(out_dir, inputs,
                   {"command": "scenarios", "grid": grid_spec, "scale": scale},
                   {"scenarios": time.perf_counter() - t0,
                    **{f"scenario:{r.name}": r.runtime_s for r in results}},
                   stats={r.name: r.selection.stats for r in results if r.selection is not None},
                   digests=digests)
    failures = [r.name for r in results if r.error is not None]
    click.echo(f"ran {len(results)} scenarios" +
               (f", failures: {failures}" if failures else ""))


@cli.command("metrics")
@click.option("--selection", "selection_path", required=True, type=click.Path())
@click.option("--instance", "instance_dir", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def metrics_cmd(selection_path, instance_dir, out_path):
    """Equity / south-quota / per-state statistics for a saved selection."""
    t0 = time.perf_counter()
    site_ids = read_selection_csv(selection_path)
    instance, digests = _load_validated(instance_dir)
    eq = regional_equity(site_ids, instance)
    stats = regional_stats(site_ids, instance)
    doc = {
        "gini": eq.gini,
        "regional_equity_pct": eq.regional_equity_pct,
        "south_quota_pct": stats.south_quota_pct,
        "excluded_zero_population": eq.excluded_zero_population,
        "per_state": [asdict(s) for s in stats.per_state],
    }
    out_dir = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(out_dir, exist_ok=True)
    write_json(out_path, doc)
    write_manifest(out_dir, instance_files(instance_dir) + [selection_path],
                   {"command": "metrics"},
                   {"metrics": time.perf_counter() - t0}, digests=digests)
    click.echo(f"equity {eq.regional_equity_pct:.1f}%, "
               f"south quota {doc['south_quota_pct']:.1f}%")


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping errors to exit codes (1/2/3)."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except InfeasibleError as e:
        click.echo(f"infeasible: {e}", err=True)
        return EXIT_INFEASIBLE
    except (ValidationError, click.UsageError) as e:
        msg = e.format_message() if isinstance(e, click.UsageError) else str(e)
        click.echo(f"error: {msg}", err=True)
        return EXIT_VALIDATION
    except PlanError as e:
        click.echo(f"error: {e}", err=True)
        return EXIT_VALIDATION
    except OSError as e:
        click.echo(f"i/o error: {e}", err=True)
        return EXIT_IO
    except click.exceptions.Exit as e:
        return int(e.exit_code)


if __name__ == "__main__":
    sys.exit(main())
