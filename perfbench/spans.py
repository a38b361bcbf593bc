"""Span tracer that wraps windplan's public functions from outside the package.

Each wrapped function records a span: name, start, end and the span that
was open when it was called. A span's self time is its duration minus the
part covered by its child spans, so the self times of all spans add up to
the wall time of the outermost call. Spans stay in memory; `report()` turns
them into the per-layer metrics listed in PER_LAYER.

A function is wrapped by identity in every loaded `windplan` module that
imported it (`windplan.solver.solve`, `windplan.scenarios.solve`,
`windplan.cli.solve`, ...), so calls through any of those names are seen. A
name that no longer exists is reported in `absent` and its metrics are left
out; the run goes on.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import statistics
import sys
import threading
import time

# module -> public functions wrapped in it
LAYERS = {
    "synth": ("generate",),
    "geoprep": ("prep_instance", "exclusion_filter", "nearest_transformer"),
    "domain": ("read_instance", "write_instance", "validate_instance",
               "with_network_lengths"),
    "objective": ("scale_candidates", "site_costs"),
    "solver": ("solve", "pareto_sweep", "equity_floors", "municipal_potentials"),
    "scenarios": ("run_grid",),
    "metrics": ("regional_equity", "south_quota", "radar_values"),
    "runio": ("write_geojson", "write_results_csv", "write_front_csv",
              "write_radar_csv", "write_manifest"),
    "cli": ("main",),
}
# click subcommands whose callbacks are wrapped as cli.<command>
CLI_COMMANDS = ("synth", "prep", "scenarios", "sweep")

# (metric name, unit, better) for every per-layer metric of a traced run;
# BENCHMARK.json lists the same names
PER_LAYER = (
    [(f"cli.{c}.self_s", "s", "lower") for c in CLI_COMMANDS]
    + [("cli.main.self_s", "s", "lower"),
       ("synth.generate.self_s", "s", "lower"),
       ("geoprep.prep_instance.self_s", "s", "lower"),
       ("geoprep.exclusion_filter.self_s", "s", "lower"),
       ("geoprep.exclusion_filter.candidates", "count", "lower"),
       ("geoprep.exclusion_filter.excluded", "count", "lower"),
       ("geoprep.nearest_transformer.self_s", "s", "lower"),
       ("geoprep.nearest_transformer.queries", "count", "lower"),
       ("domain.read_instance.self_s", "s", "lower"),
       ("domain.read_instance.bytes", "bytes", "lower"),
       ("domain.read_instance.calls", "count", "lower"),
       ("domain.validate_instance.self_s", "s", "lower"),
       ("domain.write_instance.self_s", "s", "lower"),
       ("domain.write_instance.bytes", "bytes", "lower"),
       ("domain.with_network_lengths.self_s", "s", "lower"),
       ("objective.scale_candidates.self_s", "s", "lower"),
       ("objective.site_costs.self_s", "s", "lower"),
       ("objective.site_costs.calls", "count", "lower"),
       ("solver.solve.calls", "count", "lower"),
       ("solver.solve.p50_s", "s", "lower"),
       ("solver.solve.self_s", "s", "lower"),
       ("solver.solve.plain_s", "s", "lower"),
       ("solver.solve.floors_s", "s", "lower"),
       ("solver.solve.capped_s", "s", "lower"),
       ("solver.pareto_sweep.self_s", "s", "lower"),
       ("solver.pareto_sweep.points", "count", "higher"),
       ("solver.equity_floors.self_s", "s", "lower"),
       ("solver.municipal_potentials.self_s", "s", "lower"),
       ("scenarios.run_grid.self_s", "s", "lower"),
       ("metrics.regional_equity.self_s", "s", "lower"),
       ("metrics.south_quota.self_s", "s", "lower"),
       ("metrics.radar_values.self_s", "s", "lower"),
       ("runio.write_geojson.self_s", "s", "lower"),
       ("runio.write_geojson.bytes", "bytes", "lower"),
       ("runio.write_results_csv.self_s", "s", "lower"),
       ("runio.write_front_csv.self_s", "s", "lower"),
       ("runio.write_radar_csv.self_s", "s", "lower"),
       ("runio.write_manifest.self_s", "s", "lower"),
       ("runio.malformed_floats", "count", "lower"),
       ("result.max_gap", "ratio", "lower"),
       ("result.mean_gap", "ratio", "lower"),
       ("process.cpu_s", "s", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.unaccounted_s", "s", "lower")]
)

_INSTANCE_FILES = ("candidates.csv", "municipalities.csv", "existing.csv",
                   "transformers.csv")


def _dir_bytes(directory) -> int:
    return sum(os.path.getsize(os.path.join(directory, n)) for n in _INSTANCE_FILES
               if os.path.isfile(os.path.join(directory, n)))


def _solve_kind(constraints) -> str:
    if any(getattr(constraints, f, None) is not None for f in ("m_c", "m_s", "m_l")):
        return "capped"
    if getattr(constraints, "equity_floors", None):
        return "floors"
    return "plain"


# name -> hook(bound arguments, return value, self time) -> {count: amount};
# hooks run after the span has closed, so their cost is no layer's self time
_HOOKS = {
    "geoprep.exclusion_filter": lambda a, r, t: {
        "candidates": len(a["candidates"]), "excluded": r[1].excluded_count},
    "geoprep.nearest_transformer": lambda a, r, t: {"queries": len(a["candidates"])},
    "domain.read_instance": lambda a, r, t: {"bytes": _dir_bytes(a["directory"])},
    "domain.write_instance": lambda a, r, t: {"bytes": _dir_bytes(a["directory"])},
    "runio.write_geojson": lambda a, r, t: {"bytes": os.path.getsize(a["path"])},
    "solver.pareto_sweep": lambda a, r, t: {"points": len(r.points)},
    "solver.solve": lambda a, r, t: {f"{_solve_kind(a['constraints'])}_s": t},
}
# every count the hooks can make, reported as 0 when never made
_COUNTS = ("geoprep.exclusion_filter.candidates", "geoprep.exclusion_filter.excluded",
           "geoprep.nearest_transformer.queries", "domain.read_instance.bytes",
           "domain.write_instance.bytes", "runio.write_geojson.bytes",
           "solver.pareto_sweep.points", "solver.solve.plain_s",
           "solver.solve.floors_s", "solver.solve.capped_s")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS,
                 package: str = "windplan"):
        self.layers = layers
        self.package = package
        self.spans: list[tuple[str, int, int | None, float, float]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every listed function in every loaded module of the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for mod_name, names in self.layers.items():
            mod = sys.modules.get(f"{self.package}.{mod_name}")
            for name in names:
                orig = getattr(mod, name, None) if mod is not None else None
                if not callable(orig):
                    self.absent.append(f"{mod_name}.{name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{name}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
        cli = sys.modules.get(f"{self.package}.cli")
        group = getattr(cli, "cli", None)
        commands = getattr(group, "commands", {})
        for c in CLI_COMMANDS:
            cmd = commands.get(c)
            if cmd is None or cmd.callback is None:
                self.absent.append(f"cli.{c}")
                continue
            cmd.callback = self._wrap(f"cli.{c}", cmd.callback)

    def _wrap(self, name: str, fn):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            span_id = next(tracer._ids)
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                tracer._record(name, span_id, parent, frame[1], end, dur - frame[2])
            tracer._after(name, sig, hook, args, kwargs, result, dur - frame[2])
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, span_id, parent, start, end, self_time) -> None:
        with self._lock:
            self.spans.append((name, span_id, parent, start, end))
            self.self_s[name] = self.self_s.get(name, 0.0) + self_time
            self.calls[name] = self.calls.get(name, 0) + 1
            self.durations.setdefault(name, []).append(end - start)

    def _bump(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def _after(self, name, sig, hook, args, kwargs, result, self_time) -> None:
        if hook is None:
            return
        try:
            bound = sig.bind(*args, **kwargs).arguments if sig is not None else {}
            for key, amount in hook(bound, result, self_time).items():
                self._bump(f"{name}.{key}", amount)
        except (AttributeError, KeyError, TypeError, IndexError, OSError) as e:
            self.hook_errors.append(f"{name}: {type(e).__name__}: {e}")

    # -- results ------------------------------------------------------
    def report(self) -> dict[str, float]:
        """Raw per-layer figures: self time and calls of every wrapped name,
        the counts the hooks gathered, and the solve split."""
        out: dict[str, float] = {}
        wrapped = [f"{m}.{n}" for m, names in self.layers.items() for n in names]
        wrapped += [f"cli.{c}" for c in CLI_COMMANDS]
        for name in wrapped:
            if name in self.absent:
                continue
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for key in _COUNTS:
            if key.rsplit(".", 1)[0] not in self.absent:
                out[key] = self.counts.get(key, 0.0)
        if "solver.solve" not in self.absent:
            durs = self.durations.get("solver.solve", [])
            out["solver.solve.p50_s"] = statistics.median(durs) if durs else 0.0
        out["trace.self_total_s"] = sum(self.self_s.values())
        return out
