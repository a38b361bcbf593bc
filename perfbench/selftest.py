"""Self-test of the benchmark's own checks, on the tiny smoke spec.

Run with `python3 perfbench/run.py --self-test`. It proves that:

- clean outputs of every workload pass the checker, and the metric names a
  run prints match BENCHMARK.json, traced and untraced;
- planted faults are counted: a GeoJSON missing one site so an equity floor
  is missed, a gap above the limit, an unparsable number, a truncated or
  non-monotone front, a wrong network length;
- `np.float64(...)` fields are parsed and counted, not rejected;
- the tracer wraps a function in every namespace that imported it and
  reports a vanished name as absent instead of failing.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile
import time
import types

import numpy as np

import checker
import run
import spans


class Results:
    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, cond: bool, what: str) -> None:
        if cond:
            self.passed += 1
        else:
            self.failures.append(what)
            print(f"FAIL: {what}", file=sys.stderr)


def _rewrite_csv(path: str, edit) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)


def _copy(src: str, work: str, name: str) -> str:
    dst = os.path.join(work, name)
    shutil.copytree(src, dst)
    return dst


def check_metric_names(res: Results) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    res.expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
               "BENCHMARK.json workloads match run.WORKLOADS")
    res.expect([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
               == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.END_TO_END")
    res.expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
               == list(spans.PER_LAYER), "BENCHMARK.json per_layer matches spans.PER_LAYER")
    for trace, names in ((False, [n for n, _, _ in run.END_TO_END]),
                         (True, [n for n, _, _ in spans.PER_LAYER])):
        for w in run.WORKLOADS:
            out = run.run_workload(w, run.DEFAULT_SEED, 0.0, trace, smoke=True)
            res.expect(out["result"]["correct"] and not out["record"]["violations"],
                       f"clean smoke {w} (trace {int(trace)}) passes: "
                       f"{out['record']['violations'][:3]}")
            res.expect(sorted(out["result"]["metrics"]) == sorted(names),
                       f"smoke {w} (trace {int(trace)}) prints every listed metric")
            if trace:
                m = out["result"]["metrics"]
                res.expect(abs(m["trace.unaccounted_s"]["value"])
                           <= 0.05 * m["trace.wall_s"]["value"] + 0.01,
                           f"self times of smoke {w} account for its traced wall time")


def check_planted(res: Results) -> None:
    os.makedirs(run.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK_DIR, prefix="selftest-")
    try:
        runner = run.Runner(work, time.monotonic() + 600.0)
        seed = run.DEFAULT_SEED
        spec = run.SMOKE_SPEC
        build = os.path.join(work, "ingest")
        os.makedirs(build)
        out = runner.run(build, run.commands("ingest", spec, seed, None))
        res.expect(out is not None and out["codes"] == [0, 0], "smoke ingest runs")
        with open(spec, encoding="utf-8") as f:
            doc = json.load(f)
        raw, prepped = os.path.join(build, "raw"), os.path.join(build, "prepped")

        # a wrong network length in prep's output
        bad = _copy(prepped, work, "bad-prepped")

        def shift_length(rows):
            col = rows[0].index("network_length_km")
            rows[1][col] = repr(float(rows[1][col]) + 0.5)
            return rows
        _rewrite_csv(os.path.join(bad, "candidates.csv"), shift_length)
        rep = checker.Report()
        checker.check_ingest(raw, bad, doc["n_sites"], doc["n_municipalities"],
                             run.BUFFER_M, rep)
        res.expect(rep.ops.get("prep") is True, "a wrong network length fails prep")

        inst = checker.Instance(prepped)
        grid_dir = os.path.join(work, "g")
        os.makedirs(grid_dir)
        out = runner.run(grid_dir, run.commands("grid", spec, seed, prepped))
        res.expect(out is not None and out["codes"] == [0], "smoke grid runs")
        grid = os.path.join(grid_dir, "grid")
        rep = checker.Report()
        checker.check_grid(inst, grid, run.SCALE, rep)
        res.expect(rep.failed == 0, f"clean grid passes: {rep.violations[:3]}")
        res.expect(rep.malformed_floats in (0, 28), "np.float64 fields counted, not rejected")

        # one site removed from an equity selection, so its municipality's floor is missed
        planted = _copy(grid, work, "planted")
        name = "Base_LCOE_E"
        path = os.path.join(planted, f"selection_{name}.geojson")
        with open(path, encoding="utf-8") as f:
            doc_geo = json.load(f)
        with open(os.path.join(planted, "results.csv"), newline="", encoding="utf-8") as f:
            total = next(float(r["total_capacity_mw"]) for r in csv.DictReader(f)
                         if r["name"] == name)
        floors = np.clip(inst.population / inst.population.sum() * total
                         - inst.per_municipality(inst.ex_mun, inst.ex_cap), 0.0,
                         inst.per_municipality(inst.site_mun, inst.cap))
        feats = doc_geo["features"]
        mun = np.array([ft["properties"]["municipality_id"] for ft in feats])
        cap = np.array([ft["properties"]["capacity_mw"] for ft in feats])
        got = inst.per_municipality(mun, cap)
        idx = inst.mun_index(mun)
        victim = next(i for i in range(len(feats))
                      if floors[idx[i]] > 0 and got[idx[i]] - cap[i] < floors[idx[i]] - 1e-6)
        del feats[victim]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc_geo, f)

        # a gap above the limit and an unparsable lower bound on two other rows
        def plant_numbers(rows):
            h = rows[0]
            for r in rows[1:]:
                if r[0] == "Base_LCOE":
                    r[h.index("gap")] = "np.float64(0.5)"
                if r[0] == "High_LCOE":
                    r[h.index("lower_bound")] = "np.float64(oops)"
            return rows
        _rewrite_csv(os.path.join(planted, "results.csv"), plant_numbers)
        rep = checker.Report()
        checker.check_grid(inst, planted, run.SCALE, rep)
        res.expect(any(v.startswith(f"scenario:{name}:") and "equity floor" in v
                       for v in rep.violations), "a missed equity floor is counted")
        res.expect(rep.ops.get("scenario:Base_LCOE") is True, "a gap of 0.5 is counted")
        res.expect(rep.ops.get("scenario:High_LCOE") is True, "an unparsable number is counted")
        res.expect(rep.failed == 3, f"exactly the three planted rows fail: {rep.violations}")

        front_dir = os.path.join(work, "f")
        os.makedirs(front_dir)
        out = runner.run(front_dir, run.commands("front", spec, seed, prepped))
        res.expect(out is not None and out["codes"] == [0], "smoke front runs")
        front = os.path.join(front_dir, "front")
        rep = checker.Report()
        checker.check_front(front, run.FRONT_STEPS, run.FRONT_FACTOR, rep)
        res.expect(rep.failed == 0, f"clean front passes: {rep.violations[:3]}")

        truncated = _copy(front, work, "truncated")
        _rewrite_csv(os.path.join(truncated, "front.csv"), lambda rows: rows[:-1])
        rep = checker.Report()
        checker.check_front(truncated, run.FRONT_STEPS, run.FRONT_FACTOR, rep)
        res.expect(rep.ops.get("sweep") is True, "a truncated front is counted")

        falling = _copy(front, work, "falling")

        def lower_last(rows):
            col = rows[0].index("achieved_min")
            rows[-1][col] = repr(float(rows[1][col]) * 0.5)
            return rows
        _rewrite_csv(os.path.join(falling, "front.csv"), lower_last)
        rep = checker.Report()
        checker.check_front(falling, run.FRONT_STEPS, run.FRONT_FACTOR, rep)
        res.expect(rep.ops.get(f"point:{run.FRONT_STEPS - 1}") is True,
                   "a decreasing achieved_min is counted")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_tracer(res: Results) -> None:
    """Wrap a fake package: one function imported by a second module, one gone."""
    pkg = "fakeplan"
    core = types.ModuleType(f"{pkg}.core")

    def work(n):
        time.sleep(0.01)
        return n
    core.work = work
    user = types.ModuleType(f"{pkg}.user")
    user.work = work
    sys.modules.update({pkg: types.ModuleType(pkg), f"{pkg}.core": core, f"{pkg}.user": user})
    try:
        tracer = spans.Tracer(layers={"core": ("work", "vanished")}, package=pkg)
        tracer.install()
        core.work(1)
        user.work(2)
        report = tracer.report()
        res.expect(report.get("core.work.calls") == 2,
                   "calls through both namespaces are traced")
        res.expect("core.vanished" in tracer.absent and "core.vanished.self_s" not in report,
                   "a vanished function is reported absent")
        res.expect(report["core.work.self_s"] >= 0.02, "self time is recorded")
    finally:
        for name in (pkg, f"{pkg}.core", f"{pkg}.user"):
            sys.modules.pop(name, None)


def main() -> int:
    res = Results()
    check_tracer(res)
    check_planted(res)
    check_metric_names(res)
    print(f"self-test: {res.passed} checks passed, {len(res.failures)} failed")
    return 0 if not res.failures else 1
