"""windplan benchmark: the germany-like desk instance driven through `plan`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ingest,grid,front} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke [--trace 1]   # all workloads, tiny spec
    python3 perfbench/run.py --self-test           # checker and tracer

Workloads are closed loops: one client runs one command sequence at a
time, each iteration in a fresh interpreter that calls
`windplan.cli.main(argv)`, the documented front door, with PLAN_THREADS=1.

- ingest: `plan synth --spec germany-like --seed N`, then `plan prep`.
- grid:   `plan scenarios --grid builtin --scale 0.01`.
- front:  `plan sweep --optimize lcoe --sweep scenicness --steps 4
          --total-capacity-mw 105000 --scale 0.01`.

grid and front run on the prepped instance of seed N, made untimed before
measuring (ingest measures that cost) and kept in `.perfbench_cache/`, keyed
by the digest of `src/windplan` and the seed. Iterations repeat until
`--seconds` have passed, at least one. Every output is checked by
checker.py; the last stdout line is the JSON result the benchmark contract
asks for, the line before it the run record (environment, per-iteration
samples, result-file digests, violations). Records are also written to
`.perfbench_out/`.

End-to-end metrics (tracing off): setup_s (process start to the end of
`import windplan.cli`, median of SETUP_PROBES import-only processes and
the iterations), wall_s (the CLI commands of one iteration), peak_rss_mb
(ru_maxrss of the iteration process) and ok_ratio (operations that did not
fail over those attempted). The record also keeps the CPU time of the
commands, which unlike wall_s leaves out time the host steals from a
virtual CPU. With --trace 1 a first untraced iteration gives
the baseline for trace.overhead_s and the traced iterations that follow
give the per-layer metrics of spans.PER_LAYER.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from importlib import metadata

import checker
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
CACHE_DIR = os.path.join(ROOT, ".perfbench_cache")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SMOKE_SPEC = os.path.join(HERE, "smoke_spec.json")

WORKLOADS = ("ingest", "grid", "front")
DEFAULT_SEED = 2050
SCALE = 0.01
FRONT_STEPS = 4
FRONT_FACTOR = 0.9  # the CLI's default step factor
BUFFER_M = 1088.0  # the CLI's default exclusion buffer diameter
GERMANY_LIKE = {"n_sites": 160_000, "n_municipalities": 11_000}
SETUP_PROBES = 3
CACHE_ENTRIES = 16
RUN_LIMIT_S = 170.0
# (name, unit, better) of the end-to-end metrics; BENCHMARK.json lists the same
END_TO_END = (("setup_s", "s", "lower"), ("wall_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"), ("ok_ratio", "ratio", "higher"))


def commands(workload: str, spec: str, seed: int, instance: str | None) -> list[list[str]]:
    if workload == "ingest":
        return [["synth", "--spec", spec, "--seed", str(seed), "--out", "raw"],
                ["prep", "--instance", "raw", "--out", "prepped"]]
    if workload == "grid":
        return [["scenarios", "--instance", instance, "--grid", "builtin",
                 "--scale", repr(SCALE), "--out", "grid"]]
    return [["sweep", "--instance", instance, "--optimize", "lcoe", "--sweep", "scenicness",
             "--steps", str(FRONT_STEPS), "--total-capacity-mw", "105000",
             "--scale", repr(SCALE), "--out", "front"]]


OUTPUT_DIRS = {"ingest": ("raw", "prepped"), "grid": ("grid",), "front": ("front",)}


class RunError(Exception):
    """The benchmark itself cannot run here."""


# -- environment -------------------------------------------------------------

def source_digest() -> str:
    """sha256 over the package's Python files, by relative path."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "windplan")
    files = sorted(os.path.relpath(os.path.join(d, n), pkg)
                   for d, _, names in os.walk(pkg) for n in names if n.endswith(".py"))
    for rel in files:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(pkg, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int, spec: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": _version("numpy"), "click": _version("click"), "scipy": _version("scipy"),
        "commit": _commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "spec": spec,
        "PLAN_THREADS": "1",
    }


# -- worker processes ----------------------------------------------------------

class Runner:
    """Starts worker processes; every one is waited for before the call returns."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PLAN_THREADS="1",
                        PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def run(self, cwd: str, cmds: list[list[str]], trace: bool = False) -> dict | None:
        result = os.path.join(self.work, f"worker-{uuid.uuid4().hex}.json")
        log_path = os.path.join(self.work, "worker.log")
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise RunError("out of time for this run")
        job = {"src": SRC, "commands": cmds, "trace": trace, "result": result,
               "t_spawn": time.monotonic()}
        with open(log_path, "ab") as log:
            try:
                proc = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=cwd,
                                      env=self.env, stdout=log, stderr=log,
                                      timeout=remaining)
            except subprocess.TimeoutExpired as e:
                raise RunError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from e
        if proc.returncode != 0 or not os.path.isfile(result):
            with open(log_path, encoding="utf-8", errors="replace") as f:
                tail = f.read()[-2000:]
            print(f"worker exited with {proc.returncode}:\n{tail}", file=sys.stderr)
            return None
        with open(result, encoding="utf-8") as f:
            out = json.load(f)
        os.remove(result)
        return out

    def setup_probe(self) -> float:
        out = self.run(self.work, [])
        if out is None:
            raise RunError("cannot import windplan.cli from the checkout")
        return out["setup_s"]


# -- prepped instance cache ------------------------------------------------------

def _count_rows(path: str) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f) - 1


def prepared_instance(runner: Runner, spec: str, seed: int, key: str) -> tuple[str, dict]:
    """Prepped instance of the seed: from the cache, or made now (untimed)."""
    entry = os.path.join(CACHE_DIR, key)
    meta_path = os.path.join(entry, "meta.json")
    if os.path.isfile(meta_path):
        os.utime(entry)
        with open(meta_path, encoding="utf-8") as f:
            return os.path.join(entry, "prepped"), json.load(f)
    build = os.path.join(runner.work, "prepare")
    os.makedirs(build)
    res = runner.run(build, commands("ingest", spec, seed, None))
    if res is None or res["codes"] != [0, 0]:
        raise RunError(f"cannot prepare the instance of seed {seed}")
    sizes = {"sites_generated": _count_rows(os.path.join(build, "raw", "candidates.csv")),
             "sites_after_exclusion": _count_rows(os.path.join(build, "prepped",
                                                               "candidates.csv")),
             "municipalities": _count_rows(os.path.join(build, "prepped",
                                                        "municipalities.csv"))}
    store_instance(os.path.join(build, "prepped"), key, sizes)
    return os.path.join(entry, "prepped"), sizes


def store_instance(prepped: str, key: str, sizes: dict) -> None:
    """Move a prepped instance into the cache and drop the oldest entries."""
    entry = os.path.join(CACHE_DIR, key)
    if os.path.isfile(os.path.join(entry, "meta.json")):
        return
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=CACHE_DIR, prefix=".tmp-")
    shutil.move(prepped, os.path.join(tmp, "prepped"))
    with open(os.path.join(tmp, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(sizes, f)
    try:
        os.rename(tmp, entry)
    except OSError:  # stored meanwhile by another run
        shutil.rmtree(tmp, ignore_errors=True)
    entries = sorted((e for e in os.scandir(CACHE_DIR)
                      if e.is_dir() and not e.name.startswith(".")),
                     key=lambda e: e.stat().st_mtime)
    for e in entries[:max(0, len(entries) - CACHE_ENTRIES)]:
        shutil.rmtree(e.path, ignore_errors=True)


def check_recorded_digests(key: str, workload: str, found: dict[str, str],
                           rep: checker.Report) -> None:
    """Result digests must match those of earlier runs of this source and seed."""
    path = os.path.join(CACHE_DIR, f"digests-{key}-{workload}.json")
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            before = json.load(f)
        if before != found:
            differ = sorted(k for k in set(before) | set(found) if before.get(k) != found.get(k))
            rep.fail("determinism", f"result files differ from an earlier run: {differ}")
        return
    os.makedirs(CACHE_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(found, f, indent=1)


# -- one run -----------------------------------------------------------------------

def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _check_iteration(workload: str, it_dir: str, res: dict | None, cmds: list[list[str]],
                     expect: dict, instance: checker.Instance | None) -> checker.Report:
    rep = checker.Report()
    codes = res["codes"] if res is not None else []
    for i, argv in enumerate(cmds):
        op = f"cli:{argv[0]}"
        rep.op(op)
        code = codes[i] if i < len(codes) else None
        if code != 0:
            rep.fail(op, f"exit code {code}")
    if rep.failed:
        return rep
    try:
        if workload == "ingest":
            checker.check_ingest(os.path.join(it_dir, "raw"), os.path.join(it_dir, "prepped"),
                                 expect["n_sites"], expect["n_municipalities"], BUFFER_M, rep)
        elif workload == "grid":
            checker.check_grid(instance, os.path.join(it_dir, "grid"), SCALE, rep)
        else:
            checker.check_front(os.path.join(it_dir, "front"), FRONT_STEPS, FRONT_FACTOR, rep)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        rep.fail("check", f"unreadable output: {type(e).__name__}: {e}")
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Measure one workload; returns the record and the contract's result."""
    t_run = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "windplan", "cli.py")):
        raise RunError(f"no windplan sources under {SRC}")
    spec = SMOKE_SPEC if smoke else "germany-like"
    if smoke:
        with open(SMOKE_SPEC, encoding="utf-8") as f:
            doc = json.load(f)
        expect = {"n_sites": doc["n_sites"], "n_municipalities": doc["n_municipalities"]}
    else:
        expect = dict(GERMANY_LIKE)
    env = environment(seed, "smoke" if smoke else "germany-like")
    key = hashlib.sha256(f"{env['source_sha256']}|{env['spec']}|{seed}".encode()).hexdigest()[:20]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR, prefix=f"{workload}-")
    try:
        runner = Runner(work, t_run + RUN_LIMIT_S)
        setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
        instance_dir, instance, sizes = None, None, {}
        if workload != "ingest":
            instance_dir, sizes = prepared_instance(runner, spec, seed, key)
            if workload == "grid":
                instance = checker.Instance(instance_dir)
        cmds = commands(workload, spec, seed, instance_dir)

        def iteration(k: int, traced: bool) -> tuple[dict | None, checker.Report, dict]:
            it_dir = os.path.join(work, f"it{k}")
            os.makedirs(it_dir)
            res = runner.run(it_dir, cmds, traced)
            rep = _check_iteration(workload, it_dir, res, cmds, expect, instance)
            found = {}
            if not rep.failed:
                found = checker.digests({d: os.path.join(it_dir, d)
                                         for d in OUTPUT_DIRS[workload]})
                if workload == "ingest":
                    sizes.update(rep.sizes)
                    store_instance(os.path.join(it_dir, "prepped"), key, dict(rep.sizes))
            shutil.rmtree(it_dir, ignore_errors=True)
            return res, rep, found

        iterations = []
        baseline = iteration(0, False) if trace else None
        deadline = time.monotonic() + seconds
        while True:
            iterations.append(iteration(len(iterations) + 1, trace))
            if time.monotonic() >= deadline:
                break
        runs = [r for r, _, _ in iterations if r is not None]
        reports = [rep for _, rep, _ in iterations] + ([baseline[1]] if baseline else [])
        digests = iterations[0][2]
        for _, rep, found in iterations[1:] + ([baseline] if baseline else []):
            if found and digests and found != digests:
                rep.fail("determinism", "result files differ between iterations")
        if digests:
            check_recorded_digests(key, workload, digests, reports[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in reports)
    failed = sum(r.failed for r in reports)
    first = reports[0]
    samples = {
        "setup_s": setups + [r["setup_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
    }
    record = {
        "workload": workload, "trace": int(trace), "smoke": smoke,
        "environment": env, "instance": sizes,
        "samples": samples,
        "summary": {k: _quartiles(v) for k, v in samples.items() if v},
        "iterations": len(iterations),
        "exit_codes": [r["codes"] for r in runs],
        "digests": digests,
        "gaps": first.gaps,
        "max_gap": max(first.gaps) if first.gaps else None,
        "mean_gap": statistics.fmean(first.gaps) if first.gaps else None,
        "malformed_floats": first.malformed_floats,
        "violations": [v for r in reports for v in r.violations][:50],
        "run_s": time.monotonic() - t_run,
    }
    metrics: dict[str, dict] = {}
    if not trace and runs:
        values = {"setup_s": statistics.median(samples["setup_s"]),
                  "wall_s": statistics.median(samples["wall_s"]),
                  "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
                  "ok_ratio": (attempted - failed) / attempted}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    elif trace and runs and baseline and baseline[0] is not None:
        layers = [layer_metrics(r, baseline[0], first) for r in runs]
        absent = sorted(set().union(*(r.get("absent", []) for r in runs)))
        record["absent"] = absent
        record["hook_errors"] = sorted(set().union(*(r.get("hook_errors", []) for r in runs)))
        record["spans"] = runs[0].get("spans")
        for name, unit, _ in spans.PER_LAYER:
            vals = [m[name] for m in layers if name in m]
            if vals:
                metrics[name] = {"value": statistics.median(vals), "unit": unit}
        if absent:
            print(f"absent from the program, metrics left out: {absent}", file=sys.stderr)
    result = {"correct": bool(runs) and failed == 0, "attempted": max(attempted, 1),
              "failed": failed if runs else max(attempted, 1), "metrics": metrics}
    return {"record": record, "result": result}


def layer_metrics(traced: dict, baseline: dict, rep: checker.Report) -> dict[str, float]:
    """Per-layer metric values of one traced iteration."""
    m = dict(traced["layers"])
    m["runio.malformed_floats"] = rep.malformed_floats
    m["result.max_gap"] = max(rep.gaps, default=0.0)
    m["result.mean_gap"] = statistics.fmean(rep.gaps) if rep.gaps else 0.0
    m["process.cpu_s"] = traced["process_cpu_s"]
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - baseline["wall_s"]
    m["trace.unaccounted_s"] = traced["wall_s"] - m.pop("trace.self_total_s")
    return m


def _write_record(record: dict, seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (f"{record['workload']}-seed{seed}-trace{record['trace']}"
            f"{'-smoke' if record['smoke'] else ''}-{stamp}-{os.getpid()}.json")
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    return path


def _print_summary(record: dict, result: dict) -> None:
    for name, s in record["summary"].items():
        print(f"{record['workload']} {name}: median {s['median']:.4f} "
              f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} n={s['n']}")
    if record["max_gap"] is not None:
        print(f"{record['workload']} gaps: max {record['max_gap']:.6g} "
              f"mean {record['mean_gap']:.6g} over {len(record['gaps'])}")
    print(f"{record['workload']} malformed floats: {record['malformed_floats']}; "
          f"{result['failed']} of {result['attempted']} operations failed")
    for v in record["violations"][:10]:
        print(f"  violation: {v}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once on the tiny spec in smoke_spec.json")
    ap.add_argument("--self-test", action="store_true",
                    help="check that the checker catches planted faults")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            import selftest
            return selftest.main()
        if args.smoke:
            ok = True
            for w in WORKLOADS:
                out = run_workload(w, args.seed, 0.0, bool(args.trace), smoke=True)
                _print_summary(out["record"], out["result"])
                print(json.dumps({"workload": w, **out["result"]}))
                ok = ok and out["result"]["correct"]
            return 0 if ok else 1
        if args.workload is None:
            ap.error("--workload is required")
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    record, result = out["record"], out["result"]
    record["record_file"] = os.path.relpath(_write_record(record, args.seed), ROOT)
    _print_summary(record, result)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
