import ast
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import windplan
from windplan.cli import main
from windplan.domain import file_sha256, read_instance

SPEC = {"seed": 404, "n_sites": 250, "n_municipalities": 12, "n_states": 3,
        "n_transformers": 6, "n_existing": 5}


@pytest.fixture(scope="module")
def prepped(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    raw = root / "raw"
    assert main(["synth", "--spec", str(spec_path), "--out", str(raw)]) == 0
    prep = root / "prep"
    assert main(["prep", "--instance", str(raw), "--out", str(prep)]) == 0
    return root, prep


def _scenario_file(root, total_mw, equity=False):
    path = root / f"scenario_{int(total_mw)}_{equity}.json"
    path.write_text(json.dumps({"name": "t", "w_c": 1.0, "w_s": 0.0, "w_l": 0.0,
                                "equity": equity, "total_capacity_mw": total_mw}))
    return path


def _assert_numeric_fields(path, text_columns=()):
    """Every field outside `text_columns` parses as a plain float."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert rows
    for row in rows:
        for column, value in row.items():
            if column not in text_columns:
                float(value)


def test_cli_import_loads_no_scipy():
    # every `plan` process pays for what importing the CLI loads
    src = os.path.dirname(os.path.dirname(windplan.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, windplan.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"


class _WriterCalls(ast.NodeVisitor):
    """(call, enclosing function) of every json.dump and csv.writer call."""

    def __init__(self):
        self.functions = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and (f.value.id, f.attr) in {("json", "dump"), ("csv", "writer")}):
            self.found.append((f"{f.value.id}.{f.attr}", self.functions[-1]))
        self.generic_visit(node)


def test_result_files_have_one_writer_each():
    # one CSV dialect and one JSON layout: every file goes through the helpers
    package = os.path.dirname(windplan.__file__)
    calls = _WriterCalls()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                calls.visit(ast.parse(f.read(), name))
    assert sorted(calls.found) == [("csv.writer", "write_csv"), ("json.dump", "write_json")]


def test_synth_and_prep_outputs(prepped):
    root, prep = prepped
    for name in ("candidates.csv", "municipalities.csv", "existing.csv",
                 "transformers.csv", "exclusion_report.json", "run_manifest.json"):
        assert (prep / name).exists()
    report = json.loads((prep / "exclusion_report.json").read_text())
    assert report["excluded_count"] >= 0


@pytest.mark.parametrize("buffer_m", ["0", "-5", "nan", "inf"])
def test_prep_bad_buffer_is_validation_error(prepped, tmp_path, capsys, buffer_m):
    root, _ = prepped
    code = main(["prep", "--instance", str(root / "raw"), f"--buffer-m={buffer_m}",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "buffer diameter must be a positive finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scale_writes_into_new_directory(prepped, tmp_path):
    root, prep = prepped
    out = tmp_path / "new_dir" / "h.csv"
    assert main(["scale", "--instance", str(prep), "--out", str(out), "--bins", "4"]) == 0
    assert out.read_text().startswith("criterion,bin_left,bin_right,count,mean")
    assert (out.parent / "run_manifest.json").exists()


def test_solve_writes_outputs(prepped):
    root, prep = prepped
    scenario = _scenario_file(root, 120.0)
    out = root / "solve"
    assert main(["solve", "--instance", str(prep), "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    for name in ("selection.csv", "selection.geojson", "summary.json",
                 "run_manifest.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["totals"]["capacity_mw"] > 0
    assert summary["gap"] >= 0.0
    geo = json.loads((out / "selection.geojson").read_text())
    assert geo["type"] == "FeatureCollection"
    assert len(geo["features"]) == summary["n_sites"]


def test_solve_is_deterministic_byte_identical(prepped):
    root, prep = prepped
    scenario = _scenario_file(root, 130.0, equity=True)
    out1, out2 = root / "det1", root / "det2"
    for out in (out1, out2):
        assert main(["solve", "--instance", str(prep), "--scenario", str(scenario),
                     "--out", str(out)]) == 0
    for name in ("selection.csv", "selection.geojson", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_writes_front(prepped):
    root, prep = prepped
    out = root / "sweep"
    assert main(["sweep", "--instance", str(prep), "--optimize", "lcoe",
                 "--sweep", "scenicness", "--steps", "4",
                 "--total-capacity-mw", "120", "--out", str(out)]) == 0
    lines = (out / "front.csv").read_text().splitlines()
    assert lines[0] == "step,cap,achieved_min,gap"
    assert 2 <= len(lines) <= 5
    _assert_numeric_fields(out / "front.csv")


def test_sweep_reports_why_it_stopped(tmp_path, capsys):
    # 50 sites after exclusion; the heuristic misses the step-1 cap 31.4394,
    # which the lower bound 30.869855 does not rule out
    spec = {"seed": 10, "n_sites": 52, "n_municipalities": 3, "n_states": 2,
            "n_transformers": 3, "n_existing": 2, "rho_lcoe_scenicness": 0.0}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    raw, prep = tmp_path / "raw", tmp_path / "prep"
    assert main(["synth", "--spec", str(spec_path), "--out", str(raw)]) == 0
    assert main(["prep", "--instance", str(raw), "--out", str(prep)]) == 0
    existing = sum(read_instance(str(prep)).municipalities.existing_capacity.tolist())
    args = ["sweep", "--instance", str(prep), "--optimize", "lcoe", "--sweep", "scenicness",
            "--total-capacity-mw", repr(57.03099829779829 + existing)]
    capsys.readouterr()
    assert main(args + ["--steps", "3", "--factor", repr(31.439414949797282 / 69.38336043787855),
                        "--out", str(tmp_path / "miss")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "front with 1 points (stopped at the cap 31.4394: no selection found, and the "
        "lower bound 30.8699 does not rule the cap out)")
    manifest = json.loads((tmp_path / "miss" / "run_manifest.json").read_text())
    stop = manifest["config"]["stop"]
    assert stop["reason"] == "unproven_miss" and f"{stop['bound']:.6f}" == "30.869855"
    assert stop["cap"] == pytest.approx(31.439414949797282, rel=1e-12)
    assert manifest["stats"]["points"] == [{"step": 0, "heuristic_runs": 1, "lambda": {}}]
    # a cap below the bound is a proven limit; two steps that solve are complete
    assert main(args + ["--steps", "3", "--factor", "0.4", "--out", str(tmp_path / "lim")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "front with 1 points (truncated at feasibility limit: the cap 27.7533 is below the "
        "minimum, which is at least 30.8699)")
    stop = json.loads((tmp_path / "lim" / "run_manifest.json").read_text())["config"]["stop"]
    assert stop["reason"] == "proven_limit" and stop["bound"] > stop["cap"]
    assert main(args + ["--steps", "2", "--factor", "0.95", "--out", str(tmp_path / "ok")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "front with 2 points"
    manifest = json.loads((tmp_path / "ok" / "run_manifest.json").read_text())
    assert manifest["config"]["stop"] == {"reason": "complete", "cap": None, "bound": None}
    point = manifest["stats"]["points"][1]
    assert point["step"] == 1 and 1 <= point["heuristic_runs"] <= 15
    assert set(point["lambda"]) == {"scenicness"}


GRID = [
    {"name": "a", "w_c": 1.0, "w_s": 0.0, "w_l": 0.0, "equity": False,
     "total_capacity_mw": 120.0},
    {"name": "b", "w_c": 0.0, "w_s": 1.0, "w_l": 0.0, "equity": True,
     "total_capacity_mw": 120.0},
]


def test_scenarios_grid(prepped):
    root, prep = prepped
    grid_path = root / "grid.json"
    grid_path.write_text(json.dumps(GRID))
    out = root / "grid_out"
    assert main(["scenarios", "--instance", str(prep), "--grid", str(grid_path),
                 "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3
    _assert_numeric_fields(out / "results.csv", text_columns=("name", "error"))
    assert (out / "selection_a.geojson").exists()
    assert (out / "selection_b.geojson").exists()
    assert (out / "radar.csv").exists()
    # the manifest holds the solver stats of each scenario, by name
    stats = json.loads((out / "run_manifest.json").read_text())["stats"]
    assert sorted(stats) == ["a", "b"]
    assert all(set(s) == {"heuristic_runs", "lambda"} for s in stats.values()), stats


def test_scenarios_failed_rows(prepped, tmp_path, capsys):
    # the unprepped instance has no network lengths, so every solve fails in-row
    root, _ = prepped
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(GRID))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["scenarios", "--instance", str(root / "raw"), "--grid", str(grid_path),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "ran 2 scenarios, failures: ['a', 'b']\n"
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "run_manifest.json"]
    failed = (",109.39482580986999,0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,"
              "site 1 has no network_length; run prep first")
    assert (out / "results.csv").read_text().splitlines() == [
        "name,w_c,w_s,w_l,equity,total_capacity_mw,added_target_mw,n_sites,mean_lcoe,"
        "mean_scenicness,mean_network_length_km,equity_pct,south_quota_pct,objective,"
        "lower_bound,gap,error",
        "a,1.0,0.0,0.0,0,120.0" + failed,
        "b,0.0,1.0,0.0,1,120.0" + failed]
    assert json.loads((out / "run_manifest.json").read_text())["stats"] == {}


def test_metrics_command(prepped):
    root, prep = prepped
    scenario = _scenario_file(root, 120.0)
    sol = root / "for_metrics"
    assert main(["solve", "--instance", str(prep), "--scenario", str(scenario),
                 "--out", str(sol)]) == 0
    out_path = root / "metrics.json"
    assert main(["metrics", "--selection", str(sol / "selection.csv"),
                 "--instance", str(prep), "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert 0.0 <= doc["regional_equity_pct"] <= 100.0
    assert "per_state" in doc


def test_metrics_writes_into_new_directory(prepped, tmp_path):
    root, prep = prepped
    selection = tmp_path / "selection.csv"
    selection.write_text("site_id\n")
    out = tmp_path / "new_dir" / "m.json"
    assert main(["metrics", "--selection", str(selection), "--instance", str(prep),
                 "--out", str(out)]) == 0
    assert "regional_equity_pct" in json.loads(out.read_text())
    assert (out.parent / "run_manifest.json").exists()


@pytest.mark.parametrize("rows, message", [
    (["municipality_id", "1"], "missing column 'site_id'"),
    (["site_id", "1", "x7"], "line 3: site_id 'x7' is not an integer"),
    (["site_id", "1", "2", "1"], "line 4: duplicate site_id 1 (first on line 2)"),
    (["site_id", "999999"], "unknown site ids [999999]"),
    (["site_id", "1", "\udcff"], ": not UTF-8 text: invalid start byte b'\\xff'"),
    (["site_id", "1" * (csv.field_size_limit() + 1)], "line 2: field larger than field limit"),
])
def test_metrics_malformed_selection_is_validation_error(prepped, tmp_path, capsys,
                                                         rows, message):
    root, prep = prepped
    path = tmp_path / "selection.csv"
    # a lone surrogate stands for the byte it escapes
    path.write_bytes(("\n".join(rows) + "\n").encode("utf-8", "surrogateescape"))
    code = main(["metrics", "--selection", str(path), "--instance", str(prep),
                 "--out", str(tmp_path / "m.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    if "unknown" not in message:
        assert str(path) in err


def test_exit_code_infeasible(prepped):
    root, prep = prepped
    scenario = _scenario_file(root, 1e9)
    out = root / "infeasible"
    code = main(["solve", "--instance", str(prep), "--scenario", str(scenario),
                 "--out", str(out)])
    assert code == 2


def test_exit_code_validation(prepped, tmp_path):
    root, prep = prepped
    # corrupt a copy of the instance
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in os.listdir(prep):
        if name.endswith(".csv"):
            (bad / name).write_bytes((prep / name).read_bytes())
    path = bad / "candidates.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[6] = "99.0"  # scenicness outside [1, 9]
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    scenario = _scenario_file(root, 120.0)
    code = main(["solve", "--instance", str(bad), "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")])
    assert code == 1


def _stale_copy(src, dst, column, edit):
    """Copy of a whole instance directory, candidates.npz included, whose
    candidates.csv then has the field of `column` in its first row replaced
    by edit(field), every other byte kept; the site id and the new field."""
    shutil.copytree(src, dst)
    path = dst / "candidates.csv"
    data = path.read_bytes()
    start = data.index(b"\r\n") + 2
    end = data.index(b"\r\n", start)
    fields = data[start:end].split(b",")
    k = data[:start].decode().rstrip().split(",").index(column)
    fields[k] = edit(fields[k])
    path.write_bytes(data[:start] + b",".join(fields) + data[end:])
    return int(fields[0]), fields[k].decode()


def test_stale_column_file_gives_way_to_edited_csv(prepped, tmp_path):
    _, prep = prepped
    copy = tmp_path / "copy"
    # the last digit of a capacity changed in place: same size, same mtime
    site, text = _stale_copy(prep, copy, "capacity_mw",
                             lambda f: f[:-1] + (b"2" if f.endswith(b"1") else b"1"))
    original = prep / "candidates.csv"
    os.utime(copy / "candidates.csv", ns=(original.stat().st_atime_ns,
                                         original.stat().st_mtime_ns))
    assert (copy / "candidates.csv").stat().st_size == original.stat().st_size
    assert (copy / "candidates.npz").read_bytes() == (prep / "candidates.npz").read_bytes()
    sites = read_instance(str(copy)).sites
    before = read_instance(str(prep)).sites
    row = sites.rows([site])[0]
    assert sites.caps[row] == float(text) != before.caps[row]
    assert sites.caps[:row].tolist() + sites.caps[row + 1:].tolist() == \
        before.caps[:row].tolist() + before.caps[row + 1:].tolist()


def test_stale_column_file_does_not_hide_invalid_csv(prepped, tmp_path):
    # as test_exit_code_validation, with the column file copied beside the CSV
    root, prep = prepped
    _stale_copy(prep, tmp_path / "bad", "scenicness", lambda f: b"99.0")
    scenario = _scenario_file(root, 120.0)
    code = main(["solve", "--instance", str(tmp_path / "bad"), "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")])
    assert code == 1


def _corrupted_copy(src, dst, column, value):
    """Copy of an instance directory with one candidate field replaced; the
    site id of the changed row."""
    dst.mkdir()
    for name in os.listdir(src):
        if name.endswith(".csv"):
            (dst / name).write_bytes((src / name).read_bytes())
    path = dst / "candidates.csv"
    lines = path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[lines[0].split(",").index(column)] = value
    lines[3] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    return int(parts[0])


def test_prep_infinite_capacity_is_validation_error(prepped, tmp_path, capsys):
    root, _ = prepped
    site = _corrupted_copy(root / "raw", tmp_path / "raw", "capacity_mw", "inf")
    code = main(["prep", "--instance", str(tmp_path / "raw"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"site {site}: capacity inf is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_nan_lcoe_is_validation_error(prepped, tmp_path, capsys):
    root, prep = prepped
    site = _corrupted_copy(prep, tmp_path / "prep", "lcoe_ct_kwh", "nan")
    code = main(["solve", "--instance", str(tmp_path / "prep"),
                 "--scenario", str(_scenario_file(root, 120.0)), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"site {site}: lcoe nan is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_io(prepped, tmp_path):
    root, prep = prepped
    code = main(["metrics", "--selection", str(tmp_path / "nope.csv"),
                 "--instance", str(prep), "--out", str(tmp_path / "m.json")])
    assert code == 3


@pytest.mark.parametrize("name", ["municipalities.csv", "candidates.csv"])
def test_missing_instance_file_is_io_error(prepped, tmp_path, capsys, name):
    # a missing instance CSV exits as a missing selection or scenario file does
    _, prep = prepped
    copy = tmp_path / "copy"
    shutil.copytree(prep, copy)
    (copy / name).unlink()
    code = main(["scale", "--instance", str(copy), "--out", str(tmp_path / "h.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(copy / name) in err
    assert not (tmp_path / "h.csv").exists()


def test_manifest_takes_the_digest_read_instance_computed(prepped, tmp_path, monkeypatch):
    # candidates.csv is hashed once per command, and the manifest records
    # the sha256 of every input's bytes
    _, prep = prepped
    hashed = []

    def counting(path):
        hashed.append(os.path.basename(path))
        return file_sha256(path)

    monkeypatch.setattr(windplan.domain, "file_sha256", counting)
    monkeypatch.setattr(windplan.runio, "file_sha256", counting)
    out = tmp_path / "h.csv"
    assert main(["scale", "--instance", str(prep), "--out", str(out), "--bins", "4"]) == 0
    assert hashed.count("candidates.csv") == 1
    inputs = json.loads((tmp_path / "run_manifest.json").read_text())["inputs"]
    assert inputs == {name: hashlib.sha256((prep / name).read_bytes()).hexdigest()
                      for name in ("candidates.csv", "existing.csv", "municipalities.csv",
                                   "transformers.csv")}


def test_exit_code_usage():
    assert main(["solve", "--no-such-flag"]) == 1


def _solve_exit(prep, tmp_path, scenario_text, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(scenario_text)
    code = main(["solve", "--instance", str(prep), "--scenario", str(path),
                 "--out", str(tmp_path / "out")])
    return code, path, capsys.readouterr().err


def test_scenario_missing_weight_is_validation_error(prepped, tmp_path, capsys):
    root, prep = prepped
    text = json.dumps({"name": "t", "w_c": 1.0, "w_l": 0.0, "equity": False,
                       "total_capacity_mw": 120.0})
    code, path, err = _solve_exit(prep, tmp_path, text, capsys)
    assert code == 1
    assert str(path) in err and "'w_s'" in err


def test_scenario_invalid_json_is_validation_error(prepped, tmp_path, capsys):
    root, prep = prepped
    code, path, err = _solve_exit(prep, tmp_path, '{"name": "t", "w_c": 1.0,', capsys)
    assert code == 1
    assert str(path) in err and "invalid JSON" in err


def test_grid_non_numeric_weight_is_validation_error(prepped, tmp_path, capsys):
    root, prep = prepped
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([
        {"name": "a", "w_c": "abc", "w_s": 0.0, "w_l": 0.0, "equity": False,
         "total_capacity_mw": 120.0}]))
    code = main(["scenarios", "--instance", str(prep), "--grid", str(grid_path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(grid_path) in err and "'w_c'" in err and "'abc'" in err


_SCENARIO = {"name": "t", "w_c": 1.0, "w_s": 0.0, "w_l": 0.0, "equity": False,
             "total_capacity_mw": 120.0}
_SPEC_FILE = ["synth", "--spec", "{tmp}/in.json", "--out", "{tmp}/out"]
_SOLVE = ["solve", "--instance", "{prep}", "--scenario", "{tmp}/in.json", "--out", "{tmp}/out"]
_SWEEP = ["sweep", "--instance", "{prep}", "--optimize", "lcoe", "--sweep", "scenicness",
          "--total-capacity-mw", "120", "--out", "{tmp}/out"]
_SCALE = ["scale", "--instance", "{prep}", "--out", "{tmp}/out/h.csv"]


@pytest.mark.parametrize("argv, text, message", [
    pytest.param(_SPEC_FILE, "[1, 2]", "synth spec: expected a JSON object, got list",
                 id="synth-list"),
    pytest.param(_SPEC_FILE, "{oops", "invalid JSON", id="synth-bad-json"),
    pytest.param(_SPEC_FILE, '{"n_sites": "abc"}', "field 'n_sites' is not an integer: 'abc'",
                 id="synth-string-int"),
    pytest.param(_SPEC_FILE, '{"n_sites": null}', "field 'n_sites' is not an integer: None",
                 id="synth-null-int"),
    pytest.param(_SPEC_FILE, '{"seed": 1.5}', "field 'seed' is not an integer: 1.5",
                 id="synth-float-seed"),
    pytest.param(_SPEC_FILE, '{"n_sites": 10.5}', "field 'n_sites' is not an integer: 10.5",
                 id="synth-float-int"),
    pytest.param(_SPEC_FILE, '{"capacity_min_mw": "2"}',
                 "field 'capacity_min_mw' is not a finite number: '2'", id="synth-string-float"),
    pytest.param(_SOLVE + ["--scale", "nan"], json.dumps(_SCENARIO),
                 "cap_obj nan is not a finite number >= 0", id="solve-nan-scale"),
    pytest.param(_SOLVE, json.dumps({**_SCENARIO, "equity": "false"}),
                 "field 'equity' is not a boolean: 'false'", id="solve-string-equity"),
    pytest.param(_SOLVE, json.dumps({**_SCENARIO, "w_c": True}),
                 "field 'w_c' is not a number: True", id="solve-boolean-weight"),
    pytest.param(["scenarios", "--instance", "{prep}", "--grid", "{tmp}/in.json",
                  "--scale", "0.01", "--out", "{tmp}/out"],
                 json.dumps([{**_SCENARIO, "name": "a", "equity": "false"},
                             {**_SCENARIO, "name": "b"}]),
                 "row 0: field 'equity' is not a boolean: 'false'",
                 id="scenarios-string-equity"),
    pytest.param(_SOLVE, '{"name": "t", "w_c": 1.0, "w_s": 0.0, "w_l": 0.0, "equity": false, '
                 '"total_capacity_mw": 1' + "0" * 400 + "}",
                 "field 'total_capacity_mw' is not a finite number: 1000", id="solve-huge-target"),
    pytest.param(_SPEC_FILE, '{"n_sites": 1' + "0" * 400 + "}",
                 "field 'n_sites' is not an integer within int64: 1000", id="synth-huge-int"),
    pytest.param(_SPEC_FILE, '{"capacity_max_mw": 1' + "0" * 400 + "}",
                 "field 'capacity_max_mw' is not a finite number: 1000", id="synth-huge-float"),
    pytest.param(_SPEC_FILE, '{"n_sites": 9223372036854775808}',
                 "field 'n_sites' is not an integer within int64: 9223372036854775808",
                 id="synth-int64-plus-one"),
    pytest.param(_SOLVE, json.dumps({**_SCENARIO, "w_s": float("inf")}),
                 "field 'w_s' is not a finite number: inf", id="solve-infinite-weight"),
    *[pytest.param(["scenarios", "--instance", "{prep}", "--grid", "{tmp}/in.json",
                    "--scale", "0.01", "--out", "{tmp}/out"],
                   json.dumps([{**_SCENARIO, "name": "ok"}, {**_SCENARIO, "name": name}]),
                   f"row 1: field 'name' is not usable in the file name "
                   f"selection_<name>.geojson: {name!r}", id=f"scenarios-name-{case}")
      for case, name in [("empty", ""), ("dot", "."), ("dotdot", ".."), ("slash", "a/b"),
                         ("nul", "a\0b"), ("long", "x" * 238), ("surrogate", "\ud800")]],
    pytest.param(_SOLVE, json.dumps({**_SCENARIO, "name": "a/b"}),
                 "field 'name' is not usable in the file name", id="solve-name-slash"),
    pytest.param(_SWEEP + ["--factor", "nan"], None, "step factor nan outside (0, 1)",
                 id="sweep-nan-factor"),
    pytest.param(_SWEEP + ["--factor", "1.5"], None, "step factor 1.5 outside (0, 1)",
                 id="sweep-factor-above-1"),
    pytest.param(_SCALE + ["--bins", "-2"], None, "-2 is not in the range x>=1",
                 id="scale-negative-bins"),
    pytest.param(_SCALE + ["--bins", "0"], None, "0 is not in the range x>=1",
                 id="scale-zero-bins"),
])
def test_bad_input_is_one_line_validation_error(prepped, tmp_path, capsys, argv, text,
                                                message):
    root, prep = prepped
    if text is not None:
        (tmp_path / "in.json").write_text(text)
    capsys.readouterr()
    code = main([a.format(prep=prep, tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# sha256 of every file the pipeline below writes, except run_manifest.json
# (timings); a change to any result byte shows here
GOLDEN = {
    "raw/candidates.csv":
        "7f9288aaad0df1d1b9b7c9f5f63cfb69c6bd90f40b1fac9f0206f1f06fd02e96",
    "raw/candidates.npz":
        "ff495c6163e3f469eacfd293cabaff8b0d6cc63d1159c7b76ad01afe15b57b26",
    "raw/existing.csv":
        "f52d853137e690794a5239cabf2dd27a5de3b01802d04544f65f9d2ef86c598f",
    "raw/existing.npz":
        "ffce3ed3501df78302d536c167be8ff5f73fd334fefcc603b42261d2094b9e16",
    "raw/municipalities.csv":
        "101920d5588ad6bb1fdd7f8ba03f401f2057ac005073346ef132ea30df414400",
    "raw/municipalities.npz":
        "75f0b6923330813f4404d8bda67803116cd8a8a5bd20b0273bc2cb672321293c",
    "raw/transformers.csv":
        "73fb536b3616362335f84e645d6c5b09ae31928a0194eaf6b22a346d5b17ac08",
    "raw/transformers.npz":
        "858950a7cd82e7bacc3d797adc8784597e1a4527e44ed7f41278f66fee69c9fe",
    "prep/candidates.csv":
        "64366616bbb596403e77f24170a49d8408c0e49699f88c231466b524a2e79c11",
    "prep/candidates.npz":
        "e291ed0080afa6c92a786772646e22a6acf827b04fa5f5eda46227c2af676312",
    "prep/exclusion_report.json":
        "02b8ff39fc304a1127194d3de04090cadc968bc9eceb9b8ed3c7ed700f026eb0",
    "prep/existing.csv":
        "f52d853137e690794a5239cabf2dd27a5de3b01802d04544f65f9d2ef86c598f",
    "prep/existing.npz":
        "ffce3ed3501df78302d536c167be8ff5f73fd334fefcc603b42261d2094b9e16",
    "prep/municipalities.csv":
        "101920d5588ad6bb1fdd7f8ba03f401f2057ac005073346ef132ea30df414400",
    "prep/municipalities.npz":
        "75f0b6923330813f4404d8bda67803116cd8a8a5bd20b0273bc2cb672321293c",
    "prep/transformers.csv":
        "73fb536b3616362335f84e645d6c5b09ae31928a0194eaf6b22a346d5b17ac08",
    "prep/transformers.npz":
        "858950a7cd82e7bacc3d797adc8784597e1a4527e44ed7f41278f66fee69c9fe",
    "grid/radar.csv":
        "16de00e903186ff8d6f38b6703692e016dd88da42e8584ab585d4efd1acbea06",
    "grid/results.csv":
        "88cf66fe2c863484b5ec659844307ab403a123b9565f3ef52bfb230a8d738cb2",
    "grid/selection_Base_LCOE.geojson":
        "4ab715b50f9cfb9d7acc06b01e3e57149a8cf6ad7adbaeff119a018cfe872471",
    "grid/selection_Base_LCOE_E.geojson":
        "8e4087b1fa8224a7e2eff024b4ee5a0ac11bf4037fbc43ff2d781f3a33dead80",
    "grid/selection_Base_Network.geojson":
        "b0ad5df88f7b5c2cc7c55540993f2ded97cae723f1e38c13d56d5bf24b0e60ee",
    "grid/selection_Base_Network_E.geojson":
        "4b059231d952f15e2eee361a30c4ef193c9971d83ab3187f9dcb717082cda77e",
    "grid/selection_Base_Scenic.geojson":
        "94d0533fe9cc3b866e9a5e6cab7a2595463bee236716937683774273d22dd397",
    "grid/selection_Base_Scenic_E.geojson":
        "903e0fd1fb827ebf587ac6c4c1d5257114336a860321ff7538fb5bfc9bb4a70a",
    "grid/selection_Base_all.geojson":
        "676d96e3d19ea00e0b56faa00adeea04b677a3e33119239473d9adc1f03538bf",
    "grid/selection_Base_all_E.geojson":
        "36757e780ce6d969dbf8beb29ef1b90344e73364f00ec220fdaa20e8a3955e77",
    "grid/selection_High_LCOE.geojson":
        "125c00d8d15ef3df908644dab125eceb332315b0dda5fb13d3c987eff089d509",
    "grid/selection_High_LCOE_E.geojson":
        "79c7d46eba49d132d40fcacface8fe0ad85126c5ff1551a9a60277de4f570c45",
    "grid/selection_High_Network.geojson":
        "970c110c9b6839457dd81b5d5267c7fcfeb334aba4b1222fe4f6f0c742d9e062",
    "grid/selection_High_Network_E.geojson":
        "53ffb54c4a714b1140a74473a293fecba8a987435bfb85e9e1146a17db15cc6b",
    "grid/selection_High_Scenic.geojson":
        "72ad41856cab2ebe31b99ad1257e8da35b9934c016e18363c0d47e0e5dfefcf0",
    "grid/selection_High_Scenic_E.geojson":
        "b7ba062e44590326706425a558851e8f67d9979c37884a4585f2e95ceb128235",
    "solve/selection.csv":
        "5be89d940cb73d67ff98adcea04c548bf082452616fca57b8306e4869dde7310",
    "solve/selection.geojson":
        "93cdc5976c4120c6be4f4b7964a08c97c3cd5cc343a9232ac19ef7114ac05912",
    "solve/summary.json":
        "ff744011e3dd34c1e670036ecfd67ce151202ae00da8449f1209e4fb248453ac",
    "sweep/front.csv":
        "6c6f31a25055fe3fe6b988ac3e44fef77625fc84d7f07b5b67e2a5e6c1b140c5",
    "metrics/metrics.json":
        "82a328bc8a2af457800d34f0f83d147aae532b239c1e869703eeab02769164a3",
}


def test_pipeline_bytes_match_golden_digests(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"name": "t", "w_c": 1.0, "w_s": 1.0, "w_l": 1.0,
                                    "equity": True, "total_capacity_mw": 130.0}))
    raw, prep = tmp_path / "raw", tmp_path / "prep"
    assert main(["synth", "--spec", str(spec_path), "--out", str(raw)]) == 0
    assert main(["prep", "--instance", str(raw), "--out", str(prep)]) == 0
    assert main(["scenarios", "--instance", str(prep), "--grid", "builtin",
                 "--scale", "0.003", "--out", str(tmp_path / "grid")]) == 0
    assert main(["solve", "--instance", str(prep), "--scenario", str(scenario),
                 "--out", str(tmp_path / "solve")]) == 0
    assert main(["sweep", "--instance", str(prep), "--optimize", "lcoe", "--sweep",
                 "scenicness", "--steps", "4", "--total-capacity-mw", "130",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert main(["metrics", "--selection", str(tmp_path / "solve" / "selection.csv"),
                 "--instance", str(prep),
                 "--out", str(tmp_path / "metrics" / "metrics.json")]) == 0
    digests = {f"{step}/{name}": hashlib.sha256((tmp_path / step / name).read_bytes())
               .hexdigest()
               for step in ("raw", "prep", "grid", "solve", "sweep", "metrics")
               for name in sorted(os.listdir(tmp_path / step))
               if name != "run_manifest.json"}
    assert digests == GOLDEN
