import csv
import json
import os

import pytest

from windplan.cli import main

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


def test_scenarios_grid(prepped):
    root, prep = prepped
    grid = [
        {"name": "a", "w_c": 1.0, "w_s": 0.0, "w_l": 0.0, "equity": False,
         "total_capacity_mw": 120.0},
        {"name": "b", "w_c": 0.0, "w_s": 1.0, "w_l": 0.0, "equity": True,
         "total_capacity_mw": 120.0},
    ]
    grid_path = root / "grid.json"
    grid_path.write_text(json.dumps(grid))
    out = root / "grid_out"
    assert main(["scenarios", "--instance", str(prep), "--grid", str(grid_path),
                 "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3
    _assert_numeric_fields(out / "results.csv", text_columns=("name", "error"))
    assert (out / "selection_a.geojson").exists()
    assert (out / "selection_b.geojson").exists()
    assert (out / "radar.csv").exists()


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
])
def test_metrics_malformed_selection_is_validation_error(prepped, tmp_path, capsys,
                                                         rows, message):
    root, prep = prepped
    path = tmp_path / "selection.csv"
    path.write_text("\n".join(rows) + "\n")
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


def test_exit_code_io(prepped, tmp_path):
    root, prep = prepped
    code = main(["metrics", "--selection", str(tmp_path / "nope.csv"),
                 "--instance", str(prep), "--out", str(tmp_path / "m.json")])
    assert code == 3


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
