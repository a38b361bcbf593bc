import json

from conftest import mk_instance, mk_site
from windplan.runio import read_selection_csv, write_geojson, write_selection_csv
from windplan.solver import Means, Selection, Totals


def test_selection_writers_keep_order_and_missing_length(tmp_path):
    inst = mk_instance([mk_site(1, lat=50.5, lon=9.5, capacity=2.0, length=None),
                        mk_site(2, lat=51.0, lon=10.5, capacity=3.0, length=2.5)])
    sel = Selection(site_ids=(2, 1), objective_value=0.0, totals=Totals(0.0, 0.0, 0.0, 0.0),
                    means=Means(0.0, 0.0, 0.0, 0.0), lower_bound=0.0, gap=0.0)
    geo = tmp_path / "selection.geojson"
    write_geojson(sel, inst, str(geo))
    features = json.loads(geo.read_text())["features"]
    assert [f["geometry"]["coordinates"] for f in features] == [[10.5, 51.0], [9.5, 50.5]]
    assert [f["properties"] for f in features] == [
        {"site_id": 2, "municipality_id": 1, "capacity_mw": 3.0, "lcoe": 5.0,
         "scenicness": 4.0, "network_length_km": 2.5},
        {"site_id": 1, "municipality_id": 1, "capacity_mw": 2.0, "lcoe": 5.0,
         "scenicness": 4.0, "network_length_km": None}]
    table = tmp_path / "selection.csv"
    write_selection_csv(sel, inst, str(table))
    assert table.read_text().splitlines() == [
        "site_id,municipality_id,capacity_mw,lcoe,scenicness,network_length_km",
        "2,1,3.0,5.0,4.0,2.5",
        "1,1,2.0,5.0,4.0,"]
    assert read_selection_csv(str(table)) == [2, 1]
