import csv
import json
import math

import pytest

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


def _json_dump_reference(sel, inst, path):
    """The document json.dump(..., indent=1) writes, built from the table."""
    sites = inst.sites
    features = []
    for k in sites.rows(sel.site_ids).tolist():
        length = sites.network_length[k].item()
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point",
                         "coordinates": [sites.lon[k].item(), sites.lat[k].item()]},
            "properties": {"site_id": sites.ids[k].item(),
                           "municipality_id": sites.mun[k].item(),
                           "capacity_mw": sites.caps[k].item(),
                           "lcoe": sites.lcoe[k].item(),
                           "scenicness": sites.scenicness[k].item(),
                           "network_length_km": None if math.isnan(length) else length}})
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"type": "FeatureCollection", "features": features}, f, indent=1)
        f.write("\n")


@pytest.mark.parametrize("site_ids", [(), (2,), (3, 1, 2)])
def test_geojson_template_matches_json_dump(tmp_path, site_ids):
    inst = mk_instance([mk_site(1, lat=-0.0, lon=1e-7, capacity=2.1, lcoe=5.123456789012345,
                                length=1e22),
                        mk_site(2, lat=51.0, lon=-10.5, capacity=3.0, length=None),
                        mk_site(3, mun=7, lat=47.1, lon=179.99999999, scenicness=8.5,
                                length=0.0)])
    sel = Selection(site_ids=site_ids, objective_value=0.0,
                    totals=Totals(0.0, 0.0, 0.0, 0.0), means=Means(0.0, 0.0, 0.0, 0.0),
                    lower_bound=0.0, gap=0.0)
    write_geojson(sel, inst, str(tmp_path / "template.geojson"))
    _json_dump_reference(sel, inst, str(tmp_path / "reference.geojson"))
    assert ((tmp_path / "template.geojson").read_bytes()
            == (tmp_path / "reference.geojson").read_bytes())


def _csv_reference(sel, inst, path):
    """The selection CSV as csv.writer writes it, built from the table."""
    sites = inst.sites
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["site_id", "municipality_id", "capacity_mw", "lcoe", "scenicness",
                    "network_length_km"])
        for k in sites.rows(sel.site_ids).tolist():
            length = sites.network_length[k].item()
            w.writerow([sites.ids[k].item(), sites.mun[k].item(), repr(sites.caps[k].item()),
                        repr(sites.lcoe[k].item()), repr(sites.scenicness[k].item()),
                        "" if math.isnan(length) else repr(length)])


def test_selection_texts_follow_their_table(tmp_path):
    # selections that share sites are written from one table in turn, then
    # the same ids from a second table with other values: each file is what
    # its own table gives, a missing length and -0.0 included
    def table(shift):
        return mk_instance([
            mk_site(i, mun=1 + i % 2, lat=-0.0 if i == 2 else 50.0 + i * shift,
                    lon=-0.0 if i == 5 else 9.5 - shift, capacity=2.0 + shift,
                    lcoe=5.0 + i / 7, scenicness=4.0 * shift,
                    length=None if i == 3 else 1.5 * i + shift)
            for i in range(1, 7)])

    first, second = table(0.0), table(0.25)
    writes = [(first, (1, 2, 3)), (first, (3, 4, 2)), (first, (6, 5, 4, 3, 2, 1)), (first, ()),
              (second, (2, 3, 4)), (second, (1, 2, 3, 4, 5, 6)), (first, (4, 3))]
    for k, (inst, site_ids) in enumerate(writes):
        sel = Selection(site_ids=site_ids, objective_value=0.0,
                        totals=Totals(0.0, 0.0, 0.0, 0.0), means=Means(0.0, 0.0, 0.0, 0.0),
                        lower_bound=0.0, gap=0.0)
        for write, reference in ((write_geojson, _json_dump_reference),
                                 (write_selection_csv, _csv_reference)):
            write(sel, inst, str(tmp_path / "ours"))
            reference(sel, inst, str(tmp_path / "reference"))
            assert ((tmp_path / "ours").read_bytes()
                    == (tmp_path / "reference").read_bytes()), (k, write.__name__)
