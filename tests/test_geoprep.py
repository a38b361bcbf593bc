import math
import random

import pytest

from conftest import mk_instance, mk_site
from windplan.domain import ExistingTurbine, PlanError, Transformer
from windplan.geoprep import (
    KM_PER_DEG,
    SpatialIndex,
    exclusion_filter,
    haversine_km,
    nearest_transformer,
    nearest_transformer_bruteforce,
    prep_instance,
)


def test_haversine_one_degree_equator():
    assert abs(haversine_km(0.0, 0.0, 0.0, 1.0) - 111.195) < 1e-3


def test_haversine_zero_and_symmetry():
    assert haversine_km(48.1, 11.5, 48.1, 11.5) == 0.0
    assert haversine_km(48.0, 11.0, 52.0, 13.0) == haversine_km(52.0, 13.0, 48.0, 11.0)


def test_index_radius_query_matches_scan():
    rng = random.Random(7)
    pts = [(i, rng.uniform(47, 55), rng.uniform(6, 15)) for i in range(300)]
    radius = 30.0
    idx = SpatialIndex(pts, cell_deg=radius / (KM_PER_DEG * math.cos(math.radians(55))) * 1.01)
    for _ in range(50):
        lat, lon = rng.uniform(47, 55), rng.uniform(6, 15)
        expected = sorted((pid, haversine_km(lat, lon, plat, plon))
                          for pid, plat, plon in pts
                          if haversine_km(lat, lon, plat, plon) < radius)
        assert idx.query_radius(lat, lon, radius) == expected


def test_index_rejects_undersized_cells():
    idx = SpatialIndex([(1, 50.0, 10.0)], cell_deg=0.01)
    with pytest.raises(ValueError):
        idx.query_radius(50.0, 10.0, 500.0)


def test_nearest_matches_scan_random():
    rng = random.Random(11)
    for trial in range(50):
        m = rng.randint(1, 50)
        transformers = [Transformer(transformer_id=t + 1,
                                    lat=rng.uniform(47, 55),
                                    lon=rng.uniform(6, 15),
                                    voltage_kv=rng.choice([20, 110]))
                        for t in range(m)]
        candidates = [mk_site(i + 1, lat=rng.uniform(47, 55), lon=rng.uniform(6, 15))
                      for i in range(100)]
        lengths, ids = nearest_transformer(candidates, transformers)
        b_lengths, b_ids = nearest_transformer_bruteforce(candidates, transformers)
        assert ids == b_ids
        assert lengths == b_lengths


def test_nearest_tie_goes_to_lowest_id():
    transformers = [
        Transformer(transformer_id=2, lat=50.0, lon=10.1, voltage_kv=20),
        Transformer(transformer_id=1, lat=50.0, lon=9.9, voltage_kv=20),
    ]
    cands = [mk_site(1, lat=50.0, lon=10.0)]
    _, ids = nearest_transformer(cands, transformers)
    assert ids[1] == 1


def test_nearest_across_antimeridian():
    # a lon span > 180 degrees takes the scan, which sees that -179.9 is 0.2 deg
    # away; a lat/lon grid over this pool would stop at the transformer at lon 170
    transformers = [Transformer(transformer_id=1, lat=0.0, lon=-179.9, voltage_kv=20)]
    transformers += [Transformer(transformer_id=k + 2, lat=0.0, lon=float(lon), voltage_kv=20)
                     for k, lon in enumerate(range(-170, 180, 10))]
    cands = [mk_site(1, lat=0.0, lon=179.9)]
    lengths, ids = nearest_transformer(cands, transformers)
    assert ids == {1: 1}
    assert lengths[1] == haversine_km(0.0, 179.9, 0.0, -179.9)
    assert abs(lengths[1] - 0.2 * KM_PER_DEG) < 1e-6
    assert (lengths, ids) == nearest_transformer_bruteforce(cands, transformers)


def test_nearest_without_transformers_fails():
    with pytest.raises(PlanError, match="no transformers"):
        nearest_transformer([mk_site(1)], [])


def test_exclusion_boundary_is_kept():
    # candidate exactly on the buffer radius survives (strict < excludes)
    ex = ExistingTurbine(turbine_id=1, municipality_id=1, lat=50.0, lon=10.0,
                         capacity=2.0)
    cand = mk_site(1, lat=50.0, lon=10.004)
    d_km = haversine_km(cand.lat, cand.lon, ex.lat, ex.lon)
    kept, report = exclusion_filter([cand], [ex], buffer_diameter_m=2000.0 * d_km)
    assert kept == [cand]
    assert report.excluded_count == 0
    # any wider buffer excludes it
    kept, report = exclusion_filter([cand], [ex],
                                    buffer_diameter_m=2000.0 * d_km * 1.0001)
    assert kept == []
    assert report.excluded_count == 1
    assert report.excluded_capacity_mw == cand.capacity


def test_exclusion_monotone_in_diameter():
    rng = random.Random(3)
    cands = [mk_site(i + 1, lat=rng.uniform(49, 51), lon=rng.uniform(9, 11))
             for i in range(200)]
    ex = [ExistingTurbine(turbine_id=t + 1, municipality_id=1,
                          lat=rng.uniform(49, 51), lon=rng.uniform(9, 11),
                          capacity=1.0) for t in range(20)]
    prev = -1
    for diameter in (200.0, 1088.0, 5000.0, 20000.0):
        _, report = exclusion_filter(cands, ex, buffer_diameter_m=diameter)
        assert report.excluded_count >= prev
        prev = report.excluded_count


def test_exclusion_no_existing_keeps_all():
    cands = [mk_site(1), mk_site(2)]
    kept, report = exclusion_filter(cands, [])
    assert kept == cands
    assert report.excluded_count == 0
    assert report.excluded_share_capacity == 0.0


def test_prep_instance_fills_lengths():
    cands = [mk_site(1, lat=50.0, lon=10.0, length=None),
             mk_site(2, lat=50.0, lon=10.5, length=None)]
    tr = [Transformer(transformer_id=1, lat=50.0, lon=10.0, voltage_kv=110)]
    inst = mk_instance(cands, transformers=tr)
    prepped, report = prep_instance(inst)
    assert report.excluded_count == 0
    assert prepped.candidates[0].network_length == 0.0
    expected = haversine_km(50.0, 10.5, 50.0, 10.0)
    assert abs(prepped.candidates[1].network_length - expected) < 1e-12
