import math
import random

import pytest

from conftest import mk_instance, mk_site
from windplan.domain import ExistingTurbine, PlanError, SiteTable, Transformer
from windplan.geoprep import (
    EARTH_RADIUS_KM,
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


def test_nearest_matches_scan_random():
    rng = random.Random(11)
    for trial in range(50):
        m = rng.randint(1, 50)
        transformers = [Transformer(transformer_id=t + 1,
                                    lat=rng.uniform(47, 55),
                                    lon=rng.uniform(6, 15),
                                    voltage_kv=rng.choice([20, 110]))
                        for t in range(m)]
        candidates = SiteTable.of([mk_site(i + 1, lat=rng.uniform(47, 55),
                                           lon=rng.uniform(6, 15)) for i in range(100)])
        lengths, ids = nearest_transformer(candidates, transformers)
        b_lengths, b_ids = nearest_transformer_bruteforce(candidates, transformers)
        assert ids.tolist() == b_ids.tolist()
        assert lengths.tolist() == b_lengths.tolist()


def test_nearest_tie_goes_to_lowest_id():
    transformers = [
        Transformer(transformer_id=2, lat=50.0, lon=10.1, voltage_kv=20),
        Transformer(transformer_id=1, lat=50.0, lon=9.9, voltage_kv=20),
    ]
    _, ids = nearest_transformer(SiteTable.of([mk_site(1, lat=50.0, lon=10.0)]), transformers)
    assert ids.tolist() == [1]


def test_nearest_across_antimeridian():
    # unit vectors wrap at +-180 degrees, so -179.9 is 0.2 deg away; a lat/lon
    # grid over this pool would stop at the transformer at lon 170
    transformers = [Transformer(transformer_id=1, lat=0.0, lon=-179.9, voltage_kv=20)]
    transformers += [Transformer(transformer_id=k + 2, lat=0.0, lon=float(lon), voltage_kv=20)
                     for k, lon in enumerate(range(-170, 180, 10))]
    cands = SiteTable.of([mk_site(1, lat=0.0, lon=179.9)])
    lengths, ids = nearest_transformer(cands, transformers)
    assert ids.tolist() == [1]
    assert lengths.tolist() == [haversine_km(0.0, 179.9, 0.0, -179.9)]
    assert abs(lengths[0] - 0.2 * math.pi * EARTH_RADIUS_KM / 180.0) < 1e-6
    assert _same_nearest(cands, transformers)


def _same_nearest(cands, transformers):
    """nearest_transformer equals the plain-loop scan, bit for bit."""
    fast = nearest_transformer(cands, transformers)
    slow = nearest_transformer_bruteforce(cands, transformers)
    return all(a.tolist() == b.tolist() for a, b in zip(fast, slow))


def _transformer(tid, lat, lon):
    return Transformer(transformer_id=tid, lat=lat, lon=lon, voltage_kv=20)


def _global_point(rng):
    return rng.choice([
        lambda: (rng.uniform(-90, 90), rng.uniform(-180, 180)),
        lambda: (rng.choice([-90.0, 90.0]), rng.uniform(-180, 180)),  # a pole
        lambda: (rng.uniform(85, 90), rng.uniform(-180, 180)),
        lambda: (rng.uniform(-10, 10), rng.choice([-1, 1]) * rng.uniform(179, 180)),
    ])()


def test_nearest_matches_scan_global():
    rng = random.Random(23)
    for trial in range(40):
        m = rng.randint(1, 60)
        transformers = [_transformer(t + 1, *_global_point(rng)) for t in range(m)]
        # coincident transformers with different ids
        transformers += [_transformer(m + 1 + k, t.lat, t.lon)
                         for k, t in enumerate(rng.sample(transformers, min(m, 3)))]
        rng.shuffle(transformers)
        cands = [mk_site(i + 1, *_global_point(rng)) for i in range(60)]
        # candidates on a transformer
        cands += [mk_site(61 + k, lat=t.lat, lon=t.lon)
                  for k, t in enumerate(rng.sample(transformers, 3))]
        # candidates halfway between two transformers: equal arcs whose
        # dot products and haversine distances differ in the last bits
        for k in range(20):
            lat, lon, d = rng.uniform(-80, 80), rng.uniform(-170, 170), rng.uniform(0, 0.1)
            cands.append(mk_site(64 + k, lat=lat, lon=lon))
            transformers += [_transformer(1000 + 2 * k, lat, lon + d),
                             _transformer(1001 + 2 * k, lat, lon - d)]
        assert _same_nearest(SiteTable.of(cands), transformers)


def _exclusion_scan(cands, existing, diameter):
    """Test-local exhaustive reference for exclusion_filter."""
    radius = diameter / 2000.0
    kept, excluded_cap = [], 0.0
    for c in cands:
        if any(haversine_km(c.lat, c.lon, t.lat, t.lon) < radius for t in existing):
            excluded_cap += c.capacity
        else:
            kept.append(c)
    return kept, len(cands) - len(kept), excluded_cap


def test_exclusion_matches_scan():
    rng = random.Random(31)
    on_radius = 0
    for trial in range(30):
        if trial % 2:
            point = lambda: (rng.uniform(49, 51), rng.uniform(9, 11))
        else:
            point = lambda: _global_point(rng)
        existing = [ExistingTurbine(turbine_id=t + 1, municipality_id=1,
                                    lat=lat, lon=lon, capacity=2.0)
                    for t, (lat, lon) in enumerate(point() for _ in range(rng.randint(1, 30)))]
        cands = [mk_site(i + 1, *point(), capacity=rng.uniform(1, 5)) for i in range(80)]
        # buffers that put a candidate exactly on the radius of its nearest
        # turbine, or one ulp inside it, closer than the dot products resolve
        diameters = [1088.0, 50_000.0, 2e6, 4.1e7]
        for c in rng.sample(cands, 4):
            d = min(haversine_km(c.lat, c.lon, t.lat, t.lon) for t in existing)
            above = 2000.0 * d
            while above / 2000.0 <= d:
                above = math.nextafter(above, math.inf)
            diameters += [2000.0 * d, above]
        for diameter in diameters:
            kept, report = exclusion_filter(SiteTable.of(cands), existing,
                                            buffer_diameter_m=diameter)
            want_kept, want_count, want_cap = _exclusion_scan(cands, existing, diameter)
            assert kept.ids.tolist() == [c.site_id for c in want_kept]
            assert report.excluded_count == want_count
            assert report.excluded_capacity_mw == want_cap
            radius = diameter / 2000.0
            on_radius += sum(haversine_km(c.lat, c.lon, t.lat, t.lon) == radius
                             for c in cands for t in existing)
    assert on_radius >= 100


def test_exclusion_buffer_wider_than_the_earth():
    # a radius past half the circumference reaches even the antipode
    ex = ExistingTurbine(turbine_id=1, municipality_id=1, lat=50.0, lon=10.0,
                         capacity=2.0)
    cands = SiteTable.of([mk_site(1, lat=-50.0, lon=-170.0), mk_site(2, lat=-49.0, lon=-170.0)])
    kept, report = exclusion_filter(cands, [ex], buffer_diameter_m=4.1e7)
    assert len(kept) == 0
    assert report.excluded_count == 2


def test_nearest_without_transformers_fails():
    with pytest.raises(PlanError, match="no transformers"):
        nearest_transformer(SiteTable.of([mk_site(1)]), [])


def test_exclusion_boundary_is_kept():
    # candidate exactly on the buffer radius survives (strict < excludes)
    ex = ExistingTurbine(turbine_id=1, municipality_id=1, lat=50.0, lon=10.0,
                         capacity=2.0)
    cand = mk_site(1, lat=50.0, lon=10.004)
    d_km = haversine_km(cand.lat, cand.lon, ex.lat, ex.lon)
    kept, report = exclusion_filter(SiteTable.of([cand]), [ex], buffer_diameter_m=2000.0 * d_km)
    assert kept.ids.tolist() == [1]
    assert report.excluded_count == 0
    # any wider buffer excludes it
    kept, report = exclusion_filter(SiteTable.of([cand]), [ex],
                                    buffer_diameter_m=2000.0 * d_km * 1.0001)
    assert len(kept) == 0
    assert report.excluded_count == 1
    assert report.excluded_capacity_mw == cand.capacity


def test_exclusion_monotone_in_diameter():
    rng = random.Random(3)
    cands = SiteTable.of([mk_site(i + 1, lat=rng.uniform(49, 51), lon=rng.uniform(9, 11))
                          for i in range(200)])
    ex = [ExistingTurbine(turbine_id=t + 1, municipality_id=1,
                          lat=rng.uniform(49, 51), lon=rng.uniform(9, 11),
                          capacity=1.0) for t in range(20)]
    prev = -1
    for diameter in (200.0, 1088.0, 5000.0, 20000.0):
        _, report = exclusion_filter(cands, ex, buffer_diameter_m=diameter)
        assert report.excluded_count >= prev
        prev = report.excluded_count


def test_exclusion_no_existing_keeps_all():
    kept, report = exclusion_filter(SiteTable.of([mk_site(1), mk_site(2)]), [])
    assert kept.ids.tolist() == [1, 2]
    assert report.excluded_count == 0
    assert report.excluded_share_capacity == 0.0


def test_prep_instance_fills_lengths():
    cands = [mk_site(1, lat=50.0, lon=10.0, length=None),
             mk_site(2, lat=50.0, lon=10.5, length=None)]
    tr = [Transformer(transformer_id=1, lat=50.0, lon=10.0, voltage_kv=110)]
    inst = mk_instance(cands, transformers=tr)
    prepped, report = prep_instance(inst)
    assert report.excluded_count == 0
    assert prepped.sites.network_length[0] == 0.0
    expected = haversine_km(50.0, 10.5, 50.0, 10.0)
    assert abs(prepped.sites.network_length[1] - expected) < 1e-12
