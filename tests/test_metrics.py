import numpy as np
import pytest

from conftest import mk_instance, mk_mun, mk_site
from windplan.domain import PlanError
from windplan.metrics import (
    RADAR_AXES,
    gini_pairwise,
    gini_sorted,
    radar_values,
    regional_equity,
    regional_stats,
    south_quota,
)


def test_gini_uniform_is_zero():
    assert gini_sorted(np.full(10, 3.7)) == 0.0


def test_gini_two_way_split():
    assert abs(gini_sorted(np.array([0.0, 5.0])) - 0.5) <= 1e-12


def test_gini_single_holder_of_four():
    assert abs(gini_sorted(np.array([0.0, 0.0, 0.0, 8.0])) - 0.75) <= 1e-12


def test_gini_sorted_matches_pairwise():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.uniform(0, 10, rng.integers(2, 60))
        assert abs(gini_sorted(x) - gini_pairwise(x)) <= 1e-12


def test_gini_empty_raises():
    with pytest.raises(PlanError):
        gini_sorted(np.array([]))


def _equity_instance():
    sites = [mk_site(1, mun=1, capacity=4.0), mk_site(2, mun=2, capacity=4.0)]
    muns = [mk_mun(1, population=100.0), mk_mun(2, population=100.0),
            mk_mun(3, population=0.0)]
    return mk_instance(sites, municipalities=muns)


def test_regional_equity_uniform_distribution():
    inst = _equity_instance()
    rep = regional_equity([1, 2], inst)
    assert rep.regional_equity_pct == 100.0
    assert rep.excluded_zero_population == 1
    assert rep.n_municipalities == 2


def test_regional_equity_concentrated():
    inst = _equity_instance()
    rep = regional_equity([1], inst)
    assert abs(rep.gini - 0.5) <= 1e-12
    assert abs(rep.regional_equity_pct - 50.0) <= 1e-12


def test_regional_equity_counts_existing_stock():
    sites = [mk_site(1, mun=1, capacity=2.0)]
    muns = [mk_mun(1, population=10.0, existing=2.0),
            mk_mun(2, population=10.0)]
    inst = mk_instance(sites, municipalities=muns)
    assert regional_equity((), inst).regional_equity_pct == 50.0
    # no stock and no selection: every municipality at zero is perfectly equal
    bare = mk_instance(sites, municipalities=[mk_mun(1, population=10.0), muns[1]])
    assert regional_equity((), bare).regional_equity_pct == 100.0


def test_south_quota_counts_added_only():
    sites = [mk_site(1, mun=1, capacity=3.0), mk_site(2, mun=2, capacity=1.0)]
    muns = [mk_mun(1, region="South"), mk_mun(2)]
    inst = mk_instance(sites, municipalities=muns)
    assert south_quota([1, 2], inst) == 75.0
    assert south_quota((), inst) == 0.0


def test_reports_sum_in_ascending_site_id_order():
    # (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1 in floating point
    sites = [mk_site(1, capacity=0.1), mk_site(2, capacity=0.2), mk_site(3, capacity=0.3)]
    inst = mk_instance(sites, municipalities=[mk_mun(1, population=1.0), mk_mun(2)])
    ascending = (0.1 + 0.2) + 0.3
    assert ascending != (0.3 + 0.2) + 0.1
    assert regional_equity([3, 2, 1], inst).x[1] == ascending
    assert regional_equity([2, 3, 1], inst).x == regional_equity([1, 2, 3], inst).x


def test_south_quota_adds_municipal_totals_in_order_of_first_site():
    # the totals of municipalities 3, 1, 2 are added in that order, the order
    # of their first sites: (0.1 + 0.2) + 0.3 != (0.2 + 0.3) + 0.1
    sites = [mk_site(1, mun=3, capacity=0.1), mk_site(2, mun=1, capacity=0.2),
             mk_site(3, mun=2, capacity=0.3)]
    inst = mk_instance(sites, municipalities=[mk_mun(1), mk_mun(2, region="South"),
                                              mk_mun(3, region="South")])
    expected = 100.0 * (0.1 + 0.3) / ((0.1 + 0.2) + 0.3)
    assert expected != 100.0 * (0.3 + 0.1) / ((0.2 + 0.3) + 0.1)
    assert south_quota([3, 2, 1], inst) == expected


def test_regional_stats():
    sites = [mk_site(1, mun=1, capacity=3.0, scenicness=2.0),
             mk_site(2, mun=2, capacity=1.0, scenicness=6.0)]
    muns = [mk_mun(1, state=1, area=100.0), mk_mun(2, state=1, area=100.0),
            mk_mun(3, state=2, area=50.0)]
    inst = mk_instance(sites, municipalities=muns)
    stats = regional_stats([1, 2], inst)
    s1, s2 = stats.per_state
    assert s1.state_id == 1
    assert s1.turbines_per_1000_km2 == 2 / 200.0 * 1000.0
    assert s1.capacity_share_pct == 100.0
    assert s1.mean_scenicness == 4.0
    assert s2.capacity_share_pct == 0.0
    assert s2.mean_scenicness is None


def test_regional_stats_adds_state_totals_in_order_of_first_appearance():
    # states 1, 3, 2 first appear in that table order: (0.1 + 0.15) + 0.2 is
    # neither the sorted order's (0.1 + 0.2) + 0.15 nor the reverse's
    # (0.15 + 0.2) + 0.1
    sites = [mk_site(1, mun=1, capacity=0.1), mk_site(2, mun=2, capacity=0.15),
             mk_site(3, mun=3, capacity=0.2)]
    inst = mk_instance(sites, municipalities=[mk_mun(1, state=1), mk_mun(2, state=3),
                                              mk_mun(3, state=2)])
    total = (0.1 + 0.15) + 0.2
    for other in ((0.1 + 0.2) + 0.15, (0.15 + 0.2) + 0.1):
        assert 100.0 * 0.1 / total != 100.0 * 0.1 / other
    shares = {s.state_id: s.capacity_share_pct for s in regional_stats([1, 2, 3], inst).per_state}
    assert shares == {1: 100.0 * 0.1 / total, 2: 100.0 * 0.2 / total, 3: 100.0 * 0.15 / total}


def test_radar_two_scenarios_hit_endpoints():
    results = {
        "a": {"mean_lcoe": 4.0, "mean_scenicness": 2.0,
              "mean_network_length_km": 1.0, "equity_pct": 10.0},
        "b": {"mean_lcoe": 6.0, "mean_scenicness": 1.0,
              "mean_network_length_km": 3.0, "equity_pct": 30.0},
    }
    radar = radar_values(results)
    for axis in RADAR_AXES:
        vals = sorted(radar.values[n][axis] for n in results)
        assert vals == [0.0, 1.0]
    assert radar.degenerate_axes == ()


def test_radar_degenerate_axis():
    results = {
        "a": {"mean_lcoe": 4.0, "mean_scenicness": 2.0,
              "mean_network_length_km": 1.0, "equity_pct": 10.0},
        "b": {"mean_lcoe": 4.0, "mean_scenicness": 5.0,
              "mean_network_length_km": 2.0, "equity_pct": 20.0},
    }
    radar = radar_values(results)
    assert radar.degenerate_axes == ("mean_lcoe",)
    assert all(radar.values[n]["mean_lcoe"] == 0.0 for n in results)


def test_radar_needs_two_scenarios():
    with pytest.raises(PlanError):
        radar_values({"a": {ax: 1.0 for ax in RADAR_AXES}}, norm_group=["a"])
