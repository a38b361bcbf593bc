import numpy as np
import pytest

from conftest import mk_site
from windplan.domain import SiteTable, ValidationError
from windplan.objective import (
    Weights,
    minmax_scale,
    scale_candidates,
    site_costs,
)


def _pool(n=50, seed=0):
    rng = np.random.default_rng(seed)
    return [mk_site(i + 1,
                    capacity=float(rng.uniform(2, 5)),
                    lcoe=float(rng.uniform(3, 9)),
                    scenicness=float(rng.uniform(1, 9)),
                    length=float(rng.uniform(0, 40)))
            for i in range(n)]


def test_weights_validation():
    with pytest.raises(ValidationError):
        Weights(1.2, 0.0, 0.0)
    with pytest.raises(ValidationError):
        Weights(0.0, 0.0, 0.0)
    assert Weights(1.0, 0.0, 0.0).single_criterion() == "lcoe"
    assert Weights(1.0, 1.0, 0.0).single_criterion() is None
    assert Weights(0.5, 0.0, 0.5).active() == ["lcoe", "network_length"]


def test_minmax_endpoints():
    scaled, lo, hi, degen = minmax_scale([4.0, 2.0, 10.0])
    assert not degen
    assert (lo, hi) == (2.0, 10.0)
    assert scaled.min() == 0.0 and scaled.max() == 1.0


def test_minmax_degenerate():
    scaled, lo, hi, degen = minmax_scale([3.0, 3.0, 3.0])
    assert degen
    assert np.all(scaled == 0.0)


def test_scale_candidates_contract():
    pool = _pool()
    scaled = scale_candidates(SiteTable.of(pool))
    for name in ("lcoe", "scenicness", "network_length"):
        arr = getattr(scaled, name)
        # mean equalized to 1.0
        assert abs(float(arr.mean()) - 1.0) <= 1e-9
        # order preserved by the affine + positive rescale
        raw = np.array([getattr(c, "network_length" if name == "network_length"
                                else name) for c in pool])
        assert np.array_equal(np.argsort(raw, kind="stable"),
                              np.argsort(arr, kind="stable"))


def test_scale_candidates_constant_criterion_errors():
    pool = [mk_site(i + 1, scenicness=4.0, lcoe=float(i + 1),
                    length=float(i)) for i in range(5)]
    with pytest.raises(ValidationError, match="scenicness"):
        scale_candidates(SiteTable.of(pool))


def test_single_criterion_costs_are_raw():
    pool = _pool(20)
    costs = site_costs(SiteTable.of(pool), Weights(0.0, 1.0, 0.0))
    assert np.allclose(costs, [c.scenicness for c in pool])
    costs = site_costs(SiteTable.of(pool), Weights(0.0, 0.0, 1.0))
    assert np.allclose(costs, [c.network_length for c in pool])


def test_multi_criterion_costs_use_scaled_values():
    sites = SiteTable.of(_pool(30))
    scaled = scale_candidates(sites)
    costs = site_costs(sites, Weights(1.0, 1.0, 1.0))
    expected = scaled.lcoe + scaled.scenicness + scaled.network_length
    assert np.allclose(costs, expected)
    # pool mean of the combined cost is the sum of the target means
    assert abs(float(costs.mean()) - 3.0) <= 1e-9


def test_missing_network_length_errors():
    sites = SiteTable.of([mk_site(1, length=3.0), mk_site(2, length=None)])
    for w in (Weights(1.0, 0.0, 0.0), Weights(0.0, 0.0, 1.0), Weights(1.0, 1.0, 1.0)):
        with pytest.raises(ValidationError, match="site 2 has no network_length"):
            site_costs(sites, w)
    with pytest.raises(ValidationError, match="site 2 has no network_length"):
        scale_candidates(sites)
