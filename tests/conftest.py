import numpy as np
import pytest

from windplan.domain import (
    CandidateSite,
    ExistingTurbine,
    Instance,
    Municipality,
    SiteTable,
    Transformer,
)


def mk_site(site_id, mun=1, lat=50.0, lon=10.0, capacity=2.0, lcoe=5.0,
            scenicness=4.0, flh=2000.0, length=1.0):
    return CandidateSite(site_id=site_id, municipality_id=mun, lat=lat, lon=lon,
                         capacity=capacity, lcoe=lcoe, scenicness=scenicness,
                         full_load_hours=flh, network_length=length)


def mk_mun(mun_id, population=1000.0, region="NonSouth", state=1, area=50.0,
           existing=0.0, name=None):
    return Municipality(municipality_id=mun_id, name=name or f"m{mun_id}",
                        population=population, region_tag=region, state_id=state,
                        area=area, existing_capacity=existing)


SITE_COLUMNS = ("ids", "mun", "lat", "lon", "caps", "lcoe", "scenicness",
                "full_load_hours", "network_length")


def same_sites(a, b):
    """Two SiteTables hold the same rows; NaN lengths compare equal."""
    return all(np.array_equal(getattr(a, c), getattr(b, c), equal_nan=True)
               for c in SITE_COLUMNS)


def mk_instance(candidates, municipalities=None, existing=None, transformers=None):
    if municipalities is None:
        mun_ids = sorted({c.municipality_id for c in candidates})
        municipalities = [mk_mun(j) for j in mun_ids]
    return Instance(sites=SiteTable.of(candidates), municipalities=municipalities,
                    existing=existing or [], transformers=transformers or [])


@pytest.fixture
def abc_instance():
    """Three sites A/B/C: (cap 2, cost 1), (cap 2, cost 3), (cap 4, cost 5).

    The cost is carried in the lcoe column, so Weights(1, 0, 0) prices
    sites at exactly those values.
    """
    sites = [
        mk_site(1, lcoe=1.0, capacity=2.0),
        mk_site(2, lcoe=3.0, capacity=2.0),
        mk_site(3, lcoe=5.0, capacity=4.0),
    ]
    return mk_instance(sites)


__all__ = ["mk_site", "mk_mun", "mk_instance", "same_sites", "SITE_COLUMNS",
           "CandidateSite", "ExistingTurbine", "Municipality", "Transformer", "Instance"]
