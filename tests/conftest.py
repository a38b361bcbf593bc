import functools
import warnings

import numpy as np
import pytest

# Hypothesis imports this module to report a failing @given test, and it
# imports libcst, whose import warns (DeprecationWarning from
# mypy_extensions). Under filterwarnings = error that warning would end the
# whole session as an INTERNALERROR, so it is imported once here, with that
# warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from windplan.domain import (
    CandidateSite,
    ExistingTurbine,
    Instance,
    Municipality,
    MunicipalityTable,
    SiteTable,
    Transformer,
)
from windplan.objective import site_costs


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


MUN_COLUMNS = ("ids", "name", "population", "region_tag", "state_id", "area",
               "existing_capacity")


def same_sites(a, b):
    """Two SiteTables hold the same rows; NaN lengths compare equal."""
    return all(np.array_equal(getattr(a, c), getattr(b, c), equal_nan=True)
               for c in SITE_COLUMNS)


def same_muns(a, b):
    """Two MunicipalityTables hold the same rows; NaN numbers compare equal."""
    return all(np.array_equal(getattr(a, c), getattr(b, c),
                              equal_nan=getattr(a, c).dtype != object)
               for c in MUN_COLUMNS)


def mk_instance(candidates, municipalities=None, existing=None, transformers=None):
    """Instance of hand-built records; the municipalities default to one
    mk_mun per municipality the candidates name."""
    if municipalities is None:
        municipalities = [mk_mun(j) for j in sorted({c.municipality_id for c in candidates})]
    return Instance(sites=SiteTable.of(candidates),
                    municipalities=MunicipalityTable.of(municipalities),
                    existing=existing or [], transformers=transformers or [])


@functools.cache
def _subset_bits(k):
    """0/1 rows of all 2^k subsets of k sites, subset m in row m."""
    bits = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(float)
    bits.flags.writeable = False
    return bits


def subset_scan(inst, weights, con):
    """Oracle independent of the solver: every subset of the N <= 24 sites.
    Subsets are taken in blocks that share the sites above the lowest 18: a
    block's totals are a 0/1 matrix over the low sites times their values,
    plus the block's fixed total over the high sites. Returns (objective,
    rows) of the lowest feasible objective, ties within 1e-12 to the smallest
    sorted id tuple, or None when no subset is feasible."""
    sites = inst.sites
    n = len(sites)
    k = min(n, 18)
    low = _subset_bits(k)

    def tol(bound):
        return 1e-9 * max(1.0, abs(bound))

    # (values, bound, +1 for total >= bound or -1 for total <= bound)
    checks = [(sites.caps, con.cap_obj, 1)]
    for crit, fld in (("lcoe", "m_c"), ("scenicness", "m_s"), ("network_length", "m_l")):
        if getattr(con, fld) is not None:
            checks.append((getattr(sites, crit), getattr(con, fld), -1))
    for j, floor in (con.equity_floors or {}).items():
        if floor > 0:
            checks.append((np.where(sites.mun == j, sites.caps, 0.0), floor, 1))
    cost = site_costs(sites, weights)
    found = []  # (objective, mask) within 1e-12 of its block's lowest
    for h in range(1 << (n - k)):
        high = ((h >> np.arange(n - k)) & 1).astype(float)

        def total(v):
            return low @ v[:k] + float(high @ v[k:])

        feas = np.ones(len(low), dtype=bool)
        for v, bound, sign in checks:
            feas &= sign * total(v) >= sign * bound - tol(bound)
        if feas.any():
            obj = total(cost)
            near = feas & (obj <= obj[feas].min() + 1e-12)
            found += [(float(obj[m]), h << k | m) for m in np.flatnonzero(near).tolist()]
    if not found:
        return None
    best = min(o for o, _ in found)
    ties = []
    for o, mask in found:
        if o <= best + 1e-12:
            rows = np.flatnonzero((mask >> np.arange(n)) & 1)
            ties.append((tuple(sites.ids[rows].tolist()), o, rows))
    _, o, rows = min(ties, key=lambda t: t[0])
    return o, rows


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


__all__ = ["mk_site", "mk_mun", "mk_instance", "same_sites", "same_muns", "subset_scan",
           "SITE_COLUMNS", "MUN_COLUMNS", "CandidateSite", "ExistingTurbine", "Municipality",
           "MunicipalityTable", "Transformer", "Instance"]
