"""Seeded synthetic instance generator.

Stands in for the non-public national datasets: scenicness comes from a
spatially smoothed random field rescaled to [1, 9] with mean near 4.5,
LCOE is coupled to scenicness through a Gaussian copula at a tunable
Pearson correlation, municipalities partition the sites spatially, and
the existing turbine stock preferentially occupies low-LCOE sites so
that its regional equity starts out low.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .domain import (
    ExistingTurbine,
    Instance,
    MunicipalityTable,
    PlanError,
    SiteTable,
    Transformer,
    ValidationError,
    json_value,
)

# exponent of the rank transform mapping the smooth field onto [1, 9]
# with mean 1 + 8 / (gamma + 1) = 4.5
_SCENIC_GAMMA = 8.0 / 3.5 - 1.0
_RHO_TOL = 0.05


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 20_50
    n_sites: int = 2000
    n_municipalities: int = 150
    n_states: int = 8
    n_transformers: int = 40
    n_existing: int = 60
    capacity_min_mw: float = 2.0
    capacity_max_mw: float = 5.0
    existing_capacity_min_mw: float = 1.0
    existing_capacity_max_mw: float = 3.0
    rho_lcoe_scenicness: float = 0.1
    smoothness: float = 1.0  # bump width relative to the bounding box
    lat_min: float = 47.0
    lat_max: float = 55.0
    lon_min: float = 6.0
    lon_max: float = 15.0
    south_share: float = 0.35  # share of municipalities tagged South (by latitude)

    def validate(self) -> None:
        if self.seed < 0:
            raise PlanError("seed must be >= 0")
        for name in ("n_sites", "n_municipalities", "n_states",
                     "n_transformers", "n_existing"):
            if getattr(self, name) < 1:
                raise PlanError(f"{name} must be >= 1")
        if not -1.0 <= self.rho_lcoe_scenicness <= 1.0:
            raise PlanError("rho_lcoe_scenicness outside [-1, 1]")
        if self.capacity_min_mw <= 0 or self.capacity_max_mw < self.capacity_min_mw:
            raise PlanError("invalid capacity range")
        if self.lat_max <= self.lat_min or self.lon_max <= self.lon_min:
            raise PlanError("invalid bounding box")


def germany_like(seed: int = 20_50) -> SynthSpec:
    """Desk-scale national benchmark: 160k sites, 11k municipalities,
    16 states; existing stock sized for x0.01-scaled capacity targets."""
    return SynthSpec(seed=seed, n_sites=160_000, n_municipalities=11_000,
                     n_states=16, n_transformers=2_500, n_existing=300,
                     existing_capacity_min_mw=1.5, existing_capacity_max_mw=2.2,
                     rho_lcoe_scenicness=0.15)


def spec_from_json(doc, seed_override: int | None = None) -> SynthSpec:
    """SynthSpec from a parsed JSON object: an int field takes a JSON
    integer, a float field a finite JSON number, and neither a boolean."""
    if not isinstance(doc, dict):
        raise ValidationError(f"synth spec: expected a JSON object, got {type(doc).__name__}")
    types = {f.name: f.type for f in fields(SynthSpec)}
    unknown = set(doc) - set(types)
    if unknown:
        raise PlanError(f"unknown synth spec fields: {sorted(unknown)}")
    for name, value in doc.items():
        kind, what = (int, "an integer") if types[name] == "int" else (float, "a finite number")
        json_value(value, kind, what, f"synth spec field {name!r}")
    spec = SynthSpec(**doc)
    if seed_override is not None:
        spec = replace(spec, seed=seed_override)
    return spec


def _smooth_field(rng: np.random.Generator, lat: np.ndarray, lon: np.ndarray,
                  spec: SynthSpec) -> np.ndarray:
    """Sum of random Gaussian bumps: a smooth surface over the box."""
    n_bumps = 40
    lat_span = spec.lat_max - spec.lat_min
    lon_span = spec.lon_max - spec.lon_min
    centers_lat = rng.uniform(spec.lat_min, spec.lat_max, n_bumps)
    centers_lon = rng.uniform(spec.lon_min, spec.lon_max, n_bumps)
    amps = rng.normal(0.0, 1.0, n_bumps)
    width = 0.18 * spec.smoothness
    field = np.zeros_like(lat)
    for k in range(n_bumps):
        d2 = ((lat - centers_lat[k]) / lat_span) ** 2 + ((lon - centers_lon[k]) / lon_span) ** 2
        field += amps[k] * np.exp(-d2 / (2.0 * width * width))
    return field


def _rank_uniform(values: np.ndarray) -> np.ndarray:
    """Deterministic rank transform onto the open unit interval."""
    n = values.size
    order = np.lexsort((np.arange(n), values))
    u = np.empty(n)
    u[order] = (np.arange(n) + 0.5) / n
    return u


def generate(spec: SynthSpec) -> Instance:
    """Deterministic synthetic Instance for a seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)

    # municipality centers and state assignment
    mun_lat = rng.uniform(spec.lat_min, spec.lat_max, spec.n_municipalities)
    mun_lon = rng.uniform(spec.lon_min, spec.lon_max, spec.n_municipalities)
    state_lat = rng.uniform(spec.lat_min, spec.lat_max, spec.n_states)
    state_lon = rng.uniform(spec.lon_min, spec.lon_max, spec.n_states)
    cosm = math.cos(math.radians(0.5 * (spec.lat_min + spec.lat_max)))
    d2 = ((mun_lat[:, None] - state_lat[None, :]) ** 2
          + ((mun_lon[:, None] - state_lon[None, :]) * cosm) ** 2)
    mun_state = d2.argmin(axis=1) + 1

    populations = np.round(rng.lognormal(mean=8.0, sigma=1.2, size=spec.n_municipalities))
    areas = rng.uniform(10.0, 250.0, spec.n_municipalities)
    lat_cut = np.quantile(mun_lat, spec.south_share)
    region = np.where(mun_lat <= lat_cut, "South", "NonSouth")

    # sites cluster around municipality centers, which partitions them
    mun_idx = rng.integers(0, spec.n_municipalities, spec.n_sites)
    spread_lat = (spec.lat_max - spec.lat_min) / math.sqrt(spec.n_municipalities) * 0.5
    spread_lon = (spec.lon_max - spec.lon_min) / math.sqrt(spec.n_municipalities) * 0.5
    site_lat = np.clip(mun_lat[mun_idx] + rng.normal(0.0, spread_lat, spec.n_sites),
                       spec.lat_min, spec.lat_max)
    site_lon = np.clip(mun_lon[mun_idx] + rng.normal(0.0, spread_lon, spec.n_sites),
                       spec.lon_min, spec.lon_max)

    # scenicness: smooth field -> rank transform -> [1, 9], mean ~ 4.5
    field = _smooth_field(rng, site_lat, site_lon, spec)
    u = _rank_uniform(field)
    scenic = 1.0 + 8.0 * u ** _SCENIC_GAMMA

    # LCOE: lognormal marginal coupled to the scenicness field through a
    # Gaussian copula; the latent correlation is calibrated so the sample
    # Pearson correlation of the final values hits the requested rho
    z_s = (field - field.mean()) / max(field.std(), 1e-12)
    eps = rng.normal(0.0, 1.0, spec.n_sites)
    rho = spec.rho_lcoe_scenicness

    def lcoe_for(rho_latent: float) -> np.ndarray:
        z_c = rho_latent * z_s + math.sqrt(max(0.0, 1.0 - rho_latent ** 2)) * eps
        return np.exp(math.log(5.0) + 0.35 * z_c)

    rho_latent = rho
    lcoe = lcoe_for(rho_latent)
    if spec.n_sites >= 3 and rho != 0.0:
        # achieved Pearson rho is monotone in the latent loading: bisect
        def achieved_at(r: float) -> float:
            return float(np.corrcoef(lcoe_for(r), scenic)[0, 1])

        lo, hi = -1.0, 1.0
        for _ in range(40):
            rho_latent = 0.5 * (lo + hi)
            a = achieved_at(rho_latent)
            if abs(a - rho) <= 0.005:
                break
            if a < rho:
                lo = rho_latent
            else:
                hi = rho_latent
        lcoe = lcoe_for(rho_latent)
        achieved = float(np.corrcoef(lcoe, scenic)[0, 1])
        # finite-sample correlation noise scales like 1/sqrt(n)
        tol = max(_RHO_TOL, 3.0 / math.sqrt(spec.n_sites))
        if abs(achieved - rho) > tol:
            raise PlanError(
                f"cannot realize lcoe-scenicness correlation {rho} with these "
                f"marginals (achieved {achieved:.3f})")

    capacity = rng.uniform(spec.capacity_min_mw, spec.capacity_max_mw, spec.n_sites)
    flh = 2200.0 * np.sqrt(5.0 / lcoe) + rng.normal(0.0, 60.0, spec.n_sites)
    flh = np.clip(flh, 0.0, None)

    # existing turbines prefer cheap sites (softmax on -LCOE)
    logits = -lcoe / max(0.35 * float(np.std(lcoe)), 1e-9)
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    ex_sites = rng.choice(spec.n_sites, size=spec.n_existing, replace=True, p=probs)
    ex_lat = np.clip(site_lat[ex_sites] + rng.normal(0.0, 0.002, spec.n_existing),
                     spec.lat_min, spec.lat_max)
    ex_lon = np.clip(site_lon[ex_sites] + rng.normal(0.0, 0.002, spec.n_existing),
                     spec.lon_min, spec.lon_max)
    ex_cap = rng.uniform(spec.existing_capacity_min_mw, spec.existing_capacity_max_mw,
                         spec.n_existing)
    ex_mun = mun_idx[ex_sites]

    tr_lat = rng.uniform(spec.lat_min, spec.lat_max, spec.n_transformers)
    tr_lon = rng.uniform(spec.lon_min, spec.lon_max, spec.n_transformers)
    tr_voltage = rng.choice([20, 110], size=spec.n_transformers, p=[0.45, 0.55])

    sites = SiteTable.from_columns(
        ids=np.arange(1, spec.n_sites + 1), mun=mun_idx + 1, lat=site_lat, lon=site_lon,
        caps=capacity, lcoe=lcoe, scenicness=scenic, full_load_hours=flh)

    existing = [ExistingTurbine(
        turbine_id=t + 1, municipality_id=int(ex_mun[t]) + 1,
        lat=float(ex_lat[t]), lon=float(ex_lon[t]), capacity=float(ex_cap[t]),
    ) for t in range(spec.n_existing)]

    # municipality j + 1 is table row j, so ex_mun are the turbines' rows
    municipalities = MunicipalityTable.from_columns(
        ids=np.arange(1, spec.n_municipalities + 1),
        name=[f"mun-{j:05d}" for j in range(1, spec.n_municipalities + 1)],
        population=populations, region_tag=region, state_id=mun_state, area=areas,
        existing_capacity=np.bincount(ex_mun, weights=ex_cap, minlength=spec.n_municipalities))

    transformers = [Transformer(
        transformer_id=t + 1, lat=float(tr_lat[t]), lon=float(tr_lon[t]),
        voltage_kv=int(tr_voltage[t]),
    ) for t in range(spec.n_transformers)]

    return Instance(sites=sites, municipalities=municipalities,
                    existing=existing, transformers=transformers)
