import numpy as np
import pytest

from conftest import same_muns, same_sites
from windplan.domain import PlanError, ValidationError, validate_instance
from windplan.geoprep import prep_instance
from windplan.synth import SynthSpec, generate, germany_like, spec_from_json


def test_generate_is_deterministic():
    spec = SynthSpec(seed=77, n_sites=400, n_municipalities=20)
    a = generate(spec)
    b = generate(spec)
    assert same_sites(a.sites, b.sites)
    assert same_muns(a.municipalities, b.municipalities)
    assert a.existing == b.existing
    assert a.transformers == b.transformers


def test_different_seeds_differ():
    a = generate(SynthSpec(seed=1, n_sites=100))
    b = generate(SynthSpec(seed=2, n_sites=100))
    assert not same_sites(a.sites, b.sites)


def test_generated_instance_validates():
    inst = generate(SynthSpec(seed=5, n_sites=500, n_municipalities=30))
    assert validate_instance(inst).ok()


def test_scenicness_range_and_mean():
    inst = generate(SynthSpec(seed=3, n_sites=10_000, n_municipalities=200))
    scenic = inst.sites.scenicness
    assert scenic.min() >= 1.0 and scenic.max() <= 9.0
    assert abs(scenic.mean() - 4.5) < 0.1


def test_rho_zero_uncorrelated():
    spec = SynthSpec(seed=11, n_sites=10_000, n_municipalities=200,
                     rho_lcoe_scenicness=0.0)
    inst = generate(spec)
    assert abs(np.corrcoef(inst.sites.lcoe, inst.sites.scenicness)[0, 1]) < 0.05


def test_rho_target_is_reached():
    spec = SynthSpec(seed=11, n_sites=10_000, n_municipalities=200,
                     rho_lcoe_scenicness=0.4)
    inst = generate(spec)
    assert abs(np.corrcoef(inst.sites.lcoe, inst.sites.scenicness)[0, 1] - 0.4) < 0.05


def test_sites_partitioned_into_municipalities():
    inst = generate(SynthSpec(seed=7, n_sites=300, n_municipalities=15))
    mun_ids = set(inst.municipalities.ids.tolist())
    assert all(j in mun_ids for j in inst.sites.mun.tolist())
    assert all(t.municipality_id in mun_ids for t in inst.existing)


def test_existing_stock_triggers_exclusions():
    inst = generate(SynthSpec(seed=13, n_sites=2000, n_municipalities=100,
                              n_existing=60))
    _, report = prep_instance(inst)
    assert report.excluded_count > 0


def test_spec_validation():
    with pytest.raises(PlanError):
        SynthSpec(n_sites=0).validate()
    with pytest.raises(PlanError):
        SynthSpec(rho_lcoe_scenicness=1.5).validate()
    with pytest.raises(PlanError):
        SynthSpec(lat_min=55.0, lat_max=47.0).validate()


def test_spec_from_json():
    spec = spec_from_json({"seed": 42, "n_sites": 50, "capacity_min_mw": 2})
    assert spec.seed == 42 and spec.n_sites == 50 and spec.capacity_min_mw == 2
    spec = spec_from_json({"seed": 42, "n_sites": 50}, seed_override=9)
    assert spec.seed == 9
    with pytest.raises(PlanError, match="unknown"):
        spec_from_json({"n_turbines": 50})
    with pytest.raises(ValidationError, match="'n_sites' is not an integer: True"):
        spec_from_json({"n_sites": True})
    with pytest.raises(ValidationError, match="'lat_min' is not a finite number: nan"):
        spec_from_json({"lat_min": float("nan")})


def test_germany_like_spec():
    spec = germany_like()
    assert spec.n_sites == 160_000
    assert spec.n_municipalities == 11_000
    assert spec.n_states == 16
    spec.validate()
