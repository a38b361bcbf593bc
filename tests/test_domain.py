import ast
import csv
import io
import math
import os
import pickle
import random
import re
import shutil
import struct
import warnings
from dataclasses import astuple

import numpy as np
import pytest

import windplan
from conftest import MUN_COLUMNS, SITE_COLUMNS, mk_instance, mk_mun, mk_site, same_muns, same_sites
from windplan.cli import main
from windplan.domain import (
    CAPACITY_MAX_MW,
    CAPACITY_MIN_MW,
    FULL_LOAD_HOURS_MAX,
    LCOE_MAX_CT_KWH,
    NETWORK_LENGTH_MAX_KM,
    _CAND_HEADER,
    _EXISTING_SCHEMA,
    _MUN_SCHEMA,
    _SITE_SCHEMA,
    _TRANSFORMER_SCHEMA,
    _WRITE_BLOCK,
    CANDIDATES_COLUMN_FILE,
    ExistingTurbine,
    Instance,
    MunicipalityTable,
    SiteTable,
    Transformer,
    ValidationError,
    _read_sites_csv,
    _saved_columns,
    file_sha256,
    read_instance,
    validate_instance,
    with_network_lengths,
    write_instance,
)
from windplan.geoprep import prep_instance
from windplan.synth import SynthSpec, generate


def _full_instance():
    sites = [mk_site(1, lat=50.123456789, lon=9.87654321, capacity=2.347,
                     lcoe=5.123456789012345, scenicness=3.3, flh=2123.4,
                     length=0.123456789),
             mk_site(2, mun=2, length=None)]
    muns = [mk_mun(1, existing=1.5), mk_mun(2, region="South", state=2)]
    ex = [ExistingTurbine(turbine_id=1, municipality_id=1, lat=50.0, lon=9.9,
                          capacity=1.5)]
    tr = [Transformer(transformer_id=1, lat=50.5, lon=10.1, voltage_kv=110)]
    return mk_instance(sites, muns, ex, tr)


def test_round_trip_bit_exact(tmp_path):
    inst = _full_instance()
    write_instance(inst, str(tmp_path))
    loaded = read_instance(str(tmp_path))
    assert same_sites(loaded.sites, inst.sites)
    assert same_muns(loaded.municipalities, inst.municipalities)
    assert loaded.existing == inst.existing
    assert loaded.transformers == inst.transformers
    # second round trip reproduces the files byte for byte
    out2 = tmp_path / "again"
    write_instance(loaded, str(out2))
    for name in ("candidates.csv", "municipalities.csv", "existing.csv",
                 "transformers.csv"):
        assert (tmp_path / name).read_bytes() == (out2 / name).read_bytes()


def test_validate_clean_instance():
    assert validate_instance(_full_instance()).ok()


def test_validate_empty_candidates():
    inst = mk_instance([], municipalities=[mk_mun(1)])
    kinds = {v.kind for v in validate_instance(inst).violations}
    assert "EmptyCandidates" in kinds


def test_validate_duplicate_ids():
    inst = mk_instance([mk_site(1), mk_site(1)])
    rep = validate_instance(inst)
    assert any(v.kind == "DuplicateId" and v.offending_id == 1
               for v in rep.violations)


def _duplicates_by_set_walk(ids, label):
    """Test-local reference: one DuplicateId per repeated occurrence, found
    by a set walk over the ids in the order given."""
    seen, found = set(), []
    for i in ids:
        if i in seen:
            found.append(("DuplicateId", i, f"duplicate {label} {i}"))
        seen.add(i)
    return found


def test_validate_duplicate_ids_match_set_walk():
    # ids that repeat three times, and at both ends of each sorted table
    site_ids = [9, 3, 1, 3, 5, 9, 8, 1, 3, 8, 9]
    mun_ids = [7, 2, 4, 7, 2, 7]
    turbines = [ExistingTurbine(turbine_id=t, municipality_id=2, lat=50.0, lon=10.0,
                                capacity=1.0) for t in (6, 6, 1, 6)]
    transformers = [Transformer(transformer_id=t, lat=50.0, lon=10.0, voltage_kv=20)
                    for t in (4, 2, 4)]
    inst = mk_instance([mk_site(i, mun=2) for i in site_ids],
                       municipalities=[mk_mun(j) for j in mun_ids],
                       existing=turbines, transformers=transformers)
    expected = (_duplicates_by_set_walk(inst.sites.ids.tolist(), "site_id")
                + _duplicates_by_set_walk(inst.municipalities.ids.tolist(), "municipality_id")
                + _duplicates_by_set_walk([t.turbine_id for t in turbines], "turbine_id")
                + _duplicates_by_set_walk([t.transformer_id for t in transformers],
                                          "transformer_id"))
    found = [(v.kind, v.offending_id, v.message)
             for v in validate_instance(inst).violations if v.kind == "DuplicateId"]
    assert found == expected
    assert [i for _, i, _ in found] == [1, 3, 3, 8, 9, 9, 2, 7, 7, 6, 6, 4]
    rng = np.random.default_rng(3)
    for _ in range(20):
        ids = rng.integers(-3, 4, int(rng.integers(0, 30))).tolist()
        table_ids = SiteTable.of([mk_site(i) for i in ids]).ids.tolist()
        found = [(v.kind, v.offending_id, v.message)
                 for v in validate_instance(mk_instance([mk_site(i) for i in ids])).violations
                 if v.kind == "DuplicateId"]
        assert found == _duplicates_by_set_walk(table_ids, "site_id")


def test_validate_missing_municipality_reference():
    inst = mk_instance([mk_site(1, mun=99)], municipalities=[mk_mun(1)])
    rep = validate_instance(inst)
    assert any(v.kind == "MissingReference" for v in rep.violations)


@pytest.mark.parametrize("site", [
    mk_site(1, scenicness=0.5),
    mk_site(1, scenicness=9.5),
    mk_site(1, capacity=0.0),
    mk_site(1, lcoe=-1.0),
    mk_site(1, lat=91.0),
    mk_site(1, lon=-181.0),
])
def test_validate_site_range_violations(site):
    rep = validate_instance(mk_instance([site]))
    assert any(v.kind == "RangeViolation" and v.offending_id == 1
               for v in rep.violations)


@pytest.mark.parametrize("field, value, message", [
    ("capacity", math.inf, "site 1: capacity inf is not finite"),
    ("capacity", math.nan, "site 1: capacity nan is not finite"),
    ("lcoe", math.nan, "site 1: lcoe nan is not finite"),
    ("lcoe", math.inf, "site 1: lcoe inf is not finite"),
    ("flh", math.nan, "site 1: full_load_hours nan is not finite"),
    ("flh", math.inf, "site 1: full_load_hours inf is not finite"),
    ("length", math.inf, "site 1: network_length inf is not finite"),
])
def test_validate_non_finite_site_values(field, value, message):
    rep = validate_instance(mk_instance([mk_site(1, **{field: value}), mk_site(2)]))
    assert [(v.kind, v.offending_id, v.message) for v in rep.violations] == [
        ("RangeViolation", 1, message)]


def _site_violations_loop(sites, mun_ids):
    """Test-local per-site reference: the record loop validate_instance ran
    before the pool became columns, plus the non-finite rule and the
    physical ranges [lo, hi]."""
    out = []

    def check(sid, name, value, bad, rule, lo=-math.inf, hi=math.inf):
        if bad:
            out.append(("RangeViolation", sid, f"site {sid}: {name} {value} {rule}"))
        elif not math.isfinite(value):
            out.append(("RangeViolation", sid, f"site {sid}: {name} {value} is not finite"))
        elif not lo <= value <= hi:
            out.append(("RangeViolation", sid,
                        f"site {sid}: {name} {value} outside the physical range [{lo}, {hi}]"))

    for c in sites:
        if c.municipality_id not in mun_ids:
            out.append(("MissingReference", c.site_id, f"site {c.site_id} references "
                                                       f"unknown municipality {c.municipality_id}"))
        check(c.site_id, "scenicness", c.scenicness, not (1.0 <= c.scenicness <= 9.0),
              "outside [1, 9]")
        check(c.site_id, "capacity", c.capacity, c.capacity <= 0, "<= 0",
              CAPACITY_MIN_MW, CAPACITY_MAX_MW)
        check(c.site_id, "lcoe", c.lcoe, c.lcoe <= 0, "<= 0", 0.0, LCOE_MAX_CT_KWH)
        check(c.site_id, "full_load_hours", c.full_load_hours, c.full_load_hours < 0, "< 0",
              0.0, FULL_LOAD_HOURS_MAX)
        if c.network_length is not None and not math.isnan(c.network_length):  # NaN: none
            check(c.site_id, "network_length", c.network_length, c.network_length < 0, "< 0",
                  0.0, NETWORK_LENGTH_MAX_KM)
        check(c.site_id, "lat", c.lat, not (-90.0 <= c.lat <= 90.0), "outside [-90, 90]")
        check(c.site_id, "lon", c.lon, not (-180.0 <= c.lon <= 180.0), "outside [-180, 180]")
    return out


def test_validate_matches_per_site_loop():
    rng = random.Random(5)
    odd = [0.0, -1.0, 0.5, 9.5, 91.0, -181.0, 1e308, 1e-320, math.nan, math.inf, -math.inf]

    def value(good):
        return rng.choice(odd) if rng.random() < 0.08 else good

    for _ in range(20):
        sites = [mk_site(sid, mun=rng.choice([1, 2, 9]), lat=value(50.0), lon=value(10.0),
                         capacity=value(2.0), lcoe=value(5.0), scenicness=value(4.0),
                         flh=value(2000.0), length=rng.choice([None, value(1.0)]))
                 for sid in rng.sample(range(1, 200), 60)]
        inst = mk_instance(sites, municipalities=[mk_mun(1), mk_mun(2)])
        got = [(v.kind, v.offending_id, v.message) for v in validate_instance(inst).violations]
        want = _site_violations_loop(sorted(sites, key=lambda c: c.site_id), {1, 2})
        assert got == want
        assert want


def test_validate_physical_ranges():
    # finite values outside the range of their unit: a capacity of 1e308 MW
    # overflowed the solver's sums into a NaN equity share and a 1e305 gap
    sites = [mk_site(1, capacity=1e308), mk_site(2, capacity=1e-320), mk_site(3, lcoe=1e308),
             mk_site(4, flh=8784.5), mk_site(5, length=20016.0),
             # the ends of each range are in it
             mk_site(6, capacity=CAPACITY_MIN_MW, flh=FULL_LOAD_HOURS_MAX,
                     length=NETWORK_LENGTH_MAX_KM),
             mk_site(7, capacity=CAPACITY_MAX_MW, lcoe=LCOE_MAX_CT_KWH, flh=0.0, length=0.0)]
    turbines = [ExistingTurbine(turbine_id=t, municipality_id=1, lat=50.0, lon=10.0, capacity=c)
                for t, c in ((8, 1e308), (9, CAPACITY_MAX_MW))]
    inst = mk_instance(sites, municipalities=[mk_mun(1, existing=1e308)], existing=turbines)
    assert NETWORK_LENGTH_MAX_KM == pytest.approx(20015.1144, abs=1e-4)
    assert [(v.kind, v.offending_id, v.message) for v in validate_instance(inst).violations] == [
        ("RangeViolation", 1, "site 1: capacity 1e+308 outside the physical range [0.001, 1000.0]"),
        ("RangeViolation", 2, "site 2: capacity 1e-320 outside the physical range [0.001, 1000.0]"),
        ("RangeViolation", 3, "site 3: lcoe 1e+308 outside the physical range [0.0, 1000.0]"),
        ("RangeViolation", 4,
         "site 4: full_load_hours 8784.5 outside the physical range [0.0, 8784.0]"),
        ("RangeViolation", 5, "site 5: network_length 20016.0 outside the physical range "
                              f"[0.0, {NETWORK_LENGTH_MAX_KM}]"),
        ("RangeViolation", 8,
         "turbine 8: capacity 1e+308 outside the physical range [0.001, 1000.0]")]


def test_validate_missing_length_is_not_a_violation():
    assert validate_instance(mk_instance([mk_site(1, length=None)])).ok()


@pytest.mark.parametrize("field, value, message", [
    ("population", math.nan, "municipality 1: population nan is not finite"),
    ("population", math.inf, "municipality 1: population inf is not finite"),
    ("area", math.nan, "municipality 1: area nan is not finite"),
    ("area", math.inf, "municipality 1: area inf is not finite"),
])
def test_validate_non_finite_municipality_values(field, value, message):
    rep = validate_instance(mk_instance([mk_site(1)],
                                        municipalities=[mk_mun(1, **{field: value})]))
    assert [(v.kind, v.offending_id, v.message) for v in rep.violations] == [
        ("RangeViolation", 1, message)]


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_non_finite_turbine_capacity(value):
    inst = mk_instance([mk_site(1)], municipalities=[mk_mun(1, existing=value)], existing=[
        ExistingTurbine(turbine_id=4, municipality_id=1, lat=50.0, lon=10.0, capacity=value)])
    rep = validate_instance(inst)
    assert [(v.kind, v.offending_id, v.message) for v in rep.violations] == [
        ("RangeViolation", 4, f"turbine 4: capacity {value} is not finite")]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_read_rejects_literal_non_finite_length(tmp_path, text):
    write_instance(_full_instance(), str(tmp_path))
    path = tmp_path / "candidates.csv"
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",network_length_km") and lines[2].endswith(",")
    lines[2] += text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=f"site 2: network_length_km '{text}' is not finite"):
        read_instance(str(tmp_path))


def test_validate_municipality_ranges():
    muns = [mk_mun(1, population=-5.0), mk_mun(2, area=0.0),
            mk_mun(3, region="East")]
    inst = mk_instance([mk_site(1)], municipalities=muns)
    rep = validate_instance(inst)
    bad = {v.offending_id for v in rep.violations if v.kind == "RangeViolation"}
    assert {1, 2, 3} <= bad


def test_validate_transformer_voltage():
    inst = mk_instance([mk_site(1)], transformers=[
        Transformer(transformer_id=1, lat=50.0, lon=10.0, voltage_kv=380)])
    rep = validate_instance(inst)
    assert any(v.kind == "RangeViolation" and v.offending_id == 1
               for v in rep.violations)


def test_validate_inconsistent_derived_existing():
    inst = mk_instance([mk_site(1)], municipalities=[mk_mun(1, existing=7.0)])
    rep = validate_instance(inst)
    assert any(v.kind == "InconsistentDerived" for v in rep.violations)


def test_validate_turbine_in_unknown_municipality():
    inst = mk_instance([mk_site(1)], existing=[
        ExistingTurbine(turbine_id=9, municipality_id=42, lat=50.0, lon=10.0,
                        capacity=1.0)])
    rep = validate_instance(inst)
    assert any(v.kind == "MissingReference" and v.offending_id == 9
               and "turbine 9" in v.message for v in rep.violations)


def test_read_missing_column(tmp_path):
    inst = _full_instance()
    write_instance(inst, str(tmp_path))
    path = tmp_path / "candidates.csv"
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("capacity_mw", "cap")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        read_instance(str(tmp_path))


def _saved_sites(directory):
    """The pool that candidates.npz alone gives, or None where read_instance
    would parse candidates.csv instead."""
    cols = _saved_columns(os.path.join(directory, "candidates.csv"), _SITE_SCHEMA, None)
    return None if cols is None else SiteTable.from_columns(*cols)


def same_bits(a, b):
    """Two SiteTables hold the same rows bit for bit, NaN and -0.0 included."""
    return all(getattr(a, c).dtype == getattr(b, c).dtype
               and getattr(a, c).tobytes() == getattr(b, c).tobytes() for c in SITE_COLUMNS)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0], lines[1] + ",7", lines[2]], "line 2: 10 fields, the header has 9"),
    (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], lines[2]],
     "line 2: 8 fields, the header has 9"),
    (lambda lines: [lines[0], lines[1].replace(",2.347,", ",abc,"), lines[2]],
     "column capacity_mw: could not convert"),
    (lambda lines: [lines[0], "", lines[1], lines[2]], None),  # a blank line is skipped
    pytest.param(lambda lines: [lines[0], "#" + lines[1], lines[2]],
                 "column site_id: invalid literal for int() with base 10: '#1'", id="comment"),
    pytest.param(lambda lines: [lines[0], lines[1], " \t ", lines[2]],
                 "line 3: 1 fields, the header has 9", id="whitespace-line"),
    pytest.param(lambda lines: [lines[0], lines[1].replace(",2.347,", ',"2.347",'), lines[2]],
                 None, id="quoted-number"),
    pytest.param(lambda lines: [lines[0], lines[1].replace(",2.347,", ",2_347,"), lines[2]],
                 None, id="underscore"),
    pytest.param(lambda lines: [line + "\r" for line in lines], None, id="crlf"),
    pytest.param(lambda lines: [lines[0], lines[1] + ",", lines[2]],
                 "line 2: 10 fields, the header has 9", id="trailing-comma"),
    pytest.param(lambda lines: lines[:1], None, id="header-only"),
    # numpy's parsers take these; int() and float() do not
    pytest.param(lambda lines: [lines[0], "1.0" + lines[1][1:], lines[2]],
                 "column site_id: invalid literal for int() with base 10: '1.0'",
                 id="float-site-id"),
    pytest.param(lambda lines: [lines[0], "1e3" + lines[1][1:], lines[2]],
                 "column site_id: invalid literal for int() with base 10: '1e3'",
                 id="exponent-site-id"),
    pytest.param(lambda lines: [lines[0], lines[1], "2,2.9" + lines[2][3:]],
                 "column municipality_id: invalid literal for int() with base 10: '2.9'",
                 id="float-municipality-id"),
    pytest.param(lambda lines: [lines[0], "\u2460" + lines[1][1:], lines[2]],
                 "column site_id: invalid literal for int() with base 10: '\u2460'",
                 id="non-ascii-digit"),
    pytest.param(lambda lines: [lines[0], lines[1].replace(",2.347,", ",2.347\x1c,"), lines[2]],
                 "column capacity_mw: could not convert string to float: '2.347\\x1c'",
                 id="separator-control"),
])
def test_read_malformed_candidate_rows(tmp_path, edit, message):
    """Each edited file gives the csv reader's table or its error."""
    write_instance(_full_instance(), str(tmp_path))
    path = tmp_path / "candidates.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    if message is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            instance = read_instance(str(tmp_path))
        assert same_bits(instance.sites, _read_sites_csv(str(path)))
        if len(instance.sites):
            assert instance.sites.ids.tolist() == [1, 2]
        else:
            assert "EmptyCandidates" in {v.kind for v in validate_instance(instance).violations}
    else:
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_instance(str(tmp_path))


@pytest.mark.parametrize("name, column, value", [
    ("candidates.csv", "capacity_mw", "99.0"),
    ("municipalities.csv", "population", "1.0"),
    ("existing.csv", "capacity_mw", "9.0"),
    ("transformers.csv", "voltage_kv", "20"),
])
def test_read_rejects_repeated_column(tmp_path, name, column, value):
    write_instance(_full_instance(), str(tmp_path))
    path = tmp_path / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0] + "," + column]
                              + [line + "," + value for line in lines[1:]]) + "\n")
    with pytest.raises(ValidationError, match=re.escape(f"{name}: repeated columns ['{column}']")):
        read_instance(str(tmp_path))
    assert main(["scale", "--instance", str(tmp_path), "--out", str(tmp_path / "s.csv")]) == 1


@pytest.mark.parametrize("fault, message", [
    (b"\xff", ": not UTF-8 text: invalid start byte b'\\xff'"),
    (b"9" * (csv.field_size_limit() + 1), ", line 2: field larger than field limit"),
], ids=["not-utf-8", "oversized-field"])
@pytest.mark.parametrize("name", ["candidates.csv", "municipalities.csv", "existing.csv",
                                  "transformers.csv"])
def test_non_utf8_or_oversized_field_is_validation_error(tmp_path, capsys, name, fault, message):
    write_instance(_full_instance(), str(tmp_path))
    path = tmp_path / name
    header, first, rest = path.read_bytes().split(b"\r\n", 2)
    path.write_bytes(b"\r\n".join([header, first + fault, rest]))
    assert main(["scale", "--instance", str(tmp_path), "--out", str(tmp_path / "s.csv")]) == 1
    assert f"{path}{message}" in capsys.readouterr().err


@pytest.mark.parametrize("name, column", [
    ("candidates.csv", "site_id"), ("candidates.csv", "municipality_id"),
    ("municipalities.csv", "municipality_id"), ("municipalities.csv", "state_id"),
    ("existing.csv", "municipality_id"),
])
def test_read_rejects_integers_beyond_int64(tmp_path, name, column):
    write_instance(_full_instance(), str(tmp_path))
    path = tmp_path / name
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[lines[0].split(",").index(column)] = str(2 ** 63)
    path.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    with pytest.raises(ValidationError, match=re.escape(
            f"{name}: column {column}: '{2 ** 63}' is not within int64")):
        read_instance(str(tmp_path))


def _random_table(rng, n, lengths):
    """A SiteTable of n rows whose floats mix ordinary values with the edge
    cases of float text: subnormals, +-1e308, -0.0, random bit patterns and
    integral values. lengths is "mixed" (some NaN), "nan" (all) or "some"."""
    special = [5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
               -0.0, 0.0, 3.0, 1e16, 1e-05, 0.1, 123456789.0, 1e22, 9007199254740993.0]

    def column():
        bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
        bits = np.where(np.isfinite(bits), bits, 1.5)
        pick = rng.integers(0, 3, n)
        return np.where(pick == 0, rng.choice(special, n),
                        np.where(pick == 1, bits, rng.normal(50.0, 20.0, n)))

    length = np.abs(column())
    if lengths == "mixed":
        length[rng.random(n) < 0.3] = np.nan
    elif lengths == "none":
        length[:] = np.nan
    ids = rng.permutation(np.arange(1, 10 * n))[:n] * rng.choice([1, -1, 10 ** 12], n)
    return SiteTable.from_columns(ids, rng.integers(-5, 2 ** 40, n),
                                  *(column() for _ in range(6)), network_length=length)


def _rewrite_csv(path, edit):
    """Rewrite a CSV through the csv module, each row (header included)
    replaced by edit(row)."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(edit(row) for row in rows)


@pytest.mark.parametrize("lengths", ["all", "mixed", "none", "empty-column"])
def test_fast_reader_equals_csv_reader(tmp_path, lengths):
    """The column file and the csv reader read written tables as written,
    and the csv reader a reordered header with an unknown quoted column,
    bit for bit; written tables survive write -> read -> write byte for
    byte. "none" writes no length column, "empty-column" adds one with
    every field empty."""
    rng = np.random.default_rng(len(lengths))
    for trial in range(5):
        table = _random_table(rng, 300, "none" if lengths == "empty-column" else lengths)
        out = tmp_path / str(trial)
        write_instance(Instance(sites=table, municipalities=MunicipalityTable.of([])), str(out))
        path = str(out / "candidates.csv")
        assert same_bits(_saved_sites(str(out)), table)
        again = tmp_path / f"{trial}-again"
        write_instance(read_instance(str(out)), str(again))
        assert (again / "candidates.csv").read_bytes() == (out / "candidates.csv").read_bytes()
        if lengths == "empty-column":
            _rewrite_csv(path, lambda row: row + ["network_length_km" if row[0] == "site_id"
                                                  else ""])
        for edit in (None, "reorder"):
            if edit:
                width = len(_CAND_HEADER) + (lengths != "none") + 1
                order = rng.permutation(width)
                _rewrite_csv(path, lambda row: [(row + ["note" if row[0] == "site_id"
                                                        else f"a,b {row[0]}"])[k] for k in order])
            assert same_bits(_read_sites_csv(path), table)


def _csv_writer_bytes(sites):
    """Test-local reference: candidates.csv as csv.writer writes it."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    with_lengths = not np.isnan(sites.network_length).all()
    w.writerow(["site_id", "municipality_id", "lat", "lon", "capacity_mw", "lcoe_ct_kwh",
                "scenicness", "full_load_hours"] + ["network_length_km"] * with_lengths)
    floats = (sites.lat, sites.lon, sites.caps, sites.lcoe, sites.scenicness,
              sites.full_load_hours)
    for k in range(len(sites)):
        row = [sites.ids[k].tolist(), sites.mun[k].tolist()] + [repr(c[k].tolist()) for c in floats]
        if with_lengths:
            x = sites.network_length[k].tolist()
            row.append("" if math.isnan(x) else repr(x))
        w.writerow(row)
    return buf.getvalue().encode()


@pytest.mark.parametrize("n, lengths", [(2 * _WRITE_BLOCK + 7, "mixed"), (_WRITE_BLOCK, "none"),
                                        (0, "none")])
def test_writer_matches_csv_writer(tmp_path, n, lengths):
    table = _random_table(np.random.default_rng(n), n, lengths)
    write_instance(Instance(sites=table, municipalities=MunicipalityTable.of([])), str(tmp_path))
    assert (tmp_path / "candidates.csv").read_bytes() == _csv_writer_bytes(table)


def test_read_sorts_by_id(tmp_path):
    inst = mk_instance([mk_site(2), mk_site(1)])
    write_instance(inst, str(tmp_path))
    loaded = read_instance(str(tmp_path))
    assert loaded.sites.ids.tolist() == [1, 2]


def test_site_table_sorts_shuffled_candidates():
    sites = [mk_site(7, mun=3, capacity=7.0, lcoe=7.5, scenicness=1.7, flh=70.0, length=0.7),
             mk_site(2, mun=5, capacity=2.0, lcoe=2.5, scenicness=1.2, flh=20.0, length=None),
             mk_site(9, mun=5, capacity=9.0, lcoe=9.5, scenicness=1.9, flh=90.0, length=0.9),
             mk_site(4, mun=3, capacity=4.0, lcoe=4.5, scenicness=1.4, flh=40.0, length=0.4),
             mk_site(5, mun=1, capacity=5.0, lcoe=5.5, scenicness=1.5, flh=50.0, length=0.5)]
    table = SiteTable.of(sites)
    assert len(table) == 5
    assert table.ids.tolist() == [2, 4, 5, 7, 9]
    assert table.mun.tolist() == [5, 3, 1, 3, 5]
    assert table.caps.tolist() == [2.0, 4.0, 5.0, 7.0, 9.0]
    assert table.lcoe.tolist() == [2.5, 4.5, 5.5, 7.5, 9.5]
    assert table.scenicness.tolist() == [1.2, 1.4, 1.5, 1.7, 1.9]
    assert table.full_load_hours.tolist() == [20.0, 40.0, 50.0, 70.0, 90.0]
    assert np.isnan(table.network_length[0])
    assert table.network_length[1:].tolist() == [0.4, 0.5, 0.7, 0.9]
    # rows grouped by municipality, ascending within each group
    assert table.by_mun.tolist() == [2, 1, 3, 0, 4]
    assert table.mun[table.by_mun].tolist() == [1, 3, 3, 5, 5]
    with pytest.raises(ValueError):
        table.caps[0] = 1.0


def test_site_table_rows_keep_input_order():
    table = SiteTable.of([mk_site(7, lat=47.0, lon=7.0), mk_site(2, lat=42.0, lon=2.0),
                          mk_site(9, lat=49.0, lon=9.0)])
    rows = table.rows([9, 2, 7])
    assert rows.tolist() == [2, 0, 1]
    assert table.lat[rows].tolist() == [49.0, 42.0, 47.0]
    assert table.lon[rows].tolist() == [9.0, 2.0, 7.0]
    empty = table.rows(())
    assert empty.size == 0 and empty.dtype.kind == "i"
    # unknown ids below, between and above the table's ids are all named
    for unknown in (1, 8, 10):
        with pytest.raises(ValidationError, match=rf"unknown site ids \[{unknown}\]"):
            table.rows([2, unknown, 9])
    # in an empty table no id is known
    nothing = SiteTable.of([])
    assert nothing.rows(()).size == 0
    with pytest.raises(ValidationError, match=r"unknown site ids \[3, 1\]"):
        nothing.rows([3, 1])


def test_municipality_table_sorts_records_and_sums_per_row():
    muns = MunicipalityTable.of([
        mk_mun(7, population=70.0, region="South", state=2, area=7.5, existing=1.5, name="g"),
        mk_mun(2, population=20.0, state=3, area=2.5, name="b"),
        mk_mun(4, population=40.0, region="South", state=2, area=4.5, name="d")])
    assert len(muns) == 3
    assert muns.ids.tolist() == [2, 4, 7]
    assert muns.name.tolist() == ["b", "d", "g"]
    assert muns.population.tolist() == [20.0, 40.0, 70.0]
    assert muns.region_tag.tolist() == ["NonSouth", "South", "South"]
    assert muns.state_id.tolist() == [3, 2, 2]
    assert muns.area.tolist() == [2.5, 4.5, 7.5]
    assert muns.existing_capacity.tolist() == [0.0, 0.0, 1.5]
    with pytest.raises(ValueError):
        muns.population[0] = 1.0
    # ids not in the table have no row, below, between and above its ids
    assert muns.rows([7, 1, 2, 3, 4, 8]).tolist() == [2, -1, 0, -1, 1, -1]
    assert MunicipalityTable.of([]).rows([1]).tolist() == [-1]
    # totals are added in the order given: (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    total = muns.total([4, 9, 4, 2, 4], [0.1, 5.0, 0.2, 1.0, 0.3])
    assert total.tolist() == [1.0, (0.1 + 0.2) + 0.3, 0.0]
    assert total[1] != (0.3 + 0.2) + 0.1
    turbines = [ExistingTurbine(turbine_id=1, municipality_id=2, lat=50.0, lon=10.0,
                                capacity=2.5)]
    assert muns.with_turbines(turbines).existing_capacity.tolist() == [2.5, 0.0, 0.0]


class _MunicipalityRecordUses(ast.NodeVisitor):
    """Every use of the Municipality record, and every loop over an
    `.municipalities` attribute."""

    def __init__(self):
        self.found = []

    def visit_Name(self, node):
        if node.id == "Municipality":
            self.found.append(f"line {node.lineno}: names Municipality")

    def _loop(self, iterable):
        if isinstance(iterable, ast.Attribute) and iterable.attr == "municipalities":
            self.found.append(f"line {iterable.lineno}: iterates .municipalities")

    def visit_For(self, node):
        self._loop(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node):
        self._loop(node.iter)
        self.generic_visit(node)


def test_municipality_records_have_one_home():
    # the municipalities are a column table: only domain, where hand-built
    # records become a table, uses the record or walks the table's rows
    package = os.path.dirname(windplan.__file__)
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "domain.py":
            uses = _MunicipalityRecordUses()
            with open(os.path.join(package, name), encoding="utf-8") as f:
                uses.visit(ast.parse(f.read(), name))
            if uses.found:
                found[name] = uses.found
    assert found == {}


# -- the column file beside candidates.csv --------------------------------------

SPEC = SynthSpec(seed=404, n_sites=250, n_municipalities=12, n_states=3, n_transformers=6,
                 n_existing=5)


def _pool(kind):
    """An instance whose pool is of the given kind."""
    if kind == "synth":
        return generate(SPEC)
    if kind == "prepped":
        return prep_instance(generate(SPEC))[0]
    if kind == "negative-zero":
        sites = SiteTable.of([mk_site(1, lat=-0.0, lon=-0.0, length=-0.0),
                              mk_site(2, lcoe=-0.0, flh=-0.0, length=None)])
    elif kind == "empty":
        sites = SiteTable.of([])
    else:
        sites = _random_table(np.random.default_rng(11), 300,
                              "mixed" if kind == "nan-lengths" else "none")
        if kind == "nan-lengths":
            # NaNs that are not the reader's: the sign bit set, another payload
            nan = np.isnan(sites.network_length)
            lat = sites.lat.copy()
            lat[:3] = np.array([0x7FF8_0000_0000_0001, 0xFFF8_0000_0000_0000,
                                0x7FF0_0000_0000_0002], dtype=np.uint64).view(np.float64)
            sites = SiteTable.from_columns(
                sites.ids, sites.mun, lat, sites.lon, sites.caps, sites.lcoe,
                sites.scenicness, sites.full_load_hours,
                np.where(nan, -np.nan, sites.network_length))
    return Instance(sites=sites, municipalities=MunicipalityTable.of([mk_mun(1)]))


@pytest.mark.parametrize("kind", ["synth", "prepped", "nan-lengths", "negative-zero",
                                  "no-lengths", "empty"])
def test_column_file_read_equals_csv_read(tmp_path, kind):
    """A read through candidates.npz gives, bit for bit, the table that
    parsing candidates.csv gives once the column file is deleted."""
    write_instance(_pool(kind), str(tmp_path))
    assert _saved_sites(str(tmp_path)) is not None
    from_file = read_instance(str(tmp_path)).sites
    os.remove(tmp_path / CANDIDATES_COLUMN_FILE)
    assert _saved_sites(str(tmp_path)) is None
    from_csv = read_instance(str(tmp_path)).sites
    assert same_bits(from_file, from_csv)
    assert from_file.by_mun.tobytes() == from_csv.by_mun.tobytes()


_UNPICKLED = []


def _unpickle_tripwire(*args):
    _UNPICKLED.append(args)


class _Tripwire:
    """An object whose unpickling is recorded in _UNPICKLED."""

    def __reduce__(self):
        return _unpickle_tripwire, ("unpickled",)


def _resaved(edit):
    """A column-file edit that re-saves its entries as edit(entries) gives them."""
    def apply(path):
        with np.load(path) as saved:
            entries = dict(saved)
        np.savez(path, **edit(entries))
    return apply


def _replaced(name, value):
    return _resaved(lambda e: {**e, name: value(e[name])})


def _overwritten(data):
    """A column-file edit that replaces its bytes by data(bytes)."""
    def apply(path):
        with open(path, "rb") as f:
            saved = f.read()
        with open(path, "wb") as f:
            f.write(data(saved))
    return apply


@pytest.mark.parametrize("damage", [
    pytest.param(_overwritten(lambda b: b[:len(b) // 2]), id="truncated"),
    pytest.param(_overwritten(lambda b: b[:-1]), id="last-byte-cut"),
    pytest.param(_overwritten(lambda b: bytes(range(256)) * 40), id="garbage"),
    pytest.param(_overwritten(lambda b: b""), id="empty-file"),
    pytest.param(_overwritten(lambda b: pickle.dumps(_Tripwire())), id="pickle"),
    pytest.param(_replaced("lcoe", lambda c: c.astype(np.float32)), id="float32-column"),
    pytest.param(_replaced("ids", lambda c: c.astype(">i8")), id="big-endian-ids"),
    pytest.param(_replaced("network_length", lambda c: c[:-1]), id="short-column"),
    pytest.param(_replaced("caps", lambda c: c.reshape(1, -1)), id="matrix-column"),
    pytest.param(_resaved(lambda e: {k: v for k, v in e.items() if k != "scenicness"}),
                 id="missing-column"),
    pytest.param(_replaced("lcoe", lambda c: np.array([_Tripwire()] * c.size, dtype=object)),
                 id="object-column"),
    pytest.param(_replaced("csv_sha256", lambda d: np.array([_Tripwire()], dtype=object)),
                 id="object-digest"),
    pytest.param(_replaced("csv_sha256", lambda d: d[::-1]), id="other-digest"),
])
def test_damaged_column_file_is_ignored(tmp_path, damage):
    """A column file that is not what write_instance saves for this CSV
    gives way to the CSV: nothing raises and nothing is unpickled."""
    write_instance(_full_instance(), str(tmp_path))
    damage(str(tmp_path / CANDIDATES_COLUMN_FILE))
    _UNPICKLED.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _saved_sites(str(tmp_path)) is None
        sites = read_instance(str(tmp_path)).sites
    assert same_bits(sites, _read_sites_csv(str(tmp_path / "candidates.csv")))
    assert same_bits(sites, _full_instance().sites)
    assert _UNPICKLED == []


@pytest.mark.parametrize("length", [math.inf, -math.inf])
def test_infinite_length_leaves_no_column_file(tmp_path, length):
    write_instance(_full_instance(), str(tmp_path))
    assert (tmp_path / CANDIDATES_COLUMN_FILE).is_file()
    write_instance(with_network_lengths(_full_instance(), [length, math.nan]), str(tmp_path))
    assert not (tmp_path / CANDIDATES_COLUMN_FILE).exists()
    with pytest.raises(ValidationError,
                       match=re.escape(f"site 1: network_length_km '{length!r}' is not finite")):
        read_instance(str(tmp_path))


def test_column_file_bytes_depend_on_the_table_alone(tmp_path):
    inst = _pool("prepped")
    path = tmp_path / "a" / CANDIDATES_COLUMN_FILE
    write_instance(inst, str(tmp_path / "a"))
    first = path.read_bytes()
    write_instance(inst, str(tmp_path / "a"))
    assert path.read_bytes() == first
    write_instance(read_instance(str(tmp_path / "a")), str(tmp_path / "b"))
    assert (tmp_path / "b" / CANDIDATES_COLUMN_FILE).read_bytes() == first


# -- the column files beside the three small CSVs ---------------------------------

_SMALL = {"municipalities": _MUN_SCHEMA, "existing": _EXISTING_SCHEMA,
          "transformers": _TRANSFORMER_SCHEMA}
_NANS = np.array([0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0000, 0x7FF0_0000_0000_0002],
                 dtype=np.uint64).view(np.float64).tolist()  # the reader's NaN, then two others


def _small_instance(name="a,b", region="South", turbine_id=7, transformer_id=3, voltage=110):
    """An instance whose small tables hold names that need quoting or are
    not ASCII, an empty name, NaNs of several kinds, -0.0, and records out
    of id order with a repeated id."""
    muns = MunicipalityTable.from_columns(
        [3, 1, 2, 4, 5], [name, 'say "hi"', "Köln – 東京 ß", "", "x\r\ny"],
        [_NANS[1], -0.0, 1e300, 5e-324, 2.5], [region, "NonSouth", "South", "NonSouth", "South"],
        [1, 2, 1, 2, 3], [12.5, _NANS[2], -0.0, 1.0, math.inf])
    existing = [ExistingTurbine(turbine_id, 1, _NANS[1], -0.0, 1.5),
                ExistingTurbine(2, 2, 50.0, _NANS[2], 2.0),
                ExistingTurbine(2, 3, -0.0, 9.9, 0.5)]
    transformers = [Transformer(transformer_id, _NANS[1], -0.0, voltage),
                    Transformer(1, -0.0, _NANS[2], 20),
                    Transformer(1, 47.0, 8.0, 110)]
    return Instance(sites=SiteTable.of([mk_site(1), mk_site(2, mun=2)]),
                    municipalities=muns.with_turbines(existing), existing=existing,
                    transformers=transformers)


def _small_saved(directory, name):
    """The columns that the small table's column file alone gives, or None
    where read_instance would parse the CSV instead."""
    return _saved_columns(os.path.join(directory, f"{name}.csv"), _SMALL[name], None)


def _bits(x):
    """A value as its type and, for a float, its 8 bytes, NaN and -0.0 included."""
    return type(x), struct.pack("<d", x) if isinstance(x, float) else x


def _small_bits(inst):
    muns = inst.municipalities
    return ([list(map(_bits, getattr(muns, c).tolist())) for c in MUN_COLUMNS],
            [tuple(map(_bits, astuple(t))) for t in inst.existing],
            [tuple(map(_bits, astuple(t))) for t in inst.transformers])


def _csv_read(directory):
    """The instance that parsing the CSVs alone gives."""
    for name in _SMALL:
        path = os.path.join(directory, f"{name}.npz")
        if os.path.exists(path):
            os.remove(path)
    return read_instance(directory)


def test_small_column_files_read_equals_csv_read(tmp_path, monkeypatch):
    """A read through the three column files gives, bit for bit, the tables
    that parsing the CSVs gives, and parses no CSV; every NaN comes back as
    the reader's NaN."""
    write_instance(_small_instance(), str(tmp_path))
    assert all(_small_saved(str(tmp_path), name) is not None for name in _SMALL)
    parsed = []
    monkeypatch.setattr(windplan.domain, "_read_columns", lambda *a: parsed.append(a))
    from_files = read_instance(str(tmp_path))
    assert parsed == []
    monkeypatch.undo()
    from_csv = _csv_read(str(tmp_path))
    assert _small_bits(from_files) == _small_bits(from_csv)
    assert from_csv.municipalities.name.tolist() == [
        'say "hi"', "Köln – 東京 ß", "a,b", "", "x\r\ny"]
    assert [t.turbine_id for t in from_csv.existing] == [2, 2, 7]
    assert [t.municipality_id for t in from_csv.existing] == [2, 3, 1]
    nan_bits = {_bits(x) for x in (from_csv.municipalities.population[2].item(),
                                   from_csv.existing[2].lat, from_csv.transformers[2].lat)}
    assert nan_bits == {_bits(_NANS[0])}


_OTHER = {"municipalities": "existing", "existing": "transformers",
          "transformers": "municipalities"}


def _append_first_row(path):
    """The CSV with its first row, a one-line one, written again at its end."""
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "ab") as f:
        f.write(data.splitlines(keepends=True)[1])


def _foreign_with_digest(path, name):
    """The columns of another table saved with this table's CSV digest."""
    csv_path = os.path.splitext(path)[0] + ".csv"
    with np.load(os.path.join(os.path.dirname(path), f"{_OTHER[name]}.npz")) as saved:
        entries = dict(saved)
    entries["csv_sha256"] = np.frombuffer(bytes.fromhex(file_sha256(csv_path)), dtype=np.uint8)
    np.savez(path, **entries)


@pytest.mark.parametrize("name", list(_SMALL))
@pytest.mark.parametrize("change", ["edited-csv", "truncated", "foreign", "foreign-digest"])
def test_small_column_file_falls_back_to_csv(tmp_path, name, change):
    """An edited CSV, a damaged column file or a foreign one gives way to
    the CSV, without a warning."""
    write_instance(_small_instance(), str(tmp_path))
    path = str(tmp_path / f"{name}.npz")
    if change == "edited-csv":
        _append_first_row(str(tmp_path / f"{name}.csv"))
    elif change == "truncated":
        _overwritten(lambda b: b[:len(b) // 2])(path)
    elif change == "foreign":
        shutil.copy(tmp_path / f"{_OTHER[name]}.npz", path)
    else:
        _foreign_with_digest(path, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _small_saved(str(tmp_path), name) is None
        loaded = read_instance(str(tmp_path))
    assert _small_bits(loaded) == _small_bits(_csv_read(str(tmp_path)))
    if change == "edited-csv":  # the row written again is read twice
        assert len(loaded.municipalities) + len(loaded.existing) + len(loaded.transformers) == 12


@pytest.mark.parametrize("name, instance, kept", [
    ("municipalities", _small_instance(name="abc\x00"),
     lambda inst: "abc\x00" in inst.municipalities.name.tolist()),
    ("municipalities", _small_instance(region="South\x00"),
     lambda inst: "South\x00" in inst.municipalities.region_tag.tolist()),
    ("existing", _small_instance(turbine_id=2**63),
     lambda inst: inst.existing[-1].turbine_id == 2**63),
    ("transformers", _small_instance(transformer_id=-2**63 - 1),
     lambda inst: inst.transformers[0].transformer_id == -2**63 - 1),
    ("transformers", _small_instance(voltage=2**64),
     lambda inst: inst.transformers[-1].voltage_kv == 2**64),
    ("existing", _small_instance(turbine_id=1.0), None),
], ids=["nul-name", "nul-region", "turbine-id-beyond-int64", "transformer-id-beyond-int64",
        "voltage-beyond-int64", "float-turbine-id"])
def test_small_table_that_does_not_round_trip_gets_no_column_file(tmp_path, name, instance,
                                                                  kept):
    """A string numpy would shorten, an integer beyond int64 or a value the
    reader rejects leaves no column file, and removes an old one, so the
    read takes the CSV as it is: the value is kept, or the error is the
    CSV's."""
    write_instance(_small_instance(), str(tmp_path))
    assert (tmp_path / f"{name}.npz").is_file()
    write_instance(instance, str(tmp_path))
    assert not (tmp_path / f"{name}.npz").exists()
    assert all((tmp_path / f"{other}.npz").is_file() for other in _SMALL if other != name)
    if kept is None:
        with pytest.raises(ValidationError, match="column turbine_id"):
            read_instance(str(tmp_path))
    else:
        assert kept(read_instance(str(tmp_path)))


def test_missing_existing_csv_ignores_leftover_column_file(tmp_path):
    write_instance(_small_instance(), str(tmp_path))
    os.remove(tmp_path / "existing.csv")
    loaded = read_instance(str(tmp_path))
    assert loaded.existing == []
    assert loaded.municipalities.existing_capacity.tolist() == [0.0] * 5
    assert len(loaded.transformers) == 3
