import json
import math
import os
import re
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dtofsim import (ConfigError, apd, cli, detectors, scenario, scene_link,
                     sipm, tdc)
from dtofsim.apd import ApdParams
from dtofsim.detectors import SipmChoice
from dtofsim.errors import copy_with
from dtofsim.ranging import snr_at_range
from dtofsim.scene_link import (AtmosphereModel, LaserParams, ReceiverOptics,
                                SceneGeometry, SolarModel, TargetModel)
from dtofsim.scenario import (ScenarioConfig, config_from_dict, load_scenario,
                              save_scenario, scenario_to_dict, table1_preset)
from dtofsim.sipm import SipmMcConfig, SipmParams
from dtofsim.sweeps import (MAX_GRID_POINTS, STATUS_OK, SweepResult,
                            SweepRow, SweepSpec, csv_lines, emit_csv,
                            emit_svg, make_grid, run_sweep)
from dtofsim.tdc import TdcPolicy


class TestTable1Preset:
    def test_common_values(self):
        config = table1_preset("apd")
        assert config.laser.peak_power_w == 45.0
        assert config.laser.wavelength_m == pytest.approx(905e-9)
        assert config.laser.pulse_fwhm_s == pytest.approx(6e-9)
        assert config.target.reflectivity == pytest.approx(0.1)
        assert config.atmosphere.one_way_transmittance == pytest.approx(0.98)
        assert config.optics.laser_efficiency == pytest.approx(0.7206)
        assert config.optics.sun_efficiency == pytest.approx(0.7986)
        assert config.optics.aperture_radius_m == 0.025
        assert config.optics.focal_length_m == 0.03
        assert config.optics.detector_radius_m == pytest.approx(1e-4)
        assert config.scene.sun_angle_rad == pytest.approx(math.pi / 3)
        assert config.solar.illuminance_klux == 100.0
        assert config.solar.reference_irradiance_w_m2 == 29.4
        assert config.bandwidth_hz == pytest.approx(167e6)
        assert config.tdc.tnr == 5.0

    def test_apd_block(self):
        det = table1_preset("apd").detector
        assert det.label == "apd"
        p = det.params
        assert p.gain == 80.0
        assert p.quantum_efficiency == pytest.approx(0.7)
        assert p.excess_noise_index == 0.3
        assert p.surface_dark_current_a == pytest.approx(1e-10)
        assert p.bulk_dark_current_a == pytest.approx(1e-10)
        assert p.load_resistance_ohm == 10000.0
        assert p.wavelength_m == pytest.approx(905e-9)

    def test_sipm_block(self):
        det = table1_preset("sipm").detector
        assert det.label == "sipm"
        assert det.snr_mode == "analytic"
        p = det.params
        assert p.n_pixels == 400
        assert p.pde == pytest.approx(0.22)
        assert p.dead_time_s == pytest.approx(6e-9)
        assert p.dark_count_rate_cps == 2007.0

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            table1_preset("pmt")


class TestRoundTrip:
    @pytest.mark.parametrize("variant", ["apd", "sipm"])
    def test_save_load_identity(self, tmp_path, variant):
        config = table1_preset(variant)
        path = tmp_path / f"{variant}.json"
        save_scenario(config, str(path))
        assert load_scenario(str(path)) == config

    def test_save_is_deterministic(self, tmp_path):
        config = table1_preset("apd")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(config, str(a))
        save_scenario(config, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_value_built_in_code_may_read_back_a_ulp_away(self, tmp_path):
        # 0.22·e^0.002 has no percentage that converts back to it exactly
        pde = 0.22 * math.exp(0.002)
        assert pde == 0.22044044029348006
        base = table1_preset("sipm")
        params = replace(base.detector.params, pde=pde)
        config = replace(base, detector=replace(base.detector, params=params))
        assert scenario_to_dict(config)["detector"]["pde_pct"] \
            == 22.044044029348004
        path = tmp_path / "pde.json"
        save_scenario(config, str(path))
        loaded = load_scenario(str(path))
        assert loaded.detector.params.pde == 0.22044044029348003
        assert loaded.detector.params.pde == math.nextafter(pde, 0.0)
        save_scenario(loaded, str(path))
        assert load_scenario(str(path)) == loaded

    def test_spectrum_file_holds_only_the_rows(self, tmp_path):
        # the solar model's integral, worked out when it is built, is no
        # key of the file
        base = table1_preset("apd")
        rows = ((890.0, 1.0, 0.5), (920.0, 1.0, 0.5))
        config = replace(base, solar=SolarModel(mode="spectrum_integral",
                                                spectrum_table=rows))
        path = tmp_path / "spectrum.json"
        save_scenario(config, str(path))
        expected = dict(scenario_to_dict(base), solar={
            "mode": "spectrum_integral",
            "spectrum": [[890.0, 1.0, 0.5], [920.0, 1.0, 0.5]]})
        assert path.read_bytes() == (json.dumps(expected, indent=2)
                                     + "\n").encode("utf-8")

    def test_round_trip_with_mc_block(self, tmp_path):
        config = table1_preset("sipm")
        data = scenario_to_dict(config)
        data["detector"]["snr_mode"] = "monte_carlo"
        data["detector"]["mc"] = {"n_trials": 64, "time_step_ns": 0.1,
                                  "pulse_shape": "gaussian", "seed": 9,
                                  "warmup_ns": 60.0, "n_noise_periods": 12}
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        loaded = load_scenario(str(path))
        assert loaded.detector.snr_mode == "monte_carlo"
        assert loaded.detector.mc.n_trials == 64
        assert loaded.detector.mc.pulse_shape == "gaussian"
        path2 = tmp_path / "mc2.json"
        save_scenario(loaded, str(path2))
        assert load_scenario(str(path2)) == loaded


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _spectrum_rows(wavelengths):
    return st.tuples(*[st.tuples(st.just(wl), _floats(0.0, 2.0),
                                 _floats(0.0, 1.0)).map(list)
                       for wl in sorted(wavelengths)]).map(list)


_ATMOSPHERES = st.one_of(
    st.fixed_dictionaries({"mode": st.just("fixed_transmittance"),
                           "one_way_transmittance_pct": _floats(1e-3, 100.0)}),
    st.fixed_dictionaries({"mode": st.just("extinction"),
                           "extinction_coeff_per_m": _floats(0.0, 0.1)}))
_SOLARS = st.one_of(
    st.fixed_dictionaries({"mode": st.just("direct_irradiance"),
                           "in_band_irradiance_w_m2": _floats(0.0, 100.0)}),
    st.fixed_dictionaries(
        {"mode": st.just("illuminance_scaled"),
         "illuminance_klux": _floats(0.0, 150.0)},
        optional={"reference_illuminance_klux": _floats(1.0, 150.0),
                  "reference_irradiance_w_m2": _floats(0.0, 100.0)}),
    st.fixed_dictionaries(
        {"mode": st.just("spectrum_integral"),
         "spectrum": st.lists(_floats(300.0, 2000.0), min_size=2, max_size=5,
                              unique=True).flatmap(_spectrum_rows)}))
_APD_COMMON = {"type": st.just("apd"), "gain": _floats(1.0, 300.0),
               "quantum_efficiency_pct": _floats(1e-3, 100.0),
               "load_resistance_ohm": _floats(1.0, 1e6)}
_APD_OPTIONAL = {"excess_noise_index": _floats(0.0, 1.0),
                 "surface_dark_current_na": _floats(0.0, 10.0),
                 "bulk_dark_current_na": _floats(0.0, 10.0),
                 "temperature_k": _floats(1.0, 500.0),
                 "amplifier_noise_na": _floats(0.0, 10.0)}
_MC_BLOCKS = st.fixed_dictionaries({}, optional={
    "n_trials": st.integers(2, 5000), "time_step_ns": _floats(1e-3, 10.0),
    "pulse_shape": st.sampled_from(["rectangular", "gaussian"]),
    "seed": st.integers(0, 2 ** 63), "warmup_ns": _floats(0.0, 1e3),
    "n_noise_periods": st.integers(2, 100)})
_DETECTORS = st.one_of(
    st.fixed_dictionaries({**_APD_COMMON,
                           "excess_noise_mode": st.just("power_law")},
                          optional=_APD_OPTIONAL),
    st.fixed_dictionaries({**_APD_COMMON,
                           "excess_noise_mode": st.just("ionization"),
                           "electron_ionization_rate": _floats(0.0, 1.0)},
                          optional=_APD_OPTIONAL),
    # dark load N * DCR * tau stays below the warning threshold
    st.fixed_dictionaries(
        {"type": st.just("sipm"), "n_pixels": _floats(1.0, 1000.0),
         "pde_pct": _floats(1e-3, 100.0), "dead_time_ns": _floats(0.1, 10.0)},
        optional={"dark_count_rate_cps": _floats(0.0, 500.0),
                  "snr_mode": st.sampled_from(["analytic", "approx",
                                               "monte_carlo"]),
                  "mc": _MC_BLOCKS}))
_SCENARIOS = st.fixed_dictionaries({
    "schema_version": st.just(1),
    "scene": st.fixed_dictionaries({}, optional={
        "range_m": _floats(0.1, 1e4),
        "incidence_angle_deg": _floats(0.0, 89.0),
        "elevation_angle_deg": _floats(-89.0, 89.0),
        "sun_angle_deg": _floats(0.0, 90.0)}),
    "atmosphere": _ATMOSPHERES,
    "optics": st.fixed_dictionaries({
        "aperture_radius_m": _floats(1e-4, 0.5),
        "focal_length_m": _floats(1e-3, 1.0),
        "detector_radius_mm": _floats(1e-3, 10.0),
        "laser_efficiency_pct": _floats(1e-3, 100.0),
        "sun_efficiency_pct": _floats(1e-3, 100.0)},
        optional={"aperture_model": st.sampled_from(["constant", "cosine"])}),
    "target": st.fixed_dictionaries(
        {"reflectivity_pct": _floats(0.0, 100.0)},
        optional={"extends_beyond_spot": st.just(True)}),
    "laser": st.fixed_dictionaries(
        {"peak_power_w": _floats(1e-3, 1e3),
         "wavelength_nm": _floats(301.0, 1999.0),
         "pulse_fwhm_ns": _floats(0.01, 100.0)},
        optional={"repetition_khz": _floats(0.0, 1e4)}),  # legacy
    "solar": _SOLARS,
    "tdc": st.fixed_dictionaries(
        {"tnr": _floats(0.1, 10.0)},
        optional={"window_us": _floats(0.1, 100.0),  # legacy
                  "bandwidth_mhz": _floats(10.0, 1e3)}),
    "bandwidth_mhz": _floats(1.0, 1e3),
    "detector": _DETECTORS,
})


class TestSchemaRoundTrip:
    """Every schema branch: atmosphere and solar modes, APD excess-noise
    modes, a SiPM with and without an mc block, optional keys present or
    absent."""

    @settings(max_examples=300, deadline=None)
    @given(data=_SCENARIOS)
    def test_save_load_round_trip(self, data):
        config = config_from_dict(data)
        with tempfile.TemporaryDirectory() as tmp:
            first = os.path.join(tmp, "first.json")
            second = os.path.join(tmp, "second.json")
            save_scenario(config, first)
            loaded = load_scenario(first)
            assert loaded == config
            save_scenario(loaded, second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()

    def test_readme_schema_table_lists_every_key(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        start = text.index("| section | keys (units) |")
        table = text[start:text.index("\n\n", start)]
        tables = [scenario._SCENE, *scenario._ATMOSPHERE.values(),
                  scenario._OPTICS, scenario._TARGET, scenario._LASER,
                  *scenario._SOLAR.values(), scenario._TDC, scenario._TOP,
                  *scenario._DETECTOR.values(), scenario._SIPM_CHOICE,
                  scenario._MC]
        keys = {row[0] for rows in tables for row in rows}
        assert sorted(k for k in keys if f"`{k}`" not in table) == []


class TestLoadValidation:
    def write_config(self, tmp_path, mutate):
        data = scenario_to_dict(table1_preset("apd"))
        mutate(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def test_reflectivity_violation_names_field(self, tmp_path):
        path = self.write_config(
            tmp_path, lambda d: d["target"].update(reflectivity_pct=150.0))
        with pytest.raises(ConfigError, match="reflectivity"):
            load_scenario(path)

    def test_missing_detector_names_section(self, tmp_path):
        path = self.write_config(tmp_path, lambda d: d.pop("detector"))
        with pytest.raises(ConfigError, match="detector"):
            load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write_config(
            tmp_path, lambda d: d["laser"].update(peek_power_w=45.0))
        with pytest.raises(ConfigError, match="peek_power_w"):
            load_scenario(path)

    def test_schema_version_checked(self, tmp_path):
        path = self.write_config(
            tmp_path, lambda d: d.update(schema_version=99))
        with pytest.raises(ConfigError, match="schema_version"):
            load_scenario(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "scene": }',
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="broken.json:2"):
            load_scenario(str(path))

    def test_spectrum_csv_mode(self, tmp_path):
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("wavelength_nm,irradiance_w_m2_nm,transmittance\n"
                            "890,1.0,0.5\n920,1.0,0.5\n", encoding="utf-8")
        path = self.write_config(
            tmp_path, lambda d: d.update(
                solar={"mode": "spectrum_integral", "spectrum_csv": "spectrum.csv"}))
        config = load_scenario(path)
        assert config.solar.spectrum_table == ((890.0, 1.0, 0.5),
                                               (920.0, 1.0, 0.5))

    def test_utf8_bom_loads_like_plain(self, tmp_path):
        # spreadsheets and some editors start UTF-8 files with a BOM
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("wavelength_nm,irradiance_w_m2_nm,transmittance\n"
                            "890,1.0,0.5\n920,1.0,0.5\n", encoding="utf-8")
        path = self.write_config(
            tmp_path, lambda d: d.update(
                solar={"mode": "spectrum_integral", "spectrum_csv": "spectrum.csv"}))
        plain = load_scenario(path)
        for f in (Path(path), spectrum):
            f.write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
        assert load_scenario(path) == plain

    @pytest.mark.parametrize("section,key", [
        ("laser", "peak_power_w"), ("laser", "repetition_khz"),
        ("scene", "range_m"), ("optics", "aperture_model"),
        ("target", "extends_beyond_spot"), ("detector", "amplifier_noise_na")])
    def test_null_rejected_names_key(self, tmp_path, section, key):
        path = self.write_config(
            tmp_path, lambda d: d[section].update({key: None}))
        with pytest.raises(ConfigError, match=f"{section}.{key}: null"):
            load_scenario(path)

    def test_null_section_rejected(self, tmp_path):
        path = self.write_config(tmp_path, lambda d: d.update(solar=None))
        with pytest.raises(ConfigError, match="solar: null"):
            load_scenario(path)

    def mc_config(self, tmp_path, **mc):
        data = scenario_to_dict(table1_preset("sipm"))
        data["detector"]["mc"] = mc
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("key,value", [
        ("n_trials", 2.7), ("seed", 1.5), ("n_noise_periods", 20.25),
        ("n_trials", "64"), ("seed", True)])
    def test_integer_keys_must_be_integral(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"mc.{key}: expected"):
            load_scenario(self.mc_config(tmp_path, **{key: value}))

    def test_integral_floats_load_as_int(self, tmp_path):
        mc = load_scenario(self.mc_config(
            tmp_path, n_trials=64.0, seed=7.0, n_noise_periods=12)).detector.mc
        assert (mc.n_trials, mc.seed, mc.n_noise_periods) == (64, 7, 12)
        assert all(type(v) is int
                   for v in (mc.n_trials, mc.seed, mc.n_noise_periods))

    @pytest.mark.parametrize("mc", [{"seed": -1}, {"n_trials": 1}])
    def test_mc_seed_and_trial_count_checked(self, tmp_path, mc):
        with pytest.raises(ConfigError, match="seed|n_trials"):
            load_scenario(self.mc_config(tmp_path, **mc))

    def test_empty_mc_block_is_the_default(self, tmp_path):
        det = load_scenario(self.mc_config(tmp_path)).detector
        assert det.mc == table1_preset("sipm").detector.mc_config()

    @pytest.mark.parametrize("section,key", [
        ("laser", "peak_power_w"), ("detector", "mc.n_trials")])
    def test_oversized_integer_names_key(self, tmp_path, section, key):
        # 10**400 has no float; the float and the integer reader reject it
        data = scenario_to_dict(table1_preset("sipm"))
        if key.startswith("mc."):
            data[section]["mc"] = {key[3:]: 10 ** 400}
        else:
            data[section][key] = 10 ** 400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{section}.{key}: number too"):
            load_scenario(str(path))

    @pytest.mark.parametrize("section,key,value", [
        ("detector", "gain", math.inf), (None, "bandwidth_mhz", math.inf),
        ("optics", "aperture_radius_m", -math.inf),
        ("scene", "range_m", math.inf), ("tdc", "tnr", math.nan),
        ("laser", "repetition_khz", math.inf)])
    def test_non_finite_number_names_key(self, tmp_path, section, key,
                                          value):
        # json reads the non-standard NaN, Infinity and -Infinity literals
        path = self.write_config(tmp_path, lambda d: (
            d[section] if section else d).update({key: value}))
        where = f"scenario.{section}.{key}" if section else f"scenario.{key}"
        with pytest.raises(ConfigError, match=re.escape(
                f"json: {where}: {value!r} is not a finite number")):
            load_scenario(path)

    def test_overflowing_literal_names_key(self, tmp_path):
        # json reads 1e400 as inf
        path = Path(self.write_config(tmp_path, lambda d: None))
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"peak_power_w": 45.0',
                                     '"peak_power_w": 1e400'),
                        encoding="utf-8")
        with pytest.raises(ConfigError,
                           match="laser.peak_power_w: inf is not a finite"):
            load_scenario(str(path))

    def test_non_finite_spectrum_rejected(self, tmp_path):
        path = self.write_config(tmp_path, lambda d: d.update(solar={
            "mode": "spectrum_integral",
            "spectrum": [[890.0, math.inf, 0.5], [920.0, 1.0, 0.5]]}))
        with pytest.raises(ConfigError, match=re.escape(
                "solar.spectrum[0][1]: inf is not a finite number")):
            load_scenario(path)

    @pytest.mark.parametrize("row,cell", [
        (["900", 1.0, 0.5], "[0][0]"), ([900.0, True, 0.5], "[0][1]"),
        ([900.0, 1.0, "1e0"], "[0][2]")])
    def test_spectrum_cells_are_json_numbers(self, tmp_path, row, cell):
        path = self.write_config(tmp_path, lambda d: d.update(solar={
            "mode": "spectrum_integral",
            "spectrum": [row, [920.0, 1.0, 0.5]]}))
        with pytest.raises(ConfigError, match=re.escape(
                f"solar.spectrum{cell}: expected a number")):
            load_scenario(path)

    def test_invalid_snr_mode_names_section(self, tmp_path):
        data = scenario_to_dict(table1_preset("sipm"))
        data["detector"]["snr_mode"] = "exact"
        path = tmp_path / "mode.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError,
                           match=r"json: scenario\.detector: snr_mode must"):
            load_scenario(str(path))

    def test_dark_load_warning_names_the_file(self, tmp_path):
        data = scenario_to_dict(table1_preset("sipm"))
        data["detector"]["dark_count_rate_cps"] = 1e6
        path = tmp_path / "dark.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.warns(UserWarning, match="dark load") as record:
            load_scenario(str(path))
        assert record[0].filename == str(path)

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["atmosphere"].update(mode="fog"),
         "unknown mode 'fog'; expected one of fixed_transmittance, "
         "extinction"),
        (lambda d: d.update(solar={"mode": "spectrum_integral"}),
         "needs exactly one of 'spectrum' or 'spectrum_csv'"),
        (lambda d: d.update(solar={"mode": "spectrum_integral",
                                   "spectrum": [[1, 2]]}),
         "expected rows of [wavelength_nm, irradiance_w_m2_nm, "
         "transmittance]"),
        (lambda d: d.update(scene=[1]), "scenario.scene: expected an object"),
        (lambda d: d["atmosphere"].update(mode=5),
         "scenario.atmosphere.mode: expected a string"),
        (lambda d: d["target"].update(extends_beyond_spot="yes"),
         "scenario.target.extends_beyond_spot: expected a boolean"),
    ])
    def test_malformed_section_names_it(self, tmp_path, mutate, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_scenario(self.write_config(tmp_path, mutate))

    def spectrum_csv_config(self, tmp_path, text):
        (tmp_path / "spectrum.csv").write_text(text, encoding="utf-8")
        return self.write_config(tmp_path, lambda d: d.update(solar={
            "mode": "spectrum_integral", "spectrum_csv": "spectrum.csv"}))

    def test_empty_spectrum_csv_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty spectrum file"):
            load_scenario(self.spectrum_csv_config(tmp_path, ""))

    def test_blank_spectrum_csv_line_skipped(self, tmp_path):
        path = self.spectrum_csv_config(
            tmp_path, "wavelength_nm,irradiance_w_m2_nm,transmittance\n"
                      "890,1.0,0.5\n\n920,1.0,0.5\n")
        assert load_scenario(path).solar.spectrum_table == (
            (890.0, 1.0, 0.5), (920.0, 1.0, 0.5))

    def test_legacy_extends_beyond_spot_true_loads(self, tmp_path):
        # earlier versions wrote it; the link model assumes it is true
        path = self.write_config(
            tmp_path, lambda d: d["target"].update(extends_beyond_spot=True))
        config = load_scenario(path)
        assert config == table1_preset("apd")
        assert not hasattr(config.target, "extends_beyond_spot")


# Every field of every _DOMAINS table is probed at each finite bound, one
# ULP either side, +-inf and NaN (a name set: each name and one outsider),
# with its mode active.  domain_outcomes.json holds each probe's outcome
# under the hand-written checks the tables replaced: "ok" or the
# ConfigError message.  A field it does not list is held to its table.
_RECORDED = json.loads(
    (Path(__file__).parent / "domain_outcomes.json").read_text("utf-8"))
# outcomes that differ from the record on purpose: the old seed check,
# ``seed < 0``, let NaN through, and the old checks let a count that is
# not a whole number through to fail inside numpy
_CHANGED = {("SipmMcConfig.seed", "nan"): "seed must be >= 0",
            **{(f"SipmMcConfig.{name}", value): f"{name} must be a whole number"
               for name, value in [
                   ("n_trials", "2.0000000000000004"), ("n_trials", "inf"),
                   ("n_noise_periods", "2.0000000000000004"),
                   ("n_noise_periods", "inf"),
                   ("seed", "5e-324"), ("seed", "inf")]}}
_APD, _SIPM = table1_preset("apd"), table1_preset("sipm")
_SPECTRUM = ((900.0, 0.6, 0.5), (905.0, 0.7, 0.9), (910.0, 0.6, 0.5))
_BASES = {
    ScenarioConfig: _APD, SceneGeometry: _APD.scene,
    AtmosphereModel: _APD.atmosphere, ReceiverOptics: _APD.optics,
    TargetModel: _APD.target, LaserParams: _APD.laser,
    # the rows only spectrum_integral reads, so that its mode probe is ok
    SolarModel: replace(_APD.solar, spectrum_table=_SPECTRUM[:2]),
    TdcPolicy: _APD.tdc, ApdParams: _APD.detector.params,
    SipmParams: _SIPM.detector.params, SipmChoice: _SIPM.detector,
    SipmMcConfig: SipmMcConfig(),
}
# fields that only another mode than the base's reads, with that mode
_MODES = {"extinction_coeff_per_m": {"mode": "extinction"},
          "in_band_irradiance_w_m2": {"mode": "direct_irradiance"},
          "electron_ionization_rate": {"excess_noise_mode": "ionization"}}
_DOMAIN_ROWS = {f"{cls.__name__}.{row[0]}": (cls, row)
                for cls in _BASES for row in cls._DOMAINS}


def _probes(row) -> list:
    name, text, lo, hi, lo_closed, hi_closed, names = row
    if names is not None:
        return [*names, "bogus"]
    values = [v for b in (lo, hi) if math.isfinite(b)
              for v in (math.nextafter(b, -math.inf), b,
                        math.nextafter(b, math.inf))]
    return [*values, -math.inf, math.inf, math.nan]


def _declared(row, value) -> str:
    """The outcome the table row states for ``value``."""
    name, text, lo, hi, lo_closed, hi_closed, names = row
    if names is not None:
        inside = value in names
    else:
        inside = ((lo <= value if lo_closed else lo < value)
                  and (value <= hi if hi_closed else value < hi))
    return "ok" if inside else f"{name} must be {text}"


def _outcome(cls, name, value, **mode) -> str:
    try:
        replace(_BASES[cls], **mode, **{name: value})
    except ConfigError as exc:
        return str(exc)
    return "ok"


# copy_with is checked against dataclasses.replace on every parameter
# class, the atmosphere and solar model in each mode and both scenarios
_COPY_BASES = {
    **{cls.__name__: base for cls, base in _BASES.items()},
    "ScenarioConfig_sipm": _SIPM, "ApdChoice": _APD.detector,
    "AtmosphereModel_extinction": AtmosphereModel(
        mode="extinction", extinction_coeff_per_m=1e-3),
    "SolarModel_direct": SolarModel(in_band_irradiance_w_m2=29.4),
    "SolarModel_spectrum": SolarModel(mode="spectrum_integral",
                                      spectrum_table=_SPECTRUM)}


def _copy_values(base, name: str):
    """Values for the field ``name`` of ``base``: those the bases hold,
    None, its domain's probes and any float, and, for a count, whole and
    fractional floats."""
    cls = type(base)
    values = [getattr(b, name) for b in _COPY_BASES.values()
              if type(b) is cls]
    values.append(None)
    if name == "spectrum_table":
        values += [_SPECTRUM[:1], _SPECTRUM[::-1], ((900.0, -1.0, 0.5),),
                   ((900.0, 0.6, 1.5), (905.0, 0.6, 0.5))]
    if name in getattr(cls, "_WHOLE", ()):
        values += [8.0, 2.5, 2.0000000000000004, 5e-324]
    strategy = st.sampled_from(values)
    for row in getattr(cls, "_DOMAINS", ()):
        if row[0] == name:
            strategy |= st.sampled_from(_probes(row))
            if row[6] is None:
                strategy |= st.floats()
    return strategy


def _copy_outcome(copy):
    """The fields in order with their types of the object ``copy()``
    returns, or its error."""
    try:
        obj = copy()
    except (ConfigError, TypeError) as exc:  # TypeError: no spectrum rows
        return type(exc), str(exc)
    return obj, [(k, type(v), repr(v)) for k, v in vars(obj).items()]


class TestDomains:
    def test_every_table_has_a_base(self):
        modules = (apd, detectors, scenario, scene_link, sipm, tdc)
        declared = {obj for module in modules for obj in vars(module).values()
                    if isinstance(obj, type) and "_DOMAINS" in vars(obj)}
        assert declared == set(_BASES)

    def test_recorded_fields_keep_their_probes(self):
        # a moved bound or a dropped field shows here, not as a new field
        assert {key: [repr(v) for v in _probes(row)]
                for key, (_, row) in _DOMAIN_ROWS.items()
                if key in _RECORDED} == {
            key: list(probes) for key, probes in _RECORDED.items()}

    @pytest.mark.parametrize("key", sorted(_DOMAIN_ROWS))
    def test_probe_outcomes(self, key):
        cls, row = _DOMAIN_ROWS[key]
        name, recorded = row[0], _RECORDED.get(key, {})
        for value in _probes(row):
            expected = (_CHANGED.get((key, repr(value)))
                        or recorded.get(repr(value)) or _declared(row, value))
            outcome = _outcome(cls, name, value, **_MODES.get(name, {}))
            assert outcome == expected, (key, value)

    @pytest.mark.parametrize("cls,fields,message", [
        (AtmosphereModel, {"mode": "extinction", "one_way_transmittance": 1.5},
         "one_way_transmittance must be in (0, 1]"),
        (SolarModel, {"mode": "direct_irradiance", "illuminance_klux": -1.0},
         "illuminance_klux must be >= 0"),
        (ApdParams, {"electron_ionization_rate": 5.0},
         "electron_ionization_rate must be in [0, 1]"),
        (ApdParams, {"excess_noise_mode": "ionization",
                     "electron_ionization_rate": 0.5,
                     "excess_noise_index": -1.0},
         "excess_noise_index must be >= 0"),
    ])
    def test_a_field_its_mode_does_not_read_is_checked(self, cls, fields,
                                                       message):
        with pytest.raises(ConfigError) as info:
            replace(_BASES[cls], **fields)
        assert str(info.value) == message

    @pytest.mark.parametrize("fields,message", [
        ({"electron_ionization_rate": 5},
         "electron_ionization_rate must be in [0, 1]"),
        ({"excess_noise_mode": "ionization", "electron_ionization_rate": 0.5,
          "excess_noise_index": -1}, "excess_noise_index must be >= 0"),
    ])
    def test_inactive_mode_key_in_a_file_exits_1(self, tmp_path, capsys,
                                                 fields, message):
        data = scenario_to_dict(_APD)
        data["detector"].update(fields)
        path = tmp_path / "apd.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert cli.main(["range", "--config", str(path)]) == 1
        assert f"scenario.detector: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("cls,message", [
        (AtmosphereModel,
         "mode must be one of ('fixed_transmittance', 'extinction')"),
        (SolarModel, "mode must be one of ('direct_irradiance', "
                     "'spectrum_integral', 'illuminance_scaled')"),
    ])
    def test_unknown_mode_names_the_modes(self, cls, message):
        with pytest.raises(ConfigError) as info:
            cls(mode="fog")
        assert str(info.value) == message

    @pytest.mark.parametrize("section", ["atmosphere", "solar"])
    def test_unknown_mode_in_a_file_exits_1(self, tmp_path, capsys, section):
        data = scenario_to_dict(_APD)
        data[section]["mode"] = "fog"
        path = tmp_path / "fog.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert cli.main(["range", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"scenario.{section}.mode: unknown mode 'fog'" in captured.err
        assert captured.out == ""

    def test_nan_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            SipmMcConfig(seed=math.nan)

    @pytest.mark.parametrize("key", sorted(_COPY_BASES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_copy_with_matches_replace(self, key, data):
        base = _COPY_BASES[key]
        name = data.draw(st.sampled_from(
            [f.name for f in fields(base) if f.init]), label="name")
        value = data.draw(_copy_values(base, name), label=name)
        assert _copy_outcome(lambda: copy_with(base, name, value)) \
            == _copy_outcome(lambda: replace(base, **{name: value}))

    def test_none_passes_only_a_none_default(self):
        params = _APD.detector.params
        assert replace(params, electron_ionization_rate=None) == params
        with pytest.raises(ConfigError) as info:
            replace(params, gain=None)
        assert str(info.value) == "gain must be >= 1"


class TestRunSweep:
    def test_single_point_equals_direct_call(self, apd_config):
        spec = SweepSpec(kind="distance", grid=(123.0,),
                         detectors=(apd_config.detector,))
        result = run_sweep(apd_config, spec)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.value == snr_at_range(apd_config, apd_config.detector, 123.0)
        assert row.status == "ok"

    def test_row_count_is_grid_times_detectors(self, apd_config, sipm_config):
        # the sipm_mc series runs the Monte Carlo at every grid point
        mc = SipmMcConfig(n_trials=4, time_step_s=1e-10, seed=5,
                          warmup_s=6e-8, n_noise_periods=4)
        mc_det = replace(sipm_config.detector, snr_mode="monte_carlo", mc=mc,
                         label="sipm_mc")
        spec = SweepSpec(kind="distance", grid=make_grid(50.0, 300.0, 7),
                         detectors=(apd_config.detector, sipm_config.detector,
                                    mc_det))
        result = run_sweep(apd_config, spec)
        assert len(result.rows) == 7 * 3
        assert all(r.value is not None for r in result.rows)

    def test_apd_curve_above_sipm_at_full_sun(self, apd_config, sipm_config):
        spec = SweepSpec(kind="distance", grid=make_grid(50.0, 400.0, 15),
                         detectors=(apd_config.detector, sipm_config.detector))
        result = run_sweep(apd_config, spec)
        apd_vals = {r.x: r.value for r in result.rows if r.series == "apd"}
        sipm_vals = {r.x: r.value for r in result.rows if r.series == "sipm"}
        assert all(apd_vals[x] > sipm_vals[x] for x in apd_vals)

    def test_elevation_sweep_symmetry(self, apd_config):
        config = replace(apd_config,
                         optics=replace(apd_config.optics,
                                        aperture_model="cosine"))
        spec = SweepSpec(kind="elevation", grid=(-60.0, -30.0, 0.0, 30.0, 60.0),
                         detectors=(config.detector,))
        result = run_sweep(config, spec)
        values = {r.x: r.value for r in result.rows}
        assert values[-30.0] == pytest.approx(values[30.0], rel=1e-9)
        assert values[0.0] > values[30.0] > values[60.0]

    def test_illuminance_requires_scaled_mode(self, apd_config):
        from dtofsim.scene_link import SolarModel

        config = replace(apd_config,
                         solar=SolarModel(in_band_irradiance_w_m2=29.4))
        spec = SweepSpec(kind="illuminance", grid=(1.0, 10.0),
                         detectors=(config.detector,))
        with pytest.raises(ConfigError, match="illuminance"):
            run_sweep(config, spec)

    def test_photon_response_families_saturate(self, sipm_config):
        spec = SweepSpec(kind="photon_response",
                         grid=make_grid(1.0, 1e5, 41, "log"))
        result = run_sweep(sipm_config, spec)
        label = "pde=0.22,n_pixel=100,n_b_photon=0"
        curve = [r.value for r in result.rows if r.series == label]
        assert len(curve) == 41
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[-1] == pytest.approx(100.0, rel=1e-3)
        assert curve[0] == pytest.approx(0.22, rel=0.01)

    def test_photon_response_background_families_are_lower(self, sipm_config):
        spec = SweepSpec(kind="photon_response",
                         grid=make_grid(10.0, 1e4, 11, "log"))
        result = run_sweep(sipm_config, spec)

        def curve(label):
            return [r.value for r in result.rows if r.series == label]

        clean = curve("pde=0.22,n_pixel=100,n_b_photon=0")
        heavy = curve("pde=0.22,n_pixel=100,n_b_photon=1000")
        assert all(h < c for h, c in zip(heavy, clean))

    def test_photon_response_reads_no_scenario(self, sipm_config):
        spec = SweepSpec(kind="photon_response", grid=(1.0, 10.0, 100.0))
        assert run_sweep(None, spec) == run_sweep(sipm_config, spec)

    def test_noiseless_and_unbounded_rows(self, sipm_config):
        # no sunlight and no dark counts: no noise at any range
        config = replace(
            sipm_config,
            solar=replace(sipm_config.solar, illuminance_klux=0.0),
            detector=replace(sipm_config.detector, params=replace(
                sipm_config.detector.params, dark_count_rate_cps=0.0)))
        dets = (config.detector,)
        distance = run_sweep(config, SweepSpec(
            kind="distance", grid=(25.0, 100.0), detectors=dets))
        assert [(r.value, r.status) for r in distance.rows] == [
            (math.inf, "noiseless")] * 2
        assert csv_lines(distance)[1] == "25.0,inf,sipm:noiseless"
        elevation = run_sweep(config, SweepSpec(
            kind="elevation", grid=(0.0,), detectors=dets))
        assert [(r.value, r.status) for r in elevation.rows] == [
            (None, "unbounded")]

    def test_solver_error_rows_name_the_error(self, sipm_config):
        config = replace(sipm_config, solar=replace(
            sipm_config.solar, illuminance_klux=1e7))
        for kind, x in (("distance", 25.0), ("elevation", 0.0)):
            result = run_sweep(config, SweepSpec(
                kind=kind, grid=(x,), detectors=(config.detector,)))
            assert [(r.value, r.status) for r in result.rows] == [
                (None, "SipmSaturationError")]

    def test_failed_points_recorded_not_raised(self, apd_config):
        weak = replace(apd_config,
                       laser=replace(apd_config.laser, peak_power_w=1e-5))
        spec = SweepSpec(kind="illuminance", grid=(1.0, 100.0),
                         detectors=(weak.detector,))
        result = run_sweep(weak, spec)
        assert all(r.status == "no_detection" and r.value is None
                   for r in result.rows)


class TestEmitters:
    def distance_result(self, apd_config, sipm_config, n=7):
        spec = SweepSpec(kind="distance", grid=make_grid(50.0, 300.0, n),
                         detectors=(apd_config.detector, sipm_config.detector))
        return run_sweep(apd_config, spec)

    def test_distance_header(self, apd_config, sipm_config):
        result = self.distance_result(apd_config, sipm_config)
        assert csv_lines(result)[0] == "range_m,snr_apd,snr_sipm,status"

    def test_elevation_and_illuminance_headers(self, apd_config):
        spec = SweepSpec(kind="elevation", grid=(0.0, 30.0),
                         detectors=(apd_config.detector,))
        assert csv_lines(run_sweep(apd_config, spec))[0] == \
            "elevation_deg,rmax_apd_m,status"
        spec = SweepSpec(kind="illuminance", grid=(1.0, 100.0),
                         detectors=(apd_config.detector,))
        assert csv_lines(run_sweep(apd_config, spec))[0] == \
            "illuminance_klux,rmax_apd_m,status"

    def test_photon_response_header(self, sipm_config):
        spec = SweepSpec(kind="photon_response", grid=(1.0, 10.0))
        assert csv_lines(run_sweep(sipm_config, spec))[0] == \
            "n_photon,n_fired,curve_label"

    def test_empty_result_is_header_only(self, tmp_path):
        result = SweepResult(kind="distance", series=("apd",), rows=())
        path = tmp_path / "empty.csv"
        emit_csv(result, str(path))
        assert path.read_text(encoding="utf-8") == "range_m,snr_apd,status\n"

    def test_csv_bytes_deterministic(self, tmp_path, apd_config, sipm_config):
        result = self.distance_result(apd_config, sipm_config)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(result, str(a))
        emit_csv(result, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_svg_deterministic_and_well_formed(self, tmp_path, apd_config,
                                               sipm_config):
        result = self.distance_result(apd_config, sipm_config)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(result, str(a))
        emit_svg(result, str(b))
        assert a.read_bytes() == b.read_bytes()
        root = ET.fromstring(a.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    @pytest.mark.parametrize("value", [lambda x: 1.0 + x, lambda x: 0.0],
                             ids=["positive", "zero"])
    def test_svg_leaves_out_what_a_log_axis_cannot_place(self, tmp_path,
                                                         value):
        # x <= 0 on the log x axis is dropped; y = 0 on the log y axis is
        # drawn at its floor, even when no y is positive; the CSV keeps
        # every row
        rows = tuple(SweepRow(x, "s", value(x), STATUS_OK)
                     for x in (-1.0, 0.0, 1.0, 10.0))
        result = SweepResult(kind="photon_response", series=("s",),
                             rows=rows)
        emit_svg(result, str(tmp_path / "a.svg"))
        root = ET.fromstring((tmp_path / "a.svg").read_text(encoding="utf-8"))
        (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(line.get("points").split()) == 2
        assert len(csv_lines(result)) == 1 + len(rows)

    def test_row_statuses_merged(self, apd_config):
        weak = replace(apd_config,
                       laser=replace(apd_config.laser, peak_power_w=1e-5))
        spec = SweepSpec(kind="illuminance", grid=(1.0, 100.0),
                         detectors=(weak.detector,))
        lines = csv_lines(run_sweep(weak, spec))
        assert lines[1].endswith("apd:no_detection")
        assert lines[1].split(",")[1] == ""


def _bits(values):
    return [float(v).hex() for v in values]


class TestGrid:
    def test_log_grid(self):
        grid = make_grid(1.0, 100.0, 3, "log")
        assert grid == pytest.approx((1.0, 10.0, 100.0))

    @pytest.mark.parametrize("lo,hi,n", [
        (25.0, 500.0, 96), (-60.0, 60.0, 49), (50.0, 300.0, 26)])
    def test_linear_grid_is_linspace_on_readme_grids(self, lo, hi, n):
        assert _bits(make_grid(lo, hi, n)) == _bits(np.linspace(lo, hi, n))

    @given(lo=st.floats(allow_nan=False, allow_infinity=False),
           hi=st.floats(allow_nan=False, allow_infinity=False),
           n=st.integers(2, 300))
    @example(lo=0.0, hi=5e-324, n=4)  # a span whose step rounds to zero
    @example(lo=-1.0, hi=0.0, n=7)
    @settings(max_examples=300, deadline=None)
    def test_linear_grid_is_linspace(self, lo, hi, n):
        assume(lo < hi and math.isfinite(hi - lo))
        with np.errstate(over="ignore"):  # i * step may pass the float range
            expected = np.linspace(lo, hi, n)
        assert _bits(make_grid(lo, hi, n)) == _bits(expected)

    @pytest.mark.parametrize("lo,hi,n", [
        (0.1, 100.0, 50), (1.0, 1e5, 81), (1.0, 1000.0, 200)])
    def test_log_grid_is_the_python_formula(self, lo, hi, n):
        # the default log grids: illuminance, photon response, gain curve
        grid = make_grid(lo, hi, n, "log")
        logs = make_grid(math.log10(lo), math.log10(hi), n)
        assert _bits(grid) == _bits((lo, *(10.0 ** x for x in logs[1:-1]), hi))
        assert all(a < b for a, b in zip(grid, grid[1:]))
        # libm's pow and numpy's power may differ by an ULP or so
        assert np.max(np.abs(np.array(grid) / np.geomspace(lo, hi, n) - 1)) \
            <= 1e-13

    @given(lo=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
           hi=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
           n=st.integers(2, 300))
    @example(lo=5e-324, hi=1.7976931348623157e308, n=10000)
    @example(lo=1e308, hi=1.7976931348623157e308, n=10000)
    @example(lo=0.3, hi=0.30000000000000004, n=3)  # 10 ** x falls below lo
    @example(lo=7.0, hi=7.000000000000001, n=3)  # and rises above hi
    @example(lo=1.7976931348623155e308, hi=1.7976931348623157e308, n=3)
    @settings(max_examples=300, deadline=None)
    def test_log_grid_over_positive_bounds(self, lo, hi, n):
        assume(lo < hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = make_grid(lo, hi, n, "log")
        a, b = math.log10(lo), math.log10(hi)
        # bounds a few ULPs apart can share a log; an inner log that reaches
        # log10(hi) gives hi, where 10 ** x could overflow
        logs = make_grid(a, b, n) if a < b else (b,) * n
        assert _bits(grid) == _bits(
            (lo, *(hi if x >= b else min(max(10.0 ** x, lo), hi)
                   for x in logs[1:-1]), hi))
        assert len(grid) == n and grid[0] == lo and grid[-1] == hi
        assert all(p <= q for p, q in zip(grid, grid[1:]))
        with np.errstate(over="ignore"):  # geomspace computes 10 ** log10(hi)
            reference = np.geomspace(lo, hi, n)
        # each log may differ from numpy's by an ULP or two, and each power
        # by an ULP; subnormal points carry no relative precision, and
        # geomspace overflows where an inner log reaches log10(DBL_MAX)
        tol = 4 * math.log(10) * math.ulp(max(abs(a), abs(b))) + 2 ** -50
        normal = ((reference >= sys.float_info.min)
                  & (reference <= sys.float_info.max))
        assert np.all(np.abs(np.array(grid)[normal] / reference[normal] - 1)
                      <= tol)

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_one_and_two_points(self, spacing):
        assert make_grid(3.0, 7.0, 1, spacing) == (3.0,)
        assert make_grid(3.0, 3.0, 1, spacing) == (3.0,)
        assert make_grid(3.0, 7.0, 2, spacing) == (3.0, 7.0)

    @pytest.mark.parametrize("lo,hi", [
        (25.0, math.inf), (-math.inf, 500.0), (math.nan, 500.0),
        (25.0, math.nan), (-1e308, 1e308)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ConfigError, match="must be finite"):
            make_grid(lo, hi, 5)

    def test_rejects_inverted(self):
        with pytest.raises(ConfigError):
            make_grid(10.0, 1.0, 5)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_spacing_and_log_bound_checked_for_every_size(self, n):
        with pytest.raises(ConfigError, match="lo > 0"):
            make_grid(0.0, 1.0, n, "log")
        with pytest.raises(ConfigError, match="spacing must be"):
            make_grid(0.0, 1.0, n, "bogus")

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_size_cap(self, spacing):
        assert len(make_grid(1.0, 2.0, MAX_GRID_POINTS, spacing)) \
            == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match=str(MAX_GRID_POINTS)):
            make_grid(1.0, 2.0, MAX_GRID_POINTS + 1, spacing)

    def test_spec_requires_distinct_labels(self, apd_config):
        # two series named apd would share one CSV column
        gain10 = replace(apd_config.detector, params=replace(
            apd_config.detector.params, gain=10.0))
        with pytest.raises(ConfigError, match="labels must be distinct"):
            SweepSpec(kind="distance", grid=(50.0, 100.0),
                      detectors=(apd_config.detector, gain10))

    def test_spec_requires_monotone_grid(self, apd_config):
        with pytest.raises(ConfigError, match="increasing"):
            SweepSpec(kind="distance", grid=(2.0, 1.0),
                      detectors=(apd_config.detector,))

    @pytest.mark.parametrize("kind,grid,message", [
        ("range", (1.0,), "sweep kind must be one of"),
        ("distance", (), "sweep grid must not be empty"),
        ("distance", (50.0, 100.0), "sweep needs at least one detector")])
    def test_spec_rejects_malformed(self, kind, grid, message):
        with pytest.raises(ConfigError, match=message):
            SweepSpec(kind=kind, grid=grid)

    @pytest.mark.parametrize("grid", [(1.0, math.nan, 3.0), (math.nan,),
                                      (1.0, math.inf)])
    def test_spec_requires_finite_grid(self, grid):
        # a NaN point passes the order check and writes nan CSV rows
        with pytest.raises(ConfigError, match="must be finite"):
            SweepSpec(kind="photon_response", grid=grid)
