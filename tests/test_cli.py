import itertools
import json
import math
import random
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtofsim import cli, ranging
from dtofsim.cli import main
from dtofsim.ranging import SENSITIVITY_PARAMS
from dtofsim.scenario import (load_scenario, save_scenario, scenario_to_dict,
                              table1_preset)
from dtofsim.scene_link import sun_equivalent_irradiance
from dtofsim.sipm import MAX_PIXELS
from dtofsim.sweeps import MAX_GRID_POINTS, _axis_ticks, format_number

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPreset:
    def test_writes_loadable_scenario(self, tmp_path, capsys):
        out = tmp_path / "table1_apd.json"
        code, _, _ = run_cli(capsys, "preset", "table1", "--detector", "apd",
                             "--out", str(out))
        assert code == 0
        assert load_scenario(str(out)) == table1_preset("apd")

    def test_stdout_mode(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "preset", "table1", "--detector", "sipm")
        assert code == 0
        data = json.loads(out)
        assert data["detector"]["type"] == "sipm"
        # stdout holds the bytes of the saved scenario file
        path = tmp_path / "sipm.json"
        save_scenario(table1_preset("sipm"), str(path))
        assert out == path.read_text(encoding="utf-8")

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "preset", "fig9")
        assert code == 1
        assert "unknown preset" in err


class TestRange:
    def test_default_preset_runs(self, capsys):
        code, out, _ = run_cli(capsys, "range")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("detector,r_max_m,snr_at_rmax,"
                            "min_detectable_power_w,background_power_w,"
                            "evaluations,snr_se")
        cells = lines[1].split(",")
        assert cells[0] == "apd"
        assert float(cells[1]) == pytest.approx(350.60456463121545, rel=1e-6)
        assert cells[5:] == ["2", "0.0"]

    def test_both_detectors_rejected(self, capsys):
        code, _, err = run_cli(capsys, "range", "--detector", "both")
        assert code == 1
        assert "argument --detector: invalid choice: 'both'" in err

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "sipm.json"
        save_scenario(table1_preset("sipm"), str(path))
        code, out, _ = run_cli(capsys, "range", "--config", str(path))
        assert code == 0
        assert out.splitlines()[1].startswith("sipm,")

    def test_repeated_config_labels_are_numbered(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        save_scenario(table1_preset("apd"), str(path))
        code, out, _ = run_cli(capsys, "range", "--config", str(path),
                               "--config", str(path))
        assert code == 0
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["apd0", "apd1"]
        assert rows[0][len("apd0"):] == rows[1][len("apd1"):]

    def test_config_plus_detector_flag_rejected(self, tmp_path, capsys):
        path = tmp_path / "apd.json"
        save_scenario(table1_preset("apd"), str(path))
        code, _, err = run_cli(capsys, "range", "--config", str(path),
                               "--detector", "apd")
        assert code == 1


class TestFlags:
    # a flag the command does not read is a usage error, so that, say,
    # range --format svg cannot write CSV into an .svg file
    @pytest.mark.parametrize("argv", [
        ["preset", "table1", "--config", "x.json"],
        ["preset", "table1", "--format", "svg"],
        ["preset", "table1", "--seed", "5"],
        ["range", "--format", "svg"],
        ["range", "--seed", "3"],
        ["snr-curve", "--seed", "3"],
        ["sweep", "--kind", "distance", "--seed", "3"],
        ["sipm-response", "--config", "x.json"],
        ["sipm-response", "--seed", "3"],
        ["sipm-response", "--detector", "sipm"],
        ["optimize-gain", "--format", "svg"],
        ["optimize-gain", "--seed", "3"],
        ["sensitivity", "--format", "svg"],
        ["sensitivity", "--seed", "3"],
        ["sensitivity", "--rel-step", "0.01"]],
        ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_removed_flag_is_1(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--out", "result.out")
        assert code == 1 and out == ""
        assert "error: unrecognized arguments" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["snr-curve"], ["sweep", "--kind", "distance"], ["sipm-response"]],
        ids=lambda argv: argv[0])
    def test_svg_without_out_is_1(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--format", "svg")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--format svg needs --out" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sensitivity", "optimize-gain"])
    def test_second_config_is_1(self, tmp_path, capsys, command):
        # these commands read one detector, so a second file is an error
        paths = []
        for det in ("apd", "sipm"):
            paths.append(str(tmp_path / f"{det}.json"))
            save_scenario(table1_preset(det), paths[-1])
        code, out, err = run_cli(capsys, command, "--config", paths[0],
                                 "--config", paths[1])
        assert code == 1 and out == ""
        assert "argument --config: may be given only once" in err


COSINE_CONFIGS = ["--config", str(ROOT / "configs" / "table1_apd_cosine.json"),
                  "--config", str(ROOT / "configs" / "table1_sipm_cosine.json")]


class TestGoldens:
    # each command given only its output path uses the default grid and
    # format of its sweep kind, and so reproduces the committed goldens
    # (make_goldens passes --format explicitly, so this pins the defaults)
    @pytest.mark.parametrize("argv,golden", [
        (["sweep", "--kind", "distance", "--detector", "both"],
         "distance_snr.csv"),
        (["sweep", "--kind", "elevation", *COSINE_CONFIGS],
         "elevation_rmax.csv"),
        (["sweep", "--kind", "elevation", *COSINE_CONFIGS, "--format", "svg"],
         "elevation_rmax.svg"),
        (["sweep", "--kind", "illuminance", "--detector", "both"],
         "illuminance_rmax.csv"),
        (["sipm-response"], "sipm_response.csv")],
        ids=["distance", "elevation", "elevation-svg", "illuminance",
             "sipm-response"])
    def test_defaults_reproduce_golden(self, tmp_path, capsys, argv, golden):
        out = tmp_path / golden
        code, _, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (ROOT / "goldens" / golden).read_bytes()


class TestSweepCommands:
    def test_distance_sweep_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "sweep", "--kind", "distance",
                                 "--detector", "both", "--n", "12",
                                 "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text(encoding="utf-8").splitlines()[0]
        assert header == "range_m,snr_apd,snr_sipm,status"

    def test_distance_sweep_reads_the_link_once_per_point(
            self, tmp_path, capsys, monkeypatch):
        # the SNR and the analytic SiPM's fired fraction share one link
        # evaluation: 96 points of 2 detectors read it 192 times
        calls = []
        link_powers = ranging.link_powers

        def counted(*args):
            calls.append(args)
            return link_powers(*args)

        monkeypatch.setattr(ranging, "link_powers", counted)
        out = tmp_path / "distance_snr.csv"
        code, _, _ = run_cli(capsys, "sweep", "--kind", "distance",
                             "--detector", "both", "--out", str(out))
        assert code == 0
        assert len(calls) == 192
        assert out.read_bytes() == \
            (ROOT / "goldens" / "distance_snr.csv").read_bytes()

    def test_snr_curve_alias(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "snr-curve", "--detector", "apd",
                             "--rmin", "50", "--rmax", "300", "--n", "5",
                             "--out", str(out))
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 6

    def test_elevation_sweep_svg(self, tmp_path, capsys):
        out = tmp_path / "elevation.svg"
        code, _, _ = run_cli(capsys, "sweep", "--kind", "elevation",
                             "--detector", "apd", "--n", "7",
                             "--format", "svg", "--out", str(out))
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("<svg")

    def test_illuminance_sweep(self, tmp_path, capsys):
        out = tmp_path / "illuminance.csv"
        code, _, _ = run_cli(capsys, "sweep", "--kind", "illuminance",
                             "--detector", "both", "--n", "6",
                             "--out", str(out))
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "illuminance_klux,rmax_apd_m,rmax_sipm_m,status"
        assert len(lines) == 7

    def test_sipm_response(self, tmp_path, capsys):
        out = tmp_path / "response.csv"
        code, _, _ = run_cli(capsys, "sipm-response", "--n", "9",
                             "--out", str(out))
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n_photon,n_fired,curve_label"
        assert len(lines) == 1 + 9 * 9  # nine photon points, nine families

    def test_sipm_response_builds_no_scenario(self, monkeypatch, capsys):
        # the response families set their own SiPM parameters
        def no_preset(*args):
            raise AssertionError("sipm-response built a preset")

        monkeypatch.setattr(cli, "table1_preset", no_preset)
        code, out, _ = run_cli(capsys, "sipm-response", "--n", "3")
        assert code == 0
        assert out.splitlines()[0] == "n_photon,n_fired,curve_label"

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "distance",
                               "--detector", "apd", "--n", "3")
        assert code == 0
        assert out.splitlines()[0] == "range_m,snr_apd,status"


class TestOptimizeGain:
    def test_prints_optimum(self, capsys):
        code, out, _ = run_cli(capsys, "optimize-gain", "--detector", "apd")
        assert code == 0
        # the closed-form optimum of the table1 APD at 100 m
        assert out == "gain_opt,30.8728849347858\nsnr_opt,66.6650861695896\n"

    def test_curve_output(self, tmp_path, capsys):
        out = tmp_path / "gain.csv"
        code, _, _ = run_cli(capsys, "optimize-gain", "--detector", "apd",
                             "--curve-points", "20", "--out", str(out))
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "gain,snr"
        assert len(lines) == 22  # header + points + optimum comment

    def test_sipm_config_rejected(self, capsys):
        code, _, err = run_cli(capsys, "optimize-gain", "--detector", "sipm")
        assert code == 1
        assert "APD" in err


class TestSensitivity:
    def test_single_parameter(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--detector", "apd",
                               "--param", "peak_power_w")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "parameter,elasticity"
        name, value = lines[1].split(",")
        assert name == "peak_power_w"
        assert 0.4 < float(value) < 0.6

    def test_unknown_parameter_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "sensitivity", "--detector", "apd",
                               "--param", "warp_factor")
        assert code == 1
        assert "unknown parameter" in err

    def test_apd_wavelength_moves_responsivity(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--detector", "apd",
                               "--param", "wavelength_m")
        assert code == 0
        assert out.splitlines()[1] == "wavelength_m,0.256030197986319"

    @pytest.mark.parametrize("detector,param", [
        ("apd", "pde"), ("apd", "n_pixels"), ("sipm", "gain"),
        ("sipm", "amplifier_noise_a")])
    def test_parameter_the_detector_lacks_is_1(self, capsys, detector, param):
        # it would read as "range does not depend on it"
        code, out, err = run_cli(capsys, "sensitivity", "--detector",
                                 detector, "--param", param)
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert f"{detector} detector" in err and repr(param) in err

    def test_zero_valued_parameter_prints_0(self, capsys):
        # declared, and p * d ln r / dp is 0 at p = 0
        code, out, _ = run_cli(capsys, "sensitivity", "--detector", "apd",
                               "--param", "incidence_angle_rad")
        assert code == 0
        assert out.splitlines()[1] == "incidence_angle_rad,0.0"

    def test_all_keeps_the_other_detectors_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--detector", "sipm")
        assert code == 0
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert len(rows) == len(SENSITIVITY_PARAMS)
        assert rows["gain"] == rows["amplifier_noise_a"] == "0.0"

    def test_sun_irradiance_of_spectrum_is_0(self, tmp_path, monkeypatch,
                                             capsys):
        # sun_irradiance scales the in-band irradiance in every solar mode
        monkeypatch.chdir(tmp_path)
        data = scenario_to_dict(table1_preset("apd"))
        data["solar"] = {"mode": "spectrum_integral",
                         "spectrum": [[890.0, 1.0, 0.9], [905.0, 1.1, 1.0],
                                      [920.0, 0.9, 0.8]]}
        (tmp_path / "spectrum.json").write_text(json.dumps(data),
                                                encoding="utf-8")
        in_band = sun_equivalent_irradiance(
            load_scenario("spectrum.json").solar)
        data["solar"] = {"mode": "direct_irradiance",
                         "in_band_irradiance_w_m2": in_band}
        (tmp_path / "direct.json").write_text(json.dumps(data),
                                              encoding="utf-8")
        code, out, err = run_cli(capsys, "sensitivity", "--config",
                                 "spectrum.json")
        assert code == 0 and err == ""
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert len(rows) == len(SENSITIVITY_PARAMS) == 27
        code, one, _ = run_cli(capsys, "sensitivity", "--config",
                               "spectrum.json", "--param", "sun_irradiance")
        assert code == 0
        assert one.splitlines()[1] == f"sun_irradiance,{rows['sun_irradiance']}"
        code, direct, _ = run_cli(capsys, "sensitivity", "--config",
                                  "direct.json", "--param", "sun_irradiance")
        assert code == 0 and direct == one

    def test_parameter_at_a_closed_bound_is_0(self, tmp_path, capsys):
        # 100 % is the atmosphere's default transmittance; its up-edit
        # leaves (0, 1], so the one-sided difference takes over
        data = scenario_to_dict(table1_preset("apd"))
        data["atmosphere"]["one_way_transmittance_pct"] = 100.0
        path = tmp_path / "clear.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run_cli(capsys, "range", "--config", str(path))
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "356.000329151545"
        code, out, err = run_cli(capsys, "sensitivity", "--config", str(path))
        assert code == 0 and err == ""
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert len(rows) == len(SENSITIVITY_PARAMS)
        assert 0.75 < float(rows["one_way_transmittance"]) < 0.76

    @pytest.mark.parametrize("param", ["n_pixels", "all"])
    def test_dark_load_warns_once_naming_the_file(self, tmp_path, capsys,
                                                  param):
        # a dark load of 0.24: the edits that rebuild SipmParams stay silent
        data = scenario_to_dict(table1_preset("sipm"))
        data["detector"]["dark_count_rate_cps"] = 1e5
        path = tmp_path / "dark.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.warns(UserWarning) as record:
            code, _, _ = run_cli(capsys, "sensitivity", "--config", str(path),
                                 "--param", param)
        assert code == 0
        assert [(w.filename, w.lineno) for w in record
                if "dark load" in str(w.message)] == [(str(path), 0)]

    def test_monte_carlo_detector_is_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = scenario_to_dict(table1_preset("sipm"))
        data["detector"].update(snr_mode="monte_carlo",
                                mc={"n_trials": 8, "seed": 11})
        (tmp_path / "mc.json").write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "sensitivity", "--config", "mc.json",
                                 "--out", "elasticities.csv")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "closed-form SNR model" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mc.json"]


class TestExitCodes:
    def test_validation_error_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema_version\": 1}", encoding="utf-8")
        code, _, err = run_cli(capsys, "range", "--config", str(bad))
        assert code == 1
        assert "missing required key" in err

    def test_solver_error_is_2(self, tmp_path, capsys):
        config = table1_preset("apd")
        from dtofsim.errors import replace

        weak = replace(config, laser=replace(config.laser, peak_power_w=1e-5))
        path = tmp_path / "weak.json"
        save_scenario(weak, str(path))
        code, _, err = run_cli(capsys, "sweep", "--kind", "illuminance",
                               "--config", str(path), "--n", "4")
        assert code == 2
        assert "every grid point" in err

    def test_io_error_is_3(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "range", "--detector", "apd", "--out",
                               str(tmp_path / "missing" / "out.csv"))
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["snr-curve", "--n"], ["sweep", "--kind", "elevation", "--n"],
        ["sipm-response", "--n"], ["optimize-gain", "--out", "gain.csv",
                                   "--curve-points"]],
        ids=["snr-curve", "sweep", "sipm-response", "curve-points"])
    def test_grid_over_the_cap_is_1(self, tmp_path, monkeypatch, capsys,
                                    argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *argv, str(MAX_GRID_POINTS + 1))
        assert code == 1
        assert f"grid size must be in [1, {MAX_GRID_POINTS}]" in err

    @pytest.mark.parametrize("mc,key", [
        ({"n_trials": 10**30}, "mc.n_trials"),
        ({"time_step_ns": 1e-12}, "mc.time_step_ns")])
    def test_monte_carlo_over_the_cap_is_1(self, tmp_path, capsys, mc, key):
        data = scenario_to_dict(table1_preset("sipm"))
        data["detector"].update(snr_mode="monte_carlo", mc=mc)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1
        assert key in err and "cap" in err

    def test_monte_carlo_over_the_pixel_cap_is_1(self, tmp_path, capsys):
        data = scenario_to_dict(table1_preset("sipm"))
        data["detector"].update(snr_mode="monte_carlo",
                                n_pixels=MAX_PIXELS + 1)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.warns(UserWarning, match="dark load"):
            code, _, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1
        assert "n_pixels" in err and "cap" in err

    def test_workers_flag_is_gone(self, capsys):
        code, _, err = run_cli(capsys, "range", "--workers", "2")
        assert code == 1
        assert "unrecognized arguments: --workers" in err

    def test_usage_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--kind", "bogus")
        assert code == 1
        assert "invalid choice" in err

    def test_legacy_limit_detection_prob(self, tmp_path, capsys):
        # r_max is the 50 % detection point; files may keep the old key
        # only at that value, next to the other keys earlier versions wrote
        data = scenario_to_dict(table1_preset("apd"))
        data["laser"]["repetition_khz"] = 50.0
        data["tdc"].update(window_us=4.0, bandwidth_mhz=167.0)
        paths = {}
        for prob in (0.5, 0.9):
            data["tdc"]["limit_detection_prob"] = prob
            paths[prob] = tmp_path / f"p{prob}.json"
            paths[prob].write_text(json.dumps(data), encoding="utf-8")
        assert load_scenario(str(paths[0.5])) == table1_preset("apd")
        code, _, err = run_cli(capsys, "range", "--config", str(paths[0.9]))
        assert code == 1
        assert "limit_detection_prob" in err and "50 %" in err

    def test_legacy_extends_beyond_spot_false_is_1(self, tmp_path, capsys):
        data = scenario_to_dict(table1_preset("apd"))
        data["target"]["extends_beyond_spot"] = False
        path = tmp_path / "spot.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1 and out == ""
        assert "target.extends_beyond_spot: only true is supported" in err

    @pytest.mark.parametrize("section,key", [
        ("laser", "repetition_khz"), ("tdc", "window_us"),
        ("tdc", "bandwidth_mhz"), ("tdc", "limit_detection_prob")])
    def test_legacy_key_must_be_a_number(self, tmp_path, capsys, section,
                                         key):
        data = scenario_to_dict(table1_preset("apd"))
        data[section][key] = "0.5"
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1
        assert f"{section}.{key}: expected a number" in err

    @pytest.mark.parametrize("key", ["peak_power_w", "repetition_khz"])
    def test_null_value_is_1(self, tmp_path, capsys, key):
        data = scenario_to_dict(table1_preset("apd"))
        data["laser"][key] = None
        path = tmp_path / "null.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and f"laser.{key}: null" in err

    def test_nan_dark_count_rate_is_1(self, tmp_path, capsys):
        # json accepts the non-standard NaN literal
        data = scenario_to_dict(table1_preset("sipm"))
        data["detector"]["dark_count_rate_cps"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert "NaN" in path.read_text(encoding="utf-8")
        code, out, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1 and out == ""
        assert "detector.dark_count_rate_cps: nan is not a finite number" in err

    def test_oversized_integer_is_1(self, tmp_path, capsys):
        data = scenario_to_dict(table1_preset("apd"))
        data["laser"]["peak_power_w"] = 10 ** 400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and "laser.peak_power_w" in err

    @pytest.mark.parametrize("section,key,value,reason", [
        ("detector", "gain", 1e300, "not a number"),
        (None, "bandwidth_mhz", 1e305, "not a number"),
        ("optics", "aperture_radius_m", 1e200, "overflowed"),
        ("detector", "excess_noise_index", 1000, "overflowed")])
    def test_overflowing_model_is_1(self, tmp_path, capsys, section, key,
                                    value, reason):
        # finite values whose SNR overflows to NaN or raises OverflowError
        data = scenario_to_dict(table1_preset("apd"))
        (data[section] if section else data)[key] = value
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and reason in err

    def test_sweep_of_an_overflowing_model_is_1(self, tmp_path, capsys):
        # a gain whose M**2 * F(M) overflows: every distance's SNR is NaN
        data = scenario_to_dict(table1_preset("apd"))
        data["detector"]["gain"] = 1e160
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "snr-curve", "--n", "2",
                                 "--config", str(path))
        assert code == 1 and out == ""
        assert "the trigger SNR at 25 m is not a number" in err

    def test_overflowing_gain_optimum_is_1(self, tmp_path, capsys):
        # a dark APD's optimum is the upper bound, where M**2 * F(M)
        # overflows
        data = scenario_to_dict(table1_preset("apd"))
        data["solar"]["illuminance_klux"] = 0.0
        data["detector"]["bulk_dark_current_na"] = 0.0
        path = tmp_path / "dark.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "optimize-gain", "--config",
                                 str(path), "--gain-max", "1e200")
        assert code == 1 and out == ""
        assert "the trigger SNR at gain 1e+200 is not a number" in err

    def test_overflowing_gain_curve_is_1(self, tmp_path, capsys):
        # the table1 optimum is finite, but M**2 * F(M) overflows at the
        # curve's gains of 1e150 and 1e200
        out_path = tmp_path / "gain.csv"
        code, out, err = run_cli(capsys, "optimize-gain", "--gain-max",
                                 "1e200", "--curve-points", "5",
                                 "--out", str(out_path))
        assert code == 1 and out == "" and not out_path.exists()
        assert "the trigger SNR at gain 1e+150 is not a number" in err

    @pytest.mark.parametrize("section,key", [
        ("detector", "gain"), (None, "bandwidth_mhz"),
        ("optics", "aperture_radius_m")])
    def test_infinity_is_1(self, tmp_path, capsys, section, key):
        data = scenario_to_dict(table1_preset("apd"))
        (data[section] if section else data)[key] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert "Infinity" in path.read_text(encoding="utf-8")
        code, out, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1 and out == ""
        where = f"{section}.{key}" if section else key
        assert f"{where}: inf is not a finite number" in err

    @pytest.mark.parametrize("argv,message", [
        (["snr-curve", "--rmax", "inf"], "hi=inf must be finite"),
        (["snr-curve", "--rmin", "nan"], "lo=nan and hi=500.0 must be finite"),
        (["optimize-gain", "--gain-max", "inf"], "gain_bounds must satisfy"),
        (["optimize-gain", "--gain-max", "nan"], "gain_bounds must satisfy")])
    def test_non_finite_bound_is_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("rows,message", [
        ("890,1.0\n920,1.0,0.5\n", ":2: expected 3 columns"),
        ("890,1.0,0.5\n920,bright,0.5\n", ":3: non-numeric value"),
        ("890,1.0,0.5\n", ": spectrum table needs at least 2 rows")],
        ids=["two-columns", "non-numeric", "one-row"])
    def test_malformed_spectrum_csv_is_1(self, tmp_path, capsys, rows,
                                         message):
        data = scenario_to_dict(table1_preset("apd"))
        data["solar"] = {"mode": "spectrum_integral",
                         "spectrum_csv": "spectrum.csv"}
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("wavelength_nm,irradiance_w_m2_nm,transmittance\n"
                            + rows, encoding="utf-8")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"{spectrum}{message}" in err

    @pytest.mark.parametrize("broken", ["scenario", "spectrum"])
    def test_non_utf8_file_is_1(self, tmp_path, capsys, broken):
        data = scenario_to_dict(table1_preset("apd"))
        data["solar"] = {"mode": "spectrum_integral",
                         "spectrum_csv": "spectrum.csv"}
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("wavelength_nm,irradiance_w_m2_nm,transmittance\n"
                            "890,1.0,0.5\n920,1.0,0.5\n", encoding="utf-8")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        bad = path if broken == "scenario" else spectrum
        bad.write_bytes(b"\xff" + bad.read_bytes())
        code, out, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert f"{bad}: 'utf-8' codec can't decode byte 0xff" in err

    @pytest.mark.parametrize("broken", ["scenario", "spectrum"])
    def test_non_utf8_after_bom_is_1(self, tmp_path, capsys, broken):
        data = scenario_to_dict(table1_preset("apd"))
        data["solar"] = {"mode": "spectrum_integral",
                         "spectrum_csv": "spectrum.csv"}
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("wavelength_nm,irradiance_w_m2_nm,transmittance\n"
                            "890,1.0,0.5\n920,1.0,0.5\n", encoding="utf-8")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, plain, _ = run_cli(capsys, "range", "--config", str(path))
        assert code == 0
        for f in (path, spectrum):
            f.write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
        assert run_cli(capsys, "range", "--config", str(path)) == (0, plain, "")
        # a BOM does not make other bytes readable
        bad = path if broken == "scenario" else spectrum
        bad.write_bytes(bad.read_bytes() + b"\xff")
        code, out, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1 and out == ""
        assert f"{bad}: 'utf-8' codec can't decode byte 0xff" in err

    def test_deeply_nested_json_is_1(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code, out, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: maximum recursion depth")

    def test_underflowing_range_is_1(self, capsys):
        # range**2 underflows to 0 in the echo power's denominator
        code, out, err = run_cli(capsys, "snr-curve", "--rmin", "1e-320",
                                 "--rmax", "1e-319", "--n", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: a number overflowed or underflowed")


def _odd_bound_argvs() -> list[list[str]]:
    """Every grid command on odd bounds, sizes, spacings and formats."""
    argvs = []
    bounds = ("0", "-1", "1e-300", "1e308", "nan", "inf")
    for lo, hi in itertools.product(bounds, repeat=2):
        for n in ("1", "2", "5"):
            argvs.append(["optimize-gain", "--gain-min", lo, "--gain-max", hi,
                          "--curve-points", n])
            for fmt in ("csv", "svg"):
                argvs.append(["sipm-response", "--nmin", lo, "--nmax", hi,
                              "--n", n, "--format", fmt])
                for spacing in ("linear", "log"):
                    grid = ["--n", n, "--spacing", spacing, "--format", fmt]
                    argvs.append(["snr-curve", "--rmin", lo, "--rmax", hi,
                                  *grid])
                    argvs += [["sweep", "--kind", kind, "--min", lo,
                               "--max", hi, *grid]
                              for kind in ("distance", "elevation",
                                           "illuminance")]
    return random.Random(24).sample(argvs, 300)


class TestNoCommandRaises:
    # a point a log x axis cannot place (x <= 0) once crashed the SVG writer
    def test_log_axis_leaves_out_x_at_0(self, tmp_path, capsys):
        svg = tmp_path / "x.svg"
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "illuminance", "--detector", "apd",
            "--min", "0", "--max", "100", "--n", "5", "--spacing", "linear",
            "--format", "svg", "--out", str(svg))
        assert code == 0 and err == ""
        _, points = svg.read_text(encoding="utf-8").split('polyline points="')
        assert len(points.split('"')[0].split()) == 4  # of 5 CSV rows

    def test_sweep_with_no_finite_row_draws_empty_axes(self, tmp_path, capsys):
        # no sunlight and no dark counts: the SNR is infinite at every range
        data = scenario_to_dict(table1_preset("sipm"))
        data["solar"]["illuminance_klux"] = 0.0
        data["detector"]["dark_count_rate_cps"] = 0.0
        config = tmp_path / "noiseless.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run_cli(capsys, "snr-curve", "--config", str(config))
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows and all(row.split(",")[1:] == ["inf", "sipm:noiseless"]
                            for row in rows)
        svg = tmp_path / "x.svg"
        code, _, err = run_cli(capsys, "snr-curve", "--config", str(config),
                               "--format", "svg", "--out", str(svg))
        assert code == 0 and err == ""
        text = svg.read_text(encoding="utf-8")
        ET.fromstring(text)
        assert "<polyline" not in text

    @pytest.mark.parametrize("nmin,nmax,labels", [
        # 601 decades once wrote one label each, 917 text elements in all
        ("1e-300", "1e300", ["1e-300", "1e-200", "1e-100", "1", "1e+100",
                             "1e+200", "1e+300"]),
        # the decade past 1e308 once overflowed, and the command exited 1
        ("1", "1e308", ["1", *(f"1e+{d}" for d in range(50, 301, 50))])])
    def test_log_axes_label_at_most_ten_decades(self, tmp_path, capsys,
                                                nmin, nmax, labels):
        svg = tmp_path / "wide.svg"
        code, _, err = run_cli(capsys, "sipm-response", "--nmin", nmin,
                               "--nmax", nmax, "--format", "svg",
                               "--out", str(svg))
        assert code == 0 and err == ""
        texts = [el for el in ET.fromstring(svg.read_text(encoding="utf-8"))
                 if el.tag.endswith("text")]
        # x tick labels are centred, y tick labels end at the axis
        x_ticks = [el.text for el in texts if el.get("text-anchor") == "middle"
                   and el.get("font-size") == "11"]
        y_ticks = [el.text for el in texts if el.get("text-anchor") == "end"]
        assert x_ticks == labels
        assert 2 <= len(y_ticks) <= 10
        assert len(texts) == 2 + 9 + len(x_ticks) + len(y_ticks)

    def test_one_point_log_grid_checks_its_bound(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sipm-response", "--nmin", "0",
                               "--n", "1", "--format", "svg",
                               "--out", str(tmp_path / "x.svg"))
        assert code == 1 and err == "error: log grid requires lo > 0\n"

    @pytest.mark.parametrize("lo,hi,n,labels", [
        # a span of two ULPs once never advanced the tick loop
        ("10", "10.000000000000002", "2", ["10", "10"]),
        # a span below 1e-12 once rounded every tick to a "0" off the plot
        ("1e-14", "5e-14", "3", ["1e-14", "2e-14", "3e-14", "4e-14",
                                 "5e-14"]),
        # a subnormal span once raised a math domain error from log10(0)
        ("0", "1e-323", "3", ["0", "9.88131e-324"])])
    def test_narrow_linear_axis_is_drawn(self, tmp_path, lo, hi, n, labels):
        svg = tmp_path / "narrow.svg"
        # a child process, in bounded memory and time: the loop that never
        # ended grew its tick list without bound
        proc = subprocess.run(
            [sys.executable, "-m", "dtofsim.cli", "sweep", "--kind",
             "elevation", "--min", lo, "--max", hi, "--n", n, "--format",
             "svg", "--out", str(svg)],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (2 ** 30, 2 ** 30)))
        assert proc.returncode == 0 and proc.stderr == ""
        texts = [el for el in ET.fromstring(svg.read_text(encoding="utf-8"))
                 if el.tag.endswith("text") and el.get("font-size") == "11"
                 and el.get("text-anchor") == "middle"]
        assert [el.text for el in texts] == labels
        xs = [float(el.get("x")) for el in texts]  # the plot spans 80..770
        assert xs == sorted(set(xs)) and 80 <= xs[0] and xs[-1] <= 770

    def test_odd_bounds_exit_with_a_documented_code(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        codes = {}
        for argv in _odd_bound_argvs():
            codes[" ".join(argv)] = main([*argv, "--out", out])
        capsys.readouterr()
        assert {a: c for a, c in codes.items() if c not in range(4)} == {}


@settings(max_examples=300, deadline=None)
@given(magnitude=st.floats(1e-300, 1e300), negative=st.booleans(),
       ulps=st.integers(1, 1000))
def test_linear_ticks_are_distinct_sorted_and_in_range(magnitude, negative,
                                                       ulps):
    lo = -magnitude if negative else magnitude
    hi = lo + ulps * math.ulp(lo)
    ticks = _axis_ticks(lo, hi, log=False)
    assert 1 <= len(ticks) <= 7
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
    assert lo <= ticks[0] and ticks[-1] <= hi


def test_a_linear_tick_at_zero_reads_0():
    # ticks summed step by step once reached -0.0, which is labelled "-0"
    assert [f"{t:g}" for t in _axis_ticks(-1.0, 0.148, log=False)] \
        == ["-1", "-0.8", "-0.6", "-0.4", "-0.2", "0"]


def test_analytic_commands_load_no_numpy(tmp_path):
    # numpy is a large share of a command's start-up; only the Monte Carlo
    # imports it
    curve = str(tmp_path / "gain.csv")
    probe = f"""
import contextlib, io, sys
import dtofsim
from dtofsim.cli import main
from dtofsim.ranging import SENSITIVITY_PARAMS
loaded = ["import dtofsim"] if "numpy" in sys.modules else []
for argv in (["range", "--detector", "apd"], ["range", "--detector", "sipm"],
             ["snr-curve"], ["sweep", "--kind", "distance"],
             ["sensitivity", "--param", "all"],
             ["sweep", "--kind", "illuminance"], ["sipm-response"],
             ["optimize-gain", "--out", {curve!r}],
             ["sweep", "--kind", "distance", "--spacing", "log"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code or "numpy" in sys.modules:
        loaded.append(f"{{' '.join(argv)}} (exit {{code}})")
print(loaded)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_dataclasses_inspect_csv_or_numpy():
    # start-up cost: the records in errors.py spare it dataclasses and the
    # inspect it imports; csv and numpy load only where they are used.
    # Modules a site hook loaded before the import do not count
    probe = """
import sys
before = set(sys.modules)
import dtofsim.cli
print(sorted((set(sys.modules) - before)
             & {"dataclasses", "inspect", "csv", "numpy"}))
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_monte_carlo_range_in_a_fresh_process(tmp_path):
    # the lazily imported Monte Carlo gives the pinned table1 value of
    # tests/test_sipm.py::test_table1_monte_carlo_range_is_pinned
    data = scenario_to_dict(table1_preset("sipm"))
    data["detector"].update(snr_mode="monte_carlo",
                            mc={"n_trials": 8, "seed": 11})
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "dtofsim.cli", "range",
                           "--config", str(path)],
                          capture_output=True, text=True, check=True)
    cells = proc.stdout.splitlines()[1].split(",")
    assert cells[:3] == ["sipm", format_number(268.49897835809765),
                         format_number(4.9615374636132215)]
    assert cells[5:] == ["6", format_number(0.6290533473687543)]


def test_import_loads_no_scipy():
    probe = ("import sys, dtofsim; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
