import json
import subprocess
import sys

import pytest

from dtofsim.cli import main
from dtofsim.scenario import (load_scenario, save_scenario, scenario_to_dict,
                              table1_preset)
from dtofsim.sweeps import MAX_GRID_POINTS


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

    def test_stdout_mode(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "table1", "--detector", "sipm")
        assert code == 0
        data = json.loads(out)
        assert data["detector"]["type"] == "sipm"

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
                            "min_detectable_power_w,background_power_w,method")
        cells = lines[1].split(",")
        assert cells[0] == "apd"
        assert float(cells[1]) == pytest.approx(350.60456463121545, rel=1e-6)

    def test_both_detectors_rejected(self, capsys):
        code, _, err = run_cli(capsys, "range", "--detector", "both")
        assert code == 1
        assert "sweep" in err

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "sipm.json"
        save_scenario(table1_preset("sipm"), str(path))
        code, out, _ = run_cli(capsys, "range", "--config", str(path))
        assert code == 0
        assert out.splitlines()[1].startswith("sipm,")

    def test_config_plus_detector_flag_rejected(self, tmp_path, capsys):
        path = tmp_path / "apd.json"
        save_scenario(table1_preset("apd"), str(path))
        code, _, err = run_cli(capsys, "range", "--config", str(path),
                               "--detector", "apd")
        assert code == 1


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

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "distance",
                               "--detector", "apd", "--n", "3")
        assert code == 0
        assert out.splitlines()[0] == "range_m,snr_apd,status"


class TestOptimizeGain:
    def test_prints_optimum(self, capsys):
        code, out, _ = run_cli(capsys, "optimize-gain", "--detector", "apd")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("gain_opt,")
        assert float(lines[0].split(",")[1]) == pytest.approx(30.87, abs=0.05)

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


class TestExitCodes:
    def test_validation_error_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema_version\": 1}", encoding="utf-8")
        code, _, err = run_cli(capsys, "range", "--config", str(bad))
        assert code == 1
        assert "missing required key" in err

    def test_solver_error_is_2(self, tmp_path, capsys):
        config = table1_preset("apd")
        from dataclasses import replace

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
        assert "dark_count_rate_cps must be >= 0" in err

    def test_oversized_integer_is_1(self, tmp_path, capsys):
        data = scenario_to_dict(table1_preset("apd"))
        data["laser"]["peak_power_w"] = 10 ** 400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run_cli(capsys, "range", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and "laser.peak_power_w" in err

    def test_negative_seed_is_1(self, capsys):
        code, _, err = run_cli(capsys, "range", "--detector", "sipm",
                               "--seed", "-5")
        assert code == 1
        assert "seed must be >= 0" in err


def test_import_loads_no_scipy():
    probe = ("import sys, dtofsim; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
