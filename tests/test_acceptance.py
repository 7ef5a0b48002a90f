"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from dtofsim import (TdcPolicy, correct_detection_prob, false_alarm_prob,
                     table1_preset)
from dtofsim.apd import optimize_gain, trigger_snr
from dtofsim.physconst import photon_energy
from dtofsim.ranging import max_range, sensitivity, snr_at_range
from dtofsim.scenario import save_scenario, scenario_to_dict
from dtofsim.sipm import (PhotonCounts, SipmMcConfig, SipmParams, fired_count,
                          fired_std, monte_carlo_snr, trigger_snr_analytic)

from oracles import closed_form_max_range, grid_argmax, sipm_firing_mc

P_RS_REF = 2.5099212581122908e-08
H_NU = photon_energy(905e-9)


def report(number: int, passed: bool, message: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {message}")
    assert passed, message


def test_criterion_1_tdc_statistics():
    p_f = false_alarm_prob(5.0)
    # 400 comparisons: a 4 us window at 100 MHz
    p_correct = correct_detection_prob(TdcPolicy(tnr=5.0), 400, 0.5)
    ok = p_f < 3e-7 and abs(p_correct - 0.99977) <= 1e-5
    report(1, ok, f"false alarm {p_f:.4e} < 3e-7 and single-shot correct "
                  f"probability {p_correct:.6f} = 0.99977 +- 1e-5")


def test_criterion_2_fired_pixel_statistics_vs_simulation():
    worst_mean_z = worst_var_z = 0.0
    for n_pixels in (4, 16):
        for pde in (0.10, 0.22):
            for q in (1.0, 5.0, 20.0):
                params = SipmParams(n_pixels=n_pixels, pde=pde,
                                    dead_time_s=6e-9)
                mc = sipm_firing_mc(n_pixels, pde, q, trials=1_000_000,
                                    seed=hash((n_pixels, pde, q)) % 2 ** 31)
                mean_z = abs(fired_count(params, q) - mc["mean"]) / mc["se_mean"]
                var_z = abs(fired_std(params, q) ** 2 - mc["var"]) / mc["se_var"]
                worst_mean_z = max(worst_mean_z, mean_z)
                worst_var_z = max(worst_var_z, var_z)
    ok = worst_mean_z < 3.0 and worst_var_z < 3.0
    report(2, ok, f"fired-count mean/variance vs 1e6-trial simulation over "
                  f"the 12-point grid: worst z = {worst_mean_z:.2f} (mean), "
                  f"{worst_var_z:.2f} (variance), both < 3")


def test_criterion_3_inverse_square_law():
    config = table1_preset("apd")
    s50 = snr_at_range(config, config.detector, 50.0)
    s300 = snr_at_range(config, config.detector, 300.0)
    slope = (math.log(s300) - math.log(s50)) / (math.log(300.0) - math.log(50.0))
    ok = abs(slope + 2.0) <= 1e-3
    report(3, ok, f"log-log SNR slope over [50, 300] m = {slope:.6f} "
                  f"= -2.000 +- 0.001")


def test_criterion_4_detector_ordering_and_crossover():
    apd_config = table1_preset("apd")
    sipm_config = table1_preset("sipm")
    r_apd = max_range(apd_config, apd_config.detector, apd_config.tdc).r_max_m
    r_sipm = max_range(sipm_config, sipm_config.detector,
                       sipm_config.tdc).r_max_m
    ordering = r_apd > r_sipm

    diffs = []
    for klux in np.geomspace(0.1, 100.0, 50):
        ca = replace(apd_config,
                     solar=replace(apd_config.solar, illuminance_klux=klux))
        cs = replace(sipm_config,
                     solar=replace(sipm_config.solar, illuminance_klux=klux))
        diffs.append(max_range(cs, cs.detector, cs.tdc).r_max_m
                     - max_range(ca, ca.detector, ca.tdc).r_max_m)
    signs = [d > 0 for d in diffs]
    crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    ok = ordering and signs[0] and not signs[-1] and crossings == 1
    report(4, ok, f"at 100 klux APD range {r_apd:.1f} m > SiPM "
                  f"{r_sipm:.1f} m, with exactly one crossover illuminance "
                  f"on a 50-point log grid below which SiPM wins")


def test_criterion_5_closed_form_consistency():
    sipm_config = table1_preset("sipm")
    det_approx = replace(sipm_config.detector, snr_mode="approx")
    pipeline_sipm = max_range(sipm_config, det_approx, sipm_config.tdc).r_max_m
    closed_sipm = closed_form_max_range(sipm_config, sipm_config.detector)
    gap_sipm = abs(pipeline_sipm / closed_sipm - 1.0)

    apd_config = table1_preset("apd")
    params = replace(apd_config.detector.params, surface_dark_current_a=0.0,
                     bulk_dark_current_a=0.0, load_resistance_ohm=1e300,
                     amplifier_noise_a=0.0)
    det_pl = replace(apd_config.detector, params=params)
    config_pl = replace(apd_config, detector=det_pl)
    pipeline_apd = max_range(config_pl, det_pl, config_pl.tdc).r_max_m
    closed_apd = closed_form_max_range(config_pl, det_pl)
    gap_apd = abs(pipeline_apd / closed_apd - 1.0)

    ok = gap_sipm <= 1e-12 and gap_apd <= 1e-12
    report(5, ok, f"closed-form range vs pipeline: SiPM gap {gap_sipm:.2e} "
                  f"<= 1e-12, photon-limited APD gap {gap_apd:.2e} <= 1e-12")


def test_criterion_6_sensitivity_exponents():
    config = table1_preset("sipm")
    det = replace(config.detector, snr_mode="approx")
    expected = {"peak_power_w": 0.5, "reflectivity": 0.25, "pde": 0.25,
                "sun_irradiance": -0.25}
    worst = 0.0
    values = {}
    for name, exponent in expected.items():
        value = sensitivity(config, det, config.tdc, name)
        values[name] = value
        worst = max(worst, abs(value - exponent))
    ok = worst <= 1e-3
    report(6, ok, "photon-limited elasticities "
                  + ", ".join(f"{k}={v:+.4f}" for k, v in values.items())
                  + f" match the printed exponents within 1e-3 "
                  f"(worst gap {worst:.1e})")


def test_criterion_7_gain_optimum_stationarity():
    config = table1_preset("apd")
    params = config.detector.params
    p_r = 1.946430675e-07
    gain_star, snr_star = optimize_gain(params, P_RS_REF, config.bandwidth_hz,
                                        (1.0, 1000.0), p_r=p_r)
    h = gain_star * 1e-4
    up = trigger_snr(replace(params, gain=gain_star + h), p_r, P_RS_REF,
                     config.bandwidth_hz)
    down = trigger_snr(replace(params, gain=gain_star - h), p_r, P_RS_REF,
                       config.bandwidth_hz)
    derivative = abs(up - down) / (2 * h)
    grid_star, _ = grid_argmax(
        lambda g: trigger_snr(replace(params, gain=g), p_r, P_RS_REF,
                              config.bandwidth_hz), 1.0, 1000.0, 0.01)
    interior = 1.0 + 1e-6 < gain_star < 1000.0 - 1e-6
    ok = interior and derivative < 1e-6 * snr_star \
        and abs(gain_star - grid_star) < 0.1
    report(7, ok, f"interior gain optimum {gain_star:.3f}: finite-difference "
                  f"slope {derivative:.2e} < 1e-6 * SNR and within "
                  f"{abs(gain_star - grid_star):.3f} of exhaustive grid search")


def test_criterion_8_monte_carlo_vs_analytic():
    params = SipmParams(n_pixels=400, pde=0.22, dead_time_s=6e-9,
                        dark_count_rate_cps=2007.0)
    bandwidth = 1.0 / 6e-9  # counting period equal to the dead time

    # dilute regime: 1 klux-equivalent background, 50 signal photons
    p_rs = P_RS_REF / 100.0
    p_r = 50.0 * 2.0 * H_NU / 6e-9
    counts = PhotonCounts.from_powers(p_r, p_rs, 6e-9, 905e-9, 6e-9)
    analytic = trigger_snr_analytic(params, counts)
    mc = SipmMcConfig(n_trials=600, time_step_s=1e-10, seed=20240905,
                      warmup_s=6e-8, n_noise_periods=30)
    snr, se = monte_carlo_snr(params, p_r, p_rs, 6e-9, 905e-9, bandwidth, mc)
    dilute_ok = abs(snr - analytic) < 3.0 * se

    # heavy background: one background photon per pixel per detection
    p_rs_heavy = (params.n_pixels / params.pde) * H_NU / 6e-9
    p_r_heavy = 700.0 * 2.0 * H_NU / 6e-9
    counts_heavy = PhotonCounts.from_powers(p_r_heavy, p_rs_heavy, 6e-9,
                                            905e-9, 6e-9)
    analytic_heavy = trigger_snr_analytic(params, counts_heavy)
    mc_heavy = SipmMcConfig(n_trials=400, time_step_s=1e-10, seed=20240906,
                            warmup_s=6e-8, n_noise_periods=30)
    snr_heavy, se_heavy = monte_carlo_snr(params, p_r_heavy, p_rs_heavy, 6e-9,
                                          905e-9, bandwidth, mc_heavy)
    heavy_ok = snr_heavy + 3.0 * se_heavy < analytic_heavy

    ok = dilute_ok and heavy_ok
    report(8, ok, f"dilute regime: simulated SNR {snr:.3f} +- {se:.3f} vs "
                  f"analytic {analytic:.3f} (|z| = {abs(snr - analytic) / se:.2f} "
                  f"< 3); heavy background: simulated {snr_heavy:.3f} is "
                  f"strictly below analytic {analytic_heavy:.3f} "
                  f"(ratio {snr_heavy / analytic_heavy:.3f})")


def test_criterion_9_cli_determinism(tmp_path):
    def run(argv, out_name):
        out = tmp_path / out_name
        proc = subprocess.run(
            [sys.executable, "-m", "dtofsim.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, check=True)
        return out.read_bytes(), proc.stdout.encode()

    checks = []
    # analytic sweep
    sweep_args = ["sweep", "--kind", "distance", "--detector", "both",
                  "--n", "24"]
    a = run(sweep_args, "sweep_a.csv")
    b = run(sweep_args, "sweep_b.csv")
    checks.append(a == b)

    # fired-count response curves
    a = run(["sipm-response", "--n", "17"], "resp_a.csv")
    b = run(["sipm-response", "--n", "17"], "resp_b.csv")
    checks.append(a == b)

    # Monte Carlo SNR curve driven by a config file with a fixed seed
    config = table1_preset("sipm")
    data = scenario_to_dict(config)
    data["detector"]["snr_mode"] = "monte_carlo"
    data["detector"]["mc"] = {"n_trials": 40, "time_step_ns": 0.1,
                              "pulse_shape": "rectangular", "seed": 123,
                              "warmup_ns": 60.0, "n_noise_periods": 12}
    config_path = tmp_path / "mc.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")
    mc_args = ["snr-curve", "--config", str(config_path), "--rmin", "80",
               "--rmax", "160", "--n", "3"]
    a = run(mc_args, "mc_a.csv")
    b = run(mc_args, "mc_b.csv")
    checks.append(a == b)

    ok = all(checks)
    report(9, ok, "CLI outputs byte-identical across repeated runs: "
                  "distance sweep, response curves, and seeded Monte Carlo "
                  "SNR curve")
