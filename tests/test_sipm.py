import hashlib
import itertools
import json
import math
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtofsim import ConfigError, SipmSaturationError, ranging, sipm
from dtofsim.detectors import SipmChoice
from dtofsim.errors import replace
from dtofsim.physconst import photon_energy
from dtofsim.scenario import load_scenario, scenario_to_dict, table1_preset
from dtofsim.sipm import (DARK_LOAD_WARN_THRESHOLD, PhotonCounts,
                          SipmMcConfig, SipmParams, background_occupancy,
                          dark_occupancy, fired_count, fired_std,
                          monte_carlo_snr, signal_fired, trigger_snr_analytic,
                          trigger_snr_approx)

from oracles import (sample_moments, sipm_dead_time_trial, sipm_firing_mc,
                     sipm_two_phase_trials)

TABLE1_SIPM = SipmParams(n_pixels=400, pde=0.22, dead_time_s=6e-9,
                         dark_count_rate_cps=2007.0)
# reference operating point at 100 m, frozen from the link equations
P_R_REF = 1.946430675e-07
P_RS_REF = 2.5099212581122908e-08
H_NU = photon_energy(905e-9)
COUNTS_REF = PhotonCounts.from_powers(P_R_REF, P_RS_REF, 6e-9, 905e-9, 6e-9)


def photons(n_s: float) -> float:
    """Echo peak power that corresponds to n_s signal photons."""
    return n_s * 2.0 * H_NU / 6e-9


class TestFiredCount:
    def test_no_photons(self):
        assert fired_count(TABLE1_SIPM, 0.0) == 0.0

    def test_reference_point(self):
        # frozen 50-digit evaluation; cross-checked by simulation below
        assert fired_count(TABLE1_SIPM, 100.0) == pytest.approx(
            21.40021558983778, rel=1e-12)

    def test_saturates_at_pixel_count(self):
        assert fired_count(TABLE1_SIPM, 1e9) == pytest.approx(400.0, rel=1e-9)
        assert fired_count(TABLE1_SIPM, 1e9) <= 400.0
        assert fired_count(TABLE1_SIPM, 1e4) < 400.0

    def test_against_firing_simulation(self):
        mc = sipm_firing_mc(400, 0.22, 100.0, trials=200_000, seed=42)
        assert abs(fired_count(TABLE1_SIPM, 100.0) - mc["mean"]) \
            < 3 * mc["se_mean"]
        assert abs(fired_std(TABLE1_SIPM, 100.0) ** 2 - mc["var"]) \
            < 3 * mc["se_var"]

    @given(st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=1.0, max_value=1e4))
    def test_monotone_and_bounded(self, n, dn):
        lo = fired_count(TABLE1_SIPM, n)
        hi = fired_count(TABLE1_SIPM, n + dn)
        assert lo <= hi <= TABLE1_SIPM.n_pixels
        assert lo <= min(TABLE1_SIPM.pde * n, TABLE1_SIPM.n_pixels) + 1e-9

    def test_concavity_on_grid(self):
        grid = np.linspace(0.0, 5000.0, 200)
        values = [fired_count(TABLE1_SIPM, n) for n in grid]
        second = np.diff(values, 2)
        assert (second <= 1e-9).all()

    def test_linear_regime(self):
        # below 1% array loading the response is the detected photon count
        for n in (1.0, 5.0, 15.0):
            assert n * TABLE1_SIPM.pde / TABLE1_SIPM.n_pixels < 0.01
            assert fired_count(TABLE1_SIPM, n) == pytest.approx(
                TABLE1_SIPM.pde * n, rel=0.01)


class TestFiredStd:
    def test_no_photons(self):
        assert fired_std(TABLE1_SIPM, 0.0) == 0.0

    def test_reference_point(self):
        assert fired_std(TABLE1_SIPM, 100.0) == pytest.approx(
            4.500588019537996, rel=1e-12)

    def test_saturation_quenches_fluctuation(self):
        assert fired_std(TABLE1_SIPM, 1e9) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("response", [fired_count, fired_std])
    def test_negative_photon_count_rejected(self, response):
        with pytest.raises(ConfigError, match="n_photon"):
            response(TABLE1_SIPM, -1.0)


class TestOccupancies:
    def test_background_occupancy_reference(self):
        assert background_occupancy(TABLE1_SIPM, COUNTS_REF) == pytest.approx(
            125.7014886268859, rel=1e-11)

    def test_background_occupancy_zero(self):
        counts = PhotonCounts(n_b_photon=0.0, n_s_photon=10.0)
        assert background_occupancy(TABLE1_SIPM, counts) == 0.0

    def test_dark_occupancy_reference(self):
        n_d, sigma_d = dark_occupancy(TABLE1_SIPM)
        assert n_d == pytest.approx(0.0048168, rel=1e-12)
        assert sigma_d == pytest.approx(0.06940316995642203, rel=1e-12)

    def test_dark_occupancy_off(self):
        params = replace(TABLE1_SIPM, dark_count_rate_cps=0.0)
        assert dark_occupancy(params) == (0.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=4000.0))
    def test_poisson_identity(self, dcr):
        params = replace(TABLE1_SIPM, dark_count_rate_cps=dcr)
        n_d, sigma_d = dark_occupancy(params)
        assert sigma_d * sigma_d == pytest.approx(n_d, rel=1e-12, abs=1e-300)

    def test_dark_load_warning(self):
        # a dark load of 24 is reported by load_scenario, never by the model
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = SipmParams(n_pixels=400, pde=0.22, dead_time_s=6e-9,
                                dark_count_rate_cps=1e7)
            replace(params, n_pixels=800.0)
        assert dark_occupancy(params)[0] >= DARK_LOAD_WARN_THRESHOLD


class TestSignalFired:
    def test_no_signal_photons(self):
        counts = PhotonCounts(n_b_photon=100.0, n_s_photon=0.0)
        assert signal_fired(TABLE1_SIPM, counts, 20.0, 0.1) == 0.0

    def test_fully_occupied_array(self):
        assert signal_fired(TABLE1_SIPM, COUNTS_REF, 400.0, 0.0) == 0.0

    def test_overfull_array_raises(self):
        with pytest.raises(SipmSaturationError):
            signal_fired(TABLE1_SIPM, COUNTS_REF, 399.0, 2.0)

    def test_reference_point(self):
        n_b = background_occupancy(TABLE1_SIPM, COUNTS_REF)
        n_d, _ = dark_occupancy(TABLE1_SIPM)
        assert signal_fired(TABLE1_SIPM, COUNTS_REF, n_b, n_d) == \
            pytest.approx(210.76879811566667, rel=1e-11)

    def test_background_shrinks_dynamic_range(self):
        # stronger background strictly reduces the response at fixed signal
        values = []
        for n_bg in (0.0, 100.0, 300.0, 1000.0):
            counts = PhotonCounts(n_b_photon=n_bg, n_s_photon=500.0)
            n_b = background_occupancy(TABLE1_SIPM, counts)
            values.append(signal_fired(TABLE1_SIPM, counts, n_b, 0.0))
        assert all(b < a for a, b in zip(values, values[1:]))


class TestTriggerSnrAnalytic:
    def test_no_signal(self):
        counts = PhotonCounts(n_b_photon=100.0, n_s_photon=0.0)
        assert trigger_snr_analytic(TABLE1_SIPM, counts) == 0.0

    def test_noiseless_limit_sentinel(self):
        params = replace(TABLE1_SIPM, dark_count_rate_cps=0.0)
        counts = PhotonCounts(n_b_photon=0.0, n_s_photon=50.0)
        assert trigger_snr_analytic(params, counts) == math.inf

    def test_reference_point(self):
        assert trigger_snr_analytic(TABLE1_SIPM, COUNTS_REF) == pytest.approx(
            22.70085659073763, rel=1e-11)

    @staticmethod
    def composed(params, counts):
        """The trigger SNR composed from the public occupancy functions."""
        n_b = background_occupancy(params, counts)
        n_d, _ = dark_occupancy(params)
        n_s = signal_fired(params, counts, n_b, n_d)
        survival = math.exp(counts.n_b_photon
                            * math.expm1(-params.pde / params.n_pixels))
        variance = n_b * survival + n_d
        if n_s == 0.0:
            return 0.0
        if variance == 0.0:
            return math.inf
        return n_s / math.sqrt(variance)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.0, 1e6), st.floats(1e-6, 1.0), st.floats(0.0, 1e11),
           st.floats(0.0, 1e8) | st.just(math.inf),
           st.floats(0.0, 1e8) | st.just(math.inf))
    # no signal, the noiseless limit, and a dark load past the pixel count
    @example(400.0, 0.22, 2007.0, 100.0, 0.0)
    @example(400.0, 0.22, 0.0, 0.0, 50.0)
    @example(400.0, 0.22, 2e12, 0.0, 50.0)
    def test_equals_the_occupancy_composition_bit_for_bit(
            self, n_pixels, pde, dcr, n_b_photon, n_s_photon):
        params = SipmParams(n_pixels=n_pixels, pde=pde, dead_time_s=6e-9,
                            dark_count_rate_cps=dcr)
        counts = PhotonCounts(n_b_photon=n_b_photon, n_s_photon=n_s_photon)
        try:
            expected = self.composed(params, counts)
        except SipmSaturationError as exc:
            with pytest.raises(SipmSaturationError,
                               match=f"^{re.escape(str(exc))}$"):
                trigger_snr_analytic(params, counts)
            return
        assert trigger_snr_analytic(params, counts).hex() == expected.hex()

    def test_saturation_message(self):
        params = replace(TABLE1_SIPM, dark_count_rate_cps=2e12)
        with pytest.raises(SipmSaturationError, match=re.escape(
                "background plus dark occupancy 4.8e+06 exceeds the "
                "400-pixel array")):
            trigger_snr_analytic(params, COUNTS_REF)

    def test_matches_approximation_at_detection_limit(self):
        # low background (1 klux equivalent) so occupancies stay far below
        # the pixel count; compare at the range where the SNR reaches 5
        p_rs = P_RS_REF / 100.0

        def analytic(r):
            counts = PhotonCounts.from_powers(P_R_REF * (100.0 / r) ** 2,
                                              p_rs, 6e-9, 905e-9, 6e-9)
            return trigger_snr_analytic(TABLE1_SIPM, counts)

        lo, hi = 100.0, 5000.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if analytic(mid) >= 5.0:
                lo = mid
            else:
                hi = mid
        r_lim = 0.5 * (lo + hi)
        p_r = P_R_REF * (100.0 / r_lim) ** 2
        approx = trigger_snr_approx(TABLE1_SIPM, PhotonCounts.from_powers(
            p_r, p_rs, 6e-9, 905e-9, 6e-9))
        assert approx == pytest.approx(analytic(r_lim), rel=0.10)

    def test_gap_closes_with_pixel_count(self):
        gaps = []
        for n_pixels in (1e2, 1e4, 1e6):
            params = SipmParams(n_pixels=n_pixels, pde=0.22, dead_time_s=6e-9)
            counts = PhotonCounts(n_b_photon=30.0, n_s_photon=10.0)
            analytic = trigger_snr_analytic(params, counts)
            approx = (counts.n_s_photon / math.sqrt(counts.n_b_photon)
                      * math.sqrt(params.pde))
            gaps.append(abs(approx / analytic - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4


class TestTriggerSnrApprox:
    def test_no_signal(self):
        assert trigger_snr_approx(TABLE1_SIPM, PhotonCounts.from_powers(
            0.0, P_RS_REF, 6e-9, 905e-9, 6e-9)) == 0.0

    def test_reference_point(self):
        assert trigger_snr_approx(TABLE1_SIPM, COUNTS_REF) == pytest.approx(
            47.63780970058583, rel=1e-12)

    def test_inverse_root_background(self):
        base = trigger_snr_approx(TABLE1_SIPM, COUNTS_REF)
        quad = trigger_snr_approx(TABLE1_SIPM, PhotonCounts.from_powers(
            P_R_REF, 4 * P_RS_REF, 6e-9, 905e-9, 6e-9))
        assert quad == pytest.approx(base / 2.0, rel=1e-12)

    def test_dark_scene_sentinel(self):
        assert trigger_snr_approx(TABLE1_SIPM, PhotonCounts.from_powers(
            P_R_REF, 0.0, 6e-9, 905e-9, 6e-9)) == math.inf


class TestMonteCarlo:
    BW = 1.0 / 6e-9  # counting period equal to the dead time

    def quick_mc(self, seed=7, n_trials=60):
        return SipmMcConfig(n_trials=n_trials, time_step_s=1e-10, seed=seed,
                            warmup_s=6e-8, n_noise_periods=20)

    def test_deterministic_for_fixed_seed(self, monkeypatch):
        # the second call runs the background phase again rather than
        # restoring it, so both phases are checked for repeatability
        mc = self.quick_mc()
        args = (TABLE1_SIPM, photons(50.0), P_RS_REF / 100, 6e-9, 905e-9,
                self.BW, mc)
        first = monte_carlo_snr(*args)
        monkeypatch.setattr(sipm, "_last_background", None)
        assert monte_carlo_snr(*args) == first

    def test_seed_changes_results(self):
        args = (TABLE1_SIPM, photons(50.0), P_RS_REF / 100, 6e-9, 905e-9,
                self.BW)
        a = monte_carlo_snr(*args, self.quick_mc(seed=1))
        b = monte_carlo_snr(*args, self.quick_mc(seed=2))
        assert a != b

    def test_no_signal_consistent_with_zero(self):
        snr, se = monte_carlo_snr(TABLE1_SIPM, 0.0, P_RS_REF, 6e-9, 905e-9,
                                  self.BW, self.quick_mc(n_trials=100))
        assert abs(snr) < 3 * se

    def test_matches_analytic_in_dilute_regime(self):
        # compact version of the acceptance check (fewer trials)
        p_rs = P_RS_REF / 100.0
        p_r = photons(50.0)
        counts = PhotonCounts.from_powers(p_r, p_rs, 6e-9, 905e-9, 6e-9)
        analytic = trigger_snr_analytic(TABLE1_SIPM, counts)
        snr, se = monte_carlo_snr(TABLE1_SIPM, p_r, p_rs, 6e-9, 905e-9,
                                  self.BW, self.quick_mc(n_trials=150))
        assert abs(snr - analytic) < 3 * se

    def test_gaussian_pulse_shape_runs(self):
        mc = SipmMcConfig(n_trials=40, time_step_s=1e-10, seed=3,
                          warmup_s=6e-8, pulse_shape="gaussian")
        snr, se = monte_carlo_snr(TABLE1_SIPM, photons(50.0), P_RS_REF / 100,
                                  6e-9, 905e-9, self.BW, mc)
        assert snr > 0

    def test_step_size_guard(self):
        mc = SipmMcConfig(n_trials=10, time_step_s=1e-9, seed=0, warmup_s=6e-8)
        with pytest.raises(ConfigError, match="time_step"):
            monte_carlo_snr(TABLE1_SIPM, 0.0, P_RS_REF, 6e-9, 905e-9,
                            self.BW, mc)

    # quick_mc at self.BW counts 600 warm-up steps, 60 per noise period,
    # one more period and 4 * 60 for the pulse: 900 + 60 n for n periods
    @pytest.mark.parametrize("change,key", [
        ({"n_noise_periods": 16652}, "mc.n_noise_periods"),  # 1000020 steps
        ({"time_step_s": 2.05e-13}, "mc.time_step_ns"),  # 1024390 steps
        ({"time_step_s": 1e-21}, "mc.time_step_ns"),
        ({"n_noise_periods": 10**30}, "mc.n_noise_periods"),
        ({"n_trials": 476191}, "mc.n_trials"),  # 476191 * 2100 steps > 1e9
        ({"n_trials": 10**30}, "mc.n_trials"),
    ], ids=["noise-periods", "time-step", "time-step-1e-21",
            "noise-periods-1e30", "trials", "trials-1e30"])
    def test_size_over_a_cap_is_rejected(self, change, key):
        mc = replace(self.quick_mc(), **change)
        with pytest.raises(ConfigError, match=f"{key}.*cap"):
            monte_carlo_snr(TABLE1_SIPM, photons(50.0), P_RS_REF / 100,
                            6e-9, 905e-9, self.BW, mc)

    def test_size_under_the_caps_runs(self, monkeypatch):
        args = (TABLE1_SIPM, photons(50.0), P_RS_REF / 100, 6e-9, 905e-9,
                self.BW)
        # 999960 steps in a trial, just under MAX_TRIAL_STEPS
        mc = replace(self.quick_mc(n_trials=2), n_noise_periods=16651)
        assert monte_carlo_snr(*args, mc)[0] > 0
        # a trial's work is 2100 steps, TRIAL_UNITS and 400 * (0.1325 +
        # 0.0275 + 2): each pixel's expected background and signal
        # detections, fewer than its 2100 / 61 dead times, and two draws at
        # the span's ends, 12964.0; MAX_WORK scaled down to between 4 and 5
        # trials of it
        assert sipm.TRIAL_UNITS == 10**4
        monkeypatch.setattr(sipm, "MAX_WORK", 4.5 * 12964.0)
        assert monte_carlo_snr(*args, self.quick_mc(n_trials=4))[0] > 0
        with pytest.raises(ConfigError, match="mc.n_trials"):
            monte_carlo_snr(*args, self.quick_mc(n_trials=5))

    def test_pixels_over_the_cap_are_rejected(self):
        params = replace(TABLE1_SIPM, n_pixels=sipm.MAX_PIXELS + 1,
                         dark_count_rate_cps=0.0)
        with mock.patch.object(sipm, "_background") as run:
            with pytest.raises(ConfigError, match="n_pixels.*cap"):
                monte_carlo_snr(params, photons(50.0), P_RS_REF / 100,
                                6e-9, 905e-9, self.BW, self.quick_mc())
        run.assert_not_called()

    def test_work_over_the_cap_is_rejected_before_a_trial(self):
        # inside the step and pixel caps, with trials x steps just under
        # 1e9: 1000 trials of 998583 steps at a tenth of the dead time on
        # 10**6 pixels, lit to about 0.15 detections a step, so each fires
        # once a dead time, are about 9e13 units of work, extrapolated to
        # days
        params = replace(TABLE1_SIPM, n_pixels=sipm.MAX_PIXELS,
                         dark_count_rate_cps=0.0)
        mc = replace(self.quick_mc(n_trials=1000), time_step_s=6e-10,
                     warmup_s=5.99e-4)
        with mock.patch.object(sipm, "_background") as run:
            with pytest.raises(ConfigError,
                               match=r"mc.n_trials: 1000 .*9.078e\+13 .*cap"):
                monte_carlo_snr(params, photons(50.0), P_RS_REF * 1e4,
                                6e-9, 905e-9, self.BW, mc)
        run.assert_not_called()

    def test_work_counts_expected_detections(self, sipm_config):
        # table1's SiPM with 10**6 dark-free pixels at the powers of 100 m:
        # a pixel expects 0.005 detections in a trial of 2100 steps, not
        # the 34 dead times of the most it could fire, so with TRIAL_UNITS
        # 100 trials are 2.0e8 units and reach the kernel, and 1000 are
        # 2.0e9
        params = replace(sipm_config.detector.params, n_pixels=10**6,
                         dark_count_rate_cps=0.0)
        args = (params, *ranging.link_powers(sipm_config, 100.0), 6e-9,
                905e-9, sipm_config.bandwidth_hz)
        mc = SipmMcConfig.for_dead_time(6e-9, n_trials=100)
        with mock.patch.object(sipm, "_background",
                               side_effect=RuntimeError("ran")) as run:
            with pytest.raises(RuntimeError, match="ran"):
                monte_carlo_snr(*args, mc)
            with pytest.raises(ConfigError,
                               match=r"mc.n_trials: 1000 .*2.018e\+09 .*cap"):
                monte_carlo_snr(*args, replace(mc, n_trials=1000))
        run.assert_called_once()

    def test_work_charges_each_trial_for_itself(self, tmp_path):
        # table1's SiPM with one dark-free pixel and 5e6 trials of 124
        # steps: without TRIAL_UNITS its 6.8e8 units would pass the cap
        # and build 5e6 generators, about 9 GB; with it they are 5.068e10
        data = scenario_to_dict(table1_preset("sipm"))
        data["detector"].update(
            n_pixels=1, dark_count_rate_cps=0, snr_mode="monte_carlo",
            mc={"n_trials": 5 * 10**6, "time_step_ns": 0.5,
                "warmup_ns": 20, "n_noise_periods": 2})
        path = tmp_path / "one_pixel.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        config = load_scenario(str(path))
        with mock.patch.object(sipm, "_background") as run, \
                mock.patch("numpy.random.Generator") as generator:
            with pytest.raises(ConfigError, match=r"mc.n_trials: 5000000 "
                               r"trials .*5.068e\+10 units .*over the cap"):
                ranging.max_range(config, config.detector, config.tdc)
        run.assert_not_called()
        generator.assert_not_called()

    @pytest.mark.parametrize("p_r,p_rs", [(math.nan, P_RS_REF),
                                          (photons(50.0), math.nan),
                                          (-1.0, P_RS_REF)],
                             ids=["nan-echo", "nan-background", "negative"])
    def test_powers_must_be_numbers_at_least_0(self, p_r, p_rs):
        with pytest.raises(ConfigError, match="optical powers"):
            monte_carlo_snr(TABLE1_SIPM, p_r, p_rs, 6e-9, 905e-9, self.BW,
                            self.quick_mc())

    @pytest.mark.parametrize("bandwidth_hz", [0.0, -1.0, math.nan])
    def test_bandwidth_must_be_above_0(self, bandwidth_hz):
        with pytest.raises(ConfigError, match="bandwidth_hz"):
            monte_carlo_snr(TABLE1_SIPM, photons(50.0), P_RS_REF, 6e-9,
                            905e-9, bandwidth_hz, self.quick_mc())

    @staticmethod
    def mc_snr_at_100_m(sipm_config, **counts):
        mc = replace(SipmMcConfig.for_dead_time(6e-9, seed=3, n_trials=8),
                     **{"n_noise_periods": 8, **counts})
        det = replace(sipm_config.detector, snr_mode="monte_carlo", mc=mc)
        return ranging.snr_at_range(sipm_config, det, 100.0)

    @pytest.mark.parametrize("field,value", [
        ("n_trials", 2.5), ("n_trials", 2.0000000000000004),
        ("n_trials", math.inf), ("n_noise_periods", 2.5),
        ("n_noise_periods", 20.5), ("n_noise_periods", math.inf),
        ("seed", 2.5), ("seed", 5e-324), ("seed", math.inf)])
    def test_counts_must_be_whole_numbers(self, sipm_config, field, value):
        with pytest.raises(ConfigError) as info:
            self.mc_snr_at_100_m(sipm_config, **{field: value})
        assert str(info.value) == f"{field} must be a whole number"

    @pytest.mark.parametrize("field", ["n_trials", "n_noise_periods", "seed"])
    def test_a_whole_float_count_runs_as_an_int(self, monkeypatch,
                                                sipm_config, field):
        assert type(getattr(replace(SipmMcConfig(), **{field: 8.0}),
                            field)) is int
        as_float = self.mc_snr_at_100_m(sipm_config, **{field: 8.0})
        monkeypatch.setattr(sipm, "_last_background", None)
        as_int = self.mc_snr_at_100_m(sipm_config, **{field: 8})
        assert (as_float, as_float.se) == (as_int, as_int.se)

    def test_warmup_guard(self):
        mc = SipmMcConfig(n_trials=10, time_step_s=1e-10, seed=0,
                          warmup_s=1e-8)
        with pytest.raises(ConfigError, match="warmup"):
            monte_carlo_snr(TABLE1_SIPM, 0.0, P_RS_REF, 6e-9, 905e-9,
                            self.BW, mc)


def hazard(p):
    """Per-step hazard whose firing probability is ``p`` (inf at p = 1)."""
    with np.errstate(divide="ignore"):
        return -np.log1p(-np.asarray(p, dtype=float))


def run_trials(rngs, n_pix, dead_steps, x_bg, warm_steps, n_noise_periods,
               period_steps, x_pulse, window_start, replay=False):
    """The kernel's background and pulse phases in ``monte_carlo_snr``'s
    layout: each trial's per-period background counts and its fired count
    in the counting period at the pulse.  With ``replay`` the pulse phase
    runs again from the generator states the background phase left, as on
    a remembered background, and the second run's counts are returned."""
    step_bin = np.r_[np.full(warm_steps, n_noise_periods),
                     np.arange(n_noise_periods * period_steps) // period_steps]
    per_period, ready_at = sipm._background(rngs, n_pix, dead_steps, x_bg,
                                            step_bin)
    states = [rng.bit_generator.state for rng in rngs]
    pulse_bin = np.zeros(x_pulse.size, dtype=np.int64)
    pulse_bin[window_start:window_start + period_steps] = 1
    for _ in range(1 + replay):
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state
        pulse_counts = sipm._pulse(rngs, ready_at, dead_steps, x_pulse,
                                   pulse_bin)[:, 1]
    return per_period[:, :n_noise_periods], pulse_counts


class StubDraws:
    """A stand-in trial generator whose exponentials are ``values`` in
    turn, so a test can put keys exactly on the pulse span's summed
    hazards."""

    def __init__(self, values):
        self.values = itertools.cycle(values)

    def standard_exponential(self, out):
        out[:] = list(itertools.islice(self.values, out.size))


def per_step_pulse(draws, ready_at, dead_steps, x_pulse, step_bin):
    """The pulse phase one trial and one draw at a time, in the kernel's
    draw order, each firing step found by a search over every step of the
    span's summed hazard.  Returns the counts per bin and every key."""
    cum = np.r_[0.0, np.cumsum(np.minimum(x_pulse, sipm._MAX_HAZARD))]
    steps = x_pulse.size
    counts = np.zeros((len(draws), int(step_bin.max()) + 1), dtype=np.int64)
    keys = []
    for i, values in enumerate(draws):
        values = itertools.cycle(values)
        ready = np.repeat(np.arange(ready_at.shape[1]), ready_at[i])
        ready = [s for s in ready.tolist() if s < steps]
        while ready:
            armed_again = []
            for s in ready:
                key = cum[s] + next(values)
                keys.append(key)
                if key < cum[-1]:
                    t = int(cum[1:].searchsorted(key, side="right"))
                    counts[i, step_bin[t]] += 1
                    if t + dead_steps + 1 < steps:
                        armed_again.append(t + dead_steps + 1)
            ready = armed_again
    return counts, np.array(keys)


class TestKernel:
    """The hazard kernel against the per-step law, the per-step reference
    loop and pinned outputs."""

    def test_first_firing_follows_the_step_law(self):
        # a ramped hazard, zero in the first step, and a dead time longer
        # than the span, so each pixel fires at most once: the step of its
        # first firing has probability prod(1 - p_j, j < t) * p_t
        from scipy.stats import chi2

        n_pix, x = 200_000, np.linspace(0.0, 0.1, 40)
        p = -np.expm1(-x)
        survive = np.concatenate([[1.0], np.cumprod(1.0 - p)])
        expected = n_pix * np.append(survive[:-1] * p, survive[-1])
        ready_at = np.zeros((1, x.size + 1), dtype=np.int64)
        ready_at[0, 0] = n_pix
        counts = sipm._pulse([np.random.default_rng(2024)], ready_at, x.size,
                             x, np.arange(x.size))[0]
        observed = np.append(counts, n_pix - counts.sum())
        assert observed[0] == 0 and expected[0] == 0
        stat = float((((observed - expected) ** 2)[1:] / expected[1:]).sum())
        assert chi2.sf(stat, df=observed.size - 2) > 1e-3

    def test_first_firing_under_a_constant_background_follows_the_step_law(
            self):
        # the closed form: a constant hazard for 30 steps, then a ramped
        # pulse span; about 2200 pixels fire first on the last background
        # step and 70 % of the rest inside the pulse
        from scipy.stats import chi2

        n_pix, x_bg = 200_000, 0.02
        x = np.r_[np.full(30, x_bg), np.linspace(0.02, 0.1, 20)]
        p = -np.expm1(-x)
        survive = np.concatenate([[1.0], np.cumprod(1.0 - p)])
        expected = n_pix * np.append(survive[:-1] * p, survive[-1])
        rngs = [np.random.default_rng(2025)]
        background, ready_at = sipm._background(rngs, n_pix, x.size, x_bg,
                                                np.arange(30))
        pulse = sipm._pulse(rngs, ready_at, x.size, x[30:], np.arange(20))
        observed = np.r_[background[0], pulse[0]]
        observed = np.append(observed, n_pix - observed.sum())
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert chi2.sf(stat, df=observed.size - 1) > 1e-3
        # and exactly the firings of the one-trial reference: one noise
        # period per background step, and the first pulse step
        per_step, first = sipm_two_phase_trials(
            [np.random.default_rng(2025)], n_pix, x.size, x_bg, 0, 30, 1,
            x[30:], 0, sipm._MAX_HAZARD)
        assert (per_step[0] == observed[:30]).all()
        assert first[0] == observed[30]

    @pytest.mark.parametrize("x_pulse,window_start", [
        (np.r_[np.full(4, 0.17), np.full(2, 0.02)], 0),   # rectangular
        (np.linspace(0.02, 0.4, 8), 1),                     # ramped
        (np.r_[np.full(2, np.inf), np.full(4, 0.02)], 0),  # p = 1
    ], ids=["rectangular", "ramped", "certain"])
    def test_agrees_with_reference_statistically(self, x_pulse, window_start):
        n_trials, n_pix, dead_steps, x_bg = 1500, 20, 5, 0.02
        layout = (20, 6, 6)  # warm-up steps, noise periods, period steps
        per_period, pulse_counts = run_trials(
            [np.random.default_rng([11, i]) for i in range(n_trials)],
            n_pix, dead_steps, x_bg, *layout, x_pulse, window_start)
        rng = np.random.default_rng(12)
        ref = [sipm_dead_time_trial(rng, n_pix, dead_steps,
                                    -math.expm1(-x_bg), *layout,
                                    -np.expm1(-x_pulse), window_start)
               for _ in range(n_trials)]
        samples = {
            "period": (per_period[:, -1], [r[0][-1] for r in ref]),
            "pulse": (pulse_counts, [r[1] for r in ref]),
        }
        for name, (new, old) in samples.items():
            a, b = sample_moments(new), sample_moments(old)
            assert abs(a["mean"] - b["mean"]) \
                < 4 * math.hypot(a["se_mean"], b["se_mean"]), name
            assert abs(a["var"] - b["var"]) \
                <= 5 * math.hypot(a["se_var"], b["se_var"]), name

    # 16 steps of hazards in quarters, so each summed hazard, and each key
    # on the quarter grid, is exact; steps 0, 3-4, 6, 9-11 and 14 have none
    TIED_SPAN = np.array([0.0, 0.25, 0.5, 0.0, 0.0, 0.25, 0.0, 0.5, 0.25,
                          0.0, 0.0, 0.0, 0.5, 0.25, 0.0, 0.25])

    @pytest.mark.parametrize("dead_steps", [1, 3, 15, 20],
                             ids=["dead-1", "dead-3", "span-of-a-dead-time",
                                  "span-under-a-dead-time"])
    @pytest.mark.parametrize("step_bin", [
        np.r_[np.ones(5), np.zeros(11)].astype(np.int64),
        np.r_[np.zeros(9), np.ones(5), np.zeros(2)].astype(np.int64),
        np.r_[np.zeros(11), np.ones(5)].astype(np.int64),
        np.arange(16) // 3], ids=["window-at-start", "window-in-a-plateau",
                                  "window-at-end", "six-bins"])
    def test_ties_and_plateaus_bin_as_the_per_step_search(self, dead_steps,
                                                          step_bin):
        # keys on the quarter grid land exactly on the summed hazard at the
        # bins' run starts, inside plateaus, at the span's end and at the
        # last step from which a pixel is armed again in the span; random
        # draws never do, and a search on the wrong side moves them
        x = self.TIED_SPAN
        cum = np.r_[0.0, np.cumsum(x)]
        rng = np.random.default_rng(8)
        ready_at = rng.multinomial(90, np.full(dead_steps + 1,
                                               1 / (dead_steps + 1)), 3)
        draws = [0.25 * rng.integers(0, 13, size=101) for _ in range(3)]
        counts = sipm._pulse([StubDraws(d) for d in draws], ready_at,
                             dead_steps, x, step_bin)
        expected, keys = per_step_pulse(draws, ready_at, dead_steps, x,
                                        step_bin)
        assert (counts == expected).all()
        starts = np.flatnonzero(np.diff(step_bin)) + 1
        assert np.isin(cum[starts], keys).all()
        assert np.isin(cum[1:-1][(x[:-1] == 0) & (x[1:] == 0)], keys).any()
        assert cum[-1] in keys
        last = x.size - dead_steps - 1
        if last > 0:
            assert cum[last] in keys

    # array realizations: pixels, dead time, trials, layout and hazards
    REALIZATIONS = dict(
        n_pix=st.integers(1, 50), dead_steps=st.integers(1, 12),
        n_trials=st.integers(1, 70), warm_steps=st.integers(0, 40),
        n_noise_periods=st.integers(2, 4), period_steps=st.integers(1, 8),
        pulse_extra=st.integers(0, 6), window_start=st.integers(0, 6),
        p_bg=st.floats(0.0, 0.5), p_peak=st.floats(0.0, 1.0),
        seed=st.integers(0, 2 ** 32 - 1))

    @settings(max_examples=50, deadline=None)
    @given(**REALIZATIONS)
    @example(n_pix=7, dead_steps=3, n_trials=5, warm_steps=10,
             n_noise_periods=2, period_steps=4, pulse_extra=2,
             window_start=1, p_bg=0.2, p_peak=1.0, seed=0)
    # a subnormal background hazard: unguarded, the closed form overflows
    @example(n_pix=1, dead_steps=1, n_trials=1, warm_steps=0,
             n_noise_periods=2, period_steps=1, pulse_extra=0,
             window_start=0, p_bg=2.225073858507203e-309, p_peak=0.0, seed=0)
    def test_realization_invariants(self, n_pix, dead_steps, n_trials,
                                    warm_steps, n_noise_periods,
                                    period_steps, pulse_extra, window_start,
                                    p_bg, p_peak, seed):
        span = period_steps + pulse_extra
        window_start = min(window_start, pulse_extra)
        layout = (warm_steps, n_noise_periods, period_steps)

        def run(x_bg, x_pulse):
            rngs = [np.random.default_rng([seed, i]) for i in range(n_trials)]
            return run_trials(rngs, n_pix, dead_steps, x_bg, *layout,
                              x_pulse, window_start)

        per_period, pulse_counts = run(
            hazard(p_bg), hazard(np.linspace(p_bg, p_peak, span)))
        assert per_period.shape == (n_trials, n_noise_periods)
        assert pulse_counts.shape == (n_trials,)
        most = n_pix * -(-period_steps // (dead_steps + 1))
        assert ((0 <= per_period) & (per_period <= most)).all()
        assert ((0 <= pulse_counts) & (pulse_counts <= most)).all()

        per_period, pulse_counts = run(0.0, np.zeros(span))
        assert not per_period.any() and not pulse_counts.any()

        # p = 1 everywhere: every pixel fires at each multiple of
        # dead_steps + 1
        per_period, pulse_counts = run(hazard(1.0), hazard(np.ones(span)))
        fires = n_pix * (np.arange(warm_steps + n_noise_periods
                                   * period_steps + span)
                         % (dead_steps + 1) == 0)
        noise = fires[warm_steps:warm_steps + n_noise_periods * period_steps]
        window = warm_steps + n_noise_periods * period_steps + window_start
        assert (per_period == noise.reshape(n_noise_periods, period_steps)
                .sum(axis=1)).all()
        assert (pulse_counts == fires[window:window + period_steps].sum()).all()

    @settings(max_examples=50, deadline=None)
    @given(**REALIZATIONS)
    def test_batches_equal_one_trial_runs_and_the_search(
            self, n_pix, dead_steps, n_trials, warm_steps, n_noise_periods,
            period_steps, pulse_extra, window_start, p_bg, p_peak, seed):
        # at least three trials in two batches, the last one partial
        n_trials += 2
        per_batch = n_trials // 2 + 1
        span = period_steps + pulse_extra
        window_start = min(window_start, pulse_extra)
        layout = (warm_steps, n_noise_periods, period_steps)

        def rngs():
            return [np.random.default_rng([seed, i]) for i in range(n_trials)]

        for x_bg, x_pulse in [
                (hazard(p_bg), hazard(np.linspace(p_bg, p_peak, span))),
                (0.0, np.zeros(span)),
                (hazard(1.0), hazard(np.ones(span)))]:
            args = (n_pix, dead_steps, x_bg, *layout, x_pulse, window_start)
            with mock.patch.object(sipm, "_BATCH_SLOTS", per_batch * n_pix):
                batched = run_trials(rngs(), *args)
                # the pulse phase again from the states the background
                # left, as on a remembered background
                replayed = run_trials(rngs(), *args, replay=True)
            single = [run_trials([rng], *args) for rng in rngs()]
            reference = sipm_two_phase_trials(rngs(), *args,
                                              sipm._MAX_HAZARD)
            for got, again, one, ref in zip(batched, replayed, zip(*single),
                                            reference):
                assert (got == np.concatenate(one)).all()
                assert (got == ref).all()
                assert (again == ref).all()

    @pytest.mark.parametrize("dead_steps", [1, 7, 60])
    @pytest.mark.parametrize("x_bg", [1e-6, 1e-3, 0.1, 1.0, sipm._MAX_HAZARD])
    @pytest.mark.parametrize("n_pix,n_trials", [(20, 6), (5000, 2)],
                             ids=["trials-in-a-batch", "array-over-a-batch"])
    def test_the_background_hands_every_pixel_to_the_pulse_span(
            self, n_pix, n_trials, x_bg, dead_steps):
        # 60 warm-up steps and four periods of 60; at the largest hazard
        # every pixel fires at each multiple of dead_steps + 1, so all are
        # armed again at one step of the pulse span
        step_bin = np.r_[np.full(60, 4), np.arange(240) // 60]
        rngs = [np.random.default_rng([5, i]) for i in range(n_trials)]
        _, ready_at = sipm._background(rngs, n_pix, dead_steps, x_bg,
                                       step_bin)
        assert ready_at.shape == (n_trials, dead_steps + 1)
        assert (ready_at >= 0).all()
        assert (ready_at.sum(axis=1) == n_pix).all()
        if x_bg == sipm._MAX_HAZARD:
            width = dead_steps + 1
            k = -step_bin.size % width
            assert (ready_at[:, k] == n_pix).all()

    @pytest.mark.parametrize("dead_steps", [1, 7, 60])
    @pytest.mark.parametrize("x_bg", [1e-6, 1e-3, 0.1, 1.0, sipm._MAX_HAZARD])
    @pytest.mark.parametrize("across", [False, True],
                             ids=["last-dead-time-in-one-period",
                                  "last-dead-time-across-periods"])
    @pytest.mark.parametrize("n_pix,n_trials", [(20, 6), (5000, 2)],
                             ids=["trials-in-a-batch", "array-over-a-batch"])
    def test_the_hand_off_bins_are_exact(self, n_pix, n_trials, across,
                                         x_bg, dead_steps):
        # the draws do not depend on the bin map, so a run with one bin per
        # step shows where every firing fell: summed by period it gives the
        # noise-period counts, and a firing at step steps - width + k arms
        # its pixel at step k of the pulse span
        width = dead_steps + 1
        period_steps = max(1, width // 3) if across else width + 20
        step_bin = np.r_[np.full(60, 4), np.arange(4 * period_steps)
                         // period_steps]
        steps = step_bin.size

        def run(bins):
            rngs = [np.random.default_rng([6, i]) for i in range(n_trials)]
            return sipm._background(rngs, n_pix, dead_steps, x_bg, bins)

        per_period, ready_at = run(step_bin)
        per_step, ready_again = run(np.arange(steps))
        summed = np.zeros_like(per_period)
        np.add.at(summed, (slice(None), step_bin), per_step)
        assert (per_period == summed).all()
        assert (ready_at == ready_again).all()
        assert (ready_at[:, 1:] == per_step[:, steps - width + 1:]).all()

    def test_table1_monte_carlo_range_is_pinned(self, sipm_config):
        det = SipmChoice(params=sipm_config.detector.params,
                         snr_mode="monte_carlo",
                         mc=SipmMcConfig.for_dead_time(6e-9, seed=11,
                                                       n_trials=8))
        result = ranging.max_range(sipm_config, det, sipm_config.tdc)
        assert result.r_max_m == 268.49897835809765
        assert result.snr_at_rmax == 4.9615374636132215
        assert result.snr_se == 0.6290533473687543
        # the doubling search's 4 and two Brent steps into the noise band
        assert result.evaluations == 6

    def test_dilute_point_is_pinned(self, sipm_config):
        _, p_rs = ranging.link_powers(sipm_config, 100.0)
        mc = SipmMcConfig(n_trials=48, time_step_s=1e-10, seed=7,
                          warmup_s=6e-8, n_noise_periods=30)
        assert monte_carlo_snr(sipm_config.detector.params, photons(50.0),
                               p_rs / 100.0, 6e-9, 905e-9, 1.0 / 6e-9,
                               mc) == (8.671654878441638, 0.37863321461354166)

    def test_table1_gaussian_monte_carlo_range_is_pinned(self, sipm_config):
        mc = replace(SipmMcConfig.for_dead_time(6e-9, seed=11, n_trials=8),
                     pulse_shape="gaussian")
        det = SipmChoice(params=sipm_config.detector.params,
                         snr_mode="monte_carlo", mc=mc)
        result = ranging.max_range(sipm_config, det, sipm_config.tdc)
        assert result.r_max_m == 248.04687531250997
        assert result.snr_at_rmax == 4.98988100810687
        assert result.snr_se == 0.35735163110169865
        assert result.evaluations == 8

    def test_heavy_point_is_pinned(self, sipm_config):
        # one background photon per pixel per dead time
        params = sipm_config.detector.params
        mc = SipmMcConfig(n_trials=64, time_step_s=1e-10, seed=7,
                          warmup_s=6e-8, n_noise_periods=30)
        assert monte_carlo_snr(params, photons(700.0),
                               params.n_pixels / params.pde * H_NU / 6e-9,
                               6e-9, 905e-9, 1.0 / 6e-9,
                               mc) == (4.238064611079913, 0.1355915582417493)

    def test_1600_pixel_point_is_pinned(self, sipm_config):
        # a batch holds two of these trials, so batches split the 24
        base = sipm_config.detector.params
        params = replace(base, n_pixels=1600,
                         dark_count_rate_cps=base.dark_count_rate_cps / 4)
        _, p_rs = ranging.link_powers(sipm_config, 100.0)
        mc = SipmMcConfig(n_trials=24, time_step_s=1e-10, seed=7,
                          warmup_s=6e-8, n_noise_periods=30)
        assert monte_carlo_snr(params, photons(200.0), p_rs / 100.0, 6e-9,
                               905e-9, 1.0 / 6e-9,
                               mc) == (33.75152854222562, 1.6706303210013753)

    def test_array_over_a_batch_is_pinned(self, sipm_config):
        # each trial of 5000 pixels is a batch of its own; one background
        # photon per pixel per dead time
        base = sipm_config.detector.params
        params = replace(base, n_pixels=5000,
                         dark_count_rate_cps=base.dark_count_rate_cps / 20)
        assert params.n_pixels > sipm._BATCH_SLOTS
        mc = SipmMcConfig(n_trials=3, time_step_s=1e-10, seed=7,
                          warmup_s=2.4e-8, n_noise_periods=6)
        assert monte_carlo_snr(params, photons(2000.0),
                               params.n_pixels / params.pde * H_NU / 6e-9,
                               6e-9, 905e-9, 1.0 / 6e-9,
                               mc) == (4.138643516920243, 0.882027237482425)

    def test_monte_carlo_fingerprint_is_pinned(self, monkeypatch):
        # one digest over a grid: arrays inside and over a batch, spans
        # shorter (rectangular at 6 ns) and longer than a dead time, no
        # background to 30 detected photons per pixel and dead time, with
        # and without dark counts, and each background once fresh and then
        # remembered by two more echoes; the grid's saturated points give
        # their errors
        monkeypatch.setattr(sipm, "_last_background", None)
        results = []
        for n_pix, dead_time_s, shape in itertools.product(
                (1, 7, 400, 5000), (6e-9, 2.5e-9), sipm.PULSE_SHAPES):
            mc = SipmMcConfig(n_trials=6, time_step_s=1e-10, seed=3,
                              warmup_s=1.8e-8, n_noise_periods=5,
                              pulse_shape=shape)
            for b, dcr in itertools.product((0.0, 0.01, 1.0, 30.0),
                                            (0.0, 3e6)):
                params = SipmParams(n_pixels=n_pix, pde=0.2,
                                    dead_time_s=dead_time_s,
                                    dark_count_rate_cps=dcr)
                p_rs = b * n_pix / 0.2 * H_NU / dead_time_s
                for p_r in (2.51e-8, 1e-7, 5e-9):
                    try:
                        result = monte_carlo_snr(params, p_r, p_rs, 6e-9,
                                                 905e-9, 1.0 / 6e-9, mc)
                    except SipmSaturationError as error:
                        result = error
                    results.append(repr(result))
        assert len(results) == 384
        digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
        assert digest == ("44066e4a63a5a15aee720c5f1c8332d8"
                          "ebd5a299b42a4ec20cb90c7d6108b734")

    def test_memory_does_not_grow_with_steps_times_pixels(self):
        # 42 steps x 1e6 pixels x 4 trials: a whole-trial uniform block
        # alone would take more than 330 MB; then another echo on the
        # remembered background
        probe = (
            "import resource\n"
            "from dtofsim import sipm\n"
            "from dtofsim.sipm import SipmMcConfig, SipmParams, "
            "monte_carlo_snr\n"
            "params = SipmParams(n_pixels=1e6, pde=0.22, dead_time_s=6e-9)\n"
            "mc = SipmMcConfig(n_trials=4, time_step_s=6e-10, seed=1, "
            "warmup_s=1.8e-8, n_noise_periods=2)\n"
            "monte_carlo_snr(params, 1e-6, 1e-6, 6e-9, 905e-9, 1 / 6e-10, mc)\n"
            "remembered = sipm._last_background\n"
            "monte_carlo_snr(params, 2e-6, 1e-6, 6e-9, 905e-9, 1 / 6e-10, mc)\n"
            "assert sipm._last_background is remembered\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        # Linux carries ru_maxrss across exec, so the probe starts from a
        # bare interpreter, not from this process and its own peak
        launch = ("import subprocess, sys; "
                  "subprocess.run([sys.executable, '-c', sys.argv[1]], "
                  "check=True)")
        proc = subprocess.run([sys.executable, "-c", launch, probe],
                              capture_output=True, text=True, check=True)
        assert int(proc.stdout) / 1024 < 150.0  # ru_maxrss is in KiB


class TestRememberedBackground:
    """Evaluations that share a background phase run it once."""

    @staticmethod
    def spy_on_the_background(monkeypatch):
        """Forget the remembered background; count background phases."""
        monkeypatch.setattr(sipm, "_last_background", None)
        background = mock.Mock(wraps=sipm._background)
        monkeypatch.setattr(sipm, "_background", background)
        return background

    @pytest.mark.parametrize("pulse_shape", sipm.PULSE_SHAPES)
    @pytest.mark.parametrize("n_pixels", [400, 5000],
                             ids=["400-pixels", "5000-pixels"])
    def test_a_hit_equals_a_recompute(self, monkeypatch, pulse_shape,
                                      n_pixels):
        # 12 trials: batches of ten trials of 400 pixels, or of one of 5000
        params = replace(TABLE1_SIPM, n_pixels=n_pixels)
        mc = SipmMcConfig(n_trials=12, time_step_s=1e-10, seed=5,
                          warmup_s=6e-8, n_noise_periods=6,
                          pulse_shape=pulse_shape)

        def at(n_s):
            return monte_carlo_snr(params, photons(n_s), P_RS_REF, 6e-9,
                                   905e-9, 1.0 / 6e-9, mc)

        background = self.spy_on_the_background(monkeypatch)
        first = at(50.0)
        hit = at(80.0)
        assert at(50.0) == first
        assert background.call_count == 1
        monkeypatch.setattr(sipm, "_last_background", None)
        assert at(80.0) == hit
        assert background.call_count == 2

    @pytest.mark.parametrize("base,change", [
        ({}, {"n_trials": 13}), ({}, {"seed": 6}), ({}, {"warmup_s": 7e-8}),
        ({}, {"n_noise_periods": 7}), ({}, {"dead_time_s": 6.5e-9}),
        ({}, {"p_rs": P_RS_REF / 2}), ({}, {"bandwidth_hz": 1.0 / 5e-9}),
        # dark counts alone: the same per-pixel hazard on another array
        ({"p_rs": 0.0, "dark_count_rate_cps": 2e7},
         {"p_rs": 0.0, "dark_count_rate_cps": 2e7, "n_pixels": 401})],
        ids=["trials", "seed", "warm-up", "noise-periods", "dead-time",
             "background", "bandwidth", "pixels"])
    def test_another_background_is_recomputed(self, monkeypatch, base,
                                              change):
        # every input the background phase reads is part of its key
        def at(n_trials=12, seed=5, warmup_s=6e-8, n_noise_periods=6,
               n_pixels=400, dead_time_s=6e-9, dark_count_rate_cps=2007.0,
               p_rs=P_RS_REF, bandwidth_hz=1.0 / 6e-9):
            params = SipmParams(n_pixels=n_pixels, pde=0.22,
                                dead_time_s=dead_time_s,
                                dark_count_rate_cps=dark_count_rate_cps)
            mc = SipmMcConfig(n_trials=n_trials, time_step_s=1e-10,
                              seed=seed, warmup_s=warmup_s,
                              n_noise_periods=n_noise_periods)
            return monte_carlo_snr(params, photons(50.0), p_rs, 6e-9,
                                   905e-9, bandwidth_hz, mc)

        at(**base)
        changed = at(**change)
        monkeypatch.setattr(sipm, "_last_background", None)
        assert at(**change) == changed

    def test_a_table1_solve_runs_the_background_once(self, monkeypatch,
                                                     sipm_config):
        background = self.spy_on_the_background(monkeypatch)
        det = SipmChoice(params=sipm_config.detector.params,
                         snr_mode="monte_carlo",
                         mc=SipmMcConfig.for_dead_time(6e-9, seed=11,
                                                       n_trials=8))
        result = ranging.max_range(sipm_config, det, sipm_config.tdc)
        assert result.evaluations > 1
        assert background.call_count == 1

    def test_an_extinction_solve_equals_one_without_memory(
            self, monkeypatch, sipm_config):
        # the background power changes with range, so every evaluation
        # runs its own background phase
        config = replace(sipm_config, atmosphere=replace(
            sipm_config.atmosphere, mode="extinction",
            extinction_coeff_per_m=1e-3))

        def solve():
            det = SipmChoice(params=config.detector.params,
                             snr_mode="monte_carlo",
                             mc=SipmMcConfig.for_dead_time(6e-9, seed=11,
                                                           n_trials=8))
            return ranging.max_range(config, det, config.tdc)

        background = self.spy_on_the_background(monkeypatch)
        remembered = solve()
        assert background.call_count == remembered.evaluations
        real = sipm.monte_carlo_snr

        def forgetful(*args, **kwargs):
            monkeypatch.setattr(sipm, "_last_background", None)
            return real(*args, **kwargs)

        monkeypatch.setattr(sipm, "monte_carlo_snr", forgetful)
        assert solve() == remembered

    @pytest.mark.parametrize("layout", [(600, 20, 60), (0, 2, 30)],
                             ids=["table1", "60-steps"])
    def test_a_vanishing_background_fires_nothing(self, layout):
        # min(E, x * steps) / x rounds to steps - 1 at x 1e-300 for some
        # step counts (60, not table1's 1800), which would fire every
        # pixel on the last background step
        warm_steps, n_noise_periods, period_steps = layout
        step_bin = np.r_[np.full(warm_steps, n_noise_periods),
                         np.arange(n_noise_periods * period_steps)
                         // period_steps]
        rngs = [np.random.default_rng([3, i]) for i in range(8)]
        counts, ready_at = sipm._background(rngs, 400, 60, 1e-300, step_bin)
        assert not counts.any()
        assert (ready_at[:, 0] == 400).all() and not ready_at[:, 1:].any()


class TestParamValidation:
    def test_pixel_count(self):
        with pytest.raises(ConfigError, match="n_pixels"):
            SipmParams(n_pixels=0, pde=0.22, dead_time_s=6e-9)

    def test_dark_load_warning_names_the_caller(self, tmp_path):
        # the caller is the scenario file: one warning, attributed to it,
        # while the same parameters built directly stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SipmParams(n_pixels=400, pde=0.22, dead_time_s=6e-9,
                       dark_count_rate_cps=1e5)
        data = scenario_to_dict(table1_preset("sipm"))
        data["detector"]["dark_count_rate_cps"] = 1e5
        path = tmp_path / "dark.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.warns(UserWarning, match="dark load") as record:
            load_scenario(str(path))
        assert [(w.filename, w.lineno) for w in record] == [(str(path), 0)]

    def test_negative_photons(self):
        with pytest.raises(ConfigError):
            PhotonCounts(n_b_photon=-1.0, n_s_photon=0.0)
