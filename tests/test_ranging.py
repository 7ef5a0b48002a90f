import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dtofsim import (ConfigError, NoDetectionError, SipmSaturationError,
                     UnboundedRangeError, ranging, sipm, table1_preset)
from dtofsim.detectors import ApdChoice, SipmChoice
from dtofsim.ranging import (SE_STOP_FRACTION, SENSITIVITY_PARAMS,
                             closed_form_max_range, declares, link_powers,
                             max_range, sensitivity, snr_at_range)
from dtofsim.scenario import ScenarioConfig
from dtofsim.scene_link import AtmosphereModel, SolarModel
from dtofsim.tdc import TdcPolicy

from oracles import log_range_root


def with_peak_power(config, p_t):
    return replace(config, laser=replace(config.laser, peak_power_w=p_t))


def with_gain(config, gain):
    return replace(config, detector=replace(
        config.detector, params=replace(config.detector.params, gain=gain)))


def with_illuminance(config, klux):
    return replace(config, solar=replace(config.solar, illuminance_klux=klux))


def monte_carlo(config, seed: int) -> SipmChoice:
    return SipmChoice(params=config.detector.params, snr_mode="monte_carlo",
                      mc=sipm.SipmMcConfig.for_dead_time(6e-9, seed=seed,
                                                         n_trials=8))


def noiseless_sipm(config, **atmosphere):
    """No sunlight and no dark counts: the analytic SNR is infinite."""
    config = replace(with_illuminance(config, 0.0), detector=replace(
        config.detector, params=replace(config.detector.params,
                                        dark_count_rate_cps=0.0)))
    if atmosphere:
        config = replace(config, atmosphere=AtmosphereModel(**atmosphere))
    return config


def count_calls(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` with a spy; returns the list of its calls."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def closed_form_variant(variant: str):
    """(table1 scenario, detector) for "apd", "sipm" or "sipm_approx"."""
    config = table1_preset("apd" if variant == "apd" else "sipm")
    det = config.detector
    if variant == "sipm_approx":
        det = replace(det, snr_mode="approx")
    return config, det


@st.composite
def solvable_scenarios(draw):
    """Solvable table1 scenarios over perfbench's design_space ranges."""
    kind = draw(st.sampled_from(("apd", "sipm", "sipm_approx")))
    config = table1_preset("apd" if kind == "apd" else "sipm")
    if kind == "sipm_approx":
        config = replace(config, detector=replace(config.detector,
                                                  snr_mode="approx"))
    config = replace(
        with_illuminance(config, 10.0 ** draw(st.floats(0.0, 2.0))),
        target=replace(config.target,
                       reflectivity=draw(st.floats(0.05, 0.8))),
        scene=replace(config.scene,
                      elevation_angle_rad=draw(st.floats(-0.5, 0.5)),
                      sun_angle_rad=draw(st.floats(0.0, 1.4))))
    if draw(st.booleans()):
        config = replace(config, optics=replace(config.optics,
                                                aperture_model="cosine"))
    if draw(st.booleans()):
        config = replace(config, atmosphere=AtmosphereModel(
            mode="extinction",
            extinction_coeff_per_m=10.0 ** draw(st.floats(-4.0, -3.0))))
    # a bright sun can hold the SiPM below threshold at 1 m, an answer
    # (NoDetectionError) and not a root
    assume(snr_at_range(config, config.detector, 1.0) >= config.tdc.tnr)
    return config


class TestLinkPowers:
    # (echo, background) W, frozen repr values: a refactor of the link
    # must keep every bit
    TABLE1 = {
        1.0: (0.0019464306750000002, 2.5099212581122918e-08),
        100.0: (1.9464306750000004e-07, 2.5099212581122918e-08),
        280.871471015048: (2.4673097939935464e-08, 2.5099212581122918e-08),
        1e4: (1.946430675e-11, 2.5099212581122918e-08),
    }
    EXTINCTION_COSINE = {
        1.0: (0.0017778670982706414, 2.2471613966883983e-08),
        100.0: (1.7081526184155238e-07, 2.2026624831564787e-08),
        280.871471015048: (2.0126668877574675e-08, 2.1236268068792117e-08),
        1e4: (3.1279837648578623e-13, 2.9806903693374905e-09),
    }

    @pytest.mark.parametrize("variant", ["apd", "sipm"])
    def test_table1_bits(self, variant):
        config = table1_preset(variant)
        for r, expected in self.TABLE1.items():
            assert link_powers(config, r) == expected

    def test_extinction_cosine_bits(self, apd_config):
        # a cosine aperture at 0.5 rad elevation under Beer-Lambert extinction
        config = replace(
            apd_config, optics=replace(apd_config.optics, aperture_model="cosine"),
            scene=replace(apd_config.scene, elevation_angle_rad=0.5),
            atmosphere=AtmosphereModel(mode="extinction",
                                       extinction_coeff_per_m=2.0203e-4))
        for r, expected in self.EXTINCTION_COSINE.items():
            assert link_powers(config, r) == expected

    @pytest.mark.parametrize("mode", ["apd", "analytic", "approx",
                                      "monte_carlo"])
    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
    def test_non_positive_range_rejected(self, apd_config, sipm_config,
                                         mode, r):
        if mode == "apd":
            config = apd_config
        elif mode == "monte_carlo":
            config = replace(sipm_config, detector=monte_carlo(sipm_config, 1))
        else:
            config = replace(sipm_config, detector=replace(
                sipm_config.detector, snr_mode=mode))
        with pytest.raises(ConfigError, match="range_m must be > 0"):
            snr_at_range(config, config.detector, r)
        with pytest.raises(ConfigError, match="range_m must be > 0"):
            link_powers(config, r)


class TestSnrAtRange:
    def test_inverse_square_log_slope(self, apd_config):
        s50 = snr_at_range(apd_config, apd_config.detector, 50.0)
        s300 = snr_at_range(apd_config, apd_config.detector, 300.0)
        slope = (math.log(s300) - math.log(s50)) / (math.log(300.0) - math.log(50.0))
        assert slope == pytest.approx(-2.0, abs=1e-3)

    def test_black_target_zero_for_both_detectors(self, apd_config, sipm_config):
        for config in (apd_config, sipm_config):
            dark = replace(config, target=replace(config.target,
                                                  reflectivity=0.0))
            for r in (10.0, 100.0, 400.0):
                assert snr_at_range(dark, dark.detector, r) == 0.0

    def test_reference_values(self, apd_config, sipm_config):
        # end-to-end frozen values at 100 m
        assert snr_at_range(apd_config, apd_config.detector, 100.0) == \
            pytest.approx(61.461780370122064, rel=1e-11)
        assert snr_at_range(sipm_config, sipm_config.detector, 100.0) == \
            pytest.approx(22.70085659073763, rel=1e-11)

    def test_approx_mode(self, sipm_config):
        det = replace(sipm_config.detector, snr_mode="approx")
        assert snr_at_range(sipm_config, det, 100.0) == pytest.approx(
            47.63780970058583, rel=1e-11)


class TestMaxRange:
    def test_reference_apd(self, apd_config):
        res = max_range(apd_config, apd_config.detector, apd_config.tdc)
        assert res.r_max_m == pytest.approx(350.60456463121545, rel=1e-6)
        assert abs(res.snr_at_rmax - 5.0) <= 1e-6 * 5.0
        assert (res.evaluations, res.snr_se) == (6, 0.0)
        p_r, p_rs = link_powers(apd_config, res.r_max_m)
        assert res.min_detectable_power_w == pytest.approx(p_r, rel=1e-12)
        assert res.background_power_w == pytest.approx(p_rs, rel=1e-12)

    def test_reference_sipm(self, sipm_config):
        res = max_range(sipm_config, sipm_config.detector, sipm_config.tdc)
        assert res.r_max_m == pytest.approx(280.8714710150478, rel=1e-6)
        assert abs(res.snr_at_rmax - 5.0) <= 1e-6 * 5.0
        assert (res.evaluations, res.snr_se) == (10, 0.0)

    def test_apd_beats_sipm_at_full_sun(self, apd_config, sipm_config):
        r_apd = max_range(apd_config, apd_config.detector, apd_config.tdc)
        r_sipm = max_range(sipm_config, sipm_config.detector, sipm_config.tdc)
        assert r_apd.r_max_m > r_sipm.r_max_m

    def test_half_power_scales_photon_limited_range(self, sipm_config):
        det = replace(sipm_config.detector, snr_mode="approx")
        full = max_range(sipm_config, det, sipm_config.tdc).r_max_m
        half = max_range(with_peak_power(sipm_config, 22.5), det,
                         sipm_config.tdc).r_max_m
        assert half / full == pytest.approx(1.0 / math.sqrt(2.0), rel=5e-3)

    def test_quadrupled_threshold_halves_range(self, apd_config):
        base = max_range(apd_config, apd_config.detector, apd_config.tdc)
        policy = replace(apd_config.tdc, tnr=20.0)
        tight = max_range(apd_config, apd_config.detector, policy)
        assert tight.r_max_m == pytest.approx(base.r_max_m / 2.0, rel=1e-6)

    def test_no_detection_error(self, apd_config):
        weak = with_peak_power(apd_config, 1e-5)
        with pytest.raises(NoDetectionError):
            max_range(weak, weak.detector, weak.tdc)

    def test_unbounded_range_error(self, apd_config):
        strong = with_peak_power(apd_config, 5e6)
        with pytest.raises(UnboundedRangeError):
            max_range(strong, strong.detector, strong.tdc)

    @staticmethod
    def _assert_unbounded_after_1m(dark, monkeypatch):
        real = ranging.snr_at_range
        ranges = []

        def spy(sc, det, r):
            ranges.append(r)
            return real(sc, det, r)

        monkeypatch.setattr(ranging, "snr_at_range", spy)
        assert real(dark, dark.detector, 1e3) == math.inf
        with pytest.raises(UnboundedRangeError, match="infinite at 1 m"):
            max_range(dark, dark.detector, dark.tdc)
        assert ranges == [1.0]

    def test_noiseless_sipm_is_unbounded(self, sipm_config, monkeypatch):
        # no noise at 1 m means none at any range: the SNR is infinite
        # wherever an echo arrives
        for atmosphere in ({}, {"mode": "extinction",
                                "extinction_coeff_per_m": 1e-3}):
            self._assert_unbounded_after_1m(
                noiseless_sipm(sipm_config, **atmosphere), monkeypatch)

    @pytest.mark.parametrize("extinction", [0.1, 0.01])
    def test_noiseless_sipm_is_unbounded_where_the_signal_underflows(
            self, sipm_config, monkeypatch, extinction):
        # the SNR drops from inf to 0 only where the echo power underflows
        # (past 3 km at 0.1 /m), which marks no detection limit
        dark = noiseless_sipm(sipm_config, mode="extinction",
                              extinction_coeff_per_m=extinction)
        self._assert_unbounded_after_1m(dark, monkeypatch)

    @settings(max_examples=60, deadline=None)
    @given(solvable_scenarios())
    def test_root_is_at_threshold_in_few_evaluations(self, config):
        res = max_range(config, config.detector, config.tdc)
        snr = snr_at_range(config, config.detector, res.r_max_m)
        assert snr == res.snr_at_rmax
        assert abs(snr / config.tdc.tnr - 1.0) <= 1e-12
        assert res.evaluations <= 16

    def test_nan_snr_is_a_config_error(self, apd_config):
        # gain**2 overflows to inf, and the no-echo signal shot-noise term
        # of the noise budget is then 0 * inf
        huge = with_gain(apd_config, 1e300)
        assert math.isnan(snr_at_range(huge, huge.detector, 1.0))
        with pytest.raises(ConfigError, match="not a number"):
            max_range(huge, huge.detector, huge.tdc)

    def test_monotone_scene_responses(self, apd_config):
        base = max_range(apd_config, apd_config.detector, apd_config.tdc).r_max_m
        for factor in (1.2, 1.5, 2.0):
            up = with_peak_power(apd_config, 45.0 * factor)
            assert max_range(up, up.detector, up.tdc).r_max_m >= base
            rho = replace(apd_config,
                          target=replace(apd_config.target,
                                         reflectivity=0.1 * factor))
            assert max_range(rho, rho.detector, rho.tdc).r_max_m >= base
            aperture = replace(
                apd_config,
                optics=replace(apd_config.optics,
                               aperture_radius_m=0.025 * factor))
            assert max_range(aperture, aperture.detector,
                             aperture.tdc).r_max_m >= base
            sun = with_illuminance(apd_config, 100.0 * factor)
            assert max_range(sun, sun.detector, sun.tdc).r_max_m <= base
            policy = replace(apd_config.tdc, tnr=5.0 * factor)
            assert max_range(apd_config, apd_config.detector,
                             policy).r_max_m <= base

    def test_edge_falloff_with_cosine_aperture(self, apd_config):
        config = replace(apd_config,
                         optics=replace(apd_config.optics,
                                        aperture_model="cosine"))
        ranges = []
        for deg in (0.0, 15.0, 30.0, 45.0, 60.0):
            tilted = replace(config,
                             scene=replace(config.scene,
                                           elevation_angle_rad=math.radians(deg)))
            ranges.append(max_range(tilted, tilted.detector,
                                    tilted.tdc).r_max_m)
        assert all(b < a for a, b in zip(ranges, ranges[1:]))
        assert all(r <= ranges[0] for r in ranges)

    def test_detector_crossover_in_illuminance(self, apd_config, sipm_config):
        # a unique illuminance exists where the two detectors swap ranking
        grid = np.geomspace(0.1, 100.0, 50)
        diffs = []
        for klux in grid:
            r_apd = max_range(with_illuminance(apd_config, klux),
                              apd_config.detector, apd_config.tdc).r_max_m
            r_sipm = max_range(with_illuminance(sipm_config, klux),
                               sipm_config.detector, sipm_config.tdc).r_max_m
            diffs.append(r_sipm - r_apd)
        signs = [d > 0 for d in diffs]
        assert signs[0] is True          # SiPM wins in the dark
        assert signs[-1] is False        # APD wins at full sun
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1


class TestMonteCarloStop:
    @pytest.mark.parametrize("seed", [0, 3, 5, 11])
    def test_stops_inside_the_noise_band(self, sipm_config, seed):
        det = monte_carlo(sipm_config, seed)
        tnr = sipm_config.tdc.tnr
        res = max_range(sipm_config, det, sipm_config.tdc)
        # a fixed seed reads the same function of range at every
        # evaluation, so the returned point re-evaluates to itself
        assert snr_at_range(sipm_config, det, res.r_max_m) == res.snr_at_rmax
        assert abs(res.snr_at_rmax - tnr) <= SE_STOP_FRACTION * res.snr_se
        assert res.evaluations <= 8

    @pytest.mark.parametrize("low", [-0.5, -1.5])
    def test_jump_across_the_noise_band_stops_at_1mm(self, sipm_config,
                                                     monkeypatch, low):
        # the SNR steps from tnr + 1 to tnr + low at 250 m, far wider than
        # the noise band, so no evaluation lands in it; each ``low`` makes
        # a different side of the jump the nearer one
        tnr = sipm_config.tdc.tnr
        p_jump, _ = link_powers(sipm_config, 250.0)

        def fake_se(p_r):
            return 0.1 * math.sqrt(p_jump / p_r)

        def fake(params, p_r, *args):
            return (tnr + 1.0 if p_r > p_jump else tnr + low), fake_se(p_r)

        monkeypatch.setattr(sipm, "monte_carlo_snr", fake)
        res = max_range(sipm_config, monte_carlo(sipm_config, 0),
                        sipm_config.tdc)
        assert abs(res.r_max_m - 250.0) <= 1e-3
        assert res.evaluations <= 30
        assert res.snr_at_rmax == min(tnr + 1.0, tnr + low,
                                      key=lambda snr: abs(snr - tnr))
        assert res.snr_se == fake_se(res.min_detectable_power_w)

    def test_saturation_names_its_range(self, sipm_config):
        # no sunlight and no dark counts: the background-only counts of
        # the Monte Carlo never fluctuate
        dark = noiseless_sipm(sipm_config)
        det = monte_carlo(dark, 0)
        with pytest.raises(SipmSaturationError,
                           match=r"no fluctuation.*\(at range 1 m\)"):
            max_range(dark, det, dark.tdc)
        with pytest.raises(SipmSaturationError, match=r"\(at range 50 m\)"):
            snr_at_range(dark, det, 50.0)
        # the analytic model's dark occupancy overfills the array
        with pytest.warns(UserWarning, match="dark load"):
            flooded = replace(sipm_config, detector=replace(
                sipm_config.detector, params=replace(
                    sipm_config.detector.params, dark_count_rate_cps=1e12)))
        with pytest.raises(SipmSaturationError,
                           match=r"exceeds.*\(at range 1 m\)"):
            max_range(flooded, flooded.detector, flooded.tdc)

    def test_monte_carlo_snr_sees_every_evaluation(self, sipm_config,
                                                   monkeypatch):
        # perfbench/mc_range.py wraps sipm.monte_carlo_snr to count trials
        # and reads the standard error of its last call as the root's
        calls = []
        real = sipm.monte_carlo_snr

        def spy(*args):
            calls.append((args[1], real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(sipm, "monte_carlo_snr", spy)
        res = max_range(sipm_config, monte_carlo(sipm_config, 11),
                        sipm_config.tdc)
        assert len(calls) == res.evaluations
        p_r, _ = link_powers(sipm_config, res.r_max_m)
        assert calls[-1] == (p_r, (res.snr_at_rmax, res.snr_se))


VARIANTS = ["apd", "sipm", "sipm_approx"]


class TestLastSolve:
    """max_range returns its last successful result for the same objects."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_repeat_returns_the_same_object_unevaluated(self, monkeypatch,
                                                        variant):
        config, det = closed_form_variant(variant)
        first = max_range(config, det, config.tdc)
        calls = count_calls(monkeypatch, ranging, "snr_at_range")
        assert max_range(config, det, config.tdc) is first
        assert calls == []

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("fresh", ["scenario", "detector", "policy"])
    def test_equal_but_distinct_objects_solve_again(self, monkeypatch,
                                                    variant, fresh):
        config, det = closed_form_variant(variant)
        args = [config, det, config.tdc]
        first = max_range(*args)
        index = ("scenario", "detector", "policy").index(fresh)
        args[index] = replace(args[index])
        assert args[index] == [config, det, config.tdc][index]
        calls = count_calls(monkeypatch, ranging, "snr_at_range")
        again = max_range(*args)
        assert again == first and again is not first
        assert len(calls) == first.evaluations

    def test_one_slot(self, monkeypatch, apd_config):
        a = apd_config
        b = with_peak_power(apd_config, 50.0)
        first = max_range(a, a.detector, a.tdc)
        max_range(b, b.detector, b.tdc)
        calls = count_calls(monkeypatch, ranging, "snr_at_range")
        again = max_range(a, a.detector, a.tdc)
        assert again == first and again is not first
        assert len(calls) == first.evaluations

    @pytest.mark.parametrize("failing,error", [
        # a weak laser has no detection at 1 m
        (lambda config: with_peak_power(config, 1e-5), NoDetectionError),
        # a gain whose square overflows gives an SNR that is not a number
        (lambda config: with_gain(config, 1e300), ConfigError)],
        ids=["no_detection", "nan_snr"])
    def test_failed_solve_is_not_remembered(self, monkeypatch, apd_config,
                                            failing, error):
        kept = max_range(apd_config, apd_config.detector, apd_config.tdc)
        bad = failing(apd_config)
        counts = []
        for _ in range(2):
            calls = count_calls(monkeypatch, ranging, "snr_at_range")
            with pytest.raises(error):
                max_range(bad, bad.detector, bad.tdc)
            counts.append(len(calls))
            monkeypatch.undo()
        assert counts[0] == counts[1] > 0
        # the slot still holds the last solve that succeeded
        calls = count_calls(monkeypatch, ranging, "snr_at_range")
        assert max_range(apd_config, apd_config.detector,
                         apd_config.tdc) is kept
        assert calls == []

    def test_monte_carlo_solve_is_remembered(self, monkeypatch, sipm_config):
        det = monte_carlo(sipm_config, 3)
        first = max_range(sipm_config, det, sipm_config.tdc)
        calls = count_calls(monkeypatch, sipm, "monte_carlo_snr")
        assert max_range(sipm_config, det, sipm_config.tdc) is first
        assert calls == []


class TestClosedForm:
    def test_sipm_matches_approx_pipeline(self, sipm_config):
        det = replace(sipm_config.detector, snr_mode="approx")
        pipeline = max_range(sipm_config, det, sipm_config.tdc).r_max_m
        closed = closed_form_max_range(sipm_config, sipm_config.detector)
        assert closed == pytest.approx(308.66749002959745, rel=1e-12)
        assert pipeline == pytest.approx(closed, rel=1e-6)

    def test_apd_matches_photon_limited_pipeline(self, apd_config):
        params = replace(apd_config.detector.params,
                         surface_dark_current_a=0.0, bulk_dark_current_a=0.0,
                         load_resistance_ohm=1e12, amplifier_noise_a=0.0)
        det = replace(apd_config.detector, params=params)
        config = replace(apd_config, detector=det)
        pipeline = max_range(config, det, config.tdc).r_max_m
        closed = closed_form_max_range(config, det)
        assert closed == pytest.approx(352.7512405430188, rel=1e-12)
        assert pipeline == pytest.approx(closed, rel=0.01)

    def test_sun_exponent(self, sipm_config):
        base = closed_form_max_range(sipm_config, sipm_config.detector)
        brighter = closed_form_max_range(with_illuminance(sipm_config, 400.0),
                                         sipm_config.detector)
        assert brighter == pytest.approx(base * 4.0 ** -0.25, rel=1e-9)

    def test_requires_fixed_transmittance(self, apd_config):
        config = replace(apd_config,
                         atmosphere=AtmosphereModel(mode="extinction",
                                                    extinction_coeff_per_m=2e-4))
        with pytest.raises(ConfigError):
            closed_form_max_range(config, config.detector)


class TestSensitivity:
    def approx_detector(self, sipm_config) -> SipmChoice:
        return replace(sipm_config.detector, snr_mode="approx")

    def test_peak_power_elasticity(self, sipm_config):
        det = self.approx_detector(sipm_config)
        value = sensitivity(sipm_config, det, sipm_config.tdc, "peak_power_w")
        assert value == pytest.approx(0.5, abs=1e-3)

    def test_reflectivity_elasticity(self, sipm_config):
        det = self.approx_detector(sipm_config)
        value = sensitivity(sipm_config, det, sipm_config.tdc, "reflectivity")
        assert value == pytest.approx(0.25, abs=1e-3)

    def test_pde_elasticity(self, sipm_config):
        det = self.approx_detector(sipm_config)
        value = sensitivity(sipm_config, det, sipm_config.tdc, "pde")
        assert value == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("name,exponent", [("peak_power_w", 0.5),
                                               ("bandwidth_hz", -0.25)])
    def test_apd_power_laws_are_exact(self, apd_config, name, exponent):
        value = sensitivity(apd_config, apd_config.detector, apd_config.tdc,
                            name)
        assert value == pytest.approx(exponent, abs=1e-10)

    @pytest.mark.parametrize("elevation,expected", [(None, -2.4995e-5),
                                                    (0.3, -2.5088e-5)])
    def test_sipm_dark_count_rate(self, sipm_config, elevation, expected):
        # a true elasticity of -2.5e-5, which the difference of two 1 mm
        # bisections read as -4.2e-5 at table1 and as 0.0 at 0.3 rad
        config = sipm_config
        if elevation is not None:
            config = replace(
                config,
                optics=replace(config.optics, aperture_model="cosine"),
                scene=replace(config.scene, elevation_angle_rad=elevation))
        value = sensitivity(config, config.detector, config.tdc,
                            "dark_count_rate_cps")
        assert value == pytest.approx(expected, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(solvable_scenarios(), st.sampled_from(sorted(SENSITIVITY_PARAMS)))
    # a 99.99 % fired array whose SNR sits 0.17 % above tnr: elasticity
    # -135.146318, which a plain step-1e-5 difference of solves misses by
    # 1.1e-2 and the Richardson difference meets to 2.7e-7
    @example(replace(with_illuminance(table1_preset("sipm"), 100.0),
                     target=replace(table1_preset("sipm").target,
                                    reflectivity=0.375),
                     scene=replace(table1_preset("sipm").scene,
                                   sun_angle_rad=0.0)),
             "aperture_radius_m")
    def test_implicit_matches_difference_of_solves(self, config, name):
        # the implicit value's O(step^2) truncation error at 1e-5 is far
        # below the tolerance; the difference of solves is extrapolated
        # (Richardson) to cancel its own, which a curved root can make large
        step = 1e-5
        edit = SENSITIVITY_PARAMS[name]

        def difference_of_solves(h: float) -> float:
            roots = []
            for sign in (1.0, -1.0):
                sc, det, pol = edit(config, config.detector, config.tdc,
                                    math.exp(sign * h))
                roots.append(log_range_root(
                    lambda r: snr_at_range(sc, det, r), pol.tnr))
            return (math.log(roots[0]) - math.log(roots[1])) / (2.0 * h)

        expected = (4.0 * difference_of_solves(step / 2.0)
                    - difference_of_solves(step)) / 3.0
        value = sensitivity(config, config.detector, config.tdc, name,
                            rel_step=step)
        assert value == pytest.approx(expected, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_names_share_one_solve(self, monkeypatch, variant):
        # the first name solves the range; every other one reuses it and
        # makes only its four difference evaluations
        config, det = closed_form_variant(variant)
        names = sorted(SENSITIVITY_PARAMS)
        calls = count_calls(monkeypatch, ranging, "snr_at_range")
        values = [sensitivity(config, det, config.tdc, name)
                  for name in names]
        evaluations = len(calls)
        base = max_range(config, det, config.tdc)
        assert evaluations == base.evaluations + 4 * len(names)
        # a fresh copy of the scenario per name defeats the reuse
        assert values == [sensitivity(replace(config), det, config.tdc, name)
                          for name in names]

    def test_unmoved_parameter_is_positive_zero(self, apd_config):
        # -0.0 would print as "-0.0" in `sensitivity --param all`
        for name in ("pde", "incidence_angle_rad"):
            value = sensitivity(apd_config, apd_config.detector,
                                apd_config.tdc, name)
            assert math.copysign(1.0, value) == 1.0 and value == 0.0

    def test_undefined_elasticity_is_a_config_error(self, apd_config,
                                                    monkeypatch):
        real = ranging.snr_at_range

        def infinite_above_45_w(sc, det, r):
            return math.inf if sc.laser.peak_power_w > 45.0 else real(sc, det, r)

        def flat_at_threshold(sc, det, r):
            return 10.0 if r < 150.0 else 5.0 if r <= 300.0 else 1.0

        for fake in (infinite_above_45_w, flat_at_threshold):
            monkeypatch.setattr(ranging, "snr_at_range", fake)
            with pytest.raises(ConfigError, match="peak_power_w is undefined"):
                sensitivity(apd_config, apd_config.detector, apd_config.tdc,
                            "peak_power_w")

    def test_sun_elasticity(self, sipm_config):
        det = self.approx_detector(sipm_config)
        value = sensitivity(sipm_config, det, sipm_config.tdc, "sun_irradiance")
        assert value == pytest.approx(-0.25, abs=1e-3)

    def test_absent_parameter_is_flat(self, apd_config):
        # SiPM-only knob leaves an APD scenario untouched
        assert sensitivity(apd_config, apd_config.detector, apd_config.tdc,
                           "pde") == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("detector", ["apd", "sipm"])
    def test_declares_what_the_edit_scales(self, detector):
        # a name is declared exactly where its edit rebuilds some object,
        # whatever the field's value (incidence_angle_rad is 0 at table1)
        config = table1_preset(detector)
        base = (config, config.detector, config.tdc)
        for name, edit in SENSITIVITY_PARAMS.items():
            edited = edit(*base, math.exp(1e-3))
            assert declares(*base, name) \
                == any(a is not b for a, b in zip(edited, base)), name
        assert declares(*base, "incidence_angle_rad")
        assert declares(*base, "pde") == (detector == "sipm")
        assert declares(*base, "gain") == (detector == "apd")
        assert not declares(*base, "warp_factor")

    def test_monte_carlo_is_rejected(self, sipm_config):
        # a central difference at rel_step 1e-3 of a Monte Carlo range is
        # noise: seeds 11 and 3 once gave 8.56 and -29.6 for reflectivity
        det = monte_carlo(sipm_config, 11)
        with pytest.raises(ConfigError, match="closed-form SNR model"):
            sensitivity(sipm_config, det, sipm_config.tdc, "reflectivity")

    def test_unknown_parameter(self, apd_config):
        with pytest.raises(ConfigError, match="unknown parameter"):
            sensitivity(apd_config, apd_config.detector, apd_config.tdc,
                        "warp_factor")

    def test_rel_step_bounds(self, apd_config):
        with pytest.raises(ConfigError, match="rel_step"):
            sensitivity(apd_config, apd_config.detector, apd_config.tdc,
                        "peak_power_w", rel_step=0.5)

    def test_registry_covers_reference_table(self):
        # the rows of `sensitivity --param all` are exactly these names
        expected = {"peak_power_w", "pulse_fwhm_s", "wavelength_m",
                    "reflectivity", "one_way_transmittance",
                    "laser_efficiency", "aperture_radius_m", "sun_irradiance",
                    "sun_angle_rad", "incidence_angle_rad", "sun_efficiency",
                    "focal_length_m", "bandwidth_hz", "gain",
                    "detector_radius_m", "quantum_efficiency",
                    "surface_dark_current_a", "bulk_dark_current_a",
                    "excess_noise_index", "load_resistance_ohm",
                    "temperature_k", "amplifier_noise_a", "n_pixels", "pde",
                    "dead_time_s", "dark_count_rate_cps", "tnr"}
        assert set(SENSITIVITY_PARAMS) == expected

    @pytest.mark.parametrize("name", sorted(SENSITIVITY_PARAMS))
    @pytest.mark.parametrize("det", ["apd", "sipm"])
    def test_edit_returns_triple(self, name, det):
        config = table1_preset(det)
        sc, new_det, pol = SENSITIVITY_PARAMS[name](
            config, config.detector, config.tdc, 1.01)
        assert isinstance(sc, ScenarioConfig)
        assert isinstance(new_det, (ApdChoice, SipmChoice))
        assert isinstance(pol, TdcPolicy)

    @pytest.mark.parametrize("variant", ["table1", "cosine", "ionization"])
    def test_apd_wavelength_moves_responsivity(self, apd_config, variant):
        # R = eta q lambda / (h c): the APD reads only the product of its
        # quantum efficiency and the wavelength, so their elasticities agree
        config = apd_config
        if variant == "cosine":
            config = replace(config, optics=replace(config.optics,
                                                    aperture_model="cosine"))
        elif variant == "ionization":
            config = replace(config, detector=replace(
                config.detector, params=replace(
                    config.detector.params, excess_noise_mode="ionization",
                    electron_ionization_rate=0.05)))
        det = config.detector
        wavelength = sensitivity(config, det, config.tdc, "wavelength_m")
        eta = sensitivity(config, det, config.tdc, "quantum_efficiency")
        assert wavelength > 0.2
        assert wavelength == pytest.approx(eta, rel=1e-12)

    def test_sipm_wavelength(self, sipm_config):
        value = sensitivity(sipm_config, sipm_config.detector,
                            sipm_config.tdc, "wavelength_m")
        assert value == pytest.approx(0.17026309398352382, rel=1e-9)

    def test_extinction_scales_coefficient(self, apd_config):
        config = replace(apd_config, atmosphere=AtmosphereModel(
            mode="extinction", one_way_transmittance=0.9,
            extinction_coeff_per_m=1e-4))
        edit = SENSITIVITY_PARAMS["one_way_transmittance"]
        sc, _, _ = edit(config, config.detector, config.tdc, 2.0)
        assert sc.atmosphere.extinction_coeff_per_m == 2e-4
        assert sc.atmosphere.one_way_transmittance == 0.9
        value = sensitivity(config, config.detector, config.tdc,
                            "one_way_transmittance")
        assert value == pytest.approx(-0.025551224462573623, rel=1e-9)

    def test_sun_irradiance_needs_direct_or_scaled_solar(self, apd_config):
        rows = tuple((wl, 1.0, 0.5) for wl in (890.0, 900.0, 910.0, 920.0))
        config = replace(apd_config, solar=SolarModel(
            mode="spectrum_integral", spectrum_table=rows))
        with pytest.raises(ConfigError, match="sun_irradiance sensitivity"):
            sensitivity(config, config.detector, config.tdc, "sun_irradiance")
