import math
from dataclasses import replace

import numpy as np
import pytest

from dtofsim import ConfigError, NoDetectionError, UnboundedRangeError
from dtofsim.detectors import SipmChoice
from dtofsim.ranging import (SENSITIVITY_PARAMS, closed_form_max_range,
                             link_powers, max_range, sensitivity,
                             snr_at_range)


def with_peak_power(config, p_t):
    return replace(config, laser=replace(config.laser, peak_power_w=p_t))


def with_illuminance(config, klux):
    return replace(config, solar=replace(config.solar, illuminance_klux=klux))


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
        assert res.method == "pipeline"
        p_r, p_rs = link_powers(apd_config, res.r_max_m)
        assert res.min_detectable_power_w == pytest.approx(p_r, rel=1e-12)
        assert res.background_power_w == pytest.approx(p_rs, rel=1e-12)

    def test_reference_sipm(self, sipm_config):
        res = max_range(sipm_config, sipm_config.detector, sipm_config.tdc)
        assert res.r_max_m == pytest.approx(280.8714710150478, rel=1e-6)
        assert abs(res.snr_at_rmax - 5.0) <= 1e-6 * 5.0

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
        from dtofsim.scene_link import AtmosphereModel

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

    def test_sun_elasticity(self, sipm_config):
        det = self.approx_detector(sipm_config)
        value = sensitivity(sipm_config, det, sipm_config.tdc, "sun_irradiance")
        assert value == pytest.approx(-0.25, abs=1e-3)

    def test_absent_parameter_is_flat(self, apd_config):
        # SiPM-only knob leaves an APD scenario untouched
        assert sensitivity(apd_config, apd_config.detector, apd_config.tdc,
                           "pde") == pytest.approx(0.0, abs=1e-9)

    def test_unknown_parameter(self, apd_config):
        with pytest.raises(ConfigError, match="unknown parameter"):
            sensitivity(apd_config, apd_config.detector, apd_config.tdc,
                        "warp_factor")

    def test_rel_step_bounds(self, apd_config):
        with pytest.raises(ConfigError, match="rel_step"):
            sensitivity(apd_config, apd_config.detector, apd_config.tdc,
                        "peak_power_w", rel_step=0.5)

    def test_registry_covers_reference_table(self):
        expected = {"peak_power_w", "pulse_fwhm_s", "reflectivity", "one_way_transmittance",
                    "laser_efficiency", "aperture_radius_m", "sun_irradiance",
                    "sun_angle_rad", "sun_efficiency", "focal_length_m",
                    "bandwidth_hz", "gain", "detector_radius_m",
                    "quantum_efficiency", "surface_dark_current_a",
                    "bulk_dark_current_a", "excess_noise_index",
                    "load_resistance_ohm", "n_pixels", "pde", "dead_time_s",
                    "dark_count_rate_cps", "tnr"}
        assert expected <= set(SENSITIVITY_PARAMS)
