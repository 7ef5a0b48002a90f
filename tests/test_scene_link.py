import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtofsim import ConfigError
from dtofsim.scene_link import (AtmosphereModel, LaserParams, ReceiverOptics,
                                SceneGeometry, SolarModel, TargetModel,
                                background_power, echo_power,
                                effective_aperture, fov_half_angle,
                                load_spectrum_csv, one_way_transmittance,
                                sun_equivalent_irradiance)

from oracles import exact_trapezoid

TABLE1_OPTICS = ReceiverOptics(aperture_radius_m=0.025, focal_length_m=0.03,
                               detector_radius_m=1e-4, laser_efficiency=0.7206,
                               sun_efficiency=0.7986)
TABLE1_SCENE = SceneGeometry(range_m=100.0, sun_angle_rad=math.pi / 3)
TABLE1_ATM = AtmosphereModel(one_way_transmittance=0.98)
TABLE1_TARGET = TargetModel(reflectivity=0.1)
TABLE1_LASER = LaserParams(peak_power_w=45.0, wavelength_m=905e-9,
                           pulse_fwhm_s=6e-9)
TABLE1_SOLAR = SolarModel(in_band_irradiance_w_m2=29.4)


class TestOneWayTransmittance:
    def test_zero_extinction(self):
        atm = AtmosphereModel(mode="extinction", extinction_coeff_per_m=0.0)
        assert one_way_transmittance(atm, 100.0) == 1.0

    def test_fixed_mode_returns_constant(self):
        for r in (1.0, 100.0, 5000.0):
            assert one_way_transmittance(TABLE1_ATM, r) == 0.98

    def test_extinction_profile(self):
        # oracle: exp(-alpha * R) in scalar arithmetic
        atm = AtmosphereModel(mode="extinction",
                              extinction_coeff_per_m=2.0203e-4)
        assert one_way_transmittance(atm, 100.0) == pytest.approx(
            math.exp(-2.0203e-4 * 100.0), rel=1e-15)
        assert one_way_transmittance(atm, 100.0) == pytest.approx(0.98, abs=1e-6)


class TestEffectiveAperture:
    def test_constant_area(self):
        assert effective_aperture(TABLE1_OPTICS, 0.3) == pytest.approx(
            0.001963495408493621, rel=1e-15)

    def test_cosine_at_zero_matches_constant(self):
        cos_optics = ReceiverOptics(aperture_radius_m=0.025, focal_length_m=0.03,
                                    detector_radius_m=1e-4,
                                    aperture_model="cosine")
        assert effective_aperture(cos_optics, 0.0) == \
            effective_aperture(TABLE1_OPTICS, 0.0)

    def test_cosine_at_60_degrees(self):
        cos_optics = ReceiverOptics(aperture_radius_m=0.025, focal_length_m=0.03,
                                    detector_radius_m=1e-4,
                                    aperture_model="cosine")
        assert effective_aperture(cos_optics, math.pi / 3) == pytest.approx(
            0.0009817477042468104, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=math.pi / 2, exclude_max=True))
    def test_cosine_monotone_in_angle(self, theta):
        cos_optics = ReceiverOptics(aperture_radius_m=0.025, focal_length_m=0.03,
                                    detector_radius_m=1e-4,
                                    aperture_model="cosine")
        a0 = effective_aperture(cos_optics, theta)
        # the clip below pi/2 must not take the second angle below theta
        theta1 = max(theta, min(theta * 1.5 + 1e-3, math.pi / 2 * 0.9999))
        a1 = effective_aperture(cos_optics, theta1)
        assert a1 <= a0 + 1e-18


class TestEchoPower:
    def test_black_target(self):
        target = TargetModel(reflectivity=0.0)
        assert echo_power(TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS, target,
                          TABLE1_LASER) == 0.0

    def test_reference_scenario_value(self):
        # frozen from a 50-digit evaluation of the link equation
        p_r = echo_power(TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS,
                         TABLE1_TARGET, TABLE1_LASER)
        assert p_r == pytest.approx(1.946430675e-07, rel=1e-12)

    def test_inverse_square_doubling(self):
        p1 = echo_power(TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS,
                        TABLE1_TARGET, TABLE1_LASER)
        scene2 = SceneGeometry(range_m=200.0, sun_angle_rad=math.pi / 3)
        p2 = echo_power(scene2, TABLE1_ATM, TABLE1_OPTICS, TABLE1_TARGET,
                        TABLE1_LASER)
        assert p2 == pytest.approx(p1 / 4.0, rel=1e-12)

    @given(st.floats(min_value=1.0, max_value=1000.0),
           st.floats(min_value=1.0, max_value=1000.0))
    def test_inverse_square_law(self, r1, r2):
        s1 = SceneGeometry(range_m=r1, sun_angle_rad=math.pi / 3)
        s2 = SceneGeometry(range_m=r2, sun_angle_rad=math.pi / 3)
        p1 = echo_power(s1, TABLE1_ATM, TABLE1_OPTICS, TABLE1_TARGET,
                        TABLE1_LASER)
        p2 = echo_power(s2, TABLE1_ATM, TABLE1_OPTICS, TABLE1_TARGET,
                        TABLE1_LASER)
        assert p2 / p1 == pytest.approx((r1 / r2) ** 2, rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.1, max_value=500.0))
    def test_linear_in_reflectivity_and_power(self, rho, p_t):
        laser = LaserParams(peak_power_w=p_t, wavelength_m=905e-9,
                            pulse_fwhm_s=6e-9)
        base = echo_power(TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS,
                          TargetModel(reflectivity=rho), laser)
        doubled_rho = echo_power(TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS,
                                 TargetModel(reflectivity=min(2 * rho, 1.0)),
                                 laser)
        assert doubled_rho == pytest.approx(base * min(2 * rho, 1.0) / rho,
                                            rel=1e-12)
        doubled_pt = echo_power(TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS,
                                TargetModel(reflectivity=rho),
                                LaserParams(peak_power_w=2 * p_t,
                                            wavelength_m=905e-9,
                                            pulse_fwhm_s=6e-9))
        assert doubled_pt == pytest.approx(2 * base, rel=1e-12)


class TestSunEquivalentIrradiance:
    def test_direct(self):
        assert sun_equivalent_irradiance(TABLE1_SOLAR) == 29.4

    def test_scaled_is_linear(self):
        solar = SolarModel(mode="illuminance_scaled", illuminance_klux=50.0,
                           reference_illuminance_klux=100.0,
                           reference_irradiance_w_m2=29.4)
        assert sun_equivalent_irradiance(solar) == pytest.approx(14.7, rel=1e-12)

    def test_flat_spectrum_integral(self):
        rows = tuple((wl, 1.0, 0.5) for wl in (890.0, 900.0, 910.0, 920.0))
        solar = SolarModel(mode="spectrum_integral", spectrum_table=rows)
        assert sun_equivalent_irradiance(solar) == pytest.approx(15.0, rel=1e-12)

    def test_short_table_rejected(self):
        with pytest.raises(ConfigError):
            SolarModel(mode="spectrum_integral",
                       spectrum_table=((900.0, 1.0, 1.0),))

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=4.0),
                              st.floats(min_value=0.0, max_value=1.0)),
                    min_size=2, max_size=12))
    def test_trapezoid_matches_exact_integral(self, samples):
        # piecewise-linear integrand: trapezoid on the grid is exact
        rows = tuple((850.0 + 10.0 * i, e, t) for i, (e, t) in enumerate(samples))
        solar = SolarModel(mode="spectrum_integral", spectrum_table=rows)
        expected = exact_trapezoid(list(rows))
        got = sun_equivalent_irradiance(solar)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestBackgroundPower:
    def test_night(self):
        solar = SolarModel(in_band_irradiance_w_m2=0.0)
        assert background_power(TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS,
                                TABLE1_TARGET, solar) == 0.0

    def test_reference_scenario_value(self):
        # frozen from a 50-digit evaluation of the background equation
        p_rs = background_power(TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS,
                                TABLE1_TARGET, TABLE1_SOLAR)
        assert p_rs == pytest.approx(2.5099212581122908e-08, rel=1e-12)

    def test_grazing_sun(self):
        scene = SceneGeometry(range_m=100.0, sun_angle_rad=math.pi / 2)
        p_rs = background_power(scene, TABLE1_ATM, TABLE1_OPTICS,
                                TABLE1_TARGET, TABLE1_SOLAR)
        assert p_rs == pytest.approx(0.0, abs=1e-22)

    def test_range_independent_bit_identical(self):
        values = set()
        for r in (10.0, 100.0, 500.0):
            scene = SceneGeometry(range_m=r, sun_angle_rad=math.pi / 3)
            values.add(background_power(scene, TABLE1_ATM, TABLE1_OPTICS,
                                        TABLE1_TARGET, TABLE1_SOLAR))
        assert len(values) == 1

    def test_linear_in_irradiance_and_efficiency(self):
        base = background_power(TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS,
                                TABLE1_TARGET, TABLE1_SOLAR)
        double_sun = background_power(
            TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS, TABLE1_TARGET,
            SolarModel(in_band_irradiance_w_m2=58.8))
        assert double_sun == pytest.approx(2 * base, rel=1e-12)
        double_rho = background_power(TABLE1_SCENE, TABLE1_ATM, TABLE1_OPTICS,
                                      TargetModel(reflectivity=0.2),
                                      TABLE1_SOLAR)
        assert double_rho == pytest.approx(2 * base, rel=1e-12)


class TestFovHalfAngle:
    def test_small_angle(self):
        assert fov_half_angle(TABLE1_OPTICS) == pytest.approx(
            0.003333320987736625, rel=1e-12)

    def test_unity_ratio(self):
        optics = ReceiverOptics(aperture_radius_m=0.025, focal_length_m=0.03,
                                detector_radius_m=0.03)
        assert fov_half_angle(optics) == pytest.approx(math.pi / 4, rel=1e-12)

    def test_vanishing_detector(self):
        optics = ReceiverOptics(aperture_radius_m=0.025, focal_length_m=0.03,
                                detector_radius_m=1e-12)
        assert fov_half_angle(optics) == pytest.approx(0.0, abs=1e-10)


class TestValidation:
    def test_reflectivity_bounds(self):
        with pytest.raises(ConfigError, match="reflectivity"):
            TargetModel(reflectivity=1.5)

    def test_negative_range(self):
        with pytest.raises(ConfigError, match="range_m"):
            SceneGeometry(range_m=-1.0)

    def test_wavelength_window(self):
        with pytest.raises(ConfigError, match="wavelength"):
            LaserParams(peak_power_w=1.0, wavelength_m=10e-6, pulse_fwhm_s=1e-9)

    def test_transmittance_range(self):
        with pytest.raises(ConfigError, match="transmittance"):
            AtmosphereModel(one_way_transmittance=1.2)


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("wavelength_nm,irradiance_w_m2_nm,transmittance\n"
                        "890,1.0,0.5\n900,1.2,0.6\n910,0.8,0.7\n",
                        encoding="utf-8")
        rows = load_spectrum_csv(str(path))
        assert rows == ((890.0, 1.0, 0.5), (900.0, 1.2, 0.6), (910.0, 0.8, 0.7))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("nm,e,t\n890,1.0,0.5\n900,1.0,0.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="header"):
            load_spectrum_csv(str(path))

    def test_non_increasing_wavelengths(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("wavelength_nm,irradiance_w_m2_nm,transmittance\n"
                        "900,1.0,0.5\n890,1.0,0.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="increasing"):
            SolarModel(mode="spectrum_integral",
                       spectrum_table=load_spectrum_csv(str(path)))
