import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtofsim import ConfigError, scene_link
from dtofsim.errors import replace
from dtofsim.ranging import (SENSITIVITY_PARAMS, link_powers, max_range,
                             sensitivity)
from dtofsim.scenario import table1_preset
from dtofsim.scene_link import (LINK_EXPONENTS, AtmosphereModel, LaserParams,
                                ReceiverOptics, SceneGeometry, SolarModel,
                                TargetModel, effective_aperture,
                                load_spectrum_csv, one_way_transmittance,
                                range_exponents, received_powers,
                                sun_equivalent_irradiance)

from oracles import exact_trapezoid, perfbench_scenarios

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


def powers(range_m=100.0, scene=TABLE1_SCENE, atm=TABLE1_ATM,
           target=TABLE1_TARGET, laser=TABLE1_LASER, solar=TABLE1_SOLAR):
    """(echo, background) power of the table1 link with the given parts."""
    return received_powers(range_m, scene, atm, TABLE1_OPTICS, target, laser,
                           solar)


class TestEchoPower:
    def test_black_target(self):
        assert powers(target=TargetModel(reflectivity=0.0))[0] == 0.0

    def test_reference_scenario_value(self):
        # frozen from a 50-digit evaluation of the link equation
        p_r, _ = powers()
        assert p_r == pytest.approx(1.946430675e-07, rel=1e-12)

    def test_inverse_square_doubling(self):
        p1, _ = powers(100.0)
        p2, _ = powers(200.0)
        assert p2 == pytest.approx(p1 / 4.0, rel=1e-12)

    @given(st.floats(min_value=1.0, max_value=1000.0),
           st.floats(min_value=1.0, max_value=1000.0))
    def test_inverse_square_law(self, r1, r2):
        p1, _ = powers(r1)
        p2, _ = powers(r2)
        assert p2 / p1 == pytest.approx((r1 / r2) ** 2, rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.1, max_value=500.0))
    def test_linear_in_reflectivity_and_power(self, rho, p_t):
        laser = LaserParams(peak_power_w=p_t, wavelength_m=905e-9,
                            pulse_fwhm_s=6e-9)
        base, _ = powers(target=TargetModel(reflectivity=rho), laser=laser)
        doubled_rho, _ = powers(
            target=TargetModel(reflectivity=min(2 * rho, 1.0)), laser=laser)
        assert doubled_rho == pytest.approx(base * min(2 * rho, 1.0) / rho,
                                            rel=1e-12)
        doubled_pt, _ = powers(target=TargetModel(reflectivity=rho),
                               laser=LaserParams(peak_power_w=2 * p_t,
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

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1.0)),
                    min_size=2, max_size=40),
           st.floats(0.01, 10.0))
    def test_spectrum_integral_equals_the_loop_bit_for_bit(self, samples,
                                                           step):
        rows = tuple((300.0 + step * i, e, t)
                     for i, (e, t) in enumerate(samples))
        total = 0.0
        for (wl0, e0, t0), (wl1, e1, t1) in zip(rows, rows[1:]):
            total += 0.5 * (e0 * t0 + e1 * t1) * (wl1 - wl0)
        solar = SolarModel(mode="spectrum_integral", spectrum_table=rows)
        assert sun_equivalent_irradiance(solar).hex() == total.hex()

    def test_stored_value_is_no_field_of_the_model(self):
        rows = ((890.0, 1.0, 0.5), (920.0, 1.0, 0.5))
        solar = SolarModel(mode="spectrum_integral", spectrum_table=rows)
        assert repr(solar) == (
            "SolarModel(mode='spectrum_integral', in_band_irradiance_w_m2=0.0, "
            "spectrum_table=((890.0, 1.0, 0.5), (920.0, 1.0, 0.5)), "
            "illuminance_klux=0.0, reference_illuminance_klux=100.0, "
            "reference_irradiance_w_m2=29.4)")
        with pytest.raises(TypeError):
            SolarModel(mode="spectrum_integral", spectrum_table=rows,
                       _in_band_w_m2=1.0)
        with pytest.raises(TypeError):
            replace(solar, _in_band_w_m2=1.0)
        # a replaced table is integrated again; equality reads the fields
        doubled = replace(solar, spectrum_table=tuple(
            (wl, 2.0 * e, t) for wl, e, t in rows))
        assert sun_equivalent_irradiance(doubled) == 30.0
        assert replace(doubled, spectrum_table=rows) == solar
        assert hash(replace(doubled, spectrum_table=rows)) == hash(solar)
        scaled = replace(SolarModel(mode="illuminance_scaled"),
                         illuminance_klux=50.0)
        assert sun_equivalent_irradiance(scaled) == 29.4 * 50.0 / 100.0

    def test_spectrum_integrated_once_per_scenario(self, monkeypatch):
        rows = tuple((850.0 + i, 1.0 + 1e-3 * i, 0.5) for i in range(1001))
        base = table1_preset("apd")
        config = replace(base, solar=SolarModel(mode="spectrum_integral",
                                                spectrum_table=rows))
        runs = 0
        integral = scene_link._spectrum_integral

        def counted(table):
            nonlocal runs
            runs += 1
            return integral(table)

        monkeypatch.setattr(scene_link, "_spectrum_integral", counted)
        det = config.detector
        max_range(config, det, config.tdc)
        assert len(SENSITIVITY_PARAMS) == 27
        for name in SENSITIVITY_PARAMS:
            try:
                sensitivity(config, det, config.tdc, name)
            except ConfigError as exc:  # no spectrum edit for the sun
                assert name == "sun_irradiance", exc
        assert runs == 0


class TestBackgroundPower:
    def test_night(self):
        assert powers(solar=SolarModel(in_band_irradiance_w_m2=0.0))[1] == 0.0

    def test_reference_scenario_value(self):
        # frozen from a 50-digit evaluation of the background equation
        _, p_rs = powers()
        assert p_rs == pytest.approx(2.5099212581122908e-08, rel=1e-12)

    def test_grazing_sun(self):
        scene = SceneGeometry(range_m=100.0, sun_angle_rad=math.pi / 2)
        _, p_rs = powers(scene=scene)
        assert p_rs == pytest.approx(0.0, abs=1e-22)

    def test_range_independent_bit_identical(self):
        values = {powers(r)[1] for r in (10.0, 100.0, 500.0)}
        assert len(values) == 1

    def test_linear_in_irradiance_and_efficiency(self):
        _, base = powers()
        _, double_sun = powers(solar=SolarModel(in_band_irradiance_w_m2=58.8))
        assert double_sun == pytest.approx(2 * base, rel=1e-12)
        _, double_rho = powers(target=TargetModel(reflectivity=0.2))
        assert double_rho == pytest.approx(2 * base, rel=1e-12)


class TestExtinctionLink:
    @given(st.floats(min_value=0.0, max_value=1e-2),
           st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=1.0, max_value=1e4))
    def test_no_power_grows_with_range(self, alpha, r1, r2):
        # extinction only removes light: the echo falls at least as fast
        # as 1/R^2 and the background does not rise
        r1, r2 = sorted((r1, r2))
        atm = AtmosphereModel(mode="extinction", extinction_coeff_per_m=alpha)
        p1, b1 = powers(r1, atm=atm)
        p2, b2 = powers(r2, atm=atm)
        # p * r**2 rounds differently at each range, so allow a few ulps
        assert p2 * r2 * r2 <= p1 * r1 * r1 * (1.0 + 1e-12)
        assert b2 <= b1


def exponent_inputs() -> list:
    """Scenarios the exponent table is checked on: perfbench's seeded
    pairs (sun angles up to 80 degrees, both atmosphere modes), and table1
    with a direct and a spectrum solar model under each atmosphere mode;
    each at an incidence angle of 0 and of 0.3 rad."""
    rows = ((890.0, 1.0, 0.9), (905.0, 1.1, 1.0), (920.0, 0.9, 0.8))
    configs = perfbench_scenarios(range(1, 41))
    for config in (table1_preset("apd"), table1_preset("sipm")):
        for solar in (SolarModel(in_band_irradiance_w_m2=29.4),
                      SolarModel(mode="spectrum_integral",
                                 spectrum_table=rows)):
            for atm in (config.atmosphere, AtmosphereModel(
                    mode="extinction", extinction_coeff_per_m=1e-3)):
                configs.append(replace(config, solar=solar, atmosphere=atm))
    return [replace(config, scene=replace(config.scene,
                                          incidence_angle_rad=theta))
            for config in configs for theta in (0.0, 0.3)]


class TestLinkExponents:
    """``LINK_EXPONENTS`` and ``range_exponents`` against the link they
    describe: ``sensitivity`` takes a link name's partial and the range's
    as their exponents times g's two log-power partials, and evaluates
    every other name's edit at the unedited powers."""

    RANGES = (1.0, 300.0)

    @pytest.fixture(scope="class")
    def inputs(self):
        return exponent_inputs()

    def test_other_edits_leave_the_link_bit_for_bit(self, inputs):
        others = sorted(set(SENSITIVITY_PARAMS) - set(LINK_EXPONENTS))
        assert len(others) == 16
        for config in inputs:
            base = (config, config.detector, config.tdc)
            for r in self.RANGES:
                powers = link_powers(config, r)
                for name in others:
                    for f in (math.exp(1e-3), math.exp(-1e-3)):
                        sc, _, _ = SENSITIVITY_PARAMS[name](*base, f)
                        assert link_powers(sc, r) == powers, (name, f)

    def test_exponents_are_the_link_log_slopes(self, inputs):
        # a central difference in ln f, step 1e-6, of ln p_r and ln p_rs
        # under each link name's edit
        h = 1e-6
        for config in inputs:
            base = (config, config.detector, config.tdc)
            for r in self.RANGES:
                for name, exponents in LINK_EXPONENTS.items():
                    (p_up, s_up), (p_down, s_down) = (
                        link_powers(SENSITIVITY_PARAMS[name](*base, f)[0], r)
                        for f in (math.exp(h), math.exp(-h)))
                    slopes = (math.log(p_up / p_down) / (2.0 * h),
                              math.log(s_up / s_down) / (2.0 * h))
                    expected = exponents(config.scene, config.atmosphere, r)
                    assert slopes == pytest.approx(expected, abs=1e-6), name

    def test_range_exponents_are_the_link_log_slopes(self, inputs):
        # a central difference in ln r, step 1e-6, of ln p_r and ln p_rs
        h = 1e-6
        for config in inputs:
            for r in self.RANGES:
                (p_up, s_up), (p_down, s_down) = (
                    link_powers(config, r * f)
                    for f in (math.exp(h), math.exp(-h)))
                slopes = (math.log(p_up / p_down) / (2.0 * h),
                          math.log(s_up / s_down) / (2.0 * h))
                expected = range_exponents(config.atmosphere, r)
                assert slopes == pytest.approx(expected, abs=1e-6), r

    def test_keys_are_the_names_that_move_the_link(self, inputs):
        # a link factor with no row of the table would be evaluated at
        # powers its edit does not leave as they are
        moved = set()
        for config in inputs:
            base = (config, config.detector, config.tdc)
            powers = link_powers(config, 300.0)
            moved |= {name for name, edit in SENSITIVITY_PARAMS.items()
                      if link_powers(edit(*base, math.exp(1e-3))[0], 300.0)
                      != powers}
        assert moved == set(LINK_EXPONENTS)


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
