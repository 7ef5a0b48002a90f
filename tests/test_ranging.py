import math
from decimal import Decimal
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dtofsim import (ConfigError, NoDetectionError, SipmSaturationError,
                     UnboundedRangeError, ranging, sipm, table1_preset)
from dtofsim.errors import SolverError, replace
from dtofsim.detectors import ApdChoice, SipmChoice
from dtofsim.ranging import (SE_STOP_FRACTION, SENSITIVITY_PARAMS,
                             SnrEstimate, declares, link_powers, max_range,
                             sensitivity, snr_at_range)
from dtofsim.scenario import ScenarioConfig
from dtofsim.scene_link import (LINK_EXPONENTS, AtmosphereModel, SolarModel,
                                range_exponents, sun_equivalent_irradiance)
from dtofsim.sweeps import format_number
from dtofsim.tdc import TdcPolicy

from oracles import (decimal_elasticities, decimal_max_range,
                     decimal_snr_at_range, log_range_root,
                     perfbench_scenarios, reference_edit,
                     reference_min_signal_power, searched_max_range)


def with_peak_power(config, p_t):
    return replace(config, laser=replace(config.laser, peak_power_w=p_t))


def with_gain(config, gain):
    return replace(config, detector=replace(
        config.detector, params=replace(config.detector.params, gain=gain)))


def with_illuminance(config, klux):
    return replace(config, solar=replace(config.solar, illuminance_klux=klux))


def photon_limited(detector):
    """The detector with only photon noise: the approx SiPM SNR, or an APD
    without dark currents or amplifier noise and with thermal noise gone."""
    if isinstance(detector, SipmChoice):
        return replace(detector, snr_mode="approx")
    return replace(detector, params=replace(
        detector.params, surface_dark_current_a=0.0, bulk_dark_current_a=0.0,
        amplifier_noise_a=0.0, load_resistance_ohm=1e300))


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


def at_bound(config, name):
    """``config`` with the parameter ``name`` at 1.0, a closed bound of its
    domain: transmittance, efficiencies, reflectivity, gain, pixel count."""
    if name == "one_way_transmittance":
        return replace(config, atmosphere=replace(config.atmosphere,
                                                  one_way_transmittance=1.0))
    for section in ("optics", "target"):
        obj = getattr(config, section)
        if name in obj.__dataclass_fields__:
            return replace(config, **{section: replace(obj, **{name: 1.0})})
    det = config.detector
    return replace(config, detector=replace(
        det, params=replace(det.params, **{name: 1.0})))


def elasticity_of_solves(base: tuple, name: str, h: float) -> float:
    """d ln r_max / d ln p of ``name`` by a Richardson difference of
    ``max_range`` solves of its edits at steps 2h and h."""
    edit = SENSITIVITY_PARAMS[name]

    def difference_of_solves(h: float) -> float:
        up, down = (max_range(*edit(*base, f)).r_max_m
                    for f in (math.exp(h), math.exp(-h)))
        return (math.log(up) - math.log(down)) / (2.0 * h)

    return (4.0 * difference_of_solves(h)
            - difference_of_solves(2.0 * h)) / 3.0


# an elasticity meets the decimal oracle to this times max(1, |oracle|):
# 50 times the worst distance over the oracle tests' inputs, 2.0e-15
ORACLE_REL_TOL = 1e-13


def assert_every_name_meets_the_oracle(base: tuple) -> dict:
    """Every name's ``sensitivity`` of ``base`` within ``ORACLE_REL_TOL`` of
    ``oracles.decimal_elasticities``; returns the oracle's values."""
    expected = decimal_elasticities(*base)
    for name, want in expected.items():
        value = sensitivity(*base, name)
        assert abs(value - want) <= ORACLE_REL_TOL * max(1.0, abs(want)), \
            (name, value, want)
    return expected


def closed_form_variant(variant: str):
    """(table1 scenario, detector) for "apd", "sipm" or "sipm_approx"."""
    config = table1_preset("apd" if variant == "apd" else "sipm")
    det = config.detector
    if variant == "sipm_approx":
        det = replace(det, snr_mode="approx")
    return config, det


@st.composite
def closed_form_scenarios(draw, log_klux=st.floats(0.0, 2.0)):
    """table1 scenarios of every closed-form mode over perfbench's
    design_space ranges, the illuminance 10 ** ``log_klux`` klux."""
    kind = draw(st.sampled_from(("apd", "sipm", "sipm_approx")))
    config = table1_preset("apd" if kind == "apd" else "sipm")
    if kind == "sipm_approx":
        config = replace(config, detector=replace(config.detector,
                                                  snr_mode="approx"))
    config = replace(
        with_illuminance(config, 10.0 ** draw(log_klux)),
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
    return config


@st.composite
def min_power_scenarios(draw):
    """table1 scenarios of each closed-form p_min: power-law and ionization
    APDs, analytic and approx SiPMs, with drawn detector parameters."""
    kind = draw(st.sampled_from(("apd", "apd_ionization", "sipm",
                                 "sipm_approx")))
    config = table1_preset("apd" if kind.startswith("apd") else "sipm")
    det = config.detector
    if kind == "apd":
        params = replace(det.params, gain=draw(st.floats(1.0, 500.0)),
                         excess_noise_index=draw(st.floats(0.0, 1.0)))
    elif kind == "apd_ionization":
        params = replace(det.params, gain=draw(st.floats(1.0, 500.0)),
                         excess_noise_mode="ionization",
                         electron_ionization_rate=draw(st.floats(0.0, 1.0)))
    else:
        params = replace(
            det.params, n_pixels=draw(st.floats(100.0, 1e4)),
            pde=draw(st.floats(0.05, 1.0)),
            dark_count_rate_cps=draw(st.sampled_from((0.0, 2007.0, 1e6))))
        if kind == "sipm_approx":
            det = replace(det, snr_mode="approx")
    return replace(config, detector=replace(det, params=params))


# 0, the least subnormal, table1's background at 1 m, one that holds every
# pixel of the table1 SiPM fired (p_min inf), and one near the float limit
EDGE_P_RS = (0.0, 5e-324, link_powers(table1_preset("apd"), 1.0)[1], 1e-3,
             1e300)


def solvable_scenarios():
    """``closed_form_scenarios`` that have a root: a bright sun can hold
    the SiPM below threshold at 1 m, an answer (NoDetectionError)."""
    return closed_form_scenarios().filter(
        lambda config: snr_at_range(config, config.detector, 1.0)
        >= config.tdc.tnr)


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

    @pytest.mark.parametrize("mode", ["analytic", "approx"])
    def test_one_photon_budget_per_sipm_evaluation(self, monkeypatch,
                                                   sipm_config, mode):
        # both closed-form SiPM modes read one PhotonCounts of the link
        det = replace(sipm_config.detector, snr_mode=mode)
        budgets = count_calls(monkeypatch, sipm.PhotonCounts, "from_powers")
        for r in (1.0, 100.0, 400.0):
            snr_at_range(sipm_config, det, r)
        assert len(budgets) == 3
        res = max_range(sipm_config, det, sipm_config.tdc)
        assert len(budgets) == 3 + res.evaluations
        ranging.sipm_fired_fraction(sipm_config, det,
                                    *link_powers(sipm_config, 100.0))
        assert len(budgets) == 4 + res.evaluations


class TestMaxRange:
    def test_reference_apd(self, apd_config):
        res = max_range(apd_config, apd_config.detector, apd_config.tdc)
        assert res.r_max_m == pytest.approx(350.60456463121545, rel=1e-6)
        assert abs(res.snr_at_rmax - 5.0) <= 1e-6 * 5.0
        assert (res.evaluations, res.snr_se) == (2, 0.0)
        p_r, p_rs = link_powers(apd_config, res.r_max_m)
        assert res.min_detectable_power_w == pytest.approx(p_r, rel=1e-12)
        assert res.background_power_w == pytest.approx(p_rs, rel=1e-12)

    def test_reference_sipm(self, sipm_config):
        res = max_range(sipm_config, sipm_config.detector, sipm_config.tdc)
        assert res.r_max_m == pytest.approx(280.8714710150478, rel=1e-6)
        assert abs(res.snr_at_rmax - 5.0) <= 1e-6 * 5.0
        assert (res.evaluations, res.snr_se) == (2, 0.0)

    def test_reference_sipm_approx(self, sipm_config):
        det = replace(sipm_config.detector, snr_mode="approx")
        res = max_range(sipm_config, det, sipm_config.tdc)
        assert format_number(res.r_max_m) == format_number(308.6674900295973)
        assert (res.evaluations, res.snr_se) == (2, 0.0)

    def test_approx_sipm_has_no_dark_count_term(self, sipm_config):
        # with no sunlight the photon-budget approximation is noiseless
        # whatever the dark count rate, where the analytic model is not
        dark = with_illuminance(sipm_config, 0.0)
        assert dark.detector.params.dark_count_rate_cps > 0.0
        res = max_range(dark, dark.detector, dark.tdc)
        assert format_number(res.r_max_m) == format_number(4105.3118312427105)
        approx = replace(dark.detector, snr_mode="approx")
        with pytest.raises(UnboundedRangeError, match="no noise"):
            max_range(dark, approx, dark.tdc)
        # in sunlight it has a range, which neither knob moves
        approx = replace(sipm_config.detector, snr_mode="approx")
        for name in ("n_pixels", "dark_count_rate_cps"):
            assert sensitivity(sipm_config, approx, sipm_config.tdc,
                               name) == 0.0

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
        with pytest.raises(ConfigError, match="SNR at 1 m is not a number"):
            snr_at_range(huge, huge.detector, 1.0)
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
        flooded = replace(sipm_config, detector=replace(
            sipm_config.detector, params=replace(
                sipm_config.detector.params, dark_count_rate_cps=1e12)))
        with pytest.raises(SipmSaturationError,
                           match=r"exceeds.*\(at range 1 m\)"):
            max_range(flooded, flooded.detector, flooded.tdc)

    def test_above_threshold_at_the_cap_is_unbounded(self, sipm_config):
        # the doubling bracket reaches 100 km with the SNR still above tnr
        strong = with_peak_power(sipm_config, 1e12)
        det = SipmChoice(params=strong.detector.params, snr_mode="monte_carlo",
                         mc=sipm.SipmMcConfig.for_dead_time(6e-9, seed=3,
                                                            n_trials=4))
        with pytest.raises(UnboundedRangeError,
                           match="stays above the threshold 5 out to 100000 m"):
            max_range(strong, det, strong.tdc)
        assert snr_at_range(strong, det, ranging.RANGE_CAP_M) >= strong.tdc.tnr

    def test_snr_at_range_carries_the_standard_error(self, sipm_config):
        det = monte_carlo(sipm_config, 11)
        snr = snr_at_range(sipm_config, det, 200.0)
        p_r, p_rs = link_powers(sipm_config, 200.0)
        laser = sipm_config.laser
        expected = sipm.monte_carlo_snr(
            det.params, p_r, p_rs, laser.pulse_fwhm_s, laser.wavelength_m,
            sipm_config.bandwidth_hz, det.mc_config())
        assert isinstance(snr, SnrEstimate)
        assert (snr, snr.se) == expected

    def test_result_reads_the_returned_evaluation(self, sipm_config,
                                                  monkeypatch):
        # snr_se is the se of the evaluation at r_max, and snr_at_rmax its
        # value as a plain float
        values = {}
        real = ranging.snr_at_range

        def spy(scenario, detector, range_m):
            values[range_m] = real(scenario, detector, range_m)
            return values[range_m]

        monkeypatch.setattr(ranging, "snr_at_range", spy)
        res = max_range(sipm_config, monte_carlo(sipm_config, 5),
                        sipm_config.tdc)
        root = values[res.r_max_m]
        assert res.snr_se == root.se
        assert res.snr_at_rmax == root
        assert type(res.snr_at_rmax) is float

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


class TestInvertedRange:
    """The closed-form solve inverts the SNR at the minimum detectable
    power; it must find the root the SNR search found, and raise what the
    search raised."""

    @settings(max_examples=150, deadline=None)
    @given(closed_form_scenarios(log_klux=st.floats(-1.0, 6.0)))
    def test_agrees_with_the_searched_solve(self, config):
        det, policy = config.detector, config.tdc
        try:
            r_searched = searched_max_range(config, det, policy)
        except SolverError as exc:
            with pytest.raises(type(exc)) as raised:
                max_range(config, det, policy)
            assert str(raised.value) == str(exc)
            return
        res = max_range(config, det, policy)
        assert res.r_max_m == pytest.approx(r_searched, rel=1e-11)
        assert abs(res.snr_at_rmax / policy.tnr - 1.0) <= 1e-13
        assert res.evaluations == 2

    @pytest.mark.parametrize("case,error", [
        # no detection at 1 m
        ("weak_laser", NoDetectionError),
        # the sun holds so much of the array fired that no echo reaches tnr
        ("saturated_sipm", NoDetectionError),
        # dark occupancy alone overfills the array
        ("flooded_sipm", SipmSaturationError),
        ("noiseless_sipm", UnboundedRangeError),
        # above threshold at the 100 km cap
        ("unbounded_fixed", UnboundedRangeError),
        ("unbounded_extinction", UnboundedRangeError),
        ("nan_snr", ConfigError)])
    def test_errors_match_the_searched_solve(self, apd_config, sipm_config,
                                             case, error):
        strong = with_peak_power(apd_config, 5e6)
        config = {
            "weak_laser": with_peak_power(apd_config, 1e-5),
            "saturated_sipm": with_illuminance(sipm_config, 3e3),
            "flooded_sipm": replace(sipm_config, detector=replace(
                sipm_config.detector, params=replace(
                    sipm_config.detector.params, dark_count_rate_cps=1e12))),
            "noiseless_sipm": noiseless_sipm(sipm_config),
            "unbounded_fixed": strong,
            "unbounded_extinction": replace(strong, atmosphere=AtmosphereModel(
                mode="extinction", extinction_coeff_per_m=1e-9)),
            "nan_snr": with_gain(apd_config, 1e300),
        }[case]
        with pytest.raises(error) as searched:
            searched_max_range(config, config.detector, config.tdc)
        with pytest.raises(error) as inverted:
            max_range(config, config.detector, config.tdc)
        assert type(inverted.value) is type(searched.value)
        assert str(inverted.value) == str(searched.value)

    @pytest.mark.parametrize("detector", ["apd", "sipm"])
    def test_underflowed_echo_agrees_with_the_searched_solve(self, detector):
        # the echo at 100 m underflows to 0 W, a margin of -inf there
        config = with_peak_power(table1_preset(detector), 1e6)
        config = replace(config, atmosphere=AtmosphereModel(
            mode="extinction", extinction_coeff_per_m=4.0))
        assert link_powers(config, 100.0)[0] == 0.0
        res = max_range(config, config.detector, config.tdc)
        assert res.r_max_m == pytest.approx(
            searched_max_range(config, config.detector, config.tdc),
            rel=1e-11)
        assert res.evaluations == 2

    @pytest.mark.parametrize("variant", ["apd", "sipm", "sipm_approx"])
    def test_zero_extinction_is_full_transmittance(self, variant):
        config, det = closed_form_variant(variant)
        full = replace(config, atmosphere=AtmosphereModel(
            one_way_transmittance=1.0))
        zero = replace(config, atmosphere=AtmosphereModel(
            mode="extinction", extinction_coeff_per_m=0.0))
        # the extinction root is Brent's, on a bracket 1e-15 wide in ln(r)
        assert max_range(zero, det, zero.tdc).r_max_m == pytest.approx(
            max_range(full, det, full.tdc).r_max_m, rel=1e-14)

    @pytest.mark.parametrize("atmosphere", [
        {}, {"mode": "extinction", "extinction_coeff_per_m": 1e-3}])
    @pytest.mark.parametrize("variant", ["apd", "sipm", "sipm_approx"])
    def test_two_snr_evaluations(self, monkeypatch, variant, atmosphere):
        # the 1 m checks and the root; the inversion reads the link and
        # p_min, not the SNR
        config, det = closed_form_variant(variant)
        config = replace(config, atmosphere=AtmosphereModel(**atmosphere))
        calls = count_calls(monkeypatch, ranging, "snr_at_range")
        res = max_range(config, det, config.tdc)
        assert [args[2] for args in calls] == [1.0, res.r_max_m]
        assert res.evaluations == 2

    @settings(max_examples=200, deadline=None)
    @given(min_power_scenarios(),
           st.one_of(st.sampled_from(EDGE_P_RS), st.floats(0.0, 1e-2)))
    def test_min_signal_power_matches_the_reference_bit_for_bit(self, config,
                                                                p_rs):
        # the terms built once per solve give each p_min bit for bit
        det, policy = config.detector, config.tdc
        p_min = ranging._min_signal_power(config, det, policy)
        for value in (p_rs, *EDGE_P_RS):
            assert p_min(value).hex() == reference_min_signal_power(
                config, det, policy, value).hex(), value

    @pytest.mark.parametrize("variant", ["apd", "sipm", "sipm_approx"])
    def test_min_signal_power_edges(self, variant):
        config, det = closed_form_variant(variant)
        p_min = ranging._min_signal_power(config, det, config.tdc)
        values = [p_min(p_rs) for p_rs in EDGE_P_RS]
        # a finite p_min at table1's background; only the analytic SiPM
        # has no detectable echo once the background fires every pixel
        assert 0.0 < values[2] < math.inf
        assert (values[3] == math.inf) == (variant == "sipm")

    @settings(max_examples=60, deadline=None)
    @given(min_power_scenarios(), st.floats(-6.0, -1.0))
    def test_extinction_range_matches_the_reference_bit_for_bit(self, config,
                                                                log_k):
        config = replace(config, atmosphere=AtmosphereModel(
            mode="extinction", extinction_coeff_per_m=10.0 ** log_k))

        def solve():
            # a fresh scenario object, so no remembered solve answers
            sc = replace(config)
            try:
                return max_range(sc, sc.detector, sc.tdc).r_max_m.hex()
            except (ConfigError, SolverError) as exc:
                return type(exc), str(exc)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ranging, "_min_signal_power",
                       lambda sc, det, pol: partial(
                           reference_min_signal_power, sc, det, pol))
            expected = solve()
        assert solve() == expected


# the fixed-transmittance range and p_min meet the 60-digit oracle to this
# many ULPs of its value, bounds set from their float chains before any
# run: about a dozen roundings in the echo power and in p_min, the
# analytic SiPM's amplified by its background occupancy near saturation
# (its eta reaches 2 in perfbench's draws); the range halves both
P_MIN_ULPS = 32
R_MAX_ULPS = 24
# under extinction the range is a Brent root in ln r, which stops once its
# half bracket is within 2 ulp(1) |ln r| + LOG_RANGE_TOL / 2: at most
# 5.7e-15 below the 100 km cap, 51 ULPs of r, and the margin's own
# roundings add a few
R_MAX_EXTINCTION_ULPS = 64
# snr_at_range meets the oracle's SNR to this many ULPs, set before any
# run: about a dozen roundings in each power, with up to 2 (k r + 1) more
# in the echo's exp(-k r) squared under extinction (k r of a few at most
# in these inputs), and as many again in the SNR, the SiPM's amplified by
# its occupancy near saturation, as for p_min
SNR_ULPS = 32


def ulps_from(value: float, exact) -> float:
    """|value - exact| in ULPs of ``exact`` rounded to a double."""
    return float(abs(Decimal(value) - exact)) / math.ulp(float(exact))


class TestDecimalRange:
    """``max_range`` and p_min against ``oracles.decimal_max_range``, at a
    fixed transmittance and under extinction."""

    # inputs per group, and of them the solves that raise NoDetectionError
    SIZES = {"table1": (5, 0), "perfbench": (128, 0),
             "table1-extinction": (5, 0), "perfbench-extinction": (72, 1)}

    @staticmethod
    def inputs(group: str) -> list:
        """table1 with the APD in both excess-noise modes and with
        amplifier noise, the SiPM analytic and approx; or the draws of
        perfbench's seeds 1 to 100; each at a fixed transmittance, or
        under extinction: table1 at 1e-3 /m and the draws' own."""
        if group.startswith("perfbench"):
            mode = ("extinction" if group.endswith("extinction")
                    else "fixed_transmittance")
            return [config for config in perfbench_scenarios(range(1, 101))
                    if config.atmosphere.mode == mode]
        apd, sipm_config = table1_preset("apd"), table1_preset("sipm")
        params = apd.detector.params
        inputs = [apd, sipm_config, replace(sipm_config, detector=replace(
            sipm_config.detector, snr_mode="approx"))]
        for changes in ({"amplifier_noise_a": 2e-8},
                        {"excess_noise_mode": "ionization",
                         "electron_ionization_rate": 0.05}):
            inputs.append(replace(apd, detector=replace(
                apd.detector, params=replace(params, **changes))))
        if group.endswith("extinction"):
            atmosphere = AtmosphereModel(mode="extinction",
                                         extinction_coeff_per_m=1e-3)
            inputs = [replace(config, atmosphere=atmosphere)
                      for config in inputs]
        return inputs

    @pytest.mark.parametrize("group", list(SIZES))
    def test_range_and_min_power_meet_the_decimal_oracle(self, group):
        # p_min at the oracle's background rounded to a double
        inputs, misses = self.inputs(group), 0
        r_max_ulps = (R_MAX_EXTINCTION_ULPS if group.endswith("extinction")
                      else R_MAX_ULPS)
        for config in inputs:
            base = (config, config.detector, config.tdc)
            try:
                p_rs, p_min, r = decimal_max_range(*base)
            except NoDetectionError:
                misses += 1
                with pytest.raises(NoDetectionError):
                    max_range(*base)
                continue
            got = ranging._min_signal_power(*base)(float(p_rs))
            assert ulps_from(got, p_min) <= P_MIN_ULPS, (config, got)
            got = max_range(*base).r_max_m
            assert ulps_from(got, r) <= r_max_ulps, (config, got)
        assert (len(inputs), misses) == self.SIZES[group]

    @pytest.mark.parametrize("group", list(SIZES))
    def test_snr_at_range_meets_the_decimal_oracle(self, group):
        # at 1 m, at 100 m and at the solve's r_max, where there is one
        inputs, misses = self.inputs(group), 0
        for config in inputs:
            base = (config, config.detector, config.tdc)
            ranges = [1.0, 100.0]
            try:
                ranges.append(max_range(*base).r_max_m)
            except NoDetectionError:
                misses += 1
            for r in ranges:
                got = ranging.snr_at_range(config, config.detector, r)
                exact = decimal_snr_at_range(*base, r)
                assert ulps_from(got, exact) <= SNR_ULPS, (config, r, got)
        assert (len(inputs), misses) == self.SIZES[group]


class TestLogMargin:
    """ln(a / b), the one margin of the inversion, the Monte Carlo search
    and the elasticities, at the edges of its domain."""

    @pytest.mark.parametrize("a,b,expected", [
        (0.0, 5.0, -math.inf),          # no echo
        (-0.3, 5.0, -math.inf),         # a negative Monte Carlo SNR
        (math.inf, 5.0, math.inf),      # an infinite SNR
        (1e-9, 0.0, math.inf),          # no noise: every echo detectable
        (0.0, 0.0, -math.inf),          # no echo beats no noise
        (1e-9, math.inf, -math.inf),    # a saturated array's p_min
        (math.e, 1.0, 1.0)])
    def test_table(self, a, b, expected):
        assert ranging._log_margin(a, b) == expected


class TestSearchedRange:
    """The bracket search that the Monte Carlo and the extinction
    inversion share: its root and cap rules, seen through ``max_range``."""

    @staticmethod
    def fake_monte_carlo(monkeypatch, sipm_config, snr_of_range):
        """A Monte Carlo solve whose SNR at r is ``snr_of_range(r)``, an
        ``SnrEstimate``; returns (result, evaluated ranges)."""
        ranges = []

        def fake(sc, det, r):
            ranges.append(r)
            return snr_of_range(r)

        monkeypatch.setattr(ranging, "snr_at_range", fake)
        res = max_range(sipm_config, monte_carlo(sipm_config, 0),
                        sipm_config.tdc)
        return res, ranges

    def test_a_root_in_the_band_ends_the_doubling(self, sipm_config,
                                                 monkeypatch):
        # inside the noise band above tnr at exactly 200 m: that is the
        # root, and 400 m is never evaluated
        tnr = sipm_config.tdc.tnr

        def snr(r):
            if r == 200.0:
                return SnrEstimate(tnr + 0.1, 1.0)
            return SnrEstimate(tnr + 1.0 if r < 200.0 else tnr - 1.0, 0.1)

        res, ranges = self.fake_monte_carlo(monkeypatch, sipm_config, snr)
        assert res.r_max_m == 200.0
        assert res.snr_at_rmax == tnr + 0.1 and res.snr_se == 1.0
        assert ranges == [1.0, 100.0, 200.0]
        assert res.evaluations == 3

    def test_in_the_band_below_tnr_at_the_cap_is_the_cap(self, sipm_config,
                                                         monkeypatch):
        tnr = sipm_config.tdc.tnr

        def snr(r):
            if r == ranging.RANGE_CAP_M:
                return SnrEstimate(tnr - 0.1, 1.0)
            return SnrEstimate(tnr + 1.0, 0.1)

        res, ranges = self.fake_monte_carlo(monkeypatch, sipm_config, snr)
        assert res.r_max_m == 1e5
        assert res.snr_at_rmax == tnr - 0.1
        # 1 m, 100 m doubled nine times to 51.2 km, and the cap
        assert ranges == [1.0, *(100.0 * 2 ** k for k in range(10)), 1e5]

    def test_both_solves_raise_one_unbounded_error(self, apd_config,
                                                   sipm_config, monkeypatch):
        # a margin still positive at 100 km: the extinction inversion of
        # a strong laser, and a Monte Carlo SNR above tnr everywhere
        strong = replace(with_peak_power(apd_config, 5e6),
                         atmosphere=AtmosphereModel(
                             mode="extinction", extinction_coeff_per_m=1e-9))
        with pytest.raises(UnboundedRangeError) as inverted:
            max_range(strong, strong.detector, strong.tdc)
        tnr = sipm_config.tdc.tnr
        with pytest.raises(UnboundedRangeError) as searched:
            self.fake_monte_carlo(monkeypatch, sipm_config,
                                  lambda r: SnrEstimate(tnr + 1.0, 0.1))
        assert str(inverted.value) == str(searched.value) == (
            "SNR stays above the threshold 5 out to 100000 m")


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
    """The pipeline's photon-limited ranges: the approx SiPM and an APD
    without dark, thermal or amplifier noise."""

    def test_sun_exponent(self, apd_config, sipm_config):
        for config in (sipm_config, apd_config):
            config = replace(config, detector=photon_limited(config.detector))
            base = max_range(config, config.detector, config.tdc).r_max_m
            brighter = with_illuminance(config, 400.0)
            r_400 = max_range(brighter, brighter.detector,
                              brighter.tdc).r_max_m
            assert r_400 == pytest.approx(base * 4.0 ** -0.25, rel=1e-9)


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
        # the implicit value has no truncation error; the difference of
        # solves is extrapolated (Richardson) to cancel its own, which a
        # curved root can make large
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
        value = sensitivity(config, config.detector, config.tdc, name)
        assert value == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_near_saturation_default_step_matches_solves(self):
        # the 99.99 % fired array of the example above, r_max 92.8945 m,
        # for every declared name: a Richardson difference of max_range
        # solves (steps 2e-6 and 1e-6) agrees to 1e-4 of
        # max(|elasticity|, 1e-3); a central difference of ln p_min in
        # ln p_rs reads eta 189.1 here against 136.15
        sipm = table1_preset("sipm")
        config = replace(with_illuminance(sipm, 100.0),
                         target=replace(sipm.target, reflectivity=0.375),
                         scene=replace(sipm.scene, sun_angle_rad=0.0))
        base = (config, config.detector, config.tdc)
        assert max_range(*base).r_max_m == pytest.approx(92.8945, abs=1e-4)
        assert ranging.sipm_fired_fraction(
            config, config.detector,
            *link_powers(config, 92.8945)) == pytest.approx(
            0.9999, abs=5e-5)

        def difference_of_solves(name: str, h: float) -> float:
            up, down = (max_range(*SENSITIVITY_PARAMS[name](*base, f)).r_max_m
                        for f in (math.exp(h), math.exp(-h)))
            return (math.log(up) - math.log(down)) / (2.0 * h)

        names = [name for name in sorted(SENSITIVITY_PARAMS)
                 if declares(*base, name)]
        assert len(names) == 19
        for name in names:
            expected = (4.0 * difference_of_solves(name, 1e-6)
                        - difference_of_solves(name, 2e-6)) / 3.0
            value = sensitivity(*base, name)
            assert abs(value - expected) <= 1e-4 * max(abs(expected), 1e-3), \
                (name, value, expected)

    def test_link_names_match_solves(self):
        # perfbench's inputs, each also at an incidence angle of 0.3 rad: a
        # Richardson difference of max_range solves (steps 2e-6 and 1e-6)
        # agrees with every link name to 1e-5 of
        # max(|elasticity|, 1e-3) (5.4e-6 at aperture_radius_m, seed 20),
        # and with the names whose exponents depend on the scenario to 3e-6
        scenario_dependent = {"sun_angle_rad", "incidence_angle_rad",
                              "one_way_transmittance"}
        for config in perfbench_scenarios(range(1, 41)):
            for config in (config, replace(config, scene=replace(
                    config.scene, incidence_angle_rad=0.3))):
                base = (config, config.detector, config.tdc)
                for name in sorted(LINK_EXPONENTS):
                    expected = elasticity_of_solves(base, name, 1e-6)
                    value = sensitivity(*base, name)
                    bound = 3e-6 if name in scenario_dependent else 1e-5
                    assert abs(value - expected) \
                        <= bound * max(abs(expected), 1e-3), \
                        (name, value, expected)

    def test_table1_sun_angle_meets_the_decimal_chain(self, apd_config):
        # the table1 APD chain in 60-digit decimal arithmetic
        base = (apd_config, apd_config.detector, apd_config.tdc)
        expected = decimal_elasticities(*base)["sun_angle_rad"]
        assert expected == pytest.approx(0.4425122717847621, rel=1e-15)
        value = sensitivity(*base, "sun_angle_rad")
        assert abs(value - expected) <= ORACLE_REL_TOL * max(1.0, expected)

    @staticmethod
    def oracle_inputs(group: str) -> list:
        """Scenarios ``test_every_name_meets_the_decimal_oracle`` checks:
        perfbench's seeded pairs (both excess-noise modes, both atmosphere
        modes), or table1 and its variants: the approx SiPM, amplifier
        noise, the ionization form, a sun at and just inside grazing, the
        99.99 % fired SiPM, and detector parameters at a closed bound."""
        if group == "perfbench":
            return perfbench_scenarios(range(1, 201))
        apd, sipm = table1_preset("apd"), table1_preset("sipm")
        params = apd.detector.params
        inputs = [apd, sipm, replace(sipm, detector=replace(
            sipm.detector, snr_mode="approx"))]
        for changes in ({"amplifier_noise_a": 2e-8},
                        {"excess_noise_mode": "ionization",
                         "electron_ionization_rate": 0.05}):
            inputs.append(replace(apd, detector=replace(
                apd.detector, params=replace(params, **changes))))
        inputs += [replace(config, scene=replace(config.scene,
                                                 sun_angle_rad=theta))
                   for config in (apd, sipm)
                   for theta in (math.pi / 2, 1.5707)]
        inputs.append(replace(with_illuminance(sipm, 100.0),
                              target=replace(sipm.target, reflectivity=0.375),
                              scene=replace(sipm.scene, sun_angle_rad=0.0)))
        inputs += [at_bound(apd, "gain"), at_bound(apd, "quantum_efficiency"),
                   at_bound(sipm, "pde"),
                   # one pixel reaches tnr only in dim light
                   at_bound(with_illuminance(sipm, 0.01), "n_pixels")]
        return inputs

    @pytest.mark.parametrize("group", ["perfbench", "table1"])
    def test_every_name_meets_the_decimal_oracle(self, group):
        # every name of every input within ORACLE_REL_TOL of the 60-digit
        # oracle; perfbench draws 2 scenarios of 400 with no root
        solved = 0
        for config in self.oracle_inputs(group):
            base = (config, config.detector, config.tdc)
            try:
                max_range(*base)
            except SolverError:
                continue
            assert_every_name_meets_the_oracle(base)
            solved += 1
        assert solved == (398 if group == "perfbench" else 14)

    @staticmethod
    def edit_parity_inputs(group: str) -> list:
        """Scenarios whose edits ``test_edit_matches_the_reference`` checks:
        perfbench's seeded pairs (both detectors, both atmosphere modes),
        table1 with a direct and a spectrum solar model, or table1 with
        a parameter at a closed bound of its domain."""
        if group == "perfbench":
            return perfbench_scenarios(range(1, 31))
        apd, sipm = table1_preset("apd"), table1_preset("sipm")
        if group == "solar":
            rows = ((890.0, 1.0, 0.9), (905.0, 1.1, 1.0), (920.0, 0.9, 0.8))
            return [replace(config, solar=solar) for config in (apd, sipm)
                    for solar in (SolarModel(in_band_irradiance_w_m2=29.4),
                                  SolarModel(mode="spectrum_integral",
                                             spectrum_table=rows))]
        return [at_bound(apd, "one_way_transmittance"),
                at_bound(sipm, "one_way_transmittance"),
                at_bound(apd, "laser_efficiency"), at_bound(apd, "gain"),
                at_bound(sipm, "n_pixels")]

    @pytest.mark.parametrize("group", ["perfbench", "solar", "bounds"])
    def test_edit_matches_the_reference(self, group):
        # every name's edit gives the triple dataclasses.replace gives,
        # hands back the very objects it leaves unedited, and raises the
        # reference's ConfigError where a step leaves a closed domain
        factors = (math.exp(1e-3), math.exp(-1e-3), math.exp(2e-3),
                   math.exp(-2e-3), 1.0)
        rejected = 0
        for config in self.edit_parity_inputs(group):
            base = (config, config.detector, config.tdc)
            for name in sorted(SENSITIVITY_PARAMS):
                for f in factors:
                    try:
                        expected = reference_edit(name, *base, f)
                    except ConfigError as exc:
                        with pytest.raises(ConfigError) as info:
                            SENSITIVITY_PARAMS[name](*base, f)
                        assert str(info.value) == str(exc), (name, f)
                        rejected += 1
                        continue
                    edited = SENSITIVITY_PARAMS[name](*base, f)
                    assert edited == expected, (name, f)
                    assert [a is b for a, b in zip(edited, base)] \
                        == [a is b for a, b in zip(expected, base)], (name, f)
        # each bound rejects its two steps outward
        assert rejected == (10 if group == "bounds" else 0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_names_are_dot_products_of_the_log_partials(self, variant):
        # every name is -dg_p / dg_r bit for bit, with D_r, D_s and the
        # detector's own partials from log_partials at the solve's powers:
        # the range's and each link name's partial alpha D_r + gamma D_s,
        # tnr's -1, a detector name's its entry and any other name's 0;
        # the detector states a partial for each name its SNR reads
        config, det = closed_form_variant(variant)
        base = (config, det, config.tdc)
        solve = max_range(*base)
        r = solve.r_max_m
        d_r, d_s, own = ranging.log_partials(config, det,
                                             solve.min_detectable_power_w,
                                             solve.background_power_w)
        alpha, gamma = range_exponents(config.atmosphere, r)
        dg_r = alpha * d_r + gamma * d_s
        for name in SENSITIVITY_PARAMS:
            if name in LINK_EXPONENTS:
                alpha, gamma = LINK_EXPONENTS[name](config.scene,
                                                    config.atmosphere, r)
                dg_p = alpha * d_r + gamma * d_s
            else:
                dg_p = -1.0 if name == "tnr" else own.get(name, 0.0)
            assert sensitivity(*base, name) == -dg_p / dg_r + 0.0, name
        assert sorted(own) == {
            "apd": ["amplifier_noise_a", "bandwidth_hz", "bulk_dark_current_a",
                    "excess_noise_index", "gain", "load_resistance_ohm",
                    "quantum_efficiency", "surface_dark_current_a",
                    "temperature_k", "wavelength_m"],
            "sipm": ["dark_count_rate_cps", "dead_time_s", "n_pixels", "pde",
                     "pulse_fwhm_s", "wavelength_m"],
            "sipm_approx": ["dead_time_s", "pde", "pulse_fwhm_s",
                            "wavelength_m"]}[variant]

    def test_link_exponent_identities_are_exact(self):
        # a partial linear in the exponents keeps their ratios to the bit:
        # perfbench's inputs, each also at an incidence angle of 0.3 rad;
        # the APD states one partial for eta and lambda, which its
        # responsivity reads alike, and opposite ones for T and R_L, whose
        # ratio its thermal noise reads, also at a quantum efficiency of 1
        fixed = apds = 0
        apd = table1_preset("apd")
        for config in [*perfbench_scenarios(range(1, 41)),
                       at_bound(apd, "quantum_efficiency")]:
            for config in (config, replace(config, scene=replace(
                    config.scene, incidence_angle_rad=0.3))):
                base = (config, config.detector, config.tdc)
                value = {name: sensitivity(*base, name)
                         for name in sorted(SENSITIVITY_PARAMS)}
                if config.atmosphere.mode == "fixed_transmittance":
                    fixed += 1
                    assert value["peak_power_w"] == 0.5
                    assert value["laser_efficiency"] == 0.5
                assert value["aperture_radius_m"] == 2 * value["reflectivity"]
                assert value["detector_radius_m"] == -value["focal_length_m"]
                assert value["sun_efficiency"] == value["sun_irradiance"]
                if isinstance(config.detector, ApdChoice):
                    apds += 1
                    assert value["quantum_efficiency"] \
                        == value["wavelength_m"]
                    assert value["temperature_k"] \
                        == -value["load_resistance_ohm"]
        assert (fixed, apds) == (110, 82)

    @pytest.mark.parametrize("variant", ["apd", "sipm"])
    def test_steep_exponent_takes_the_chain_rule(self, variant):
        # at a sun of 1.569 rad d ln p_rs / d ln theta is about -870; that
        # exponent times D_s meets a Richardson difference of solves
        # (steps 1e-8 and 2e-8) to 1e-6 of the value, and the oracle
        config = table1_preset(variant)
        config = replace(config, scene=replace(config.scene,
                                               sun_angle_rad=1.569))
        base = (config, config.detector, config.tdc)
        expected = elasticity_of_solves(base, "sun_angle_rad", 1e-8)
        assert expected == pytest.approx(
            27.7114 if variant == "apd" else 217.596, rel=1e-4)
        value = sensitivity(*base, "sun_angle_rad")
        assert value == pytest.approx(expected, rel=1e-6)
        assert_every_name_meets_the_oracle(base)

    @pytest.mark.parametrize("variant", ["apd", "sipm"])
    @pytest.mark.parametrize("theta", [math.pi / 2, 1.5707])
    def test_grazing_sun_meets_the_decimal_oracle(self, variant, theta):
        # cos(pi / 2) is 6e-17 in floating point, so p_rs is about 1e-24 W
        # and -theta tan(theta) about -2.6e16; the detector's own D_s needs
        # no step, and its product with the exponent stays finite
        config = table1_preset(variant)
        config = replace(config, scene=replace(config.scene,
                                               sun_angle_rad=theta))
        base = (config, config.detector, config.tdc)
        expected = assert_every_name_meets_the_oracle(base)["sun_angle_rad"]
        assert expected == pytest.approx({
            ("apd", math.pi / 2): 31.77564565221573,
            ("sipm", math.pi / 2): 24615.95320549481,
            ("apd", 1.5707): 31.52795602147167,
            ("sipm", 1.5707): 3501.250023433999}[variant, theta], rel=1e-13)

    def test_upper_bound_power_law_is_exact(self, apd_config):
        # p_r is proportional to laser_efficiency and nothing else reads
        # it, so r_max goes as its square root, at the bound 1 as inside
        config = at_bound(apd_config, "laser_efficiency")
        assert sensitivity(config, config.detector, config.tdc,
                           "laser_efficiency") == 0.5

    def test_lower_bound_evaluations(self, monkeypatch, apd_config):
        # at a gain of 1, where an edit downward leaves the domain, the
        # partial is the detector's own, with no evaluation after the solve
        config = at_bound(apd_config, "gain")
        base = (config, config.detector, config.tdc)
        max_range(*base)
        calls = count_calls(monkeypatch, ranging, "snr_from_powers")
        value = sensitivity(*base, "gain")
        assert calls == []
        expected = decimal_elasticities(*base)["gain"]
        assert abs(value - expected) \
            <= ORACLE_REL_TOL * max(1.0, abs(expected))

    @pytest.mark.parametrize("variant,name,side", [
        ("apd", "one_way_transmittance", -1), ("apd", "gain", 1),
        ("apd", "reflectivity", -1), ("apd", "quantum_efficiency", -1),
        ("sipm", "pde", -1), ("sipm", "laser_efficiency", -1)])
    def test_closed_bound_matches_one_sided_difference_of_solves(
            self, variant, name, side):
        # side -1 is an upper bound (the edit may only shrink the value),
        # +1 a lower one; the oracle mirrors the implicit rule with solves,
        # 3 ln r_0 - 4 ln r_-1 + ln r_-2 at an upper bound, extrapolated
        # (Richardson) to cancel its O(h^2) term
        config = at_bound(table1_preset(variant), name)
        step = 1e-5
        edit = SENSITIVITY_PARAMS[name]
        with pytest.raises(ConfigError):
            edit(config, config.detector, config.tdc, math.exp(-side * step))

        def one_sided_difference_of_solves(h: float) -> float:
            logs = []
            for k in (0, 1, 2):
                sc, det, pol = edit(config, config.detector, config.tdc,
                                    math.exp(side * k * h))
                logs.append(math.log(log_range_root(
                    lambda r: snr_at_range(sc, det, r), pol.tnr)))
            return side * (-3.0 * logs[0] + 4.0 * logs[1] - logs[2]) / (2.0 * h)

        expected = (4.0 * one_sided_difference_of_solves(step / 2.0)
                    - one_sided_difference_of_solves(step)) / 3.0
        value = sensitivity(config, config.detector, config.tdc, name)
        assert value == pytest.approx(expected, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("variant", [*VARIANTS, "apd_at_bounds"])
    def test_all_names_share_one_solve(self, monkeypatch, variant):
        # the first name solves the range and reads the detector's partials
        # at its powers; after the solve no name evaluates an SNR, reads the
        # link or copies a scenario object, at a closed bound as inside
        bounds = (("gain", "laser_efficiency") if variant == "apd_at_bounds"
                  else ())
        config, det = closed_form_variant(variant.removesuffix("_at_bounds"))
        for name in bounds:
            config = at_bound(config, name)
            det = config.detector
        names = sorted(SENSITIVITY_PARAMS)
        spies = {name: count_calls(monkeypatch, ranging, name)
                 for name in ("snr_at_range", "snr_from_powers", "link_powers",
                              "log_partials", "copy_with")}
        values = [sensitivity(config, det, config.tdc, name)
                  for name in names]
        # the solve's 2 SNR evaluations and 4 link reads
        assert {name: len(calls) for name, calls in spies.items()} == {
            "snr_at_range": 2, "snr_from_powers": 2, "link_powers": 4,
            "log_partials": 1, "copy_with": 0}
        # a fresh copy of the scenario per name defeats the reuse
        assert values == [sensitivity(replace(config), det, config.tdc, name)
                          for name in names]

    @settings(max_examples=40, deadline=None)
    @given(closed_form_scenarios(),
           st.sets(st.sampled_from(("one_way_transmittance", "reflectivity",
                                    "laser_efficiency", "sun_efficiency",
                                    "gain", "quantum_efficiency", "pde",
                                    "n_pixels")), max_size=3))
    def test_matches_the_decimal_oracle_on_drawn_scenarios(self, config,
                                                           bounds):
        # drawn names sit at a closed bound; every name meets the oracle,
        # or fails as its solve does (type and message)
        params = config.detector.params.__dataclass_fields__
        for name in sorted(bounds):
            if name in params or name not in ("gain", "quantum_efficiency",
                                              "pde", "n_pixels"):
                config = at_bound(config, name)
        base = (config, config.detector, config.tdc)
        try:
            max_range(*base)
        except (ConfigError, SolverError) as exc:
            for name in sorted(SENSITIVITY_PARAMS):
                with pytest.raises(type(exc)) as info:
                    sensitivity(*base, name)
                assert str(info.value) == str(exc)
            return
        assert_every_name_meets_the_oracle(base)

    def test_unmoved_parameter_is_positive_zero(self, apd_config):
        # -0.0 would print as "-0.0" in `sensitivity --param all`
        for name in ("pde", "incidence_angle_rad"):
            value = sensitivity(apd_config, apd_config.detector,
                                apd_config.tdc, name)
            assert math.copysign(1.0, value) == 1.0 and value == 0.0

    def test_undefined_elasticity_is_a_config_error(self, monkeypatch):
        real = ranging.log_partials

        def infinite_echo_partial(*args):
            _, d_s, own = real(*args)
            return math.inf, d_s, own

        def flat_in_range(*args):
            return 0.0, 0.0, {}

        # fresh objects per fake: the same ones would reuse the first
        # fake's solve and partials
        for fake in (infinite_echo_partial, flat_in_range):
            monkeypatch.setattr(ranging, "log_partials", fake)
            config = table1_preset("apd")
            with pytest.raises(ConfigError, match="peak_power_w is undefined"):
                sensitivity(config, config.detector, config.tdc,
                            "peak_power_w")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_undeclared_name_is_positive_zero_unevaluated(self, monkeypatch,
                                                          variant):
        config, det = closed_form_variant(variant)
        base = (config, det, config.tdc)
        undeclared = [name for name in sorted(SENSITIVITY_PARAMS)
                      if not declares(*base, name)]
        assert len(undeclared) == (4 if variant == "apd" else 8)
        calls = count_calls(monkeypatch, ranging, "snr_from_powers")
        partials = count_calls(monkeypatch, ranging, "log_partials")
        for name in undeclared:
            value = sensitivity(*base, name)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        # the solve's two evaluations and one read of the partials
        assert len(calls) == 2 and len(partials) == 1

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
        # it states no log-partials, and a difference of its ranges is
        # noise: seeds 11 and 3 once gave 8.56 and -29.6 for reflectivity
        # at a step of 1e-3
        det = monte_carlo(sipm_config, 11)
        with pytest.raises(ConfigError, match="closed-form SNR model; the "
                           "Monte Carlo states no log-partials"):
            sensitivity(sipm_config, det, sipm_config.tdc, "reflectivity")

    def test_unknown_parameter(self, apd_config):
        with pytest.raises(ConfigError, match="unknown parameter"):
            sensitivity(apd_config, apd_config.detector, apd_config.tdc,
                        "warp_factor")

    def test_rel_step_is_ignored(self, apd_config):
        # accepted until its callers stop passing it; nothing is stepped
        base = (apd_config, apd_config.detector, apd_config.tdc)
        value = sensitivity(*base, "gain")
        for rel_step in (0.5, 1e-3, 1e-9, -1.0):
            assert sensitivity(*base, "gain", rel_step=rel_step) == value

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

    @pytest.mark.parametrize("name", ranging._FIELD_PARAMS)
    def test_field_edit_scales_every_declaring_object(self, name):
        # the field times exactly 1.01 in every link section, the scenario,
        # the detector's parameters and the policy where it is declared,
        # all their other fields kept; every other object, the scenario's
        # solar, tdc and detector copies included, is handed back itself
        sections = ("scene", "atmosphere", "optics", "target", "laser")
        declared = 0
        for detector in ("apd", "sipm"):
            config = table1_preset(detector)
            sc, det, pol = SENSITIVITY_PARAMS[name](
                config, config.detector, config.tdc, 1.01)
            for kept in ("solar", "tdc", "detector"):
                assert getattr(sc, kept) is getattr(config, kept)
            pairs = [(getattr(config, s), getattr(sc, s)) for s in sections]
            pairs += [(config, sc), (config.detector.params, det.params),
                      (config.tdc, pol)]
            for old, new in pairs:
                if name not in old.__dataclass_fields__:
                    if old is not config:
                        assert new is old, (detector, type(old).__name__)
                    continue
                declared += 1
                assert getattr(new, name) == getattr(old, name) * 1.01
                restored = replace(new, **{name: getattr(old, name)})
                assert restored == old, (detector, type(old).__name__)
            # a container is rebuilt only around an edited object
            assert (sc is config) == (
                name not in ScenarioConfig.__dataclass_fields__
                and all(new is old for old, new in pairs[:len(sections)]))
            assert (det is config.detector) \
                == (det.params is config.detector.params)
        assert declared > 0

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
        assert value == pytest.approx(0.17026310207596043, rel=1e-9)

    def test_extinction_scales_coefficient(self, apd_config):
        config = replace(apd_config, atmosphere=AtmosphereModel(
            mode="extinction", one_way_transmittance=0.9,
            extinction_coeff_per_m=1e-4))
        edit = SENSITIVITY_PARAMS["one_way_transmittance"]
        sc, _, _ = edit(config, config.detector, config.tdc, 2.0)
        assert sc.atmosphere.extinction_coeff_per_m == 2e-4
        assert sc.atmosphere.one_way_transmittance == 0.9
        base = (config, config.detector, config.tdc)
        # a Richardson difference of solves at steps 2e-6 and 1e-6
        expected = elasticity_of_solves(base, "one_way_transmittance", 1e-6)
        assert expected == pytest.approx(-0.02555122017670423, rel=1e-9)
        value = sensitivity(*base, "one_way_transmittance")
        assert value == pytest.approx(expected, rel=1e-8)

    def test_sun_irradiance_scales_in_band_irradiance_of_any_mode(
            self, apd_config):
        rows = ((890.0, 1.0, 0.9), (905.0, 1.1, 1.0), (920.0, 0.9, 0.8))
        spectrum = SolarModel(mode="spectrum_integral", spectrum_table=rows)
        direct = SolarModel(
            in_band_irradiance_w_m2=sun_equivalent_irradiance(spectrum))
        values = [sensitivity(config, config.detector, config.tdc,
                              "sun_irradiance")
                  for config in (replace(apd_config, solar=spectrum),
                                 replace(apd_config, solar=direct))]
        assert values[0] == values[1]
        assert values[0] == pytest.approx(-0.24381584831341566, rel=1e-9)
