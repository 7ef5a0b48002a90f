"""Monotonicities the model guarantees, over drawn table1 scenarios.

The draws vary what ``perfbench/harness.py``'s ``scenario_dicts`` varies
(reflectivity, illuminance, elevation and sun angle, fixed transmittance
against extinction, constant against cosine aperture, power-law against
ionization excess noise) and run every closed-form detector model: the
APD and the analytic and approx SiPM.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtofsim import NoDetectionError, UnboundedRangeError
from dtofsim.detectors import ApdChoice
from dtofsim.ranging import link_powers, max_range, sensitivity, snr_at_range
from dtofsim.scenario import config_from_dict, scenario_to_dict, table1_preset

APD = scenario_to_dict(table1_preset("apd"))
SIPM_DETECTOR = scenario_to_dict(table1_preset("sipm"))["detector"]

# each solve's root lies within about 1e-12 of the true one in ln(range),
# so two roots may invert their order by up to twice that
TWO_SOLVES_REL_TOL = 2e-12


@st.composite
def scenario_dicts(draw, extinction=st.booleans()):
    """A table1 scenario file; ``extinction`` draws the atmosphere's mode."""
    data = {key: dict(value) if isinstance(value, dict) else value
            for key, value in APD.items()}
    data["target"]["reflectivity_pct"] = draw(st.floats(5.0, 80.0))
    data["solar"]["illuminance_klux"] = 10.0 ** draw(st.floats(0.0, 2.0))
    data["scene"]["elevation_angle_deg"] = draw(st.floats(-30.0, 30.0))
    data["scene"]["sun_angle_deg"] = draw(st.floats(0.0, 80.0))
    if draw(extinction):
        data["atmosphere"] = {"mode": "extinction", "extinction_coeff_per_m":
                              10.0 ** draw(st.floats(-4.0, -3.0))}
    else:
        data["atmosphere"] = {"mode": "fixed_transmittance",
                              "one_way_transmittance_pct":
                                  draw(st.floats(90.0, 99.5))}
    data["optics"]["aperture_model"] = draw(st.sampled_from(("constant",
                                                             "cosine")))
    kind = draw(st.sampled_from(("apd", "analytic", "approx")))
    if kind != "apd":
        data["detector"] = dict(SIPM_DETECTOR, snr_mode=kind)
    elif draw(st.booleans()):
        data["detector"]["excess_noise_index"] = draw(st.floats(0.2, 0.45))
    else:
        data["detector"].update(excess_noise_mode="ionization",
                                electron_ionization_rate=draw(
                                    st.floats(0.01, 0.1)))
    return data


def r_max(data: dict) -> float:
    """The solved range, 0 where nothing is detected, inf if unbounded."""
    config = config_from_dict(data)
    try:
        return max_range(config, config.detector, config.tdc).r_max_m
    except NoDetectionError:
        return 0.0
    except UnboundedRangeError:
        return math.inf


@settings(max_examples=150, deadline=None)
@given(scenario_dicts(extinction=st.just(False)), st.floats(0.0, 4.0),
       st.floats(0.0, 2.0))
def test_snr_does_not_rise_with_range(data, log_r, log_factor):
    # at a fixed transmittance the background does not depend on range,
    # and the echo falls as 1 / r^2
    config = config_from_dict(data)
    near = 10.0 ** log_r
    far = near * 10.0 ** log_factor
    assert snr_at_range(config, config.detector, far) \
        <= snr_at_range(config, config.detector, near)


@settings(max_examples=150, deadline=None)
@given(scenario_dicts(extinction=st.just(False)))
def test_r_max_is_at_the_minimum_detectable_power(data):
    # at a fixed transmittance the echo falls as 1 / r^2 and the noise
    # stays, so the range is the link's 1 m echo over the weakest
    # detectable one, with no search
    assume(0.0 < r_max(data) < math.inf)
    config = config_from_dict(data)
    res = max_range(config, config.detector, config.tdc)
    p_r1, _ = link_powers(config, 1.0)
    assert res.r_max_m == pytest.approx(
        math.sqrt(p_r1 / res.min_detectable_power_w), rel=1e-14)
    assert abs(res.snr_at_rmax / config.tdc.tnr - 1.0) <= 1e-13
    assert res.evaluations == 2


@settings(max_examples=100, deadline=None)
@given(scenario_dicts(), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_r_max_does_not_rise_with_illuminance(data, log_a, log_b):
    # more sunlight adds background noise and nothing else
    dim = dict(data, solar=dict(data["solar"],
                                illuminance_klux=10.0 ** min(log_a, log_b)))
    bright = dict(data, solar=dict(data["solar"],
                                   illuminance_klux=10.0 ** max(log_a, log_b)))
    assert r_max(bright) <= r_max(dim) * (1.0 + TWO_SOLVES_REL_TOL)


# elasticities of r_max whose sign no regime changes, by detector; each
# may also be 0: at a parameter value of 0 (or one so small that its
# influence underflows), and for a parameter the SNR model does not read,
# such as the approx SiPM's n_pixels and dark_count_rate_cps
SAME_SIGN = {
    "common": ({"peak_power_w", "laser_efficiency", "focal_length_m",
                "sun_angle_rad"},
               {"sun_irradiance", "sun_efficiency", "detector_radius_m",
                "tnr"}),
    "apd": ({"aperture_radius_m", "wavelength_m", "quantum_efficiency",
             "reflectivity", "load_resistance_ohm"},
            {"surface_dark_current_a", "bulk_dark_current_a",
             "temperature_k", "bandwidth_hz"}),
    # n_pixels is not here: see the flip below
    "sipm": ({"pulse_fwhm_s"}, {"dark_count_rate_cps", "dead_time_s"}),
}


@settings(max_examples=200, deadline=None)
@given(scenario_dicts())
def test_elasticity_signs(data):
    assume(0.0 < r_max(data) < math.inf)  # else there is no root to move
    config = config_from_dict(data)
    kind = "apd" if isinstance(config.detector, ApdChoice) else "sipm"
    for names, sign in zip((*SAME_SIGN["common"], *SAME_SIGN[kind]),
                           (1, -1, 1, -1)):
        for name in sorted(names):
            value = sensitivity(config, config.detector, config.tdc, name)
            assert value * sign >= 0.0, name


def with_illuminance(config, klux: float):
    return replace(config, solar=replace(config.solar, illuminance_klux=klux))


@pytest.mark.parametrize("name,klux,expected", [
    # pile-up: near 300 klux a more sensitive array fires on sunlight
    # often enough to lose more echo than it gains
    ("pde", 250.0, 0.03131841289621938),
    ("pde", 300.0, -0.027434286521634994),
    # each pixel adds its dark counts, which outweigh the free pixels it
    # adds in dim light
    ("n_pixels", 0.3, -0.00030256509633296583),
    ("n_pixels", 1.0, 0.0036408811095766705),
])
def test_table1_sipm_sign_flips(name, klux, expected):
    config = with_illuminance(table1_preset("sipm"), klux)
    value = sensitivity(config, config.detector, config.tdc, name)
    assert value == pytest.approx(expected, rel=1e-9)
