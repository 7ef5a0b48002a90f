import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from dtofsim import ConfigError
from dtofsim.apd import (ApdParams, excess_noise_factor, noise_sigma,
                         optimize_gain, responsivity, trigger_snr)
from dtofsim.physconst import BOLTZMANN, ELEMENTARY_CHARGE

from oracles import grid_argmax, signal_current

# reference operating point: (power, background) at 100 m and the system
# bandwidth, frozen from 50-digit link-equation evaluations
P_R_REF = 1.946430675e-07
P_RS_REF = 2.5099212581122908e-08
BW_REF = 167e6

TABLE1_APD = ApdParams(gain=80.0, quantum_efficiency=0.7, wavelength_m=905e-9,
                       excess_noise_index=0.3, surface_dark_current_a=1e-10,
                       bulk_dark_current_a=1e-10, load_resistance_ohm=1e4,
                       temperature_k=300.0)


@st.composite
def operating_points(draw):
    """(params, background power, bandwidth) in either excess-noise mode."""
    if draw(st.booleans()):
        mode = {"excess_noise_index": draw(st.floats(0.0, 1.0))}
    else:
        mode = {"excess_noise_mode": "ionization",
                "electron_ionization_rate": draw(st.floats(0.0, 1.0))}
    params = replace(
        TABLE1_APD, gain=draw(st.floats(1.0, 1000.0)),
        quantum_efficiency=draw(st.floats(0.01, 1.0)),
        wavelength_m=draw(st.floats(400e-9, 1700e-9)),
        surface_dark_current_a=draw(st.floats(0.0, 1e-8)),
        bulk_dark_current_a=draw(st.floats(0.0, 1e-8)),
        load_resistance_ohm=draw(st.floats(1e2, 1e6)),
        temperature_k=draw(st.floats(1.0, 400.0)),
        amplifier_noise_a=draw(st.floats(0.0, 1e-7)), **mode)
    return params, draw(st.floats(0.0, 1e-5)), draw(st.floats(1e6, 1e9))


class TestResponsivity:
    def test_reference_wavelength(self):
        assert responsivity(905e-9, 0.7) == pytest.approx(0.5109522084310726,
                                                          rel=1e-12)

    def test_zero_efficiency(self):
        assert responsivity(905e-9, 0.0) == 0.0

    @pytest.mark.parametrize("efficiency", [-0.1, 1.1, math.nan])
    def test_efficiency_outside_unit_interval_rejected(self, efficiency):
        with pytest.raises(ConfigError, match="quantum_efficiency"):
            responsivity(905e-9, efficiency)

    def test_linear_in_wavelength(self):
        assert responsivity(452.5e-9, 0.7) == pytest.approx(
            responsivity(905e-9, 0.7) / 2.0, rel=1e-12)


class TestSignalCurrent:
    def test_dark(self):
        assert signal_current(TABLE1_APD, 0.0) == 0.0

    def test_reference_value(self):
        assert signal_current(TABLE1_APD, P_R_REF) == pytest.approx(
            7.956264415593866e-06, rel=1e-12)

    def test_unity_gain(self):
        params = replace(TABLE1_APD, gain=1.0)
        assert signal_current(params, P_R_REF) == pytest.approx(
            responsivity(905e-9, 0.7) * P_R_REF, rel=1e-12)


class TestExcessNoiseFactor:
    def test_power_law_reference(self):
        assert excess_noise_factor(TABLE1_APD) == pytest.approx(
            3.723291133272139, rel=1e-12)

    def test_ionization_worst_case(self):
        params = replace(TABLE1_APD, excess_noise_mode="ionization",
                         electron_ionization_rate=1.0)
        assert excess_noise_factor(params) == pytest.approx(80.0, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_unity_gain_is_noiseless(self, k_e):
        params = replace(TABLE1_APD, gain=1.0, excess_noise_mode="ionization",
                         electron_ionization_rate=k_e)
        assert excess_noise_factor(params) == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=1.0, max_value=1000.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_at_least_one(self, gain, k_e):
        params = replace(TABLE1_APD, gain=gain, excess_noise_mode="ionization",
                         electron_ionization_rate=k_e)
        assert excess_noise_factor(params) >= 1.0 - 1e-12


class TestNoiseSigma:
    def test_all_sources_off(self):
        params = ApdParams(gain=80.0, quantum_efficiency=0.7,
                           wavelength_m=905e-9, surface_dark_current_a=0.0,
                           bulk_dark_current_a=0.0, load_resistance_ohm=1e30,
                           temperature_k=1e-6)
        budget = noise_sigma(params, 0.0, 0.0, BW_REF)
        assert budget.total_a == pytest.approx(0.0, abs=1e-25)

    def test_reference_budget(self):
        # per-term 50-digit evaluation of the no-echo noise
        budget = noise_sigma(TABLE1_APD, P_RS_REF, 0.0, BW_REF)
        assert budget.sigma_signal_a == 0.0
        assert budget.sigma_background_a == pytest.approx(
            1.278798458414248e-07, rel=1e-12)
        assert budget.sigma_dark_a == pytest.approx(
            1.1292524145301677e-08, rel=1e-12)
        assert budget.sigma_thermal_a == pytest.approx(
            1.663376264108635e-08, rel=1e-12)
        assert budget.sigma_amplifier_a == 0.0
        assert budget.total_a == pytest.approx(1.2945060113262815e-07,
                                               rel=1e-12)

    def test_thermal_term_alone(self):
        sigma_t = noise_sigma(TABLE1_APD, 0.0, 0.0, BW_REF).sigma_thermal_a
        assert sigma_t == pytest.approx(
            math.sqrt(4 * BOLTZMANN * 300.0 * BW_REF / 1e4), rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1e-5),
           st.floats(min_value=0.0, max_value=1e-5))
    def test_quadrature_identity(self, p_rs, p_r):
        budget = noise_sigma(TABLE1_APD, p_rs, p_r, BW_REF)
        total_sq = (budget.sigma_signal_a ** 2 + budget.sigma_background_a ** 2
                    + budget.sigma_dark_a ** 2 + budget.sigma_thermal_a ** 2
                    + budget.sigma_amplifier_a ** 2)
        assert budget.total_a ** 2 == pytest.approx(total_sq, rel=1e-12)


class TestTriggerSnr:
    def test_no_echo(self):
        assert trigger_snr(TABLE1_APD, 0.0, P_RS_REF, BW_REF) == 0.0

    def test_linear_in_echo_power(self):
        base = trigger_snr(TABLE1_APD, P_R_REF, P_RS_REF, BW_REF)
        assert trigger_snr(TABLE1_APD, 3.0 * P_R_REF, P_RS_REF, BW_REF) == \
            pytest.approx(3.0 * base, rel=1e-12)

    def test_reference_scenario(self):
        # end-to-end frozen value for the reference scenario at 100 m
        assert trigger_snr(TABLE1_APD, P_R_REF, P_RS_REF, BW_REF) == \
            pytest.approx(61.461780370122064, rel=1e-11)

    def test_monotone_in_background_and_amplifier_noise(self):
        snrs = [trigger_snr(TABLE1_APD, P_R_REF, p_rs, BW_REF)
                for p_rs in np.linspace(0.0, 1e-6, 15)]
        assert all(b < a for a, b in zip(snrs, snrs[1:]))
        snrs = [trigger_snr(replace(TABLE1_APD, amplifier_noise_a=s),
                            P_R_REF, P_RS_REF, BW_REF)
                for s in np.linspace(0.0, 1e-6, 15)]
        assert all(b < a for a, b in zip(snrs, snrs[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1.0, max_value=500.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1e-12, max_value=1e-6),
           st.floats(min_value=1e-11, max_value=1e-9),
           st.floats(min_value=1e-11, max_value=1e-9))
    def test_reduced_constant_form(self, gain, x, p_rs, i_ds, i_db):
        # SNR must factor as K*M*P_r / sqrt(a*K*P_rs*M^(2+x) + b*M^(2+x) + c)
        params = replace(TABLE1_APD, gain=gain, excess_noise_index=x,
                         surface_dark_current_a=i_ds, bulk_dark_current_a=i_db)
        k_pd = responsivity(905e-9, 0.7)
        a = 2.0 * ELEMENTARY_CHARGE * BW_REF
        b = 2.0 * ELEMENTARY_CHARGE * i_db * BW_REF
        c = (2.0 * ELEMENTARY_CHARGE * i_ds * BW_REF
             + 4.0 * BOLTZMANN * 300.0 * BW_REF / 1e4)
        expected = (k_pd * gain * P_R_REF
                    / math.sqrt(a * k_pd * p_rs * gain ** (2.0 + x)
                                + b * gain ** (2.0 + x) + c))
        got = trigger_snr(params, P_R_REF, p_rs, BW_REF)
        assert got == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_current_over_noise_budget_bit_for_bit(self, data):
        # trigger_snr sums the noise budget's variances itself; the gain,
        # excess-noise index and bandwidth reach values where M**2 * F(M)
        # or the whole budget overflows
        if data.draw(st.booleans()):
            mode = {"excess_noise_index": data.draw(st.floats(0.0, 1000.0))}
        else:
            mode = {"excess_noise_mode": "ionization",
                    "electron_ionization_rate": data.draw(st.floats(0.0, 1.0))}
        params = replace(
            TABLE1_APD, gain=data.draw(st.floats(1.0, 1e300)),
            amplifier_noise_a=data.draw(st.floats(0.0, 1e-7)), **mode)
        p_r = data.draw(st.floats(0.0, 1e300))
        p_rs = data.draw(st.floats(0.0, 1e300))
        bw = data.draw(st.floats(1e-3, 1e305))
        try:
            expected = (signal_current(params, p_r)
                        / noise_sigma(params, p_rs, 0.0, bw).total_a)
        except OverflowError as exc:  # gain**x beyond the float range
            with pytest.raises(OverflowError, match=str(exc)):
                trigger_snr(params, p_r, p_rs, bw)
            return
        got = trigger_snr(params, p_r, p_rs, bw)
        if signal_current(params, p_r) == 0.0:
            assert got.hex() == "0x0.0p+0"
        elif math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got.hex() == expected.hex()

    @pytest.mark.parametrize("p_r,p_rs,bw,message", [
        (-1.0, -1.0, 0.0, "optical powers must be >= 0"),
        (P_R_REF, -1.0, BW_REF, "optical powers must be >= 0"),
        (-1.0, P_RS_REF, 0.0, "bandwidth_hz must be > 0"),
        (P_R_REF, P_RS_REF, -BW_REF, "bandwidth_hz must be > 0"),
        (-1.0, P_RS_REF, BW_REF, "p_r must be >= 0")],
        ids=["background_first", "negative_background", "bandwidth_second",
             "negative_bandwidth", "negative_echo"])
    def test_invalid_inputs_rejected_in_order(self, p_r, p_rs, bw, message):
        # the background power is checked first, then the bandwidth, then
        # the echo power
        with pytest.raises(ConfigError, match=f"^{message}$"):
            trigger_snr(TABLE1_APD, p_r, p_rs, bw)


class TestOptimizeGain:
    def test_pure_optical_noise_prefers_lower_bound(self):
        # SNR ~ M^(-x/2) when only multiplied optical noise remains
        params = ApdParams(gain=80.0, quantum_efficiency=0.7,
                           wavelength_m=905e-9, surface_dark_current_a=0.0,
                           bulk_dark_current_a=0.0, load_resistance_ohm=1e30,
                           temperature_k=1e-9)
        gain_star, _ = optimize_gain(params, P_RS_REF, BW_REF, (2.0, 500.0))
        assert gain_star == 2.0

    @pytest.mark.parametrize("params,p_rs", [
        (replace(TABLE1_APD, excess_noise_index=0.0), P_RS_REF),
        (replace(TABLE1_APD, bulk_dark_current_a=0.0), 0.0),
        (replace(TABLE1_APD, bulk_dark_current_a=0.0,
                 excess_noise_mode="ionization",
                 electron_ionization_rate=0.5), 0.0)],
        ids=["no_excess_noise", "no_multiplied_noise",
             "no_multiplied_noise_ionization"])
    def test_rising_snr_takes_the_upper_bound(self, params, p_rs):
        # without excess noise, or without multiplied noise, the SNR only
        # rises with the gain
        gain_star, _ = optimize_gain(params, p_rs, BW_REF, (1.0, 1000.0))
        assert gain_star == 1000.0

    @settings(max_examples=100, deadline=None)
    @given(operating_points())
    def test_no_echo_variance_is_a_m2f_plus_c(self, point):
        # the closed-form optimum holds for this shape only; a noise term
        # that breaks it must fail here, not move the optimum
        params, p_rs, bw = point
        two_e_bw = 2.0 * ELEMENTARY_CHARGE * bw
        a = two_e_bw * (responsivity(params.wavelength_m,
                                     params.quantum_efficiency) * p_rs
                        + params.bulk_dark_current_a)
        c = (two_e_bw * params.surface_dark_current_a
             + 4.0 * BOLTZMANN * params.temperature_k * bw
             / params.load_resistance_ohm + params.amplifier_noise_a ** 2)
        m2f = params.gain ** 2 * excess_noise_factor(params)
        total = noise_sigma(params, p_rs, 0.0, bw).total_a
        assert total ** 2 == pytest.approx(a * m2f + c, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(operating_points(), st.floats(1.0, 100.0),
           st.floats(1.01, 1000.0))
    def test_at_least_the_bounded_search(self, point, lo, span):
        params, p_rs, bw = point
        hi = lo * span

        def snr(gain):
            return trigger_snr(replace(params, gain=gain), P_R_REF, p_rs, bw)

        gain_star, snr_star = optimize_gain(params, p_rs, bw, (lo, hi),
                                            p_r=P_R_REF)
        assert lo <= gain_star <= hi and snr_star == snr(gain_star)
        found = optimize.minimize_scalar(lambda g: -snr(g), bounds=(lo, hi),
                                         method="bounded")
        assert snr_star >= (1.0 - 1e-12) * snr(float(found.x))

    def test_matches_grid_search_with_unmultiplied_noise_only(self):
        params = replace(TABLE1_APD, bulk_dark_current_a=0.0)
        gain_star, _ = optimize_gain(params, P_RS_REF, BW_REF, (1.0, 500.0),
                                     p_r=P_R_REF)
        grid_star, _ = grid_argmax(
            lambda g: trigger_snr(replace(params, gain=g), P_R_REF,
                                  P_RS_REF, BW_REF), 1.0, 500.0, 0.01)
        assert abs(gain_star - grid_star) < 0.1

    def test_reference_interior_optimum(self):
        gain_star, snr_star = optimize_gain(TABLE1_APD, P_RS_REF, BW_REF,
                                            (1.0, 1000.0), p_r=P_R_REF)
        # closed-form stationary point of the power-law SNR, frozen
        assert gain_star == pytest.approx(30.872884934785773, rel=1e-12)
        grid_star, _ = grid_argmax(
            lambda g: trigger_snr(replace(TABLE1_APD, gain=g), P_R_REF,
                                  P_RS_REF, BW_REF), 1.0, 1000.0, 0.01)
        assert abs(gain_star - grid_star) < 0.1
        assert snr_star > trigger_snr(TABLE1_APD, P_R_REF, P_RS_REF, BW_REF)

    def test_interior_stationarity(self):
        gain_star, snr_star = optimize_gain(TABLE1_APD, P_RS_REF, BW_REF,
                                            (1.0, 1000.0), p_r=P_R_REF)
        h = gain_star * 1e-4
        up = trigger_snr(replace(TABLE1_APD, gain=gain_star + h), P_R_REF,
                         P_RS_REF, BW_REF)
        down = trigger_snr(replace(TABLE1_APD, gain=gain_star - h), P_R_REF,
                           P_RS_REF, BW_REF)
        derivative = (up - down) / (2 * h)
        assert abs(derivative) < 1e-6 * snr_star

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20, deadline=None)
    def test_argmax_invariant_under_echo_scaling(self, scale):
        ref, _ = optimize_gain(TABLE1_APD, P_RS_REF, BW_REF, (1.0, 1000.0),
                               p_r=P_R_REF)
        scaled, _ = optimize_gain(TABLE1_APD, P_RS_REF, BW_REF, (1.0, 1000.0),
                                  p_r=P_R_REF * scale)
        assert scaled == pytest.approx(ref, rel=1e-9)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigError):
            optimize_gain(TABLE1_APD, P_RS_REF, BW_REF, (100.0, 10.0))

    @pytest.mark.parametrize("mode", [
        {}, {"excess_noise_mode": "ionization",
             "electron_ionization_rate": 0.5}], ids=["power_law", "ionization"])
    @pytest.mark.parametrize("p_rs,bw,message", [
        (-1e-9, BW_REF, "optical powers must be >= 0"),
        (P_RS_REF, 0.0, "bandwidth_hz must be > 0"),
        (P_RS_REF, -BW_REF, "bandwidth_hz must be > 0")],
        ids=["negative_background", "zero_bandwidth", "negative_bandwidth"])
    def test_invalid_noise_inputs_rejected(self, mode, p_rs, bw, message):
        with pytest.raises(ConfigError, match=message):
            optimize_gain(replace(TABLE1_APD, **mode), p_rs, bw)


class TestParamValidation:
    def test_ionization_rate_required(self):
        with pytest.raises(ConfigError, match="ionization"):
            ApdParams(gain=80.0, quantum_efficiency=0.7, wavelength_m=905e-9,
                      excess_noise_mode="ionization")
