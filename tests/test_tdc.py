import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtofsim import ConfigError, TdcPolicy, correct_detection_prob, \
    false_alarm_prob, min_detectable_signal

from oracles import gaussian_tail_quad, tdc_trigger_mc

POLICY_REF = TdcPolicy(tnr=5.0)
M_REF = 400  # comparisons in a 4 us window at 100 MHz


class TestFalseAlarmProb:
    def test_threshold_at_mean(self):
        assert false_alarm_prob(0.0) == 0.5

    def test_reference_threshold_tail(self):
        p = false_alarm_prob(5.0)
        assert p < 3e-7
        assert p == pytest.approx(2.866515718791939e-07, rel=1e-12)

    def test_against_quadrature(self):
        for tnr in (0.5, 1.0, 2.0, 3.0, 5.0):
            assert false_alarm_prob(tnr) == pytest.approx(
                gaussian_tail_quad(tnr), rel=1e-9)
        assert false_alarm_prob(1.0) == pytest.approx(0.15865525393145705,
                                                      rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=8.0),
           st.floats(min_value=1e-3, max_value=1.0))
    def test_strictly_decreasing(self, tnr, step):
        assert false_alarm_prob(tnr + step) < false_alarm_prob(tnr)

    @given(st.floats(min_value=0.0, max_value=8.0))
    def test_erf_complement_identity(self, tnr):
        direct = 0.5 - 0.5 * math.erf(tnr / math.sqrt(2.0))
        assert false_alarm_prob(tnr) == pytest.approx(direct, abs=1e-12)


class TestCorrectDetectionProb:
    def test_reference_policy(self):
        assert correct_detection_prob(POLICY_REF, M_REF, 0.5) == \
            pytest.approx(0.99977, abs=1e-5)

    def test_no_false_alarms_always_triggers(self):
        policy = TdcPolicy(tnr=40.0)
        assert false_alarm_prob(policy.tnr) == 0.0
        for p_d in (0.01, 0.5, 1.0):
            assert correct_detection_prob(policy, M_REF, p_d) == 1.0

    def test_single_comparison(self):
        assert correct_detection_prob(POLICY_REF, 1, 0.5) == 1.0
        assert correct_detection_prob(POLICY_REF, 1, 0.0) == 0.0

    def test_zero_comparisons_rejected(self):
        with pytest.raises(ConfigError, match="comparisons"):
            correct_detection_prob(POLICY_REF, 0, 0.5)

    @pytest.mark.parametrize("p_d", [-0.1, 1.1, math.nan])
    def test_detection_prob_outside_unit_interval_rejected(self, p_d):
        with pytest.raises(ConfigError, match="p_d"):
            correct_detection_prob(POLICY_REF, M_REF, p_d)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_detection_prob(self, a, b):
        lo, hi = sorted((a, b))
        assert correct_detection_prob(POLICY_REF, M_REF, lo) <= \
            correct_detection_prob(POLICY_REF, M_REF, hi) + 1e-15

    @given(st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.05, max_value=0.95))
    def test_monotone_in_comparisons(self, doublings, p_d):
        policy = TdcPolicy(tnr=3.0)
        assert correct_detection_prob(policy, 2 ** doublings, p_d) <= \
            correct_detection_prob(policy, 1, p_d) + 1e-15

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounds(self, p_d):
        p_f = false_alarm_prob(POLICY_REF.tnr)
        quiet = (1.0 - p_f) ** (M_REF - 1)
        value = correct_detection_prob(POLICY_REF, M_REF, p_d)
        assert quiet * p_d - 1e-15 <= value <= 1.0

    def test_against_trigger_race_simulation(self):
        # repeated-window race with 1e6 trials; agreement within 3 SE
        # 100 comparisons: a 1 us window at 100 MHz
        p_f = false_alarm_prob(3.0)
        mc, se = tdc_trigger_mc(p_f, 100, 0.5, trials=1_000_000, seed=20240905)
        predicted = correct_detection_prob(TdcPolicy(tnr=3.0), 100, 0.5)
        assert abs(predicted - mc) < 3 * se


class TestMinDetectableSignal:
    def test_zero_noise(self):
        assert min_detectable_signal(POLICY_REF, 0.0) == 0.0

    def test_definitional_product(self):
        assert min_detectable_signal(POLICY_REF, 2e-9) == pytest.approx(1e-8)

    def test_reference_noise_level(self):
        # no-echo noise of the reference APD scenario (frozen elsewhere)
        sigma = 1.2945060113262815e-07
        assert min_detectable_signal(POLICY_REF, sigma) == pytest.approx(
            5 * sigma, rel=1e-15)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError, match="noise_sigma"):
            min_detectable_signal(POLICY_REF, -1e-9)


class TestPolicyValidation:
    def test_negative_tnr_rejected(self):
        with pytest.raises(ConfigError):
            false_alarm_prob(-1.0)
