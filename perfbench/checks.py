"""Output checks that hold for any seed and tolerate 1-ULP libm drift.

Analytic results are compared with the committed goldens and with the
solver's own invariants at ``REL_TOL``, never byte for byte: the goldens
are already one unit in the last place off on some machines, and a byte
compare would report every run as failed.  Byte-exact goldens stay the
test suite's job.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

from dtofsim import ranging
from dtofsim.errors import NoDetectionError, UnboundedRangeError

REL_TOL = 1e-9
# SVG coordinates are printed with two decimals; a 1-ULP input change can
# move the last printed digit by one
SVG_ABS_TOL = 0.0101
# a Monte Carlo estimate must lie within this many standard errors of the
# analytic value in the dilute regime
MC_K_SE = 5.0

# documented solver outcomes: answers, not failures
ANSWERS = (NoDetectionError, UnboundedRangeError)

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def close(a: float, b: float, rel_tol: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-300) or a == b


def _cells_match(actual: str, expected: str) -> bool:
    try:
        return close(float(actual), float(expected))
    except ValueError:
        return actual == expected


def csv_mismatch(actual: list[str], expected: list[str]) -> str | None:
    """First difference between two CSV texts beyond ``REL_TOL``, if any."""
    if len(actual) != len(expected):
        return f"{len(actual)} lines, expected {len(expected)}"
    for i, (a, e) in enumerate(zip(actual, expected)):
        a_cells, e_cells = a.split(","), e.split(",")
        if len(a_cells) != len(e_cells) or not all(
                map(_cells_match, a_cells, e_cells)):
            return f"line {i + 1}: {a!r} != {e!r}"
    return None


def xml_problem(text: str) -> str | None:
    try:
        ET.fromstring(text)
    except ET.ParseError as exc:
        return f"SVG is not well-formed XML: {exc}"
    return None


def svg_mismatch(actual: str, expected: str) -> str | None:
    """First difference between two SVG texts beyond ``SVG_ABS_TOL``."""
    if _NUMBER.sub("#", actual) != _NUMBER.sub("#", expected):
        return "SVG structure differs"
    problem = xml_problem(actual)
    if problem:
        return problem
    for a, e in zip(_NUMBER.findall(actual), _NUMBER.findall(expected)):
        if abs(float(a) - float(e)) > SVG_ABS_TOL + REL_TOL * abs(float(e)):
            return f"SVG number {a} != {e}"
    return None


def range_invariant(scenario, detector, r_max: float) -> str | None:
    """The analytic solver's root: SNR at ``r_max`` within SNR_REL_TOL of tnr.

    Bisection may also stop on a bracket narrower than 1e-12 relative,
    where the SNR must straddle the threshold instead.
    """
    tnr = scenario.tdc.tnr
    if not 1.0 <= r_max < ranging.RANGE_CAP_M:
        return f"r_max {r_max!r} outside [1, {ranging.RANGE_CAP_M:g})"
    snr = ranging.snr_at_range(scenario, detector, r_max)
    if abs(snr - tnr) <= ranging.SNR_REL_TOL * tnr:
        return None
    lo = ranging.snr_at_range(scenario, detector, r_max * (1 - 1e-9))
    hi = ranging.snr_at_range(scenario, detector, r_max * (1 + 1e-9))
    if lo >= tnr >= hi:
        return None
    return f"SNR {snr!r} at r_max {r_max!r} is not at the threshold {tnr:g}"


def answer_consistent(scenario, detector, policy, exc: Exception) -> bool:
    """A documented solver outcome must agree with the SNR it reports on."""
    if isinstance(exc, NoDetectionError):
        return ranging.snr_at_range(scenario, detector, 1.0) < policy.tnr
    if isinstance(exc, UnboundedRangeError):
        return (ranging.snr_at_range(scenario, detector, ranging.RANGE_CAP_M)
                >= policy.tnr)
    return False


def sensitivity_answer_consistent(scenario, detector, name: str,
                                  rel_step: float, exc: Exception) -> bool:
    """Either perturbed scenario of a sensitivity may hit a documented outcome."""
    edit = ranging.SENSITIVITY_PARAMS[name]
    return any(answer_consistent(*edit(scenario, detector, scenario.tdc,
                                       math.exp(sign * rel_step)), exc)
               for sign in (1.0, -1.0))


def sweep_answer_consistent(scenario, detector, status: str) -> bool:
    exc = {"no_detection": NoDetectionError("x"),
           "unbounded": UnboundedRangeError("x")}.get(status)
    return exc is not None and answer_consistent(scenario, detector,
                                                 scenario.tdc, exc)


# elasticities that are exactly zero: parameters the model never reads and
# parameters of the other detector type
_ZERO_ALWAYS = ("repetition_hz", "window_s")
_APD_ONLY = ("gain", "quantum_efficiency", "excess_noise_index",
             "surface_dark_current_a", "bulk_dark_current_a",
             "load_resistance_ohm", "temperature_k", "amplifier_noise_a")
_SIPM_ONLY = ("n_pixels", "pde", "dead_time_s", "dark_count_rate_cps")


def elasticity_problem(name: str, value: float, is_apd: bool) -> str | None:
    """Sign and zero invariants of one range elasticity."""
    foreign = _SIPM_ONLY if is_apd else _APD_ONLY
    if not math.isfinite(value):
        return f"elasticity {name} = {value!r} is not finite"
    if (name in _ZERO_ALWAYS or name in foreign) and value != 0.0:
        return f"elasticity {name} = {value!r}, expected 0"
    if name == "peak_power_w" and not value > 0:
        return f"elasticity peak_power_w = {value!r}, expected > 0"
    if name == "tnr" and not value < 0:
        return f"elasticity tnr = {value!r}, expected < 0"
    return None
