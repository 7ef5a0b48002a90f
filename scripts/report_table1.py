#!/usr/bin/env python3
"""Print the headline numbers of the reference scenario for both detectors."""

from __future__ import annotations

import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from dtofsim import table1_preset  # noqa: E402
from dtofsim.apd import optimize_gain  # noqa: E402
from dtofsim.detectors import SipmChoice  # noqa: E402
from dtofsim.ranging import link_powers, max_range, snr_at_range  # noqa: E402


def photon_limited(det):
    """The detector with only photon noise: the approx SiPM SNR, or an APD
    without dark currents or amplifier noise and with thermal noise gone."""
    if isinstance(det, SipmChoice):
        return replace(det, snr_mode="approx")
    return replace(det, params=replace(
        det.params, surface_dark_current_a=0.0, bulk_dark_current_a=0.0,
        amplifier_noise_a=0.0, load_resistance_ohm=1e300))


def main() -> None:
    apd = table1_preset("apd")
    sipm = table1_preset("sipm")
    p_r, p_rs = link_powers(apd, 100.0)
    print(f"echo power at 100 m:        {p_r:.4e} W")
    print(f"solar background power:     {p_rs:.4e} W")
    print()
    for config in (apd, sipm):
        det = config.detector
        snr = snr_at_range(config, det, 100.0)
        result = max_range(config, det, config.tdc)
        limited = replace(config, detector=photon_limited(det))
        closed = max_range(limited, limited.detector, limited.tdc).r_max_m
        print(f"[{det.label}]")
        print(f"  trigger SNR at 100 m:     {snr:8.3f}")
        print(f"  max range (pipeline):     {result.r_max_m:8.2f} m")
        print(f"  max range (closed form):  {closed:8.2f} m  (photon limited)")
        print(f"  weakest detectable power: {result.min_detectable_power_w:.4e} W")
    print()
    gain_star, snr_star = optimize_gain(apd.detector.params, p_rs,
                                        apd.bandwidth_hz, (1.0, 1000.0),
                                        p_r=p_r)
    stock = snr_at_range(apd, apd.detector, 100.0)
    print(f"APD gain optimum: gain {gain_star:.2f} raises the 100 m trigger "
          f"SNR from {stock:.1f} to {snr_star:.1f}")
    night = replace(apd, solar=replace(apd.solar, illuminance_klux=1.0))
    night_sipm = replace(sipm, solar=replace(sipm.solar, illuminance_klux=1.0))
    print(f"at 1 klux the ranking flips: APD "
          f"{max_range(night, night.detector, night.tdc).r_max_m:.0f} m vs "
          f"SiPM {max_range(night_sipm, night_sipm.detector, night_sipm.tdc).r_max_m:.0f} m")


if __name__ == "__main__":
    main()
