"""Scenario files: schema, strict loader, serializer and reference preset.

Scenario files are JSON in the field units a lidar datasheet would use
(W, kHz, ns, %, klux, mm, nA, ohm, cps, m, degrees); everything converts
to SI on load.  Unknown keys are rejected so a typo cannot silently fall
back to a default.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

from .detectors import ApdChoice, DetectorChoice, SipmChoice
from .apd import ApdParams
from .errors import ConfigError
from .scene_link import (AtmosphereModel, LaserParams, ReceiverOptics,
                         SceneGeometry, SolarModel, TargetModel,
                         load_spectrum_csv)
from .sipm import SipmMcConfig, SipmParams
from .tdc import TdcPolicy

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete scene, optics, detector and trigger parameter set."""

    scene: SceneGeometry
    atmosphere: AtmosphereModel
    optics: ReceiverOptics
    target: TargetModel
    laser: LaserParams
    solar: SolarModel
    tdc: TdcPolicy
    detector: DetectorChoice
    bandwidth_hz: float

    def __post_init__(self) -> None:
        if not self.bandwidth_hz > 0:
            raise ConfigError("bandwidth_hz must be > 0")


class _Node:
    """Dict wrapper that tracks consumed keys and reports leftovers."""

    def __init__(self, data: Any, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object")
        self._data = dict(data)
        self._path = path

    def take(self, key: str, required: bool = True, default: Any = None) -> Any:
        if key not in self._data:
            if required:
                raise ConfigError(f"{self._path}: missing required key {key!r}")
            return default
        return self._data.pop(key)

    def number(self, key: str, required: bool = True,
               default: float | None = None) -> float | None:
        value = self.take(key, required, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{self._path}.{key}: expected a number")
        return float(value)

    def string(self, key: str, required: bool = True,
               default: str | None = None) -> str | None:
        value = self.take(key, required, default)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ConfigError(f"{self._path}.{key}: expected a string")
        return value

    def boolean(self, key: str, required: bool = True,
                default: bool | None = None) -> bool | None:
        value = self.take(key, required, default)
        if value is None:
            return None
        if not isinstance(value, bool):
            raise ConfigError(f"{self._path}.{key}: expected a boolean")
        return value

    def child(self, key: str, required: bool = True) -> "_Node | None":
        value = self.take(key, required)
        if value is None:
            return None
        return _Node(value, f"{self._path}.{key}")

    def finish(self) -> None:
        if self._data:
            extra = ", ".join(sorted(self._data))
            raise ConfigError(f"{self._path}: unknown key(s): {extra}")


def _wrap_config_error(section: str, fn: Callable[[], Any]) -> Any:
    try:
        return fn()
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _scene_from(node: _Node) -> SceneGeometry:
    scene = SceneGeometry(
        range_m=node.number("range_m", required=False, default=100.0),
        incidence_angle_rad=math.radians(
            node.number("incidence_angle_deg", required=False, default=0.0)),
        elevation_angle_rad=math.radians(
            node.number("elevation_angle_deg", required=False, default=0.0)),
        sun_angle_rad=math.radians(
            node.number("sun_angle_deg", required=False, default=0.0)),
    )
    node.finish()
    return scene


def _atmosphere_from(node: _Node) -> AtmosphereModel:
    mode = node.string("mode")
    if mode == "fixed_transmittance":
        atm = AtmosphereModel(
            mode=mode,
            one_way_transmittance=node.number("one_way_transmittance_pct") / 100.0)
    else:
        atm = AtmosphereModel(
            mode=mode,
            extinction_coeff_per_m=node.number("extinction_coeff_per_m"))
    node.finish()
    return atm


def _optics_from(node: _Node) -> ReceiverOptics:
    optics = ReceiverOptics(
        aperture_radius_m=node.number("aperture_radius_m"),
        focal_length_m=node.number("focal_length_m"),
        detector_radius_m=node.number("detector_radius_mm") / 1000.0,
        laser_efficiency=node.number("laser_efficiency_pct") / 100.0,
        sun_efficiency=node.number("sun_efficiency_pct") / 100.0,
        aperture_model=node.string("aperture_model", required=False,
                                   default="constant"),
    )
    node.finish()
    return optics


def _target_from(node: _Node) -> TargetModel:
    target = TargetModel(
        reflectivity=node.number("reflectivity_pct") / 100.0,
        extends_beyond_spot=node.boolean("extends_beyond_spot",
                                         required=False, default=True),
    )
    node.finish()
    return target


def _laser_from(node: _Node) -> LaserParams:
    laser = LaserParams(
        peak_power_w=node.number("peak_power_w"),
        wavelength_m=node.number("wavelength_nm") * 1e-9,
        pulse_fwhm_s=node.number("pulse_fwhm_ns") * 1e-9,
        repetition_hz=node.number("repetition_khz", required=False,
                                  default=0.0) * 1e3,
    )
    node.finish()
    return laser


def _solar_from(node: _Node, base_dir: str) -> SolarModel:
    mode = node.string("mode")
    if mode == "direct_irradiance":
        solar = SolarModel(
            mode=mode,
            in_band_irradiance_w_m2=node.number("in_band_irradiance_w_m2"))
    elif mode == "illuminance_scaled":
        solar = SolarModel(
            mode=mode,
            illuminance_klux=node.number("illuminance_klux"),
            reference_illuminance_klux=node.number("reference_illuminance_klux",
                                                   required=False, default=100.0),
            reference_irradiance_w_m2=node.number("reference_irradiance_w_m2",
                                                  required=False, default=29.4),
        )
    elif mode == "spectrum_integral":
        rows = node.take("spectrum", required=False)
        csv_path = node.string("spectrum_csv", required=False)
        if (rows is None) == (csv_path is None):
            raise ConfigError(
                "solar: spectrum_integral needs exactly one of "
                "'spectrum' or 'spectrum_csv'")
        if csv_path is not None:
            rows = load_spectrum_csv(os.path.join(base_dir, csv_path))
        else:
            try:
                rows = tuple((float(a), float(b), float(c)) for a, b, c in rows)
            except (TypeError, ValueError):
                raise ConfigError(
                    "solar.spectrum: expected rows of "
                    "[wavelength_nm, irradiance_w_m2_nm, transmittance]") from None
        solar = SolarModel(mode=mode, spectrum_table=rows)
    else:
        raise ConfigError(f"solar.mode: unknown mode {mode!r}")
    node.finish()
    return solar


def _tdc_from(node: _Node) -> TdcPolicy:
    policy = TdcPolicy(
        tnr=node.number("tnr"),
        window_s=node.number("window_us") * 1e-6,
        bandwidth_hz=node.number("bandwidth_mhz") * 1e6,
    )
    # legacy key: r_max is where SNR = tnr, i.e. detection probability 0.5
    if node.number("limit_detection_prob", required=False, default=0.5) != 0.5:
        raise ConfigError("limit_detection_prob: only 0.5 is supported; r_max "
                          "is the range of 50 % detection probability")
    node.finish()
    return policy


def _detector_from(node: _Node, laser: LaserParams) -> DetectorChoice:
    kind = node.string("type")
    if kind == "apd":
        mode = node.string("excess_noise_mode", required=False,
                           default="power_law")
        params = ApdParams(
            gain=node.number("gain"),
            quantum_efficiency=node.number("quantum_efficiency_pct") / 100.0,
            wavelength_m=laser.wavelength_m,
            excess_noise_index=node.number("excess_noise_index",
                                           required=False, default=0.3),
            electron_ionization_rate=node.number("electron_ionization_rate",
                                                 required=False),
            excess_noise_mode=mode,
            surface_dark_current_a=node.number("surface_dark_current_na",
                                               required=False, default=0.0) * 1e-9,
            bulk_dark_current_a=node.number("bulk_dark_current_na",
                                            required=False, default=0.0) * 1e-9,
            load_resistance_ohm=node.number("load_resistance_ohm"),
            temperature_k=node.number("temperature_k", required=False,
                                      default=300.0),
            amplifier_noise_a=node.number("amplifier_noise_na",
                                          required=False, default=0.0) * 1e-9,
        )
        node.finish()
        return ApdChoice(params=params)
    if kind == "sipm":
        params = SipmParams(
            n_pixels=node.number("n_pixels"),
            pde=node.number("pde_pct") / 100.0,
            dead_time_s=node.number("dead_time_ns") * 1e-9,
            dark_count_rate_cps=node.number("dark_count_rate_cps",
                                            required=False, default=0.0),
        )
        snr_mode = node.string("snr_mode", required=False, default="analytic")
        mc_node = node.child("mc", required=False)
        mc = None
        if mc_node is not None:
            mc = SipmMcConfig(
                n_trials=int(mc_node.number("n_trials", required=False,
                                            default=1000)),
                time_step_s=mc_node.number(
                    "time_step_ns", required=False,
                    default=params.dead_time_s * 1e9 / 60.0) * 1e-9,
                pulse_shape=mc_node.string("pulse_shape", required=False,
                                           default="rectangular"),
                seed=int(mc_node.number("seed", required=False, default=0)),
                warmup_s=mc_node.number(
                    "warmup_ns", required=False,
                    default=10.0 * params.dead_time_s * 1e9) * 1e-9,
                n_noise_periods=int(mc_node.number("n_noise_periods",
                                                   required=False, default=20)),
            )
            mc_node.finish()
        node.finish()
        return SipmChoice(params=params, snr_mode=snr_mode, mc=mc)
    raise ConfigError(f"detector.type: unknown type {kind!r}")


def config_from_dict(data: dict, base_dir: str = ".") -> ScenarioConfig:
    """Build a validated configuration from a raw scenario dictionary."""
    root = _Node(data, "scenario")
    version = root.number("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version:g}")
    scene = _wrap_config_error("scene", lambda: _scene_from(root.child("scene")))
    atmosphere = _wrap_config_error(
        "atmosphere", lambda: _atmosphere_from(root.child("atmosphere")))
    optics = _wrap_config_error("optics", lambda: _optics_from(root.child("optics")))
    target = _wrap_config_error("target", lambda: _target_from(root.child("target")))
    laser = _wrap_config_error("laser", lambda: _laser_from(root.child("laser")))
    solar = _wrap_config_error(
        "solar", lambda: _solar_from(root.child("solar"), base_dir))
    policy = _wrap_config_error("tdc", lambda: _tdc_from(root.child("tdc")))
    bandwidth = root.number("bandwidth_mhz") * 1e6
    detector = _wrap_config_error(
        "detector", lambda: _detector_from(root.child("detector"), laser))
    root.finish()
    return ScenarioConfig(scene=scene, atmosphere=atmosphere, optics=optics,
                          target=target, laser=laser, solar=solar, tdc=policy,
                          detector=detector, bandwidth_hz=bandwidth)


def load_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    try:
        return config_from_dict(data, base_dir=os.path.dirname(path) or ".")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _pretty_inverse(si_value: float, factor: float,
                    forward: Callable[[float], float] | None = None) -> float:
    """Invert ``si = file / factor`` and round for readability when the
    rounded file value converts back to exactly the same SI value."""
    raw = si_value * factor
    fwd = forward if forward is not None else (lambda v: v / factor)
    rounded = round(raw, 10)
    return rounded if fwd(rounded) == si_value else raw


def _deg_out(rad: float) -> float:
    raw = math.degrees(rad)
    rounded = round(raw, 10)
    return rounded if math.radians(rounded) == rad else raw


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Serialize a configuration back to the documented file schema."""
    scene = {
        "range_m": config.scene.range_m,
        "incidence_angle_deg": _deg_out(config.scene.incidence_angle_rad),
        "elevation_angle_deg": _deg_out(config.scene.elevation_angle_rad),
        "sun_angle_deg": _deg_out(config.scene.sun_angle_rad),
    }
    atm = config.atmosphere
    if atm.mode == "fixed_transmittance":
        atmosphere = {"mode": atm.mode,
                      "one_way_transmittance_pct":
                          _pretty_inverse(atm.one_way_transmittance, 100.0)}
    else:
        atmosphere = {"mode": atm.mode,
                      "extinction_coeff_per_m": atm.extinction_coeff_per_m}
    optics = {
        "aperture_radius_m": config.optics.aperture_radius_m,
        "focal_length_m": config.optics.focal_length_m,
        "detector_radius_mm": _pretty_inverse(config.optics.detector_radius_m,
                                              1000.0),
        "laser_efficiency_pct": _pretty_inverse(config.optics.laser_efficiency,
                                                100.0),
        "sun_efficiency_pct": _pretty_inverse(config.optics.sun_efficiency,
                                              100.0),
        "aperture_model": config.optics.aperture_model,
    }
    target = {
        "reflectivity_pct": _pretty_inverse(config.target.reflectivity, 100.0),
        "extends_beyond_spot": config.target.extends_beyond_spot,
    }
    laser = {
        "peak_power_w": config.laser.peak_power_w,
        "wavelength_nm": _pretty_inverse(config.laser.wavelength_m, 1e9,
                                         lambda v: v * 1e-9),
        "pulse_fwhm_ns": _pretty_inverse(config.laser.pulse_fwhm_s, 1e9,
                                         lambda v: v * 1e-9),
        "repetition_khz": _pretty_inverse(config.laser.repetition_hz, 1e-3,
                                          lambda v: v * 1e3),
    }
    sol = config.solar
    if sol.mode == "direct_irradiance":
        solar = {"mode": sol.mode,
                 "in_band_irradiance_w_m2": sol.in_band_irradiance_w_m2}
    elif sol.mode == "illuminance_scaled":
        solar = {"mode": sol.mode,
                 "illuminance_klux": sol.illuminance_klux,
                 "reference_illuminance_klux": sol.reference_illuminance_klux,
                 "reference_irradiance_w_m2": sol.reference_irradiance_w_m2}
    else:
        solar = {"mode": sol.mode,
                 "spectrum": [list(row) for row in sol.spectrum_table]}
    policy = {
        "tnr": config.tdc.tnr,
        "window_us": _pretty_inverse(config.tdc.window_s, 1e6,
                                     lambda v: v * 1e-6),
        "bandwidth_mhz": _pretty_inverse(config.tdc.bandwidth_hz, 1e-6,
                                         lambda v: v * 1e6),
    }
    detector = _detector_to_dict(config.detector)
    return {
        "schema_version": SCHEMA_VERSION,
        "scene": scene,
        "atmosphere": atmosphere,
        "optics": optics,
        "target": target,
        "laser": laser,
        "solar": solar,
        "tdc": policy,
        "bandwidth_mhz": _pretty_inverse(config.bandwidth_hz, 1e-6,
                                         lambda v: v * 1e6),
        "detector": detector,
    }


def _detector_to_dict(detector: DetectorChoice) -> dict:
    if isinstance(detector, ApdChoice):
        p = detector.params
        out = {
            "type": "apd",
            "gain": p.gain,
            "quantum_efficiency_pct": _pretty_inverse(p.quantum_efficiency,
                                                      100.0),
            "excess_noise_mode": p.excess_noise_mode,
            "excess_noise_index": p.excess_noise_index,
            "surface_dark_current_na": _pretty_inverse(
                p.surface_dark_current_a, 1e9, lambda v: v * 1e-9),
            "bulk_dark_current_na": _pretty_inverse(
                p.bulk_dark_current_a, 1e9, lambda v: v * 1e-9),
            "load_resistance_ohm": p.load_resistance_ohm,
            "temperature_k": p.temperature_k,
            "amplifier_noise_na": _pretty_inverse(
                p.amplifier_noise_a, 1e9, lambda v: v * 1e-9),
        }
        if p.electron_ionization_rate is not None:
            out["electron_ionization_rate"] = p.electron_ionization_rate
        return out
    p = detector.params
    out = {
        "type": "sipm",
        "n_pixels": p.n_pixels,
        "pde_pct": _pretty_inverse(p.pde, 100.0),
        "dead_time_ns": _pretty_inverse(p.dead_time_s, 1e9, lambda v: v * 1e-9),
        "dark_count_rate_cps": p.dark_count_rate_cps,
        "snr_mode": detector.snr_mode,
    }
    if detector.mc is not None:
        mc = detector.mc
        out["mc"] = {
            "n_trials": mc.n_trials,
            "time_step_ns": _pretty_inverse(mc.time_step_s, 1e9,
                                            lambda v: v * 1e-9),
            "pulse_shape": mc.pulse_shape,
            "seed": mc.seed,
            "warmup_ns": _pretty_inverse(mc.warmup_s, 1e9, lambda v: v * 1e-9),
            "n_noise_periods": mc.n_noise_periods,
        }
    return out


def save_scenario(config: ScenarioConfig, path: str) -> None:
    """Write a scenario file; byte deterministic for equal configurations."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scenario_to_dict(config), fh, indent=2)
        fh.write("\n")


# reference scenario: 905 nm automotive lidar, Hamamatsu S12426-02 APD and a
# Sony-style 20x20 SPAD macro pixel on the same photosensitive area
_TABLE1_COMMON: dict = {
    "schema_version": SCHEMA_VERSION,
    "scene": {"range_m": 100.0, "incidence_angle_deg": 0.0,
              "elevation_angle_deg": 0.0, "sun_angle_deg": 60.0},
    "atmosphere": {"mode": "fixed_transmittance",
                   "one_way_transmittance_pct": 98.0},
    "optics": {"aperture_radius_m": 0.025, "focal_length_m": 0.03,
               "detector_radius_mm": 0.1, "laser_efficiency_pct": 72.06,
               "sun_efficiency_pct": 79.86, "aperture_model": "constant"},
    "target": {"reflectivity_pct": 10.0, "extends_beyond_spot": True},
    "laser": {"peak_power_w": 45.0, "wavelength_nm": 905.0,
              "pulse_fwhm_ns": 6.0, "repetition_khz": 50.0},
    "solar": {"mode": "illuminance_scaled", "illuminance_klux": 100.0,
              "reference_illuminance_klux": 100.0,
              "reference_irradiance_w_m2": 29.4},
    "tdc": {"tnr": 5.0, "window_us": 4.0, "bandwidth_mhz": 167.0},
    "bandwidth_mhz": 167.0,
}

_TABLE1_APD: dict = {
    "type": "apd", "gain": 80.0, "quantum_efficiency_pct": 70.0,
    "excess_noise_mode": "power_law", "excess_noise_index": 0.3,
    "surface_dark_current_na": 0.1, "bulk_dark_current_na": 0.1,
    "load_resistance_ohm": 10000.0, "temperature_k": 300.0,
    "amplifier_noise_na": 0.0,
}

_TABLE1_SIPM: dict = {
    "type": "sipm", "n_pixels": 400, "pde_pct": 22.0, "dead_time_ns": 6.0,
    "dark_count_rate_cps": 2007.0, "snr_mode": "analytic",
}


def table1_preset(detector: str = "apd") -> ScenarioConfig:
    """Built-in reference scenario, in the APD or the SiPM variant."""
    if detector not in ("apd", "sipm"):
        raise ConfigError("detector must be 'apd' or 'sipm'")
    data = json.loads(json.dumps(_TABLE1_COMMON))  # deep copy
    data["detector"] = dict(_TABLE1_APD if detector == "apd" else _TABLE1_SIPM)
    return config_from_dict(data)
