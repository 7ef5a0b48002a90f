"""Scenario files: schema, strict loader, serializer and reference preset.

Scenario files are JSON in the field units a lidar datasheet would use
(W, MHz, ns, %, klux, mm, nA, ohm, cps, m, degrees); everything converts
to SI on load.  Unknown keys are rejected so a typo cannot silently fall
back to a default, and so is ``null``: an optional key that is absent
takes the model's default.

Each section is declared once, as a table of rows ``(file key, dataclass
field, unit, required)``.  The unit is a key of ``_UNITS`` for a scaled
number, ``None`` for a number already in SI, or one of ``int``, ``str``
and ``bool``.  One reader and one writer drive every table.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

from .apd import ApdParams
from .detectors import ApdChoice, DetectorChoice, SipmChoice
from .errors import ConfigError, check_domains, domains
from .scene_link import (AtmosphereModel, LaserParams, ReceiverOptics,
                         SceneGeometry, SolarModel, TargetModel,
                         load_spectrum_csv)
from .sipm import (DARK_LOAD_WARN_THRESHOLD, SipmMcConfig, SipmParams,
                   dark_occupancy)
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

    _DOMAINS = domains(bandwidth_hz="> 0")
    __post_init__ = check_domains


_NANO = (lambda v: v * 1e-9, lambda v: v * 1e9)

# unit -> (file value to SI, SI value to file)
_UNITS: dict[str, tuple[Callable[[float], float],
                        Callable[[float], float]]] = {
    "pct": (lambda v: v / 100.0, lambda v: v * 100.0),
    "mm": (lambda v: v / 1000.0, lambda v: v * 1000.0),
    "nm": _NANO, "ns": _NANO, "na": _NANO,
    "mhz": (lambda v: v * 1e6, lambda v: v * 1e-6),
    "deg": (math.radians, math.degrees),
}

_Table = tuple[tuple[str, str, Any, bool], ...]

_SCENE: _Table = (
    ("range_m", "range_m", None, False),
    ("incidence_angle_deg", "incidence_angle_rad", "deg", False),
    ("elevation_angle_deg", "elevation_angle_rad", "deg", False),
    ("sun_angle_deg", "sun_angle_rad", "deg", False),
)
_ATMOSPHERE: dict[str, _Table] = {
    "fixed_transmittance": (
        ("one_way_transmittance_pct", "one_way_transmittance", "pct", True),),
    "extinction": (
        ("extinction_coeff_per_m", "extinction_coeff_per_m", None, True),),
}
_OPTICS: _Table = (
    ("aperture_radius_m", "aperture_radius_m", None, True),
    ("focal_length_m", "focal_length_m", None, True),
    ("detector_radius_mm", "detector_radius_m", "mm", True),
    ("laser_efficiency_pct", "laser_efficiency", "pct", True),
    ("sun_efficiency_pct", "sun_efficiency", "pct", True),
    ("aperture_model", "aperture_model", str, False),
)
_TARGET: _Table = (("reflectivity_pct", "reflectivity", "pct", True),)
_LASER: _Table = (
    ("peak_power_w", "peak_power_w", None, True),
    ("wavelength_nm", "wavelength_m", "nm", True),
    ("pulse_fwhm_ns", "pulse_fwhm_s", "ns", True),
)
# the spectrum_integral rows are read and written by hand
_SOLAR: dict[str, _Table] = {
    "direct_irradiance": (
        ("in_band_irradiance_w_m2", "in_band_irradiance_w_m2", None, True),),
    "illuminance_scaled": (
        ("illuminance_klux", "illuminance_klux", None, True),
        ("reference_illuminance_klux", "reference_illuminance_klux", None,
         False),
        ("reference_irradiance_w_m2", "reference_irradiance_w_m2", None,
         False),
    ),
    "spectrum_integral": (),
}
_TDC: _Table = (("tnr", "tnr", None, True),)
_TOP: _Table = (("bandwidth_mhz", "bandwidth_hz", "mhz", True),)
# detector parameters by type; the APD wavelength is the laser's
_DETECTOR: dict[str, _Table] = {
    "apd": (
        ("gain", "gain", None, True),
        ("quantum_efficiency_pct", "quantum_efficiency", "pct", True),
        ("excess_noise_mode", "excess_noise_mode", str, False),
        ("excess_noise_index", "excess_noise_index", None, False),
        ("surface_dark_current_na", "surface_dark_current_a", "na", False),
        ("bulk_dark_current_na", "bulk_dark_current_a", "na", False),
        ("load_resistance_ohm", "load_resistance_ohm", None, True),
        ("temperature_k", "temperature_k", None, False),
        ("amplifier_noise_na", "amplifier_noise_a", "na", False),
        ("electron_ionization_rate", "electron_ionization_rate", None, False),
    ),
    "sipm": (
        ("n_pixels", "n_pixels", None, True),
        ("pde_pct", "pde", "pct", True),
        ("dead_time_ns", "dead_time_s", "ns", True),
        ("dark_count_rate_cps", "dark_count_rate_cps", None, False),
    ),
}
_SIPM_CHOICE: _Table = (("snr_mode", "snr_mode", str, False),)
# the optional mc block; absent keys keep SipmMcConfig.for_dead_time
_MC: _Table = (
    ("n_trials", "n_trials", int, False),
    ("time_step_ns", "time_step_s", "ns", False),
    ("pulse_shape", "pulse_shape", str, False),
    ("seed", "seed", int, False),
    ("warmup_ns", "warmup_s", "ns", False),
    ("n_noise_periods", "n_noise_periods", int, False),
)
# keys earlier versions wrote and the model never reads, by section: each
# is read as a number, or as a boolean if the one value it accepts is a
# boolean (null or a string is an error), and dropped; a key with a value
# accepts only that value, for the reason given
_LEGACY: dict[str, tuple[tuple[str, float | bool | None, str], ...]] = {
    "target": (("extends_beyond_spot", True,
                "the link model assumes the target contains the whole "
                "laser spot"),),
    "laser": (("repetition_khz", None, ""),),
    "tdc": (("window_us", None, ""), ("bandwidth_mhz", None, ""),
            ("limit_detection_prob", 0.5,
             "r_max is the range of 50 % detection probability")),
}

_KIND_NAMES = {str: "a string", bool: "a boolean"}


def _number(value: Any, where: str) -> float:
    """A JSON number as a finite float; anything else is an error naming
    ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where}: number too large") from None
    # json reads NaN, Infinity and overflowing literals such as 1e400
    if not math.isfinite(number):
        raise ConfigError(f"{where}: {number!r} is not a finite number")
    return number


class _Node:
    """One JSON object: typed reads in file units, leftover keys rejected."""

    def __init__(self, data: Any, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object")
        self._data = dict(data)
        self.path = path

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def take(self, key: str) -> Any:
        if key not in self._data:
            raise ConfigError(f"{self.path}: missing required key {key!r}")
        value = self._data.pop(key)
        if value is None:
            raise ConfigError(f"{self.path}.{key}: null is not allowed; omit "
                              "an optional key to use its default")
        return value

    def value(self, key: str, unit: Any = None) -> Any:
        """``key`` read as ``unit`` (see the module docstring)."""
        value = self.take(key)
        where = f"{self.path}.{key}"
        if unit in _KIND_NAMES:
            if not isinstance(value, unit):
                raise ConfigError(f"{where}: expected {_KIND_NAMES[unit]}")
            return value
        number = _number(value, where)
        if unit is int:
            if not number.is_integer():
                raise ConfigError(f"{where}: expected an integer")
            return int(value)
        return _UNITS[unit][0](number) if unit else number

    def child(self, key: str) -> "_Node":
        return _Node(self.take(key), f"{self.path}.{key}")

    def section(self, key: str) -> "_Node":
        """``child(key)`` with that section's ``_LEGACY`` keys dropped."""
        node = self.child(key)
        for old, only, why in _LEGACY.get(key, ()):
            kind = bool if isinstance(only, bool) else None
            value = node.value(old, kind) if old in node else only
            if only is not None and value != only:
                raise ConfigError(f"{node.path}.{old}: only "
                                  f"{json.dumps(only)} is supported; {why}")
        return node

    def finish(self) -> None:
        if self._data:
            extra = ", ".join(sorted(self._data))
            raise ConfigError(f"{self.path}: unknown key(s): {extra}")


def _fields(node: _Node, table: _Table) -> dict:
    """SI values of the keys of ``table`` present in ``node``, by field; an
    absent optional key is left out, so the model default applies."""
    return {field: node.value(key, unit)
            for key, field, unit, required in table
            if required or key in node}


def _read(node: _Node, build: Callable[..., Any], table: _Table,
          **fixed: Any) -> Any:
    """``build(**fixed, **fields)``; then any key left in ``node`` is an
    error."""
    fields = _fields(node, table)  # its errors already name the key
    try:
        value = build(**fixed, **fields)
    except ConfigError as exc:
        raise ConfigError(f"{node.path}: {exc}") from None
    node.finish()
    return value


def _select(node: _Node, key: str, tables: dict[str, _Table]) -> str:
    kind = node.value(key, str)
    if kind not in tables:
        raise ConfigError(f"{node.path}.{key}: unknown {key} {kind!r}; "
                          f"expected one of {', '.join(tables)}")
    return kind


def _spectrum_table(node: _Node, base_dir: str) -> tuple:
    """The spectrum_integral rows, inline or from a CSV file."""
    if ("spectrum" in node) == ("spectrum_csv" in node):
        raise ConfigError(f"{node.path}: spectrum_integral needs exactly "
                          "one of 'spectrum' or 'spectrum_csv'")
    if "spectrum_csv" in node:
        return load_spectrum_csv(
            os.path.join(base_dir, node.value("spectrum_csv", str)))
    where, rows = f"{node.path}.spectrum", node.take("spectrum")
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == 3 for row in rows)):
        raise ConfigError(f"{where}: expected rows of "
                          "[wavelength_nm, irradiance_w_m2_nm, transmittance]")
    # each cell is a number by the rule of every other scenario number
    return tuple(tuple(_number(v, f"{where}[{i}][{j}]")
                       for j, v in enumerate(row))
                 for i, row in enumerate(rows))


def config_from_dict(data: dict, base_dir: str = ".") -> ScenarioConfig:
    """Build a validated configuration from a raw scenario dictionary."""
    root = _Node(data, "scenario")
    version = root.value("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version:g}")
    scene = _read(root.child("scene"), SceneGeometry, _SCENE)
    node = root.child("atmosphere")
    mode = _select(node, "mode", _ATMOSPHERE)
    atmosphere = _read(node, AtmosphereModel, _ATMOSPHERE[mode], mode=mode)
    optics = _read(root.child("optics"), ReceiverOptics, _OPTICS)
    target = _read(root.section("target"), TargetModel, _TARGET)
    laser = _read(root.section("laser"), LaserParams, _LASER)

    node = root.child("solar")
    mode = _select(node, "mode", _SOLAR)
    spectrum = ({"spectrum_table": _spectrum_table(node, base_dir)}
                if mode == "spectrum_integral" else {})
    solar = _read(node, SolarModel, _SOLAR[mode], mode=mode, **spectrum)

    policy = _read(root.section("tdc"), TdcPolicy, _TDC)

    node = root.child("detector")
    kind = _select(node, "type", _DETECTOR)
    if kind == "apd":
        detector: DetectorChoice = ApdChoice(params=_read(
            node, ApdParams, _DETECTOR[kind], wavelength_m=laser.wavelength_m))
    else:
        mc_node = node.child("mc") if "mc" in node else None
        choice = _fields(node, _SIPM_CHOICE)
        params = _read(node, SipmParams, _DETECTOR[kind])
        if mc_node is not None:
            base = SipmMcConfig.for_dead_time(params.dead_time_s)
            choice["mc"] = _read(mc_node, partial(replace, base), _MC)
        detector = _read(node, SipmChoice, (), params=params, **choice)
    return _read(root, ScenarioConfig, _TOP, scene=scene,
                 atmosphere=atmosphere, optics=optics, target=target,
                 laser=laser, solar=solar, tdc=policy, detector=detector)


def load_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario file.

    A SiPM dark load ``dark_occupancy(params)[0]`` at or past
    ``DARK_LOAD_WARN_THRESHOLD`` gets one ``UserWarning``, naming ``path``.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        config = config_from_dict(data, os.path.dirname(path) or ".")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if isinstance(config.detector, SipmChoice):
        dark_load = dark_occupancy(config.detector.params)[0]
        if dark_load >= DARK_LOAD_WARN_THRESHOLD:
            warnings.warn_explicit(
                f"dark load N*DCR*tau = {dark_load:.3g} is not small; the "
                "static dark-occupancy treatment may be inaccurate",
                UserWarning, path, 0)
    return config


def _file_value(value: Any, unit: Any) -> Any:
    """SI value to file units that reads back to exactly ``value``: rounded
    for readability when possible, else the converted value or its float
    neighbour toward ``value`` (one step suffices for every unit here)."""
    if unit not in _UNITS:
        return value
    to_si, from_si = _UNITS[unit]
    raw = from_si(value)
    toward = math.inf if to_si(raw) < value else -math.inf
    for candidate in (round(raw, 10), raw, math.nextafter(raw, toward)):
        if to_si(candidate) == value:
            return candidate
    return raw


def _write(obj: Any, table: _Table, base: Any = None, **head: Any) -> dict:
    """``head``, then the fields of ``table`` in file units; a field that is
    None or equal to its value in ``base`` is left out."""
    out = dict(head)
    for key, field, unit, _ in table:
        value = getattr(obj, field)
        if value is None or (base is not None
                             and value == getattr(base, field)):
            continue
        out[key] = _file_value(value, unit)
    return out


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Serialize a configuration back to the documented file schema."""
    atm, sol, det = config.atmosphere, config.solar, config.detector
    solar = _write(sol, _SOLAR[sol.mode], mode=sol.mode)
    if sol.mode == "spectrum_integral":
        solar["spectrum"] = [list(row) for row in sol.spectrum_table]
    kind = "apd" if isinstance(det, ApdChoice) else "sipm"
    detector = _write(det.params, _DETECTOR[kind], type=kind)
    if kind == "sipm":
        detector.update(_write(det, _SIPM_CHOICE))
        if det.mc is not None:
            # dead-time defaults may have no exact file value; omit them
            base = SipmMcConfig.for_dead_time(det.params.dead_time_s)
            detector["mc"] = _write(det.mc, _MC, base)
    return {
        "schema_version": SCHEMA_VERSION,
        "scene": _write(config.scene, _SCENE),
        "atmosphere": _write(atm, _ATMOSPHERE[atm.mode], mode=atm.mode),
        "optics": _write(config.optics, _OPTICS),
        "target": _write(config.target, _TARGET),
        "laser": _write(config.laser, _LASER),
        "solar": solar,
        "tdc": _write(config.tdc, _TDC),
        **_write(config, _TOP),
        "detector": detector,
    }


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
    "target": {"reflectivity_pct": 10.0},
    "laser": {"peak_power_w": 45.0, "wavelength_nm": 905.0,
              "pulse_fwhm_ns": 6.0},
    "solar": {"mode": "illuminance_scaled", "illuminance_klux": 100.0,
              "reference_illuminance_klux": 100.0,
              "reference_irradiance_w_m2": 29.4},
    "tdc": {"tnr": 5.0},
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
