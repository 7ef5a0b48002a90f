"""Optical link budget: echo and solar-background power at the photodetector.

``received_powers`` returns both powers for one range in one call, and
``LINK_EXPONENTS`` and ``range_exponents`` state their log-slopes.

The echo model treats the target as a Lambertian reflector larger than the
laser spot, with the receive direction assumed equal to the emit direction.
Background light is in-band solar irradiance reflected by the same target
into the receiver field of view.  All functions here are pure and operate
on immutable value types, so they are safe to call from any thread.  That
holds for this module only: the range solver and the SiPM Monte Carlo
remember per-process state (see the README, Determinism).
"""

from __future__ import annotations

import math

from .errors import ConfigError, check_domains, domains, record

APERTURE_MODELS = ("constant", "cosine")
ATMOSPHERE_MODES = ("fixed_transmittance", "extinction")
SOLAR_MODES = ("direct_irradiance", "spectrum_integral", "illuminance_scaled")

SPECTRUM_CSV_HEADER = ("wavelength_nm", "irradiance_w_m2_nm", "transmittance")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@record
class SceneGeometry:
    """Geometry of a single ranging direction.

    range_m            distance to the target, m
    incidence_angle_rad  angle between receive direction and target normal
    elevation_angle_rad  receive-direction elevation; argument of the
                         aperture model
    sun_angle_rad        angle between solar direction and target normal
    """

    range_m: float = 100.0
    incidence_angle_rad: float = 0.0
    elevation_angle_rad: float = 0.0
    sun_angle_rad: float = 0.0

    # inclusive upper sun angle: a grazing sun contributes zero power
    _DOMAINS = domains(range_m="> 0", incidence_angle_rad="in [0, pi/2)",
                       elevation_angle_rad="in (-pi/2, pi/2)",
                       sun_angle_rad="in [0, pi/2]")
    __post_init__ = check_domains


@record
class AtmosphereModel:
    """One-way atmospheric transmittance, either fixed or Beer-Lambert."""

    mode: str = "fixed_transmittance"
    one_way_transmittance: float = 1.0
    extinction_coeff_per_m: float = 0.0

    _DOMAINS = domains(mode=ATMOSPHERE_MODES,
                       one_way_transmittance="in (0, 1]",
                       extinction_coeff_per_m=">= 0")
    __post_init__ = check_domains


@record
class ReceiverOptics:
    """Receive-path optics and efficiencies.

    aperture_radius_m  entrance pupil radius, m
    focal_length_m     receiver focal length, m
    detector_radius_m  radius of the circular photosensitive area, m
    laser_efficiency   optical efficiency for the laser line
    sun_efficiency     optical efficiency for in-band sunlight
    aperture_model     'constant' or 'cosine' falloff of pupil area with
                       the receiving angle
    """

    aperture_radius_m: float
    focal_length_m: float
    detector_radius_m: float
    laser_efficiency: float = 1.0
    sun_efficiency: float = 1.0
    aperture_model: str = "constant"

    _DOMAINS = domains(aperture_radius_m="> 0", focal_length_m="> 0",
                       detector_radius_m="> 0", laser_efficiency="in (0, 1]",
                       sun_efficiency="in (0, 1]",
                       aperture_model=APERTURE_MODELS)
    __post_init__ = check_domains


@record
class TargetModel:
    """Lambertian target with diffuse reflectivity."""

    reflectivity: float

    _DOMAINS = domains(reflectivity="in [0, 1]")
    __post_init__ = check_domains


@record
class LaserParams:
    """Pulsed laser transmitter parameters."""

    peak_power_w: float
    wavelength_m: float
    pulse_fwhm_s: float

    _DOMAINS = domains(peak_power_w="> 0", pulse_fwhm_s="> 0",
                       wavelength_m="in (0.3e-6, 2.0e-6)")
    __post_init__ = check_domains


@record
class SolarModel:
    """In-band solar irradiance at the scene, W/m^2.

    direct_irradiance   the in-band value is given directly
    spectrum_integral   integrate irradiance times filter transmittance
                        over a tabulated spectrum
    illuminance_scaled  scale a reference (illuminance, irradiance) anchor
                        pair linearly to the requested illuminance

    The in-band value is worked out once, when the model is built (for a
    spectrum, one integration per model), into ``_in_band_w_m2``, no
    field: no part of equality, ``repr``, ``replace`` or the scenario file.
    """

    mode: str = "direct_irradiance"
    in_band_irradiance_w_m2: float = 0.0
    spectrum_table: tuple[tuple[float, float, float], ...] = ()
    illuminance_klux: float = 0.0
    reference_illuminance_klux: float = 100.0
    reference_irradiance_w_m2: float = 29.4

    _DOMAINS = domains(mode=SOLAR_MODES, in_band_irradiance_w_m2=">= 0",
                       illuminance_klux=">= 0",
                       reference_illuminance_klux="> 0",
                       reference_irradiance_w_m2=">= 0")
    def __post_init__(self) -> None:
        check_domains(self)
        if self.mode == "direct_irradiance":
            in_band = self.in_band_irradiance_w_m2
        elif self.mode == "illuminance_scaled":
            in_band = (self.reference_irradiance_w_m2 * self.illuminance_klux
                       / self.reference_illuminance_klux)
        else:
            _require(len(self.spectrum_table) >= 2,
                     "spectrum_table needs at least 2 rows")
            _require(all(math.isfinite(v) for row in self.spectrum_table
                         for v in row),
                     "spectrum_table values must be finite")
            last = -math.inf
            for wl, irr, t in self.spectrum_table:
                _require(wl > last,
                         "spectrum_table wavelengths must be strictly increasing")
                _require(irr >= 0, "spectrum irradiance must be >= 0")
                _require(0.0 <= t <= 1.0, "spectrum transmittance must be in [0, 1]")
                last = wl
            in_band = _spectrum_integral(self.spectrum_table)
        object.__setattr__(self, "_in_band_w_m2", in_band)


def load_spectrum_csv(path: str) -> tuple[tuple[float, float, float], ...]:
    """Read a solar spectrum table from CSV.

    Expected header: ``wavelength_nm,irradiance_w_m2_nm,transmittance``,
    rows strictly increasing in wavelength.
    """
    import csv  # its only user; kept off every command's start-up
    rows: list[tuple[float, float, float]] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh.readlines())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty spectrum file") from None
    if tuple(h.strip() for h in header) != SPECTRUM_CSV_HEADER:
        raise ConfigError(
            f"{path}: spectrum header must be "
            f"{','.join(SPECTRUM_CSV_HEADER)!r}, got {','.join(header)!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 3 columns")
        try:
            rows.append((float(row[0]), float(row[1]), float(row[2])))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: non-numeric value") from None
    if len(rows) < 2:
        raise ConfigError(f"{path}: spectrum table needs at least 2 rows")
    return tuple(rows)


def one_way_transmittance(atm: AtmosphereModel, range_m: float) -> float:
    """One-way atmospheric transmittance over the given path length."""
    _require(range_m > 0, "range_m must be > 0")
    if atm.mode == "fixed_transmittance":
        return atm.one_way_transmittance
    return math.exp(-atm.extinction_coeff_per_m * range_m)


def effective_aperture(optics: ReceiverOptics, theta_r: float) -> float:
    """Effective pupil area at receiving angle ``theta_r``, m^2."""
    _require(abs(theta_r) < math.pi / 2, "theta_r must be in (-pi/2, pi/2)")
    area = math.pi * optics.aperture_radius_m ** 2
    if optics.aperture_model == "cosine":
        area *= math.cos(theta_r)
    return area


def _spectrum_integral(table: tuple[tuple[float, float, float], ...]) -> float:
    """Trapezoidal integral of irradiance * transmittance on the table grid."""
    total = 0.0
    for (wl0, e0, t0), (wl1, e1, t1) in zip(table, table[1:]):
        total += 0.5 * (e0 * t0 + e1 * t1) * (wl1 - wl0)
    return total


def sun_equivalent_irradiance(solar: SolarModel) -> float:
    """In-band solar irradiance after the receiver filter stack, W/m^2."""
    return solar._in_band_w_m2


def received_powers(range_m: float, scene: SceneGeometry,
                    atm: AtmosphereModel, optics: ReceiverOptics,
                    target: TargetModel, laser: LaserParams,
                    solar: SolarModel) -> tuple[float, float]:
    """(peak echo power, solar background power) at the photodetector, W.

    ``range_m`` replaces ``scene.range_m``; the scene's angles are used.
    The echo is the Lambertian radiant intensity toward the receiver times
    the pupil solid angle, with the round-trip transmittance and the
    receive-path laser efficiency applied; it falls off as 1/R^2 when the
    transmittance and pupil area do not depend on range.  For the
    background, the target patch inside the field of view grows as R^2
    while the pupil solid angle shrinks as 1/R^2, so it is range
    independent at a fixed transmittance; a single one-way transmittance
    is applied to its path.
    """
    tau = one_way_transmittance(atm, range_m)
    area = effective_aperture(optics, scene.elevation_angle_rad)
    p_r = (tau * tau * optics.laser_efficiency * target.reflectivity
           * laser.peak_power_w * area * math.cos(scene.incidence_angle_rad)
           / (math.pi * range_m * range_m))
    fov_ratio = optics.detector_radius_m / optics.focal_length_m
    p_rs = (sun_equivalent_irradiance(solar) * optics.sun_efficiency * tau
            * target.reflectivity * area * fov_ratio * fov_ratio
            * math.cos(scene.sun_angle_rad))
    return p_r, p_rs


def _cos_exponent(theta: float) -> float:
    """d ln cos(theta f) / d ln f at f = 1."""
    return -theta * math.tan(theta)


def _transmittance_exponents(atm: AtmosphereModel,
                             range_m: float) -> tuple[float, float]:
    """(2x, x), with x = d ln tau / d ln of the atmosphere's field: the
    transmittance itself, or else the extinction coefficient k, where
    ln tau = -k r; the echo crosses the path twice."""
    x = (1.0 if atm.mode == "fixed_transmittance"
         else -atm.extinction_coeff_per_m * range_m)
    return 2.0 * x, x


def range_exponents(atm: AtmosphereModel,
                    range_m: float) -> tuple[float, float]:
    """(d ln p_r / d ln r, d ln p_rs / d ln r) at ``range_m``: (-2 + 2x, x),
    with x = d ln tau / d ln r, 0 at a fixed transmittance, else -k r."""
    x = (0.0 if atm.mode == "fixed_transmittance"
         else -atm.extinction_coeff_per_m * range_m)
    return 2.0 * x - 2.0, x


# the exponents (alpha, gamma) of each factor x of ``received_powers`` at
# range r, by its sensitivity name: d ln p_r / d ln x and d ln p_rs / d ln x,
# exact since both powers are products; ``sun_irradiance`` scales the
# in-band irradiance and ``one_way_transmittance`` its atmosphere's field
LINK_EXPONENTS = {
    "peak_power_w": lambda scene, atm, r: (1.0, 0.0),
    "laser_efficiency": lambda scene, atm, r: (1.0, 0.0),
    "reflectivity": lambda scene, atm, r: (1.0, 1.0),
    "aperture_radius_m": lambda scene, atm, r: (2.0, 2.0),
    "sun_efficiency": lambda scene, atm, r: (0.0, 1.0),
    "sun_irradiance": lambda scene, atm, r: (0.0, 1.0),
    "detector_radius_m": lambda scene, atm, r: (0.0, 2.0),
    "focal_length_m": lambda scene, atm, r: (0.0, -2.0),
    "sun_angle_rad":
        lambda scene, atm, r: (0.0, _cos_exponent(scene.sun_angle_rad)),
    "incidence_angle_rad":
        lambda scene, atm, r: (_cos_exponent(scene.incidence_angle_rad), 0.0),
    "one_way_transmittance":
        lambda scene, atm, r: _transmittance_exponents(atm, r),
}
