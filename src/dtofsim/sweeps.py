"""Design-space sweeps and deterministic CSV/SVG emission.

Four sweep kinds are supported: trigger SNR versus distance, maximum range
versus elevation angle, maximum range versus sunlight illuminance, and the
SiPM fired-count response versus incident photons.  Solver failures at a
grid point are recorded in that row's status and the sweep continues.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple

from . import ranging, sipm
from .detectors import DetectorChoice, SipmChoice
from .errors import ConfigError, SolverError, copy_with, record
from .scenario import ScenarioConfig, write_lines


class SweepKind(NamedTuple):
    """What a sweep kind's output looks like and which grid it defaults to."""

    x_column: str
    value_column: str  # CSV column of one series, formatted with its label
    log_axes: tuple[bool, bool]  # (x, y)
    grid: tuple[float, float, int, str]  # default (lo, hi, n, spacing)


SWEEP_KINDS: dict[str, SweepKind] = {
    "distance": SweepKind("range_m", "snr_{}", (False, True),
                          (25.0, 500.0, 96, "linear")),
    "elevation": SweepKind("elevation_deg", "rmax_{}_m", (False, False),
                           (-60.0, 60.0, 49, "linear")),
    "illuminance": SweepKind("illuminance_klux", "rmax_{}_m", (True, False),
                             (0.1, 100.0, 50, "log")),
    # long format: one n_fired column, the family in curve_label
    "photon_response": SweepKind("n_photon", "n_fired", (True, True),
                                 (1.0, 1e5, 81, "log")),
}

STATUS_OK = "ok"

# fired fraction above which a SiPM distance row is flagged as saturated
SIPM_SATURATION_FRACTION = 0.95

# most points a grid may have (the README's largest has 200), so that a
# mistyped --n fails at once instead of allocating gigabytes
MAX_GRID_POINTS = 10_000

# fired-count response curve families: (pde, n_pixels, background photons)
PHOTON_RESPONSE_FAMILIES: tuple[tuple[float, float, float], ...] = (
    (0.10, 100, 0.0),
    (0.22, 100, 0.0),
    (0.40, 100, 0.0),
    (0.70, 100, 0.0),
    (0.22, 400, 0.0),
    (0.22, 1600, 0.0),
    (0.22, 100, 100.0),
    (0.22, 100, 300.0),
    (0.22, 100, 1000.0),
)


@record
class SweepSpec:
    """What to sweep: kind, grid of the independent variable, detectors.

    Grid units are the output units of the sweep kind: meters, degrees,
    klux, or incident photons.
    """

    kind: str
    grid: tuple[float, ...]
    detectors: tuple[DetectorChoice, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise ConfigError(f"sweep kind must be one of {tuple(SWEEP_KINDS)}")
        if len(self.grid) == 0:
            raise ConfigError("sweep grid must not be empty")
        # NaN compares false both ways, so the order check cannot catch it
        if not all(map(math.isfinite, self.grid)):
            raise ConfigError(f"sweep grid must be finite: {self.grid}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        if self.kind != "photon_response" and not self.detectors:
            raise ConfigError("sweep needs at least one detector")
        labels = [det.label for det in self.detectors]
        if len(set(labels)) != len(labels):  # a label names a CSV column
            raise ConfigError(f"sweep detector labels must be distinct: {labels}")


def make_grid(lo: float, hi: float, n: int, spacing: str = "linear") -> tuple[float, ...]:
    """Monotone grid with ``n`` points between ``lo`` and ``hi``.

    A linear grid repeats ``np.linspace``'s arithmetic in Python and equals
    it point for point.  A log grid raises 10 to the inner points of the
    linear grid of the base-10 logs, clamped to the bounds, and keeps both
    bounds exact, as ``np.geomspace`` does.  libm's ``pow`` and ``log10``
    are not numpy's, so a point can differ from ``np.geomspace`` in its last
    bits: by 1 ULP at a few points of each default log grid.  ``spacing``
    and a log grid's ``lo > 0`` are checked for every ``n``; ``lo < hi``
    only when ``n > 1``, since one point is ``(lo,)``.
    """
    if not 1 <= n <= MAX_GRID_POINTS:
        raise ConfigError(f"grid size must be in [1, {MAX_GRID_POINTS}]")
    lo, hi = float(lo), float(hi)
    if not math.isfinite(hi - lo):
        raise ConfigError(f"grid bounds lo={lo!r} and hi={hi!r} must be "
                          "finite, and so must their difference")
    if n > 1 and not lo < hi:
        raise ConfigError("grid requires lo < hi")
    if spacing == "log" and lo <= 0:
        raise ConfigError("log grid requires lo > 0")
    if spacing not in ("linear", "log"):
        raise ConfigError("spacing must be 'linear' or 'log'")
    if n == 1:
        return (lo,)
    if spacing == "linear":
        span, div = hi - lo, n - 1
        step = span / div
        if step == 0.0:
            # a subnormal span: np.linspace scales i / div by the span
            return (*(i / div * span + lo for i in range(div)), hi)
        return (*(i * step + lo for i in range(div)), hi)
    a, b = math.log10(lo), math.log10(hi)
    # bounds a few ULPs apart can share one log, and 10 ** x can round
    # past a bound (or overflow at b), so inner points are clamped
    inner = make_grid(a, b, n)[1:-1] if a < b else (b,) * (n - 2)
    return (lo, *(hi if x >= b else min(max(10.0 ** x, lo), hi)
                  for x in inner), hi)


@record
class SweepRow:
    """One (grid point, series) evaluation."""

    x: float
    series: str
    value: float | None
    status: str


@record
class SweepResult:
    """Long-format sweep output; one row per grid point and series."""

    kind: str
    series: tuple[str, ...]
    rows: tuple[SweepRow, ...]
    reference_level: float | None = None  # e.g. the trigger threshold


def _distance_point(config: ScenarioConfig, det: DetectorChoice,
                    r: float) -> SweepRow:
    # one link evaluation feeds both the SNR and the fired fraction
    p_r, p_rs = ranging.link_powers(config, r)
    try:
        snr = ranging.snr_from_powers(config, det, p_r, p_rs, r)
    except SolverError as exc:
        return SweepRow(r, det.label, None, type(exc).__name__)
    status = STATUS_OK
    if isinstance(det, SipmChoice) and math.isinf(snr):
        status = "noiseless"
    elif isinstance(det, SipmChoice) and det.snr_mode == "analytic":
        if (ranging.sipm_fired_fraction(config, det, p_r, p_rs)
                >= SIPM_SATURATION_FRACTION):
            status = "saturated"
    return SweepRow(r, det.label, snr, status)


def _max_range_point(config: ScenarioConfig, det: DetectorChoice,
                     x: float) -> SweepRow:
    try:
        result = ranging.max_range(config, det, config.tdc)
    except ranging.NoDetectionError:
        return SweepRow(x, det.label, None, "no_detection")
    except ranging.UnboundedRangeError:
        return SweepRow(x, det.label, None, "unbounded")
    except SolverError as exc:
        return SweepRow(x, det.label, None, type(exc).__name__)
    return SweepRow(x, det.label, result.r_max_m, STATUS_OK)


def _scenario_at(config: ScenarioConfig, kind: str, x: float) -> ScenarioConfig:
    """The scenario with the swept quantity set to grid value ``x``."""
    if kind == "elevation":
        return copy_with(config, "scene", copy_with(
            config.scene, "elevation_angle_rad", math.radians(x)))
    if kind == "illuminance":
        return copy_with(config, "solar",
                         copy_with(config.solar, "illuminance_klux", x))
    return config


def _photon_response_rows(grid: tuple[float, ...]) -> list[SweepRow]:
    rows = []
    for pde, n_pixels, n_bg in PHOTON_RESPONSE_FAMILIES:
        params = sipm.SipmParams(n_pixels=n_pixels, pde=pde,
                                 dead_time_s=6e-9)
        label = f"pde={pde:g},n_pixel={n_pixels:g},n_b_photon={n_bg:g}"
        n_b = sipm.fired_count(params, n_bg)
        for n in grid:
            counts = sipm.PhotonCounts(n_b_photon=n_bg, n_s_photon=n)
            fired = sipm.signal_fired(params, counts, n_b, 0.0)
            rows.append(SweepRow(n, label, fired, STATUS_OK))
    return rows


def run_sweep(config: ScenarioConfig | None, spec: SweepSpec,
              workers: int = 1) -> SweepResult:
    """Evaluate a sweep point by point, in grid order.

    ``photon_response`` reads no scenario, so its ``config`` may be
    ``None``.  ``workers`` is accepted and ignored, like
    ``sipm.monte_carlo_snr``'s.
    """
    if spec.kind == "photon_response":
        rows = _photon_response_rows(spec.grid)
        series = tuple(dict.fromkeys(r.series for r in rows))
        return SweepResult(kind=spec.kind, series=series, rows=tuple(rows))
    if spec.kind == "illuminance" and config.solar.mode != "illuminance_scaled":
        raise ConfigError("illuminance sweep requires the "
                          "illuminance_scaled solar mode")

    point = _distance_point if spec.kind == "distance" else _max_range_point
    rows = []
    for x in spec.grid:
        cfg = _scenario_at(config, spec.kind, x)
        rows.extend(point(cfg, det, x) for det in spec.detectors)
    reference = config.tdc.tnr if spec.kind == "distance" else None
    return SweepResult(kind=spec.kind,
                       series=tuple(det.label for det in spec.detectors),
                       rows=tuple(rows), reference_level=reference)


def format_number(value: float) -> str:
    """Shortest repr of ``value`` rounded to 15 significant digits.

    Fifteen digits are finer than many outputs' roundoff: moving each
    ``math`` result by -1, 0 or +1 ULP, as another libm might, changed 114
    to 613 of the 4552 golden CSV cells per perturbation seed (seeds 1-5),
    each in its last digit.
    """
    return repr(float(f"{value:.15g}"))


def _format_value(value: float | None) -> str:
    return "" if value is None else format_number(value)


def csv_lines(result: SweepResult) -> list[str]:
    """Render a sweep as CSV lines, header first; byte deterministic."""
    kind = SWEEP_KINDS[result.kind]
    if result.kind == "photon_response":
        lines = [f"{kind.x_column},{kind.value_column},curve_label"]
        for row in result.rows:
            lines.append(f"{_format_value(row.x)},{_format_value(row.value)},"
                         f"{row.series}")
        return lines
    lines = [",".join([kind.x_column, *map(kind.value_column.format,
                                           result.series), "status"])]
    # run_sweep emits one row per series, in series order, at each grid point
    width = len(result.series)
    for i in range(0, len(result.rows), width):
        group = result.rows[i:i + width]
        cells = [_format_value(group[0].x)]
        cells += [_format_value(row.value) for row in group]
        statuses = [f"{row.series}:{row.status}" for row in group
                    if row.status != STATUS_OK]
        cells.append(";".join(statuses) if statuses else STATUS_OK)
        lines.append(",".join(cells))
    return lines


def emit_csv(result: SweepResult, path: str | None) -> None:
    """Write the sweep as CSV, to stdout when ``path`` is None."""
    write_lines(csv_lines(result), path)


# --- SVG -------------------------------------------------------------------

_SVG_WIDTH = 800
_SVG_HEIGHT = 560
_MARGIN_LEFT = 80
_MARGIN_RIGHT = 30
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 60
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                  "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22")


# most labelled decades on a log axis
MAX_LOG_TICKS = 10


def _axis_ticks(lo: float, hi: float, log: bool) -> list[float]:
    """Tick values of an axis.  A log axis labels every decade in range, or,
    past ``MAX_LOG_TICKS`` decades, the multiples of the first of 2, 5, 10,
    20, 50, ... decades that leaves at most that many."""
    if log:
        # 10.0 ** 309 overflows, so the search stops at the largest decade
        top = min(math.floor(math.log10(hi)) + 1, sys.float_info.max_10_exp)
        decades = [d for d in range(math.floor(math.log10(lo)), top + 1)
                   if lo * 0.9999 <= 10.0 ** d <= hi * 1.0001]
        strides = (m * 10 ** k for k in itertools.count() for m in (1, 2, 5))
        stride = next(s for s in strides
                      if sum(d % s == 0 for d in decades) <= MAX_LOG_TICKS)
        return [10.0 ** d for d in decades if d % stride == 0] or [lo, hi]
    span = hi - lo
    if span < 4.0 * sys.float_info.min:  # span / 4 would be subnormal
        return [lo, hi] if span > 0 else [lo]
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    # the <= 7 multiples of the step, rounded to its last digit (2.5 has two);
    # on a span a few ULPs wide they collapse, and the ends are the ticks
    first, digits = math.ceil(lo / step), 1 - math.floor(math.log10(step))
    ticks = [min(max(round(k * step, digits), lo), hi)
             for k in range(first, first + 7) if k * step <= hi + 1e-9 * span]
    if ticks and all(a < b for a, b in zip(ticks, ticks[1:])):
        return ticks
    return [lo, hi]


def _fraction(v: float, lo: float, hi: float, log: bool) -> float:
    """Where ``v`` lies on an axis from ``lo`` (0) to ``hi`` (1)."""
    if log:
        v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
    return (v - lo) / (hi - lo)


def emit_svg(result: SweepResult, path: str) -> None:
    """Write the sweep as a line chart; byte deterministic.

    A row without a finite value, or with x <= 0 on a log x axis, is left
    out of the chart; the CSV keeps every row.
    """
    kind = SWEEP_KINDS[result.kind]
    log_x, log_y = kind.log_axes
    points: dict[str, list[tuple[float, float]]] = {s: [] for s in result.series}
    for row in result.rows:
        if row.value is None or not math.isfinite(row.value) \
                or (log_x and row.x <= 0):
            continue
        points[row.series].append((row.x, row.value))

    xs = [p[0] for series in points.values() for p in series]
    ys = [p[1] for series in points.values() for p in series]
    if result.reference_level is not None:
        ys.append(result.reference_level)
    if not xs:
        xs, ys = [1.0, 10.0], [1.0, 10.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if log_y:
        # y <= 0 is drawn at the axis floor: the least positive y
        y_lo = max(y_lo, min((y for y in ys if y > 0), default=1e-3))
    if x_lo == x_hi:
        x_hi = x_lo + 1.0
    if y_lo >= y_hi:
        y_hi = y_lo + 1.0

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + _fraction(x, x_lo, x_hi, log_x) * plot_w

    def sy(y: float) -> float:
        y = max(y, y_lo) if log_y else y
        return _MARGIN_TOP + (1.0 - _fraction(y, y_lo, y_hi, log_y)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_SVG_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{result.kind} sweep</text>',
    ]
    axis_y = _SVG_HEIGHT - _MARGIN_BOTTOM
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" '
                 f'x2="{_SVG_WIDTH - _MARGIN_RIGHT}" y2="{axis_y}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
                 f'x2="{_MARGIN_LEFT}" y2="{axis_y}" stroke="black"/>')
    for t in _axis_ticks(x_lo, x_hi, log_x):
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{axis_y}" x2="{px:.2f}" '
                     f'y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{axis_y + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{t:g}</text>')
    for t in _axis_ticks(y_lo, y_hi, log_y):
        py = sy(t)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{py:.2f}" '
                     f'x2="{_MARGIN_LEFT}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" y="{py + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{t:g}</text>')
    parts.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" '
                 f'y="{_SVG_HEIGHT - 16}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">'
                 f'{kind.x_column}</text>')

    if result.reference_level is not None and y_lo <= result.reference_level <= y_hi:
        py = sy(result.reference_level)
        parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{py:.2f}" '
                     f'x2="{_SVG_WIDTH - _MARGIN_RIGHT}" y2="{py:.2f}" '
                     f'stroke="gray" stroke-dasharray="6,4"/>')

    for i, label in enumerate(result.series):
        series = points[label]
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        if series:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in series)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_TOP + 16 * i
        parts.append(f'<line x1="{_SVG_WIDTH - _MARGIN_RIGHT - 150}" '
                     f'y1="{ly}" x2="{_SVG_WIDTH - _MARGIN_RIGHT - 126}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_SVG_WIDTH - _MARGIN_RIGHT - 120}" '
                     f'y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    write_lines(parts, path)
