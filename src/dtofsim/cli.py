"""Command-line interface.

Exit codes: 0 success, 1 validation or usage error, 2 solver failure on
every grid point (or a direct solver failure), 3 I/O error.  All output,
stdout and files alike, is byte deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import ranging, scenario, sweeps
from .apd import optimize_gain
from .detectors import ApdChoice, DetectorChoice, SipmChoice
from .errors import ConfigError, SolverError
from .ranging import SENSITIVITY_PARAMS, max_range, sensitivity
from .scenario import ScenarioConfig, load_scenario, save_scenario, table1_preset
from .sweeps import (SweepSpec, emit_csv, emit_svg, format_number, make_grid,
                     run_sweep)

_SWEEP_DEFAULTS = {
    # kind: (lo, hi, n, spacing)
    "distance": (25.0, 500.0, 96, "linear"),
    "elevation": (-60.0, 60.0, 49, "linear"),
    "illuminance": (0.1, 100.0, 50, "log"),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as validation errors (exit 1), not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", action="append", default=[],
                        help="scenario file; repeat to sweep several detectors "
                             "over the first file's scene")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "svg"), default="csv",
                        help="output file format (default csv)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the Monte Carlo seed")
    parser.add_argument("--detector", choices=("apd", "sipm", "both"),
                        default=None,
                        help="detector variant of the built-in preset "
                             "(ignored when --config is given)")


def _apply_seed(det: DetectorChoice, seed: int | None) -> DetectorChoice:
    if seed is None or not isinstance(det, SipmChoice):
        return det
    return replace(det, mc=replace(det.mc_config(), seed=seed))


def _resolve(args, allow_both: bool = False) \
        -> tuple[ScenarioConfig, list[DetectorChoice]]:
    """Scenario plus detector list from --config/--detector flags."""
    if args.config:
        if args.detector is not None:
            raise ConfigError("--detector applies to the built-in preset; "
                              "a scenario file already names its detector")
        configs = [load_scenario(p) for p in args.config]
        detectors = [_apply_seed(c.detector, args.seed) for c in configs]
        labels = [d.label for d in detectors]
        if len(set(labels)) != len(labels):
            detectors = [replace(d, label=f"{d.label}{i}") if labels.count(d.label) > 1
                         else d for i, d in enumerate(detectors)]
        return configs[0], detectors
    choice = args.detector or "apd"
    if choice == "both":
        if not allow_both:
            raise ConfigError("--detector both needs a sweep-style command")
        base = table1_preset("apd")
        dets = [table1_preset("apd").detector, table1_preset("sipm").detector]
        return base, [_apply_seed(d, args.seed) for d in dets]
    base = table1_preset(choice)
    return base, [_apply_seed(base.detector, args.seed)]


def _write_lines(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_sweep(result, args) -> None:
    failures = [r for r in result.rows
                if r.status in ("no_detection", "unbounded")
                or r.value is None]
    if len(failures) == len(result.rows):
        raise SolverError("the solver failed at every grid point")
    if args.out is None:
        _write_lines(sweeps.csv_lines(result), None)
    elif args.format == "svg":
        emit_svg(result, args.out)
    else:
        emit_csv(result, args.out)


def _cmd_preset(args) -> None:
    if args.name != "table1":
        raise ConfigError(f"unknown preset {args.name!r}")
    det = args.detector or "apd"
    if det == "both":
        raise ConfigError("preset writes one scenario file; pick apd or sipm")
    config = table1_preset(det)
    if args.out is None:
        import json

        sys.stdout.write(json.dumps(scenario.scenario_to_dict(config), indent=2))
        sys.stdout.write("\n")
    else:
        save_scenario(config, args.out)


def _cmd_range(args) -> None:
    config, detectors = _resolve(args)
    lines = ["detector,r_max_m,snr_at_rmax,min_detectable_power_w,"
             "background_power_w,method"]
    for det in detectors:
        res = max_range(config, det, config.tdc)
        numbers = (res.r_max_m, res.snr_at_rmax, res.min_detectable_power_w,
                   res.background_power_w)
        lines.append(",".join([det.label, *map(format_number, numbers),
                               res.method]))
    _write_lines(lines, args.out)


def _sweep_common(args, kind: str, lo, hi, n, spacing) -> None:
    config, detectors = _resolve(args, allow_both=True)
    grid = make_grid(lo, hi, n, spacing)
    spec = SweepSpec(kind=kind, grid=grid, detectors=tuple(detectors))
    result = run_sweep(config, spec)
    _emit_sweep(result, args)


def _cmd_snr_curve(args) -> None:
    _sweep_common(args, "distance", args.rmin, args.rmax, args.n, args.spacing)


def _cmd_sweep(args) -> None:
    lo, hi, n, spacing = _SWEEP_DEFAULTS[args.kind]
    lo = args.min if args.min is not None else lo
    hi = args.max if args.max is not None else hi
    n = args.n if args.n is not None else n
    spacing = args.spacing if args.spacing is not None else spacing
    _sweep_common(args, args.kind, lo, hi, n, spacing)


def _cmd_sipm_response(args) -> None:
    config, _ = _resolve(args, allow_both=True)
    grid = make_grid(args.nmin, args.nmax, args.n, "log")
    spec = SweepSpec(kind="photon_response", grid=grid)
    result = run_sweep(config, spec)
    _emit_sweep(result, args)


def _cmd_optimize_gain(args) -> None:
    config, detectors = _resolve(args)
    apd_dets = [d for d in detectors if isinstance(d, ApdChoice)]
    if not apd_dets:
        raise ConfigError("optimize-gain needs an APD detector")
    det = apd_dets[0]
    p_r, p_rs = ranging.link_powers(config, config.scene.range_m)
    bounds = (args.gain_min, args.gain_max)
    gain_star, snr_star = optimize_gain(det.params, p_rs,
                                        config.bandwidth_hz, bounds, p_r=p_r)
    gain_text, snr_text = format_number(gain_star), format_number(snr_star)
    lines = [f"gain_opt,{gain_text}", f"snr_opt,{snr_text}"]
    if args.out is not None:
        from .apd import trigger_snr

        curve = ["gain,snr"]
        for g in make_grid(bounds[0], bounds[1], args.curve_points, "log"):
            snr = trigger_snr(replace(det.params, gain=g), p_r, p_rs,
                              config.bandwidth_hz)
            curve.append(f"{format_number(g)},{format_number(snr)}")
        curve.append(f"# optimum gain={gain_text} snr={snr_text}")
        _write_lines(curve, args.out)
    _write_lines(lines, None)


def _cmd_sensitivity(args) -> None:
    config, detectors = _resolve(args)
    det = detectors[0]
    names = sorted(SENSITIVITY_PARAMS) if args.param == "all" else [args.param]
    lines = ["parameter,elasticity"]
    for name in names:
        value = sensitivity(config, det, config.tdc, name,
                            rel_step=args.rel_step)
        lines.append(f"{name},{format_number(value)}")
    _write_lines(lines, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dtofsim",
        description="Trigger-SNR and maximum-range analysis for direct "
                    "time-of-flight lidars")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preset", help="write a built-in scenario file")
    p.add_argument("name", help="preset name (table1)")
    _add_common(p)
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("range", help="maximum detectable range")
    _add_common(p)
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser("snr-curve", help="trigger SNR versus distance")
    _add_common(p)
    p.add_argument("--rmin", type=float, default=25.0)
    p.add_argument("--rmax", type=float, default=500.0)
    p.add_argument("--n", type=int, default=96)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.set_defaults(func=_cmd_snr_curve)

    p = sub.add_parser("sweep", help="distance, elevation or illuminance sweep")
    _add_common(p)
    p.add_argument("--kind", choices=("distance", "elevation", "illuminance"),
                   required=True)
    p.add_argument("--min", type=float, default=None)
    p.add_argument("--max", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--spacing", choices=("linear", "log"), default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sipm-response",
                       help="SiPM fired-count response curve families")
    _add_common(p)
    p.add_argument("--nmin", type=float, default=1.0)
    p.add_argument("--nmax", type=float, default=1e5)
    p.add_argument("--n", type=int, default=81)
    p.set_defaults(func=_cmd_sipm_response)

    p = sub.add_parser("optimize-gain",
                       help="APD gain maximizing the trigger SNR")
    _add_common(p)
    p.add_argument("--gain-min", type=float, default=1.0)
    p.add_argument("--gain-max", type=float, default=1000.0)
    p.add_argument("--curve-points", type=int, default=200)
    p.set_defaults(func=_cmd_optimize_gain)

    p = sub.add_parser("sensitivity",
                       help="elasticity of the maximum range")
    _add_common(p)
    p.add_argument("--param", default="all",
                   help="parameter name or 'all'")
    p.add_argument("--rel-step", type=float, default=1e-3)
    p.set_defaults(func=_cmd_sensitivity)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # float ** and math functions raise it where the model's numbers
        # exceed the float range
        print(f"error: a number overflowed: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
