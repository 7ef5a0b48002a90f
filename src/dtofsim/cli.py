"""Command-line interface.

Exit codes: 0 success, 1 validation or usage error, 2 solver failure on
every grid point (or a direct solver failure), 3 I/O error.  All output,
stdout and files alike, is byte deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import ranging
from .apd import optimize_gain
from .detectors import ApdChoice, DetectorChoice
from .errors import ConfigError, SolverError
from .ranging import SENSITIVITY_PARAMS, declares, max_range, sensitivity
from .scenario import (ScenarioConfig, load_scenario, save_scenario,
                       table1_preset, write_lines)
from .sweeps import (SWEEP_KINDS, SweepSpec, emit_csv, emit_svg,
                     format_number, make_grid, run_sweep)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as validation errors (exit 1), not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


class _AppendOnce(argparse.Action):
    """``action="append"`` for a flag that may be given only once."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest):
            parser.error(f"argument {option_string}: may be given only once")
        setattr(namespace, self.dest, [values])


def _add_scenario(parser: argparse.ArgumentParser, config_action,
                  detectors: tuple[str, ...] = ("apd", "sipm")) -> None:
    """``--config`` and ``--detector``, which exclude each other."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--config", action=config_action, default=[],
                       help="scenario file" if config_action is _AppendOnce
                       else "scenario file; repeat to add each file's "
                            "detector on the first file's scene")
    # the default is None, not "apd": argparse sees no conflict when the
    # given value is the default object itself
    group.add_argument("--detector", choices=detectors,
                       help="detector variant of the built-in preset "
                            "(default apd)")


def _add_output(parser: argparse.ArgumentParser, formats: bool = False) -> None:
    parser.add_argument("--out", help="output file path")
    if formats:
        parser.add_argument("--format", choices=("csv", "svg"), default="csv",
                            help="output file format (default csv; svg "
                                 "needs --out)")


def _resolve(paths: list[str], detector: str | None) \
        -> tuple[ScenarioConfig, list[DetectorChoice]]:
    """Scenario plus detector list from scenario files or a preset variant."""
    if paths:
        configs = [load_scenario(p) for p in paths]
        detectors = [c.detector for c in configs]
        labels = [d.label for d in detectors]
        if len(set(labels)) != len(labels):
            detectors = [replace(d, label=f"{d.label}{i}") if labels.count(d.label) > 1
                         else d for i, d in enumerate(detectors)]
        return configs[0], detectors
    base = table1_preset("sipm" if detector == "sipm" else "apd")
    dets = [base.detector]
    if detector == "both":
        dets.append(table1_preset("sipm").detector)
    return base, dets


def _grid(kind: str, lo, hi, n, spacing=None) -> tuple[float, ...]:
    """The grid from the given bounds, each absent one from the kind's."""
    given = (lo, hi, n, spacing)
    return make_grid(*(default if value is None else value
                       for value, default in zip(given, SWEEP_KINDS[kind].grid)))


def _emit_sweep(args, config: ScenarioConfig | None,
                spec: SweepSpec) -> None:
    """Run the sweep and write it to --out, or as CSV to stdout."""
    if args.format == "svg" and args.out is None:
        raise ConfigError("--format svg needs --out")
    result = run_sweep(config, spec)
    if all(r.value is None for r in result.rows):
        raise SolverError("the solver failed at every grid point")
    (emit_svg if args.format == "svg" else emit_csv)(result, args.out)


def _cmd_preset(args) -> None:
    if args.name != "table1":
        raise ConfigError(f"unknown preset {args.name!r}")
    save_scenario(table1_preset(args.detector), args.out)


def _cmd_range(args) -> None:
    config, detectors = _resolve(args.config, args.detector)
    lines = ["detector,r_max_m,snr_at_rmax,min_detectable_power_w,"
             "background_power_w,evaluations,snr_se"]
    for det in detectors:
        res = max_range(config, det, config.tdc)
        numbers = (res.r_max_m, res.snr_at_rmax, res.min_detectable_power_w,
                   res.background_power_w)
        lines.append(",".join([det.label, *map(format_number, numbers),
                               str(res.evaluations),
                               format_number(res.snr_se)]))
    write_lines(lines, args.out)


def _cmd_sweep(args) -> None:
    config, detectors = _resolve(args.config, args.detector)
    grid = _grid(args.kind, args.min, args.max, args.n, args.spacing)
    _emit_sweep(args, config, SweepSpec(kind=args.kind, grid=grid,
                                        detectors=tuple(detectors)))


def _cmd_sipm_response(args) -> None:
    grid = _grid("photon_response", args.nmin, args.nmax, args.n)
    # the response families set their own SiPM parameters
    _emit_sweep(args, None, SweepSpec(kind="photon_response", grid=grid))


def _cmd_optimize_gain(args) -> None:
    config, (det,) = _resolve(args.config, args.detector)
    if not isinstance(det, ApdChoice):
        raise ConfigError("optimize-gain needs an APD detector")
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
        write_lines(curve, args.out)
    write_lines(lines, None)


def _cmd_sensitivity(args) -> None:
    config, (det,) = _resolve(args.config, args.detector)
    names = sorted(SENSITIVITY_PARAMS) if args.param == "all" else [args.param]
    # --param all keeps its 0.0 rows for the other detector's parameters
    if args.param in SENSITIVITY_PARAMS \
            and not declares(config, det, config.tdc, args.param):
        kind = "apd" if isinstance(det, ApdChoice) else "sipm"
        raise ConfigError(f"no object of this scenario with its {kind} "
                          f"detector declares {args.param!r}, so it has no "
                          "elasticity")
    lines = ["parameter,elasticity"]
    for name in names:
        value = sensitivity(config, det, config.tdc, name)
        lines.append(f"{name},{format_number(value)}")
    write_lines(lines, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dtofsim",
        description="Trigger-SNR and maximum-range analysis for direct "
                    "time-of-flight lidars")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preset", help="write a built-in scenario file")
    p.add_argument("name", help="preset name (table1)")
    p.add_argument("--detector", choices=("apd", "sipm"), default="apd",
                   help="detector variant (default apd)")
    _add_output(p)
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("range", help="maximum detectable range")
    _add_scenario(p, "append")
    _add_output(p)
    p.set_defaults(func=_cmd_range)

    # grid flags default to None, which takes the sweep kind's default grid
    p = sub.add_parser("snr-curve", help="trigger SNR versus distance")
    _add_scenario(p, "append", ("apd", "sipm", "both"))
    _add_output(p, formats=True)
    p.add_argument("--rmin", dest="min", type=float, metavar="RMIN")
    p.add_argument("--rmax", dest="max", type=float, metavar="RMAX")
    p.add_argument("--n", type=int)
    p.add_argument("--spacing", choices=("linear", "log"))
    p.set_defaults(func=_cmd_sweep, kind="distance")

    p = sub.add_parser("sweep", help="distance, elevation or illuminance sweep")
    _add_scenario(p, "append", ("apd", "sipm", "both"))
    _add_output(p, formats=True)
    p.add_argument("--kind", required=True,
                   choices=[k for k in SWEEP_KINDS if k != "photon_response"])
    p.add_argument("--min", type=float)
    p.add_argument("--max", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--spacing", choices=("linear", "log"))
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sipm-response",
                       help="SiPM fired-count response curve families")
    _add_output(p, formats=True)
    p.add_argument("--nmin", type=float)
    p.add_argument("--nmax", type=float)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_sipm_response)

    p = sub.add_parser("optimize-gain",
                       help="APD gain maximizing the trigger SNR")
    _add_scenario(p, _AppendOnce)
    _add_output(p)
    p.add_argument("--gain-min", type=float, default=1.0)
    p.add_argument("--gain-max", type=float, default=1000.0)
    p.add_argument("--curve-points", type=int, default=200)
    p.set_defaults(func=_cmd_optimize_gain)

    p = sub.add_parser("sensitivity",
                       help="elasticity of the maximum range")
    _add_scenario(p, _AppendOnce)
    _add_output(p)
    p.add_argument("--param", default="all",
                   help="parameter name or 'all'")
    p.set_defaults(func=_cmd_sensitivity)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # float ** and math functions overflow past the float range, and a
        # division fails where its divisor underflowed to 0
        print(f"error: a number overflowed or underflowed: {exc}", file=sys.stderr)
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
