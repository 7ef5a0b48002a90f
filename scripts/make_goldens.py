#!/usr/bin/env python3
"""Regenerate the committed example configs and golden sweep outputs.

The goldens are this pipeline's own reference values for the headline
comparisons (SNR vs distance, range vs elevation with a cosine aperture,
range vs illuminance, fired-count response curves); they are regression
anchors, not externally measured truth.  The stdout of
``report_table1.py`` and the bytes of ``dtofsim sensitivity --param all``
for each table1 preset are kept beside them.  Rerunning this script must
be a no-op unless the model changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import runpy
import sys
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dtofsim import cli  # noqa: E402
from dtofsim.scenario import save_scenario, table1_preset  # noqa: E402
from dtofsim.sweeps import (SWEEP_KINDS, SweepSpec, emit_csv,  # noqa: E402
                            emit_svg, make_grid, run_sweep)

def build_outputs(config_dir: str, golden_dir: str) -> list[str]:
    os.makedirs(config_dir, exist_ok=True)
    os.makedirs(golden_dir, exist_ok=True)
    written = []

    apd = table1_preset("apd")
    sipm = table1_preset("sipm")
    cosine = {"aperture_model": "cosine"}
    apd_cos = replace(apd, optics=replace(apd.optics, **cosine))
    sipm_cos = replace(sipm, optics=replace(sipm.optics, **cosine))

    for name, config in (("table1_apd", apd), ("table1_sipm", sipm),
                         ("table1_apd_cosine", apd_cos),
                         ("table1_sipm_cosine", sipm_cos)):
        path = os.path.join(config_dir, f"{name}.json")
        save_scenario(config, path)
        written.append(path)

    # each sweep on its kind's default grid, the one the CLI uses
    sweeps = {
        "distance_snr": (apd, "distance", (apd.detector, sipm.detector)),
        "elevation_rmax": (apd_cos, "elevation",
                           (apd_cos.detector, sipm_cos.detector)),
        "illuminance_rmax": (apd, "illuminance", (apd.detector, sipm.detector)),
        "sipm_response": (sipm, "photon_response", ()),
    }
    for name, (config, kind, detectors) in sweeps.items():
        spec = SweepSpec(kind=kind, grid=make_grid(*SWEEP_KINDS[kind].grid),
                         detectors=detectors)
        result = run_sweep(config, spec)
        csv_path = os.path.join(golden_dir, f"{name}.csv")
        svg_path = os.path.join(golden_dir, f"{name}.svg")
        emit_csv(result, csv_path)
        emit_svg(result, svg_path)
        written.extend([csv_path, svg_path])

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        runpy.run_path(os.path.join(ROOT, "scripts", "report_table1.py"),
                       run_name="__main__")
    report_path = os.path.join(golden_dir, "report_table1.txt")
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.getvalue())
    written.append(report_path)

    for detector in ("apd", "sipm"):
        path = os.path.join(golden_dir, f"sensitivity_table1_{detector}.csv")
        status = cli.main(["sensitivity", "--detector", detector,
                           "--param", "all", "--out", path])
        if status != 0:
            raise RuntimeError(f"dtofsim sensitivity exited {status}")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate the example configs and golden sweeps.")
    parser.add_argument(
        "root", nargs="?", default=ROOT,
        help="write configs/ and goldens/ under this directory, to compare "
             "with the committed ones (default: the repository, in place)")
    root = parser.parse_args(argv).root
    for path in build_outputs(os.path.join(root, "configs"),
                              os.path.join(root, "goldens")):
        print(f"wrote {os.path.relpath(path, root)}")


if __name__ == "__main__":
    main()
