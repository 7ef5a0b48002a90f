#!/usr/bin/env python3
"""Regenerate the committed example configs and golden outputs.

The goldens are this pipeline's own reference values for the headline
comparisons (SNR vs distance, range vs elevation with a cosine aperture,
range vs illuminance, fired-count response curves, range elasticities);
they are regression anchors, not externally measured truth.  Each golden
is the bytes that one ``dtofsim`` command writes with ``--out``; the
table below is the one recipe for each file.  The two cosine-aperture
configs are the presets with ``aperture_model="cosine"``, and
``report_table1.txt`` is the stdout of ``report_table1.py``.  Rerunning
this script must be a no-op unless the model changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import runpy
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dtofsim import cli  # noqa: E402
from dtofsim.errors import replace  # noqa: E402
from dtofsim.scenario import (save_scenario, table1_preset,  # noqa: E402
                              write_lines)


def commands(config_dir: str, golden_dir: str) -> list[tuple[str, list[str]]]:
    """(output file, ``dtofsim`` argv without ``--out``) for each file the
    CLI writes; each sweep runs on its kind's default grid."""
    cosine = []
    for det in ("apd", "sipm"):
        cosine += ["--config", os.path.join(config_dir, f"table1_{det}_cosine.json")]
    table = [(os.path.join(config_dir, f"table1_{det}.json"),
              ["preset", "table1", "--detector", det]) for det in ("apd", "sipm")]
    sweeps = {
        "distance_snr": ["sweep", "--kind", "distance", "--detector", "both"],
        "elevation_rmax": ["sweep", "--kind", "elevation", *cosine],
        "illuminance_rmax": ["sweep", "--kind", "illuminance", "--detector", "both"],
        "sipm_response": ["sipm-response"],
    }
    for name, argv in sweeps.items():
        for fmt in ("csv", "svg"):
            table.append((os.path.join(golden_dir, f"{name}.{fmt}"),
                          [*argv, "--format", fmt]))
    for det in ("apd", "sipm"):
        table.append((os.path.join(golden_dir, f"sensitivity_table1_{det}.csv"),
                      ["sensitivity", "--detector", det, "--param", "all"]))
    return table


def build_outputs(config_dir: str, golden_dir: str) -> list[str]:
    os.makedirs(config_dir, exist_ok=True)
    os.makedirs(golden_dir, exist_ok=True)
    written = []

    for det in ("apd", "sipm"):
        config = table1_preset(det)
        path = os.path.join(config_dir, f"table1_{det}_cosine.json")
        save_scenario(replace(config, optics=replace(
            config.optics, aperture_model="cosine")), path)
        written.append(path)

    for path, argv in commands(config_dir, golden_dir):
        status = cli.main([*argv, "--out", path])
        if status != 0:
            raise RuntimeError(f"dtofsim {' '.join(argv)} exited {status}")
        written.append(path)

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        runpy.run_path(os.path.join(ROOT, "scripts", "report_table1.py"),
                       run_name="__main__")
    report_path = os.path.join(golden_dir, "report_table1.txt")
    write_lines(report.getvalue().splitlines(), report_path)
    written.append(report_path)
    return written


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate the example configs and golden outputs.")
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
