"""The committed configs and goldens must match a fresh regeneration bit
for bit.  The regeneration runs the ``dtofsim`` command of each file
(``make_goldens.commands``) in process, so every CLI-made file is also a
check of that command's bytes."""

import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "make_goldens", ROOT / "scripts" / "make_goldens.py")
make_goldens = importlib.util.module_from_spec(spec)
spec.loader.exec_module(make_goldens)


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    base = tmp_path_factory.mktemp("goldens")
    make_goldens.build_outputs(str(base / "configs"), str(base / "goldens"))
    return base


def committed_files():
    names = []
    for sub in ("configs", "goldens"):
        for path in sorted((ROOT / sub).iterdir()):
            names.append(f"{sub}/{path.name}")
    return names


@pytest.mark.parametrize("name", committed_files())
def test_golden_matches_regeneration(regenerated, name):
    committed = (ROOT / name).read_bytes()
    fresh = (regenerated / name).read_bytes()
    assert committed == fresh, f"{name} drifted from the committed golden"


def test_distance_golden_keeps_detector_ordering():
    lines = (ROOT / "goldens" / "distance_snr.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0] == "range_m,snr_apd,snr_sipm,status"
    for line in lines[1:]:
        _, snr_apd, snr_sipm, _ = line.split(",")
        assert float(snr_apd) > float(snr_sipm)
