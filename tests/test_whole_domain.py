"""Every valid scenario file, every closed-form command: a documented exit.

Scenario files are drawn from the parameter classes' ``_DOMAINS`` tables;
this file states no domain of its own but the spectrum rows, which no
table declares.  Each numeric field is its table1 value, a closed finite
bound of its domain, or a log-uniform draw inside the domain (uniform in
a signed one) with an open end clipped to 10**-8 and 10**8 times the
table1 value (1 where that is 0 or None).  Every name of a name-set row is
drawn: both atmospheres, all three solar modes, both APD excess-noise
modes and the SiPM's analytic and approx modes; the Monte Carlo mode is
left out, since one of its solves takes seconds.

Each file runs ``range``, ``sensitivity --param all``, ``sweep --kind K
--n 5`` for each kind and, for an APD, ``optimize-gain``, in process
through ``cli.main``.  Each must exit 0, 1 or 2 without raising, and write
nothing to stdout unless it exits 0, and then no ``nan`` cell: a trigger
SNR that is not a number exits 1.
"""

import io
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from dtofsim import cli
from dtofsim.apd import ApdParams
from dtofsim.detectors import SipmChoice
from dtofsim.scenario import ScenarioConfig, save_scenario, table1_preset
from dtofsim.scene_link import SolarModel
from dtofsim.sweeps import SWEEP_KINDS

_APD, _SIPM = table1_preset("apd"), table1_preset("sipm")
_CLOSED_FORM = {"snr_mode": ("analytic", "approx")}  # names drawn instead
_SWEEPS = [kind for kind in SWEEP_KINDS if kind != "photon_response"]
# a nan cell of a CSV row, not the substring of a word such as illuminance
_NAN_CELL = re.compile(r"(^|[,:])-?nan(,|$)", re.MULTILINE)


def _field(row, table1):
    """A strategy for the row's field and the function from its draw to
    the value.  A name is drawn as itself.  A number is drawn as ``u`` in
    [0, 1]: the lower half goes to its table1 value and its closed finite
    bounds, evenly, so that ``u`` shrinks towards table1, and the upper
    half is log-uniform inside the domain (uniform in a signed one)."""
    name, _, lo, hi, lo_closed, hi_closed, names = row
    if names is not None:
        return st.sampled_from(_CLOSED_FORM.get(name, names)), lambda v: v
    kept = [b for b, closed in ((table1, table1 is not None),
                                (lo, lo_closed), (hi, hi_closed))
            if closed and math.isfinite(b)]
    centre = abs(table1 or 1.0)
    a = max(-math.inf if lo < 0 else centre * 1e-8,
            lo if lo_closed else math.nextafter(lo, hi))
    b = min(centre * 1e8, hi if hi_closed else math.nextafter(hi, lo))

    def value(u):
        if u < 0.5:
            return kept[int(2 * u * len(kept))]
        t = 2 * u - 1
        return min(max(a + t * (b - a) if a < 0 else a * (b / a) ** t, a), b)
    return st.floats(0.0, 1.0), value


# class -> its fields' names, strategies and values from the draws; the
# SiPM preset differs from the APD one in its detector alone
_FIELDS = {type(obj): [(row[0], *_field(row, getattr(obj, row[0])))
                       for row in obj._DOMAINS]
           for obj in (_APD, _APD.scene, _APD.atmosphere, _APD.optics,
                       _APD.target, _APD.laser, _APD.solar, _APD.tdc,
                       _APD.detector.params, _SIPM.detector,
                       _SIPM.detector.params)}
_DRAWS = {cls: st.tuples(*(strategy for _, strategy, _ in fields))
          for cls, fields in _FIELDS.items()}
# 2 or 3 rows (wavelength_nm, irradiance_w_m2_nm, transmittance), each
# wavelength above the last
_SPECTRA = st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 10.0),
                              st.floats(0.0, 1.0)),
                    min_size=2, max_size=3).map(lambda rows: tuple(
                        (800.0 + 100.0 * i + step, irradiance, t)
                        for i, (step, irradiance, t) in enumerate(rows)))


def _values(draw, cls) -> dict:
    """Every field of ``cls``'s ``_DOMAINS`` table, drawn."""
    return {name: value(v) for (name, _, value), v
            in zip(_FIELDS[cls], draw(_DRAWS[cls]))}


@st.composite
def scenarios(draw) -> ScenarioConfig:
    base = draw(st.sampled_from((_APD, _SIPM)))
    parts = {name: replace(getattr(base, name),
                           **_values(draw, type(getattr(base, name))))
             for name in ("scene", "atmosphere", "optics", "target", "laser",
                          "tdc")}
    solar = _values(draw, SolarModel)
    if solar["mode"] == "spectrum_integral":
        solar["spectrum_table"] = draw(_SPECTRA)
    detector = base.detector
    if isinstance(detector, SipmChoice):
        detector = replace(detector, **_values(draw, SipmChoice))
    detector = replace(detector, params=replace(
        detector.params, **_values(draw, type(detector.params))))
    return replace(base, **_values(draw, ScenarioConfig), **parts,
                   solar=replace(base.solar, **solar), detector=detector)


def _commands(config: ScenarioConfig, path: str) -> list[list[str]]:
    commands = [["range"], ["sensitivity", "--param", "all"],
                *(["sweep", "--kind", kind, "--n", "5"] for kind in _SWEEPS)]
    if isinstance(config.detector.params, ApdParams):
        commands.append(["optimize-gain"])
    return [[*command, "--config", path] for command in commands]


@settings(max_examples=200, deadline=5000, derandomize=True)
@given(config=scenarios())
def test_every_command_exits_with_a_documented_code(config, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("drawn") / "scenario.json")
    save_scenario(config, path)
    for argv in _commands(config, path):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings():
            # the dark-load advisory, which a user reads on stderr
            warnings.simplefilter("ignore", UserWarning)
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err, argv
        assert code == 0 or out == "", (argv, code, err)
        assert not _NAN_CELL.search(out), (argv, out)
