"""Every record class against a ``dataclasses.dataclass(frozen=True)`` twin
built from the same annotations, defaults and ``__post_init__``, and the
stdlib ``dataclasses.replace`` against ``errors.replace`` on each record,
which the benchmark's own scripts call."""

import dataclasses
import math

import pytest

from dtofsim import (apd, detectors, ranging, scenario, scene_link, sipm,
                     sweeps, tdc)
from dtofsim.errors import ConfigError, MISSING, fields, replace
from dtofsim.scenario import table1_preset

# the dunders a twin takes from its record; the others are generated
_KEPT = ("__module__", "__doc__", "__annotations__", "__post_init__")

RECORDS = {obj.__name__: obj
           for module in (apd, detectors, ranging, scenario, scene_link,
                          sipm, sweeps, tdc)
           for obj in vars(module).values()
           if isinstance(obj, type) and "__dataclass_fields__" in vars(obj)}


def _twin(cls: type) -> type:
    namespace = {k: v for k, v in vars(cls).items()
                 if not k.startswith("__") or k in _KEPT}
    return dataclasses.dataclass(frozen=True)(
        type(cls.__name__, (), namespace))


TWINS = {name: _twin(cls) for name, cls in RECORDS.items()}

_APD, _SIPM = table1_preset("apd"), table1_preset("sipm")
_APD_DET, _SIPM_DET = _APD.detector, _SIPM.detector
_SPECTRUM = ((890.0, 1.0, 0.5), (920.0, 1.0, 0.5))
_ROW = sweeps.SweepRow(1.0, "apd", 3.0, "ok")

# two unequal objects of every record class
SAMPLES = {
    "ScenarioConfig": (_APD, _SIPM),
    "SceneGeometry": (_APD.scene, scene_link.SceneGeometry(
        range_m=5.0, sun_angle_rad=0.5)),
    "AtmosphereModel": (_APD.atmosphere, scene_link.AtmosphereModel(
        mode="extinction", extinction_coeff_per_m=1e-3)),
    "ReceiverOptics": (_APD.optics, replace(_APD.optics,
                                            aperture_model="cosine")),
    "TargetModel": (_APD.target, scene_link.TargetModel(0.5)),
    "LaserParams": (_APD.laser, replace(_APD.laser, peak_power_w=1.0)),
    "SolarModel": (_APD.solar, scene_link.SolarModel(
        mode="spectrum_integral", spectrum_table=_SPECTRUM)),
    "TdcPolicy": (_APD.tdc, tdc.TdcPolicy(3.0)),
    "ApdChoice": (_APD_DET, detectors.ApdChoice(
        replace(_APD_DET.params, gain=50.0), label="apd50")),
    "ApdParams": (_APD_DET.params, apd.ApdParams(
        10.0, 0.5, 9e-7, excess_noise_mode="ionization",
        electron_ionization_rate=0.02)),
    "NoiseBudget": (apd.NoiseBudget(1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9),
                    apd.NoiseBudget(*[0.0] * 6)),
    "SipmChoice": (_SIPM_DET, detectors.SipmChoice(
        _SIPM_DET.params, "monte_carlo", sipm.SipmMcConfig(n_trials=8))),
    "SipmParams": (_SIPM_DET.params, sipm.SipmParams(100, 0.5, 1e-8)),
    "SipmMcConfig": (sipm.SipmMcConfig(),
                     sipm.SipmMcConfig.for_dead_time(6e-9, seed=3)),
    "PhotonCounts": (sipm.PhotonCounts(1.0, 2.0), sipm.PhotonCounts(0.0, 5.0)),
    "RangeResult": (ranging.RangeResult(92.0, 5.0, 1e-9, 1e-8, 2, 0.0),
                    ranging.RangeResult(1.0, 2.0, 3.0, 4.0, 5, 0.5)),
    "SweepSpec": (sweeps.SweepSpec("distance", (1.0, 2.0), (_APD_DET,)),
                  sweeps.SweepSpec("photon_response", (1.0,))),
    "SweepRow": (_ROW, sweeps.SweepRow(2.0, "sipm", None, "no_detection")),
    "SweepResult": (sweeps.SweepResult("distance", ("apd",), (_ROW,), 5.0),
                    sweeps.SweepResult("photon_response", (), ())),
}

# values a __post_init__ rejects across fields: (class, field, value)
_CROSS_FIELD = [("ApdParams", "excess_noise_mode", "ionization"),
                ("PhotonCounts", "n_b_photon", -1.0),
                ("SweepSpec", "kind", "nope"), ("SweepSpec", "grid", ()),
                ("SweepSpec", "grid", (2.0, 1.0)),
                ("SweepSpec", "detectors", (_APD_DET, _APD_DET)),
                ("SolarModel", "spectrum_table", _SPECTRUM[:1]),
                ("SipmMcConfig", "n_trials", 2.5)]


def _outcome(build):
    """What ``build()`` makes, as a record and its twin both show it, or
    its error."""
    try:
        obj = build()
    except (ConfigError, TypeError) as exc:
        return type(exc), str(exc)
    return repr(obj), hash(obj), list(vars(obj).items())


def _kwargs(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def test_every_record_has_two_unequal_samples():
    assert len(RECORDS) == 19
    assert set(SAMPLES) == set(RECORDS)
    for name, (a, b) in SAMPLES.items():
        assert type(a) is type(b) is RECORDS[name]
        assert a != b


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_defaults_and_match_args_agree(name):
    cls, twin = RECORDS[name], TWINS[name]
    assert cls.__match_args__ == twin.__match_args__
    assert [(f.name, f.default) for f in fields(cls)] == [
        (f.name, MISSING if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(twin)]
    assert dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_construction_repr_hash_and_equality_agree(name):
    cls, twin = RECORDS[name], TWINS[name]
    for obj in SAMPLES[name]:
        kw = _kwargs(obj)
        args = [kw[n] for n in cls.__match_args__]
        required = {f.name: kw[f.name] for f in fields(cls)
                    if f.default is MISSING}
        for build in (lambda c: c(**kw), lambda c: c(*args),
                      lambda c: c(**required)):
            assert _outcome(lambda: build(cls)) == _outcome(
                lambda: build(twin))
        assert cls(*args) == cls(**kw) == obj
    a, b = SAMPLES[name]
    records = [a, b, cls(**_kwargs(a))]
    twins = [twin(**_kwargs(x)) for x in records]
    assert [[x == y for y in records] for x in records] == [
        [x == y for y in twins] for x in twins]
    assert a.__eq__(object()) is NotImplemented
    assert twins[0].__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_out_of_domain_values_raise_the_same_error(name):
    cls, twin = RECORDS[name], TWINS[name]
    kw = _kwargs(SAMPLES[name][0])
    bad = [(field, value) for field in kw for value in (math.nan, -1.0)]
    bad += [(field, value) for key, field, value in _CROSS_FIELD
            if key == name]
    for field, value in bad:
        changed = {**kw, field: value}
        assert _outcome(lambda: cls(**changed)) == _outcome(
            lambda: twin(**changed))
    for row in getattr(cls, "_DOMAINS", ()):
        with pytest.raises(ConfigError, match=f"^{row[0]} must be "):
            cls(**{**kw, row[0]: math.nan})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment_and_deletion_raise(name):
    obj = SAMPLES[name][0]
    twin = TWINS[name](**_kwargs(obj))
    before = dict(vars(obj))
    for field in [*obj.__match_args__, "unknown"]:
        for target in (obj, twin):
            with pytest.raises(AttributeError) as assigned:
                setattr(target, field, 1.0)
            with pytest.raises(AttributeError) as deleted:
                delattr(target, field)
            assert str(assigned.value) == f"cannot assign to field {field!r}"
            assert str(deleted.value) == f"cannot delete field {field!r}"
    assert vars(obj) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_stdlib_replace_equals_errors_replace(name):
    a, b = SAMPLES[name]
    changes = [{}] + [{field: value} for field, value in _kwargs(b).items()]
    for change in changes:
        assert _outcome(lambda: dataclasses.replace(a, **change)) == \
            _outcome(lambda: replace(a, **change))
    assert dataclasses.replace(a, **_kwargs(b)) == replace(a, **_kwargs(b)) \
        == b
