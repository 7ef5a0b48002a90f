"""The functions the benchmark's tracer patches must exist where it looks.

``perfbench/tracer.py`` replaces each listed module attribute with a
wrapper; a name one of those modules stops importing would crash every
traced run, so every binding is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dtofsim import ranging, table1_preset

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


@pytest.mark.parametrize("span", sorted(tracer.TARGETS))
def test_target_binds_one_callable(span):
    attr, modules = tracer.TARGETS[span]
    bound = [getattr(importlib.import_module(name), attr, None)
             for name in modules]
    assert callable(bound[0]), f"{modules[0]}.{attr} is not callable"
    # every module must hold the defining module's function, or the
    # tracer would patch a name the program does not call
    assert all(fn is bound[0] for fn in bound), f"{attr} differs by module"


@pytest.mark.parametrize("variant", ["apd", "sipm"])
def test_every_link_evaluation_goes_through_link_powers(monkeypatch,
                                                        variant):
    # the tracer's scene_link.link_powers span counts calls of this module
    # attribute; a solve that reached the link another way would hide them
    calls = 0
    link_powers = ranging.link_powers

    def counted(*args):
        nonlocal calls
        calls += 1
        return link_powers(*args)

    monkeypatch.setattr(ranging, "link_powers", counted)
    config = table1_preset(variant)
    res = ranging.max_range(config, config.detector, config.tdc)
    # one call per SNR evaluation and one for the powers at r_max
    assert calls == res.evaluations + 1
