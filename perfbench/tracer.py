"""Spans and call counters around dtofsim's public functions.

The wrappers are installed from outside the package by replacing module
attributes, so the program under test is not edited.  A module that
imports a name directly (``from .ranging import max_range`` in the CLI)
holds its own binding, so every target lists each module that holds it;
patching only the defining module would silently miss those calls.

Spans stay in memory as ``[name, parent_index, t_start, t_end, extra]``
lists and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import re
import statistics
import subprocess
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (attribute name, modules that hold a binding of it)
TARGETS: dict[str, tuple[str, tuple[str, ...]]] = {
    "scenario.load_scenario": ("load_scenario",
                               ("dtofsim.scenario", "dtofsim.cli")),
    "scenario.table1_preset": ("table1_preset",
                               ("dtofsim.scenario", "dtofsim.cli")),
    "scene_link.link_powers": ("link_powers", ("dtofsim.ranging",)),
    "apd.trigger_snr": ("trigger_snr", ("dtofsim.apd",)),
    "apd.optimize_gain": ("optimize_gain", ("dtofsim.apd", "dtofsim.cli")),
    "sipm.analytic_snr": ("trigger_snr_analytic", ("dtofsim.sipm",)),
    "sipm.monte_carlo_snr": ("monte_carlo_snr", ("dtofsim.sipm",)),
    "ranging.snr_at_range": ("snr_at_range", ("dtofsim.ranging",)),
    "ranging.max_range": ("max_range", ("dtofsim.ranging", "dtofsim.cli")),
    "ranging.sensitivity": ("sensitivity", ("dtofsim.ranging", "dtofsim.cli")),
    "sweeps.run_sweep": ("run_sweep", ("dtofsim.sweeps", "dtofsim.cli")),
    "sweeps.emit_csv": ("emit_csv", ("dtofsim.sweeps", "dtofsim.cli")),
    "sweeps.emit_svg": ("emit_svg", ("dtofsim.sweeps", "dtofsim.cli")),
}


def _mc_extra(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return {"trials": bound.arguments["mc"].n_trials,
            "pixels": round(bound.arguments["params"].n_pixels),
            "snr": result[0], "se": result[1]}


def _sweep_extra(fn, args, kwargs, result):
    return {"rows": len(result.rows)}


_EXTRA = {"sipm.monte_carlo_snr": _mc_extra, "sweeps.run_sweep": _sweep_extra}


class Tracer:
    """Wraps the functions in ``TARGETS``; records spans when ``spans``.

    Call counts, Monte Carlo trial counts and the last annotated result of
    each name are kept in both modes, so an untraced run can still count
    range solves and trials at negligible cost; there ``after`` runs after
    each counted call.  Wrappers only record while
    ``active`` is set, which the harness does around the operations it
    times and not around its own output checks.
    """

    def __init__(self, spans: bool, after=None):
        self.record = spans
        self.after = after  # called after each counted call
        self.active = False
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.trials = 0
        self.last: dict[str, dict] = {}
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        extra_fn = _EXTRA.get(name)

        def note(args, kwargs, result):
            extra = extra_fn(fn, args, kwargs, result)
            self.last[name] = extra
            self.trials += extra.get("trials", 0)
            return extra

        if not self.record:
            def counted(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                self.calls[name] += 1
                if extra_fn is not None:
                    note(args, kwargs, result)
                if self.after is not None:
                    self.after()
                return result
            return functools.wraps(fn)(counted)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            rec = [name, self._stack[-1], 0.0, 0.0, None]
            self.spans.append(rec)
            self._stack.append(index)
            self.calls[name] += 1
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self._stack.pop()
            if extra_fn is not None:
                rec[4] = note(args, kwargs, result)
            return result
        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def installed(self, names=None):
        """Patch the named targets (all by default) for the ``with`` body."""
        saved = []
        try:
            for name in TARGETS if names is None else names:
                attr, modules = TARGETS[name]
                original = getattr(importlib.import_module(modules[0]), attr)
                wrapper = self._wrap(name, original)
                for mod_name in modules:
                    module = importlib.import_module(mod_name)
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside an active span of the given name."""
        self.active = True
        try:
            return self._wrap(name, fn)(*args, **kwargs)
        finally:
            self.active = False

    def drain(self) -> list[list]:
        """Hand over the recorded spans and start an empty list."""
        spans, self.spans = self.spans, []
        return spans

    def absorb(self, spans: list[list]) -> None:
        """Append spans recorded by another process, re-indexing parents."""
        offset = len(self.spans)
        for name, parent, t0, t1, extra in spans:
            self.spans.append([name, parent + offset if parent >= 0 else -1,
                               t0, t1, extra])
            self.calls[name] += 1
            if extra:
                self.trials += extra.get("trials", 0)


def layer_stats(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self time (s).

    Self time is a span's duration minus the time its direct children
    cover; children never overlap because calls are sequential.
    """
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                "self_s": 0.0})
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += t1 - t0
        entry["self_s"] += t1 - t0 - child_time[i]
    return dict(out)


def summarize(spans: list[list]) -> Counter:
    """Reduce one traced pass to sums that add up across passes."""
    out: Counter = Counter()
    for name, parent, t0, t1, extra in spans:
        out[f"calls:{name}"] += 1
        out[f"time:{name}"] += t1 - t0
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "ranging.snr_at_range" and parent_name == "ranging.max_range":
            out["solve_evals"] += 1
        elif name == "apd.trigger_snr" and parent_name == "apd.optimize_gain":
            out["gain_evals"] += 1
        elif name == "sweeps.run_sweep" and extra:
            out["rows"] += extra["rows"]
        elif name == "sipm.monte_carlo_snr" and extra:
            out["mc_trials"] += extra["trials"]
            out["mc_time"] += t1 - t0
    # the last Monte Carlo evaluation inside each solve is the one at r_max
    root_se: dict[int, float] = {}
    for name, parent, _, _, extra in spans:
        if name == "sipm.monte_carlo_snr" and extra and parent >= 0:
            grand = spans[parent][1]
            if grand >= 0 and spans[grand][0] == "ranging.max_range":
                root_se[grand] = extra["se"]
    out["root_se_sum"] += sum(root_se.values())
    out["root_se_n"] += len(root_se)
    return out


def layer_metrics(summary: Counter, passes: int) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json``, as (value, unit).

    Counts are per pass; every traced pass runs the same inputs, so they
    repeat exactly.  Times are means per call.
    """
    def calls(name: str) -> int:
        return summary[f"calls:{name}"]

    def mean(name: str, scale: float) -> float:
        n = calls(name)
        return summary[f"time:{name}"] / n * scale if n else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    emits = ("sweeps.emit_csv", "sweeps.emit_svg")
    return {
        "cli.main_s": (mean("cli.main", 1.0), "s"),
        "scenario.load_s": (mean("scenario.load_scenario", 1.0), "s"),
        "scenario.load_scenario_calls": (
            calls("scenario.load_scenario") / passes, "count"),
        "scenario.table1_preset_calls": (
            calls("scenario.table1_preset") / passes, "count"),
        "scene_link.link_powers_us": (mean("scene_link.link_powers", 1e6), "us"),
        "scene_link.link_powers_calls": (
            calls("scene_link.link_powers") / passes, "count"),
        "apd.trigger_snr_us": (mean("apd.trigger_snr", 1e6), "us"),
        "apd.optimize_gain_ms": (mean("apd.optimize_gain", 1e3), "ms"),
        "apd.optimize_gain_evals": (
            ratio(summary["gain_evals"], calls("apd.optimize_gain")), "count"),
        "sipm.analytic_snr_us": (mean("sipm.analytic_snr", 1e6), "us"),
        "sipm.mc_calls": (calls("sipm.monte_carlo_snr") / passes, "count"),
        "sipm.mc_trials": (summary["mc_trials"] / passes, "count"),
        "sipm.mc_ms_per_trial": (
            ratio(summary["mc_time"] * 1e3, summary["mc_trials"]), "ms"),
        "sipm.mc_se_at_root": (
            ratio(summary["root_se_sum"], summary["root_se_n"]), "snr"),
        "ranging.max_range_ms": (mean("ranging.max_range", 1e3), "ms"),
        "ranging.sensitivity_ms": (mean("ranging.sensitivity", 1e3), "ms"),
        "ranging.snr_evals_per_solve": (
            ratio(summary["solve_evals"], calls("ranging.max_range")), "count"),
        "sweeps.run_sweep_ms": (mean("sweeps.run_sweep", 1e3), "ms"),
        "sweeps.rows": (summary["rows"] / passes, "count"),
        "sweeps.emit_ms": (
            ratio(sum(summary[f"time:{n}"] for n in emits) * 1e3,
                  sum(calls(n) for n in emits)), "ms"),
    }


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(python: str, env: dict, cwd: str, repeats: int) -> dict:
    """Cumulative import times of dtofsim, scipy and numpy, median seconds.

    From ``python -X importtime -c 'import dtofsim'``.  numpy is first
    imported from inside scipy today, so ``import.scipy_s`` excludes the
    numpy time nested in it; dropping scipy then leaves numpy's share.
    """
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c",
                               "import dtofsim"], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        # output is post-order; reversed, each entry follows its ancestors
        entries = [(len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6)
                   for m in map(_IMPORTTIME.match, proc.stderr.splitlines())
                   if m]
        totals = Counter()
        stack: list[tuple[int, str]] = []
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            top = name.split(".")[0]
            ancestors = {a.split(".")[0] for _, a in stack}
            if top in ("numpy", "scipy", "dtofsim") and top not in ancestors:
                totals[top] += cumulative
                if top == "numpy" and "scipy" in ancestors:
                    totals["scipy"] -= cumulative
            stack.append((depth, name))
        for top in ("dtofsim", "scipy", "numpy"):
            samples[top].append(totals[top])
    return {f"import.{top}_s": statistics.median(values)
            for top, values in samples.items()}
