"""Pieces shared by the workloads: operation timing, failure tally, inputs."""

from __future__ import annotations

import bisect
import math
import os
import random
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def rng_for(seed: int, index: int) -> random.Random:
    """Input generator for pass ``index`` of a run seeded with ``seed``."""
    return random.Random(seed * 1_000_003 + index)


class Tally:
    """Attempted operations, failures and the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, problem: str | None) -> bool:
        """Record a failed output check when ``problem`` is a message."""
        if problem is not None:
            self.fail(problem)
        return problem is None


class SpeedReference:
    """Tracks the machine's current speed with a fixed reference loop.

    On a shared host the effective CPU speed wanders by a quarter or more
    over seconds to minutes as other tenants load it, and the wall time of
    the same code follows.  A fixed loop of small numpy operations and
    Python float arithmetic, like the package's inner loops, moves with it.
    The loop is timed between and inside the measured operations (its own
    time is excluded from theirs).

    The work moves less than the loop: fitting log span time against log
    loop time around it on the 2-CPU reference machine gave slopes of
    about 0.8 for a design_space pass, 0.6 for a Monte Carlo range solve
    and 0.5 for a fresh CLI process.  A span is scaled by (nominal loop
    time / median loop time around it) to the power of its workload's
    slope, so reported times stay in seconds at a fixed machine speed.
    """

    NOMINAL_S = 0.015  # the loop's median time on the reference machine
    INTERVAL_S = 0.2
    MARGIN_S = 0.1

    def __init__(self) -> None:
        self.times: list[float] = []      # sample midpoints, increasing
        self.durations: list[float] = []
        self.spent = 0.0                  # total time inside the loop
        self._loop()                      # first calls into numpy are slow

    @staticmethod
    def _loop() -> None:
        dead = np.zeros(400, dtype=np.int64)
        uniform = np.linspace(0.0, 1.0, 400)
        x = 0.0
        for i in range(2000):
            fired = (dead == 0) & (uniform < 0.5)
            np.subtract(dead, 1, out=dead, where=dead > 0)
            dead[fired] = 3
            x += math.sqrt(i + 1.0)

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = perf_counter()
            self._loop()
            t1 = perf_counter()
            self.times.append(0.5 * (t0 + t1))
            self.durations.append(t1 - t0)
            self.spent += t1 - t0

    def speed(self) -> float:
        """Median speed of the loop over the run, as a share of nominal."""
        return self.NOMINAL_S / statistics.median(self.durations)

    def maybe_sample(self) -> None:
        """Sample when the last sample is ``INTERVAL_S`` old."""
        if not self.times or perf_counter() - self.times[-1] >= self.INTERVAL_S:
            self.sample()

    def scaled(self, span: tuple[float, float, float],
               elasticity: float) -> float:
        """Seconds of a (start, end, seconds) span at the nominal speed.

        Uses the samples inside the span or within ``MARGIN_S`` of it, and
        at least the nearest one on each side.
        """
        start, end, seconds = span
        lo = min(bisect.bisect_left(self.times, start - self.MARGIN_S),
                 max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(bisect.bisect_right(self.times, end + self.MARGIN_S),
                 bisect.bisect_right(self.times, end) + 1)
        around = self.durations[lo:hi]
        return seconds * (self.NOMINAL_S
                          / statistics.median(around)) ** elasticity


# how strongly a fresh interpreter's start-up and imports follow the loop
FRESH_PROCESS_ELASTICITY = 0.5


@dataclass
class Context:
    """What a pass needs: the probe recording calls, the failure tally,
    the speed reference (``None`` in traced runs) and the trace flag."""

    probe: object
    tally: Tally
    ref: SpeedReference | None
    traced: bool = False


@dataclass
class PassResult:
    """Timings of one pass over a workload's inputs, as (start, end, s).

    ``ops`` are the user-visible operations the workload reports a median
    and tail of; ``work`` units were completed in ``work_spans``.
    """

    ops: list[tuple[float, float, float]] = field(default_factory=list)
    work: float = 0.0
    work_spans: list[tuple[float, float, float]] = field(default_factory=list)


def attempt(ctx: Context, answers: tuple, fn, *args, **kwargs):
    """Time one operation with the probe recording.

    Returns ``(value, (start, end, seconds))``; the seconds exclude time
    spent sampling the speed reference.  A documented solver outcome in
    ``answers`` comes back as the exception instance for the caller to
    check; any other exception is a failure and comes back as ``None``.
    """
    ctx.tally.attempted += 1
    spent = ctx.ref.spent if ctx.ref else 0.0
    ctx.probe.active = True
    t0 = perf_counter()
    try:
        value = fn(*args, **kwargs)
    except answers as exc:
        value = exc
    except Exception as exc:  # the run must go on and report the failure
        value = None
        ctx.tally.fail(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: "
                       f"{exc} | {traceback.format_exc(limit=-1).strip()}")
    finally:
        t1 = perf_counter()
        ctx.probe.active = False
    sampling = (ctx.ref.spent - spent) if ctx.ref else 0.0
    return value, (t0, t1, t1 - t0 - sampling)


def total(spans) -> tuple[float, float, float]:
    """One span covering ``spans``, with their seconds summed."""
    spans = list(spans)
    return spans[0][0], spans[-1][1], sum(s[2] for s in spans)


def timed_subprocess(argv: list[str], timeout: float = 120.0):
    """Run a child interpreter from the checkout root.

    Returns ``(proc, (start, end, seconds))``.
    """
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    t1 = perf_counter()
    return proc, (t0, t1, t1 - t0)


def scenario_dicts(rng: random.Random) -> tuple[dict, dict]:
    """Seeded (APD, SiPM) table1 scenario files sharing one scene.

    Varies what the model's cost and branches depend on: reflectivity,
    illuminance, elevation and sun angle, fixed transmittance against
    extinction, constant against cosine aperture, and power-law against
    ionization excess noise.  The ranges keep every range solve bounded.
    """
    from dtofsim.scenario import scenario_to_dict, table1_preset

    apd = scenario_to_dict(table1_preset("apd"))
    apd["target"]["reflectivity_pct"] = rng.uniform(5.0, 80.0)
    apd["solar"]["illuminance_klux"] = 10.0 ** rng.uniform(0.0, 2.0)
    apd["scene"]["elevation_angle_deg"] = rng.uniform(-30.0, 30.0)
    apd["scene"]["sun_angle_deg"] = rng.uniform(0.0, 80.0)
    if rng.random() < 0.5:
        apd["atmosphere"] = {"mode": "fixed_transmittance",
                             "one_way_transmittance_pct": rng.uniform(90.0, 99.5)}
    else:
        apd["atmosphere"] = {"mode": "extinction",
                             "extinction_coeff_per_m": 10.0 ** rng.uniform(-4.0, -3.0)}
    apd["optics"]["aperture_model"] = rng.choice(("constant", "cosine"))
    det = apd["detector"]
    if rng.random() < 0.5:
        det["excess_noise_index"] = rng.uniform(0.2, 0.45)
    else:
        det["excess_noise_mode"] = "ionization"
        det["electron_ionization_rate"] = rng.uniform(0.01, 0.1)
    sipm = {key: value for key, value in apd.items() if key != "detector"}
    sipm["detector"] = scenario_to_dict(table1_preset("sipm"))["detector"]
    return apd, sipm


def environment() -> dict:
    """What every result is recorded with: versions, CPUs and commit."""
    from importlib import metadata

    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # the ceiling keeps git from searching above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": commit}
