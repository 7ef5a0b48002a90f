#!/usr/bin/env python3
"""Benchmark of the dtofsim toolkit, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli_cold,design_space,mc_range,all}
                             --seed N --seconds S --trace {0,1}

Workloads (see each module's docstring for why it was chosen):
  cli_cold      README commands as fresh ``python -m dtofsim.cli`` processes
  design_space  warm in-process analytic max_range / optimize_gain /
                sensitivity / sweeps over seeded table1 scenarios
  mc_range      warm in-process SiPM Monte Carlo range and SNR points

All load comes from this one process: operations run one after another in
a closed loop with one client, with ``workers=1``.  Every output is checked.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's public functions, runs traced and untraced passes alternately
and prints the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object; the lines before it are the human
report.  A record of each run, with its environment, is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cli_cold", "design_space", "mc_range")
SETUP_PROBES = 7     # fresh processes timed for setup_s; the median counts
IMPORT_PROBES = 3    # -X importtime runs for the import layer


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when that percentile would be below
    the 75th (fewer than 40 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 40:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _setup_probe_argv(name: str, module, seed: int) -> list[str]:
    probe = getattr(module, "SETUP_PROBE", None)
    if probe is not None:
        return probe
    return [os.path.join("perfbench", "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-probe"]


def _measure(name, module, seed, seconds, harness, tracer, tally):
    """Untraced run: end-to-end metrics and their report lines."""
    ref = harness.SpeedReference()
    setup_spans = []
    for _ in range(SETUP_PROBES):
        ref.sample(repeats=3)
        proc, span = harness.timed_subprocess(
            _setup_probe_argv(name, module, seed))
        tally.attempted += 1
        tally.check(None if proc.returncode == 0 else
                    f"setup probe exit {proc.returncode}: {proc.stderr}")
        setup_spans.append(span)
    ref.sample(repeats=3)
    state = module.setup(seed, tally)
    ctx = harness.Context(tracer.Tracer(spans=False, after=ref.maybe_sample),
                          tally, ref)
    results = []
    start = perf_counter()
    with ctx.probe.installed(module.WORK_TARGETS):
        while (len(results) < module.MIN_PASSES
               or perf_counter() - start < seconds):
            ref.maybe_sample()
            results.append(module.run_pass(state, len(results), ctx))
            ref.sample()
    module.close_state(state)

    fresh, beta = harness.FRESH_PROCESS_ELASTICITY, module.SPEED_ELASTICITY
    setup = [ref.scaled(s, fresh) for s in setup_spans]
    ops = [ref.scaled(s, beta) for r in results for s in r.ops]
    raw_ops = [s[2] for r in results for s in r.ops]
    work = sum(r.work for r in results)
    work_time = sum(ref.scaled(s, beta) for r in results for s in r.work_spans)
    raw_work_time = sum(s[2] for r in results for s in r.work_spans)
    tail, pct = _tail(ops)
    rss_mb = resource.getrusage(module.RSS_WHO).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_tail_s": (tail, "s"),
        "work_per_s": (work / work_time, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    aliases = module.ALIASES
    error_rate = tally.failed / max(tally.attempted, 1)
    lines = [
        f"machine speed: {ref.speed():.3f} of nominal (reference loop); "
        f"times are scaled to nominal speed, raw wall times in brackets",
        f"setup_s = {metrics['setup_s'][0]:.4f} s "
        f"[{statistics.median(s[2] for s in setup_spans):.4f}] "
        f"(median of {len(setup)} fresh processes)",
        f"{aliases['op_p50_s']} = {metrics['op_p50_s'][0]:.4f} s "
        f"[{statistics.median(raw_ops):.4f}] (median of {len(ops)} "
        f"{module.OP_NOUN})",
        f"{aliases['op_tail_s']} = {tail:.4f} s [{_tail(raw_ops)[0]:.4f}] "
        f"(p{pct:.0f} of {len(ops)} {module.OP_NOUN})",
        f"{aliases['work_per_s']} = {metrics['work_per_s'][0]:.4f} 1/s "
        f"[{work / raw_work_time:.4f}] ({work:g} {module.WORK_NOUN} in "
        f"{raw_work_time:.2f} s)",
        f"peak_rss_mb = {rss_mb:.1f} MB",
        f"error_rate = {error_rate:.4g} ratio "
        f"({tally.failed} failed of {tally.attempted} attempted)",
    ]
    record = {"setup_samples_s": setup, "op_samples_s": ops,
              "tail_percentile": pct, "passes": len(results),
              "speed": ref.speed(),
              "setup_spans": setup_spans,
              "op_spans": [s for r in results for s in r.ops],
              "work_spans": [s for r in results for s in r.work_spans],
              "work": work,
              "reference": list(zip(ref.times, ref.durations))}
    return metrics, lines, record


def _measure_traced(name, module, seed, seconds, harness, tracer, tally):
    """Traced run: per-layer metrics, tracing overhead and the spans.

    Times here are raw wall times; the overhead compares untraced and
    traced passes run alternately, so both see the same machine speed.
    """
    metrics = {key: (value, "s") for key, value in tracer.import_times(
        sys.executable, harness.child_env(), ROOT, IMPORT_PROBES).items()}
    state = module.setup(seed, tally)
    plain = harness.Context(tracer.Tracer(spans=False), tally, None)
    traced = harness.Context(tracer.Tracer(spans=True), tally, None,
                             traced=True)
    summary: Counter = Counter()
    first_pass: list[list] = []
    plain_time = traced_time = 0.0
    pairs = 0
    start = perf_counter()
    # every pass runs the inputs of pass 0, so per-pass counts repeat
    while pairs < 1 or perf_counter() - start < seconds:
        with plain.probe.installed(module.WORK_TARGETS):
            result = module.run_pass(state, 0, plain)
        plain_time += sum(s[2] for s in result.work_spans)
        with traced.probe.installed():
            result = module.run_pass(state, 0, traced)
        traced_time += sum(s[2] for s in result.work_spans)
        pass_spans = traced.probe.drain()
        summary.update(tracer.summarize(pass_spans))
        if not first_pass:
            first_pass = pass_spans
        pairs += 1
    module.close_state(state)

    metrics.update(tracer.layer_metrics(summary, pairs))
    metrics["trace.overhead_ratio"] = (traced_time / plain_time - 1.0, "ratio")
    lines = [f"{key} = {value:.6g} {unit}"
             for key, (value, unit) in metrics.items()]
    lines.append(f"({pairs} traced and {pairs} untraced passes)")
    record = {"pairs": pairs, "untraced_s": plain_time, "traced_s": traced_time,
              "layer_stats_first_pass": tracer.layer_stats(first_pass),
              "spans_first_pass": first_pass}
    return metrics, lines, record


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import harness, tracer

    module = importlib.import_module(f"perfbench.{name}")
    tally = harness.Tally()
    env = harness.environment()
    # one CPU for this process and its children, so that the speed
    # reference and the work it scales run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    measure = _measure_traced if trace else _measure
    metrics, lines, record = measure(name, module, seed, seconds, harness,
                                     tracer, tally)
    print(f"dtofsim benchmark: workload={name} seed={seed} "
          f"seconds={seconds} trace={int(trace)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(f"  {line}")
    for message in tally.messages:
        print(f"  FAILED: {message}")
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    path = os.path.join(harness.OUT_DIR,
                        f"{name}_seed{seed}_trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": trace, "environment": env,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.messages, **record}, fh)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dtofsim", "__init__.py")):
        print("error: this checkout has no src/dtofsim to benchmark",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        # a fresh process doing only the workload's set-up; timed by the
        # parent from process start to exit
        sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
        from perfbench.harness import Tally

        module = importlib.import_module(f"perfbench.{args.workload}")
        module.close_state(module.setup(args.seed, Tally()))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
