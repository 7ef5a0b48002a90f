"""Self-test of the benchmark: traced runs repeat their counts exactly.

Runs every workload's traced run twice with the same seed and requires
that both pass their output checks, that the counts a change may rest a
claim on (``ranging.snr_evals_per_solve``, ``apd.optimize_gain_evals``,
``sipm.mc_trials``) are nonzero where the workload exercises them, and
that every count metric is identical across the two runs.

Usage, from the root of a checkout:  python3 perfbench/selftest.py
Exits 0 when every check holds; takes about a minute and a half.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
# workload -> counts it must exercise
EXERCISED = {
    "cli_cold": ("ranging.snr_evals_per_solve", "apd.optimize_gain_evals"),
    "design_space": ("ranging.snr_evals_per_solve", "apd.optimize_gain_evals"),
    "mc_range": ("ranging.snr_evals_per_solve", "sipm.mc_trials"),
}


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    problems = []
    for workload, exercised in EXERCISED.items():
        first, second = traced_run(workload), traced_run(workload)
        for run in (first, second):
            if not run["correct"]:
                problems.append(f"{workload}: {run['failed']} failed checks")
        counts = {k: (v["value"], second["metrics"][k]["value"])
                  for k, v in first["metrics"].items() if v["unit"] == "count"}
        for name, (a, b) in counts.items():
            if a != b:
                problems.append(f"{workload}: {name} {a!r} then {b!r}")
        for name in exercised:
            if not counts[name][0] > 0:
                problems.append(f"{workload}: {name} is zero")
        print(f"{workload}: " + ", ".join(f"{n}={counts[n][0]:g}"
                                          for n in exercised))
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
