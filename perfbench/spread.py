"""Run every workload under seeds 1..10, untraced, and report per
end-to-end metric the median and the quartile spread as a share of the
median: the figures the README records and the bounds in BENCHMARK.json
are set from.

    python3 perfbench/spread.py

The set goes to perfbench/out/spread.json.  If an earlier set is there, it
moves to perfbench/out/spread-previous.json and each metric's median is
compared with the earlier one: the gap, as a share of the earlier median,
is what a second set of runs of the same commit must keep within the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SEEDS = range(1, 11)


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    previous = None
    if (OUT / "spread.json").exists():
        previous = json.loads((OUT / "spread.json").read_text())
        (OUT / "spread.json").replace(OUT / "spread-previous.json")
    report = {}
    for w in bench["workloads"]:
        name = w["name"]
        runs = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*bench["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["run_s"] = time.perf_counter() - t0
            runs.append(result)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name}: {len(runs)} runs, {statistics.median(r['run_s'] for r in runs):.1f} s "
              f"per run, correct {all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}")
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = f"  {metric:26s} median {med:12.6g}  spread {spread:6.2%}"
            if spread >= bound / 3:
                line += " (over a third of the bound)"
            row = {"median": med, "spread": spread, "values": values}
            if previous and name in previous:
                before = previous[name]["metrics"][metric]["median"]
                row["gap"] = (med - before) / before
                line += f"  gap to the previous set {row['gap']:+6.2%}"
            print(line)
            rows[metric] = row
        report[name] = {"failed_shares": sorted(shares), "metrics": rows,
                        "run_s": [r["run_s"] for r in runs]}
    OUT.mkdir(exist_ok=True)
    (OUT / "spread.json").write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
