"""Self-test of the benchmark, a few seconds long.

    python3 perfbench/selftest.py

1. The reference's decomposition values agree with its brute force on
   rings small enough to multiply out.
2. Every workload runs at toy size, untraced and traced, checks out
   correct, and emits exactly the metric names and units BENCHMARK.json
   declares for that mode.
3. Without the program's sources the benchmark exits non-zero and prints
   no result.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"selftest: FAIL {message}")


def m2_brute_counts(q: int, side: str) -> list[int]:
    """Census of M_2(F_q) for prime q by multiplying every pair of matrices."""
    mats = list(itertools.product(range(q), repeat=4))

    def mul(a, b):
        return ((a[0] * b[0] + a[1] * b[2]) % q, (a[0] * b[1] + a[1] * b[3]) % q,
                (a[2] * b[0] + a[3] * b[2]) % q, (a[2] * b[1] + a[3] * b[3]) % q)

    counts = [0] * 5
    for x in mats:
        size = sum(1 for a in mats
                   if (side == "right" or not any(mul(a, x)))
                   and (side == "left" or not any(mul(x, a))))
        counts[_log(size, q)] += 1
    return counts


def _log(size: int, q: int) -> int:
    k = 0
    while size > 1:
        size //= q
        k += 1
    return k


def reference_consistency() -> None:
    for coeff, group in [("F:2", "C:4"), ("F:2", "C:6"), ("F:3", "C:3"), ("F:4", "C:3"),
                         ("F:3", "C:4"), ("F:5", "C:2"), ("F:9", "C:2"), ("F:2", "S3"),
                         ("F:2", "Q8"), ("Z:4", "C:3"), ("Z:9", "C:2")]:
        for side, relation in (("left", "ab=0"), ("twosided", "ab=0&ba=0")):
            if (group, side) == ("Q8", "left"):
                continue  # no decomposition value: the brute force is the reference
            got = ref.zero_pairs(coeff, group, side)
            want = ref.brute_pair_count(coeff, group, relation)
            check(got == want, f"reference {coeff} {group} {side}: {got} != brute {want}")
    for q in (2, 3):
        for side in ref.SIDES:
            check(ref.m2_counts(q, side) == m2_brute_counts(q, side),
                  f"reference M2(F_{q}) {side}")


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def toy_workloads() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            proc = run([*bench["command"], "--workload", w["name"], "--seed", "7",
                        "--seconds", "0", "--trace", str(trace), "--toy"], ROOT)
            where = f"{w['name']} trace {trace}"
            check(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{where}: outputs incorrect\n{proc.stderr}")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared, f"{where}: metrics {sorted(got)} != {sorted(declared)}")
            # F:3^8 C:1 fails at both worker counts: 2 of the 10 toy operations
            want_failed = result["attempted"] // 5 if w["name"] == "census-char2-ext" else 0
            check(result["failed"] == want_failed, f"{where}: {result['failed']} failed")
            print(f"selftest: {where}: ok ({result['attempted']} operations)")


def without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run([*bench["command"], "--workload", bench["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "ran without the program's sources")
    check(not proc.stdout.strip(), "printed a result without the program's sources")
    print("selftest: no sources: exits", proc.returncode)


def main() -> None:
    reference_consistency()
    print("selftest: reference values agree with the brute force")
    toy_workloads()
    without_sources()
    print("selftest: ok")


if __name__ == "__main__":
    main()
