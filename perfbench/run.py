"""Benchmark for nullity: census, rank-free cross-check and CLI workloads.

    python3 perfbench/run.py --workload census-prime --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run measures set-up in fresh interpreters, builds the workload in this
process, repeats whole passes over its operations for about ``--seconds``,
checking every output against ``reference``, and measures set-up again.  With
``--trace 1`` the passes run with spans installed and it reports layer
self times from the spans instead of the end-to-end metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_PROBES = 6  # before the passes, and as many after them


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def locate_program() -> None:
    """Put the checkout's src/ first on the path and make sure that is the
    nullity that will be measured, without importing it yet."""
    src = ROOT / "src"
    if not (src / "nullity" / "__init__.py").is_file():
        fail(f"no nullity sources under {src}")
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("nullity")
    if spec is None or Path(spec.origin).resolve().parent != (src / "nullity").resolve():
        fail(f"nullity does not resolve to {src / 'nullity'}")


def provenance(args, passes: int) -> dict:
    import workloads
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode())
        src_hash.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "toy": args.toy, "passes": passes,
            "git_sha": git_sha, "src_sha256": src_hash.hexdigest(),
            "nproc": workloads.NPROC, "workers": list(workloads.WORKERS),
            "python": platform.python_version(), "numpy": metadata.version("numpy")}


def measure_setup(name: str, toy: bool, probes: int) -> list[tuple[float, float]]:
    """Fresh interpreters that import nullity and build the workload's rings
    and groups: each one's wall time, timed from outside, and the time its
    import took, as the probe reports it."""
    import workloads
    cmd = [sys.executable, str(HERE / "probe.py"), name, "1" if toy else "0"]
    out = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=workloads.child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=150)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        out.append((elapsed, float(proc.stdout)))
    return out


class PassResult:
    def __init__(self):
        self.op_times: dict[str, float] = {}  # label -> seconds, operations that ran
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_pass(plan, tracer, run_prefix: str, reported: set) -> PassResult:
    from workloads import Mismatch
    res = PassResult()
    outputs = {}
    for i, op in enumerate(plan.ops):
        if tracer is not None:
            tracer.run_id = f"{run_prefix}:{i}"
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # the operation failed; count it and go on
            res.failed += 1
            if op.label not in reported:
                reported.add(op.label)
                print(f"perfbench: FAILED {op.label}\n{traceback.format_exc()}",
                      file=sys.stderr)
            continue
        elapsed = time.perf_counter() - t0
        res.op_times[op.label] = elapsed
        outputs[op.label] = out
        try:
            op.check(out)
        except Mismatch as exc:
            res.errors.append(f"{op.label}: {exc}")
    for check in plan.cross_checks:
        try:
            check(outputs)
        except Mismatch as exc:
            res.errors.append(str(exc))
    return res


def op_medians(plan, passes: list[PassResult]) -> dict:
    """Each operation's median time over the passes in which it ran."""
    out = {}
    for op in plan.ops:
        times = [p.op_times[op.label] for p in passes if op.label in p.op_times]
        if times:
            out[op.label] = statistics.median(times)
    return out


def census_rate(plan, medians: dict, workers: int) -> float:
    ops = [op for op in plan.ops if op.census_workers == workers and op.label in medians]
    return sum(op.elements for op in ops) / sum(medians[op.label] for op in ops)


def peak_rss_mib(name: str) -> float:
    # cli-sweep does its work in child processes: the largest of them
    who = resource.RUSAGE_CHILDREN if name == "cli-sweep" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(name: str, plan, passes: list[PassResult], setup: list[float]) -> dict:
    import workloads
    medians = op_medians(plan, passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(medians.values()),
        "census_elements_per_s": census_rate(plan, medians, workloads.WORKERS[0]),
        "census_elements_per_s_1w": census_rate(plan, medians, 1),
        "peak_rss_mib": peak_rss_mib(name),
    }


def more_passes(start: float, seconds: float, pass_times: list[float]) -> bool:
    """Whole passes only: go on while another pass brings the total nearer
    to the requested length than stopping now would."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.mean(pass_times) / 2 < seconds


def run_workload(args) -> dict:
    import tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    # Set-up is probed before and after the passes, so that its median spans
    # the run rather than one stretch of machine speed; the first probe only
    # fills bytecode caches.
    probes = 1 if args.toy else SETUP_PROBES
    measure_setup(args.workload, args.toy, 1)
    setup = measure_setup(args.workload, args.toy, probes)
    tracer = tracing.Tracer() if args.trace else None
    wl.import_modules()
    if tracer:
        tracer.install()
    ctx = wl.setup(args.toy)
    plan = wl.plan(ctx, random.Random(args.seed), in_process=bool(args.trace))

    passes, reported, pass_times = [], set(), []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(plan, tracer, f"pass{len(passes)}", reported))
        pass_times.append(time.perf_counter() - t0)
        if not more_passes(start, args.seconds, pass_times):
            break

    setup += measure_setup(args.workload, args.toy, probes)

    if tracer:
        tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, len(passes))
        # the probes import nullity.cli only on cli-sweep
        metrics["cli.import_s"] = (statistics.median(imp for _, imp in setup)
                                   if args.workload == "cli-sweep" else 0.0)
        spans_per_pass = sum(rec["run"] != "setup" for rec in tracer.spans) / len(passes)
        span_cost = tracing.span_cost_s()
        metrics["trace.overhead_s"] = spans_per_pass * span_cost
        print(f"trace: {spans_per_pass:g} spans a pass, {span_cost * 1e6:.2f} us a span")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(args.workload, plan, passes, [wall for wall, _ in setup])

    errors = [e for p in passes for e in p.errors]
    for e in sorted(set(errors)):
        print(f"perfbench: MISMATCH {e}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in declared_metrics(args.trace)}
    for key, value in metrics.items():
        print(f"{args.workload:18s} {key:34s} {value:14.6g} {units.get(key, '')}")
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    prov = provenance(args, len(passes))
    print(json.dumps({"provenance": prov}))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, **result}, indent=1) + "\n")
    return result


def declared_metrics(trace: int) -> list[dict]:
    bench = json.loads(BENCHMARK_JSON.read_text())
    return bench["per_layer" if trace else "end_to_end"]


def run_all(args) -> None:
    """Every workload in turn, each in its own process so that peak memory
    and imports stay per workload."""
    import workloads
    summary = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with status {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"{name:18s} attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        summary[name] = result
    print(json.dumps({"workloads": summary}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny instances, one set-up probe (for the self-test)")
    args = ap.parse_args()
    locate_program()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload == "all":
        run_all(args)
        return
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)} or all")
    result = run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
