"""The benchmark's four workloads: their instances, operations and checks.

Each workload builds its rings and groups in ``setup`` and then hands out a
list of operations.  An operation is one public call into ``nullity`` (or,
on ``cli-sweep``, one ``nullity`` command), timed on its own, and a check
of its output against :mod:`reference`.  Checks that need several outputs
(serial against parallel census, left against right, census against the
literal pair count) run once the whole pass is done.

``nullity`` is imported inside the functions, never at module level: the
set-up probe must pay the import itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import reference as ref

NPROC = len(os.sched_getaffinity(0))
WORKERS = (NPROC, 1)
RELATIONS = ("ab=0", "ab=0&ba=0")
ROOT = Path(__file__).resolve().parent.parent


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    census_workers: int | None = None  # set on census operations
    elements: int = 0                  # |K|^n of a census operation


@dataclass
class Plan:
    ops: list[Op]
    cross_checks: list[Callable[[dict], None]] = field(default_factory=list)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def side_of(relation: str) -> str:
    return "twosided" if relation == "ab=0&ba=0" else "left"


def elements(coeff: str, group: str) -> int:
    return ref.ring_size(coeff) ** ref.group_order(group)


def public(module: str, name: str) -> Callable:
    """nullity's ``module.name`` looked up when called, so that spans
    installed after the plan was made are seen."""
    def call(*args, **kwargs):
        return getattr(sys.modules[module], name)(*args, **kwargs)
    return call


# --- census checks ----------------------------------------------------

def check_census(coeff: str, group: str, side: str, hist) -> None:
    """Properties every census has, then the reference value."""
    where = f"{coeff} {group} {side}"
    n = ref.group_order(group)
    expect(sum(hist.counts) == elements(coeff, group),
           f"{where}: counts sum to {sum(hist.counts)}")
    expect(len(hist.counts) == n + 1 and hist.counts[n] == 1,
           f"{where}: counts[n] is not 1: {hist.counts}")
    want = ref.census_counts(coeff, group, side)
    if want is not None:
        expect(hist.counts == want, f"{where}: counts {hist.counts} != {want}")
    else:
        got = ref.weighted_sum(hist.counts, ref.ring_size(coeff))
        want_pairs = ref.zero_pairs(coeff, group, side)
        expect(got == want_pairs, f"{where}: weighted sum {got} != {want_pairs}")


def same_counts(a: str, b: str, results: dict) -> None:
    if a in results and b in results:
        expect(results[a].counts == results[b].counts,
               f"{a} and {b} differ: {results[a].counts} vs {results[b].counts}")


def census_ops(rings: dict, groups: dict, instances) -> list[Op]:
    annihilator_histogram = public("nullity.oracle", "annihilator_histogram")
    ops = []
    for coeff, group, side in instances:
        for w in WORKERS:
            ops.append(Op(
                f"census {coeff} {group} {side} w{w}",
                partial(annihilator_histogram, rings[coeff], groups[group], side,
                        workers=w),
                partial(check_census, coeff, group, side),
                census_workers=w, elements=elements(coeff, group)))
    return ops


def serial_parallel_checks(instances) -> list[Callable[[dict], None]]:
    return [partial(same_counts, f"census {c} {g} {s} w{WORKERS[0]}",
                    f"census {c} {g} {s} w1")
            for c, g, s in instances]


def build_rings(coeffs) -> dict:
    """Rings with their array tables built, as a census needs them.

    A ring whose tables the program refuses stays in; its census fails.
    """
    from nullity.coeffring import ring_from_spec
    rings = {}
    for coeff in coeffs:
        K = ring_from_spec(coeff)
        with contextlib.suppress(ValueError):
            K.array_ops()
        rings[coeff] = K
    return rings


def build_groups(specs) -> dict:
    from nullity.groups import group_from_spec
    return {g: group_from_spec(g) for g in specs}


# --- workloads --------------------------------------------------------

class CensusWorkload:
    """Censuses at both worker counts; `mirror` instances have their left
    and right censuses compared (the anti-involution g -> g^-1)."""

    def __init__(self, instances, toy_instances, mirrors, toy_mirrors):
        self._instances = {False: instances, True: toy_instances}
        self._mirrors = {False: mirrors, True: toy_mirrors}

    def import_modules(self) -> None:
        import nullity.oracle  # noqa: F401

    def setup(self, toy: bool) -> dict:
        inst = self._instances[toy]
        return {"toy": toy,
                "rings": build_rings(sorted({c for c, _, _ in inst})),
                "groups": build_groups(sorted({g for _, g, _ in inst}))}

    def plan(self, ctx: dict, rng, in_process: bool) -> Plan:
        inst = self._instances[ctx["toy"]]
        ops = census_ops(ctx["rings"], ctx["groups"], inst)
        rng.shuffle(ops)
        cross = serial_parallel_checks(inst)
        for coeff, group in self._mirrors[ctx["toy"]]:
            cross.append(partial(same_counts, f"census {coeff} {group} left w1",
                                 f"census {coeff} {group} right w1"))
        return Plan(ops, cross)


CENSUS_PRIME = CensusWorkload(
    [("F:7", "S3", "twosided"), ("F:7", "S3", "left"), ("F:7", "S3", "right"),
     ("F:7", "C:6", "left"), ("F:5", "C:7", "left"), ("F:5", "S3", "twosided"),
     ("F:3", "Q8", "twosided")],
    [("F:5", "S3", "left"), ("F:5", "S3", "right"), ("F:5", "C:4", "left"),
     ("F:3", "Q8", "twosided")],
    [("F:7", "S3")], [("F:5", "S3")])

# F:3^8 C:1 fails today: dense tables are refused above q = 2048.
CENSUS_CHAR2_EXT = CensusWorkload(
    [("F:2", "C:16", "left"), ("F:4", "Q8", "twosided"), ("F:8", "S3", "left"),
     ("F:16", "C:4", "left"), ("F:3^6", "C:2", "left"), ("F:3^8", "C:1", "left")],
    [("F:2", "C:8", "left"), ("F:4", "S3", "twosided"), ("F:16", "C:2", "left"),
     ("F:3^2", "C:2", "left"), ("F:3^8", "C:1", "left")],
    [], [])


class CrosscheckWorkload:
    """The rank-free route: literal pair counters, the 2x2 matrix census and
    per-element annihilators by rank and by enumeration."""

    PAIR_RINGS = {False: [("F:2", "C:10"), ("F:4", "C:5"), ("Z:4", "C:5"), ("F:32", "C:2")],
                  True: [("F:2", "C:4"), ("F:4", "C:2"), ("Z:4", "C:2")]}
    M2_QS = {False: [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23], True: [2, 3]}
    M2_PAIR_QS = {False: [2, 3, 4, 5], True: [2]}
    DIRECT_SUMS = {False: [(("F:2", "S3"), ("F:3", "C:2")),
                           (("F:2", "C:2"), ("F:3", "C:2"), ("Z:4", "C:2"))],
                   True: [(("F:2", "C:2"), ("F:3", "C:2"))]}
    SAMPLE_RINGS = {False: [("F:3", "S3"), ("Z:4", "C:4"), ("F:2", "Q8"), ("F:5", "C:4")],
                    True: [("F:2", "S3"), ("Z:4", "C:2")]}
    SAMPLES_PER_RING = {False: 6, True: 2}

    def import_modules(self) -> None:
        import nullity.oracle  # noqa: F401

    def setup(self, toy: bool) -> dict:
        pairs = self.PAIR_RINGS[toy]
        dsum = [c for s in self.DIRECT_SUMS[toy] for c in s]
        samples = self.SAMPLE_RINGS[toy]
        instances = pairs + dsum + samples
        coeffs = {c for c, _ in instances} | {f"F:{q}" for q in self.M2_QS[toy]}
        return {"toy": toy, "rings": build_rings(sorted(coeffs)),
                "groups": build_groups(sorted({g for _, g in instances}))}

    def plan(self, ctx: dict, rng, in_process: bool) -> Plan:
        annihilator_size = public("nullity.groupring", "annihilator_size")
        annihilator_size_by_enumeration = public("nullity.groupring",
                                                 "annihilator_size_by_enumeration")
        m2_annihilator_histogram = public("nullity.oracle", "m2_annihilator_histogram")
        m2_pair_count_naive = public("nullity.oracle", "m2_pair_count_naive")
        pair_count_direct_sum = public("nullity.oracle", "pair_count_direct_sum")
        pair_count_naive = public("nullity.oracle", "pair_count_naive")
        toy, R, G = ctx["toy"], ctx["rings"], ctx["groups"]
        ops, cross = [], []
        census_inst = []
        for coeff, group in self.PAIR_RINGS[toy]:
            for rel in RELATIONS:
                want = ref.zero_pairs(coeff, group, side_of(rel))
                ops.append(Op(f"pairs {coeff} {group} {rel}",
                              partial(pair_count_naive, R[coeff], G[group], rel),
                              partial(_check_equal, f"pairs {coeff} {group} {rel}", want)))
                if coeff.startswith("F:"):
                    census_inst.append((coeff, group, side_of(rel)))
                    cross.append(partial(_census_matches_pairs,
                                         f"census {coeff} {group} {side_of(rel)} w1",
                                         f"pairs {coeff} {group} {rel}"))
        ops += census_ops(R, G, census_inst)
        cross += serial_parallel_checks(census_inst)
        for i, q in enumerate(self.M2_QS[toy]):
            side = ref.SIDES[i % 3]
            ops.append(Op(f"m2 census F:{q} {side}",
                          partial(m2_annihilator_histogram, R[f"F:{q}"], side),
                          partial(_check_counts, f"m2 F:{q} {side}", ref.m2_counts(q, side))))
        for q in self.M2_PAIR_QS[toy]:
            for rel in RELATIONS:
                want = ref.p_m2(q, side_of(rel)) * q**8
                ops.append(Op(f"m2 pairs F:{q} {rel}",
                              partial(m2_pair_count_naive, R[f"F:{q}"], rel),
                              partial(_check_equal, f"m2 pairs F:{q} {rel}", want)))
        for comps in self.DIRECT_SUMS[toy]:
            for rel in RELATIONS:
                want = 1
                for coeff, group in comps:
                    want *= ref.zero_pairs(coeff, group, side_of(rel))
                label = f"direct sum {' + '.join(' '.join(c) for c in comps)} {rel}"
                ops.append(Op(label,
                              partial(pair_count_direct_sum,
                                      [(R[c], G[g]) for c, g in comps], rel),
                              partial(_check_equal, label, want)))
        for coeff, group in self.SAMPLE_RINGS[toy]:
            q, n = ref.ring_size(coeff), ref.group_order(group)
            for i in range(self.SAMPLES_PER_RING[toy]):
                x = tuple(rng.randrange(q) for _ in range(n))
                side = ref.SIDES[i % 3]
                want = ref.brute_annihilator_size(coeff, group, x, side)
                for name, fn in (("rank", annihilator_size),
                                 ("enumeration", annihilator_size_by_enumeration)):
                    label = f"annihilator {name} {coeff} {group} {x} {side}"
                    ops.append(Op(label, partial(fn, R[coeff], G[group], x, side),
                                  partial(_check_equal, label, want)))
        rng.shuffle(ops)
        return Plan(ops, cross)


def _check_equal(label: str, want, got) -> None:
    expect(got == want, f"{label}: {got} != {want}")


def _check_counts(label: str, want: list[int], hist) -> None:
    expect(hist.counts == want, f"{label}: counts {hist.counts} != {want}")


def _census_matches_pairs(census_label: str, pairs_label: str, results: dict) -> None:
    if census_label in results and pairs_label in results:
        got = results[census_label].weighted_sum()
        expect(got == results[pairs_label],
               f"{census_label} weighted sum {got} != {pairs_label} {results[pairs_label]}")


# --- cli-sweep --------------------------------------------------------

def _frac(d) -> Fraction:
    return Fraction(d["num"], d["den"])


def check_catalog(bound: int, out: dict) -> None:
    want_inst = [(f"F:{q}", f"C:{n}") for q in range(2, bound + 1) if q * q <= bound
                 if _is_prime_power(q) for n in range(2, 64) if q**n <= bound]
    want_inst += [("Z:4", "C:2"), ("Z:6", "C:2"), ("F:2", "S3"), ("F:2", "Q8")]
    got_inst = [(e["coeff"], e["group"]) for e in out["entries"]]
    expect(sorted(got_inst) == sorted(want_inst), f"catalog {bound}: instance list differs")
    pairs = set()
    for e in out["entries"]:
        where = f"catalog {bound} {e['coeff']} {e['group']}"
        expect(e["skipped"] is None, f"{where}: skipped")
        pair = ref.probability(e["coeff"], e["group"], "left")
        expect(_frac(e["pair"]) == pair, f"{where}: pair {_frac(e['pair'])} != {pair}")
        two = ref.probability(e["coeff"], e["group"], "twosided")
        expect(_frac(e["twosided"]) == two, f"{where}: twosided {_frac(e['twosided'])} != {two}")
        expect(e["selected"] == (pair >= _frac(out["threshold"])), f"{where}: selection")
        pairs.add(pair)
    swap = {str(v) for v in pairs if Fraction(1, 4) < v < Fraction(21, 64)}
    expect(set(out["gap"]["swap_counterexamples"]) == swap, f"catalog {bound}: gap values")
    clear = not any(Fraction(21, 64) < v < Fraction(1, 2) for v in pairs)
    expect(out["gap"]["supported_interval_clear"] == clear, f"catalog {bound}: gap check")


def _is_prime_power(q: int) -> bool:
    try:
        ref.prime_power(q)
    except ValueError:
        return False
    return True


def check_table1(rows: list) -> None:
    for r in rows:
        where = f"table1 {r['coeff']} {r['group']}"
        for key, side in (("pair", "left"), ("twosided", "twosided")):
            want = ref.probability(r["coeff"], r["group"], side)
            expect(_frac(r[key]) == want, f"{where}: {key} {_frac(r[key])} != {want}")


def check_compare(coeff: str, group: str, side: str, rows: list) -> None:
    want = ref.probability(coeff, group, side)
    for r in rows:
        where = f"compare {coeff} {group} {side} {r['variant']}"
        expect(_frac(r["oracle"]) == want, f"{where}: oracle {_frac(r['oracle'])} != {want}")
        expect(r["match"] == (_frac(r["formula"]) == want), f"{where}: match flag")
        if r["variant"] == "derived":
            expect(_frac(r["formula"]) == want, f"{where}: derived {_frac(r['formula'])}")


def check_oracle(coeff: str, group: str, side: str, rec: dict) -> None:
    where = f"oracle {coeff} {group} {side}"
    want = ref.probability(coeff, group, side)
    expect(_frac(rec["probability"]) == want, f"{where}: {_frac(rec['probability'])} != {want}")
    if "counts" in rec:
        expect(sum(rec["counts"]) == elements(coeff, group), f"{where}: counts sum")
        counts = ref.census_counts(coeff, group, side)
        if counts is not None:
            expect(rec["counts"] == counts, f"{where}: counts {rec['counts']} != {counts}")


def check_formula(coeff: str, group: str, side: str, rows: list) -> None:
    want = ref.probability(coeff, group, side)
    values = [(r["variant"], _frac(r["value"])) for r in rows]
    expect(any(v == want for _, v in values), f"formula {coeff} {group}: no value is {want}")
    expect(all(v == want for variant, v in values if variant == "derived"),
           f"formula {coeff} {group}: derived value differs from {want}")


def _instance(cmd: str, coeff: str, group: str, side: str = "left",
              workers: int = NPROC) -> tuple:
    """(argv, check, census elements, census workers) of a per-instance
    subcommand; only ``oracle`` on a field counts as a census."""
    argv = [cmd, "--coeff", coeff, "--group", group, "--side", side]
    if cmd != "formula":
        argv += ["--workers", str(workers)]
    check = {"compare": check_compare, "oracle": check_oracle,
             "formula": check_formula}[cmd]
    census = cmd == "oracle" and coeff.startswith("F:")
    return (argv, partial(check, coeff, group, side),
            elements(coeff, group) if census else 0, workers if census else None)


def _cli_commands(toy: bool) -> list[tuple]:
    w = ["--workers", str(NPROC)]
    if toy:
        return [
            (["catalog", "--bound", "64"] + w, partial(check_catalog, 64), 0, None),
            (["table1"] + w, check_table1, 0, None),
            _instance("compare", "F:2", "C:3"),
            _instance("oracle", "Z:4", "C:2"),
            _instance("oracle", "F:3", "C:4"),
            _instance("oracle", "F:3", "C:4", workers=1),
            _instance("formula", "F:2", "C:3"),
        ]
    return [
        (["catalog"] + w, partial(check_catalog, 1024), 0, None),
        (["catalog", "--bound", "4096"] + w, partial(check_catalog, 4096), 0, None),
        (["table1"] + w, check_table1, 0, None),
        _instance("compare", "F:5", "C:5"),
        _instance("compare", "F:7", "S3", "twosided"),
        _instance("compare", "F:3", "Q8"),
        _instance("oracle", "Z:4", "C:5"),
        _instance("oracle", "Z:9", "C:2", "twosided"),
        _instance("oracle", "F:7", "C:6"),
        _instance("oracle", "F:7", "C:6", workers=1),
        _instance("oracle", "F:5", "S3", "twosided"),
        _instance("oracle", "F:5", "S3", "twosided", workers=1),
        _instance("formula", "F:4", "C:5"),
        _instance("formula", "F:8", "S3", "twosided"),
    ]


# the console script's entry point, run in a fresh interpreter
ENTRY = "import sys; from nullity.cli import main; sys.exit(main())"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_process(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def run_in_process(argv: list[str]) -> tuple[int, str]:
    cli = sys.modules["nullity.cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_command(check: Callable, result: tuple[int, str]) -> None:
    code, stdout = result
    expect(code == 0, f"exit status {code}")
    check(json.loads(stdout))


class CliWorkload:
    """Short ``nullity`` commands, each a fresh process.  The traced run
    calls ``cli.main(argv)`` in-process instead, so spans reach the layers."""

    def import_modules(self) -> None:
        import nullity.cli  # noqa: F401

    def setup(self, toy: bool) -> dict:
        return {"toy": toy}

    def plan(self, ctx: dict, rng, in_process: bool) -> Plan:
        runner = run_in_process if in_process else run_process
        ops = []
        for argv, check, n_elements, workers in _cli_commands(ctx["toy"]):
            argv = argv + ["--format", "json"]
            ops.append(Op("nullity " + " ".join(argv), partial(runner, argv),
                          partial(_check_command, check),
                          census_workers=workers, elements=n_elements))
        rng.shuffle(ops)
        return Plan(ops)


WORKLOADS = {
    "census-prime": CENSUS_PRIME,
    "census-char2-ext": CENSUS_CHAR2_EXT,
    "crosscheck": CrosscheckWorkload(),
    "cli-sweep": CliWorkload(),
}
