"""Command-line front end: census records, closed-form evaluation,
formula-vs-census comparison, the published-table reproduction, and the
catalog sweep with threshold classification.

Every probability is printed as an exact rational; decimals are display
sugar only.  Exit status is 0 on success, 1 on bad input, cap overruns, or
an unexpected mismatch, 2 on argument-parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import formulas, oracle
from .coeffring import ring_from_spec
from .errata import ERRATA_BY_KEY, TABLE1_ROWS
from .groupring import SIDES, CapExceeded
from .groups import CayleyGroup, group_from_spec, group_from_table_file
from .oracle import _fraction_json


def decimal_str(value: Fraction, places: int = 6) -> str:
    """Exact-rounded decimal display, trailing zeros trimmed."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    value = abs(value)
    scale = 10**places
    scaled = (value.numerator * scale * 2 + value.denominator) // (2 * value.denominator)
    ip, fp = divmod(scaled, scale)
    frac = f"{fp:0{places}d}".rstrip("0")
    return f"{sign}{ip}.{frac}" if frac else f"{sign}{ip}"


def show(value: Fraction) -> str:
    return f"{value} (~{decimal_str(value)})"


def _parse_group(spec: str) -> CayleyGroup:
    if spec.startswith("@"):
        return group_from_table_file(spec[1:])
    return group_from_spec(spec)


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer, got {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {workers}")
    return workers


def _default_workers() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a container pinned to 2 of 64 CPUs gets 2), else the CPU
    count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coeff", required=True,
                   help="coefficient ring: F:q, F:p^m, or Z:n")
    p.add_argument("--group", required=True,
                   help="group: C:n, products like C2xC2, S3, Q8, or @table.json")


def _add_cap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-elements", type=int, default=oracle.DEFAULT_MAX_ELEMENTS,
                   help="largest |K|^n the census will sweep")
    p.add_argument("--max-pairs", type=int, default=oracle.DEFAULT_MAX_PAIRS,
                   help="largest pair count the naive counter will sweep")
    p.add_argument("--workers", type=_worker_count, default=_default_workers(),
                   help="census worker threads (results identical for any count)")


def cmd_oracle(args) -> int:
    K = ring_from_spec(args.coeff)
    G = _parse_group(args.group)
    t0 = time.perf_counter()
    if K.is_field:
        hist = oracle.annihilator_histogram(K, G, args.side,
                                            max_elements=args.max_elements,
                                            workers=args.workers)
        prob = hist.probability()
    else:
        hist = None
        prob = oracle.nullity_probability(K, G, args.side,
                                          max_pairs=args.max_pairs)
    ms = None if args.no_timing else int((time.perf_counter() - t0) * 1000)
    record = oracle._record(G.spec, K.spec, args.side, prob, hist, ms)
    if args.format == "json":
        print(json.dumps(record))
    elif hist is not None:
        print(oracle.record_text(record))
    else:
        print(f"rec(group := \"{G.spec}\", coeff := \"{K.spec}\", "
              f"p := {prob.numerator}/{prob.denominator})")
    return 0


def cmd_formula(args) -> int:
    K = ring_from_spec(args.coeff)
    G = _parse_group(args.group)
    results = formulas.closed_forms(K, G, args.side)
    if args.variant != "both":
        results = [r for r in results if r.variant == args.variant]
        if not results:
            print(f"no {args.variant} variant for this instance", file=sys.stderr)
            return 1
    if args.format == "json":
        print(json.dumps([{"value": r.value, "variant": r.variant,
                           "provenance": r.provenance} for r in results],
                         default=_fraction_json))
    else:
        for r in results:
            print(f"P_{args.side} = {show(r.value)}  [{r.variant}: {r.provenance}]")
    return 0


def cmd_compare(args) -> int:
    K = ring_from_spec(args.coeff)
    G = _parse_group(args.group)
    results = formulas.closed_forms(K, G, args.side)
    ocl = oracle.nullity_probability(K, G, args.side,
                                     max_elements=args.max_elements,
                                     max_pairs=args.max_pairs,
                                     workers=args.workers)
    rows = []
    unexpected = 0
    for r in results:
        match = r.value == ocl
        note = ""
        if not match:
            if r.erratum is not None:
                err = ERRATA_BY_KEY[r.erratum]
                note = f"expected: {err.key} ({err.status})"
            else:
                note = "UNEXPECTED"
                unexpected += 1
        rows.append({"variant": r.variant, "provenance": r.provenance,
                     "formula": r.value, "oracle": ocl, "match": match,
                     "note": note})
    if args.format == "json":
        print(json.dumps(rows, default=_fraction_json))
    else:
        print(f"{K.spec} {G.spec} side={args.side}   oracle = {show(ocl)}")
        for w in rows:
            verdict = "match" if w["match"] else "MISMATCH"
            tail = f"  [{w['note']}]" if w["note"] else ""
            print(f"  {w['variant']:8s} {show(w['formula']):40s} {verdict}{tail}")
    return 1 if unexpected else 0


def cmd_table1(args) -> int:
    entries = formulas.sweep_catalog([row[:2] for row in TABLE1_ROWS],
                                     workers=args.workers)
    rows = []
    unexpected = 0
    for e, (_, _, typeset, printed_dec, key) in zip(entries, TABLE1_ROWS):
        printed = Fraction(typeset)
        if key is not None:
            status = ERRATA_BY_KEY[key].status
        elif printed in (e.p_pair, e.p_twosided):
            status = "match"
        else:
            status = "MISMATCH"
            unexpected += 1
        rows.append({"coeff": e.coeff, "group": e.group,
                     "printed": printed, "printed_decimal": printed_dec,
                     "pair": e.p_pair, "twosided": e.p_twosided,
                     "status": status, "erratum": key})
    if args.format == "json":
        print(json.dumps(rows, default=_fraction_json))
    else:
        print(f"{'#':>2} {'ring':18s} {'printed':16s} {'computed':34s} status")
        for i, (r, (_, _, typeset, dec, _)) in enumerate(zip(rows, TABLE1_ROWS), 1):
            inst = f"{r['coeff']} {r['group']}"
            if r["pair"] == r["twosided"]:
                comp = show(r["pair"])
            else:
                comp = f"pair {show(r['pair'])}, twosided {show(r['twosided'])}"
            printed = f"{typeset} ({dec})"
            print(f"{i:>2} {inst:18s} {printed:16s} {comp:34s} {r['status']}")
        for key in sorted({r["erratum"] for r in rows if r["erratum"]}):
            e = ERRATA_BY_KEY[key]
            print(f"   [{key}] {e.note}")
    return 1 if unexpected else 0


def cmd_catalog(args) -> int:
    try:
        threshold = Fraction(args.threshold)
    except ZeroDivisionError:
        raise ValueError(
            f"threshold {args.threshold!r} has a zero denominator") from None
    instances = formulas.default_sweep_instances(args.bound)
    report = formulas.classify_threshold(instances, threshold,
                                         max_elements=args.max_elements,
                                         max_pairs=args.max_pairs,
                                         workers=args.workers)
    values = sorted({e.p_pair for e in report.entries if e.p_pair is not None},
                    reverse=True)
    swap_inside = formulas.gap_check(values, Fraction(1, 4), Fraction(21, 64))
    supported_inside = formulas.gap_check(values, Fraction(21, 64), Fraction(1, 2))
    if args.format == "json":
        out = {
            "threshold": threshold,
            "entries": [{
                "coeff": e.coeff, "group": e.group,
                "pair": e.p_pair, "twosided": e.p_twosided,
                "skipped": e.skipped,
                "selected": e in report.selected,
            } for e in report.entries],
            "gap": {
                "printed_interval_empty": True,
                "swap_counterexamples": [str(v) for v in swap_inside],
                "supported_interval_clear": not supported_inside,
            },
        }
        print(json.dumps(out, default=_fraction_json))
        return 0
    print(f"catalog sweep: {len(report.entries)} instances, "
          f"threshold {threshold} (~{decimal_str(threshold)})")
    for e in report.entries:
        inst = f"{e.coeff} {e.group}"
        if e.skipped is not None:
            print(f"  {inst:14s} SKIPPED: {e.skipped}")
            continue
        mark = "*" if e in report.selected else " "
        if e.p_pair == e.p_twosided:
            print(f" {mark}{inst:14s} P = {show(e.p_pair)}")
        else:
            print(f" {mark}{inst:14s} P = {show(e.p_pair)} pair, "
                  f"{show(e.p_twosided)} twosided")
    sel = [f"{e.coeff} {e.group}" for e in report.selected]
    print(f"selected (pair P >= {threshold}): {', '.join(sel) if sel else 'none'}")
    print("gap check: the printed forbidden interval (21/64, 1/4) is empty as "
          "typeset [corollary-gap]")
    if swap_inside:
        inside = ", ".join(show(v) for v in swap_inside)
        print(f"  endpoint swap (1/4, 21/64) refuted: {inside} inside")
    if not supported_inside:
        print("  supported reading (21/64, 1/2): no catalog value inside")
    else:
        inside = ", ".join(show(v) for v in supported_inside)
        print(f"  supported reading (21/64, 1/2) VIOLATED: {inside} inside")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullity",
        description="Exact zero-product probabilities for finite group algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="exhaustive annihilator census record")
    _add_instance_flags(p)
    p.add_argument("--side", choices=SIDES, default="left")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--no-timing", action="store_true",
                   help="omit elapsed_ms for byte-reproducible output")
    _add_cap_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("formula", help="closed-form value(s) for an instance")
    _add_instance_flags(p)
    p.add_argument("--side", choices=SIDES, default="left")
    p.add_argument("--variant", choices=("printed", "derived", "both"),
                   default="both")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("compare", help="closed forms vs the census, with verdicts")
    _add_instance_flags(p)
    p.add_argument("--side", choices=SIDES, default="left")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_cap_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table1", help="reproduce the published >= 0.1 table")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--workers", type=_worker_count, default=_default_workers())
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("catalog", help="sweep instances, classify by threshold")
    p.add_argument("--threshold", default="1/4",
                   help="classification cutoff, a rational like 1/4")
    p.add_argument("--bound", type=int, default=1024,
                   help="include F:q C:n for every prime power q with q^n <= bound")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_cap_flags(p)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
