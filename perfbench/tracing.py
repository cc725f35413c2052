"""Spans around the program's public functions, installed at run time.

The tracer replaces each traced function in every loaded ``nullity``
module that holds it with a wrapper that records a span: name, start, end,
parent span and run id, plus a work count where the layer has one.  Only
calls made from the benchmark's own thread are recorded; calls the census
makes from its worker threads pass straight through.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path


def _census_elements(K, G, *args, **kwargs):
    return K.size**G.order


def _m2_elements(K, *args, **kwargs):
    return K.size**4


def _group_pairs(K, G, *args, **kwargs):
    return (K.size**G.order) ** 2


def _m2_pairs(K, *args, **kwargs):
    return K.size**8


def _instances(instances, *args, **kwargs):
    return len(instances)


# (module, attribute, span name, work count from the call's arguments)
TARGETS = (
    ("nullity.coeffring", "ring_from_spec", "coeffring.ring_build", None),
    ("nullity.coeffring", "field", "coeffring.ring_build", None),
    ("nullity.coeffring", "integers_mod", "coeffring.ring_build", None),
    ("nullity.coeffring", "CoeffRing.array_ops", "coeffring.array_ops", None),
    ("nullity.groups", "group_from_spec", "groups.build", None),
    ("nullity.groups", "cyclic", "groups.build", None),
    ("nullity.groups", "product", "groups.build", None),
    ("nullity.groups", "s3", "groups.build", None),
    ("nullity.groups", "q8", "groups.build", None),
    ("nullity.groupring", "annihilator_size", "groupring.annihilator_size", None),
    ("nullity.groupring", "annihilator_size_by_enumeration", "groupring.enumeration", None),
    ("nullity.oracle", "annihilator_histogram", "oracle.census", _census_elements),
    ("nullity.oracle", "m2_annihilator_histogram", "oracle.m2_census", _m2_elements),
    ("nullity.oracle", "pair_count_naive", "oracle.pair_count", _group_pairs),
    ("nullity.oracle", "m2_pair_count_naive", "oracle.pair_count", _m2_pairs),
    ("nullity.oracle", "pair_count_direct_sum", "oracle.direct_sum", None),
    ("nullity.formulas", "closed_forms", "formulas.closed_forms", None),
    ("nullity.formulas", "sweep_catalog", "formulas.sweep_catalog", _instances),
    ("nullity.cli", "main", None, None),  # named cli.<subcommand> per call
)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._origin = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; the body's work count goes in
        the yielded dict under "work"."""
        index = len(self.spans)
        rec = {"name": name, "start": time.perf_counter() - self._origin,
               "end": None, "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "work": 0}
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._origin

    def _wrap(self, fn, name, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            span_name = name
            if span_name is None:  # cli.main(argv)
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.{argv[0] if argv else 'main'}"
            with tracer.span(span_name) as rec:
                out = fn(*args, **kwargs)
                if work is not None:
                    rec["work"] = work(*args, **kwargs)
                return out

        return traced

    def install(self) -> None:
        """Wrap every target in the loaded nullity modules."""
        if self._patches:
            return
        loaded = [m for n, m in sys.modules.items()
                  if n == "nullity" or n.startswith("nullity.")]
        for module_name, attr, name, work in TARGETS:
            if module_name not in sys.modules:
                continue
            module = sys.modules[module_name]
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = getattr(cls, meth)
                self._patch(cls, meth, self._wrap(orig, name, work))
                continue
            orig = getattr(module, attr)
            traced = self._wrap(orig, name, work)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, traced)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Children are recorded from one thread, so they never overlap.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, child)]


CLI_COMMANDS = ("catalog", "table1", "compare", "oracle", "formula")


def layer_metrics(spans: list[dict], traced_passes: int) -> dict[str, float]:
    """Per-layer figures for one set-up plus one pass, save ``cli.import_s``
    and ``trace.overhead_s``, which the run measures apart.

    Spans from set-up count once; spans from passes are averaged over the
    traced passes.  ``*_s`` figures are self times, except ``cli.<command>_s``
    which are whole ``cli.main`` calls.
    """
    selfs = self_times(spans)
    acc: dict[str, float] = {}

    def add(key, value, rec):
        acc[key] = acc.get(key, 0.0) + (value if rec["run"] == "setup"
                                        else value / traced_passes)

    for rec, self_s in zip(spans, selfs):
        name = rec["name"]
        add(name + ":self", self_s, rec)
        add(name + ":total", rec["end"] - rec["start"], rec)
        add(name + ":calls", 1, rec)
        add(name + ":work", rec["work"], rec)
        if name.startswith("cli."):
            add("cli:self", self_s, rec)

    def get(key):
        return acc.get(key, 0.0)

    out = {
        "coeffring.ring_build_s": get("coeffring.ring_build:self"),
        "coeffring.array_ops_s": get("coeffring.array_ops:self"),
        "groups.build_s": get("groups.build:self"),
        "groupring.annihilator_size_s": get("groupring.annihilator_size:self"),
        "groupring.annihilator_size_calls": get("groupring.annihilator_size:calls"),
        "groupring.enumeration_s": get("groupring.enumeration:self"),
        "oracle.census_s": get("oracle.census:self"),
        "oracle.census_calls": get("oracle.census:calls"),
        "oracle.census_elements": get("oracle.census:work"),
        "oracle.m2_census_s": get("oracle.m2_census:self"),
        "oracle.m2_elements": get("oracle.m2_census:work"),
        "oracle.pair_count_s": get("oracle.pair_count:self"),
        "oracle.pairs": get("oracle.pair_count:work"),
        "oracle.direct_sum_s": get("oracle.direct_sum:self"),
        "formulas.closed_forms_s": get("formulas.closed_forms:self"),
        "formulas.sweep_catalog_self_s": get("formulas.sweep_catalog:self"),
        "formulas.catalog_instances": get("formulas.sweep_catalog:work"),
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = get(f"cli.{cmd}:total")
    out["cli.self_s"] = get("cli:self")
    return out


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Median time one recorded span adds to a call: a function that does
    nothing, called bare and through a tracer's wrapper."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap(noop, "noop", None)
    samples = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        samples.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(samples)
