"""Spans around the public functions of each cuspgrowth layer.

`Tracer.install()` wraps each function in `LAYERS` and rebinds every
name that refers to it in every ``cuspgrowth.*`` namespace (the CLI
binds names with ``from .towers import analyze_tower``, so patching the
defining module alone would miss its calls).  Class constructors listed
in `COUNTED` are counted rather than spanned, because they run tens of
thousands of times per job.

Spans live in memory as parallel arrays (name, start, end, parent, job)
and are written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children.  Work the tracer
does after a call to compute a layer's counts is recorded as a
``trace.extra`` span under the caller, so no layer's self time includes
it.  No layer waits on a queue, lock or I/O worth reporting, so there
are no wait metrics.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from math import comb
from pathlib import Path
from time import perf_counter_ns

from workloads import raw_space

LAYERS = {
    "weights": ("check_int", "enumerate_tuples", "find_contraction"),
    "lattice": ("smith_normal_form", "cokernel", "image_index", "is_surjective",
                "kernel_contains"),
    "towers": ("analyze_level", "analyze_tower", "build_a_tower", "build_b_tower",
               "c_tower_report"),
    "counts": ("brute_force_order", "order_formula", "primes_in_range", "factorize",
               "d_tower_series"),
    "gf": ("field",),
    "fitting": ("fit_exponent",),
    "serialize": ("dumps_canonical", "tower_report_to_json", "tower_spec_from_json"),
    "cli": ("main",),
}

#: Classes whose constructions are counted, without spans.
COUNTED = (("weights", "WeightTuple"), ("lattice", "IntMatrix"))

#: Per-layer metrics beyond `<function>.calls` and `<function>.self_s`,
#: with their units.
EXTRA_UNITS = {
    "weights.enumerate_tuples.hit_ratio": "ratio",
    "weights.find_contraction.found_ratio": "ratio",
    "weights.WeightTuple.constructions": "count",
    "lattice.smith_normal_form.entries_in": "count",
    "lattice.smith_normal_form.max_bits": "bits",
    "lattice.IntMatrix.constructions": "count",
    "counts.brute_force_order.space": "count",
    "counts.brute_force_order.yield_ratio": "ratio",
    "counts.primes_in_range.scanned": "count",
    "counts.primes_in_range.yield_ratio": "ratio",
    "gf.field.misses": "count",
    "gf.PrimePowerField.init_s": "s",
    "fitting.fit_exponent.points": "count",
    "serialize.dumps_canonical.bytes": "bytes",
    "cli.out_bytes": "bytes",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        # The cached field constructor, kept to read its misses after
        # `install` has rebound the name.
        self._field = sys.modules["cuspgrowth.gf"].field
        self._field_misses = 0

    def _intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, extra=None):
        nid = self._intern(name)
        extra_id = self._intern("trace.extra")
        signature = inspect.signature(fn) if extra is not None else None

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                idx = self._open(extra_id)
                extra(self.counts, signature.bind(*args, **kwargs).arguments, result)
                self._close(idx)
            return result

        return traced

    def install(self) -> None:
        self._field_misses = self._field.cache_info().misses
        modules = [m for n, m in sys.modules.items()
                   if n == "cuspgrowth" or n.startswith("cuspgrowth.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"cuspgrowth.{layer}"]
            for name in names:
                original = getattr(module, name)
                traced = self.wrap(f"{layer}.{name}", original, EXTRAS.get(f"{layer}.{name}"))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            self._restore.append((mod, attr, original))
        for layer, cname in COUNTED:
            cls = getattr(sys.modules[f"cuspgrowth.{layer}"], cname)
            self._patch_init(cls, self._counting_init(f"{layer}.{cname}.constructions",
                                                      cls.__init__))
        gf = sys.modules["cuspgrowth.gf"]
        self._patch_init(gf.PrimePowerField,
                         self.wrap("gf.PrimePowerField.init", gf.PrimePowerField.__init__))

    def _counting_init(self, key: str, init):
        counts = self.counts

        def counted(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)

        return counted

    def _patch_init(self, cls, init) -> None:
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = init

    def uninstall(self) -> None:
        self.counts["gf.field.misses"] += self._field.cache_info().misses - self._field_misses
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def span_totals(self) -> dict[str, tuple[int, int, int]]:
        """(calls, total ns, self ns) per span name."""
        n = len(self.span_name)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        totals = {name: [0, 0, 0] for name in self.names}
        for i in range(n):
            t = totals[self.names[self.span_name[i]]]
            dur = end[i] - start[i]
            t[0] += 1
            t[1] += dur
            t[2] += dur - child[i]
        return {k: tuple(v) for k, v in totals.items()}

    def metrics(self) -> dict[str, dict]:
        totals = self.span_totals()
        out: dict[str, dict] = {}
        for layer, names in LAYERS.items():
            for name in names:
                calls, _, self_ns = totals.get(f"{layer}.{name}", (0, 0, 0))
                out[f"{layer}.{name}.calls"] = {"value": calls, "unit": "count"}
                out[f"{layer}.{name}.self_s"] = {"value": self_ns / 1e9, "unit": "s"}
        c = self.counts
        values = {
            "weights.enumerate_tuples.hit_ratio": _ratio(c["enum.returned"], c["enum.space"]),
            "weights.find_contraction.found_ratio": _ratio(
                c["find.found"], totals.get("weights.find_contraction", (0,))[0]),
            "weights.WeightTuple.constructions": c["weights.WeightTuple.constructions"],
            "lattice.smith_normal_form.entries_in": c["snf.entries_in"],
            "lattice.smith_normal_form.max_bits": c["snf.max_bits"],
            "lattice.IntMatrix.constructions": c["lattice.IntMatrix.constructions"],
            "counts.brute_force_order.space": c["brute.space"],
            "counts.brute_force_order.yield_ratio": _ratio(c["brute.order"], c["brute.space"]),
            "counts.primes_in_range.scanned": c["primes.scanned"],
            "counts.primes_in_range.yield_ratio": _ratio(c["primes.returned"],
                                                         c["primes.scanned"]),
            "gf.field.misses": c["gf.field.misses"],
            "gf.PrimePowerField.init_s":
                totals.get("gf.PrimePowerField.init", (0, 0))[1] / 1e9,
            "fitting.fit_exponent.points": c["fit.points"],
            "serialize.dumps_canonical.bytes": c["dumps.bytes"],
            "cli.out_bytes": c["cli.out_bytes"],
        }
        for key, value in values.items():
            out[key] = {"value": value, "unit": EXTRA_UNITS[key]}
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,job\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{names[self.span_name[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.job[i]}\n")


# Counts taken after a call returns, from its arguments and result.


def _enumerate(c, args, result):
    length, d = args["length"], args["max_denominator"]
    c["enum.space"] += comb(d - 1 + length - 1, length)
    c["enum.returned"] += len(result)


def _find(c, args, result):
    c["find.found"] += result is not None


def _snf(c, args, result):
    a = args["a"]
    c["snf.entries_in"] += a.rows * a.cols
    bits = max((abs(x).bit_length() for m in (result.u, result.d, result.v)
                for row in m.entries for x in row), default=0)
    c["snf.max_bits"] = max(c["snf.max_bits"], bits)


def _brute(c, args, result):
    family = getattr(args["family"], "value", args["family"])
    c["brute.space"] += raw_space(family, args["m"], args["q"])
    c["brute.order"] += result.order


def _primes(c, args, result):
    c["primes.scanned"] += max(0, args["hi"] - max(args["lo"], 2) + 1)
    c["primes.returned"] += len(result)


def _fit(c, args, result):
    c["fit.points"] += len(args["pairs"])


def _dumps(c, args, result):
    c["dumps.bytes"] += len(result)


EXTRAS = {
    "weights.enumerate_tuples": _enumerate,
    "weights.find_contraction": _find,
    "lattice.smith_normal_form": _snf,
    "counts.brute_force_order": _brute,
    "counts.primes_in_range": _primes,
    "fitting.fit_exponent": _fit,
    "serialize.dumps_canonical": _dumps,
}
