"""Span tracing around the library's public functions, from outside the library.

Tracer.install() replaces each traced function with a wrapper in every
namespace that holds a reference to it: the defining module, the modules
that import it by name (classify imports norm, vp and principal_profile;
orbit imports norm and classify_at; cli imports most of the API), the
package namespace, and class dictionaries, where MobiusMap.apply is also
bound as __call__.  uninstall() puts the originals back.

A span is (name, start, end, parent), kept in flat arrays in memory and
written out by write().  A span's self time is its duration minus the
time its child spans cover.  Counters are taken from the arguments and
results seen at the wrappers; the time spent computing them is recorded
as a "bench.counter" child span, so it is not charged to any layer.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (metric prefix, module, attribute); a dotted attribute names a method.
TRACED = (
    ("padic.vp", "qmobius.padic", "vp"),
    ("padic.norm", "qmobius.padic", "norm"),
    ("padic.factor_int", "qmobius.padic", "factor_int"),
    ("padic.principal_profile", "qmobius.padic", "principal_profile"),
    ("mobius.apply", "qmobius.mobius", "MobiusMap.apply"),
    ("mobius.fixed_points", "qmobius.mobius", "MobiusMap.fixed_points"),
    ("mobius.power", "qmobius.mobius", "MobiusMap.power"),
    ("mobius.from_parameter", "qmobius.mobius", "from_parameter"),
    ("mobius.detect_period", "qmobius.mobius", "detect_period"),
    ("classify.adelic_report", "qmobius.classify", "adelic_report"),
    ("classify.classify_at", "qmobius.classify", "classify_at"),
    ("classify.exceptional_primes", "qmobius.classify", "exceptional_primes"),
    ("classify.check_adelic_image", "qmobius.classify", "check_adelic_image"),
    ("orbit.run_orbit", "qmobius.orbit", "run_orbit"),
    ("orbit.distance_trace", "qmobius.orbit", "distance_trace"),
    ("orbit.basin_sample", "qmobius.orbit", "basin_sample"),
    ("orbit.invariant_sphere_check", "qmobius.orbit", "invariant_sphere_check"),
)

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._root = -1
        self._saved: list[tuple[object, str, object]] = []
        self.marks: list[int] = []
        self.factor_inputs: dict[int, set[int]] = defaultdict(set)
        self.factor_calls = 0
        self.max_input_bits = 0
        self.steps = 0
        self.peak_bits = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        if len(self._stack) == 2:
            self._root = idx
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def root(self, name: str, fn):
        """Run fn() as a top-level span (one benchmark operation)."""
        idx = self.open(self._id(name))
        try:
            return fn()
        finally:
            self.close(idx)

    # --- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn, counter=None):
        name_id, counter_id = self._id(name), self._id("bench.counter")
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                cidx = open_(counter_id)
                counter(args, kwargs, result)
                close(cidx)
            return result

        return wrapper

    def _count_factor(self, args, kwargs, result) -> None:
        n = abs(args[0])
        self.factor_calls += 1
        self.factor_inputs[self._root].add(n)
        self.max_input_bits = max(self.max_input_bits, n.bit_length())

    def _count_orbit(self, args, kwargs, record) -> None:
        self.steps += record.length
        bits = (x.numerator.bit_length() + x.denominator.bit_length()
                for x in record.points if hasattr(x, "numerator"))
        self.peak_bits = max(self.peak_bits, max(bits, default=0))

    def install(self) -> None:
        """Wrap every TRACED function wherever it is referenced."""
        counters = {"padic.factor_int": self._count_factor, "orbit.run_orbit": self._count_orbit}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qmobius" or n.startswith("qmobius.")]
        classes = [v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("qmobius")]
        namespaces = list(dict.fromkeys(modules + classes))
        for name, module, attr in TRACED:
            owner = sys.modules[module]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[attr.split(".")[-1]]
            wrapper = self._wrap(name, original, counters.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._saved):
            setattr(ns, key, original)
        self._saved.clear()

    # --- results ----------------------------------------------------------

    def mark_round(self) -> None:
        """Start a new round: its spans are those opened from here on."""
        self.marks.append(len(self.start))

    def per_round(self) -> list[tuple[dict[str, int], dict[str, int]]]:
        """(calls, self time in ns) per span name, for each round."""
        bounds = self.marks + [len(self.start)]
        return [self._self_times(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def _self_times(self, lo: int, hi: int) -> tuple[dict[str, int], dict[str, int]]:
        covered = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                covered[p - lo] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_ns[name] += self.end[i] - self.start[i] - covered[i - lo]
        return calls, self_ns

    def distinct_ratio(self) -> float:
        """Distinct factor_int inputs per operation, over all calls."""
        if not self.factor_calls:
            return 0.0
        return sum(len(s) for s in self.factor_inputs.values()) / self.factor_calls

    def write(self, path) -> None:
        """Gzipped TSV, one line per span: id, parent id, name, start and end in ns."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names, name, parent, start, end = self.names, self.name, self.parent, self.start, self.end
            out.writelines(f"{i}\t{parent[i]}\t{names[name[i]]}\t{start[i]}\t{end[i]}\n"
                           for i in range(len(start)))
