"""In-memory span tracer that wraps spacefill's public functions at module
boundaries, from outside the library.

``Tracer.install`` replaces every public function of the seven modules (and
the two distance kernels of ``core``) with a timing wrapper in every module
namespace that binds it, so calls between modules are traced as well as the
benchmark's own calls.  ``RngState`` is replaced by a counting subclass and
``cli.CsvRecordStream`` by a subclass that times each record read; the preset
density and viability callables are wrapped when ``presets`` hands them out.
Nothing inside ``src/`` changes and every output stays bit-identical.

Each wrapped call records a span (id, name, start, end, parent id, op).
Calls that happen hundreds of thousands of times per pass (RNG draws, preset
callables, CSV record reads) are charged to their layer and to the enclosing
span without storing a span each.  A layer's self time is the duration of
its spans minus the time their child spans and charges cover, so the self
times of all layers, ``harness`` included, add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "samplers", "adapt", "metrics", "cli", "bench", "presets")

# Public functions outside a module's __all__, and span names that differ
# from the function name.
EXTRA_PUBLIC = {
    "core": ("squared_distance_matrix", "min_squared_dists"),
    "cli": ("read_samples", "write_samples"),
}
SPAN_NAMES = {"cli.read_samples": "cli.read", "cli.write_samples": "cli.write"}


def _size_count(size) -> int:
    if size is None:
        return 1
    if isinstance(size, tuple):
        return math.prod(size)
    return int(size)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # open spans as [id, seconds covered by children]
        self._next_id = 0
        self._restore = []
        self._lhs_default = None

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a recorded span."""
        layer = name.partition(".")[0]
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            self.self_s[layer] += dur - frame[1]
            self.busy_s[name] += dur
            self.counts[name + ".calls"] += 1
            if parent is not None:
                parent[1] += dur
            self.spans.append((frame[0], name, start, end,
                               None if parent is None else parent[0], self.op))

    def charger(self, name):
        """A function that calls a hot leaf fn and charges its time to name
        and to the enclosing span, without storing a span."""
        layer = name.partition(".")[0]
        calls = name + ".calls"
        self_s, busy_s, counts, stack = self.self_s, self.busy_s, self.counts, self._stack

        def charge(fn, *args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - start
                self_s[layer] += dur
                busy_s[name] += dur
                counts[calls] += 1
                if stack:
                    stack[-1][1] += dur

        return charge

    # -- installation ------------------------------------------------------

    def install(self, sf) -> None:
        """Wrap the library's module boundaries; undo with ``uninstall``."""
        modules = {layer: getattr(sf, layer) for layer in LAYERS}
        self._lhs_default = inspect.signature(
            sf.samplers.lhs_maximin).parameters["config"].default
        replace = {}
        for layer, mod in modules.items():
            names = set(getattr(mod, "__all__", ())) | set(EXTRA_PUBLIC.get(layer, ()))
            for attr in sorted(names):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    qual = f"{layer}.{attr}"
                    replace[fn] = self._wrapper(SPAN_NAMES.get(qual, qual), fn)
        replace[sf.core.RngState] = self._counting_rng(sf.core.RngState)
        replace[sf.cli.CsvRecordStream] = self._timed_stream(sf.cli.CsvRecordStream)
        for mod in (sf, *modules.values()):
            for attr, value in list(vars(mod).items()):
                try:
                    new = replace.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if new is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrapper(self, name, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is None:
                return tracer.span(name, fn, *args, **kwargs)
            return hook(lambda *a, **k: tracer.span(name, fn, *a, **k), args, kwargs)

        return traced

    def _counting_rng(self, base):
        charge = self.charger("core.rng")
        counts = self.counts

        class CountingRngState(base):
            """RngState that counts calls and values drawn; same stream."""

            __slots__ = ()

            def random(self, size=None):
                counts["core.rng.values"] += _size_count(size)
                return charge(base.random, self, size)

            def uniform(self, lo, hi, size=None):
                counts["core.rng.values"] += _size_count(size)
                return charge(base.uniform, self, lo, hi, size)

            def integers(self, n):
                counts["core.rng.values"] += 1
                return charge(base.integers, self, n)

            def permutation(self, n):
                counts["core.rng.values"] += int(n)
                return charge(base.permutation, self, n)

            def child(self, tag):
                return CountingRngState(base.child(self, tag).seed)

        return CountingRngState

    def _timed_stream(self, base):
        charge = self.charger("cli.read")
        counts = self.counts

        class TimedCsvRecordStream(base):
            """CsvRecordStream whose record reads are charged to cli.read."""

            def __init__(self, path):
                super().__init__(path)
                counts["cli.read.bytes"] += self.size

            def __next__(self):
                return charge(base.__next__, self)

        return TimedCsvRecordStream

    # -- per-function counters ---------------------------------------------

    def _hook_core_squared_distance_matrix(self, call, args, kwargs):
        self.counts["core.squared_distance_matrix.pairs"] += len(args[0]) ** 2
        return call(*args, **kwargs)

    def _hook_core_min_squared_dists(self, call, args, kwargs):
        self.counts["core.min_squared_dists.pairs"] += len(args[0]) * len(args[1])
        return call(*args, **kwargs)

    def _hook_samplers_lhs_maximin(self, call, args, kwargs):
        config = args[3] if len(args) > 3 else kwargs.get("config", self._lhs_default)
        trace = args[4] if len(args) > 4 else kwargs.get("trace")
        if trace is None:
            trace = []
            kwargs = dict(kwargs, trace=trace)
        before = len(trace)
        result = call(*args, **kwargs)
        self.counts["samplers.lhs_maximin.accepted"] += len(trace) - before
        self.counts["samplers.lhs_maximin.attempts"] += config.n_tries * config.n_interchanges
        return result

    def _hook_samplers_latinize(self, call, args, kwargs):
        result = call(*args, **kwargs)
        before = args[0].points
        self.counts["samplers.latinize.moved"] += int((result.points != before).sum())
        self.counts["samplers.latinize.coords"] += before.size
        return result

    def _hook_metrics_cl2_discrepancy(self, call, args, kwargs):
        n, d = args[0].points.shape
        self.counts["metrics.cl2_discrepancy.pair_dims"] += n * n * d
        return call(*args, **kwargs)

    def _hook_adapt_stream_subset(self, call, args, kwargs):
        result = call(*args, **kwargs)
        records = getattr(args[0], "records", None)
        self.counts["adapt.stream_subset.records"] += (
            records if isinstance(records, int) else len(args[0]))
        return result

    def _hook_bench_run_experiment(self, call, args, kwargs):
        report = call(*args, **kwargs)
        for method, seconds in report.method_times.items():
            self.counts["bench.method_time_s." + method] += seconds
        return report

    def _hook_cli_write(self, call, args, kwargs):
        out = args[1]
        start = out.tell()
        result = call(*args, **kwargs)
        self.counts["cli.write.bytes"] += out.tell() - start
        return result

    def _hook_cli_read(self, call, args, kwargs):
        path = args[0]
        if path != "-":
            self.counts["cli.read.bytes"] += os.path.getsize(path)
        return call(*args, **kwargs)

    def _hook_presets_density_by_name(self, call, args, kwargs):
        fn, top = call(*args, **kwargs)
        charge = self.charger("presets.density")
        return (lambda p: charge(fn, p)), top

    def _hook_presets_viability_by_name(self, call, args, kwargs):
        fn = call(*args, **kwargs)
        charge = self.charger("presets.viability")
        counts = self.counts

        def viability(p):
            ok = charge(fn, p)
            if ok:
                counts["presets.viability.accepted"] += 1
            return ok

        return viability

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
