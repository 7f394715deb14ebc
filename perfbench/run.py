"""spacefill benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Set-up (importing the library in a fresh interpreter, and making the
workload's inputs from the seed) is repeated and the medians taken.  After a
warm-up pass at tiny sizes, whole passes over the workload's fixed operation
set run, one caller in a closed loop, for ``--seconds``: a pass starts only
if a pass of median length still fits, and there are always enough passes for
MIN_OPS operations.  Every operation's output is checked: invariants
that hold for any correct build, agreement of its sha256 across passes, and
for the pinned seed the digest in ``perfbench/digests.json``.  A failed check
or an exception counts the operation as failed.

The metric names and units are those of ``BENCHMARK.json``.  Times are
scaled to a reference host speed by ``calibration``; the raw values and the
speed factors are printed and written to ``.bench_out/result-*.json``.  With
``--trace 0`` the end-to-end metrics are measured.  With ``--trace 1`` half
the time runs untraced and half under the tracer; its per-layer metrics are
reported and its spans are written to ``.bench_out/``.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Operations a run makes at least, so that the tail percentile has ten
# beyond it: p75 of 40.
MIN_OPS = 40
DEFAULT_SEED = 1
WORKLOADS = ("paper-grid", "constrained-refill", "csv-stream")

TAIL_LADDER = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
C5_ORDER = ("random", "greedyfp", "hybrid", "bc", "lhs-maximin")


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Meter:
    """Runs passes over a workload's ops, times them and checks every
    output."""

    def __init__(self, ops, pinned, calibration, corrupt_op=None, log=print):
        self.ops = ops
        self.pinned = pinned
        self.calibration = calibration
        self.corrupt_op = corrupt_op
        self.log = log
        self.digests = {}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None) -> dict:
        from workloads import Output, corrupt

        lat, cpu, paused, cal, inside = [], [], [], [], []
        points = records = 0
        method_times = {}
        for op in self.ops:
            cal.append(self.calibration.sample())
            err = None
            with self.calibration.during() as taken:
                c0, t0 = process_time(), perf_counter()
                try:
                    if tracer is None:
                        result = op.run()
                    else:
                        tracer.op = op.name
                        result = tracer.span("harness.op", op.run)
                except Exception as exc:  # the op failed; the benchmark goes on
                    err = exc
                t1, c1 = perf_counter(), process_time()
            pause = sum(h for _, h in taken)
            inside.append([x for x, _ in taken])
            paused.append(pause)
            lat.append(t1 - t0 - pause)
            cpu.append(c1 - c0 - pause)
            self.attempted += 1
            if err is not None:
                out = Output(b"", problems=[f"raised {type(err).__name__}: {err}"])
            else:
                if op.name == self.corrupt_op:
                    result = corrupt(result)
                try:
                    out = op.check(result)
                except Exception as exc:  # malformed output the check choked on
                    out = Output(b"", problems=[f"check raised {exc!r}"])
                digest = sha256(out.payload)
                if digest != self.digests.setdefault(op.name, digest):
                    out.problems.append("output differs from the first pass")
                pinned = self.pinned.get(op.name)
                if pinned is not None and digest != pinned:
                    out.problems.append(f"sha256 {digest} differs from pinned {pinned}")
            if out.problems:
                self.failed += 1
                self.log(f"FAILED {op.name}: {'; '.join(out.problems)}")
            points += out.points
            records += out.records
            for method, seconds in out.method_times.items():
                method_times[method] = method_times.get(method, 0.0) + seconds
        cal.append(self.calibration.sample())
        # Host speed changes within a second, and one op can last several:
        # each op is scaled by the samples taken while it ran, or by the two
        # around it if it was too short for one.
        factors = [self.calibration.factor(inside[i] or cal[i:i + 2]) for i in range(len(lat))]
        return {"lat": lat, "cpu": cpu, "paused": paused, "cal": cal, "inside": inside,
                "factors": factors,
                "scaled_lat": [x * f for x, f in zip(lat, factors)],
                "scaled_cpu": [x * f for x, f in zip(cpu, factors)],
                "points": points, "records": records, "method_times": method_times}

    def measure(self, seconds, tracer=None, min_passes=1) -> list:
        """Whole passes for about ``seconds``: the next pass starts if one
        of median length still fits, and always until ``min_passes``."""
        passes, lengths = [], []
        start = perf_counter()
        while (len(passes) < min_passes
               or perf_counter() - start + statistics.median(lengths) <= seconds):
            t0 = perf_counter()
            passes.append(self.run_pass(tracer))
            lengths.append(perf_counter() - t0)
        return passes


def import_seconds() -> float:
    """Time of ``import spacefill`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import spacefill; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def percentile(values, p) -> float:
    """Harrell-Davis estimate: a weighted mean of all order statistics,
    steadier than one or two of them when few ops are measured."""
    from scipy.stats.mstats import hdquantiles
    return float(hdquantiles(values, prob=[p / 100.0])[0])


def min_passes(ops_per_pass: int) -> int:
    return math.ceil(MIN_OPS / ops_per_pass)


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten ops beyond it in the
    passes every run makes (the median below twenty ops).  It depends on the
    op set only, so a faster build that fits more passes into a run reports
    the same percentile."""
    n = ops_per_pass * min_passes(ops_per_pass)
    return next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10 - 1e-9), 50.0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(passes, setup, log) -> tuple:
    """Metrics of the untraced passes at reference host speed, the same
    metrics in raw seconds, and the host speed factors of the run."""
    ops = len(passes[0]["lat"])
    pct = tail_percentile(ops)
    values, raw = {}, {}
    for out, prefix in ((values, "scaled_"), (raw, "")):
        lat = [x for p in passes for x in p[prefix + "lat"]]
        walls = [sum(p[prefix + "lat"]) for p in passes]
        out["setup_s"] = setup[prefix + "s"]
        out["wall_s"] = statistics.median(walls)
        out["cpu_s"] = statistics.median(sum(p[prefix + "cpu"]) for p in passes)
        out["samples_per_s"] = sum(p["points"] for p in passes) / sum(walls)
        out["op_p50_ms"] = percentile(lat, 50) * 1e3
        out["op_tail_ms"] = percentile(lat, pct) * 1e3
        out["records_per_s"] = sum(p["records"] for p in passes) / sum(walls)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = [f for p in passes for f in p["factors"]]
    host = {"median": statistics.median(factors), "min": min(factors), "max": max(factors)}
    log(f"host speed factor: median {host['median']:.4g}, range {host['min']:.4g}.."
        f"{host['max']:.4g} over ops; raw values in brackets")
    notes = {
        "wall_s": f"median per pass, {len(passes)} passes",
        "cpu_s": f"median per pass, {len(passes)} passes",
        "op_p50_ms": f"over {ops * len(passes)} op executions",
        "op_tail_ms": f"p{pct:g} over {ops * len(passes)} op executions, "
                      f"{ops} ops x {len(passes)} passes",
        "records_per_s": "CSV records read; informational",
    }
    for name, unit in {**metric_units("end_to_end"), "records_per_s": "1/s"}.items():
        if name == "records_per_s" and not values[name]:
            log("records_per_s n/a  (this workload reads no CSV)")
            continue
        note = f"  ({notes[name]})" if name in notes else ""
        log(f"{name} {values[name]:.6g} {unit}  [raw {raw[name]:.6g}]{note}")
    return values, raw, host


def c5_line(passes) -> str | None:
    """The paper's timing ordering from bench's own per-method times;
    informational, never a gate."""
    times = {}
    for p in passes:
        for method, seconds in p["method_times"].items():
            times[method] = times.get(method, 0.0) + seconds / len(passes)
    if not all(m in times for m in C5_ORDER):
        return None
    got = sorted(C5_ORDER, key=times.get)
    holds = (got[0] == "random" and got[-1] == "lhs-maximin"
             and times["greedyfp"] < times["hybrid"] < times["bc"])
    parts = " < ".join(f"{m} {times[m]:.3f}s" for m in got)
    return f"C5 ordering (informational, not gated): {parts}: {'holds' if holds else 'does not hold'}"


def per_layer(tracer, traced, untraced, log) -> tuple:
    """Per-pass means of the traced passes, in raw seconds; the overhead
    compares traced and untraced pass times at reference host speed.  Also
    returns the problem found by the trace check, or None: the layers' self
    times must sum to the op latencies measured outside the tracer within
    the tracing overhead."""
    n = len(traced)
    c, busy, own = tracer.counts, tracer.busy_s, tracer.self_s

    def median_wall(passes):
        return statistics.median(sum(p["scaled_lat"]) for p in passes)

    ratios = {
        "samplers.lhs_maximin.accept_ratio": ("samplers.lhs_maximin.accepted",
                                              "samplers.lhs_maximin.attempts"),
        "samplers.latinize.moved_ratio": ("samplers.latinize.moved", "samplers.latinize.coords"),
        "presets.viability.accept_ratio": ("presets.viability.accepted",
                                           "presets.viability.calls"),
    }
    units = metric_units("per_layer")
    wall = sum(sum(p["lat"]) for p in traced) / n
    # The spans also hold the calibration samples taken inside ops.
    outside = wall + sum(sum(p["paused"]) for p in traced) / n
    overhead = median_wall(traced) / median_wall(untraced) - 1.0
    values = {}
    for name in units:
        head, _, last = name.rpartition(".")
        if name == "trace.wall_s":
            values[name] = wall
        elif name == "trace.overhead_ratio":
            values[name] = overhead
        elif last == "self_s":
            values[name] = own.get(head, 0.0) / n
        elif last == "busy_s":
            values[name] = busy.get(head, 0.0) / n
        elif name in ratios:
            num, den = (c.get(k, 0.0) for k in ratios[name])
            values[name] = num / den if den else 0.0
        else:
            values[name] = c.get(name, 0.0) / n
        log(f"{name} {values[name]:.6g} {units[name]}")
    self_sum = sum(own.values()) / n
    gap = abs(self_sum - outside) / outside
    holds = gap <= abs(overhead)
    log(f"trace check: layer self times sum to {self_sum:.6g} s per pass; op latencies "
        f"measured outside the tracer {outside:.6g} s per pass; gap {gap:.3%}, overhead "
        f"{overhead:.2%} ({n} traced, {len(untraced)} untraced passes): "
        f"{'holds' if holds else 'FAILED'}")
    problem = None if holds else f"self times miss the traced wall time by {gap:.3%}"
    return values, problem


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def set_up(build, seed, size, work, calibration) -> tuple:
    """Build the ops SETUP_REPEATS times.  Set-up time is the median import
    time plus the median build time.  Each build is scaled by the calibration
    samples taken while it ran.  Imports run in a child process, whose speed
    samples taken here do not describe, so they are not scaled."""
    repeats = SETUP_REPEATS if size == "full" else 1
    imports = [import_seconds() for _ in range(repeats)] if size == "full" else [0.0]
    builds = []
    for i in range(repeats):
        path = work / f"setup{i}"
        path.mkdir(parents=True)
        before = calibration.sample()
        with calibration.during() as taken:
            t0 = perf_counter()
            ops = build(seed, size, str(path))
            t = perf_counter() - t0 - sum(h for _, h in taken)
        around = [x for x, _ in taken] or [before, calibration.sample()]
        builds.append((t, t * calibration.factor(around)))
    return ops, {"s": statistics.median(imports) + statistics.median(b for b, _ in builds),
                 "scaled_s": statistics.median(imports) + statistics.median(b for _, b in builds)}


def run(workload, seed, seconds, trace, *, size="full", corrupt_op=None, log=print) -> dict:
    import spacefill
    import workloads
    from calibration import Calibration
    from tracer import Tracer

    build = workloads.WORKLOADS[workload]
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    calibration = Calibration()
    try:
        ops, setup = set_up(build, seed, size, work, calibration)
        warm = work / "warm"
        warm.mkdir()
        Meter(build(seed, "tiny", str(warm)), {}, calibration, log=lambda _: None).run_pass()

        pinned = {}
        if size == "full" and seed == DEFAULT_SEED:
            pinned = json.loads((HERE / "digests.json").read_text())["digests"].get(workload, {})
        meter = Meter(ops, pinned, calibration, corrupt_op, log)
        log(f"workload {workload} seed {seed} size {size}: {len(ops)} ops per pass")
        problem = None
        if not trace:
            passes = meter.measure(seconds, min_passes=min_passes(len(ops)))
            metrics, raw, host = end_to_end(passes, setup, log)
            record = {"metrics": metrics, "raw": raw, "host_speed_factor": host}
            units = metric_units("end_to_end")
        else:
            passes = meter.measure(seconds / 2)
            tracer = Tracer()
            tracer.install(spacefill)
            try:
                traced = meter.measure(seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics, problem = per_layer(tracer, traced, passes, log)
            record = {"metrics": metrics}
            units = metric_units("per_layer")
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
            passes = passes + traced
        line = c5_line(passes)
        if line:
            log(line)
        log(f"failed_ratio {meter.failed / meter.attempted:.6g}  "
            f"({meter.failed} of {meter.attempted} ops)")
        digests = json.dumps(meter.digests, sort_keys=True)
        log(f"outputs sha256 {sha256(digests.encode())} over {len(meter.digests)} ops")
        if size == "full":
            OUT.mkdir(exist_ok=True)
            tag = f"{workload}-seed{seed}"
            (OUT / f"digests-{tag}.json").write_text(digests + "\n")
            (OUT / f"passes-{tag}-trace{trace}.json").write_text(
                json.dumps({"ops": [op.name for op in ops], "passes": passes}) + "\n")
            (OUT / f"result-{tag}-trace{trace}.json").write_text(json.dumps(record) + "\n")
        return {
            "correct": meter.failed == 0 and problem is None,
            "attempted": meter.attempted,
            "failed": meter.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spacefill" / "__init__.py").is_file():
        print(f"perfbench: no spacefill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One single-threaded process per workload.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
