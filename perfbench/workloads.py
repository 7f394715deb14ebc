"""The benchmark's workloads: inputs made from the workload seed, the fixed
set of operations one pass runs, and a check of every operation's output.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Operations look the library up through its
module attributes at call time, so a tracer installed between passes sees
every call.  Each builder returns a list of ``Op``; ``Op.run`` calls the
library and ``Op.check`` turns the result into the bytes that are digested,
the design points and CSV records counted, and the problems found.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial.distance import pdist

from spacefill import adapt, bench, cli, core, presets, samplers


@dataclass
class Output:
    payload: bytes
    points: int = 0
    records: int = 0
    problems: list = field(default_factory=list)
    method_times: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Output]


def derive(*parts) -> int:
    """64-bit seed for one input or operation of a workload."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def corrupt(result):
    """A wrong version of an operation's result, for the self-check: the
    last point or row repeats the first, or a metric turns negative."""
    if isinstance(result, tuple):  # CLI (exit code, output bytes, stderr)
        lines = result[1].split(b"\n")
        lines[-2] = lines[1]
        return (result[0], b"\n".join(lines), result[2])
    if isinstance(result, bench.BenchReport):
        data = _report_data(result)
        data["rows"] = [dict(r) for r in data["rows"]]
        data["rows"][0]["nn_min"] = -1.0
        return data
    bad = result.points.copy()
    bad[-1] = bad[0]
    return bad


def latin_holds(u: np.ndarray) -> bool:
    """Exact one-value-per-bin check on [0, 1] coordinates; bins are
    half-open [k/n, (k+1)/n) with the last one closed at 1."""
    n = u.shape[0]
    edges = np.arange(n + 1) / n
    for col in u.T:
        bins = np.minimum(np.searchsorted(edges, col, side="right") - 1, n - 1)
        if not np.array_equal(np.sort(bins), np.arange(n)):
            return False
    return True


# ---------------------------------------------------------------------------
# paper-grid: the paper's comparison through bench.run_experiment
# ---------------------------------------------------------------------------

TINY_PAPER_N = 30


def paper_grid(seed: int, size: str, workdir: str) -> list:
    """One op per (experiment, method) cell of the paper suite, one
    repetition each, with Latinized variants."""
    seed_base = derive("paper-grid", seed) % 2**32
    ops = []
    for spec in bench.paper_suite(seed_base=seed_base, reps_override=1):
        n = spec.n_samples if size == "full" else TINY_PAPER_N
        for method, params in spec.methods:
            cell = bench.ExperimentSpec(
                name=spec.name, dim=spec.dim, n_samples=n, repetitions=1,
                methods=[(method, dict(params))], latinize_variants=True,
                seed_base=seed_base)
            ops.append(Op(f"{spec.name}/{method}",
                          lambda cell=cell: bench.run_experiment(cell),
                          lambda r, n=n: _check_report(r, n)))
    return ops


def _report_data(report) -> dict:
    return {"rows": report.rows, "failures": report.failures,
            "method_times": report.method_times}


def _check_report(data, n) -> Output:
    if not isinstance(data, dict):
        data = _report_data(data)
    rows = data["rows"]
    problems = [f"cell failed: {f}" for f in data["failures"]]
    if len(rows) != 2:
        problems.append(f"expected 2 rows (plain and Latinized), got {len(rows)}")
    for r in rows:
        vals = [r[k] for k in ("nn_min", "nn_avg", "nn_max", "phi_p", "cl2")]
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"non-finite metric in {r}")
        elif not (0 < r["nn_min"] <= r["nn_avg"] <= r["nn_max"] and r["phi_p"] > 0
                  and r["cl2"] > 0):
            problems.append(f"inconsistent metrics {vals}")
    payload = json.dumps(rows, sort_keys=True).encode()
    return Output(payload, points=n * len(rows), problems=problems,
                  method_times=dict(data["method_times"]))


# ---------------------------------------------------------------------------
# constrained-refill: the adaptations on non-rectangular and weighted domains
# ---------------------------------------------------------------------------

SIZES = {
    # n, base, add, poisson r, anchors, candidates per anchor, curve picks,
    # and cvt (n, niter, ppi)
    "full": dict(n=500, base=500, add=250, r=0.03, anchors=200, per_anchor=50,
                 picks=500, cvt=(500, 5, 10_000)),
    "tiny": dict(n=30, base=40, add=10, r=0.15, anchors=20, per_anchor=5,
                 picks=30, cvt=(10, 2, 200)),
}
DENSITY = "gauss-center"
VIABILITY = "parabola-above"
FP_ALGOS = ("bc", "greedyfp", "hybrid")
EXPAND_UPPER = 1.2


def _rng(seed):
    return core.RngState(seed)


def _density_domain(dim):
    fn, top = presets.density_by_name(DENSITY)
    return core.Domain.unit(dim, density=fn, density_max=top)


def _viable_domain(dim):
    return core.Domain.unit(dim, viability=presets.viability_by_name(VIABILITY))


def curve_anchors(rs: np.random.Generator, count: int) -> np.ndarray:
    """Points along a sine curve through the unit square, random phase."""
    t = np.sort(rs.random(count))
    phase = rs.random() * 2 * math.pi
    return np.column_stack([0.05 + 0.9 * t, 0.5 + 0.3 * np.sin(2 * math.pi * t + phase)])


def constrained_refill(seed: int, size: str, workdir: str) -> list:
    sz = SIZES[size]
    rs = np.random.default_rng(derive("constrained-refill", seed))
    base = core.SampleSet(core.Domain.unit(4), rs.random((sz["base"], 4)),
                          frozen_count=sz["base"])
    anchors = core.SampleSet(core.Domain.unit(2), curve_anchors(rs, sz["anchors"]),
                             frozen_count=sz["anchors"])
    region = adapt.CurveRegionSpec(anchors, 0.03, sz["per_anchor"])
    wider = core.Domain(np.zeros(4), np.full(4, EXPAND_UPPER))
    n, add = sz["n"], sz["add"]
    cvt_n, niter, ppi = sz["cvt"]
    ops = []

    def op(name, run, check):
        op_seed = derive("constrained-refill", seed, name)
        ops.append(Op(name, lambda: run(op_seed), check))

    for algo in FP_ALGOS:
        op(f"density/{algo}/2d-{n}",
           lambda s, a=algo: samplers.generate(a, _density_domain(2), n, _rng(s)),
           _points_check(n, 2))
    for dim in (2, 4):
        for algo in FP_ALGOS:
            op(f"viable/{algo}/{dim}d-{n}",
               lambda s, a=algo, d=dim: adapt.viable_region_sample(
                   _viable_domain(d), n, a, None, _rng(s)),
               _points_check(n, dim, viable=True))
    op(f"viable/cvt/2d-{cvt_n}",
       lambda s: adapt.viable_region_sample(
           _viable_domain(2), cvt_n, "cvt", {"niter": niter, "ppi": ppi}, _rng(s)),
       _points_check(cvt_n, 2, viable=True))
    op(f"viable/poisson/2d-r{sz['r']}",
       lambda s: samplers.generate("poisson", _viable_domain(2), None, _rng(s), {"r": sz["r"]}),
       _points_check(None, 2, viable=True, radius=sz["r"]))
    for algo in FP_ALGOS:
        op(f"incremental/{algo}/4d-{sz['base']}+{add}",
           lambda s, a=algo: adapt.incremental_add(base, add, a, None, _rng(s)),
           _points_check(sz["base"] + add, 4, prefix=base.points))
    for algo in FP_ALGOS:
        op(f"expand/{algo}/4d-{sz['base']}+{add}",
           lambda s, a=algo: adapt.expand_domain(base, wider, add, a, None, _rng(s)),
           _points_check(sz["base"] + add, 4, prefix=base.points, upper=EXPAND_UPPER,
                         outside_unit=True))
    op(f"curve/2d-{sz['anchors']}x{sz['per_anchor']}-{sz['picks']}",
       lambda s: adapt.curve_region_sample(region, sz["picks"], _rng(s)),
       _points_check(sz["anchors"] + sz["picks"], 2, prefix=anchors.points, distinct=True))
    return ops


def _points_check(count, dim, *, viable=False, radius=None, prefix=None, upper=1.0,
                  outside_unit=False, distinct=False):
    """Check of a SampleSet result (or its corrupted point array)."""
    viability = presets.VIABILITIES[VIABILITY]

    def check(result) -> Output:
        pts = result if isinstance(result, np.ndarray) else result.points
        kept = 0 if prefix is None else len(prefix)
        new = pts[kept:]
        problems = []
        if pts.ndim != 2 or pts.shape[1] != dim:
            problems.append(f"shape {pts.shape}, expected (n, {dim})")
        elif count is not None and len(pts) != count:
            problems.append(f"{len(pts)} points, expected {count}")
        elif len(pts) < 2:
            problems.append(f"only {len(pts)} points")
        if not np.all(np.isfinite(pts)) or np.any(pts < 0.0) or np.any(pts > upper):
            problems.append("a point lies outside the domain box")
        if prefix is not None and pts[:kept].tobytes() != prefix.tobytes():
            problems.append("frozen prefix changed")
        if viable and not all(viability(p) for p in pts):
            problems.append("a point violates the viability predicate")
        if radius is not None and pdist(pts).min() < radius:
            problems.append(f"two points closer than r={radius}")
        if outside_unit and np.any(np.all(new <= 1.0, axis=1)):
            problems.append("an added point lies inside the original box")
        if distinct and len(np.unique(new, axis=0)) != len(new):
            problems.append("a candidate was selected twice")
        payload = np.ascontiguousarray(pts).tobytes() + repr(pts.shape).encode()
        return Output(payload, points=len(new), problems=problems)

    return check


# ---------------------------------------------------------------------------
# csv-stream: the CLI path, in process, on files in a work directory
# ---------------------------------------------------------------------------

CSV_SIZES = {
    "full": dict(records=100_000, design=20_000, subsets=(200, 1000), segment=10_000,
                 generate=20_000, anchors=200, per_anchor=50, picks=500, add=100),
    "tiny": dict(records=2_000, design=300, subsets=(20, 50), segment=500,
                 generate=200, anchors=20, per_anchor=5, picks=30, add=5),
}


def csv_line(row) -> bytes:
    return ",".join(f"{v:.17g}" for v in row).encode()


def write_csv(path: str, points: np.ndarray) -> np.ndarray:
    """Write a sample CSV in the library's format (header x0..x{d-1}, 17
    significant digits) without library code; return the sorted hashes of
    its data lines, a compact membership index."""
    hashes = np.empty(len(points), dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(",".join(f"x{j}" for j in range(points.shape[1])).encode() + b"\n")
        for i, row in enumerate(points):
            line = csv_line(row)
            hashes[i] = hash(line)
            fh.write(line + b"\n")
    hashes.sort()
    return hashes


def _records(rs: np.random.Generator, count: int) -> np.ndarray:
    """Clustered records in the unit cube: eight Gaussian blobs plus a
    uniform fifth."""
    centers = 0.2 + 0.6 * rs.random((8, 4))
    blob = centers[rs.integers(8, size=count)] + 0.05 * rs.standard_normal((count, 4))
    uniform = rs.random((count, 4))
    pts = np.where(rs.random((count, 1)) < 0.8, blob, uniform)
    return np.clip(pts, 0.0, 1.0)


def _file_lines(path: str) -> list:
    with open(path, "rb") as fh:
        return fh.read().split(b"\n")[1:-1]


def csv_stream(seed: int, size: str, workdir: str) -> list:
    """The CLI subcommands subset, generate, score, latinize, expand and
    append-region, on files written in set-up (a record file, a design,
    curve anchors) and on the files earlier ops of the pass wrote."""
    sz = CSV_SIZES[size]
    rs = np.random.default_rng(derive("csv-stream", seed))

    def path(name):
        return os.path.join(workdir, name + ".csv")

    record_index = write_csv(path("records"), _records(rs, sz["records"]))
    write_csv(path("design"), rs.random((sz["design"], 4)))
    write_csv(path("anchors"), curve_anchors(rs, sz["anchors"]))
    small, large = sz["subsets"]
    n_gen, add = sz["generate"], sz["add"]
    ops = []

    def op(name, argv, check, out=None, records=0):
        if argv[0] != "score":  # the one command that draws nothing
            argv = argv + ["--seed", str(derive("csv-stream", seed, name) % 2**63)]
        if out is not None:
            argv = argv + ["--out", path(out)]
        ops.append(Op(name, lambda: _cli(argv, out and path(out)),
                      lambda r: _cli_check(r, check, records)))

    for n, out in ((small, "sub-small"), (large, "sub-large")):
        op(f"subset/{sz['records']}-{n}-seg{sz['segment']}",
           ["subset", "--in", path("records"), "--n", str(n), "--segment", str(sz["segment"])],
           _subset_check(n, record_index), out, records=sz["records"])
    gen = ["generate", "--algo", "random", "--dim", "4", "--n", str(n_gen)]
    op(f"generate/random-4d-{n_gen}", gen, _csv_check(n_gen, 4), "gen")
    op(f"generate/random-4d-{n_gen}-latinize", gen + ["--latinize"],
       _csv_check(n_gen, 4, latin=True), "gen-lat")
    op(f"score/sub-large-{large}", ["score", "--in", path("sub-large")],
       _score_check(large, 4), records=large)
    op(f"latinize/design-{sz['design']}", ["latinize", "--in", path("design")],
       _csv_check(sz["design"], 4, latin=True), "lat", records=sz["design"])
    op(f"expand/sub-large-{large}+{add}-bc",
       ["expand", "--in", path("sub-large"), "--new-lower", "0", "--new-upper", str(EXPAND_UPPER),
        "--add", str(add), "--algo", "bc"],
       _csv_check(large + add, 4, prefix_path=path("sub-large"), upper=EXPAND_UPPER,
                  outside_unit=True), "exp-sub-large", records=large)
    op(f"append-region/{sz['anchors']}x{sz['per_anchor']}-{sz['picks']}",
       ["append-region", "--anchors", path("anchors"), "--halfwidth", "0.03",
        "--cands-per-anchor", str(sz["per_anchor"]), "--n", str(sz["picks"])],
       _csv_check(sz["anchors"] + sz["picks"], 2, prefix_path=path("anchors")),
       "region", records=sz["anchors"])
    return ops


def _cli(argv, out_path):
    """Run one CLI command in process; returns (exit code, output bytes,
    stderr text).  The output is the --out file, or stdout without one."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if out_path is None or code != 0:
        data = stdout.getvalue().encode()
    else:
        with open(out_path, "rb") as fh:
            data = fh.read()
    return code, data, stderr.getvalue()


def _cli_check(result, check, records) -> Output:
    code, data, err = result
    if code != 0:
        return Output(data, problems=[f"exit code {code}: {err.strip()}"])
    out = check(data)
    out.records = records
    return out


def _data_lines(data: bytes, dim: int, problems: list) -> list:
    lines = data.split(b"\n")
    header = ",".join(f"x{j}" for j in range(dim)).encode()
    if lines[0] != header or lines[-1] != b"":
        problems.append("bad header or missing final newline")
    return lines[1:-1]


def _parse(lines) -> np.ndarray:
    return np.array([[float(v) for v in ln.split(b",")] for ln in lines])


def _csv_check(count, dim, *, latin=False, prefix_path=None, upper=1.0, outside_unit=False):
    """Check of a sample CSV: row count, box, Latin property, and a frozen
    prefix given as the file the op read (read at check time, since an
    earlier op of the pass writes it)."""
    def check(data: bytes) -> Output:
        problems = []
        lines = _data_lines(data, dim, problems)
        if len(lines) != count:
            problems.append(f"{len(lines)} rows, expected {count}")
            return Output(data, problems=problems)
        pts = _parse(lines).reshape(count, -1)
        if pts.shape[1] != dim or np.any(pts < 0.0) or np.any(pts > upper):
            problems.append("a row lies outside the domain box")
        before = _file_lines(prefix_path) if prefix_path is not None else []
        if lines[:len(before)] != before:
            problems.append("frozen prefix rows changed")
        if outside_unit and np.any(np.all(pts[len(before):] <= 1.0, axis=1)):
            problems.append("an added row lies inside the original box")
        if latin and not latin_holds(pts):
            problems.append("Latin property does not hold")
        return Output(data, points=count - len(before), problems=problems)

    return check


def _subset_check(count, index):
    """Row count, and every row is a line of the input file (by the
    input's sorted line hashes)."""
    def check(data: bytes) -> Output:
        problems = []
        lines = _data_lines(data, 4, problems)
        if len(lines) != count:
            problems.append(f"{len(lines)} rows, expected {count}")
        hashes = np.array([hash(ln) for ln in lines], dtype=np.int64)
        if not np.all(index[np.minimum(np.searchsorted(index, hashes), len(index) - 1)] == hashes):
            problems.append("a subset row is not an input record")
        return Output(data, points=len(lines), problems=problems)

    return check


def _score_check(count, dim):
    def check(data: bytes) -> Output:
        problems = []
        try:
            rep = json.loads(data)
            ok = (rep["n"] == count and rep["d"] == dim
                  and 0 < rep["nnMin"] <= rep["nnAvg"] <= rep["nnMax"]
                  and rep["phiP"] > 0 and rep["cl2"] > 0)
        except (ValueError, KeyError, TypeError) as err:
            ok = False
            problems.append(f"unreadable score report: {err}")
        if not ok and not problems:
            problems.append(f"inconsistent score report {data[:200]!r}")
        return Output(data, problems=problems)

    return check


WORKLOADS = {
    "paper-grid": paper_grid,
    "constrained-refill": constrained_refill,
    "csv-stream": csv_stream,
}
