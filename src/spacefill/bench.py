"""Benchmark harness: the quantitative comparison of the sampling methods
over the (dimension, sample count) grid, with per-method wall time and
optional Latinized variants of every generated set.

Cell seeds derive from (seed_base, method id, repetition index) through a
stated hash, so any cell can be reproduced in isolation and cells can run in
any order.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .core import Domain, RngState, derive_seed
from .metrics import quality_report
from .samplers import _checked, _is_number, generate, latinize

__all__ = [
    "ExperimentSpec",
    "BenchReport",
    "run_experiment",
    "paper_suite",
    "format_report",
    "DEFAULT_SEED_BASE",
]

DEFAULT_SEED_BASE = 161803398

# Method rows of the quantitative comparison, with their parameters.
COMPARISON_METHODS = [
    ("random", {}),
    ("lhs-maximin", {"ntries": 10, "ninterchanges": 100}),
    ("greedyfp", {"scale": 10}),
    ("bc", {"ncand": 250}),
    ("hybrid", {"scale": 10, "refresh": 100}),
]

METHOD_LABELS = {
    "random": "Random",
    "lhs-maximin": "LHS",
    "greedyfp": "GreedyFP",
    "bc": "BC",
    "hybrid": "Hybrid",
}

ROW_FIELDS = ("nn_min", "nn_avg", "nn_max", "phi_p", "cl2")


@dataclass(frozen=True)
class ExperimentSpec:
    """One comparison experiment: a (dim, n) cell of the benchmark grid."""

    name: str
    dim: int
    n_samples: int
    repetitions: int
    methods: list = field(default_factory=lambda: [(m, dict(p)) for m, p in COMPARISON_METHODS])
    latinize_variants: bool = True
    seed_base: int = DEFAULT_SEED_BASE

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n_samples < 2:
            raise ValueError("nSamples must be >= 2 (the metrics need two points)")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        for method, params in self.methods:
            _checked(method, params, self.n_samples)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "nSamples": self.n_samples,
            "repetitions": self.repetitions,
            "methods": [[m, dict(p)] for m, p in self.methods],
            "latinizeVariants": self.latinize_variants,
            "seedBase": self.seed_base,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        known = {"name", "dim", "nSamples", "repetitions", "methods",
                 "latinizeVariants", "seedBase", "schemaVersion"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown experiment keys: {sorted(unknown)}")
        for key in ("dim", "nSamples", "repetitions", "seedBase"):
            if key in d and not _is_number(d[key], True):
                raise ValueError(f"{key} must be an integer, got {d[key]!r}")
        if not isinstance(d.get("latinizeVariants", True), bool):
            raise ValueError(f"latinizeVariants must be a boolean, got {d['latinizeVariants']!r}")
        return cls(
            name=d["name"],
            dim=int(d["dim"]),
            n_samples=int(d["nSamples"]),
            repetitions=int(d["repetitions"]),
            methods=[(m, dict(p)) for m, p in d.get("methods", COMPARISON_METHODS)],
            latinize_variants=d.get("latinizeVariants", True),
            seed_base=int(d.get("seedBase", DEFAULT_SEED_BASE)),
        )


@dataclass
class BenchReport:
    """Raw per-repetition rows plus per-method aggregates for one experiment.

    Cell means always equal the arithmetic mean of the raw rows; the
    aggregates are recomputed, never stored independently.
    """

    spec: ExperimentSpec
    rows: list = field(default_factory=list)
    method_times: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def cell_mean(self, method: str, latinized: bool, metric: str) -> Optional[float]:
        vals = [r[metric] for r in self.rows
                if r["method"] == method and r["latinized"] == latinized]
        if not vals:
            return None
        return sum(sorted(vals)) / len(vals)

    def summary(self) -> dict:
        out = {}
        for method, _ in self.spec.methods:
            cells = {}
            for latinized in (False, True):
                entry = {m: self.cell_mean(method, latinized, m) for m in ROW_FIELDS}
                if any(v is not None for v in entry.values()):
                    cells["lat" if latinized else "nolat"] = entry
            out[method] = {"cells": cells, "time_s": self.method_times.get(method)}
        return out

    def to_dict(self) -> dict:
        return {
            "schemaVersion": 1,
            "experiment": self.spec.to_dict(),
            "summary": self.summary(),
            "failures": list(self.failures),
            "rows": list(self.rows),
        }


def cell_seed(seed_base: int, method: str, rep: int) -> int:
    """Stated per-cell seed derivation (see core.derive_seed)."""
    return derive_seed(seed_base, method, rep)


def run_experiment(spec: ExperimentSpec) -> BenchReport:
    """Run every (method, repetition) cell of the experiment.

    Each cell generates one unit-cube sample set from its own derived seed,
    optionally Latinizes it, and reports all metrics for both variants; a
    Latinized copy with the plain set's bits reuses its report.  Timings
    cover generation plus Latinization (not metric evaluation), summed per
    method over all repetitions.  A failing cell is recorded and skipped;
    the run continues.
    """
    domain = Domain.unit(spec.dim)
    report = BenchReport(spec=spec)
    for method, params in spec.methods:
        elapsed = 0.0
        for rep in range(spec.repetitions):
            seed = cell_seed(spec.seed_base, method, rep)
            rng = RngState(seed)
            try:
                t0 = time.perf_counter()
                sample_set = generate(method, domain, spec.n_samples, rng, params)
                variants = [(False, sample_set)]
                if spec.latinize_variants:
                    variants.append((True, latinize(sample_set, rng)))
                elapsed += time.perf_counter() - t0
                q = None
                for latinized, s in variants:
                    # Latinizing moves no coordinate of an LHS set.
                    if q is None or s.points.tobytes() != sample_set.points.tobytes():
                        q = quality_report(s)
                    report.rows.append({
                        "method": method,
                        "rep": rep,
                        "seed": seed,
                        "latinized": latinized,
                        "nn_min": q.nn_min,
                        "nn_avg": q.nn_avg,
                        "nn_max": q.nn_max,
                        "phi_p": q.phi_p,
                        "cl2": q.cl2,
                    })
            except Exception as err:  # cell failure, not a harness failure
                report.failures.append({"method": method, "rep": rep, "error": str(err)})
        report.method_times[method] = elapsed
    return report


def paper_suite(seed_base: int = DEFAULT_SEED_BASE, reps_override: Optional[int] = None):
    """The four standard comparison experiments with their reference
    parameters and repetition counts (50/50/20/20)."""
    grid = [
        ("2d-500", 2, 500, 50),
        ("4d-500", 4, 500, 50),
        ("4d-1000", 4, 1000, 20),
        ("10d-1000", 10, 1000, 20),
    ]
    return [
        ExperimentSpec(name=name, dim=dim, n_samples=n, seed_base=seed_base,
                       repetitions=reps if reps_override is None else reps_override)
        for name, dim, n, reps in grid
    ]


def format_report(report: BenchReport, fmt: str = "table") -> str:
    """Render a report as an aligned text table, raw-row CSV, or JSON."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if fmt == "csv":
        return _format_csv(report)
    if fmt == "table":
        return _format_table(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _format_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    cols = ("experiment", "method", "rep", "seed", "latinized") + ROW_FIELDS
    buf.write(",".join(cols) + "\n")
    for r in report.rows:
        vals = [report.spec.name, r["method"], str(r["rep"]), str(r["seed"]),
                str(int(r["latinized"]))]
        vals += [f"{r[m]:.17g}" for m in ROW_FIELDS]
        buf.write(",".join(vals) + "\n")
    return buf.getvalue()


def _format_table(report: BenchReport) -> str:
    headers = ["Method", "nnAvg", "nnAvg(Lat)", "phi50", "phi50(Lat)",
               "CL2", "CL2(Lat)", "Time(s)"]
    lines = [f"Experiment {report.spec.name}: {report.spec.dim}D, "
             f"{report.spec.n_samples} samples, {report.spec.repetitions} repetitions "
             f"(means across repetitions)"]
    rows = []
    for method, _ in report.spec.methods:
        cells = [METHOD_LABELS.get(method, method)]
        for metric in ("nn_avg", "phi_p", "cl2"):
            for latinized in (False, True):
                v = report.cell_mean(method, latinized, metric)
                cells.append("-" if v is None else f"{v:.3f}")
        t = report.method_times.get(method)
        cells.append("-" if t is None else f"{t:.2f}")
        rows.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    if report.failures:
        lines.append(f"failures: {len(report.failures)}")
    return "\n".join(lines) + "\n"
