"""Command-line front end: generate / score / latinize / subset / expand /
append-region / bench / plot.

Sample files are CSV with header ``x0,...,x{d-1}``, one row per sample in
generation order, full double precision (17 significant digits), LF line
endings.  Every command is deterministic given its flags; randomness comes
only from --seed (or the SPACEFILL_SEED environment variable) -- there is no
wall-clock seeding.

Exit codes: 0 success, 1 runtime/algorithm failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from . import adapt, bench, presets, samplers
from .core import Domain, RngState, SampleSet, SamplingError
from .metrics import quality_report

__all__ = ["main"]


class CliError(Exception):
    """Usage or configuration problem (exit code 2)."""


# ---------------------------------------------------------------------------
# CSV sample format
# ---------------------------------------------------------------------------

def format_row(row) -> str:
    return ",".join(f"{v:.17g}" for v in row)


def write_samples(points: np.ndarray, out) -> None:
    dim = points.shape[1]
    out.write(",".join(f"x{j}" for j in range(dim)) + "\n")
    # "%.17g" % v formats a float exactly as format_row's f"{v:.17g}" does.
    # Rows become Python floats a block at a time, which bounds the memory.
    row_format = ",".join(["%.17g"] * dim) + "\n"
    for start in range(0, points.shape[0], 1024):
        out.writelines(row_format % tuple(row) for row in points[start:start + 1024].tolist())


def _parse_data_line(line: str, lineno: int, dim) -> np.ndarray:
    cells = line.split(",")
    if dim is not None and len(cells) != dim:
        raise CliError(f"line {lineno}: expected {dim} columns, got {len(cells)}")
    try:
        return np.array([float(c) for c in cells])
    except ValueError:
        raise CliError(f"line {lineno}: non-numeric cell") from None


def _parse_lines(lines: list, linenos: list, dim) -> np.ndarray:
    """Data lines as one (len(lines), d) array; d is dim or, when dim is None,
    the first line's column count.

    All cells go through one float() pass.  A ragged line or a cell float()
    rejects falls back to _parse_data_line line by line, which raises the
    error of the first bad line with its line number.
    """
    if dim is None:
        dim = lines[0].count(",") + 1
    if all(line.count(",") == dim - 1 for line in lines):
        try:
            cells = list(map(float, ",".join(lines).split(",")))
        except ValueError:
            pass
        else:
            return np.array(cells).reshape(len(lines), dim)
    return np.array([_parse_data_line(line, n, dim) for line, n in zip(lines, linenos)])


def read_samples(path, with_linenos: bool = False):
    """Load a whole sample CSV ("-" reads stdin; header row optional) as an
    (n, d) array."""
    blocks = []
    linenos = []
    with _CsvReader(path) as reader:
        while (block := reader.read_block()) is not None:
            blocks.append(block[0])
            linenos.extend(block[1])
    if not blocks:
        raise CliError(f"{path}: no data rows")
    pts = np.concatenate(blocks)
    return (pts, linenos) if with_linenos else pts


def _is_numeric_row(line: str) -> bool:
    try:
        [float(c) for c in line.split(",")]
        return True
    except ValueError:
        return False


_BLOCK_LINES = 4096


class _CsvReader:
    """Sample CSV input ("-" is stdin), parsed _BLOCK_LINES lines at a time.

    The first line is a header when one of its cells is not a number.
    Blank lines are skipped, and line numbers count every line.  Use it in
    a ``with`` block, or call ``close``, to close an input read only in part.
    """

    def __init__(self, path: str):
        if path == "-":
            self._fh, self._owned = sys.stdin, False
        else:
            try:
                self._fh = open(path, "r", newline="")
            except OSError as err:
                raise CliError(str(err)) from None
            self._owned = True
        self.header_bytes = 0
        self._dim = None
        self._lineno = 0
        try:
            first = self._fh.readline()
        except BaseException:  # e.g. UnicodeDecodeError on a non-UTF-8 file
            self.close()
            raise
        self._head = [first] if first else []
        if first and not _is_numeric_row(first.rstrip("\r\n")):
            self.header_bytes = len(first.encode())
            self._head = []
            self._lineno = 1

    def read_block(self):
        """(rows, line numbers, byte sizes with line ends) of the next
        block's data lines, or None at the end of the input.  A block that
        fails to read or parse closes the input before the error propagates."""
        try:
            while self._fh is not None:
                raws = self._head + list(islice(self._fh, _BLOCK_LINES - len(self._head)))
                self._head = []
                if not raws:
                    self.close()
                    break
                lines, linenos, sizes = [], [], []
                for lineno, raw in enumerate(raws, start=self._lineno + 1):
                    line = raw.rstrip("\r\n")
                    if line:
                        lines.append(line)
                        linenos.append(lineno)
                        sizes.append(len(raw.encode()))
                self._lineno += len(raws)
                if lines:
                    rows = _parse_lines(lines, linenos, self._dim)
                    self._dim = rows.shape[1]
                    return rows, linenos, sizes
        except BaseException:
            self.close()
            raise
        return None

    def close(self) -> None:
        if self._owned and self._fh is not None:
            self._fh.close()
        self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CsvRecordStream(_CsvReader):
    """Streaming CSV reader for the subset command ("-" reads stdin).

    Yields one record per data row, reading the input exactly once, and keeps
    a running estimate of the total record count from the file size and the
    bytes consumed so far.  Rows are parsed a block at a time, but a row's
    bytes count toward the estimate only when the row is served, so
    estimate_total() equals that of line-by-line reading after every record.
    Stdin has size 0, since its length is unknown.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            self.size = 0 if path == "-" else os.path.getsize(path)
        except OSError as err:
            raise CliError(str(err)) from None
        super().__init__(path)
        self.records = 0
        self.data_bytes = 0
        self._rows = None
        self._sizes = []
        self._at = 0

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        if self._at == len(self._sizes):
            block = self.read_block()
            if block is None:
                raise StopIteration
            self._rows, _, self._sizes = block
            self._at = 0
        i = self._at
        self._at += 1
        self.records += 1
        self.data_bytes += self._sizes[i]
        return self._rows[i]

    def estimate_total(self) -> int:
        if self.records == 0 or self.data_bytes == 0:
            return 1
        data_total = max(self.size - self.header_bytes, self.data_bytes)
        return max(self.records, round(self.records * data_total / self.data_bytes))


# ---------------------------------------------------------------------------
# Shared flag handling
# ---------------------------------------------------------------------------

def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("SPACEFILL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"SPACEFILL_SEED must be an integer, got {env!r}") from None
    raise CliError("no seed: pass --seed or set SPACEFILL_SEED (no wall-clock seeding)")


def _parse_vector(text: str, dim: int, name: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"{name} must be a comma-separated list of numbers") from None
    if len(vals) == 1 and dim > 1:
        vals = vals * dim
    if len(vals) != dim:
        raise CliError(f"{name} must have {dim} entries")
    return np.array(vals)


def _parse_params(pairs) -> dict:
    params = {}
    for chunk in pairs or []:
        for item in chunk.split(","):
            if not item:
                continue
            if "=" not in item:
                raise CliError(f"--params entries must look like key=value, got {item!r}")
            key, value = item.split("=", 1)
            params[key.strip()] = _coerce(value.strip())
    return params


def _coerce(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _build_domain(dim: int, lower, upper, density_name, viability_name) -> Domain:
    lo = _parse_vector(lower, dim, "--lower") if lower else np.zeros(dim)
    hi = _parse_vector(upper, dim, "--upper") if upper else np.ones(dim)
    density = density_max = None
    if density_name:
        density, density_max = presets.density_by_name(density_name)
    viability = presets.viability_by_name(viability_name) if viability_name else None
    return Domain(lo, hi, viability=viability, density=density, density_max=density_max)


_CONFIG_KEYS = {"schemaVersion", "algorithm", "dim", "n", "seed", "domain",
                "params", "latinize", "density", "viability"}


def _load_run_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CliError(f"cannot read config {path}: {err}") from None
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    if cfg.get("schemaVersion", 1) != 1:
        raise CliError("unsupported config schemaVersion (expected 1)")
    dom = cfg.get("domain", {})
    if dom and (not isinstance(dom, dict) or set(dom) - {"lower", "upper"}):
        raise CliError("config domain must be an object with keys lower/upper")
    return cfg


def _out_stream(args):
    if getattr(args, "out", None):
        return open(args.out, "w", newline="\n"), True
    return sys.stdout, False


def _emit_samples(points: np.ndarray, args) -> None:
    out, close = _out_stream(args)
    try:
        write_samples(points, out)
    finally:
        if close:
            out.close()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = _load_run_config(args.config) if args.config else {}
    algo = args.algo or cfg.get("algorithm")
    if not algo:
        raise CliError("an algorithm is required (--algo or config)")
    dim = args.dim if args.dim is not None else cfg.get("dim")
    if dim is None:
        raise CliError("--dim is required")
    dim = int(dim)
    n = args.n if args.n is not None else cfg.get("n")
    if args.seed is None and "seed" in cfg:
        args.seed = cfg["seed"]
    seed = _resolve_seed(args)
    params = dict(cfg.get("params", {}))
    params.update(_parse_params(args.params))
    dom_cfg = cfg.get("domain", {})
    lower = args.lower or (",".join(map(str, dom_cfg["lower"])) if "lower" in dom_cfg else None)
    upper = args.upper or (",".join(map(str, dom_cfg["upper"])) if "upper" in dom_cfg else None)
    density = args.density or cfg.get("density")
    viability = args.viability or cfg.get("viability")
    do_latinize = args.latinize or bool(cfg.get("latinize", False))

    domain = _build_domain(dim, lower, upper, density, viability)
    if algo == "poisson":
        if n is not None:
            raise CliError("poisson takes no --n: the sample count is an output")
    elif algo in ("grid", "stratified"):
        pass  # n comes from the bins parameter
    elif n is None:
        raise CliError("--n is required for this algorithm")
    rng = RngState(seed)
    result = samplers.generate(algo, domain, None if n is None else int(n), rng, params)
    if do_latinize:
        result = samplers.latinize(result, rng)
    _emit_samples(result.points, args)
    return 0


def cmd_score(args) -> int:
    pts, linenos = read_samples(args.infile, with_linenos=True)
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        bad = int(np.argwhere(((pts < 0.0) | (pts > 1.0)).any(axis=1))[0][0])
        raise CliError(f"line {linenos[bad]}: coordinate outside [0, 1]; scale the set first")
    sample_set = SampleSet(Domain.unit(pts.shape[1]), pts)
    report = quality_report(sample_set, p=args.p)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_latinize(args) -> int:
    seed = _resolve_seed(args)
    pts = read_samples(args.infile)
    sample_set = SampleSet(Domain.unit(pts.shape[1]), pts)
    result = samplers.latinize(sample_set, RngState(seed))
    _emit_samples(result.points, args)
    return 0


def cmd_subset(args) -> int:
    seed = _resolve_seed(args)
    config = adapt.StreamConfig(segment_size=args.segment, subset_size=args.n)
    if args.infile == "-" and args.total is None:
        raise CliError("subset from stdin requires --total (stream size unknown)")
    with CsvRecordStream(args.infile) as stream:
        total = int(args.total) if args.total is not None else stream.estimate_total
        result = adapt.stream_subset(stream, config, RngState(seed), total_records=total)
    _emit_samples(result.points, args)
    return 0


def cmd_expand(args) -> int:
    pts = read_samples(args.infile)
    dim = pts.shape[1]
    old = _build_domain(dim, args.lower, args.upper, None, None)
    new = _build_domain(dim, args.new_lower, args.new_upper, None, None)
    existing = SampleSet(old, pts, frozen_count=pts.shape[0])
    if args.add > 0:
        rng = RngState(_resolve_seed(args))
    else:
        rng = RngState(0)  # shrink draws nothing
    params = _parse_params(args.params)
    result = adapt.expand_domain(existing, new, args.add, args.algo, params, rng)
    _emit_samples(result.points, args)
    return 0


def cmd_append_region(args) -> int:
    seed = _resolve_seed(args)
    pts = read_samples(args.anchors)
    domain = _build_domain(pts.shape[1], args.lower, args.upper, None, None)
    anchors = SampleSet(domain, pts, frozen_count=pts.shape[0])
    region = adapt.CurveRegionSpec(
        anchors=anchors,
        half_width_fraction=args.halfwidth,
        candidates_per_anchor=args.cands_per_anchor,
        include_anchors=args.include_anchors,
    )
    result = adapt.curve_region_sample(region, args.n, RngState(seed))
    _emit_samples(result.points, args)
    return 0


def cmd_bench(args) -> int:
    if args.spec:
        try:
            with open(args.spec) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise CliError(f"cannot read spec {args.spec}: {err}") from None
        if doc.get("schemaVersion", 1) != 1:
            raise CliError("unsupported spec schemaVersion (expected 1)")
        raw = doc["experiments"] if isinstance(doc, dict) and "experiments" in doc else [doc]
        try:
            specs = [bench.ExperimentSpec.from_dict(d) for d in raw]
        except (KeyError, ValueError, TypeError) as err:
            raise CliError(f"bad experiment spec: {err}") from None
        if args.reps_override:
            specs = [bench.ExperimentSpec.from_dict({**s.to_dict(), "repetitions": args.reps_override})
                     for s in specs]
    else:
        seed_base = args.seed if args.seed is not None else bench.DEFAULT_SEED_BASE
        specs = bench.paper_suite(seed_base=seed_base, reps_override=args.reps_override)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = {"table": "txt", "csv": "csv", "json": "json"}[args.format]
    any_rows = False
    any_fail = False
    for spec in specs:
        report = bench.run_experiment(spec)
        any_rows = any_rows or bool(report.rows)
        any_fail = any_fail or bool(report.failures)
        text = bench.format_report(report, args.format)
        path = out_dir / f"{spec.name}.{ext}"
        path.write_text(text, newline="\n")
        print(bench.format_report(report, "table"), end="")
    if any_fail and not any_rows:
        return 1
    return 0


def cmd_plot(args) -> int:
    pts = read_samples(args.infile)
    try:
        i, j = (int(v) for v in args.dims.split(","))
    except ValueError:
        raise CliError("--dims must be two comma-separated indices") from None
    d = pts.shape[1]
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise CliError(f"--dims must be two distinct indices below {d}")
    split = args.split if args.split is not None else len(pts)
    svg = render_scatter_svg(pts[:, [i, j]], split)
    Path(args.out).write_text(svg, newline="\n")
    return 0


def render_scatter_svg(xy: np.ndarray, split: int, size: int = 640, margin: int = 40) -> str:
    """Standalone SVG scatter; points before index ``split`` get the first
    color, the rest the second."""
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    pad = 0.05 * span
    lo, span = lo - pad, span + 2 * pad
    inner = size - 2 * margin

    def sx(v):
        return margin + inner * (v - lo[0]) / span[0]

    def sy(v):
        return size - margin - inner * (v - lo[1]) / span[1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{inner}" height="{inner}" '
        'fill="none" stroke="#999"/>',
    ]
    for k, (x, y) in enumerate(xy):
        color = "#000000" if k < split else "#d62728"
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacefill",
        description="Deterministic space-filling sampling, metrics, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a sample set as CSV")
    g.add_argument("--algo", choices=samplers.ALGORITHMS)
    g.add_argument("--dim", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--params", action="append", metavar="K=V[,K=V...]")
    g.add_argument("--latinize", action="store_true")
    g.add_argument("--lower")
    g.add_argument("--upper")
    g.add_argument("--density", choices=sorted(presets.DENSITIES))
    g.add_argument("--viability", choices=sorted(presets.VIABILITIES))
    g.add_argument("--config", help="JSON run-config file")
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("score", help="quality metrics of a sample CSV as JSON")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--p", type=int, default=50)
    s.set_defaults(func=cmd_score)

    l = sub.add_parser("latinize", help="give a sample CSV the Latin property")
    l.add_argument("--in", dest="infile", required=True)
    l.add_argument("--seed", type=int)
    l.add_argument("--out")
    l.set_defaults(func=cmd_latinize)

    u = sub.add_parser("subset", help="one-pass max-min subset of a large CSV")
    u.add_argument("--in", dest="infile", required=True)
    u.add_argument("--n", type=int, required=True)
    u.add_argument("--segment", type=int, required=True, help="records per in-memory segment")
    u.add_argument("--seed", type=int)
    u.add_argument("--total", type=int, help="exact record count (else estimated from file size)")
    u.add_argument("--out")
    u.set_defaults(func=cmd_subset)

    e = sub.add_parser("expand", help="shrink or expand the domain of an existing CSV")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--lower", help="old domain lower bounds (default 0)")
    e.add_argument("--upper", help="old domain upper bounds (default 1)")
    e.add_argument("--new-lower", required=True)
    e.add_argument("--new-upper", required=True)
    e.add_argument("--add", type=int, default=0, metavar="M")
    e.add_argument("--algo", default="bc", choices=samplers.INCREMENTAL_ALGORITHMS)
    e.add_argument("--params", action="append", metavar="K=V[,K=V...]")
    e.add_argument("--seed", type=int)
    e.add_argument("--out")
    e.set_defaults(func=cmd_expand)

    a = sub.add_parser("append-region", help="densify the neighborhood of curve samples")
    a.add_argument("--anchors", required=True, help="CSV of existing curve samples")
    a.add_argument("--halfwidth", type=float, default=0.03)
    a.add_argument("--cands-per-anchor", type=int, default=50)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--include-anchors", action="store_true")
    a.add_argument("--lower")
    a.add_argument("--upper")
    a.add_argument("--seed", type=int)
    a.add_argument("--out")
    a.set_defaults(func=cmd_append_region)

    b = sub.add_parser("bench", help="run the quantitative comparison")
    group = b.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", choices=["paper"])
    group.add_argument("--spec", help="JSON experiment spec file")
    b.add_argument("--out", default="bench-out", help="report directory")
    b.add_argument("--format", choices=["table", "csv", "json"], default="json")
    b.add_argument("--reps-override", type=int)
    b.add_argument("--seed", type=int, help="seed base override")
    b.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot", help="SVG scatter of a 2D projection")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dims", default="0,1")
    p.add_argument("--split", type=int, help="color change index")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as err:
        print(f"spacefill: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"spacefill: {err}", file=sys.stderr)
        return 2
    except SamplingError as err:
        print(f"spacefill: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
