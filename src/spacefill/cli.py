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
import dataclasses
import functools
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

_WRITE_ROWS = 1024
_X_MIN, _X_MAX = -4, 7  # decimal exponents of the values _text_cells writes


def write_samples(points: np.ndarray, out) -> None:
    """Write the header and one row per point, each value as its "%.17g"
    text: 17 significant digits, which round-trip every double.

    Rows go out 1,024 at a time.  Each value of a block gets a 32-byte cell
    of text bytes padded with NULs, and one ``bytes.translate`` deletes the
    padding.  The cells of ±0 and of the values with 1e-4 <= |v| < 1e8, whose
    text is fixed notation, are built from their exact decimal digits (see
    ``_text_cells``).  Any other value's cell holds the conversion "%.17g",
    and one % over the block's text formats those values in place.
    """
    points = np.asarray(points, dtype=np.float64)
    dim = points.shape[1]
    # Each cell starts with the separator before its value, so the header's
    # line ends with the first row's cell and the last row's with the final write.
    out.write(",".join(f"x{j}" for j in range(dim)))
    if points.size:
        tables = _write_tables()
        sep = np.full(min(len(points), _WRITE_ROWS) * dim, ord(","), dtype=np.uint8)
        sep[::dim] = ord("\n")
        for start in range(0, points.shape[0], _WRITE_ROWS):
            v = points[start:start + _WRITE_ROWS].ravel()
            a = np.abs(v)
            fixed = (a >= 1e-4) & (a < 1e8)
            if fixed.all():
                cells, rest = _text_cells(v, tables), ()
            else:
                zero = a == 0
                cells = np.zeros((v.size, 4), dtype=np.uint64)
                cells[:, 0] = np.where(zero, tables["zero"][np.signbit(v).view(np.uint8)],
                                       tables["conversion"])
                at = np.flatnonzero(fixed)
                if at.size:
                    cells[at] = _text_cells(v[at], tables)
                rest = tuple(v[~(fixed | zero)].tolist())
            cells.view(np.uint8)[:, 0] = sep[:v.size]
            text = cells.tobytes().translate(None, b"\0").decode()
            out.write(text % rest if rest else text)
    out.write("\n")


@functools.cache
def _write_tables() -> dict:
    """The writer's tables by name, built at its first call.  A cell is four
    64-bit words of text bytes: separator, sign, the "0.000" of a negative
    exponent and the first digit; digits 1-8, each after a slot that holds
    the point when it follows the digit before; then digits 9-16."""
    def packed(rows, dtype=np.uint64):
        """Byte rows viewed as dtype words, read-only."""
        out = np.ascontiguousarray(rows, dtype=np.uint8).view(dtype)
        out.flags.writeable = False
        return out

    # The four digits of each chunk 0..9999, and a second form that drops
    # the trailing zeros, for the last chunk with a nonzero digit.
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    trailing = np.cumprod(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1].astype(bool)
    fours = np.concatenate([digits, np.where(trailing, 0, digits)])
    interleaved = np.zeros((20_000, 8), dtype=np.uint8)
    interleaved[:, 1::2] = fours
    # Per (exponent x, fraction all zero): the "0.000" prefix of x < 0, the
    # point in the slot after digit x >= 0 unless the fraction is all zero,
    # and a "0" for each integer digit 1..x, which is OR-ed into the digits
    # and so restores zeros that the stripped chunk forms dropped.
    template = []
    for x in range(_X_MIN, _X_MAX + 1):
        for empty in (False, True):
            cell = bytearray(32)
            if x < 0:
                cell[2:3 - x] = b"0." + b"0" * (-x - 1)
            else:
                cell[9:8 + 2 * x:2] = b"0" * x
                if not empty:
                    cell[8 + 2 * x] = ord(".")
            template.append(list(cell))
    return {
        "pow5": np.array([5 ** k for k in range(22)], dtype=np.uint64),
        "pow10": np.array([10 ** k for k in range(18)], dtype=np.uint64),
        "template": packed(template), "chunk8": packed(interleaved)[:, 0],
        "chunk4": packed(fours, np.uint32)[:, 0],
        "zero": packed([list(b"\0\0\0\0\0\0\0" b"0"), list(b"\0-\0\0\0\0\0" b"0")])[:, 0],
        "conversion": packed([list(b"\0%.17g\0\0")])[0, 0]}


def _text_cells(v: np.ndarray, tables: dict) -> np.ndarray:
    """The (n, 4) uint64 cells of values with 1e-4 <= |v| < 1e8, whose
    "%.17g" text is fixed notation, separator byte left 0.

    The text is sign, integer part, point and fraction, with the fraction's
    trailing zeros dropped and the point with them when none is left.  Its 17
    significant digits D are found exactly, in integers: v = m * 2**q with m
    the 53-bit mantissa, X is v's decimal exponent after rounding, and D =
    round-half-even(v * 10**(16 - X)), with the ties of "%.17g".
    """
    d, x = _decimal_digits(np.abs(v), tables["pow5"])
    hi = d // np.uint64(10 ** 8)
    lo = (d - hi * np.uint64(10 ** 8)).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // np.uint32(10 ** 8)
    c12 = hi - lead * np.uint32(10 ** 8)
    c1 = c12 // np.uint32(10 ** 4)
    c2 = c12 - c1 * np.uint32(10 ** 4)
    c3 = lo // np.uint32(10 ** 4)
    c4 = lo - c3 * np.uint32(10 ** 4)
    # Chunk i takes its stripped form when every chunk after it is zero.
    z4 = c4 == 0
    z3 = z4 & (c3 == 0)
    z2 = z3 & (c2 == 0)
    # No nonzero fraction digit; a negative x takes 10**17 > D.
    empty = d % np.take(tables["pow10"], 16 - x, mode="clip") == 0
    cells = np.take(tables["template"], 2 * (x - _X_MIN) + empty, axis=0)
    cells[:, 1] |= np.take(tables["chunk8"], c1 + 10_000 * z2)
    cells[:, 2] |= np.take(tables["chunk8"], c2 + 10_000 * z3)
    quads = cells.view(np.uint32)
    quads[:, 6] = np.take(tables["chunk4"], c3 + 10_000 * z4)
    quads[:, 7] = np.take(tables["chunk4"], c4 + 10_000)
    chars = cells.view(np.uint8)
    chars[:, 1] = np.signbit(v) * np.uint8(ord("-"))
    chars[:, 7] = lead + np.uint32(ord("0"))
    return cells


def _decimal_digits(a: np.ndarray, pow5: np.ndarray):
    """(D, X) of positive doubles a, 1e-4 <= a < 1e8: the decimal exponent X
    of a rounded to 17 significant digits, and those digits as the integer
    D, 10**16 <= D < 10**17 (Steele & White 1990; Gay 1990)."""
    f, e = np.frexp(a)
    m = (f * 2.0 ** 53).astype(np.uint64)
    # The estimate is X or one less, never more: log10 errs by far less
    # than the bias.  One less shows as D > 10**17, and is computed again.
    x = np.floor(np.log10(a) - 1e-12).astype(np.int64)
    d = _round_digits(m, e, x, pow5)
    low = np.flatnonzero(d > 10 ** 17)
    if low.size:
        x[low] += 1
        d[low] = _round_digits(m[low], e[low], x[low], pow5)
    # D = 10**17 is a carry into the next decade: its 17 digits are 10**16.
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    x += carry
    return d, x


def _round_digits(m, e, x, pow5):
    """round-half-even(m * 2**(e - 53) * 10**k) with k = 16 - x, as
    m * 5**k / 2**s with s = 37 - e + x, which lies in [16, 46] here."""
    s = (37 - e + x).astype(np.uint64)
    b = np.take(pow5, 16 - x)
    # m * 5**k < 2**102 in two 64-bit limbs, from products of 32-bit halves.
    low32 = np.uint64(0xFFFF_FFFF)
    a0, a1 = m & low32, m >> np.uint64(32)
    b0, b1 = b & low32, b >> np.uint64(32)
    p00 = a0 * b0
    mid = a0 * b1 + a1 * b0
    lo = p00 + (mid << np.uint64(32))
    hi = a1 * b1 + (mid >> np.uint64(32)) + (lo < p00)  # lo < p00: the low limb carried
    one = np.uint64(1)
    d = (hi << (np.uint64(64) - s)) | (lo >> s)
    rem = lo & ((one << s) - one)
    half = one << (s - one)
    d += (rem > half) | ((rem == half) & (d & one).astype(bool))
    return d


def _parse_data_line(line: str, lineno: int, dim) -> np.ndarray:
    cells = line.split(",")
    if dim is not None and len(cells) != dim:
        raise CliError(f"line {lineno}: expected {dim} columns, got {len(cells)}")
    try:
        row = np.array([float(c) for c in cells])
    except ValueError:
        raise CliError(f"line {lineno}: non-numeric cell") from None
    if not np.isfinite(row).all():
        raise CliError(f"line {lineno}: non-finite cell")
    return row


# The characters of a block that np.loadtxt may convert: printable ASCII and
# the tab, which np.loadtxt and float() both strip around a cell.
_LOADTXT_CHARS = b"\t" + bytes(range(0x20, 0x7F))


def _parse_lines(lines: list, linenos: list, dim) -> np.ndarray:
    """Data lines as one (len(lines), d) array; d is dim or, when dim is None,
    the first line's column count.

    A block of printable ASCII and tabs goes through one np.loadtxt call and
    one finiteness check.  np.loadtxt parses a double with the correctly rounded
    conversion float() uses, so each cell it takes has float()'s bits.  It
    rejects some cells float() takes, such as 1_0, but it also strips
    control characters float() rejects, such as \x1c; so a block that holds
    any other character goes through _parse_data_line line by line, which
    parses as float() does.  So does a block np.loadtxt rejects (a ragged
    line, a bad cell, the wrong column count, a nan or infinite cell), and
    _parse_data_line raises the error of the first bad line with its line
    number.
    """
    if dim is None:
        dim = lines[0].count(",") + 1
    text = "".join(lines)
    if text.isascii() and not text.encode().translate(None, _LOADTXT_CHARS):
        try:
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if rows.shape == (len(lines), dim) and np.isfinite(rows).all():
                return rows
    return np.array([_parse_data_line(line, n, dim) for line, n in zip(lines, linenos)])


def read_samples(path, with_linenos: bool = False):
    """Load a whole sample CSV ("-" reads stdin; header row optional) as an
    (n, d) array."""
    blocks = []
    linenos = []
    with CsvRecordStream(path) as reader:
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


class CsvRecordStream:
    """Sample CSV input ("-" is stdin), parsed _BLOCK_LINES lines at a time,
    and read exactly once: whole blocks through ``read_block``, or as (k, d)
    array slices of the parsed blocks through ``read_rows(k)``.

    The first line is a header when one of its cells is not a number.
    Blank lines are skipped, and line numbers count every line.  Use it in
    a ``with`` block, or call ``close``, to close an input read only in part.

    It keeps a running estimate of the total record count from the file
    size and the bytes consumed so far.  A row's bytes count toward the
    estimate only when read_rows serves the row, so ``records``,
    ``data_bytes`` and estimate_total() equal those of line-by-line reading
    after every served row.  Stdin has size 0, since its length is unknown.
    """

    def __init__(self, path: str):
        if path == "-":
            self.size, self._fh, self._owned = 0, sys.stdin, False
        else:
            try:
                self.size = os.path.getsize(path)
                self._fh = open(path, "r", newline="")
            except OSError as err:
                raise CliError(str(err)) from None
            self._owned = True
        self.header_bytes = 0
        self.records = 0
        self.data_bytes = 0
        self._dim = None
        self._lineno = 0
        self._rows = np.empty((0, 0))
        self._sizes = []
        self._at = 0
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
                first = self._lineno + 1
                self._lineno += len(raws)
                lines = [raw.rstrip("\r\n") for raw in raws]
                if all(lines) and all(map(str.isascii, raws)):
                    # No blank line, and each character is one byte.
                    linenos, sizes = range(first, self._lineno + 1), list(map(len, raws))
                else:
                    keep = [i for i, line in enumerate(lines) if line]
                    lines = [lines[i] for i in keep]
                    linenos = [first + i for i in keep]
                    sizes = [len(raws[i].encode()) for i in keep]
                if lines:
                    rows = _parse_lines(lines, linenos, self._dim)
                    self._dim = rows.shape[1]
                    return rows, linenos, sizes
        except BaseException:
            self.close()
            raise
        return None

    def read_rows(self, k: int) -> np.ndarray:
        """The next min(k, rows left) rows as one (m, d) array, cut from the
        current parsed block and the blocks after it; for k >= 1, m is 0 only
        at the end of the input."""
        parts = []
        while k > 0:
            if self._at == len(self._rows):
                block = self.read_block()
                if block is None:
                    break
                self._rows, _, self._sizes = block
                self._at = 0
            i = self._at
            self._at = j = min(i + k, len(self._rows))
            parts.append(self._rows[i:j])
            self.records += j - i
            self.data_bytes += sum(self._sizes[i:j])
            k -= j - i
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty((0, self._dim or 0))

    def estimate_total(self) -> int:
        if self.records == 0 or self.data_bytes == 0:
            return 1
        data_total = max(self.size - self.header_bytes, self.data_bytes)
        return max(self.records, round(self.records * data_total / self.data_bytes))

    def close(self) -> None:
        if self._owned and self._fh is not None:
            self._fh.close()
        self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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


def _parse_vector(value, dim: int, key: str) -> np.ndarray:
    """A bound of dim entries from the --key flag's comma-separated text or
    the list of numbers a config's domain gives for key; a single entry
    stands for every dimension."""
    name = f"config domain {key}"
    if isinstance(value, str):
        name = f"--{key}"
        try:
            value = [float(v) for v in value.split(",")]
        except ValueError:
            raise CliError(f"{name} must be a comma-separated list of numbers") from None
    if len(value) == 1 and dim > 1:
        value = value * dim
    if len(value) != dim:
        raise CliError(f"{name} must have {dim} entries")
    bound = np.array(value, dtype=float)
    if not np.isfinite(bound).all():
        raise CliError(f"{name} must be finite")
    return bound


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


def _build_domain(dim: int, lower, upper, density_name, viability_name,
                  keys=("lower", "upper")) -> Domain:
    """The domain of the given bounds, each None for the unit default;
    ``keys`` name the bounds' flags (or config entries) in errors."""
    lo = _parse_vector(lower, dim, keys[0]) if lower is not None else np.zeros(dim)
    hi = _parse_vector(upper, dim, keys[1]) if upper is not None else np.ones(dim)
    density = density_max = None
    if density_name:
        density, density_max = presets.density_by_name(density_name)
    viability = presets.viability_by_name(viability_name) if viability_name else None
    if viability is not None and dim < 2:
        raise CliError(f"viability {viability_name} needs --dim >= 2")
    return Domain(lo, hi, viability=viability, density=density, density_max=density_max)


# The JSON type of each config value; null reads as absent.
_CONFIG_TYPES = {"algorithm": (str, "a string"), "density": (str, "a string"),
                 "viability": (str, "a string"), "dim": (int, "an integer"),
                 "n": (int, "an integer"), "seed": (int, "an integer"),
                 "params": (dict, "an object"), "latinize": (bool, "a boolean"),
                 "domain": (dict, "an object with keys lower/upper")}
_CONFIG_KEYS = {"schemaVersion", *_CONFIG_TYPES}


def _load_json(path: str, what: str) -> dict:
    """The JSON object of a --config or --spec file (``what`` names the
    kind in errors), whose schemaVersion is 1 or absent."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CliError(f"cannot read {what} {path}: {err}") from None
    if not isinstance(doc, dict):
        raise CliError(f"{what} must be a JSON object")
    if doc.get("schemaVersion", 1) != 1:
        raise CliError(f"unsupported {what} schemaVersion (expected 1)")
    return doc


def _load_run_config(path: str) -> dict:
    cfg = _load_json(path, "config")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    for key, (kind, name) in _CONFIG_TYPES.items():
        value = cfg.get(key)
        if value is not None and (not isinstance(value, kind) or kind is int and isinstance(value, bool)):
            raise CliError(f"config {key} must be {name}")
    dom = cfg.get("domain") or {}
    if set(dom) - {"lower", "upper"}:
        raise CliError("config domain must be an object with keys lower/upper")
    for key, value in dom.items():
        if not (isinstance(value, list) and all(samplers._is_number(v, False) for v in value)):
            raise CliError(f"config domain {key} must be a list of numbers")
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
    params = dict(cfg.get("params") or {})
    params.update(_parse_params(args.params))
    dom_cfg = cfg.get("domain") or {}
    lower = args.lower if args.lower is not None else dom_cfg.get("lower")
    upper = args.upper if args.upper is not None else dom_cfg.get("upper")
    density = args.density or cfg.get("density")
    viability = args.viability or cfg.get("viability")
    do_latinize = args.latinize or bool(cfg.get("latinize", False))

    domain = _build_domain(dim, lower, upper, density, viability)
    if do_latinize and viability:
        # Latinizing moves points without regard to the predicate.
        raise CliError("latinize cannot keep a viability predicate")
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
    for flag, value in (("--n", args.n), ("--segment", args.segment), ("--total", args.total)):
        if value is not None and value < 1:
            raise CliError(f"{flag} must be >= 1")
    seed = _resolve_seed(args)
    if args.infile == "-" and args.total is None:
        raise CliError("subset from stdin requires --total (stream size unknown)")
    config = adapt.StreamConfig(segment_size=args.segment, subset_size=args.n)
    with CsvRecordStream(args.infile) as stream:
        total = int(args.total) if args.total is not None else stream.estimate_total
        result = adapt.stream_subset(stream, config, RngState(seed), total_records=total)
    _emit_samples(result.points, args)
    return 0


def cmd_expand(args) -> int:
    pts = read_samples(args.infile)
    dim = pts.shape[1]
    old = _build_domain(dim, args.lower, args.upper, None, None)
    new = _build_domain(dim, args.new_lower, args.new_upper, None, None, ("new-lower", "new-upper"))
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
    if not args.halfwidth > 0:  # nan included
        raise CliError("--halfwidth must be positive")
    if args.cands_per_anchor < 1:
        raise CliError("--cands-per-anchor must be >= 1")
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
        doc = _load_json(args.spec, "spec")
        raw = doc["experiments"] if "experiments" in doc else [doc]
        if not isinstance(raw, list) or not raw:
            raise CliError("spec experiments must be a nonempty list")
        try:
            specs = [bench.ExperimentSpec.from_dict(d) for d in raw]
        except (KeyError, ValueError, TypeError) as err:
            raise CliError(f"bad experiment spec: {err}") from None
        names = [s.name for s in specs]
        for name in names:
            # Each experiment's report is the file <--out>/<name>.<format>.
            if not isinstance(name, str) or name in ("", ".", "..") or {"/", os.sep, "\0"} & set(name):
                raise CliError(f"bad experiment spec: name must be a file name, got {name!r}")
            if names.count(name) > 1:
                raise CliError(f"bad experiment spec: name {name!r} is not unique")
        if args.reps_override is not None:
            specs = [dataclasses.replace(s, repetitions=args.reps_override) for s in specs]
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
    if not 0 <= split <= len(pts):
        raise CliError(f"--split must lie in [0, {len(pts)}], got {split}")
    svg = render_scatter_svg(pts[:, [i, j]], split)
    Path(args.out).write_text(svg, newline="\n")
    return 0


def render_scatter_svg(xy: np.ndarray, split: int) -> str:
    """Standalone 640-pixel SVG scatter; points before index ``split`` get
    the first color, the rest the second."""
    size, margin = 640, 40
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

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (a missing flag, an invalid
    choice, a value of the wrong type) raise ``CliError``, so that they exit
    2 with one ``spacefill:`` line like any other bad input.  Subcommand
    parsers are of the same class."""

    def error(self, message):
        command = self.prog.removeprefix("spacefill").strip()
        raise CliError(f"{command}: {message}" if command else message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        return args.func(args)
    except (CliError, ValueError) as err:
        print(f"spacefill: {err}", file=sys.stderr)
        return 2
    except SamplingError as err:
        print(f"spacefill: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
