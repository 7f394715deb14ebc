"""Sample-generation algorithms: random, grid, stratified, Latin hypercube
(basic and approximate-maximin), Latinization, probabilistic CVT, Poisson
disk, greedy farthest-point, best-candidate, and the BC/farthest-point hybrid.

All samplers are pure functions of (domain, config, RngState): the same seed
gives a bit-identical SampleSet on every platform.  Distance comparisons run
on unit-scaled coordinates; squared distances are used internally and square
roots are taken only at API boundaries.  Ties in every argmin/argmax go to
the lowest index.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    REJECTION_CAP,
    Domain,
    RegionTooSmallError,
    RngState,
    SampleSet,
    SamplingError,
    _distance,
    _row_blocks,
    _screened_min_squared_dists,
    condensed_pair,
    min_squared_dists,
    nearest_labels,
)

__all__ = [
    "BinPlacement",
    "GridMode",
    "LhsConfig",
    "CvtConfig",
    "PoissonConfig",
    "FpConfig",
    "random_sampling",
    "grid_sampling",
    "lhs_basic",
    "lhs_maximin",
    "latinize",
    "cvt_sampling",
    "poisson_disk",
    "greedy_fp",
    "best_candidate",
    "hybrid_bc_fp",
    "latin_property_holds",
    "ALGORITHMS",
    "TABLE_DEFAULTS",
    "generate",
]

MAX_GRID_CELLS = 10_000_000


class BinPlacement(Enum):
    RANDOM_IN_BIN = "random"
    BIN_CENTER = "center"


class GridMode(Enum):
    # CORNERS places one point at each cell center; STRATIFIED_RANDOM places
    # one uniform point per cell.
    CORNERS = "corners"
    STRATIFIED_RANDOM = "stratified"


class _ParamError(ValueError):
    """A config rule broken by the fields given as values, and a note that
    follows the values; ``_checked`` renames the fields."""

    def __init__(self, rule: str, note: str = "", **values):
        super().__init__(f"{' + '.join(values)} {rule}, got "
                         f"{' + '.join(map(repr, values.values()))}{note}")
        self.rule, self.note, self.fields = rule, note, tuple(values)


@dataclass(frozen=True)
class LhsConfig:
    n_tries: int = 10
    n_interchanges: int = 100
    bin_placement: BinPlacement = BinPlacement.RANDOM_IN_BIN  # or its value, "random"/"center"

    def __post_init__(self):
        try:
            object.__setattr__(self, "bin_placement", BinPlacement(self.bin_placement))
        except ValueError:
            raise _ParamError("must be 'random' or 'center'", bin_placement=self.bin_placement) from None
        if self.n_tries < 1:
            raise _ParamError("must be >= 1", n_tries=self.n_tries)
        if self.n_interchanges < 0:
            raise _ParamError("must be >= 0", n_interchanges=self.n_interchanges)


@dataclass(frozen=True)
class CvtConfig:
    n_iter: int = 100
    ppi: int = 10_000
    alpha1: float = 0.0
    alpha2: float = 1.0
    beta1: float = 0.0
    beta2: float = 1.0
    convergence_tol: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        for name in ("n_iter", "ppi"):
            if getattr(self, name) < 1:
                raise _ParamError("must be >= 1", **{name: getattr(self, name)})
        for name in ("alpha2", "beta2"):
            if not getattr(self, name) > 0:
                raise _ParamError("must be positive", **{name: getattr(self, name)})
        if abs(self.alpha1 + self.alpha2 - 1.0) > 1e-12:
            raise _ParamError("must equal 1", alpha1=self.alpha1, alpha2=self.alpha2)
        if abs(self.beta1 + self.beta2 - 1.0) > 1e-12:
            raise _ParamError("must equal 1", beta1=self.beta1, beta2=self.beta2)
        if self.convergence_tol < 0:
            raise _ParamError("must be nonnegative", convergence_tol=self.convergence_tol)


@dataclass(frozen=True)
class PoissonConfig:
    radius: float
    n_cand: int = 30

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise _ParamError("must be positive and finite", radius=self.radius)
        if self.n_cand < 1:
            raise _ParamError("must be >= 1", n_cand=self.n_cand)


@dataclass(frozen=True)
class FpConfig:
    """Parameters for the farthest-point family (GreedyFP, BC, hybrid).

    ``scale`` sizes the candidate pool (GreedyFP, hybrid) or the growing
    batches of the scaled BC mode; ``n_cand_fixed`` switches BC to a fixed
    batch per sample; ``max_cand`` caps scaled batches; ``refresh_count`` is
    the hybrid's pool-regeneration period.
    """

    scale: Optional[int] = None
    n_cand_fixed: Optional[int] = None
    max_cand: Optional[int] = None
    refresh_count: Optional[int] = None

    def __post_init__(self):
        for name in ("scale", "n_cand_fixed", "max_cand", "refresh_count"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise _ParamError("must be >= 1", **{name: v})


# ---------------------------------------------------------------------------
# Candidate generation.  Candidates are drawn in unit coordinates of a
# Domain; viability and density callables are evaluated at the corresponding
# domain point.  Domain expansion draws from ``core._outside``.
# ---------------------------------------------------------------------------

def _peek_hits(rng: RngState, rows: int, width: int, want: int, misses: int, hit):
    """Scan a peeked block of rows the way a per-row rejection loop would.

    A (rows, width) block of uniforms is peeked, which leaves the stream
    where it was, and hit(block, want, misses) maps it to one bool per row;
    rows past where the scan below stops may read either way.  The loop
    stops after the want-th hit row, or at the REJECTION_CAP-th consecutive
    miss, counting the run of misses carried in from earlier blocks.
    Returns (block, hits, stop, misses): the indices of the hit rows before
    the stop, the number of rows examined, and the run of misses at the
    stop, which equals REJECTION_CAP when the cap ended the scan.  The
    caller consumes the rows it examined with one draw.
    """
    block = rng._peek((rows, width))
    idx = np.flatnonzero(hit(block, want, misses))
    if misses + rows >= REJECTION_CAP:  # a run of misses may reach the cap here
        # gaps[j] misses precede hit j; the last entry trails the last hit.
        gaps = np.diff(idx, prepend=-1 - misses, append=rows) - 1
        capped = np.flatnonzero(gaps[:want] >= REJECTION_CAP)
        if capped.size:
            j = int(capped[0])
            last = int(idx[j - 1]) if j else -1 - misses
            return block, idx[:j], last + REJECTION_CAP + 1, REJECTION_CAP
    if idx.size >= want:
        return block, idx[:want], int(idx[want - 1]) + 1, 0
    return block, idx, rows, (rows - 1 - int(idx[-1]) if idx.size else misses + rows)


def _draw_hits(rng: RngState, count: int, width: int, hit, message: str) -> np.ndarray:
    """The first count hit rows of width uniforms each, drawn by
    ``_peek_hits``; the stream moves past exactly the rows examined, as with
    one draw per row.  REJECTION_CAP consecutive misses raise
    RegionTooSmallError(message)."""
    out = np.empty((count, width))
    kept = drawn = misses = 0
    while kept < count:
        need = count - kept
        # Twice the rows the hit rate so far predicts; the cap bounds a
        # block's memory.
        rows = min(2 * need * (drawn + 1) // (kept + 1) + 64, 1 << 14)
        block, hits, stop, misses = _peek_hits(rng, rows, width, need, misses, hit)
        rng.random((stop, width))
        if misses == REJECTION_CAP:
            raise RegionTooSmallError(message)
        out[kept:kept + len(hits)] = block[hits]
        kept += len(hits)
        drawn += stop
    return out


def _draw_unit_batch(rng: RngState, domain: Domain, count: int) -> np.ndarray:
    """(count, d) unit points drawn uniformly, keeping those that the
    domain's viability accepts.

    Stream contract: the output and the stream position are those of one
    draw per candidate; an unconstrained draw takes one batched draw, which
    consumes the stream identically.  REJECTION_CAP consecutive rejections
    raise RegionTooSmallError.  The domain decides each peeked block, under
    the call contract in ``Domain``'s docstring.
    """
    d = domain.dim
    if domain.viability is None:
        return rng.random((count, d))

    def hit(u, want, misses):
        return domain._viable_rows(domain.from_unit(u), want, misses, REJECTION_CAP)
    return _draw_hits(rng, count, d, hit, f"viability predicate rejected {REJECTION_CAP} "
                      "consecutive draws; region too small")


def _draw_unit_density(rng: RngState, domain: Domain, count: int) -> np.ndarray:
    """(count, d) unit points distributed proportionally to the density.

    Per point: draw coordinates, apply the viability, then accept with
    probability density/density_max.  A point costs d+1 uniforms per
    attempt, u and then t; REJECTION_CAP failed attempts in a row raise.
    Without a viability, the domain decides peeked blocks of (u, t) rows,
    under the call contract in ``Domain``'s docstring.
    """
    d = domain.dim
    message = ("density rejection sampling exceeded the cap; acceptance rate "
               "below 1e-6 (density_max far too large or density ~ 0)")
    if domain.viability is None:
        def hit(rows, want, misses):
            return domain._accepts(rows[:, d], domain.from_unit(rows[:, :d]), want, misses,
                                   REJECTION_CAP)
        return _draw_hits(rng, count, d + 1, hit, message)[:, :d].copy()
    # t is drawn only after the viability passes, so an attempt takes d or
    # d + 1 uniforms: no fixed-width block scan fits.
    out = np.empty((count, d))
    for i in range(count):
        for _ in range(REJECTION_CAP):
            u = rng.random(d)
            x = domain.from_unit(u)
            if not domain.viability(x):
                continue
            t = rng.random()
            if t * domain.density_max <= domain.density_at(x):
                out[i] = u
                break
        else:
            raise RegionTooSmallError(message)
    return out


def _draw_points(rng: RngState, domain: Domain, count: int) -> np.ndarray:
    if domain.density is not None:
        return _draw_unit_density(rng, domain, count)
    return _draw_unit_batch(rng, domain, count)


def _density_values(domain: Domain, unit_pts: np.ndarray) -> Optional[np.ndarray]:
    """The density at each unit point, or None when the domain has none."""
    if domain.density is None:
        return None
    return domain.densities(domain.from_unit(unit_pts))


def _density_draw_index(rng: RngState, density_vals: np.ndarray) -> int:
    """Pick one candidate index with probability proportional to density."""
    top = density_vals.max() if density_vals.size else 0.0
    if not top > 0.0:
        raise SamplingError("all candidate densities are zero")
    m = density_vals.size
    for _ in range(REJECTION_CAP):
        k = rng.integers(m)
        if rng.random() * top <= density_vals[k]:
            return k
    raise RegionTooSmallError("density-weighted candidate draw exceeded the rejection cap")


def _scores(min_d2: np.ndarray, weights: Optional[np.ndarray]) -> np.ndarray:
    """Selection scores: the squared min-distance, or weight * distance when
    weights (densities) are given, which has the argmax of the unsquared
    rule either way.  Taken rows, whose min_d2 is -inf, score -inf."""
    if weights is None:
        return min_d2
    return np.where(min_d2 < 0, -np.inf, weights * np.sqrt(np.maximum(min_d2, 0.0)))


def _existing_unit(domain: Domain, existing: Optional[SampleSet]) -> np.ndarray:
    if existing is None or len(existing) == 0:
        return np.empty((0, domain.dim))
    pts = existing.points
    if pts.shape[1] != domain.dim:
        raise ValueError("existing set dimension does not match the domain")
    if np.any(pts < domain.lower) or np.any(pts > domain.upper):
        raise ValueError("existing points lie outside the sampling box")
    return domain.to_unit(pts)


def _assemble(domain: Domain, existing: Optional[SampleSet], new_unit) -> SampleSet:
    new_pts = domain.from_unit(np.asarray(new_unit).reshape(-1, domain.dim))
    if existing is None or len(existing) == 0:
        return SampleSet(domain, new_pts, frozen_count=0)
    stacked = np.vstack([existing.points, new_pts])
    return SampleSet(domain, stacked, frozen_count=len(existing))


# ---------------------------------------------------------------------------
# Simple generators
# ---------------------------------------------------------------------------

def random_sampling(domain: Domain, n: int, rng: RngState) -> SampleSet:
    """n points i.i.d. uniform over the box (rejection-filtered when the
    domain has a viability predicate)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SampleSet(domain, domain.from_unit(_draw_unit_batch(rng, domain, n)))


def _bin_counts(bins_per_dim, dim: Optional[int] = None) -> list:
    """The bin counts of a grid, one or one per dimension, each >= 1.  Given
    the dimension, one count per dimension, once the counts fit it and make
    at most MAX_GRID_CELLS cells."""
    # Entries stay Python objects until the cap check, so a whole number
    # beyond int64 is counted, not mistaken for a non-integer.
    entries = np.asarray(bins_per_dim, dtype=object).reshape(-1)
    if not all(_is_number(b, True) for b in entries):
        raise ValueError(f"bins_per_dim entries must be integers, got {bins_per_dim!r}")
    if any(b < 1 for b in entries):
        raise _ParamError("must be >= 1", bins_per_dim=bins_per_dim)
    counts = [int(b) for b in entries]
    if dim is None:
        return counts
    if len(counts) not in (1, dim):
        raise _ParamError("must have 1 entry" if dim == 1 else f"must have 1 or {dim} entries",
                          bins_per_dim=bins_per_dim)
    counts = counts * dim if len(counts) == 1 else counts
    n_cells = math.prod(counts)
    if n_cells > MAX_GRID_CELLS:
        raise _ParamError(f"must make at most {MAX_GRID_CELLS} cells", f" ({n_cells} cells)",
                          bins_per_dim=bins_per_dim)
    return counts


def grid_sampling(domain: Domain, bins_per_dim, mode: GridMode, rng: RngState) -> SampleSet:
    """One point per cell of a regular grid: cell centers (CORNERS mode) or
    one uniform point per cell (STRATIFIED_RANDOM).  N = prod(bins)."""
    bins = np.array(_bin_counts(bins_per_dim, domain.dim))
    # Cell order is row-major: the last dimension varies fastest.
    idx = np.indices(tuple(bins)).reshape(domain.dim, -1).T.astype(float)
    if mode is GridMode.CORNERS:
        offsets = 0.5
    elif mode is GridMode.STRATIFIED_RANDOM:
        offsets = rng.random(idx.shape)
    else:
        raise ValueError(f"unknown grid mode {mode!r}")
    unit = (idx + offsets) / bins
    return SampleSet(domain, domain.from_unit(unit))


# ---------------------------------------------------------------------------
# Latin hypercube family
# ---------------------------------------------------------------------------

def _place_in_bin(k, t, n):
    """Value (k + t)/n nudged to stay inside the half-open bin [k/n, (k+1)/n).

    Guards against the rare rounding that lands exactly on the upper edge, so
    the Latin property is exact under half-open binning.
    """
    v = (k + t) / n
    lo = k / n
    hi = (k + 1.0) / n
    v = np.where(v < lo, lo, v)
    return np.where(v >= hi, np.nextafter(hi, 0.0), v)


def _lhs_unit(rng: RngState, n: int, dim: int, placement: BinPlacement) -> np.ndarray:
    """Unit-cube Latin hypercube draw: per dimension, a random permutation of
    the n bins, then one value per bin, every dimension's in-bin offsets in
    one draw of (dim, n) values."""
    perms = np.stack([rng.permutation(n) for _ in range(dim)], axis=1)
    t = rng.random((dim, n)).T if placement is BinPlacement.RANDOM_IN_BIN else 0.5
    return _place_in_bin(perms, t, n)


def lhs_basic(domain: Domain, n: int, rng: RngState,
              bin_placement: BinPlacement = BinPlacement.RANDOM_IN_BIN) -> SampleSet:
    """Basic Latin hypercube sampling: each of the n equispaced bins per
    dimension holds exactly one coordinate value."""
    if n < 1:
        raise ValueError("n must be >= 1")
    unit = _lhs_unit(rng, n, domain.dim, bin_placement)
    return SampleSet(domain, domain.from_unit(unit))


def lhs_maximin(domain: Domain, n: int, rng: RngState,
                config: LhsConfig = LhsConfig(), trace=None) -> SampleSet:
    """Approximate maximin LHS: random interchanges that strictly increase
    the minimum pairwise distance, restarted over several tries.

    Every attempted interchange involves one endpoint of the current
    minimum-distance pair (swapping any other pair cannot raise the minimum).
    An interchange changes only the 2(n - 1) pairs of its two rows, and every
    other pair is at least the current minimum, so when a changed pair is at
    or below it the swap is undone at once.  Otherwise every pairwise
    distance is recomputed, each pair once, into one condensed buffer that
    the call allocates once; that rebuild rejects a tie with an unchanged
    pair and finds the new first closest pair in condensed order.  Both
    kernels give a pair the same bits, so the output is that of rebuilding
    on every attempt.
    With ``trace`` a list, one (try, attempt, new_min_distance) tuple is
    appended per accepted interchange.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    d = domain.dim
    best = None
    best_min = -np.inf
    cdist, pdist = _distance().cdist, _distance().pdist
    dist2 = np.empty(n * (n - 1) // 2)
    changed = np.empty((2, n))
    for t in range(config.n_tries):
        x = _lhs_unit(rng, n, d, config.bin_placement)
        pdist(x, "sqeuclidean", out=dist2)
        k = int(np.argmin(dist2))
        cur_min = dist2[k]
        i1, i2 = condensed_pair(k, n)
        for attempt in range(config.n_interchanges):
            pick = i1 if rng.integers(2) == 0 else i2
            col = rng.integers(d)
            row = rng.integers(n)
            if row == pick:
                continue  # identity swap can never strictly improve
            x[pick, col], x[row, col] = x[row, col], x[pick, col]
            cdist(x[[pick, row]], x, "sqeuclidean", out=changed)
            changed[0, pick] = changed[1, row] = np.inf
            if changed.min() > cur_min:
                pdist(x, "sqeuclidean", out=dist2)
                k = int(np.argmin(dist2))
                new_min = dist2[k]
                if new_min > cur_min:
                    cur_min = new_min
                    i1, i2 = condensed_pair(k, n)
                    if trace is not None:
                        trace.append((t, attempt, float(math.sqrt(new_min))))
                    continue
            x[pick, col], x[row, col] = x[row, col], x[pick, col]
        if cur_min > best_min:
            best_min = cur_min
            best = x.copy()
    return SampleSet(domain, domain.from_unit(best))


def _latin_misplaced(u: np.ndarray):
    """The Latin-bin test of an (n, d) array of unit coordinates.

    Each column is sorted stably, so equal values rank by sample index, and
    rank r's bin is [r/n, (r+1)/n), the last bin closed at 1.  Returns the
    sort order and the misplaced entries as (dims, ranks), dimension by
    dimension and, within a dimension, in ascending rank order.
    """
    n = len(u)
    ranks = np.arange(n)[:, None]
    order = np.argsort(u, axis=0, kind="stable")
    v = np.take_along_axis(u, order, axis=0)
    inside = (ranks / n <= v) & (v < (ranks + 1.0) / n)
    inside[-1:] |= v[-1:] == 1.0  # the last bin is closed at 1
    dims, moved = np.nonzero(~inside.T)
    return order, dims, moved


def latinize(sample_set: SampleSet, rng: RngState) -> SampleSet:
    """Give an arbitrary set the Latin property by rank-ordering each
    dimension and shifting only the values that sit outside their rank's bin.

    Unmoved coordinates are preserved bit-identically, and the original
    sample order is kept (points are addressed by index, never reordered).
    Replacement values consume the stream as one ``random()`` value per
    moved coordinate, dimension by dimension and, within a dimension, in
    ascending rank order (equal values ranked by sample index); the output
    and the stream position after the call are fixed by that order.
    """
    n = len(sample_set)
    if n < 1:
        raise ValueError("latinize requires at least 1 point")
    dom = sample_set.domain
    new_pts = sample_set.points.copy()
    order, dims, moved = _latin_misplaced(dom.to_unit(sample_set.points))
    # One draw of k values consumes the stream exactly like k scalar draws.
    nv = _place_in_bin(moved, rng.random(moved.size), n)
    new_pts[order[moved, dims], dims] = dom.lower[dims] + nv * (dom.upper[dims] - dom.lower[dims])
    return SampleSet(dom, new_pts)


def latin_property_holds(sample_set: SampleSet) -> bool:
    """Exact one-value-per-bin check with half-open bins (last bin closed):
    true exactly when ``latinize`` would move no value."""
    return not _latin_misplaced(sample_set.domain.to_unit(sample_set.points))[1].size


# ---------------------------------------------------------------------------
# Centroidal Voronoi tessellation
# ---------------------------------------------------------------------------

def cvt_sampling(domain: Domain, n: int, rng: RngState,
                 config: CvtConfig = CvtConfig()) -> SampleSet:
    """Probabilistic Lloyd iterations: each pass draws points-per-iteration
    samples from the density (uniform when absent), assigns them to the
    nearest generator, and blends each nonempty generator toward the mean of
    its assigned points with a per-generator update counter.  The
    assignment runs in core's row blocks of at most 2^18 squared distances.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if config.ppi < n:
        warnings.warn(
            f"ppi={config.ppi} is below n={n}; generator estimates will be poor",
            RuntimeWarning,
        )
    gens = _draw_points(rng, domain, n)
    m = np.ones(n)
    for _ in range(config.n_iter):
        pts = _draw_points(rng, domain, config.ppi)
        labels = nearest_labels(pts, gens)
        sums = np.zeros_like(gens)
        np.add.at(sums, labels, pts)
        counts = np.bincount(labels, minlength=n)
        nonempty = counts > 0
        means = sums[nonempty] / counts[nonempty, None]
        old = gens[nonempty].copy()
        mi = m[nonempty, None]
        gens[nonempty] = ((config.alpha1 * mi + config.beta1) * old
                          + (config.alpha2 * mi + config.beta2) * means) / (mi + 1.0)
        m[nonempty] += 1.0
        move2 = ((gens[nonempty] - old) ** 2).sum(axis=1).max() if nonempty.any() else 0.0
        if math.sqrt(move2) < config.convergence_tol:
            break
    return SampleSet(domain, domain.from_unit(gens))


# ---------------------------------------------------------------------------
# Poisson disk
# ---------------------------------------------------------------------------

def poisson_disk(domain: Domain, config: PoissonConfig, rng: RngState) -> SampleSet:
    """Blue-noise sampling with a hard minimum separation radius.

    Candidates around a randomly chosen active sample are drawn uniformly
    from the annulus [r, 2r] (rejection inside its bounding box) and accepted
    only when inside the box, viable and at least r away from every sample
    generated so far.  A sample retires after n_cand failed candidates; the
    process ends when the active list empties.  The sample count is an
    output, not an input; a radius exceeding the box diagonal yields a
    single sample.  REJECTION_CAP consecutive draws outside the annulus
    raise SamplingError.

    Stream contract: the output and the stream position are those of one
    d-value draw per annulus try.  The tries for an active sample are peeked
    a block at a time, and the domain decides the candidates inside the box
    under the call contract in ``Domain``'s docstring.
    """
    d = domain.dim
    r = config.radius  # unit-scale distance
    r2 = r * r
    lo, hi = -2.0 * r, 2.0 * r

    def in_annulus(u, want, misses):
        v = lo + (hi - lo) * u
        s = (v * v).sum(axis=1)
        return (r2 <= s) & (s <= 4.0 * r2)

    pts = np.empty((256, d))
    pts[0] = _draw_unit_batch(rng, domain, 1)[0]
    count = 1
    active = [0]
    while active:
        pos = rng.integers(len(active))
        base = pts[active[pos]]
        need, misses = config.n_cand, 0
        while need:
            block, hits, stop, misses = _peek_hits(rng, min(2 * need + 64, 1 << 14), d,
                                                   need, misses, in_annulus)
            need -= len(hits)
            cands = base + (lo + (hi - lo) * block[hits])
            inbox = np.flatnonzero(~(np.any(cands < 0.0, axis=1) | np.any(cands > 1.0, axis=1)))
            far = min_squared_dists(cands[inbox], pts[:count]) >= r2
            # The first candidate accepted ends the scan; no cap applies.
            ok = domain._viable_rows(domain.from_unit(cands[inbox]), 1, 0, None, far)
            if ok.any():
                j = inbox[np.argmax(ok)]
                rng.random((hits[j] + 1, d))
                if count == pts.shape[0]:
                    pts = np.vstack([pts, np.empty_like(pts)])
                pts[count] = cands[j]
                active.append(count)
                count += 1
                break
            rng.random((stop, d))
            if misses == REJECTION_CAP:
                raise SamplingError("annulus rejection exceeded the cap "
                                    "(dimension too high for shell sampling)")
        else:  # n_cand candidates failed
            active.pop(pos)
    return SampleSet(domain, domain.from_unit(pts[:count]))


# ---------------------------------------------------------------------------
# Farthest-point family
# ---------------------------------------------------------------------------

def _row_sums(sq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Column sums of a (d, n) block into out, overwriting sq, with the bits
    of numpy's ``sum(axis=1)`` over the (n, d) transpose.

    numpy sums a contiguous row pairwise.  Below 8 terms it adds them in
    order.  Up to 128 terms it keeps 8 partial sums over blocks of 8,
    combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then adds the
    remaining terms in order.  Above 128 terms it splits at half the count
    rounded down to a multiple of 8 and sums each part that way.
    """
    d = sq.shape[0]
    if d < 8:
        np.copyto(out, sq[0])
        for j in range(1, d):
            np.add(out, sq[j], out=out)
    elif d <= 128:
        blocks = d - d % 8
        r = sq[:8]
        for i in range(8, blocks, 8):
            np.add(r, sq[i:i + 8], out=r)
        np.add(r[0::2], r[1::2], out=r[0::2])
        np.add(r[0::4], r[2::4], out=r[0::4])
        np.add(r[0], r[4], out=out)
        for j in range(blocks, d):
            np.add(out, sq[j], out=out)
    else:
        half = d // 2 - (d // 2) % 8
        _row_sums(sq[:half], out)
        np.add(out, _row_sums(sq[half:], sq[half]), out=out)
    return out


def _greedy_picks(x: np.ndarray, base: np.ndarray, count: int,
                  first: Optional[int] = None,
                  weights: Optional[np.ndarray] = None) -> list:
    """Indices of count rows of x picked greedily to maximize the minimum
    squared distance to the (m, d) base set and the earlier picks, or
    weights * distance when weights are given.

    The first pick is row first when given; ties go to the lowest index.
    Arithmetic contract: the picks are those made on exact minima.  A row's
    starting minimum is ``min_squared_dists(x, base)``, cdist's bits, and
    each pick's squared distances are, bit for bit, those of ``((x -
    x[idx]) ** 2).sum(axis=1)``.  The candidates are transposed once to (d,
    n), so a pick is contiguous column subtracts and squares, summed in
    numpy's row-sum order by ``_row_sums``.  One running-minimum array holds
    each row's minimum; a picked row's is -inf, so it never wins again.

    Unweighted picks start from ``core._screened_min_squared_dists``, which
    from ``core._SCREEN_PAIRS`` candidate-base pairs on is one BLAS product
    per row block, within delta of cdist's minima (its docstring derives
    delta), and cdist's own minima with delta 0 otherwise.  Since a pick
    needs only the argmax, it is checked, not trusted: a row j can tie or
    beat the argmax i only if ``min_d2[j] + slack[j] >= min_d2[i] -
    slack[i]``, slack being delta until the row is resolved and 0 after.
    When any row other than i can, the unresolved contenders get their
    exact minima (cdist over base, then the earlier picks' row sums) and
    the argmax is taken again.  When i is resolved, only unresolved rows can
    still beat it, since argmax has ranked the exact ones.  A row is
    resolved at most once, so resolution computes at most n * (m + count)
    pair distances, the exact path's own distance work.  So every pick,
    and the output, is that of the exact path, and the BLAS bits never
    reach an output.  Weighted picks take the exact path.

    A pick whose best minimum overflows float64 to inf, while the base or
    an earlier pick exists, raises ValueError.
    """
    n = x.shape[0]
    if weights is None:
        min_d2, delta = _screened_min_squared_dists(x, base)
    else:
        min_d2, delta = min_squared_dists(x, base), 0.0
    unresolved = np.ones(n, dtype=bool)
    above = np.empty(n, dtype=bool)
    xt = np.ascontiguousarray(x.T)
    work = np.empty_like(xt)
    row = np.empty(n)
    picks = []
    with np.errstate(over="ignore"):  # an overflow to inf is checked at the argmax
        for step in range(count):
            if step == 0 and first is not None:
                idx = first
            else:
                idx = int(np.argmax(_scores(min_d2, weights)))
                while delta:  # screened: can another row tie or beat idx?
                    best, own = min_d2[idx], delta * unresolved[idx]
                    np.greater_equal(min_d2, best - own - delta, out=above)
                    if not own:
                        np.logical_and(above, unresolved, out=above)
                    above[idx] = False
                    if not above.any():
                        break
                    near = np.flatnonzero(above)
                    near = np.append(near[min_d2[near] + delta * unresolved[near] >= best - own], idx)
                    open_ = near[unresolved[near]]
                    if len(near) == 1 or not len(open_):
                        break
                    min_d2[open_] = _exact_minima(x, xt, open_, base, picks)
                    unresolved[open_] = False
                    idx = int(np.argmax(min_d2))
                if min_d2[idx] == np.inf and (len(base) or picks):
                    raise ValueError("squared max-min distance overflows float64; "
                                     "scale the input first")
            picks.append(idx)
            _lower_minima(min_d2, xt, idx, work, row)
    return picks


def _lower_minima(min_d2: np.ndarray, xt: np.ndarray, idx: int, work: np.ndarray,
                  row: np.ndarray) -> None:
    """Lower the running minima to the squared distances from pick idx, in
    place (work and row are scratch), and mark idx picked with -inf."""
    np.subtract(xt, xt[:, idx, None], out=work)
    np.square(work, out=work)
    np.minimum(min_d2, _row_sums(work, row), out=min_d2)
    min_d2[idx] = -np.inf


def _exact_minima(x: np.ndarray, xt: np.ndarray, rows: np.ndarray, base: np.ndarray,
                  picks: list) -> np.ndarray:
    """The exact path's running minima of the given rows of x: cdist's
    minimum over base, then each earlier pick's squared distance with the
    bits of ``_row_sums``, taken in row blocks under ``core._row_blocks``."""
    out = min_squared_dists(x[rows], base)
    if picks:
        p = np.asarray(picks)
        for start, stop in _row_blocks(len(rows), len(p) * len(xt)):
            sq = np.square(xt[:, rows[start:stop], None] - xt[:, None, p]).reshape(len(xt), -1)
            sums = _row_sums(sq, np.empty(sq.shape[1])).reshape(stop - start, len(p))
            np.minimum(out[start:stop], sums.min(axis=1), out=out[start:stop])
    return out


def _greedy_new(rng: RngState, domain: Domain, n: int, config: FpConfig,
                exist_u: np.ndarray) -> np.ndarray:
    """GreedyFP and hybrid core over a candidate domain; returns new unit
    points.  An n*scale candidate pool is drawn, and redrawn after every
    refresh_count picks (never when refresh_count is None).  With nothing
    to score against, the first pick is random, weighted by density when
    there is one."""
    selected = []
    while len(selected) < n:
        pool = _draw_unit_batch(rng, domain, n * config.scale)
        scored = np.vstack([exist_u, *selected]) if selected else exist_u
        density_vals = _density_values(domain, pool)
        first = None
        if len(scored) == 0:
            first = (rng.integers(len(pool)) if density_vals is None
                     else _density_draw_index(rng, density_vals))
        count = min(config.refresh_count or n, n - len(selected))
        picks = _greedy_picks(pool, scored, count, first, density_vals)
        selected.extend(pool[picks])
    return np.asarray(selected)


def greedy_fp(domain: Domain, n: int, rng: RngState, config: FpConfig = FpConfig(scale=10),
              existing: Optional[SampleSet] = None) -> SampleSet:
    """Greedy farthest-point selection over one up-front candidate pool.

    n*scale candidates are drawn once; the first sample is random among them
    (when no existing points are given), and every later sample is the pool
    member farthest from everything selected so far.  Selected candidates
    leave the pool.  Existing points are preserved as an untouched prefix and
    score against the candidates.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if config.scale is None:
        raise ValueError("greedy_fp requires scale >= 1")
    exist_u = _existing_unit(domain, existing)
    greedy = FpConfig(scale=config.scale)
    return _assemble(domain, existing, _greedy_new(rng, domain, n, greedy, exist_u))


def _bc_new(rng: RngState, domain: Domain, n: int, config: FpConfig,
            exist_u: np.ndarray) -> np.ndarray:
    """Best-candidate core over a candidate domain; returns new unit points.

    The existing points and the winners fill one buffer in order, and each
    batch is scored against its filled prefix; a winner is copied out of its
    batch, so no batch outlives its step."""
    filled = len(exist_u)
    scored = np.empty((filled + n, domain.dim))
    scored[:filled] = exist_u
    if filled == 0:
        scored[0] = _draw_points(rng, domain, 1)[0]
        filled = 1
    while filled < len(scored):
        if config.n_cand_fixed is not None:
            n_cand = config.n_cand_fixed
        else:
            n_cand = config.scale * (filled + 1)
            if config.max_cand is not None:
                n_cand = min(n_cand, config.max_cand)
        batch = _draw_unit_batch(rng, domain, n_cand)
        min_d2 = min_squared_dists(batch, scored[:filled])
        scored[filled] = batch[int(np.argmax(_scores(min_d2, _density_values(domain, batch))))]
        filled += 1
    return scored[len(exist_u):]


def best_candidate(domain: Domain, n: int, rng: RngState,
                   config: FpConfig = FpConfig(n_cand_fixed=250),
                   existing: Optional[SampleSet] = None) -> SampleSet:
    """Best-candidate sampling: a fresh candidate batch per new sample, with
    the winner farthest from everything selected (plus existing points).

    Batch size is n_cand_fixed when set (the fixed-candidate mode used for
    the quantitative comparisons); otherwise min(scale*i, max_cand) where i
    counts all samples placed so far, existing ones included.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if config.n_cand_fixed is None and config.scale is None:
        raise ValueError("best_candidate requires n_cand_fixed or scale")
    exist_u = _existing_unit(domain, existing)
    return _assemble(domain, existing, _bc_new(rng, domain, n, config, exist_u))


def hybrid_bc_fp(domain: Domain, n: int, rng: RngState,
                 config: FpConfig = FpConfig(scale=10, refresh_count=100),
                 existing: Optional[SampleSet] = None) -> SampleSet:
    """GreedyFP with periodic pool regeneration: after every refresh_count
    selections the entire n*scale candidate pool is redrawn.

    refresh_count >= n reproduces greedy_fp exactly; refresh_count = 1
    degenerates to per-sample fresh batches (BC-like).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if config.scale is None:
        raise ValueError("hybrid requires scale >= 1")
    if config.refresh_count is None:
        raise ValueError("hybrid requires refresh_count >= 1")
    exist_u = _existing_unit(domain, existing)
    return _assemble(domain, existing, _greedy_new(rng, domain, n, config, exist_u))


# ---------------------------------------------------------------------------
# Registry: algorithm ids shared by the CLI, the benchmark harness, and the
# adaptation toolkit.  Per id, the config its parameters build, and per
# parameter its default in the quantitative comparison and the config field
# it sets.
# ---------------------------------------------------------------------------

_PARAMS = {
    "random": (FpConfig, {}),
    "grid": (_bin_counts, {"bins": (10, "bins_per_dim")}),
    "stratified": (_bin_counts, {"bins": (10, "bins_per_dim")}),
    "lhs-basic": (LhsConfig, {"placement": ("random", "bin_placement")}),
    "lhs-maximin": (LhsConfig, {"ntries": (10, "n_tries"), "ninterchanges": (100, "n_interchanges"),
                                "placement": ("random", "bin_placement")}),
    "cvt": (CvtConfig, {"niter": (100, "n_iter"), "ppi": (10_000, "ppi"), "alpha1": (0.0, "alpha1"),
                        "alpha2": (1.0, "alpha2"), "beta1": (0.0, "beta1"), "beta2": (1.0, "beta2"),
                        "tol": (1e-6, "convergence_tol")}),
    "poisson": (PoissonConfig, {"r": (0.08, "radius"), "ncand": (30, "n_cand")}),
    "greedyfp": (FpConfig, {"scale": (10, "scale")}),
    "bc": (FpConfig, {"ncand": (250, "n_cand_fixed")}),
    "hybrid": (FpConfig, {"scale": (10, "scale"), "refresh": (100, "refresh_count")}),
}
TABLE_DEFAULTS = {algo: {key: d for key, (d, _) in spec.items()} for algo, (_, spec) in _PARAMS.items()}

# The rules of ``_checked``; the value of _NO_COUNT names what sets the count.
_NO_COUNT = {"poisson": "a radius", "grid": "bins", "stratified": "bins"}
INCREMENTAL_ALGORITHMS = ("random", "greedyfp", "bc", "hybrid")
_VIABLE = INCREMENTAL_ALGORITHMS + ("cvt", "poisson")


def _checked(algorithm: str, params, n, domain: Optional[Domain] = None, existing=None):
    """The config of the algorithm's parameters merged over their defaults
    (bin counts for grid and stratified), once every id and range rule
    holds, and given a domain, once the bin counts fit its dimension and
    MAX_GRID_CELLS; ValueError before anything is drawn otherwise (see
    ``generate``)."""
    if algorithm not in _PARAMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {sorted(_PARAMS)}")
    build, spec = _PARAMS[algorithm]
    merged = dict(TABLE_DEFAULTS[algorithm])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"unknown parameter {key!r} for algorithm {algorithm!r}")
        default = merged[key]
        if not isinstance(default, str):
            integer = isinstance(default, int)
            many = key == "bins" and isinstance(value, (list, tuple))
            if not all(_is_number(v, integer) for v in (value if many else [value])):
                kind = "an integer" if integer else "a finite number"
                raise ValueError(f"parameter {key!r} of algorithm {algorithm!r} must be {kind}, "
                                 f"got {value!r}")
            value = value if many else type(default)(value)
        merged[key] = value
    if algorithm in _NO_COUNT:
        if n is not None:
            raise ValueError(f"{algorithm} takes {_NO_COUNT[algorithm]}, not a sample count")
    elif n is None:
        raise ValueError(f"algorithm {algorithm!r} requires a sample count")
    elif n < 1:
        raise ValueError("n must be >= 1")
    if existing is not None and algorithm not in INCREMENTAL_ALGORITHMS:
        raise ValueError(f"algorithm {algorithm!r} does not support existing points")
    if domain is not None and domain.viability is not None and algorithm not in _VIABLE:
        raise ValueError(f"algorithm {algorithm!r} does not support a viability predicate")
    values = {field: merged[key] for key, (_, field) in spec.items()}
    if domain is not None and build is _bin_counts:
        values["dim"] = domain.dim  # grid_sampling's shape and size rules
    try:
        config = build(**values)
    except _ParamError as err:
        keys = [key for field in err.fields for key, (_, f) in spec.items() if f == field]
        raise ValueError(f"parameter {' + '.join(map(repr, keys))} of algorithm {algorithm!r} "
                         f"{err.rule}, got {' + '.join(repr(merged[k]) for k in keys)}"
                         f"{err.note}") from None
    return config


def _is_number(v, integer: bool) -> bool:
    """Whether v is an integer (an int, or a float with an integral value)
    when integer is set, else a number that float() makes finite; a bool is
    neither."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    if isinstance(v, numbers.Integral):
        return integer or abs(v) <= sys.float_info.max
    return math.isfinite(v) and (not integer or float(v).is_integer())


def generate(algorithm: str, domain: Domain, n: Optional[int], rng: RngState,
             params: Optional[dict] = None, existing: Optional[SampleSet] = None) -> SampleSet:
    """Dispatch by algorithm id, filling missing parameters from the
    comparison defaults.

    The rules below are checked before anything is drawn; a call that
    breaks one raises ValueError and leaves rng untouched.  The algorithm
    and parameter names must be known, a parameter whose default is an int
    takes an integer (bins also a list of them), one whose default is a
    float a finite number, and each its config's range.  ``n`` is None for
    poisson, grid and stratified (r and bins set their counts) and >= 1 for
    the others.  Only random, greedyfp, bc and hybrid take ``existing``,
    even an empty set, and return it as a frozen prefix.  A viability
    predicate goes only to those four, cvt and poisson.  A density weights
    greedyfp, bc, hybrid and cvt; the other algorithms ignore it.
    """
    config = _checked(algorithm, params, n, domain, existing)
    if algorithm == "poisson":
        return poisson_disk(domain, config, rng)
    if algorithm in INCREMENTAL_ALGORITHMS:
        new_unit = _new_points(algorithm, rng, domain, n, config, _existing_unit(domain, existing))
        return _assemble(domain, existing, new_unit)
    if algorithm in ("grid", "stratified"):
        mode = GridMode.CORNERS if algorithm == "grid" else GridMode.STRATIFIED_RANDOM
        return grid_sampling(domain, config, mode, rng)
    if algorithm == "lhs-basic":
        return lhs_basic(domain, n, rng, config.bin_placement)
    if algorithm == "lhs-maximin":
        return lhs_maximin(domain, n, rng, config)
    return cvt_sampling(domain, n, rng, config)


def _new_points(algorithm: str, rng: RngState, domain: Domain, n: int, config: FpConfig,
                exist_u: np.ndarray) -> np.ndarray:
    """n new unit points of an incremental algorithm id, scored against the
    existing unit points; config is the one ``_checked`` returns."""
    if algorithm == "random":
        return _draw_unit_batch(rng, domain, n)
    core = _bc_new if algorithm == "bc" else _greedy_new
    return core(rng, domain, n, config, exist_u)


ALGORITHMS = tuple(TABLE_DEFAULTS)
