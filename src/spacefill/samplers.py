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
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from .core import (
    REJECTION_CAP,
    Domain,
    RegionTooSmallError,
    RngState,
    SampleSet,
    SamplingError,
    min_squared_dists,
    squared_distance_matrix,
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


@dataclass(frozen=True)
class LhsConfig:
    n_tries: int = 10
    n_interchanges: int = 100
    bin_placement: BinPlacement = BinPlacement.RANDOM_IN_BIN

    def __post_init__(self):
        if self.n_tries < 1:
            raise ValueError("n_tries must be >= 1")
        if self.n_interchanges < 0:
            raise ValueError("n_interchanges must be >= 0")


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
        if self.n_iter < 1 or self.ppi < 1:
            raise ValueError("n_iter and ppi must be >= 1")
        if not (self.alpha2 > 0 and self.beta2 > 0):
            raise ValueError("alpha2 and beta2 must be positive")
        if abs(self.alpha1 + self.alpha2 - 1.0) > 1e-12:
            raise ValueError("alpha1 + alpha2 must equal 1")
        if abs(self.beta1 + self.beta2 - 1.0) > 1e-12:
            raise ValueError("beta1 + beta2 must equal 1")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be nonnegative")


@dataclass(frozen=True)
class PoissonConfig:
    radius: float
    n_cand: int = 30

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.n_cand < 1:
            raise ValueError("n_cand must be >= 1")


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
                raise ValueError(f"{name} must be >= 1 when set")


# ---------------------------------------------------------------------------
# Candidate generation.  Candidates are drawn in unit coordinates of a
# Domain; viability and density callables are evaluated at the corresponding
# domain point.  Domain expansion passes the old box as ``exclude``, so that
# candidates come only from the added shell.
# ---------------------------------------------------------------------------

def _draw_unit_batch(rng: RngState, domain: Domain, count: int,
                     exclude: Optional[Domain] = None) -> np.ndarray:
    """(count, d) unit points drawn uniformly, keeping those that the
    domain's viability accepts and that lie outside the excluded box.

    Stream contract: a block of candidate rows is peeked, which leaves the
    stream where it was.  The viability is called on each row in draw order
    until count rows are kept, and then exactly the rows examined are
    consumed with one draw.  So the viability gets the same calls, on the
    same points and in the same order, as with one draw per candidate, and
    never a call past the last row kept; the output and the stream position
    are those of per-candidate draws.  An unconstrained draw takes one
    batched draw, which consumes the stream identically.  REJECTION_CAP
    consecutive rejections raise RegionTooSmallError.
    """
    d = domain.dim
    viability = domain.viability
    if viability is None and exclude is None:
        return rng.random((count, d))
    out = np.empty((count, d))
    kept = misses = 0
    while kept < count:
        # Twice the rows still needed fills most requests in one block at
        # acceptance rates above one half; the cap bounds a block's memory.
        u = rng._peek((min(2 * (count - kept) + 64, 1 << 14), d))
        x = domain.from_unit(u)
        if exclude is None:
            outside = [True] * len(x)
        else:
            outside = (~exclude.contains(x)).tolist()
        hits = []
        for i in range(len(x)):
            # The viability sees every drawn row, inside the excluded box too.
            if (viability is None or viability(x[i])) and outside[i]:
                hits.append(i)
                misses = 0
                if kept + len(hits) == count:
                    break
            else:
                misses += 1
                if misses == REJECTION_CAP:
                    rng.random((i + 1, d))
                    raise RegionTooSmallError(f"viability predicate rejected {REJECTION_CAP} "
                                              "consecutive draws; region too small")
        out[kept:kept + len(hits)] = rng.random((i + 1, d))[hits]
        kept += len(hits)
    return out


def _draw_unit_density(rng: RngState, domain: Domain, count: int,
                       exclude: Optional[Domain] = None) -> np.ndarray:
    """(count, d) unit points distributed proportionally to the density.

    Per point: draw coordinates, apply the viability and the excluded box,
    then accept with probability density/density_max.  A point costs d+1
    uniforms per attempt.
    """
    out = np.empty((count, domain.dim))
    for i in range(count):
        for _ in range(REJECTION_CAP):
            u = rng.random(domain.dim)
            x = domain.from_unit(u)
            if domain.viability is not None and not domain.viability(x):
                continue
            if exclude is not None and exclude.contains(x)[0]:
                continue
            t = rng.random()
            if t * domain.density_max <= domain.density_at(x):
                out[i] = u
                break
        else:
            raise RegionTooSmallError(
                "density rejection sampling exceeded the cap; acceptance rate "
                "below 1e-6 (density_max far too large or density ~ 0)"
            )
    return out


def _draw_points(rng: RngState, domain: Domain, count: int,
                 exclude: Optional[Domain] = None) -> np.ndarray:
    if domain.density is not None:
        return _draw_unit_density(rng, domain, count, exclude)
    return _draw_unit_batch(rng, domain, count, exclude)


def _density_values(domain: Domain, unit_pts: np.ndarray) -> Optional[np.ndarray]:
    """The density at each unit point, or None when the domain has none."""
    if domain.density is None:
        return None
    return np.array([domain.density_at(x) for x in domain.from_unit(unit_pts)])


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


def grid_sampling(domain: Domain, bins_per_dim, mode: GridMode, rng: RngState,
                  max_cells: int = MAX_GRID_CELLS) -> SampleSet:
    """One point per cell of a regular grid: cell centers (CORNERS mode) or
    one uniform point per cell (STRATIFIED_RANDOM).  N = prod(bins)."""
    bins = np.asarray(bins_per_dim, dtype=int).reshape(-1)
    if bins.size == 1 and domain.dim > 1:
        bins = np.full(domain.dim, bins[0])
    if bins.size != domain.dim:
        raise ValueError(f"bins_per_dim must have length {domain.dim}")
    if np.any(bins < 1):
        raise ValueError("bins_per_dim entries must be positive")
    n_cells = int(np.prod(bins, dtype=object))
    if n_cells > max_cells:
        raise ValueError(f"grid of {n_cells} cells exceeds the maximum {max_cells}")
    # Cell order is row-major: the last dimension varies fastest.
    idx = np.indices(tuple(bins)).reshape(domain.dim, -1).T.astype(float)
    if mode is GridMode.CORNERS:
        offsets = 0.5
    elif mode is GridMode.STRATIFIED_RANDOM:
        offsets = rng.random((n_cells, domain.dim))
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
    the n bins, then one value per bin."""
    perms = np.empty((n, dim), dtype=int)
    for j in range(dim):
        perms[:, j] = rng.permutation(n)
    x = np.empty((n, dim))
    for j in range(dim):
        if placement is BinPlacement.RANDOM_IN_BIN:
            t = rng.random(n)
        else:
            t = np.full(n, 0.5)
        x[:, j] = _place_in_bin(perms[:, j], t, n)
    return x


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
    With ``trace`` a list, one (try, attempt, new_min_distance) tuple is
    appended per accepted interchange.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    d = domain.dim
    best = None
    best_min = -np.inf
    for t in range(config.n_tries):
        x = _lhs_unit(rng, n, d, config.bin_placement)
        dist2 = squared_distance_matrix(x)
        cur_min = dist2.min()
        flat = int(np.argmin(dist2))
        i1, i2 = divmod(flat, n)
        for attempt in range(config.n_interchanges):
            pick = i1 if rng.integers(2) == 0 else i2
            col = rng.integers(d)
            row = rng.integers(n)
            if row == pick:
                continue  # identity swap can never strictly improve
            x[pick, col], x[row, col] = x[row, col], x[pick, col]
            dist2 = squared_distance_matrix(x)
            new_min = dist2.min()
            if new_min > cur_min:
                cur_min = new_min
                flat = int(np.argmin(dist2))
                i1, i2 = divmod(flat, n)
                if trace is not None:
                    trace.append((t, attempt, float(math.sqrt(new_min))))
            else:
                x[pick, col], x[row, col] = x[row, col], x[pick, col]
        if cur_min > best_min:
            best_min = cur_min
            best = x.copy()
    return SampleSet(domain, domain.from_unit(best))


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
    u = dom.to_unit(sample_set.points)
    new_pts = sample_set.points.copy()
    ranks = np.arange(n)
    lo = (ranks / n)[:, None]
    hi = ((ranks + 1.0) / n)[:, None]
    order = np.argsort(u, axis=0, kind="stable")
    v = np.take_along_axis(u, order, axis=0)
    inside = (lo <= v) & (v < hi)
    inside[-1] |= v[-1] == 1.0  # the last bin is closed at 1
    # Dimension-major, ascending rank: the documented draw order.  One draw
    # of k values consumes the stream exactly like k scalar draws.
    dims, moved = np.nonzero(~inside.T)
    nv = _place_in_bin(moved, rng.random(moved.size), n)
    new_pts[order[moved, dims], dims] = dom.lower[dims] + nv * (dom.upper[dims] - dom.lower[dims])
    return SampleSet(dom, new_pts)


def latin_property_holds(sample_set: SampleSet) -> bool:
    """Exact one-value-per-bin check with half-open bins (last bin closed)."""
    n = len(sample_set)
    u = sample_set.domain.to_unit(sample_set.points)
    edges = np.arange(n + 1) / n
    for j in range(sample_set.dim):
        bins = np.searchsorted(edges, u[:, j], side="right") - 1
        bins = np.minimum(bins, n - 1)  # closes the last bin at 1.0
        if not np.array_equal(np.sort(bins), np.arange(n)):
            return False
    return True


# ---------------------------------------------------------------------------
# Centroidal Voronoi tessellation
# ---------------------------------------------------------------------------

def cvt_sampling(domain: Domain, n: int, rng: RngState,
                 config: CvtConfig = CvtConfig()) -> SampleSet:
    """Probabilistic Lloyd iterations: each pass draws points-per-iteration
    samples from the density (uniform when absent), assigns them to the
    nearest generator, and blends each nonempty generator toward the mean of
    its assigned points with a per-generator update counter.
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
        labels = _nearest_labels(pts, gens)
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


def _nearest_labels(pts: np.ndarray, gens: np.ndarray, chunk: int = 8192) -> np.ndarray:
    out = np.empty(pts.shape[0], dtype=int)
    for start in range(0, pts.shape[0], chunk):
        stop = min(start + chunk, pts.shape[0])
        out[start:stop] = cdist(pts[start:stop], gens, "sqeuclidean").argmin(axis=1)
    return out


# ---------------------------------------------------------------------------
# Poisson disk
# ---------------------------------------------------------------------------

def poisson_disk(domain: Domain, config: PoissonConfig, rng: RngState) -> SampleSet:
    """Blue-noise sampling with a hard minimum separation radius.

    Candidates around a randomly chosen active sample are drawn uniformly
    from the annulus [r, 2r] (rejection inside its bounding box) and accepted
    only when at least r away from every sample generated so far.  A sample
    retires after n_cand failed candidates; the process ends when the active
    list empties.  The sample count is an output, not an input; a radius
    exceeding the box diagonal yields a single sample.
    """
    d = domain.dim
    r = config.radius  # unit-scale distance
    r2 = r * r
    pts = np.empty((256, d))
    pts[0] = _draw_unit_batch(rng, domain, 1)[0]
    count = 1
    active = [0]
    while active:
        pos = rng.integers(len(active))
        base = pts[active[pos]]
        placed = False
        for _ in range(config.n_cand):
            offset = _annulus_offset(rng, r, d)
            cand = base + offset
            if np.any(cand < 0.0) or np.any(cand > 1.0):
                continue
            if domain.viability is not None and not domain.viability(domain.from_unit(cand)):
                continue
            d2 = ((pts[:count] - cand) ** 2).sum(axis=1).min()
            if d2 >= r2:
                if count == pts.shape[0]:
                    pts = np.vstack([pts, np.empty_like(pts)])
                pts[count] = cand
                active.append(count)
                count += 1
                placed = True
                break
        if not placed:
            active.pop(pos)
    return SampleSet(domain, domain.from_unit(pts[:count]))


def _annulus_offset(rng: RngState, r: float, d: int) -> np.ndarray:
    """Uniform point in the spherical shell r <= |v| <= 2r, by rejection from
    the [-2r, 2r]^d bounding box (dimension-agnostic)."""
    r2 = r * r
    for _ in range(REJECTION_CAP):
        v = rng.uniform(-2.0 * r, 2.0 * r, size=d)
        s = float((v * v).sum())
        if r2 <= s <= 4.0 * r2:
            return v
    raise SamplingError("annulus rejection exceeded the cap (dimension too high for shell sampling)")


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


def _greedy_picks(x: np.ndarray, min_d2: np.ndarray, count: int,
                  first: Optional[int] = None,
                  weights: Optional[np.ndarray] = None) -> list:
    """Indices of count rows of x picked greedily to maximize the minimum
    squared distance, or weights * distance when weights are given.

    min_d2 holds each row's starting minimum squared distance and is updated
    in place; the first pick is row first when given.  A picked row's min_d2
    is set to -inf, so it can never win again.  Arithmetic contract: each
    pick's squared distances are, bit for bit, those of
    ``((x - x[idx]) ** 2).sum(axis=1)``.  The candidates are transposed once
    to (d, n), so a pick is contiguous column subtracts and squares, summed
    in numpy's row-sum order by ``_row_sums``.
    """
    xt = np.ascontiguousarray(x.T)
    work = np.empty_like(xt)
    row = np.empty(x.shape[0])
    picks = []
    for step in range(count):
        if step == 0 and first is not None:
            idx = first
        else:
            idx = int(np.argmax(_scores(min_d2, weights)))
        picks.append(idx)
        np.subtract(xt, xt[:, idx, None], out=work)
        np.square(work, out=work)
        np.minimum(min_d2, _row_sums(work, row), out=min_d2)
        min_d2[idx] = -np.inf
    return picks


def _greedy_new(rng: RngState, domain: Domain, n: int, config: FpConfig,
                exist_u: np.ndarray, exclude: Optional[Domain] = None) -> np.ndarray:
    """GreedyFP and hybrid core over a candidate domain; returns new unit
    points.  An n*scale candidate pool is drawn, and redrawn after every
    refresh_count picks (never when refresh_count is None).  With nothing
    to score against, the first pick is random, weighted by density when
    there is one."""
    selected = []
    while len(selected) < n:
        pool = _draw_unit_batch(rng, domain, n * config.scale, exclude)
        scored = np.vstack([exist_u, *selected]) if selected else exist_u
        density_vals = _density_values(domain, pool)
        first = None
        if len(scored) == 0:
            first = (rng.integers(len(pool)) if density_vals is None
                     else _density_draw_index(rng, density_vals))
        count = min(config.refresh_count or n, n - len(selected))
        picks = _greedy_picks(pool, min_squared_dists(pool, scored), count, first, density_vals)
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
    if config.scale is None or config.scale < 1:
        raise ValueError("greedy_fp requires scale >= 1")
    exist_u = _existing_unit(domain, existing)
    greedy = FpConfig(scale=config.scale)
    return _assemble(domain, existing, _greedy_new(rng, domain, n, greedy, exist_u))


def _bc_new(rng: RngState, domain: Domain, n: int, config: FpConfig,
            exist_u: np.ndarray, exclude: Optional[Domain] = None) -> np.ndarray:
    """Best-candidate core over a candidate domain; returns new unit points."""
    selected = []
    if len(exist_u) == 0:
        selected.append(_draw_points(rng, domain, 1, exclude)[0])
    scored = np.vstack([exist_u, *selected]) if selected else exist_u
    while len(selected) < n:
        i_total = len(exist_u) + len(selected) + 1
        if config.n_cand_fixed is not None:
            n_cand = config.n_cand_fixed
        else:
            n_cand = config.scale * i_total
            if config.max_cand is not None:
                n_cand = min(n_cand, config.max_cand)
        batch = _draw_unit_batch(rng, domain, n_cand, exclude)
        min_d2 = min_squared_dists(batch, scored)
        idx = int(np.argmax(_scores(min_d2, _density_values(domain, batch))))
        selected.append(batch[idx])
        scored = np.vstack([scored, batch[idx]])
    return np.asarray(selected)


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
    if config.scale is None or config.scale < 1:
        raise ValueError("hybrid requires scale >= 1")
    if config.refresh_count is None or config.refresh_count < 1:
        raise ValueError("hybrid requires refresh_count >= 1")
    exist_u = _existing_unit(domain, existing)
    return _assemble(domain, existing, _greedy_new(rng, domain, n, config, exist_u))


# ---------------------------------------------------------------------------
# Registry: algorithm ids shared by the CLI, the benchmark harness, and the
# adaptation toolkit, with the parameter defaults of the quantitative
# comparison.
# ---------------------------------------------------------------------------

TABLE_DEFAULTS = {
    "random": {},
    "grid": {"bins": 10},
    "stratified": {"bins": 10},
    "lhs-basic": {"placement": "random"},
    "lhs-maximin": {"ntries": 10, "ninterchanges": 100, "placement": "random"},
    "cvt": {"niter": 100, "ppi": 10_000, "alpha1": 0.0, "alpha2": 1.0,
            "beta1": 0.0, "beta2": 1.0, "tol": 1e-6},
    "poisson": {"r": 0.08, "ncand": 30},
    "greedyfp": {"scale": 10},
    "bc": {"ncand": 250},
    "hybrid": {"scale": 10, "refresh": 100},
}

# Algorithms that can score new samples against an existing frozen prefix.
INCREMENTAL_ALGORITHMS = ("random", "greedyfp", "bc", "hybrid")


def _merged(algorithm: str, params) -> dict:
    if algorithm not in TABLE_DEFAULTS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {sorted(TABLE_DEFAULTS)}")
    merged = dict(TABLE_DEFAULTS[algorithm])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"unknown parameter {key!r} for algorithm {algorithm!r}")
        merged[key] = value
    return merged


def _placement(name) -> BinPlacement:
    if isinstance(name, BinPlacement):
        return name
    try:
        return BinPlacement(name)
    except ValueError:
        raise ValueError(f"placement must be 'random' or 'center', got {name!r}") from None


def _fp_config(algorithm: str, p: dict) -> FpConfig:
    """The FpConfig of a farthest-point algorithm id, from merged params."""
    if algorithm == "greedyfp":
        return FpConfig(scale=int(p["scale"]))
    if algorithm == "bc":
        return FpConfig(n_cand_fixed=int(p["ncand"]))
    return FpConfig(scale=int(p["scale"]), refresh_count=int(p["refresh"]))


def generate(algorithm: str, domain: Domain, n: Optional[int], rng: RngState,
             params: Optional[dict] = None, existing: Optional[SampleSet] = None) -> SampleSet:
    """Dispatch by algorithm id, filling missing parameters from the
    comparison defaults.  ``n`` must be None for poisson (its sample count is
    an output) and is required everywhere else."""
    p = _merged(algorithm, params)
    if algorithm == "poisson":
        if n is not None:
            raise ValueError("poisson takes a radius, not a sample count")
        return poisson_disk(domain, PoissonConfig(radius=float(p["r"]), n_cand=int(p["ncand"])), rng)
    if n is None and algorithm not in ("grid", "stratified"):
        raise ValueError(f"algorithm {algorithm!r} requires a sample count")
    if existing is not None and len(existing) > 0 and algorithm not in INCREMENTAL_ALGORITHMS:
        raise ValueError(f"algorithm {algorithm!r} does not support existing points")
    if algorithm == "random":
        if existing is not None and len(existing) > 0:
            return _assemble(domain, existing, _draw_unit_batch(rng, domain, n))
        return random_sampling(domain, n, rng)
    if algorithm in ("grid", "stratified"):
        mode = GridMode.CORNERS if algorithm == "grid" else GridMode.STRATIFIED_RANDOM
        return grid_sampling(domain, p["bins"], mode, rng)
    if algorithm == "lhs-basic":
        return lhs_basic(domain, n, rng, _placement(p["placement"]))
    if algorithm == "lhs-maximin":
        cfg = LhsConfig(n_tries=int(p["ntries"]), n_interchanges=int(p["ninterchanges"]),
                        bin_placement=_placement(p["placement"]))
        return lhs_maximin(domain, n, rng, cfg)
    if algorithm == "cvt":
        cfg = CvtConfig(n_iter=int(p["niter"]), ppi=int(p["ppi"]),
                        alpha1=float(p["alpha1"]), alpha2=float(p["alpha2"]),
                        beta1=float(p["beta1"]), beta2=float(p["beta2"]),
                        convergence_tol=float(p["tol"]))
        return cvt_sampling(domain, n, rng, cfg)
    if algorithm == "greedyfp":
        return greedy_fp(domain, n, rng, _fp_config(algorithm, p), existing)
    if algorithm == "bc":
        return best_candidate(domain, n, rng, _fp_config(algorithm, p), existing)
    if algorithm == "hybrid":
        return hybrid_bc_fp(domain, n, rng, _fp_config(algorithm, p), existing)
    raise AssertionError(f"unhandled algorithm {algorithm!r}")


def _new_points(algorithm: str, rng: RngState, domain: Domain, n: int,
                params: Optional[dict], exist_u: np.ndarray,
                exclude: Optional[Domain] = None) -> np.ndarray:
    """New unit points by incremental-capable algorithm id, drawn from the
    domain outside the excluded box (used by the adaptation toolkit)."""
    if algorithm not in INCREMENTAL_ALGORITHMS:
        raise ValueError(
            f"algorithm {algorithm!r} cannot add to existing samples; "
            f"expected one of {INCREMENTAL_ALGORITHMS}"
        )
    p = _merged(algorithm, params)
    if algorithm == "random":
        return _draw_unit_batch(rng, domain, n, exclude)
    core = _bc_new if algorithm == "bc" else _greedy_new
    return core(rng, domain, n, _fp_config(algorithm, p), exist_u, exclude)


ALGORITHMS = tuple(TABLE_DEFAULTS)
