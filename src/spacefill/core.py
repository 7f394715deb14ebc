"""Domains, sample sets, and the deterministic randomness contract.

Everything downstream (samplers, adaptations, metrics, benchmarks) builds on
the types here: an axis-aligned box ``Domain`` with optional viability and
density callables, an ordered immutable ``SampleSet``, and a seedable
``RngState`` that is the sole source of randomness everywhere.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SamplingError",
    "RegionTooSmallError",
    "REJECTION_CAP",
    "Domain",
    "SampleSet",
    "RngState",
    "derive_seed",
    "scale_to_unit",
    "scale_from_unit",
    "nearest_neighbor_distances",
    "min_pair",
]

# Consecutive-rejection cap shared by every rejection-sampling loop.
REJECTION_CAP = 1_000_000


class SamplingError(RuntimeError):
    """An algorithm failed at run time (as opposed to a usage error)."""


class RegionTooSmallError(SamplingError):
    """Rejection sampling exceeded the cap; the allowed region is too small."""


def _as_bounds(v, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (dim,):
        raise ValueError(f"{name} must have length {dim}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _has_array_form(fn) -> bool:
    """Whether a viability or density callable carries a ``batch`` form."""
    return getattr(fn, "batch", None) is not None


def _rows(fn, points: np.ndarray, dtype, each=None) -> np.ndarray:
    """fn's value at each row of an (m, d) array, as a dtype array: one call
    of fn's array form when it has one, which must give one value per row,
    else each(p), by default dtype(fn(p)), per row in order."""
    if not _has_array_form(fn):
        each = each or (lambda p: dtype(fn(p)))
        return np.array([each(p) for p in points], dtype=dtype)
    out = np.asarray(fn.batch(points))
    if out.shape != (len(points),):
        raise ValueError(f"batch form returned shape {out.shape} for {len(points)} points; "
                         f"expected ({len(points)},)")
    return out.astype(dtype)


def _in_order(test, rows, want: int, misses: int, cap: Optional[int]) -> np.ndarray:
    """One bool per item of rows from test(row), called in order up to the
    want-th hit or, when cap is given, the cap-th consecutive miss counting
    the misses carried in; items past the stop read False."""
    ok = np.zeros(len(rows), dtype=bool)
    for i, row in enumerate(rows):
        ok[i] = hit = bool(test(row))
        misses = 0 if hit else misses + 1
        want -= hit
        if not want or misses == cap:
            break
    return ok


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box, optionally restricted by a viability predicate and
    weighted by a density function.

    Parameters
    ----------
    lower, upper : array-like of shape (d,)
        Box bounds; ``lower[k] < upper[k]`` is required in every dimension.
    viability : callable, optional
        Predicate ``point -> bool`` defining an allowed (possibly
        non-rectangular) region inside the box.
    density : callable, optional
        Finite, nonnegative weight ``point -> float``; requires ``density_max``.
    density_max : float, optional
        Declared finite upper bound of ``density`` over the box.  A density
        value observed above this bound is a contract violation and raises.

    The call contract, which holds for every sampler because only the
    Domain calls these callables on blocks of points: a rejection draw
    hands the Domain a peeked block of candidates to decide, and a
    per-point callable is called once per candidate drawn inside the box,
    in draw order, up to the last candidate the draw keeps and never past
    it.  A ``SampleSet`` calls the viability once per point to validate.

    Either callable may carry an opt-in array form as its ``batch``
    attribute: ``batch(points)`` maps an (m, d) array of points to an (m,)
    array, the value the callable gives for each row.  When it is present,
    the Domain calls it once per block instead.  Outputs and stream
    positions are those of the per-point form, but the array form may be
    called on rows past the last one a draw keeps.  Every density value it
    returns is checked as ``density_at`` checks one.  The CLI presets carry
    array forms.
    """

    lower: np.ndarray
    upper: np.ndarray
    viability: Optional[Callable[[np.ndarray], bool]] = None
    density: Optional[Callable[[np.ndarray], float]] = None
    density_max: Optional[float] = None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float).reshape(-1)
        upper = _as_bounds(self.upper, lower.size, "upper")
        lower = _as_bounds(lower, lower.size, "lower")
        if lower.size == 0:
            raise ValueError("domain must have at least one dimension")
        if not np.all(lower < upper):
            raise ValueError("degenerate domain: lower must be strictly below upper")
        if self.density is not None:
            if self.density_max is None or not self.density_max > 0:
                raise ValueError("density requires a positive density_max bound")
            if not np.isfinite(self.density_max):
                raise ValueError(f"density_max must be finite, got {self.density_max!r}")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def unit(cls, dim: int, **kwargs) -> "Domain":
        """The canonical unit hypercube [0, 1]^dim."""
        return cls(np.zeros(dim), np.ones(dim), **kwargs)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def extent(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Closed-box membership for an (n, d) array, one bool per row."""
        pts = np.atleast_2d(points)
        return np.logical_and(pts >= self.lower, pts <= self.upper).all(axis=1)

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube coordinates into this box."""
        return self.lower + np.asarray(u) * self.extent

    def to_unit(self, x: np.ndarray) -> np.ndarray:
        """Map box coordinates onto the unit cube."""
        return (np.asarray(x) - self.lower) / self.extent

    def viable(self, points: np.ndarray) -> np.ndarray:
        """Viability of each row of an (m, d) array."""
        return _rows(self.viability, points, bool)

    def densities(self, points: np.ndarray) -> np.ndarray:
        """``density_at`` of each row of an (m, d) array; the first
        offending row, in order, raises its message."""
        rho = _rows(self.density, points, float, self.density_at)
        bad = np.flatnonzero(~((rho >= 0) & (rho <= self.density_max)))
        if bad.size:
            self._checked(float(rho[bad[0]]))
        return rho

    def _viable_rows(self, x: np.ndarray, want: int, misses: int, cap, also=None) -> np.ndarray:
        """A rejection draw's viability of a peeked block, and'ed with the
        mask also when given: a per-point predicate sees ``viability(x[i])
        and also[i]`` in order, stopping as ``_in_order`` does."""
        fn = self.viability
        if fn is None:
            return np.ones(len(x), dtype=bool) if also is None else also
        if _has_array_form(fn):
            return self.viable(x) if also is None else also & self.viable(x)
        if also is None:
            return _in_order(fn, x, want, misses, cap)
        return _in_order(lambda i: fn(x[i]) and also[i], range(len(x)), want, misses, cap)

    def _accepts(self, t: np.ndarray, x: np.ndarray, want: int, misses: int, cap) -> np.ndarray:
        """A density rejection draw's ``t * density_max <= density`` for a
        peeked block, stopping as ``_in_order`` does for a per-point density."""
        if _has_array_form(self.density):
            return t * self.density_max <= self.densities(x)
        return _in_order(lambda i: t[i] * self.density_max <= self.density_at(x[i]),
                         range(len(x)), want, misses, cap)

    def density_at(self, point: np.ndarray) -> float:
        """Evaluate the density, enforcing the declared upper bound; a
        non-finite or negative value raises too."""
        return self._checked(float(self.density(point)))

    def _checked(self, rho: float) -> float:
        if not np.isfinite(rho):
            raise SamplingError(f"density returned a non-finite value {rho!r}")
        if rho < 0:
            raise SamplingError(f"density returned a negative value {rho!r}")
        if rho > self.density_max:
            raise SamplingError(
                f"density value {rho!r} exceeds declared density_max {self.density_max!r}"
            )
        return rho


def _outside(old: Domain, new: Domain) -> Domain:
    """The region domain expansion adds: new's box and density, viable where
    new's viability holds (called first, on every candidate, inside the old
    box too) and outside old's closed box.  It has an array form exactly
    when new's viability is None or has one."""
    inner = new.viability

    def viability(x):
        return (inner is None or bool(inner(x))) and not old.contains(x)[0]
    if inner is None or _has_array_form(inner):
        viability.batch = lambda x: (inner is None or new.viable(x)) & ~old.contains(x)
    return Domain(new.lower, new.upper, viability, new.density, new.density_max)


class SampleSet:
    """Ordered, immutable sequence of d-dimensional points in a domain.

    Generation order is meaningful (progressive semantics).  Points with
    index below ``frozen_count`` are pre-existing, already-processed samples
    that incremental operations must preserve bit-identically.
    """

    __slots__ = ("domain", "points", "frozen_count")

    def __init__(self, domain: Domain, points, frozen_count: int = 0):
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, domain.dim)
        if pts.ndim != 2 or pts.shape[1] != domain.dim:
            raise ValueError(f"points must have shape (n, {domain.dim})")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not domain.contains(pts).all():
            raise ValueError("all points must lie inside the domain box")
        if domain.viability is not None:
            bad = np.flatnonzero(~domain.viable(pts))
            if bad.size:
                raise ValueError(f"point {bad[0]} violates the viability predicate")
        if not 0 <= frozen_count <= len(pts):
            raise ValueError("frozen_count out of range")
        pts.setflags(write=False)
        self.domain = domain
        self.points = pts
        self.frozen_count = int(frozen_count)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.domain.dim

    def __repr__(self) -> str:  # pragma: no cover
        return f"SampleSet(n={len(self)}, dim={self.dim}, frozen={self.frozen_count})"


def derive_seed(*parts) -> int:
    """Derive a 64-bit seed from arbitrary parts, stably across platforms.

    SHA-256 of the ':'-joined string repr of the parts, first 8 bytes taken
    little-endian.  Used for benchmark cell seeds and child streams.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngState:
    """Deterministic random stream: PCG64 keyed by a 64-bit seed.

    The same seed yields bit-identical draws for the same call sequence on
    every platform.  Each top-level operation derives its randomness solely
    from the state passed in; child streams are keyed off the original seed,
    never the evolved state.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def random(self, size=None):
        """Uniform draw(s) in [0, 1)."""
        return self._gen.random(size)

    def uniform(self, lo: float, hi: float, size=None):
        """Uniform draw(s) in [lo, hi); errors when lo >= hi."""
        if not lo < hi:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        return lo + (hi - lo) * self._gen.random(size)

    def integers(self, n: int) -> int:
        """One integer uniform on {0, ..., n-1}."""
        return int(self._gen.integers(n))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def _peek(self, shape) -> np.ndarray:
        """The values ``random(shape)`` would return, leaving the stream where
        it was.  The whole bit-generator state is restored, including PCG64's
        buffered 32-bit half, which ``advance()`` would clear."""
        state = self._gen.bit_generator.state
        try:
            return self._gen.random(shape)
        finally:
            self._gen.bit_generator.state = state

    def child(self, tag: str) -> "RngState":
        """Independent stream keyed by (original seed, tag)."""
        return RngState(derive_seed(self.seed, tag))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngState(seed={self.seed})"


# ---------------------------------------------------------------------------
# Distance kernels.  Comparisons happen on squared distances; square roots are
# taken only at API boundaries.  This is the one module that imports scipy,
# and it does so when the first distance is computed, so that a command that
# computes none does not pay for importing scipy.spatial.
# ---------------------------------------------------------------------------

@cache
def _distance():
    """``scipy.spatial.distance``, imported at the first call."""
    from scipy.spatial import distance
    return distance


def squared_distance_matrix(points: np.ndarray) -> np.ndarray:
    """Full (n, n) squared-distance matrix with +inf on the diagonal."""
    d2 = _distance().cdist(points, points, "sqeuclidean")
    np.fill_diagonal(d2, np.inf)
    return d2


# Row-block rule of the distance kernels that reduce rows against m columns:
# at most 256 rows, and at most 2^18 distances (2 MB) once m passes 1,024,
# but never less than one row, so a row wider than the budget is one block.
_BLOCK_ROWS = 256
_BLOCK_DISTANCES = 1 << 18


def _row_blocks(n: int, m: int):
    """(start, stop) of each row block of n rows against m columns."""
    step = max(1, min(_BLOCK_ROWS, _BLOCK_DISTANCES // max(m, 1)))
    for start in range(0, n, step):
        yield start, min(start + step, n)


def _reduce_rows(reduce, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``reduce(d2, axis=1)`` of the squared distances from the rows of a to
    those of b, written into out one row block at a time.  A row's result
    does not depend on the other rows of its block, so it has the bits of
    one full (len(a), len(b)) matrix."""
    cdist = _distance().cdist
    for start, stop in _row_blocks(len(a), len(b)):
        reduce(cdist(a[start:stop], b, "sqeuclidean"), axis=1, out=out[start:stop])
    return out


def min_squared_dists(candidates: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Per-candidate minimum squared distance to the selected points,
    computed in row blocks under the block rule (at most 256 candidates and
    2^18 distances per block), so the distance blocks stay cache-resident."""
    if selected.shape[0] == 0:
        return np.full(candidates.shape[0], np.inf)
    return _reduce_rows(np.ndarray.min, candidates, selected, np.empty(candidates.shape[0]))


# Candidate-base pairs from which a screen runs; below it, cdist is about as
# fast as the screen's fixed costs (centring, norms, the augmented copies).
_SCREEN_PAIRS = 1 << 20
# A screen runs only while every centred squared norm sums below 2^1000, so
# no product, sum or bound in it can overflow.
_SCREEN_NORM_MAX = 2.0 ** 1000


def _screened_min_squared_dists(candidates: np.ndarray, selected: np.ndarray):
    """``(approx, delta)``: each candidate's minimum squared distance to the
    selected set, from one BLAS product per row block, and a bound delta
    with ``|approx[i] - min_squared_dists(candidates, selected)[i]| <=
    delta`` for every i.  It is cdist's minima and delta 0.0 when the
    selected set is empty, when there are fewer than ``_SCREEN_PAIRS``
    candidate-selected pairs, or when a centred squared norm is non-finite
    or the norms sum to 2^1000 or more.

    Both sets are centred on the midpoint c of their joint bounding box, so
    x = fl(candidate - c) and b = fl(selected - c).  The squared norms nx
    and nb are row sums in any order.  Per block, ``[-2x, 1] @ [b, nb]^T``
    gives t_ij = -2 x_i.b_j + nb_j, reduced to min_j t_ij; then approx_i =
    fl(nx_i + min_j t_ij), which equals min_j fl(nx_i + t_ij) because
    rounding is monotone.  With u = 2^-53 and N = max nx + max nb, the error
    of approx_i against the exact squared distance, to first order in u:
    centring moves the distance by at most (2u + u^2)(|x| + |b|)^2 <= 4uN;
    nx and nb each carry d roundings; the (d + 1)-term dot product carries
    (d + 1)u times the sum of its terms' magnitudes, at most 2N, in any
    order and with or without FMA (Higham's gamma_{d+1} bound); the final
    add is one rounding of at most 2N.  That is (4d + 8)uN.  cdist's own
    value lies within (d + 2)u of the exact distance, relatively, at most
    2(d + 2)uN.  delta = (8d + 32)uN covers the sum (6d + 12)uN with room
    for the second-order terms and for comparisons made against it.  In the
    subnormal range a multiplication may also lose up to 2^-1075, at most
    4d of them along one path, which the added (d + 1) 2^-1070 covers.
    Multiplying by -2 and by 1 is exact.  So the bound holds for any BLAS
    build, thread count or summation order.
    """
    n, d = candidates.shape
    pairs = n * selected.shape[0]
    if not pairs or pairs < _SCREEN_PAIRS:
        return min_squared_dists(candidates, selected), 0.0
    lo = np.minimum(candidates.min(axis=0), selected.min(axis=0))
    hi = np.maximum(candidates.max(axis=0), selected.max(axis=0))
    centre = 0.5 * lo + 0.5 * hi  # no overflow where hi - lo would
    left = np.empty((n, d + 1))
    x = np.subtract(candidates, centre, out=left[:, :d])
    nx = np.einsum("ij,ij->i", x, x)
    right = np.empty((d + 1, selected.shape[0]))
    b = np.subtract(selected.T, centre[:, None], out=right[:d])
    nb = np.einsum("ij,ij->j", b, b, out=right[d])
    xmax, bmax = nx.max(), nb.max()
    if not (xmax < _SCREEN_NORM_MAX and bmax < _SCREEN_NORM_MAX - xmax):  # false for nan too
        return min_squared_dists(candidates, selected), 0.0
    top = xmax + bmax
    x *= -2.0
    left[:, d] = 1.0
    out = np.empty(n)
    blocks = list(_row_blocks(n, right.shape[1]))
    buf = np.empty((blocks[0][1] - blocks[0][0], right.shape[1]))
    for start, stop in blocks:
        t = np.matmul(left[start:stop], right, out=buf[:stop - start])
        t.min(axis=1, out=out[start:stop])
    out += nx
    return out, (8 * d + 32) * 2.0 ** -53 * top + (d + 1) * 2.0 ** -1070


def nearest_labels(points: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """Index of each point's nearest generator, ties to the lowest index,
    computed in row blocks under the block rule."""
    out = np.empty(points.shape[0], dtype=np.intp)
    return _reduce_rows(np.ndarray.argmin, points, generators, out)


def nearest_neighbor_distances(sample_set: SampleSet) -> np.ndarray:
    """Distance of each sample to its nearest neighbor (brute force).

    Requires at least two points; output has one entry per sample.  The
    squared distances are taken in row blocks under the block rule (at most
    256 rows and 2^18 distances per block), self-pairs read as inf, so memory
    is bounded by one block.  Each unordered pair is computed once: the
    block of rows [s, e) is taken against the columns [s, n) only, reduced
    by rows into its own minima and, right of the block, by columns into
    the minima of rows [e, n).  That gives the bits of one (n, n) matrix,
    since cdist's squared distances are symmetric bit for bit and a minimum
    does no rounding.  A nearest-neighbor squared distance that overflows
    float64 is an error.
    """
    n = len(sample_set)
    if n < 2:
        raise ValueError("nearest-neighbor distances require at least 2 points")
    pts = sample_set.points
    cdist = _distance().cdist
    nn2 = np.full(n, np.inf)
    for start, stop in _row_blocks(n, n):
        d2 = cdist(pts[start:stop], pts[start:], "sqeuclidean")
        diag = np.arange(stop - start)
        d2[diag, diag] = np.inf
        np.minimum(nn2[start:stop], d2.min(axis=1), out=nn2[start:stop])
        np.minimum(nn2[stop:], d2[:, stop - start:].min(axis=0), out=nn2[stop:])
    if nn2.max() == np.inf:
        raise ValueError("squared nearest-neighbor distance overflows float64; scale the set first")
    return np.sqrt(nn2)


def condensed_pair(k, n: int):
    """The pair (i, j), i < j, at position k of the condensed order of n
    points, the row-major order over i < j that ``pdist`` writes; k may be
    an array.  Exact integer arithmetic: row i starts at
    ``offsets[i] = i*n - i*(i+1)/2``."""
    rows = np.arange(n - 1)
    offsets = rows * n - rows * (rows + 1) // 2
    i = np.searchsorted(offsets, k, "right") - 1
    return i, k - offsets[i] + i + 1


def min_pair(sample_set: SampleSet):
    """Indices and distance of the globally closest pair, computing each
    pair's distance once.

    Ties are broken by the lexicographically smallest (i, j) with i < j.  A
    closest squared distance that overflows float64 is an error.
    """
    n = len(sample_set)
    if n < 2:
        raise ValueError("min_pair requires at least 2 points")
    d2 = _distance().pdist(sample_set.points, "sqeuclidean")
    # The first minimum in condensed (row-major, i < j) order is the
    # lexicographically smallest closest pair.
    k = int(np.argmin(d2))
    if d2[k] == np.inf:
        raise ValueError("squared pair distance overflows float64; scale the set first")
    i, j = condensed_pair(k, n)
    return int(i), int(j), float(np.sqrt(d2[k]))


def scale_to_unit(sample_set: SampleSet) -> SampleSet:
    """Copy of the set affinely mapped onto the unit cube.

    The scaled copy has a plain [0, 1]^d domain: viability and density
    callables are defined on original coordinates and do not carry over.
    """
    dom = sample_set.domain
    unit = Domain.unit(dom.dim)
    pts = dom.to_unit(sample_set.points)
    # Round-off can push boundary points a hair outside [0, 1]; clip exactly.
    pts = np.clip(pts, 0.0, 1.0)
    return SampleSet(unit, pts, frozen_count=sample_set.frozen_count)


def scale_from_unit(sample_set: SampleSet, domain: Domain) -> SampleSet:
    """Map a unit-cube set into an arbitrary domain box."""
    pts = domain.from_unit(sample_set.points)
    return SampleSet(domain, pts, frozen_count=sample_set.frozen_count)
