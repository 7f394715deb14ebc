"""Domains, sample sets, and the deterministic randomness contract.

Everything downstream (samplers, adaptations, metrics, benchmarks) builds on
the types here: an axis-aligned box ``Domain`` with optional viability and
density callables, an ordered immutable ``SampleSet``, and a seedable
``RngState`` that is the sole source of randomness everywhere.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.spatial.distance import cdist

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
        non-rectangular) region inside the box.  Samplers call it once per
        candidate drawn inside the box, in draw order; a rejection draw
        stops at the last candidate it keeps, so none past it is tested.  A
        ``SampleSet`` calls it once per point to validate.
    density : callable, optional
        Finite, nonnegative weight ``point -> float``; requires ``density_max``.
    density_max : float, optional
        Declared upper bound of ``density`` over the box.  A density value
        observed above this bound is a contract violation and raises.
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

    @property
    def is_unit(self) -> bool:
        return bool(np.all(self.lower == 0.0) and np.all(self.upper == 1.0))

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

    def density_at(self, point: np.ndarray) -> float:
        """Evaluate the density, enforcing the declared upper bound; a
        non-finite or negative value raises too."""
        rho = float(self.density(point))
        if not np.isfinite(rho):
            raise SamplingError(f"density returned a non-finite value {rho!r}")
        if rho < 0:
            raise SamplingError(f"density returned a negative value {rho!r}")
        if rho > self.density_max:
            raise SamplingError(
                f"density value {rho!r} exceeds declared density_max {self.density_max!r}"
            )
        return rho


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
            for i, p in enumerate(pts):
                if not domain.viability(p):
                    raise ValueError(f"point {i} violates the viability predicate")
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
# taken only at API boundaries.
# ---------------------------------------------------------------------------

def squared_distance_matrix(points: np.ndarray) -> np.ndarray:
    """Full (n, n) squared-distance matrix with +inf on the diagonal."""
    d2 = cdist(points, points, "sqeuclidean")
    np.fill_diagonal(d2, np.inf)
    return d2


def min_squared_dists(candidates: np.ndarray, selected: np.ndarray,
                      chunk: int = 256) -> np.ndarray:
    """Per-candidate minimum squared distance to the selected points.

    Chunked over candidate rows so the distance blocks stay cache-resident;
    large one-shot (candidates x selected) matrices are memory-bound.
    """
    if selected.shape[0] == 0:
        return np.full(candidates.shape[0], np.inf)
    out = np.empty(candidates.shape[0])
    for start in range(0, candidates.shape[0], chunk):
        stop = min(start + chunk, candidates.shape[0])
        out[start:stop] = cdist(candidates[start:stop], selected, "sqeuclidean").min(axis=1)
    return out


def nearest_neighbor_distances(sample_set: SampleSet) -> np.ndarray:
    """Distance of each sample to its nearest neighbor (brute force).

    Requires at least two points; output has one entry per sample.
    """
    n = len(sample_set)
    if n < 2:
        raise ValueError("nearest-neighbor distances require at least 2 points")
    d2 = squared_distance_matrix(sample_set.points)
    return np.sqrt(d2.min(axis=1))


def min_pair(sample_set: SampleSet):
    """Indices and distance of the globally closest pair.

    Ties are broken by the lexicographically smallest (i, j) with i < j.
    """
    n = len(sample_set)
    if n < 2:
        raise ValueError("min_pair requires at least 2 points")
    d2 = squared_distance_matrix(sample_set.points)
    # argmin scans row-major, so the first occurrence is the (i, j) with the
    # smallest i (then j); symmetry guarantees i < j for that entry.
    flat = int(np.argmin(d2))
    i, j = divmod(flat, n)
    return i, j, float(np.sqrt(d2[i, j]))


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
