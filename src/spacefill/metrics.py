"""Sampling-quality metrics: nearest-neighbor statistics, the phi_p
criterion, and the centered L2 discrepancy.

All three capture, in different ways, how uniformly a point set fills the
unit cube.  Lower phi_p and CL2 are better; larger nearest-neighbor
distances are better.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SampleSet, _distance, condensed_pair, nearest_neighbor_distances

__all__ = ["QualityReport", "nn_stats", "phi_p", "cl2_discrepancy", "quality_report"]

DEFAULT_P = 50


@dataclass(frozen=True)
class QualityReport:
    """All quality metrics for one sample set (unit-scale distances)."""

    nn_min: float
    nn_avg: float
    nn_max: float
    phi_p: float
    p: int
    cl2: float
    n: int
    dim: int

    def to_dict(self) -> dict:
        return {
            "nnMin": self.nn_min,
            "nnAvg": self.nn_avg,
            "nnMax": self.nn_max,
            "phiP": self.phi_p,
            "p": self.p,
            "cl2": self.cl2,
            "n": self.n,
            "d": self.dim,
        }


def nn_stats(sample_set: SampleSet):
    """(min, mean, max) of the nearest-neighbor distances.  A squared
    distance that overflows float64 is an error."""
    nn = nearest_neighbor_distances(sample_set)
    return float(nn.min()), float(nn.mean()), float(nn.max())


def _logsumexp(v: np.ndarray) -> np.float64:
    """log(sum(exp(v))) of a 1-D float array, computed in place, so v is
    overwritten: with ``top = max(v)`` and m the count of entries equal to
    it, s is the sum of ``exp(v - top)`` with those entries read as 0,
    divided by m unless it is 0, and the result is
    ``log1p(s) + log(m) + top``, each step on a one-element array."""
    with np.errstate(divide="ignore", invalid="ignore"):
        top = v.max(keepdims=True)
        hit = v == top
        m = np.array([np.count_nonzero(hit)], dtype=float)
        v -= top
        v[hit] = -np.inf
        del hit
        s = np.exp(v, out=v).sum(keepdims=True)
        s = s if s[0] == 0 else s / m
        out = np.log1p(s) + np.log(m) + top
    return out[0]


def phi_p(sample_set: SampleSet, p: int = DEFAULT_P) -> float:
    """Power-mean of inverse pairwise distances: [sum_{i<j} (1/d_ij)^p]^(1/p).

    Evaluated in log space so that p=50 does not overflow for small
    distances.  The reduction is fixed here, so its bits depend on numpy
    alone: the result is ``exp(L / p)``, where L is ``_logsumexp`` of
    ``v = -p * (0.5 * log(d2))`` over the squared distances d2 in condensed
    (row-major, i < j) order.  Duplicate points are an error, and so is a
    squared distance that overflows float64.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    n = len(sample_set)
    if n < 2:
        raise ValueError("phi_p requires at least 2 points")
    d2 = _distance().pdist(sample_set.points, "sqeuclidean")
    if np.any(d2 == 0.0):
        # The first zero in condensed order is the pair min_pair reports.
        i, j = condensed_pair(int(np.argmin(d2)), n)
        raise ValueError(f"duplicate points at indices ({i}, {j}): phi_p is undefined")
    if d2.max() == np.inf:
        raise ValueError("squared pair distance overflows float64; scale the set first")
    # v = -p * (0.5 * log(d2)), step by step in d2's own buffer.
    v = np.log(d2, out=d2)
    v *= 0.5
    v *= -p
    return float(np.exp(_logsumexp(v) / p))


# CL2's double sum fills each chunk's (chunk, n) block of products in
# column tiles of about 2^15 doubles (256 KB), so that all d factors are
# applied to a tile while it is in L2.  Blocks kept for mirroring hold at
# most 2^21 doubles (16 MB) at a time.
_CL2_TILE = 1 << 15
_CL2_KEPT = 1 << 21


def _cl2_products(xt, at, start, stop, c0, c1, acc, tiles) -> None:
    """Write into ``acc[:, c0:c1]`` the CL2 kernel of rows [start, stop)
    against columns [c0, c1): the product over dimensions, in ascending
    order, of ``1 + 0.5 * ((a_i + a_j) - |x_i - x_j|)``.  The columns go a
    tile at a time, each tile built in the contiguous buffers ``tiles`` and
    then copied into acc."""
    r, w = stop - start, tiles[0].shape[1]
    xs, as_ = xt[:, start:stop, None], at[:, start:stop, None]
    for t0 in range(c0, c1, w):
        t1 = min(t0 + w, c1)
        tile, fac, cross = (buf[:r, :t1 - t0] for buf in tiles)
        for k in range(len(xt)):
            # 1.0 + 0.5 * ((a_i + a_j) - |x_i - x_j|), into the tile for k == 0.
            out = fac if k else tile
            np.subtract(xs[k], xt[k, t0:t1], out=cross)
            np.abs(cross, out=cross)
            np.add(as_[k], at[k, t0:t1], out=out)
            np.subtract(out, cross, out=out)
            np.multiply(out, 0.5, out=out)
            np.add(out, 1.0, out=out)
            if k:
                np.multiply(tile, fac, out=tile)
        acc[:, t0:t1] = tile


def cl2_discrepancy(sample_set: SampleSet, chunk: int = 256) -> float:
    """Centered L2 discrepancy of a point set in the unit cube.

    Three-term expression: the (13/12)^d constant, a single sum of per-point
    products, and a double sum over all (i, j) pairs including i == j.
    Coordinates must already lie in [0, 1]; scale first otherwise.

    The double sum runs over chunks of ``chunk`` rows.  Each chunk's
    (chunk, n) block of products is summed by one ``sum()``, and the chunk
    sums are added in order.  Each dimension's factor is built on its own,
    and the factors are multiplied together in ascending dimension order,
    which is the order of numpy's ``prod`` over the last axis; so the result
    is bit for bit that of one (chunk, n, d) block reduced with
    ``prod(axis=2)``.

    A chunk computes its products only for the columns from its own start
    on, in column tiles of about 2^15 doubles.  The columns of an earlier
    chunk J are the transpose of the (J, I) block that chunk J kept, which
    has the same bits: the factor is the same double for (i, j) and (j, i),
    since float addition commutes and ``fl(x_i - x_j) = -fl(x_j - x_i)``.
    Kept blocks hold at most 2^21 doubles (16 MB); a block that found no
    room when its chunk ran is computed instead.  So the temporaries are
    one (chunk, n) block, three tiles and the kept blocks.
    """
    x = sample_set.points
    n, d = x.shape
    if n < 1:
        raise ValueError("cl2 requires at least 1 point")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("cl2 requires all coordinates in [0, 1]; scale the set first")

    a = np.abs(x - 0.5)
    term1 = (13.0 / 12.0) ** d
    term2 = (2.0 / n) * np.prod(1.0 + 0.5 * (a - a * a), axis=1).sum()

    xt = np.ascontiguousarray(x.T)
    at = np.ascontiguousarray(a.T)
    rows = min(chunk, n)
    acc_buf = np.empty((rows, n))
    tiles = [np.empty((rows, max(1, _CL2_TILE // rows))) for _ in range(3)]
    kept = {}  # (J's start, I's start) -> chunk J's rows against chunk I's columns
    room = _CL2_KEPT
    total = 0.0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        acc = acc_buf[:stop - start]
        for j0 in range(0, start, chunk):
            block = kept.pop((j0, start), None)
            if block is None:
                _cl2_products(xt, at, start, stop, j0, j0 + chunk, acc, tiles)
            else:
                acc[:, j0:j0 + chunk] = block.T
                room += block.size
        _cl2_products(xt, at, start, stop, start, n, acc, tiles)
        for i0 in range(stop, n, chunk):
            block = acc[:, i0:i0 + chunk]
            if block.size > room:
                break
            kept[start, i0] = block.copy()
            room -= block.size
        total += acc.sum()
    term3 = total / (n * n)

    return float(np.sqrt(term1 - term2 + term3))


def quality_report(sample_set: SampleSet, p: int = DEFAULT_P) -> QualityReport:
    """Compute every metric for one unit-cube sample set."""
    mn, avg, mx = nn_stats(sample_set)
    return QualityReport(
        nn_min=mn,
        nn_avg=avg,
        nn_max=mx,
        phi_p=phi_p(sample_set, p),
        p=p,
        cl2=cl2_discrepancy(sample_set),
        n=len(sample_set),
        dim=sample_set.dim,
    )
