"""Sampling-quality metrics: nearest-neighbor statistics, the phi_p
criterion, and the centered L2 discrepancy.

All three capture, in different ways, how uniformly a point set fills the
unit cube.  Lower phi_p and CL2 are better; larger nearest-neighbor
distances are better.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist
from scipy.special import logsumexp

from .core import SampleSet, nearest_neighbor_distances, squared_distance_matrix

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
    """(min, mean, max) of the nearest-neighbor distances."""
    nn = nearest_neighbor_distances(sample_set)
    return float(nn.min()), float(nn.mean()), float(nn.max())


def phi_p(sample_set: SampleSet, p: int = DEFAULT_P) -> float:
    """Power-mean of inverse pairwise distances: [sum_{i<j} (1/d_ij)^p]^(1/p).

    Evaluated in log space (log-sum-exp over -p*log d_ij) so that p=50 does
    not overflow for small distances.  Duplicate points are an error.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    n = len(sample_set)
    if n < 2:
        raise ValueError("phi_p requires at least 2 points")
    d2 = pdist(sample_set.points, "sqeuclidean")
    if np.any(d2 == 0.0):
        i, j = _duplicate_pair(sample_set.points)
        raise ValueError(f"duplicate points at indices ({i}, {j}): phi_p is undefined")
    log_d = 0.5 * np.log(d2)
    return float(np.exp(logsumexp(-p * log_d) / p))


def _duplicate_pair(points: np.ndarray):
    d2 = squared_distance_matrix(points)
    flat = int(np.argmin(d2))
    return divmod(flat, points.shape[0])


def cl2_discrepancy(sample_set: SampleSet, chunk: int = 256) -> float:
    """Centered L2 discrepancy of a point set in the unit cube.

    Three-term expression: the (13/12)^d constant, a single sum of per-point
    products, and a double sum over all (i, j) pairs including i == j.
    Coordinates must already lie in [0, 1]; scale first otherwise.

    The double sum runs over chunks of ``chunk`` rows, and its temporaries
    are three (chunk, n) blocks of doubles.  Within a chunk each dimension's
    factor is built on its own, and the factors are multiplied together in
    ascending dimension order, which is the order of numpy's ``prod`` over
    the last axis; so the result is bit for bit that of one (chunk, n, d)
    block reduced with ``prod(axis=2)``.
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
    acc_buf, fac_buf, cross_buf = (np.empty((rows, n)) for _ in range(3))
    total = 0.0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        acc, fac, cross = (buf[:stop - start] for buf in (acc_buf, fac_buf, cross_buf))
        for k in range(d):
            # 1.0 + 0.5 * ((a_i + a_j) - |x_i - x_j|), into acc for k == 0.
            out = fac if k else acc
            np.subtract(xt[k, start:stop, None], xt[k], out=cross)
            np.abs(cross, out=cross)
            np.add(at[k, start:stop, None], at[k], out=out)
            np.subtract(out, cross, out=out)
            np.multiply(out, 0.5, out=out)
            np.add(out, 1.0, out=out)
            if k:
                np.multiply(acc, fac, out=acc)
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
