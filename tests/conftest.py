"""Shared test oracles: naive, loop-based transcriptions kept independent of
the library's vectorized paths."""

import math

import numpy as np
import pytest

from spacefill.core import Domain, RegionTooSmallError, RngState, SampleSet
from spacefill.samplers import _place_in_bin


def brute_nn_distances(points):
    """O(N^2) nearest-neighbor oracle, plain loops."""
    n = len(points)
    out = []
    for i in range(n):
        best = math.inf
        for j in range(n):
            if i == j:
                continue
            d = math.sqrt(sum((points[i][k] - points[j][k]) ** 2 for k in range(len(points[i]))))
            best = min(best, d)
        out.append(best)
    return out


def brute_min_pair(points):
    """O(N^2) closest-pair oracle with lowest-(i, j) tie-break."""
    n = len(points)
    best = (None, None, math.inf)
    for i in range(n):
        for j in range(i + 1, n):
            d = math.sqrt(sum((points[i][k] - points[j][k]) ** 2 for k in range(len(points[i]))))
            if d < best[2]:
                best = (i, j, d)
    return best


def brute_phi_p(points, p=50):
    """Direct power-sum transcription (no log-space tricks)."""
    n = len(points)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = math.sqrt(sum((points[i][k] - points[j][k]) ** 2 for k in range(len(points[i]))))
            total += (1.0 / d) ** p
    return total ** (1.0 / p)


def brute_cl2(points):
    """Direct three-term transcription of the centered L2 discrepancy."""
    x = np.asarray(points)
    n, d = x.shape
    term1 = (13.0 / 12.0) ** d
    term2 = 0.0
    for i in range(n):
        prod = 1.0
        for k in range(d):
            a = abs(x[i, k] - 0.5)
            prod *= 1.0 + 0.5 * (a - a * a)
        term2 += prod
    term2 *= 2.0 / n
    term3 = 0.0
    for i in range(n):
        for j in range(n):
            prod = 1.0
            for k in range(d):
                ai = abs(x[i, k] - 0.5)
                aj = abs(x[j, k] - 0.5)
                prod *= 1.0 + 0.5 * (ai + aj - abs(x[i, k] - x[j, k]))
            term3 += prod
    term3 /= n * n
    return math.sqrt(term1 - term2 + term3)


def brute_cl2_chunked(x, chunk=256):
    """The chunked CL2 that reduces each (chunk, n, d) block with
    prod(axis=2): the bit-level reference for cl2_discrepancy."""
    n, d = x.shape
    a = np.abs(x - 0.5)
    term1 = (13.0 / 12.0) ** d
    term2 = (2.0 / n) * np.prod(1.0 + 0.5 * (a - a * a), axis=1).sum()

    # Double sum, chunked over rows to bound the (chunk, n, d) temporaries.
    total = 0.0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        cross = np.abs(x[start:stop, None, :] - x[None, :, :])
        block = 1.0 + 0.5 * (a[start:stop, None, :] + a[None, :, :] - cross)
        total += block.prod(axis=2).sum()
    term3 = total / (n * n)

    return float(np.sqrt(term1 - term2 + term3))


def brute_greedy_picks(x, min_d2, count, first, weights=None):
    """Greedy max-min picks with row-sum distances; with weights, the
    available-mask scoring density * distance.  Returns (picks, min_d2)."""
    min_d2 = min_d2.copy()
    available = np.ones(len(x), dtype=bool)
    picks = []
    for step in range(count):
        if step == 0 and first is not None:
            idx = first
        elif weights is None:
            idx = int(np.argmax(min_d2))
        else:
            scores = np.where(available, weights * np.sqrt(np.maximum(min_d2, 0.0)), -np.inf)
            idx = int(np.argmax(scores))
        picks.append(idx)
        available[idx] = False
        min_d2 = np.minimum(min_d2, ((x - x[idx]) ** 2).sum(axis=1))
        min_d2[idx] = -np.inf
    return picks, min_d2


def brute_latinize(sample_set, rng):
    """Per-coordinate Latinization loop: one scalar draw per value that sits
    outside its rank's bin, in ascending rank order per dimension."""
    n = len(sample_set)
    if n < 1:
        raise ValueError("latinize requires at least 1 point")
    dom = sample_set.domain
    u = dom.to_unit(sample_set.points)
    new_pts = sample_set.points.copy()
    for j in range(dom.dim):
        order = np.argsort(u[:, j], kind="stable")
        for rank, idx in enumerate(np.asarray(order)):
            v = u[idx, j]
            lo = rank / n
            hi = (rank + 1.0) / n
            if lo <= v < hi or (rank == n - 1 and v == 1.0):
                continue
            nv = float(_place_in_bin(rank, rng.random(), n))
            new_pts[idx, j] = dom.lower[j] + nv * (dom.upper[j] - dom.lower[j])
    return SampleSet(dom, new_pts)


def brute_draw_unit_batch(rng, domain, count, cap, exclude=None):
    """Per-candidate rejection loop: one d-value draw per candidate, kept when
    the viability accepts it and it lies outside the excluded box (the
    viability is called first, on every candidate); cap consecutive
    rejections raise."""
    out = []
    for _ in range(count):
        for _ in range(cap):
            u = rng.random(domain.dim)
            x = domain.lower + u * domain.extent
            if domain.viability is not None and not domain.viability(x):
                continue
            if exclude is not None and np.all(x >= exclude.lower) and np.all(x <= exclude.upper):
                continue
            out.append(u)
            break
        else:
            raise RegionTooSmallError("cap reached")
    return np.array(out).reshape(count, domain.dim)


def assert_latin(points, n=None):
    """Independent Latin-property check: the i-th sorted value per dimension
    must sit in bin [i/N, (i+1)/N), the last bin closed at 1."""
    pts = np.asarray(points)
    n = n or len(pts)
    assert len(pts) == n
    for j in range(pts.shape[1]):
        vals = np.sort(pts[:, j])
        for i, v in enumerate(vals):
            lo = i / n
            hi = (i + 1) / n
            ok = lo <= v < hi or (i == n - 1 and v == 1.0)
            assert ok, f"dim {j}: sorted value {v} at rank {i} outside [{lo}, {hi})"


@pytest.fixture
def unit2():
    return Domain.unit(2)


@pytest.fixture
def rng():
    return RngState(42)
