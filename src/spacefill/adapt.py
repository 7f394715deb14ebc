"""Adaptations of the base samplers: density-weighted selection,
viability-constrained generation, incremental refill, domain expansion and
shrinkage, curve-neighborhood densification, and one-pass streaming subset
selection.

Operations that extend an existing set never mutate, reorder, or drop the
pre-existing points: they reappear bit-identically as a frozen prefix of the
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .core import (
    Domain,
    RngState,
    SampleSet,
    SamplingError,
    _outside,
    _rows,
)
from . import samplers
from .samplers import _greedy_picks

__all__ = [
    "CurveRegionSpec",
    "StreamConfig",
    "density_weighted_select",
    "rejection_sample_density",
    "incremental_add",
    "viable_region_sample",
    "expand_domain",
    "curve_region_sample",
    "stream_subset",
]

@dataclass(frozen=True)
class CurveRegionSpec:
    """Candidate boxes around existing curve samples.

    Each anchor gets a box whose per-dimension half-width is
    ``half_width_fraction`` of the anchor's coordinate magnitude, floored at
    the same fraction of the dimension's range (so boxes never degenerate
    near zero) and clipped to the domain.  A fraction so small that a box
    collapses below float resolution raises ValueError.
    """

    anchors: SampleSet
    half_width_fraction: float
    candidates_per_anchor: int
    include_anchors: bool = False

    def __post_init__(self):
        if len(self.anchors) == 0:
            raise ValueError("anchors must be nonempty")
        if not self.half_width_fraction > 0:
            raise ValueError("half_width_fraction must be positive")
        if self.candidates_per_anchor < 1:
            raise ValueError("candidates_per_anchor must be >= 1")


@dataclass(frozen=True)
class StreamConfig:
    """One-pass subset selection: records per in-memory segment, and the
    subset size to select by stream end."""

    segment_size: int
    subset_size: int

    def __post_init__(self):
        if self.segment_size < 1:
            raise ValueError("segment_size must be >= 1")
        if self.subset_size < 1:
            raise ValueError("subset_size must be >= 1")


def density_weighted_select(candidates, selected, density: Callable, rng: RngState) -> int:
    """Index of the candidate maximizing density(c) * min-distance(c, selected).

    With an empty selection the index is drawn at random among the
    candidates, weighted by density via one rejection pass.  ``selected`` is
    an (m, d) array, one point of length d, or empty.  Distances are
    measured in the coordinates the arrays are given in.  Non-finite,
    negative and all-zero densities are errors.
    """
    cands = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cands.shape[0] == 0:
        raise ValueError("candidates must be nonempty")
    sel = np.atleast_2d(np.asarray([] if selected is None else selected, dtype=float))
    if sel.size and (sel.ndim != 2 or sel.shape[1] != cands.shape[1]):
        raise ValueError(f"selected must hold points of dimension {cands.shape[1]}, "
                         f"got shape {np.shape(selected)}")
    vals = _rows(density, cands, float)
    if not np.all(np.isfinite(vals)):
        raise SamplingError("density returned a non-finite value")
    if np.any(vals < 0):
        raise SamplingError("density returned a negative value")
    if not vals.max() > 0.0:
        raise SamplingError("all candidate densities are zero")
    if sel.size == 0:
        return samplers._density_draw_index(rng, vals)
    return _greedy_picks(cands, sel, 1, weights=vals)[0]


def rejection_sample_density(domain: Domain, count: int, rng: RngState) -> SampleSet:
    """count points distributed proportionally to the domain's density.

    Per point: draw a uniform location and a uniform threshold in
    [0, density_max); accept when the threshold falls below the density.  An
    observed density above the declared bound raises; so does an acceptance
    rate below 1e-6.
    """
    if domain.density is None:
        raise ValueError("rejection_sample_density requires a domain density")
    if count < 0:
        raise ValueError("count must be nonnegative")
    unit = samplers._draw_unit_density(rng, domain, count)
    return SampleSet(domain, domain.from_unit(unit))


def incremental_add(existing: SampleSet, m: int, algorithm: str,
                    params: Optional[dict], rng: RngState) -> SampleSet:
    """Append m new points to an existing set, scoring against the union of
    existing and already-added points.

    The existing points come back unchanged, in order, as a frozen prefix.
    GreedyFP regenerates its candidate pool for the new points (the original
    pool is not retained anywhere).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:  # nothing to draw, but the algorithm-id rules still hold
        samplers._checked(algorithm, params, 1, existing.domain, existing)
        return SampleSet(existing.domain, existing.points, frozen_count=len(existing))
    return samplers.generate(algorithm, existing.domain, m, rng, params, existing=existing)


def viable_region_sample(domain: Domain, n: int, algorithm: str,
                         params: Optional[dict], rng: RngState) -> SampleSet:
    """Generate n samples inside the domain's viable region: every candidate
    (and every CVT probe point) is rejection-filtered through the predicate
    before use."""
    if domain.viability is None:
        raise ValueError("viable_region_sample requires a viability predicate")
    return samplers.generate(algorithm, domain, n, rng, params)


def _boxes_disjoint(a: Domain, b: Domain) -> bool:
    return bool(np.any(a.upper < b.lower) or np.any(a.lower > b.upper))


def _box_contains(outer: Domain, inner: Domain) -> bool:
    return bool(np.all(outer.lower <= inner.lower) and np.all(outer.upper >= inner.upper))


def expand_domain(existing: SampleSet, new_domain: Domain, m: int, algorithm: str,
                  params: Optional[dict], rng: RngState) -> SampleSet:
    """Adjust the domain extents of an existing sampling.

    Shrink (the new box does not contain the old one): keep exactly the
    existing points inside the new box; m is ignored.  Expand (the new box
    contains the old one): add m points whose candidates are drawn only from
    the newly added region, scored against all existing points.  Candidate
    draws use a child stream keyed off the caller's seed, so expansion does
    not perturb the caller's stream.
    """
    old = existing.domain
    if new_domain.dim != old.dim:
        raise ValueError("new domain dimension does not match the existing set")
    if _boxes_disjoint(new_domain, old):
        raise ValueError("new domain is disjoint from the existing one")
    # The algorithm-id rules hold even when nothing is drawn.
    cfg = samplers._checked(algorithm, params, 1, new_domain, existing)
    if not _box_contains(new_domain, old):
        keep = new_domain.contains(existing.points)
        if new_domain.viability is not None:
            keep &= new_domain.viable(existing.points)
        kept = existing.points[keep]
        return SampleSet(new_domain, kept, frozen_count=kept.shape[0])
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return SampleSet(new_domain, existing.points, frozen_count=len(existing))
    child = rng.child(
        f"expand-domain:{m}:{new_domain.lower.tolist()}:{new_domain.upper.tolist()}"
    )
    exist_u = samplers._existing_unit(new_domain, existing)
    new_unit = samplers._new_points(algorithm, child, _outside(old, new_domain), m, cfg, exist_u)
    return samplers._assemble(new_domain, existing, new_unit)


def curve_region_sample(region: CurveRegionSpec, n: int, rng: RngState) -> SampleSet:
    """Densify the neighborhood of a sampled curve.

    candidates_per_anchor uniform candidates are drawn inside each anchor's
    box, then n of them are chosen greedily to maximize the minimum distance
    to the points already chosen (and to the anchors themselves when
    include_anchors is set).  The anchors are returned unchanged as a frozen
    prefix, followed by the selections.
    """
    anchors = region.anchors
    total = len(anchors) * region.candidates_per_anchor
    if not 1 <= n <= total:
        raise ValueError(f"n must be in [1, {total}] (anchors x candidates per anchor)")
    dom = anchors.domain
    hwf = region.half_width_fraction
    floor = hwf * dom.extent
    per_anchor = region.candidates_per_anchor
    cands = np.empty((total, dom.dim))
    for i, a in enumerate(anchors.points):
        w = np.maximum(hwf * np.abs(a), floor)
        lo = np.maximum(dom.lower, a - w)
        hi = np.minimum(dom.upper, a + w)
        box = Domain(lo, hi, dom.viability)
        cands[i * per_anchor:(i + 1) * per_anchor] = box.from_unit(
            samplers._draw_unit_batch(rng, box, per_anchor))
    # Score in unit coordinates; keep the original candidate rows as output.
    cand_u = dom.to_unit(cands)
    scored = dom.to_unit(anchors.points) if region.include_anchors else np.empty((0, dom.dim))
    first = None if region.include_anchors else rng.integers(total)
    picks = _greedy_picks(cand_u, scored, n, first)
    stacked = np.vstack([anchors.points, cands[picks]])
    return SampleSet(dom, stacked, frozen_count=len(anchors))


def stream_subset(records: Iterable, config: StreamConfig, rng: RngState, *,
                  total_records: Union[int, Callable[[], int], None] = None) -> SampleSet:
    """Select a max-min-distance subset in a single pass over the records.

    The stream is processed in consecutive segments of segment_size records;
    each segment is the candidate batch for at most ceil(N * share) winners,
    where the share uses the known or estimated total record count, and the
    final segment tops the selection up to exactly N.  Every record is read
    exactly once; winners are actual input records in selection order.  A
    ragged or non-finite record raises ValueError when it is read.

    records is an iterable of records, or a block source: an object with a
    ``read_rows(k)`` method that returns the next min(k, records left)
    records as one (m, d) float array, m being 0 only at the end (the CLI's
    CSV reader is one).  A block source is read a segment at a time.
    total_records may be an int, a callable returning a running estimate
    (re-evaluated per segment), or None for sized sources (len() is used).
    The output's domain is the records' bounding box, widened by 0.5 on
    each side of a dimension where every record has the same value.
    """
    n_subset = config.subset_size
    if total_records is None:
        try:
            total_records = len(records)  # type: ignore[arg-type]
        except TypeError:
            raise ValueError("total_records is required for unsized record sources") from None
    total_fn = total_records if callable(total_records) else lambda t=int(total_records): t

    source = records if hasattr(records, "read_rows") else _RecordRows(records)
    winners: list[np.ndarray] = []
    seen = 0
    lows, highs = np.inf, -np.inf
    head = source.read_rows(1)  # one record of lookahead tells the final segment
    if not len(head):
        raise ValueError("record source is empty")
    dim = head.shape[1]
    while len(head):
        seg = np.concatenate((head, source.read_rows(config.segment_size - 1)))
        head = source.read_rows(1)
        seen += len(seg)
        lows = np.minimum(lows, seg.min(axis=0))
        highs = np.maximum(highs, seg.max(axis=0))

        remaining = n_subset - len(winners)
        if not len(head):  # the final segment
            quota = remaining
        else:
            total = max(int(total_fn()), seen + 1)
            quota = math.ceil(n_subset * len(seg) / total)
            # Never fall behind what the remaining records could still supply.
            quota = max(quota, remaining - max(total - seen, 0))
            quota = min(quota, remaining)
        if quota <= 0:
            continue
        if quota >= len(seg):
            winners.extend(seg)  # whole segment, arrival order, no draws
            continue
        base = np.asarray(winners) if winners else np.empty((0, dim))
        first = None if winners else rng.integers(len(seg))
        winners.extend(seg[_greedy_picks(seg, base, quota, first)])

    if seen < n_subset:
        raise ValueError(f"record source yields {seen} records, fewer than the subset size {n_subset}")
    if len(winners) != n_subset:
        raise SamplingError(
            f"stream ended with {len(winners)} of {n_subset} selections "
            "(total record estimate was too high)"
        )
    flat = highs <= lows
    lows[flat] -= 0.5
    highs[flat] += 0.5
    return SampleSet(Domain(lows, highs), np.asarray(winners))


class _RecordRows:
    """The read_rows(k) of a block source, served from any iterable of
    records one record at a time; the first record fixes the dimension."""

    def __init__(self, records: Iterable):
        self._it = iter(records)
        self._dim = None
        self._served = 0

    def read_rows(self, k: int) -> np.ndarray:
        rows = [self._record(rec) for rec in islice(self._it, k)]
        return np.asarray(rows) if rows else np.empty((0, self._dim or 0))

    def _record(self, rec) -> np.ndarray:
        if type(rec) is np.ndarray and rec.ndim == 1 and rec.dtype == np.float64:
            arr = rec
        else:
            arr = np.asarray(rec, dtype=float).reshape(-1)
        if self._dim is None:
            self._dim = arr.size
        elif arr.size != self._dim:
            raise ValueError(f"ragged record: expected {self._dim} values, got {arr.size}")
        if not np.isfinite(arr).all():
            raise ValueError(f"record {self._served}: non-finite value")
        self._served += 1
        return arr
