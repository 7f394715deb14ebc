import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import spacefill as sf
from spacefill.adapt import CurveRegionSpec, StreamConfig, _greedy_picks
from spacefill.core import (
    Domain,
    RegionTooSmallError,
    RngState,
    SampleSet,
    SamplingError,
    nearest_neighbor_distances,
)

from conftest import brute_greedy_picks


class TestDensityWeightedSelect:
    def test_constant_density_matches_unweighted(self):
        rng = RngState(50)
        cands = rng.random((30, 2))
        selected = rng.random((5, 2))
        got = sf.density_weighted_select(cands, selected, lambda p: 1.0, RngState(0))
        want = int(np.argmax(cdist(cands, selected).min(axis=1)))
        assert got == want

    def test_denser_candidate_wins_distance_tie(self):
        cands = [[0.0, 1.0], [0.0, -1.0]]
        selected = [[0.0, 0.0]]
        dens = lambda p: 2.0 if p[1] > 0 else 1.0
        assert sf.density_weighted_select(cands, selected, dens, RngState(0)) == 0

    def test_invariant_under_positive_rescaling(self):
        rng = RngState(51)
        cands = rng.random((25, 3))
        selected = rng.random((4, 3))
        dens = lambda p: float(p[0] + 0.1)
        base = sf.density_weighted_select(cands, selected, dens, RngState(0))
        for c in (0.5, 3.0, 1e6):
            scaled = lambda p, c=c: c * (p[0] + 0.1)
            assert sf.density_weighted_select(cands, selected, scaled, RngState(0)) == base

    def test_all_zero_densities_error(self):
        with pytest.raises(SamplingError):
            sf.density_weighted_select([[0.1], [0.2]], [[0.5]], lambda p: 0.0, RngState(0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_density_error(self, bad):
        dens = lambda p: bad if p[0] < 0.15 else 1.0
        with pytest.raises(SamplingError) as err:
            sf.density_weighted_select([[0.1], [0.2]], [[0.5]], dens, RngState(0))
        assert str(err.value) == "density returned a non-finite value"

    def test_empty_selection_draws_weighted(self):
        # winner drawn among candidates, weighted by density; deterministic per seed
        cands = [[0.1], [0.5], [0.9]]
        dens = lambda p: 100.0 if p[0] == 0.5 else 0.01
        picks = {sf.density_weighted_select(cands, [], dens, RngState(s)) for s in range(8)}
        assert picks == {1}


class TestRejectionSampleDensity:
    def test_constant_density_uniform(self):
        d = Domain.unit(2, density=lambda p: 0.7, density_max=0.7)
        s = sf.rejection_sample_density(d, 2000, RngState(52))
        from scipy.stats import chisquare
        for j in range(2):
            counts, _ = np.histogram(s.points[:, j], bins=10, range=(0, 1))
            assert chisquare(counts).pvalue > 0.001

    def test_zero_outside_subbox(self):
        def dens(p):
            return 1.0 if (0.2 <= p[0] <= 0.6) and (0.3 <= p[1] <= 0.7) else 0.0
        d = Domain.unit(2, density=dens, density_max=1.0)
        s = sf.rejection_sample_density(d, 200, RngState(53))
        assert np.all((s.points[:, 0] >= 0.2) & (s.points[:, 0] <= 0.6))
        assert np.all((s.points[:, 1] >= 0.3) & (s.points[:, 1] <= 0.7))

    def test_density_above_declared_max_errors(self):
        d = Domain.unit(1, density=lambda p: 2.0, density_max=1.0)
        with pytest.raises(SamplingError):
            sf.rejection_sample_density(d, 5, RngState(54))

    def test_requires_density(self, unit2):
        with pytest.raises(ValueError):
            sf.rejection_sample_density(unit2, 5, RngState(55))

    def test_all_nan_density_raises_at_once(self):
        calls = []

        def dens(p):
            calls.append(p)
            return float("nan")

        d = Domain.unit(2, density=dens, density_max=1.0)
        with pytest.raises(SamplingError) as err:
            sf.rejection_sample_density(d, 5, RngState(55))
        assert str(err.value) == "density returned a non-finite value nan"
        assert len(calls) == 1


class TestIncrementalAdd:
    def test_zero_additions_identity(self, unit2):
        existing = sf.random_sampling(unit2, 20, RngState(56))
        out = sf.incremental_add(existing, 0, "bc", None, RngState(57))
        assert np.array_equal(out.points, existing.points)
        assert out.frozen_count == 20

    def test_prefix_bit_identical(self, unit2):
        existing = sf.best_candidate(unit2, 30, RngState(58), sf.FpConfig(n_cand_fixed=100))
        for algo, params in [("random", None), ("greedyfp", {"scale": 5}),
                             ("bc", {"ncand": 50}), ("hybrid", {"scale": 5, "refresh": 10})]:
            out = sf.incremental_add(existing, 10, algo, params, RngState(59))
            assert out.frozen_count == 30
            assert np.array_equal(out.points[:30], existing.points), algo
            assert len(out) == 40

    def test_coverage_never_worsens(self, unit2):
        gx, gy = np.meshgrid(np.linspace(0, 1, 30), np.linspace(0, 1, 30))
        probe = np.column_stack([gx.ravel(), gy.ravel()])
        existing = sf.best_candidate(unit2, 50, RngState(60), sf.FpConfig(n_cand_fixed=250))
        combined = sf.incremental_add(existing, 50, "bc", {"ncand": 250}, RngState(61))
        r_before = cdist(probe, existing.points).min(axis=1).max()
        r_after = cdist(probe, combined.points).min(axis=1).max()
        assert r_after <= r_before

    def test_new_points_interleave(self, unit2):
        # new points land away from the existing set, not on top of it
        for seed in range(3):
            existing = sf.best_candidate(unit2, 50, RngState(seed), sf.FpConfig(n_cand_fixed=250))
            out = sf.incremental_add(existing, 50, "bc", {"ncand": 250}, RngState(seed + 500))
            new = out.points[50:]
            gaps = cdist(new, existing.points).min(axis=1)
            avg_nn = nearest_neighbor_distances(existing).mean()
            assert gaps.min() >= 0.5 * avg_nn

    def test_unsupported_algorithm(self, unit2):
        existing = sf.random_sampling(unit2, 5, RngState(62))
        with pytest.raises(ValueError):
            sf.incremental_add(existing, 5, "lhs-basic", None, RngState(63))


PARABOLA = lambda p: p[1] >= 3.0 * (p[0] - 0.5) ** 2


class TestViableRegionSample:
    def test_trivial_predicate_matches_unconstrained(self, unit2):
        viable = Domain.unit(2, viability=lambda p: True)
        for algo, params in [("random", None), ("greedyfp", {"scale": 5}),
                             ("bc", {"ncand": 30}), ("hybrid", {"scale": 5, "refresh": 10}),
                             ("cvt", {"niter": 3, "ppi": 200})]:
            a = sf.viable_region_sample(viable, 20, algo, params, RngState(64))
            b = sf.generate(algo, unit2, 20, RngState(64), params)
            assert np.array_equal(a.points, b.points), algo

    def test_parabola_region_bc(self):
        d = Domain.unit(2, viability=PARABOLA)
        s = sf.viable_region_sample(d, 500, "bc", {"ncand": 250}, RngState(65))
        assert len(s) == 500
        assert all(PARABOLA(p) for p in s.points)

    def test_impossible_region(self):
        import spacefill.samplers as mod
        d = Domain.unit(2, viability=lambda p: False)
        old = mod.REJECTION_CAP
        mod.REJECTION_CAP = 500
        try:
            with pytest.raises(RegionTooSmallError):
                sf.viable_region_sample(d, 5, "random", None, RngState(66))
        finally:
            mod.REJECTION_CAP = old

    def test_requires_predicate(self, unit2):
        with pytest.raises(ValueError):
            sf.viable_region_sample(unit2, 5, "random", None, RngState(67))


class TestExpandDomain:
    def test_shrink_keeps_exactly_inside(self, unit2):
        existing = sf.random_sampling(unit2, 100, RngState(68))
        small = Domain([0.0, 0.0], [0.5, 0.5])
        out = sf.expand_domain(existing, small, 0, "bc", None, RngState(69))
        keep = np.all(existing.points <= 0.5, axis=1)
        assert np.array_equal(out.points, existing.points[keep])
        assert out.frozen_count == len(out)

    def test_expand_new_points_in_new_region_only(self, unit2):
        existing = sf.best_candidate(unit2, 100, RngState(70), sf.FpConfig(n_cand_fixed=250))
        wide = Domain([0.0, 0.0], [1.5, 1.0])
        out = sf.expand_domain(existing, wide, 25, "bc", {"ncand": 250}, RngState(71))
        assert np.array_equal(out.points[:100], existing.points)
        assert out.frozen_count == 100
        assert np.all(out.points[100:, 0] > 1.0)

    def test_expand_zero_unchanged(self, unit2):
        existing = sf.random_sampling(unit2, 10, RngState(72))
        wide = Domain([0.0, 0.0], [2.0, 1.0])
        out = sf.expand_domain(existing, wide, 0, "bc", None, RngState(73))
        assert np.array_equal(out.points, existing.points)

    def test_disjoint_domains_error(self, unit2):
        existing = sf.random_sampling(unit2, 5, RngState(74))
        far = Domain([5.0, 5.0], [6.0, 6.0])
        with pytest.raises(ValueError):
            sf.expand_domain(existing, far, 5, "bc", None, RngState(75))

    def test_shrink_then_expand_identity_on_retained(self, unit2):
        existing = sf.random_sampling(unit2, 50, RngState(76))
        small = Domain([0.0, 0.0], [0.5, 0.5])
        shrunk = sf.expand_domain(existing, small, 0, "bc", None, RngState(77))
        back = sf.expand_domain(shrunk, small, 0, "bc", None, RngState(78))
        assert np.array_equal(back.points, shrunk.points)

    def test_caller_stream_not_consumed(self, unit2):
        existing = sf.random_sampling(unit2, 20, RngState(79))
        wide = Domain([0.0, 0.0], [1.5, 1.0])
        rng = RngState(80)
        sf.expand_domain(existing, wide, 10, "bc", {"ncand": 50}, rng)
        # expansion used a child stream; the caller's draws are unaffected
        assert np.array_equal(rng.random(4), RngState(80).random(4))


def _curve_anchors(n=20):
    t = np.linspace(0.1, 0.9, n)
    pts = np.column_stack([t, 0.5 + 0.35 * np.sin(6.0 * t)])
    return SampleSet(Domain.unit(2), pts, frozen_count=n)


class TestCurveRegionSample:
    def test_fig13_configuration(self):
        anchors = _curve_anchors(20)
        region = CurveRegionSpec(anchors, 0.03, 50, include_anchors=False)
        out = sf.curve_region_sample(region, 50, RngState(81))
        assert len(out) == 70 and out.frozen_count == 20
        assert np.array_equal(out.points[:20], anchors.points)
        # every selected point lies in some anchor box
        dom = anchors.domain
        floor = 0.03 * dom.extent
        for p in out.points[20:]:
            widths = np.maximum(0.03 * np.abs(anchors.points), floor)
            in_any = np.all(np.abs(p - anchors.points) <= widths + 1e-12, axis=1).any()
            assert in_any

    def test_all_candidates_returned_when_n_equals_total(self):
        anchors = _curve_anchors(4)
        region = CurveRegionSpec(anchors, 0.05, 3, include_anchors=True)
        out = sf.curve_region_sample(region, 12, RngState(82))
        assert len(out) == 16

    def test_n_above_total_rejected(self):
        anchors = _curve_anchors(4)
        region = CurveRegionSpec(anchors, 0.05, 3)
        with pytest.raises(ValueError):
            sf.curve_region_sample(region, 13, RngState(83))

    def test_collapsed_anchor_box_rejected(self):
        # A half-width below float resolution gives an anchor box with
        # lower == upper, which is not a valid Domain.
        region = CurveRegionSpec(_curve_anchors(4), 1e-300, 3)
        with pytest.raises(ValueError, match="degenerate domain"):
            sf.curve_region_sample(region, 5, RngState(83))

    def test_include_anchors_repels_selections(self):
        anchors = _curve_anchors(20)
        for seed in range(3):
            with_a = sf.curve_region_sample(
                CurveRegionSpec(anchors, 0.03, 50, include_anchors=True), 50, RngState(seed))
            without = sf.curve_region_sample(
                CurveRegionSpec(anchors, 0.03, 50, include_anchors=False), 50, RngState(seed))
            d_with = cdist(with_a.points[20:], anchors.points).min()
            d_without = cdist(without.points[20:], anchors.points).min()
            assert d_with >= d_without


class _CountingSource:
    def __init__(self, records):
        self.records = records
        self.served = 0

    def __iter__(self):
        for r in self.records:
            self.served += 1
            yield r

    def __len__(self):
        return len(self.records)


class TestStreamSubset:
    def test_degenerate_segment_matches_inmemory_oracle(self):
        records = RngState(84).random((200, 2))
        cfg = StreamConfig(segment_size=1000, subset_size=30)
        got = sf.stream_subset(records, cfg, RngState(85))
        # oracle: single-batch greedy with the same first draw
        rng = RngState(85)
        first = rng.integers(200)
        chosen = [first]
        min_d2 = ((records - records[first]) ** 2).sum(axis=1)
        min_d2[first] = -np.inf
        for _ in range(29):
            idx = int(np.argmax(min_d2))
            chosen.append(idx)
            np.minimum(min_d2, ((records - records[idx]) ** 2).sum(axis=1), out=min_d2)
            min_d2[idx] = -np.inf
        assert np.array_equal(got.points, records[chosen])

    def test_subset_equals_whole_input_in_arrival_order(self):
        records = RngState(86).random((50, 3))
        got = sf.stream_subset(records, StreamConfig(segment_size=10, subset_size=50),
                               RngState(87))
        assert np.array_equal(got.points, records)

    def test_each_record_read_exactly_once(self):
        src = _CountingSource(RngState(88).random((500, 2)).tolist())
        sf.stream_subset(src, StreamConfig(segment_size=100, subset_size=20), RngState(89))
        assert src.served == 500

    def test_winners_are_actual_records(self):
        records = RngState(90).random((300, 2))
        got = sf.stream_subset(records, StreamConfig(segment_size=64, subset_size=25),
                               RngState(91))
        rows = {tuple(r) for r in records}
        assert len(got) == 25
        assert all(tuple(p) in rows for p in got.points)

    def test_spread_beats_random_subset(self):
        # threshold frozen from a paired-run calibration: measured mean ratio
        # 1.77-1.83 across seeds and configs, per-seed minimum 1.66
        ratios = []
        for seed in range(10):
            records = RngState(seed).random((5000, 2))
            sub = sf.stream_subset(records, StreamConfig(segment_size=500, subset_size=100),
                                   RngState(seed + 1))
            rand_idx = RngState(seed + 2).permutation(5000)[:100]
            rand = SampleSet(Domain.unit(2), records[rand_idx])
            ratios.append(nearest_neighbor_distances(sub).mean()
                          / nearest_neighbor_distances(rand).mean())
        assert np.mean(ratios) >= 1.6

    def test_source_shorter_than_subset_errors(self):
        records = RngState(92).random((10, 2))
        with pytest.raises(ValueError):
            sf.stream_subset(records, StreamConfig(segment_size=4, subset_size=20), RngState(93))

    def test_unsized_source_requires_total(self):
        gen = (r for r in RngState(94).random((50, 2)))
        with pytest.raises(ValueError):
            sf.stream_subset(gen, StreamConfig(segment_size=10, subset_size=5), RngState(95))

    def test_unsized_source_with_total(self):
        gen = (r for r in RngState(96).random((50, 2)))
        got = sf.stream_subset(gen, StreamConfig(segment_size=10, subset_size=5),
                               RngState(97), total_records=50)
        assert len(got) == 5

    def test_ragged_record_rejected(self):
        records = [[0.1, 0.2], [0.3, 0.4, 0.5]]
        with pytest.raises(ValueError):
            sf.stream_subset(records, StreamConfig(segment_size=10, subset_size=1), RngState(98))


class TestGreedyPicks:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 60), st.data())
    def test_matches_row_sum_bitwise(self, d, n, data):
        """Picks and final distances equal those of the row-sum loop, bit for
        bit, in every dimension (column adds below 8, row sums above)."""
        rs = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rs.random((n, d)) * 10.0 ** rs.integers(-3, 4, size=(1, d))
        base = rs.random((data.draw(st.integers(0, 5)), d))
        count = data.draw(st.integers(1, n))
        first = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
        min_d2 = cdist(x, base, "sqeuclidean").min(axis=1) if len(base) else np.full(n, np.inf)
        ref_d2 = min_d2.copy()
        picks = _greedy_picks(x, min_d2, count, first)
        ref = []
        for step in range(count):
            idx = first if step == 0 and first is not None else int(np.argmax(ref_d2))
            ref.append(idx)
            ref_d2 = np.minimum(ref_d2, ((x - x[idx]) ** 2).sum(axis=1))
            ref_d2[idx] = -np.inf
        assert picks == ref
        assert min_d2.tobytes() == ref_d2.tobytes()


class TestGreedyPicksWide:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([*range(13, 25), 129, 200]), st.integers(1, 60),
           st.booleans(), st.data())
    def test_matches_row_sum_bitwise(self, d, n, weighted, data):
        """From 8 columns on, the kernel's column adds follow numpy's 8 partial
        sums, and above 128 columns its pairwise split; with weights, picks
        are those of density * distance over the rows not yet taken."""
        rs = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rs.random((n, d)) * 10.0 ** rs.integers(-3, 4, size=(1, d))
        base = rs.random((data.draw(st.integers(0, 5)), d))
        count = data.draw(st.integers(1, n))
        first = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
        weights = rs.random(n) * (rs.random(n) < 0.8) if weighted else None
        min_d2 = cdist(x, base, "sqeuclidean").min(axis=1) if len(base) else np.full(n, np.inf)
        if weighted and first is None and not len(base):
            first = 0  # keeps 0 * sqrt(inf) = nan out of the first scores
        ref, ref_d2 = brute_greedy_picks(x, min_d2, count, first, weights)
        assert _greedy_picks(x, min_d2, count, first, weights) == ref
        assert min_d2.tobytes() == ref_d2.tobytes()
