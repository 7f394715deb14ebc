import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import spacefill as sf
from spacefill import adapt, core, samplers
from spacefill.adapt import CurveRegionSpec, StreamConfig, _greedy_picks
from spacefill.core import (
    Domain,
    RegionTooSmallError,
    RngState,
    SampleSet,
    SamplingError,
    nearest_neighbor_distances,
)

from conftest import brute_greedy_picks, child_peak_rss_kib


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

    @pytest.mark.parametrize("selected", [None, [[0.5, 0.5], [0.1, 0.9]]])
    def test_array_form_matches_per_point(self, selected):
        cands = RngState(52).random((40, 2))
        dens = lambda p: float(p[0] + 0.1)  # noqa: E731
        twin = lambda p: dens(p)  # noqa: E731
        twin.batch = lambda pts: pts[:, 0] + 0.1
        got = [sf.density_weighted_select(cands, selected, fn, RngState(9)) for fn in (dens, twin)]
        assert got[0] == got[1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_array_form_errors_match_per_point(self, bad):
        messages = []
        for batch in (False, True):
            dens = lambda p: bad if p[0] < 0.15 else 1.0  # noqa: E731
            if batch:
                dens.batch = lambda pts: np.where(pts[:, 0] < 0.15, bad, 1.0)
            with pytest.raises(SamplingError) as err:
                sf.density_weighted_select([[0.1], [0.2]], [[0.5]], dens, RngState(0))
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("shape", [(2, 3), (1, 4), (4,)], ids=["2x3", "1x4", "flat-4"])
    def test_selected_of_wrong_width_rejected(self, shape):
        cands = [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]
        with pytest.raises(ValueError, match="selected must hold points of dimension 2"):
            sf.density_weighted_select(cands, np.full(shape, 0.5), lambda p: 1.0, RngState(0))

    def test_one_flat_selected_point(self):
        cands = [[0.1, 0.1], [0.5, 0.5], [0.8, 0.8]]
        got = [sf.density_weighted_select(cands, sel, lambda p: 1.0, RngState(0))
               for sel in ([0.6, 0.6], [[0.6, 0.6]])]
        assert got == [0, 0]

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

    @pytest.mark.parametrize("m", [0, 5])
    def test_param_out_of_range_named_before_drawing(self, unit2, m):
        existing = sf.random_sampling(unit2, 5, RngState(62))
        rng = RngState(63)
        with pytest.raises(ValueError, match="^parameter 'scale' of algorithm 'hybrid' "
                                             "must be >= 1, got 0$"):
            sf.incremental_add(existing, m, "hybrid", {"scale": 0}, rng)
        assert rng.random() == RngState(63).random()

    def test_bc_onto_200000_points_peak_rss(self):
        """Each BC step scores its 250 candidates against the existing set in
        blocks of at most 2^18 squared distances (one row of 200,000 here), so
        three BC points added to a 200,000 x 4 set peak under 160 MB in a fresh
        interpreter; one 250 x 200,000 block alone is 400 MB."""
        _, peak_kib = child_peak_rss_kib(
            "from spacefill.adapt import incremental_add",
            "from spacefill.core import Domain, RngState, SampleSet",
            "base = SampleSet(Domain.unit(4), RngState(2).random((200_000, 4)))",
            "incremental_add(base, 3, 'bc', None, RngState(3))",
        )
        assert peak_kib < 160 * 1024


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

    def test_shrink_with_array_form_viability(self, unit2):
        existing = sf.random_sampling(unit2, 100, RngState(68))
        kept = []
        for batch in (False, True):
            fn = lambda p: p[0] + p[1] < 0.6  # noqa: E731
            if batch:
                fn.batch = lambda pts: pts[:, 0] + pts[:, 1] < 0.6
            small = Domain([0.0, 0.0], [0.5, 0.5], viability=fn)
            kept.append(sf.expand_domain(existing, small, 0, "bc", None, RngState(69)).points)
        inside = np.all(existing.points <= 0.5, axis=1) & (existing.points.sum(axis=1) < 0.6)
        assert kept[0].tobytes() == kept[1].tobytes() == existing.points[inside].tobytes()

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

    @pytest.mark.parametrize("new_upper", [[2.0, 1.0], [0.5, 0.5]], ids=["m0", "shrink"])
    @pytest.mark.parametrize("algorithm, params, message", [
        ("bogus", {"zzz": 1}, "unknown algorithm 'bogus'"),
        ("bc", {"zzz": 1}, "unknown parameter 'zzz'"),
        ("lhs-basic", None, "does not support existing points"),
        ("bc", {"ncand": 0}, "parameter 'ncand'"),
    ])
    def test_id_rules_checked_when_nothing_is_drawn(self, unit2, new_upper, algorithm,
                                                    params, message):
        existing = sf.random_sampling(unit2, 10, RngState(72))
        rng = RngState(73)
        with pytest.raises(ValueError, match=message):
            sf.expand_domain(existing, Domain([0.0, 0.0], new_upper), 0, algorithm, params, rng)
        assert rng.random() == RngState(73).random()

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

    def test_none_record_rejected(self):
        records = [[0.1, 0.2], None, [0.3, 0.4]]
        with pytest.raises(ValueError, match="ragged record"):
            sf.stream_subset(records, StreamConfig(segment_size=10, subset_size=1), RngState(98))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_record_rejected_when_read(self, bad):
        rows = RngState(99).random((50, 2)).tolist()
        rows[17][1] = bad
        src = _CountingSource(rows)
        with pytest.raises(ValueError, match="^record 17: non-finite value$"):
            sf.stream_subset(src, StreamConfig(segment_size=10, subset_size=5), RngState(100))
        assert src.served == 18  # no record after the bad one is read

    def test_none_record_in_1d_is_non_finite(self):
        records = [[0.1], [0.2], None, [0.5]]
        with pytest.raises(ValueError, match="^record 2: non-finite value$"):
            sf.stream_subset(records, StreamConfig(segment_size=4, subset_size=2), RngState(98))

    def test_ragged_record_rejected(self):
        records = [[0.1, 0.2], [0.3, 0.4, 0.5]]
        with pytest.raises(ValueError):
            sf.stream_subset(records, StreamConfig(segment_size=10, subset_size=1), RngState(98))


class TestGreedyPicks:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 60), st.data())
    def test_matches_row_sum_bitwise(self, d, n, data):
        """Picks equal those of the row-sum loop from cdist's starting minima,
        in every dimension (column adds below 8, row sums above)."""
        rs = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rs.random((n, d)) * 10.0 ** rs.integers(-3, 4, size=(1, d))
        base = rs.random((data.draw(st.integers(0, 5)), d))
        count = data.draw(st.integers(1, n))
        first = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
        ref_d2 = cdist(x, base, "sqeuclidean").min(axis=1) if len(base) else np.full(n, np.inf)
        ref = []
        for step in range(count):
            idx = first if step == 0 and first is not None else int(np.argmax(ref_d2))
            ref.append(idx)
            ref_d2 = np.minimum(ref_d2, ((x - x[idx]) ** 2).sum(axis=1))
            ref_d2[idx] = -np.inf
        for screen in (_screen_none, _screen_all):
            with screen():
                assert _greedy_picks(x, base, count, first) == ref
        _assert_minima_bitwise(x, base, ref, ref_d2)


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
        for screen in (_screen_none, _screen_all):
            with screen():
                assert _greedy_picks(x, base, count, first, weights) == ref
        _assert_minima_bitwise(x, base, ref, ref_d2)

    @pytest.mark.parametrize("d", [*range(1, 131), 200, 256, 257, 300])
    def test_row_sums_match_numpy(self, d):
        """_row_sums has the bits of numpy's sum(axis=1) over the transpose
        in every column count: in-order adds, 8 partial sums, and the
        pairwise split above 128."""
        rs = np.random.default_rng(d)
        sq = rs.random((37, d)) * 10.0 ** rs.integers(-8, 9, size=(37, d))
        got = samplers._row_sums(np.ascontiguousarray(sq.T), np.empty(37))
        assert got.tobytes() == sq.sum(axis=1).tobytes()


def _assert_minima_bitwise(x, base, picks, ref_d2):
    """The running minima after these picks equal the reference loop's
    ref_d2 bit for bit, both as the pick loop lowers them from cdist's
    minima and as _exact_minima recomputes them for the rows not picked."""
    xt = np.ascontiguousarray(x.T)
    got = core.min_squared_dists(x, base)
    work, row = np.empty_like(xt), np.empty(len(x))
    for p in picks:
        samplers._lower_minima(got, xt, p, work, row)
    assert got.tobytes() == ref_d2.tobytes()
    rows = np.setdiff1d(np.arange(len(x)), picks)
    if len(rows):
        assert samplers._exact_minima(x, xt, rows, base, picks).tobytes() == ref_d2[rows].tobytes()


def _adversarial_sets(kind, rs, n, m, d):
    """Candidates x (n, d) and a base set (m, d) of one kind: lattices with
    exactly tied distances, values quantized to 0.01, repeated rows
    (candidates repeat each other and the base), a 1e6 common offset with
    spans from 1e-6 to 1e6, a base point far off that makes the screen's
    bound large, or spread uniform rows."""
    if kind == "lattice":
        return (rs.integers(0, 4, (n, d)).astype(float),
                rs.integers(0, 4, (m, d)).astype(float))
    if kind == "quantized":
        return np.round(rs.random((n, d)), 2), np.round(rs.random((m, d)), 2)
    if kind == "duplicates":
        pts = rs.random((max(1, n // 3), d))
        x = pts[rs.integers(len(pts), size=n)]
        return x, np.vstack([x[rs.integers(n, size=(m + 1) // 2)], rs.random((m // 2, d))])
    if kind == "offset":
        span = 10.0 ** rs.integers(-6, 7)
        return 1e6 + span * rs.random((n, d)), 1e6 + span * rs.random((m, d))
    x = rs.random((n, d)) * 10.0 ** rs.integers(-3, 4, size=(1, d))
    base = rs.random((m, d))
    if kind == "far":
        base[0, 0] = 1e7
    return x, base


class _Spy:
    """A wrapper that logs the arguments and result of every call."""

    def __init__(self, fn):
        self.fn, self.log = fn, []

    def __call__(self, *args):
        out = self.fn(*args)
        self.log.append((args, out))
        return out

    @property
    def calls(self):
        return len(self.log)


def _screen_all():
    """Screen every unweighted pick set with a nonempty base."""
    return mock.patch.object(core, "_SCREEN_PAIRS", 0)


def _screen_none():
    return mock.patch.object(core, "_SCREEN_PAIRS", sys.maxsize)


def _deltas(spy):
    """The deltas a spied _screened_min_squared_dists returned."""
    return [out[1] for _, out in spy.log]


KINDS = ("uniform", "lattice", "quantized", "duplicates", "offset", "far")


class TestScreenedPicks:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.sampled_from(KINDS), st.integers(1, 80), st.integers(1, 40),
           st.data())
    def test_picks_match_exact_minima(self, d, kind, n, m, data):
        """Screened picks equal the row-sum loop's on cdist's exact minima, in
        every dimension (d >= 8 takes the pairwise row-sum order), with exact
        ties, quantized values, repeated rows, a 1e6 offset and a large
        bound; the pick count may take every row.  No row is resolved twice."""
        rs = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x, base = _adversarial_sets(kind, rs, n, m, d)
        count = data.draw(st.one_of(st.just(n), st.integers(1, n)))
        first = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
        ref, _ = brute_greedy_picks(x, cdist(x, base, "sqeuclidean").min(axis=1), count, first)
        screen, exact = _Spy(core._screened_min_squared_dists), _Spy(samplers._exact_minima)
        with _screen_all(), mock.patch.object(samplers, "_screened_min_squared_dists", screen), \
                mock.patch.object(samplers, "_exact_minima", exact):
            assert _greedy_picks(x, base, count, first) == ref
        assert screen.calls == 1 and _deltas(screen)[0] > 0
        rows = np.concatenate([args[2] for args, _ in exact.log] or [np.empty(0, dtype=int)])
        assert len(np.unique(rows)) == len(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.sampled_from(KINDS + ("tiny",)), st.integers(1, 80),
           st.integers(1, 40), st.data())
    def test_bound_holds(self, d, kind, n, m, data):
        """The screen's minima lie within delta of cdist's, subnormal squares
        included."""
        rs = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x, base = _adversarial_sets("uniform" if kind == "tiny" else kind, rs, n, m, d)
        if kind == "tiny":
            x, base = x * 1e-160, base * 1e-160
        approx, delta = core._screened_min_squared_dists(x, base)
        assert np.all(np.abs(approx - core.min_squared_dists(x, base)) <= delta)

    @pytest.mark.parametrize("kind", ["lattice", "quantized", "duplicates", "far"])
    def test_near_ties_are_resolved(self, kind):
        """These sets put rows within the bound of the argmax, so the
        contenders get exact minima, and no other exact minima are computed;
        the picks still match."""
        rs = np.random.default_rng(7)
        x, base = _adversarial_sets(kind, rs, 400, 30, 3)
        ref, _ = brute_greedy_picks(x, cdist(x, base, "sqeuclidean").min(axis=1), 60, None)
        contenders = _Spy(samplers._exact_minima)
        exact = _Spy(core.min_squared_dists)
        with _screen_all(), mock.patch.object(samplers, "_exact_minima", contenders), \
                mock.patch.object(samplers, "min_squared_dists", exact):
            assert _greedy_picks(x, base, 60, None) == ref
        assert exact.calls == contenders.calls > 0

    def test_all_rows_tied_resolve_once(self):
        """Every candidate repeats a base point, so all minima tie at 0: the
        first pick resolves every row once, later picks resolve none, and
        the picks match."""
        rs = np.random.default_rng(17)
        lattice = np.array(np.meshgrid(*[[0.0, 1.0, 2.0]] * 3)).reshape(3, -1).T
        x = lattice[rs.integers(len(lattice), size=500)]
        ref, _ = brute_greedy_picks(x, cdist(x, lattice, "sqeuclidean").min(axis=1), 40, None)
        resolved = []  # each resolution's rows and the picks made before it
        exact = samplers._exact_minima

        def exact_minima(x, xt, rows, base, picks):
            resolved.append((np.sort(rows), len(picks)))
            return exact(x, xt, rows, base, picks)

        with _screen_all(), mock.patch.object(samplers, "_exact_minima", exact_minima):
            assert _greedy_picks(x, lattice, 40, None) == ref
        assert len(resolved) == 1
        rows, earlier = resolved[0]
        assert earlier == 0 and np.array_equal(rows, np.arange(500))

    @pytest.mark.parametrize("kind", ["lattice", "quantized", "duplicates"])
    def test_each_row_resolved_at_most_once(self, kind):
        """On tie-heavy streams with the screen forced on, no row of a pick
        set is resolved twice, so a set of n rows resolves at most n, and
        the picks and next draw are the exact path's."""
        records = _adversarial_sets(kind, np.random.default_rng(21), 3000, 1, 4)[0]
        cfg = StreamConfig(segment_size=500, subset_size=200)
        with _screen_none():
            want = sf.stream_subset(records, cfg, rng := RngState(22)).points.tobytes(), rng.random()
        resolved = []  # per pick set: its row count and each resolution's rows
        greedy, exact = samplers._greedy_picks, samplers._exact_minima

        def picks(x, *args):
            resolved.append((len(x), []))
            return greedy(x, *args)

        def exact_minima(x, xt, rows, *args):
            resolved[-1][1].append(rows.copy())
            return exact(x, xt, rows, *args)

        with _screen_all(), mock.patch.object(adapt, "_greedy_picks", picks), \
                mock.patch.object(samplers, "_exact_minima", exact_minima):
            got = sf.stream_subset(records, cfg, rng := RngState(22)).points.tobytes(), rng.random()
        assert got == want
        assert any(runs for _, runs in resolved)
        for n, runs in resolved:
            rows = np.concatenate(runs) if runs else np.empty(0, dtype=int)
            assert len(np.unique(rows)) == len(rows) <= n

    @pytest.mark.parametrize("n,m,screened", [(1024, 1024, True), (1023, 1025, False)])
    def test_size_rule(self, n, m, screened):
        """The screen starts at _SCREEN_PAIRS candidate-base pairs, below
        which it returns cdist's minima with delta 0; both sides give the
        exact picks, and weighted picks never screen."""
        assert n * m - core._SCREEN_PAIRS == (0 if screened else -1)
        rs = np.random.default_rng(8)
        x, base = rs.random((n, 3)), rs.random((m, 3))
        ref, _ = brute_greedy_picks(x, cdist(x, base, "sqeuclidean").min(axis=1), 20, None)
        spy = _Spy(core._screened_min_squared_dists)
        with mock.patch.object(samplers, "_screened_min_squared_dists", spy):
            assert _greedy_picks(x, base, 20) == ref
            _greedy_picks(x, base, 2, weights=np.ones(n))
        assert spy.calls == 1 and (_deltas(spy)[0] > 0) == screened
        if not screened:
            approx = core._screened_min_squared_dists(x, base)[0]
            assert approx.tobytes() == core.min_squared_dists(x, base).tobytes()

    @pytest.mark.parametrize("scale", [1e160, 1.2e154, 1e151])
    def test_norms_near_overflow_take_exact_path(self, scale):
        """A squared norm that overflows, or norms summing to 2^1000 or more,
        give no screen: cdist's minima with delta 0.  Where a pick's best
        minimum overflows, stream_subset refuses the records; where none
        does, the outputs and next draw are those of the exact path."""
        rs = np.random.default_rng(9)
        x, base = rs.random((50, 4)) * scale, rs.random((20, 4)) * scale
        # Centred on 0, these norms sum to exactly 2^1000, then 2^998.
        edge = np.array([[-1.0, -1.0], [1.0, 1.0]]) * 2.0 ** 499
        with _screen_all():
            for a, b in ((x, base), (edge, edge)):
                approx, delta = core._screened_min_squared_dists(a, b)
                assert delta == 0.0
                assert approx.tobytes() == core.min_squared_dists(a, b).tobytes()
            assert core._screened_min_squared_dists(edge / 2, edge / 2)[1] > 0
        records = (2.0 * RngState(10).random((3000, 4)) - 1.0) * scale
        cfg = StreamConfig(segment_size=500, subset_size=120)
        if scale > 1e151:
            for screen in (_screen_none, _screen_all):
                with screen(), pytest.raises(ValueError, match="overflows float64"):
                    sf.stream_subset(records, cfg, RngState(11))
            return
        with _screen_none():
            want = sf.stream_subset(records, cfg, rng := RngState(11)).points, rng.random()
        spy = _Spy(core._screened_min_squared_dists)
        with _screen_all(), mock.patch.object(samplers, "_screened_min_squared_dists", spy):
            got = sf.stream_subset(records, cfg, rng := RngState(11)).points, rng.random()
        assert spy.calls > 0 and set(_deltas(spy)) == {0.0}
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]

    @pytest.mark.parametrize("n_records,segment,subset", [
        (3000, 500, 120),  # the last segment is full: picks end at a segment edge
        (2999, 512, 97),
        (1200, 100, 600),
    ])
    @pytest.mark.parametrize("kind", ["uniform", "lattice", "offset"])
    def test_stream_subset_matches_exact_path(self, kind, n_records, segment, subset):
        rs = np.random.default_rng(12)
        records = _adversarial_sets(kind, rs, n_records, 1, 3)[0]
        cfg = StreamConfig(segment_size=segment, subset_size=subset)
        runs = []
        for screen in (_screen_none, _screen_all):
            with screen():
                rng = RngState(13)
                runs.append((sf.stream_subset(records, cfg, rng).points.tobytes(), rng.random()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("algo,params", [
        ("hybrid", {"scale": 10, "refresh": 25}),
        ("greedyfp", {"scale": 5}),
    ])
    @pytest.mark.parametrize("d", [1, 2, 4, 10])
    def test_hybrid_and_greedyfp_match_exact_path(self, algo, params, d):
        """Hybrid from scratch and greedyfp and hybrid against existing
        points: the same output and next draw with and without the screen."""
        existing = SampleSet(Domain.unit(d), RngState(14).random((30, d)))
        for ex in (None, existing):
            runs = []
            for screen in (_screen_none, _screen_all):
                with screen():
                    rng = RngState(15)
                    out = sf.generate(algo, Domain.unit(d), 100, rng, params, ex)
                    runs.append((out.points.tobytes(), rng.random()))
            assert runs[0] == runs[1]
