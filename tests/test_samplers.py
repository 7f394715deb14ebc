import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist, pdist

import spacefill as sf
from spacefill import samplers
from spacefill.core import Domain, RegionTooSmallError, RngState, SampleSet
from spacefill.samplers import (
    BinPlacement,
    CvtConfig,
    FpConfig,
    GridMode,
    LhsConfig,
    PoissonConfig,
    _draw_unit_batch,
    generate,
)

from conftest import assert_latin, brute_draw_unit_batch, brute_latinize


@st.composite
def latinize_inputs(draw):
    """A random box (or the unit cube) holding n <= 300 points in d <= 8
    dimensions, with shares of coordinates placed exactly on bin edges and at
    the upper bound, and rows duplicated."""
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 8))
    rs = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dom = Domain.unit(d)
    else:
        lower = rs.uniform(-5.0, 5.0, d)
        dom = Domain(lower, lower + rs.uniform(0.01, 10.0, d))
    u = rs.random((n, d))
    on_edge = rs.random((n, d)) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    u[on_edge] = rs.integers(0, n + 1, size=int(on_edge.sum())) / n
    u[rs.random((n, d)) < draw(st.sampled_from([0.0, 0.05]))] = 1.0
    if draw(st.booleans()):
        u = u[rs.integers(0, draw(st.integers(1, n)), size=n)]
    pts = np.clip(dom.lower + u * dom.extent, dom.lower, dom.upper)
    return SampleSet(dom, pts)


class TestRandom:
    def test_zero_count_rejected(self, unit2, rng):
        with pytest.raises(ValueError):
            sf.random_sampling(unit2, 0, rng)

    def test_means_near_center(self, unit2):
        s = sf.random_sampling(unit2, 10_000, RngState(1))
        assert np.all(np.abs(s.points.mean(axis=0) - 0.5) < 0.02)

    def test_deterministic(self, unit2):
        a = sf.random_sampling(unit2, 50, RngState(7))
        b = sf.random_sampling(unit2, 50, RngState(7))
        assert np.array_equal(a.points, b.points)

    def test_viability_rejection(self):
        d = Domain([0.0, 0.0], [1.0, 1.0], viability=lambda p: p[0] < 0.3)
        s = sf.random_sampling(d, 100, RngState(2))
        assert np.all(s.points[:, 0] < 0.3)

    def test_impossible_region_errors(self):
        from spacefill.core import RegionTooSmallError, REJECTION_CAP
        d = Domain([0.0], [1.0], viability=lambda p: False)
        # patched cap keeps the failure fast while proving the error path
        import spacefill.samplers as mod
        old = mod.REJECTION_CAP
        mod.REJECTION_CAP = 1000
        try:
            with pytest.raises(RegionTooSmallError):
                sf.random_sampling(d, 1, RngState(3))
        finally:
            mod.REJECTION_CAP = old


class RecordingFilter:
    """Accepts a point when its first coordinate is below a threshold and
    keeps a copy of every point it is called on."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.seen = []

    def __call__(self, p):
        self.seen.append(np.array(p))
        return p[0] < self.threshold


class TestDrawUnitBatch:
    """Block draws against the per-candidate loop they replace."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 300), st.sampled_from([None, 0.03, 0.5, 1.1]),
           st.booleans(), st.integers(1, 40), st.integers(0, 2**63 - 1))
    def test_matches_per_candidate_loop(self, d, count, threshold, exclude, cap, seed):
        lower, upper = np.full(d, -1.0), np.full(d, 2.0)
        old_box = Domain(np.zeros(d), np.full(d, 1.5)) if exclude else None
        domains = [Domain(lower, upper, None if threshold is None else RecordingFilter(threshold))
                   for _ in range(2)]
        rng, ref_rng = RngState(seed), RngState(seed)
        old_cap, samplers.REJECTION_CAP = samplers.REJECTION_CAP, cap
        try:
            try:
                out = _draw_unit_batch(rng, domains[0], count, old_box)
            except RegionTooSmallError:
                out = None
        finally:
            samplers.REJECTION_CAP = old_cap
        try:
            ref = brute_draw_unit_batch(ref_rng, domains[1], count, cap, old_box)
        except RegionTooSmallError:
            ref = None
        if ref is None:
            assert out is None
        else:
            assert out.tobytes() == ref.tobytes()
        if threshold is not None:  # the same calls, on the same points, in order
            assert np.array_equal(np.array(domains[0].viability.seen),
                                  np.array(domains[1].viability.seen))
        assert rng.random() == ref_rng.random()
        assert rng.integers(1000) == ref_rng.integers(1000)

    def test_peek_leaves_the_stream_in_place(self):
        rng, ref = RngState(5), RngState(5)
        rng.integers(7)  # leaves PCG64 holding a buffered 32-bit half
        ref.integers(7)
        peeked = rng._peek((4, 3))
        assert np.array_equal(peeked, rng.random((4, 3)))
        ref.random((4, 3))
        assert rng.integers(1 << 20) == ref.integers(1 << 20)


class TestGrid:
    def test_2x2_corners_mode_gives_cell_centers(self, unit2, rng):
        s = sf.grid_sampling(unit2, [2, 2], GridMode.CORNERS, rng)
        want = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
        assert {tuple(p) for p in s.points} == want

    def test_stratified_one_point_per_cell(self, unit2):
        s = sf.grid_sampling(unit2, [10, 10], GridMode.STRATIFIED_RANDOM, RngState(4))
        cells = {(int(p[0] * 10), int(p[1] * 10)) for p in s.points}
        assert len(cells) == 100

    def test_3d_count_is_product(self, rng):
        s = sf.grid_sampling(Domain.unit(3), [5, 4, 3], GridMode.CORNERS, rng)
        assert len(s) == 60

    def test_cell_limit(self, rng):
        with pytest.raises(ValueError):
            sf.grid_sampling(Domain.unit(4), [100, 100, 100, 100], GridMode.CORNERS, rng)


class TestLhsBasic:
    def test_single_sample(self, unit2):
        s = sf.lhs_basic(unit2, 1, RngState(5))
        assert len(s) == 1 and np.all((0 <= s.points) & (s.points < 1))

    def test_two_samples_1d_bins(self):
        s = sf.lhs_basic(Domain.unit(1), 2, RngState(6))
        v = np.sort(s.points[:, 0])
        assert 0 <= v[0] < 0.5 <= v[1] < 1.0

    def test_latin_property_100x2(self, unit2):
        s = sf.lhs_basic(unit2, 100, RngState(7))
        assert_latin(s.points)

    def test_bin_centers(self, unit2):
        s = sf.lhs_basic(unit2, 4, RngState(8), BinPlacement.BIN_CENTER)
        centers = {0.125, 0.375, 0.625, 0.875}
        for j in range(2):
            assert set(s.points[:, j]) == centers

    def test_scaled_domain(self):
        d = Domain([10.0], [20.0])
        s = sf.lhs_basic(d, 5, RngState(9))
        assert np.all((10 <= s.points) & (s.points < 20))


class TestLhsMaximin:
    def test_no_interchanges_equals_basic(self, unit2):
        cfg = LhsConfig(n_tries=1, n_interchanges=0)
        a = sf.lhs_maximin(unit2, 30, RngState(10), cfg)
        b = sf.lhs_basic(unit2, 30, RngState(10))
        assert np.array_equal(a.points, b.points)

    def test_accepted_interchanges_strictly_increase(self, unit2):
        trace = []
        sf.lhs_maximin(unit2, 40, RngState(11),
                       LhsConfig(n_tries=3, n_interchanges=200), trace=trace)
        assert trace, "expected at least one accepted interchange"
        by_try = {}
        for t, attempt, dist in trace:
            by_try.setdefault(t, []).append(dist)
        for seq in by_try.values():
            assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_result_beats_plain_lhs(self, unit2):
        cfg = LhsConfig(n_tries=2, n_interchanges=150)
        opt = sf.lhs_maximin(unit2, 50, RngState(12), cfg)
        base = sf.lhs_basic(unit2, 50, RngState(12))
        assert pdist(opt.points).min() >= pdist(base.points).min()

    def test_latin_property_preserved(self, unit2):
        s = sf.lhs_maximin(unit2, 25, RngState(13), LhsConfig(n_tries=2, n_interchanges=100))
        assert_latin(s.points)

    def test_requires_two(self, unit2, rng):
        with pytest.raises(ValueError):
            sf.lhs_maximin(unit2, 1, rng)


class TestLatinize:
    def test_already_latin_is_identity(self, unit2):
        s = sf.lhs_basic(unit2, 20, RngState(14))
        out = sf.latinize(s, RngState(15))
        assert np.array_equal(out.points, s.points)

    def test_two_point_hand_trace(self):
        s = SampleSet(Domain.unit(1), [[0.1], [0.2]])
        out = sf.latinize(s, RngState(16))
        assert out.points[0, 0] == 0.1  # already in bin 0, untouched
        assert 0.5 <= out.points[1, 0] < 1.0

    def test_output_is_latin_for_arbitrary_input(self, unit2):
        for seed in range(5):
            pts = RngState(seed).random((30, 2))
            out = sf.latinize(SampleSet(unit2, pts), RngState(seed + 100))
            assert_latin(out.points)

    def test_order_preserved_and_unmoved_bits_identical(self, unit2):
        pts = RngState(17).random((40, 2))
        out = sf.latinize(SampleSet(unit2, pts), RngState(18))
        # per dimension, the rank of each sample is unchanged
        for j in range(2):
            assert np.array_equal(np.argsort(pts[:, j], kind="stable"),
                                  np.argsort(out.points[:, j], kind="stable"))
        moved = out.points != pts
        assert np.array_equal(out.points[~moved], pts[~moved])

    @settings(max_examples=150, deadline=None)
    @given(latinize_inputs(), st.integers(0, 2**63 - 1))
    def test_matches_loop_oracle_bitwise(self, sample_set, seed):
        rng, ref_rng = RngState(seed), RngState(seed)
        out = sf.latinize(sample_set, rng)
        ref = brute_latinize(sample_set, ref_rng)
        assert out.points.tobytes() == ref.points.tobytes()
        assert rng.random() == ref_rng.random()  # same stream position


class TestCvt:
    def test_alpha_beta_substitution_replaces_with_mean(self, unit2):
        # alpha=(0,1), beta=(0,1): one iteration sets each nonempty generator
        # to the mean of the points assigned to it
        cfg = CvtConfig(n_iter=1, ppi=200, convergence_tol=0.0)
        n = 4
        out = sf.cvt_sampling(unit2, n, RngState(19), cfg)
        rng = RngState(19)
        gens = rng.random((n, 2))
        pts = rng.random((200, 2))
        labels = cdist(pts, gens, "sqeuclidean").argmin(axis=1)
        want = gens.copy()
        for i in range(n):
            mine = pts[labels == i]
            if len(mine):
                want[i] = mine.mean(axis=0)
        assert np.allclose(out.points, want, rtol=0, atol=1e-15)

    def test_ppi_below_n_warns(self, unit2):
        with pytest.warns(RuntimeWarning):
            sf.cvt_sampling(unit2, 50, RngState(20), CvtConfig(n_iter=1, ppi=10))

    def test_ordered_versus_random(self, unit2):
        # space-filling proxy: the CVT min separation beats random sampling's
        s_cvt = sf.cvt_sampling(unit2, 100, RngState(21), CvtConfig(n_iter=60, ppi=10_000))
        s_rnd = sf.random_sampling(unit2, 100, RngState(21))
        assert pdist(s_cvt.points).min() > 3.0 * pdist(s_rnd.points).min()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CvtConfig(alpha1=0.5, alpha2=0.6)
        with pytest.raises(ValueError):
            CvtConfig(alpha1=1.0, alpha2=0.0)

    def test_deterministic(self, unit2):
        cfg = CvtConfig(n_iter=5, ppi=500)
        a = sf.cvt_sampling(unit2, 10, RngState(22), cfg)
        b = sf.cvt_sampling(unit2, 10, RngState(22), cfg)
        assert np.array_equal(a.points, b.points)


class TestPoissonDisk:
    def test_disk_property_exact(self, unit2):
        for seed in range(5):
            s = sf.poisson_disk(unit2, PoissonConfig(radius=0.1, n_cand=30), RngState(seed))
            assert pdist(s.points).min() >= 0.1

    def test_radius_larger_than_diagonal_yields_one(self, unit2):
        s = sf.poisson_disk(unit2, PoissonConfig(radius=2.0, n_cand=10), RngState(23))
        assert len(s) == 1

    def test_count_band_small(self, unit2):
        counts = [len(sf.poisson_disk(unit2, PoissonConfig(radius=0.08, n_cand=30), RngState(s)))
                  for s in range(5)]
        assert all(90 <= c <= 115 for c in counts)

    def test_deterministic(self, unit2):
        cfg = PoissonConfig(radius=0.15, n_cand=20)
        a = sf.poisson_disk(unit2, cfg, RngState(24))
        b = sf.poisson_disk(unit2, cfg, RngState(24))
        assert np.array_equal(a.points, b.points)

    def test_viability_respected(self):
        d = Domain([0.0, 0.0], [1.0, 1.0], viability=lambda p: p[0] + p[1] < 1.0)
        s = sf.poisson_disk(d, PoissonConfig(radius=0.1, n_cand=20), RngState(25))
        assert np.all(s.points.sum(axis=1) < 1.0)


def _greedy_oracle(pool, n, first_point, existing=None):
    """Naive greedy max-min over a candidate pool, lowest index on ties."""
    chosen = [first_point]
    used = {tuple(first_point)}
    base = [] if existing is None else list(existing)
    for _ in range(n - 1):
        best_idx, best_score = None, -1.0
        for i, c in enumerate(pool):
            if tuple(c) in used:
                continue
            ref = base + chosen
            score = min(math.dist(c, r) for r in ref)
            if score > best_score:
                best_idx, best_score = i, score
        chosen.append(pool[best_idx])
        used.add(tuple(pool[best_idx]))
    return np.array(chosen)


@pytest.fixture
def draw_sizes(monkeypatch):
    """Row counts of every samplers._draw_unit_batch call, in call order."""
    sizes = []
    real = samplers._draw_unit_batch

    def recording(rng, domain, count, exclude=None):
        sizes.append(count)
        return real(rng, domain, count, exclude)

    monkeypatch.setattr(samplers, "_draw_unit_batch", recording)
    return sizes


class TestGreedyFp:
    """On an unconstrained unit domain the pool is the stream's first
    random((n * scale, d)) draw."""

    def test_single_sample_comes_from_pool(self, unit2):
        pool = RngState(26).random((20, 2))
        s = sf.greedy_fp(unit2, 1, RngState(26), FpConfig(scale=20))
        assert any(np.array_equal(s.points[0], c) for c in pool)

    def test_center_beats_corners(self, unit2):
        corners = SampleSet(unit2, [[0, 0], [0, 1], [1, 0], [1, 1]])
        pool = RngState(27).random((200, 2))
        s = sf.greedy_fp(unit2, 1, RngState(27), FpConfig(scale=200), existing=corners)
        new = s.points[4]
        dists = cdist(pool, corners.points).min(axis=1)
        assert np.array_equal(new, pool[np.argmax(dists)])
        assert np.linalg.norm(new - 0.5) < 0.2

    def test_matches_greedy_oracle(self, unit2):
        pool = RngState(28).random((20, 2))
        s = sf.greedy_fp(unit2, 5, RngState(28), FpConfig(scale=4))
        want = _greedy_oracle(pool.tolist(), 5, s.points[0].tolist())
        assert np.allclose(s.points, want, rtol=0, atol=0)

    def test_refresh_count_ignored(self, unit2):
        a = sf.greedy_fp(unit2, 20, RngState(29), FpConfig(scale=5, refresh_count=3))
        b = sf.greedy_fp(unit2, 20, RngState(29), FpConfig(scale=5))
        assert np.array_equal(a.points, b.points)

    def test_existing_prefix_untouched(self, unit2):
        existing = sf.random_sampling(unit2, 10, RngState(29))
        s = sf.greedy_fp(unit2, 5, RngState(30), FpConfig(scale=10), existing=existing)
        assert s.frozen_count == 10
        assert np.array_equal(s.points[:10], existing.points)


class TestBestCandidate:
    def test_single_candidate_equals_random(self, unit2):
        a = sf.best_candidate(unit2, 20, RngState(31), FpConfig(n_cand_fixed=1))
        b = sf.random_sampling(unit2, 20, RngState(31))
        assert np.array_equal(a.points, b.points)

    def test_each_winner_is_batch_argmax(self, unit2):
        # The first sample is one random((1, d)) draw, not a batch; each
        # later sample is the argmax of the next random((ncand, d)) batch.
        rng, replay = RngState(32), RngState(32)
        s = sf.best_candidate(unit2, 10, rng, FpConfig(n_cand_fixed=40))
        assert np.array_equal(s.points[0], replay.random((1, 2))[0])
        selected = [s.points[0]]
        for step in range(9):
            batch = replay.random((40, 2))
            idx = int(np.argmax(cdist(batch, np.asarray(selected)).min(axis=1)))
            assert np.array_equal(s.points[step + 1], batch[idx])
            selected.append(batch[idx])
        assert rng.random() == replay.random()  # nine batches, no more

    def test_scaled_batch_sizes(self, unit2, draw_sizes):
        sf.best_candidate(unit2, 6, RngState(33), FpConfig(scale=3, max_cand=12))
        # the 1-row first draw, then min(scale*i, max_cand) candidates for
        # sample i = 2..6
        assert draw_sizes == [1, 6, 9, 12, 12, 12]

    def test_space_filling_beats_random(self, unit2):
        s = sf.best_candidate(unit2, 100, RngState(34), FpConfig(n_cand_fixed=250))
        r = sf.random_sampling(unit2, 100, RngState(34))
        from spacefill.core import nearest_neighbor_distances
        assert nearest_neighbor_distances(s).mean() > 1.3 * nearest_neighbor_distances(r).mean()


class TestHybrid:
    def test_large_refresh_equals_greedyfp(self, unit2):
        cfg = FpConfig(scale=10, refresh_count=100)
        a = sf.hybrid_bc_fp(unit2, 50, RngState(35), cfg)
        b = sf.greedy_fp(unit2, 50, RngState(35), FpConfig(scale=10))
        assert np.array_equal(a.points, b.points)

    def test_pool_regeneration_count(self, unit2, draw_sizes):
        for n, rc in [(50, 10), (45, 10), (50, 50), (50, 7)]:
            draw_sizes.clear()
            sf.hybrid_bc_fp(unit2, n, RngState(36), FpConfig(scale=5, refresh_count=rc))
            assert draw_sizes == [n * 5] * math.ceil(n / rc)

    def test_refresh_one_runs(self, unit2):
        s = sf.hybrid_bc_fp(unit2, 10, RngState(37), FpConfig(scale=5, refresh_count=1))
        assert len(s) == 10


class TestNonFiniteDensity:
    """A density that returns NaN on x0 < 0.1 is rejected by every
    density-weighted sampler, instead of winning (BC) or reading as zero."""

    @pytest.mark.parametrize("algorithm", ["greedyfp", "bc", "hybrid"])
    def test_nan_region_raises(self, algorithm):
        dom = Domain.unit(2, density=lambda p: float("nan") if p[0] < 0.1 else 1.0,
                          density_max=1.0)
        with pytest.raises(sf.SamplingError) as err:
            generate(algorithm, dom, 20, RngState(38))
        assert str(err.value) == "density returned a non-finite value nan"


class TestProgressiveCoverage:
    def test_first_half_covers_like_full(self, unit2):
        gx, gy = np.meshgrid(np.linspace(0, 1, 40), np.linspace(0, 1, 40))
        probe = np.column_stack([gx.ravel(), gy.ravel()])
        for algo, params in [("greedyfp", {"scale": 10}), ("bc", {"ncand": 250}),
                             ("hybrid", {"scale": 10, "refresh": 25})]:
            s = generate(algo, unit2, 100, RngState(38), params)
            r50 = cdist(probe, s.points[:50]).min(axis=1).max()
            r100 = cdist(probe, s.points).min(axis=1).max()
            assert r50 <= 1.8 * r100, f"{algo}: {r50} vs {r100}"


class TestGenerateDispatch:
    def test_unknown_algorithm(self, unit2, rng):
        with pytest.raises(ValueError):
            generate("sobol", unit2, 10, rng)

    def test_unknown_param(self, unit2, rng):
        with pytest.raises(ValueError):
            generate("bc", unit2, 10, rng, {"bogus": 1})

    def test_poisson_rejects_n(self, unit2, rng):
        with pytest.raises(ValueError):
            generate("poisson", unit2, 10, rng)

    def test_defaults_applied(self, unit2):
        s = generate("bc", unit2, 20, RngState(39))
        assert len(s) == 20

    def test_determinism_all_algorithms(self, unit2):
        cases = {
            "random": {}, "grid": {"bins": 5}, "stratified": {"bins": 5},
            "lhs-basic": {}, "lhs-maximin": {"ntries": 2, "ninterchanges": 20},
            "cvt": {"niter": 3, "ppi": 300}, "poisson": {"r": 0.15, "ncand": 10},
            "greedyfp": {"scale": 5}, "bc": {"ncand": 20},
            "hybrid": {"scale": 5, "refresh": 10},
        }
        for algo, params in cases.items():
            n = None if algo in ("poisson", "grid", "stratified") else 25
            a = generate(algo, unit2, n, RngState(40), params)
            b = generate(algo, unit2, n, RngState(40), params)
            assert np.array_equal(a.points, b.points), algo
