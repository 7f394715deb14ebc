import inspect
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist, pdist

import spacefill as sf
from spacefill import bench, samplers
from spacefill.core import Domain, RegionTooSmallError, RngState, SampleSet, SamplingError, _outside
from spacefill.samplers import (
    BinPlacement,
    CvtConfig,
    FpConfig,
    GridMode,
    LhsConfig,
    PoissonConfig,
    _draw_unit_batch,
    _draw_unit_density,
    generate,
)

from conftest import (assert_latin, brute_draw_unit_batch, brute_draw_unit_density,
                      brute_latinize, brute_lhs_maximin, brute_poisson_disk, child_peak_rss_kib,
                      loop_lhs_unit, searchsorted_latin_property_holds)


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


class BatchFilter(RecordingFilter):
    """RecordingFilter's twin with an array form, which is not recorded."""

    def batch(self, pts):
        return pts[:, 0] < self.threshold


class RecordingDensity:
    """1 / (1 + |x - 0.3|^2), zero where x0 < edge, keeping a copy of every
    point it is called on.  The per-point value is the array form's on one
    row, so both forms give the same bits."""

    def __init__(self, edge):
        self.edge = edge
        self.seen = []

    def rows(self, x):
        return np.where(x[:, 0] < self.edge, 0.0, 1.0 / (1.0 + ((x - 0.3) ** 2).sum(axis=1)))

    def __call__(self, p):
        self.seen.append(np.array(p))
        return float(self.rows(np.asarray(p)[None])[0])


class BatchDensity(RecordingDensity):
    """RecordingDensity's twin with an array form, which is not recorded."""

    def batch(self, pts):
        return self.rows(pts)


def _viability(form, threshold):
    """No viability, or a per-point or array-form threshold filter."""
    return None if form is None else {"point": RecordingFilter, "array": BatchFilter}[form](threshold)


def _run_both(cap, run, ref):
    """run() with samplers.REJECTION_CAP patched to cap, and ref(); each
    gives its output, or the type of the error it raised."""
    old_cap, samplers.REJECTION_CAP = samplers.REJECTION_CAP, cap
    try:
        try:
            out = run()
        except SamplingError as err:
            out = type(err)
    finally:
        samplers.REJECTION_CAP = old_cap
    try:
        want = ref()
    except SamplingError as err:
        want = type(err)
    return out, want


def _assert_same(out, want, rng, ref_rng):
    """The same output bytes (or error type), then the same next draws."""
    if isinstance(want, type):
        assert out is want
    else:
        assert out.tobytes() == want.tobytes()
    assert rng.random() == ref_rng.random()
    assert rng.integers(1000) == ref_rng.integers(1000)


def _assert_same_calls(a, b):
    """A per-point recording callable got the same calls, in order."""
    if a is not None and not hasattr(a, "batch"):
        assert len(a.seen) == len(b.seen)
        assert np.array_equal(np.array(a.seen), np.array(b.seen))


def _check_density_draw(d, count, array, top, edge, form, exclude, cap, seed):
    old_box = Domain(np.zeros(d), np.full(d, 1.5)) if exclude else None
    domains = [Domain(np.full(d, -1.0), np.full(d, 2.0), _viability(form, 0.5),
                      (BatchDensity if array else RecordingDensity)(edge), top)
               for _ in range(2)]
    rng, ref_rng = RngState(seed), RngState(seed)
    shell = _outside(old_box, domains[0]) if exclude else domains[0]
    out, want = _run_both(cap, lambda: _draw_unit_density(rng, shell, count),
                          lambda: brute_draw_unit_density(ref_rng, domains[1], count, cap, old_box))
    _assert_same(out, want, rng, ref_rng)
    _assert_same_calls(domains[0].density, domains[1].density)
    _assert_same_calls(domains[0].viability, domains[1].viability)


# Caps 1-40 end scans inside a block; 41-400 also run blocks whose miss run
# cannot reach the cap, carrying it into the next.
CAPS = st.one_of(st.integers(1, 40), st.integers(41, 400))


class TestBlockDraws:
    """Every rejection loop that decides peeked blocks at once, against the
    per-candidate loop it replaces: the same output, the same next draws,
    and, for a per-point callable, the same calls in order."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 300), st.sampled_from([None, "point", "array"]),
           st.sampled_from([-0.95, 0.03, 0.5, 2.5]), st.booleans(), CAPS,
           st.integers(0, 2**63 - 1))
    def test_draw_unit_batch(self, d, count, form, threshold, exclude, cap, seed):
        old_box = Domain(np.zeros(d), np.full(d, 1.5)) if exclude else None
        domains = [Domain(np.full(d, -1.0), np.full(d, 2.0), _viability(form, threshold))
                   for _ in range(2)]
        rng, ref_rng = RngState(seed), RngState(seed)
        shell = _outside(old_box, domains[0]) if exclude else domains[0]
        out, want = _run_both(cap, lambda: _draw_unit_batch(rng, shell, count),
                              lambda: brute_draw_unit_batch(ref_rng, domains[1], count, cap, old_box))
        _assert_same(out, want, rng, ref_rng)
        _assert_same_calls(domains[0].viability, domains[1].viability)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 100), st.sampled_from([1.0, 2.0, 8.0]),
           st.sampled_from([-1.0, 0.5, 1.5]), CAPS, st.integers(0, 2**63 - 1))
    def test_draw_unit_density_blocks(self, d, count, top, edge, cap, seed):
        """The block path: an array-form density, no viability, no excluded box."""
        _check_density_draw(d, count, True, top, edge, None, False, cap, seed)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 100), st.booleans(),
           st.sampled_from([1.0, 2.0, 8.0]), st.sampled_from([-1.0, 0.5, 1.5]),
           st.sampled_from([None, "point", "array"]), st.booleans(), CAPS,
           st.integers(0, 2**63 - 1))
    def test_draw_unit_density(self, d, count, array, top, edge, form, exclude, cap, seed):
        _check_density_draw(d, count, array, top, edge, form, exclude, cap, seed)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 30), st.sampled_from([None, "point", "array"]),
           st.sampled_from([0.0, 1.0, 2.5]), CAPS, st.integers(0, 2**63 - 1))
    def test_poisson_disk(self, d, n_cand, form, threshold, cap, seed):
        radius = [0.05, 0.15, 0.3, 0.4, 0.5, 0.6][d - 1]
        domains = [Domain(np.full(d, -1.0), np.full(d, 2.0), _viability(form, threshold))
                   for _ in range(2)]
        rng, ref_rng = RngState(seed), RngState(seed)
        cfg = PoissonConfig(radius=radius, n_cand=n_cand)
        out, want = _run_both(
            cap, lambda: sf.poisson_disk(domains[0], cfg, rng).points,
            lambda: SampleSet(domains[1], domains[1].from_unit(
                brute_poisson_disk(domains[1], radius, n_cand, ref_rng, cap))).points)
        _assert_same(out, want, rng, ref_rng)
        _assert_same_calls(domains[0].viability, domains[1].viability)

    def test_poisson_disk_wide(self):
        """d = 8, where the annulus test's row sums are pairwise."""
        dom = Domain.unit(8)
        rng, ref_rng = RngState(8), RngState(8)
        out = sf.poisson_disk(dom, PoissonConfig(radius=0.4, n_cand=5), rng).points
        want = brute_poisson_disk(dom, 0.4, 5, ref_rng, samplers.REJECTION_CAP)
        assert len(out) > 300
        _assert_same(out, want, rng, ref_rng)


class TestEmptyViableRegion:
    """A viability that accepts nothing reaches the cap in every sampler
    that takes one; a per-point predicate gets exactly the calls of the
    per-candidate loop."""

    @pytest.mark.parametrize("form", ["point", "array"])
    @pytest.mark.parametrize("algo", ["random", "greedyfp", "bc", "hybrid", "cvt", "poisson"])
    def test_reaches_the_cap(self, algo, form):
        cap = 37
        dom, ref = (Domain.unit(2, viability=_viability(form, -1.0)) for _ in range(2))
        old_cap, samplers.REJECTION_CAP = samplers.REJECTION_CAP, cap
        try:
            with pytest.raises(SamplingError if algo == "poisson" else RegionTooSmallError):
                generate(algo, dom, None if algo == "poisson" else 5, RngState(4))
        finally:
            samplers.REJECTION_CAP = old_cap
        with pytest.raises(RegionTooSmallError):
            brute_draw_unit_batch(RngState(4), ref, 1, cap)
        _assert_same_calls(dom.viability, ref.viability)
        assert form == "array" or len(dom.viability.seen) == cap


class TestParamValues:
    """Parameter values of the wrong kind or out of range raise before
    anything is drawn."""

    @pytest.mark.parametrize("algo,n,params,message", [
        ("bc", 5, {"ncand": 2.5}, "'ncand' of algorithm 'bc' must be an integer, got 2.5"),
        ("hybrid", 5, {"refresh": True}, "'refresh' of algorithm 'hybrid' must be an integer"),
        ("lhs-maximin", 5, {"ntries": "3"}, "'ntries' of algorithm 'lhs-maximin' must be an"),
        ("grid", None, {"bins": [2, 2.5]}, "'bins' of algorithm 'grid' must be an integer"),
        ("cvt", 5, {"alpha1": math.nan}, "'alpha1' of algorithm 'cvt' must be a finite number"),
        ("poisson", None, {"r": math.inf}, "'r' of algorithm 'poisson' must be a finite number"),
        ("poisson", None, {"r": 10 ** 400}, "'r' of algorithm 'poisson' must be a finite number"),
        # Range faults, raised by the configs, named by the user's parameter.
        ("lhs-maximin", 5, {"ntries": 0}, "'ntries' of algorithm 'lhs-maximin' must be >= 1, got 0"),
        ("lhs-maximin", 5, {"ninterchanges": -1},
         "'ninterchanges' of algorithm 'lhs-maximin' must be >= 0, got -1"),
        ("cvt", 5, {"niter": 0}, "'niter' of algorithm 'cvt' must be >= 1, got 0"),
        ("cvt", 5, {"ppi": 0}, "'ppi' of algorithm 'cvt' must be >= 1, got 0"),
        ("cvt", 5, {"tol": -1}, "'tol' of algorithm 'cvt' must be nonnegative, got -1.0"),
        ("cvt", 5, {"alpha2": 0}, "'alpha2' of algorithm 'cvt' must be positive, got 0.0"),
        ("cvt", 5, {"beta1": 0.5}, "'beta1' + 'beta2' of algorithm 'cvt' must equal 1, got 0.5 + 1.0"),
        ("poisson", None, {"r": 0}, "'r' of algorithm 'poisson' must be positive and finite, got 0.0"),
        ("poisson", None, {"ncand": 0}, "'ncand' of algorithm 'poisson' must be >= 1, got 0"),
        ("bc", 5, {"ncand": 0}, "'ncand' of algorithm 'bc' must be >= 1, got 0"),
        ("greedyfp", 5, {"scale": 0}, "'scale' of algorithm 'greedyfp' must be >= 1, got 0"),
        ("hybrid", 5, {"refresh": 0}, "'refresh' of algorithm 'hybrid' must be >= 1, got 0"),
        ("grid", None, {"bins": 0}, "'bins' of algorithm 'grid' must be >= 1, got 0"),
        ("stratified", None, {"bins": [3, 0]}, "'bins' of algorithm 'stratified' must be >= 1, got [3, 0]"),
        ("lhs-basic", 5, {"placement": "middle"},
         "'placement' of algorithm 'lhs-basic' must be 'random' or 'center', got 'middle'"),
        # grid_sampling's shape and size rules, checked once the dimension is known.
        ("grid", None, {"bins": [2, 2, 2]},
         "'bins' of algorithm 'grid' must have 1 or 2 entries, got [2, 2, 2]"),
        ("stratified", None, {"bins": 10 ** 4},
         "'bins' of algorithm 'stratified' must make at most 10000000 cells, got 10000 "
         "(100000000 cells)"),
    ])
    def test_generate_leaves_rng_untouched(self, algo, n, params, message):
        rng = RngState(9)
        with pytest.raises(ValueError, match="^parameter " + re.escape(message)):
            generate(algo, Domain.unit(2), n, rng, params)
        assert rng.random() == RngState(9).random()

    def test_table_defaults_match_signature_defaults(self):
        """The table's defaults build the configs the samplers default to,
        and the comparison's method parameters are the table's defaults."""
        for algo, sampler in [("greedyfp", sf.greedy_fp), ("bc", sf.best_candidate),
                              ("hybrid", sf.hybrid_bc_fp), ("lhs-maximin", sf.lhs_maximin),
                              ("cvt", sf.cvt_sampling)]:
            default = inspect.signature(sampler).parameters["config"].default
            assert samplers._checked(algo, None, 1) == default, algo
        for method, params in bench.COMPARISON_METHODS:
            assert params == {key: samplers.TABLE_DEFAULTS[method][key] for key in params}

    def test_integral_values_accepted(self):
        def out(algo, n, params):
            return generate(algo, Domain.unit(2), n, RngState(1), params).points.tobytes()
        assert out("grid", None, {"bins": [2.0, 3]}) == out("grid", None, {"bins": [2, 3]})
        assert out("bc", 4, {"ncand": 7.0}) == out("bc", 4, {"ncand": 7})

    @pytest.mark.parametrize("bins", [2.7, [2, 1.5], math.nan, math.inf, "3", True])
    def test_grid_rejects_non_integral_bins(self, bins):
        rng = RngState(9)
        with pytest.raises(ValueError, match="bins_per_dim entries must be integers"):
            sf.grid_sampling(Domain.unit(2), bins, GridMode.STRATIFIED_RANDOM, rng)
        assert rng.random() == RngState(9).random()

    @pytest.mark.parametrize("dim,bins,message", [
        (2, [2, 2, 2], "must have 1 or 2 entries, got [2, 2, 2]"),
        (1, [2, 2], "must have 1 entry, got [2, 2]"),
        (2, [5000, 5000], "must make at most 10000000 cells, got [5000, 5000] (25000000 cells)"),
        (4, 100, "must make at most 10000000 cells, got 100 (100000000 cells)"),
        (2, [3, 0], "must be >= 1, got [3, 0]"),
    ])
    def test_grid_bins_faults_leave_rng_untouched(self, dim, bins, message):
        """grid_sampling states generate's grid rules, named by its parameter."""
        rng = RngState(9)
        with pytest.raises(ValueError, match="^bins_per_dim " + re.escape(message) + "$"):
            sf.grid_sampling(Domain.unit(dim), bins, GridMode.STRATIFIED_RANDOM, rng)
        assert rng.random() == RngState(9).random()

    @pytest.mark.parametrize("make", [
        lambda: PoissonConfig(radius=math.inf),
        lambda: PoissonConfig(radius=math.nan),
        lambda: CvtConfig(n_iter=math.nan),
        lambda: CvtConfig(alpha1=math.nan, alpha2=math.nan),
        lambda: CvtConfig(beta2=math.inf),
        lambda: CvtConfig(convergence_tol=math.nan),
    ])
    def test_configs_reject_non_finite(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


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
        shell = _outside(old_box, domains[0]) if exclude else domains[0]
        rng, ref_rng = RngState(seed), RngState(seed)
        old_cap, samplers.REJECTION_CAP = samplers.REJECTION_CAP, cap
        try:
            try:
                out = _draw_unit_batch(rng, shell, count)
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

    @pytest.mark.parametrize("placement", list(BinPlacement))
    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_matches_per_dimension_loop(self, n, placement):
        """One offset draw for every dimension gives the points and the
        stream position of one draw per dimension."""
        for d, seed in itertools.product(range(1, 7), range(4)):
            rng, ref_rng = RngState(seed), RngState(seed)
            out = samplers._lhs_unit(rng, n, d, placement)
            ref = loop_lhs_unit(ref_rng, n, d, placement)
            assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
            assert out.flags.c_contiguous
            assert rng.random() == ref_rng.random()


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

    # Center-placement (d, n) cases in which an unchanged pair ties the
    # minimum while every changed pair is farther, so only the rebuild
    # rejects the attempt.
    CENTER_TIES = {(2, 50), (2, 200), (3, 50), (10, 50)}

    @pytest.mark.parametrize("placement", list(BinPlacement))
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("n", [2, 3, 50, 200])
    def test_matches_full_rebuild_reference(self, placement, d, n):
        cfg = LhsConfig(n_tries=2, n_interchanges=150, bin_placement=placement)
        dom = Domain.unit(d)
        rng, ref_rng = RngState(7 * n + d), RngState(7 * n + d)
        trace, ref_trace = [], []
        out = sf.lhs_maximin(dom, n, rng, cfg, trace=trace)
        ref, ties = brute_lhs_maximin(dom, n, ref_rng, cfg, trace=ref_trace)
        assert np.array_equal(out.points, ref.points)
        assert trace == ref_trace
        assert rng.random() == ref_rng.random()
        if placement is BinPlacement.BIN_CENTER and (d, n) in self.CENTER_TIES:
            assert ties > 0


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


class TestLatinPropertyHolds:
    def test_lhs_and_latinize_outputs(self, unit2):
        assert sf.latin_property_holds(sf.lhs_basic(unit2, 50, RngState(19)))
        assert sf.latin_property_holds(sf.lhs_basic(Domain([10.0, -3.0], [20.0, 5.0]), 7,
                                                    RngState(20)))
        pts = SampleSet(unit2, RngState(21).random((30, 2)))
        assert sf.latin_property_holds(sf.latinize(pts, RngState(22)))

    def test_coordinate_in_neighbouring_bin(self, unit2):
        s = sf.lhs_basic(unit2, 10, RngState(23), BinPlacement.BIN_CENTER)
        pts = s.points.copy()
        i = int(np.argmin(pts[:, 1]))  # bin 0; bin 1 is taken by another point
        pts[i, 1] += 0.1
        assert not sf.latin_property_holds(SampleSet(unit2, pts))

    def test_edges(self, unit2):
        # Interior edges k/n open their bin, and 1.0 closes the last one.
        pts = [[0.0, 1.0], [0.25, 0.3], [0.5, 0.6], [0.75, 0.1]]
        assert sf.latin_property_holds(SampleSet(unit2, pts))
        below = [[0.0, 1.0], [np.nextafter(0.25, 0.0), 0.3], [0.5, 0.6], [0.75, 0.1]]
        assert not sf.latin_property_holds(SampleSet(unit2, below))

    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_single_point(self, unit2, v):
        assert sf.latin_property_holds(SampleSet(unit2, [[v, 1.0 - v]]))

    def test_empty_set(self, unit2):
        assert sf.latin_property_holds(SampleSet(unit2, np.empty((0, 2))))

    def test_matches_bin_search_and_latinize(self):
        """On sets whose values sit at bin edges k/n, one ulp either side of
        one, inside a bin or at 1.0, with ties: the rank test agrees with a
        search among the edges, and holds exactly when latinize draws
        nothing."""
        rs = np.random.default_rng(26)
        first = RngState(1).random()
        answers = []
        for _ in range(10_000):
            n, d = int(rs.integers(1, 13)), int(rs.integers(1, 4))
            k = np.argsort(rs.random((n, d)), axis=0)  # a permutation of the bins per column
            lo, hi = k / n, (k + 1.0) / n
            values = [lo, np.nextafter(lo, 1.0), lo + rs.random((n, d)) * (hi - lo),
                      np.nextafter(hi, 0.0), np.nextafter(lo, 0.0), hi, np.ones((n, d))]
            miss = rs.choice([0.0, 0.02, 0.1, 0.3])
            pick = rs.choice(len(values), size=(n, d),
                             p=[(1 - miss) / 4] * 4 + [miss * 0.4, miss * 0.4, miss * 0.2])
            u = np.clip(np.choose(pick, values), 0.0, 1.0)
            if n > 1 and rs.random() < 0.2:  # a tie
                j = rs.integers(d)
                u[rs.integers(n), j] = u[rs.integers(n), j]
            s = SampleSet(Domain.unit(d), u)
            holds = sf.latin_property_holds(s)
            assert holds == searchsorted_latin_property_holds(s)
            rng = RngState(1)
            sf.latinize(s, rng)
            assert holds == (rng.random() == first)
            answers.append(holds)
        assert 2_000 < sum(answers) < 8_000


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

    def test_peak_rss_with_4000_generators(self):
        """The nearest-generator assignment runs in blocks of at most 2^18
        squared distances (65 x 4,000 here, 2 MB), so one iteration with
        8,192 points against 4,000 generators peaks under 160 MB in a fresh
        interpreter; one 8,192 x 4,000 block alone is 262 MB."""
        _, peak_kib = child_peak_rss_kib(
            "from spacefill.core import Domain, RngState",
            "from spacefill.samplers import CvtConfig, cvt_sampling",
            "cvt_sampling(Domain.unit(2), 4000, RngState(1), CvtConfig(n_iter=1, ppi=8192))",
        )
        assert peak_kib < 160 * 1024


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

    def recording(rng, domain, count):
        sizes.append(count)
        return real(rng, domain, count)

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

    def test_peak_memory_is_one_distance_block(self):
        """Each winner is copied into one preallocated buffer, so no batch
        outlives its step.  At 10D with n = 500 the traced peak is about one
        250 x 500 block of squared distances (1 MB); a 250 x 10 batch kept
        alive per step would add 10 MB."""
        domain = Domain.unit(10)
        sf.best_candidate(domain, 5, RngState(35))  # imports scipy outside the trace
        tracemalloc.start()
        try:
            sf.best_candidate(domain, 500, RngState(36))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

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


def _greedy_dup_oracle(x, count, first):
    """Naive greedy max-min over rows of x that may repeat: a taken row
    never wins again, and ties go to the lowest index."""
    picks = [first]
    for _ in range(count - 1):
        best = None
        for i in range(len(x)):
            if i in picks:
                continue
            score = min(sum((x[i][k] - x[p][k]) ** 2 for k in range(len(x[i]))) for p in picks)
            if best is None or score > best[1]:
                best = (i, score)
        picks.append(best[0])
    return picks


class TestDuplicatePoints:
    """Repeated candidate or existing points: no crash, the same result on
    a rerun, and every count and invariant kept."""

    # Ten candidates, six distinct points; rows 0, 2 and 9 are one point.
    ROWS = [0, 1, 0, 2, 3, 1, 4, 5, 5, 0]

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("count", [1, 6, 10])
    def test_greedy_picks_duplicate_candidates(self, weighted, count):
        x = RngState(40).random((6, 2))[self.ROWS]
        weights = np.linspace(0.5, 1.0, len(x)) if weighted else None

        def picks():
            return samplers._greedy_picks(x, np.empty((0, 2)), count, 0, weights)
        got = picks()
        assert len(got) == count and len(set(got)) == count
        assert got == picks()
        # A twin of a picked point is never picked while a new point is left.
        distinct = min(count, 6)
        assert len({tuple(x[i]) for i in got[:distinct]}) == distinct
        if not weighted:
            assert got == _greedy_dup_oracle(x.tolist(), count, 0)

    @pytest.mark.parametrize("algo,params", [
        ("greedyfp", {"scale": 4}),
        ("hybrid", {"scale": 4, "refresh": 3}),
        ("bc", {"ncand": 8}),
    ])
    def test_duplicate_existing_points(self, unit2, algo, params):
        # Each existing point appears twice, and the existing points are the
        # first rows of the first candidate draw, so candidates repeat them.
        first = RngState(41).random((3, 2))
        existing = SampleSet(unit2, np.vstack([first, first]))

        def run():
            return generate(algo, unit2, 10, RngState(41), params, existing)
        out = run()
        assert len(out) == 16 and out.frozen_count == 6
        assert np.array_equal(out.points[:6], existing.points)
        assert out.points.tobytes() == run().points.tobytes()
        new = out.points[6:]
        assert cdist(new, existing.points).min() > 0 and pdist(new).min() > 0

    @pytest.mark.parametrize("points", [
        [[0.3, 0.3]] * 5,
        [[0.1, 0.9], [0.5, 0.5], [0.1, 0.9], [0.95, 0.05], [0.5, 0.5], [0.1, 0.9]],
        [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]],
    ])
    def test_latinize_duplicates(self, unit2, points):
        s = SampleSet(unit2, points)
        out = sf.latinize(s, RngState(42))
        assert out.points.tobytes() == sf.latinize(s, RngState(42)).points.tobytes()
        assert out.points.tobytes() == brute_latinize(s, RngState(42)).points.tobytes()
        assert len(out) == len(points)
        assert_latin(out.points)
        assert sf.latin_property_holds(out)


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


class TestArrayFormErrors:
    """Through each sampler path, a bad value of an array-form density
    fails with the per-point form's message, and a wrong shape raises."""

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, 2.0])
    @pytest.mark.parametrize("run", ["rejection", "greedyfp", "bc", "cvt"])
    def test_density_messages(self, bad, run):
        messages = []
        for batch in (False, True):
            fn = lambda p: bad if p[0] < 0.3 else 0.5  # noqa: E731
            if batch:
                fn.batch = lambda pts: np.where(pts[:, 0] < 0.3, bad, 0.5)
            dom = Domain.unit(2, density=fn, density_max=1.0)
            with pytest.raises(SamplingError) as err:
                if run == "rejection":
                    sf.rejection_sample_density(dom, 50, RngState(3))
                else:
                    generate(run, dom, 20, RngState(3), {"niter": 2, "ppi": 100} if run == "cvt" else None)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("algorithm", ["random", "poisson"])
    def test_wrong_viability_shape(self, algorithm):
        fn = lambda p: True  # noqa: E731
        fn.batch = lambda pts: np.ones((len(pts), 1), dtype=bool)
        dom = Domain.unit(2, viability=fn)
        with pytest.raises(ValueError, match=r"batch form returned shape \(\d+, 1\)"):
            generate(algorithm, dom, None if algorithm == "poisson" else 5, RngState(4))


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


# Small parameters, so that every call of the rule table that may run is quick.
RULE_PARAMS = {
    "random": {}, "grid": {"bins": 3}, "stratified": {"bins": 3}, "lhs-basic": {},
    "lhs-maximin": {"ntries": 1, "ninterchanges": 5}, "cvt": {"niter": 2, "ppi": 50},
    "poisson": {"r": 0.4, "ncand": 5}, "greedyfp": {"scale": 3}, "bc": {"ncand": 5},
    "hybrid": {"scale": 3, "refresh": 1},
}


class TestAlgorithmIdRules:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("algo", sorted(RULE_PARAMS))
    def test_rule_table(self, algo, d):
        """Every count, existing set and viability form: a call either
        raises ValueError before its first draw and its first viability
        call, or returns the existing points followed by the right number
        of new ones."""
        calls = []

        def viable(p):
            calls.append(p)
            return p[0] >= 0.3

        counted = algo not in ("poisson", "grid", "stratified")
        for n, prior, form in itertools.product([None, 0, 1, 2], [None, 0, 3],
                                                [None, "point", "array"]):
            viable.batch = (lambda pts: pts[:, 0] >= 0.3) if form == "array" else None
            dom = Domain.unit(d, viability=viable if form else None)
            existing = None if prior is None else SampleSet(
                dom, np.linspace(0.4, 0.9, prior * d).reshape(prior, d), frozen_count=prior)
            ok = ((n is None) != counted
                  and (n is None or n >= (2 if algo == "lhs-maximin" else 1))
                  and (prior is None or algo in ("random", "greedyfp", "bc", "hybrid"))
                  and (form is None or algo not in ("grid", "stratified", "lhs-basic", "lhs-maximin")))
            case = f"{algo} d={d} n={n} existing={prior} viability={form}"
            rng = RngState(7)
            calls.clear()
            try:
                out = generate(algo, dom, n, rng, RULE_PARAMS[algo], existing)
            except ValueError:
                assert not ok, case
                assert rng.random() == RngState(7).random() and not calls, case
                continue
            assert ok, case
            new = len(out) - (prior or 0)
            assert out.frozen_count == (prior or 0), case
            want = {"grid": 3 ** d, "stratified": 3 ** d}.get(algo, n)
            assert new >= 1 if algo == "poisson" else new == want, case
            assert existing is None or out.points[:prior].tobytes() == existing.points.tobytes(), case


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

    @pytest.mark.parametrize("algo, params, public, config", [
        ("greedyfp", {"scale": 4}, sf.greedy_fp, FpConfig(scale=4)),
        ("bc", {"ncand": 30}, sf.best_candidate, FpConfig(n_cand_fixed=30)),
        ("hybrid", {"scale": 4, "refresh": 7}, sf.hybrid_bc_fp,
         FpConfig(scale=4, refresh_count=7)),
    ])
    @pytest.mark.parametrize("prior", [0, 5])
    def test_incremental_ids_match_public_functions(self, unit2, algo, params, public, config,
                                                    prior):
        existing = sf.random_sampling(unit2, prior, RngState(42)) if prior else None
        a = generate(algo, unit2, 20, RngState(43), params, existing)
        b = public(unit2, 20, RngState(43), config, existing)
        assert a.points.tobytes() == b.points.tobytes() and a.frozen_count == b.frozen_count

    @pytest.mark.parametrize("algo", samplers.INCREMENTAL_ALGORITHMS)
    @pytest.mark.parametrize("dim, value, message", [
        (3, 0.5, "existing set dimension does not match the domain"),
        (2, 1.5, "existing points lie outside the sampling box"),
    ], ids=["dimension", "box"])
    def test_existing_set_checked_before_drawing(self, unit2, algo, dim, value, message):
        """Every incremental id, random included, checks an existing set
        against the domain before its first draw."""
        existing = SampleSet(Domain(np.zeros(dim), np.full(dim, 2.0)), np.full((2, dim), value))
        rng = RngState(44)
        with pytest.raises(ValueError, match=message):
            generate(algo, unit2, 3, rng, RULE_PARAMS[algo], existing)
        assert rng.random() == RngState(44).random()
