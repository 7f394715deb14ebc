import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from spacefill.core import (
    _BLOCK_DISTANCES,
    _row_blocks,
    Domain,
    RngState,
    SampleSet,
    SamplingError,
    condensed_pair,
    derive_seed,
    min_pair,
    min_squared_dists,
    nearest_labels,
    nearest_neighbor_distances,
    scale_from_unit,
    scale_to_unit,
    squared_distance_matrix,
)

from conftest import brute_min_pair, brute_nn_distances

# Finite sets whose squared distances overflow float64: every pair of the
# triple, and only the pairs across the two far pairs.
_WIDE = Domain([-1e200, -1e200], [1e200, 1e200])
FAR_TRIPLE = SampleSet(_WIDE, [[-1e200, -1e200], [1e200, 1e200], [1e200, -1e200]])
TWO_FAR_PAIRS = SampleSet(_WIDE, [[-1e200, 0.0], [-1e200, 1.0], [1e200, 0.0], [1e200, 1.0]])


class TestDomain:
    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            Domain([0.0, 1.0], [1.0, 1.0])

    def test_lower_above_upper_rejected(self):
        with pytest.raises(ValueError):
            Domain([2.0], [1.0])

    def test_density_requires_max(self):
        with pytest.raises(ValueError):
            Domain([0.0], [1.0], density=lambda p: 1.0)

    def test_unit(self):
        d = Domain.unit(3)
        assert d.dim == 3 and np.all(d.lower == 0) and np.all(d.upper == 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_density_non_finite_rejected(self, bad):
        d = Domain([0.0], [1.0], density=lambda p: bad, density_max=1.0)
        from spacefill.core import SamplingError
        with pytest.raises(SamplingError) as err:
            d.density_at(np.array([0.5]))
        assert str(err.value) == f"density returned a non-finite value {bad!r}"

    def test_density_bound_enforced(self):
        d = Domain([0.0], [1.0], density=lambda p: 2.0, density_max=1.0)
        from spacefill.core import SamplingError
        with pytest.raises(SamplingError):
            d.density_at(np.array([0.5]))


    def test_density_max_must_be_finite(self):
        with pytest.raises(ValueError) as err:
            Domain.unit(2, density=lambda p: 1.0, density_max=float("inf"))
        assert str(err.value) == "density_max must be finite, got inf"


def _row_valued(table):
    """A density on [0, 4] whose value at a point is table[int(x0)], as a
    per-point callable and as its twin with an array form."""
    def point(p):
        return table[int(p[0])]

    def twin(p):
        return point(p)
    twin.batch = lambda pts: np.array([table[int(x)] for x in pts[:, 0]])
    return point, twin


class TestArrayForms:
    """Domain.viable and Domain.densities through the array form give the
    per-point form's values and fail with its messages."""

    PTS = np.array([[0.5], [1.5], [2.5], [3.5]])

    @pytest.mark.parametrize("table", [
        [0.5, float("nan"), -1.0, 2.0],
        [0.5, 2.0, float("nan"), -1.0],
        [0.5, -1.0, 2.0, float("inf")],
        [0.5, 1.0, 0.0, -float("inf")],
    ])
    def test_first_offending_row_message(self, table):
        messages = []
        for fn in _row_valued(table):
            dom = Domain([0.0], [4.0], density=fn, density_max=1.0)
            with pytest.raises(SamplingError) as err:
                dom.densities(self.PTS)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_densities_match(self):
        table = [0.5, 1.0, 0.0, 0.25]
        a, b = (Domain([0.0], [4.0], density=fn, density_max=1.0).densities(self.PTS)
                for fn in _row_valued(table))
        assert a.tobytes() == b.tobytes() == np.array(table).tobytes()

    def test_viable_matches(self):
        def point(p):
            return p[0] < 2.0
        twin = lambda p: point(p)  # noqa: E731
        twin.batch = lambda pts: pts[:, 0] < 2.0
        masks = [Domain([0.0], [4.0], viability=fn).viable(self.PTS) for fn in (point, twin)]
        assert masks[0].tolist() == masks[1].tolist() == [True, True, False, False]

    @pytest.mark.parametrize("shape", [(4, 1), (3,), ()])
    def test_wrong_shape_rejected(self, shape):
        fn = lambda p: 0.5  # noqa: E731
        fn.batch = lambda pts: np.full(shape, 0.5)
        want = f"batch form returned shape {shape} for 4 points; expected (4,)"
        with pytest.raises(ValueError) as err:
            Domain([0.0], [4.0], density=fn, density_max=1.0).densities(self.PTS)
        assert str(err.value) == want
        with pytest.raises(ValueError) as err:
            Domain([0.0], [4.0], viability=fn).viable(self.PTS)
        assert str(err.value) == want

    def test_sample_set_names_first_failing_point(self):
        messages = []
        for batch in (False, True):
            fn = lambda p: p[0] < 1.0 or p[0] > 3.0  # noqa: E731
            if batch:
                fn.batch = lambda pts: (pts[:, 0] < 1.0) | (pts[:, 0] > 3.0)
            with pytest.raises(ValueError) as err:
                SampleSet(Domain([0.0], [4.0], viability=fn), self.PTS)
            messages.append(str(err.value))
        assert messages == ["point 1 violates the viability predicate"] * 2


class TestSampleSet:
    def test_points_outside_box_rejected(self, unit2):
        with pytest.raises(ValueError):
            SampleSet(unit2, [[0.5, 1.5]])

    def test_viability_checked(self):
        d = Domain([0.0, 0.0], [1.0, 1.0], viability=lambda p: p[0] < 0.5)
        with pytest.raises(ValueError):
            SampleSet(d, [[0.9, 0.5]])

    def test_frozen_count_range(self, unit2):
        with pytest.raises(ValueError):
            SampleSet(unit2, [[0.5, 0.5]], frozen_count=2)

    def test_points_immutable(self, unit2):
        s = SampleSet(unit2, [[0.5, 0.5]])
        with pytest.raises(ValueError):
            s.points[0, 0] = 0.1

    def test_empty_set(self, unit2):
        s = SampleSet(unit2, [])
        assert len(s) == 0 and s.points.shape == (0, 2)


class TestScaling:
    def test_midpoint_maps_to_midpoint(self):
        d = Domain([2.0, 0.0], [4.0, 10.0])
        s = SampleSet(d, [[3.0, 5.0]])
        u = scale_to_unit(s)
        assert np.allclose(u.points, [[0.5, 0.5]])

    def test_unit_domain_unchanged(self, unit2, rng):
        pts = rng.random((20, 2))
        s = SampleSet(unit2, pts)
        assert np.array_equal(scale_to_unit(s).points, pts)

    def test_endpoints(self):
        d = Domain([-1.0], [1.0])
        s = SampleSet(d, [[-1.0], [1.0]])
        u = scale_to_unit(s)
        assert u.points[0, 0] == 0.0 and u.points[1, 0] == 1.0

    def test_round_trip_within_1e12(self):
        rng = RngState(7)
        for _ in range(20):
            dim = 1 + rng.integers(5)
            lo = np.array([rng.uniform(-5, 5) for _ in range(dim)])
            hi = lo + np.array([0.1 + rng.uniform(0, 10) for _ in range(dim)])
            d = Domain(lo, hi)
            pts = lo + rng.random((30, dim)) * (hi - lo)
            s = SampleSet(d, pts)
            back = scale_from_unit(scale_to_unit(s), d)
            assert np.max(np.abs(back.points - pts)) < 1e-12

    def test_frozen_count_preserved(self, unit2):
        s = SampleSet(unit2, [[0.1, 0.1], [0.9, 0.9]], frozen_count=1)
        assert scale_to_unit(s).frozen_count == 1


class TestNearestNeighbor:
    def test_1d_hand_example(self):
        d = Domain([0.0], [1.0])
        s = SampleSet(d, [[0.0], [0.4], [1.0]])
        assert np.allclose(nearest_neighbor_distances(s), [0.4, 0.4, 0.6])

    def test_unit_square_corners(self, unit2):
        s = SampleSet(unit2, [[0, 0], [0, 1], [1, 0], [1, 1]])
        assert np.allclose(nearest_neighbor_distances(s), [1, 1, 1, 1])

    def test_matches_brute_force_exactly(self):
        rng = RngState(3)
        d = Domain.unit(4)
        pts = rng.random((50, 4))
        s = SampleSet(d, pts)
        got = nearest_neighbor_distances(s)
        want = brute_nn_distances(pts.tolist())
        assert np.allclose(got, want, rtol=0, atol=0)

    def test_requires_two_points(self, unit2):
        with pytest.raises(ValueError):
            nearest_neighbor_distances(SampleSet(unit2, [[0.5, 0.5]]))

    @pytest.mark.parametrize("n, d", [(255, 3), (256, 2), (257, 4), (600, 10), (1500, 3)])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_row_blocks_equal_full_matrix(self, n, d, lattice):
        """Upper-triangle blocks of 256 rows (174 at n = 1,500), reduced by
        rows and by columns, give each minimum the bits of one (n, n)
        matrix, ties and duplicate points included."""
        pts = RngState(n * d).random((n, d))
        if lattice:
            pts = np.round(pts * 4) / 4
        want = np.sqrt(squared_distance_matrix(pts).min(axis=1))
        got = nearest_neighbor_distances(SampleSet(Domain.unit(d), pts))
        assert got.tobytes() == want.tobytes()

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="overflows float64"):
            nearest_neighbor_distances(FAR_TRIPLE)

    def test_far_pairs_that_are_no_nearest_neighbor_are_fine(self):
        assert nearest_neighbor_distances(TWO_FAR_PAIRS).tolist() == [1.0] * 4


def _points(n, d, lattice, seed):
    pts = RngState(seed).random((n, d))
    return np.round(pts * 4) / 4 if lattice else pts


class TestBlockRule:
    """Every all-pairs kernel takes its rows in the blocks of one rule: at
    most 256 rows and at most 2^18 squared distances, and at least one row.
    Each row's min or argmin has the bits of one full cdist, ties to the
    first index, on either side of a block edge."""

    @pytest.mark.parametrize("m, step", [(1, 256), (500, 256), (1024, 256), (1025, 255),
                                         (2000, 131), (_BLOCK_DISTANCES, 1),
                                         (_BLOCK_DISTANCES + 1, 1)])
    def test_block_shapes(self, m, step):
        starts = list(range(0, 600, step))
        assert list(_row_blocks(600, m)) == [(s, min(s + step, 600)) for s in starts]

    # rows x m just under, at and over the budget, and one row wider than it.
    EDGES = [(255, 1024), (256, 1024), (257, 1024), (131, 2000), (132, 2000),
             (3, _BLOCK_DISTANCES), (3, _BLOCK_DISTANCES + 1)]

    @pytest.mark.parametrize("n, m", EDGES)
    @pytest.mark.parametrize("lattice", [False, True])
    def test_min_squared_dists(self, n, m, lattice):
        a, b = _points(n, 2, lattice, n), _points(m, 2, lattice, m)
        want = cdist(a, b, "sqeuclidean").min(axis=1)
        assert min_squared_dists(a, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, m", EDGES)
    @pytest.mark.parametrize("lattice", [False, True])
    def test_nearest_labels(self, n, m, lattice):
        a, b = _points(n, 2, lattice, n), _points(m, 2, lattice, m)
        want = cdist(a, b, "sqeuclidean").argmin(axis=1)
        assert np.array_equal(nearest_labels(a, b), want)

    def test_nearest_labels_ties_go_to_the_first_generator(self):
        # Every point is equally far from generators 1 and 3, which repeat
        # each other, and from no closer one.
        gens = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [0.5, 0.5]])
        pts = np.full((600, 2), 0.5) + np.linspace(-0.1, 0.1, 600)[:, None] * [1.0, -1.0]
        assert nearest_labels(pts, gens).tolist() == [1] * 600

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2000])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_nearest_neighbor_distances(self, n, lattice):
        pts = _points(n, 3, lattice, n)
        want = np.sqrt(squared_distance_matrix(pts).min(axis=1))
        got = nearest_neighbor_distances(SampleSet(Domain.unit(3), pts))
        assert got.tobytes() == want.tobytes()


class TestMinPair:
    def test_1d_hand_example(self):
        s = SampleSet(Domain([0.0], [1.0]), [[0.0], [0.4], [1.0]])
        assert min_pair(s) == (0, 1, pytest.approx(0.4, abs=0))

    def test_tie_breaks_to_lowest_pair(self):
        s = SampleSet(Domain([0.0], [2.0]), [[0.0], [1.0], [2.0]])
        i, j, d = min_pair(s)
        assert (i, j) == (0, 1) and d == 1.0

    def test_matches_brute_force(self, unit2):
        pts = RngState(11).random((100, 2))
        s = SampleSet(unit2, pts)
        assert min_pair(s) == brute_min_pair(pts.tolist())

    def test_requires_two_points(self, unit2):
        with pytest.raises(ValueError):
            min_pair(SampleSet(unit2, [[0.5, 0.5]]))

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="overflows float64"):
            min_pair(FAR_TRIPLE)

    def test_far_pairs_beyond_the_closest_are_fine(self):
        assert min_pair(TWO_FAR_PAIRS) == (0, 1, 1.0)

    def test_several_equal_pairs_give_the_smallest(self):
        # Four equally close pairs, listed out of order: (1, 4), (0, 3),
        # (2, 5) and (0, 6).  The lexicographically smallest is (0, 3).
        pts = [[0.5, 0.5], [0.125, 0.125], [0.875, 0.125], [0.5, 0.75],
               [0.125, 0.375], [0.875, 0.375], [0.5, 0.25]]
        s = SampleSet(Domain.unit(2), pts)
        assert min_pair(s) == (0, 3, 0.25)
        assert brute_min_pair(pts)[:2] == (0, 3)

    def test_duplicates_give_the_smallest_pair(self, unit2):
        pts = [[0.1, 0.2], [0.7, 0.7], [0.3, 0.3], [0.7, 0.7], [0.3, 0.3]]
        assert min_pair(SampleSet(unit2, pts)) == (1, 3, 0.0)


class TestCondensedPairs:
    """The condensed (pdist) kernel behind min_pair, phi_p and lhs_maximin."""

    @pytest.mark.parametrize("n", [2, 3, 7, 1000])
    def test_map_matches_triu_indices(self, n):
        i, j = condensed_pair(np.arange(n * (n - 1) // 2), n)
        want_i, want_j = np.triu_indices(n, 1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)

    def test_scalar_index(self):
        assert condensed_pair(0, 2) == (0, 1)
        assert condensed_pair(20, 7) == (5, 6)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_pdist_equals_cdist_upper_triangle(self, d):
        # lhs_maximin and min_pair read pdist where they once read cdist;
        # their pinned outputs rely on the two kernels agreeing bit for bit.
        x = RngState(100 + d).random((60, d))
        upper = cdist(x, x, "sqeuclidean")[np.triu_indices(60, 1)]
        assert np.array_equal(pdist(x, "sqeuclidean"), upper)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_two_row_cdist_equals_pdist(self, d):
        # lhs_maximin rejects a swap from a 2 x n cdist of the two swapped
        # rows and accepts it from pdist; both must give a pair the same bits.
        x = RngState(200 + d).random((60, d))
        full = squareform(pdist(x, "sqeuclidean"))
        for rows in ([0, 59], [17, 3], [42, 43]):
            assert np.array_equal(cdist(x[rows], x, "sqeuclidean"), full[rows])

    def test_pdist_equals_cdist_on_tied_lattice(self):
        x = np.indices((5, 4, 3)).reshape(3, -1).T / np.array([4.0, 3.0, 2.0])
        n = len(x)
        full = cdist(x, x, "sqeuclidean")
        d2 = pdist(x, "sqeuclidean")
        assert np.array_equal(d2, full[np.triu_indices(n, 1)])
        # The first minimum in condensed order is the full matrix's argmin.
        np.fill_diagonal(full, np.inf)
        assert condensed_pair(int(np.argmin(d2)), n) == divmod(int(np.argmin(full)), n)


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngState(42).random(100)
        b = RngState(42).random(100)
        assert np.array_equal(a, b)

    def test_uniform_bounds_validated(self, rng):
        with pytest.raises(ValueError):
            rng.uniform(1.0, 1.0)

    def test_uniform_mean(self):
        draws = RngState(1).uniform(0.0, 1.0, size=100_000)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_child_streams_differ_and_are_stable(self):
        r = RngState(9)
        c1 = r.child("a")
        c2 = r.child("b")
        assert c1.seed != c2.seed
        assert RngState(9).child("a").seed == c1.seed

    def test_derive_seed_is_platform_stable(self):
        # frozen regression value: sha-256 based derivation must never drift
        assert derive_seed(1, "a") == 2514313960912413249
