import numpy as np
import pytest

from spacefill.core import (
    Domain,
    RngState,
    SampleSet,
    derive_seed,
    min_pair,
    nearest_neighbor_distances,
    scale_from_unit,
    scale_to_unit,
)

from conftest import brute_min_pair, brute_nn_distances


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
        assert d.dim == 3 and d.is_unit

    def test_density_bound_enforced(self):
        d = Domain([0.0], [1.0], density=lambda p: 2.0, density_max=1.0)
        from spacefill.core import SamplingError
        with pytest.raises(SamplingError):
            d.density_at(np.array([0.5]))


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
