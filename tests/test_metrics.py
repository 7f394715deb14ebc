import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spacefill.core import Domain, RngState, SampleSet
from spacefill.metrics import cl2_discrepancy, nn_stats, phi_p, quality_report

from conftest import brute_cl2, brute_cl2_chunked, brute_phi_p


def _set(points, dim=None):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return SampleSet(Domain.unit(dim or pts.shape[1]), pts)


class TestNnStats:
    def test_1d_hand_example(self):
        mn, avg, mx = nn_stats(_set([[0.0], [0.4], [1.0]]))
        assert mn == pytest.approx(0.4)
        assert avg == pytest.approx(0.46667, abs=1e-4)
        assert mx == pytest.approx(0.6)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            nn_stats(_set([[0.5, 0.5]]))


class TestPhiP:
    def test_two_points_closed_form(self):
        # single pair at distance 0.5: phi_p = 2 for any p
        assert phi_p(_set([[0.0], [0.5]]), p=50) == pytest.approx(2.0, rel=1e-12)

    def test_equidistant_triple_closed_form(self):
        h = math.sqrt(3.0) / 2.0
        s = _set([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
        assert phi_p(s, p=50) == pytest.approx(3.0 ** (1.0 / 50.0), rel=1e-12)

    def test_duplicates_error_names_pair(self):
        s = _set([[0.1, 0.1], [0.5, 0.5], [0.1, 0.1]])
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            phi_p(s)

    def test_matches_brute_force(self):
        pts = RngState(2).random((40, 3))
        got = phi_p(_set(pts), p=50)
        assert got == pytest.approx(brute_phi_p(pts.tolist(), 50), rel=1e-12)

    def test_no_overflow_at_small_distances(self):
        # naive (1/d)^50 overflows double range here; log-space must not
        s = _set([[0.0], [1e-7], [1.0]])
        v = phi_p(s, p=50)
        assert np.isfinite(v) and v == pytest.approx(1e7, rel=1e-6)

    def test_bounds_invariant(self):
        rng = RngState(8)
        for _ in range(20):
            n = 2 + rng.integers(30)
            d = 1 + rng.integers(5)
            pts = rng.random((n, d))
            s = _set(pts, d)
            v = phi_p(s, p=50)
            from spacefill.core import min_pair
            dmin = min_pair(s)[2]
            pairs = n * (n - 1) / 2
            assert 1.0 / dmin <= v * (1 + 1e-12)
            assert v <= pairs ** (1.0 / 50.0) / dmin * (1 + 1e-12)

    def test_monotone_in_added_points(self):
        rng = RngState(9)
        pts = rng.random((20, 2))
        base = phi_p(_set(pts))
        for _ in range(5):
            pts = np.vstack([pts, rng.random((1, 2))])
            grown = phi_p(_set(pts))
            assert grown >= base
            base = grown


class TestCl2:
    def test_single_center_point_hand_value(self):
        assert cl2_discrepancy(_set([[0.5]])) == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-12)

    def test_out_of_range_rejected(self):
        d = Domain([-1.0], [1.0])
        s = SampleSet(d, [[-0.5]])
        with pytest.raises(ValueError):
            cl2_discrepancy(s)

    def test_matches_brute_force(self):
        pts = RngState(4).random((30, 4))
        got = cl2_discrepancy(_set(pts))
        assert got == pytest.approx(brute_cl2(pts), rel=1e-12)

    def test_permutation_invariance(self):
        rng = RngState(5)
        pts = rng.random((25, 3))
        base = cl2_discrepancy(_set(pts))
        shuffled = pts[rng.permutation(25)]
        assert cl2_discrepancy(_set(shuffled)) == pytest.approx(base, rel=1e-12)
        cols = pts[:, rng.permutation(3)]
        assert cl2_discrepancy(_set(cols)) == pytest.approx(base, rel=1e-12)


@st.composite
def cl2_inputs(draw):
    """n <= 700 points in d <= 16 dimensions, with duplicated rows and shares
    of coordinates exactly at 0, 0.5 and 1, and a chunk size."""
    n = draw(st.integers(1, 700))
    d = draw(st.integers(1, 16))
    rs = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rs.random((n, d))
    x[rs.random((n, d)) < draw(st.sampled_from([0.0, 0.2]))] = draw(st.sampled_from([0.0, 0.5, 1.0]))
    if draw(st.booleans()):
        x[rs.integers(0, n, size=n // 3)] = x[rs.integers(0, n)]
    return x, draw(st.sampled_from([1, 7, 256]))


class TestCl2Bitwise:
    @settings(max_examples=60, deadline=None)
    @given(cl2_inputs())
    def test_equals_chunked_prod_reference(self, case):
        """Per-dimension products equal the (chunk, n, d) prod(axis=2)
        reduction bit for bit."""
        x, chunk = case
        assert cl2_discrepancy(_set(x), chunk) == brute_cl2_chunked(x, chunk)


class TestQualityReport:
    def test_fields_and_invariants(self):
        q = quality_report(_set(RngState(6).random((50, 2))))
        assert q.nn_min <= q.nn_avg <= q.nn_max
        assert q.phi_p >= 1.0 / q.nn_min * (1 - 1e-12)
        assert q.cl2 >= 0
        assert q.n == 50 and q.dim == 2 and q.p == 50

    def test_to_dict_keys(self):
        q = quality_report(_set([[0.2, 0.2], [0.8, 0.8]]))
        assert set(q.to_dict()) == {"nnMin", "nnAvg", "nnMax", "phiP", "p", "cl2", "n", "d"}
