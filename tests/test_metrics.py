import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist
from scipy.special import logsumexp

from spacefill import metrics
from spacefill.core import Domain, RngState, SampleSet, min_pair
from spacefill.metrics import _logsumexp, cl2_discrepancy, nn_stats, phi_p, quality_report

from conftest import brute_cl2, brute_cl2_chunked, brute_phi_p, child_peak_rss_kib, format_row


def _set(points, dim=None):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return SampleSet(Domain.unit(dim or pts.shape[1]), pts)


# Finite sets whose squared distances overflow float64: every pair of the
# triple, and only the pairs across the two far pairs.
FAR_TRIPLE = [[-1e200, -1e200], [1e200, 1e200], [1e200, -1e200]]
TWO_FAR_PAIRS = [[-1e200, 0.0], [-1e200, 1.0], [1e200, 0.0], [1e200, 1.0]]


def _wide(points):
    return SampleSet(Domain([-1e200, -1e200], [1e200, 1e200]), points)


class TestNnStats:
    def test_1d_hand_example(self):
        mn, avg, mx = nn_stats(_set([[0.0], [0.4], [1.0]]))
        assert mn == pytest.approx(0.4)
        assert avg == pytest.approx(0.46667, abs=1e-4)
        assert mx == pytest.approx(0.6)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            nn_stats(_set([[0.5, 0.5]]))

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="overflows float64"):
            nn_stats(_wide(FAR_TRIPLE))

    def test_far_pairs_that_are_no_nearest_neighbor_are_fine(self):
        assert nn_stats(_wide(TWO_FAR_PAIRS)) == (1.0, 1.0, 1.0)


class TestPhiP:
    def test_two_points_closed_form(self):
        # single pair at distance 0.5: phi_p = 2 for any p
        assert phi_p(_set([[0.0], [0.5]]), p=50) == pytest.approx(2.0, rel=1e-12)

    def test_equidistant_triple_closed_form(self):
        h = math.sqrt(3.0) / 2.0
        s = _set([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
        assert phi_p(s, p=50) == pytest.approx(3.0 ** (1.0 / 50.0), rel=1e-12)

    @pytest.mark.parametrize("points", [FAR_TRIPLE, TWO_FAR_PAIRS])
    def test_overflow_raises(self, points):
        with pytest.raises(ValueError, match="overflows float64"):
            phi_p(_wide(points))

    def test_largest_finite_squared_distance(self):
        # d2 = 1e308 is still finite, so phi_p is the inverse distance.
        s = SampleSet(Domain([0.0], [1e154]), [[0.0], [1e154]])
        assert phi_p(s) == pytest.approx(1e-154, rel=1e-12)

    def test_duplicates_error_names_pair(self):
        s = _set([[0.1, 0.1], [0.5, 0.5], [0.1, 0.1]])
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            phi_p(s)

    @pytest.mark.parametrize("points", [
        [[0.7, 0.2], [0.3, 0.3], [0.9, 0.9], [0.3, 0.3], [0.7, 0.2]],
        [[0.5, 0.5]] * 4,
        [[0.1, 0.1], [0.2, 0.2], [0.6, 0.6], [0.2, 0.2], [0.6, 0.6], [0.1, 0.1]],
    ])
    def test_duplicate_pair_is_min_pairs(self, points):
        # Several duplicate pairs: phi_p names the one min_pair returns.
        s = _set(points)
        i, j, dist = min_pair(s)
        assert dist == 0.0
        with pytest.raises(ValueError, match=rf"^duplicate points at indices \({i}, {j}\):"):
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


def _phi_p_terms(kind, n, d, seed, p):
    """phi_p's log-sum-exp input for a set of the given kind: ``plain``
    uniform points, a ``lattice`` (tied distances), ``neardup`` (point 1 is
    point 0 moved by 1e-9), ``huge`` (coordinates near 1e200, so pair
    distances overflow to inf) or ``far`` (one point 1e200 away)."""
    rs = np.random.default_rng(seed)
    if kind == "lattice":
        side = max(2, round(n ** (1.0 / d)))
        u = rs.integers(side, size=(n, d)) / side
        u = np.unique(u, axis=0)
    else:
        u = rs.random((n, d))
    if kind == "neardup":
        u[1] = u[0]
        u[1, 0] += 1e-9
    elif kind == "huge":
        u = (u - 0.5) * 4e200
    elif kind == "far":
        u[-1] = 1e200
    if len(u) < 2:
        u = np.vstack([u, u + 0.5])
    return -p * (0.5 * np.log(pdist(u, "sqeuclidean")))


class TestLogSumExp:
    # scipy took its present logsumexp formula in 1.15; older releases
    # round differently, while phi_p's bits stay pinned by the quality
    # digests in test_digests.py.
    @pytest.mark.skipif(tuple(int(x) for x in scipy.__version__.split(".")[:2]) < (1, 15),
                        reason="scipy < 1.15 computes logsumexp with another formula")
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["plain", "lattice", "neardup", "huge", "far"]),
           n=st.integers(2, 300), d=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           p=st.sampled_from([1, 2, 5, 50, 100]))
    def test_bitwise_equal_to_scipy(self, kind, n, d, seed, p):
        with np.errstate(over="ignore"):
            v = _phi_p_terms(kind, n, d, seed, p)
        want = logsumexp(v)
        got = _logsumexp(v)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert np.float64(np.exp(got / p)).tobytes() == np.float64(np.exp(want / p)).tobytes()


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

    @pytest.mark.parametrize("chunk", [7, 256])
    @pytest.mark.parametrize("budget", ["none", "one block"])
    def test_kept_block_budget(self, monkeypatch, chunk, budget):
        """With no room for kept blocks, every block is computed; with room
        for one, a chunk keeps one block and the others are computed.  Both
        equal the reference bit for bit on at least five chunks."""
        monkeypatch.setattr(metrics, "_CL2_KEPT", 0 if budget == "none" else chunk * chunk)
        x = RngState(1100).random((1100, 3))
        x[::5, 1] = 0.5
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


def test_score_peak_rss_on_8000_points(tmp_path):
    """``score`` on 8,000 x 4 rows peaks under 512 MB in a fresh interpreter.
    phi_p works in its one condensed buffer of 32 million doubles (256 MB),
    and the nearest-neighbor distances are taken 256 rows at a time; one
    more condensed buffer or one (n, n) matrix (512 MB) breaks the bound.
    The bound is on the child alone: its VmHWM, not the pytest process."""
    path = tmp_path / "s.csv"
    rows = RngState(8000).random((8000, 4))
    path.write_text("x0,x1,x2,x3\n" + "".join(format_row(r) + "\n" for r in rows))
    out, peak_kib = child_peak_rss_kib(
        "from spacefill import cli",
        f"print(cli.main(['score', '--in', {str(path)!r}]))",
    )
    assert out.splitlines()[-1] == "0"
    assert peak_kib < 512 * 1024


def test_cl2_added_peak_rss_on_8000_points():
    """CL2 on 8,000 x 4 points adds under 40 MB to the resident set of a
    fresh interpreter (VmHWM after the call minus VmRSS before it): one
    (256, n) block of 16.4 MB, three tiles and at most 16 MB of kept
    blocks.  An unbudgeted store of kept blocks, or one more (256, n)
    temporary, breaks the bound."""
    out, peak_kib = child_peak_rss_kib(
        "from spacefill.core import Domain, RngState, SampleSet",
        "from spacefill.metrics import cl2_discrepancy",
        "s = SampleSet(Domain.unit(4), RngState(8000).random((8000, 4)))",
        "print(next(line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmRSS:')))",
        "cl2_discrepancy(s)",
    )
    assert peak_kib - int(out.splitlines()[-1]) < 40 * 1024
