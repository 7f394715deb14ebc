import numpy as np
import pytest

from spacefill import presets


def _on_curve(rs, n, d):
    """Points with x1 exactly on 3 * (x0 - 0.5)^2 as the presets round it,
    half of them nudged one ulp either way."""
    pts = rs.random((n, d))
    c = pts[:, 0] - 0.5
    pts[:, 1] = 3.0 * (c * c)
    pts[1::4, 1] = np.nextafter(pts[1::4, 1], np.inf)
    pts[2::4, 1] = np.nextafter(pts[2::4, 1], -np.inf)
    return pts


class TestArrayForms:
    """Each preset's array form gives, bit for bit, its per-point values."""

    @pytest.mark.parametrize("name", sorted(presets.VIABILITIES))
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_viability(self, name, d):
        fn = presets.viability_by_name(name)
        rs = np.random.default_rng(d)
        for pts in (_on_curve(rs, 20_000, d), rs.random((20_000, d))):
            want = np.array([fn(p) for p in pts])
            got = fn.batch(pts)
            assert got.dtype == bool and np.array_equal(got, want)

    def test_curve_points_are_on_the_boundary(self):
        pts = _on_curve(np.random.default_rng(0), 4_000, 2)
        above = presets.viability_by_name("parabola-above").batch(pts)
        below = presets.viability_by_name("parabola-below").batch(pts)
        assert np.all(above[0::4] & below[0::4])
        assert np.all(above[1::4] & ~below[1::4])
        assert np.all(~above[2::4] & below[2::4])

    @pytest.mark.parametrize("d", [1, 2, 4, 10])
    def test_density(self, d):
        fn, top = presets.density_by_name("gauss-center")
        pts = np.random.default_rng(d).random((20_000, d))
        want = np.array([fn(p) for p in pts])
        got = fn.batch(pts)
        assert got.tobytes() == want.tobytes()
        assert got.max() <= top
