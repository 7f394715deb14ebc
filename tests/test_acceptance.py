"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion.

The quantitative criteria rerun the standard comparison at >= 20
repetitions from a fixed seed base and check the means against the
reference values; the property criteria cover the claims that have no
target numbers.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import spacefill as sf
from spacefill import cli
from spacefill.bench import paper_suite, run_experiment
from spacefill.core import Domain, RngState, SampleSet
from spacefill.metrics import cl2_discrepancy, nn_stats, phi_p

from conftest import (
    assert_latin,
    brute_cl2,
    brute_min_pair,
    brute_nn_distances,
    brute_phi_p,
)

ACCEPTANCE_REPS = 20
METHODS = ("random", "lhs-maximin", "greedyfp", "bc", "hybrid")


def report(line):
    # pytest runs with --capture=tee-sys (see pyproject), so these verdict
    # lines stream to the terminal as each criterion finishes
    print(line, flush=True)


def verdict(criterion, ok, detail):
    report(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def within(got, want, tol):
    return abs(got / want - 1.0) <= tol


@pytest.fixture(scope="module")
def suite():
    """All four comparison experiments at acceptance scale, with wall times."""
    out = {}
    for spec in paper_suite(reps_override=ACCEPTANCE_REPS):
        t0 = time.perf_counter()
        rep = run_experiment(spec)
        out[spec.name] = (rep, time.perf_counter() - t0)
        assert not rep.failures, rep.failures
    return out


def _band_check(rep, metric, wants, tol):
    fails = []
    for method, want in wants.items():
        got = rep.cell_mean(method, False, metric)
        if not within(got, want, tol):
            fails.append(f"{method}: got {got:.4f}, want {want} +/-{tol:.0%}")
    return fails


def test_c1_2d500_nn_avg_bands(suite):
    rep, wall = suite["2d-500"]
    wants = {"random": 0.023, "lhs-maximin": 0.027, "greedyfp": 0.039,
             "bc": 0.039, "hybrid": 0.040}
    fails = _band_check(rep, "nn_avg", wants, 0.15)
    if wall >= 300:
        fails.append(f"runtime {wall:.0f}s >= 300s")
    verdict("C1", not fails, f"2D-500 mean nnAvg within 15% of reported values "
            f"({ACCEPTANCE_REPS} reps, {wall:.0f}s)")
    assert not fails, fails


def test_c2_2d500_phi50_bands(suite):
    rep, _ = suite["2d-500"]
    wants = {"lhs-maximin": 67.021, "greedyfp": 32.581, "bc": 32.654, "hybrid": 32.199}
    fails = _band_check(rep, "phi_p", wants, 0.25)
    random_phi = rep.cell_mean("random", False, "phi_p")
    lhs_phi = rep.cell_mean("lhs-maximin", False, "phi_p")
    if not random_phi >= 3.0 * lhs_phi:
        fails.append(f"random phi50 {random_phi:.1f} below 3x LHS {lhs_phi:.1f}")
    verdict("C2", not fails, "2D-500 mean phi50 within 25% (random: >=3x LHS, ordering only)")
    assert not fails, fails


def test_c3_10d1000_nn_avg_bands(suite):
    rep, wall = suite["10d-1000"]
    wants = {"random": 0.509, "lhs-maximin": 0.512, "greedyfp": 0.565,
             "bc": 0.576, "hybrid": 0.575}
    for method, want in wants.items():
        got = rep.cell_mean(method, False, "nn_avg")
        report(f"  C3 {method}: got {got:.4f}, reported {want} "
               f"({'in' if within(got, want, 0.10) else 'OUT of'} +/-10% band)")
    # Informational, not asserted: the Latinized means of the trio that
    # fails (see the note below).
    latinized = ", ".join(f"{method} {rep.cell_mean(method, True, 'nn_avg'):.4f}"
                          for method in ("greedyfp", "bc", "hybrid"))
    report(f"  C3 Latinized nnAvg (informational): {latinized}")
    fails = _band_check(rep, "nn_avg", wants, 0.10)
    if wall >= 900:
        fails.append(f"runtime {wall:.0f}s >= 900s")
    verdict("C3", not fails, f"10D-1000 mean nnAvg within 10% of reported values "
            f"({ACCEPTANCE_REPS} reps, {wall:.0f}s)")
    # Known honest failure: a faithful max-min implementation of the
    # farthest-point trio yields larger 10D nearest-neighbor distances than
    # the reference values; an independently written naive implementation
    # agrees with ours exactly, and the random/LHS rows match the references,
    # so those three reference numbers are not reproducible from the
    # algorithms as stated.  A lead (specs/c3_10d1000.json, 20 reps, default
    # seed base): the Latinized means are greedyfp 0.6052, bc 0.6115 and
    # hybrid 0.6111, 6-7% above the references and inside the band, against
    # plain means of 0.6796, 0.7205 and 0.7162.  No plausible pool size
    # gives the plain references: greedyfp scale 1 / 2 gives 0.5066 / 0.5991
    # and bc ncand 2 / 5 gives 0.5590 / 0.6082 (defaults 10 and 250).
    assert not fails, fails


def test_c4_latinization_reduces_cl2(suite):
    fails = []
    for name, (rep, _) in suite.items():
        for method in METHODS:
            no_lat = rep.cell_mean(method, False, "cl2")
            lat = rep.cell_mean(method, True, "cl2")
            if not lat <= no_lat:
                fails.append(f"{name}/{method}: lat {lat:.5f} > nolat {no_lat:.5f}")
    verdict("C4", not fails, "Latinizing never increases mean CL2 (all methods, all experiments)")
    assert not fails, fails


def test_c5_timing_ordering(suite):
    fails = []
    for name, (rep, _) in suite.items():
        t = rep.method_times
        if not t["random"] == min(t.values()):
            fails.append(f"{name}: random not fastest {t}")
        if not t["lhs-maximin"] == max(t.values()):
            fails.append(f"{name}: LHS not slowest {t}")
        if not t["greedyfp"] < t["hybrid"] < t["bc"]:
            fails.append(f"{name}: FP trio out of order {t}")
    verdict("C5", not fails, "per-experiment timing: random fastest, LHS slowest, "
            "GreedyFP < Hybrid < BC")
    assert not fails, fails


def test_c6_poisson_disk_counts_and_radius():
    domain = Domain.unit(2)
    cfg = sf.PoissonConfig(radius=0.08, n_cand=30)
    counts = []
    fails = []
    for seed in range(50):
        s = sf.poisson_disk(domain, cfg, RngState(seed))
        counts.append(len(s))
        if not pdist(s.points).min() >= 0.08:
            fails.append(f"seed {seed}: min pairwise distance below the radius")
    if not (min(counts) >= 90 and max(counts) <= 115):
        fails.append(f"counts outside [90, 115]: min {min(counts)}, max {max(counts)}")
    verdict("C6", not fails, f"Poisson disk r=0.08: counts {min(counts)}..{max(counts)} "
            "in [90, 115], min distance >= r exactly, 50 seeds")
    assert not fails, fails


def test_c7_maximin_plateau():
    cfg = sf.LhsConfig(n_tries=10, n_interchanges=2000)
    s = sf.lhs_maximin(Domain.unit(2), 100, RngState(123), cfg)
    dist = sf.min_pair(s)[2]
    ok = 0.06 <= dist <= 0.08
    verdict("C7", ok, f"approximate maximin LHS 2D-100, 2000 interchanges, "
            f"best of 10 tries: min distance {dist:.4f} in [0.06, 0.08]")
    assert ok


def test_c8_latin_property_suite():
    meta = RngState(2024)
    checked = 0
    for _ in range(200):
        n = 2 + meta.integers(63)
        d = 1 + meta.integers(6)
        seed = meta.integers(1 << 31)
        dom = Domain.unit(d)
        assert_latin(sf.lhs_basic(dom, n, RngState(seed)).points, n)
        cfg = sf.LhsConfig(n_tries=1, n_interchanges=20)
        assert_latin(sf.lhs_maximin(dom, max(n, 2), RngState(seed + 1), cfg).points, max(n, 2))
        arbitrary = SampleSet(dom, RngState(seed + 2).random((n, d)))
        assert_latin(sf.latinize(arbitrary, RngState(seed + 3)).points, n)
        checked += 1
    verdict("C8", True, f"Latin property exact for lhs_basic, lhs_maximin, latinize "
            f"on {checked} randomized (N, d, seed) triples")


def test_c9_interchange_monotonicity():
    accepted = 0
    for seed in (1, 17, 99):
        trace = []
        sf.lhs_maximin(Domain.unit(2), 60, RngState(seed),
                       sf.LhsConfig(n_tries=4, n_interchanges=300), trace=trace)
        by_try = {}
        for t, attempt, dist in trace:
            by_try.setdefault(t, []).append(dist)
        for seq in by_try.values():
            assert all(b > a for a, b in zip(seq, seq[1:])), "non-increasing acceptance"
        accepted += len(trace)
    assert accepted > 0
    verdict("C9", True, f"every accepted interchange strictly increased the minimum "
            f"pairwise distance ({accepted} acceptances traced)")


def test_c10_oracle_equivalence_suite():
    meta = RngState(7)
    for _ in range(100):
        n = 2 + meta.integers(199)
        d = 1 + meta.integers(10)
        pts = meta.random((n, d))
        s = SampleSet(Domain.unit(d), pts)
        mn, avg, mx = nn_stats(s)
        oracle_nn = brute_nn_distances(pts.tolist())
        assert mn == pytest.approx(min(oracle_nn), rel=1e-12)
        assert avg == pytest.approx(sum(oracle_nn) / n, rel=1e-12)
        assert mx == pytest.approx(max(oracle_nn), rel=1e-12)
        got_pair = sf.min_pair(s)
        want_pair = brute_min_pair(pts.tolist())
        assert got_pair[:2] == want_pair[:2]
        assert got_pair[2] == pytest.approx(want_pair[2], rel=1e-12)
        assert phi_p(s, 50) == pytest.approx(brute_phi_p(pts.tolist(), 50), rel=1e-12)
        assert cl2_discrepancy(s) == pytest.approx(brute_cl2(pts), rel=1e-12)
    center = SampleSet(Domain.unit(1), [[0.5]])
    assert cl2_discrepancy(center) == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-12)
    verdict("C10", True, "nn_stats, min_pair, phi50, CL2 match naive transcriptions "
            "to 1e-12 relative on 100 random sets; CL2(N=1, d=1, x=0.5) = sqrt(1/12)")


def test_c11_frozen_prefix_suite():
    meta = RngState(31)
    unit = Domain.unit(2)
    scenarios = 0
    for _ in range(34):
        n = 5 + meta.integers(40)
        seed = meta.integers(1 << 31)
        existing = sf.random_sampling(unit, n, RngState(seed))
        algo = ("random", "greedyfp", "bc", "hybrid")[meta.integers(4)]
        params = {"random": None, "greedyfp": {"scale": 4}, "bc": {"ncand": 20},
                  "hybrid": {"scale": 4, "refresh": 7}}[algo]
        m = meta.integers(20)
        out = sf.incremental_add(existing, m, algo, params, RngState(seed + 1))
        assert out.frozen_count == n
        assert np.array_equal(out.points[:n], existing.points)
        scenarios += 1
    for _ in range(33):
        n = 5 + meta.integers(40)
        seed = meta.integers(1 << 31)
        existing = sf.random_sampling(unit, n, RngState(seed))
        wide = Domain([0.0, 0.0], [1.0 + 0.5 * (1 + meta.integers(3)), 1.0])
        out = sf.expand_domain(existing, wide, 5 + meta.integers(10), "bc",
                               {"ncand": 15}, RngState(seed + 2))
        assert out.frozen_count == n
        assert np.array_equal(out.points[:n], existing.points)
        scenarios += 1
    for _ in range(33):
        n = 3 + meta.integers(10)
        seed = meta.integers(1 << 31)
        anchors = SampleSet(unit, 0.1 + 0.8 * RngState(seed).random((n, 2)),
                            frozen_count=n)
        region = sf.CurveRegionSpec(anchors, 0.04, 10,
                                    include_anchors=bool(meta.integers(2)))
        out = sf.curve_region_sample(region, 2 + meta.integers(2 * n), RngState(seed + 3))
        assert out.frozen_count == n
        assert np.array_equal(out.points[:n], anchors.points)
        scenarios += 1
    verdict("C11", True, f"incremental_add, expand_domain, curve_region_sample kept "
            f"existing points bit-identical and prefix-ordered in {scenarios} scenarios")


class _CountingReader:
    def __init__(self, rows):
        self.rows = rows
        self.serves = []

    def __iter__(self):
        for i, r in enumerate(self.rows):
            self.serves.append(i)
            yield r

    def __len__(self):
        return len(self.rows)


def test_c12_one_pass_suite():
    rows = RngState(55).random((800, 3))
    src = _CountingReader(rows)
    cfg = sf.StreamConfig(segment_size=128, subset_size=40)
    sf.stream_subset(src, cfg, RngState(56))
    assert src.serves == list(range(800)), "records not read exactly once, in order"

    # degenerate segmentation == single-batch in-memory greedy, bit-exact
    records = RngState(57).random((300, 2))
    got = sf.stream_subset(records, sf.StreamConfig(segment_size=1000, subset_size=25),
                           RngState(58))
    rng = RngState(58)
    first = rng.integers(300)
    chosen = [first]
    min_d2 = ((records - records[first]) ** 2).sum(axis=1)
    min_d2[first] = -np.inf
    for _ in range(24):
        idx = int(np.argmax(min_d2))
        chosen.append(idx)
        np.minimum(min_d2, ((records - records[idx]) ** 2).sum(axis=1), out=min_d2)
        min_d2[idx] = -np.inf
    assert np.array_equal(got.points, records[chosen])
    verdict("C12", True, "stream_subset reads each record exactly once; degenerate "
            "segmentation reproduces single-batch selection bit-exactly")


CLI_CASES = [
    ("random", ["--n", "64"]),
    ("grid", ["--params", "bins=8"]),
    ("stratified", ["--params", "bins=8"]),
    ("lhs-basic", ["--n", "64"]),
    ("lhs-maximin", ["--n", "40", "--params", "ntries=2,ninterchanges=50"]),
    ("cvt", ["--n", "16", "--params", "niter=5,ppi=1000"]),
    ("poisson", ["--params", "r=0.12,ncand=20"]),
    ("greedyfp", ["--n", "64", "--params", "scale=5"]),
    ("bc", ["--n", "64", "--params", "ncand=40"]),
    ("hybrid", ["--n", "64", "--params", "scale=5,refresh=16"]),
]


def test_c13_cli_determinism(tmp_path):
    for algo, extra in CLI_CASES:
        a = tmp_path / f"{algo}-a.csv"
        b = tmp_path / f"{algo}-b.csv"
        argv = ["generate", "--algo", algo, "--dim", "2", "--seed", "4242"] + extra
        assert cli.main(argv + ["--out", str(a)]) == 0, algo
        assert cli.main(argv + ["--out", str(b)]) == 0, algo
        assert a.read_bytes() == b.read_bytes(), f"{algo}: rerun not byte-identical"
    verdict("C13", True, f"byte-identical CSV on rerun for all {len(CLI_CASES)} algorithms")
