import builtins
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spacefill import adapt, bench, cli, samplers
from spacefill.core import RngState

from conftest import assert_latin, format_row


def run(*argv):
    return cli.main(list(argv))


def run_out(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("SPACEFILL_SEED", raising=False)


class TestGenerate:
    def test_lhs_basic_four_rows(self, capsys):
        code, out, _ = run_out(capsys, "generate", "--algo", "lhs-basic",
                               "--dim", "2", "--n", "4", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x0,x1"
        pts = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert pts.shape == (4, 2)
        assert_latin(pts)

    def test_bc_500_in_unit_square(self, tmp_path):
        out = tmp_path / "bc.csv"
        code = run("generate", "--algo", "bc", "--dim", "2", "--n", "500",
                   "--seed", "1", "--params", "ncand=250", "--out", str(out))
        assert code == 0
        pts = cli.read_samples(str(out))
        assert pts.shape == (500, 2)
        assert np.all((pts >= 0) & (pts <= 1))

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["generate", "--algo", "hybrid", "--dim", "3", "--n", "40",
                "--seed", "11", "--params", "scale=5,refresh=10"]
        assert run(*argv, "--out", str(a)) == 0
        assert run(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_exit_2(self, capsys):
        code, _, err = run_out(capsys, "generate", "--algo", "random", "--dim", "2", "--n", "3")
        assert code == 2 and "seed" in err

    def test_env_seed_fallback(self, monkeypatch, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SPACEFILL_SEED", "123")
        assert run("generate", "--algo", "random", "--dim", "2", "--n", "5", "--out", str(a)) == 0
        assert run("generate", "--algo", "random", "--dim", "2", "--n", "5",
                   "--seed", "123", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_poisson_rejects_n(self, capsys):
        code, _, err = run_out(capsys, "generate", "--algo", "poisson",
                               "--dim", "2", "--n", "10", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("algo", ["grid", "stratified"])
    def test_grid_rejects_n(self, capsys, algo):
        code, out, err = run_out(capsys, "generate", "--algo", algo,
                                 "--dim", "2", "--n", "10", "--seed", "1")
        assert (code, out, err) == (2, "", f"spacefill: {algo} takes bins, not a sample count\n")

    def test_poisson_runs_without_n(self, capsys):
        code, out, _ = run_out(capsys, "generate", "--algo", "poisson", "--dim", "2",
                               "--seed", "1", "--params", "r=0.3,ncand=10")
        assert code == 0
        assert len(out.strip().splitlines()) > 2

    def test_missing_n_exit_2(self, capsys):
        code, _, err = run_out(capsys, "generate", "--algo", "bc", "--dim", "2", "--seed", "1")
        assert (code, err) == (2, "spacefill: algorithm 'bc' requires a sample count\n")

    def test_bad_param_exit_2(self, capsys):
        code, _, err = run_out(capsys, "generate", "--algo", "bc", "--dim", "2",
                               "--n", "5", "--seed", "1", "--params", "bogus=3")
        assert (code, err) == (2, "spacefill: unknown parameter 'bogus' for algorithm 'bc'\n")

    def test_degenerate_box_exit_2(self, capsys):
        code, _, err = run_out(capsys, "generate", "--algo", "random", "--dim", "2",
                               "--n", "5", "--seed", "1", "--lower=0,1", "--upper=1,1")
        assert (code, err) == (
            2, "spacefill: degenerate domain: lower must be strictly below upper\n")

    def test_latinize_flag(self, capsys):
        code, out, _ = run_out(capsys, "generate", "--algo", "random", "--dim", "2",
                               "--n", "30", "--seed", "5", "--latinize")
        assert code == 0
        pts = np.array([[float(v) for v in ln.split(",")]
                        for ln in out.strip().splitlines()[1:]])
        assert_latin(pts)

    def test_viability_preset(self, capsys):
        code, out, _ = run_out(capsys, "generate", "--algo", "bc", "--dim", "2", "--n", "50",
                               "--seed", "3", "--params", "ncand=50",
                               "--viability", "parabola-above")
        assert code == 0
        pts = np.array([[float(v) for v in ln.split(",")]
                        for ln in out.strip().splitlines()[1:]])
        assert np.all(pts[:, 1] >= 3.0 * (pts[:, 0] - 0.5) ** 2)

    def test_config_file(self, tmp_path, capsys):
        cfg = {"schemaVersion": 1, "algorithm": "lhs-basic", "dim": 2, "n": 8, "seed": 21,
               "domain": {"lower": [0, 0], "upper": [1, 1]}, "params": {}, "latinize": False}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_out(capsys, "generate", "--config", str(path))
        assert code == 0
        assert len(out.strip().splitlines()) == 9

    def test_config_unknown_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"algorithm": "random", "dim": 2, "n": 3,
                                    "seed": 1, "mystery": True}))
        code, _, err = run_out(capsys, "generate", "--config", str(path))
        assert code == 2 and "mystery" in err

    @pytest.mark.parametrize("entry,message", [
        ({"domain": {"lower": 5}}, "config domain lower must be a list of numbers"),
        ({"params": [1, 2]}, "config params must be an object"),
        ({"n": [3]}, "config n must be an integer"),
        ({"algorithm": "bc", "params": {"ncand": [5]}},
         "parameter 'ncand' of algorithm 'bc' must be an integer, got [5]"),
    ], ids=["lower", "params", "n", "param-value"])
    def test_config_value_type_exit_2(self, tmp_path, capsys, entry, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"algorithm": "random", "dim": 2, "n": 3, "seed": 1, **entry}))
        code, _, err = run_out(capsys, "generate", "--config", str(path))
        assert (code, err) == (2, f"spacefill: {message}\n")

    @pytest.mark.parametrize("domain, flags, message", [
        ({"lower": [True, 0, 0]}, [], "config domain lower must be a list of numbers"),
        ({"upper": [1, 1, False]}, [], "config domain upper must be a list of numbers"),
        ({"lower": [0, 0]}, [], "config domain lower must have 3 entries"),
        ({"upper": [1, 1]}, [], "config domain upper must have 3 entries"),
        ({"lower": []}, [], "config domain lower must have 3 entries"),
        ({}, ["--lower", ""], "--lower must be a comma-separated list of numbers"),
    ], ids=["lower-bool", "upper-bool", "lower-length", "upper-length", "lower-empty",
            "flag-empty"])
    def test_config_domain_bound_exit_2(self, tmp_path, capsys, domain, flags, message):
        """A config's bounds are named as config entries, a bool is not a
        number, and an empty bound is an error, not the default."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"algorithm": "random", "dim": 3, "n": 3, "seed": 1,
                                    "domain": domain}))
        code, out, err = run_out(capsys, "generate", "--config", str(path), *flags)
        assert (code, out, err) == (2, "", f"spacefill: {message}\n")


class TestJsonFiles:
    """--config and --spec files load through one reader: an unreadable
    path, invalid JSON, a value other than an object and an unsupported
    schemaVersion each exit 2 with one line naming the kind of file."""

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read {kind} {path}: [Errno 2] No such file or directory: '{path}'"),
        ("{", "cannot read {kind} {path}: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)"),
        ("[1, 2]", "{kind} must be a JSON object"),
        ('{"schemaVersion": 2}', "unsupported {kind} schemaVersion (expected 1)"),
    ], ids=["unreadable", "invalid", "not-object", "schema-2"])
    @pytest.mark.parametrize("kind, argv", [
        ("config", ["generate", "--config"]),
        ("spec", ["bench", "--spec"]),
    ])
    def test_load_error_exit_2(self, tmp_path, capsys, content, message, kind, argv):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_text(content)
        out_dir = tmp_path / "reports"
        code, out, err = run_out(capsys, *argv, str(path), "--out", str(out_dir))
        want = message.format(kind=kind, path=path)
        assert (code, out, err) == (2, "", f"spacefill: {want}\n")
        assert not out_dir.exists()


class TestParamValues:
    """A parameter value of the wrong kind or out of range fails before
    anything is drawn: exit 2, one line naming the parameter, and nothing
    on stdout."""

    @pytest.mark.parametrize("algo,n,entry,message", [
        ("bc", "5", "ncand=2.5", "'ncand' of algorithm 'bc' must be an integer, got 2.5"),
        ("hybrid", "5", "refresh=1.9",
         "'refresh' of algorithm 'hybrid' must be an integer, got 1.9"),
        ("lhs-maximin", "5", "ntries=1.7",
         "'ntries' of algorithm 'lhs-maximin' must be an integer, got 1.7"),
        ("grid", None, "bins=2.7", "'bins' of algorithm 'grid' must be an integer, got 2.7"),
        ("stratified", None, "bins=1.5",
         "'bins' of algorithm 'stratified' must be an integer, got 1.5"),
        ("cvt", "5", "tol=nan", "'tol' of algorithm 'cvt' must be a finite number, got nan"),
        ("cvt", "5", "alpha1=nan",
         "'alpha1' of algorithm 'cvt' must be a finite number, got nan"),
        ("poisson", None, "r=inf", "'r' of algorithm 'poisson' must be a finite number, got inf"),
        ("bc", "5", "ncand=abc", "'ncand' of algorithm 'bc' must be an integer, got 'abc'"),
        ("bc", "5", "ncand=0", "'ncand' of algorithm 'bc' must be >= 1, got 0"),
        ("lhs-maximin", "5", "placement=middle",
         "'placement' of algorithm 'lhs-maximin' must be 'random' or 'center', got 'middle'"),
    ], ids=["ncand", "refresh", "ntries", "grid-bins", "stratified-bins", "tol", "alpha1",
            "r", "ncand-text", "ncand-range", "placement"])
    def test_rejected(self, capsys, algo, n, entry, message):
        count = [] if n is None else ["--n", n]
        code, out, err = run_out(capsys, "generate", "--algo", algo, "--dim", "2", "--seed", "1",
                                 "--params", entry, *count)
        assert (code, out, err) == (2, "", f"spacefill: parameter {message}\n")

    def test_1d_viability_preset_exit_2(self, capsys):
        code, out, err = run_out(capsys, "generate", "--algo", "random", "--dim", "1", "--n", "3",
                                 "--seed", "1", "--viability", "parabola-above")
        assert (code, out, err) == (2, "", "spacefill: viability parabola-above needs --dim >= 2\n")

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_latinize_with_viability_exit_2(self, tmp_path, capsys, seed):
        """Latinizing moves points without regard to the viable region, so
        the pair fails before anything is drawn, whatever the seed."""
        flags = ["generate", "--algo", "random", "--dim", "2", "--n", "20", "--seed", seed]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"viability": "parabola-above", "latinize": True}))
        for extra in (["--viability", "parabola-above", "--latinize"], ["--config", str(path)]):
            code, out, err = run_out(capsys, *flags, *extra)
            assert (code, out, err) == (
                2, "", "spacefill: latinize cannot keep a viability predicate\n")

    def test_bins_beyond_int64_exceed_the_cap(self, capsys):
        bins = 10 ** 30
        code, out, err = run_out(capsys, "generate", "--algo", "grid", "--dim", "2", "--seed", "1",
                                 "--params", f"bins={bins}")
        assert (code, out, err) == (
            2, "", f"spacefill: parameter 'bins' of algorithm 'grid' must make at most 10000000 "
                   f"cells, got {bins} ({bins ** 2} cells)\n")

    @pytest.mark.parametrize("bins, message", [
        ([2, 2, 2], "must have 1 or 2 entries, got [2, 2, 2]"),
        ([5000, 5000], "must make at most 10000000 cells, got [5000, 5000] (25000000 cells)"),
    ], ids=["length", "cells"])
    def test_config_bins_exit_2(self, tmp_path, capsys, bins, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"algorithm": "grid", "dim": 2, "seed": 1,
                                    "params": {"bins": bins}}))
        code, out, err = run_out(capsys, "generate", "--config", str(path))
        want = f"spacefill: parameter 'bins' of algorithm 'grid' {message}\n"
        assert (code, out, err) == (2, "", want)


# --params values of the contract test: one of each wrong kind, and values in
# range that keep every run small (cvt niter and ppi are always set).
_BAD_VALUES = ["2.5", "0", "-1", "nan", "inf", "abc", "true"]
_GOOD_VALUES = {
    "bins": ["1", "2", "4"], "placement": ["random", "center"], "ntries": ["1", "3"],
    "ninterchanges": ["0", "20"], "niter": ["1", "50"], "ppi": ["1", "50"],
    "alpha1": ["0"], "alpha2": ["1"], "beta1": ["0.25"], "beta2": ["0.75"], "tol": ["0", "1e-6"],
    "r": ["0.2", "0.5"], "ncand": ["1", "30"], "scale": ["1", "10"], "refresh": ["1", "7"],
}
_PPI_WARNING = re.compile(r"ppi=\d+ is below n=\d+; generator estimates will be poor")


@st.composite
def generate_runs(draw):
    """generate argv over every algorithm id with d <= 3 and n <= 30, and the
    rows an exit 0 must write (None: at least one)."""
    algo = draw(st.sampled_from(samplers.ALGORITHMS))
    d = draw(st.integers(1, 3))
    defaults = samplers.TABLE_DEFAULTS[algo]
    keys = set(draw(st.lists(st.sampled_from(sorted(defaults)), max_size=2, unique=True))
               if defaults else [])
    if algo == "cvt":
        keys |= {"niter", "ppi"}
        if draw(st.booleans()):
            keys |= {"beta1", "beta2"}
    # One value in four is of a wrong kind.
    params = {k: draw(st.sampled_from(_BAD_VALUES if draw(st.integers(0, 3)) == 0
                                      else _GOOD_VALUES[k])) for k in sorted(keys)}
    argv = ["generate", "--algo", algo, "--dim", str(d),
            "--seed", str(draw(st.integers(0, 2**32 - 1)))]
    if params:
        argv += ["--params", ",".join(f"{k}={v}" for k, v in params.items())]
    box = draw(st.sampled_from([(0.0, 1.0), (-1.0, 2.0)]))
    argv += ["--lower", str(box[0]), "--upper", str(box[1])]
    for flag, name in (("--viability", "parabola-above"), ("--density", "gauss-center")):
        if draw(st.integers(0, 3)) == 0:
            argv += [flag, name]
    if algo in ("grid", "stratified"):
        try:
            rows = float(params.get("bins", defaults["bins"])) ** d
        except ValueError:  # not a number: no row count is right
            rows = math.nan
    elif algo == "poisson":
        rows = None
    else:
        n = draw(st.integers(1, 30))
        argv += ["--n", str(n)]
        rows = n
    return argv, rows, box


def _generate(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


class TestGenerateContract:
    """Any generate run within the size bounds exits 0, 1 or 2, fails with
    exactly one spacefill: line, raises no warning but cvt's documented one,
    reruns byte for byte, and on success writes its row count inside the box."""

    @settings(max_examples=120, deadline=None)
    @given(generate_runs())
    def test_contract(self, run_spec):
        argv, rows, (lo, hi) = run_spec
        code, out, err, caught = _generate(argv)
        assert code in (0, 1, 2)
        assert [m for m in caught if not _PPI_WARNING.fullmatch(m)] == []
        if code:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("spacefill: ")
        else:
            pts = np.array([[float(v) for v in ln.split(",")] for ln in out.splitlines()[1:]])
            assert len(pts) >= 1 if rows is None else len(pts) == rows
            assert np.all((pts >= lo) & (pts <= hi))
        assert _generate(argv)[:3] == (code, out, err)


# Config values of every JSON type, the NaN and Infinity literals among them.
_JSON_VALUES = [None, True, 0, -1, 2.5, "x", [], [0.5], {}, math.nan, math.inf, -math.inf]
# Config params in range that keep every run small: cvt always sets niter
# and ppi, poisson a large radius, and grid and stratified a few bins.
_CONFIG_PARAMS = {
    "lhs-basic": {"placement": ["random", "center"]},
    "lhs-maximin": {"ntries": [1, 3], "ninterchanges": [0, 20], "placement": ["center"]},
    "cvt": {"niter": [1, 20], "ppi": [1, 200], "tol": [0, 1e-6], "alpha1": [0]},
    "poisson": {"r": [0.5, 0.9], "ncand": [1, 10]},
    "bc": {"ncand": [1, 30]},
    "hybrid": {"scale": [1, 3], "refresh": [1, 7]},
    "greedyfp": {"scale": [1, 3]},
}
# The parts of a config generate_configs can get wrong.
_CONFIG_FAULTS = ["algorithm", "dim", "seed", "n", "params", "param", "bins", "lower",
                  "upper", "domain", "latinize", "viability", "density", "schemaVersion",
                  "unknown"]


@st.composite
def generate_configs(draw):
    """(config, faults, d, rows, box): a generate --config object over every
    algorithm id with d <= 6 and n <= 200, with up to two faults: a value of
    a wrong JSON type or out of range, a domain list of the wrong length,
    or an unknown key.  d, the rows an exit 0 must write (None: at least
    one) and the box the rows must lie in are those of the config without
    its faults."""
    faults = draw(st.lists(st.sampled_from(_CONFIG_FAULTS), max_size=2, unique=True))

    def value(key, good, bad=()):
        if key in faults:
            return draw(st.sampled_from(_JSON_VALUES + list(bad)))
        return draw(st.sampled_from(good)) if isinstance(good, list) else good

    algo = draw(st.sampled_from(samplers.ALGORITHMS))
    d = draw(st.integers(1, 6))
    cfg = {"algorithm": value("algorithm", algo, ["bogus"]), "dim": value("dim", d, [0, 7.0]),
           "seed": value("seed", draw(st.integers(0, 2**32 - 1)), [2**64, "1"])}
    goods = _CONFIG_PARAMS.get(algo, {})
    params = {k: draw(st.sampled_from(v)) for k, v in goods.items() if draw(st.booleans())}
    if algo == "cvt":
        params |= {"niter": draw(st.sampled_from([1, 20])), "ppi": draw(st.sampled_from([1, 200]))}
    if algo == "poisson":
        params["r"] = draw(st.sampled_from(goods["r"]))
    if algo in ("grid", "stratified"):
        params["bins"] = draw(st.one_of(st.integers(1, 3),
                                        st.lists(st.integers(1, 3), min_size=d, max_size=d)))
    if "bins" in faults:
        params["bins"] = draw(st.one_of(
            st.sampled_from([[], [1.5], [True], [math.nan], [2] * (d + 1), "3", 0])))
    if "param" in faults:
        params[draw(st.sampled_from(["mystery", *goods, "bins"]))] = \
            draw(st.sampled_from(_JSON_VALUES + [1.5, "center"]))
    if params or draw(st.booleans()) or "params" in faults:
        cfg["params"] = value("params", params)
    if algo not in ("poisson", "grid", "stratified") or "n" in faults:
        least = 2 if algo == "lhs-maximin" else 1  # its interchanges need two points
        cfg["n"] = value("n", draw(st.integers(least, 200)), [0, 201.0])
    box = draw(st.sampled_from([(0.0, 1.0), (-1.0, 2.0)]))
    length = draw(st.sampled_from([d, 1]))
    if box != (0.0, 1.0) or draw(st.booleans()) or {"lower", "upper", "domain"} & set(faults):
        wrong = [[box[0]] * (d + 1), [box[1]] * length, [math.nan] * length, [2**1100] * length]
        cfg["domain"] = value("domain", {"lower": value("lower", [[box[0]] * length], wrong),
                                         "upper": value("upper", [[box[1]] * length], wrong)},
                              [{"lower": [0.0] * d, "mystery": [1.0] * d}])
    if algo in samplers.INCREMENTAL_ALGORITHMS + ("cvt", "poisson") and d > 1 or \
            "viability" in faults:
        cfg["viability"] = value("viability", [None, "parabola-above"], ["bogus"])
    # Latinizing would move points out of the viable region.
    latinize = [None, False] if cfg.get("viability") else [None, True, False]
    for key, good, bad in (("latinize", latinize, [True]),
                           # gauss-center is slow to draw from in a large box.
                           ("density", [None] + ["gauss-center"] * (box == (0.0, 1.0)),
                            ["bogus"]),
                           ("schemaVersion", [None, 1], [2, "1"])):
        cfg[key] = value(key, good, bad)
        if cfg[key] is None and key not in faults:
            del cfg[key]
    if "unknown" in faults:
        cfg["mystery"] = 1
    # A null or empty params object leaves the defaults, too large for cvt,
    # poisson, grid and stratified runs here.
    given_params = cfg["params"] if isinstance(cfg.get("params"), dict) else {}
    assume({"cvt": {"niter", "ppi"}, "poisson": {"r"}}.get(algo, set()) <= set(given_params))
    if algo == "poisson":
        rows = None
    elif algo in ("grid", "stratified"):
        bins = given_params.get("bins", samplers.TABLE_DEFAULTS[algo]["bins"])
        if isinstance(bins, int) or isinstance(bins, list) and all(isinstance(b, int) for b in bins):
            rows = int(np.prod(bins)) if isinstance(bins, list) else bins ** d
            assume(rows <= 1000)
        else:  # not a bin count: the run must fail
            rows = -1
    else:
        rows = cfg.get("n")
    return cfg, faults, d, rows, box


class TestGenerateConfigContract:
    """Any generate --config run within the size bounds exits 0, 1 or 2,
    and 2 only for a config with a fault; it fails with exactly one
    spacefill: line and nothing on stdout, raises no warning but cvt's
    documented one, reruns byte for byte, and on success writes n rows of d
    columns inside the box."""

    @settings(max_examples=150, deadline=None)
    @given(generate_configs())
    def test_contract(self, case):
        cfg, faults, d, rows, (lo, hi) = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            argv = ["generate", "--config", path]
            code, out, err, caught = _generate(argv)
            assert _generate(argv)[:3] == (code, out, err)
        assert code in (0, 1, 2)
        assert [m for m in caught if not _PPI_WARNING.fullmatch(m)] == []
        if code:
            assert faults or code == 1, err
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("spacefill: ")
            return
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == ",".join(f"x{j}" for j in range(d))
        pts = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert len(pts) >= 1 if rows is None else len(pts) == rows
        assert pts.shape[1] == d and np.all((pts >= lo) & (pts <= hi))


# Methods of the spec contract test, with parameters that keep every cell small.
_SPEC_METHODS = [["random", {}], ["lhs-maximin", {"ntries": 1, "ninterchanges": 3}],
                 ["greedyfp", {"scale": 2}], ["bc", {"ncand": 3}],
                 ["hybrid", {"scale": 2, "refresh": 3}]]
# The parts of a spec bench_specs can get wrong, and the wrong values of each.
_SPEC_FAULTS = {
    "dim": [True, 2.5, math.inf, "2", None, [2], 0],
    "nSamples": [False, 2.7, -math.inf, "5", None, 1],
    "repetitions": [True, 1.5, "1", None, 0],
    "seedBase": [True, 0.5, math.nan, "5"],
    "latinizeVariants": ["no", 1, 0, None],
    "name": ["", ".", "..", "a/b", "../escaped", 5, None],
    "methods": [[], "bc", [["bc"]], [["bogus", {}]], [["poisson", {}]], [["bc", {"scale": 3}]],
                [["bc", {"ncand": 2.5}]], [["bc", {"ncand": 0}]], [["cvt", {"tol": -1}]]],
    "schemaVersion": [2, "1"],
    "experiments": [[], {}, "e0"],
    "unknown": [1],
    "duplicate": [None],
}


@st.composite
def bench_specs(draw):
    """(spec, faults): a bench --spec object of one to three experiments with
    d <= 3 and n <= 12, each count an int or an integral float, with up to
    two faults: a value of a wrong JSON type or out of range, an unsafe or
    repeated name, a bad method list, an unknown key or no experiments."""
    faults = draw(st.lists(st.sampled_from(sorted(_SPEC_FAULTS)), max_size=2, unique=True))

    def count(lo, hi):
        v = draw(st.integers(lo, hi))
        return float(v) if draw(st.booleans()) else v

    experiments = []
    for k in range(draw(st.integers(1, 3))):
        exp = {"name": f"e{k}", "dim": count(1, 3), "nSamples": count(2, 12),
               "repetitions": count(1, 3),
               "methods": draw(st.lists(st.sampled_from(_SPEC_METHODS), min_size=1, max_size=3))}
        if draw(st.booleans()):
            exp["latinizeVariants"] = draw(st.booleans())
        if draw(st.booleans()):
            exp["seedBase"] = count(0, 2**32 - 1)
        experiments.append(exp)
    target = draw(st.sampled_from(experiments))
    for fault in faults:
        value = draw(st.sampled_from(_SPEC_FAULTS[fault]))
        if fault == "unknown":
            target["mystery"] = value
        elif fault == "duplicate":
            experiments.append(dict(experiments[0]))
        elif fault not in ("schemaVersion", "experiments"):
            target[fault] = value
    if len(experiments) == 1 and draw(st.booleans()):
        spec = dict(experiments[0])
    else:
        spec = {"experiments": experiments}
    if "experiments" in faults:
        spec = {"experiments": draw(st.sampled_from(_SPEC_FAULTS["experiments"]))}
    if "schemaVersion" in faults:
        spec["schemaVersion"] = draw(st.sampled_from(_SPEC_FAULTS["schemaVersion"]))
    elif draw(st.booleans()):
        spec["schemaVersion"] = 1
    return spec, faults


class TestBenchSpecContract:
    """A bench --spec run with --reps-override 1 exits 2 exactly when its
    spec has a fault: with one spacefill: line, nothing on stdout and no
    file written, since no cell runs.  Otherwise it exits 0 and writes one
    report per experiment, named after it, inside --out and nowhere else."""

    @settings(max_examples=100, deadline=None)
    @given(bench_specs())
    def test_contract(self, case):
        spec, faults = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            out_dir = os.path.join(tmp, "out", "reports")
            code, out, err, caught = _generate(["bench", "--spec", path, "--out", out_dir,
                                                "--reps-override", "1"])
            written = sorted(os.path.relpath(os.path.join(root, name), tmp)
                             for root, _, names in os.walk(tmp) for name in names)
            reports = []
            for name in set(written) - {"spec.json"}:
                with open(os.path.join(tmp, name)) as fh:
                    reports.append(json.load(fh))
        assert caught == []
        if faults:
            assert code == 2, (spec, faults)
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("spacefill: ")
            assert written == ["spec.json"]
            return
        assert (code, err) == (0, "")
        experiments = spec.get("experiments", [spec])
        names = [e["name"] for e in experiments]
        assert written == sorted(["spec.json"] + [os.path.join("out", "reports", f"{n}.json")
                                                  for n in names])
        for doc in reports:
            exp = next(e for e in experiments if e["name"] == doc["experiment"]["name"])
            assert doc["experiment"]["repetitions"] == 1 and doc["failures"] == []
            assert (doc["experiment"]["dim"], doc["experiment"]["nSamples"]) == \
                (int(exp["dim"]), int(exp["nSamples"]))
            variants = 2 if exp.get("latinizeVariants", True) else 1
            assert len(doc["rows"]) == len(exp["methods"]) * variants


# Edits of the CSV contract test, applied to a drawn row: a blank line before
# it, one cell too few or too many, or a cell that is out of the unit box,
# not finite or not a number.
_CSV_EDITS = ["blank", "short", "long", "out", "nan", "inf", "-inf", "abc", ""]


@st.composite
def csv_inputs(draw):
    """(text, rows): CSV text with d <= 6 and at most 200 data rows, with or
    without a header, and with up to three edits (blank, ragged and bad
    lines); an empty file is the case of no rows and no header."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(0, 200))
    rs = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = [",".join(map(repr, row)) for row in rs.random((n, d)).tolist()]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i = draw(st.integers(0, n - 1))
        edit = draw(st.sampled_from(_CSV_EDITS))
        cells = lines[i].split(",")
        if edit == "blank":
            lines[i] = "\n" + lines[i]
        elif edit == "short":
            lines[i] = ",".join(cells[:-1])
        elif edit == "long":
            lines[i] = lines[i] + ",0.5"
        else:
            cells[draw(st.integers(0, len(cells) - 1))] = "1.5" if edit == "out" else edit
            lines[i] = ",".join(cells)
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"x{j}" for j in range(d)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(ln.replace("\n", end) for ln in lines)
    if lines and draw(st.booleans()):
        text += end
    return text, _csv_rows(text)


def _floats(line):
    try:
        return [float(c) for c in line.split(",")]
    except ValueError:
        return None


def _csv_rows(text):
    """Reference reader: the (n, d) data rows of CSV text, or None when the
    text holds no data row or a line that must fail.  The first line is a
    header when a cell of it is not a number, empty lines are skipped, and
    every other line must hold the first data line's count of finite cells."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if lines and _floats(lines[0]) is None:
        lines = lines[1:]
    data = [_floats(ln) for ln in lines if ln]
    if not data or None in data or any(len(row) != len(data[0]) for row in data):
        return None
    rows = np.array(data)
    return rows if np.isfinite(rows).all() else None


class TestCsvInputContract:
    """score, latinize and subset on any CSV within the size bounds exit 0, 1
    or 2, fail with exactly one spacefill: line and no traceback, and rerun
    byte for byte.  They succeed exactly when the input is valid for them,
    and then give the right rows: a report of every row, a Latin set of
    them in the unit box, or n of them."""

    @settings(max_examples=150, deadline=None)
    @given(csv_inputs(), st.sampled_from(["score", "latinize", "subset"]), st.data())
    def test_contract(self, case, command, data):
        text, rows = case
        k = data.draw(st.integers(1, 30))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            argv = [command, "--in", path]
            if command != "score":
                argv += ["--seed", str(data.draw(st.integers(0, 2**32 - 1)))]
            if command == "subset":
                argv += ["--n", str(k), "--segment", str(data.draw(st.integers(1, 250)))]
            code, out, err, caught = _generate(argv)
            assert _generate(argv)[:3] == (code, out, err)
        assert code in (0, 1, 2) and caught == []
        in_box = rows is not None and bool(np.all((rows >= 0.0) & (rows <= 1.0)))
        valid = {"score": in_box and len(np.unique(rows, axis=0)) == len(rows) >= 2,
                 "latinize": in_box,
                 "subset": rows is not None and k <= len(rows)}[command]
        assert (code == 0) == valid
        if code:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("spacefill: ")
            return
        assert err == ""
        if command == "score":
            report = json.loads(out)
            assert (report["n"], report["d"]) == rows.shape
            return
        got = np.array([[float(v) for v in ln.split(",")] for ln in out.splitlines()[1:]])
        if command == "latinize":
            assert got.shape == rows.shape
            assert np.all((got >= 0.0) & (got <= 1.0))
            assert_latin(got)
        else:
            assert got.shape == (k, rows.shape[1])
            assert all((rows == row).all(axis=1).any() for row in got)


class TestPiping:
    @pytest.mark.parametrize("algo,extra", [
        ("random", ["--n", "30"]),
        ("lhs-basic", ["--n", "30"]),
        ("bc", ["--n", "30", "--params", "ncand=20"]),
        ("poisson", ["--params", "r=0.15,ncand=15"]),
    ])
    def test_generate_pipes_into_score_and_plot(self, algo, extra, tmp_path):
        import subprocess
        import sys
        gen = [sys.executable, "-m", "spacefill.cli", "generate", "--algo", algo,
               "--dim", "2", "--seed", "3"] + extra
        csv_bytes = subprocess.run(gen, capture_output=True, check=True).stdout
        score = subprocess.run([sys.executable, "-m", "spacefill.cli", "score", "--in", "-"],
                               input=csv_bytes, capture_output=True)
        assert score.returncode == 0, score.stderr
        assert b"nnAvg" in score.stdout
        svg = tmp_path / "p.svg"
        plot = subprocess.run([sys.executable, "-m", "spacefill.cli", "plot",
                               "--in", "-", "--out", str(svg)],
                              input=csv_bytes, capture_output=True)
        assert plot.returncode == 0, plot.stderr
        assert b"<circle" in svg.read_bytes()

    def test_csv_write_read_lossless(self, tmp_path):
        src = tmp_path / "a.csv"
        back = tmp_path / "b.csv"
        assert run("generate", "--algo", "random", "--dim", "3", "--n", "50",
                   "--seed", "77", "--out", str(src)) == 0
        pts = cli.read_samples(str(src))
        with open(back, "w", newline="\n") as fh:
            cli.write_samples(pts, fh)
        assert src.read_bytes() == back.read_bytes()
        assert np.array_equal(cli.read_samples(str(back)), pts)

    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_write_matches_per_row_reference(self, n, order):
        """A block of rows formatted by one % call gives the bytes of "%.17g"
        row by row, across the 1,024-row block boundary."""
        pts = np.random.default_rng(n).standard_normal((n, 3)) * 10.0 ** np.arange(-150, 150, 100)
        pts[0] = [-0.0, 5e-324, 1 / 3]
        pts = np.asarray(pts, order=order)
        out = io.StringIO()
        cli.write_samples(pts, out)
        want = "x0,x1,x2\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                      for row in pts.tolist())
        assert out.getvalue() == want


def _reference_csv(points) -> str:
    """Sample CSV text with each value formatted by "%.17g" on its own."""
    header = ",".join(f"x{j}" for j in range(points.shape[1])) + "\n"
    return header + "".join(",".join("%.17g" % v for v in row) + "\n" for row in points.tolist())


def _written_csv(points) -> str:
    out = io.StringIO()
    cli.write_samples(points, out)
    return out.getvalue()


def _near(v, ulps=2):
    """The doubles within ulps of v on each side, v included."""
    below, above = [v], [v]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def _ties(rng):
    """Exact halfway cases of 17 digits: j / 2**m with 18 significant digits,
    the last a 5, in each decade from 1e-6 to 1e10."""
    ties = []
    for x in range(-6, 10):
        m = 17 - x  # j odd: m fraction digits, the last a 5
        lo, hi = math.ceil(10.0 ** x * 2 ** m), math.floor(10.0 ** (x + 1) * 2 ** m)
        ties += [(int(j) | 1) / 2 ** m for j in rng.integers(lo, hi - 1, 250)]
    return ties


# Values the writer must render like "%.17g": every double within 2 ulps of
# 10**k, both sides of the edges 1e-4 and 1e8 of its digit kernel, exact
# halfway ties, and ±0, the smallest subnormal, ±max, ±inf and nan.
_EDGE_VALUES = np.array(
    [w for k in range(-20, 21) for w in _near(float(f"1e{k}"))]
    + _near(1e-4, 4) + _near(1e8, 4) + _ties(np.random.default_rng(25))
    + [0.0, 5e-324, sys.float_info.max, math.inf, math.nan, 1.0, 0.5, 100.0, 1234.5])


class TestWriteSamples:
    """write_samples renders each value as "%.17g" does, byte for byte."""

    def test_ties_are_exact_halfway_cases(self):
        from decimal import Decimal
        ties = _ties(np.random.default_rng(25))
        for v in ties:
            digits = format(Decimal(v), "e").split("e")[0].replace(".", "")
            assert len(digits) == 18 and digits.endswith("5"), v
        # Both ways of rounding a half to even occur.
        assert {("%.17e" % v)[17] in "02468" for v in ties} == {True, False}

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_edge_values(self, d, n):
        rng = np.random.default_rng(d * 10_000 + n)
        values = np.concatenate([_EDGE_VALUES, -_EDGE_VALUES])
        points = rng.permutation(np.resize(values, max(n * d, values.size)))[:n * d]
        points = points.reshape(n, d)
        assert _written_csv(points) == _reference_csv(points)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([1, 2, 1023, 1024, 1025]), st.integers(0, 2**63 - 1),
           st.sampled_from(["any", "kernel", "unit"]))
    def test_random_bit_patterns(self, d, n, seed, kind):
        """Finite doubles from random 64-bit patterns: any exponent, or one
        within a few binades of the kernel's range, or the unit interval."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, n * d, dtype=np.uint64, endpoint=False)
        if kind == "kernel":  # biased exponent of 2**-16 .. 2**30
            exponent = rng.integers(1023 - 16, 1023 + 30, n * d).astype(np.uint64)
            bits = (bits & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
        points = bits.view(np.float64)
        if kind == "unit":
            points = rng.random(n * d)
        points = np.where(np.isfinite(points), points, 0.5).reshape(n, d)
        assert _written_csv(points) == _reference_csv(points)

    def test_empty_and_other_dtypes(self):
        assert _written_csv(np.empty((0, 3))) == "x0,x1,x2\n"
        for points in (np.array([[1, -2], [3, 10**9]]), np.array([[0.1, 3e-7]], dtype=np.float32)):
            assert _written_csv(points) == _reference_csv(points)


class TestScore:
    def test_three_point_file(self, tmp_path, capsys):
        f = tmp_path / "pts.csv"
        f.write_text("x0\n0\n0.4\n1\n")
        code, out, _ = run_out(capsys, "score", "--in", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["nnAvg"] == pytest.approx(0.46667, abs=1e-4)
        assert doc["n"] == 3 and doc["d"] == 1 and doc["p"] == 50

    def test_pipe_from_generate(self, tmp_path, capsys):
        f = tmp_path / "g.csv"
        assert run("generate", "--algo", "greedyfp", "--dim", "2", "--n", "60",
                   "--seed", "2", "--out", str(f)) == 0
        code, out, _ = run_out(capsys, "score", "--in", str(f))
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"nnMin", "nnAvg", "nnMax", "phiP", "p", "cl2", "n", "d"}

    def test_duplicate_rows_error_names_pair(self, tmp_path, capsys):
        f = tmp_path / "dup.csv"
        f.write_text("x0,x1\n0.1,0.1\n0.5,0.5\n0.1,0.1\n")
        code, _, err = run_out(capsys, "score", "--in", str(f))
        assert code == 2 and "(0, 2)" in err

    def test_ragged_rows_exit_2_with_line(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("x0,x1\n0.1,0.2\n0.3\n")
        code, _, err = run_out(capsys, "score", "--in", str(f))
        assert code == 2 and "line 3" in err

    def test_non_numeric_exit_2_with_line(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("x0\n0.1\noops\n")
        code, _, err = run_out(capsys, "score", "--in", str(f))
        assert code == 2 and "line 3" in err

    def test_out_of_range_exit_2(self, tmp_path, capsys):
        f = tmp_path / "far.csv"
        f.write_text("x0\n0.5\n1.5\n")
        code, _, err = run_out(capsys, "score", "--in", str(f))
        assert code == 2 and "line 3" in err


class TestLatinize:
    def test_already_latin_identical_bytes(self, tmp_path):
        src = tmp_path / "lhs.csv"
        out = tmp_path / "lat.csv"
        assert run("generate", "--algo", "lhs-basic", "--dim", "2", "--n", "16",
                   "--seed", "4", "--out", str(src)) == 0
        assert run("latinize", "--in", str(src), "--seed", "9", "--out", str(out)) == 0
        assert src.read_bytes() == out.read_bytes()

    def test_arbitrary_input_becomes_latin(self, tmp_path):
        src = tmp_path / "r.csv"
        out = tmp_path / "lat.csv"
        assert run("generate", "--algo", "random", "--dim", "2", "--n", "25",
                   "--seed", "6", "--out", str(src)) == 0
        assert run("latinize", "--in", str(src), "--seed", "10", "--out", str(out)) == 0
        assert_latin(cli.read_samples(str(out)))


class TestSubset:
    @pytest.fixture()
    def big_csv(self, tmp_path):
        path = tmp_path / "big.csv"
        assert run("generate", "--algo", "random", "--dim", "2", "--n", "3000",
                   "--seed", "13", "--out", str(path)) == 0
        return path

    def test_selects_n_actual_rows(self, big_csv, tmp_path):
        out = tmp_path / "sub.csv"
        assert run("subset", "--in", str(big_csv), "--n", "100", "--segment", "1000",
                   "--seed", "3", "--out", str(out)) == 0
        sub = cli.read_samples(str(out))
        full = {tuple(r) for r in cli.read_samples(str(big_csv))}
        assert sub.shape == (100, 2)
        assert all(tuple(r) in full for r in sub)

    def test_reads_file_once(self, big_csv, tmp_path, monkeypatch):
        reads = []
        orig = cli.CsvRecordStream.read_rows

        def counting_read_rows(self, k):
            rows = orig(self, k)
            reads.extend(map(tuple, rows))
            return rows

        monkeypatch.setattr(cli.CsvRecordStream, "read_rows", counting_read_rows)
        out = tmp_path / "sub.csv"
        assert run("subset", "--in", str(big_csv), "--n", "50", "--segment", "500",
                   "--seed", "3", "--out", str(out)) == 0
        assert len(reads) == 3000
        assert len(set(reads)) == 3000  # no record served twice

    def test_explicit_total(self, big_csv, tmp_path):
        out = tmp_path / "sub.csv"
        assert run("subset", "--in", str(big_csv), "--n", "40", "--segment", "512",
                   "--seed", "5", "--total", "3000", "--out", str(out)) == 0
        assert cli.read_samples(str(out)).shape == (40, 2)


    def test_ragged_record_message_file_and_stdin(self, tmp_path, capsys, monkeypatch):
        text = "x0,x1\n0.1,0.2\n0.3,0.4\n0.5\n0.6,0.7\n"
        f = tmp_path / "ragged.csv"
        f.write_text(text)
        want = "spacefill: line 4: expected 2 columns, got 1\n"
        code, _, err = run_out(capsys, "subset", "--in", str(f), "--n", "2",
                               "--segment", "2", "--seed", "1")
        assert (code, err) == (2, want)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run_out(capsys, "subset", "--in", "-", "--n", "2",
                               "--segment", "2", "--total", "4", "--seed", "1")
        assert (code, err) == (2, want)

    @pytest.mark.parametrize("scale", [1e160, 1.2e154, 1e151])
    def test_overflowing_records_exit_2(self, tmp_path, scale):
        """Records whose farthest squared distance overflows float64 exit 2
        with one spacefill: line and no warning.  At 1e151 the screen's norm
        guard takes the exact path, no distance overflows, and the output
        keeps its pinned bytes."""
        rows = 2.0 * RngState(30).random((400, 4)) - 1.0
        rows[:16] = list(itertools.product([-1.0, 1.0], repeat=4))
        path = tmp_path / "far.csv"
        path.write_text("a,b,c,d\n" + "".join(format_row(r) + "\n" for r in rows * scale))
        code, out, err, caught = _generate(["subset", "--in", str(path), "--n", "20",
                                            "--segment", "100", "--seed", "1"])
        assert caught == []
        if scale > 1e151:
            assert (code, out, err) == (2, "", "spacefill: squared max-min distance overflows "
                                               "float64; scale the input first\n")
        else:
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "7c8a889611e370f7cb379f5a7edea1a5dc3ce6f7888c21ad8562be1e848b75d3")

    @pytest.mark.parametrize("total", ["0", "-5"])
    def test_total_below_1_exit_2(self, big_csv, capsys, total):
        got = run_out(capsys, "subset", "--in", str(big_csv), "--n", "50", "--segment", "100",
                      "--total", total, "--seed", "1")
        assert got == (2, "", "spacefill: --total must be >= 1\n")

    @pytest.mark.parametrize("flag", ["--n", "--segment"])
    def test_size_below_1_exit_2(self, big_csv, capsys, flag):
        sizes = {"--n": "50", "--segment": "100", flag: "0"}
        got = run_out(capsys, "subset", "--in", str(big_csv), *itertools.chain(*sizes.items()),
                      "--seed", "1")
        assert got == (2, "", f"spacefill: {flag} must be >= 1\n")

    def test_stdin_matches_file(self, big_csv, tmp_path, monkeypatch):
        argv = ["subset", "--n", "30", "--segment", "400", "--total", "3000", "--seed", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*argv, "--in", str(big_csv), "--out", str(a)) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(big_csv.read_text()))
        assert run(*argv, "--in", "-", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


def _reference_records(path):
    """Line-by-line reading: data rows, their line numbers, and the running
    (records, data_bytes) after each row.  The first line is a header when
    some cell of it is not a number; blank lines are skipped uncounted."""
    rows, linenos, counts = [], [], []
    records = data_bytes = 0
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if lineno == 1 and not cli._is_numeric_row(line):
                continue
            if not line:
                continue
            rows.append([float(c) for c in line.split(",")])
            linenos.append(lineno)
            records += 1
            data_bytes += len(raw.encode())
            counts.append((records, data_bytes))
    return np.array(rows), linenos, counts


def _rows_of(stream):
    """The stream's rows one at a time, through read_rows(1)."""
    while len(row := stream.read_rows(1)):
        yield row[0]


def _reference_estimate(size, header_bytes, records, data_bytes):
    data_total = max(size - header_bytes, data_bytes)
    return max(records, round(records * data_total / data_bytes))


class TestCsvParsing:
    """read_samples and CsvRecordStream against a line-by-line reference,
    on files that cross the parser's block boundary."""

    def _write(self, path, n_rows, *, header=True, crlf=False, blank_every=0):
        rs = np.random.default_rng(n_rows)
        end = "\r\n" if crlf else "\n"
        lines = ["x0,x1,x2"] if header else []
        for i, row in enumerate(rs.random((n_rows, 3))):
            lines.append(format_row(row))
            if blank_every and i % blank_every == 0:
                lines.append("")
        path.write_bytes((end.join(lines) + end).encode())
        return str(path)

    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("crlf", [True, False])
    @pytest.mark.parametrize("blank_every", [0, 7])
    def test_matches_line_by_line_reference(self, tmp_path, header, crlf, blank_every):
        path = self._write(tmp_path / "r.csv", 9000, header=header, crlf=crlf,
                           blank_every=blank_every)
        want, want_linenos, counts = _reference_records(path)
        pts, linenos = cli.read_samples(path, with_linenos=True)
        assert np.array_equal(pts, want) and linenos == want_linenos
        stream = cli.CsvRecordStream(path)
        header_bytes = len(b"x0,x1,x2\r\n" if crlf else b"x0,x1,x2\n") if header else 0
        assert stream.header_bytes == header_bytes
        assert stream.estimate_total() == 1
        served = []
        for (records, data_bytes), row in zip(counts, _rows_of(stream)):
            served.append(row)
            assert (stream.records, stream.data_bytes) == (records, data_bytes)
            assert stream.estimate_total() == _reference_estimate(
                stream.size, header_bytes, records, data_bytes)
        assert len(stream.read_rows(1)) == 0 and len(stream.read_rows(1)) == 0
        assert np.array_equal(np.array(served), want)
        assert stream.records == len(want)

    def test_plain_blocks_parse_in_one_call(self, tmp_path, monkeypatch):
        """Blocks of printable ASCII never reach the line-by-line parser."""
        path = self._write(tmp_path / "r.csv", 9000, crlf=True)
        calls = []
        parse = cli._parse_data_line
        monkeypatch.setattr(cli, "_parse_data_line",
                            lambda line, lineno, dim: calls.append(lineno) or parse(line, lineno, dim))
        got = cli.read_samples(path)
        served = np.array(list(_rows_of(cli.CsvRecordStream(path))))
        assert calls == []
        want = _reference_records(path)[0]
        assert got.tobytes() == want.tobytes() and served.tobytes() == want.tobytes()

    def test_cells_python_float_accepts(self, tmp_path):
        f = tmp_path / "cells.csv"
        f.write_text("x0,x1,x2\n 0.5,0.25 ,+1\n.5,5.,1E-2\n1_0,-0.0,\t3\n")
        want = np.array([[0.5, 0.25, 1.0], [0.5, 5.0, 0.01], [10.0, -0.0, 3.0]])
        got = cli.read_samples(str(f))
        assert np.array_equal(got, want) and np.signbit(got[2, 1])
        assert np.array_equal(np.array(list(_rows_of(cli.CsvRecordStream(str(f))))), want)

    def test_non_ascii_cells_count_bytes(self, tmp_path):
        """float() reads non-ASCII digits; their rows count encoded bytes."""
        path = tmp_path / "wide.csv"
        lines = ["x0,x1"] + [f"0.{i % 10},\uff10.\uff15" if i % 3 else "0.25,0.5"
                             for i in range(5000)]
        path.write_bytes(("\n".join(lines) + "\n").encode())
        want, _, counts = _reference_records(str(path))
        with cli.CsvRecordStream(str(path)) as stream:
            for (records, data_bytes), row in zip(counts, _rows_of(stream)):
                assert (stream.records, stream.data_bytes) == (records, data_bytes)
        assert stream.data_bytes == path.stat().st_size - len("x0,x1\n")
        assert np.array_equal(cli.read_samples(str(path)), want)

    @pytest.mark.parametrize("lineno", [4096, 4097])
    @pytest.mark.parametrize("bad, message", [
        ("0.5", "expected 2 columns, got 1"),
        ("0.5,abc", "non-numeric cell"),
        ("0.5,nan", "non-finite cell"),
    ])
    def test_bad_line_at_block_boundary(self, tmp_path, lineno, bad, message):
        lines = ["x0,x1"] + ["0.25,0.75"] * 5000
        lines[lineno - 1] = bad
        f = tmp_path / "bad.csv"
        f.write_text("\n".join(lines) + "\n")
        want = f"line {lineno}: {message}"
        with pytest.raises(cli.CliError) as err:
            cli.read_samples(str(f))
        assert str(err.value) == want
        with pytest.raises(cli.CliError) as err:
            list(_rows_of(cli.CsvRecordStream(str(f))))
        assert str(err.value) == want

    @pytest.mark.parametrize("first, second, message", [
        ("nan,0.5", "abc,0.5", "line 3: non-finite cell"),
        ("abc,0.5", "nan,0.5", "line 3: non-numeric cell"),
        ("0.5,inf", "0.5", "line 3: non-finite cell"),
        ("0.5", "0.5,inf", "line 3: expected 2 columns, got 1"),
    ])
    def test_first_bad_line_wins(self, tmp_path, first, second, message):
        f = tmp_path / "bad.csv"
        f.write_text(f"x0,x1\n0.1,0.2\n{first}\n0.3,0.4\n{second}\n")
        with pytest.raises(cli.CliError) as err:
            cli.read_samples(str(f))
        assert str(err.value) == message


# Cells float() and np.loadtxt disagree on, or that are edge values: the
# ASCII separators and other characters str.isspace() counts, tabs, an
# underscore, full-width digits, spaces only, an overflow and the smallest
# subnormal.
_ODD_CELLS = ["\x1c0.5", "0.5\x1d", "\x1e0.5", "0.5\x1f", "\x0b0.5", "0.5\x0c", "\x850.5",
              "0.5\xa0", "\t0.5 \t", "0.\t5", "1_0", "\uff10.\uff15", "   ", "1e400", "4.9e-324"]


class TestBlockParserAcceptSet:
    """A cell reads as a number exactly when float() accepts it, with
    float()'s bits, in a block on either side of the 4,096-line boundary,
    through read_samples and CsvRecordStream, from a file and from stdin."""

    @pytest.mark.parametrize("lineno", [4096, 4097])
    @pytest.mark.parametrize("cell, source", [(c, s) for c in _ODD_CELLS for s in ("file", "stdin")]
                             # Only a text stream leaves a \r inside a line.
                             + [("0.2\r5", "stdin")])
    def test_cell_reads_as_float_reads_it(self, tmp_path, monkeypatch, lineno, cell, source):
        lines = ["x0,x1"] + [format_row(row) for row in np.random.default_rng(lineno).random((5000, 2))]
        lines[lineno - 1] = f"0.25,{cell}"
        text = "\n".join(lines) + "\n"
        path = tmp_path / "cells.csv"
        path.write_bytes(text.encode())
        try:
            value = float(cell)
        except ValueError:
            want = f"line {lineno}: non-numeric cell"
        else:
            want = _reference_records(str(path))[0] if math.isfinite(value) else \
                f"line {lineno}: non-finite cell"
        src = str(path) if source == "file" else "-"
        for read in (cli.read_samples, lambda p: np.array(list(_rows_of(cli.CsvRecordStream(p))))):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            if isinstance(want, str):
                with pytest.raises(cli.CliError) as err:
                    read(src)
                assert str(err.value) == want
            else:
                got = read(src)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestMixedBlock:
    """A block with a few lines np.loadtxt must not see parses line by line,
    with the values and errors of the line-by-line reference."""

    def _file(self, tmp_path, edits):
        lines = ["x0,x1"] + [format_row(row) for row in np.random.default_rng(7).random((4096, 2))]
        for lineno, line in edits.items():
            lines[lineno - 1] = line
        path = tmp_path / "mixed.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        return str(path)

    def test_one_nbsp_line_matches_line_by_line(self, tmp_path):
        path = self._file(tmp_path, {300: "0.25,0.5\xa0"})
        got = cli.read_samples(path)
        want = _reference_records(path)[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("edits, error", [
        ({300: "0.25,\x1c0.5"}, "line 300: non-numeric cell"),
        ({300: "0.25,0.5,\xa0"}, "line 300: expected 2 columns, got 3"),
        ({2: "\xa00.25"}, "line 3: expected 1 columns, got 2"),
        ({300: "0.25,0.5\xa0", 500: "0.25,abc"}, "line 500: non-numeric cell"),
        ({300: "0.25,abc\xa0", 500: "0.25,nan"}, "line 300: non-numeric cell"),
        ({300: "0.25,0.5\xa0", 500: "0.25,inf"}, "line 500: non-finite cell"),
    ])
    def test_first_bad_line_is_reported(self, tmp_path, edits, error):
        with pytest.raises(cli.CliError) as err:
            cli.read_samples(self._file(tmp_path, edits))
        assert str(err.value) == error


class TestNonFiniteCells:
    """A nan or infinite cell fails the command with its line number, exit 2,
    as soon as its block is read."""

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("command", ["subset", "subset-stdin", "score", "plot"])
    def test_exit_2_with_line_number(self, tmp_path, capsys, monkeypatch, command, cell):
        text = f"x0,x1\n0.1,0.2\n0.3,0.4\n0.5,{cell}\n0.6,0.7\n"
        f = tmp_path / "nonfinite.csv"
        f.write_text(text)
        svg = tmp_path / "p.svg"
        argv = {
            "subset": ["subset", "--in", str(f), "--n", "2", "--segment", "2", "--seed", "1"],
            "subset-stdin": ["subset", "--in", "-", "--n", "2", "--segment", "2",
                             "--total", "4", "--seed", "1"],
            "score": ["score", "--in", str(f)],
            "plot": ["plot", "--in", str(f), "--out", str(svg)],
        }[command]
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_out(capsys, *argv)
        assert (code, out, err) == (2, "", "spacefill: line 4: non-finite cell\n")
        assert not svg.exists()


class _CountingStream(cli.CsvRecordStream):
    """CsvRecordStream that records (records, data_bytes, estimate_total())
    each time stream_subset asks for the total."""

    def __init__(self, path):
        super().__init__(path)
        self.states = []

    def total(self, exact):
        self.states.append((self.records, self.data_bytes, self.estimate_total()))
        return self.estimate_total() if exact is None else exact


class TestBlockSource:
    """stream_subset reading CsvRecordStream a block at a time against the
    same stream served record by record through a plain iterator."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_rows=st.one_of(st.integers(1, 60), st.integers(4000, 9000)),
        dim=st.integers(1, 4),
        header=st.booleans(),
        crlf=st.booleans(),
        blank_every=st.sampled_from([0, 1, 5, 4096]),
        segment=st.one_of(st.sampled_from([1, 4095, 4096, 4097, 8193]), st.integers(1, 9000)),
        subset=st.integers(1, 40),
        exact=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_record_by_record(self, tmp_path_factory, n_rows, dim, header, crlf,
                                      blank_every, segment, subset, exact, seed):
        assume(subset <= n_rows and (segment > 1 or n_rows <= 60))
        rs = np.random.default_rng(seed)
        end = "\r\n" if crlf else "\n"
        lines = [",".join(f"x{j}" for j in range(dim))] if header else []
        for i, row in enumerate(rs.random((n_rows, dim))):
            lines.append(format_row(row))
            if blank_every and i % blank_every == 0:
                lines.append("")
        path = tmp_path_factory.mktemp("block") / "r.csv"
        path.write_bytes((end.join(lines) + end).encode())
        config = adapt.StreamConfig(segment_size=segment, subset_size=subset)
        total = n_rows if exact else None
        got = []
        for block_source in (True, False):
            with _CountingStream(str(path)) as stream:
                source = stream if block_source else _rows_of(stream)
                result = adapt.stream_subset(source, config, RngState(seed),
                                             total_records=lambda: stream.total(total))
                got.append((result.points.tobytes(), result.domain.lower.tobytes(),
                            result.domain.upper.tobytes(), stream.states, stream.records,
                            stream.data_bytes))
        assert got[0] == got[1]
        # At each ask, one record past the segment has been read and counted.
        _, _, counts = _reference_records(str(path))
        seen = [k * segment for k in range(1, len(got[0][3]) + 1)]
        assert [s[:2] for s in got[0][3]] == [counts[k] for k in seen]
        assert got[0][4:] == counts[-1]


class TestBadInputClosesFiles:
    """Every input file is closed when a command fails on bad input."""

    @pytest.fixture()
    def opened(self, monkeypatch):
        handles = []
        real_open = builtins.open

        def recording_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            handles.append(fh)
            return fh

        monkeypatch.setattr(builtins, "open", recording_open)
        return handles

    @pytest.mark.parametrize("content,argv", [
        (b"x0,x1\n0.1,0.2\n0.3\n", ["subset", "--n", "1", "--segment", "1", "--seed", "1"]),
        (b"\xffx0,x1\n0.1,0.2\n", ["subset", "--n", "1", "--segment", "1", "--seed", "1"]),
        (b"\xffx0,x1\n0.1,0.2\n", ["score"]),
        (b"\xffx0,x1\n0.1,0.2\n", ["latinize", "--seed", "1"]),
    ], ids=["subset-ragged", "subset-not-utf8", "score-not-utf8", "latinize-not-utf8"])
    def test_input_closed_after_exit_2(self, tmp_path, capsys, opened, content, argv):
        f = tmp_path / "bad.csv"
        f.write_bytes(content)
        code, _, err = run_out(capsys, *argv, "--in", str(f))
        assert code == 2 and err.startswith("spacefill: ")
        mine = [fh for fh in opened if getattr(fh, "name", None) == str(f)]
        assert mine and all(fh.closed for fh in mine)


class TestExpand:
    def test_shrink_drops_outside_rows(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        assert run("generate", "--algo", "random", "--dim", "2", "--n", "200",
                   "--seed", "8", "--out", str(src)) == 0
        code, out, _ = run_out(capsys, "expand", "--in", str(src),
                               "--new-lower", "0,0", "--new-upper", "0.5,0.5")
        assert code == 0
        kept = np.array([[float(v) for v in ln.split(",")]
                         for ln in out.strip().splitlines()[1:]])
        pts = cli.read_samples(str(src))
        want = pts[np.all(pts <= 0.5, axis=1)]
        assert np.array_equal(kept, want)

    def test_expand_adds_in_new_region(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        assert run("generate", "--algo", "bc", "--dim", "2", "--n", "100",
                   "--seed", "8", "--params", "ncand=100", "--out", str(src)) == 0
        code, out, _ = run_out(capsys, "expand", "--in", str(src),
                               "--new-lower", "0,0", "--new-upper", "1.5,1",
                               "--add", "25", "--seed", "14")
        assert code == 0
        pts = np.array([[float(v) for v in ln.split(",")]
                        for ln in out.strip().splitlines()[1:]])
        assert pts.shape == (125, 2)
        assert np.all(pts[100:, 0] > 1.0)

    @pytest.mark.parametrize("flags,message", [
        (["--upper", "0.5,0.5", "--new-lower", "0,0", "--new-upper", "1,1"],
         "all points must lie inside the domain box"),
        (["--new-lower", "2,2", "--new-upper", "3,3"],
         "new domain is disjoint from the existing one"),
        (["--new-lower", "0,0", "--new-upper", "2,2", "--add", "3", "--algo", "bc",
          "--params", "bogus=1"],
         "unknown parameter 'bogus' for algorithm 'bc'"),
        (["--new-lower", "0,0,0", "--new-upper", "1,1"], "--new-lower must have 2 entries"),
        (["--new-lower", "0,0", "--new-upper", "2,abc"],
         "--new-upper must be a comma-separated list of numbers"),
        (["--lower", "0,0,0", "--new-lower", "0,0", "--new-upper", "1,1"],
         "--lower must have 2 entries"),
        (["--new-lower", "nan,0", "--new-upper", "2,2"], "--new-lower must be finite"),
        (["--upper", "inf", "--new-lower", "0,0", "--new-upper", "2,2"], "--upper must be finite"),
        (["--new-lower", "0,0", "--new-upper", "2,2", "--add", "3", "--params", "ncand=0"],
         "parameter 'ncand' of algorithm 'bc' must be >= 1, got 0"),
        (["--new-lower", "0,0", "--new-upper", "0.5,0.5", "--params", "ncand=0"],
         "parameter 'ncand' of algorithm 'bc' must be >= 1, got 0"),
    ], ids=["outside-old-box", "disjoint", "bad-param", "new-lower-length", "new-upper-text",
            "lower-length", "new-lower-nan", "upper-inf", "param-range", "shrink-param-range"])
    def test_invalid_request_exit_2(self, tmp_path, capsys, flags, message):
        src = tmp_path / "s.csv"
        src.write_text("x0,x1\n0.25,0.75\n0.5,0.5\n")
        code, _, err = run_out(capsys, "expand", "--in", str(src), "--seed", "1", *flags)
        assert (code, err) == (2, f"spacefill: {message}\n")


# Bound texts of the expand contract test that no bound may take.
_BAD_BOUNDS = ["nan", "inf", "-inf", "1e400", "abc", "", "1,2,3,4,5"]


def _bound_text(v) -> str:
    """A bound flag's text: one entry when every entry is the same."""
    return format_row(v[:1] if np.all(v == v[0]) else v)


@st.composite
def expand_runs(draw):
    """expand argv on n <= 50 rows in d <= 4 with --add <= 20, and what an
    exit 0 must write.  The old box is the default unit box or drawn; a row
    may lie outside it.  The new box grows, equals, shrinks, shifts or
    leaves the old one, and one bound flag in six holds a bad text."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 50))

    def per_dim(values):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=d, max_size=d)))

    unit = draw(st.booleans())
    lo = np.zeros(d) if unit else per_dim([-1.0, 0.0, 0.25, 1e6])
    w = np.ones(d) if unit else per_dim([1e-6, 0.5, 1.0, 3.0])
    hi = lo + w
    rows = np.minimum(lo + RngState(draw(st.integers(0, 2**32 - 1))).random((n, d)) * w, hi)
    if draw(st.integers(0, 7)) == 0:
        rows[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] += 2.0 * w[0]
    kind = draw(st.sampled_from(["grow", "grow", "equal", "shrink", "shift", "disjoint"]))
    if kind == "grow":
        new_lo, new_hi = lo - per_dim([0.0, 0.25, 1.0]) * w, hi + per_dim([0.0, 0.5]) * w
    elif kind == "shrink":
        new_lo, new_hi = lo + per_dim([0.0, 0.25]) * w, hi - per_dim([0.0, 0.5]) * w
    else:
        shift = {"equal": 0.0, "shift": 0.5, "disjoint": 2.0}[kind]
        new_lo, new_hi = lo + shift * w, hi + shift * w
    flags = {"--new-lower": _bound_text(new_lo), "--new-upper": _bound_text(new_hi)}
    if not unit or draw(st.booleans()):
        flags.update({"--lower": _bound_text(lo), "--upper": _bound_text(hi)})
    bad = draw(st.integers(0, 5)) == 0
    if bad:
        flags[draw(st.sampled_from(sorted(flags)))] = draw(st.sampled_from(_BAD_BOUNDS))
    algo, add = draw(st.sampled_from(samplers.INCREMENTAL_ALGORITHMS)), draw(st.integers(-1, 20))
    argv = ["expand", "--add", str(add), "--algo", algo]
    keys = draw(st.lists(st.sampled_from([*sorted(samplers.TABLE_DEFAULTS[algo]), "bogus"]),
                         max_size=2, unique=True))
    # One value in four is of a wrong kind; the unknown key fails with any.
    values = {k: draw(st.sampled_from(_BAD_VALUES if draw(st.integers(0, 3)) == 0
                                      else _GOOD_VALUES.get(k, ["1"]))) for k in keys}
    if values:
        argv += ["--params", ",".join(f"{k}={v}" for k, v in values.items())]
    if draw(st.integers(0, 7)):
        argv += ["--seed", str(draw(st.integers(0, 2**32 - 1)))]
    # --flag=text, so that a bound starting with a minus is not read as a flag.
    argv += [f"{flag}={text}" for flag, text in flags.items()]
    return argv, rows, (new_lo, new_hi), kind, bad, add


class TestExpandContract:
    """Any expand run within the size bounds exits 0, 1 or 2, fails with
    exactly one spacefill: line and no warning, and reruns byte for byte.
    On success, growing the box returns the input rows first, bit for bit,
    then the added rows, all inside the new box; any other new box returns
    exactly the input rows inside it, in order."""

    @settings(max_examples=100, deadline=None)
    @given(expand_runs())
    def test_contract(self, case):
        argv, rows, (new_lo, new_hi), kind, bad, add = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.csv")
            with open(path, "w", newline="") as fh:
                fh.write("".join(format_row(r) + "\n" for r in rows))
            argv = [*argv, "--in", path]
            code, out, err, caught = _generate(argv)
            assert _generate(argv)[:3] == (code, out, err)
        assert code in (0, 1, 2) and caught == []
        if code:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("spacefill: ")
            return
        assert err == "" and not bad and kind != "disjoint"
        got = np.array([[float(v) for v in ln.split(",")] for ln in out.splitlines()[1:]])
        got = got.reshape(-1, rows.shape[1])
        inside = np.all((got >= new_lo) & (got <= new_hi), axis=1)
        if kind in ("grow", "equal"):
            assert len(got) == len(rows) + add
            assert got[:len(rows)].tobytes() == rows.tobytes()
            assert inside.all()
        else:
            keep = np.all((rows >= new_lo) & (rows <= new_hi), axis=1)
            assert got.tobytes() == rows[keep].tobytes()


# --halfwidth texts of the append-region contract test: in range, and out of
# range or so small that every box collapses.
_GOOD_HALFWIDTHS = ["0.001", "0.03", "0.5", "2", "inf"]
_BAD_HALFWIDTHS = ["0", "-1", "nan", "1e-300"]


@st.composite
def append_region_runs(draw):
    """append-region argv on n <= 50 anchors in d <= 3, and what an exit 0
    must write.  The box is the default unit box or drawn, and an anchor
    may lie outside it; --halfwidth, --cands-per-anchor and --n may be out
    of range."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 50))

    def per_dim(values):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=d, max_size=d)))

    unit = draw(st.booleans())
    lo = np.zeros(d) if unit else per_dim([-1.0, 0.0, 0.25, 1e6])
    w = np.ones(d) if unit else per_dim([1e-6, 0.5, 1.0, 3.0])
    hi = lo + w
    rows = np.minimum(lo + RngState(draw(st.integers(0, 2**32 - 1))).random((n, d)) * w, hi)
    if draw(st.integers(0, 7)) == 0:
        rows[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] += 2.0 * w[0]
    # One value in eight of each flag is out of range.
    per_anchor = draw(st.sampled_from([1, 3, 20])) if draw(st.integers(0, 7)) else 0
    total = n * per_anchor
    picks = (draw(st.integers(1, min(total, 60))) if total and draw(st.integers(0, 7))
             else draw(st.sampled_from([0, total + 1])))
    halfwidth = draw(st.sampled_from(_GOOD_HALFWIDTHS if draw(st.integers(0, 7))
                                     else _BAD_HALFWIDTHS))
    argv = ["append-region", "--halfwidth", halfwidth, "--cands-per-anchor", str(per_anchor),
            "--n", str(picks)]
    if draw(st.booleans()):
        argv.append("--include-anchors")
    if not unit or draw(st.booleans()):
        # --flag=text, so that a bound starting with a minus is not read as a flag.
        argv += [f"--lower={_bound_text(lo)}", f"--upper={_bound_text(hi)}"]
    if draw(st.integers(0, 7)):
        argv += ["--seed", str(draw(st.integers(0, 2**32 - 1)))]
    return argv, rows, (lo, hi), picks


class TestAppendRegionContract:
    """Any append-region run within the size bounds exits 0, 1 or 2, fails
    with exactly one spacefill: line and no warning, and reruns byte for
    byte.  On success it writes the anchor rows first, byte for byte, then
    --n distinct rows inside the box."""

    @settings(max_examples=100, deadline=None)
    @given(append_region_runs())
    def test_contract(self, case):
        argv, rows, (lo, hi), picks = case
        lines = [format_row(r) + "\n" for r in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "anchors.csv")
            with open(path, "w", newline="") as fh:
                fh.write("".join(lines))
            argv = [*argv, "--anchors", path]
            code, out, err, caught = _generate(argv)
            assert _generate(argv)[:3] == (code, out, err)
        assert code in (0, 1, 2) and caught == []
        if code:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("spacefill: ")
            return
        assert err == ""
        header, *body = out.splitlines(keepends=True)
        assert header == ",".join(f"x{j}" for j in range(rows.shape[1])) + "\n"
        assert body[:len(rows)] == lines and len(body) == len(rows) + picks
        added = np.array([[float(v) for v in ln.split(",")] for ln in body[len(rows):]])
        assert len(np.unique(added, axis=0)) == picks
        assert np.all((added >= lo) & (added <= hi))


class TestAppendRegion:
    def test_anchor_prefix_preserved(self, tmp_path, capsys):
        anchors = tmp_path / "anchors.csv"
        t = np.linspace(0.2, 0.8, 10)
        pts = np.column_stack([t, t ** 2])
        with open(anchors, "w", newline="\n") as fh:
            cli.write_samples(pts, fh)
        code, out, _ = run_out(capsys, "append-region", "--anchors", str(anchors),
                               "--halfwidth", "0.05", "--cands-per-anchor", "20",
                               "--n", "15", "--seed", "17")
        assert code == 0
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in out.strip().splitlines()[1:]])
        assert rows.shape == (25, 2)
        assert np.allclose(rows[:10], pts, rtol=0, atol=0)

    @pytest.mark.parametrize("flags,message", [
        (["--upper", "0.5,0.5"], "all points must lie inside the domain box"),
        (["--halfwidth", "0"], "--halfwidth must be positive"),
        (["--n", "7"], "n must be in [1, 6] (anchors x candidates per anchor)"),
        (["--halfwidth", "1e-300"], "degenerate domain: lower must be strictly below upper"),
        (["--halfwidth", "-1"], "--halfwidth must be positive"),
        (["--halfwidth", "nan"], "--halfwidth must be positive"),
        (["--cands-per-anchor", "0"], "--cands-per-anchor must be >= 1"),
    ], ids=["outside-box", "zero-halfwidth", "n-too-large", "collapsed-box", "negative-halfwidth",
            "nan-halfwidth", "zero-cands-per-anchor"])
    def test_invalid_request_exit_2(self, tmp_path, capsys, flags, message):
        anchors = tmp_path / "anchors.csv"
        anchors.write_text("x0,x1\n0.25,0.75\n0.5,0.5\n")
        argv = ["append-region", "--anchors", str(anchors), "--cands-per-anchor", "3",
                "--n", "4", "--seed", "1"]
        code, _, err = run_out(capsys, *argv, *flags)
        assert (code, err) == (2, f"spacefill: {message}\n")


class TestBench:
    @pytest.mark.parametrize("doc", [[{"name": "mini"}], "mini"], ids=["array", "string"])
    def test_spec_not_an_object_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_out(capsys, "bench", "--spec", str(path), "--out", str(tmp_path))
        assert (code, err) == (2, "spacefill: spec must be a JSON object\n")

    @pytest.mark.parametrize("method, message", [
        (["bogus", {}], "unknown algorithm 'bogus'; expected one of "
                        f"{sorted(samplers.TABLE_DEFAULTS)}"),
        (["bc", {"scale": 3}], "unknown parameter 'scale' for algorithm 'bc'"),
    ], ids=["method", "param"])
    def test_unknown_name_exit_2(self, tmp_path, capsys, method, message):
        spec = {"name": "mini", "dim": 2, "nSamples": 10, "repetitions": 1,
                "methods": [["bc", {"ncand": 5}], method]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_out(capsys, "bench", "--spec", str(path), "--out", str(tmp_path))
        assert (code, out, err) == (2, "", f"spacefill: bad experiment spec: {message}\n")

    @pytest.mark.parametrize("change, message", [
        ({"methods": [["poisson", {}]]}, "poisson takes a radius, not a sample count"),
        ({"methods": [["grid", {}]]}, "grid takes bins, not a sample count"),
        ({"methods": [["stratified", {}]]}, "stratified takes bins, not a sample count"),
        ({"nSamples": 1}, "nSamples must be >= 2 (the metrics need two points)"),
        ({"dim": 0}, "dim must be >= 1"),
    ], ids=["poisson", "grid", "stratified", "one-sample", "zero-dim"])
    def test_spec_rule_exit_2(self, tmp_path, capsys, change, message):
        spec = {"name": "mini", "dim": 2, "nSamples": 10, "repetitions": 1,
                "methods": [["bc", {"ncand": 5}]], **change}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_out(capsys, "bench", "--spec", str(path), "--out", str(tmp_path))
        assert (code, out, err) == (2, "", f"spacefill: bad experiment spec: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ('{"name": "mini", "dim": 1e400}', "bad experiment spec: dim must be an integer, got inf"),
        ('{"name": "mini", "dim": true}', "bad experiment spec: dim must be an integer, got True"),
        ('{"name": "mini", "nSamples": 2.7}',
         "bad experiment spec: nSamples must be an integer, got 2.7"),
        ('{"name": "mini", "latinizeVariants": "no"}',
         "bad experiment spec: latinizeVariants must be a boolean, got 'no'"),
        ('{"name": "a/b"}', "bad experiment spec: name must be a file name, got 'a/b'"),
        ('{"name": "../escaped"}',
         "bad experiment spec: name must be a file name, got '../escaped'"),
        ('{"name": ""}', "bad experiment spec: name must be a file name, got ''"),
        ('{"name": ".."}', "bad experiment spec: name must be a file name, got '..'"),
        ('{"name": "mini"}, {"name": "mini"}', "bad experiment spec: name 'mini' is not unique"),
        ("", "spec experiments must be a nonempty list"),
    ], ids=["dim-overflow", "dim-bool", "n-fraction", "latinize-text", "name-separator",
            "name-parent", "name-empty", "name-dots", "name-twice", "no-experiments"])
    def test_spec_value_exit_2(self, tmp_path, capsys, text, message):
        """Each experiment of a spec is checked before any cell runs: no
        table on stdout, and no report anywhere."""
        # A key of text overrides the same key of base.
        base = '"nSamples": 10, "dim": 2, "repetitions": 1, "methods": [["random", {}]], '
        experiments = text.replace("{", "{" + base)
        path = tmp_path / "spec.json"
        path.write_text(f'{{"experiments": [{experiments}]}}')
        out_dir = tmp_path / "out" / "reports"
        code, out, err = run_out(capsys, "bench", "--spec", str(path), "--out", str(out_dir))
        assert (code, out, err) == (2, "", f"spacefill: {message}\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json"]

    def test_integral_float_counts_are_integers(self, tmp_path, capsys):
        spec = {"name": "mini", "dim": 2.0, "nSamples": 10.0, "repetitions": 1.0,
                "methods": [["random", {}]], "latinizeVariants": False, "seedBase": 5.0}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = run_out(capsys, "bench", "--spec", str(path), "--out", str(tmp_path))
        assert (code, err) == (0, "")
        doc = json.loads((tmp_path / "mini.json").read_text())
        assert doc["experiment"] == {"name": "mini", "dim": 2, "nSamples": 10, "repetitions": 1,
                                     "methods": [["random", {}]], "latinizeVariants": False,
                                     "seedBase": 5}

    def test_shipped_spec_loads(self, tmp_path, capsys, monkeypatch):
        """specs/c3_10d1000.json passes every spec rule (its cells are not run)."""
        ran = []
        monkeypatch.setattr(bench, "run_experiment",
                            lambda spec: ran.append(spec) or bench.BenchReport(spec=spec))
        path = os.path.join(os.path.dirname(__file__), "..", "specs", "c3_10d1000.json")
        code, _, err = run_out(capsys, "bench", "--spec", path, "--out", str(tmp_path))
        assert (code, err) == (0, "")
        assert [s.name for s in ran] == ["c3-10d-1000-fp", "c3-10d-1000-greedyfp-scale1",
                                         "c3-10d-1000-greedyfp-scale2", "c3-10d-1000-bc-ncand2",
                                         "c3-10d-1000-bc-ncand5"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{s.name}.json" for s in ran)

    def test_custom_spec_writes_reports(self, tmp_path, capsys):
        spec = {
            "schemaVersion": 1,
            "experiments": [{
                "name": "mini", "dim": 2, "nSamples": 30, "repetitions": 2,
                "methods": [["random", {}], ["bc", {"ncand": 15}]],
                "latinizeVariants": True, "seedBase": 5,
            }],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out_dir = tmp_path / "reports"
        code, out, _ = run_out(capsys, "bench", "--spec", str(path),
                               "--out", str(out_dir), "--format", "json")
        assert code == 0
        doc = json.loads((out_dir / "mini.json").read_text())
        assert doc["schemaVersion"] == 1
        assert "Random" in out  # table echoed to stdout

    @pytest.mark.parametrize("reps, code, message", [
        (1, 0, ""), (0, 2, "spacefill: repetitions must be >= 1\n"),
        (-1, 2, "spacefill: repetitions must be >= 1\n")])
    def test_reps_override_on_spec(self, tmp_path, capsys, reps, code, message):
        spec = {"name": "mini", "dim": 2, "nSamples": 10, "repetitions": 3,
                "methods": [["bc", {"ncand": 5}]], "latinizeVariants": False, "seedBase": 5}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out_dir = tmp_path / "reports"
        got = run_out(capsys, "bench", "--spec", str(path), "--out", str(out_dir),
                      "--reps-override", str(reps))
        assert (got[0], got[2]) == (code, message)
        if code == 0:
            doc = json.loads((out_dir / "mini.json").read_text())
            assert doc["experiment"] == {**spec, "repetitions": 1}
            assert [r["rep"] for r in doc["rows"]] == [0]

    def test_json_rows_revalidate_via_score(self, tmp_path, capsys):
        # cross-check: regenerate one cell from its recorded seed, score it
        # through the score command, and compare against the stored row
        spec = {"name": "mini", "dim": 2, "nSamples": 25, "repetitions": 1,
                "methods": [["bc", {"ncand": 20}]], "latinizeVariants": False,
                "seedBase": 5}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"schemaVersion": 1, "experiments": [spec]}))
        out_dir = tmp_path / "reports"
        assert run("bench", "--spec", str(path), "--out", str(out_dir),
                   "--format", "json") == 0
        capsys.readouterr()
        doc = json.loads((out_dir / "mini.json").read_text())
        row = doc["rows"][0]
        gen = tmp_path / "cell.csv"
        assert run("generate", "--algo", "bc", "--dim", "2", "--n", "25",
                   "--seed", str(row["seed"]), "--params", "ncand=20",
                   "--out", str(gen)) == 0
        code, out, _ = run_out(capsys, "score", "--in", str(gen))
        assert code == 0
        scored = json.loads(out)
        assert scored["nnAvg"] == pytest.approx(row["nn_avg"], rel=1e-12)
        assert scored["phiP"] == pytest.approx(row["phi_p"], rel=1e-12)
        assert scored["cl2"] == pytest.approx(row["cl2"], rel=1e-12)

    def test_requires_suite_or_spec(self, capsys):
        code, _, err = run_out(capsys, "bench", "--out", "/tmp/x")
        assert code == 2

    def test_paper_suite_writes_four_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code, out, _ = run_out(capsys, "bench", "--suite", "paper",
                               "--reps-override", "1", "--out", str(out_dir))
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["10d-1000.json", "2d-500.json", "4d-1000.json", "4d-500.json"]
        # table output carries the five method rows per experiment
        assert out.count("GreedyFP") == 4

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_paper_suite_rejects_reps_below_1(self, tmp_path, capsys, reps):
        out_dir = tmp_path / "reports"
        got = run_out(capsys, "bench", "--suite", "paper", "--reps-override", reps,
                      "--out", str(out_dir))
        assert got == (2, "", "spacefill: repetitions must be >= 1\n")
        assert not out_dir.exists()


class TestPlot:
    def test_circle_count(self, tmp_path):
        src = tmp_path / "p.csv"
        svg = tmp_path / "p.svg"
        assert run("generate", "--algo", "random", "--dim", "2", "--n", "100",
                   "--seed", "20", "--out", str(src)) == 0
        assert run("plot", "--in", str(src), "--out", str(svg)) == 0
        text = svg.read_text()
        assert text.count("<circle") == 100

    def test_split_uses_two_colors(self, tmp_path):
        src = tmp_path / "p.csv"
        svg = tmp_path / "p.svg"
        assert run("generate", "--algo", "bc", "--dim", "2", "--n", "40",
                   "--seed", "21", "--params", "ncand=20", "--out", str(src)) == 0
        assert run("plot", "--in", str(src), "--out", str(svg), "--split", "20") == 0
        text = svg.read_text()
        assert text.count('fill="#000000"') == 20
        assert text.count('fill="#d62728"') == 20

    @pytest.mark.parametrize("split, code", [(-1, 2), (0, 0), (20, 0), (21, 2)])
    def test_split_range(self, tmp_path, capsys, split, code):
        src = tmp_path / "p.csv"
        assert run("generate", "--algo", "random", "--dim", "2", "--n", "20",
                   "--seed", "24", "--out", str(src)) == 0
        svg = tmp_path / "p.svg"
        got, _, err = run_out(capsys, "plot", "--in", str(src), "--out", str(svg),
                              "--split", str(split))
        if code:
            assert (got, err) == (2, f"spacefill: --split must lie in [0, 20], got {split}\n")
            assert not svg.exists()
        else:
            assert got == 0 and svg.read_text().count('fill="#000000"') == split

    def test_projection_of_4d(self, tmp_path):
        src = tmp_path / "p4.csv"
        svg = tmp_path / "p4.svg"
        assert run("generate", "--algo", "random", "--dim", "4", "--n", "30",
                   "--seed", "22", "--out", str(src)) == 0
        assert run("plot", "--in", str(src), "--out", str(svg), "--dims", "0,3") == 0
        assert svg.read_text().count("<circle") == 30

    def test_invalid_dims_exit_2(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        assert run("generate", "--algo", "random", "--dim", "2", "--n", "5",
                   "--seed", "23", "--out", str(src)) == 0
        code, _, _ = run_out(capsys, "plot", "--in", str(src), "--out",
                             str(tmp_path / "x.svg"), "--dims", "0,0")
        assert code == 2

    def test_1d_input_rejected(self, tmp_path, capsys):
        src = tmp_path / "p1.csv"
        src.write_text("x0\n0.5\n0.6\n")
        code, _, _ = run_out(capsys, "plot", "--in", str(src), "--out",
                             str(tmp_path / "x.svg"))
        assert code == 2


class TestUsageErrors:
    """Every argparse usage error exits 2 with one ``spacefill:`` line on
    stderr and nothing on stdout; ``--help`` still prints its usage."""

    CASES = {
        "none": ([], "the following arguments are required: command"),
        "unknown-command": (["bogus"], "argument command: invalid choice: 'bogus'"),
        "unrecognized": (["score", "--in", "f.csv", "--extra"], "unrecognized arguments: --extra"),
        "generate-choice": (["generate", "--algo", "nope"], "generate: argument --algo: invalid choice"),
        "generate-int": (["generate", "--dim", "two"], "generate: argument --dim: invalid int value"),
        "generate-value": (["generate", "--n"], "generate: argument --n: expected one argument"),
        "score-missing": (["score"], "score: the following arguments are required: --in"),
        "score-int": (["score", "--in", "f.csv", "--p", "1.5"], "score: argument --p: invalid int value"),
        "latinize-missing": (["latinize", "--seed", "1"], "latinize: the following arguments are required: --in"),
        "latinize-int": (["latinize", "--in", "f.csv", "--seed", "x"], "latinize: argument --seed: invalid int value"),
        "subset-missing": (["subset", "--in", "f.csv", "--n", "5"],
                           "subset: the following arguments are required: --segment"),
        "subset-int": (["subset", "--in", "f.csv", "--n", "5", "--segment", "1e3"],
                       "subset: argument --segment: invalid int value"),
        "expand-missing": (["expand", "--in", "f.csv", "--new-lower", "0"],
                           "expand: the following arguments are required: --new-upper"),
        "expand-choice": (["expand", "--in", "f.csv", "--new-lower", "0", "--new-upper", "1",
                           "--algo", "cvt"], "expand: argument --algo: invalid choice"),
        "expand-int": (["expand", "--in", "f.csv", "--new-lower", "0", "--new-upper", "1",
                        "--add", "many"], "expand: argument --add: invalid int value"),
        "append-region-missing": (["append-region", "--n", "5"],
                                  "append-region: the following arguments are required: --anchors"),
        "append-region-float": (["append-region", "--anchors", "f.csv", "--n", "5", "--halfwidth", "wide"],
                                "append-region: argument --halfwidth: invalid float value"),
        "bench-missing": (["bench"], "bench: one of the arguments --suite --spec is required"),
        "bench-choice": (["bench", "--suite", "mine"], "bench: argument --suite: invalid choice"),
        "bench-int": (["bench", "--suite", "paper", "--reps-override", "2.0"],
                      "bench: argument --reps-override: invalid int value"),
        "plot-missing": (["plot", "--in", "f.csv"], "plot: the following arguments are required: --out"),
        "plot-int": (["plot", "--in", "f.csv", "--out", "f.svg", "--split", "half"],
                     "plot: argument --split: invalid int value"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_line_exit_2(self, capsys, case):
        argv, message = self.CASES[case]
        code, out, err = run_out(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"spacefill: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["subset", "--help"]])
    def test_help_unchanged(self, capsys, argv):
        code, out, err = run_out(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: spacefill")
