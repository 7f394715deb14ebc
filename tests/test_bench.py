import copy
import csv
import io
import json

import pytest

from spacefill import bench
from spacefill.core import Domain, RngState
from spacefill.samplers import generate, latinize
from spacefill.bench import (
    DEFAULT_SEED_BASE,
    BenchReport,
    ExperimentSpec,
    cell_seed,
    format_report,
    paper_suite,
    run_experiment,
)


def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        dim=2,
        n_samples=40,
        repetitions=2,
        methods=[("random", {}), ("bc", {"ncand": 20})],
        latinize_variants=True,
        seed_base=99,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRunExperiment:
    def test_single_rep_single_method_row_counts(self):
        spec = tiny_spec(repetitions=1, methods=[("random", {})])
        report = run_experiment(spec)
        assert len(report.rows) == 2  # one per variant
        spec2 = tiny_spec(repetitions=1, methods=[("random", {})], latinize_variants=False)
        assert len(run_experiment(spec2).rows) == 1

    def test_deterministic_reports(self):
        a = run_experiment(tiny_spec())
        b = run_experiment(tiny_spec())
        da, db = a.to_dict(), b.to_dict()
        da["summary"] = {k: {kk: vv for kk, vv in v.items() if kk != "time_s"}
                         for k, v in da["summary"].items()}
        db["summary"] = {k: {kk: vv for kk, vv in v.items() if kk != "time_s"}
                         for k, v in db["summary"].items()}
        assert da["rows"] == db["rows"]
        assert da["summary"] == db["summary"]

    def test_unmoved_latinized_set_reuses_report(self, monkeypatch):
        """Latinizing an LHS set moves no coordinate, so an LHS cell computes
        one report per repetition and its Latinized row repeats the plain
        one; a random cell computes two.  Every row equals the report of its
        set computed afresh."""
        calls = []
        real = bench.quality_report
        monkeypatch.setattr(bench, "quality_report", lambda s: calls.append(s) or real(s))
        methods = [("lhs-basic", {}), ("lhs-maximin", {"ntries": 2, "ninterchanges": 10}),
                   ("random", {})]
        report = run_experiment(tiny_spec(methods=methods))
        assert len(calls) == 2 + 2 + 4
        metrics = ("nn_min", "nn_avg", "nn_max", "phi_p", "cl2")
        rows = {(r["method"], r["rep"], r["latinized"]): r for r in report.rows}
        for method, params in methods:
            for rep in range(2):
                rng = RngState(cell_seed(99, method, rep))
                plain = generate(method, Domain.unit(2), 40, rng, params)
                for latinized, s in ((False, plain), (True, latinize(plain, rng))):
                    q = real(s)
                    assert [rows[method, rep, latinized][m] for m in metrics] == \
                        [getattr(q, m) for m in metrics]

    def test_cell_seeds_reproducible_and_distinct(self):
        s1 = cell_seed(99, "bc", 0)
        assert s1 == cell_seed(99, "bc", 0)
        assert s1 != cell_seed(99, "bc", 1)
        assert s1 != cell_seed(99, "random", 0)

    def test_failing_cell_recorded_not_fatal(self, monkeypatch):
        # A parameter out of range fails the spec, so a cell fails at run time.
        with pytest.raises(ValueError, match="parameter 'ncand'"):
            tiny_spec(methods=[("bc", {"ncand": -5})])
        real = bench.generate

        def failing(method, *args):
            if method == "bc":
                raise RuntimeError("cell failed")
            return real(method, *args)
        monkeypatch.setattr(bench, "generate", failing)
        report = run_experiment(tiny_spec(methods=[("bc", {"ncand": 5}), ("random", {})]))
        assert len(report.failures) == 2  # both reps of the bad method
        assert {f["method"] for f in report.failures} == {"bc"}
        assert any(r["method"] == "random" for r in report.rows)

    def test_means_recompute_from_rows(self):
        report = run_experiment(tiny_spec())
        for method in ("random", "bc"):
            rows = [r["nn_avg"] for r in report.rows
                    if r["method"] == method and not r["latinized"]]
            assert report.cell_mean(method, False, "nn_avg") == pytest.approx(
                sum(rows) / len(rows), rel=1e-15)


class TestPaperSuite:
    def test_four_experiments(self):
        suite = paper_suite()
        assert len(suite) == 4
        assert [s.name for s in suite] == ["2d-500", "4d-500", "4d-1000", "10d-1000"]

    def test_grid_and_repetitions(self):
        suite = paper_suite()
        assert [(s.dim, s.n_samples, s.repetitions) for s in suite] == [
            (2, 500, 50), (4, 500, 50), (4, 1000, 20), (10, 1000, 20)]

    def test_five_methods_with_comparison_params(self):
        for spec in paper_suite():
            ids = [m for m, _ in spec.methods]
            assert ids == ["random", "lhs-maximin", "greedyfp", "bc", "hybrid"]
            params = dict(spec.methods)
            assert params["lhs-maximin"] == {"ntries": 10, "ninterchanges": 100}
            assert params["greedyfp"] == {"scale": 10}
            assert params["bc"] == {"ncand": 250}
            assert params["hybrid"] == {"scale": 10, "refresh": 100}

    def test_reps_override(self):
        assert all(s.repetitions == 3 for s in paper_suite(reps_override=3))

    def test_default_methods_are_copies(self, monkeypatch):
        """Editing one spec's default method parameters leaves every other
        spec's alone."""
        monkeypatch.setattr(bench, "COMPARISON_METHODS", copy.deepcopy(bench.COMPARISON_METHODS))
        ExperimentSpec("a", 2, 10, 1).methods[1][1]["ntries"] = 1
        assert bench.COMPARISON_METHODS[1][1]["ntries"] == 10
        others = [ExperimentSpec("b", 2, 10, 1), paper_suite()[0],
                  ExperimentSpec.from_dict({"name": "c", "dim": 2, "nSamples": 10, "repetitions": 1})]
        for spec in others:
            assert dict(spec.methods)["lhs-maximin"] == {"ntries": 10, "ninterchanges": 100}


@pytest.fixture(scope="module")
def report():
    return run_experiment(tiny_spec())


class TestFormatReport:
    def test_empty_report_header_only(self):
        empty = BenchReport(spec=tiny_spec())
        text = format_report(empty, "csv")
        assert text.splitlines()[0].startswith("experiment,method")
        assert len(text.splitlines()) == 1

    def test_csv_round_trip(self, report):
        text = format_report(report, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(report.rows)
        for parsed, orig in zip(rows, report.rows):
            for key in ("nn_min", "nn_avg", "nn_max", "phi_p", "cl2"):
                assert float(parsed[key]) == orig[key]

    def test_json_schema(self, report):
        doc = json.loads(format_report(report, "json"))
        assert doc["schemaVersion"] == 1
        assert doc["experiment"]["name"] == "tiny"
        assert set(doc["summary"]) == {"random", "bc"}
        assert len(doc["rows"]) == len(report.rows)

    def test_table_layout(self, report):
        text = format_report(report, "table")
        lines = text.strip().splitlines()
        assert "Method" in lines[1]
        assert lines[2].startswith("Random")
        assert lines[3].startswith("BC")

    def test_table_has_five_method_rows_for_comparison_spec(self):
        empty = BenchReport(spec=paper_suite()[0])
        lines = format_report(empty, "table").strip().splitlines()
        assert [ln.split()[0] for ln in lines[2:7]] == [
            "Random", "LHS", "GreedyFP", "BC", "Hybrid"]

    def test_unknown_format(self, report):
        with pytest.raises(ValueError):
            format_report(report, "yaml")


class TestExperimentSpecSerialization:
    def test_round_trip(self):
        spec = tiny_spec()
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()

    def test_unknown_keys_rejected(self):
        d = tiny_spec().to_dict()
        d["extra"] = 1
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict(d)

    def test_default_seed_base(self):
        assert paper_suite()[0].seed_base == DEFAULT_SEED_BASE
