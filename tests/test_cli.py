"""End-to-end CLI: ingestion, fitting, simulation, diagnosis."""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from curdur.cli import (
    EXIT_ERROR,
    EXIT_FLAGGED,
    EXIT_OK,
    _write_json,
    ingest,
    main,
    parse_truth,
    read_draws_csv,
    write_dataset,
    write_draws_csv,
)
from curdur.errors import ConfigurationError, IngestError
from curdur.reporting import ReportedDuration, Unit, day_interval
from curdur.simulator import simulate_survey, truncated_geometric


def write_csv(path, rows, header="z,unit"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestIngest:
    def test_tokens_and_codes(self, tmp_path):
        path = write_csv(
            tmp_path / "data.csv", ["14,day", "3,WEEK", "2,month", "1,year", "5,1", "0,2"]
        )
        dataset, report = ingest(path)
        assert len(dataset) == 6
        assert report.retained == 6
        assert report.excluded == 0
        assert dataset.records[0] == ReportedDuration(z=14, unit=Unit.DAY)
        # heap day 14 implies the spread interval [12, 16]
        assert day_interval(dataset.records[0]) == (12, 16)
        assert dataset.records[4] == ReportedDuration(z=5, unit=Unit.DAY)

    def test_window_exclusions_counted(self, tmp_path):
        path = write_csv(
            tmp_path / "data.csv",
            ["3,day", "2,year", "24,month", "105,week", "730,day", "1,year"],
        )
        dataset, report = ingest(path)
        assert len(dataset) == 2
        assert report.excluded == 4
        assert report.excluded_by_unit == {
            "year": 1,
            "month": 1,
            "week": 1,
            "day": 1,
        }

    def test_boundary_rows_kept(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", ["104,week", "23,month", "729,day"])
        dataset, report = ingest(path)
        assert len(dataset) == 3
        assert report.excluded == 0

    def test_malformed_rows_rejected_with_line_numbers(self, tmp_path):
        path = write_csv(
            tmp_path / "data.csv", ["3,day", "5,fortnight", "x,day", "-2,week", "0,year"]
        )
        with pytest.raises(IngestError) as err:
            ingest(path)
        message = str(err.value)
        assert "line 3" in message and "fortnight" in message
        assert "line 4" in message
        assert "line 5" in message
        assert "line 6" in message

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", ["1,day"], header="value,unit")
        with pytest.raises(IngestError):
            ingest(path)

    def test_empty_after_exclusions(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", ["2,year"])
        with pytest.raises(IngestError):
            ingest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(tmp_path / "nope.csv")

    def test_round_trip(self, tmp_path):
        dataset = simulate_survey(truncated_geometric(0.1), n=800, seed=3)
        path = tmp_path / "sim.csv"
        write_dataset(dataset, path)
        back, report = ingest(path)
        assert back == dataset
        assert report.excluded == 0


# one block of rows of every kind; the malformed ones are marked
_ROW_KINDS = [
    ("3,week", False),
    ("14,day", False),
    ("730,day", False),       # excluded, day
    ("1,day,x", True),        # 3 fields
    ("", False),              # blank
    ("105,week", False),      # excluded, week
    ("3,fortnight", True),    # unknown unit
    ("24,month", False),      # excluded, month
    ("abc,day", True),        # not an integer
    (" , ", False),           # blank cells
    ("-1,week", True),        # negative
    ("2,year", False),        # excluded, year
    ("0,year", True),         # 0-year
    ("1,YEAR", False),
]


class TestIngestRepeatedRows:
    """Every kind of row, repeated: each distinct row is classified once."""

    def test_problem_text_in_line_order(self, tmp_path):
        path = write_csv(tmp_path / "data.csv", [row for row, _ in _ROW_KINDS] * 3)
        with pytest.raises(IngestError) as err:
            ingest(path)
        zero_year = ("a 0-year report is not representable "
                     "(expected z = 1 within the two-year window)")
        shown = []
        for block in range(2):
            first = 2 + 14 * block
            shown += [
                f"line {first + 3}: expected 2 fields, got 3",
                f"line {first + 6}: unknown unit 'fortnight'",
                f"line {first + 8}: reported value 'abc' is not an integer",
                f"line {first + 10}: reported value -1 is negative",
                f"line {first + 12}: {zero_year}",
            ]
        assert str(err.value) == f"{path}: {'; '.join(shown)} (and 5 more)"

    def test_counts_and_shared_records(self, tmp_path):
        clean = [row for row, bad in _ROW_KINDS if not bad]
        dataset, report = ingest(write_csv(tmp_path / "data.csv", clean * 3))
        assert report.to_dict() == {
            "total_rows": 21,
            "retained": 9,
            "excluded": 12,
            "excluded_by_unit": {"day": 3, "week": 3, "month": 3, "year": 3},
        }
        assert list(report.excluded_by_unit) == ["day", "week", "month", "year"]
        week, day, year = (ReportedDuration(3, Unit.WEEK), ReportedDuration(14, Unit.DAY),
                           ReportedDuration(1, Unit.YEAR))
        assert dataset.records == (week, day, year) * 3
        assert list(dataset.counts.items()) == [(week, 3), (day, 3), (year, 3)]
        assert len({id(r) for r in dataset.records}) == len(dataset.counts)


class TestDatasetRoundTrip:
    def test_write_then_ingest_keeps_order_and_counts(self, tmp_path):
        truth = parse_truth("geometric:p=0.02@0.7+uniform:lo=300,hi=600@0.3")
        dataset = simulate_survey(truth, n=3000, seed=11)
        path = tmp_path / "data.csv"
        write_dataset(dataset, path)
        back, report = ingest(path)
        assert back.records == dataset.records
        assert list(back.counts.items()) == list(dataset.counts.items())
        assert (report.total_rows, report.excluded) == (3000, 0)

    def test_fit_survey_bytes_are_pinned(self, tmp_path):
        # the survey the fit benchmark fits; its bytes must not drift
        assert main(["simulate", "--truth", "geometric:p=0.03", "--n", "1000",
                     "--seed", "7", "--outdir", str(tmp_path)]) == EXIT_OK
        digest = hashlib.sha256((tmp_path / "data.csv").read_bytes()).hexdigest()
        assert digest == "c8064bd75d50fe012e4908dc1c89943fb97a82b7379338ab2f1b822a95645368"


class TestParseTruth:
    def test_geometric(self):
        truth = parse_truth("geometric:p=0.1")
        assert truth.f_x[0] == pytest.approx(0.1, rel=1e-6)

    def test_mixture(self):
        truth = parse_truth("geometric:p=0.5@0.5+pointmass:day=40@0.5")
        assert truth.f_x[40] > 0.49

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            parse_truth("weibull:k=2")

    def test_bad_weight(self):
        with pytest.raises(ConfigurationError):
            parse_truth("geometric:p=0.1@half")

    @pytest.mark.parametrize(
        "spec",
        ["geometric:q=0.1", "geometric:p=abc", "geometric:p=0.1,q=0.2",
         "pointmass:day=nan", "uniform:lo=3"],
    )
    def test_bad_arguments(self, spec):
        with pytest.raises(ConfigurationError):
            parse_truth(spec)


class TestRunConfig:
    def test_heap_overrides(self, tmp_path):
        from curdur.cli import RunConfig, build_parser

        args = build_parser().parse_args(
            [
                "fit",
                "--input",
                str(tmp_path / "d.csv"),
                "--outdir",
                str(tmp_path / "o"),
                "--heap-days",
                "5,10",
                "--heap-halfwidth",
                "1",
                "--levels",
                "0.5,0.9",
            ]
        )
        run = RunConfig.from_fit_args(args)
        assert run.heap.days == (5, 10)
        assert run.heap.halfwidth == 1
        assert run.levels == (0.5, 0.9)
        assert run.basis.num_segments == 10
        assert run.sampler.chains == 4


class TestCommands:
    def test_simulate_then_fit_then_diagnose(self, tmp_path, capsys):
        sim_dir = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--truth",
                "geometric:p=0.2",
                "--n",
                "400",
                "--seed",
                "7",
                "--outdir",
                str(sim_dir),
            ]
        )
        assert code == EXIT_OK
        assert (sim_dir / "data.csv").exists()
        truth_payload = json.loads((sim_dir / "truth.json").read_text())
        assert len(truth_payload["f_x"]) == 730

        fit_dir = tmp_path / "fit"
        args = [
            "fit",
            "--input",
            str(sim_dir / "data.csv"),
            "--outdir",
            str(fit_dir),
            "--knots",
            "6",
            "--chains",
            "2",
            "--iters",
            "300",
            "--warmup",
            "150",
            "--seed",
            "1",
        ]
        code = main(args)
        assert code in (EXIT_OK, EXIT_FLAGGED)
        for name in ("draws.csv", "estimates.json", "diagnostics.json", "histogram.csv"):
            assert (fit_dir / name).exists()

        estimates = json.loads((fit_dir / "estimates.json").read_text())
        assert len(estimates["tsls_pmf"]["median"]) == 730
        assert len(estimates["tbs_survival"]["median"]) == 731
        assert set(estimates["tsls_pmf"]["intervals"]) == {"0.8", "0.95"}
        assert estimates["dataset"]["retained"] == 400
        assert estimates["mean_tbs_days"]["median"] > 0

        diagnostics = json.loads((fit_dir / "diagnostics.json").read_text())
        assert len(diagnostics["parameters"]) == 10  # 6 + 3 deltas, log_sigma
        assert "divergences" in diagnostics and len(diagnostics["divergences"]) == 2

        hist_lines = (fit_dir / "histogram.csv").read_text().splitlines()
        assert hist_lines[0] == "day,observed_weight,phi_median"
        assert len(hist_lines) == 731
        observed = sum(float(line.split(",")[1]) for line in hist_lines[1:])
        assert observed == pytest.approx(400.0, abs=1e-6)

        # byte-identical rerun
        rerun_dir = tmp_path / "fit2"
        args[4] = str(rerun_dir)
        assert main(args) == code
        assert (rerun_dir / "draws.csv").read_bytes() == (
            fit_dir / "draws.csv"
        ).read_bytes()

        draws, names = read_draws_csv(fit_dir / "draws.csv")
        assert draws.shape == (2, 150, 10)
        assert names[-1] == "log_sigma"
        code = main(["diagnose", "--draws", str(fit_dir / "draws.csv")])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code in (EXIT_OK, EXIT_FLAGGED)
        assert payload["passed"] is (code == EXIT_OK)

    def test_unknown_unit_gives_error_json(self, tmp_path, capsys):
        bad = write_csv(tmp_path / "bad.csv", ["5,fortnight"])
        code = main(["fit", "--input", str(bad), "--outdir", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "IngestError"
        assert "fortnight" in payload["message"]

    def test_empty_dataset_error(self, tmp_path, capsys):
        bad = write_csv(tmp_path / "bad.csv", ["2,year"])
        code = main(["fit", "--input", str(bad), "--outdir", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "no usable records" in payload["message"]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["fit", "--heap-days", "abc"], "ConfigurationError"),
            (["simulate", "--truth", "geometric:p=0.1", "--n", "-5"], "ConfigurationError"),
            (["simulate", "--truth", "geometric:q=0.1", "--n", "10"], "ConfigurationError"),
            (["simulate", "--truth", "geometric:p=abc", "--n", "10"], "ConfigurationError"),
            (["simulate", "--truth", "pointmass:day=inf", "--n", "10"], "ConfigurationError"),
            (["simulate", "--truth", "geometric:p=0.1@nan", "--n", "10"], "ConfigurationError"),
            # three kept draws per chain, too few for diagnostics, found
            # after the whole fit (two warm-up iterations adapt the step, so
            # the chains do not all diverge first)
            (["fit", "--iters", "5", "--warmup", "2"], "DimensionError"),
            (["diagnose", "--draws", "{draws}"], "DimensionError"),
            # an output directory that is an existing file
            (["fit", "--outdir", "{data}"], "ConfigurationError"),
            (["simulate", "--truth", "geometric:p=0.1", "--n", "10", "--outdir", "{data}"],
             "ConfigurationError"),
        ],
    )
    def test_bad_arguments_give_error_json(self, tmp_path, capsys, argv, error):
        data = write_csv(tmp_path / "d.csv", ["5,day"])
        draws = write_csv(tmp_path / "draws.csv", ["0,1,0.5", "0,2,0.7", "1,1,0.1", "1,2,0.3"],
                          header="chain,iteration,x")
        if argv[0] == "fit":
            argv = argv + ["--input", str(data)]
        if argv[0] != "diagnose" and "--outdir" not in argv:
            argv = argv + ["--outdir", str(tmp_path / "out")]
        code = main([arg.format(data=data, draws=draws) for arg in argv])
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == error

    def test_diagnose_bad_file(self, tmp_path, capsys):
        path = tmp_path / "draws.csv"
        path.write_text("chain,iteration\n")
        code = main(["diagnose", "--draws", str(path)])
        assert code == EXIT_ERROR


class _RowsThenError:
    """Draws of chain 0 index fine; chain 1 fails, as a full disk would partway."""

    def __getitem__(self, index):
        if index[0] == 1:
            raise OSError("no space left on device")
        return np.array([0.25, -1.0])


def _write_failing(kind, path):
    if kind == "dataset":
        records = [ReportedDuration(z=3, unit=Unit.WEEK)] * 200 + [None]
        write_dataset(SimpleNamespace(records=records), path)
    elif kind == "draws":
        draws = SimpleNamespace(param_names=["delta_1", "log_sigma"], num_chains=2,
                                num_kept=300, draws=_RowsThenError())
        write_draws_csv(draws, path)
    else:
        _write_json({"levels": list(range(500)), "bad": object()}, path)


def _write_ok(kind, path):
    if kind == "dataset":
        write_dataset(SimpleNamespace(records=[ReportedDuration(z=3, unit=Unit.WEEK)]), path)
    elif kind == "draws":
        draws = SimpleNamespace(param_names=["delta_1", "log_sigma"], num_chains=1,
                                num_kept=2, draws=_RowsThenError())
        write_draws_csv(draws, path)
    else:
        _write_json({"levels": [0.8]}, path)


class TestAtomicWrites:
    @pytest.mark.parametrize("kind", ["dataset", "draws", "json"])
    def test_failure_partway_keeps_old_file(self, tmp_path, kind):
        target = tmp_path / "out.txt"
        target.write_text("previous run\n")
        with pytest.raises((OSError, AttributeError, TypeError)):
            _write_failing(kind, target)
        assert target.read_text() == "previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("kind", ["dataset", "draws", "json"])
    def test_success_replaces_old_file(self, tmp_path, kind):
        target = tmp_path / "out.txt"
        target.write_text("previous run\n")
        _write_ok(kind, target)
        assert target.read_text() != "previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_fit_keeps_previous_histogram(self, tmp_path, monkeypatch):
        data = tmp_path / "data.csv"
        write_dataset(simulate_survey(truncated_geometric(0.1), n=200, seed=3), data)
        outdir = tmp_path / "out"
        outdir.mkdir()
        names = ["diagnostics.json", "draws.csv", "estimates.json", "histogram.csv"]
        for name in names:
            (outdir / name).write_text(f"previous run: {name}\n")
        # the histogram is the last file a fit writes, a row per day
        monkeypatch.setattr("curdur.cli.spread_mass", lambda *args: _FailingRows())
        with pytest.raises(OSError):
            main(["fit", "--input", str(data), "--outdir", str(outdir), "--chains", "2",
                  "--iters", "40", "--warmup", "20", "--knots", "4"])
        # no new file replaced an old one, and no temporary file is left
        assert sorted(p.name for p in outdir.iterdir()) == names
        for name in names:
            assert (outdir / name).read_text() == f"previous run: {name}\n"


class _FailingRows:
    """Observed weights that fail partway through the histogram."""

    def __getitem__(self, day):
        if day == 100:
            raise OSError("no space left on device")
        return 1.0
