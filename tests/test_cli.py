"""End-to-end CLI: ingestion, fitting, simulation, diagnosis."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from curdur import cli, pipeline
from curdur.basis import BasisConfig, build_basis
from curdur.cli import (
    EXIT_ERROR,
    EXIT_FLAGGED,
    EXIT_OK,
    _heap_from_args,
    _parse_levels,
    _write_json,
    build_parser,
    ingest,
    main,
    parse_truth,
    read_draws_csv,
    write_dataset,
    write_draws_csv,
)
from curdur.diagnostics import compute_diagnostics
from curdur.errors import ConfigurationError, IngestError, OutOfWindowError
from curdur.model import mean_tbs_floor
from curdur.reporting import ReportedDuration, Unit, day_interval
from curdur.sampler import PosteriorDraws
from curdur.simulator import simulate_survey, truncated_geometric


def write_csv(path, rows, header="z,unit"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text):
    """``json.loads`` refusing NaN, Infinity and -Infinity, as strict parsers do."""
    return json.loads(text, parse_constant=_refuse_constant)


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

    # int() reads digit-group underscores and non-ASCII digits; a survey does not
    @pytest.mark.parametrize("z", ["1_0", "\u0663", "\uff17"])
    def test_value_must_be_ascii_digits(self, tmp_path, z):
        path = write_csv(tmp_path / "data.csv", [f"{z},day", "3,day"])
        with pytest.raises(IngestError) as err:
            ingest(path)
        assert str(err.value) == f"{path}: line 2: reported value {z!r} is not an integer"

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

    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"\xef\xbb\xbfz,unit\r\n3,day\r\n2,week\r\n", None),
            (b"z,unit\r3,day\r2,week\r", None),
            # str.splitlines ends a line at these; a CSV file does not
            ("z,unit\n3,day\x0c\n2,week\n".encode(), None),
            ("z,unit\n3,day\x0c2,week\n".encode(), "line 2: expected 2 fields, got 3"),
            ("z,unit\n3,day\x1c2,week\n".encode(), "line 2: expected 2 fields, got 3"),
            ("z,unit\n3,day\u20282,week\n".encode(), "line 2: expected 2 fields, got 3"),
        ],
        ids=["bom_crlf", "cr", "formfeed_padding", "formfeed_in_row", "separator_in_row",
             "line_separator_in_row"],
    )
    def test_line_ends(self, tmp_path, data, expected):
        # only \n, \r\n and \r end a row; a byte-order mark is skipped
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        if expected is None:
            dataset, _ = ingest(path)
            assert dataset.records == (ReportedDuration(3, Unit.DAY),
                                       ReportedDuration(2, Unit.WEEK))
        else:
            with pytest.raises(IngestError) as err:
                ingest(path)
            assert str(err.value) == f"{path}: {expected}"

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
        # the classes in (unit, z) order, not in order of first appearance
        assert list(dataset.counts.items()) == [(day, 3), (week, 3), (year, 3)]
        assert len({id(r) for r in dataset.records}) == len(dataset.counts)

    def test_class_and_unit_order_ignore_row_order(self, tmp_path):
        clean = [row for row, bad in _ROW_KINDS if not bad] * 3
        dataset, report = ingest(write_csv(tmp_path / "data.csv", clean))
        back, back_report = ingest(write_csv(tmp_path / "back.csv", clean[::-1]))
        assert back.records == dataset.records[::-1]
        assert list(back.counts.items()) == list(dataset.counts.items())
        assert list(back_report.excluded_by_unit) == ["day", "week", "month", "year"]
        assert back_report.to_dict() == report.to_dict()


def _is_pair(row):
    """Whether a CSV row is an integer value and a known unit."""
    cells = row.split(",")
    return (len(cells) == 2 and cells[1].strip().lower() in cli._UNIT_TOKENS
            and cells[0].strip().lstrip("-").isdigit())


# the rows of _ROW_KINDS that are (z, unit) pairs, and the last value of each
# unit inside the window
@pytest.mark.parametrize("row", [row for row, _ in _ROW_KINDS if _is_pair(row)]
                         + ["729,day", "104,week", "23,month"])
def test_ingest_verdict_is_reported_durations(tmp_path, row):
    z_text, unit_text = row.split(",")
    unit = cli._UNIT_TOKENS[unit_text.strip().lower()]
    try:
        expected = ("record", ReportedDuration(int(z_text), unit))
    except OutOfWindowError:
        expected = ("excluded", unit.name.lower())
    except ValueError as exc:
        expected = ("problem", str(exc))
    # a usable row after it, so that an exclusion leaves records to return
    path = write_csv(tmp_path / "data.csv", [row, "3,day"])
    try:
        dataset, report = ingest(path)
    except IngestError as exc:
        verdict = ("problem", str(exc).removeprefix(f"{path}: line 2: "))
    else:
        verdict = (("record", dataset.records[0]) if report.retained == 2
                   else ("excluded", *report.excluded_by_unit))
    assert verdict == expected


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


def posterior(values, names=None) -> PosteriorDraws:
    values = np.asarray(values, dtype=float)
    chains = values.shape[0]
    return PosteriorDraws(
        draws=values,
        accept_stats=np.ones(chains),
        divergence_count=np.zeros(chains, dtype=int),
        step_sizes=np.ones(chains),
        param_names=names or [f"p{i}" for i in range(values.shape[2])],
    )


ROW_PAIR = [[[0.5, 1.0]], [[0.7, 2.0]]]

# draws.csv bodies under the header "chain,iteration,x,y" whose iteration
# column breaks the run 1, 2, ..., n of a chain, and the error text after
# "<path>: " that names the first bad line
ITERATION_OUT_OF_TURN = [
    ("iteration_reversed", "0,2,0.5,1\n0,1,0.6,1\n1,2,0.7,2\n1,1,0.8,2\n",
     "line 2: iteration 2 of chain 0, expected 1"),
    ("iteration_swapped",
     "0,1,0.5,1\n0,3,0.6,1\n0,2,0.7,1\n1,1,0.8,2\n1,2,0.9,2\n1,3,1.0,2\n",
     "line 3: iteration 3 of chain 0, expected 2"),
    ("iteration_repeated", "0,1,0.5,1\n1,1,0.7,2\n0,1,0.6,1\n1,2,0.8,2\n",
     "line 4: iteration 1 of chain 0, expected 2"),
    ("iteration_missing", "0,1,0.5,1\n0,3,0.6,1\n1,1,0.7,2\n1,2,0.8,2\n",
     "line 3: iteration 3 of chain 0, expected 2"),
    ("iteration_zero_based", "0,0,0.5,1\n1,0,0.7,2\n",
     "line 2: iteration 0 of chain 0, expected 1"),
    ("iteration_float", "0,1,0.5,1\n1,1.0,0.7,2\n",
     "line 3: invalid literal for int() with base 10: '1.0'"),
    ("iteration_x", "0,x,0.5,1\n1,x,0.7,2\n",
     "line 2: invalid literal for int() with base 10: 'x'"),
]

# draws.csv bodies under the header "chain,iteration,x,y" holding a number
# that int() or float() reads but the bulk parse refuses, and the error text
# after "<path>: " that names its line
NOT_PLAIN_NUMBERS = [
    ("chain_underscore", "0,1,0.5,1\n1_0,1,0.7,2\n",
     "line 3: '1_0' is not a plain ASCII number"),
    ("value_underscore", "0,1,1_0,1\n1,1,0.7,2\n", "line 2: '1_0' is not a plain ASCII number"),
    ("value_underscore_fraction", "0,1,0.5,1\n1,1,1_0.5,2\n",
     "line 3: '1_0.5' is not a plain ASCII number"),
    ("chain_arabic_indic", "0,1,0.5,1\n\u0662,1,0.7,2\n",
     "line 3: '\u0662' is not a plain ASCII number"),
]

# draws.csv bodies under the header "chain,iteration,x,y": the array, or the
# error text after "<path>: ", that read_draws_csv gives, and whether the
# bulk parse reads the body (False: the row loop reads it)
DRAWS_BODIES = [
    ("blank_lines", "0,1,0.5,1\n\n1,1,0.7,2\n\n", ROW_PAIR, True),
    ("whitespace_line", "0,1,0.5,1\n   \n1,1,0.7,2\n",
     "line 3: invalid literal for int() with base 10: '   '", False),
    ("hash_line", "# note\n0,1,0.5,1\n1,1,0.7,2\n",
     "line 2: invalid literal for int() with base 10: '# note'", False),
    ("quoted_fields", '"0","1","0.5",1\n1,"1",0.7,"2"\n', ROW_PAIR, False),
    ("chain_float", "0,1,0.5,1\n1.0,1,0.7,2\n",
     "line 3: invalid literal for int() with base 10: '1.0'", False),
    ("chain_exponent", "0,1,0.5,1\n1e0,1,0.7,2\n",
     "line 3: invalid literal for int() with base 10: '1e0'", False),
    ("chain_beyond_int64", "0,1,0.5,1\n99999999999999999999,1,0.7,2\n", ROW_PAIR, False),
    *[(*case, False) for case in NOT_PLAIN_NUMBERS],
    ("crlf_rows", "0,1,0.5,1\r\n1,1,0.7,2\r\n", ROW_PAIR, True),
    ("padded_fields", " 0 ,1, 0.5 ,1\n1,1,0.7,2\n", ROW_PAIR, True),
    ("special_values", "0,1,nan,-inf\n1,1,Infinity,-0.0\n",
     [[[math.nan, -math.inf]], [[math.inf, -0.0]]], True),
    ("trailing_comma", "0,1,0.5,1,\n1,1,0.7,2,\n",
     "line 2: could not convert string to float: ''", False),
    ("short_row", "0,1,0.5\n1,1,0.7,2\n", "line 2: wrong number of values", False),
    ("unequal_chains", "0,1,0.5,1\n0,2,0.6,1\n1,1,0.7,2\n",
     "chains have unequal lengths [1, 2]", True),
    ("one_chain", "0,1,0.5,1\n0,2,0.7,2\n", "diagnostics need at least 2 chains", True),
    ("header_only", "", "diagnostics need at least 2 chains", False),
    ("iteration_text", "1,b,0.5,1\n0,a,0.7,2\n1,c,0.9,3\n0,d,1.1,4\n",
     "line 2: invalid literal for int() with base 10: 'b'", False),
    ("chains_interleaved", "1,1,0.5,1\n0,1,0.7,2\n1,2,0.9,3\n0,2,1.1,4\n",
     [[[0.7, 2.0], [1.1, 4.0]], [[0.5, 1.0], [0.9, 3.0]]], True),
    *[(*case, False) for case in ITERATION_OUT_OF_TURN],
    ("cr_rows", "0,1,0.5,1\r1,1,0.7,2\r", ROW_PAIR, True),
    # str.splitlines ends a line at \x0c, \x1c and \u2028; a CSV file does not
    ("formfeed_in_row", "0,1,0.5,1\x0c1,1,0.7,2\n",
     "line 2: could not convert string to float: '1\\x0c1'", False),
    ("separator_in_row", "0,1,0.5,1\x1c1,1,0.7,2\n",
     "line 2: could not convert string to float: '1\\x1c1'", False),
    ("line_separator_in_row", "0,1,0.5,1\u20281,1,0.7,2\n",
     "line 2: could not convert string to float: '1\\u20281'", False),
    # float() strips \x0c but not \x1c; numpy's parser strips both
    ("formfeed_padding", "0,1,0.5,1\x0c\n1,1,0.7,2\n", ROW_PAIR, True),
    ("separator_padding", "0,1,0.5,1\x1c\n1,1,0.7,2\n",
     "line 2: could not convert string to float: '1\\x1c'", False),
    # a character numpy's parser crashes on in an integer field
    ("astral_chain", "\U0009c6ca0,1,0.5,1\n1,1,0.7,2\n",
     "line 2: invalid literal for int() with base 10: '\\U0009c6ca0'", False),
]


class TestDrawsCsv:
    def test_bytes_are_pinned(self, tmp_path):
        values = [[[-0.0, 5e-324, 0.1], [1e308, math.nan, math.inf]],
                  [[-math.inf, 2.5, -1e-7], [0.0, -5e-324, 1.0 / 3.0]]]
        path = tmp_path / "draws.csv"
        write_draws_csv(posterior(values, ["delta_1", "delta_2", "log_sigma"]), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "bc25fd62d42c9268303cd2fb7ef25526a2518b2c8e796549c8d4a4e0e7469255"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(values=hnp.arrays(np.float64,
                             st.tuples(st.integers(2, 3), st.integers(1, 4), st.integers(1, 3)),
                             elements=st.floats(allow_nan=False)))
    def test_round_trip_is_bitwise(self, tmp_path_factory, values):
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        write_draws_csv(posterior(values), path)
        back, names = read_draws_csv(path)
        assert names == [f"p{i}" for i in range(values.shape[2])]
        assert back.shape == values.shape
        assert back.tobytes() == values.tobytes()

    @pytest.mark.parametrize("body, expected, bulk", [case[1:] for case in DRAWS_BODIES],
                             ids=[case[0] for case in DRAWS_BODIES])
    def test_malformed_input(self, tmp_path, monkeypatch, body, expected, bulk):
        path = tmp_path / "draws.csv"
        path.write_bytes(("chain,iteration,x,y\n" + body).encode())
        row_loop = cli._parse_draw_rows
        calls = []
        monkeypatch.setattr(cli, "_parse_draw_rows",
                            lambda *args: calls.append(args) or row_loop(*args))
        if isinstance(expected, str):
            with pytest.raises(IngestError) as info:
                read_draws_csv(path)
            assert str(info.value) == f"{path}: {expected}"
        else:
            draws, names = read_draws_csv(path)
            assert names == ["x", "y"]
            assert draws.tobytes() == np.array(expected).tobytes()
            assert draws.shape == np.shape(expected)
        assert len(calls) == (0 if bulk else 1)

    def test_diagnose_reads_a_byte_order_mark(self, tmp_path, capsys):
        plain = tmp_path / "plain.csv"
        write_draws_csv(posterior(np.random.default_rng(1).standard_normal((2, 8, 2))), plain)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for path in (plain, marked):
            code = main(["diagnose", "--draws", str(path)])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0][0] != EXIT_ERROR
        assert outputs[1] == outputs[0]

    def test_diagnose_refuses_reversed_rows(self, tmp_path, capsys):
        # the body reversed, as tac reverses it: each chain's draws would
        # read backwards, which moves the autocorrelations and so the ESS
        path = tmp_path / "draws.csv"
        write_draws_csv(posterior(np.random.default_rng(2).standard_normal((2, 50, 3))), path)
        head, *body = path.read_text().splitlines(keepends=True)
        path.write_text(head + "".join(body[::-1]))
        assert main(["diagnose", "--draws", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload == {"error": "IngestError",
                           "message": f"{path}: line 2: iteration 50 of chain 1, expected 1"}

    def test_chain_order_of_rows_does_not_matter(self, tmp_path, monkeypatch):
        values = np.random.default_rng(4).standard_normal((4, 60, 3))
        ordered = tmp_path / "ordered.csv"
        write_draws_csv(posterior(values), ordered)
        head, *body = ordered.read_text().splitlines(keepends=True)
        # the chains interleaved, last chain first, each chain's rows in order
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(head + "".join(line for it in range(60) for line in body[it::60][::-1]))
        monkeypatch.setattr(cli, "_parse_draw_rows",
                            lambda *args: pytest.fail("the row loop read the file"))
        reports = []
        for path in (ordered, shuffled):
            draws, _ = read_draws_csv(path)
            assert draws.tobytes() == values.tobytes()
            reports.append(json.dumps(compute_diagnostics(draws).to_dict()))
        assert reports[1] == reports[0]


def _traced_peak(fn, *args) -> int:
    """Bytes of traced memory ``fn(*args)`` holds at most, its result included."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestReadMemory:
    """Both readers stream the file: no whole-file text, line list or row list."""

    def test_ingest_peak(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset(simulate_survey(truncated_geometric(0.1), n=50_000, seed=1), path)
        assert _traced_peak(ingest, path) < 2_000_000

    def test_read_draws_peak(self, tmp_path):
        values = np.random.default_rng(2).standard_normal((4, 2000, 34))
        path = tmp_path / "draws.csv"
        write_draws_csv(posterior(values), path)
        assert _traced_peak(read_draws_csv, path) < 1.5 * values.nbytes


class TestWriteMemory:
    """The draws writer holds one block of rows as floats and text."""

    @pytest.mark.parametrize("iterations", [2000, 8000])
    def test_write_draws_peak(self, tmp_path, iterations):
        draws = posterior(np.random.default_rng(5).standard_normal((4, iterations, 34)))
        assert _traced_peak(write_draws_csv, draws, tmp_path / "draws.csv") < 1_000_000


def _read_through_pipe(tmp_path, data: bytes, read):
    """``read(pipe)`` while a thread writes ``data`` into the named pipe."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return read(pipe)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestPipeInput:
    """A pipe can be read once only: both readers take one pass over it."""

    def test_survey(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset(simulate_survey(truncated_geometric(0.1), n=2000, seed=4), path)
        dataset, report = _read_through_pipe(tmp_path, path.read_bytes(), ingest)
        expected, expected_report = ingest(path)
        assert dataset == expected
        assert report.to_dict() == expected_report.to_dict()

    def test_draws(self, tmp_path, monkeypatch):
        values = np.random.default_rng(3).standard_normal((2, 500, 3))
        path = tmp_path / "draws.csv"
        write_draws_csv(posterior(values), path)
        row_loop = cli._parse_draw_rows
        calls = []
        monkeypatch.setattr(cli, "_parse_draw_rows",
                            lambda *args: calls.append(args) or row_loop(*args))
        draws, names = _read_through_pipe(tmp_path, path.read_bytes(), read_draws_csv)
        assert len(calls) == 1
        assert names == ["p0", "p1", "p2"]
        assert draws.tobytes() == values.tobytes()

    @pytest.mark.parametrize("body, expected", [case[1:] for case in ITERATION_OUT_OF_TURN],
                             ids=[case[0] for case in ITERATION_OUT_OF_TURN])
    def test_draws_iterations_out_of_turn(self, tmp_path, body, expected):
        data = ("chain,iteration,x,y\n" + body).encode()
        with pytest.raises(IngestError) as err:
            _read_through_pipe(tmp_path, data, read_draws_csv)
        assert str(err.value) == f"{tmp_path / 'pipe'}: {expected}"

    @pytest.mark.parametrize("body, expected", [case[1:] for case in NOT_PLAIN_NUMBERS],
                             ids=[case[0] for case in NOT_PLAIN_NUMBERS])
    def test_draws_not_plain_numbers(self, tmp_path, body, expected):
        data = ("chain,iteration,x,y\n" + body).encode()
        with pytest.raises(IngestError) as err:
            _read_through_pipe(tmp_path, data, read_draws_csv)
        assert str(err.value) == f"{tmp_path / 'pipe'}: {expected}"

    def test_non_utf8_survey_names_no_offset(self, tmp_path):
        # the offset would need a second read of the pipe
        with pytest.raises(IngestError) as err:
            _read_through_pipe(tmp_path, b"z,unit\n3,d\xeda\n", ingest)
        pipe = tmp_path / "pipe"
        assert str(err.value) == (f"{pipe}: not UTF-8 text: byte 0xed "
                                  "(invalid continuation byte)")


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

    @pytest.mark.parametrize("spec", ["pointmass:day=40", "pointmass:day=40.0"])
    def test_integral_arguments(self, spec):
        assert parse_truth(spec).f_x[40] == 1.0

    @pytest.mark.parametrize(
        "spec",
        ["geometric:q=0.1", "geometric:p=abc", "geometric:p=0.1,q=0.2",
         "pointmass:day=nan", "uniform:lo=3",
         # integer arguments are not truncated
         "pointmass:day=40.7", "uniform:lo=3.5,hi=6", "uniform:lo=3,hi=6.000001",
         # a repeated key is not overwritten by its last value
         "geometric:p=0.1,p=0.5", "uniform:lo=3,hi=6,lo=4"],
    )
    def test_bad_arguments(self, spec):
        with pytest.raises(ConfigurationError):
            parse_truth(spec)


class TestRunConfig:
    def test_heap_overrides(self, tmp_path):
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
        heap = _heap_from_args(args)
        assert heap.days == (5, 10)
        assert heap.halfwidth == 1
        assert _parse_levels(args.levels) == (0.5, 0.9)
        assert args.knots == 10
        assert args.chains == 4


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
        assert list(estimates["config"]) == ["basis", "sampler", "heap"]
        assert estimates["config"]["basis"] == {
            "num_segments": 6, "degree": 3,
            "mean_tbs_floor_days": mean_tbs_floor(build_basis(BasisConfig(num_segments=6))),
        }

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

    @staticmethod
    def _short_fit(tmp_path, truth, n):
        """simulate (survey seed 7) and a short default-basis fit of it;
        the exit code, diagnostics.json and estimates.json."""
        assert main(["simulate", "--truth", truth, "--n", str(n), "--seed", "7",
                     "--outdir", str(tmp_path / "sim")]) == EXIT_OK
        code = main(["fit", "--input", str(tmp_path / "sim" / "data.csv"),
                     "--outdir", str(tmp_path / "fit"), "--chains", "2", "--iters", "300",
                     "--warmup", "150", "--seed", "1"])
        return code, *(json.loads((tmp_path / "fit" / name).read_text())
                       for name in ("diagnostics.json", "estimates.json"))

    def test_fit_at_the_basis_floor_is_flagged(self, tmp_path, capsys):
        # true mean TBS 3.33 days; the default basis cannot go below 15.10
        code, diagnostics, estimates = self._short_fit(tmp_path, "geometric:p=0.3", 2000)
        assert code == EXIT_FLAGGED and diagnostics["passed"] is False
        floor = estimates["config"]["basis"]["mean_tbs_floor_days"]
        assert floor == mean_tbs_floor(build_basis(BasisConfig()))
        assert round(floor, 4) == 15.1046
        lower = estimates["mean_tbs_days"]["intervals"]["0.95"]["lower"]
        assert floor <= lower <= 1.01 * floor
        flagged = [f for f in diagnostics["flags"] if f.startswith("basis_floor:")]
        assert flagged == [f"basis_floor: mean_tbs_days 0.95 band starts at {lower:.4f}, "
                           f"within 1% of the basis floor {floor:.4f}"]
        assert "basis_floor" in capsys.readouterr().err

    def test_sorted_and_marked_copies_of_a_survey_fit_the_same(self, tmp_path):
        plain = tmp_path / "plain.csv"
        write_dataset(simulate_survey(truncated_geometric(0.1), n=300, seed=7), plain)
        head, *body = plain.read_text().splitlines(keepends=True)
        copies = {"plain": plain, "sorted": tmp_path / "sorted.csv",
                  "marked": tmp_path / "marked.csv"}
        copies["sorted"].write_text(head + "".join(sorted(body)))
        copies["marked"].write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert copies["sorted"].read_bytes() != plain.read_bytes()
        outputs = {}
        for name, path in copies.items():
            outdir = tmp_path / f"{name}-fit"
            code = main(["fit", "--input", str(path), "--outdir", str(outdir), "--chains", "2",
                         "--iters", "60", "--warmup", "30", "--seed", "3"])
            assert code in (EXIT_OK, EXIT_FLAGGED)
            outputs[name] = [(outdir / f).read_bytes() for f in
                             ("draws.csv", "estimates.json", "diagnostics.json", "histogram.csv")]
        assert outputs["sorted"] == outputs["plain"]
        assert outputs["marked"] == outputs["plain"]

    def test_fit_above_the_basis_floor_is_not_flagged(self, tmp_path):
        # the fit benchmark's survey: true mean TBS 33.3 days
        _, diagnostics, estimates = self._short_fit(tmp_path, "geometric:p=0.03", 1000)
        floor = estimates["config"]["basis"]["mean_tbs_floor_days"]
        assert estimates["mean_tbs_days"]["intervals"]["0.95"]["lower"] > 1.01 * floor
        assert not [f for f in diagnostics["flags"] if "basis_floor" in f]

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
            # three kept draws per chain, too few for diagnostics, refused
            # before sampling
            (["fit", "--iters", "5", "--warmup", "2"], "ConfigurationError"),
            (["diagnose", "--draws", "{draws}"], "DimensionError"),
            # an output directory that is an existing file
            (["fit", "--outdir", "{data}"], "ConfigurationError"),
            (["simulate", "--truth", "geometric:p=0.1", "--n", "10", "--outdir", "{data}"],
             "ConfigurationError"),
            # refused by _parse_levels before sampling: summarize would
            # raise a ValueError after it
            (["fit", "--levels", "0.8,0.95,0.80"], "ConfigurationError"),
            (["fit", "--heap-days", "7,7"], "ConfigurationError"),
            # more basis columns than the 730 support days
            (["fit", "--knots", "100000"], "ConfigurationError"),
            # the spline degree is a constant: --degree is an unknown option
            (["fit", "--degree", "100000"], "ConfigurationError"),
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

    @pytest.mark.parametrize(
        "command, text, line",
        [
            ("fit", "z,unit\n{field},day\n", 2),
            ("diagnose", '"{field}",iteration,x\n0,1,0.5\n1,1,0.5\n', 1),
            # quoted, so the bulk parse refuses it and the row loop reads it
            ("diagnose", 'chain,iteration,x\n0,1,"{field}"\n1,1,0.5\n', 2),
        ],
        ids=["survey", "draws-header", "draws-row"],
    )
    def test_oversized_csv_field_gives_error_json(self, tmp_path, capsys, command, text, line):
        # one field past the csv module's default limit of 131072 characters
        path = tmp_path / "in.csv"
        path.write_text(text.format(field="1" * 200_000))
        if command == "fit":
            argv = ["fit", "--input", str(path), "--outdir", str(tmp_path / "out")]
        else:
            argv = ["diagnose", "--draws", str(path)]
        assert main(argv) == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "IngestError"
        assert payload["message"].startswith(f"{path}: line {line}: field larger than")

    @pytest.mark.parametrize(
        "command, data",
        [
            # a Latin-1 survey: "3,día"
            ("fit", b"z,unit\n3,d\xeda\n"),
            # the offset counts the byte-order mark
            ("fit", b"\xef\xbb\xbfz,unit\n3,d\xeda\n"),
            ("diagnose", b"chain,iteration,x\n0,1,0.5\n1,1,0.\xff5\n"),
            # past the first chunks a stream decodes
            ("fit", b"\xef\xbb\xbfz,unit\n" + b"3,day\n" * 40_000 + b"3,d\xeda\n"),
            ("diagnose", b"chain,iteration,x\n" + b"0,1,0.5\n1,1,0.5\n" * 20_000
             + b"1,1,0.\xff5\n"),
        ],
        ids=["survey", "survey-bom", "draws", "survey-late", "draws-late"],
    )
    def test_non_utf8_input_gives_error_json(self, tmp_path, capsys, command, data):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        if command == "fit":
            argv = ["fit", "--input", str(path), "--outdir", str(tmp_path / "out")]
        else:
            argv = ["diagnose", "--draws", str(path)]
        assert main(argv) == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "IngestError"
        offset = next(i for i, byte in enumerate(data) if byte in b"\xed\xff")
        assert payload["message"].startswith(f"{path}: not UTF-8 text: ")
        assert f"at offset {offset} " in payload["message"]

    def test_diagnose_bad_file(self, tmp_path, capsys):
        path = tmp_path / "draws.csv"
        path.write_text("chain,iteration\n")
        code = main(["diagnose", "--draws", str(path)])
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_diagnose_rejects_non_finite_draws(self, tmp_path, capsys, value):
        # two chains of 50 draws, a non-finite y at draw 31 of the second
        rng = np.random.default_rng(5)
        rows = [f"{chain},{it},{x!r},{y!r}" for chain in range(2) for it in range(1, 51)
                for x, y in [rng.normal(size=2).tolist()]]
        rows[80] = f"1,31,0.5,{value}"
        path = write_csv(tmp_path / "draws.csv", rows, header="chain,iteration,x,y")
        assert main(["diagnose", "--draws", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload == {"error": "IngestError",
                           "message": f"{path}: chain 1, draw 31: parameter y is {value}"}

    def test_antithetic_chains_give_finite_ess(self, tmp_path, capsys):
        # a short fit: flagged, every ESS finite and positive, and diagnose
        # of its draws.csv says what fit wrote
        sim, fit = tmp_path / "sim", tmp_path / "fit"
        assert main(["simulate", "--truth", "geometric:p=0.03", "--n", "1000", "--seed", "7",
                     "--outdir", str(sim)]) == EXIT_OK
        assert main(["fit", "--input", str(sim / "data.csv"), "--outdir", str(fit),
                     "--chains", "2", "--iters", "300", "--warmup", "150",
                     "--seed", "0"]) == EXIT_FLAGGED
        strict_json((fit / "estimates.json").read_text())
        diagnostics = strict_json((fit / "diagnostics.json").read_text())
        capsys.readouterr()
        assert main(["diagnose", "--draws", str(fit / "draws.csv")]) == EXIT_FLAGGED
        assert strict_json(capsys.readouterr().out) == {
            key: value for key, value in diagnostics.items()
            if key not in ("divergences", "accept_rate", "step_size")}
        ess = {p["name"]: p["ess_bulk"] for p in diagnostics["parameters"]}
        cap = 300 * math.log10(300)
        assert all(0.0 < value <= cap for value in ess.values())
        assert diagnostics["flags"]
        assert all(flag.split(":")[0] in ess for flag in diagnostics["flags"])

        # chains whose every draw flips sign: the Geyer sum is not
        # positive, and the floor on tau caps the ESS at S log10(S)
        rows = [f"{chain},{it + 1},{(-1.0) ** it * (1.0 + 0.01 * it + 0.001 * chain)!r}"
                for chain in (1, 2) for it in range(100)]
        path = write_csv(tmp_path / "antithetic.csv", rows, header="chain,iteration,x")
        # its tail indicators are not antithetic, and their ESS is low
        assert main(["diagnose", "--draws", str(path)]) == EXIT_FLAGGED
        (x,) = strict_json(capsys.readouterr().out)["parameters"]
        assert x["ess_bulk"] == pytest.approx(200 * math.log10(200), rel=1e-15)

    def test_chainwise_constant_draws_give_null_rhat(self, tmp_path, capsys):
        # each chain holds its own value: no within-chain variance, so R-hat
        # is infinite, which JSON writes as null
        rows = [f"{chain},{it},{chain - 1.0}" for chain in (1, 2) for it in range(1, 11)]
        path = write_csv(tmp_path / "draws.csv", rows, header="chain,iteration,x")
        assert main(["diagnose", "--draws", str(path)]) == EXIT_FLAGGED
        payload = strict_json(capsys.readouterr().out)
        assert payload["parameters"][0]["name"] == "x"
        assert payload["parameters"][0]["rhat"] is None
        assert payload["max_rhat"] is None
        assert payload["flags"][0] == "x: rhat inf > 1.01"
        assert payload["passed"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--input", "d.csv", "--outdir", "o", "--knots", "ten"],
            ["fit", "--outdir", "o"],
            ["fit", "--input", "d.csv", "--outdir", "o", "--no-such-option"],
            ["estimate"],
            [],
        ],
        ids=["bad-int", "missing-input", "unknown-option", "unknown-command", "no-command"],
    )
    def test_usage_errors_give_error_json(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "usage:" not in err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigurationError"
        assert list(tmp_path.iterdir()) == []

    # more bytes than a 47-bit address space holds, so the allocation is
    # refused at once whatever the host's overcommit setting
    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "{data}", "--iters", "10000000000000"],
        ["simulate", "--truth", "geometric:p=0.1", "--n", "1000000000000000"],
    ], ids=["fit", "simulate"])
    def test_allocation_past_the_address_space_gives_error_json(self, tmp_path, capsys,
                                                                 argv):
        data = write_csv(tmp_path / "d.csv", ["5,day"])
        out = tmp_path / "out"
        argv = [arg.format(data=data) for arg in argv] + ["--outdir", str(out)]
        assert main(argv) == EXIT_ERROR
        payload = strict_json(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "MemoryError"
        assert payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["simulate", "--truth", "geometric:q=1", "--n", "10", "--outdir", "newsim"],
             "ConfigurationError"),
            (["simulate", "--truth", "geometric:p=0.1", "--n", "-5", "--outdir", "newsim"],
             "ConfigurationError"),
            (["fit", "--input", "missing.csv", "--outdir", "newfit"], "IngestError"),
            (["simulate", "--truth", "geometric:p=0.1", "--n", "10", "--seed", "-3",
              "--outdir", "newsim"], "ConfigurationError"),
            # refused before ingest, so the missing input is never read
            (["fit", "--input", "missing.csv", "--outdir", "newfit", "--heap-days", "7,7"],
             "ConfigurationError"),
            (["fit", "--input", "missing.csv", "--outdir", "newfit", "--knots", "100000"],
             "ConfigurationError"),
            (["fit", "--input", "missing.csv", "--outdir", "newfit", "--degree", "100000"],
             "ConfigurationError"),
            (["fit", "--input", "missing.csv", "--outdir", "newfit", "--levels", "0.8,0.80"],
             "ConfigurationError"),
            (["fit", "--input", "missing.csv", "--outdir", "newfit", "--levels", "1.5"],
             "ConfigurationError"),
            # a heaped day report past day 729 could never be ingested
            (["fit", "--input", "missing.csv", "--outdir", "newfit", "--heap-days", "800"],
             "ConfigurationError"),
        ],
        ids=["simulate-bad-truth", "simulate-negative-n", "fit-missing-input",
             "simulate-negative-seed", "fit-repeated-heap-day", "fit-too-many-knots",
             "fit-unknown-degree-option", "fit-repeated-level", "fit-level-out-of-range",
             "fit-heap-day-beyond-window"],
    )
    def test_bad_input_makes_no_output_directory(self, tmp_path, capsys, monkeypatch,
                                                 argv, error):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_ERROR
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == error
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("iters, sampled", [(62, False), (63, False), (64, True)])
    def test_too_few_kept_draws_refused_before_sampling(self, tmp_path, capsys,
                                                         monkeypatch, iters, sampled):
        class Sampled(Exception):
            pass

        def sample(*args, **kwargs):
            raise Sampled

        monkeypatch.setattr(pipeline, "sample", sample)
        data = write_csv(tmp_path / "d.csv", ["5,day"])
        outdir = tmp_path / "out"
        argv = ["fit", "--input", str(data), "--outdir", str(outdir), "--chains", "2",
                "--iters", str(iters), "--warmup", "60"]
        if sampled:
            # four kept draws are enough: the fit goes on to sample
            with pytest.raises(Sampled):
                main(argv)
            return
        assert main(argv) == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert "must keep the 4 draws per chain" in payload["message"]
        assert not outdir.exists()

    @pytest.mark.parametrize("levels", ["0.8,0.95,0.80", "0", "1", "nan", "0.8,"])
    def test_refused_levels_leave_no_output_directory(self, tmp_path, capsys, monkeypatch,
                                                      levels):
        class Sampled(Exception):
            pass

        def sample(*args, **kwargs):
            raise Sampled

        monkeypatch.setattr(pipeline, "sample", sample)
        data = write_csv(tmp_path / "d.csv", ["5,day"])
        outdir = tmp_path / "out"
        argv = ["fit", "--input", str(data), "--outdir", str(outdir), "--levels", levels]
        assert main(argv) == EXIT_ERROR
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == (
            "ConfigurationError")
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_bad_input_leaves_an_existing_directory_as_it_was(self, tmp_path, capsys,
                                                              command):
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "notes.txt").write_text("previous run\n")
        if command == "simulate":
            argv = ["simulate", "--truth", "geometric:q=1", "--n", "10"]
        else:
            argv = ["fit", "--input", str(tmp_path / "missing.csv")]
        assert main(argv + ["--outdir", str(outdir)]) == EXIT_ERROR
        assert [p.name for p in outdir.iterdir()] == ["notes.txt"]
        assert (outdir / "notes.txt").read_text() == "previous run\n"

    @pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: curdur")

    def test_module_form_runs_the_cli(self, tmp_path):
        outdir = tmp_path / "sim"
        subprocess.run([sys.executable, "-m", "curdur.cli", "simulate", "--truth",
                        "geometric:p=0.1", "--n", "10", "--outdir", str(outdir)],
                       capture_output=True, check=True)
        assert (outdir / "data.csv").stat().st_size > 0


class _RowsThenError:
    """Draws of chain 0 index fine; chain 1 fails, as a full disk would partway."""

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, chain):
        if chain == 1:
            raise OSError("no space left on device")
        return np.tile([0.25, -1.0], (self.rows, 1))


def _write_failing(kind, path):
    if kind == "dataset":
        records = [ReportedDuration(z=3, unit=Unit.WEEK)] * 200 + [None]
        write_dataset(SimpleNamespace(records=records), path)
    elif kind == "draws":
        draws = SimpleNamespace(param_names=["delta_1", "log_sigma"], num_chains=2,
                                draws=_RowsThenError(300))
        write_draws_csv(draws, path)
    else:
        _write_json({"levels": list(range(500)), "bad": object()}, path)


def _write_ok(kind, path):
    if kind == "dataset":
        write_dataset(SimpleNamespace(records=[ReportedDuration(z=3, unit=Unit.WEEK)]), path)
    elif kind == "draws":
        draws = SimpleNamespace(param_names=["delta_1", "log_sigma"], num_chains=1,
                                draws=_RowsThenError(2))
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

    @pytest.mark.parametrize(
        "directory", ["draws.csv", "estimates.json", "diagnostics.json", "histogram.csv"]
    )
    def test_directory_at_an_output_path_keeps_previous_files(self, tmp_path, capsys,
                                                               directory):
        data = tmp_path / "data.csv"
        write_dataset(simulate_survey(truncated_geometric(0.1), n=200, seed=3), data)
        outdir = tmp_path / "out"
        outdir.mkdir()
        names = ["diagnostics.json", "draws.csv", "estimates.json", "histogram.csv"]
        for name in names:
            if name == directory:
                (outdir / name).mkdir()
            else:
                (outdir / name).write_text(f"previous run: {name}\n")
        code = main(["fit", "--input", str(data), "--outdir", str(outdir), "--chains", "2",
                     "--iters", "40", "--warmup", "20", "--knots", "4"])
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert directory in payload["message"]
        # no new file replaced an old one, and no temporary file is left
        assert sorted(p.name for p in outdir.iterdir()) == names
        for name in names:
            if name == directory:
                assert (outdir / name).is_dir()
            else:
                assert (outdir / name).read_text() == f"previous run: {name}\n"

    def test_simulate_into_a_directory_gives_error_json(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        (outdir / "data.csv").mkdir(parents=True)
        code = main(["simulate", "--truth", "geometric:p=0.1", "--n", "10",
                     "--outdir", str(outdir)])
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert [p.name for p in outdir.iterdir()] == ["data.csv"]
        assert (outdir / "data.csv").is_dir()

    def test_simulate_keeps_previous_survey_when_truth_fails(self, tmp_path, capsys):
        # a survey is written with its truth or not at all
        outdir = tmp_path / "out"
        (outdir / "truth.json").mkdir(parents=True)
        previous = b"z,unit\r\n5,day\r\n"
        (outdir / "data.csv").write_bytes(previous)
        code = main(["simulate", "--truth", "geometric:p=0.1", "--n", "10",
                     "--outdir", str(outdir)])
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert (outdir / "data.csv").read_bytes() == previous
        assert sorted(p.name for p in outdir.iterdir()) == ["data.csv", "truth.json"]


class _FailingRows:
    """Observed weights that fail partway through the histogram."""

    def __getitem__(self, day):
        if day == 100:
            raise OSError("no space left on device")
        return 1.0
