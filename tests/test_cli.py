"""End-to-end CLI: ingestion, fitting, simulation, diagnosis."""

import argparse
import csv
import errno
import hashlib
import inspect
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
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
from curdur.estimates import DEFAULT_LEVELS, summarize
from curdur.model import mean_tbs_floor
from curdur.reporting import DEFAULT_HEAP, ReportedDuration, Unit, day_interval
from curdur.sampler import PosteriorDraws, SamplerConfig
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

    # only ASCII whitespace pads a cell; str.strip() would also strip the
    # separators \x1c-\x1f, a no-break space and other Unicode spaces
    @pytest.mark.parametrize("row, problem", [
        ("7\x1c,day", "reported value '7\\x1c' is not an integer"),
        ("\x1f7,day", "reported value '\\x1f7' is not an integer"),
        ("\u30007,week", "reported value '\\u30007' is not an integer"),
        ("3,day\xa0", "unknown unit 'day\\xa0'"),
        ("3,\u2003week", "unknown unit '\\u2003week'"),
        ("\xa0,\x1c", "unknown unit '\\x1c'"),
    ], ids=["separator_after_value", "separator_before_value", "ideographic_space",
            "no_break_space", "em_space", "no_break_space_and_separator_only"])
    def test_cells_strip_ascii_whitespace_only(self, tmp_path, row, problem):
        path = write_csv(tmp_path / "data.csv", ["3,day", row, "\t2 , week\x0b"])
        with pytest.raises(IngestError) as err:
            ingest(path)
        assert str(err.value) == f"{path}: line 3: {problem}"

    @pytest.mark.parametrize("header, usable", [
        (" Z ,\tUnit\x0c", True), ("z,unit\xa0", False), ("z\x1c,unit", False)])
    def test_header_cells_strip_ascii_whitespace_only(self, tmp_path, header, usable):
        path = write_csv(tmp_path / "data.csv", ["3,day"], header=header)
        if usable:
            assert len(ingest(path)[0]) == 1
        else:
            with pytest.raises(IngestError, match="expected header 'z,unit'"):
                ingest(path)

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

# the text after "<path>: line N: " of a draws.csv row under the header
# "chain,iteration,x,y" that does not parse
ROW_REFUSED = "expected two int64 integers and 2 numbers"

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
    ("iteration_missing_after_blank_line", "0,1,0.5,1\n\n0,3,0.6,1\n1,1,0.7,2\n1,2,0.8,2\n",
     "line 4: iteration 3 of chain 0, expected 2"),
    ("iteration_zero_based", "0,0,0.5,1\n1,0,0.7,2\n",
     "line 2: iteration 0 of chain 0, expected 1"),
    ("iteration_float", "0,1,0.5,1\n1,1.0,0.7,2\n", f"line 3: {ROW_REFUSED}"),
    ("iteration_x", "0,x,0.5,1\n1,x,0.7,2\n", f"line 2: {ROW_REFUSED}"),
]

# draws.csv bodies under the header "chain,iteration,x,y" holding a number
# that int() or float() reads but numpy's parser refuses or may crash on,
# and the error text after "<path>: " that names its line
NOT_PLAIN_NUMBERS = [
    ("chain_underscore", "0,1,0.5,1\n1_0,1,0.7,2\n", f"line 3: {ROW_REFUSED}"),
    ("value_underscore", "0,1,1_0,1\n1,1,0.7,2\n", f"line 2: {ROW_REFUSED}"),
    ("value_underscore_fraction", "0,1,0.5,1\n1,1,1_0.5,2\n", f"line 3: {ROW_REFUSED}"),
    ("chain_arabic_indic", "0,1,0.5,1\n\u0662,1,0.7,2\n", f"line 3: {ROW_REFUSED}"),
]

# draws.csv bodies under the header "chain,iteration,x,y": the array, or the
# error text after "<path>: ", that read_draws_csv gives
DRAWS_BODIES = [
    ("blank_lines", "0,1,0.5,1\n\n1,1,0.7,2\n\n", ROW_PAIR),
    ("whitespace_line", "0,1,0.5,1\n   \n1,1,0.7,2\n", f"line 3: {ROW_REFUSED}"),
    ("hash_line", "# note\n0,1,0.5,1\n1,1,0.7,2\n", f"line 2: {ROW_REFUSED}"),
    ("quoted_fields", '"0","1","0.5",1\n1,"1",0.7,"2"\n', ROW_PAIR),
    # a quoted field that runs on into the next line would make two lines one row
    ("quoted_line_break", '"0\n",1,0.5,1\n1,1,0.7,2\n', f"line 2: {ROW_REFUSED}"),
    ("chain_float", "0,1,0.5,1\n1.0,1,0.7,2\n", f"line 3: {ROW_REFUSED}"),
    ("chain_exponent", "0,1,0.5,1\n1e0,1,0.7,2\n", f"line 3: {ROW_REFUSED}"),
    ("chain_beyond_int64", "0,1,0.5,1\n99999999999999999999,1,0.7,2\n",
     f"line 3: {ROW_REFUSED}"),
    *NOT_PLAIN_NUMBERS,
    ("crlf_rows", "0,1,0.5,1\r\n1,1,0.7,2\r\n", ROW_PAIR),
    ("padded_fields", " 0 ,1, 0.5 ,1\n1,1,0.7,2\n", ROW_PAIR),
    ("special_values", "0,1,nan,-inf\n1,1,Infinity,-0.0\n",
     [[[math.nan, -math.inf]], [[math.inf, -0.0]]]),
    ("trailing_comma", "0,1,0.5,1,\n1,1,0.7,2,\n", f"line 2: {ROW_REFUSED}"),
    ("short_row", "0,1,0.5\n1,1,0.7,2\n", f"line 2: {ROW_REFUSED}"),
    ("long_row", "0,1,0.5,1,9\n1,1,0.7,2\n", f"line 2: {ROW_REFUSED}"),
    ("unequal_chains", "0,1,0.5,1\n0,2,0.6,1\n1,1,0.7,2\n",
     "chains have unequal lengths [1, 2]"),
    ("one_chain", "0,1,0.5,1\n0,2,0.7,2\n", "diagnostics need at least 2 chains"),
    ("header_only", "", "diagnostics need at least 2 chains"),
    ("iteration_text", "1,b,0.5,1\n0,a,0.7,2\n1,c,0.9,3\n0,d,1.1,4\n",
     f"line 2: {ROW_REFUSED}"),
    ("chains_interleaved", "1,1,0.5,1\n0,1,0.7,2\n1,2,0.9,3\n0,2,1.1,4\n",
     [[[0.7, 2.0], [1.1, 4.0]], [[0.5, 1.0], [0.9, 3.0]]]),
    *ITERATION_OUT_OF_TURN,
    ("cr_rows", "0,1,0.5,1\r1,1,0.7,2\r", ROW_PAIR),
    # str.splitlines ends a line at \x0c, \x1c and \u2028; a CSV file does not
    ("formfeed_in_row", "0,1,0.5,1\x0c1,1,0.7,2\n", f"line 2: {ROW_REFUSED}"),
    ("separator_in_row", "0,1,0.5,1\x1c1,1,0.7,2\n", f"line 2: {ROW_REFUSED}"),
    ("line_separator_in_row", "0,1,0.5,1\u20281,1,0.7,2\n", f"line 2: {ROW_REFUSED}"),
    # float() strips \x0c but not \x1c; numpy's parser strips both, so a line
    # holding a separator is refused
    ("formfeed_padding", "0,1,0.5,1\x0c\n1,1,0.7,2\n", ROW_PAIR),
    ("separator_padding", "0,1,0.5,1\x1c\n1,1,0.7,2\n", f"line 2: {ROW_REFUSED}"),
    # a character numpy's parser crashes on in an integer field
    ("astral_chain", "\U0009c6ca0,1,0.5,1\n1,1,0.7,2\n", f"line 2: {ROW_REFUSED}"),
]


def _check_draws(read, path, expected):
    """``read()``, a read of draws.csv at ``path``, gives the array
    ``expected`` bit for bit, or refuses with the text "<path>: ``expected``"."""
    if isinstance(expected, str):
        with pytest.raises(IngestError) as info:
            read()
        assert str(info.value) == f"{path}: {expected}"
    else:
        draws, names = read()
        assert names == ["x", "y"]
        assert draws.shape == np.shape(expected)
        assert draws.tobytes() == np.array(expected).tobytes()


# the fields of a draws.csv row, each a format of its chain id or iteration
# that int() and numpy's parser both read: signs, leading zeros, padding
_INTEGER_FORMS = ["{}", "+{}", "0{}", " {} ", "\x0b{}", "{}\x0b"]
# and one that one parser or both may refuse or read otherwise: digit
# groups, hex, a float, integers beyond int64, iterations out of turn
_ODD_INTEGER_FORMS = ["0", "{}0", "2{}", "1_{}", "0x{}", "{}.0", "99999999999999999999",
                      "-9223372036854775809"]
# values that both parsers read, the special ones included, then odd ones
_VALUES = ["0.5", "-0.0", "+1", "007", " 2.5 ", "\x0b3", "nan", "-nan", "NaN", "Infinity",
           "-inf", "1e400", "-1e400", "1e-400", "99999999999999999999"]
_ODD_VALUES = ["1_0.5", "0x10", "1e", "--1"]


def _field(draw, plain, odd):
    """A field drawn from ``plain``, or about one time in six from ``odd``."""
    return draw(st.sampled_from(odd if draw(st.integers(0, 5)) == 5 else plain))


@st.composite
def _draws_bodies(draw):
    """A draws.csv body of one or two chains of one or two rows each, about
    one time in five a row more for the first, interleaved, under the header
    "chain,iteration,x,y"."""
    chains = draw(st.lists(st.sampled_from([0, 1, 5, 9, 12]), min_size=1, max_size=2,
                           unique=True))
    extra = [chains[0]] if draw(st.integers(0, 4)) == 4 else []
    turns = draw(st.permutations(chains * draw(st.integers(1, 2)) + extra))
    rows, seen = [], {}
    for chain in turns:
        seen[chain] = seen.get(chain, 0) + 1
        fields = [_field(draw, _INTEGER_FORMS, _ODD_INTEGER_FORMS).format(chain),
                  _field(draw, _INTEGER_FORMS, _ODD_INTEGER_FORMS).format(seen[chain]),
                  _field(draw, _VALUES, _ODD_VALUES), draw(st.sampled_from(_VALUES))]
        rows.append(",".join(fields) + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(rows)


# what int() and float() read in a cell and a plain ASCII number does not hold
_NOT_PLAIN = set("_\x1c\x1d\x1e\x1f")


def _read_rows(path: Path):
    """The oracle for read_draws_csv: draws.csv at ``path`` read row by row
    by csv.reader, int() and float(), as (draws, chain ids), or None when
    it is refused.

    A cell must be plain ASCII, as int() and float() also read "_", other
    digits and the separators \\x1c-\\x1f as a number, and a chain id must
    fit int64.
    """
    by_chain: dict = {}
    with open(path, newline="") as handle:
        rows = csv.reader(handle)
        next(rows)
        for row in rows:
            if not row:
                continue
            if len(row) != 4 or not all(cell.isascii() and not _NOT_PLAIN & set(cell)
                                        for cell in row):
                return None
            try:
                chain, iteration, values = int(row[0]), int(row[1]), [float(v) for v in row[2:]]
            except ValueError:
                return None
            if not -2**63 <= chain < 2**63:
                return None
            draws = by_chain.setdefault(chain, [])
            if iteration != len(draws) + 1:
                return None
            draws.append(values)
    if len(by_chain) < 2 or len({len(draws) for draws in by_chain.values()}) != 1:
        return None
    ids = sorted(by_chain)
    return np.array([by_chain[chain] for chain in ids]), ids


class TestDrawsCsv:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(body=_draws_bodies())
    def test_bulk_parse_and_row_loop_agree(self, tmp_path_factory, body):
        # the reader takes every body the row-by-row oracle takes, to the
        # same ids and bytes, and refuses every other
        path = tmp_path_factory.getbasetemp() / "agree.csv"
        path.write_text("chain,iteration,x,y\n" + body, newline="")
        rows = _read_rows(path)
        try:
            draws, _, ids = cli._read_draws(path)
        except IngestError:
            assert rows is None
        else:
            assert rows is not None
            assert ids == rows[1]
            assert draws.shape == rows[0].shape
            assert draws.tobytes() == rows[0].tobytes()

    def test_bytes_are_pinned(self, tmp_path):
        values = [[[-0.0, 5e-324, 0.1], [1e308, math.nan, math.inf]],
                  [[-math.inf, 2.5, -1e-7], [0.0, -5e-324, 1.0 / 3.0]]]
        path = tmp_path / "draws.csv"
        write_draws_csv(posterior(values, ["delta_1", "delta_2", "log_sigma"]), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "bc25fd62d42c9268303cd2fb7ef25526a2518b2c8e796549c8d4a4e0e7469255"

    def test_bytes_match_csv_writer(self, tmp_path):
        # 600 rows a chain, with the floats whose text is most special
        values = np.random.default_rng(8).standard_normal((3, 600, 3))
        values[0, 0] = [-0.0, 5e-324, math.nan]
        values[1, 299] = [math.inf, 1e308, -math.inf]
        values[2, 599] = [-5e-324, -1e308, 0.0]
        path = tmp_path / "draws.csv"
        write_draws_csv(posterior(values, ["a", "b", "c"]), path)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["chain", "iteration", "a", "b", "c"])
            for chain, rows in enumerate(values.tolist()):
                writer.writerows([chain, it, *row] for it, row in enumerate(rows, 1))
        assert path.read_bytes() == expected.read_bytes()

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

    @pytest.mark.parametrize("body, expected", [case[1:] for case in DRAWS_BODIES],
                             ids=[case[0] for case in DRAWS_BODIES])
    def test_malformed_input(self, tmp_path, body, expected):
        path = tmp_path / "draws.csv"
        path.write_bytes(("chain,iteration,x,y\n" + body).encode())
        _check_draws(lambda: read_draws_csv(path), path, expected)

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

    def test_chain_order_of_rows_does_not_matter(self, tmp_path):
        values = np.random.default_rng(4).standard_normal((4, 60, 3))
        ordered = tmp_path / "ordered.csv"
        write_draws_csv(posterior(values), ordered)
        head, *body = ordered.read_text().splitlines(keepends=True)
        # the chains interleaved, last chain first, each chain's rows in order
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(head + "".join(line for it in range(60) for line in body[it::60][::-1]))
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
    """The draws writer holds one row as floats and text."""

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


def _check_piped_draws(tmp_path, body, expected):
    """``_check_draws`` of read_draws_csv on a draws.csv ``body`` through a pipe."""
    data = ("chain,iteration,x,y\n" + body).encode()
    _check_draws(lambda: _read_through_pipe(tmp_path, data, read_draws_csv),
                 tmp_path / "pipe", expected)


_OTHER_BODIES = [case for case in DRAWS_BODIES
                 if case not in ITERATION_OUT_OF_TURN + NOT_PLAIN_NUMBERS]


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

    def test_draws(self, tmp_path):
        values = np.random.default_rng(3).standard_normal((2, 500, 3))
        path = tmp_path / "draws.csv"
        write_draws_csv(posterior(values), path)
        draws, names = _read_through_pipe(tmp_path, path.read_bytes(), read_draws_csv)
        assert names == ["p0", "p1", "p2"]
        assert draws.tobytes() == values.tobytes()

    # a pipe gives what test_malformed_input's regular file gives, for
    # every body: these cases, and those of the two tests below
    @pytest.mark.parametrize("body, expected", [case[1:] for case in _OTHER_BODIES],
                             ids=[case[0] for case in _OTHER_BODIES])
    def test_draws_body(self, tmp_path, body, expected):
        _check_piped_draws(tmp_path, body, expected)

    @pytest.mark.parametrize("body, expected", [case[1:] for case in ITERATION_OUT_OF_TURN],
                             ids=[case[0] for case in ITERATION_OUT_OF_TURN])
    def test_draws_iterations_out_of_turn(self, tmp_path, body, expected):
        _check_piped_draws(tmp_path, body, expected)

    @pytest.mark.parametrize("body, expected", [case[1:] for case in NOT_PLAIN_NUMBERS],
                             ids=[case[0] for case in NOT_PLAIN_NUMBERS])
    def test_draws_not_plain_numbers(self, tmp_path, body, expected):
        _check_piped_draws(tmp_path, body, expected)

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

    def test_fit_defaults_are_the_library_defaults(self, tmp_path, monkeypatch):
        # a default of `curdur fit` apart from the library's would be named here
        for library in (pipeline.fit, summarize):
            assert inspect.signature(library).parameters["levels"].default == DEFAULT_LEVELS
        passed = {}

        def fit(data, basis_config, sampler_config, heap, levels, progress):
            passed.update(basis=basis_config, sampler=sampler_config, heap=heap, levels=levels)
            raise ConfigurationError("fit not run")

        monkeypatch.setattr(pipeline, "fit", fit)
        path = write_csv(tmp_path / "d.csv", ["3,day"])
        assert main(["fit", "--input", str(path), "--outdir", str(tmp_path / "o")]) == EXIT_ERROR
        assert passed == {"basis": BasisConfig(), "sampler": SamplerConfig(),
                          "heap": DEFAULT_HEAP, "levels": DEFAULT_LEVELS}

    def test_readme_lists_every_fit_option_and_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("`fit` options:"):].split("\n\n", 1)[0]
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {action.dest.replace("_", "-"): action.default
                   for action in sub.choices["fit"]._actions}
        for name in ("input", "outdir", "help"):
            del options[name]
        assert set(re.findall(r"`--([a-z-]+)`", paragraph)) == set(options)
        written = dict(re.findall(r"`--([a-z-]+)` \((?:[^()`]*, )?default `([^`]+)`\)",
                                  " ".join(paragraph.split())))
        assert written == {name: str(default) for name, default in options.items()}


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

    def test_fit_workload_exits_zero(self, tmp_path, capsys):
        # the fit benchmark's survey and fit, which pass every check
        assert main(["simulate", "--truth", "geometric:p=0.03", "--n", "1000", "--seed", "7",
                     "--outdir", str(tmp_path / "sim")]) == EXIT_OK
        capsys.readouterr()
        code = main(["fit", "--input", str(tmp_path / "sim" / "data.csv"),
                     "--outdir", str(tmp_path / "fit"), "--chains", "2", "--seed", "1"])
        assert code == EXIT_OK
        assert json.loads((tmp_path / "fit" / "diagnostics.json").read_text())["passed"] is True
        # one line per chain, as it finishes
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("ingested ")
        assert err[1:] == ["chain 0: 2000 iterations done", "chain 1: 2000 iterations done"]

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
            (["fit", "--input", "{empty}"], "IngestError"),
            (["fit", "--heap-halfwidth", "-1"], "ConfigurationError"),
            (["fit", "--warmup", "-1"], "ConfigurationError"),
            (["fit", "--seed", "-1"], "ConfigurationError"),
            (["simulate", "--truth", "geometric", "--n", "10"], "ConfigurationError"),
            (["simulate", "--truth", "geometric:p", "--n", "10"], "ConfigurationError"),
            (["simulate", "--truth", "pointmass:day=800", "--n", "10"], "ConfigurationError"),
            (["simulate", "--truth", "uniform:lo=9,hi=3", "--n", "10"], "ConfigurationError"),
        ],
    )
    def test_bad_arguments_give_error_json(self, tmp_path, capsys, argv, error):
        data = write_csv(tmp_path / "d.csv", ["5,day"])
        draws = write_csv(tmp_path / "draws.csv", ["0,1,0.5", "0,2,0.7", "1,1,0.1", "1,2,0.3"],
                          header="chain,iteration,x")
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        if argv[0] == "fit" and "--input" not in argv:
            argv = argv + ["--input", str(data)]
        if argv[0] != "diagnose" and "--outdir" not in argv:
            argv = argv + ["--outdir", str(tmp_path / "out")]
        code = main([arg.format(data=data, draws=draws, empty=empty) for arg in argv])
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == error

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("fit", "z,unit\n{field},day\n", "line 2: field larger than"),
            ("diagnose", '"{field}",iteration,x\n0,1,0.5\n1,1,0.5\n',
             "line 1: field larger than"),
            # numpy parses the body, with no limit on a field: as float()
            # does, it reads these digits as inf, which diagnose refuses
            ("diagnose", 'chain,iteration,x\n0,1,"{field}"\n1,1,0.5\n',
             "chain 0, draw 1: parameter x is inf"),
        ],
        ids=["survey", "draws-header", "draws-row"],
    )
    def test_oversized_csv_field_gives_error_json(self, tmp_path, capsys, command, text,
                                                  message):
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
        assert payload["message"].startswith(f"{path}: {message}")

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

    @pytest.mark.parametrize("source", [
        "file",
        pytest.param("pipe", marks=pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                                      reason="needs named pipes")),
    ])
    def test_diagnose_names_the_file_chain_id(self, tmp_path, capsys, source):
        # chains 5 and 9 are the array's chains 0 and 1; the error names 9
        rows = [f"{chain},{it},0.5,{'nan' if (chain, it) == (9, 5) else 1.0}"
                for chain in (5, 9) for it in range(1, 6)]
        path = write_csv(tmp_path / "draws.csv", rows, header="chain,iteration,x,y")
        if source == "file":
            code = main(["diagnose", "--draws", str(path)])
        else:
            code = _read_through_pipe(tmp_path, path.read_bytes(),
                                      lambda pipe: main(["diagnose", "--draws", str(pipe)]))
            path = tmp_path / "pipe"
        assert code == EXIT_ERROR
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {"error": "IngestError",
                           "message": f"{path}: chain 9, draw 5: parameter y is nan"}

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
        # past numpy's own limits, which it refuses before asking for memory:
        # more bytes than a signed 64-bit size, or a size no C long holds
        ["fit", "--input", "{data}", "--iters", "9223372036854775807"],
        ["fit", "--input", "{data}", "--chains", "100000000000000000000"],
        ["fit", "--input", "{data}", "--warmup", "100000000000000000000",
         "--iters", "100000000000000000010"],
        ["simulate", "--truth", "geometric:p=0.1", "--n", "9223372036854775807"],
        ["simulate", "--truth", "geometric:p=0.1", "--n", "100000000000000000000"],
    ], ids=["fit", "simulate", "fit-iters-past-size", "fit-chains-past-c-long",
            "fit-warmup-past-c-long", "simulate-n-past-size", "simulate-n-past-c-long"])
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

    def test_non_whole_truth_day_leaves_no_output_directory(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        argv = ["simulate", "--truth", "pointmass:day=3.5", "--n", "10", "--outdir", str(outdir)]
        assert main(argv) == EXIT_ERROR
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {
            "error": "ConfigurationError", "message": "point mass day 3.5 is not a whole number"}
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
        with pytest.raises((ConfigurationError, AttributeError, TypeError)):
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

    def test_failed_fit_keeps_previous_histogram(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data.csv"
        write_dataset(simulate_survey(truncated_geometric(0.1), n=200, seed=3), data)
        outdir = tmp_path / "out"
        outdir.mkdir()
        names = ["diagnostics.json", "draws.csv", "estimates.json", "histogram.csv"]
        for name in names:
            (outdir / name).write_text(f"previous run: {name}\n")
        # the histogram is the last file a fit writes, a row per day
        monkeypatch.setattr("curdur.cli.spread_mass", lambda *args: _FailingRows())
        code = main(["fit", "--input", str(data), "--outdir", str(outdir), "--chains", "2",
                     "--iters", "40", "--warmup", "20", "--knots", "4"])
        assert code == EXIT_ERROR
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {
            "error": "ConfigurationError",
            "message": f"cannot write {outdir}: no space left on device"}
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


def _file_size_limit(limit):
    """A preexec_fn that caps the files the child writes at ``limit`` bytes.

    It acts on the child alone, and with SIGXFSZ ignored a write past the
    cap fails with EFBIG instead of killing the child.
    """
    def preexec():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    return preexec


class TestFailedWrites:
    """A write the file system refuses exits 1 with a JSON line, and leaves
    no temporary file, no new directory and no changed previous output."""

    OUTPUTS = {"simulate": ["data.csv", "truth.json"],
               "fit": ["diagnostics.json", "draws.csv", "estimates.json", "histogram.csv"]}

    @pytest.mark.parametrize("outdir", ["out", "new/deeper"], ids=["existing", "new_nested"])
    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_file_size_limit_gives_error_json(self, tmp_path, command, outdir):
        data = tmp_path / "survey.csv"
        write_dataset(simulate_survey(truncated_geometric(0.1), n=200, seed=3), data)
        outdir = tmp_path / outdir
        previous = {}
        if outdir.name == "out":
            outdir.mkdir()
            for name in self.OUTPUTS[command] + ["notes.txt"]:
                previous[name] = f"previous run: {name}\n".encode()
                (outdir / name).write_bytes(previous[name])
        before = sorted(tmp_path.rglob("*"))
        args = {"simulate": ["--truth", "geometric:p=0.1", "--n", "20000"],
                "fit": ["--input", str(data), "--chains", "2", "--iters", "40",
                        "--warmup", "20", "--knots", "4"]}[command]
        proc = subprocess.run(
            [sys.executable, "-m", "curdur.cli", command, *args, "--outdir", str(outdir)],
            capture_output=True, text=True, preexec_fn=_file_size_limit(1 << 16))
        assert proc.returncode == EXIT_ERROR
        assert "Traceback" not in proc.stderr
        payload = json.loads(proc.stderr.strip().splitlines()[-1])
        assert payload["error"] == "ConfigurationError"
        assert payload["message"].startswith(f"cannot write {outdir}: [Errno {errno.EFBIG}]")
        assert list(tmp_path.rglob(".*.tmp")) == []
        assert not (tmp_path / "new").exists()
        assert sorted(tmp_path.rglob("*")) == before
        for name, content in previous.items():
            assert (outdir / name).read_bytes() == content


class _FailingRows:
    """Observed weights that fail partway through the histogram."""

    def __getitem__(self, day):
        if day == 100:
            raise OSError("no space left on device")
        return 1.0
