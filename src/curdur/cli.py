"""Command-line interface: ingest survey CSV, fit, simulate, diagnose.

Input CSV has header ``z,unit`` with unit tokens day/week/month/year
(case-insensitive) or the integer codes 1-4, and a value ``z`` of ASCII
digits with an optional sign; only ASCII whitespace pads a cell.  Reports
``ReportedDuration`` refuses as beyond the two-year window are excluded
and counted; malformed rows, the pairs it refuses otherwise included,
abort with their line numbers.

Exit codes: 0 success, 1 error, usage errors included (machine-readable
JSON on stderr), 3 fit or diagnose completed but a flag fired: a convergence
flag, or for fit a mean TBS band that starts at the basis's floor.
Run as ``curdur <command>`` or ``python -m curdur.cli <command>``.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import csv
import itertools
import json
import os
import re
import string
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import pipeline, simulator
# build_basis, sample and summarize are bound here for perfbench's tracer alone
from .basis import BasisConfig, build_basis
from .diagnostics import MIN_CHAINS, compute_diagnostics
from .errors import ConfigurationError, CurdurError, IngestError, OutOfWindowError
from .estimates import DEFAULT_LEVELS, TbsDistribution, _checked_levels, summarize
from .reporting import (
    DEFAULT_HEAP,
    HeapSet,
    ReportedDataset,
    ReportedDuration,
    Unit,
    spread_mass,
)
from .sampler import PosteriorDraws, SamplerConfig, sample
from .window import NUM_DAYS

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 3

# each unit's lower-case name, as data.csv and the ingest report spell it
_UNIT_NAMES = {unit: unit.name.lower() for unit in Unit}

# each unit's lower-case name and its code; str(unit) spells the member on 3.10
_UNIT_TOKENS = {token: unit for unit in Unit for token in (_UNIT_NAMES[unit], str(unit.value))}

# a survey value: ASCII digits with an optional sign, no "_" or other digits
_INTEGER = re.compile(r"[+-]?[0-9]+")

@dataclass(frozen=True)
class IngestReport:
    """Row accounting from one ingestion pass.

    ``excluded_by_unit`` maps unit names to excluded rows, in unit order.
    """

    retained: int
    excluded_by_unit: dict

    @property
    def excluded(self) -> int:
        return sum(self.excluded_by_unit.values())

    @property
    def total_rows(self) -> int:
        return self.retained + self.excluded

    def to_dict(self) -> dict:
        return {
            "total_rows": self.total_rows,
            "retained": self.retained,
            "excluded": self.excluded,
            "excluded_by_unit": dict(self.excluded_by_unit),
        }


_BLANK, _RECORD, _EXCLUDED, _PROBLEM = range(4)


def _classify_row(row: list) -> tuple:
    """What one CSV row means, as (kind, value).

    The value is None for a blank row, the record for a usable one, the
    unit for one beyond the window and the problem text (without
    its line number) for a malformed one.
    """
    if not row or all(not cell.strip(string.whitespace) for cell in row):
        return _BLANK, None
    if len(row) != 2:
        return _PROBLEM, f"expected 2 fields, got {len(row)}"
    z_text, unit_text = (cell.strip(string.whitespace) for cell in row)
    unit = _UNIT_TOKENS.get(unit_text.lower())
    if unit is None:
        return _PROBLEM, f"unknown unit {unit_text!r}"
    if not _INTEGER.fullmatch(z_text):
        return _PROBLEM, f"reported value {z_text!r} is not an integer"
    try:
        return _RECORD, ReportedDuration(z=int(z_text), unit=unit)
    except OutOfWindowError:
        return _EXCLUDED, unit
    except ValueError as exc:
        return _PROBLEM, str(exc)


def _decode_error(path: Path, exc: UnicodeDecodeError) -> IngestError:
    """The IngestError for a file that is not UTF-8, naming the first bad
    byte and its offset in the file.

    A text stream decodes chunk by chunk and ``exc`` counts from the start
    of its chunk, so a regular file is decoded again whole to count from
    its start.  A pipe cannot be read again: its error names no offset.
    """
    offset = ""
    if path.is_file():
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc, offset = whole, f" at offset {whole.start}"
        except OSError:
            pass
    return IngestError(
        f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x}{offset} ({exc.reason})"
    )


@contextlib.contextmanager
def _open_csv(path: Path):
    """``path`` open as UTF-8 text, a leading byte-order mark skipped, and
    a csv reader of it, as ``(handle, reader)``; only ``\\n``, ``\\r\\n``
    and ``\\r`` end a line.

    A file that cannot be read or is not UTF-8 raises IngestError, whether
    that shows when it is opened or as it is read, and so does a row the
    csv module refuses, such as one with a field over its size limit,
    naming its line.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            yield handle, reader
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _decode_error(path, exc) from exc
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from exc


def ingest(path) -> tuple[ReportedDataset, IngestReport]:
    """Read a survey CSV, excluding reports beyond the two-year window.

    The rows are classified as they are read, and each distinct row only
    once; its lines share one record.
    """
    path = Path(path)
    records = []
    excluded: dict[Unit, int] = {}
    problems = []
    classes: dict[tuple, tuple] = {}
    with _open_csv(path) as (_, reader):
        head = next(reader, None)
        if head is None:
            raise IngestError(f"{path}: file is empty")
        if [cell.strip(string.whitespace).lower() for cell in head] != ["z", "unit"]:
            raise IngestError(f"{path}: expected header 'z,unit', got {head!r}")
        # a row is numbered by the line it starts on: a quoted field may hold a line break
        end = reader.line_num
        for row in reader:
            line_no, end = end + 1, reader.line_num
            key = tuple(row)
            found = classes.get(key)
            if found is None:
                found = classes[key] = _classify_row(row)
            kind, value = found
            if kind == _RECORD:
                records.append(value)
            elif kind == _EXCLUDED:
                excluded[value] = excluded.get(value, 0) + 1
            elif kind == _PROBLEM:
                problems.append(f"line {line_no}: {value}")

    if problems:
        shown = "; ".join(problems[:10])
        more = f" (and {len(problems) - 10} more)" if len(problems) > 10 else ""
        raise IngestError(f"{path}: {shown}{more}")
    if not records:
        raise IngestError(f"{path}: no usable records after exclusions")
    by_unit = {_UNIT_NAMES[unit]: excluded[unit] for unit in sorted(excluded)}
    return ReportedDataset(records), IngestReport(len(records), by_unit)


@contextlib.contextmanager
def _replacing(*paths):
    """Yield a temporary path beside each of ``paths``, then replace them all.

    The one owner of output files: the directory the targets share is
    made on entry, and the targets are replaced only once the block has
    written every temporary file.  Any error leaves all previous files as
    they were and removes the temporary files and every directory made
    here.  A directory that cannot be made, an OSError while the block
    writes or the files are renamed, and a target that is a directory
    raise ConfigurationError.
    """
    paths = [Path(path) for path in paths]
    outdir = paths[0].parent
    made = list(itertools.takewhile(lambda d: not d.exists(), (outdir, *outdir.parents)))
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    action = f"create output directory {outdir}"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        action = f"write {outdir}"
        yield tmps
        for path in paths:
            if path.is_dir() and not path.is_symlink():
                raise ConfigurationError(f"cannot write {path}: it is a directory")
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        # a cleanup that fails, as under an --outdir that is a file, or on
        # a directory something else has since filled, leaves that path be
        for tmp in tmps:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        for directory in made:  # deepest first
            with contextlib.suppress(OSError):
                directory.rmdir()
        if isinstance(exc, OSError):
            raise ConfigurationError(f"cannot {action}: {exc}") from exc
        raise


def write_dataset(dataset: ReportedDataset, path) -> None:
    """Write records as the ingestible CSV format, one row per record."""
    with _replacing(path) as (tmp,), open(tmp, "w", encoding="utf-8", newline="") as handle:
        # the rows csv.writer writes: no value or unit name needs quoting
        handle.write("z,unit\r\n")
        handle.writelines(f"{r.z},{_UNIT_NAMES[r.unit]}\r\n" for r in dataset.records)


def _csv_line(head: str, values) -> str:
    """``head`` then the repr of each float, as csv.writer writes the row.

    No field needs quoting: ``head`` holds integers, and a float repr has
    no comma, quote or line break.
    """
    return f"{head},{','.join(map(repr, values))}\r\n"


def write_draws_csv(draws: PosteriorDraws, path) -> None:
    with _replacing(path) as (tmp,), open(tmp, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow(["chain", "iteration"] + list(draws.param_names))
        # one row at a time: only that row is held as floats and text
        for chain in range(draws.num_chains):
            values = np.asarray(draws.draws[chain], dtype=float)
            handle.writelines(_csv_line(f"{chain},{it}", row.tolist())
                              for it, row in enumerate(values, 1))


def _body_lines(handle, start: int, line_numbers: array.array):
    """The lines of a draws.csv body for numpy's parser, from ``handle``
    at line ``start``; the number of each line yielded is appended to
    ``line_numbers``.

    Blank lines are skipped.  A line numpy's parser would read otherwise
    than int() and float() do raises ValueError: one that is not ASCII,
    as some non-ASCII characters crash the parser, one that holds the
    separators \\x1c-\\x1f, which it strips as whitespace, and one with
    an odd number of quotes, whose quoted field would run on into the
    next line and so make two lines one row.
    """
    for number, line in enumerate(handle, start):
        if not line.strip("\r\n"):
            continue
        line_numbers.append(number)
        if (not line.isascii() or "\x1c" in line or "\x1d" in line or "\x1e" in line
                or "\x1f" in line or '"' in line and line.count('"') % 2):
            raise ValueError(f"line {number} is not plain ASCII CSV")
        yield line


def read_draws_csv(path) -> tuple[np.ndarray, list]:
    """Rebuild the (chains, iterations, parameters) array from draws.csv,
    its chains in the sorted order of their ids.

    The file, regular or a pipe, is read once as a stream, a leading UTF-8
    byte-order mark skipped, and its body parsed by numpy line by line.
    Chain ids and iterations are int64.  Each chain's rows must carry the
    iterations 1, 2, ..., n in file order, and rows in chain order come
    back as a view of the parsed table.  A malformed row raises
    IngestError naming its line, and so do fewer than MIN_CHAINS chains,
    chains of unequal lengths and a value that is not finite: the first in
    chain, iteration and parameter order, named by the file's chain id.
    """
    path = Path(path)
    with _open_csv(path) as (handle, reader):
        header = next(reader, None)
        if header is None or len(header) < 3 or header[:2] != ["chain", "iteration"]:
            raise IngestError(f"{path}: expected header 'chain,iteration,<parameters>'")
        names = header[2:]
        line_numbers = array.array("q")
        lines = _body_lines(handle, reader.line_num + 1, line_numbers)
        row = np.dtype([("chain", np.int64), ("iteration", np.int64),
                        ("values", np.float64, (len(names),))])
        table = np.zeros(0, row)
        try:
            # numpy warns of a body with no rows; it is refused on its chains below
            first = next(lines, None)
            if first is not None:
                # numpy takes one line at a time: the last one taken is the bad one
                table = np.loadtxt(itertools.chain([first], lines), dtype=row,
                                   delimiter=",", quotechar='"', comments=None, ndmin=1)
        except UnicodeDecodeError:
            raise  # _open_csv names the bad byte
        except ValueError as exc:
            raise IngestError(f"{path}: line {line_numbers[-1]}: expected two int64 integers "
                              f"and {len(names)} numbers") from exc
    chains, order = table["chain"], None
    # write_draws_csv writes the chains in order: only other input is regrouped
    if np.any(chains[1:] < chains[:-1]):
        order = np.argsort(chains, kind="stable")
        table = table[order]
        chains = table["chain"]
    # each chain's first iteration is 1 and every next one the last plus 1
    iterations = table["iteration"]
    due = np.ones_like(iterations)
    np.add(iterations[:-1], 1, out=due[1:], where=chains[1:] == chains[:-1])
    wrong = np.flatnonzero(iterations != due)
    if wrong.size:
        # the first wrong row in file order: the rows of its chain before it are right
        rows = np.arange(len(table)) if order is None else order
        at = wrong[np.argmin(rows[wrong])]
        raise IngestError(f"{path}: line {line_numbers[rows[at]]}: iteration {iterations[at]} "
                          f"of chain {chains[at]}, expected {due[at]}")
    sizes = np.unique(chains, return_counts=True)[1].tolist()
    if len(sizes) < MIN_CHAINS:
        raise IngestError(f"{path}: diagnostics need at least {MIN_CHAINS} chains")
    if len(set(sizes)) != 1:
        raise IngestError(f"{path}: chains have unequal lengths {sorted(set(sizes))}")
    values = table["values"]
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        at, param = bad[0]
        raise IngestError(f"{path}: chain {chains[at]}, draw {iterations[at]}: "
                          f"parameter {names[param]} is {values[at, param]}")
    return values.reshape(len(sizes), -1, len(names)), names


def _write_json(payload: dict, path) -> None:
    """Stream ``payload`` to ``path`` as indented UTF-8 JSON ending in ``\\n``;
    every caller writes inside ``_replacing``, and ``path`` is its temporary file."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
        handle.write("\n")


def _heap_from_args(args) -> HeapSet:
    try:
        days = tuple(int(d) for d in args.heap_days.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad heap days {args.heap_days!r}") from exc
    return HeapSet(days=days, halfwidth=args.heap_halfwidth)


def _parse_levels(text: str) -> tuple[float, ...]:
    try:
        levels = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"bad credible levels {text!r}") from exc
    return _checked_levels(levels)


_TRUTH_FAMILIES = {
    "geometric": (simulator.truncated_geometric, {"p"}),
    "pointmass": (simulator.point_mass, {"day"}),
    "uniform": (simulator.uniform_gap, {"lo", "hi"}),
}


def _truth_component(chunk: str) -> tuple[TbsDistribution, float]:
    weight = 1.0
    if "@" in chunk:
        chunk, weight_text = chunk.rsplit("@", 1)
        weight = float(weight_text)
    if ":" not in chunk:
        raise ConfigurationError(f"bad truth component {chunk!r}, expected name:key=value")
    name, arg_text = chunk.split(":", 1)
    kwargs = {}
    for pair in arg_text.split(","):
        if "=" not in pair:
            raise ConfigurationError(f"bad truth argument {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        if key in kwargs:
            raise ConfigurationError(f"truth argument {key!r} given twice in {chunk!r}")
        kwargs[key] = float(value)
    name = name.strip().lower()
    if name not in _TRUTH_FAMILIES:
        raise ConfigurationError(f"unknown truth family {name!r}")
    make, keys = _TRUTH_FAMILIES[name]
    if set(kwargs) != keys:
        raise ConfigurationError(
            f"truth family {name!r} takes {sorted(keys)}, got {sorted(kwargs)}"
        )
    return make(**kwargs), weight


def parse_truth(spec: str) -> TbsDistribution:
    """Parse a gap-truth expression.

    Grammar: one or more components joined by '+', each
    ``name:key=value[,key=value]`` with optional ``@weight``.  Names:
    geometric (p=...), pointmass (day=...), uniform (lo=...,hi=...).
    """
    try:
        parts = [_truth_component(chunk.strip()) for chunk in spec.split("+")]
        return simulator.mixture(parts)
    except ConfigurationError:
        raise
    except ValueError as exc:
        # a number that does not parse; the families check what it parses to
        raise ConfigurationError(f"bad truth {spec!r}: {exc}") from exc


def _cmd_fit(args) -> int:
    basis_config = BasisConfig(num_segments=args.knots)
    sampler_config = SamplerConfig(chains=args.chains, iterations_per_chain=args.iters,
                                   warmup=args.warmup, seed=args.seed)
    heap = _heap_from_args(args)
    levels = _parse_levels(args.levels)
    dataset, ingest_report = ingest(args.input)
    print(
        f"ingested {ingest_report.retained} records "
        f"({ingest_report.excluded} excluded as beyond the window)",
        file=sys.stderr,
    )

    def progress(chain):
        print(f"chain {chain}: {args.iters} iterations done", file=sys.stderr)

    result = pipeline.fit(dataset, basis_config, sampler_config, heap=heap, levels=levels,
                          progress=progress)
    draws, report, summary = result.draws, result.report, result.summary

    estimates_payload = summary.to_dict()
    estimates_payload["dataset"] = ingest_report.to_dict()
    estimates_payload["config"] = {
        # asdict leaves out the degree, a class constant; the file keeps it
        "basis": {"num_segments": basis_config.num_segments, "degree": basis_config.degree,
                  "mean_tbs_floor_days": result.floor},
        "sampler": asdict(sampler_config),
        "heap": asdict(heap),
    }
    diag_payload = report.to_dict()
    diag_payload["divergences"] = draws.divergence_count.tolist()
    diag_payload["accept_rate"] = draws.accept_stats.tolist()
    diag_payload["step_size"] = draws.step_sizes.tolist()
    observed = spread_mass(dataset, heap)
    phi_median = np.asarray(summary.tsls_pmf.median)

    outdir = Path(args.outdir)
    # all four files, or none: a failure leaves the previous run's outputs
    names = ("draws.csv", "estimates.json", "diagnostics.json", "histogram.csv")
    with _replacing(*(outdir / name for name in names)) as tmps:
        draws_tmp, estimates_tmp, diag_tmp, histogram_tmp = tmps
        write_draws_csv(draws, draws_tmp)
        _write_json(estimates_payload, estimates_tmp)
        _write_json(diag_payload, diag_tmp)
        with open(histogram_tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write("day,observed_weight,phi_median\r\n")
            handle.writelines([
                _csv_line(str(day), (float(observed[day]), float(phi_median[day])))
                for day in range(NUM_DAYS)
            ])

    if not report.passed:
        print(f"flags: {report.flags}", file=sys.stderr)
        return EXIT_FLAGGED
    return EXIT_OK


def _cmd_simulate(args) -> int:
    truth = parse_truth(args.truth)
    dataset = simulator.simulate_survey(truth, n=args.n, seed=args.seed)
    outdir = Path(args.outdir)
    # both files, or neither: a survey never sits beside another run's truth
    with _replacing(outdir / "data.csv", outdir / "truth.json") as (data_tmp, truth_tmp):
        write_dataset(dataset, data_tmp)
        _write_json(
            {"truth": args.truth, "n": args.n, "seed": args.seed, "f_x": truth.f_x.tolist()},
            truth_tmp,
        )
    print(f"wrote {len(dataset)} records to {outdir / 'data.csv'}", file=sys.stderr)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    draws, names = read_draws_csv(args.draws)
    report = compute_diagnostics(draws, names=names)
    try:
        sys.stdout.write(json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n")
        sys.stdout.flush()
    except OSError as exc:
        # the unwritten report stays buffered; with stdout on devnull the
        # flush at exit succeeds instead of printing "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigurationError(f"cannot write standard output: {exc}") from exc
    return EXIT_OK if report.passed else EXIT_FLAGGED


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigurationError, so
    they exit 1 with a JSON line like every other error.  Subparsers
    inherit the class."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curdur",
        description="Estimate time-between-sex distributions from heaped "
        "time-since-last-sex survey reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the model to a survey CSV")
    fit.add_argument("--input", required=True, help="survey CSV with header z,unit")
    fit.add_argument("--outdir", required=True, help="output directory")
    # every default is the library's: `curdur fit` and `curdur.fit` agree
    basis, sampler = BasisConfig(), SamplerConfig()
    fit.add_argument("--knots", type=int, default=basis.num_segments,
                     help="number of knot segments")
    fit.add_argument("--chains", type=int, default=sampler.chains)
    fit.add_argument("--iters", type=int, default=sampler.iterations_per_chain,
                     help="iterations per chain")
    fit.add_argument("--warmup", type=int, default=sampler.warmup)
    fit.add_argument("--seed", type=int, default=sampler.seed)
    fit.add_argument("--levels", default=",".join(map(str, DEFAULT_LEVELS)),
                     help="credible levels, comma separated")
    fit.add_argument("--heap-days", default=",".join(map(str, DEFAULT_HEAP.days)),
                     help="heap days, comma separated")
    fit.add_argument("--heap-halfwidth", type=int, default=DEFAULT_HEAP.halfwidth)
    fit.set_defaults(func=_cmd_fit)

    sim = sub.add_parser("simulate", help="generate a synthetic survey CSV")
    sim.add_argument("--truth", required=True, help="e.g. geometric:p=0.1")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--outdir", required=True)
    sim.set_defaults(func=_cmd_simulate)

    diag = sub.add_parser("diagnose", help="recompute diagnostics from draws.csv")
    diag.add_argument("--draws", required=True)
    diag.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CurdurError as exc:
        error, message = type(exc).__name__, str(exc)
    except MemoryError as exc:
        # numpy raises a subclass of its own; the line names the built-in
        error, message = "MemoryError", str(exc)
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
