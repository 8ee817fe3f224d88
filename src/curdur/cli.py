"""Command-line interface: ingest survey CSV, fit, simulate, diagnose.

Input CSV has header ``z,unit`` with unit tokens day/week/month/year
(case-insensitive) or the integer codes 1-4.  Rows whose implied day
interval lies beyond the two-year window are excluded and counted;
malformed rows abort ingestion with their line numbers.

Exit codes: 0 success, 1 error (machine-readable JSON on stderr),
3 fit or diagnose completed but a convergence flag fired.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import simulator
from .basis import BasisConfig, build_basis
from .diagnostics import DiagnosticsReport, compute_diagnostics
from .errors import ConfigurationError, CurdurError, IngestError
from .estimates import summarize
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

_UNIT_TOKENS = {
    "day": Unit.DAY,
    "week": Unit.WEEK,
    "month": Unit.MONTH,
    "year": Unit.YEAR,
    "1": Unit.DAY,
    "2": Unit.WEEK,
    "3": Unit.MONTH,
    "4": Unit.YEAR,
}

# first reported value whose day interval lies wholly beyond the window
_EXCLUSION_MIN = {Unit.DAY: 730, Unit.WEEK: 105, Unit.MONTH: 24, Unit.YEAR: 2}


@dataclass(frozen=True)
class RunConfig:
    """Everything one fit run needs: paths, model, sampler, reporting."""

    input_path: Path
    outdir: Path
    basis: BasisConfig
    sampler: SamplerConfig
    heap: HeapSet
    levels: tuple

    @classmethod
    def from_fit_args(cls, args) -> "RunConfig":
        return cls(
            input_path=Path(args.input),
            outdir=Path(args.outdir),
            basis=BasisConfig(
                support_days=NUM_DAYS, num_segments=args.knots, degree=args.degree
            ),
            sampler=SamplerConfig(
                chains=args.chains,
                iterations_per_chain=args.iters,
                warmup=args.warmup,
                seed=args.seed,
            ),
            heap=_heap_from_args(args),
            levels=_parse_levels(args.levels),
        )


@dataclass
class IngestReport:
    """Row accounting from one ingestion pass."""

    total_rows: int = 0
    retained: int = 0
    excluded_by_unit: dict = field(default_factory=dict)

    @property
    def excluded(self) -> int:
        return sum(self.excluded_by_unit.values())

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
    unit name for one beyond the window and the problem text (without
    its line number) for a malformed one.
    """
    if not row or all(not cell.strip() for cell in row):
        return _BLANK, None
    if len(row) != 2:
        return _PROBLEM, f"expected 2 fields, got {len(row)}"
    z_text, unit_text = row[0].strip(), row[1].strip().lower()
    unit = _UNIT_TOKENS.get(unit_text)
    if unit is None:
        return _PROBLEM, f"unknown unit {row[1].strip()!r}"
    try:
        z = int(z_text)
    except ValueError:
        return _PROBLEM, f"reported value {z_text!r} is not an integer"
    if z < 0:
        return _PROBLEM, f"reported value {z} is negative"
    if unit == Unit.YEAR and z == 0:
        return _PROBLEM, (
            "a 0-year report is not representable "
            "(expected z = 1 within the two-year window)"
        )
    if z >= _EXCLUSION_MIN[unit]:
        return _EXCLUDED, unit.name.lower()
    return _RECORD, ReportedDuration(z=z, unit=unit)


def ingest(path) -> tuple[ReportedDataset, IngestReport]:
    """Read a survey CSV, excluding reports beyond the two-year window.

    Each distinct row is classified once; its lines share one record.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc

    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise IngestError(f"{path}: file is empty")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["z", "unit"]:
        raise IngestError(f"{path}: expected header 'z,unit', got {rows[0]!r}")

    records = []
    report = IngestReport()
    excluded = report.excluded_by_unit
    problems = []
    classes: dict[tuple, tuple] = {}
    for line_no, row in enumerate(rows[1:], start=2):
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
    report.retained = len(records)
    report.total_rows = report.retained + report.excluded
    if not records:
        raise IngestError(f"{path}: no usable records after exclusions")
    return ReportedDataset.from_records(records), report


@contextlib.contextmanager
def _replacing(*paths):
    """Yield a temporary path beside each of ``paths``, then replace them all.

    The targets are replaced only once the block has written every
    temporary file, so an error leaves all previous files as they were.
    The temporary files are removed either way.
    """
    paths = [Path(path) for path in paths]
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def write_dataset(dataset: ReportedDataset, path) -> None:
    """Write records as the ingestible CSV format, one formatted row per class."""
    with _replacing(path) as (tmp,), open(tmp, "w", newline="") as handle:
        # the rows csv.writer writes: no value or unit name needs quoting
        distinct = dict.fromkeys(dataset.records)
        lines = {r: f"{r.z},{r.unit.name.lower()}\r\n" for r in distinct}
        handle.write("z,unit\r\n")
        handle.writelines([lines[record] for record in dataset.records])


def write_draws_csv(draws: PosteriorDraws, path) -> None:
    with _replacing(path) as (tmp,), open(tmp, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["chain", "iteration"] + list(draws.param_names))
        for chain in range(draws.num_chains):
            for it in range(draws.num_kept):
                row = [chain, it + 1] + [repr(float(v)) for v in draws.draws[chain, it]]
                writer.writerow(row)


def read_draws_csv(path) -> tuple[np.ndarray, list]:
    """Rebuild the (chains, iterations, parameters) array from draws.csv."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows or len(rows[0]) < 3 or rows[0][:2] != ["chain", "iteration"]:
        raise IngestError(f"{path}: expected header 'chain,iteration,<parameters>'")
    names = rows[0][2:]
    by_chain: dict = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            chain = int(row[0])
            values = [float(v) for v in row[2:]]
        except ValueError as exc:
            raise IngestError(f"{path}: line {line_no}: {exc}") from exc
        if len(values) != len(names):
            raise IngestError(f"{path}: line {line_no}: wrong number of values")
        by_chain.setdefault(chain, []).append(values)
    if len(by_chain) < 2:
        raise IngestError(f"{path}: diagnostics need at least 2 chains")
    sizes = {len(v) for v in by_chain.values()}
    if len(sizes) != 1:
        raise IngestError(f"{path}: chains have unequal lengths {sorted(sizes)}")
    ordered = [by_chain[c] for c in sorted(by_chain)]
    return np.array(ordered), names


def _write_json(payload: dict, path) -> None:
    with _replacing(path) as (tmp,), open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _make_outdir(outdir: Path) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {outdir}: {exc}") from exc


def _heap_from_args(args) -> HeapSet:
    if args.heap_days is None and args.heap_halfwidth is None:
        return DEFAULT_HEAP
    days = DEFAULT_HEAP.days
    if args.heap_days is not None:
        try:
            days = tuple(int(d) for d in args.heap_days.split(","))
        except ValueError as exc:
            raise ConfigurationError(f"bad heap days {args.heap_days!r}") from exc
    halfwidth = DEFAULT_HEAP.halfwidth if args.heap_halfwidth is None else args.heap_halfwidth
    return HeapSet(days=days, halfwidth=halfwidth)


def _parse_levels(text: str) -> tuple[float, ...]:
    try:
        levels = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad credible levels {text!r}") from exc
    if not levels or any(not 0.0 < lvl < 1.0 for lvl in levels):
        raise ConfigurationError(f"credible levels must lie in (0, 1), got {text!r}")
    return levels


_TRUTH_FAMILIES = {
    "geometric": (simulator.truncated_geometric, {"p": float}),
    "pointmass": (simulator.point_mass, {"day": int}),
    "uniform": (simulator.uniform_gap, {"lo": int, "hi": int}),
}


def _truth_component(chunk: str) -> tuple[simulator.TrueTbs, float]:
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
        key, value = pair.split("=", 1)
        kwargs[key.strip()] = float(value)
    name = name.strip().lower()
    if name not in _TRUTH_FAMILIES:
        raise ConfigurationError(f"unknown truth family {name!r}")
    make, arg_types = _TRUTH_FAMILIES[name]
    if set(kwargs) != set(arg_types):
        raise ConfigurationError(
            f"truth family {name!r} takes {sorted(arg_types)}, got {sorted(kwargs)}"
        )
    return make(**{k: cast(kwargs[k]) for k, cast in arg_types.items()}), weight


def parse_truth(spec: str) -> simulator.TrueTbs:
    """Parse a gap-truth expression.

    Grammar: one or more components joined by '+', each
    ``name:key=value[,key=value]`` with optional ``@weight``.  Names:
    geometric (p=...), pointmass (day=...), uniform (lo=...,hi=...).
    """
    try:
        parts = [_truth_component(chunk.strip()) for chunk in spec.split("+")]
        if len(parts) == 1 and parts[0][1] == 1.0:
            return parts[0][0]
        return simulator.mixture(parts)
    except ConfigurationError:
        raise
    except (ValueError, OverflowError) as exc:
        # a number that does not parse, or a non-finite one cast to int
        raise ConfigurationError(f"bad truth {spec!r}: {exc}") from exc


def _cmd_fit(args) -> int:
    run = RunConfig.from_fit_args(args)
    _make_outdir(run.outdir)
    dataset, ingest_report = ingest(run.input_path)
    print(
        f"ingested {ingest_report.retained} records "
        f"({ingest_report.excluded} excluded as beyond the window)",
        file=sys.stderr,
    )

    basis = build_basis(run.basis)

    def progress(chain, iteration, total):
        if iteration == total:
            print(f"chain {chain}: {total} iterations done", file=sys.stderr)

    draws = sample(run.sampler, dataset, basis, heap=run.heap, progress=progress)
    report = compute_diagnostics(draws.draws, names=draws.param_names)
    summary = summarize(draws, basis, levels=run.levels)

    estimates_payload = summary.to_dict()
    estimates_payload["dataset"] = ingest_report.to_dict()
    estimates_payload["config"] = {
        name: asdict(getattr(run, name)) for name in ("basis", "sampler", "heap")
    }
    diag_payload = report.to_dict()
    diag_payload["divergences"] = draws.divergence_count.tolist()
    diag_payload["accept_rate"] = draws.accept_stats.tolist()
    diag_payload["step_size"] = draws.step_sizes.tolist()
    observed = spread_mass(dataset, run.heap)
    phi_median = np.asarray(summary.tsls_pmf.median)

    # all four files, or none: a failure leaves the previous run's outputs
    names = ("draws.csv", "estimates.json", "diagnostics.json", "histogram.csv")
    with _replacing(*(run.outdir / name for name in names)) as tmps:
        draws_tmp, estimates_tmp, diag_tmp, histogram_tmp = tmps
        write_draws_csv(draws, draws_tmp)
        _write_json(estimates_payload, estimates_tmp)
        _write_json(diag_payload, diag_tmp)
        with open(histogram_tmp, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["day", "observed_weight", "phi_median"])
            for day in range(NUM_DAYS):
                writer.writerow([day, repr(float(observed[day])), repr(float(phi_median[day]))])

    if not report.passed:
        print(f"convergence flags: {report.flags}", file=sys.stderr)
        return EXIT_FLAGGED
    return EXIT_OK


def _cmd_simulate(args) -> int:
    outdir = Path(args.outdir)
    _make_outdir(outdir)
    truth = parse_truth(args.truth)
    dataset = simulator.simulate_survey(truth, n=args.n, seed=args.seed)
    write_dataset(dataset, outdir / "data.csv")
    _write_json(
        {"truth": args.truth, "n": args.n, "seed": args.seed, "f_x": truth.f_x.tolist()},
        outdir / "truth.json",
    )
    print(f"wrote {len(dataset)} records to {outdir / 'data.csv'}", file=sys.stderr)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    draws, names = read_draws_csv(args.draws)
    report = compute_diagnostics(draws, names=names)
    json.dump(report.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK if report.passed else EXIT_FLAGGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curdur",
        description="Estimate time-between-sex distributions from heaped "
        "time-since-last-sex survey reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the model to a survey CSV")
    fit.add_argument("--input", required=True, help="survey CSV with header z,unit")
    fit.add_argument("--outdir", required=True, help="output directory")
    fit.add_argument("--knots", type=int, default=10, help="number of knot segments")
    fit.add_argument("--degree", type=int, default=3, help="spline degree")
    fit.add_argument("--chains", type=int, default=4)
    fit.add_argument("--iters", type=int, default=2000, help="iterations per chain")
    fit.add_argument("--warmup", type=int, default=1000)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--levels", default="0.8,0.95", help="credible levels, comma separated")
    fit.add_argument("--heap-days", default=None, help="override heap days, comma separated")
    fit.add_argument("--heap-halfwidth", type=int, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CurdurError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())
