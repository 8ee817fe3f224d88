"""The benchmark's workloads: inputs made from the seed, timed commands, checks.

Every workload drives curdur's public entry points (``curdur.cli.main``,
``curdur.cli.ingest``, ``curdur.cli.write_draws_csv``, ``curdur.summarize``).
The workload seed ``n`` is the fit seed of ``fit``, which always fits the
same survey (seed 7, see README.md).  postprocess simulates its survey
and its synthetic draws with seed ``n``.

Each pass is timed twice: in wall seconds and in CPU seconds of this
process.  curdur runs in one thread (the harness pins BLAS to one thread),
so on an unshared machine the two agree; on a shared host the wall time
also holds the time spent waiting for a core.  During the timed commands a
``calibrate.HostSpeedSampler`` measures the host's speed; the CPU seconds
exclude its probes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import curdur
from curdur import cli

LEVELS = (0.8, 0.95)
COVERAGE_DAYS = 91          # days 0 .. 90
COVERAGE_MIN = 0.90
MEAN_TOLERANCE = 0.10
MONOTONE_SLACK = 1e-12


@dataclass
class Outcome:
    """One timed pass of a workload."""

    run_s: float
    cpu_s: float
    work: int  # units of work done: gradient calls (fit) or survey rows (postprocess)
    host_speed: float  # see calibrate.py
    ess_bulk: float
    ess_tail: float
    problems: list
    output_bytes: int
    stats: dict


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _call(tracer, span_name, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.span(span_name, fn, *args)


class FitWorkload:
    """``curdur simulate`` (untimed), then a timed ``curdur fit``."""

    def __init__(self, truth: str, n: int, survey_seed: int, fit_args: list):
        self.truth = truth
        self.n = n
        self.survey_seed = survey_seed
        self.fit_args = fit_args

    def prepare(self, seed: int, workdir: Path) -> dict:
        simdir = workdir / "survey"
        argv = ["simulate", "--truth", self.truth, "--n", str(self.n),
                "--seed", str(self.survey_seed), "--outdir", str(simdir)]
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"simulate exited {rc}")
        truth = cli.parse_truth(self.truth)
        phi_true = curdur.tsls_from_tbs(truth.f_x).phi
        return {"data": simdir / "data.csv", "seed": seed, "phi_true": phi_true}

    def run(self, inputs: dict, outdir: Path, tracer) -> Outcome:
        argv = ["fit", "--input", str(inputs["data"]), "--outdir", str(outdir),
                "--seed", str(inputs["seed"])] + self.fit_args
        host = inputs["host"]
        calls_before = inputs["gradient_calls"]()
        start, cpu_start = time.perf_counter(), time.process_time()
        host.start()
        rc = _call(tracer, "cli.fit", cli.main, argv)
        host.stop()
        run_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start - host.overhead_s
        work = inputs["gradient_calls"]() - calls_before

        problems = []
        if rc != 0:
            problems.append(f"fit exited {rc} (convergence flags or error)")
            return Outcome(run_s, cpu_s, work, host.speed(), 0.0, 0.0, problems, 0, {})
        diag = json.loads((outdir / "diagnostics.json").read_text())
        est = json.loads((outdir / "estimates.json").read_text())
        if any(diag["divergences"]):
            problems.append(f"divergences per chain {diag['divergences']}")

        phi_true = inputs["phi_true"][:COVERAGE_DAYS]
        band = est["tsls_pmf"]["intervals"]["0.95"]
        lower = np.asarray(band["lower"][:COVERAGE_DAYS])
        upper = np.asarray(band["upper"][:COVERAGE_DAYS])
        coverage = float(np.mean((lower <= phi_true) & (phi_true <= upper)))
        if coverage < COVERAGE_MIN:
            problems.append(f"95% band covers true phi on {coverage:.3f} of days 0-90")
        true_mean = 1.0 / float(inputs["phi_true"][0])
        mean = float(est["mean_tbs_days"]["median"])
        if abs(mean - true_mean) / true_mean > MEAN_TOLERANCE:
            problems.append(f"median mean_tbs_days {mean:.2f} vs truth {true_mean:.2f}")

        stats = {
            "coverage": coverage,
            "mean_tbs_days": mean,
            "true_mean_tbs_days": true_mean,
            "accept_mean": float(np.mean(diag["accept_rate"])),
            "step_size_mean": float(np.mean(diag["step_size"])),
            "divergences": int(sum(diag["divergences"])),
            "draws_sha256": _sha256(outdir / "draws.csv"),
        }
        return Outcome(run_s, cpu_s, work, host.speed(), diag["min_ess_bulk"],
                       diag["min_ess_tail"], problems, _dir_bytes(outdir), stats)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class PostprocessWorkload:
    """Survey I/O, draws I/O, diagnostics and summaries; no sampling."""

    truth = "geometric:p=0.1"
    n = 50_000
    chains, draws, segments = 4, 2000, 30
    rho = 0.6

    def synthetic_posterior(self, seed: int):
        """AR(1) chains around a fixed (delta, log_sigma) centre."""
        k = curdur.BasisConfig(num_segments=self.segments).num_basis + 1
        rng = np.random.default_rng([seed, 12])  # a stream apart from the survey's
        centre = np.concatenate([np.linspace(0.3, 0.02, k - 1), [-1.0]])
        scale = 0.15
        noise = rng.standard_normal((self.chains, self.draws, k))
        x = np.empty_like(noise)
        x[:, 0] = noise[:, 0]
        innovation = np.sqrt(1.0 - self.rho ** 2)
        for t in range(1, self.draws):
            x[:, t] = self.rho * x[:, t - 1] + innovation * noise[:, t]
        draws = centre + scale * x
        names = [f"delta_{i + 1}" for i in range(k - 1)] + ["log_sigma"]
        return curdur.PosteriorDraws(
            draws=draws,
            accept_stats=np.full(self.chains, 0.8),
            divergence_count=np.zeros(self.chains, dtype=int),
            step_sizes=np.full(self.chains, 0.1),
            param_names=names,
        )

    def prepare(self, seed: int, workdir: Path) -> dict:
        posterior = self.synthetic_posterior(seed)
        expected = curdur.compute_diagnostics(posterior.draws, names=posterior.param_names)
        return {
            "seed": seed,
            "posterior": posterior,
            "expected_diagnostics": json.loads(json.dumps(expected.to_dict())),
        }

    def run(self, inputs: dict, outdir: Path, tracer) -> Outcome:
        seed = inputs["seed"]
        posterior = inputs["posterior"]
        outdir.mkdir(parents=True, exist_ok=True)
        simdir = outdir / "survey"
        draws_path = outdir / "draws.csv"
        stdout = io.StringIO()

        host = inputs["host"]
        start, cpu_start = time.perf_counter(), time.process_time()
        host.start()
        sim_rc = _call(tracer, "cli.simulate", cli.main,
                       ["simulate", "--truth", self.truth, "--n", str(self.n),
                        "--seed", str(seed), "--outdir", str(simdir)])
        dataset, report = cli.ingest(simdir / "data.csv")
        cli.write_draws_csv(posterior, draws_path)
        with contextlib.redirect_stdout(stdout):
            diag_rc = _call(tracer, "cli.diagnose", cli.main,
                            ["diagnose", "--draws", str(draws_path)])
        basis = curdur.build_basis(curdur.BasisConfig(num_segments=self.segments))
        summary = curdur.summarize(posterior, basis, levels=LEVELS)
        host.stop()
        run_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start - host.overhead_s

        problems = []
        if sim_rc != 0:
            problems.append(f"simulate exited {sim_rc}")
        if report.total_rows != self.n or report.retained + report.excluded != self.n \
                or len(dataset) != report.retained:
            problems.append(f"ingest accounted for {report.to_dict()} of {self.n} rows")
        diag = json.loads(stdout.getvalue()) if diag_rc in (0, 3) else None
        if diag_rc != 0:
            problems.append(f"diagnose exited {diag_rc}")
        if diag != inputs["expected_diagnostics"]:
            problems.append("diagnose output differs from compute_diagnostics in memory")
        median = np.asarray(summary.tsls_pmf.median)
        if np.any(np.diff(median) > MONOTONE_SLACK * median[0]):
            problems.append("median TSLS pmf increases somewhere")
        survival = np.asarray(summary.tbs_survival.median)
        if survival[0] != 1.0 or survival[-1] != 0.0:
            problems.append(f"median survival runs {survival[0]} .. {survival[-1]}")

        ess_bulk = diag["min_ess_bulk"] if diag else 0.0
        ess_tail = diag["min_ess_tail"] if diag else 0.0
        stats = {"distinct_reports": len(dataset.counts), "ingest_rows": report.total_rows}
        return Outcome(run_s, cpu_s, self.n, host.speed(), ess_bulk, ess_tail, problems, _dir_bytes(outdir), stats)


WORKLOADS = {
    # the CLI defaults with 2 of their 4 chains; README.md says why
    "fit": FitWorkload("geometric:p=0.03", 1000, 7, ["--chains", "2"]),
    "postprocess": PostprocessWorkload(),
}
