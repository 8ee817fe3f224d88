"""One benchmark run in a fresh process: run a workload, check it, write JSON.

Started by run.py with curdur's source on PYTHONPATH and one BLAS thread.
Untraced, it repeats the workload's timed commands until the next pass
would overrun ``--seconds`` (always at least one pass).  Traced, it makes
exactly one pass with spans around curdur's public functions and derives
the per-layer figures from them.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

from calibrate import HostSpeedSampler
from spans import Tracer


def install_tracer(tracer: Tracer) -> None:
    import curdur
    from curdur import cli, simulator

    def on_ingest(tr, args, result):
        dataset, report = result
        tr.count("cli.ingest_rows", report.total_rows)
        tr.counts["model.distinct_reports"] = len(dataset.counts)

    def on_simulate(tr, args, result):
        tr.count("simulator.records", len(result))

    def on_sample(tr, args, result):
        config = args[0]
        tr.count("sampler.chain_iters", config.chains * config.iterations_per_chain)

    def on_summarize(tr, args, result):
        tr.count("estimates.draws", args[0].num_chains * args[0].num_kept)

    tracer.wrap_function(cli.ingest, "cli.ingest", on_ingest)
    tracer.wrap_function(cli.write_draws_csv, "cli.write_draws_csv")
    tracer.wrap_function(cli.read_draws_csv, "cli.read_draws_csv")
    tracer.wrap_function(cli.build_basis, "basis.build_basis")
    tracer.wrap_function(cli.sample, "sampler.sample", on_sample)
    tracer.wrap_function(cli.compute_diagnostics, "diagnostics.compute_diagnostics")
    tracer.wrap_function(cli.summarize, "estimates.summarize", on_summarize)
    tracer.wrap_function(cli.spread_mass, "reporting.spread_mass")
    tracer.wrap_function(simulator.simulate_survey, "simulator.simulate_survey", on_simulate)
    tracer.wrap_method(curdur.PosteriorDensity, "__init__", "model.PosteriorDensity")
    tracer.wrap_method(curdur.PosteriorDensity, "noncentered_logp_and_grad",
                       "model.noncentered_logp_and_grad", leaf=True)


def count_gradients():
    """Count gradient calls with a bare counter: no clock reads, no spans.

    Every pass needs the count, because ``work_per_cpu_s`` of the fit
    workload is gradient calls per CPU second.  Returns a function that
    reads the running total.
    """
    import curdur

    cls = curdur.PosteriorDensity
    fn = cls.noncentered_logp_and_grad
    calls = [0]

    @functools.wraps(fn)
    def counted(self, *args, **kwargs):
        calls[0] += 1
        return fn(self, *args, **kwargs)

    cls.noncentered_logp_and_grad = counted
    return lambda: calls[0]


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(tracer: Tracer, outcome, runtime_warnings: int) -> dict:
    """Per-layer figures of one traced pass."""
    c = tracer.counts
    grad_evals, grad_s = tracer.leaf_totals()
    chain_iters = c.get("sampler.chain_iters", 0)
    ingest_s = tracer.total("cli.ingest")
    simulate_s = tracer.total("simulator.simulate_survey")
    summarize_s = tracer.total("estimates.summarize")
    density_build_s = tracer.total("model.PosteriorDensity")
    sample_s = tracer.total("sampler.sample")
    return {
        "cli.ingest_s": ingest_s,
        "cli.ingest_rows_per_s": _per(c.get("cli.ingest_rows", 0), ingest_s),
        "cli.write_draws_s": tracer.total("cli.write_draws_csv"),
        "cli.read_draws_s": tracer.total("cli.read_draws_csv"),
        "cli.fit_self_s": tracer.self_time("cli.fit"),
        "cli.output_bytes": outcome.output_bytes,
        "simulator.simulate_s": simulate_s,
        "simulator.records_per_s": _per(c.get("simulator.records", 0), simulate_s),
        "reporting.spread_mass_s": tracer.total("reporting.spread_mass"),
        "model.distinct_reports": c.get("model.distinct_reports", 0),
        "basis.build_s": tracer.total("basis.build_basis"),
        "model.density_build_s": density_build_s,
        "model.grad_evals": grad_evals,
        "model.grad_s": grad_s,
        "model.grad_us": _per(grad_s, grad_evals) * 1e6,
        "sampler.sample_s": sample_s,
        "sampler.self_s": tracer.self_time("sampler.sample"),
        "sampler.us_per_chain_iter": _per(sample_s, chain_iters) * 1e6,
        "sampler.grads_per_iter": _per(grad_evals, chain_iters),
        "sampler.accept_mean": outcome.stats.get("accept_mean", 0.0),
        "sampler.step_size_mean": outcome.stats.get("step_size_mean", 0.0),
        "sampler.divergences": outcome.stats.get("divergences", 0),
        "sampler.runtime_warnings": runtime_warnings,
        "sampler.ess_bulk_per_grad": _per(outcome.ess_bulk, grad_evals),
        "sampler.ess_tail_per_grad": _per(outcome.ess_tail, grad_evals),
        "diagnostics.s": tracer.total("diagnostics.compute_diagnostics"),
        "estimates.summarize_s": summarize_s,
        "estimates.draws_per_s": _per(c.get("estimates.draws", 0), summarize_s),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    result = {"passes": [], "errors": []}

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        inputs = workload.prepare(args.seed, workdir)
        inputs["gradient_calls"] = count_gradients()
        inputs["host"] = HostSpeedSampler()
        tracer = None
        if args.trace:
            tracer = Tracer(run_id=f"{args.workload}-{args.seed}")
            install_tracer(tracer)
        started = time.perf_counter()
        while True:
            outdir = workdir / f"pass{len(result['passes'])}"
            warnings_before = len(caught)
            try:
                outcome = workload.run(inputs, outdir, tracer)
            except Exception:
                result["errors"].append(traceback.format_exc())
                break
            shutil.rmtree(outdir, ignore_errors=True)
            runtime_warnings = sum(
                1 for w in caught[warnings_before:] if issubclass(w.category, RuntimeWarning)
            )
            entry = {
                "run_s": outcome.run_s,
                "cpu_s": outcome.cpu_s,
                "work": outcome.work,
                "host_speed": outcome.host_speed,
                "ess_bulk": outcome.ess_bulk,
                "ess_tail": outcome.ess_tail,
                "problems": outcome.problems,
                "runtime_warnings": runtime_warnings,
                "stats": outcome.stats,
            }
            if tracer is not None:
                tracer.unwrap()
                entry["layers"] = layer_metrics(tracer, outcome, runtime_warnings)
                tracer.write(workdir / "spans.json")
            result["passes"].append(entry)
            elapsed = time.perf_counter() - started
            per_pass = elapsed / len(result["passes"])
            if tracer is not None or elapsed + per_pass > args.seconds:
                break

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
