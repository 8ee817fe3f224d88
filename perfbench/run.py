"""curdur benchmark: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Run from the root of a curdur checkout.  Each run is a closed loop with one
client: the set-up probes and the workload run one after the other, each in
a fresh Python process with one BLAS thread.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced pass (plus an untraced pass of the same seed,
which gives the tracing overhead and the reference for the byte-identity
check of draws.csv).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("fit", "postprocess")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(deadline: float) -> tuple[list, list]:
    """CPU and wall seconds of fresh processes that only ``import curdur``.

    The probes run one at a time and nothing else is waited for meanwhile,
    so the growth of the children's CPU time is the probe's own.
    """
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        cpu_start, start = children_cpu_s(), time.perf_counter()
        subprocess.run([sys.executable, "-c", "import curdur"], env=child_env(),
                       check=True, timeout=remaining(deadline))
        wall.append(time.perf_counter() - start)
        cpu.append(children_cpu_s() - cpu_start)
    return cpu, wall


def run_child(workload: str, seed: int, seconds: float, trace: int, tag: str,
              deadline: float) -> dict:
    workdir = WORK / f"{workload}-{seed}-{tag}-{os.getpid()}"
    out = workdir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining(deadline))
        if proc.returncode != 0 or not out.exists():
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"benchmark child exited {proc.returncode}")
        result = json.loads(out.read_text())
        spans = workdir / "spans.json"
        if spans.exists():
            shutil.copy(spans, WORK / f"spans-{workload}-{seed}.json")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        out.unlink(missing_ok=True)


def facts() -> dict:
    """Machine and build facts recorded with every result."""
    import importlib.metadata as md

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        # stop at the checkout: a checkout without .git has no commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass

    def version(name):
        try:
            return md.version(name)
        except md.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": BLAS_ENV,
        "curdur_commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "curdur" / "__init__.py").is_file():
        print(f"no curdur source under {ROOT / 'src'}; run from a curdur checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    setup, setup_wall = measure_setup(deadline)
    # a traced run needs only one untraced pass, as its reference
    untraced = run_child(args.workload, args.seed, 0 if args.trace else args.seconds, 0,
                         "plain", deadline)
    passes = untraced["passes"]
    errors = list(untraced["errors"])

    if args.trace:
        traced = run_child(args.workload, args.seed, args.seconds, 1, "traced", deadline)
        errors += traced["errors"]
        metrics = {}
        if passes and traced["passes"]:
            plain, tpass = passes[0], traced["passes"][0]
            if tpass["stats"].get("draws_sha256") != plain["stats"].get("draws_sha256"):
                tpass["problems"].append("traced draws.csv differs from the untraced one")
            metrics = dict(tpass["layers"])
            metrics["ess_bulk_per_s"] = plain["ess_bulk"] / plain["run_s"]
            metrics["ess_tail_per_s"] = plain["ess_tail"] / plain["run_s"]
            metrics["run_s"] = plain["run_s"]
            metrics["run_cpu_s"] = plain["cpu_s"]
            metrics["setup_wall_s"] = statistics.median(setup_wall)
            metrics["host.work_per_cpu_s"] = plain["work"] / plain["cpu_s"]
            metrics["host.speed"] = plain["host_speed"]
            metrics["trace.overhead_s"] = tpass["run_s"] - plain["run_s"]
        all_passes = passes + traced["passes"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            # at the reference host's speed (see calibrate.py)
            "work_per_cpu_s": statistics.median(
                p["work"] / p["cpu_s"] / p["host_speed"] for p in passes
            ) if passes else 0.0,
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        all_passes = passes
    attempted = len(all_passes) + len(errors)
    failed = sum(1 for p in all_passes if p["problems"]) + len(errors)

    for p in all_passes:
        for problem in p["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    for error in errors:
        print(error, file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_probes_cpu_s": setup,
        "setup_probes_wall_s": setup_wall,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in all_passes],
        "facts": facts(),
    }
    print(json.dumps(detail))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        # a run whose passes raised has no figures to report
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0) if failed
                                else metrics[m["name"]], "unit": m["unit"]}
                    for m in declared[kind]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
