#!/usr/bin/env python3
"""cmxlab benchmark: one workload per process, seeded inputs, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pauli-10q --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's `src/`; without it the run exits
with code 2 and prints no result.  With `--trace 0` the jobs run untraced and
the last line of standard output is a JSON object whose metrics are the
end-to-end ones in BENCHMARK.json.  With `--trace 1` untraced and traced jobs
alternate on the same inputs: the traced ones give the per-layer metrics, the
difference of the two medians is the tracing overhead, and the spans are
written to perfbench/out/.

`--workload all` runs every workload, untraced and traced, each in its own
process, prints one table, and with `--baseline FILE` records the results
with the seed and environment.  `--smoke` shrinks every workload to a tiny
size for the benchmark's own tests.

The loop is closed with one client: the next job starts when the last one
has returned.  Jobs run until `--seconds` have passed and at least the
workload's minimum number of jobs is done.  Each output is reduced to a
digest right after its job and checked after the timed window; a job fails
when it raises or when its check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("siam-sweep", "pauli-10q", "variational-6q", "noisy-8q")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# a fresh interpreter times the package import, which one process pays once
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, cmxlab; print(time.perf_counter() - t)"
)
# the highest percentile reported needs at least ten samples beyond it
P90_MIN_JOBS = 100
END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    p.add_argument("--baseline", type=Path, help="with --workload all: write the results here")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def limit_blas_threads() -> int:
    """Hold BLAS to at most one thread per available core; returns the limit."""
    cores = len(os.sched_getaffinity(0))
    limit = cores
    for var in BLAS_ENV:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) <= cores:
            limit = min(limit, int(value))
    for var in BLAS_ENV:
        os.environ[var] = str(limit)
    return limit


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args):
    start = perf_counter()
    try:
        out, error = fn(*args), None
    except Exception as err:  # a failing job is counted, not fatal
        out, error = None, f"{type(err).__name__}: {err}"
    return perf_counter() - start, out, error


def set_up(wl, seed: int, repeats: int):
    """Inputs, references and warm-up, repeated; returns (inputs, median seconds)."""
    reps = []
    for _ in range(repeats):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=60)
        t = perf_counter()
        inputs = wl.make_inputs(seed)
        wl.warm_up(inputs[0])
        reps.append(float(probe.stdout) + perf_counter() - t)
    return inputs, statistics.median(reps)


def measure(wl, inputs, seconds: float, tracer):
    """The timed window.  Returns (results, window seconds), one result per
    job: (input slot, digest or None, error or None, seconds, traced)."""
    results = []
    start = perf_counter()
    while True:
        pair = len(results) // 2
        slot = (pair if tracer else len(results)) % len(inputs)
        inp = inputs[slot]
        # traced and untraced jobs take turns going first on a shared input
        runs = ([False, True] if pair % 2 == 0 else [True, False]) if tracer else [False]
        for traced in runs:
            if traced:
                job_s, out, error = timed(tracer.run_job, len(results), wl.run_job, inp)
            else:
                job_s, out, error = timed(wl.run_job, inp)
            digest = None
            if error is None:
                _, digest, error = timed(wl.digest, inp, out)
            out = None
            results.append((slot, digest, error, job_s, traced))
        if (len(results) // len(runs) >= wl.size["min_jobs"]
                and perf_counter() - start >= seconds):
            return results, perf_counter() - start


def gate(wl, inputs, results) -> dict[int, str]:
    """Failed jobs with their reasons: raised, or failed a check."""
    failures = {}
    for job, (slot, digest, error, _, _) in enumerate(results):
        if error is None:
            try:
                error = wl.check(inputs[slot], digest)
            except Exception as err:
                error = f"check raised {type(err).__name__}: {err}"
        if error is not None:
            failures[job] = error
    for job, reason in wl.check_run(inputs, [(r[0], r[1]) for r in results]):
        failures.setdefault(job, reason)
    return failures


def run_workload(args) -> int:
    if not (SRC / "cmxlab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    blas_threads = limit_blas_threads()
    # sweeps run at the CLI default of one thread
    os.environ.pop("CMXLAB_THREADS", None)
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np

    import cmxlab
    import tracing
    import workloads

    if not Path(cmxlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: cmxlab was imported from {cmxlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    inputs, setup_s = set_up(wl, args.seed, 1 if args.smoke else SETUP_REPEATS)
    tracer = tracing.Tracer() if args.trace else None
    results, window = measure(wl, inputs, args.seconds, tracer)
    rss = peak_rss_mb()
    failures = gate(wl, inputs, results)
    for job, reason in sorted(failures.items())[:5]:
        print(f"job {job} failed: {reason}")

    untraced = [r[3] for r in results if not r[4]]
    p50 = statistics.median(untraced)
    detail = {
        "workload": wl.name, "seed": args.seed, "smoke": args.smoke,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": os.cpu_count(), "cores_available": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads, "jobs": len(results),
        "fail_ratio": len(failures) / len(results),
    }
    accounting = []
    if tracer is None:
        metrics = {"setup_s": setup_s, "jobs_per_s": len(results) / window,
                   "job_p50_s": p50, "peak_rss_mb": rss}
        units = END_TO_END_UNITS
        detail["job_p90_s"] = (
            statistics.quantiles(untraced, n=10)[-1] if len(untraced) >= P90_MIN_JOBS else None
        )
    else:
        traced = [job for job, r in enumerate(results) if r[4]]
        for job in traced:
            slot, digest = results[job][0], results[job][1]
            if digest is not None:
                tracer.job_counts[job].update(wl.counts(inputs[slot], digest))
        # each traced job shares its input with the untraced job next to it
        overhead_s = statistics.median(results[job][3] - results[job ^ 1][3] for job in traced)
        metrics, accounting = tracing.layer_metrics(tracer, traced[0], overhead_s, p50)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        detail["terms_per_power"] = tracer.job_counts[traced[0]].get("pauli.terms_per_power")
        detail["untraced_job_p50_s"] = p50
        tracer.write(HERE / "out" / f"spans-{wl.name}.npz")
        for line in accounting:
            print(f"trace accounting: {line}")

    for name, value in metrics.items():
        print(f"{wl.name} {name} = {value!r} {units[name]}")
    if tracer is None:
        p90 = detail["job_p90_s"]
        print(f"{wl.name} job_p90_s = "
              + (f"{p90!r} s" if p90 is not None else f"n/a ({len(results)} jobs < {P90_MIN_JOBS})"))
        print(f"{wl.name} fail_ratio = {detail['fail_ratio']!r} ({len(failures)}/{len(results)})")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures and not accounting,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process; one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            result["detail"] = json.loads(lines[-2])["detail"]
            rows[(name, trace)] = result
            print("\n".join(lines[:-2]))
    print()
    print(f"{'workload':16} {'setup_s':>9} {'jobs_per_s':>11} {'job_p50_s':>10} "
          f"{'job_p90_s':>10} {'peak_rss_mb':>11} {'fail_ratio':>10}")
    for name in WORKLOAD_NAMES:
        m = {k: v["value"] for k, v in rows[(name, 0)]["metrics"].items()}
        d = rows[(name, 0)]["detail"]
        p90 = f"{d['job_p90_s']:.5f}" if d["job_p90_s"] is not None else "n/a"
        print(f"{name:16} {m['setup_s']:9.4f} {m['jobs_per_s']:11.4f} {m['job_p50_s']:10.5f} "
              f"{p90:>10} {m['peak_rss_mb']:11.1f} {d['fail_ratio']:10.4f}")
    if args.baseline:
        write_baseline(args, rows)
    return 0 if all(r["correct"] for r in rows.values()) else 1


def write_baseline(args, rows) -> None:
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    env = rows[(WORKLOAD_NAMES[0], 0)]["detail"]
    record = {
        "git_sha": sha, "seed": args.seed, "seconds": args.seconds,
        **{k: env[k] for k in ("python", "numpy", "nproc", "cores_available", "blas_threads")},
        "workloads": {},
    }
    for name in WORKLOAD_NAMES:
        layers = {k: v["value"] for k, v in rows[(name, 1)]["metrics"].items()}
        record["workloads"][name] = {
            "why": whys.get(name),
            "end_to_end": {k: v["value"] for k, v in rows[(name, 0)]["metrics"].items()},
            "job_p90_s": rows[(name, 0)]["detail"]["job_p90_s"],
            "fail_ratio": rows[(name, 0)]["detail"]["fail_ratio"],
            "self_time_shares": {k[len("share."):]: v for k, v in layers.items()
                                 if k.startswith("share.") and v > 0},
            "terms_per_power": rows[(name, 1)]["detail"]["terms_per_power"],
            "per_layer": {k: v for k, v in layers.items() if not k.startswith("share.")},
        }
    args.baseline.write_text(json.dumps(record, indent=2) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
