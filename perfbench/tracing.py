"""Span tracing at the package's module boundaries, for the traced run only.

Wrappers replace the functions the package calls through (for example
`cmxlab.cli.raw_moments_pauli` or `cmxlab.moments.pauli_expectation`) while a
traced job runs and are removed right after it, so `src/` is never edited and
untraced jobs run the package as shipped.  Each call becomes one span (name,
start, end, parent, job id) kept in flat in-memory arrays; counts are taken
from the wrapped functions' return values.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import statistics
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from cmxlab import cli, cmx, moments, noise, pds, variational
from cmxlab.pauli import PauliString

JOB = "bench.job"
CLI = "cli.main"
POWERS = "pauli.hamiltonian_powers"
RAW_MOMENTS = "moments.raw_moments_pauli"
KERNEL = "statevector.pauli_expectation"
EVALUATE = "methods.evaluate_method"
EIGEN = "linalg.symmetric_spectrum"
NOISY = "noise.noisy_moments"
SAMPLE = "noise.hadamard_test_estimate"
SCAN = "variational.energy_vs_theta"
SPAN_NAMES = (JOB, CLI, POWERS, RAW_MOMENTS, KERNEL, EVALUATE, EIGEN, NOISY, SAMPLE, SCAN)


def _powers_hook(tracer, args, kwargs, powers):
    h_terms = len(args[0])
    sizes = [len(p) for p in powers]
    tracer.count("pauli.products", sum(sizes[:-1]) * h_terms)
    tracer.counts["pauli.terms_top"] = max(tracer.counts.get("pauli.terms_top", 0), sizes[-1])
    tracer.counts.setdefault("pauli.terms_per_power", sizes)
    # moment assembly looks up every non-identity term of every power once
    identity = PauliString.identity(powers[0].n_qubits)
    tracer.last_lookups = sum(len(p) - (identity in p) for p in powers)


def _raw_moments_hook(tracer, args, kwargs, result):
    _, cache = result
    tracer.count("moments.cache_hits", cache.hits)
    tracer.count("moments.cache_misses", cache.misses)


def _evaluate_hook(tracer, args, kwargs, value):
    tracer.count("methods.singular", int(value.singular_flag))
    tracer.count("methods.pinv", int(value.used_pseudo_inverse))


def _noisy_hook(tracer, args, kwargs, result):
    _, estimates = result
    tracer.count("noise.strings_sampled", len(estimates))
    tracer.count("noise.shots_total", sum(e.shots_used for e in estimates.values()))
    tracer.count("moments.cache_hits", tracer.last_lookups - len(estimates))
    tracer.count("moments.cache_misses", len(estimates))


def _scan_hook(tracer, args, kwargs, result):
    tracer.count("variational.scans", 1)


# (span name, the module attributes the package calls it through, count hook)
BOUNDARIES = (
    (CLI, ((cli, "main"),), None),
    (POWERS, ((moments, "hamiltonian_powers"), (variational, "hamiltonian_powers"),
              (noise, "hamiltonian_powers")), _powers_hook),
    (RAW_MOMENTS, ((moments, "raw_moments_pauli"), (cli, "raw_moments_pauli"),
                   (variational, "raw_moments_pauli")), _raw_moments_hook),
    (KERNEL, ((moments, "pauli_expectation"),), None),
    (EVALUATE, ((cli, "evaluate_method"), (variational, "evaluate_method")), _evaluate_hook),
    (EIGEN, ((cmx, "symmetric_spectrum"), (pds, "symmetric_spectrum")), None),
    (NOISY, ((noise, "noisy_moments"),), _noisy_hook),
    (SAMPLE, ((noise, "hadamard_test_estimate"),), None),
    (SCAN, ((variational, "energy_vs_theta"),), _scan_hook),
)


class Tracer:
    """In-memory span recorder plus per-job counters."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name_id = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_id = array("q")
        self.stack = [-1]
        self.job = -1
        self.counts: dict = {}
        self.job_counts: dict[int, dict] = {}
        self.last_lookups = 0
        self._originals = []
        self._wrappers = []
        for name, targets, hook in BOUNDARIES:
            for module, attr in targets:
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                self._wrappers.append((module, attr, self._wrap(name, original, hook)))

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.job_id.append(self.job)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, hook):
        nid = self.names.index(name)
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def run_job(self, job: int, fn, *args):
        """Run fn(*args) as job `job` with every wrapper installed."""
        self.job, self.counts = job, {}
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            for module, attr, original in self._originals:
                setattr(module, attr, original)
            self.job_counts[job] = self.counts

    def arrays(self) -> dict[str, np.ndarray]:
        # copies: a live buffer view would stop the arrays from growing
        return {
            "name_id": np.array(self.name_id, dtype=np.int8),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job_id, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_job(self) -> dict[int, dict[str, np.ndarray]]:
        """Per traced job: total time, self time and call count per span name."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], duration[nested])
        self_time = duration - child
        n_names = len(self.names)
        job_ids, slot = np.unique(a["job"], return_inverse=True)
        key = slot * n_names + a["name_id"]
        size = len(job_ids) * n_names

        def per_name(weights=None):
            return np.bincount(key, weights, minlength=size).reshape(len(job_ids), n_names)

        total, self_sum, calls = per_name(duration), per_name(self_time), per_name()
        return {
            int(job): {"total": total[i], "self": self_sum[i], "calls": calls[i]}
            for i, job in enumerate(job_ids)
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, first_job: int, overhead_s: float,
                  untraced_p50: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over the traced jobs, and accounting errors.

    Times and rates are medians over traced jobs; counts are those of
    `first_job`, whose input is the same in every run of one seed.
    """
    jobs = tracer.per_job()
    idx = {name: i for i, name in enumerate(tracer.names)}
    errors = []
    samples: dict[str, list[float]] = {}

    def add(key, value):
        samples.setdefault(key, []).append(float(value))

    for job, agg in jobs.items():
        total, self_time, calls = agg["total"], agg["self"], agg["calls"]
        counts = tracer.job_counts[job]
        job_s = total[idx[JOB]]
        if abs(self_time.sum() - job_s) > 1e-6 * max(1.0, job_s):
            errors.append(f"job {job}: self times sum to {self_time.sum()!r}, job took {job_s!r}")
        powers_s = total[idx[POWERS]]
        kernel_s = total[idx[KERNEL]]
        expect_s = self_time[idx[RAW_MOMENTS]] + kernel_s
        add("pauli.powers_s", powers_s)
        add("pauli.products_per_s", _ratio(counts.get("pauli.products", 0), powers_s))
        add("moments.expect_s", expect_s)
        add("moments.strings_per_s", _ratio(calls[idx[KERNEL]], expect_s))
        add("statevector.expect_kernel_s", kernel_s)
        add("methods.evaluate_s", total[idx[EVALUATE]])
        add("linalg.eigensolve_s", total[idx[EIGEN]])
        add("noise.sample_s", total[idx[SAMPLE]])
        add("noise.self_s", self_time[idx[NOISY]])
        add("variational.self_s", self_time[idx[SCAN]])
        add("cli.self_s", self_time[idx[CLI]])
        add("bench.traced_job_s", job_s)
        for name in SPAN_NAMES:
            add("share." + name, _ratio(self_time[idx[name]], job_s))

    metrics = {key: statistics.median(values) for key, values in samples.items()}
    first, counts = jobs[first_job], tracer.job_counts[first_job]
    calls = first["calls"]
    hits, misses = counts.get("moments.cache_hits", 0), counts.get("moments.cache_misses", 0)
    n_eval = int(calls[idx[EVALUATE]])
    if misses != calls[idx[KERNEL]]:
        errors.append(f"{misses} cache misses but {calls[idx[KERNEL]]} kernel calls")
    metrics.update({
        "pauli.products": counts.get("pauli.products", 0),
        "pauli.terms_top": counts.get("pauli.terms_top", 0),
        "moments.strings_measured": int(calls[idx[KERNEL]]),
        "moments.cache_hit_ratio": _ratio(hits, hits + misses),
        "methods.calls": n_eval,
        "methods.singular_ratio": _ratio(counts.get("methods.singular", 0), n_eval),
        "methods.pinv_ratio": _ratio(counts.get("methods.pinv", 0), n_eval),
        "linalg.eigensolves": int(calls[idx[EIGEN]]),
        "noise.strings_sampled": counts.get("noise.strings_sampled", 0),
        "noise.shots_total": counts.get("noise.shots_total", 0),
        "variational.evals_per_scan": _ratio(n_eval, counts.get("variational.scans", 0)),
        "cli.points": counts.get("cli.points", 0),
        "trace.overhead_s": overhead_s,
        "trace.overhead_ratio": _ratio(overhead_s, untraced_p50),
    })
    return metrics, errors


# every per-layer metric with its unit and the direction that is better
PER_LAYER = {
    "pauli.powers_s": ("s", "lower"),
    "pauli.products": ("count", "lower"),
    "pauli.products_per_s": ("1/s", "higher"),
    "pauli.terms_top": ("count", "lower"),
    "moments.expect_s": ("s", "lower"),
    "moments.strings_measured": ("count", "lower"),
    "moments.cache_hit_ratio": ("ratio", "higher"),
    "moments.strings_per_s": ("1/s", "higher"),
    "statevector.expect_kernel_s": ("s", "lower"),
    "methods.evaluate_s": ("s", "lower"),
    "methods.calls": ("count", "lower"),
    "methods.singular_ratio": ("ratio", "lower"),
    "methods.pinv_ratio": ("ratio", "lower"),
    "linalg.eigensolves": ("count", "lower"),
    "linalg.eigensolve_s": ("s", "lower"),
    "noise.sample_s": ("s", "lower"),
    "noise.self_s": ("s", "lower"),
    "noise.strings_sampled": ("count", "lower"),
    "noise.shots_total": ("count", "lower"),
    "variational.evals_per_scan": ("count", "lower"),
    "variational.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.points": ("count", "higher"),
    "bench.traced_job_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    **{"share." + name: ("ratio", "lower") for name in SPAN_NAMES},
}

# counts that must repeat exactly between runs of one seed
EXACT_COUNTS = (
    "pauli.products", "pauli.terms_top", "moments.strings_measured",
    "moments.cache_hit_ratio", "methods.calls", "methods.singular_ratio",
    "methods.pinv_ratio", "linalg.eigensolves", "noise.strings_sampled",
    "noise.shots_total", "variational.evals_per_scan", "cli.points",
)
