"""The benchmark's workloads: seeded inputs, one job, its digest and its gate.

A job is one user-level request to the package.  Every workload builds a
fixed pool of distinct inputs from the seed (with the references its gate
needs) and the timed loop cycles through that pool.  Right after a job is
timed, its output is reduced to a small digest, so large return values such
as expectation caches do not pile up; the gates read digests only and run
after the timed window.

The package is reached only through its public module functions, looked up
at call time, so the traced run can put wrappers at those boundaries.
"""

from __future__ import annotations

import io
import math

import numpy as np

from cmxlab import cli, models, moments, noise, pds, statevector, variational
from cmxlab.pauli import PauliString, PauliSum

REL_TOL = 1e-10
BOUND_SLACK = 1e-9
EPS = float(np.finfo(float).eps)
# noisy K_1 may sit this many propagated standard errors from the exact value
NOISE_SIGMAS = 6.0


def random_pauli_sum(rng: np.random.Generator, n_qubits: int, n_terms: int) -> PauliSum:
    """Real combination of distinct non-identity strings, coefficients in [-1, 1]."""
    labels: list[str] = []
    seen = {"I" * n_qubits}
    while len(labels) < n_terms:
        label = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        if label not in seen:
            seen.add(label)
            labels.append(label)
    coeffs = rng.uniform(-1.0, 1.0, size=n_terms)
    return PauliSum.from_label_terms(zip(map(float, coeffs), labels))


def random_bits(rng: np.random.Generator, n_qubits: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=n_qubits))


def pds_rounding_slack(raw, order: int, energy: float) -> float:
    """How far below the exact ground rounding alone can put a PDS(order) energy.

    Double-precision moments carry a few ulps of rounding, which the Hankel
    solve scales by its condition number.  The solve keeps the highest order
    whose condition stays below pds.CONDITION_THRESHOLD (the Krylov rank), so
    that condition sets the slack: condition * eps * |energy|, at least
    BOUND_SLACK.
    """
    conds = [np.linalg.cond(pds.build_pds_system(raw, k)[0]) for k in range(1, order + 1)]
    kept = max(c for c in conds if c <= pds.CONDITION_THRESHOLD)
    return max(BOUND_SLACK, kept * EPS * max(1.0, abs(energy)))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def moments_mismatch(got, want) -> str | None:
    for k, (a, b) in enumerate(zip(got, want)):
        if not close(a, b):
            return f"K_{k} = {a!r}, reference {b!r}"
    if len(got) != len(want):
        return f"{len(got)} moments, reference has {len(want)}"
    return None


class Workload:
    """One workload: `sizes` holds the full run and `smoke_sizes` the tiny one."""

    name = ""
    why = ""
    sizes: dict = {}
    smoke_sizes: dict = {}

    def __init__(self, smoke: bool = False):
        self.size = self.smoke_sizes if smoke else self.sizes

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def warm_up(self, inp) -> None:
        raise NotImplementedError

    def run_job(self, inp):
        raise NotImplementedError

    def digest(self, inp, out):
        return out

    def check(self, inp, digest) -> str | None:
        """None when the job's output is correct, else the reason it is not."""
        raise NotImplementedError

    def counts(self, inp, digest) -> dict[str, int]:
        """Exact per-job counts read from the job's output."""
        return {}

    def check_run(self, inputs, results) -> list[tuple[int, str]]:
        """Checks that span several jobs: (job index, reason) per failure.

        `results` holds one (input slot, digest or None) pair per job."""
        return []


class SiamSweep(Workload):
    name = "siam-sweep"
    why = (
        "many 4-qubit CLI sweeps on a basis trial: per-call overhead in argparse, "
        "powers of a 10-term H, the moment solvers and CSV output"
    )
    sizes = {"inputs": 32, "points": 8, "min_jobs": 100,
             "methods": "cmx-cioslowski:4,cmx-knowles:4,pds:4,hw-series:6:0.5,expectation"}
    smoke_sizes = {"inputs": 2, "points": 2, "min_jobs": 2,
                   "methods": "cmx-knowles:2,pds:2,expectation"}
    U = 8.0

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        inputs = []
        for _ in range(self.size["inputs"]):
            vs = [float(v) for v in np.exp(rng.uniform(math.log(0.05), math.log(20.0),
                                                       size=self.size["points"]))]
            trial = statevector.basis_state("0110")
            hs = [models.siam_hamiltonian(models.SiamParams.half_filling(self.U, v)) for v in vs]
            expect = [statevector.expectation(h, trial) for h in hs]
            argv = ["sweep", "--model", "siam", "--U", repr(self.U),
                    "--methods", self.size["methods"],
                    "--sweep-values", ",".join(repr(v) for v in vs)]
            fci = [models.siam_fci_energy(self.U, v) for v in vs]
            order = self.pds_order()
            slack = [
                pds_rounding_slack(moments.raw_moments_dense(h, trial, 2 * order - 1).raw,
                                   order, e)
                for h, e in zip(hs, fci)
            ]
            inputs.append({"argv": argv, "V": vs, "expect": expect, "fci": fci,
                           "pds_slack": slack})
        return inputs

    def pds_order(self) -> int:
        spec = next(m for m in self.size["methods"].split(",") if m.startswith("pds:"))
        return int(spec.split(":")[1])

    def warm_up(self, inp):
        self.run_job(inp)

    def run_job(self, inp):
        out = io.StringIO()
        code = cli.main(inp["argv"], out=out)
        return code, out.getvalue()

    def check(self, inp, digest):
        code, text = digest
        if code != 0:
            return f"sweep exited with {code}"
        lines = text.splitlines()
        if lines[0] != cli.SWEEP_HEADER:
            return f"unexpected header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
        n_methods = len(self.size["methods"].split(","))
        if len(rows) != len(inp["V"]) * n_methods:
            return f"{len(rows)} rows for {len(inp['V'])} points x {n_methods} methods"
        for i, row in enumerate(rows):
            point = i // n_methods
            if float(row[0]) != inp["V"][point]:
                return f"row {i} has sweep value {row[0]}, expected {inp['V'][point]!r}"
            energy = float(row[3])
            if row[1] == "expectation" and not close(energy, inp["expect"][point]):
                return f"expectation row {i}: {energy!r} != <H> = {inp['expect'][point]!r}"
            if (row[1] == "pds" and math.isfinite(energy)
                    and energy < inp["fci"][point] - inp["pds_slack"][point]):
                return (f"pds row {i}: {energy!r} below the exact ground {inp['fci'][point]!r} "
                        f"by more than the rounding slack {inp['pds_slack'][point]:.3g}")
        return None

    def counts(self, inp, digest):
        _, text = digest
        return {"cli.points": len({line.split(",")[0] for line in text.splitlines()[1:]})}


class Pauli10q(Workload):
    name = "pauli-10q"
    why = (
        "10-qubit 60-term H to K_4 on a dense random trial: Pauli-product powers "
        "(~2/3) and per-string expectations (~1/3); no basis-state shortcut applies"
    )
    sizes = {"inputs": 4, "qubits": 10, "terms": 60, "order": 4, "min_jobs": 4}
    smoke_sizes = {"inputs": 2, "qubits": 4, "terms": 8, "order": 3, "min_jobs": 2}

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        inputs = []
        for _ in range(self.size["inputs"]):
            n = self.size["qubits"]
            h = random_pauli_sum(rng, n, self.size["terms"])
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            psi = statevector.StateVector(n, amps / np.linalg.norm(amps))
            dense = moments.raw_moments_dense(h, psi, self.size["order"]).raw
            inputs.append({"h": h, "psi": psi, "dense": dense})
        return inputs

    def warm_up(self, inp):
        moments.raw_moments_pauli(inp["h"], inp["psi"], 2)

    def run_job(self, inp):
        return moments.raw_moments_pauli(inp["h"], inp["psi"], self.size["order"])

    def digest(self, inp, out):
        table, cache = out
        return table.raw, cache.misses, cache.hits

    def check(self, inp, digest):
        return moments_mismatch(digest[0], inp["dense"])


class Variational6q(Workload):
    name = "variational-6q"
    why = (
        "pds:3 scan over 81 angles plus golden refinement on a 6-qubit 30-term H: "
        "powers built once, then ~110 rotated-state expectation passes (~90%)"
    )
    sizes = {"inputs": 2, "qubits": 6, "terms": 30, "method": "pds:3",
             "grid": variational.DEFAULT_GRID_POINTS, "min_jobs": 3}
    smoke_sizes = {"inputs": 2, "qubits": 3, "terms": 8, "method": "pds:2",
                   "grid": 9, "min_jobs": 2}

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        inputs = []
        for _ in range(self.size["inputs"]):
            n = self.size["qubits"]
            h = random_pauli_sum(rng, n, self.size["terms"])
            base = statevector.basis_state(random_bits(rng, n))
            generator = PauliString.from_label(
                "Y" + "".join(rng.choice(list("XZI"), size=n - 1))
            )
            ground = statevector.exact_diagonalize(h).ground_energy
            inputs.append({"h": h, "base": base, "generator": generator, "ground": ground,
                           "grid": variational.default_theta_grid(self.size["grid"])})
        return inputs

    def warm_up(self, inp):
        variational.energy_vs_theta(inp["h"], inp["base"], inp["generator"],
                                    self.size["method"], theta_grid=inp["grid"][:3],
                                    refine=False)

    def run_job(self, inp):
        return variational.energy_vs_theta(inp["h"], inp["base"], inp["generator"],
                                           self.size["method"], theta_grid=inp["grid"])

    def digest(self, inp, scan):
        usable = [e for e, bad in zip(scan.energies, scan.singular_flags) if not bad]
        return {"theta_opt": scan.theta_opt, "energy_opt": scan.energy_opt,
                "grid_min": min(usable), "raw": scan.moments_at_opt.raw}

    def check(self, inp, d):
        if d["energy_opt"] < inp["ground"] - BOUND_SLACK:
            return f"energy_opt {d['energy_opt']!r} below the exact ground {inp['ground']!r}"
        if d["energy_opt"] > d["grid_min"]:
            return f"energy_opt {d['energy_opt']!r} above the grid minimum {d['grid_min']!r}"
        state = statevector.apply_generator_rotation(d["theta_opt"], inp["generator"], inp["base"])
        dense = moments.raw_moments_dense(inp["h"], state, len(d["raw"]) - 1).raw
        return moments_mismatch(d["raw"], dense)


class Noisy8q(Workload):
    name = "noisy-8q"
    why = (
        "shot-noise moments to K_4 of an 8-qubit 40-term H on a basis trial: "
        "powers, ~22k seeded Hadamard-test samplings and expectations"
    )
    sizes = {"inputs": 4, "qubits": 8, "terms": 40, "order": 4, "shots": 8192, "min_jobs": 5}
    smoke_sizes = {"inputs": 2, "qubits": 3, "terms": 6, "order": 3, "shots": 256, "min_jobs": 3}

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        inputs = []
        for _ in range(self.size["inputs"]):
            n = self.size["qubits"]
            h = random_pauli_sum(rng, n, self.size["terms"])
            bits = random_bits(rng, n)
            state = statevector.basis_state(bits)
            nm = noise.NoiseModel(p00=0.97, p11=0.96, p1=0.001, p2=0.01,
                                  shots=self.size["shots"], seed=int(rng.integers(2**31)))
            inputs.append({"h": h, "state": state, "nm": nm,
                           "depth_proxy": (bits.count("1"), 1),
                           "k1": statevector.expectation(h, state)})
        return inputs

    def warm_up(self, inp):
        noise.noisy_moments(inp["h"], inp["state"], 2, inp["nm"],
                            depth_proxy=inp["depth_proxy"])

    def run_job(self, inp):
        return noise.noisy_moments(inp["h"], inp["state"], self.size["order"], inp["nm"],
                                   depth_proxy=inp["depth_proxy"])

    def digest(self, inp, out):
        table, estimates = out
        nm = inp["nm"]
        scale = (nm.p00 + nm.p11 - 1.0) * noise.damping_factor(nm, inp["depth_proxy"])
        variance = 0.0
        for p, c in inp["h"].items():
            if not p.is_identity:
                est = estimates[p]
                se = est.standard_error / scale if est.mitigation_applied else est.standard_error
                variance += abs(c) ** 2 * se**2
        return {"raw_bytes": np.array(table.raw).tobytes(), "k1": table.raw[1],
                "sigma": math.sqrt(variance)}

    def check(self, inp, d):
        if abs(d["k1"] - inp["k1"]) > NOISE_SIGMAS * d["sigma"] + BOUND_SLACK:
            return (f"mitigated K_1 {d['k1']!r} is more than {NOISE_SIGMAS:g} sigma "
                    f"({d['sigma']:.3g}) from <H> = {inp['k1']!r}")
        return None

    def check_run(self, inputs, results):
        """The same seed must reproduce byte-identical moments: every job is
        compared with the first job on its input, and an input run only once
        is run again here, outside the timed window."""
        first: dict[int, bytes] = {}
        seen: dict[int, int] = {}
        failures = []
        for job, (slot, digest) in enumerate(results):
            if digest is None:
                continue
            seen[slot] = seen.get(slot, 0) + 1
            ref = first.setdefault(slot, digest["raw_bytes"])
            if digest["raw_bytes"] != ref:
                failures.append((job, "moments differ from an earlier run of the same seed"))
        for slot, count in seen.items():
            if count == 1:
                again = self.digest(inputs[slot], self.run_job(inputs[slot]))
                if again["raw_bytes"] != first[slot]:
                    job = next(j for j, (s, _) in enumerate(results) if s == slot)
                    failures.append((job, "a rerun with the same seed gave other moments"))
        return failures


WORKLOADS = {w.name: w for w in (SiamSweep, Pauli10q, Variational6q, Noisy8q)}
