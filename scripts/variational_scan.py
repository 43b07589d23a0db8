#!/usr/bin/env python3
"""Second-order PDS minimized over a single trial rotation.

For each hybridization value the scan rotates |0110> by exp(i*theta*G) with
G = Y0X1X2X3, traces the PDS(2) landscape, refines the minimizer, and
reports the deviation against the analytic ground energy before and after
rotation.

    python scripts/variational_scan.py --values 0.1,1,3,6,10
"""

import argparse
from pathlib import Path

import numpy as np

from cmxlab import (
    PauliString,
    SiamParams,
    basis_state,
    deviation_report,
    energy_vs_theta,
    siam_fci_energy,
    siam_hamiltonian,
)
from cmxlab.cli import variational_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--U", type=float, default=8.0)
    parser.add_argument("--values", default="0.1,1,3,6,10")
    parser.add_argument("--generator", default="YXXX")
    parser.add_argument("--method", default="pds:2")
    parser.add_argument("--csv-prefix", default=None,
                        help="write per-value scan CSVs <prefix>_V<value>.csv")
    args = parser.parse_args()

    generator = PauliString.from_label(args.generator)
    base = basis_state("0110")
    print(f"# method={args.method} generator={args.generator} U={args.U}")
    print("V,theta_opt,energy_opt,fci,dev_at_zero,dev_at_opt,improvement")
    factors = []
    for v in (float(x) for x in args.values.split(",")):
        h = siam_hamiltonian(SiamParams.half_filling(args.U, v))
        scan = energy_vs_theta(h, base, generator, args.method)
        fci = siam_fci_energy(args.U, v)
        report = deviation_report(scan, fci)
        factors.append(report.improvement_factor)
        print(
            f"{v:g},{scan.theta_opt:.10f},{scan.energy_opt:.12f},{fci:.12f},"
            f"{report.dev_at_zero:.3e},{report.dev_at_opt:.3e},"
            f"{report.improvement_factor:.3e}"
        )
        if args.csv_prefix:
            # the CSV of `cmxlab variational`, byte for byte
            path = Path(f"{args.csv_prefix}_V{v:g}.csv")
            path.write_text("\n".join(variational_csv(scan)) + "\n")
    finite = [f for f in factors if np.isfinite(f)]
    label = f"{np.mean(finite):.3e}" if finite else "inf"
    print(f"# mean improvement factor: {label}"
          + (" (some exact minima reported as inf)" if len(finite) < len(factors) else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
