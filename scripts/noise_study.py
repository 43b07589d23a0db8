#!/usr/bin/env python3
"""Simplified noise study: readout + depolarizing emulation at the
expectation level, propagated through second-order CMX and PDS.

Thermal relaxation is out of scope here, so the absolute values are not
comparable to hardware-calibrated simulators; what this study shows is the
qualitative picture: noisy estimates shift slightly, stay finite across the
sweep, and regularize expansions whose noiseless denominators vanish.

    python scripts/noise_study.py --shots 8192 --seed 7
"""

import argparse

from cmxlab import (
    H2Coefficients,
    NoiseModel,
    SiamParams,
    basis_state,
    cmx_cioslowski,
    h2_bk_hamiltonian,
    noisy_moments,
    raw_moments_pauli,
    siam_fci_energy,
    siam_hamiltonian,
    solve_pds,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p00", type=float, default=0.97)
    parser.add_argument("--p11", type=float, default=0.96)
    parser.add_argument("--p1", type=float, default=0.001)
    parser.add_argument("--p2", type=float, default=0.01)
    parser.add_argument("--shots", type=int, default=8192)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--values", default="0.1,1,3,6,10")
    args = parser.parse_args()

    nm = NoiseModel(p00=args.p00, p11=args.p11, p1=args.p1, p2=args.p2,
                    shots=args.shots, seed=args.seed)

    print("# Anderson model, trial |0110>, mitigated estimates")
    print("V,fci,cmx2_ideal,cmx2_noisy,pds2_ideal,pds2_noisy")
    for v in (float(x) for x in args.values.split(",")):
        h = siam_hamiltonian(SiamParams.half_filling(8.0, v))
        state = basis_state("0110")
        ideal = raw_moments_pauli(h, state, 3)[0]
        noisy = noisy_moments(h, state, 3, nm, depth_proxy=(2, 1))[0]
        print(
            f"{v:g},{siam_fci_energy(8.0, v):.8f},"
            f"{cmx_cioslowski(ideal, 2).energy:.8f},"
            f"{cmx_cioslowski(noisy, 2).energy:.8f},"
            f"{solve_pds(ideal, 2).ground_energy:.8f},"
            f"{solve_pds(noisy, 2).ground_energy:.8f}"
        )

    print()
    print("# degenerate two-qubit model: noiseless second order is singular,")
    print("# sampling noise keeps it finite")
    c = H2Coefficients(0.0, 0.3, 0.3, -0.1, 0.25, 0.25)
    h2 = h2_bk_hamiltonian(c)
    state = basis_state("01")
    clean = cmx_cioslowski(raw_moments_pauli(h2, state, 3)[0], 2)
    noisy = cmx_cioslowski(noisy_moments(h2, state, 3, nm, depth_proxy=(1, 1))[0], 2)
    print(f"noiseless: energy={clean.energy:.8f} singular={clean.singular_flag}")
    print(f"noisy:     energy={noisy.energy:.8f} singular={noisy.singular_flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
