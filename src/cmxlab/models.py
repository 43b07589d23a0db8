"""Benchmark Hamiltonians: the two-site single-impurity Anderson model and
the six-term two-qubit molecular form.

Qubit indexing is zero-based with qubit 0 leftmost.  For the Anderson model
the impurity orbitals sit on qubits 0 and 2 and the bath orbitals on qubits
1 and 3; the anchor <0110|H|0110> = -4 at half filling (U = 8) pins this
assignment, and the model tests reject any other ordering.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

from .errors import HamiltonianParseError
from .pauli import PauliSum


@dataclass(frozen=True)
class SiamParams:
    """Two-site Anderson impurity parameters.

    U: on-site repulsion, mu: chemical potential, eps0/eps1: impurity and
    bath site energies, V: hybridization.  Half filling fixes mu = U/2,
    eps0 = 0, eps1 = mu; use the named constructor for that configuration.
    """

    U: float
    mu: float
    eps0: float
    eps1: float
    V: float

    @classmethod
    def half_filling(cls, U: float, V: float) -> "SiamParams":
        return cls(U=U, mu=U / 2.0, eps0=0.0, eps1=U / 2.0, V=V)

    @property
    def is_half_filling(self) -> bool:
        return self.mu == self.U / 2.0 and self.eps0 == 0.0 and self.eps1 == self.mu


def siam_hamiltonian(p: SiamParams) -> PauliSum:
    """Four-qubit Anderson impurity Hamiltonian.

    U/4 (I-Z0)(I-Z2)  +  (eps0-mu)/2 (2I - Z0 - Z2)
                      +  (eps1-mu)/2 (2I - Z1 - Z3)
                      +  V/2 (X0X1 + Y0Y1 + X2X3 + Y2Y3)
    """
    c_imp = (p.eps0 - p.mu) / 2.0
    c_bath = (p.eps1 - p.mu) / 2.0
    terms = [
        (p.U / 4.0 + 2.0 * c_imp + 2.0 * c_bath, "IIII"),
        (-p.U / 4.0 - c_imp, "ZIII"),
        (-p.U / 4.0 - c_imp, "IIZI"),
        (p.U / 4.0, "ZIZI"),
        (-c_bath, "IZII"),
        (-c_bath, "IIIZ"),
        (p.V / 2.0, "XXII"),
        (p.V / 2.0, "YYII"),
        (p.V / 2.0, "IIXX"),
        (p.V / 2.0, "IIYY"),
    ]
    return PauliSum.from_label_terms(terms, n_qubits=4)


def siam_fci_energy(U: float, V: float) -> float:
    """Analytic half-filling ground energy -(U + sqrt(U^2 + 64 V^2))/4."""
    return -(U + math.sqrt(U * U + 64.0 * V * V)) / 4.0


@dataclass(frozen=True)
class H2Coefficients:
    """Coefficients of the six-term two-qubit Hamiltonian, with an optional
    bond-length label in Angstrom."""

    g0: float
    g1: float
    g2: float
    g3: float
    g4: float
    g5: float
    r: float | None = None

    def __post_init__(self):
        for name in ("g0", "g1", "g2", "g3", "g4", "g5"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def h2_bk_hamiltonian(c: H2Coefficients) -> PauliSum:
    """g0 I + g1 Z0 + g2 Z1 + g3 Z0Z1 + g4 X0X1 + g5 Y0Y1.

    The XX and YY terms flip both qubits, so the {|01>,|10>} block decouples
    from {|00>,|11>} for any coefficients.
    """
    return PauliSum.from_label_terms(
        [
            (c.g0, "II"),
            (c.g1, "ZI"),
            (c.g2, "IZ"),
            (c.g3, "ZZ"),
            (c.g4, "XX"),
            (c.g5, "YY"),
        ],
        n_qubits=2,
    )


_PES_COLUMNS = ("R", "g0", "g1", "g2", "g3", "g4", "g5")


def load_h2_pes(source: str | Path) -> list[tuple[float, H2Coefficients]]:
    """Load a potential-energy-surface table from CSV columns R,g0..g5.

    The repository ships only the file format and a template; the coefficient
    values are external data that the user must supply (see
    data/h2_pes_template.csv).  Lines starting with '#' are comments, an
    optional header row naming the columns is accepted, and rows are returned
    in file order.
    """
    path = Path(source)
    text = path.read_text()
    rows: list[tuple[float, H2Coefficients]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = next(csv.reader(StringIO(stripped)))
        fields = [f.strip() for f in fields]
        if fields and fields[0] == _PES_COLUMNS[0] and tuple(fields[:7]) == _PES_COLUMNS:
            continue
        if len(fields) != 7:
            raise HamiltonianParseError(
                f"expected 7 columns R,g0..g5, got {len(fields)}", lineno
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise HamiltonianParseError(f"non-numeric value in {stripped!r}", lineno) from None
        r, g = values[0], values[1:]
        rows.append((r, H2Coefficients(*g, r=r)))
    return rows
