"""Exact algebra of n-qubit Pauli strings and Hamiltonians as Pauli sums.

A string is a Hermitian label in symplectic form: bit q of ``x_mask`` /
``z_mask`` marks an X / Z component on qubit q, with P(0,0)=I, P(1,0)=X,
P(0,1)=Z and P(1,1)=Y, so every string is Hermitian, unitary and squares to
the identity.  A string carries no phase: the product of two commuting
strings is a string times a sign +-1 (from Y = i*X*Z), which is folded into
the real coefficient of its term.

`PauliString` is the scalar API, used for parsing, labels and lookups.  A
`PauliSum` keeps its terms as arrays instead: x and z masks and float64
coefficients.  The width rule: the masks of an n-qubit sum have the
narrowest unsigned dtype that holds n bits (see `_key_type`), uint8 up to 8
qubits, uint16 up to 16, uint32 up to 32 and uint64 up to MAX_SUM_QUBITS =
64, the limit of a sum.  Every array of masks built from a sum (its
products, the strings a moment table measures, the sampled strings of a
noisy table) keeps that width.  A sum is Hermitian from the moment it is
built: complex coefficients are accepted only when their imaginary parts
are rounding-sized, and only the real parts are kept.  Its terms are
always in ascending (x_mask, z_mask) order, so a sum's arrays, and every
product and moment built from them, depend on its term set alone and not
on the order the terms were written in, and `find_string` finds a string
in them by binary search.  The one product of sums,
`PauliSum.symmetric_product`, builds Hamiltonian powers: it keeps the
commuting string pairs, whose products have real signs, and forms masks,
signs and coefficients for those pairs alone, each collected coefficient
bit-identical to a scalar string-product loop accumulating a dict.  Given a
table of the x-masks a caller can see, it forms only the products that land
on them, with the same bits.

Labels are read left to right as qubit 0..n-1, e.g. "XIZ" puts X on qubit 0.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    CapacityError,
    ContractViolationError,
    DimensionMismatchError,
    HamiltonianParseError,
)

_BITS_FROM_CHAR = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_CHAR_FROM_BITS = {v: k for k, v in _BITS_FROM_CHAR.items()}

DEFAULT_PRUNE_THRESHOLD = 1e-12
MAX_SUM_QUBITS = 64
HERMITIAN_TOLERANCE = 1e-10


@dataclass(frozen=True, slots=True)
class PauliString:
    """A tensor product of single-qubit Pauli/identity operators: a
    Hermitian label with no phase."""

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ValueError("mask exceeds the qubit count")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a character label such as "XYIZ" (qubit 0 leftmost)."""
        x = z = 0
        for q, ch in enumerate(label):
            try:
                xq, zq = _BITS_FROM_CHAR[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli character {ch!r} in {label!r}") from None
            x |= xq << q
            z |= zq << q
        return cls(len(label), x, z)

    @property
    def label(self) -> str:
        """Character label, qubit 0 leftmost."""
        return "".join(
            _CHAR_FROM_BITS[(self.x_mask >> q & 1, self.z_mask >> q & 1)]
            for q in range(self.n_qubits)
        )

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0


# A sum product is formed and collected in row blocks of about
# 2 * max(_MIN_BLOCK, terms collected so far) string pairs.  About half of
# the pairs commute and are kept, so each block adds about as many products
# as it has collected, and its transient arrays stay a small multiple of the
# result.  The block's pair indices, overlap counts and phases are dropped
# before it is collected: kept alive beside the collect's sort, they raise
# the peak RSS (by about 5% on a 10-qubit, 60-term H to the fourth power).
_MIN_BLOCK = 1 << 14


def _key_type(n_qubits: int) -> np.dtype:
    """The mask dtype of an n-qubit sum: the smallest unsigned dtype that
    holds n bits.  Narrow keys make products cheaper, and 8- or 16-bit keys
    get numpy's radix sort when terms are grouped."""
    return np.min_scalar_type((1 << n_qubits) - 1)


def find_string(x, z, x_mask: int, z_mask: int) -> int | None:
    """Position of the string (x_mask, z_mask) in mask arrays held in
    ascending (x, z) order, or None when it is absent.  The masks must fit
    the arrays' dtype.  Two binary searches find the run of x_mask in x, and
    a third finds z_mask within that run of z.  The needles are cast to the
    arrays' scalar type first: numpy resolves a Python-int needle's type on
    every call, which costs several times the search."""
    x_mask, z_mask = x.dtype.type(x_mask), z.dtype.type(z_mask)
    lo = x.searchsorted(x_mask)
    hi = x.searchsorted(x_mask, "right")
    i = lo + z[lo:hi].searchsorted(z_mask)
    return int(i) if i < hi and z[i] == z_mask else None


def group_keys(x, z) -> tuple[np.ndarray, np.ndarray]:
    """Group equal (x, z) keys in ascending (x, z) order.

    Returns ``first``, the index of one occurrence of each distinct key in
    ascending key order, and ``group``, which maps every key to its
    distinct key's position in ``first``.
    """
    count = len(x)
    if not count:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    order = np.lexsort((z, x))
    xs, zs = x[order], z[order]
    starts = np.empty(count, dtype=bool)
    starts[0] = True
    np.not_equal(xs[1:], xs[:-1], out=starts[1:])
    starts[1:] |= zs[1:] != zs[:-1]
    del xs, zs
    ids = np.cumsum(starts, dtype=np.intp)
    ids -= 1
    group = np.empty(count, dtype=np.intp)
    group[order] = ids
    return order[starts], group


def _collect(x, z, *parts):
    """Merge repeated (x, z) keys into one term each, in ascending (x, z)
    order, summing each array of coefficient parts.

    Each part is summed from 0.0 in occurrence order, so the result is
    bit-identical to adding the terms one by one into a dict and sorting
    its keys.  Nothing is pruned, so collecting a collected prefix together
    with further terms continues the same sums.
    """
    first, group = group_keys(x, z)
    return x[first], z[first], *(np.bincount(group, p, len(first)) for p in parts)


class PauliSum:
    """A Hamiltonian H = sum_j h_j P_j over Pauli strings, on at most
    MAX_SUM_QUBITS qubits.

    The terms live in three aligned read-only arrays: ``x`` and ``z`` masks
    of dtype `_key_type(n_qubits)` (the module's width rule) and float64
    ``coeff``.  Repeated keys are merged, the terms are kept in ascending
    (x, z) order, and coefficients with magnitude below
    DEFAULT_PRUNE_THRESHOLD are dropped.  Coefficients must be finite, and
    the merged ones Hermitian: each |Im c| at most HERMITIAN_TOLERANCE *
    max(1, largest |c|), else ContractViolationError names the first
    offending label.  ``coeff`` keeps the real parts.
    `PauliString` objects are built only at the edges, by `items()` and
    `sorted_items()`.  Instances are immutable; `symmetric_product` returns
    a new sum.
    """

    __slots__ = ("n_qubits", "x", "z", "coeff")

    def __init__(
        self,
        n_qubits: int,
        terms: Mapping[PauliString, complex] | Iterable[tuple[PauliString, complex]] = (),
    ):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        if n_qubits > MAX_SUM_QUBITS:
            raise CapacityError(
                f"{n_qubits} qubits exceeds the {MAX_SUM_QUBITS}-qubit mask width of a PauliSum"
            )
        xs, zs, cs = [], [], []
        items = terms.items() if isinstance(terms, Mapping) else terms
        for p, c in items:
            if p.n_qubits != n_qubits:
                raise DimensionMismatchError(
                    f"term acts on {p.n_qubits} qubits, sum on {n_qubits}"
                )
            xs.append(p.x_mask)
            zs.append(p.z_mask)
            cs.append(complex(c))
        key = _key_type(n_qubits)
        coeff = np.array(cs, dtype=complex)
        if not np.isfinite(coeff).all():
            raise ValueError("coefficients must be finite")
        x, z, real, imag = _collect(
            np.array(xs, dtype=key), np.array(zs, dtype=key), coeff.real, coeff.imag
        )
        scale = float(np.hypot(real, imag).max(initial=0.0))
        skew = np.flatnonzero(np.abs(imag) > HERMITIAN_TOLERANCE * max(1.0, scale))
        if len(skew):
            label = PauliString(n_qubits, int(x[skew[0]]), int(z[skew[0]])).label
            raise ContractViolationError(
                f"not Hermitian: term {label} has imaginary part {imag[skew[0]]:g}"
            )
        self._assign(n_qubits, x, z, real)

    def _assign(self, n_qubits, x, z, coeff) -> None:
        """Store collected terms, dropping those below DEFAULT_PRUNE_THRESHOLD.
        ``coeff`` is cast to float64, which an empty `np.bincount` is not."""
        self.n_qubits = n_qubits
        keep = np.abs(coeff) >= DEFAULT_PRUNE_THRESHOLD
        self.x = x[keep]
        self.z = z[keep]
        self.coeff = coeff[keep].astype(np.float64, copy=False)
        for array in (self.x, self.z, self.coeff):
            array.setflags(write=False)

    @classmethod
    def from_label_terms(
        cls,
        coeff_labels: Iterable[tuple[complex, str]],
        n_qubits: int | None = None,
    ) -> "PauliSum":
        pairs = []
        for c, label in coeff_labels:
            p = PauliString.from_label(label)
            if n_qubits is None:
                n_qubits = p.n_qubits
            pairs.append((p, c))
        if n_qubits is None:
            raise ValueError("empty term list needs an explicit n_qubits")
        return cls(n_qubits, pairs)

    def items(self) -> Iterator[tuple[PauliString, float]]:
        """(string, coefficient) pairs in ascending (x, z) order, strings
        built lazily."""
        n = self.n_qubits
        for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.coeff.tolist()):
            yield PauliString(n, x, z), c

    def sorted_items(self) -> list[tuple[PauliString, float]]:
        return sorted(self.items(), key=lambda kv: kv[0].label)

    def _index(self, p: PauliString) -> int | None:
        if p.n_qubits != self.n_qubits:
            return None
        return find_string(self.x, self.z, p.x_mask, p.z_mask)

    def __len__(self) -> int:
        return len(self.coeff)

    def __contains__(self, p: PauliString) -> bool:
        return self._index(p) is not None

    def __eq__(self, other) -> bool:
        """Same qubit count and the same terms; the canonical order makes
        equal term sets equal arrays."""
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n_qubits != other.n_qubits or len(self) != len(other):
            return False
        return bool(
            np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.coeff, other.coeff)
        )

    def symmetric_product(self, other: "PauliSum", seen: np.ndarray | None = None) -> "PauliSum":
        """The symmetric product (AB + BA) / 2 of two sums, or only its
        terms whose x-mask a bool table `seen` marks True.

        Anticommuting string pairs cancel in it and commuting pairs P, Q
        give PQ = QP = +-R, so only pairs whose commutation parity
        |x_P & z_Q| + |z_P & x_Q| is even contribute, each with a real
        coefficient.  The sign of each comes from the phase i**k of PQ, from
        Y = i*X*Z, counted mod 4 in uint8 arithmetic: a phase i per Y site
        of either factor, (-1) per overlap of P's Z with Q's X, and i**-1
        per Y site of R, which leaves k = 0 or 2.  For a block of A's terms
        against all of B's, the parity is taken over the whole grid of
        pairs; its even entries, in row-major order, give the row and
        column index of each kept pair, and the product masks, phases and
        coefficients are gathered for those pairs alone.  Each block is
        collected together with the terms collected so far, which
        continues the same running sums.  So each
        coefficient is bit for bit that of a row-major double loop over A
        then B accumulating a dict, and depends only on the two term sets.
        Since H^(l-1) commutes with H, H^(l-1).symmetric_product(H) is H^l.

        `seen`, when given, is read-only and indexed by x-mask (length
        2**n_qubits): a pair is then kept only if it commutes and its
        product's x-mask is seen, one more mask on each block's grid.  The
        blocks, collect and prune are those above, so the result is the
        full product's terms with a seen x-mask, in the same order, each
        coefficient bit for bit the full product's.
        """
        if self.n_qubits != other.n_qubits:
            raise DimensionMismatchError("cannot multiply sums on different qubit counts")
        ax, az, bx, bz = self.x, self.z, other.x, other.z
        ay, by = np.bitwise_count(ax & az), np.bitwise_count(bx & bz)
        x, z, coeff = ax[:0], az[:0], other.coeff[:0]
        start = 0
        while start < len(ax):
            rows = slice(start, start + 2 * max(_MIN_BLOCK, len(x)) // max(1, len(bx)) + 1)
            zx = np.bitwise_count(az[rows, None] & bx).ravel()
            keep = ((zx + np.bitwise_count(ax[rows, None] & bz).ravel()) & 1) == 0
            if seen is not None:
                keep &= seen.take((ax[rows, None] ^ bx).ravel())
            idx = np.flatnonzero(keep)
            del keep
            i, j = np.divmod(idx, len(bx))
            i += start
            px, pz = ax[i] ^ bx[j], az[i] ^ bz[j]
            phase = ay[i] + by[j] + 2 * zx[idx] - np.bitwise_count(px & pz)
            pc = self.coeff[i] * other.coeff[j]
            np.negative(pc, out=pc, where=(phase & 2).astype(bool))
            del idx, i, j, zx, phase
            x, z, coeff = _collect(
                np.concatenate([x, px]), np.concatenate([z, pz]), np.concatenate([coeff, pc])
            )
            start = rows.stop
        out = PauliSum.__new__(PauliSum)
        out._assign(self.n_qubits, x, z, coeff)
        return out

    def __repr__(self) -> str:
        return f"PauliSum(n_qubits={self.n_qubits}, terms={len(self)})"


_HEADER_RE = re.compile(r"^\s*([A-Za-z_][\w.-]*)\s*=\s*(.*?)\s*$")
_LABEL_RE = re.compile(r"^[IXYZ]+$")


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the Hamiltonian text format.

    Term lines are ``<real> [<imag>] <label>``; ``#`` starts a comment.
    Optional ``key = value`` header lines may precede the terms; an
    ``n_qubits`` header fixes the size (required when there are no terms).
    Repeated labels are summed, and the summed imaginary parts must stay
    within `PauliSum`'s Hermitian tolerance.
    """
    n_qubits: int | None = None
    pairs: list[tuple[PauliString, complex]] = []
    in_header = True
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if in_header:
            m = _HEADER_RE.match(line)
            if m:
                key, value = m.group(1), m.group(2)
                if key == "n_qubits":
                    try:
                        n_qubits = int(value)
                    except ValueError:
                        raise HamiltonianParseError(
                            f"n_qubits must be an integer, got {value!r}", lineno
                        ) from None
                    if n_qubits < 1:
                        raise HamiltonianParseError("n_qubits must be positive", lineno)
                continue
            in_header = False
        fields = line.split()
        if len(fields) == 2:
            re_str, im_str, label = fields[0], "0", fields[1]
        elif len(fields) == 3:
            re_str, im_str, label = fields
        else:
            raise HamiltonianParseError(
                f"expected '<real> [<imag>] <label>', got {line!r}", lineno
            )
        if not _LABEL_RE.match(label):
            raise HamiltonianParseError(f"invalid Pauli label {label!r}", lineno)
        if n_qubits is None:
            n_qubits = len(label)
        if len(label) != n_qubits:
            raise HamiltonianParseError(
                f"label {label!r} has length {len(label)}, expected {n_qubits}", lineno
            )
        try:
            coeff = complex(float(re_str), float(im_str))
        except ValueError:
            raise HamiltonianParseError(f"bad coefficient in {line!r}", lineno) from None
        if not cmath.isfinite(coeff):
            raise HamiltonianParseError(f"non-finite coefficient in {line!r}", lineno)
        pairs.append((PauliString.from_label(label), coeff))
    if n_qubits is None:
        raise HamiltonianParseError("no terms and no n_qubits header")
    return PauliSum(n_qubits, pairs)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def serialize_pauli_sum(h: PauliSum, metadata: Mapping[str, str] | None = None) -> str:
    """Canonical text form: n_qubits header, optional metadata lines, then
    one term per line sorted by label, floats at 17 significant digits."""
    lines = [f"n_qubits = {h.n_qubits}"]
    for key, value in (metadata or {}).items():
        if key == "n_qubits":
            continue
        lines.append(f"{key} = {value}")
    for p, c in h.sorted_items():
        lines.append(f"{_fmt(c)} {p.label}")
    return "\n".join(lines) + "\n"
