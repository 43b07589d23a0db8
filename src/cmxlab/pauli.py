"""Exact group algebra of n-qubit Pauli strings and Hamiltonians as Pauli sums.

A string is stored in symplectic form: bit q of ``x_mask`` / ``z_mask`` marks
an X / Z component on qubit q, and a quartic phase exponent tracks the global
prefactor, so the operator value is

    i**phase_exponent * prod_q P(x_q, z_q)

with P(0,0)=I, P(1,0)=X, P(0,1)=Z and P(1,1)=Y.  The convention Y = i*X*Z is
used internally when multiplying; a string with phase_exponent = 0 is
Hermitian, unitary, and squares to the identity.

`PauliString` is the scalar API.  A `PauliSum` keeps its phaseless terms as
arrays instead: uint64 x and z masks and complex128 coefficients, so it is
limited to MAX_SUM_QUBITS = 64 qubits.  Its terms are always in ascending
(x_mask, z_mask) order, so a sum's arrays, and every product and moment
built from them, depend on its term set alone and not on the order the
terms were written in.  Sum products are one broadcast XOR over all term
pairs, and each collected coefficient is bit-identical to a scalar
`multiply` loop accumulating a dict.

Labels are read left to right as qubit 0..n-1, e.g. "XIZ" puts X on qubit 0.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import CapacityError, DimensionMismatchError, HamiltonianParseError

_BITS_FROM_CHAR = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_CHAR_FROM_BITS = {v: k for k, v in _BITS_FROM_CHAR.items()}
_PHASE_PREFIX = {0: "", 1: "i*", 2: "-", 3: "-i*"}

DEFAULT_PRUNE_THRESHOLD = 1e-12
MAX_SUM_QUBITS = 64
HERMITIAN_TOLERANCE = 1e-10


@dataclass(frozen=True, slots=True)
class PauliString:
    """A phased tensor product of single-qubit Pauli/identity operators."""

    n_qubits: int
    x_mask: int
    z_mask: int
    phase_exponent: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ValueError("mask exceeds the qubit count")
        if self.phase_exponent not in (0, 1, 2, 3):
            object.__setattr__(self, "phase_exponent", self.phase_exponent % 4)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str, phase_exponent: int = 0) -> "PauliString":
        """Build from a character label such as "XYIZ" (qubit 0 leftmost)."""
        x = z = 0
        for q, ch in enumerate(label):
            try:
                xq, zq = _BITS_FROM_CHAR[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli character {ch!r} in {label!r}") from None
            x |= xq << q
            z |= zq << q
        return cls(len(label), x, z, phase_exponent % 4)

    @property
    def label(self) -> str:
        """Character label of the phaseless part, qubit 0 leftmost."""
        return "".join(
            _CHAR_FROM_BITS[(self.x_mask >> q & 1, self.z_mask >> q & 1)]
            for q in range(self.n_qubits)
        )

    @property
    def is_phaseless(self) -> bool:
        return self.phase_exponent == 0

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exponent

    def phaseless(self) -> "PauliString":
        if self.phase_exponent == 0:
            return self
        return PauliString(self.n_qubits, self.x_mask, self.z_mask, 0)

    def commutes_with(self, other: "PauliString") -> bool:
        """Group commutation: a*b = +-b*a with sign given by the symplectic
        inner product of the masks."""
        _check_dims(self, other)
        sign = (self.x_mask & other.z_mask).bit_count() + (self.z_mask & other.x_mask).bit_count()
        return sign % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.phase_exponent] + self.label


def _check_dims(a: PauliString, b: PauliString) -> None:
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}"
        )


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact group product a*b as a single phased string.

    Writing each factor in X^x Z^z form costs a phase i per Y site; commuting
    the inner Z past X picks up (-1) per overlapping bit; converting back to
    the canonical Y representation refunds a phase i per Y site of the result.
    """
    _check_dims(a, b)
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    exponent = (
        a.phase_exponent
        + b.phase_exponent
        + (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
        - (x & z).bit_count()
    )
    return PauliString(a.n_qubits, x, z, exponent % 4)


def reduce_product(factors: Iterable[PauliString], n_qubits: int | None = None) -> PauliString:
    """Left-fold of `multiply`, reducing a product of strings to one string.

    An empty product is the identity; pass n_qubits to fix its size.
    """
    factors = list(factors)
    if not factors:
        if n_qubits is None:
            raise ValueError("empty product needs an explicit n_qubits")
        return PauliString.identity(n_qubits)
    out = factors[0]
    for f in factors[1:]:
        out = multiply(out, f)
    return out


# i**k for k = 0..3 exactly as Python evaluates 1j**k, split into parts
_PHASE_REAL = np.array([1.0, 0.0, -1.0, -0.0])
_PHASE_IMAG = np.array([0.0, 1.0, 0.0, -1.0])


def _complex_product(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai)(br + i bi), rounded as
    Python's complex `*` rounds them.  numpy's complex multiply may fuse the
    operations into FMA instructions and change the last bits."""
    return ar * br - ai * bi, ar * bi + ai * br


# A sum product is formed and collected in row blocks of at least this many
# string products, or of as many as the terms collected so far if that is
# more, so its transient arrays stay a small multiple of the result.
_MIN_BLOCK = 1 << 14


def _key_type(n_qubits: int) -> np.dtype:
    """Smallest unsigned dtype that holds an n-qubit mask.  Narrow keys make
    products cheaper, and 8- or 16-bit keys get numpy's radix sort."""
    return np.min_scalar_type((1 << n_qubits) - 1)


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


def _collect(x, z, real, imag):
    """Merge repeated (x, z) keys into one term each, in ascending (x, z)
    order.

    Each coefficient is summed from 0.0 in occurrence order, so the result
    is bit-identical to adding the terms one by one into a dict and sorting
    its keys.  Nothing is pruned, so collecting a collected prefix together
    with further terms continues the same sums.
    """
    first, group = group_keys(x, z)
    return (
        x[first],
        z[first],
        np.bincount(group, real, len(first)),
        np.bincount(group, imag, len(first)),
    )


class PauliSum:
    """A Hamiltonian H = sum_j h_j P_j over phaseless strings, on at most
    MAX_SUM_QUBITS qubits.

    The terms live in three aligned read-only arrays: uint64 ``x`` and ``z``
    masks and complex128 ``coeff``.  Phases on input strings are folded into
    the coefficients, repeated keys are merged, the terms are kept in
    ascending (x, z) order, and coefficients with magnitude below
    DEFAULT_PRUNE_THRESHOLD are dropped.  Coefficients must be finite.
    `PauliString` objects are built only at the edges, by `items()` and
    `sorted_items()`.  Instances are immutable; arithmetic returns new sums.
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
            cs.append(complex(c) * p.phase)
        key = _key_type(n_qubits)
        coeff = np.array(cs, dtype=complex)
        if not np.isfinite(coeff).all():
            raise ValueError("coefficients must be finite")
        self._assign(
            n_qubits,
            *_collect(np.array(xs, dtype=key), np.array(zs, dtype=key), coeff.real, coeff.imag),
        )

    def _assign(self, n_qubits, x, z, real, imag) -> None:
        """Store collected terms, dropping those below DEFAULT_PRUNE_THRESHOLD."""
        self.n_qubits = n_qubits
        # np.hypot rounds like Python's abs(complex); np.abs on complex does not
        keep = np.hypot(real, imag) >= DEFAULT_PRUNE_THRESHOLD
        self.x = x[keep].astype(np.uint64)
        self.z = z[keep].astype(np.uint64)
        self.coeff = np.empty(len(self.x), dtype=complex)
        self.coeff.real, self.coeff.imag = real[keep], imag[keep]
        for array in (self.x, self.z, self.coeff):
            array.setflags(write=False)

    def _derived(self, x, z, real, imag) -> "PauliSum":
        """A sum on the same qubits from collected terms."""
        out = PauliSum.__new__(PauliSum)
        out._assign(self.n_qubits, x, z, real, imag)
        return out

    def _keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and z masks in the narrowest dtype that holds them."""
        key = _key_type(self.n_qubits)
        return self.x.astype(key, copy=False), self.z.astype(key, copy=False)

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

    def items(self) -> Iterator[tuple[PauliString, complex]]:
        """(string, coefficient) pairs in ascending (x, z) order, strings
        built lazily."""
        n = self.n_qubits
        for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.coeff.tolist()):
            yield PauliString(n, x, z), c

    def sorted_items(self) -> list[tuple[PauliString, complex]]:
        return sorted(self.items(), key=lambda kv: kv[0].label)

    def _index(self, p: PauliString) -> int | None:
        if p.n_qubits != self.n_qubits:
            return None
        hits = np.flatnonzero((self.x == p.x_mask) & (self.z == p.z_mask))
        return int(hits[0]) if len(hits) else None

    def coefficient(self, p: PauliString) -> complex:
        i = self._index(p)
        c = 0.0 if i is None else self.coeff[i].item()
        if p.phase_exponent and c:
            c = c * (-1j) ** p.phase_exponent
        return c

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

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise DimensionMismatchError("cannot add sums on different qubit counts")
        (ax, az), (bx, bz) = self._keys(), other._keys()
        return self._derived(*_collect(
            np.concatenate([ax, bx]),
            np.concatenate([az, bz]),
            np.concatenate([self.coeff.real, other.coeff.real]),
            np.concatenate([self.coeff.imag, other.coeff.imag]),
        ))

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex) -> "PauliSum":
        factor = complex(factor)
        real, imag = _complex_product(
            self.coeff.real, self.coeff.imag, factor.real, factor.imag
        )
        return self._derived(*_collect(*self._keys(), real, imag))

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product with term collection.

        The string products of a block of A's terms with all of B's come
        from one broadcast XOR of the masks, with the phase of each (see
        `multiply`) counted mod 4 in uint8 arithmetic.  Each block is
        collected together with the terms collected so far, which continues
        the same running sums, so each coefficient is bit for bit that of a
        row-major double loop over A then B accumulating a dict.  Both
        factors are in canonical order, so the product depends only on
        their term sets.  It holds at most min(|A|*|B|, 4**n) terms, which
        keeps high Hamiltonian powers affordable.
        """
        if self.n_qubits != other.n_qubits:
            raise DimensionMismatchError("cannot multiply sums on different qubit counts")
        (ax, az), (bx, bz) = self._keys(), other._keys()
        ay, by = np.bitwise_count(ax & az), np.bitwise_count(bx & bz)
        ar, ai = self.coeff.real[:, None], self.coeff.imag[:, None]
        br, bi = other.coeff.real, other.coeff.imag
        x, z, real, imag = ax[:0], az[:0], ar[:0, 0], ai[:0, 0]
        start = 0
        while start < len(ax):
            rows = slice(start, start + max(_MIN_BLOCK, len(x)) // max(1, len(bx)) + 1)
            px = (ax[rows, None] ^ bx).ravel()
            pz = (az[rows, None] ^ bz).ravel()
            phase = (ay[rows, None] + by + 2 * np.bitwise_count(az[rows, None] & bx)).ravel()
            phase -= np.bitwise_count(px & pz)
            phase &= 3
            pr, pi = _complex_product(ar[rows], ai[rows], br, bi)
            pr, pi = _complex_product(
                pr.ravel(), pi.ravel(), _PHASE_REAL[phase], _PHASE_IMAG[phase]
            )
            x, z, real, imag = _collect(
                np.concatenate([x, px]),
                np.concatenate([z, pz]),
                np.concatenate([real, pr]),
                np.concatenate([imag, pi]),
            )
            start = rows.stop
        return self._derived(x, z, real, imag)

    def is_hermitian(self) -> bool:
        """True when every canonical coefficient is real within
        HERMITIAN_TOLERANCE (relative to max(1, largest |coefficient|))."""
        if not len(self):
            return True
        scale = float(np.hypot(self.coeff.real, self.coeff.imag).max())
        return bool(np.all(np.abs(self.coeff.imag) <= HERMITIAN_TOLERANCE * max(1.0, scale)))

    def coefficient_norm(self) -> float:
        """Sum of |h_j|; an upper bound on the operator norm."""
        return sum(np.hypot(self.coeff.real, self.coeff.imag).tolist())

    def __repr__(self) -> str:
        return f"PauliSum(n_qubits={self.n_qubits}, terms={len(self)})"


_HEADER_RE = re.compile(r"^\s*([A-Za-z_][\w.-]*)\s*=\s*(.*?)\s*$")
_LABEL_RE = re.compile(r"^[IXYZ]+$")


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the Hamiltonian text format.

    Term lines are ``<real> [<imag>] <label>``; ``#`` starts a comment.
    Optional ``key = value`` header lines may precede the terms; an
    ``n_qubits`` header fixes the size (required when there are no terms).
    Repeated labels are summed.
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
        if c.imag == 0.0:
            lines.append(f"{_fmt(c.real)} {p.label}")
        else:
            lines.append(f"{_fmt(c.real)} {_fmt(c.imag)} {p.label}")
    return "\n".join(lines) + "\n"
