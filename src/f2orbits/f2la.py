"""Linear and quadratic algebra over F2 on int-backed bit vectors.

Vectors live in F2^dim and are packed into Python ints, bit i holding
coordinate i.  Alternating bilinear forms are stored row-wise, quadratic
functions as (form, basis values), and everything downstream (kernels,
symplectic bases, Arf invariants, transvections) is exact integer
arithmetic.  All values are immutable after construction.

This is the package's one linear-algebra layer.  Its single echelon
convention is the reduced basis with each pivot at a vector's highest
bit, in ascending pivot order (_echelon); rank, coset minima (_reduce),
null spaces, particular solutions of parity equations (_solve) and span
enumeration are built on it.  Linear maps are given by masks: _evaluate
reads bit l as parity(x & rows[l]), and its transpose _combine sums the
columns picked by the bits of x, on ints and, through byte lookup
tables, on uint32 arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

BRUTE_DIM_LIMIT = 30


def _parity(x: int) -> int:
    return x.bit_count() & 1


@dataclass(frozen=True)
class F2Vector:
    """A vector in F2^dim, coordinates packed into ``bits`` (bit i = x_i)."""

    dim: int
    bits: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {self.dim}")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"bits 0x{self.bits:x} out of range for dim {self.dim}")

    @classmethod
    def zeros(cls, dim: int) -> "F2Vector":
        return cls(dim, 0)

    @classmethod
    def from_support(cls, dim: int, support) -> "F2Vector":
        bits = 0
        for i in support:
            if not 0 <= i < dim:
                raise ValueError(f"index {i} out of range for dim {dim}")
            bits |= 1 << i
        return cls(dim, bits)

    @classmethod
    def from_string(cls, s: str) -> "F2Vector":
        """Parse '0'/'1' characters, leftmost character = coordinate 0."""
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"bad bit character {ch!r}")
        return cls(len(s), bits)

    def to_string(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.dim))

    def bit(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(f"index {i} out of range for dim {self.dim}")
        return self.bits >> i & 1

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.dim) if self.bits >> i & 1)

    def weight(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: "F2Vector") -> "F2Vector":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return F2Vector(self.dim, self.bits ^ other.bits)

    # addition over F2 is XOR
    __add__ = __xor__

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return f"F2Vector({self.to_string()!r})"


@dataclass(frozen=True)
class BilinearForm:
    """An alternating bilinear form on F2^dim.

    ``rows[i]`` is the bit mask of <e_i, .>, i.e. bit j of rows[i] equals
    <e_i, e_j>.  Alternating over F2 forces a symmetric matrix with zero
    diagonal, which is checked at construction.
    """

    dim: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.dim:
            raise ValueError(f"expected {self.dim} rows, got {len(self.rows)}")
        for i, r in enumerate(self.rows):
            if not 0 <= r < (1 << self.dim):
                raise ValueError(f"row {i} out of range")
            if r >> i & 1:
                raise ValueError(f"nonzero diagonal at {i}; form must be alternating")
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError(f"form matrix not symmetric at ({i}, {j})")

    @classmethod
    def zero(cls, dim: int) -> "BilinearForm":
        return cls(dim, (0,) * dim)

    @classmethod
    def from_edges(cls, dim: int, edges) -> "BilinearForm":
        """Form with <e_u, e_v> = 1 exactly for the given vertex pairs."""
        rows = [0] * dim
        for u, v in edges:
            if u == v or not (0 <= u < dim and 0 <= v < dim):
                raise ValueError(f"bad edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(dim, tuple(rows))

    def row(self, i: int) -> F2Vector:
        return F2Vector(self.dim, self.rows[i])

    def pairing_mask(self, x_bits: int) -> int:
        """Bit mask of the functional <x, .> for a packed vector x."""
        return _combine(x_bits, self.rows)


def form_eval(f: BilinearForm, x: F2Vector, y: F2Vector) -> int:
    """Evaluate <x, y>."""
    if x.dim != f.dim or y.dim != f.dim:
        raise ValueError(f"dimension mismatch: form {f.dim}, x {x.dim}, y {y.dim}")
    return _parity(f.pairing_mask(x.bits) & y.bits)


def transvect(f: BilinearForm, delta: F2Vector, x: F2Vector) -> F2Vector:
    """Apply the symplectic transvection along delta: x -> x + <x, delta> delta."""
    if delta.dim != f.dim or x.dim != f.dim:
        raise ValueError(f"dimension mismatch: form {f.dim}, delta {delta.dim}, x {x.dim}")
    if _parity(f.pairing_mask(x.bits) & delta.bits):
        return F2Vector(f.dim, x.bits ^ delta.bits)
    return x


def _echelon(vectors) -> list[int]:
    """Reduced echelon basis of span(vectors), in ascending pivot order.

    Each basis vector has its pivot at its highest set bit, and no other
    basis vector has that bit set.  The basis is unique to the span, and
    z -> _combine(z, basis) is strictly increasing, so coordinates in it
    keep the order of the vectors.
    """
    by_pivot: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            if p not in by_pivot:
                by_pivot[p] = v
                break
            v ^= by_pivot[p]
    pivots = sorted(by_pivot)
    for p in reversed(pivots):
        for q in pivots:
            if q > p and by_pivot[q] >> p & 1:
                by_pivot[q] ^= by_pivot[p]
    return [by_pivot[p] for p in pivots]


def _rank(rows, dim) -> int:
    """Rank of the rows, vectors of F2^dim."""
    return len(_echelon(rows))


def _reduce(x: int, basis) -> int:
    """Clear x at the pivots of a reduced echelon basis: the least
    element of the coset x + span(basis)."""
    for b in basis:
        if x >> (b.bit_length() - 1) & 1:
            x ^= b
    return x


def _nullspace(rows, dim) -> list[int]:
    """Reduced echelon basis of {x in F2^dim : parity(x & row) = 0 for
    every row}.

    Each free column c of the rows' echelon form gives the solution with
    bit c set, zero at the other free columns, and bit p set wherever the
    row with pivot p has bit c.
    """
    basis = _echelon(rows)
    pivots = {b.bit_length() - 1 for b in basis}
    free = []
    for c in range(dim):
        if c not in pivots:
            free.append(sum(1 << (b.bit_length() - 1) for b in basis if b >> c & 1) | 1 << c)
    return _echelon(free)


def _solve(rows, values: int) -> int:
    """A state x with parity(x & rows[l]) = bit l of values for every l.

    The echelon of row << t | 1 << l (t rows) keeps in its low bits which
    rows make up each reduced row; x is the sum of the pivots of the
    reduced rows whose makeup has odd parity against values.
    """
    t = len(rows)
    tagged = _echelon([row << t | 1 << l for l, row in enumerate(rows)])
    if any(v >> t == 0 for v in tagged):
        raise ValueError("rows are linearly dependent")
    x = 0
    for v in tagged:
        if _parity(v & values & ((1 << t) - 1)):
            x |= 1 << (v.bit_length() - 1 - t)
    return x


def _span_points(basis) -> list[int]:
    """Every combination of the basis; bit s of the index selects basis[s]."""
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out


def _evaluate(x: int, rows) -> int:
    """The linear map with the given rows: bit l is parity(x & rows[l])."""
    out = 0
    for l, row in enumerate(rows):
        out |= ((x & row).bit_count() & 1) << l
    return out


def _combine(x: int, cols) -> int:
    """The linear map with the given columns: the sum of cols[s] over the
    set bits s of x.  The transpose of _evaluate with the same masks."""
    out = 0
    while x:
        low = x & -x
        out ^= cols[low.bit_length() - 1]
        x ^= low
    return out


def _byte_tables(cols) -> list[np.ndarray]:
    """_combine on uint32 arrays, prepared: one lookup table of the
    column sums per input byte."""
    return [np.array(_span_points(cols[start:start + 8]), dtype=np.uint32)
            for start in range(0, len(cols), 8)]


def _apply_tables(tables, values: np.ndarray) -> np.ndarray:
    """_combine of every entry of a uint32 array, through _byte_tables."""
    out = np.zeros(values.size, dtype=np.uint32)
    for j, table in enumerate(tables):
        out ^= table[(values >> (8 * j)) & 0xFF]
    return out


def kernel_basis(f: BilinearForm) -> list[F2Vector]:
    """Echelonized basis of the radical {x : <x, y> = 0 for all y}."""
    # the matrix is symmetric, so the left and right null spaces agree
    return [F2Vector(f.dim, b) for b in _nullspace(f.rows, f.dim)]


@dataclass(frozen=True)
class QuadraticSpace:
    """A quadratic function q refining an alternating form.

    q is determined by its values on the standard basis (bit i of
    ``basis_values``) together with q(x+y) = q(x) + q(y) + <x, y>.
    """

    form: BilinearForm
    basis_values: int

    def __post_init__(self) -> None:
        if not 0 <= self.basis_values < (1 << self.form.dim):
            raise ValueError("basis_values out of range")

    @classmethod
    def with_all_ones(cls, form: BilinearForm) -> "QuadraticSpace":
        """The quadratic function taking value 1 on every basis vector."""
        return cls(form, (1 << form.dim) - 1)

    @property
    def dim(self) -> int:
        return self.form.dim

    @cached_property
    def kernel(self) -> tuple[F2Vector, ...]:
        return tuple(kernel_basis(self.form))

    @property
    def kappa(self) -> int:
        return len(self.kernel)

    @property
    def m(self) -> int:
        rank = self.dim - self.kappa
        if rank & 1:
            raise ValueError("alternating form has odd rank; this cannot happen over F2")
        return rank // 2

    def q_bits(self, x_bits: int) -> int:
        """q on a packed vector; internal fast path for q_eval."""
        mixed = 0
        rest = x_bits
        while rest:
            low = rest & -rest
            mixed += (self.form.rows[low.bit_length() - 1] & x_bits).bit_count()
            rest ^= low
        # mixed double-counts each interacting pair inside the support
        return ((self.basis_values & x_bits).bit_count() + (mixed >> 1)) & 1


def q_eval(s: QuadraticSpace, x: F2Vector) -> int:
    """Evaluate q(x) by polarization over the support of x."""
    if x.dim != s.dim:
        raise ValueError(f"dimension mismatch: space {s.dim}, x {x.dim}")
    return s.q_bits(x.bits)


@dataclass(frozen=True)
class SymplecticBasis:
    """Hyperbolic pairs (e_i, f_i) plus a basis of the radical."""

    dim: int
    pairs: tuple[tuple[F2Vector, F2Vector], ...]
    kernel: tuple[F2Vector, ...]


def symplectic_reduce(s: QuadraticSpace, pivot: str = "low") -> SymplecticBasis:
    """Extract a symplectic basis for the form of ``s``.

    ``pivot`` selects the deterministic pairing order ("low" scans vectors
    from index 0 upward, "high" from the top down); any choice yields a
    valid basis, which is what makes Arf basis-independence testable.
    """
    if pivot not in ("low", "high"):
        raise ValueError(f"unknown pivot order {pivot!r}")
    f = s.form
    order = range(f.dim) if pivot == "low" else range(f.dim - 1, -1, -1)
    vecs = [1 << i for i in order]
    pairs = []
    while True:
        hit = None
        for a in range(len(vecs)):
            mask = f.pairing_mask(vecs[a])
            b = next((b for b in range(len(vecs)) if _parity(mask & vecs[b])), None)
            if b is not None:
                hit = (a, b)
                break
        if hit is None:
            break
        a, b = hit
        e, fv = vecs[a], vecs[b]
        rest = [v for k, v in enumerate(vecs) if k not in (a, b)]
        e_mask, f_mask = f.pairing_mask(e), f.pairing_mask(fv)
        vecs = [v ^ (e if _parity(f_mask & v) else 0) ^ (fv if _parity(e_mask & v) else 0)
                for v in rest]
        pairs.append((F2Vector(f.dim, e), F2Vector(f.dim, fv)))
    # leftovers pair to zero with everything, i.e. they span the radical
    kernel = tuple(F2Vector(f.dim, v) for v in vecs)
    if len(kernel) != s.kappa:
        raise AssertionError("symplectic reduction lost track of the radical")
    return SymplecticBasis(f.dim, tuple(pairs), kernel)


class ArfClass(enum.Enum):
    ARF0 = "Arf0"
    ARF1 = "Arf1"
    KERNEL_NONZERO = "KernelNonzero"


def arf(s: QuadraticSpace) -> ArfClass:
    """Classify q: its Arf invariant when q kills the radical, else KERNEL_NONZERO.

    q is linear on the radical, so vanishing on a kernel basis is enough.
    The Arf sum over any symplectic basis is basis-independent.
    """
    if any(s.q_bits(g.bits) for g in s.kernel):
        return ArfClass.KERNEL_NONZERO
    sb = symplectic_reduce(s)
    total = 0
    for e, fv in sb.pairs:
        total ^= s.q_bits(e.bits) & s.q_bits(fv.bits)
    return ArfClass.ARF1 if total else ArfClass.ARF0


def value_counts_closed(s: QuadraticSpace) -> tuple[int, int]:
    """(|q^-1(0)|, |q^-1(1)|) from the closed formulas in m and kappa."""
    t = 1 << (2 * s.m + s.kappa)
    u = 1 << (s.m + s.kappa)
    cls = arf(s)
    if cls is ArfClass.KERNEL_NONZERO:
        return (t // 2, t // 2)
    if cls is ArfClass.ARF1:
        return ((t - u) // 2, (t + u) // 2)
    return ((t + u) // 2, (t - u) // 2)


def _parity_u32(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr) & np.uint8(1)


def value_counts_brute(s: QuadraticSpace) -> tuple[int, int]:
    """(|q^-1(0)|, |q^-1(1)|) by evaluating q on every vector.

    Values are filled in by doubling over coordinates with the polarization
    identity, so this stays independent of the symplectic-reduction path it
    is used to check.
    """
    d = s.dim
    if d > BRUTE_DIM_LIMIT:
        raise ValueError(f"dim {d} exceeds brute-force limit {BRUTE_DIM_LIMIT}")
    low = min(d, 24)
    q = np.zeros(1, dtype=np.uint8)
    for t in range(low):
        x = np.arange(1 << t, dtype=np.uint32)
        cross = _parity_u32(x & np.uint32(s.form.rows[t] & ((1 << t) - 1)))
        q = np.concatenate([q, q ^ cross ^ np.uint8(s.basis_values >> t & 1)])
    if d == low:
        ones = int(np.count_nonzero(q))
        return ((1 << d) - ones, ones)
    low_mask = (1 << low) - 1
    x_low = np.arange(1 << low, dtype=np.uint32)
    ones = 0
    for h in range(1 << (d - low)):
        mask = _combine(h, s.form.rows[low:])
        q_high = s.q_bits(h << low)
        vals = q ^ _parity_u32(x_low & np.uint32(mask & low_mask)) ^ np.uint8(q_high)
        ones += int(np.count_nonzero(vals))
    return ((1 << d) - ones, ones)
