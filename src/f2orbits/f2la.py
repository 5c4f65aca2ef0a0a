"""Linear and quadratic algebra over F2 on int-backed bit vectors.

Vectors live in F2^dim and are packed into Python ints, bit i holding
coordinate i.  Alternating bilinear forms are stored row-wise, quadratic
functions as (form, basis values), and everything downstream (kernels,
symplectic bases, Arf invariants, transvections) is exact integer
arithmetic.  All values are immutable after construction.

This is the package's one linear-algebra layer.  Its single echelon
convention is the reduced basis with each pivot at a vector's highest
bit, in ascending pivot order, and every basis grows one way: a vector
is reduced by it, cleared at its pivots to its coset minimum (_reduce),
and inserted unless that leaves 0 (_insert).  _echelon folds the two
over a list of vectors, and a span grown from bit-planes (_Span)
inserts one reduced value at a time; rank and span enumeration are
built on _echelon.  The reads of an echelon basis live here as well:
_pivots gives the pivot mask of each vector, and _right_inverse the
columns of a right inverse of a map with independent rows, read off
the echelon of the rows tagged with their indices.  Null spaces
(_nullspace) take their free columns through _pivots, and particular
solutions of parity equations (_solve) combine the columns of
_right_inverse.
Linear maps are given by masks: _evaluate reads bit l as
parity(x & rows[l]), and its transpose _combine sums the columns picked
by the bits of x, on ints and, through byte lookup tables, on uint32
arrays (_byte_tables, _apply_tables), where any linear map is a
_combine of its columns; _coset_minima takes the least v ^ c of many
uint32 values v for each of many points c.
Only the array helpers (_parity_u32, _Span.absorb_planes, _byte_tables,
_apply_tables, _coset_minima and value_counts_brute) use numpy, and
each imports it when called: orbits is the one module that imports
numpy at load, so building an action's masks, heights and patterns
loads none.
The enumeration guard (ENUM_DIM_LIMIT, EnumerationGuardError and
_check_dim) lives here too, so that lattice can refuse an oversize
graph without loading orbits; orbits re-exports it.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from functools import cached_property

BRUTE_DIM_LIMIT = 30
ENUM_DIM_LIMIT = 28
# _coset_minima sorts at most this many values at a time, and the lift's
# walk (orbits._lift) tests at most this many points at a time
_LIFT_CHUNK = 1 << 16


class EnumerationGuardError(RuntimeError):
    """Raised when a requested search exceeds the in-memory guard."""


def _check_dim(dim: int) -> None:
    if dim > ENUM_DIM_LIMIT:
        raise EnumerationGuardError(
            f"state space 2^{dim} exceeds the enumeration guard 2^{ENUM_DIM_LIMIT} "
            f"(visited map alone would need 2^{dim - 23} MiB)")


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _parity_u32(arr: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.bitwise_count(arr) & np.uint8(1)


@dataclass(frozen=True)
class F2Vector:
    """A vector in F2^dim, coordinates packed into ``bits`` (bit i = x_i)."""

    dim: int
    bits: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {self.dim}")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"bits {self.bits:#x} out of range for dim {self.dim}")

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


def _insert(basis, v: int) -> list[int]:
    """The reduced echelon basis of span(basis + [v]), given a reduced
    echelon basis and a nonzero v that _reduce has cleared at its pivots.

    v's highest bit is the new pivot, and v is added to the vectors that
    hold that bit.  Those lie above it, and v is zero at every other
    pivot, so each keeps its pivot and stays reduced.  Ascending pivot
    order is ascending numeric order, so v goes in by bisection.
    """
    top = 1 << v.bit_length() - 1
    out = [b ^ v if b & top else b for b in basis]
    bisect.insort(out, v)
    return out


def _echelon(vectors) -> list[int]:
    """Reduced echelon basis of span(vectors), in ascending pivot order:
    each vector, reduced by the basis so far, is inserted (_insert)
    unless it reduces to 0.

    Each basis vector has its pivot at its highest set bit, and no other
    basis vector has that bit set.  The basis is unique to the span, and
    z -> _combine(z, basis) is strictly increasing, so coordinates in it
    keep the order of the vectors.
    """
    basis: list[int] = []
    for v in vectors:
        v = _reduce(v, basis)
        if v:
            basis = _insert(basis, v)
    return basis


class _Span:
    """A growing subspace S of F2^dim fed bit-planes; its basis is
    reduced echelon and grows by _insert.

    Values reduced by S are zero at its pivots, so bit-planes of them
    need a row per other coordinate alone: row r holds coordinate
    live[r], and the live coordinates are those that are no pivot of
    S."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.basis: list[int] = []
        self.live = list(range(dim))

    @property
    def full(self) -> bool:
        return len(self.basis) == self.dim

    def rows(self, v: int) -> list[int]:
        """The rows of the live coordinates where v reduced by S has a bit."""
        v = _reduce(v, self.basis)
        return [r for r, j in enumerate(self.live) if v >> j & 1]

    def absorb_planes(self, planes: np.ndarray, scratch: np.ndarray,
                      potentials: np.ndarray) -> None:
        """Add values held as bit-planes to the span: row r of the (len
        live, words) uint64 array planes holds coordinate live[r] of a
        value per bit position, every value reduced by S.  Each vector v
        inserted, the value of one nonzero position, reduces planes and
        the array potentials in place, their live rows alike: row j ^=
        row p for the other bits j of v, where p is v's pivot, and the
        last live row then moves into row p, which drops from live.  So
        the values stay reduced, and the next nonzero one is read until
        none is left or S is full.  scratch is a words-long uint64
        buffer."""
        import numpy as np

        while self.live:
            n = len(self.live)
            np.bitwise_or.reduce(planes[:n], axis=0, out=scratch)
            w = int(scratch.argmax())
            bits = int(scratch[w])
            if not bits:
                return
            i = (bits & -bits).bit_length() - 1
            rows = [r for r in range(n) if int(planes[r, w]) >> i & 1]
            self.basis = _insert(self.basis, sum(1 << self.live[r] for r in rows))
            p = max(rows, key=self.live.__getitem__)
            for stack in (planes, potentials):
                for r in rows:
                    if r != p:
                        stack[r] ^= stack[p]
                stack[p] = stack[n - 1]
            self.live[p] = self.live[-1]
            self.live.pop()


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


def _pivots(basis) -> list[int]:
    """The pivot mask of each vector of a reduced echelon basis: its
    highest set bit."""
    return [1 << b.bit_length() - 1 for b in basis]


def _nullspace(rows, dim) -> list[int]:
    """Reduced echelon basis of {x in F2^dim : parity(x & row) = 0 for
    every row}.

    Each free column c of the rows' echelon form gives the solution with
    bit c set, zero at the other free columns, and bit p set wherever the
    row with pivot p has bit c.
    """
    basis = _echelon(rows)
    pivots = _pivots(basis)
    taken = sum(pivots)
    return _echelon(sum(p for b, p in zip(basis, pivots) if b >> c & 1) | 1 << c
                    for c in range(dim) if not taken >> c & 1)


def _right_inverse(rows) -> list[int]:
    """The columns of a right inverse of the linear map _evaluate(.,
    rows): column l is a state x with parity(x & rows[m]) = [m == l] for
    every m.

    The echelon of row << t | 1 << l (t rows) keeps in its low bits which
    rows make up each reduced row; column l is the sum of the pivots, read
    above the tag, of the reduced rows whose makeup holds row l.
    """
    t = len(rows)
    tagged = _echelon([row << t | 1 << l for l, row in enumerate(rows)])
    if any(v >> t == 0 for v in tagged):
        raise ValueError("rows are linearly dependent")
    pivots = _pivots(tagged)
    return [sum(p >> t for v, p in zip(tagged, pivots) if v >> l & 1) for l in range(t)]


def _solve(rows, values: int) -> int:
    """A state x with parity(x & rows[l]) = bit l of values for every l:
    the columns of _right_inverse picked by values."""
    return _combine(values, _right_inverse(rows))


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
    import numpy as np

    return [np.array(_span_points(cols[start:start + 8]), dtype=np.uint32)
            for start in range(0, len(cols), 8)]


def _apply_tables(tables, values: np.ndarray) -> np.ndarray:
    """_combine of every entry of a one-dimensional array of unsigned or
    nonnegative ints, through _byte_tables, as uint32."""
    import numpy as np

    out = np.zeros(values.size, dtype=np.uint32)
    for j, table in enumerate(tables):
        out ^= table[(values >> (8 * j)) & 0xFF]
    return out


def _coset_minima(chunks, cosets: np.ndarray) -> np.ndarray:
    """For each entry c of the uint32 array cosets, the least v ^ c over
    the values v of the uint32 arrays chunks: at least one value, and at
    most _LIFT_CHUNK in each array.

    The values gather into one buffer of _LIFT_CHUNK; each fill is
    sorted once, and every coset c descends it from the top bit down,
    vectorized over the cosets: near is the value sought, the one that
    agrees with c at the most significant bits, and [lo, hi) holds the
    values that agree with near above the current bit; searchsorted
    splits the range where that bit turns 1, and near takes c's bit
    where the range allows."""
    import numpy as np

    best = np.full(cosets.size, 2**32 - 1, dtype=np.uint32)
    buffer = np.empty(_LIFT_CHUNK, dtype=np.uint32)

    def fills():
        held = 0
        for values in chunks:
            if held + values.size > buffer.size:
                yield buffer[:held]
                held = 0
            buffer[held:held + values.size] = values
            held += values.size
        yield buffer[:held]

    for values in fills():
        values.sort()
        lo = np.zeros(cosets.size, dtype=np.intp)
        hi = np.full(cosets.size, values.size, dtype=np.intp)
        near = np.zeros_like(cosets)
        for b in reversed(range(int(values[-1]).bit_length())):
            bit = np.uint32(1 << b)
            mid = values.searchsorted(near | bit)
            one = np.where(cosets & bit, mid < hi, mid == lo)
            near |= one * bit
            lo = np.where(one, mid, lo)
            hi = np.where(one, hi, mid)
        np.minimum(best, near ^ cosets, out=best)
    return best


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
    pairs, kernel = [], []
    # one pass: the first remaining vector either pairs with none of the
    # rest, so it lies in the radical (every later pair is built from the
    # rest, so it stays orthogonal to them), or it pairs with its first
    # partner and the rest are projected off the new pair
    while vecs:
        e, *rest = vecs
        e_mask = f.pairing_mask(e)
        b = next((b for b, v in enumerate(rest) if _parity(e_mask & v)), None)
        if b is None:
            kernel.append(F2Vector(f.dim, e))
            vecs = rest
            continue
        fv = rest.pop(b)
        f_mask = f.pairing_mask(fv)
        vecs = [v ^ (e if _parity(f_mask & v) else 0) ^ (fv if _parity(e_mask & v) else 0)
                for v in rest]
        pairs.append((F2Vector(f.dim, e), F2Vector(f.dim, fv)))
    if len(kernel) != s.kappa:
        raise AssertionError("symplectic reduction lost track of the radical")
    return SymplecticBasis(f.dim, tuple(pairs), tuple(kernel))


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


def value_counts_brute(s: QuadraticSpace) -> tuple[int, int]:
    """(|q^-1(0)|, |q^-1(1)|) by evaluating q on every vector.

    Values are filled in by doubling over coordinates with the polarization
    identity, so this stays independent of the symplectic-reduction path it
    is used to check.
    """
    import numpy as np

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
