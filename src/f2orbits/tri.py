"""Upper-triangular F2 matrix spaces, their dual-invariant patterns, and
the quotient maps between orders.

Entries of an order-n space are the cells (i, j), 1 <= i <= j <= n
(1-based everywhere, matching the usual matrix convention), flattened
row-major into bit positions.  This flattening is the single authority
for how matrices, patterns and search states line up.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .f2la import F2Vector, _echelon, _evaluate, _nullspace


@dataclass(frozen=True)
class TriShape:
    """Index scheme for the n(n+1)/2 cells of an order-n triangular space."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"order must be positive, got {self.n}")

    @property
    def dim(self) -> int:
        return self.n * (self.n + 1) // 2

    def contains(self, i: int, j: int) -> bool:
        return 1 <= i <= j <= self.n

    def index(self, i: int, j: int) -> int:
        if not self.contains(i, j):
            raise ValueError(f"cell ({i}, {j}) outside order-{self.n} shape")
        return (i - 1) * self.n - (i - 1) * (i - 2) // 2 + (j - i)

    @cached_property
    def cells(self) -> tuple[tuple[int, int], ...]:
        """All cells in flattening (row-major) order."""
        return tuple((i, j) for i in range(1, self.n + 1) for j in range(i, self.n + 1))

    def cell_at(self, idx: int) -> tuple[int, int]:
        return self.cells[idx]

    def mask_of(self, cells) -> int:
        mask = 0
        for i, j in cells:
            mask |= 1 << self.index(i, j)
        return mask


@dataclass(frozen=True)
class TriMatrix:
    """An upper-triangular F2 matrix, a view over a flattened bit vector.

    The same representation serves both the matrix space and its dual;
    the coupling (M, M') is the plain dot product of the flattenings.
    """

    shape: TriShape
    data: F2Vector

    def __post_init__(self) -> None:
        if self.data.dim != self.shape.dim:
            raise ValueError(
                f"vector length {self.data.dim} does not match shape dim {self.shape.dim}")

    @classmethod
    def zeros(cls, n: int) -> "TriMatrix":
        shape = TriShape(n)
        return cls(shape, F2Vector.zeros(shape.dim))

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "TriMatrix":
        shape = TriShape(n)
        return cls(shape, F2Vector(shape.dim, bits))

    @classmethod
    def from_cells(cls, n: int, cells) -> "TriMatrix":
        shape = TriShape(n)
        return cls(shape, F2Vector(shape.dim, shape.mask_of(cells)))

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def bits(self) -> int:
        return self.data.bits

    def get(self, i: int, j: int) -> int:
        return self.data.bit(self.shape.index(i, j))

    def __xor__(self, other: "TriMatrix") -> "TriMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return TriMatrix(self.shape, self.data ^ other.data)

    __add__ = __xor__

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(c for idx, c in enumerate(self.shape.cells) if self.bits >> idx & 1)

    def grid(self) -> str:
        """0/1 text grid, blanks below the diagonal."""
        lines = []
        for i in range(1, self.n + 1):
            row = ["  "] * (i - 1)
            row += [" 1" if self.get(i, j) else " 0" for j in range(i, self.n + 1)]
            lines.append("".join(row))
        return "\n".join(lines)


def couple(m: TriMatrix, mp: TriMatrix) -> int:
    """The standard coupling (M, M') = sum of entrywise products mod 2."""
    if m.shape != mp.shape:
        raise ValueError("coupling requires equal orders")
    return (m.bits & mp.bits).bit_count() & 1


@lru_cache(maxsize=None)
def pattern_E(n: int, i: int) -> TriMatrix:
    """Ones exactly on the i-th diagonal: cells (j, j+i-1)."""
    if not 1 <= i <= n:
        raise ValueError(f"diagonal index {i} out of range 1..{n}")
    return TriMatrix.from_cells(n, ((j, j + i - 1) for j in range(1, n - i + 2)))


@lru_cache(maxsize=None)
def pattern_R(n: int, i: int) -> TriMatrix:
    """Ones on the rectangle rows 1..i, columns i..n (the last n+1-i columns)."""
    if not 1 <= i <= n:
        raise ValueError(f"pattern index {i} out of range 1..{n}")
    return TriMatrix.from_cells(
        n, ((a, b) for a in range(1, i + 1) for b in range(i, n + 1) if a <= b))


@dataclass(frozen=True)
class HexGraph:
    """The triangular-lattice graph on the cells of an order-m shape.

    A cell (i, j) is adjacent to whichever of (i-1, j-1), (i-1, j),
    (i, j-1), (i, j+1), (i+1, j), (i+1, j+1) lie inside the shape; the
    result is an equilateral triangle of side m-1 on the triangular
    lattice, connected for every m >= 1.
    """

    shape: TriShape

    @property
    def order(self) -> int:
        return self.shape.n

    @property
    def vertex_count(self) -> int:
        return self.shape.dim

    @staticmethod
    def neighbor_cells(i: int, j: int):
        return ((i - 1, j - 1), (i - 1, j), (i, j - 1), (i, j + 1), (i + 1, j), (i + 1, j + 1))

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        masks = []
        for i, j in self.shape.cells:
            masks.append(self.shape.mask_of(
                c for c in self.neighbor_cells(i, j) if self.shape.contains(*c)))
        return tuple(masks)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(self.vertex_count):
            mask = self.neighbor_masks[u] >> (u + 1)
            v = u + 1
            while mask:
                if mask & 1:
                    out.append((u, v))
                mask >>= 1
                v += 1
        return tuple(out)

    def degree(self, idx: int) -> int:
        return self.neighbor_masks[idx].bit_count()


def hex_graph(n: int) -> HexGraph:
    """The neighbor graph of the order n-1 shape (needs n >= 2)."""
    if n < 2:
        raise ValueError(f"need order n >= 2, got {n}")
    return HexGraph(TriShape(n - 1))


def _chi(m: int, i: int, level: int, j_i: int):
    """Cells of the level-th nested shape inside the order-m triangle.

    Level 1 is the hexagon left after cutting the three corner i-triangles;
    each further level peels one boundary layer.  Levels beyond j_i are
    empty by convention.
    """
    if level > j_i:
        return []
    out = []
    for a in range(1, m + 1):
        for b in range(a, m + 1):
            d1, d2, d3 = a - 1, b - a, m - b
            if min(d1, d2, d3) >= level - 1 and min(d1 + d2, d1 + d3, d2 + d3) >= i + level - 1:
                out.append((a, b))
    return out


def _pattern_P_literal(n: int, i: int) -> TriMatrix:
    m = n - 1
    k = n // 2
    if i == k:
        return TriMatrix.from_bits(m, (1 << TriShape(m).dim) - 1)
    cells = set()
    for a in range(1, m + 1):
        for b in range(a, m + 1):
            if b <= i or b - a >= m - i or a >= m - i + 1:
                cells.add((a, b))  # the three corner triangles
    j_i = min(i + 1, n - 2 * i - 1)
    for j in range(1, j_i // 2 + 1):
        layer = set(_chi(m, i, 2 * j, j_i)) - set(_chi(m, i, 2 * j + 1, j_i))
        cells |= layer
    return TriMatrix.from_cells(m, cells)


@lru_cache(maxsize=None)
def _p_family(n: int) -> tuple[int, ...]:
    """Bit masks of the P patterns for order n, certified against the kernel.

    The literal construction is checked to span exactly the radical of the
    neighbor form (both spans reduce to the same canonical echelon basis);
    if that ever failed, the canonical kernel basis would be used instead,
    with a loud warning.
    """
    k = n // 2
    literal = [_pattern_P_literal(n, i).bits for i in range(1, k + 1)]
    graph = hex_graph(n)
    kernel = _nullspace(graph.neighbor_masks, graph.vertex_count)
    if len(kernel) == k and _echelon(literal) == kernel:
        return tuple(literal)
    warnings.warn(
        f"literal P patterns for n={n} do not span the neighbor-form kernel; "
        "falling back to the canonical echelon kernel basis",
        RuntimeWarning,
        stacklevel=2,
    )
    return tuple(kernel)


def pattern_P(n: int, i: int) -> TriMatrix:
    """The i-th dual-invariant pattern on the order n-1 shape.

    Three corner i-triangles plus every second hexagonal layer of the
    remaining shape; the k-th pattern is the full shape.
    """
    k = n // 2
    if not 1 <= i <= k:
        raise ValueError(f"pattern index {i} out of range 1..{k}")
    return TriMatrix.from_bits(n - 1, _p_family(n)[i - 1])


@lru_cache(maxsize=None)
def pattern_Ptilde(n: int, i: int) -> TriMatrix:
    """P_i + P_{i-1}, with P_0 = 0; an alternative basis of the same span."""
    k = n // 2
    if not 1 <= i <= k:
        raise ValueError(f"pattern index {i} out of range 1..{k}")
    p = pattern_P(n, i)
    return p if i == 1 else p ^ pattern_P(n, i - 1)


@lru_cache(maxsize=None)
def psi_masks(n: int) -> tuple[int, ...]:
    """Row masks of the order-lowering map: output cell (i, j) reads the
    input cells (i, j) and (i+1, j+1)."""
    if n < 2:
        raise ValueError("order must be at least 2")
    src = TriShape(n)
    return tuple(src.mask_of([(i, j), (i + 1, j + 1)])
                 for i, j in TriShape(n - 1).cells)


@lru_cache(maxsize=None)
def phi_masks(n: int) -> tuple[int, ...]:
    """Row masks of the dual block-sum map: output cell (i, j) sums the
    input cells (i, j), (i, j+1), (i+1, j), (i+1, j+1) that exist."""
    if n < 2:
        raise ValueError("order must be at least 2")
    src = TriShape(n)
    out = []
    for i, j in TriShape(n - 1).cells:
        cells = [(i, j), (i, j + 1), (i + 1, j + 1)]
        if i < j:
            cells.append((i + 1, j))
        out.append(src.mask_of(cells))
    return tuple(out)


@lru_cache(maxsize=None)
def phi_star_masks(n: int) -> tuple[int, ...]:
    """Row masks of the transpose of the block-sum map under the standard
    couplings: output cell (a, b) on the order-n shape sums the order n-1
    cells (a, b), (a-1, b), (a, b-1), (a-1, b-1) that exist."""
    if n < 2:
        raise ValueError("order must be at least 2")
    src = TriShape(n - 1)
    out = []
    for a, b in TriShape(n).cells:
        cells = [c for c in ((a, b), (a - 1, b), (a, b - 1), (a - 1, b - 1))
                 if src.contains(*c)]
        out.append(src.mask_of(cells))
    return tuple(out)


def psi(m: TriMatrix) -> TriMatrix:
    """Order-lowering map: image entry (i, j) = m(i, j) + m(i+1, j+1)."""
    return TriMatrix.from_bits(m.n - 1, _evaluate(m.bits, psi_masks(m.n)))


def phi(mp: TriMatrix) -> TriMatrix:
    """2x2 block-sum map on the dual: image (i, j) sums the entries
    (i, j), (i, j+1), (i+1, j), (i+1, j+1), cells outside the shape
    contributing nothing."""
    return TriMatrix.from_bits(mp.n - 1, _evaluate(mp.bits, phi_masks(mp.n)))


def phi_star(x: TriMatrix) -> TriMatrix:
    """The transpose of the block-sum map; injective, landing in the
    height-zero stratum of the first action."""
    n = x.n + 1
    return TriMatrix.from_bits(n, _evaluate(x.bits, phi_star_masks(n)))
