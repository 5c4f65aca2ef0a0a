"""Upper-triangular F2 matrix spaces, their dual-invariant patterns, and
the quotient maps between orders.

Entries of an order-n space are the cells (i, j), 1 <= i <= j <= n
(1-based everywhere, matching the usual matrix convention), flattened
row-major into bit positions.  This flattening is the single authority
for how matrices, patterns and search states line up.  The rows of the
order-lowering maps psi and phi, one per cell (i, j) of the order n-1
shape, are also the generators of the first action: g_ij tests the psi
row of (i, j) and adds its phi row.

The package's one Graph type lives here too.  hex_graph(n) is the
six-neighbor graph on the cells of the order n-1 shape, whose vertex
transvections generate the second action; the lattice module builds
its transvection groups from any Graph.  The patterns P_i and ~P_i are
read off the radical of the neighbor form of that graph: ~P_1, ...,
~P_{n//2} is its reduced echelon basis in descending pivot order.
Corner triangles plus every second hexagonal layer are what the P
patterns look like, not how they are built; the tests hold that
construction as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .f2la import F2Vector, _combine, _evaluate, _nullspace


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
        if not 0 <= idx < self.dim:
            raise IndexError(f"cell index {idx} out of range 0..{self.dim - 1}")
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
class Graph:
    """An undirected graph on vertices 0..vertex_count-1, no self-loops."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.vertex_count}")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) must be listed as (min, max)")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if self.labels is not None and len(self.labels) != self.vertex_count:
            raise ValueError("label count does not match vertex count")

    @classmethod
    def from_edge_list(cls, vertex_count: int, edges, labels=None) -> "Graph":
        norm = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        return cls(vertex_count, norm, None if labels is None else tuple(labels))

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.neighbor_masks[u] >> v & 1)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range 0..{self.vertex_count - 1}")
        return self.neighbor_masks[v].bit_count()

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v)


# the exported name of the type that hex_graph returns
HexGraph = Graph


@lru_cache(maxsize=None)
def hex_graph(n: int) -> Graph:
    """The triangular-lattice graph on the cells of the order n-1 shape
    (needs n >= 2): vertex v is cell v of the flattening, labelled "(i,j)".

    A cell (i, j) is adjacent to whichever of its six neighbors (i-1, j-1),
    (i-1, j), (i, j-1), (i, j+1), (i+1, j), (i+1, j+1) lie inside the
    shape; the result is an equilateral triangle of side n-2 on the
    triangular lattice, connected for every n >= 2.  The last three
    neighbors come later in the flattening, so they list each edge once.
    """
    if n < 2:
        raise ValueError(f"need order n >= 2, got {n}")
    shape = TriShape(n - 1)
    edges = [(shape.index(i, j), shape.index(*c)) for i, j in shape.cells
             for c in ((i, j + 1), (i + 1, j), (i + 1, j + 1)) if shape.contains(*c)]
    return Graph.from_edge_list(shape.dim, edges, [f"({i},{j})" for i, j in shape.cells])


@lru_cache(maxsize=None)
def _radical(n: int) -> tuple[int, ...]:
    """The radical of the neighbor form of the order n-1 shape, dim n // 2:
    its reduced echelon basis in descending pivot order, so that entry
    i-1 is the bit mask of ~P_i."""
    graph = hex_graph(n)
    return tuple(reversed(_nullspace(graph.neighbor_masks, graph.vertex_count)))


def _check_pattern_index(n: int, i: int) -> None:
    if not 1 <= i <= n // 2:
        raise ValueError(f"pattern index {i} out of range 1..{n // 2}")


def pattern_P(n: int, i: int) -> TriMatrix:
    """The i-th dual-invariant pattern on the order n-1 shape: the sum of
    ~P_1, ..., ~P_i.

    It looks like three corner i-triangles plus every second hexagonal
    layer of the remaining shape, and the (n // 2)-th pattern is the full
    shape (checked against that construction for n = 2..64).
    """
    _check_pattern_index(n, i)
    return TriMatrix.from_bits(n - 1, _combine((1 << i) - 1, _radical(n)))


def pattern_Ptilde(n: int, i: int) -> TriMatrix:
    """P_i + P_{i-1}, with P_0 = 0: the i-th vector of the radical's
    reduced echelon basis, counted from the highest pivot down."""
    _check_pattern_index(n, i)
    return TriMatrix.from_bits(n - 1, _radical(n)[i - 1])


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
    return TriMatrix.from_bits(x.n + 1, _combine(x.bits, phi_masks(x.n + 1)))
