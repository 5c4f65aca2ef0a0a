"""The four group actions on triangular F2 spaces, as indexed generator
families, plus stratum heights.

Every generator of every kind is a parity-conditioned XOR: it tests the
parity of the state against a condition mask and, when odd, flips a
footprint mask.  For the first action, g_ij tests the psi row of cell
(i, j) and adds its phi row, the rows of the order-lowering maps of
`tri`; for the second, it tests vertex (i, j) of the neighbor graph and
adds its neighbors.  All four kinds are involutions.  The (condition,
footprint) pairs are precomputed once per action and are what the orbit
engine consumes; `apply_bits` applies one to one packed state, and
`apply` is its validating form on matrices.

The second-conj masks (N(v), e_v) are those of the graph lattice
`lattice.build(lattice.hex_lattice_graph(n))`, with B = every vertex:
the transvections along the vertices of the neighbor graph.  The second
action, with the transposed masks (e_v, N(v)), is its dual action on
V*.  Likewise first-conj is the dual of first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .f2la import F2Vector, _evaluate, _parity
from .tri import (TriMatrix, TriShape, hex_graph, pattern_Ptilde, pattern_R,
                  phi_masks, psi_masks)


class Generator(NamedTuple):
    i: int
    j: int


class ActionKind(enum.Enum):
    FIRST = "first"
    FIRST_CONJUGATE = "first-conj"
    SECOND = "second"
    SECOND_CONJUGATE = "second-conj"

    @classmethod
    def parse(cls, name: str) -> "ActionKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown action kind {name!r}")

    @property
    def is_first(self) -> bool:
        return self in (ActionKind.FIRST, ActionKind.FIRST_CONJUGATE)


@dataclass(frozen=True)
class ActionSpec:
    """One concrete action: a kind plus the order n of the generator family.

    The first pair of kinds acts on the order-n space, the second pair on
    the order n-1 space.  Generators are g_ij with 1 <= i <= j <= n-1.
    """

    n: int
    kind: ActionKind

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"order must be positive, got {self.n}")
        if self.n < 2 and not self.kind.is_first:
            raise ValueError("the order-lowered kinds need n >= 2")

    @property
    def state_order(self) -> int:
        return self.n if self.kind.is_first else self.n - 1

    @property
    def state_shape(self) -> TriShape:
        return TriShape(self.state_order)

    @property
    def state_dim(self) -> int:
        return self.state_shape.dim

    def describe(self) -> str:
        return f"{self.kind.value} action, n={self.n}"


def generators(spec: ActionSpec) -> list[Generator]:
    """All n(n-1)/2 generators in row-major order."""
    return [Generator(i, j) for i in range(1, spec.n) for j in range(i, spec.n)]


def generator_masks(spec: ActionSpec) -> list[tuple[int, int]]:
    """(condition, footprint) mask pairs, one per generator, in order.

    apply(g, M): if parity(M & condition) is odd, xor the footprint in.
    Both families are indexed by the cells of the order n-1 shape, which
    is the generator order.  The conjugate kinds swap the two masks of
    their base kind.
    """
    if spec.kind.is_first:
        pairs = list(zip(psi_masks(spec.n), phi_masks(spec.n))) if spec.n >= 2 else []
    else:
        pairs = [(1 << v, foot) for v, foot in enumerate(hex_graph(spec.n).neighbor_masks)]
    if spec.kind in (ActionKind.FIRST_CONJUGATE, ActionKind.SECOND_CONJUGATE):
        return [(foot, cond) for cond, foot in pairs]
    return pairs


@lru_cache(maxsize=None)
def _masks_for(spec: ActionSpec) -> dict[Generator, tuple[int, int]]:
    return dict(zip(generators(spec), generator_masks(spec)))


def apply(spec: ActionSpec, g: Generator, m: TriMatrix) -> TriMatrix:
    """Apply one generator to one state."""
    if g not in _masks_for(spec):
        raise ValueError(f"generator {g} invalid for n={spec.n}")
    if m.shape.n != spec.state_order:
        raise ValueError(
            f"state has order {m.shape.n}, expected {spec.state_order} for {spec.kind.value}")
    return TriMatrix(m.shape, F2Vector(m.data.dim, apply_bits(spec, g, m.bits)))


def apply_bits(spec: ActionSpec, g: Generator, bits: int) -> int:
    """Mask-level apply on a packed state; no validation."""
    cond, foot = _masks_for(spec)[g]
    return bits ^ foot if _parity(bits & cond) else bits


def height_functionals(spec: ActionSpec) -> list[int]:
    """Flattened masks of the dual-invariant basis fixing the strata.

    R patterns for the first action, ~P patterns for the second.  The
    conjugate kinds' records carry no height, so they have none.
    """
    n = spec.n
    if spec.kind is ActionKind.FIRST:
        return [pattern_R(n, i).bits for i in range(1, n + 1)]
    if spec.kind is ActionKind.SECOND:
        return [pattern_Ptilde(n, i).bits for i in range(1, n // 2 + 1)]
    return []


def height_first(m: TriMatrix) -> F2Vector:
    """Height of a state of the first action: bit i-1 holds (M, R_i)."""
    rows = height_functionals(ActionSpec(m.n, ActionKind.FIRST))
    return F2Vector(len(rows), _evaluate(m.bits, rows))


def height_second(m: TriMatrix) -> F2Vector:
    """Height of a state of the second action: bit i-1 holds (M, ~P_i)."""
    rows = height_functionals(ActionSpec(m.n + 1, ActionKind.SECOND))
    return F2Vector(len(rows), _evaluate(m.bits, rows))


def psi_height(h: F2Vector) -> F2Vector:
    """Image of a first-action height under the order-lowering map.

    eta_i = h_i + h_{i+1} + h_{n-i} + h_{n-i+1} for i < k, and
    eta_k = h_k + h_{n-k+1}, with k = floor(n/2).
    """
    n = h.dim
    k = n // 2
    bits = 0
    for i in range(1, k):
        v = h.bit(i - 1) ^ h.bit(i) ^ h.bit(n - i - 1) ^ h.bit(n - i)
        if v:
            bits |= 1 << (i - 1)
    if k >= 1:
        if h.bit(k - 1) ^ h.bit(n - k):
            bits |= 1 << (k - 1)
    return F2Vector(k, bits)
