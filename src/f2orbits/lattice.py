"""Transvection groups from graphs: the general construction.

A connected graph and a subset B of its vertices give the F2 space
spanned by the vertices, the adjacency bilinear form, the quadratic
function with value 1 on every vertex, and the group generated by the
transvections along B.  This module checks the vanishing-lattice
conditions, detects the E6 tree as an induced subgraph (the sufficient
nonspeciality criterion), and predicts the orbit census of a nonspecial
group without enumerating it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

import numpy as np

from .f2la import (BilinearForm, F2Vector, QuadraticSpace, _span_points,
                   value_counts_closed)
from .orbits import OrbitCensus, OrbitRecord, _bfs_component, _check_dim, _np_gens
from .tri import HexGraph, hex_graph


@dataclass(frozen=True)
class Graph:
    """An undirected graph on vertices 0..vertex_count-1, no self-loops."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
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
        return cls(vertex_count, norm, tuple(labels) if labels else None)

    @classmethod
    def from_hex(cls, hexgraph: HexGraph) -> "Graph":
        labels = tuple(f"({i},{j})" for i, j in hexgraph.shape.cells)
        return cls(hexgraph.vertex_count, hexgraph.edges, labels)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.neighbor_masks[u] >> v & 1)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v)


def hex_lattice_graph(n: int) -> Graph:
    """The neighbor graph of the order n-1 triangular shape as a Graph."""
    return Graph.from_hex(hex_graph(n))


@dataclass(frozen=True)
class LatticeSpec:
    """A graph, a generating vertex subset, and the derived quadratic space."""

    graph: Graph
    basis_subset: tuple[int, ...]

    @property
    def state_dim(self) -> int:
        return self.graph.vertex_count

    @cached_property
    def form(self) -> BilinearForm:
        return BilinearForm(self.state_dim, self.graph.neighbor_masks)

    @cached_property
    def qspace(self) -> QuadraticSpace:
        return QuadraticSpace.with_all_ones(self.form)

    def masked_generators(self) -> list[tuple[int, int]]:
        """Transvections along basis vertices as (condition, footprint) masks."""
        return [(self.graph.neighbor_masks[b], 1 << b) for b in self.basis_subset]

    def describe(self) -> str:
        b = ("all" if len(self.basis_subset) == self.state_dim
             else ",".join(map(str, self.basis_subset)))
        return (f"graph lattice: {self.state_dim} vertices, "
                f"{len(self.graph.edges)} edges, B={b}")


def build(graph: Graph, basis_subset=None) -> LatticeSpec:
    """Assemble the lattice data for a graph and a generating subset."""
    if basis_subset is None:
        subset = tuple(range(graph.vertex_count))
    else:
        subset = tuple(sorted(set(basis_subset)))
        if not subset:
            raise ValueError("basis subset must be nonempty")
        if subset[0] < 0 or subset[-1] >= graph.vertex_count:
            raise ValueError(f"basis subset {subset} out of range")
    return LatticeSpec(graph, subset)


def _closure_bitmap(spec: LatticeSpec) -> tuple[np.ndarray, bool]:
    """Visited map of the union of the basis vectors' orbits, and whether
    that is one orbit: the flood from the first basis vector reaches
    every other."""
    _check_dim(spec.state_dim)
    gens = _np_gens([(c, f, 0, 0) for c, f in spec.masked_generators()])
    visited = np.zeros(1 << spec.state_dim, dtype=np.uint8)
    floods = 0
    for b in spec.basis_subset:
        if not visited[1 << b]:
            _bfs_component(1 << b, gens, visited)
            floods += 1
    return visited, floods == 1


@dataclass(frozen=True)
class DeltaClosure:
    vectors: frozenset[F2Vector]
    single_orbit: bool


def delta_closure(spec: LatticeSpec) -> DeltaClosure:
    """The closure of the basis vertices under the transvection group,
    plus whether it forms a single orbit."""
    visited, single = _closure_bitmap(spec)
    dim = spec.state_dim
    members = frozenset(F2Vector(dim, int(s)) for s in np.flatnonzero(visited))
    return DeltaClosure(members, single)


@dataclass(frozen=True)
class VanishingReport:
    """The three lattice conditions, independently testable."""

    orbit_ok: bool
    generates_ok: bool
    pair_ok: bool

    @property
    def is_vanishing_lattice(self) -> bool:
        return self.orbit_ok and self.generates_ok and self.pair_ok


def check_vanishing(spec: LatticeSpec) -> VanishingReport:
    """Check: the closure is one orbit, it spans the space, and it
    contains a non-orthogonal pair (vacuous in dimension 1)."""
    closure, orbit_ok = _closure_bitmap(spec)
    dim = spec.state_dim
    states = np.flatnonzero(closure)
    # the closure lies in span{e_b : b in B} and contains every e_b
    generates_ok = len(spec.basis_subset) == dim
    if dim <= 1:
        pair_ok = True
    else:
        pair_ok = _has_coupled_pair(spec, states)
    return VanishingReport(orbit_ok, generates_ok, pair_ok)


def _has_coupled_pair(spec: LatticeSpec, states: np.ndarray) -> bool:
    # adjacent basis vertices couple; scan them first, then everything
    for u, v in spec.graph.edges:
        if u in spec.basis_subset and v in spec.basis_subset:
            return True
    form = spec.form
    states32 = states.astype(np.uint32)
    for s in states32:
        mask = form.pairing_mask(int(s))
        if mask and bool(np.any(np.bitwise_count(states32 & np.uint32(mask)) & 1)):
            return True
    return False


def contains_e6(graph: Graph) -> bool:
    """Whether the E6 tree (a 5-path with a pendant at its middle) occurs
    as an induced subgraph."""
    n = graph.vertex_count
    adj = graph.neighbor_masks

    def nonadjacent_to_all(v: int, chosen) -> bool:
        return all(not adj[v] >> c & 1 for c in chosen)

    for center in range(n):
        nbrs = [v for v in range(n) if adj[center] >> v & 1]
        if len(nbrs) < 3:
            continue
        for a1, b1, f in combinations(nbrs, 3):
            if adj[a1] >> b1 & 1 or adj[a1] >> f & 1 or adj[b1] >> f & 1:
                continue
            for first, second, pendant in ((a1, b1, f), (a1, f, b1), (b1, f, a1)):
                chosen = {center, first, second, pendant}
                for a2 in range(n):
                    if a2 in chosen or not adj[first] >> a2 & 1:
                        continue
                    if not nonadjacent_to_all(a2, chosen - {first}):
                        continue
                    for b2 in range(n):
                        if b2 == a2 or b2 in chosen or not adj[second] >> b2 & 1:
                            continue
                        if adj[b2] >> a2 & 1:
                            continue
                        if nonadjacent_to_all(b2, chosen - {second}):
                            return True
    return False


def induced_basis_graph(spec: LatticeSpec) -> Graph:
    """The graph of the generating subset under the form (induced subgraph)."""
    idx = {v: i for i, v in enumerate(spec.basis_subset)}
    edges = [(idx[u], idx[v]) for u, v in spec.graph.edges
             if u in idx and v in idx]
    labels = tuple(spec.graph.label(v) for v in spec.basis_subset)
    return Graph.from_edge_list(len(spec.basis_subset), edges, labels)


class NonspecialityUnknown(RuntimeError):
    """The E6 sufficient condition failed; no census prediction is licensed."""


def predict_census_nonspecial(spec: LatticeSpec) -> OrbitCensus:
    """Predicted census for a nonspecial transvection group.

    Requires the E6 criterion on the graph of the generating subset.  The
    orbits are the 2^kappa kernel points as singletons plus the two level
    sets of q off the kernel; the two big representatives are found by
    ascending scan, so the whole census is exactly comparable with the
    enumerated one.
    """
    if not contains_e6(induced_basis_graph(spec)):
        raise NonspecialityUnknown(
            "the generating subset's graph has no induced E6 tree; "
            "nonspeciality is not established and no prediction is licensed")
    space = spec.qspace
    dim = spec.state_dim
    kappa = space.kappa
    kernel_masks = [g.bits for g in space.kernel]
    kernel_points = sorted(_span_points(kernel_masks))
    count0, count1 = value_counts_closed(space)
    k1 = sum(space.q_bits(p) for p in kernel_points)
    k0 = len(kernel_points) - k1
    big0 = count0 - k0
    big1 = count1 - k1
    records = [OrbitRecord(F2Vector(dim, p), 1) for p in kernel_points]
    kernel_set = set(kernel_points)
    records.append(OrbitRecord(F2Vector(dim, _first_level_point(space, kernel_set, 0)), big0))
    records.append(OrbitRecord(F2Vector(dim, _first_level_point(space, kernel_set, 1)), big1))
    records.sort(key=OrbitRecord.sort_key)
    if len(records) != (1 << kappa) + 2:
        raise AssertionError("nonspecial census must have 2^kappa + 2 orbits")
    return OrbitCensus(f"predicted nonspecial census: {spec.describe()}",
                       None, None, dim, 1 << dim, tuple(records))


def _first_level_point(space: QuadraticSpace, kernel_set, value: int) -> int:
    for x in range(1 << space.dim):
        if x not in kernel_set and space.q_bits(x) == value:
            return x
    raise AssertionError(f"no point with q={value} outside the kernel")


def parse_graph_file(text: str) -> LatticeSpec:
    """Parse the text graph format.

    Line 1: ``V E``; then E lines ``u v`` (0-based vertex pairs); an
    optional final line ``B: u1 u2 ...`` selects the generating subset
    (default all vertices).  ``#`` starts a comment; blank lines are
    ignored.  A header whose 2^V states exceed the enumeration guard is
    refused before any vertex is built.
    """
    tokens_per_line = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens_per_line.append(line.split())
    if not tokens_per_line:
        raise ValueError("empty graph file")
    header = tokens_per_line[0]
    if len(header) != 2:
        raise ValueError(f"header must be 'V E', got {' '.join(header)!r}")
    try:
        v_count, e_count = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad header {' '.join(header)!r}") from exc
    if v_count < 1 or e_count < 0:
        raise ValueError(f"bad sizes V={v_count} E={e_count}")
    _check_dim(v_count)
    body = tokens_per_line[1:]
    subset = None
    if body and body[-1][0].rstrip(":").upper() == "B":
        bline = body.pop()
        rest = bline[1:] if bline[0].upper() in ("B", "B:") else bline
        if bline[0].upper() == "B" and rest and rest[0] == ":":
            rest = rest[1:]
        try:
            subset = [int(t) for t in rest]
        except ValueError as exc:
            raise ValueError(f"bad subset line {' '.join(bline)!r}") from exc
    if len(body) != e_count:
        raise ValueError(f"expected {e_count} edge lines, found {len(body)}")
    edges = []
    for toks in body:
        if len(toks) != 2:
            raise ValueError(f"bad edge line {' '.join(toks)!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise ValueError(f"bad edge line {' '.join(toks)!r}") from exc
        edges.append((u, v))
    graph = Graph.from_edge_list(v_count, edges)
    return build(graph, subset)


def e6_graph() -> Graph:
    """The E6 tree itself: path 0-1-2-3-4 with vertex 5 pendant on 2."""
    return Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
