"""Transvection groups from graphs: the general construction.

A connected graph and a subset B of its vertices give the F2 space
spanned by the vertices, the adjacency bilinear form, the quadratic
function with value 1 on every vertex, and the group generated by the
transvections along B.  The Graph type comes from ``tri``, which also
builds the hexagonal neighbor graph as one.  This module checks the
vanishing-lattice conditions, detects the E6 tree as an induced
subgraph (the sufficient nonspeciality criterion), and predicts the
orbit census of a nonspecial group without enumerating it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import combinations, islice

import numpy as np

from .f2la import (BilinearForm, F2Vector, QuadraticSpace, _span_points,
                   value_counts_closed)
from .orbits import OrbitCensus, OrbitRecord, _check_dim, _closure
from .tri import Graph, hex_graph


def hex_lattice_graph(n: int) -> Graph:
    """The neighbor graph of the order n-1 triangular shape: hex_graph(n),
    the same Graph the second action's generators are read from."""
    return hex_graph(n)


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


def _connected(graph: Graph) -> bool:
    """Whether the graph is connected; the flood takes each vertex once."""
    reached = todo = 1
    while todo:
        v = todo.bit_length() - 1
        todo ^= 1 << v
        fresh = graph.neighbor_masks[v] & ~reached
        reached |= fresh
        todo |= fresh
    return reached == (1 << graph.vertex_count) - 1


@dataclass(frozen=True)
class DeltaClosure:
    """The closure's packed states as a sorted, read-only ``np.uint32``
    array, and whether they form a single orbit."""

    vectors: np.ndarray
    single_orbit: bool


def delta_closure(spec: LatticeSpec) -> DeltaClosure:
    """The closure of the basis vertices under the transvection group;
    it is one orbit exactly when check_vanishing's orbit condition
    holds."""
    vectors = _closure(spec, (1 << b for b in spec.basis_subset))
    vectors.flags.writeable = False
    return DeltaClosure(vectors, check_vanishing(spec).orbit_ok)


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
    contains a non-orthogonal pair (vacuous in dimension 1).

    All three are read off the graph induced on B.  For adjacent b and
    c, t_c takes e_b to e_b + e_c and t_b takes that to e_c, so one
    component of B lies in one orbit; the orbit of e_b stays in the span
    of its own component, so components give different orbits.  The
    closure holds every e_b and lies in their span.  Without an edge
    inside B every e_b is fixed and the closure is pairwise orthogonal.
    """
    basis_graph = induced_basis_graph(spec)
    return VanishingReport(_connected(basis_graph),
                           len(spec.basis_subset) == spec.state_dim,
                           spec.state_dim <= 1 or bool(basis_graph.edges))


def contains_e6(graph: Graph) -> bool:
    """Whether the E6 tree (a 5-path with a pendant at its middle) occurs
    as an induced subgraph.

    A claw (a center and three pairwise nonadjacent neighbors) with one
    neighbor as the pendant leaves the other two as arms.  The candidate
    ends of an arm are its neighbors adjacent to no other vertex of the
    claw and outside it: ``near`` covers the center and the trio, since
    the trio neighbors the center and the center neighbors the pendant.
    The ends of the two arms are disjoint, so E6 is there when some pair
    of them is nonadjacent.
    """
    adj = graph.neighbor_masks
    nbrs = [[v for v in range(len(adj)) if mask >> v & 1] for mask in adj]
    for center, ring in enumerate(nbrs):
        for a, b, c in combinations(ring, 3):
            if adj[a] >> b & 1 or adj[a] >> c & 1 or adj[b] >> c & 1:
                continue
            for first, second, pendant in ((a, b, c), (a, c, b), (b, c, a)):
                near = adj[center] | adj[pendant]
                arm = adj[first] & ~(near | adj[second])
                ends = adj[second] & ~(near | adj[first])
                if any(ends & ~adj[v] for v in nbrs[first] if arm >> v & 1):
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
    """The vanishing-lattice conditions or the E6 sufficient condition
    failed; no census prediction is licensed."""


def predict_census_nonspecial(spec: LatticeSpec) -> OrbitCensus:
    """Predicted census for a nonspecial transvection group.

    Requires a vanishing lattice (check_vanishing) and the E6 criterion
    on the graph of the generating subset, the hypotheses under which the
    group is nonspecial.  The orbits are the 2^kappa kernel points as singletons plus the two level
    sets of q off the kernel; the two big representatives are found by
    ascending scan, so the whole census is exactly comparable with the
    enumerated one.
    """
    report = check_vanishing(spec)
    if not report.is_vanishing_lattice:
        failed = [f.name for f in fields(report) if not getattr(report, f.name)]
        raise NonspecialityUnknown(f"not a vanishing lattice: {', '.join(failed)} false")
    if not contains_e6(induced_basis_graph(spec)):
        raise NonspecialityUnknown("no induced E6 in the generating subset's graph")
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


# a nonempty line between two of str.splitlines' line boundaries
_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def parse_graph_file(text: str) -> LatticeSpec:
    """Parse the text graph format.

    Line 1: ``V E``; then E lines ``u v`` (0-based vertex pairs); an
    optional final line ``B: u1 u2 ...`` selects the generating subset
    (default all vertices).  ``#`` starts a comment; blank lines are
    ignored.  A header whose 2^V states exceed the enumeration guard is
    refused before any vertex is built, and a file is refused at its
    first content line past the header, E edge lines and one ``B:``
    line, so no more than those lines is ever held.
    """
    # the non-blank lines after comments are cut, read lazily so that
    # surplus lines are never split or held
    lines = (line for match in _LINE.finditer(text)
             if (line := match.group().split("#", 1)[0].strip()))
    header = next(lines, "").split()
    if not header:
        raise ValueError("empty graph file")
    if len(header) != 2:
        raise ValueError(f"header must be 'V E', got {' '.join(header)!r}")
    try:
        v_count, e_count = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad header {' '.join(header)!r}") from exc
    if v_count < 1 or e_count < 0:
        raise ValueError(f"bad sizes V={v_count} E={e_count}")
    _check_dim(v_count)
    body = [line.split() for line in islice(lines, e_count + 1)]
    if next(lines, None) is not None:
        raise ValueError(f"expected {e_count} edge lines, found more")
    subset = None
    if body and body[-1][0][0] in "Bb":
        # no edge line starts with a letter; the marker is B or b, then
        # one optional colon, attached or alone, then a space or the end
        bline = " ".join(body.pop())
        try:
            subset = [int(t) for t in re.sub(r"^[Bb]( ?:)?( |$)", "", bline).split()]
        except ValueError as exc:
            raise ValueError(f"bad subset line {bline!r}") from exc
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
