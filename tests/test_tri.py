"""Index schemes, invariant patterns, the neighbor graph, and the maps
between orders."""

import random

import pytest

from f2orbits.f2la import BilinearForm, F2Vector, QuadraticSpace, _echelon, _rank, q_eval
from f2orbits.lattice import hex_lattice_graph
from f2orbits.tri import (Graph, HexGraph, TriMatrix, TriShape, couple,
                          hex_graph, pattern_E, pattern_P, pattern_Ptilde,
                          pattern_R, phi, phi_masks, phi_star, psi, psi_masks)

rng = random.Random(20240817)


def hexagonal_layer_P(n: int, i: int) -> int:
    """Bit mask of P_i built cell by cell on the order m = n-1 triangle:
    the three corner i-triangles plus every second nested hexagonal layer
    (level 1 is the hexagon left after cutting the corners, each further
    level peels one boundary layer); the (n // 2)-th pattern is the full
    shape."""
    m = n - 1
    shape = TriShape(m)
    if i == n // 2:
        return (1 << shape.dim) - 1
    depth = min(i + 1, n - 2 * i - 1)

    def level(a, b, lv):
        d1, d2, d3 = a - 1, b - a, m - b
        return (lv <= depth and min(d1, d2, d3) >= lv - 1
                and min(d1 + d2, d1 + d3, d2 + d3) >= i + lv - 1)

    cells = [(a, b) for a, b in shape.cells
             if b <= i or b - a >= m - i or a >= m - i + 1
             or any(level(a, b, 2 * j) and not level(a, b, 2 * j + 1)
                    for j in range(1, depth // 2 + 1))]
    return shape.mask_of(cells)


def phi_star_four_cell(x: TriMatrix) -> int:
    """The transpose of phi cell by cell: output cell (a, b) of the order
    n shape sums the order n-1 cells (a, b), (a-1, b), (a, b-1),
    (a-1, b-1) that exist."""
    n = x.n + 1
    cells = []
    for a, b in TriShape(n).cells:
        near = [c for c in ((a, b), (a - 1, b), (a, b - 1), (a - 1, b - 1))
                if x.shape.contains(*c)]
        if sum(x.get(*c) for c in near) & 1:
            cells.append((a, b))
    return TriShape(n).mask_of(cells)


def neighbor_space(n: int) -> QuadraticSpace:
    g = hex_graph(n)
    return QuadraticSpace.with_all_ones(BilinearForm(g.vertex_count, g.neighbor_masks))


class TestTriShape:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_index_bijection(self, n):
        shape = TriShape(n)
        assert len(shape.cells) == shape.dim == n * (n + 1) // 2
        for idx, (i, j) in enumerate(shape.cells):
            assert shape.index(i, j) == idx
            assert shape.cell_at(idx) == (i, j)

    def test_row_major_order(self):
        assert TriShape(3).cells == ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))

    def test_rejects_out_of_shape(self):
        with pytest.raises(ValueError):
            TriShape(3).index(2, 1)

    @pytest.mark.parametrize("idx", [-1, -6, -7, 6, 7])
    def test_cell_at_rejects_an_index_outside_the_cells(self, idx):
        # a negative index would otherwise count back from the last cell
        with pytest.raises(IndexError, match=rf"^cell index {idx} out of range 0\.\.5$"):
            TriShape(3).cell_at(idx)


class TestPatterns:
    def test_E_small(self):
        assert pattern_E(2, 1).support() == ((1, 1), (2, 2))
        assert pattern_E(2, 2).support() == ((1, 2),)

    def test_R_small(self):
        assert pattern_R(2, 1).support() == ((1, 1), (1, 2))
        assert pattern_R(2, 2).support() == ((1, 2), (2, 2))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_R_satisfies_defining_equations(self, n):
        # the square-sum equations cutting out the dual-invariant space
        for i in range(1, n + 1):
            r = pattern_R(n, i)
            for a in range(1, n):
                for b in range(a, n):
                    total = r.get(a, b) ^ r.get(a, b + 1) ^ r.get(a + 1, b + 1)
                    if a < b:
                        total ^= r.get(a + 1, b)
                    assert total == 0, (n, i, a, b)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_E_and_R_independent(self, n):
        dim = TriShape(n).dim
        assert _rank([pattern_E(n, i).bits for i in range(1, n + 1)], dim) == n
        assert _rank([pattern_R(n, i).bits for i in range(1, n + 1)], dim) == n

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            pattern_E(3, 4)
        with pytest.raises(ValueError):
            pattern_R(3, 0)
        with pytest.raises(ValueError):
            pattern_P(5, 3)


class TestHexGraph:
    def test_n3_is_triangle(self):
        g = hex_graph(3)
        assert g.vertex_count == 3
        assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}

    def test_n2_single_vertex(self):
        g = hex_graph(2)
        assert g.vertex_count == 1 and g.edges == ()

    @pytest.mark.parametrize("n", range(2, 65))
    def test_matches_the_six_neighbor_rule(self, n):
        # reference: cell (i, j) neighbors whichever of the six offsets
        # lie in the order n-1 shape
        shape = TriShape(n - 1)
        offsets = ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1))
        masks = [sum(1 << shape.index(i + di, j + dj) for di, dj in offsets
                     if shape.contains(i + di, j + dj)) for i, j in shape.cells]
        g = hex_graph(n)
        assert isinstance(g, Graph) and HexGraph is Graph
        assert g.vertex_count == shape.dim
        assert list(g.neighbor_masks) == masks
        assert list(g.edges) == sorted((u, v) for u, mask in enumerate(masks)
                                       for v in range(u + 1, shape.dim) if mask >> v & 1)
        assert g.labels == tuple(f"({i},{j})" for i, j in shape.cells)
        assert [g.degree(v) for v in range(g.vertex_count)] == [m.bit_count() for m in masks]
        assert hex_lattice_graph(n) == g

    @pytest.mark.parametrize("idx", [-1, -6, 6, 7])
    def test_degree_rejects_an_index_outside_the_vertices(self, idx):
        # a negative index would otherwise count back from the last vertex
        g = hex_graph(4)
        assert g.vertex_count == 6
        with pytest.raises(IndexError, match=rf"^vertex {idx} out of range 0\.\.5$"):
            g.degree(idx)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_degrees(self, n):
        g = hex_graph(n)
        degs = sorted(g.degree(v) for v in range(g.vertex_count))
        assert degs[:3] == [2, 2, 2]          # the three corners
        assert set(degs) <= {2, 4, 6}
        m = n - 1
        boundary_interior = 3 * (m - 2)       # non-corner boundary cells
        assert degs.count(4) == boundary_interior
        assert degs.count(6) == g.vertex_count - 3 - boundary_interior

    @pytest.mark.parametrize("n", range(2, 10))
    def test_kernel_dim_is_floor_n_over_2(self, n):
        space = neighbor_space(n)
        assert space.kappa == n // 2


class TestPPatterns:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_kernel_membership_and_independence(self, n):
        space = neighbor_space(n)
        k = n // 2
        dim = space.dim
        kernel_bits = [b.bits for b in space.kernel]
        ps = [pattern_P(n, i).bits for i in range(1, k + 1)]
        assert _rank(ps, dim) == k
        for p in ps:
            assert _rank(kernel_bits + [p], dim) == k  # p lies in the kernel span

    def test_n3_full_shape(self):
        assert pattern_P(3, 1).bits == 0b111

    def test_n4_corner_cells(self):
        assert pattern_P(4, 1).support() == ((1, 1), (1, 3), (3, 3))
        assert pattern_P(4, 2).data.weight() == 6

    def test_ptilde_first_equals_p(self):
        for n in (3, 4, 5, 6):
            assert pattern_Ptilde(n, 1).bits == pattern_P(n, 1).bits

    @pytest.mark.parametrize("n", range(3, 10))
    def test_ptilde_q_values(self, n):
        space = neighbor_space(n)
        k = n // 2
        vals = [q_eval(space, pattern_Ptilde(n, i).data) for i in range(1, k + 1)]
        if n % 2:
            assert vals == [0] * k
        else:
            assert vals == [1] * (k - 1) + [k % 2]

    @pytest.mark.parametrize("n", range(2, 33))
    def test_P_is_the_hexagonal_layer_construction(self, n):
        for i in range(1, n // 2 + 1):
            assert pattern_P(n, i).bits == hexagonal_layer_P(n, i), (n, i)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_ptilde_is_the_radical_echelon_basis(self, n):
        k = n // 2
        pt = [pattern_Ptilde(n, i).bits for i in range(1, k + 1)]
        pivots = [v.bit_length() - 1 for v in pt]
        assert pivots == sorted(pivots, reverse=True) and len(set(pivots)) == k
        for v in pt:
            assert sum(w >> (v.bit_length() - 1) & 1 for w in pt) == 1  # reduced
        assert _rank(pt, TriShape(n - 1).dim) == k
        assert _echelon(pt) == pt[::-1] == [b.bits for b in neighbor_space(n).kernel]


class TestMaps:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_psi_kills_exactly_the_diagonals(self, n):
        for i in range(1, n + 1):
            assert psi(pattern_E(n, i)).bits == 0
        # kernel dim == n, i.e. nothing else dies
        assert _rank(list(psi_masks(n)), TriShape(n).dim) == TriShape(n).dim - n

    @pytest.mark.parametrize("n", range(2, 8))
    def test_psi_surjective(self, n):
        out_dim = TriShape(n - 1).dim
        assert _rank(list(psi_masks(n)), TriShape(n).dim) == out_dim

    def test_psi_single_cell(self):
        m = TriMatrix.from_cells(3, [(1, 1)])
        assert psi(m).support() == ((1, 1),)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_phi_kills_exactly_the_rectangles(self, n):
        for i in range(1, n + 1):
            assert phi(pattern_R(n, i)).bits == 0
        assert _rank(list(phi_masks(n)), TriShape(n).dim) == TriShape(n).dim - n

    def test_phi_single_cell(self):
        m = TriMatrix.from_cells(3, [(1, 1)])
        assert phi(m).support() == ((1, 1),)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_phi_star_adjoint_and_injective(self, n):
        in_dim = TriShape(n - 1).dim
        images = set()
        for _ in range(300):
            mp = TriMatrix.from_bits(n, rng.randrange(1 << TriShape(n).dim))
            x = TriMatrix.from_bits(n - 1, rng.randrange(1 << in_dim))
            assert couple(phi(mp), x) == couple(mp, phi_star(x))
        for xb in range(1 << in_dim):
            images.add(phi_star(TriMatrix.from_bits(n - 1, xb)).bits)
        assert len(images) == 1 << in_dim

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_phi_star_image_orthogonal_to_R(self, n):
        for _ in range(100):
            x = TriMatrix.from_bits(n - 1, rng.randrange(1 << TriShape(n - 1).dim))
            y = phi_star(x)
            for i in range(1, n + 1):
                assert couple(y, pattern_R(n, i)) == 0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_phi_star_is_the_four_cell_rule(self, n):
        shape = TriShape(n - 1)
        xs = [TriMatrix.from_cells(n - 1, [c]) for c in shape.cells]
        xs += [TriMatrix.from_bits(n - 1, rng.randrange(1 << shape.dim)) for _ in range(20)]
        for x in xs:
            assert phi_star(x).bits == phi_star_four_cell(x)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            psi(TriMatrix.zeros(1))
        with pytest.raises(ValueError):
            phi(TriMatrix.zeros(1))


@pytest.mark.parametrize("call,match", [
    (lambda: TriShape(0), "order must be positive, got 0"),
    (lambda: TriMatrix(TriShape(2), F2Vector(2, 0)), "vector length 2 does not match shape dim 3"),
    (lambda: couple(TriMatrix.zeros(2), TriMatrix.zeros(3)), "coupling requires equal orders"),
    (lambda: Graph(3, ((2, 1),)), r"edge \(2, 1\) must be listed as \(min, max\)"),
], ids=["shape-order", "matrix-length", "couple-orders", "graph-edge-order"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_sum_of_matrices_is_the_xor_of_their_cells():
    a = TriMatrix.from_cells(3, [(1, 1), (1, 2)])
    b = TriMatrix.from_cells(3, [(1, 2), (3, 3)])
    for total in (a ^ b, a + b):
        assert total.shape == a.shape and total.support() == ((1, 1), (3, 3))
    assert (a + a).bits == 0 and a ^ TriMatrix.zeros(3) == a
    for add in (TriMatrix.__xor__, TriMatrix.__add__):
        with pytest.raises(ValueError, match="shape mismatch"):
            add(a, TriMatrix.zeros(2))


def test_adjacent_reads_each_edge_both_ways():
    g = Graph.from_edge_list(4, [(0, 1), (2, 1)])
    assert [(u, v) for u in range(4) for v in range(4) if g.adjacent(u, v)] == \
        [(0, 1), (1, 0), (1, 2), (2, 1)]
