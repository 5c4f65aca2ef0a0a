"""Graph-driven transvection groups: closures, the lattice conditions,
E6 detection, and the nonspecial census oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2orbits.f2la import _rank, q_eval
from f2orbits.lattice import (Graph, NonspecialityUnknown, _closure_bitmap, build,
                              check_vanishing, contains_e6, delta_closure,
                              e6_graph, hex_lattice_graph,
                              induced_basis_graph, parse_graph_file,
                              predict_census_nonspecial)
from f2orbits.orbits import enumerate_orbits, orbit_of


def triangle() -> Graph:
    return Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])


class TestBuild:
    def test_triangle_form(self):
        spec = build(triangle())
        assert spec.form.rows == (0b110, 0b101, 0b011)
        assert spec.qspace.basis_values == 0b111

    def test_hex_matches_second_conjugate_space(self):
        spec = build(hex_lattice_graph(5))
        assert spec.state_dim == 10
        assert spec.qspace.kappa == 2

    @pytest.mark.parametrize("n", range(2, 8))
    def test_hex_lattice_is_the_second_conjugate_action(self, n):
        # same generator family, mask for mask
        from f2orbits.actions import ActionKind, ActionSpec, generator_masks
        spec = build(hex_lattice_graph(n))
        action = ActionSpec(n, ActionKind.SECOND_CONJUGATE)
        assert spec.masked_generators() == generator_masks(action)

    def test_two_path_is_hyperbolic(self):
        spec = build(Graph.from_edge_list(2, [(0, 1)]))
        assert spec.qspace.kappa == 0 and spec.qspace.m == 1

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            build(triangle(), [])

    def test_bad_subset_rejected(self):
        with pytest.raises(ValueError):
            build(triangle(), [0, 7])


class TestDeltaClosure:
    def test_triangle(self):
        dc = delta_closure(build(triangle()))
        # exactly the six vectors where q = 1 (weights 1 and 2)
        assert sorted(v.bits for v in dc.vectors) == [1, 2, 3, 4, 5, 6]
        assert dc.single_orbit

    def test_single_vertex(self):
        dc = delta_closure(build(Graph.from_edge_list(1, [])))
        assert sorted(v.bits for v in dc.vectors) == [1]
        assert dc.single_orbit

    def test_hex_n4_links_all_basis_vectors(self):
        spec = build(hex_lattice_graph(4))
        dc = delta_closure(spec)
        members = {v.bits for v in dc.vectors}
        assert dc.single_orbit
        assert all((1 << b) in members for b in range(6))

    def test_separate_fixed_basis_vectors(self):
        # e0 and e2 are even against both conditions (e1 and 0): two fixed points
        dc = delta_closure(build(Graph.from_edge_list(3, [(0, 1)]), [0, 2]))
        assert sorted(v.bits for v in dc.vectors) == [1, 4]
        assert dc.single_orbit is False

    def test_closure_stays_inside_q1(self):
        spec = build(hex_lattice_graph(4))
        space = spec.qspace
        for v in delta_closure(spec).vectors:
            assert q_eval(space, v) == 1


class TestCheckVanishing:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_hex_families(self, n):
        report = check_vanishing(build(hex_lattice_graph(n)))
        assert report.is_vanishing_lattice

    def test_triangle(self):
        assert check_vanishing(build(triangle())).is_vanishing_lattice

    def test_edgeless_two_vertices(self):
        report = check_vanishing(build(Graph.from_edge_list(2, [])))
        assert not report.pair_ok
        assert not report.orbit_ok  # two separate fixed basis vectors

    def test_subset_that_does_not_generate(self):
        spec = build(Graph.from_edge_list(3, [(0, 1)]), [0, 1])
        report = check_vanishing(spec)
        assert not report.generates_ok


@st.composite
def graphs_with_subsets(draw):
    dim = draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    edges = [p for p in pairs if draw(st.booleans())]
    subset_mask = draw(st.integers(min_value=1, max_value=(1 << dim) - 1))
    return build(Graph.from_edge_list(dim, edges),
                 [v for v in range(dim) if subset_mask >> v & 1])


@settings(max_examples=80, deadline=None)
@given(graphs_with_subsets())
def test_generates_ok_is_the_rank_of_the_closure(spec):
    states = [int(s) for s in np.flatnonzero(_closure_bitmap(spec)[0])]
    spans = _rank(states, spec.state_dim) == spec.state_dim
    assert check_vanishing(spec).generates_ok == spans


@settings(max_examples=60, deadline=None)
@given(graphs_with_subsets())
def test_single_orbit_agrees_with_orbit_queries(spec):
    reps = {orbit_of(spec, 1 << b).representative for b in spec.basis_subset}
    assert delta_closure(spec).single_orbit is (len(reps) == 1)
    assert check_vanishing(spec).orbit_ok is (len(reps) == 1)


class TestE6Detection:
    def test_e6_itself(self):
        assert contains_e6(e6_graph())

    def test_small_graphs_cannot_contain_it(self):
        for n in range(1, 6):
            g = Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
            assert not contains_e6(g)

    def test_hex4_contains_e6(self):
        assert contains_e6(hex_lattice_graph(5))

    def test_hex3_does_not(self):
        assert not contains_e6(hex_lattice_graph(4))

    def test_six_path_does_not(self):
        g = Graph.from_edge_list(6, [(i, i + 1) for i in range(5)])
        assert not contains_e6(g)

    def test_e6_plus_noise_edges(self):
        # E6 with an extra isolated vertex and a chord far away
        g = Graph.from_edge_list(8, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (6, 7)])
        assert contains_e6(g)

    def test_hex8(self):
        assert contains_e6(hex_lattice_graph(9))


class TestNonspecialOracle:
    @pytest.mark.parametrize("n,orbits", [(5, 6), (6, 10)])
    def test_hex_prediction_matches_enumeration(self, n, orbits):
        spec = build(hex_lattice_graph(n))
        pred = predict_census_nonspecial(spec)
        enum = enumerate_orbits(spec, workers=1)
        assert pred.orbit_count == orbits == enum.orbit_count
        assert [(r.representative.bits, r.cardinality) for r in pred.records] == \
            [(r.representative.bits, r.cardinality) for r in enum.records]

    def test_e6_graph_prediction(self):
        spec = build(e6_graph())
        pred = predict_census_nonspecial(spec)
        assert spec.qspace.kappa == 0
        assert pred.orbit_count == 3
        enum = enumerate_orbits(spec, workers=1)
        assert pred.cardinality_multiset() == enum.cardinality_multiset()
        assert [(r.representative.bits, r.cardinality) for r in pred.records] == \
            [(r.representative.bits, r.cardinality) for r in enum.records]

    def test_kernel_points_are_singletons(self):
        spec = build(hex_lattice_graph(5))
        pred = predict_census_nonspecial(spec)
        singles = [r.representative.bits for r in pred.records if r.cardinality == 1]
        assert len(singles) == 1 << spec.qspace.kappa
        kernel_span = {0}
        for b in spec.qspace.kernel:
            kernel_span |= {x ^ b.bits for x in kernel_span}
        assert set(singles) == kernel_span

    def test_refuses_without_e6(self):
        with pytest.raises(NonspecialityUnknown):
            predict_census_nonspecial(build(triangle()))

    def test_subset_graph_is_what_matters(self):
        spec = build(hex_lattice_graph(5), [0, 1, 2])
        with pytest.raises(NonspecialityUnknown):
            predict_census_nonspecial(spec)
        assert induced_basis_graph(spec).vertex_count == 3


class TestGraphFile:
    def test_round_trip(self):
        text = "# demo\n3 3\n0 1\n1 2\n0 2\n"
        spec = parse_graph_file(text)
        assert spec.state_dim == 3 and len(spec.graph.edges) == 3
        assert spec.basis_subset == (0, 1, 2)

    def test_subset_line(self):
        spec = parse_graph_file("3 1\n0 1\nB: 0 2\n")
        assert spec.basis_subset == (0, 2)

    @pytest.mark.parametrize("text", [
        "",
        "3\n",
        "3 2\n0 1\n",
        "2 1\n0 5\n",
        "2 1\n0 zero\n",
        "2 1\n0 1\nB: 9\n",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_graph_file(text)
