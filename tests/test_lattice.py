"""Graph-driven transvection groups: closures, the lattice conditions,
E6 detection, and the nonspecial census oracle."""

import io
import random
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import f2orbits
from f2orbits import lattice
from f2orbits.f2la import _rank
from f2orbits.lattice import (Graph, NonspecialityUnknown, _connected, build,
                              check_vanishing, contains_e6, delta_closure,
                              e6_graph, hex_lattice_graph,
                              induced_basis_graph, parse_graph_file,
                              predict_census_nonspecial)
from f2orbits.orbits import EnumerationGuardError, enumerate_orbits, orbit_of


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

    @pytest.mark.parametrize("n", range(2, 13))
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

    def test_graph_without_vertices_rejected(self):
        # the default subset of a graph with no vertices is empty too
        with pytest.raises(ValueError, match="nonempty"):
            build(Graph.from_edge_list(0, []))

    def test_bad_subset_rejected(self):
        with pytest.raises(ValueError):
            build(triangle(), [0, 7])

    def test_negative_vertex_count_rejected(self):
        # refused by the graph itself, not later as an empty subset
        with pytest.raises(ValueError, match=r"^vertex count must be nonnegative, got -1$"):
            Graph(-1, ())

    def test_empty_label_list_is_checked(self):
        # an empty list is a label list of the wrong length, not "no labels"
        with pytest.raises(ValueError, match="^label count does not match vertex count$"):
            Graph.from_edge_list(3, [(0, 1)], labels=[])
        assert Graph.from_edge_list(0, [], labels=[]).labels == ()


class TestDeltaClosure:
    def test_triangle(self):
        dc = delta_closure(build(triangle()))
        # exactly the six vectors where q = 1 (weights 1 and 2)
        assert dc.vectors.tolist() == [1, 2, 3, 4, 5, 6]
        assert dc.single_orbit

    def test_single_vertex(self):
        dc = delta_closure(build(Graph.from_edge_list(1, [])))
        assert dc.vectors.tolist() == [1]
        assert dc.single_orbit

    def test_hex_n4_links_all_basis_vectors(self):
        spec = build(hex_lattice_graph(4))
        dc = delta_closure(spec)
        members = set(dc.vectors.tolist())
        assert dc.single_orbit
        assert all((1 << b) in members for b in range(6))

    def test_separate_fixed_basis_vectors(self):
        # e0 and e2 are even against both conditions (e1 and 0): two fixed points
        dc = delta_closure(build(Graph.from_edge_list(3, [(0, 1)]), [0, 2]))
        assert dc.vectors.tolist() == [1, 4]
        assert dc.single_orbit is False

    def test_closure_stays_inside_q1(self):
        spec = build(hex_lattice_graph(4))
        space = spec.qspace
        for s in delta_closure(spec).vectors.tolist():
            assert space.q_bits(s) == 1

    def test_peak_memory_near_the_result(self):
        # kappa = 0 on 22 vertices: about 2^21 closure states, 8 MiB of uint32
        rng = random.Random(22)
        while True:
            edges = [(i, j) for i in range(22) for j in range(i + 1, 22) if rng.random() < 0.3]
            spec = build(Graph.from_edge_list(22, edges))
            if _connected(spec.graph) and spec.qspace.kappa == 0:
                break
        tracemalloc.start()
        try:
            dc = delta_closure(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dc.vectors.size >= 1 << 20
        assert peak <= 14 << 20


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

    @pytest.mark.parametrize("n", range(9, 13))
    def test_large_hex_families_without_a_flood(self, n, monkeypatch):
        # 36 to 66 vertices: far past the enumeration guard
        def boom(spec, seeds):
            raise AssertionError("check_vanishing flooded the closure")
        # delta_closure imports the search from orbits when called
        monkeypatch.setattr("f2orbits.orbits._closure", boom)
        start = time.perf_counter()
        assert check_vanishing(build(hex_lattice_graph(n))).is_vanishing_lattice
        assert time.perf_counter() - start < 1.0


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
    states = delta_closure(spec).vectors.tolist()
    spans = _rank(states, spec.state_dim) == spec.state_dim
    assert check_vanishing(spec).generates_ok == spans


@settings(max_examples=60, deadline=None)
@given(graphs_with_subsets())
def test_single_orbit_agrees_with_orbit_queries(spec):
    reps = {orbit_of(spec, 1 << b).representative for b in spec.basis_subset}
    assert delta_closure(spec).single_orbit is (len(reps) == 1)
    assert check_vanishing(spec).orbit_ok is (len(reps) == 1)


@settings(max_examples=60, deadline=None)
@given(graphs_with_subsets())
def test_graph_conditions_match_the_closure(spec):
    # the reference scan: some closure states s, t with <s, t> = 1
    states = delta_closure(spec).vectors
    coupled = any(np.any(np.bitwise_count(states & np.uint32(spec.form.pairing_mask(int(s)))) & 1)
                  for s in states)
    assert check_vanishing(spec).pair_ok is (spec.state_dim <= 1 or coupled)
    sizes = {}
    for b in spec.basis_subset:
        record = orbit_of(spec, 1 << b)
        sizes[record.representative] = record.cardinality
    assert len(delta_closure(spec).vectors) == sum(sizes.values())


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

    @staticmethod
    def brute_force_e6(graph: Graph) -> bool:
        # some 6 vertices induce a connected graph with 5 edges whose one
        # degree-3 vertex has neighbors of degrees 1, 2 and 2
        adj = graph.neighbor_masks
        for subset in combinations(range(graph.vertex_count), 6):
            inside = sum(1 << v for v in subset)
            degree = {v: (adj[v] & inside).bit_count() for v in subset}
            if sum(degree.values()) != 10:
                continue
            reached = todo = 1 << subset[0]
            while todo:
                v = todo.bit_length() - 1
                todo ^= 1 << v
                fresh = adj[v] & inside & ~reached
                reached |= fresh
                todo |= fresh
            hubs = [v for v in subset if degree[v] == 3]
            if reached == inside and len(hubs) == 1 and sorted(
                    degree[u] for u in subset if adj[hubs[0]] >> u & 1) == [1, 2, 2]:
                return True
        return False

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(18)
        found = set()
        for _ in range(400):
            n = rng.randint(6, 10)
            density = rng.choice([0.2, 0.3, 0.45, 0.6, 0.8])
            g = Graph.from_edge_list(n, [e for e in combinations(range(n), 2)
                                         if rng.random() < density])
            expected = self.brute_force_e6(g)
            assert contains_e6(g) is expected, g.edges
            found.add(expected)
        assert found == {True, False}

    @pytest.mark.parametrize("m", range(3, 7))
    def test_complete_bipartite_has_none(self, m):
        # every vertex centers a claw, yet no arm can avoid the pendant
        g = Graph.from_edge_list(2 * m, [(i, m + j) for i in range(m) for j in range(m)])
        assert not self.brute_force_e6(g)
        assert not contains_e6(g)


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

    @pytest.mark.parametrize("edges,vertices,subset,failed", [
        ([(4, 6)], 7, range(6), "generates_ok"),  # a pendant edge off B
        ([], 7, None, "orbit_ok"),  # an isolated vertex
        ([(6, 7)], 8, None, "orbit_ok"),  # a disjoint edge
    ], ids=["pendant-off-B", "isolated-vertex", "disjoint-edge"])
    def test_refuses_outside_a_vanishing_lattice(self, edges, vertices, subset, failed):
        # E6 is induced on B, but the theorem needs a vanishing lattice:
        # these censuses have 6 orbits, not the 2^kappa + 2 predicted
        graph = Graph.from_edge_list(vertices, list(e6_graph().edges) + edges)
        spec = build(graph, subset)
        assert contains_e6(induced_basis_graph(spec))
        assert enumerate_orbits(spec, workers=1).orbit_count == 6
        with pytest.raises(NonspecialityUnknown, match=f"vanishing lattice: {failed}"):
            predict_census_nonspecial(spec)

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

    # (text, match): a last line that starts with B or b is the subset
    # line, even with no space after its colon
    MALFORMED = [
        ("", None),
        ("3\n", None),
        ("3 2\n0 1\n", None),
        ("2 1\n0 5\n", None),
        ("2 1\n0 zero\n", None),
        ("2 1\n0 1\nB: 9\n", None),
        ("2 1\n0 0\n", None),
        ("2 2\n0 1\n1 0\n", None),
        ("2 1\n0 1 1\n", None),
        ("2 1\n0 1\nB: x\n", None),
        ("2 1\n0 1\nB:1 2\n", "bad subset line 'B:1 2'"),
    ]

    @pytest.mark.parametrize("text,match", MALFORMED, ids=[text for text, _ in MALFORMED])
    def test_malformed_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_graph_file(text)

    def test_over_guard_header_refused_before_any_vertex(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("built before the size guard")
        monkeypatch.setattr(Graph, "from_edge_list", boom)
        monkeypatch.setattr(lattice, "build", boom)
        # the engine's class and the package's name are one object
        for guard in (EnumerationGuardError, f2orbits.EnumerationGuardError):
            with pytest.raises(guard) as refused:
                parse_graph_file("29 0\n")
            assert str(refused.value) == ("state space 2^29 exceeds the enumeration guard "
                                          "2^28 (visited map alone would need 2^6 MiB)")


def _parse_outcome(text):
    try:
        return parse_graph_file(text).basis_subset
    except (ValueError, EnumerationGuardError) as exc:
        return type(exc)


_SOUP = st.one_of(st.integers(-3, 40).map(str), st.text(max_size=3),
                  st.sampled_from(["B", "b", "B:", "b:", ":", "B::", "#", "0x1", "1e3",
                                   "99999", "+2", "1_0", "B:0"]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_SOUP, max_size=4).map(" ".join), max_size=6),
       st.lists(st.integers(-1, 3).map(str), max_size=4))
def test_graph_file_token_soup(lines, vertices):
    # anything else escaping is a parser bug: only these two may
    _parse_outcome("\n".join(lines))
    spellings = {_parse_outcome(f"3 1\n0 1\n{marker} {' '.join(vertices)}\n")
                 for marker in ("B:", "B", "B :", "b:")}
    assert len(spellings) == 1


_PIECES = st.sampled_from(["0", "1", "12", " ", "  ", "\t", "\x1f", "#", "# c", "B:", "\n",
                           "\r", "\r\n", "\v", "\x1c", "\x85", "\u2028"])


@settings(max_examples=150, deadline=None)
@given(st.lists(_PIECES, max_size=40).map("".join), st.integers(8, 24))
def test_graph_file_chunks_keep_the_tokens(text, chunk):
    # a file read chunk characters at a time yields the lines of the
    # whole string, token for token, once comments are cut
    assume(all(len(line) <= chunk for line in text.splitlines()))

    def tokens(raw_lines):
        return [toks for raw in raw_lines if (toks := raw.split("#", 1)[0].split())]

    assert (tokens(lattice._raw_lines(io.StringIO(text, newline=""), chunk))
            == tokens(text.splitlines()))


def test_graph_file_accepts_an_open_file():
    text = "3 1  # a triangle's one edge\n0 1\nB: 0 2\n"
    assert parse_graph_file(io.StringIO(text)) == parse_graph_file(text)


def test_graph_file_line_longer_than_a_chunk_is_refused():
    with pytest.raises(ValueError, match="line longer than 8 characters"):
        list(lattice._raw_lines(io.StringIO("1" * 20 + "\n"), 8))
