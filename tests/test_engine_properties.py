"""Engine-level properties on random inputs: the census is a partition
into genuinely closed classes, representatives are minima, and the
single-orbit query agrees with the full census on every path."""

import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from f2orbits.f2la import _nullspace, _parity
from f2orbits.lattice import Graph, build, hex_lattice_graph
from f2orbits import orbits
from f2orbits.orbits import enumerate_orbits, orbit_of


@st.composite
def small_lattices(draw):
    dim = draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    edges = [p for p in pairs if draw(st.booleans())]
    graph = Graph.from_edge_list(dim, edges)
    subset_mask = draw(st.integers(min_value=1, max_value=(1 << dim) - 1))
    subset = [v for v in range(dim) if subset_mask >> v & 1]
    return build(graph, subset)


def union_find_classes(spec) -> list[list[int]]:
    """Every orbit as its ascending members, by union-find over the
    generator edges."""
    dim = spec.state_dim
    gens = spec.masked_generators()
    labels = list(range(1 << dim))

    def find(x):
        while labels[x] != x:
            labels[x] = labels[labels[x]]
            x = labels[x]
        return x

    for x in range(1 << dim):
        for cond, foot in gens:
            if _parity(x & cond):
                a, b = find(x), find(x ^ foot)
                if a != b:
                    labels[max(a, b)] = min(a, b)
    classes = {}
    for x in range(1 << dim):
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def union_find_orbits(spec) -> list[tuple[int, int]]:
    """(minimum, size) of every orbit, by union-find over the generator edges."""
    return sorted((v[0], len(v)) for v in union_find_classes(spec))


def translation_dim(spec) -> int:
    return len(_nullspace([cond for cond, _ in spec.masked_generators()], spec.state_dim))


@settings(max_examples=60, deadline=None)
@given(small_lattices())
def test_census_is_a_partition_into_closed_classes(spec):
    census = enumerate_orbits(spec, workers=1)
    dim = spec.state_dim
    assert sum(r.cardinality for r in census.records) == 1 << dim
    # recover explicit orbits by union-find over the generator edges
    expected = union_find_orbits(spec)
    got = sorted((r.representative.bits, r.cardinality) for r in census.records)
    assert got == expected


@st.composite
def lattices_with_translations(draw):
    """A random graph plus a twin of vertex 0 (same neighbors, not adjacent
    to it), so e_0 + e_twin commutes with every transvection: dim K >= 1."""
    dim = draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    edges = [p for p in pairs if draw(st.booleans())]
    edges += [(v, dim) for u, v in edges if u == 0]
    graph = Graph.from_edge_list(dim + 1, edges)
    subset_mask = draw(st.integers(min_value=1, max_value=(1 << (dim + 1)) - 1))
    return build(graph, [v for v in range(dim + 1) if subset_mask >> v & 1])


@settings(max_examples=60, deadline=None)
@given(lattices_with_translations())
def test_lifted_census_matches_union_find(spec):
    assert translation_dim(spec) >= 1
    census = enumerate_orbits(spec, workers=1)
    got = sorted((r.representative.bits, r.cardinality) for r in census.records)
    assert got == union_find_orbits(spec)


def path_graph(v: int) -> Graph:
    return Graph.from_edge_list(v, [(i, i + 1) for i in range(v - 1)])


# in P3 with B = {0, 2} the footprints lie in K: every edge of a flood is a
# self-loop with voltage, its frontier empties at once, and S = K
@pytest.mark.parametrize("spec", [build(path_graph(v)) for v in (1, 3, 5, 7, 9)]
                         + [build(path_graph(3), [0, 2])]
                         + [build(hex_lattice_graph(n)) for n in (3, 4, 5, 6)],
                         ids=lambda spec: spec.describe())
def test_lifted_lattices_match_union_find(spec):
    assert translation_dim(spec) >= 1
    census = enumerate_orbits(spec, workers=1)
    got = sorted((r.representative.bits, r.cardinality) for r in census.records)
    assert got == union_find_orbits(spec)


@settings(max_examples=30, deadline=None)
@given(small_lattices(), st.integers(min_value=0))
def test_orbit_of_agrees_with_census(spec, raw_state):
    state = raw_state % (1 << spec.state_dim)
    census = enumerate_orbits(spec, workers=1)
    rec = orbit_of(spec, state)
    match = [r for r in census.records if r.representative.bits == rec.representative.bits]
    assert len(match) == 1
    assert match[0].cardinality == rec.cardinality


@settings(max_examples=60, deadline=None)
@given(lattices_with_translations(), st.integers(min_value=0))
def test_orbit_of_any_member_matches_union_find(spec, raw_state):
    # every member of a lifted orbit, not only its representative, maps to
    # its class: orbits over one base orbit share a size, so a wrong coset
    # would show only in the representative
    state = raw_state % (1 << spec.state_dim)
    members = next(v for v in union_find_classes(spec) if state in v)
    rec = orbit_of(spec, state)
    assert (rec.representative.bits, rec.cardinality) == (members[0], len(members))


def test_orbit_of_whole_space_fallback():
    # a big orbit of a lattice (no height decomposition, dim K >= 1): the
    # query floods its base orbit of V/K and lifts it
    spec = build(hex_lattice_graph(7))
    assert spec.state_dim == 21
    rec = orbit_of(spec, 1 << 9)
    census = enumerate_orbits(spec, workers=1)
    match = [r for r in census.records if r.representative.bits == rec.representative.bits]
    assert len(match) == 1 and match[0].cardinality == rec.cardinality
    assert rec.cardinality > 1 << 16


def test_lattice_census_json_has_null_action_fields():
    spec = build(hex_lattice_graph(4))
    doc = json.loads(enumerate_orbits(spec, workers=1).to_json())
    assert doc["n"] is None and doc["kind"] is None
    assert doc["total_states"] == 64
    assert all(o["height_bits"] is None for o in doc["orbits"])


def generator_closure(spec, state: int) -> list[int]:
    """The orbit of one state as its ascending members, by a set search
    over the generator edges."""
    seen, todo = {state}, [state]
    while todo:
        x = todo.pop()
        for cond, foot in spec.masked_generators():
            if _parity(x & cond) and x ^ foot not in seen:
                seen.add(x ^ foot)
                todo.append(x ^ foot)
    return sorted(seen)


@pytest.mark.parametrize("subset", [[0], [4], [0, 1, 2], [3, 9, 17]])
def test_orbit_of_small_orbit_under_large_translation_group(subset):
    # 28 vertices and a few generators leave dim K >= 25: the query lifts
    # only the state's own orbit, not one per coset of S in K
    spec = build(hex_lattice_graph(8), subset)
    assert spec.state_dim == 28 and translation_dim(spec) >= 28 - len(subset)
    rng = random.Random(7)
    states = [0, 1, (1 << 28) - 1] + [rng.getrandbits(28) for _ in range(20)]
    t0 = time.perf_counter()
    got = [orbit_of(spec, x) for x in states]
    assert time.perf_counter() - t0 < 2.0
    for x, rec in zip(states, got):
        members = generator_closure(spec, x)
        assert (rec.representative.bits, rec.cardinality) == (members[0], len(members))


def quotient_lattices(seed: int, count: int) -> list:
    """Seeded random graph lattices of dimension at most 14 whose
    translation group K has dimension at least 2: a random graph plus
    two twins (a copy of a vertex's neighbors), with B every vertex for
    even indices and a random subset for odd ones."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(6, 12)
        p = rng.uniform(0.2, 0.6)
        edges = [(u, v) for u in range(dim) for v in range(u + 1, dim) if rng.random() < p]
        for twin in (dim, dim + 1):
            v = rng.randrange(dim)
            edges += [(u, twin) for u, w in edges if w == v] + [(w, twin) for u, w in edges
                                                                 if u == v]
        subset = [v for v in range(dim + 2) if rng.random() < 0.8] if len(out) % 2 else None
        spec = build(Graph.from_edge_list(dim + 2, edges), subset or None)
        if translation_dim(spec) >= 2:
            out.append(spec)
    return out


QUOTIENT_LATTICES = quotient_lattices(3901, 12)
QUOTIENT_IDS = [f"lattice-{i}" for i in range(len(QUOTIENT_LATTICES))]


@pytest.fixture
def closing_ranks(monkeypatch):
    """A list of (dim R, rank S) at the end of every closure with planes."""
    ranks = []
    close = orbits._close

    def recorded(job, seed, frontier, size, maps, span):
        out = close(job, seed, frontier, size, maps, span)
        if span.dim:
            ranks.append((span.dim, len(span.basis)))
        return out

    monkeypatch.setattr(orbits, "_close", recorded)
    yield ranks


@pytest.mark.parametrize("spec", QUOTIENT_LATTICES, ids=QUOTIENT_IDS)
def test_quotient_census_equals_the_search_of_v(spec):
    # the search of V/K, its cycle spans carried modulo S and its lifts,
    # against the search of V itself through no translations
    assert enumerate_orbits(spec, workers=1).to_json() == \
        orbits._census(spec, 1, translations=()).to_json()


def test_quotient_lattices_fill_their_spans_and_fall_short(closing_ranks):
    # the lattices above cover closures whose span S fills R and ones
    # where it stays short
    for spec in QUOTIENT_LATTICES:
        enumerate_orbits(spec, workers=1)
    assert any(rank == k for k, rank in closing_ranks)
    assert any(0 < rank < k for k, rank in closing_ranks)


@pytest.mark.parametrize("spec", QUOTIENT_LATTICES, ids=QUOTIENT_IDS)
def test_quotient_orbit_of_agrees_with_the_census(spec):
    records = {(r.representative.bits, r.cardinality)
               for r in enumerate_orbits(spec, workers=1).records}
    rng = random.Random(spec.state_dim)
    for state in [0, (1 << spec.state_dim) - 1] + [rng.getrandbits(spec.state_dim)
                                                   for _ in range(8)]:
        members = generator_closure(spec, state)
        rec = orbit_of(spec, state)
        assert (rec.representative.bits, rec.cardinality) == (members[0], len(members))
        assert (members[0], len(members)) in records
