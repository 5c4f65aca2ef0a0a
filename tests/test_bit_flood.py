"""The bitset flood of K = 0 searches: its word-level pieces, and byte
equality of every query with each level forced dense or forced sparse."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f2orbits import orbits
from f2orbits.actions import ActionKind, ActionSpec, height_functionals
from f2orbits.f2la import F2Vector, _nullspace, _parity
from f2orbits.lattice import Graph, build, delta_closure
from f2orbits.orbits import enumerate_orbits, enumerate_stratum, orbit_of

SMALL_SPECS = [ActionSpec(n, kind) for kind in ActionKind for n in range(2, 7)]


def words_for(dim: int) -> int:
    return max(1, 1 << dim >> 6)


@st.composite
def bitset_states(draw):
    dim = draw(st.integers(min_value=0, max_value=12))
    states = draw(st.sets(st.integers(min_value=0, max_value=(1 << dim) - 1), max_size=300))
    return dim, np.array(sorted(states), dtype=np.uint32)


@settings(max_examples=150, deadline=None)
@given(bitset_states(), st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_p_foot_is_index_xor(case, foot):
    dim, states = case
    foot &= (1 << dim) - 1
    moved = orbits._p_foot(orbits._bitset(states, words_for(dim)), foot)
    assert orbits._members(moved).tolist() == sorted(int(s) ^ foot for s in states)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=(1 << 12) - 1),
       st.integers(min_value=0, max_value=1))
def test_odd_words_follow_the_parity_rule(dim, cond, const):
    cond &= (1 << dim) - 1
    words = words_for(dim)
    odd = orbits._members(orbits._odd_words(cond, const, words)).tolist()
    assert odd == [x for x in range(64 * words) if _parity(x & cond) ^ const]


@settings(max_examples=150, deadline=None)
@given(bitset_states())
def test_sparse_dense_sparse_round_trip(case):
    dim, states = case
    bits = orbits._bitset(states, words_for(dim))
    assert int(np.bitwise_count(bits).sum()) == states.size
    assert np.array_equal(orbits._members(bits), states)


def test_dense_steps_only_on_maps_of_64_words():
    # below 2^12 states a dense step costs more than the gathers it saves
    assert not orbits._dense(1000, 8)
    assert not orbits._dense(63, 63)
    assert not orbits._dense(63, 64)
    assert orbits._dense(64, 64)
    assert orbits._dense(1 << 20, 1 << 18)


def k0_graph_lattices(count: int, max_dim: int, seed: int):
    """Seeded random graphs, B = every vertex, whose adjacency matrix is
    invertible over F2, so no translation commutes with the action."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(2, max_dim)
        edges = [(i, j) for i in range(dim) for j in range(i + 1, dim) if rng.random() < 0.4]
        spec = build(Graph.from_edge_list(dim, edges))
        if not _nullspace([c for c, _ in spec.masked_generators()], dim):
            out.append(spec)
    return out


K0_LATTICES = k0_graph_lattices(6, 14, seed=8)


def test_k0_lattices_reach_the_largest_dim():
    assert max(spec.state_dim for spec in K0_LATTICES) >= 12


@pytest.fixture(scope="module")
def default_path():
    """Every query below on the default switch."""
    second6 = ActionSpec(6, ActionKind.SECOND)
    t = len(height_functionals(second6))
    return {
        "censuses": [enumerate_orbits(s, workers=1).to_json() for s in SMALL_SPECS],
        "strata": [enumerate_stratum(second6, F2Vector(t, h), workers=1).to_json()
                   for h in range(1 << t)],
        "lattices": [enumerate_orbits(s, workers=1).to_json() for s in K0_LATTICES],
        "closures": [(delta_closure(s).vectors.tobytes(), delta_closure(s).single_orbit)
                     for s in K0_LATTICES],
        "queries": {s: [orbit_of(s, x) for x in random_states(s)] for s in SMALL_SPECS},
    }


def random_states(spec, count: int = 40):
    rng = random.Random(spec.n * 31 + list(ActionKind).index(spec.kind))
    return [rng.getrandbits(spec.state_dim) for _ in range(count)]


@pytest.fixture(params=[True, False], ids=["dense", "sparse"])
def forced(request, monkeypatch):
    """Every level of a bitset flood takes the dense step, or the sparse
    one; yields the frontier sizes the switch was asked about."""
    asked = []

    def switch(count, words):
        asked.append(count)
        return request.param

    monkeypatch.setattr(orbits, "_dense", switch)
    yield asked
    assert asked


class TestForcedSwitch:
    def test_censuses(self, forced, default_path):
        assert [enumerate_orbits(s, workers=1).to_json() for s in SMALL_SPECS] == \
            default_path["censuses"]

    def test_second6_height_strata(self, forced, default_path):
        spec = ActionSpec(6, ActionKind.SECOND)
        t = len(height_functionals(spec))
        assert [enumerate_stratum(spec, F2Vector(t, h), workers=1).to_json()
                for h in range(1 << t)] == default_path["strata"]

    def test_k0_graph_lattices(self, forced, default_path):
        assert [enumerate_orbits(s, workers=1).to_json() for s in K0_LATTICES] == \
            default_path["lattices"]
        assert [(delta_closure(s).vectors.tobytes(), delta_closure(s).single_orbit)
                for s in K0_LATTICES] == default_path["closures"]

    def test_orbit_of(self, forced, default_path):
        for spec in SMALL_SPECS:
            census = enumerate_orbits(spec, workers=1)
            assert [orbit_of(spec, r.representative.bits) for r in census.records] == \
                list(census.records)
            assert [orbit_of(spec, x) for x in random_states(spec)] == \
                default_path["queries"][spec]


def closure_by_search(spec) -> tuple[list[int], bool]:
    """The closure of the basis vectors as sorted states, by a Python BFS
    over ints, and whether one orbit holds every basis vector."""
    gens = spec.masked_generators()
    orbit_of_state = {}
    for b in spec.basis_subset:
        if 1 << b in orbit_of_state:
            continue
        orbit_of_state[1 << b] = b
        todo = [1 << b]
        while todo:
            x = todo.pop()
            for cond, foot in gens:
                y = x ^ foot if _parity(x & cond) else x
                if y not in orbit_of_state:
                    orbit_of_state[y] = b
                    todo.append(y)
    owners = {orbit_of_state[1 << b] for b in spec.basis_subset}
    return sorted(orbit_of_state), len(owners) == 1


@pytest.mark.parametrize("seed", range(12))
def test_delta_closure_matches_a_direct_search(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 12)
    edges = [(i, j) for i in range(dim) for j in range(i + 1, dim) if rng.random() < 0.35]
    subset = [v for v in range(dim) if rng.random() < 0.7] or [0]
    spec = build(Graph.from_edge_list(dim, edges), subset)
    states, single = closure_by_search(spec)
    closure = delta_closure(spec)
    assert closure.vectors.dtype == np.uint32
    assert closure.vectors.tobytes() == np.array(states, dtype=np.uint32).tobytes()
    assert closure.single_orbit is single
