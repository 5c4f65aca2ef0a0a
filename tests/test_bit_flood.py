"""The bitset flood of every search: its word-level pieces, its closure
phase against the union-find oracle (with and without potential
planes), its memory, and byte equality of every query with the closure
forced from the seed, or with sparse levels forced until the frontier
empties, after which a lifted flood still ends in a closure."""

import hashlib
import json
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from f2orbits import f2la, orbits
from f2orbits.actions import ActionKind, ActionSpec, height_functionals
from f2orbits.f2la import (F2Vector, _combine, _echelon, _evaluate, _insert, _nullspace, _parity,
                           _reduce, _solve, _span_points)
from f2orbits.lattice import Graph, build, delta_closure, hex_lattice_graph
from f2orbits.orbits import enumerate_orbits, enumerate_stratum, orbit_of
from test_engine_properties import union_find_classes

SMALL_SPECS = [ActionSpec(n, kind) for kind in ActionKind for n in range(2, 7)]

# census digests of the lifted searches, computed with the tag-map flood
# this bitset-and-planes flood replaced
PINNED = json.loads(Path(__file__).with_name("lifted_census_sha256.json").read_text())[
    "census_sha256"]


def pinned_spec(key: str):
    name, n = key.rsplit("-", 1)
    if name == "hex":
        return build(hex_lattice_graph(int(n)))
    return ActionSpec(int(n), ActionKind.parse(name))


def census_sha256(spec) -> str:
    return hashlib.sha256(enumerate_orbits(spec, workers=1).to_json().encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_lifted_census_bytes_are_pinned(key):
    assert census_sha256(pinned_spec(key)) == PINNED[key]


# census digests of the two lifted censuses of CLI scale: second-conj
# n=8, whose closures move planes across 8 tiles, and first-conj n=7;
# kept out of PINNED, every entry of which also runs under the forced
# switches of TestForcedSwitch
LARGE_PINNED = json.loads(Path(__file__).with_name("large_census_sha256.json").read_text())[
    "census_sha256"]


def test_large_lifted_census_bytes_are_pinned():
    assert {key: census_sha256(pinned_spec(key)) for key in LARGE_PINNED} == LARGE_PINNED


def words_for(dim: int) -> int:
    return max(1, 1 << dim >> 6)


def bitset(states: np.ndarray, words: int) -> np.ndarray:
    """The bitset of words uint64 words holding the given distinct states."""
    out = np.zeros(words, dtype=np.uint64)
    np.bitwise_or.at(out, states >> 6, np.uint64(1) << (states & 63))
    return out


@st.composite
def bitset_states(draw, max_dim=12):
    dim = draw(st.integers(min_value=0, max_value=max_dim))
    states = draw(st.sets(st.integers(min_value=0, max_value=(1 << dim) - 1), max_size=300))
    return dim, np.array(sorted(states), dtype=np.uint32)


# 1024 words: the word move flips up to 6 axes of word bits from 4 up,
# then takes along the low 4; the examples below take both stages, with
# and without delta swaps, and the take alone
EVERY_STAGE = (16, np.array([0, 1, 77, 1000, 4097, 65535], dtype=np.uint32))


@settings(max_examples=150, deadline=None)
@given(bitset_states(max_dim=16), st.integers(min_value=0, max_value=(1 << 16) - 1))
@example(EVERY_STAGE, 0b1011_0110 << 6 | 0b100101)
@example(EVERY_STAGE, 0b1010_0011 << 6)
@example(EVERY_STAGE, 0b0101 << 6 | 0b10)
def test_p_foot_is_index_xor(case, foot):
    dim, states = case
    foot &= (1 << dim) - 1
    words = words_for(dim)
    move = orbits._word_move(foot, words)
    bits, spare = bitset(states, words), np.empty(words, dtype=np.uint64)
    moved = orbits._p_foot(bits, spare, move)
    # the result is in one of the two buffers, moved in place
    assert moved is bits or moved is spare
    assert orbits._members(moved).tolist() == sorted(int(s) ^ foot for s in states)
    # a stack of bitsets moves row by row
    stack = np.stack([bitset(states, words), ~bitset(states, words)])
    moved_stack = orbits._p_foot(stack, np.empty_like(stack), move)
    assert np.array_equal(moved_stack[0], moved) and np.array_equal(moved_stack[1], ~moved)


# no word move and no swap: footprint 0, or one whose bits lie above the
# 1024 words
@pytest.mark.parametrize("foot", [0, 1 << 16, 0b1011 << 20])
def test_p_foot_without_a_move_returns_bits_unchanged(foot):
    bits = np.random.default_rng(foot).integers(0, 1 << 63, size=1 << 10, dtype=np.uint64)
    before = bits.copy()
    spare = np.zeros_like(bits)
    assert orbits._p_foot(bits, spare, orbits._word_move(foot, bits.size)) is bits
    assert np.array_equal(bits, before)


@pytest.mark.parametrize("foot", [0, 0b100101, 0b1011_0110 << 6, 0b0110 << 6 | 1,
                                  0b1011_0110 << 6 | 0b100101, 0b1010_0011 << 6,
                                  (1 << 21) - 1])
def test_p_foot_allocates_less_than_an_eighth_of_a_tile(foot):
    # no tile-sized index and no copied take input, on a stack of two
    # tiles of second n=8's closure, the plan included
    rng = np.random.default_rng(foot)
    stack = rng.integers(0, 1 << 63, size=(2, orbits._TILE_WORDS), dtype=np.uint64)
    expected = orbits._p_foot(stack.copy(), np.empty_like(stack),
                              orbits._word_move(foot, stack.shape[-1]))
    spare = np.empty_like(stack)
    tracemalloc.start()
    try:
        moved = orbits._p_foot(stack, spare, orbits._word_move(foot, stack.shape[-1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(moved, expected)
    assert peak < stack[0].nbytes // 8


def whole_space_job(dim: int):
    """The job of a search of F2^dim by no generators: its compact basis
    is the standard basis, so compact states are states."""
    return orbits._plan(dim, (), (), ())


# jobs whose compact bases order the states inside a word differently:
# the standard basis, first n=5 at height 0, whose in-word rows are not
# the identity, and a map of 8 states, under one word
LEAST_BIT_JOBS = {"standard": whole_space_job(10),
                  "first-5": orbits._plan(*orbits._family(ActionSpec(5, ActionKind.FIRST))[:2]),
                  "dim-3": whole_space_job(3)}


def least_bit_reference(row, start: int, fill, job):
    """The compact state z with the least _combine(z, job.basis), bit by
    bit, among the states where row differs from fill in the first word
    at or after word start >> 6 that differs at all; 2^compact_dim where
    that word differs at no state, and None where no word differs."""
    for w in range(start >> 6, row.size):
        differs = [w << 6 | p for p in range(64) if (int(row[w]) >> p & 1) != (fill != 0)]
        if differs:
            return min((z for z in differs if z < 1 << job.compact_dim),
                       key=lambda z: _combine(z, job.basis), default=1 << job.compact_dim)
    return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(LEAST_BIT_JOBS.values())),
       st.integers(min_value=1, max_value=12).flatmap(lambda words: st.tuples(
           st.just(words),
           st.sets(st.integers(min_value=0, max_value=64 * words - 1), max_size=8),
           st.integers(min_value=0, max_value=64 * words + 63))),
       st.sampled_from([0, orbits._ONES]), st.sampled_from([1, 2, 4]))
@example(LEAST_BIT_JOBS["standard"], (3, set(), 5), orbits._ONES, 1)
@example(LEAST_BIT_JOBS["standard"], (3, {70, 130}, 71), 0, 2)
@example(LEAST_BIT_JOBS["first-5"], (4, {3, 5, 6, 9, 200}, 0), 0, 2)
# the map of the dim-3 job fully visited: no unvisited bit is a state
@example(LEAST_BIT_JOBS["dim-3"], (1, set(range(8)), 0), orbits._ONES, 1)
def test_least_bit_matches_a_bit_by_bit_scan(job, case, fill, tile):
    # rows of the job's map that differ from fill at a few bits, scanned
    # from a start inside a word or past the row, on tiles of 1, 2 and 4
    # words; a position past the last state stands for every such
    # position
    words, states, start = case
    words = min(words, words_for(job.compact_dim))
    states = sorted(z for z in states if z < 64 * words)
    row = bitset(np.array(states, dtype=np.uint32), words) ^ fill
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits, "_TILE_WORDS", tile)
        least = orbits._least_bit(row, start, fill, job)
    if least is not None:
        least = min(least, 1 << job.compact_dim)
    assert least == least_bit_reference(row, start, fill, job)


def test_seed_scan_allocates_less_than_a_tile():
    # a 2^18-word map visited but for one state in its last word: the scan
    # compares a tile of words at a time, where one bool per word of the
    # map would take 256 KiB
    job = whole_space_job(24)
    visited = np.full(1 << 18, orbits._ONES)
    visited[-1] ^= np.uint64(1) << np.uint64(40)
    tracemalloc.start()
    try:
        seed = orbits._least_bit(visited, 0, orbits._ONES, job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seed == 64 * (visited.size - 1) + 40
    assert peak < orbits._TILE_WORDS * visited.itemsize


def test_members_allocates_less_than_half_a_mib_beside_its_answer(monkeypatch):
    # the closure map of the hex lattice of order 6: 1046528 states in
    # 2^15 words; an index of its nonzero words beside temporaries for
    # the states of 1024 words would take 1.25 MiB, one block under 300 KiB
    maps = []
    members = orbits._members
    monkeypatch.setattr(orbits, "_members", lambda bits: maps.append(bits) or members(bits))
    size = delta_closure(build(hex_lattice_graph(7))).vectors.size
    tracemalloc.start()
    try:
        states = members(maps[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.size == size == 1046528
    assert peak - states.nbytes < 512 << 10


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=(1 << 12) - 1),
       st.integers(min_value=0, max_value=1))
def test_odd_words_follow_the_parity_rule(dim, cond, const):
    cond &= (1 << dim) - 1
    words = words_for(dim)
    out = np.full(words, 12345, dtype=np.uint64)
    odd = orbits._members(orbits._odd_words(cond, const, out)).tolist()
    assert odd == [x for x in range(64 * words) if _parity(x & cond) ^ const]


@settings(max_examples=150, deadline=None)
@given(bitset_states())
def test_sparse_dense_sparse_round_trip(case):
    dim, states = case
    bits = bitset(states, words_for(dim))
    assert int(np.bitwise_count(bits).sum()) == states.size
    assert np.array_equal(orbits._members(bits), states)


def test_dense_steps_only_on_maps_of_64_words():
    # below 2^12 states a closure sweep costs more than the gathers it saves
    assert not orbits._dense(1000, 8)
    assert not orbits._dense(63, 63)
    assert not orbits._dense(1 << 20, 63)
    assert orbits._dense(64, 64)
    # on larger maps a frontier of a quarter as many states as words
    assert orbits._dense(16, 64)
    assert not orbits._dense(15, 64)
    assert orbits._dense(1 << 16, 1 << 18)
    assert not orbits._dense((1 << 16) - 1, 1 << 18)


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


# census digests of the K = 0 searches, computed while each of their
# closures still swept a reached map of its own beside the visited map
K0_PINNED = json.loads(Path(__file__).with_name("k0_census_sha256.json").read_text())[
    "census_sha256"]


def k0_pinned_spec(key: str):
    name, i = key.rsplit("-", 1)
    return K0_LATTICES[int(i)] if name == "lattice" else ActionSpec(int(i), ActionKind.SECOND)


@pytest.mark.parametrize("key", sorted(K0_PINNED))
def test_k0_census_bytes_are_pinned(key):
    assert census_sha256(k0_pinned_spec(key)) == K0_PINNED[key]


def height0_job(spec):
    """The job of the height-0 base stratum of a search."""
    dim, masks, _, _, _, _ = orbits._family(spec)
    return orbits._job_at(orbits._plan(dim, masks), 0)


def k0_job(spec):
    """(job, classes) for a K = 0 search: the job of the height-0 base
    stratum (for a lattice, the whole space), and its union-find classes
    in compact coordinates, ascending by minimum."""
    dim, masks, _, _, _, _ = orbits._family(spec)
    plan = orbits._plan(dim, masks)
    assert not plan.translations
    job = orbits._job_at(plan, 0)
    space = SimpleNamespace(state_dim=dim, masked_generators=lambda: masks)
    classes = [[orbits._search_word(job, x) for x in members]
               for members in union_find_classes(space)
               if not _evaluate(members[0], plan.functionals)]
    return job, sorted(classes)


K0_JOBS = [k0_job(ActionSpec(n, ActionKind.SECOND)) for n in range(4, 7)] + \
    [k0_job(spec) for spec in K0_LATTICES]


def marked(visited) -> set[int]:
    """The states marked on a visited map: a map holds states only, and
    starts empty."""
    return set(orbits._members(visited).tolist())


def flood_span(job, seed, maps):
    """_flood of the search word seed on the job's maps: (low, size,
    span), with low read as a census reads it (_run_stratum_job), the
    least state that the flood added to the seed's word.  The word is
    read before and after as an int, so nothing the size of a map is
    allocated."""
    w = (seed & (1 << job.compact_dim) - 1) >> 6
    before = int(maps[0, w])
    size, span = orbits._flood(job, seed, maps)
    return w << 6 | orbits._least_in_word(int(maps[0, w]) & ~before, w, job), size, span


def flood(job, seed, maps):
    """flood_span without the span: (low, size)."""
    return flood_span(job, seed, maps)[:2]


@pytest.fixture
def p_foot_calls(monkeypatch):
    """A list that counts the calls of _p_foot: one per tile that a
    closure's generator step moves (one per step on a map of one tile)."""
    steps = []
    p_foot = orbits._p_foot

    def counted(*args):
        steps.append(1)
        return p_foot(*args)

    monkeypatch.setattr(orbits, "_p_foot", counted)
    yield steps


@pytest.fixture
def all_dense(monkeypatch, p_foot_calls):
    """Every bitset flood goes straight to its closure; yields a list
    that counts the closure's generator steps."""
    monkeypatch.setattr(orbits, "_dense", lambda count, words: True)
    yield p_foot_calls


@pytest.mark.parametrize("job,classes", K0_JOBS, ids=range(len(K0_JOBS)))
def test_closure_marks_exactly_its_class(job, classes, all_dense, monkeypatch):
    assert len(classes) >= 2
    maps = orbits._search(job)
    # no planes and no reached map: the closure sweeps visited itself
    assert maps.shape[0] == 1
    # the states marked on the map alone below before each tile step
    marks = []
    p_foot = orbits._p_foot
    monkeypatch.setattr(orbits, "_p_foot",
                        lambda *args: marks.append(len(marked(alone[0]))) or p_foot(*args))
    done = set()
    for i, members in enumerate(classes):
        alone = orbits._search(job)
        all_dense.clear()
        assert flood(job, members[0], maps) == (members[0], len(members))
        shared = len(all_dense)
        done |= set(members)
        assert marked(maps[0]) == done
        # the same class on an empty map ends on the fixpoint exit
        all_dense.clear()
        marks.clear()
        assert flood(job, members[0], alone) == (members[0], len(members))
        assert marked(alone[0]) == set(members)
        assert len(all_dense) % len(job.gens) == 0
        # the last class covers the map, which saves the confirming sweep;
        # on a map of one full tile of 64 states or more, no step after
        # the one that completes the class moves anything, so the rest of
        # that sweep is saved too
        if i < len(classes) - 1:
            assert shared == len(all_dense)
        elif job.compact_dim < 6:
            assert shared == len(all_dense) - len(job.gens)
        else:
            assert maps.shape[1] <= orbits._TILE_WORDS
            assert shared == sum(1 for m in marks if m < len(members))


def test_closure_allocates_no_map_per_generator(monkeypatch):
    job = height0_job(ActionSpec(7, ActionKind.SECOND))
    maps = orbits._search(job)
    visited = maps[0]
    assert visited.size >= 1 << 12
    seed = (1 << job.compact_dim) - 1
    expected = flood(job, seed, orbits._search(job))
    assert expected[1] > 1 << 16
    monkeypatch.setattr(orbits, "_dense", lambda count, words: True)
    tracemalloc.start()
    try:
        got = flood(job, seed, maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    # two scratch bitsets and the frontier; reached is a row of maps
    assert peak < 3 * visited.nbytes


def test_tiled_closure_allocates_less_than_a_map(monkeypatch):
    # second n=7 at height 0 on tiles of an eighth of its map: the two
    # scratch stacks, the odd set and the popcounts are tile-sized, where
    # a closure over one tile allocates two maps
    job = height0_job(ActionSpec(7, ActionKind.SECOND))
    maps = orbits._search(job)
    visited = maps[0]
    seed = (1 << job.compact_dim) - 1
    expected = flood(job, seed, orbits._search(job))
    monkeypatch.setattr(orbits, "_dense", lambda count, words: True)
    monkeypatch.setattr(orbits, "_TILE_WORDS", visited.size >> 3)
    tracemalloc.start()
    try:
        got = flood(job, seed, maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < visited.nbytes


def test_closure_peak_does_not_grow_with_the_map(monkeypatch):
    # second n=7 and n=8 at height 0, maps of 2^12 and 2^18 words, on the
    # same tiles of 2^11 words: every scratch array of a closure is a
    # tile, so their peaks differ by less than one; a search of the least
    # reached word through a bool per word would add 248 KiB
    monkeypatch.setattr(orbits, "_dense", lambda count, words: True)
    monkeypatch.setattr(orbits, "_TILE_WORDS", 1 << 11)
    peaks, words = [], []
    for n in (7, 8):
        job = height0_job(ActionSpec(n, ActionKind.SECOND))
        # state 0 is fixed at height 0: one sweep over every tile; a first
        # flood, untraced, leaves out numpy's one-time allocations
        assert flood(job, 0, orbits._search(job)) == (0, 1)
        maps = orbits._search(job)
        words.append(maps.shape[1])
        tracemalloc.start()
        try:
            flood(job, 0, maps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert words[1] >= 8 * words[0] > 1 << 11
    assert abs(peaks[1] - peaks[0]) < (1 << 11) * 8


def test_k0_stratum_job_holds_one_map():
    # second n=8 at height 0, a 2 MiB map of 8 tiles: with no planes the
    # closures sweep the visited map itself, so the job allocates that
    # map, tile-sized scratch and the sparse levels' arrays, where a
    # reached map of its own would add a second 2 MiB
    job = height0_job(ActionSpec(8, ActionKind.SECOND))
    assert not job.translations
    nbytes = orbits._search(job)[0].nbytes
    assert nbytes == 1 << 21
    tracemalloc.start()
    try:
        rows = orbits._run_stratum_job(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(size for _, size in rows) == 1 << job.compact_dim
    assert peak < 2.5 * nbytes


@pytest.mark.parametrize("spec", [ActionSpec(5, ActionKind.SECOND), build(hex_lattice_graph(5))],
                         ids=lambda spec: spec.describe())
def test_seed_scan_checks_the_orbit_minimum(spec, monkeypatch):
    # a seed scan that takes the greatest unvisited state of the word it
    # finds, compared through the compact basis, seeds a flood above the
    # least state that the flood adds there: K = 0 (second n=5), and an
    # S = K flood of a lifted job (hex_lattice_graph(5), dim K = 2)
    job = height0_job(spec)
    assert len(job.translations) == (0 if isinstance(spec, ActionSpec) else 2)
    least_bit = orbits._least_bit

    def greatest_unvisited(row, start, fill, job):
        z = least_bit(row, start, fill, job)
        if fill is not orbits._ONES or z is None or z >> job.compact_dim:
            return z
        w = z >> 6
        free = [w << 6 | p for p in range(min(64, 1 << job.compact_dim))
                if not int(row[w]) >> p & 1]
        return max(free, key=lambda x: _combine(x, job.basis))

    monkeypatch.setattr(orbits, "_least_bit", greatest_unvisited)
    with pytest.raises(AssertionError, match="ascending seed scan lost the orbit minimum"):
        orbits._run_stratum_job(job)


def base_job(spec):
    """(job, classes) for the height-0 base stratum of a search, and the
    union-find classes of V/K in it, in compact coordinates, ascending by
    minimum.  At height 0 every generator's constant is 0, so V/K's
    generators are the job's compact (condition, footprint) pairs."""
    job = height0_job(spec)
    zmask = (1 << job.compact_dim) - 1
    assert not any(const for _, _, const in job.gens)
    quotient = SimpleNamespace(state_dim=job.compact_dim,
                               masked_generators=lambda: [(c, f & zmask) for c, f, _ in job.gens])
    return job, sorted(union_find_classes(quotient))


def orbit_size_in_v(spec, state: int) -> int:
    """The size of the orbit of state in the full space V, by a search
    over a boolean map of all 2^dim states."""
    dim, masks, _, _, _, _ = orbits._family(spec)
    seen = np.zeros(1 << dim, dtype=bool)
    seen[state] = True
    frontier = np.array([state], dtype=np.int64)
    while frontier.size:
        parts = [np.empty(0, dtype=np.int64)]
        for cond, foot in masks:
            moved = frontier[np.bitwise_count(frontier & cond) & 1 == 1] ^ foot
            moved = moved[~seen[moved]]
            seen[moved] = True
            parts.append(moved)
        frontier = np.concatenate(parts)
    return int(seen.sum())


def plane_potentials(planes, states) -> list[int]:
    """The potential of each compact state z: bit j is bit z of planes[j]."""
    return [sum((int(plane[z >> 6]) >> (z & 63) & 1) << j for j, plane in enumerate(planes))
            for z in states]


LIFTED_SPECS = [ActionSpec(n, kind) for kind in (ActionKind.FIRST, ActionKind.FIRST_CONJUGATE)
                for n in range(4, 7)] + [build(hex_lattice_graph(n)) for n in range(4, 7)]


@pytest.mark.parametrize("spec", LIFTED_SPECS, ids=lambda spec: spec.describe())
def test_lifted_flood_finds_its_class_and_span(spec, forced):
    # the span S runs over R, the span of the relations' voltages
    job, classes = base_job(spec)
    assert job.translations and job.cycles and len(classes) >= 2
    maps = orbits._search(job)
    done = set()
    for members in classes:
        low, size, span = flood_span(job, members[0], maps)
        assert (low, size) == (members[0], len(members)) and span.dim == len(job.cycles)
        done |= set(members)
        assert marked(maps[0]) == done
        # reached holds the class after every flood, whether or not S = R:
        # the closure clears it of the previous class when it starts
        states = orbits._members(maps[1])
        assert states.tolist() == members
        # the potentials as the lift reads them back, bit by bit
        pots = sum(orbits._bit_at(plane, states) << np.uint64(j)
                   for j, plane in enumerate(maps[2:]))
        assert pots.tolist() == plane_potentials(maps[2:], members)
        section = job.offset ^ _combine(members[0], job.basis)
        assert len(members) << len(span.basis) == orbit_size_in_v(spec, section)


def test_lifted_closure_allocates_no_map_per_generator(monkeypatch):
    # first n=7 at height 0: a 4096-word base stratum, dim K = 7, whose
    # potentials move in dim R = 3 planes, which outweigh the fixed
    # allocations of the numpy calls
    job = height0_job(ActionSpec(7, ActionKind.FIRST))
    k, r = len(job.translations), len(job.cycles)
    assert (k, r) == (7, 3)
    maps = orbits._search(job)
    assert maps.shape == (r + 2, 1 << 12)
    seed = (1 << job.compact_dim) - 1
    expected = flood(job, seed, orbits._search(job))
    monkeypatch.setattr(orbits, "_dense", lambda count, words: True)
    tracemalloc.start()
    try:
        low, size, span = flood_span(job, seed, maps)
        flood_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for states in orbits._blocks(maps[1]):
            for plane in maps[2:]:
                orbits._bit_at(plane, states)
        readback_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rows = orbits._lift(job, maps[1:], size, span)
        lift_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # S fills R, and the base orbit lifts to 2^(dim K - rank S) orbits
    assert (low, size) == expected and size > 1 << 16 and span.full and len(span.basis) < k
    assert len(rows) == 1 << k - len(span.basis)
    # two scratch stacks of reached and the planes, and the fixed buffers
    # of the numpy calls, about 2.6 rows
    assert flood_peak < (2 * (r + 1) + 4) * maps[0].nbytes
    # below one uint32 per member: the readback goes block by block, and
    # the lift adds its (member, coset) pairs
    assert readback_peak < 2 * size
    assert lift_peak < 2 * size + 4 * f2la._LIFT_CHUNK


def lift_case(job, rank: int, size: int, seed: int):
    """A random base orbit of size compact states of the job with random
    potentials, held as _lift reads them (lift_stack): (stack, span,
    values).  S is a random span of the given rank in R, and its live
    rows are in a random order."""
    r = len(job.cycles)
    rng = np.random.default_rng(seed)
    members = np.sort(rng.choice(1 << job.compact_dim, size, replace=False)).astype(np.uint32)
    span = orbits._Span(r)
    while len(span.basis) < rank:
        v = _reduce(int(rng.integers(1, 1 << r)), span.basis)
        if v:
            span.basis = _insert(span.basis, v)
    pivots = {b.bit_length() - 1 for b in span.basis}
    span.live = [int(j) for j in rng.permutation([j for j in range(r) if j not in pivots])]
    pots = rng.integers(0, 1 << len(span.live), size, dtype=np.uint32)
    return lift_stack(job, span, members, pots, rng)


def lift_stack(job, span, members, pots, rng):
    """(stack, span, values) for the base orbit of the ascending uint32
    compact states members, with potentials pots, reduced by S, held in
    the live rows of span: the rows past them hold garbage.  values are
    section(y) ^ pot(y) per member, through the twisted basis and the
    live cycles."""
    words = 1 << job.compact_dim >> 6
    stack = rng.integers(0, 1 << 63, (len(job.cycles) + 1, words), dtype=np.uint64)
    stack[:1 + len(span.live)] = 0
    stack[0] = bitset(members, words)
    for i in range(len(span.live)):
        stack[1 + i] = bitset(members[pots >> i & 1 == 1], words)
    values = np.full(members.size, job.offset, dtype=np.uint32)
    for s, b in enumerate(job.twisted):
        values[members >> s & 1 == 1] ^= b
    for i, j in enumerate(span.live):
        values[pots >> i & 1 == 1] ^= job.cycles[j]
    return stack, span, values


def coset_minima(job, span, values, cosets) -> list[int]:
    """The least member of values ^ c + S for each c of cosets, through S
    in full coordinates (reduced echelon, so a reduced value is its coset
    minimum), and each sorted set of those minima."""
    s_basis = _echelon(_combine(b, job.cycles) for b in span.basis)
    out = set()
    for c in cosets:
        v = values ^ np.uint32(c)
        for b in s_basis:
            v = np.where(v >> (b.bit_length() - 1) & 1 == 1, v ^ np.uint32(b), v)
        out.add(int(v.min()))
    return sorted(out)


FIRST7_PLAN = orbits._plan(*orbits._family(ActionSpec(7, ActionKind.FIRST))[:2])
FIRST7_STRATUM3 = orbits._job_at(FIRST7_PLAN, _solve(FIRST7_PLAN.functionals, 3))


@pytest.mark.parametrize("size", [1, 3000, f2la._LIFT_CHUNK + 4000, 2 * f2la._LIFT_CHUNK + 7,
                                  1 << 18])
@pytest.mark.parametrize("rank", range(8))
def test_lift_takes_the_least_member_of_every_coset(rank, size):
    # the lift in coordinates where the cycles span K and nothing is
    # twisted, as for second-conj and the graph lattices: first n=7's
    # stratum 3 (dim K = 7, 2^18 compact states) with R taken as K, a
    # random span S of the given rank, 2^(7 - rank) cosets, from 1 (rank
    # 7 is S = K, which only orbit_of's one coset reaches) to 128, and
    # members on both sides of _LIFT_CHUNK, up to the whole stratum, where
    # the walk answers every coset
    job = replace(FIRST7_STRATUM3, twisted=FIRST7_STRATUM3.basis,
                  cycles=FIRST7_STRATUM3.translations)
    assert len(job.cycles) == 7 and job.offset and job.compact_dim == 18
    stack, span, values = lift_case(job, rank, size, rank * 1000 + size)
    expected = [(v, size << rank) for v in coset_minima(job, span, values,
                                                        _span_points(job.translations))]
    assert len(expected) == 1 << 7 - rank
    if rank < 7:
        assert sorted(orbits._lift(job, stack, size, span)) == expected
    assert orbits._lift(job, stack, size, span, 0) == [(int(values.min()), size << rank)]


@pytest.mark.parametrize("size", [1, 3000, f2la._LIFT_CHUNK + 4000, 2 * f2la._LIFT_CHUNK + 7,
                                  1 << 18])
@pytest.mark.parametrize("rank", range(4))
def test_twisted_lift_takes_the_least_member_of_every_coset(rank, size):
    # first n=7's stratum 3 in its own gauge: dim K = 7 and dim R = 3, so
    # S has rank at most 3 and 2^(7 - rank) cosets, the live cycles times
    # a complement of R in K; one coset alone, as orbit_of asks, is any
    # point of K reduced by R
    job = FIRST7_STRATUM3
    assert (len(job.translations), len(job.cycles)) == (7, 3)
    stack, span, values = lift_case(job, rank, size, rank * 1000 + size + 1)
    expected = [(v, size << rank) for v in coset_minima(job, span, values,
                                                        _span_points(job.translations))]
    assert len(expected) == 1 << 7 - rank
    assert sorted(orbits._lift(job, stack, size, span)) == expected
    coset = _reduce(_combine(size % 128, job.translations), job.cycles)
    assert orbits._lift(job, stack, size, span, coset) == \
        [(coset_minima(job, span, values, [coset])[0], size << rank)]


def test_lift_walks_half_its_cosets_and_reads_back_the_others(monkeypatch):
    # first n=7's stratum 3 with R taken as K, S spanned by its first four
    # translations and the last three live (pivots 24, 26 and 27, above
    # every compact basis vector): 8 cosets c, all in the span of B, so
    # the walk tries the same 64 points for each, and a point with
    # compact state z and live coordinates b is the value over c where
    # pot(z) = b ^ c.  The whole stratum, with potentials at those points
    # that pass the cosets 0..3 and no other, sends the cosets 4..7 to
    # the readback
    job = replace(FIRST7_STRATUM3, twisted=FIRST7_STRATUM3.basis,
                  cycles=FIRST7_STRATUM3.translations)
    span = orbits._Span(7)
    span.basis, span.live = [1, 2, 4, 8], [4, 5, 6]
    rng = np.random.default_rng(46)
    members = np.arange(1 << job.compact_dim, dtype=np.uint32)
    pots = rng.integers(0, 8, members.size, dtype=np.uint32)
    # every point offset ^ section(z) ^ live(b), as z | b << compact_dim,
    # and the walk's 64 least of them
    _, _, points = lift_stack(job, orbits._Span(0), members, pots, rng)
    points = points[:, None] ^ np.array(_span_points([job.cycles[j] for j in span.live]),
                                        dtype=np.uint32)
    walk = np.argpartition(points.ravel(), orbits._WALK)[:orbits._WALK]
    z, b = walk // 8, walk % 8
    assert np.unique(z).size == orbits._WALK
    pots[z] = b ^ np.arange(orbits._WALK) % 4
    stack, span, values = lift_stack(job, span, members, pots, rng)
    read = []
    coset_minima_of = orbits._coset_minima

    def counted(chunks, cosets):
        read.append(cosets.tolist())
        return coset_minima_of(chunks, cosets)

    monkeypatch.setattr(orbits, "_coset_minima", counted)
    cosets = _span_points([job.cycles[j] for j in span.live])
    rows = orbits._lift(job, stack, members.size, span)
    assert read == [cosets[4:]]
    assert sorted(rows) == [(v, members.size << 4)
                            for v in coset_minima(job, span, values, cosets)]



def test_twisted_lift_reads_back_the_cosets_whose_walk_is_removed(monkeypatch):
    # first n=7's stratum 3 in its own gauge with S = R: no live planes,
    # and 16 cosets c = _combine(i, gens), gens the four translations off
    # R's pivots, each walked through its own space offset ^ c +
    # span(twisted).  gens[0] and gens[1] move the least point of that
    # space by a point of the span of its six lowest echelon vectors, so
    # the 64 least points of the cosets i and i ^ 1, i ^ 2 hold the same
    # states.  The whole stratum less the states of the 64 least points
    # of the 8 cosets with bit 2 of i set sends those to the readback,
    # and the walk answers the other 8
    job = FIRST7_STRATUM3
    span = orbits._Span(3)
    span.basis, span.live = [1, 2, 4], []
    r_pivots = sum(1 << b.bit_length() - 1 for b in job.cycles)
    cosets = _span_points([t for t in job.translations if not t & r_pivots])
    assert len(cosets) == 16
    rng = np.random.default_rng(146)
    every = np.arange(1 << job.compact_dim, dtype=np.uint32)
    # the point of each state over coset 0; over c it is that point ^ c
    _, _, points = lift_stack(job, span, every, np.zeros(every.size, dtype=np.uint32), rng)
    cut = [i for i in range(16) if i >> 2 & 1]
    removed = [np.argpartition(points ^ np.uint32(cosets[i]), orbits._WALK)[:orbits._WALK]
               for i in cut]
    members = np.setdiff1d(every, np.concatenate(removed)).astype(np.uint32)
    stack, span, values = lift_stack(job, span, members, np.zeros(members.size, dtype=np.uint32),
                                     rng)
    read = []
    coset_minima_of = orbits._coset_minima

    def counted(chunks, cosets):
        read.append(cosets.tolist())
        return coset_minima_of(chunks, cosets)

    monkeypatch.setattr(orbits, "_coset_minima", counted)
    rows = orbits._lift(job, stack, members.size, span)
    assert read == [[cosets[i] for i in cut]]
    assert sorted(rows) == [(v, members.size << 3)
                            for v in coset_minima(job, span, values, cosets)]


def test_first7_census_reads_back_only_its_fixed_point(monkeypatch):
    # serial first n=7: the walk answers every coset of nine of its ten
    # base orbits, and only the fixed point 0 (one member under 128
    # cosets) is read back
    read = []
    coset_minima_of = orbits._coset_minima

    def counted(chunks, cosets):
        chunks = list(chunks)
        read.append(sum(chunk.size for chunk in chunks))
        return coset_minima_of(chunks, cosets)

    monkeypatch.setattr(orbits, "_coset_minima", counted)
    assert enumerate_orbits(ActionSpec(7, ActionKind.FIRST), workers=1).orbit_count == 384
    assert read == [1]


def test_check_lifted_refuses_what_leaves_the_stratum_or_the_base_orbit(monkeypatch):
    # a lift captured from serial first n=5: its representatives pass,
    # one moved to another stratum (the base functionals read it
    # differently) does not, and neither does one whose compact state is
    # cleared from reached
    captured = []
    check_lifted = orbits._check_lifted

    def capture(job, reached, reps):
        captured.append((job, reached.copy(), reps.copy()))
        check_lifted(job, reached, reps)

    monkeypatch.setattr(orbits, "_check_lifted", capture)
    enumerate_orbits(ActionSpec(5, ActionKind.FIRST), workers=1)
    job, reached, reps = captured[-1]
    assert reps.size >= 2
    check_lifted(job, reached, reps)
    moved = reps.copy()
    moved[-1] ^= np.uint32(_solve(job.functionals, 1))
    with pytest.raises(AssertionError, match="state does not lie in its computed stratum"):
        check_lifted(job, reached, moved)
    z = orbits._search_word(job, int(reps[-1])) & (1 << job.compact_dim) - 1
    reached[z >> 6] &= ~np.uint64(1 << (z & 63))
    with pytest.raises(AssertionError, match="lifted representative leaves its base orbit"):
        check_lifted(job, reached, reps)


# the census digest of a path P7 beside the hex lattice of order 6, as
# `f2orbits graph --format json` prints it on 1 and 2 workers, computed
# while the readback spread its potentials through byte tables
P7_HEX6_SHA256 = "0223b615a249e75c362589051ed034582b2f13e9d407d1f49adda9257a334bcc"


def test_disconnected_lattice_reads_back_in_several_fills(monkeypatch):
    # P7 on vertices 0..6 and the hex lattice of order 6 on 7..21: one
    # base orbit, too sparse for the walk, reads back 143325 members,
    # more than two of _coset_minima's fills of _LIFT_CHUNK values
    hexagons = hex_lattice_graph(6)
    graph = Graph.from_edge_list(7 + hexagons.vertex_count,
                                 [(v, v + 1) for v in range(6)]
                                 + [(u + 7, v + 7) for u, v in hexagons.edges])
    assert (graph.vertex_count, len(graph.edges)) == (22, 36)
    spec = build(graph)
    read = []
    coset_minima_of = orbits._coset_minima

    def counted(chunks, cosets):
        chunks = list(chunks)
        read.append(sum(chunk.size for chunk in chunks))
        return coset_minima_of(chunks, cosets)

    monkeypatch.setattr(orbits, "_coset_minima", counted)
    census = enumerate_orbits(spec, workers=1).to_json()
    assert max(read) == 143325 > 2 * f2la._LIFT_CHUNK
    assert hashlib.sha256(census.encode()).hexdigest() == P7_HEX6_SHA256
    assert census == orbits._census(spec, 1, translations=()).to_json()


@pytest.mark.parametrize("kind", [ActionKind.FIRST, ActionKind.FIRST_CONJUGATE],
                         ids=lambda kind: kind.value)
def test_orbit_of_at_n7_answers_with_a_census_record(kind, monkeypatch):
    # 8 seeded states: each answer is a record of the census at the
    # state's height, a generator move of the state gets the same
    # answer, and so does the lift when the walk answers no coset and
    # every orbit is read back
    spec = ActionSpec(7, kind)
    dim, masks, heights, _, _, _ = orbits._family(spec)
    records = set(enumerate_orbits(spec).records)
    rng = random.Random(f"orbit_of n=7 {kind.value}")
    states = [rng.getrandbits(dim) for _ in range(8)]
    answers = [orbit_of(spec, x) for x in states]
    for x, record in zip(states, answers):
        assert record in records
        assert record.height == (F2Vector(len(heights), _evaluate(x, heights)) if heights else None)
        moved = next(x ^ foot for cond, foot in masks if _parity(x & cond))
        assert orbit_of(spec, moved) == record
    monkeypatch.setattr(orbits, "_holds",
                        lambda planes, codes, shift: np.zeros(codes.shape, dtype=bool))
    assert [orbit_of(spec, x) for x in states] == answers


@pytest.mark.parametrize("spec", [ActionSpec(8, ActionKind.SECOND_CONJUGATE),
                                  build(hex_lattice_graph(7))], ids=lambda spec: spec.describe())
def test_small_lifted_closure_skips_unmoved_generators(spec, p_foot_calls, monkeypatch):
    # state 0 is a singleton base orbit: its flood's frontier empties at
    # once, and no generator moves it, so the closure it ends in moves no
    # row past reached's, and its one sweep, which adds nothing, is also
    # the one that collects the (empty) cycles: one odd set per generator
    job = height0_job(spec)
    k = len(job.translations)
    maps = orbits._search(job)
    assert k and maps.shape[1] >= 1 << 12
    low, size, span = flood_span(job, 0, maps)
    assert (low, size) == (0, 1)
    assert p_foot_calls == [] and span.basis == []
    odd_sets = []
    odd_words = orbits._odd_words

    def counted(*args):
        odd_sets.append(1)
        return odd_words(*args)

    monkeypatch.setattr(orbits, "_odd_words", counted)
    maps = orbits._search(job)
    size, span = orbits._flood(job, 0, maps)
    rows = orbits._lift(job, maps[1:], size, span)
    assert p_foot_calls == []
    assert len(odd_sets) == len(job.gens)
    assert len(rows) == 1 << k and all(size == 1 for _, size in rows)


@pytest.mark.parametrize("spec,steps", [(ActionSpec(6, ActionKind.SECOND), 329),
                                        (ActionSpec(6, ActionKind.FIRST), 465),
                                        (build(hex_lattice_graph(7)), 105)],
                         ids=["second-6", "first-6", "hex-7"])
def test_closure_sweeps_alternate_direction(spec, steps, p_foot_calls):
    # forward, then backward after every sweep that grew: fewer steps
    # than the forward-only order's 386, 570 and 126; the cycles are
    # collected by the steps that add no state, and hex-7's span fills
    # during growth.  first-6 took 480 steps while its spans ran over
    # all of K (dim 6), which they never fill, rather than R (dim 3)
    enumerate_orbits(spec, workers=1)
    assert len(p_foot_calls) == steps


def tile_step_case(rng: random.Random, tiles: int, case: str):
    """A random tile step on a map of tiles tiles of 4 words (256
    states): (stack, u, s, foot, source, voltage, reached, pots, span),
    where source lists the odd states of tile s, and reached and pots
    are the stack's states and their potentials as a set and a dict.
    k0 has no planes, fresh makes some moved state fresh, and cycles
    makes every moved state already reached.  With planes the span
    starts short of K, the potentials are reduced by it and held in the
    rows of its live coordinates, in a random order, and the rows past
    them hold garbage, as the rows a closure has dropped do."""
    k = 0 if case == "k0" else 3
    states = 256 * tiles
    cond, foot = rng.randrange(states), 0
    # P_foot maps the odd set to itself: cond . foot is even
    while not foot or _parity(cond & foot):
        foot = rng.randrange(states)
    u = rng.randrange(tiles)
    s = u ^ foot >> 8
    # tile s holds an odd state: half of them where cond has a bit below
    # the tile's, else all of them for one constant
    const = rng.randrange(2) if cond & 255 else 1 ^ _parity(cond & s << 8)
    source = [x for x in range(256 * s, 256 * (s + 1)) if _parity(x & cond) ^ const]
    reached = {x for x in range(states) if rng.random() < 0.3} | {rng.choice(source)}
    if case == "fresh":
        reached.discard(rng.choice(sorted(reached & set(source))) ^ foot)
    if case == "cycles":
        reached |= {x ^ foot for x in reached & set(source)}
    span = orbits._Span(k)
    span.basis = _echelon([rng.randrange(1 << k) for _ in range(rng.randrange(max(k, 1)))])
    pivots = {b.bit_length() - 1 for b in span.basis}
    span.live = rng.sample([j for j in range(k) if j not in pivots], k - len(pivots))
    pots = {x: _reduce(rng.randrange(1 << k), span.basis) for x in reached}
    garbage = [np.array([rng.getrandbits(64) for _ in range(states // 64)], dtype=np.uint64)
               for _ in pivots]
    stack = np.array([bitset(np.array(sorted(reached), dtype=np.uint32), states // 64)]
                     + [bitset(np.array([x for x in reached if pots[x] >> j & 1], dtype=np.uint32),
                               states // 64) for j in span.live] + garbage)
    return stack, u, s, foot, source, rng.randrange(1 << k), reached, pots, span


@pytest.mark.parametrize("tiles", [1, 4])
@pytest.mark.parametrize("case", ["k0", "fresh", "cycles"])
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_tile_step_matches_a_set_reference(tiles, case, seed):
    rng = random.Random(seed)
    stack, u, s, foot, source, voltage, reached, pots, span = tile_step_case(rng, tiles, case)
    tiled = stack.reshape(len(stack), tiles, 4)
    # scratch holds garbage, as after an earlier step
    src, other = np.array([[[rng.getrandbits(64) for _ in range(4)] for _ in stack]] * 2,
                          dtype=np.uint64)
    # a map of one tile keeps the odd set in other[0], as _close does
    odd = other[0] if tiles == 1 else np.empty(4, dtype=np.uint64)
    odd[:] = bitset(np.array(source, dtype=np.uint32) - 256 * s, 4)
    before = list(span.basis)

    orbits._tile_step(tiled, u, s, odd, orbits._word_move(foot, 4), voltage, src, other, span)

    moved = {x ^ foot for x in reached & set(source)}
    fresh = moved - reached
    assert moved
    assert case == "k0" or bool(fresh) == (case == "fresh")
    # with none fresh and span short of K, the span grows by the cycle
    # voltages pot(x) ^ voltage ^ pot(gx) of the moved edges
    cycles = [pots[y ^ foot] ^ voltage ^ pots[y] for y in moved] if case == "cycles" else []
    assert span.basis == _echelon(before + cycles)
    # the rows of the span's pivots are dropped, the others stay live
    pivots = {b.bit_length() - 1 for b in span.basis}
    assert sorted(span.live) == [j for j in range(len(span.live) + len(pivots))
                                 if j not in pivots]
    # tile u gains the moved states, and the fresh ones take their
    # source's potential, flipped at the voltage; the live planes hold
    # every potential reduced by the span, and nothing outside reached
    expected = {**pots, **{y: pots[y ^ foot] ^ voltage for y in fresh}}
    live = stack[1:1 + len(span.live)]
    assert marked(stack[0]) == reached | moved
    assert plane_potentials(live, sorted(expected)) == [
        sum((_reduce(expected[x], span.basis) >> j & 1) << r for r, j in enumerate(span.live))
        for x in sorted(expected)]
    assert all(marked(plane) <= set(expected) for plane in live)


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


@pytest.fixture(params=["dense", "sparse", "tiled"])
def forced(request, monkeypatch):
    """Every bitset flood goes straight to its closure, or takes sparse
    levels until its frontier empties (a lifted flood then closes from
    its last frontier), or goes straight to a closure whose tiles are a
    quarter of its map, so that every closure on a map of at least 4
    words spans 4 tiles; yields the frontier sizes the switch was asked
    about."""
    asked = []

    def switch(count, words):
        asked.append(count)
        return request.param != "sparse"

    monkeypatch.setattr(orbits, "_dense", switch)
    if request.param == "tiled":
        close = orbits._close

        def quartered(job, seed, frontier, size, maps, span):
            monkeypatch.setattr(orbits, "_TILE_WORDS", max(1, maps.shape[1] >> 2))
            return close(job, seed, frontier, size, maps, span)

        monkeypatch.setattr(orbits, "_close", quartered)
    yield asked
    assert asked


class TestForcedSwitch:
    def test_censuses(self, forced, default_path):
        assert [enumerate_orbits(s, workers=1).to_json() for s in SMALL_SPECS] == \
            default_path["censuses"]

    def test_lifted_censuses_keep_their_pinned_bytes(self, forced):
        assert {key: census_sha256(pinned_spec(key)) for key in PINNED} == PINNED

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
