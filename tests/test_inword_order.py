"""Every minimum of the search under random in-word rows: the in-word
row chooser is replaced by seeded random unitriangular rows, so that
nearly every job's compact basis orders the states inside a word
differently from their positions, and each census and query, whose
minima compare the states of a word through the compact basis, is
checked against the union-find oracle.  The closure of a graph lattice
reads its compact states as states, which its unit-vector footprints
always make them, and refuses any other basis.  The real row chooser is
pinned by the delta swaps it leaves in the flagship plans."""

import random
from types import SimpleNamespace

import pytest

from f2orbits import orbits
from f2orbits.actions import ActionKind, ActionSpec, generator_masks
from f2orbits.f2la import _echelon, _nullspace
from f2orbits.lattice import Graph, build, delta_closure, hex_lattice_graph
from f2orbits.orbits import enumerate_orbits, orbit_of
from test_engine_properties import union_find_classes


def random_lattices(count: int, max_dim: int, seed: int, k0: bool):
    """Seeded random graph lattices up to max_dim vertices: with B = every
    vertex and an adjacency matrix invertible over F2 (K = 0), or with a
    random B and at least one translation (K > 0)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(2, max_dim)
        edges = [(i, j) for i in range(dim) for j in range(i + 1, dim) if rng.random() < 0.4]
        subset = list(range(dim)) if k0 else \
            [v for v in range(dim) if rng.random() < 0.7] or [rng.randrange(dim)]
        spec = build(Graph.from_edge_list(dim, edges), subset)
        if bool(_nullspace([c for c, _ in spec.masked_generators()], dim)) != k0:
            out.append(spec)
    return out


LATTICES = random_lattices(40, 12, seed=23, k0=True) + random_lattices(40, 12, seed=24, k0=False)
ACTIONS = [ActionSpec(n, kind) for kind in ActionKind for n in range(1 if kind.is_first else 2, 5)]


def identity_rows(job) -> bool:
    """Whether the job's in-word rows are the identity: exactly when its
    compact basis is reduced echelon, since M^-1 is unitriangular and any
    entry off its diagonal puts a lower pivot bit into a basis vector."""
    return list(job.basis) == _echelon(job.basis)


@pytest.fixture
def random_rows(monkeypatch):
    """The in-word rows of every plan built in the test are seeded random
    unitriangular rows; yields the jobs built, so that a test can check
    that their rows are not the identity."""
    rng = random.Random(2024)

    def rows(feet, compact_dim):
        return tuple(1 << t | rng.getrandbits(compact_dim) >> t + 1 << t + 1
                     for t in range(min(6, compact_dim)))

    built = []
    stratum_job = orbits._stratum_job

    def recorded(*args):
        built.append(stratum_job(*args))
        return built[-1]

    orbits._plan.cache_clear()
    monkeypatch.setattr(orbits, "_inword_rows", rows)
    monkeypatch.setattr(orbits, "_stratum_job", recorded)
    yield built
    orbits._plan.cache_clear()


def union_find(spec) -> list[list[int]]:
    masks = generator_masks(spec) if isinstance(spec, ActionSpec) else spec.masked_generators()
    return union_find_classes(SimpleNamespace(state_dim=spec.state_dim,
                                              masked_generators=lambda: masks))


def records(census) -> list[tuple[int, int]]:
    return sorted((r.representative.bits, r.cardinality) for r in census.records)


def check_census_and_queries(spec, rng):
    classes = union_find(spec)
    assert records(enumerate_orbits(spec, workers=1)) == \
        sorted((members[0], len(members)) for members in classes)
    owner = {x: members for members in classes for x in members}
    for x in [0, (1 << spec.state_dim) - 1] + [rng.getrandbits(spec.state_dim) for _ in range(3)]:
        rec = orbit_of(spec, x)
        assert (rec.representative.bits, rec.cardinality) == (owner[x][0], len(owner[x]))


def test_lattice_censuses_and_queries(random_rows):
    rng = random.Random(5)
    for spec in LATTICES:
        check_census_and_queries(spec, rng)
    assert max(spec.state_dim for spec in LATTICES) == 12
    # most jobs have compact dims of 2 or more, so most rows differ from
    # the identity
    assert sum(not identity_rows(job) for job in random_rows) > len(random_rows) // 2


def test_unlifted_censuses(random_rows):
    # the search of V itself, through no translations, is a K = 0 search:
    # its seed scan meets every orbit at its minimum, in state order, and
    # each of the edgeless graph's 256 fixed states is a seed of its own
    for spec in LATTICES[40:] + [build(Graph.from_edge_list(8, []))]:
        assert records(orbits._census(spec, 1, translations=())) == \
            sorted((members[0], len(members)) for members in union_find(spec))


def test_lattice_closures_read_the_identity_order(monkeypatch):
    plans = []
    plan = orbits._plan

    def recorded(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(orbits, "_plan", recorded)
    for spec in LATTICES:
        classes = union_find(spec)
        owners = {min(members) for members in classes
                  for b in spec.basis_subset if 1 << b in members}
        expected = sorted(x for members in classes if members[0] in owners for x in members)
        closure = delta_closure(spec)
        assert closure.vectors.tolist() == expected
        assert closure.single_orbit is (len(owners) == 1)
    # one plan per closure, each with the standard basis, so that the
    # positions inside a word are in state order: its footprints are unit
    # vectors, which no in-word change moves fewer bits of
    assert len(plans) == len(LATTICES)
    assert all(p.basis == tuple(1 << s for s in range(p.compact_dim)) for p in plans)


def test_lattice_closures_refuse_other_orders(random_rows):
    # _members reads the closure's compact states as states, so a search
    # of the whole space with any other compact basis is refused, not
    # misread; from 6 vertices up the random rows are not all the identity
    wide = [spec for spec in LATTICES if spec.state_dim >= 6]
    assert len(wide) > len(LATTICES) // 2
    for spec in wide:
        with pytest.raises(AssertionError, match="compact states are not its states"):
            delta_closure(spec)


@pytest.mark.parametrize("spec", ACTIONS, ids=lambda spec: spec.describe())
def test_actions(spec, random_rows):
    check_census_and_queries(spec, random.Random(spec.n))


# the delta swaps left by the real row chooser's plans: one per bit below
# 6 of each compact footprint.  The second conjugate and the hex lattices
# keep the identity in-word rows; a greedy that runs in one order only
# leaves 18 at first-7 and second-8
DELTA_SWAPS = {"first-5": 14, "first-6": 16, "first-7": 12, "first-conj-7": 12,
               "second-6": 16, "second-7": 12, "second-8": 12,
               **{f"second-conj-{n}": 12 for n in range(5, 9)},
               **{f"hex-{n}": 12 for n in range(5, 8)}}


@pytest.mark.parametrize("key", DELTA_SWAPS)
def test_inword_rows_keep_their_delta_swaps(key):
    name, n = key.rsplit("-", 1)
    if name == "hex":
        spec = build(hex_lattice_graph(int(n)))
        masks = spec.masked_generators()
    else:
        spec = ActionSpec(int(n), ActionKind.parse(name))
        masks = generator_masks(spec)
    plan = orbits._plan(spec.state_dim, tuple(masks))
    zmask = (1 << plan.compact_dim) - 1
    assert sum(((fw & zmask) & 63).bit_count() for _, fw, _ in plan.gens) == DELTA_SWAPS[key]
    assert identity_rows(plan) is (name in ("second-conj", "hex"))
