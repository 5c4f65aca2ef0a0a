"""The gauge of the lifted searches: the section of V -> V/K is twisted
so that every generator's voltage lies in R, the span of the voltages
of the relations among the compact footprints, and a search word
carries a potential's R-coordinates alone.  Checked here: the twist
itself, R against the voltages of a null space of the footprints (a
route of its own beside the plan's one echelon), the theorem that
every orbit's translations S lie in R, census
bytes of frozen-vertex lattices where R is smaller than K (against the
search of V and against digests pinned before the gauge), and orbit_of
answers against digests pinned before it."""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from f2orbits import orbits
from f2orbits.actions import ActionKind, ActionSpec
from f2orbits.f2la import _combine, _echelon, _evaluate, _nullspace, _reduce
from f2orbits.lattice import build, hex_lattice_graph
from f2orbits.orbits import enumerate_orbits, orbit_of
from test_bit_flood import forced  # noqa: F401  (a fixture)
from test_engine_properties import lattices_with_translations

PINS = json.loads(Path(__file__).with_name("gauge_sha256.json").read_text())

# frozen-vertex hex lattices: (order, B, dim K, dim R)
FROZEN = {"hex-4-B0,3": (4, [0, 3], 4, 0), "hex-5-B0,3": (5, [0, 3], 8, 2),
          "hex-6-B0,3": (6, [0, 3], 13, 2), "hex-7-B0-9": (7, list(range(10)), 11, 0),
          "hex-7-B0-17": (7, list(range(18)), 4, 2)}

# every kind: the second action's K = 0, where R = 0 and nothing is
# twisted, and the lifted kinds, with R = K or R < K
GAUGED_ACTIONS = [ActionSpec(n, kind) for kind in ActionKind for n in range(2, 7)]


def frozen(key: str):
    order, subset, _, _ = FROZEN[key]
    return build(hex_lattice_graph(order), subset)


def plan_of(spec):
    dim, masks, _, _, _, _ = orbits._family(spec)
    return orbits._plan(dim, masks), masks


def orbits_of_v(dim: int, masks) -> list[np.ndarray]:
    """Every orbit of V as an array of its members, by a numpy search
    over a boolean map of all 2^dim states."""
    seen = np.zeros(1 << dim, dtype=bool)
    out, at = [], 0
    while True:
        at += int(np.argmin(seen[at:]))
        if seen[at]:
            return out
        seen[at] = True
        parts = frontier = np.array([at], dtype=np.int64)
        while frontier.size:
            level = []
            for cond, foot in masks:
                moved = frontier[np.bitwise_count(frontier & cond) & 1 == 1] ^ foot
                moved = moved[~seen[moved]]
                seen[moved] = True
                level.append(moved)
            frontier = np.concatenate(level)
            parts = np.concatenate([parts, frontier])
        out.append(parts)


def check_gauge(spec) -> None:
    """The twist of the spec's plan: each generator's twisted voltage
    lies in R and is what its footprint word carries, alpha(f) is
    reduce_R(v), alpha is 0 where R = K, R is the image under the
    voltages of the relations among the compact footprints (a null space
    of the transposed footprints, echeloned), and the translations S of
    every orbit of V lie in R."""
    plan, masks = plan_of(spec)
    k, cd = len(plan.translations), plan.compact_dim
    zmask = (1 << cd) - 1
    feet, volts = [], []
    for (cond, foot), (_, word, _) in zip(masks, plan.gens):
        f = word & zmask
        section_foot = _combine(f, plan.basis)
        assert section_foot == _reduce(foot, plan.translations)
        # the voltage of the twisted section, in full coordinates
        twisted = foot ^ _combine(f, plan.twisted)
        assert word >> cd < 1 << len(plan.cycles)
        assert twisted == _combine(word >> cd, plan.cycles)
        assert not _reduce(twisted, plan.cycles)
        # alpha(f), read as a translation, is the K-part of the voltage
        # reduced by R
        assert _combine(f, plan.twisted) ^ section_foot == \
            _reduce(foot ^ section_foot, plan.cycles)
        feet.append(f)
        volts.append(_evaluate(foot, plan.k_pivots))
    if len(plan.cycles) == k:
        assert plan.twisted == plan.basis
    relations = _nullspace([sum((f >> b & 1) << g for g, f in enumerate(feet))
                            for b in range(cd)], len(feet))
    r_basis = _echelon(_combine(c, volts) for c in relations)
    assert plan.cycles == tuple(_combine(r, plan.translations) for r in r_basis)
    # the theorem: a closed walk's generators form a relation, so every
    # translation that keeps a state in its orbit lies in R
    conds = np.array([cond for cond, _ in masks], dtype=np.int64)
    for members in orbits_of_v(spec.state_dim, masks):
        d = members ^ members.min()
        d = d[(np.bitwise_count(d[:, None] & conds) & 1).sum(axis=1) == 0]
        for c in plan.cycles:
            d = np.where(d >> (c.bit_length() - 1) & 1 == 1, d ^ c, d)
        assert not d.any()


@pytest.mark.parametrize("spec", GAUGED_ACTIONS, ids=lambda spec: spec.describe())
def test_gauge_of_the_actions(spec):
    check_gauge(spec)


@pytest.mark.parametrize("key", ["hex-4-B0,3", "hex-5-B0,3"])
def test_gauge_of_frozen_lattices(key):
    # R = 0 < K, then 0 < R < K
    check_gauge(frozen(key))


@settings(max_examples=60, deadline=None)
@given(lattices_with_translations())
def test_gauge_of_lattices_with_translations(spec):
    check_gauge(spec)


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_frozen_lattices_keep_their_census_bytes(key):
    # R = 0 < K (hex-4 and hex-7 with B = 0..9) and 0 < R < K: the same
    # bytes as before the gauge, and as the search of V itself, which
    # for hex-7 with B = 0..9 floods 6144 orbits of 2^21 states one by
    # one in about 10 s, so that its pin stands for it
    spec = frozen(key)
    plan, _ = plan_of(spec)
    assert (len(plan.translations), len(plan.cycles)) == FROZEN[key][2:]
    census = enumerate_orbits(spec, workers=1).to_json()
    assert hashlib.sha256(census.encode()).hexdigest() == PINS["census_sha256"][key]
    if key != "hex-7-B0-9":
        assert census == orbits._census(spec, 1, translations=()).to_json()


@pytest.mark.parametrize("key", ["hex-4-B0,3", "hex-5-B0,3", "hex-7-B0-17"])
def test_frozen_lattices_on_every_switch(key, forced):  # noqa: F811
    # with R = 0 < K a flood that stays sparse leaves its component in
    # reached without a closure
    spec = frozen(key)
    assert hashlib.sha256(enumerate_orbits(spec, workers=1).to_json().encode()).hexdigest() == \
        PINS["census_sha256"][key]


def seeded_states(spec, count: int = 40) -> list[int]:
    rng = random.Random(f"orbit_of {spec.describe()}")
    return [rng.getrandbits(spec.state_dim) for _ in range(count)]


def answers_sha256(spec) -> str:
    lines = []
    for x in seeded_states(spec):
        r = orbit_of(spec, x)
        lines.append(f"{x:x} {r.representative.bits:x} {r.cardinality} "
                     f"{'' if r.height is None else r.height.to_string()}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


ORBIT_OF_SPECS = {**{key: frozen(key) for key in FROZEN},
                  **{f"{kind.value}-{n}": ActionSpec(n, kind)
                     for kind in ActionKind for n in range(2, 7)}}


@pytest.mark.parametrize("key", sorted(ORBIT_OF_SPECS))
def test_orbit_of_answers_as_before(key):
    # 40 seeded states, and the census representatives, every one of a
    # census of at most 256 records and 256 evenly spaced ones of a
    # larger one, each of which must answer with its own record
    spec = ORBIT_OF_SPECS[key]
    assert answers_sha256(spec) == PINS["orbit_of_sha256"][key]
    records = enumerate_orbits(spec, workers=1).records
    records = records[::-(-len(records) // 256)]
    assert [orbit_of(spec, r.representative.bits) for r in records] == list(records)
