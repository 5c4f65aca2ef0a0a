"""Plans and stratum jobs pinned: a digest of every plan's coordinates
and gauge, and of the (offset, gens) of every job of its strata, for
every action within the enumeration guard, the hex lattices, the
frozen-vertex lattices of test_gauge and seeded random lattices with
frozen vertices.  A census is a function of its jobs, so a rewrite of
the plan's linear algebra that keeps these digests cannot move a
census byte, a step count or an orbit_of answer."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from f2orbits import orbits
from f2orbits.actions import ActionKind, ActionSpec
from f2orbits.f2la import ENUM_DIM_LIMIT, _solve
from f2orbits.lattice import build, hex_lattice_graph
from f2orbits.tri import Graph
from test_gauge import FROZEN, frozen

PINS = json.loads(Path(__file__).with_name("plan_sha256.json").read_text())

RANDOM_LATTICES = 120


def random_lattice(seed: int):
    """A seeded random graph on 2..14 vertices, each edge drawn with
    probability 0.35, with each vertex frozen with probability 0.3
    (vertex 0 stays in B when every vertex is drawn frozen)."""
    rng = random.Random(f"plan {seed}")
    v = rng.randint(2, 14)
    edges = [(i, j) for i in range(v) for j in range(i + 1, v) if rng.random() < 0.35]
    subset = [u for u in range(v) if rng.random() >= 0.3] or [0]
    return build(Graph.from_edge_list(v, edges), subset)


SPECS = {
    **{f"{kind.value}-{n}": ActionSpec(n, kind) for kind in ActionKind
       for n in range(1 if kind.is_first else 2, 9)
       if ActionSpec(n, kind).state_dim <= ENUM_DIM_LIMIT},
    **{f"hex-{n}": build(hex_lattice_graph(n)) for n in range(2, 8)},
    **{key: frozen(key) for key in FROZEN},
    **{f"random-{i}": random_lattice(i) for i in range(RANDOM_LATTICES)},
}


def sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def plan_digest(plan) -> str:
    return sha256([plan.gens, plan.pivots, plan.basis, plan.twisted, plan.cycles,
                   plan.functionals, plan.translations])


def strata_jobs(plan) -> list:
    """The job of each stratum of the plan's search, in the order of the
    values that its functionals read there."""
    return [orbits._job_at(plan, _solve(plan.functionals, h))
            for h in range(1 << len(plan.functionals))]


def digests(spec) -> dict[str, str]:
    """The plan of the spec's census with its jobs, and the plan of the
    search of V (no translations)."""
    dim, masks, _, _, _, _ = orbits._family(spec)
    plan = orbits._plan(dim, masks)
    return {"plan": plan_digest(plan),
            "jobs": sha256([[job.offset, job.gens] for job in strata_jobs(plan)]),
            "plan_v": plan_digest(orbits._plan(dim, masks, ()))}


def test_every_spec_is_pinned():
    assert sorted(SPECS) == sorted(PINS["digests"])


@pytest.mark.parametrize("key", sorted(SPECS))
def test_plans_and_jobs_are_pinned(key):
    assert digests(SPECS[key]) == PINS["digests"][key]
