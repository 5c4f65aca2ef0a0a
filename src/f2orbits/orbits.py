"""Exhaustive orbit enumeration over 2^d state spaces.

States are packed ints; every generator is a parity-conditioned XOR
(condition mask, footprint mask, constant bit), which makes the orbit
partition the connected components of an implicit undirected graph.  The
engine runs a frontier BFS with a visited map of one tag per state (a
byte while dim K < 8), vectorized with numpy over frontier chunks.
Involutivity of the generators keeps each expansion batch
duplicate-free, so no sorting is ever needed.

The search runs on a quotient.  K, the common null space of the
condition masks, acts by translations that commute with every
generator: g(x + k) = g(x) + k.  So the action descends to V/K, taken
as the section of states that are zero at the pivots of K's
echelon-high basis, and every orbit of V lies over an orbit of V/K.
V/K is split into strata by its own invariants (the functionals that
vanish on every footprint and on K), each an affine subspace searched
in compact coordinates whose numeric order agrees with state order.
Strata are independent jobs, which is where process-level parallelism
comes from.

Each base state y carries a potential pot(y) in K, stored with the
visited flag.  A generator's voltage is the K-component of its
footprint, foot ^ reduce_K(foot): a tree edge y -> gy sets
pot(gy) = pot(y) ^ voltage, and every other edge adds
pot(y) ^ voltage ^ pot(gy) to a span S (Schreier generators from a
spanning tree; Gross and Tucker, Topological Graph Theory, 1987,
ch. 2, on voltage graphs).  A base orbit O' then lifts to
2^(dim K - rank S) orbits of |O'| * 2^rank S states, one per coset
c of S in K, and the representative of the one over c is the least
reduce_S(section(y) ^ pot(y) ^ c) over y in O'.  Heights are read off
the representatives.  With K = 0 (the second action) this is the plain
search: no potentials, and the ascending seed of each orbit is its
minimum.

Every query runs this one search: a census runs every stratum job of
V/K, a height stratum the one job that holds it (filtered by height),
and orbit_of floods the base orbit under its state, seeded with the
state's K-component as potential, and lifts only the state's orbit.
Censuses are merged by sorted reduction and are byte-identical for any
worker count.  The linear algebra (echelon bases, null spaces, coset
minima and the mask maps between compact and full coordinates) comes
from f2la.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .f2la import (F2Vector, _apply_tables, _byte_tables, _combine, _echelon, _evaluate,
                   _nullspace, _parity, _rank, _reduce, _solve, _span_points)
from .actions import ActionKind, ActionSpec, generator_masks, height_functionals

ENUM_DIM_LIMIT = 28
_CHUNK = 1 << 20
_LIFT_CHUNK = 1 << 16


class EnumerationGuardError(RuntimeError):
    """Raised when a requested search exceeds the in-memory guard."""


def _check_dim(dim: int) -> None:
    if dim > ENUM_DIM_LIMIT:
        raise EnumerationGuardError(
            f"state space 2^{dim} exceeds the enumeration guard 2^{ENUM_DIM_LIMIT} "
            f"(visited map alone would need 2^{dim - 20} MiB)")


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit: its numerically smallest member, size, optional height."""

    representative: F2Vector
    cardinality: int
    height: Optional[F2Vector] = None
    type_label: Optional[str] = None

    def sort_key(self) -> tuple[int, int]:
        return (self.height.bits if self.height is not None else 0,
                self.representative.bits)


@dataclass(frozen=True)
class OrbitCensus:
    """A deterministic partition summary of a full space or one stratum."""

    spec_descriptor: str
    n: Optional[int]
    kind: Optional[str]
    state_dim: int
    total_states: int
    records: tuple[OrbitRecord, ...]

    def __post_init__(self) -> None:
        if sum(r.cardinality for r in self.records) != self.total_states:
            raise AssertionError("orbit cardinalities do not partition the space")

    @property
    def orbit_count(self) -> int:
        return len(self.records)

    def cardinality_multiset(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.records:
            out[r.cardinality] = out.get(r.cardinality, 0) + 1
        return out

    def by_height(self) -> dict[int, tuple[OrbitRecord, ...]]:
        out: dict[int, list[OrbitRecord]] = {}
        for r in self.records:
            out.setdefault(r.height.bits if r.height else 0, []).append(r)
        return {h: tuple(v) for h, v in out.items()}

    def to_json(self) -> str:
        orbits = []
        for r in self.records:
            entry: dict = {
                "representative_hex": format(r.representative.bits, "x"),
                "cardinality": r.cardinality,
                "height_bits": r.height.to_string() if r.height is not None else None,
            }
            if r.type_label is not None:
                entry["type_label"] = r.type_label
            orbits.append(entry)
        doc = {
            "spec": self.spec_descriptor,
            "n": self.n,
            "kind": self.kind,
            "total_states": self.total_states,
            "orbits": orbits,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["representative_hex,cardinality,height_bits,type_label"]
        for r in self.records:
            lines.append(",".join([
                format(r.representative.bits, "x"),
                str(r.cardinality),
                r.height.to_string() if r.height is not None else "",
                r.type_label or "",
            ]))
        return "\n".join(lines) + "\n"


def _tag_dtype(kdim: int):
    """Smallest unsigned dtype holding a visited flag above kdim potential
    bits (kdim <= 28 under the guard)."""
    return np.uint8 if kdim < 8 else np.uint16 if kdim < 16 else np.uint32


class _Span:
    """A growing subspace of F2^dim fed uint arrays; basis is its _echelon."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.basis: list[int] = []

    @property
    def full(self) -> bool:
        return len(self.basis) == self.dim

    def absorb(self, values: np.ndarray) -> None:
        """Add the values to the span: reduce them against the basis (an
        array _reduce) and take in one survivor at a time."""
        values = values[values != 0]
        while values.size:
            for b in self.basis:
                values = values ^ ((values >> (b.bit_length() - 1)) & 1) * values.dtype.type(b)
            values = values[values != 0]
            if values.size:
                self.basis = _echelon(self.basis + [int(values[0])])


def _bfs_component(seed: int, gens, visited: np.ndarray, span: Optional[_Span] = None,
                   pot: int = 0):
    """Flood one component and mark it visited; returns (min, size, levels).

    Without a span, visited holds 1 per state, the minimum state is
    tracked and levels is None.  With a span (the lifted search), the tag
    of a state is a flag bit above its K-potential: the seed's is pot, a
    fresh state takes its parent's potential plus the generator's
    voltage, every other edge x -> gx adds pot(x) ^ voltage ^ pot(gx) to
    the span until it is all of K, and levels keeps every frontier with
    its potentials; the minimum is left to the lift and reads as the seed.
    """
    lifted = span is not None
    flag = visited.dtype.type(1 << span.dim) if lifted else 1
    visited[seed] = flag | pot
    frontier = np.array([seed], dtype=np.uint32)
    pots = np.full(1, pot, dtype=visited.dtype) if lifted else None
    levels = [(frontier, pots)] if lifted else None
    size = 1
    low = seed
    while frontier.size:
        parts, pot_parts = [], []
        for start in range(0, frontier.size, _CHUNK):
            chunk = frontier[start:start + _CHUNK]
            cpots = pots[start:start + _CHUNK] if lifted else None
            for cond, foot, const, volt in gens:
                odd = ((np.bitwise_count(chunk & cond) ^ const) & np.uint8(1)).view(np.bool_)
                moved = chunk[odd]
                if not moved.size:
                    continue
                moved ^= foot
                if lifted:
                    tags = visited[moved]
                    new = tags == 0
                    mpots = cpots[odd] ^ volt
                    if not span.full:
                        old = ~new
                        span.absorb(mpots[old] ^ tags[old] ^ flag)
                    fresh = moved[new]
                else:
                    fresh = moved[visited[moved] == 0]
                if not fresh.size:
                    continue
                size += int(fresh.size)
                parts.append(fresh)
                if lifted:
                    fpots = mpots[new]
                    visited[fresh] = fpots | flag
                    pot_parts.append(fpots)
                else:
                    visited[fresh] = 1
                    m = int(fresh.min())
                    if m < low:
                        low = m
        frontier = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint32)
        if lifted and frontier.size:
            pots = np.concatenate(pot_parts)
            levels.append((frontier, pots))
    return low, size, levels


def _np_gens(gens, tag=np.uint8):
    """(condition, footprint, constant, voltage) tuples as numpy scalars."""
    return [(np.uint32(c), np.uint32(f), np.uint8(b & 1), tag(v)) for c, f, b, v in gens]


@dataclass(frozen=True)
class _StratumJob:
    """One stratum of V/K, searched through its section in V.

    The section holds the states that are zero at K's pivots.  Compact
    bit s stands for basis[s], whose pivot bit is pivots[s], so compact z
    is the state offset ^ _combine(z, basis), _evaluate(state ^ offset,
    pivots) reads it back, and compact order agrees with state order.
    gens are (condition, footprint, constant, voltage) in compact
    coordinates; the voltage is the K-component of the footprint in
    K-coordinates, where bit i of a potential stands for translations[i].
    """

    compact_dim: int
    gens: tuple[tuple[int, int, int, int], ...]
    pivots: tuple[int, ...]
    basis: tuple[int, ...]
    offset: int
    translations: tuple[int, ...]


def _stratum_job(dim: int, masks, functionals, translations,
                 height_bits: int) -> _StratumJob:
    """The job for the stratum where the functionals read height_bits.

    translations is a reduced echelon-high basis of a subspace of K and
    the functionals are invariant and vanish on it.
    """
    k_pivots = [1 << (k.bit_length() - 1) for k in translations]
    rows = list(functionals) + k_pivots
    basis = _nullspace(rows, dim)
    pivots = [1 << (b.bit_length() - 1) for b in basis]
    offset = _reduce(_solve(rows, height_bits), basis)
    gens = []
    for cond, foot in masks:
        section_foot = _reduce(foot, translations)
        cf = _evaluate(section_foot, pivots)
        if _combine(cf, basis) != section_foot:
            raise AssertionError("generator footprint leaves the stratum")
        gens.append((_evaluate(cond, basis), cf, _parity(offset & cond),
                     _evaluate(foot, k_pivots)))
    return _StratumJob(len(basis), tuple(gens), tuple(pivots), tuple(basis),
                       offset, tuple(translations))


def _build_stratum_jobs(dim: int, masks, functionals, translations) -> list[_StratumJob]:
    return [_stratum_job(dim, masks, functionals, translations, h)
            for h in range(1 << len(functionals))]


def _compact(job: _StratumJob, state: int) -> int:
    """Compact coordinate of a section state of the job's stratum."""
    z = _evaluate(state ^ job.offset, job.pivots)
    if job.offset ^ _combine(z, job.basis) != state:
        raise AssertionError("state does not lie in its computed stratum")
    return z


def _lift(job: _StratumJob, levels, cycles: list[int],
          every: bool = True) -> list[tuple[int, int]]:
    """The orbits over one base orbit O', as (representative, size).

    The cycle voltages span S in K.  There is one orbit per coset c of S
    in K, with |O'| * 2^rank(S) states; its representative is the least
    reduce_S(section(y) ^ pot(y) ^ c) over y in O', taken in chunks of
    at most _LIFT_CHUNK (member, coset) pairs, with c its coset minimum.
    Unless every, only the orbit over coset 0 is computed: the one that
    holds section(y) ^ pot(y).
    """
    s_basis = _echelon([_combine(v, job.translations) for v in cycles])
    cosets = np.array(_span_points(_echelon([_reduce(k, s_basis) for k in job.translations]))
                      if every else [0], dtype=np.uint32)
    # section states are zero at K's pivots, among them S's, so reduce_S
    # only acts on the potential
    state_tables = _byte_tables(job.basis)
    pot_tables = _byte_tables([_reduce(k, s_basis) for k in job.translations])
    best = np.full(cosets.size, np.iinfo(np.uint32).max, dtype=np.uint32)
    rows = max(1, _LIFT_CHUNK // cosets.size)
    base_size = 0
    for states, pots in levels:
        base_size += states.size
        for start in range(0, states.size, rows):
            a = (_apply_tables(state_tables, states[start:start + rows])
                 ^ _apply_tables(pot_tables, pots[start:start + rows]) ^ job.offset)
            np.minimum(best, (a[:, None] ^ cosets).min(axis=0), out=best)
    size = base_size << len(s_basis)
    out = []
    for rep in best.tolist():
        z = _compact(job, _reduce(rep, job.translations))
        if not any(bool((states == z).any()) for states, _ in levels):
            raise AssertionError("lifted representative leaves its base orbit")
        out.append((rep, size))
    return out


def _search(job: _StratumJob):
    """(visited, gens) for searching the job: an empty visited map with
    room for the potentials, and the generators as numpy scalars."""
    visited = np.zeros(1 << job.compact_dim, dtype=_tag_dtype(len(job.translations)))
    return visited, _np_gens(job.gens, visited.dtype.type)


def _component(job: _StratumJob, seed: int, visited, gens,
               pot: Optional[int] = None) -> list[tuple[int, int]]:
    """Flood the base orbit of compact seed and lift it: every orbit over
    it as (representative, size), or with pot given as the seed's
    K-potential, only the orbit that holds section(seed) ^ pot.

    Without translations there is one orbit, and its representative is
    the flood's minimum.
    """
    kdim = len(job.translations)
    if not kdim:
        low, size, _ = _bfs_component(seed, gens, visited)
        return [(job.offset ^ _combine(low, job.basis), size)]
    span = _Span(kdim)
    _, _, levels = _bfs_component(seed, gens, visited, span, pot or 0)
    return _lift(job, levels, span.basis, every=pot is None)


def _run_stratum_job(job: _StratumJob) -> list[tuple[int, int]]:
    """Every orbit over the job's stratum, as (representative, size).

    Seeds are scanned in ascending compact order.  Without translations
    the seed is the orbit minimum, because every smaller state is already
    visited, and the flood's explicit minimum confirms it.
    """
    visited, gens = _search(job)
    rows = []
    cursor = 0
    while cursor < visited.size:
        seed = cursor + int(visited[cursor:].argmin())
        if visited[seed]:
            break
        orbits = _component(job, seed, visited, gens)
        if not job.translations and orbits[0][0] != job.offset ^ _combine(seed, job.basis):
            raise AssertionError("ascending seed scan lost the orbit minimum")
        rows.extend(orbits)
        cursor = seed + 1
    return rows


def _run_jobs(jobs: list[_StratumJob], workers: int) -> list[tuple[int, int]]:
    if workers > 1 and len(jobs) > 1:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # platforms without fork; jobs pickle fine either way
            ctx = mp.get_context()
        with ctx.Pool(processes=min(workers, len(jobs))) as pool:
            chunks = pool.map(_run_stratum_job, jobs)
    else:
        chunks = [_run_stratum_job(j) for j in jobs]
    return [row for chunk in chunks for row in chunk]


def _default_workers() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _family(spec):
    """(dim, masks, functionals, descriptor, n, kind) for a spec.

    Accepts an ActionSpec or any object exposing state_dim and
    masked_generators() (graph lattices do).  The functionals are the
    height functionals that label records, empty when records carry no
    height.  The guard runs before any mask is built.
    """
    dim = spec.state_dim
    _check_dim(dim)
    if isinstance(spec, ActionSpec):
        masks = generator_masks(spec)
        functionals = (height_functionals(spec)
                       if spec.kind in (ActionKind.FIRST, ActionKind.SECOND) else [])
        return dim, masks, functionals, spec.describe(), spec.n, spec.kind.value
    return dim, spec.masked_generators(), [], spec.describe(), None, None


def _lift_plan(dim: int, masks, translations=None) -> tuple[tuple[int, ...], list[int]]:
    """(translations, base functionals) of a search.

    translations defaults to all of K, the common null space of the
    condition masks; any basis of a subspace of K may be given instead,
    and an empty one searches V itself.  The base functionals are the
    invariants of V/K: they vanish on every footprint and on K.
    """
    if translations is None:
        translations = _nullspace([cond for cond, _ in masks], dim)
    translations = tuple(_echelon(translations))
    return translations, _nullspace([foot for _, foot in masks] + list(translations), dim)


def _records(dim: int, functionals, rows) -> tuple[OrbitRecord, ...]:
    """Records sorted by (height, representative), heights read off the
    representatives."""
    t = len(functionals)
    keyed = sorted((_evaluate(rep, functionals), rep, size) for rep, size in rows)
    return tuple(OrbitRecord(F2Vector(dim, rep), size,
                             height=F2Vector(t, h) if t else None)
                 for h, rep, size in keyed)


def enumerate_orbits(spec, workers: Optional[int] = None) -> OrbitCensus:
    """Exact orbit census of the full state space of ``spec``.

    Deterministic for any worker count: the strata of V/K are searched
    independently and merged by sorted reduction.
    """
    return _census(spec, workers)


def enumerate_stratum(spec: ActionSpec, height: F2Vector,
                      workers: Optional[int] = None) -> OrbitCensus:
    """Census restricted to the stratum at the given height.

    The stratum lies in one stratum of V/K, which is searched and lifted
    as one job; its orbits are filtered by height.
    """
    return _census(spec, workers, height)


def _census(spec, workers: Optional[int] = None, height: Optional[F2Vector] = None,
            translations=None) -> OrbitCensus:
    """The census of the whole space, or of one height stratum, lifting
    through the given translations (see _lift_plan).

    The base functionals lie in the span of the height functionals, so a
    height stratum sits inside one stratum of V/K.
    """
    dim, masks, functionals, descriptor, n, kind = _family(spec)
    t = len(functionals)
    translations, base = _lift_plan(dim, masks, translations)
    if height is None:
        jobs, total = _build_stratum_jobs(dim, masks, base, translations), 1 << dim
    else:
        if not t:
            raise ValueError(f"{kind or descriptor} has no height decomposition")
        if height.dim != t:
            raise ValueError(f"height length {height.dim} does not match {t} "
                             f"for {kind}, n={n}")
        if _rank(functionals + base, dim) != t:
            raise AssertionError("a height stratum straddles several strata of V/K")
        point = _solve(functionals, height.bits)
        jobs = [_stratum_job(dim, masks, base, translations, _evaluate(point, base))]
        total, descriptor = 1 << (dim - t), f"{descriptor}, height {height.to_string()}"
    rows = [(rep, size) for rep, size in _run_jobs(jobs, workers or _default_workers())
            if height is None or _evaluate(rep, functionals) == height.bits]
    return OrbitCensus(descriptor, n, kind, dim, total, _records(dim, functionals, rows))


def _state_bits(state) -> int:
    if isinstance(state, int):
        return state
    bits = getattr(state, "bits", None)
    if bits is None:
        raise TypeError(f"cannot read a state from {type(state).__name__}")
    return bits


def orbit_of(spec, state) -> OrbitRecord:
    """The orbit record containing ``state``, as the census reports it.

    The one search of the census: the base orbit of the state's
    projection to V/K is flooded in the job of its stratum, seeded with
    the state's K-component as its potential, and only the orbit that
    holds the state is lifted.
    """
    dim, masks, functionals, _, _, _ = _family(spec)
    start = _state_bits(state)
    if not 0 <= start < (1 << dim):
        raise ValueError(f"state 0x{start:x} out of range for dim {dim}")
    translations, base = _lift_plan(dim, masks)
    job = _stratum_job(dim, masks, base, translations, _evaluate(start, base))
    seed = _compact(job, _reduce(start, translations))
    pot = _evaluate(start, [1 << (k.bit_length() - 1) for k in translations])
    return _records(dim, functionals, _component(job, seed, *_search(job), pot))[0]


def attach_labels(census: OrbitCensus, labels: dict[int, str]) -> OrbitCensus:
    """New census with type labels keyed by representative bits."""
    records = tuple(replace(r, type_label=labels.get(r.representative.bits))
                    for r in census.records)
    return OrbitCensus(census.spec_descriptor, census.n, census.kind,
                       census.state_dim, census.total_states, records)
