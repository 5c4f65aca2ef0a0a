"""Exhaustive orbit enumeration over 2^d state spaces.

States are packed ints; every generator is a parity-conditioned XOR
(condition mask, footprint mask, constant bit), which makes the orbit
partition the connected components of an implicit undirected graph.  The
engine runs a frontier BFS with a visited map of one tag per state (a
byte while dim K < 8), vectorized with numpy over frontier chunks.  Involutivity of the generators keeps
each expansion batch duplicate-free, so no sorting is ever needed.

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
_SMALL_ORBIT_LIMIT = 1 << 16
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


def _bfs_component(seed: int, gens, visited: np.ndarray, span: Optional[_Span] = None):
    """Flood one component and mark it visited; returns (min, size, levels).

    Without a span, visited holds 1 per state, the minimum state is
    tracked and levels is None.  With a span (the lifted search), the tag
    of a state is a flag bit above its K-potential: a fresh state takes
    its parent's potential plus the generator's voltage, every other edge
    x -> gx adds pot(x) ^ voltage ^ pot(gx) to the span until it is all
    of K, and levels keeps every frontier with its potentials; the
    minimum is left to the lift and reads as the seed.
    """
    lifted = span is not None
    flag = visited.dtype.type(1 << span.dim) if lifted else 1
    visited[seed] = flag
    frontier = np.array([seed], dtype=np.uint32)
    pots = np.zeros(1, dtype=visited.dtype) if lifted else None
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


def _lift(job: _StratumJob, levels, cycles: list[int]) -> list[tuple[int, int]]:
    """The orbits over one base orbit O', as (representative, size).

    The cycle voltages span S in K.  There is one orbit per coset c of S
    in K, with |O'| * 2^rank(S) states; its representative is the least
    reduce_S(section(y) ^ pot(y) ^ c) over y in O', taken in chunks of
    at most _LIFT_CHUNK (member, coset) pairs.
    """
    s_basis = _echelon([_combine(v, job.translations) for v in cycles])
    cosets = np.array(_span_points(
        _echelon([_reduce(k, s_basis) for k in job.translations])), dtype=np.uint32)
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
    reps = [int(r) for r in best]
    for rep in reps:
        z = _compact(job, _reduce(rep, job.translations))
        if not any(bool((states == z).any()) for states, _ in levels):
            raise AssertionError("lifted representative leaves its base orbit")
    size = base_size << len(s_basis)
    return [(rep, size) for rep in reps]


def _run_stratum_job(job: _StratumJob) -> list[tuple[int, int]]:
    """Every orbit over the job's stratum, as (representative, size).

    Seeds are scanned in ascending compact order.  Without translations
    the seed is the orbit minimum, because every smaller state is already
    visited, and the flood's explicit minimum confirms it; with them each
    base orbit is lifted.
    """
    kdim = len(job.translations)
    total = 1 << job.compact_dim
    visited = np.zeros(total, dtype=_tag_dtype(kdim))
    gens = _np_gens(job.gens, visited.dtype.type)
    rows = []
    cursor = 0
    while cursor < total:
        seed = cursor + int(visited[cursor:].argmin())
        if visited[seed]:
            break
        span = _Span(kdim) if kdim else None
        low, size, levels = _bfs_component(seed, gens, visited, span)
        if span is None:
            if low != seed:
                raise AssertionError("ascending seed scan lost the orbit minimum")
            rows.append((job.offset ^ _combine(seed, job.basis), size))
        else:
            rows.extend(_lift(job, levels, span.basis))
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
        if spec.kind in (ActionKind.FIRST, ActionKind.SECOND):
            functionals = height_functionals(spec)
        else:
            functionals = []
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


def _census(spec, workers: Optional[int] = None, translations=None) -> OrbitCensus:
    """enumerate_orbits lifting through the given translations (see _lift_plan)."""
    dim, masks, functionals, descriptor, n, kind = _family(spec)
    translations, base = _lift_plan(dim, masks, translations)
    jobs = _build_stratum_jobs(dim, masks, base, translations)
    rows = _run_jobs(jobs, workers or _default_workers())
    return OrbitCensus(descriptor, n, kind, dim, 1 << dim, _records(dim, functionals, rows))


def _stratum_spec_check(spec: ActionSpec, height: F2Vector) -> list[int]:
    functionals = height_functionals(spec)
    if spec.kind not in (ActionKind.FIRST, ActionKind.SECOND):
        raise ValueError(f"{spec.kind.value} has no height decomposition")
    if height.dim != len(functionals):
        raise ValueError(
            f"height length {height.dim} does not match {len(functionals)} "
            f"for {spec.kind.value}, n={spec.n}")
    return functionals


def enumerate_stratum(spec: ActionSpec, height: F2Vector,
                      workers: Optional[int] = None) -> OrbitCensus:
    """Census restricted to the stratum at the given height."""
    del workers  # a single stratum is one job
    return _stratum_census(spec, height)


def _stratum_census(spec: ActionSpec, height: F2Vector, translations=None) -> OrbitCensus:
    """enumerate_stratum lifting through the given translations.

    The base functionals lie in the span of the height functionals, so
    the stratum sits inside one stratum of V/K; that one is lifted and
    its orbits are filtered by height.
    """
    dim = spec.state_dim
    _check_dim(dim)
    functionals = _stratum_spec_check(spec, height)
    masks = generator_masks(spec)
    translations, base = _lift_plan(dim, masks, translations)
    if _rank(functionals + base, dim) != len(functionals):
        raise AssertionError("a height stratum straddles several strata of V/K")
    point = _solve(functionals, height.bits)
    job = _stratum_job(dim, masks, base, translations, _evaluate(point, base))
    rows = [(rep, size) for rep, size in _run_stratum_job(job)
            if _evaluate(rep, functionals) == height.bits]
    return OrbitCensus(
        f"{spec.describe()}, height {height.to_string()}",
        spec.n, spec.kind.value, dim, 1 << (dim - len(functionals)),
        _records(dim, functionals, rows))


def _state_bits(state) -> int:
    if isinstance(state, int):
        return state
    bits = getattr(state, "bits", None)
    if bits is None:
        raise TypeError(f"cannot read a state from {type(state).__name__}")
    return bits


def orbit_of(spec, state) -> OrbitRecord:
    """The orbit record containing ``state``.

    Small orbits are closed over a plain hash set; past the size limit,
    the search falls back to the vectorized engine on the state's stratum
    (the whole space when there is no height decomposition).
    """
    dim, masks, functionals, _, _, _ = _family(spec)
    start = _state_bits(state)
    if not 0 <= start < (1 << dim):
        raise ValueError(f"state 0x{start:x} out of range for dim {dim}")
    seen = {start}
    frontier = [start]
    while frontier and len(seen) <= _SMALL_ORBIT_LIMIT:
        nxt = []
        for x in frontier:
            for cond, foot in masks:
                y = x ^ foot if _parity(x & cond) else x
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    hbits = _evaluate(start, functionals)
    height = F2Vector(len(functionals), hbits) if functionals else None
    if not frontier:
        return OrbitRecord(F2Vector(dim, min(seen)), len(seen), height=height)
    # big orbit: rerun vectorized in the compact coordinates of its stratum
    job = _stratum_job(dim, masks, functionals, (), hbits)
    visited = np.zeros(1 << job.compact_dim, dtype=np.uint8)
    low, size, _ = _bfs_component(_compact(job, start), _np_gens(job.gens), visited)
    return OrbitRecord(F2Vector(dim, job.offset ^ _combine(low, job.basis)), size,
                       height=height)


def attach_labels(census: OrbitCensus, labels: dict[int, str]) -> OrbitCensus:
    """New census with type labels keyed by representative bits."""
    records = tuple(replace(r, type_label=labels.get(r.representative.bits))
                    for r in census.records)
    return OrbitCensus(census.spec_descriptor, census.n, census.kind,
                       census.state_dim, census.total_states, records)
