"""Exhaustive orbit enumeration over 2^d state spaces.

States are packed ints; every generator is a parity-conditioned XOR
(condition mask, footprint mask, constant bit), which makes the orbit
partition the connected components of an implicit undirected graph.
Every search floods one component at a time on bitsets, one bit per
compact state: a visited map and, when K (below) is not 0, the
component being lifted (reached) and one potential bit-plane per
dimension of R (below).  While its frontier is small a flood runs BFS levels,
vectorized with numpy over the whole frontier per generator, that
gather their moved states and mark them in the visited bitset alone;
involutivity of the generators keeps each expansion batch
duplicate-free, so no sorting is ever needed.  Once the frontier holds
a quarter as many states as the map has words, or once a lifted
flood's frontier empties, the flood finishes as a closure (after
direction-optimizing BFS): from the frontier and the seed, reached and
the planes (or, with no planes, visited itself) are swept in place
together, generator after generator, with word-wide bit operations over
the whole stratum, one cache-sized tile of _TILE_WORDS words after
another, until a sweep adds no state (the tile steps that add none
collect the cycles, below) or, once the cycles span R, the component
fills what the map has left unvisited.

The search runs on a quotient.  K, the common null space of the
condition masks, acts by translations that commute with every
generator: g(x + k) = g(x) + k.  So the action descends to V/K, taken
as the section of states that are zero at the pivots of K's
echelon-high basis, and every orbit of V lies over an orbit of V/K.
V/K is split into strata by its own invariants (the functionals that
vanish on every footprint and on K), each an affine subspace searched
in compact coordinates.  Their bits from 6 up, a state's word in the
bitsets, keep state order, so word order is state order.  The six below
are a linear change of the echelon coordinates that lets the generators
move fewer bits inside a word, so inside a word the states are compared
through the compact basis, the one description of state order.  One
stratum search is one _StratumJob.  A search's plan (_plan, cached)
derives K, the invariants and the compact basis from the generator
masks once, and is itself the job of the stratum at offset 0; every
other job is the plan with its own offset and generator constants
(_stratum_job).  Strata are independent jobs: _run_jobs forks
children that pull them one at a time from a pipe and send their rows
back, while the census process itself runs none.

The potentials are carried in a gauge (Gross and Tucker, Topological
Graph Theory, 1987, ch. 2, on voltage graphs).  Let f_g be generator
g's compact footprint and v_g its voltage, the K-component of its
footprint in K-coordinates (bit i for translations[i]).  A relation is
a c in F2^G with sum c_g f_g = 0, and R = {sum c_g v_g : c a
relation}.  A closed walk in a base orbit returns to its start, so
the generators it uses, counted mod 2, form a relation (a self-loop,
f_g = 0, is the relation e_g): every cycle voltage lies in R.  R and
the twist come from one reduced echelon of the pairs f_g << dim K |
v_g.  A relation's footprints cancel, so the rows with no footprint
bits are R's reduced echelon basis.  The other rows are zero at R's
pivots and form the graph of the linear alpha on the compact space
with alpha(f_g) = reduce_R(v_g), well defined since a relation maps
into R, which reduce_R kills: alpha of compact bit s is the low dim K
bits of 1 << s + dim K reduced by the echelon.  The section twisted
by alpha, z -> s(z) + alpha(z) with alpha(z) read as a translation,
gives generator g the voltage v_g + reduce_R(v_g), in R.  A state x =
s(y) + pot(y) = s'(y) + pot'(y) is the same element of V, and a
cycle's voltage is unchanged (the twist adds reduce_R of it, which is
0 since it lies in R), so the search finds the same spans.  But a
twisted potential changes only inside R, so a search carries its
R-coordinates alone, and its K/R part, reduce_R(pot'(y)), is one value
on the whole component.

The search word of a base state y is pot'(y) << compact_dim | y: its
compact coordinates below the R-coordinates of its twisted potential
(_search_word builds it for any state of a job's stratum).  A
generator's twisted voltage, in R-coordinates, sits above its compact
footprint in its footprint word, so one XOR moves a state and its
potential together; the sparse levels keep potentials in the words,
the closure in the planes.  There a tree edge y -> gy sets pot'(gy) =
pot'(y) ^ voltage, so pot'(y) is the seed's plus the voltage of a walk
to y, and every edge adds pot'(y) ^ voltage ^ pot'(gy) to a span S of
R (Schreier generators from a spanning tree).  The closure carries the
potentials modulo S: each new cycle vector reduces every plane and
drops the plane of its pivot, so a potential changes only by an element
of S, and the sweeps move 1 + dim R - rank S rows, reached alone once S
= R, after which no cycle can add to S.  A base orbit O' then lifts to
2^(dim K - rank S) orbits of |O'| * 2^rank S states, one per coset c
of S in K, spanned by the live R coordinates and a complement of R in
K, and the representative of the one over c is the least
reduce_S(s'(y) ^ pot'(y) ^ c) over y in O', read back from reached and
the live planes through the twisted basis; the minima of all cosets
come from one sorted chunk of members.  Only where S = R = K is there
one orbit over O', represented by the section of the least state of
O', which needs neither (alpha is 0 when R = K).  K = 0 (the second
action) is the case of no planes, with S = R = K from the start: the
words are compact states.  It needs no reached map either: every
earlier component on visited is closed under the generators, so a
closure sweeps visited itself, one bitset per job.  Where R = 0 < K
there are no planes either, and the sparse levels mark reached beside
visited, so that it holds the component for the lift whether or not a
closure runs.

A flood only marks its component and returns its size and span; the
caller reads the least state it needs, since only the caller knows
what visited held before.  Short of S = R = K the caller lifts.  Where
S = R = K, a census's seed scan, ascending in state order, meets each
base orbit at its minimum, with every earlier word full, and checks
that the least state a flood added to its seed's word is the seed;
orbit_of, whose map starts empty, reads the least visited state.
Heights are read off the representatives.

Every query runs this one search: a census runs every stratum job of
V/K, a height stratum the one job that holds it (filtered by height),
and orbit_of floods the base orbit under its state, seeded with its
twisted potential's R-coordinates, and lifts only the state's orbit,
the one over the coset of the potential's K/R part.
Censuses are merged by sorted reduction and are byte-identical for any
worker count.  The linear algebra (echelon bases, null spaces, coset
minima and the mask maps between compact and full coordinates) comes
from f2la.
"""

from __future__ import annotations

import json
import numbers
import os
import pickle
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .f2la import (F2Vector, _Span, _apply_tables, _byte_tables, _combine, _coset_minima,
                   _echelon, _evaluate, _insert, _nullspace, _parity, _parity_u32, _rank,
                   _reduce, _solve, _span_points)
# the enumeration guard, kept in f2la so that lattice refuses an oversize
# graph without loading numpy, and re-exported here under its names
from .f2la import ENUM_DIM_LIMIT, EnumerationGuardError, _check_dim  # noqa: F401
from .actions import ActionSpec, generator_masks, height_functionals

# POSIX's least PIPE_BUF, a multiple of _run_jobs' 4-byte records: a
# pipe write of at most this many bytes is atomic
_PIPE_BUF = 512

# the words of a closure tile, a power of two (256 KiB): a tile's source,
# odd set and two scratch rows fit in a 2 MiB L2 cache, where a whole
# 2^24-state map streams from L3 on every pass
_TILE_WORDS = 1 << 15


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
    """A deterministic partition summary of a full space or one stratum.

    Its three writers, to_json, to_csv and to_table, format the same
    row per record (_cells), in record order."""

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
        return dict(Counter(r.cardinality for r in self.records))

    def by_height(self) -> dict[int, tuple[OrbitRecord, ...]]:
        out: dict[int, list[OrbitRecord]] = {}
        for r in self.records:
            out.setdefault(r.sort_key()[0], []).append(r)
        return {h: tuple(v) for h, v in out.items()}

    def _cells(self):
        """Per record: representative hex, cardinality, height bits or
        None, type label or None.  A generator, so that no writer holds
        a second copy of the records."""
        for r in self.records:
            yield (format(r.representative.bits, "x"), r.cardinality,
                   None if r.height is None else r.height.to_string(), r.type_label)

    def to_json(self) -> str:
        orbits = [{"representative_hex": rep, "cardinality": size, "height_bits": height,
                   **({} if label is None else {"type_label": label})}
                  for rep, size, height, label in self._cells()]
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
        lines += (f"{rep},{size},{height or ''},{label or ''}"
                  for rep, size, height, label in self._cells())
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        rows = ["representative_hex  cardinality  height_bits  type_label"]
        rows += ("{:<18}  {:>11}  {:<11}  {}".format(
                     rep, size, "-" if height is None else height, label or "-")
                 for rep, size, height, label in self._cells())
        return "\n".join(rows) + "\n"


def _record_diff(expected: OrbitCensus, observed: OrbitCensus) -> str:
    """The first (representative, cardinality) record where `observed`
    departs from `expected`, or its record count when one list is a
    prefix of the other; "" when the records agree."""
    exp, obs = ([(r.representative.to_string(), r.cardinality) for r in c.records]
                for c in (expected, observed))
    return next((f"record {i}: {o} != {e}" for i, (o, e) in enumerate(zip(obs, exp))
                 if o != e), "" if len(obs) == len(exp) else f"{len(obs)} records")


# A bitset marks compact state z at bit z & 63 of word z >> 6.  _SWAP[s]
# holds the bits i of a word with bit s of i clear.
_ONES = np.uint64(2**64 - 1)
_SWAP = tuple(np.uint64(sum(1 << i for i in range(64) if not i >> s & 1)) for s in range(6))
# _SPREAD[x] holds bit b of the byte x in its byte b
_SPREAD = np.array([sum((x >> b & 1) << 8 * b for b in range(8)) for x in range(256)], dtype="<u8")
_UNPACK = 1 << 10


def _members(bits: np.ndarray) -> np.ndarray:
    """The states of a bitset, ascending, as uint32, written into one
    array of its popcount.  Bit p of word w is compact state w << 6 | p,
    which is the state itself where the compact basis is the standard
    basis, as in the closure's search of the whole space (_closure).

    The bitset is read in place, _UNPACK / 2 words at a time, both to sum
    the popcount and to write the answer: the set bits of a block
    starting at word s are its unpacked positions i, so its states are
    i + 64 s, computed in i itself and copied into the answer.  Beside
    the answer nothing grows with the bitset, and nothing holds more
    than one block: the unpacked bytes and i, 256 KiB when the block is
    full.  Zero words are unpacked too, since filtering them out first
    and taking each word's base cost more on the closures' dense maps.
    """
    step = _UNPACK >> 1
    blocks = range(0, bits.size, step)
    out = np.empty(sum(int(np.bitwise_count(bits[s:s + step]).sum()) for s in blocks),
                   dtype=np.uint32)
    at = 0
    for start in blocks:
        block = np.ascontiguousarray(bits[start:start + step], dtype="<u8")
        i = np.unpackbits(block.view(np.uint8), bitorder="little").view(np.bool_).nonzero()[0]
        i += start << 6
        out[at:at + i.size] = i
        at += i.size
    return out


def _least_in_word(v: int, w: int, job: _StratumJob) -> int:
    """The position in word w of the least state, read through the job's
    compact basis, among the set bits of v.  The states of one word
    differ only in their six low compact coordinates, so the state at
    position p is _combine(w << 6, basis) ^ _combine(p, basis).  Where
    no set bit of v is a state (past the last state of a map under 64
    states), the highest set bit, a position of at least 2^compact_dim,
    is returned."""
    high = _combine(w << 6, job.basis)
    return min((p for p in range(min(64, 1 << job.compact_dim)) if v >> p & 1),
               key=lambda p: high ^ _combine(p, job.basis), default=v.bit_length() - 1)


def _odd_words(cond: int, const: int, out: np.ndarray) -> np.ndarray:
    """Write the odd set of (cond, const) into the bitset out and return
    it: bit i of word w is parity((64 w + i) & cond) ^ const.  From the
    one state 0, each bit j of the state index doubles the prefix,
    inverted where bit j of cond is set: in word 0 for j < 6, then along
    the words."""
    pattern = const
    for j in range(6):
        half = 1 << j
        pattern |= (pattern ^ ((1 << half) - 1 if cond >> j & 1 else 0)) << half
    out[0] = pattern
    for j in range(out.size.bit_length() - 1):
        half = 1 << j
        np.bitwise_xor(out[:half], _ONES if cond >> 6 + j & 1 else np.uint64(0),
                       out=out[half:2 * half])
    return out


def _word_move(foot: int, words: int) -> tuple:
    """The plan by which _p_foot moves bitsets of words words to {i ^
    foot}: (shape, flips, index, swaps).  shape splits the word axis into
    one axis of 2 per word bit from 4 up, then one axis for the low 4
    bits (for every bit on fewer than 16 words).  flips is the index that
    flips the upper axes where foot >> 6 has a bit, or None; index
    gathers each run of the last axis at i ^ (foot >> 6), or is None
    where foot >> 6 has no low bit.  swaps holds the (mask, shift) of one
    delta swap inside every word per set bit s < 6 of foot.  The bits of
    foot above the words are ignored, so a tile of a larger map moves
    within itself.  A closure plans each generator's move once."""
    k = words.bit_length() - 1
    low = min(k, 4)
    high = foot >> 6 + low & (1 << k - low) - 1
    # the view np.flip returns, without its per-call axis normalization,
    # from a list, not a generator, which tracemalloc counts as held
    # until the next collection
    flips = tuple([..., *[slice(None, None, -1 if high >> j & 1 else 1)
                          for j in range(k - low - 1, -1, -1)], slice(None)]) if high else None
    xor = foot >> 6 & (1 << low) - 1
    index = np.arange(1 << low, dtype=np.intp) ^ xor if xor else None
    swaps = tuple((_SWAP[s], np.uint64(1 << s)) for s in range(6) if foot >> s & 1)
    return (2,) * (k - low) + (1 << low,), flips, index, swaps


def _p_foot(bits: np.ndarray, spare: np.ndarray, move: tuple) -> np.ndarray:
    """Move every bitset along the last axis of bits to {i ^ foot : i in
    bits} by the plan move = _word_move(foot, words), and return the
    buffer that holds the result, bits or spare; both are overwritten.
    The words go to w ^ (foot >> 6) in two passes at most, each into the
    buffer that does not hold the words: a copy through flipped axes of
    the word bits from 4 up, whose inner runs are then at least 16 words
    long, then one np.take of 16 entries along the low 4 word bits, from
    the contiguous copy (a take of a strided view would copy it first).
    Then each delta swap runs in place, with the other buffer as
    scratch."""
    shape, flips, index, swaps = move
    lead = bits.shape[:-1]
    if flips is not None:
        np.copyto(spare.reshape(lead + shape), bits.reshape(lead + shape)[flips])
        bits, spare = spare, bits
    if index is not None:
        # mode "clip" (no index is out of range) does not buffer out
        np.take(bits.reshape(lead + (-1, index.size)), index, axis=-1,
                out=spare.reshape(lead + (-1, index.size)), mode="clip")
        bits, spare = spare, bits
    for m, t in swaps:
        np.right_shift(bits, t, out=spare)
        spare &= m
        bits &= m
        bits <<= t
        bits |= spare
    return bits


def _tile_step(tiled: np.ndarray, u: int, s: int, odd: np.ndarray, move: tuple,
               voltage: int, src: np.ndarray, other: np.ndarray, span: _Span) -> None:
    """One tile step of a closure (_close): OR P_foot(tiled[:, s] & odd)
    into output tile u of the stack tiled, where tiled[r, u] is tile u
    of row r, s is u's source tile under the generator and odd is the
    generator's odd set on tile s.  P_foot maps the odd set to itself,
    because cond . foot is even; the plan move = _word_move(foot, width)
    moves the tile's words by the low bits of foot >> 6 and its bits by
    the low 6 of foot.  When K = 0 the stack is visited alone, and
    P_foot(visited & odd) can only grow the current component, since
    every earlier one on visited is closed under the generators.

    The step moves reached and the live planes of span, the first 1 +
    len(span.live) rows (reached alone once S = R).  It writes its
    source into src, and _p_foot moves it within src and other and
    returns the one that holds the moved stack; the other one is
    scratch for the fresh states and the cycles.  On a map of one tile
    odd is other[0], which _p_foot overwrites, so the step reads odd
    only before _p_foot.

    With planes, a source tile with no odd state in reached moves
    nothing, and the step returns at once.  Otherwise the fresh states
    P_foot(reached & odd) & ~reached take the moved planes, flipped at
    the rows of the generator's voltage reduced by S (span.rows);
    reached grows after every step, so each state takes its potential
    from exactly one parent.  A step whose fresh states are empty feeds
    pot(y) ^ voltage ^ pot(gy) of its edges to span while span is not
    full (tree edges give 0).  Each is a cycle voltage reduced by S,
    since both ends of every such edge are in reached and hold their
    potentials modulo S: a potential changes only by an element of S,
    when span reduces every plane by a new cycle vector.

    Reading a source tile that an earlier step of the same generator
    grew is harmless: each generator is an involution, so the states
    just added there only move back onto their parents, which are
    already in reached (they take no potential, and their cycle voltages
    are 0).
    """
    rows = 1 + len(span.live)
    src, other = src[:rows], other[:rows]
    np.bitwise_and(tiled[0, s], odd, out=src[0])
    if span.dim:
        # a tile with no odd state in reached moves nothing: one row of
        # work for the rows moved (without planes this check costs more
        # than it saves)
        if not src[0].any():
            return
        np.bitwise_and(tiled[1:rows, s], odd, out=src[1:])
    moved = _p_foot(src, other, move)
    if rows > 1:
        spare = other if moved is src else src
        # row 1 + r of moved now holds live coordinate r of pot(gx) ^
        # voltage at every x with gx in reached
        for r in span.rows(voltage):
            np.invert(moved[1 + r], out=moved[1 + r])
        fresh = np.invert(tiled[0, u], out=spare[0])
        fresh &= moved[0]
        if fresh.any():
            moved[1:] &= fresh
            tiled[1:rows, u] |= moved[1:]
        else:
            cycles = moved[1:]
            cycles ^= tiled[1:rows, u]
            cycles &= moved[0]
            span.absorb_planes(cycles, spare[0], tiled[1:])
    tiled[0, u] |= moved[0]


def _dense(count: int, words: int) -> bool:
    """Whether a flood whose frontier holds count states finishes as a
    closure over bitsets of words words: at least a quarter as many
    states as words, on a map of at least 64 words (2^12 states).  A
    closure sweeps the whole map however small its component, and the
    quarter lets at most 256 floods of one map close.  On smaller maps a
    sweep's fixed cost, a few numpy calls per generator, outweighs the
    gathers it saves."""
    return words >= 64 and 4 * count >= words


def _scatter(stack: np.ndarray, words: np.ndarray, shift: int) -> None:
    """Mark the states z of the search words pot << shift | z in the
    bitset stack[0], and bit j of pot(z) in stack[1 + j], by one
    bitwise_or.at a row: no index arrays, no masked copy of words."""
    zmask = (1 << shift) - 1
    word = words >> 6
    word &= zmask >> 6
    bit = np.uint64(1) << (words & (zmask & 63))
    np.bitwise_or.at(stack[0], word, bit)
    for j, plane in enumerate(stack[1:]):
        on = (words & np.uint32(1 << shift + j)) != 0
        np.bitwise_or.at(plane, word[on], bit[on])


def _flood(job: _StratumJob, seed: int, maps: np.ndarray) -> tuple[int, _Span]:
    """Flood the component of the search word seed = pot << compact_dim | z
    on the job's maps (see _search) and mark it visited; returns (size,
    span): the component's size and the span S of its cycle voltages in
    R.  Which state is its least is for the caller to read off the maps,
    since only the caller knows what visited held before the flood.

    Small frontiers take sparse BFS levels that mark visited (and
    reached too where R = 0 < K, see _search): each
    generator's moved words, potentials above states, are gathered from
    the whole frontier and tested against the bitset.  Each selection
    takes the intp indices of a bool view's nonzero entries, not a
    boolean mask, and visited is gathered through intp word indices:
    both are numpy's fast paths, and the states keep their order.  Once
    _dense says the frontier is big (after Beamer, Asanovic and Patterson,
    "Direction-optimizing breadth-first search", SC 2012), the flood ends
    as a closure (_close); a flood whose span is not full (S short of R)
    ends in one from its last nonempty frontier when the frontier
    empties first.  On return reached, where K > 0, holds the component,
    for _lift.
    """
    span = _Span(len(job.cycles))
    zmask = (1 << job.compact_dim) - 1
    visited = maps[0]
    # the rows the sparse levels mark: visited and, where no plane lies
    # below it (R = 0 < K), reached, which then holds the component
    # whether or not a closure runs
    marks = maps[:2] if len(maps) == 2 else maps[:1]
    marks[1:].fill(0)
    grown = frontier = np.array([seed], dtype=np.uint32)
    size = 1
    marks[:, (seed & zmask) >> 6] |= np.uint64(1) << np.uint64(seed & zmask & 63)
    while not _dense(frontier.size, visited.size):
        parts = [np.empty(0, dtype=np.uint32)]
        for cond, foot, const in job.gens:
            # the indices of a bool view's nonzero entries plus take, not a
            # boolean mask: both stay on numpy's fast paths, and keep the
            # states' order
            moved = frontier.take(
                (_parity_u32(frontier & cond) ^ const).view(np.bool_).nonzero()[0])
            # most generators move nothing in most levels: skip the numpy
            # calls below on empty arrays
            if not moved.size:
                continue
            moved ^= foot
            # with no planes the words are the states: no copy to mask
            z = moved & zmask if span.dim else moved
            word = np.right_shift(z, 6, dtype=np.intp)
            bit = np.uint64(1) << (z & 63)
            seen = visited.take(word)
            seen &= bit
            new = (seen == 0).nonzero()[0]
            # every array here is one per moved state: free each once used
            del seen, z
            word = word.take(new)
            bit = bit.take(new)
            for row in marks:
                np.bitwise_or.at(row, word, bit)
            parts.append(moved.take(new))
        grown = np.concatenate(parts)
        if not grown.size:
            break
        frontier = grown
        size += frontier.size
    if grown.size or not span.full:
        size = _close(job, seed, frontier, size, maps, span)
    return size, span


def _close(job: _StratumJob, seed: int, frontier: np.ndarray, size: int, maps: np.ndarray,
           span: _Span) -> int:
    """The closure phase of _flood on the job's maps, from its seed and
    frontier words once it has marked size states; marks the component,
    feeds its cycle voltages to span and returns the component's size.

    The closure runs on a stack of bitsets, reached and below it the
    potential planes: reached is cleared of the previous component and
    the words are marked by _scatter, so on return reached holds this
    component, and visited is ORed with it.  Without planes (R = 0) the
    sparse levels have marked the words on the stack: reached alone
    where K > 0, and visited itself when K = 0, where the returned size
    is the popcount that visited gained on top of the flood's.  A growth
    sweep moves reached and the live planes by one generator after
    another, one tile step (_tile_step) per output tile.  The
    potentials are carried modulo S: each cycle vector that span takes
    reduces every plane, over the whole map, and drops the plane of its
    pivot, so a potential changes only by an element of S, and from then
    on a step moves 1 + dim R - rank S rows, reached alone once S = R.
    The sweeps alternate direction, forward, then backward after every
    sweep that grew (the symmetric Gauss-Seidel order): a state found by
    a late generator of one sweep is moved on by the first generators of
    the next, not a whole sweep later.  That is exact because the
    generators are involutions, so the closure of any nonempty part of a
    component is the whole component, in any sweep order, and it holds
    nothing else: the sweeps rediscover the sparse levels from both
    their ends (the seed spares the sweep that its neighbourhood would
    cost), and with planes visited is only ORed with reached at the end.

    Each generator's step runs tile by tile, over slices of _TILE_WORDS
    words (the whole map when it is smaller), so that a tile's source,
    odd set and scratch stay in cache; maps come from _search, so its
    rows reshape to tiles as views.  On tiles of 2^tb words, output tile
    u reads source tile s = u ^ (foot >> 6 + tb), and the odd set of
    tile s is the odd set of tile 0 or, where parity(s & cond >> 6 + tb)
    is odd, its complement, both built once per generator; the move of
    a tile by the generator is planned once per closure (_word_move).

    The sweeps stop when one adds no state: every tile step of that last
    sweep adds none, so it sees every edge and S is complete.  Once S =
    R (always when R = 0), when no further cycle can add to S, they also
    stop as soon as reached and the states visited before this flood
    cover the map, which skips the confirming sweep of a stratum's last
    flood; short of S = R that sweep still runs, since it is the one
    that collects the cycles.  For the same reason only a full span lets
    a sweep skip the tiles of reached that are full: a read-only check
    after each tile step sets the tile's flag once S = R, and no later
    step of the closure moves anything into that tile.  When K = 0 those
    are tiles of visited, which earlier components fill too.

    The two scratch stacks, the odd set and its complement are
    tile-sized and allocated once, and the popcounts use src[0] as
    scratch, so a closure allocates nothing that grows with the map.  A
    map of one tile keeps the odd set in other[0] and needs no
    complement.
    """
    shift = job.compact_dim
    visited = maps[0]
    # K = 0: reached is visited itself, which the sparse levels have
    # marked, as they have marked reached where R = 0 < K
    stack = maps[1:] if len(maps) > 1 else maps
    reached = stack[0]
    if span.dim:
        reached.fill(0)
        for words in (np.array([seed], dtype=np.uint32), frontier):
            _scatter(stack, words, shift)
    width = min(_TILE_WORDS, visited.size)
    # tiled[r, u] is tile u of stack[r]: a view, and no object per tile
    tiled = stack.reshape(len(stack), -1, width)
    tiles = tiled.shape[1]
    src, other = np.empty((2, len(stack), width), dtype=np.uint64)
    # the odd set of tile 0 and, on more tiles, its complement
    odds = (other[0],) if tiles == 1 else np.empty((2, width), dtype=np.uint64)
    tb = width.bit_length() - 1
    zmask = (1 << shift) - 1
    steps = [(c, f & zmask, b, f >> shift, _word_move(f & zmask, width)) for c, f, b in job.gens]

    def popcount(row: np.ndarray) -> int:
        total = 0
        for tile in row.reshape(-1, width):
            total += int(np.bitwise_count(tile, out=src[0]).sum())
        return total

    # the states visited before this flood, which reached counts too
    # when K = 0
    outside = popcount(visited) - size if len(maps) > 1 else 0
    count = start = popcount(reached)
    # full[u]: tile u of reached is full, set only once S = R
    full = [False] * tiles
    while count + outside < 1 << shift or not span.full:
        for cond, foot, const, voltage, move in steps:
            _odd_words(cond, const, odds[0])
            if len(odds) > 1:
                np.invert(odds[0], out=odds[1])
            for u in range(tiles):
                if not full[u]:
                    s = u ^ foot >> 6 + tb
                    _tile_step(tiled, u, s, odds[_parity(s & cond >> 6 + tb)], move, voltage,
                               src, other, span)
                    full[u] = span.full and bool(tiled[0, u].min() == _ONES)
        grown = popcount(reached)
        if grown == count:
            break
        count = grown
        steps.reverse()
    if len(maps) == 1:
        # what the closure added to visited, on top of the flood's size
        return size + count - start
    visited |= reached
    return count


@dataclass(frozen=True)
class _StratumJob:
    """One stratum search of V/K, through its section in V: _plan builds
    the job of a search's stratum at offset 0, and _stratum_job moves it
    to any other stratum by its offset and its generators' constants,
    the only fields in which the jobs of a search differ.

    translations is the reduced echelon-high basis of K (or of the part
    of K lifted through) and k_pivots are their pivot masks; the section
    holds the states that are zero at them, and a stratum is where the
    base functionals read one value.  Compact bit s stands for basis[s],
    so compact z is the state offset ^ _combine(z, basis), and the
    readout functionals pivots read it back as _evaluate(state ^ offset,
    pivots); compact_dim is len(basis).  The bits of z from 6 up, its
    word in the bitsets, are echelon coordinates, so word order is state
    order; inside a word the states are compared through basis
    (_least_in_word), the one description of state order.

    cycles is the reduced echelon-high basis of R in V (combinations of
    translations, so their pivots are pivots of K), and twisted is the
    compact basis of the twisted section, basis[s] plus alpha of compact
    bit s read as a translation; the module docstring defines R and
    alpha.  A state of the stratum is
    offset ^ _combine(z, twisted) ^ _combine(pot, cycles) ^ c, with pot
    the R-coordinates of its twisted potential and c a point of K that
    is zero at R's pivots, one c per component.  The lift reads states
    through twisted; the seed scan and state order read them through
    basis, which twisted equals where R = K.

    conds are the generators' conditions on V, and gens are (compact
    condition, footprint word, constant) on search words pot <<
    compact_dim | z (_search_word): the footprint word is the
    generator's twisted voltage, in R-coordinates, above its compact
    footprint, and the constant is parity(offset & cond), 0 at offset 0.
    They are Python ints that the flood uses as they are: under numpy >=
    2.0 (NEP 50) a uint32 array combined with an int of at most 32 bits
    stays uint32.  A flood's span runs over R, and it is full when S =
    R, after which no cycle can add to it.
    """

    gens: tuple[tuple[int, int, int], ...]
    conds: tuple[int, ...]
    pivots: tuple[int, ...]
    basis: tuple[int, ...]
    offset: int
    translations: tuple[int, ...]
    k_pivots: tuple[int, ...]
    functionals: tuple[int, ...]
    twisted: tuple[int, ...]
    cycles: tuple[int, ...]

    @property
    def compact_dim(self) -> int:
        return len(self.basis)


def _inword_rows(feet: list[int], compact_dim: int) -> tuple[int, ...]:
    """The rows b_t = 1 << t | a_t, with a_t above bit t, for t < min(6,
    compact_dim), of the in-word change z'_t = parity(z & b_t) of
    echelon coordinates z, given the echelon footprints feet.

    A footprint f flips bit t of z' where parity(f & b_t) is odd, and
    each such bit costs _p_foot one delta swap in every tile step of its
    generator.  So a_t solves as many of the equations parity(f & a_t) =
    bit t of f as a greedy consistent subset holds: f >> t, whose bit 0
    is the equation's constant, is reduced by the reduced echelon basis
    of the rows taken so far and inserted (_insert) unless that leaves 0
    or 1 (0 = 1, inconsistent).  The taken rows' pivots lie above bit 0,
    so the solution c = 1 | a_t << 1 that is zero off bit 0 and the
    pivots holds, at the pivot of each taken row b, bit 0 of b.  The
    footprints go in their order and in reverse; the solution that
    leaves the fewest swaps is kept, and the identity row b_t = 1 << t
    unless one leaves fewer.
    """
    def swaps(b: int) -> int:
        return sum(_parity(f & b) for f in feet)

    rows = []
    for t in range(min(6, compact_dim)):
        best = 1 << t
        fewest = swaps(best)
        for sequence in (feet, feet[::-1]):
            taken: list[int] = []
            for f in sequence:
                g = _reduce(f >> t, taken)
                if g >> 1:
                    taken = _insert(taken, g)
            c = 1 | sum(1 << b.bit_length() - 1 for b in taken if b & 1)
            cost = swaps(c << t)
            if cost < fewest:
                best, fewest = c << t, cost
        rows.append(best)
    return tuple(rows)


@lru_cache
def _plan(dim: int, masks: tuple, translations=None, functionals=None) -> _StratumJob:
    """The plan of a search of the generator masks on F2^dim: the job of
    its stratum at offset 0, whose generator constants are all 0.  It is
    cached, so the strata of a census and repeated queries of one search
    share it, and every other job of the search is made from it
    (_stratum_job).

    translations defaults to all of K, the common null space of the
    condition masks; any basis of a subspace of K may be given instead,
    and an empty one searches V itself.  They are echeloned (reduced,
    echelon-high), and their pivots make k_pivots.  functionals defaults
    to the base functionals, the invariants of V/K: they vanish on every
    footprint and on the translations, and each stratum is where they
    are constant.  A search word holds compact_dim + dim R bits, at most
    32.

    The echelon coordinates z of the section, in the reduced echelon-high
    basis of the null space of the functionals and K's pivots, keep the
    order of the states, so their bits from 6 up keep word order equal
    to state order.  The six below are changed to z'_t = parity(z &
    rows[t]) (_inword_rows), which leaves fewer delta swaps to the
    closure.  That change, z' = M z, is unitriangular, so the job's basis
    is the echelon basis times M^-1: basis[s] is the state whose echelon
    coordinates are column s of M^-1, read through M^-1's rows (inverse).
    Its readout functionals are the rows of M on the echelon pivots.
    Inside a word the states are compared through the basis; it is the
    echelon basis itself exactly where M is the identity.

    Then the gauge: R and the twist are read off one echelon of the
    generators' compact footprints and voltages (see the module
    docstring).
    """
    if translations is None:
        translations = _nullspace([cond for cond, _ in masks], dim)
    translations = tuple(_echelon(translations))
    if functionals is None:
        functionals = _nullspace([foot for _, foot in masks] + list(translations), dim)
    k_pivots = tuple(1 << (k.bit_length() - 1) for k in translations)
    echelon = _nullspace([*functionals, *k_pivots], dim)
    cd, k = len(echelon), len(translations)
    echelon_pivots = [1 << (b.bit_length() - 1) for b in echelon]
    section_feet = [_reduce(foot, translations) for _, foot in masks]
    rows = _inword_rows([_evaluate(f, echelon_pivots) for f in section_feet], cd)
    # inverse[t]: z_t = parity(z' & inverse[t]), from the top row down
    inverse = [1 << s for s in range(cd)]
    for t in reversed(range(len(rows))):
        inverse[t] = _combine(rows[t] ^ 1 << t, inverse) ^ 1 << t
    basis = [_combine(_evaluate(1 << s, inverse), echelon) for s in range(cd)]
    pivots = [_combine(r, echelon_pivots) for r in rows] + echelon_pivots[len(rows):]
    feet = [_evaluate(f, pivots) for f in section_feet]
    if any(_combine(f, basis) != section_foot for f, section_foot in zip(feet, section_feet)):
        raise AssertionError("generator footprint leaves the stratum")
    volts = [_evaluate(foot, k_pivots) for _, foot in masks]
    graph = _echelon(f << k | v for f, v in zip(feet, volts))
    twisted = [b ^ _combine(_reduce(1 << s + k, graph) & (1 << k) - 1, translations)
               for s, b in enumerate(basis)]
    cycles = [_combine(r, translations) for r in graph if not r >> k]
    if cd + len(cycles) > 32:
        raise AssertionError("search word exceeds 32 bits")
    r_pivots = [1 << (c.bit_length() - 1) for c in cycles]
    gens = tuple((_evaluate(cond, basis), _evaluate(foot, r_pivots) << cd | f, 0)
                 for (cond, foot), f in zip(masks, feet))
    return _StratumJob(gens, tuple(cond for cond, _ in masks), tuple(pivots), tuple(basis), 0,
                       translations, k_pivots, tuple(functionals), tuple(twisted), tuple(cycles))


def _stratum_job(plan: _StratumJob, height_bits: int) -> _StratumJob:
    """The job of the stratum where the plan's functionals read
    height_bits: the plan (_plan) moved to the stratum's section state,
    with each generator's constant parity(offset & cond).  Every other
    field is the plan's own object."""
    point = _solve([*plan.functionals, *plan.k_pivots], height_bits)
    # the section state of the stratum: point cleared at the echelon pivots
    offset = point ^ _combine(_evaluate(point, plan.pivots), plan.basis)
    return replace(plan, offset=offset, gens=tuple(
        (cc, fw, _parity(offset & cond)) for (cc, fw, _), cond in zip(plan.gens, plan.conds)))


def _search_word(job: _StratumJob, state: int) -> int:
    """The search word pot << compact_dim | z of a state of the job's
    stratum: z is the compact coordinate of its section (the state
    reduced by the translations) and pot the R-coordinates of its
    twisted potential, state ^ offset ^ _combine(z, twisted), read at
    the pivots of cycles.  The potential's part off R, reduce_R of it,
    is one value on the state's whole component, and is left out."""
    section = _reduce(state, job.translations)
    z = _evaluate(section ^ job.offset, job.pivots)
    if job.offset ^ _combine(z, job.basis) != section:
        raise AssertionError("state does not lie in its computed stratum")
    pot = state ^ job.offset ^ _combine(z, job.twisted)
    return _evaluate(pot, [1 << (c.bit_length() - 1) for c in job.cycles]) << job.compact_dim | z


def _readback(stack: np.ndarray):
    """The states y of the bitset stack[0] with their potentials, whose
    bit j is bit y of stack[1 + j], ascending, in chunks of the states of
    _UNPACK / 8 nonzero words, so that no array holds one entry per
    member of a large bitset.

    A chunk is (w, i, pot): the state y = 64 w[i >> 6] + (i & 63) for
    each entry of i, and byte r of pot(y) in pot[r].  Each byte of a
    plane's words is spread to one byte per state with _SPREAD.
    """
    step = _UNPACK >> 3
    for start in range(0, stack.shape[1], _UNPACK):
        block = stack[:, start:start + _UNPACK]
        nonzero = np.flatnonzero(block[0])
        for at in range(0, nonzero.size, step):
            w = nonzero[at:at + step]
            words = block[:, w].astype("<u8", order="C")
            i = np.unpackbits(words[0].view(np.uint8),
                              bitorder="little").view(np.bool_).nonzero()[0]
            pot = np.zeros((len(stack) + 6 >> 3, 8 * w.size), dtype="<u8")
            for j, plane in enumerate(words[1:]):
                pot[j >> 3] |= _SPREAD[plane.view(np.uint8)] << np.uint64(j & 7)
            yield start + w, i, pot.view(np.uint8)[:, i]


def _lift(job: _StratumJob, stack: np.ndarray, size: int, span: _Span,
          coset: Optional[int] = None) -> list[tuple[int, int]]:
    """The orbits over one base orbit O' of size states, as (representative,
    size): O' is the bitset stack[0], and the potentials of its states,
    reduced by the span S of its cycle voltages, are in the live planes
    of span below it (see _readback).

    S lies in R, and short of S = R = K it is a proper subspace of K.
    There is one orbit per coset of S in K, with |O'| * 2^rank(S)
    states; the cosets are c in the span of the live cycles and of the
    translations whose pivots are no pivot of R (a complement of R in
    K), which meets each coset once.  The representative over c is the
    least s'(y) ^ pot(y) ^ c over y in O', s' the twisted section: it is
    zero at the pivots of S (s' and c are zero at R's pivots), so it is
    the coset minimum reduce_S, which _coset_minima takes from the
    values s'(y) ^ pot(y) in _readback's chunks.  Given a coset, a point
    of K that is zero at R's pivots, only the orbit over it is computed,
    as orbit_of asks.
    """
    live = [job.cycles[j] for j in span.live]
    if coset is None:
        rmask = sum(1 << (c.bit_length() - 1) for c in job.cycles)
        cosets = _span_points(live + [t for t in job.translations if not t & rmask])
    else:
        cosets = [coset]
    cosets = np.array(cosets, dtype=np.uint32)
    # section(y) ^ pot(y) ^ offset splits over the word of y, its bit in
    # the word and the bytes of its potential
    words = _byte_tables(job.twisted[6:])
    bits = np.array(_span_points(job.twisted[:6]), dtype=np.uint32)
    pots = _byte_tables(live)

    def values():
        for w, i, pot in _readback(stack[:1 + len(live)]):
            a = _apply_tables(words, w)[i >> 6] ^ bits[i & 63] ^ job.offset
            for table, byte in zip(pots, pot):
                a ^= table[byte]
            yield a

    out = []
    for rep in _coset_minima(values(), cosets).tolist():
        z = _search_word(job, rep) & (1 << job.compact_dim) - 1
        if not int(stack[0, z >> 6]) >> (z & 63) & 1:
            raise AssertionError("lifted representative leaves its base orbit")
        out.append((rep, size << len(span.basis)))
    return out


def _search(job: _StratumJob) -> np.ndarray:
    """The maps for searching the job: one zeroed uint64 array of dim R +
    2 bitsets over the 2^compact_dim compact states, or of 1 when K = 0,
    each of max(1, 2^(compact_dim - 6)) words.

    Row 0 is the visited map.  Where K > 0 row 1 is reached, the
    component of the last flood, which _close clears when it starts (or
    _flood, where R = 0 and its sparse levels mark it), and row 2 + j is
    potential plane j, which holds coordinate live[j] of the flood's
    span (see _close).  K = 0 is the case of no planes and no reached
    map: its closures sweep visited itself.
    Bit p of word w stands for compact state w << 6 | p: word order is
    state order, and inside a word the states are compared through the
    job's compact basis (_least_in_word).  The maps hold states only:
    the bits past the last state of a map under 64 states stay clear.

    The planes are never cleared between floods, and a closure reduces
    and moves whole rows.  Their stale bits, at the states of earlier
    components, are harmless: components are disjoint, and every read of
    the planes is masked by the current one.  _scatter ORs in at fresh
    states only, _close masks the moved planes by its fresh states and
    the cycles by moved states of reached, and _lift reads them only at
    the members of reached.
    """
    rows = len(job.cycles) + 2 if job.translations else 1
    return np.zeros((rows, max(1, 1 << job.compact_dim >> 6)), dtype=np.uint64)


def _least_bit(row: np.ndarray, start: int, fill, job: _StratumJob) -> Optional[int]:
    """The compact state of the least state, compared through the job's
    compact basis (_least_in_word), where the bitset row differs from
    fill (0 or _ONES) in the first word at or after word start >> 6 that
    differs at all, or None; a position of at least 2^compact_dim where
    that word differs at no state.  The words are compared a tile of
    _TILE_WORDS at a time, so a scan allocates one bool per word of a
    tile at most, however large the map."""
    for at in range(start >> 6, row.size, _TILE_WORDS):
        differs = row[at:at + _TILE_WORDS] != fill
        w = int(differs.argmax())
        if differs[w]:
            w += at
            return w << 6 | _least_in_word(int(row[w] ^ fill), w, job)
    return None


def _run_stratum_job(job: _StratumJob) -> list[tuple[int, int]]:
    """Every orbit over the job's stratum, as (representative, size).

    Seeds are scanned in ascending state order, word by word and, inside
    a word, through the compact basis, with potential 0; the scan ends
    at a position of at least 2^compact_dim, past the last state of a
    map under 64 states.  The seed is the minimum of its base orbit,
    because every smaller state is already visited and every earlier
    word is full.  So where one orbit lies over the base orbit (S = R =
    K, always when K = 0) its representative is the seed's section, of size
    |O'| * 2^dim K, and the scan checks it: the least state that the
    flood added to the seed's word must be the seed.  Otherwise _lift
    reads the base orbit and its potentials modulo S off reached and
    the span's live planes.
    The scan after a flood starts at the seed's own word: its other
    states may come later in state order than the seed, wherever their
    bits lie.
    """
    maps = _search(job)
    rows = []
    seed = _least_bit(maps[0], 0, _ONES, job)
    while seed is not None and seed < 1 << job.compact_dim:
        w = seed >> 6
        # the seed's word before the flood, for the least state it adds
        before = int(maps[0, w])
        size, span = _flood(job, seed, maps)
        if len(span.basis) < len(job.translations):
            rows.extend(_lift(job, maps[1:], size, span))
        elif w << 6 | _least_in_word(int(maps[0, w]) & ~before, w, job) != seed:
            raise AssertionError("ascending seed scan lost the orbit minimum")
        else:
            rows.append((job.offset ^ _combine(seed, job.basis), size << span.dim))
        seed = _least_bit(maps[0], seed, _ONES, job)
    return rows


def _run_jobs(jobs: list[_StratumJob], workers: int) -> list[tuple[int, int]]:
    """Every job's rows, in job order, from min(workers, len(jobs))
    forked children, or in this process for one worker, one job or a
    platform without os.fork.

    The children pull job indices from one shared pipe, one 4-byte
    record a read, so jobs are handed out one at a time in job order and
    the slowest strata do not pile up on one child.  The indices are fed
    only after every fork, in writes of at most _PIPE_BUF bytes, each
    atomic and a whole number of records, so a queue longer than the
    pipe's buffer blocks the parent only while children read it.  Every
    process but the parent closes the queue's write end, and the parent
    closes it once fed, so the children see EOF when the queue is empty.
    Each child then writes one pickle to its own pipe, its (index, rows)
    list or the exception that stopped it, and leaves by os._exit.

    The parent runs no job: its peak RSS would then hold a K = 0 job's
    2 MiB map and scratch on top of its own (the benchmark's second n=8
    census peaked at 34.8 MiB instead of 30.4 when the parent worked
    beside workers - 1 children), while a child's RSS stays lower, since
    it shares the parent's pages until it writes them.  The parent
    reads the result pipes in fork order, re-raises a child's exception
    and fails with RuntimeError for a child that ended without a result
    (killed, say, by the OOM killer), and on any way out kills and reaps
    every child still running, so none outlives the call.
    """
    count = min(workers, len(jobs))
    if count < 2 or not hasattr(os, "fork"):
        return [row for job in jobs for row in _run_stratum_job(job)]
    import signal

    queue_r, queue_w = os.pipe()
    parent_fds = {queue_r, queue_w}
    children = {}  # pid -> the read end of its result pipe, while unreaped
    chunks = [None] * len(jobs)
    try:
        for _ in range(count):
            result_r, result_w = os.pipe()
            parent_fds |= {result_r, result_w}
            pid = os.fork()
            if pid == 0:
                _serve_jobs(jobs, queue_r, queue_w, result_w)
            children[pid] = result_r
            os.close(result_w)
            parent_fds.remove(result_w)
        os.close(queue_r)
        parent_fds.remove(queue_r)
        records = b"".join(i.to_bytes(4, "little") for i in range(len(jobs)))
        try:
            for at in range(0, len(records), _PIPE_BUF):
                os.write(queue_w, records[at:at + _PIPE_BUF])
        except BrokenPipeError:  # every child ended; their pipes say how
            pass
        os.close(queue_w)
        parent_fds.remove(queue_w)
        for pid, result_r in list(children.items()):
            parent_fds.remove(result_r)
            with open(result_r, "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if not data:
                code = os.waitstatus_to_exitcode(status)
                how = (f"was killed by signal {-code} ({signal.strsignal(-code)})"
                       if code < 0 else f"exited with status {code}")
                raise RuntimeError(f"census worker {pid} {how} before it sent its result")
            done = pickle.loads(data)
            if isinstance(done, BaseException):
                raise done
            for i, rows in done:
                chunks[i] = rows
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in parent_fds:
            os.close(fd)
    return [row for chunk in chunks for row in chunk]


def _serve_jobs(jobs: list[_StratumJob], queue: int, feed: int, out: int):
    """A forked child of _run_jobs: close the queue's write end feed,
    run the job of each index read from queue until EOF, write one
    pickle of its (index, rows) list, or of the exception that stopped
    it, to out, and exit.  It never returns, since its stack is a copy
    of the parent's; the exception is caught whatever it is and raised
    again by the parent."""
    status = 1
    try:
        try:
            os.close(feed)
            done = []
            while record := os.read(queue, 4):
                i = int.from_bytes(record, "little")
                done.append((i, _run_stratum_job(jobs[i])))
        except BaseException as exc:
            done = exc
        # pickled whole before any byte is sent: a result that cannot be
        # pickled leaves the pipe empty and the exit status 1
        data = pickle.dumps(done)
        with open(out, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _default_workers() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _family(spec):
    """(dim, masks, functionals, descriptor, n, kind) for a spec, with
    the masks as a tuple, the key of the search's plan (_plan).

    Accepts an ActionSpec or any object exposing state_dim and
    masked_generators() (graph lattices do).  The functionals are the
    height functionals that label records, empty when records carry no
    height.  The guard runs before any mask is built.
    """
    dim = spec.state_dim
    _check_dim(dim)
    if isinstance(spec, ActionSpec):
        masks = tuple(generator_masks(spec))
        return dim, masks, height_functionals(spec), spec.describe(), spec.n, spec.kind.value
    return dim, tuple(spec.masked_generators()), [], spec.describe(), None, None


def _records(dim: int, functionals, rows) -> tuple[OrbitRecord, ...]:
    """Records sorted by OrbitRecord.sort_key, heights read off the
    representatives."""
    t = len(functionals)
    records = [OrbitRecord(F2Vector(dim, rep), size,
                           height=F2Vector(t, _evaluate(rep, functionals)) if t else None)
               for rep, size in rows]
    return tuple(sorted(records, key=OrbitRecord.sort_key))


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
    through the given translations, a tuple (see _plan).

    The base functionals lie in the span of the height functionals, so a
    height stratum sits inside one stratum of V/K.  workers is None (the
    available parallelism) or an integer of at least 1, not a bool.
    """
    if workers is not None and (isinstance(workers, bool) or not (
            isinstance(workers, numbers.Integral) and workers >= 1)):
        raise ValueError(f"workers must be None or an integer of at least 1, got {workers!r}")
    dim, masks, functionals, descriptor, n, kind = _family(spec)
    t = len(functionals)
    plan = _plan(dim, masks, translations)
    if height is None:
        jobs = [_stratum_job(plan, h) for h in range(1 << len(plan.functionals))]
        total = 1 << dim
    else:
        if not t:
            raise ValueError(f"{kind or descriptor} has no height decomposition")
        if height.dim != t:
            raise ValueError(f"height length {height.dim} does not match {t} "
                             f"for {kind}, n={n}")
        if _rank([*functionals, *plan.functionals], dim) != t:
            raise AssertionError("a height stratum straddles several strata of V/K")
        point = _solve(functionals, height.bits)
        jobs = [_stratum_job(plan, _evaluate(point, plan.functionals))]
        total, descriptor = 1 << (dim - t), f"{descriptor}, height {height.to_string()}"
    rows = [(rep, size) for rep, size in _run_jobs(jobs, workers or _default_workers())
            if height is None or _evaluate(rep, functionals) == height.bits]
    return OrbitCensus(descriptor, n, kind, dim, total, _records(dim, functionals, rows))


def _state_bits(state, dim: int, descriptor: str) -> int:
    """The packed state: an integer in range (a Python int or a numpy
    integer, such as an entry of delta_closure's vectors), or a vector or
    matrix (which holds its vector as data) of dimension dim."""
    if isinstance(state, numbers.Integral):
        state = int(state)
        if not 0 <= state < (1 << dim):
            raise ValueError(f"state {state:#x} out of range for dim {dim}")
        return state
    vector = getattr(state, "data", state)
    if not isinstance(vector, F2Vector):
        raise TypeError(f"cannot read a state from {type(state).__name__}")
    if vector.dim != dim:
        raise ValueError(f"state has dimension {vector.dim}, expected {dim} for {descriptor}")
    return vector.bits


def orbit_of(spec, state) -> OrbitRecord:
    """The orbit record containing ``state``, as the census reports it.

    The one search of the census: the base orbit of the state's
    projection to V/K is flooded in the job of its stratum, seeded with
    the R-coordinates of the state's twisted potential.  Where S = R = K
    its representative is the section of the least visited state, since
    the map started empty; otherwise only the orbit that holds the state
    is lifted, the one over the coset of the potential's part off R
    (reduce_R of it), since potentials carried modulo S keep each
    state's coset.  A state is a packed integer, an F2Vector or a
    TriMatrix; one of another dimension than the space is refused.
    """
    dim, masks, functionals, descriptor, _, _ = _family(spec)
    start = _state_bits(state, dim, descriptor)
    # the census's cache key, so that both share one plan
    plan = _plan(dim, masks, None)
    job = _stratum_job(plan, _evaluate(start, plan.functionals))
    maps = _search(job)
    word = _search_word(job, start)
    size, span = _flood(job, word, maps)
    if len(span.basis) == len(job.translations):
        # the map started empty: its least bit is the orbit's least state
        rows = [(job.offset ^ _combine(_least_bit(maps[0], 0, 0, job), job.basis),
                 size << span.dim)]
    else:
        # the coset of the state's twisted potential modulo R
        pot = start ^ job.offset ^ _combine(word & (1 << job.compact_dim) - 1, job.twisted)
        rows = _lift(job, maps[1:], size, span, _reduce(pot, job.cycles))
    return _records(dim, functionals, rows)[0]


def _closure(spec, seeds) -> np.ndarray:
    """The union of the seed states' orbits, as sorted uint32 states.

    Each seed not yet visited is flooded (_flood) on the bitset map of
    the plan of the whole space, through no translations and no
    functionals, which is its one job: each span is full from the start,
    nothing is lifted and no minimum is read, the one map is visited,
    and a seed's search word is its compact state.  Its compact basis is
    the standard basis, so compact states are the states themselves,
    which _members reads: the footprints are unit vectors, for which
    _inword_rows keeps every row b_t = 1 << t.  Any other basis raises
    AssertionError.  The guard runs before any mask is built.
    """
    dim, masks, _, _, _, _ = _family(spec)
    job = _plan(dim, masks, (), ())
    if job.basis != tuple(1 << s for s in range(dim)):
        raise AssertionError("the closure's compact states are not its states")
    maps = _search(job)
    visited = maps[0]
    for seed in seeds:
        z = _search_word(job, seed)
        if not int(visited[z >> 6]) >> (z & 63) & 1:
            _flood(job, z, maps)
    return _members(visited)


def attach_labels(census: OrbitCensus, labels: dict[int, str]) -> OrbitCensus:
    """New census with type labels keyed by representative bits."""
    return replace(census, records=tuple(replace(r, type_label=labels.get(r.representative.bits))
                                         for r in census.records))
