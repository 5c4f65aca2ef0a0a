"""The enumeration engine: exact censuses, strata, partitioning,
determinism, and the conjugate-count and transport cross-checks."""

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from f2orbits import orbits
from f2orbits.f2la import F2Vector, _combine, _reduce, _solve
from f2orbits.actions import ActionKind, ActionSpec, generator_masks, height_first
from f2orbits.classify import label_orbits, predict_second, verify
from f2orbits.lattice import Graph, LatticeSpec, build, delta_closure, hex_lattice_graph
from f2orbits.orbits import (EnumerationGuardError, enumerate_orbits,
                             enumerate_stratum, orbit_of)
from f2orbits.tri import TriMatrix, pattern_E, phi_star


class TestSmallCensuses:
    def test_first_n2_by_hand(self):
        # trace-zero states are fixed; trace-one states pair up under g11
        census = enumerate_orbits(ActionSpec(2, ActionKind.FIRST), workers=1)
        assert census.orbit_count == 6
        assert sorted(r.cardinality for r in census.records) == [1, 1, 1, 1, 2, 2]

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 6), (3, 20), (4, 52)])
    def test_first_exceptional_counts(self, n, count):
        assert enumerate_orbits(ActionSpec(n, ActionKind.FIRST), workers=1).orbit_count == count

    def test_second_n5(self):
        census = enumerate_orbits(ActionSpec(5, ActionKind.SECOND), workers=1)
        assert sorted(r.cardinality for r in census.records) == [1, 120, 135, 256, 256, 256]


class TestPartitionInvariants:
    @pytest.mark.parametrize("kind", list(ActionKind))
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_partition_and_minimal_representatives(self, kind, n):
        spec = ActionSpec(n, kind)
        census = enumerate_orbits(spec, workers=1)
        assert sum(r.cardinality for r in census.records) == 1 << spec.state_dim
        reps = [r.representative.bits for r in census.records]
        assert len(set(reps)) == len(reps)
        # each representative is the orbit minimum
        for r in census.records:
            rec = orbit_of(spec, r.representative.bits)
            assert rec.representative.bits == r.representative.bits
            assert rec.cardinality == r.cardinality

    def test_heights_partition_the_space(self):
        spec = ActionSpec(4, ActionKind.FIRST)
        total = 0
        counts = []
        for h in range(1 << 4):
            c = enumerate_stratum(spec, F2Vector(4, h))
            total += sum(r.cardinality for r in c.records)
            counts.append(c.orbit_count)
        assert total == 1 << spec.state_dim
        assert sum(counts) == enumerate_orbits(spec, workers=1).orbit_count


class TestStrata:
    def test_first_n5_symmetric_zero(self):
        c = enumerate_stratum(ActionSpec(5, ActionKind.FIRST), F2Vector.zeros(5))
        assert sorted(r.cardinality for r in c.records) == [1, 1, 1, 1, 480, 540]

    def test_first_n5_nonsymmetric(self):
        c = enumerate_stratum(ActionSpec(5, ActionKind.FIRST), F2Vector.from_string("10000"))
        assert sorted(r.cardinality for r in c.records) == [512, 512]

    def test_wrong_height_length(self):
        with pytest.raises(ValueError):
            enumerate_stratum(ActionSpec(5, ActionKind.FIRST), F2Vector.zeros(2))

    def test_no_strata_for_second_conjugate(self):
        with pytest.raises(ValueError):
            enumerate_stratum(ActionSpec(5, ActionKind.SECOND_CONJUGATE), F2Vector.zeros(2))

    def test_stratum_records_carry_the_height(self):
        h = F2Vector.from_string("01011")
        c = enumerate_stratum(ActionSpec(5, ActionKind.FIRST), h)
        for r in c.records:
            assert r.height.bits == h.bits
            assert height_first(TriMatrix.from_bits(5, r.representative.bits)).bits == h.bits


class TestOrbitOf:
    def test_zero_fixed_by_transvections(self):
        rec = orbit_of(ActionSpec(5, ActionKind.SECOND_CONJUGATE), 0)
        assert rec.cardinality == 1 and rec.representative.bits == 0

    def test_diagonal_pattern_is_fixed(self):
        rec = orbit_of(ActionSpec(5, ActionKind.FIRST), pattern_E(5, 1))
        assert rec.cardinality == 1

    def test_nonzero_height_second_n5(self):
        m = TriMatrix.from_cells(4, [(1, 1)])
        rec = orbit_of(ActionSpec(5, ActionKind.SECOND), m)
        assert rec.cardinality == 256  # 2^(2k^2) with k=2
        assert rec.height is not None and rec.height.bits != 0

    @pytest.mark.parametrize("spec,state", [
        (ActionSpec(5, ActionKind.FIRST), TriMatrix.zeros(4)),
        (ActionSpec(5, ActionKind.FIRST), F2Vector(3, 5)),
        # the second action of n=5 acts on order 4
        (ActionSpec(5, ActionKind.SECOND), TriMatrix.from_cells(5, [(1, 1)])),
    ])
    def test_state_of_another_dimension_is_refused(self, spec, state):
        with pytest.raises(ValueError, match=f"expected {spec.state_dim} for"):
            orbit_of(spec, state)

    def test_state_of_another_type_is_refused(self):
        with pytest.raises(TypeError, match="cannot read a state from str"):
            orbit_of(ActionSpec(5, ActionKind.FIRST), "101")

    def test_int_state_out_of_range_is_refused(self):
        spec = ActionSpec(5, ActionKind.FIRST)
        with pytest.raises(ValueError, match="^state 0x8000 out of range for dim 15$"):
            orbit_of(spec, 1 << 15)
        with pytest.raises(ValueError, match="^state -0x1 out of range for dim 15$"):
            orbit_of(spec, -1)

    def test_closure_states_are_accepted(self):
        # delta_closure returns numpy integers; each is a packed state
        spec = build(hex_lattice_graph(5))
        dc = delta_closure(spec)
        records = {orbit_of(spec, s) for s in dc.vectors[::37]}
        assert records == {orbit_of(spec, int(dc.vectors[0]))}
        assert records.pop().cardinality == len(dc.vectors)
        assert orbit_of(spec, np.int64(3)) == orbit_of(spec, 3)
        for bad in (np.int64(-1), np.uint32(1 << 10)):
            with pytest.raises(ValueError, match="out of range for dim 10"):
                orbit_of(spec, bad)

    def test_large_orbit_fallback(self):
        # the big first-action orbit: its query floods a whole base orbit of
        # V/K and lifts it, and must agree with the stratum census
        spec = ActionSpec(6, ActionKind.FIRST)
        m = TriMatrix.from_cells(6, [(1, 2)])
        rec = orbit_of(spec, m)
        census = enumerate_stratum(spec, rec.height)
        match = [r for r in census.records if r.representative.bits == rec.representative.bits]
        assert len(match) == 1 and match[0].cardinality == rec.cardinality


class TestGuards:
    def test_dim_guard(self):
        with pytest.raises(EnumerationGuardError):
            enumerate_orbits(ActionSpec(9, ActionKind.FIRST))

    def test_guard_message_has_memory_estimate(self):
        with pytest.raises(EnumerationGuardError, match="MiB"):
            enumerate_orbits(ActionSpec(8, ActionKind.FIRST))

    def test_estimate_is_a_power_of_two(self):
        with pytest.raises(EnumerationGuardError, match=r"2\^45127 MiB\)$"):
            enumerate_orbits(ActionSpec(300, ActionKind.FIRST))

    def test_every_entry_point_guards_before_building(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("built before the size guard")
        monkeypatch.setattr(orbits, "generator_masks", boom)
        monkeypatch.setattr(orbits, "height_functionals", boom)
        monkeypatch.setattr(LatticeSpec, "masked_generators", boom)
        spec = ActionSpec(300, ActionKind.SECOND)
        big_graph = build(Graph.from_edge_list(20000, []))
        calls = [lambda: enumerate_orbits(spec),
                 lambda: enumerate_stratum(spec, F2Vector(150, 0)),
                 lambda: orbit_of(spec, 0),
                 lambda: enumerate_orbits(big_graph),
                 lambda: orbit_of(big_graph, 1),
                 lambda: delta_closure(big_graph)]
        for call in calls:
            with pytest.raises(EnumerationGuardError):
                call()


class TestDeterminism:
    def test_json_identical_across_workers(self):
        # first n=5 (lifted) and second n=6 (K = 0, 8 jobs, more workers
        # than jobs at 8)
        for spec, counts in [(ActionSpec(5, ActionKind.FIRST), (1, 2, 4)),
                             (ActionSpec(6, ActionKind.SECOND), (1, 2, 3, 8))]:
            docs = {enumerate_orbits(spec, workers=w).to_json() for w in counts}
            assert len(docs) == 1

    @pytest.mark.parametrize("workers", [0, -1, 2.5, "2", True, False])
    def test_refuses_a_bad_worker_count(self, workers, monkeypatch):
        # as the CLI's --threads does, and before any plan is built
        def unplanned(*args):
            raise AssertionError("a plan was built")

        monkeypatch.setattr(orbits, "_plan", unplanned)
        spec = ActionSpec(3, ActionKind.FIRST)
        calls = [lambda: enumerate_orbits(spec, workers=workers),
                 lambda: enumerate_stratum(spec, F2Vector(3, 0), workers=workers),
                 lambda: verify(3, ActionKind.FIRST, workers=workers)]
        for call in calls:
            with pytest.raises(ValueError, match=f"at least 1, got {workers!r}$"):
                call()

    def test_csv_round(self):
        c = enumerate_orbits(ActionSpec(3, ActionKind.SECOND), workers=1)
        lines = c.to_csv().strip().splitlines()
        assert lines[0] == "representative_hex,cardinality,height_bits,type_label"
        assert len(lines) == c.orbit_count + 1

    def test_json_writes_type_labels(self):
        c = enumerate_orbits(ActionSpec(3, ActionKind.SECOND), workers=1)
        labeled = orbits.attach_labels(c, {c.records[0].representative.bits: "trivial"})
        entries = json.loads(labeled.to_json())["orbits"]
        assert entries[0]["type_label"] == "trivial"
        assert all("type_label" not in e for e in entries[1:])
        assert all("type_label" not in e for e in json.loads(c.to_json())["orbits"])

    @pytest.mark.parametrize("census", [
        lambda: label_orbits(enumerate_orbits(ActionSpec(6, ActionKind.SECOND), workers=1),
                             predict_second(6)),
        lambda: enumerate_orbits(build(hex_lattice_graph(5)), workers=1),
    ], ids=["labeled-second-6", "graph-hex-5"])
    def test_writers_agree_cell_for_cell(self, census):
        # each writer parsed back to (representative hex, cardinality,
        # height bits or None, type label or None), against the records
        c = census()
        expected = [(format(r.representative.bits, "x"), r.cardinality,
                     r.height.to_string() if r.height is not None else None, r.type_label)
                    for r in c.records]
        from_json = [(e["representative_hex"], e["cardinality"], e["height_bits"],
                      e.get("type_label")) for e in json.loads(c.to_json())["orbits"]]
        header, *rows = c.to_csv().splitlines()
        assert header == "representative_hex,cardinality,height_bits,type_label"
        from_csv = [(rep, int(size), height or None, label or None)
                    for rep, size, height, label in (row.split(",") for row in rows)]
        header, *rows = c.to_table().splitlines()
        assert header.split() == ["representative_hex", "cardinality", "height_bits",
                                  "type_label"]
        from_table = [(rep, int(size), None if height == "-" else height,
                       None if label == "-" else label)
                      for rep, size, height, label in (row.split(None, 3) for row in rows)]
        assert from_json == from_csv == from_table == expected
        # the labeled census fills every cell, the graph census leaves
        # heights and labels empty
        labeled = c.kind is not None
        assert all((height is not None, label is not None) == (labeled, labeled)
                   for _, _, height, label in expected)


class TestConjugateCounts:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_first_pair(self, n):
        a = enumerate_orbits(ActionSpec(n, ActionKind.FIRST), workers=1).orbit_count
        b = enumerate_orbits(ActionSpec(n, ActionKind.FIRST_CONJUGATE), workers=1).orbit_count
        assert a == b

    @pytest.mark.parametrize("n", range(2, 6))
    def test_second_pair(self, n):
        a = enumerate_orbits(ActionSpec(n, ActionKind.SECOND), workers=1).orbit_count
        b = enumerate_orbits(ActionSpec(n, ActionKind.SECOND_CONJUGATE), workers=1).orbit_count
        assert a == b


class TestHeightZeroTransport:
    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_height_zero_stratum_matches_second_conjugate(self, n):
        """The restriction of the first action to its height-zero stratum is
        carried by the injective transpose map onto the full space of the
        second conjugate action, orbit for orbit."""
        stratum = enumerate_stratum(ActionSpec(n, ActionKind.FIRST), F2Vector.zeros(n))
        conj = enumerate_orbits(ActionSpec(n, ActionKind.SECOND_CONJUGATE), workers=1)
        assert sorted(r.cardinality for r in stratum.records) == \
            sorted(r.cardinality for r in conj.records)
        # transport representatives: each conjugate orbit lands in the stratum
        for r in conj.records:
            image = phi_star(TriMatrix.from_bits(n - 1, r.representative.bits))
            rec = orbit_of(ActionSpec(n, ActionKind.FIRST), image)
            assert rec.cardinality == r.cardinality


class TestLiftCrossCheck:
    """The lift through K against the unlifted search of the whole space
    (an empty translation basis), byte for byte."""

    @pytest.mark.parametrize("kind,dim_k", [
        (ActionKind.FIRST, lambda n: n), (ActionKind.FIRST_CONJUGATE, lambda n: n),
        (ActionKind.SECOND, lambda n: 0), (ActionKind.SECOND_CONJUGATE, lambda n: n // 2)])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_actions(self, kind, dim_k, n):
        spec = ActionSpec(n, kind)
        translations = orbits._plan(spec.state_dim, tuple(generator_masks(spec))).translations
        assert len(translations) == dim_k(n)
        lifted = enumerate_orbits(spec, workers=1).to_json()
        assert orbits._census(spec, 1, translations=()).to_json() == lifted

    @pytest.mark.parametrize("n", range(3, 8))
    def test_hex_lattices(self, n):
        # at n = 7 the cycle voltages of both big base orbits span K, so
        # each lifts as one orbit read off the flood's least state
        spec = build(hex_lattice_graph(n))
        assert orbits._census(spec, 1, translations=()).to_json() == \
            enumerate_orbits(spec, workers=1).to_json()

    def test_every_first_n5_stratum(self):
        spec = ActionSpec(5, ActionKind.FIRST)
        for h in range(1 << 5):
            height = F2Vector(5, h)
            assert orbits._census(spec, 1, height, translations=()).to_json() == \
                enumerate_stratum(spec, height).to_json()

    @pytest.mark.parametrize("kind", [ActionKind.FIRST, ActionKind.SECOND_CONJUGATE])
    def test_part_of_k(self, kind):
        # any subspace of K commutes with the action, so lifting through
        # part of it gives the same census
        spec = ActionSpec(6, kind)
        translations = orbits._plan(spec.state_dim, tuple(generator_masks(spec))).translations
        assert orbits._census(spec, 1, translations=translations[:2]).to_json() == \
            enumerate_orbits(spec, workers=1).to_json()

    def test_lifted_jobs_search_the_quotient(self):
        spec = ActionSpec(7, ActionKind.FIRST)
        plan = orbits._plan(spec.state_dim, tuple(generator_masks(spec)))
        jobs = [orbits._job_at(plan, _solve(plan.functionals, h))
                for h in range(1 << len(plan.functionals))]
        assert [j.compact_dim for j in jobs] == [18] * 8


class TestStratumJobs:
    """The plan is the job of the stratum at offset 0, every job of a
    census shares its coordinates, and a search word reads back to its
    state."""

    @pytest.mark.parametrize("spec,dim_k", [
        (ActionSpec(6, ActionKind.FIRST), 6), (ActionSpec(6, ActionKind.SECOND), 0),
        (ActionSpec(6, ActionKind.SECOND_CONJUGATE), 3), (build(hex_lattice_graph(6)), 3)],
        ids=["first-6", "second-6", "second-conj-6", "hex-6"])
    def test_jobs_and_search_words(self, spec, dim_k):
        dim, masks, _, _, _, _ = orbits._family(spec)
        plan = orbits._plan(dim, masks)
        assert len(plan.translations) == dim_k
        assert orbits._job_at(plan, 0) == plan
        for h in range(1 << len(plan.functionals)):
            job = orbits._job_at(plan, _solve(plan.functionals, h))
            assert job.basis is plan.basis and job.pivots is plan.pivots
            assert job.translations is plan.translations
            assert job.twisted is plan.twisted and job.cycles is plan.cycles
        rng = random.Random(25)
        zmask = (1 << plan.compact_dim) - 1
        for x in (rng.getrandbits(dim) for _ in range(50)):
            job = orbits._job_at(plan, x)
            w = orbits._search_word(job, x)
            # the word holds the compact state and the R-coordinates of the
            # twisted potential; what is left is the state's point of K
            # reduced by R
            rest = job.offset ^ _combine(w & zmask, job.twisted) ^ \
                _combine(w >> job.compact_dim, job.cycles) ^ x
            assert job.offset ^ _combine(w & zmask, job.basis) == _reduce(x, job.translations)
            assert not _reduce(rest, job.translations) and _reduce(rest, job.cycles) == rest


class TestSingleJob:
    def _count_jobs(self, monkeypatch):
        built = []
        real = orbits._job_at

        def counting(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(orbits, "_job_at", counting)
        return built

    def test_enumerate_stratum_builds_one_job(self, monkeypatch):
        built = self._count_jobs(monkeypatch)
        enumerate_stratum(ActionSpec(6, ActionKind.FIRST), F2Vector(6, 5))
        assert len(built) == 1

    def test_orbit_of_builds_one_job(self, monkeypatch):
        built = self._count_jobs(monkeypatch)
        rec = orbit_of(ActionSpec(7, ActionKind.SECOND), TriMatrix.from_cells(6, [(1, 2)]))
        assert rec.cardinality > 1 << 16 and len(built) == 1

    def test_orbit_of_builds_its_plan_once(self):
        # the plan of a search is cached: repeated queries rebuild no K,
        # invariants or compact coordinates
        spec = ActionSpec(8, ActionKind.SECOND)
        orbits._plan.cache_clear()
        records = {orbit_of(spec, 0) for _ in range(20)}
        assert len(records) == 1 and records.pop().cardinality == 1
        assert orbits._plan.cache_info().misses == 1

    def test_orbit_of_searches_one_base_stratum(self, monkeypatch):
        # first n=7, dim K = 7: the query searches the one 2^18 base stratum
        # of V/K that holds the state, not its 2^21 height stratum of V
        built = self._count_jobs(monkeypatch)
        orbit_of(ActionSpec(7, ActionKind.FIRST), TriMatrix.from_cells(7, [(1, 2)]))
        assert [j.compact_dim for j in built] == [18]


KILLED = """
import json, os, signal
from f2orbits import orbits
from f2orbits.actions import ActionKind, ActionSpec
parent = os.getpid()

def killed(job):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)

orbits._run_stratum_job = killed
try:
    orbits.enumerate_orbits(ActionSpec(5, ActionKind.FIRST), workers=2)
    error = None
except RuntimeError as exc:
    error = str(exc)
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"error": error, "left": left}))
"""


class TestJobRunner:
    """_run_jobs forks min(workers, jobs) children that pull the jobs
    from one pipe.  The census process runs none, a child's failure
    reaches the caller, and no child outlives the call."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_census_runs_its_jobs_in_children(self, monkeypatch):
        spec = ActionSpec(6, ActionKind.FIRST)
        want = enumerate_orbits(spec, workers=1).to_json()
        parent, real = os.getpid(), orbits._run_stratum_job

        def job_in_a_child(job):
            if os.getpid() == parent:
                raise AssertionError("a stratum job ran in the census process")
            return real(job)

        monkeypatch.setattr(orbits, "_run_stratum_job", job_in_a_child)
        assert enumerate_orbits(spec, workers=3).to_json() == want
        self.assert_no_child_left()

    def test_long_queue_comes_back_in_job_order(self, monkeypatch):
        # 20,000 4-byte indices overflow a 64 KiB pipe buffer
        monkeypatch.setattr(orbits, "_run_stratum_job", lambda job: [(job, os.getpid())])
        rows = orbits._run_jobs(list(range(20000)), 3)
        assert [job for job, _ in rows] == list(range(20000))
        pids = {pid for _, pid in rows}
        assert os.getpid() not in pids and 1 <= len(pids) <= 3
        self.assert_no_child_left()

    def test_forks_one_child_per_job_at_most(self, monkeypatch):
        forks = []
        real_fork = os.fork

        def counting():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting)
        monkeypatch.setattr(orbits, "_run_stratum_job", lambda job: [(job, 1)])
        assert orbits._run_jobs([0, 1, 2, 3], 8) == [(0, 1), (1, 1), (2, 1), (3, 1)]
        assert len(forks) == 4

    def test_one_job_or_one_worker_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        census = enumerate_stratum(ActionSpec(6, ActionKind.FIRST), F2Vector(6, 5), workers=3)
        assert census.total_states == 1 << 15
        graph = enumerate_orbits(build(hex_lattice_graph(5)), workers=3)
        assert graph.total_states == 1 << 10
        assert enumerate_orbits(ActionSpec(5, ActionKind.FIRST), workers=1).orbit_count == 96

    def test_child_exception_reaches_the_caller(self, monkeypatch):
        parent = os.getpid()

        def failing(job):
            if os.getpid() != parent:
                raise AssertionError("stratum job failed in a child")

        monkeypatch.setattr(orbits, "_run_stratum_job", failing)
        with pytest.raises(AssertionError, match="^stratum job failed in a child$"):
            enumerate_orbits(ActionSpec(5, ActionKind.FIRST), workers=2)
        self.assert_no_child_left()

    def test_killed_child_fails_the_census(self):
        # in an interpreter of its own, under a timeout: a census whose
        # worker was killed must raise, not wait for the lost result
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", KILLED], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        run = json.loads(done.stdout)
        assert run["left"] is False
        assert run["error"] is not None
        assert f"was killed by signal {int(signal.SIGKILL)} (" in run["error"]
        assert run["error"].startswith("census worker ")
