"""The enumeration engine: exact censuses, strata, partitioning,
determinism, and the conjugate-count and transport cross-checks."""

import pytest

from f2orbits import orbits
from f2orbits.f2la import F2Vector
from f2orbits.actions import ActionKind, ActionSpec, generator_masks, height_first
from f2orbits.lattice import Graph, LatticeSpec, build, hex_lattice_graph
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

    def test_large_orbit_fallback(self):
        # n=6 second: orbit of size 4096 exceeds the hash-set limit? it does not;
        # force the vectorized path with the big first-action orbit instead
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
        with pytest.raises(EnumerationGuardError, match=r"2\^45130 MiB\)$"):
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
                 lambda: orbit_of(big_graph, 1)]
        for call in calls:
            with pytest.raises(EnumerationGuardError):
                call()


class TestDeterminism:
    def test_json_identical_across_workers(self):
        spec = ActionSpec(5, ActionKind.FIRST)
        docs = {enumerate_orbits(spec, workers=w).to_json() for w in (1, 2, 4)}
        assert len(docs) == 1

    def test_csv_round(self):
        c = enumerate_orbits(ActionSpec(3, ActionKind.SECOND), workers=1)
        lines = c.to_csv().strip().splitlines()
        assert lines[0] == "representative_hex,cardinality,height_bits,type_label"
        assert len(lines) == c.orbit_count + 1


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
        translations, _ = orbits._lift_plan(spec.state_dim, generator_masks(spec))
        assert len(translations) == dim_k(n)
        lifted = enumerate_orbits(spec, workers=1).to_json()
        assert orbits._census(spec, 1, translations=()).to_json() == lifted

    @pytest.mark.parametrize("n", range(3, 7))
    def test_hex_lattices(self, n):
        spec = build(hex_lattice_graph(n))
        assert orbits._census(spec, 1, translations=()).to_json() == \
            enumerate_orbits(spec, workers=1).to_json()

    def test_every_first_n5_stratum(self):
        spec = ActionSpec(5, ActionKind.FIRST)
        for h in range(1 << 5):
            height = F2Vector(5, h)
            assert orbits._stratum_census(spec, height, translations=()).to_json() == \
                enumerate_stratum(spec, height).to_json()

    @pytest.mark.parametrize("kind", [ActionKind.FIRST, ActionKind.SECOND_CONJUGATE])
    def test_part_of_k(self, kind):
        # any subspace of K commutes with the action, so lifting through
        # part of it gives the same census
        spec = ActionSpec(6, kind)
        translations, _ = orbits._lift_plan(spec.state_dim, generator_masks(spec))
        assert orbits._census(spec, 1, translations=translations[:2]).to_json() == \
            enumerate_orbits(spec, workers=1).to_json()

    def test_lifted_jobs_search_the_quotient(self):
        spec = ActionSpec(7, ActionKind.FIRST)
        masks = generator_masks(spec)
        translations, base = orbits._lift_plan(spec.state_dim, masks)
        jobs = orbits._build_stratum_jobs(spec.state_dim, masks, base, translations)
        assert [j.compact_dim for j in jobs] == [18] * 8


class TestSingleJob:
    def _count_jobs(self, monkeypatch):
        built = []
        real = orbits._stratum_job

        def counting(*args):
            built.append(args[-1])
            return real(*args)

        monkeypatch.setattr(orbits, "_stratum_job", counting)
        return built

    def test_enumerate_stratum_builds_one_job(self, monkeypatch):
        built = self._count_jobs(monkeypatch)
        enumerate_stratum(ActionSpec(6, ActionKind.FIRST), F2Vector(6, 5))
        assert len(built) == 1

    def test_orbit_of_builds_one_job(self, monkeypatch):
        built = self._count_jobs(monkeypatch)
        rec = orbit_of(ActionSpec(7, ActionKind.SECOND), TriMatrix.from_cells(6, [(1, 2)]))
        assert rec.cardinality > 1 << 16 and len(built) == 1
