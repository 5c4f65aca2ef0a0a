"""Generator families: apply rules, involutivity, fixed spaces, heights,
and the equivariances tying the four kinds together."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from f2orbits.f2la import BilinearForm, F2Vector, _nullspace, transvect
from f2orbits.actions import (ActionKind, ActionSpec, Generator, apply,
                              apply_bits, generator_masks, generators,
                              height_first, height_second, psi_height)
from f2orbits.tri import (TriMatrix, TriShape, hex_graph, pattern_E,
                          pattern_R, phi, psi)

rng = random.Random(123)

ALL_KINDS = list(ActionKind)


def random_state(spec: ActionSpec) -> TriMatrix:
    return TriMatrix.from_bits(spec.state_order, rng.randrange(1 << spec.state_dim))


class TestGenerators:
    def test_n2(self):
        assert generators(ActionSpec(2, ActionKind.FIRST)) == [Generator(1, 1)]

    def test_n4_count(self):
        assert len(generators(ActionSpec(4, ActionKind.FIRST))) == 6

    def test_n5_count_matches_vertex_count(self):
        spec = ActionSpec(5, ActionKind.SECOND_CONJUGATE)
        assert len(generators(spec)) == hex_graph(5).vertex_count == 10

    @pytest.mark.parametrize("n,kind", [(0, ActionKind.FIRST), (1, ActionKind.SECOND)])
    def test_order_too_small_is_refused(self, n, kind):
        with pytest.raises(ValueError):
            ActionSpec(n, kind)

    def test_invalid_generator(self):
        spec = ActionSpec(3, ActionKind.FIRST)
        with pytest.raises(ValueError):
            apply(spec, Generator(1, 3), TriMatrix.zeros(3))

    def test_state_order_mismatch(self):
        spec = ActionSpec(3, ActionKind.SECOND)
        with pytest.raises(ValueError):
            apply(spec, Generator(1, 1), TriMatrix.zeros(3))


class TestFirstAction:
    def test_displayed_2x2_rule(self):
        # off-diagonal block [[1,0],[0,0]] goes to [[0,1],[1,1]]
        spec = ActionSpec(4, ActionKind.FIRST)
        out = apply(spec, Generator(1, 2), TriMatrix.from_cells(4, [(1, 2)]))
        assert (out.get(1, 2), out.get(1, 3), out.get(2, 2), out.get(2, 3)) == (0, 1, 1, 1)

    def test_zero_trace_fixes(self):
        spec = ActionSpec(4, ActionKind.FIRST)
        m = TriMatrix.from_cells(4, [(1, 3)])
        assert apply(spec, Generator(1, 2), m).bits == m.bits

    def test_diagonal_generator_footprint(self):
        spec = ActionSpec(3, ActionKind.FIRST)
        out = apply(spec, Generator(1, 1), TriMatrix.from_cells(3, [(1, 1)]))
        assert out.support() == ((1, 2), (2, 2))  # trace added to the 3 in-shape cells

    @pytest.mark.parametrize("n", range(2, 7))
    def test_fixes_every_diagonal_pattern(self, n):
        spec = ActionSpec(n, ActionKind.FIRST)
        for g in generators(spec):
            for i in range(1, n + 1):
                e = pattern_E(n, i).bits
                assert apply_bits(spec, g, e) == e


class TestSecondAction:
    def test_clipped_neighbors_n3(self):
        spec = ActionSpec(3, ActionKind.SECOND)
        out = apply(spec, Generator(1, 1), TriMatrix.from_cells(2, [(1, 1)]))
        assert (out.get(1, 1), out.get(1, 2), out.get(2, 2)) == (1, 1, 1)

    def test_conjugate_neighbor_sum_n3(self):
        spec = ActionSpec(3, ActionKind.SECOND_CONJUGATE)
        m = TriMatrix.from_cells(2, [(1, 2), (2, 2)])
        assert apply(spec, Generator(1, 1), m).bits == m.bits  # 1 + 1 = 0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_invariants_trivial(self, n):
        # fixed space = common kernel of the condition functionals
        spec = ActionSpec(n, ActionKind.SECOND)
        conds = [c for (c, f) in generator_masks(spec) if f]
        assert _nullspace(conds, spec.state_dim) == []

    @pytest.mark.parametrize("n", range(2, 7))
    def test_conjugate_fixes_rectangles(self, n):
        spec = ActionSpec(n, ActionKind.FIRST_CONJUGATE)
        for g in generators(spec):
            for i in range(1, n + 1):
                r = pattern_R(n, i).bits
                assert apply_bits(spec, g, r) == r

    @pytest.mark.parametrize("n", range(2, 8))
    def test_second_conjugate_is_transvection_family(self, n):
        spec = ActionSpec(n, ActionKind.SECOND_CONJUGATE)
        graph = hex_graph(n)
        form = BilinearForm(graph.vertex_count, graph.neighbor_masks)
        gens = generators(spec)
        for g, _ in zip(gens, range(len(gens))):
            delta = F2Vector(form.dim, 1 << TriShape(n - 1).index(g.i, g.j))
            for _ in range(10):
                x = F2Vector(form.dim, rng.randrange(1 << form.dim))
                assert apply_bits(spec, g, x.bits) == transvect(form, delta, x).bits


class TestInvolution:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", (2, 3, 5, 6))
    def test_apply_twice_is_identity(self, kind, n):
        spec = ActionSpec(n, kind)
        for g in generators(spec):
            for _ in range(25):
                bits = rng.randrange(1 << spec.state_dim)
                assert apply_bits(spec, g, apply_bits(spec, g, bits)) == bits

    @settings(max_examples=150)
    @given(st.data())
    def test_apply_twice_hypothesis(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        kind = data.draw(st.sampled_from(ALL_KINDS))
        spec = ActionSpec(n, kind)
        g = data.draw(st.sampled_from(generators(spec)))
        bits = data.draw(st.integers(min_value=0, max_value=(1 << spec.state_dim) - 1))
        assert apply_bits(spec, g, apply_bits(spec, g, bits)) == bits


class TestHeights:
    def test_zero_state(self):
        assert height_first(TriMatrix.zeros(5)).bits == 0
        assert height_second(TriMatrix.zeros(4)).bits == 0

    def test_identity_diagonal_height(self):
        assert height_first(pattern_E(5, 1)).to_string() == "11111"

    def test_single_cell_second_height(self):
        # (1,1) lies in ~P_1 = P_1 and in P_2 (full shape), so ~P_2 misses it
        m = TriMatrix.from_cells(4, [(1, 1)])
        assert height_second(m).to_string() == "10"

    @pytest.mark.parametrize("kind,n", [(ActionKind.FIRST, 4), (ActionKind.FIRST, 5),
                                        (ActionKind.SECOND, 5), (ActionKind.SECOND, 6)])
    def test_heights_invariant_under_generators(self, kind, n):
        spec = ActionSpec(n, kind)
        height = height_first if kind is ActionKind.FIRST else height_second
        for _ in range(50):
            m = random_state(spec)
            h = height(m).bits
            for g in generators(spec):
                assert height(apply(spec, g, m)).bits == h

    def test_psi_height_formula(self):
        assert psi_height(F2Vector.from_string("11111")).to_string() == "00"
        assert psi_height(F2Vector.zeros(6)).bits == 0

    @pytest.mark.parametrize("n", range(2, 8))
    def test_psi_height_functoriality(self, n):
        for _ in range(200):
            m = TriMatrix.from_bits(n, rng.randrange(1 << TriShape(n).dim))
            assert height_second(psi(m)).bits == psi_height(height_first(m)).bits


class TestEquivariance:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_psi_intertwines_first_and_second(self, n):
        first = ActionSpec(n, ActionKind.FIRST)
        second = ActionSpec(n, ActionKind.SECOND)
        for _ in range(40):
            m = random_state(first)
            for g in generators(first):
                assert psi(apply(first, g, m)).bits == apply(second, g, psi(m)).bits

    @pytest.mark.parametrize("n", range(2, 7))
    def test_phi_intertwines_first_conjugate_and_second(self, n):
        conj = ActionSpec(n, ActionKind.FIRST_CONJUGATE)
        second = ActionSpec(n, ActionKind.SECOND)
        for _ in range(40):
            m = random_state(conj)
            for g in generators(conj):
                assert phi(apply(conj, g, m)).bits == apply(second, g, phi(m)).bits
