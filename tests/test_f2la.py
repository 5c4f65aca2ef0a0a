"""Vectors, forms, quadratic functions, kernels, Arf."""

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from f2orbits.f2la import (ArfClass, BilinearForm, F2Vector, QuadraticSpace,
                           _apply_tables, _byte_tables, _combine, _echelon,
                           _evaluate, _nullspace, _rank, _reduce, _solve,
                           arf, form_eval, kernel_basis, q_eval,
                           symplectic_reduce, transvect, value_counts_brute,
                           value_counts_closed)


def triangle_form() -> BilinearForm:
    return BilinearForm.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def triangle_space() -> QuadraticSpace:
    return QuadraticSpace.with_all_ones(triangle_form())


def vec(s: str) -> F2Vector:
    return F2Vector.from_string(s)


@st.composite
def form_and_vectors(draw, max_dim=8, n_vectors=2):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    edges = [p for p in pairs if draw(st.booleans())]
    form = BilinearForm.from_edges(dim, edges)
    vecs = [F2Vector(dim, draw(st.integers(min_value=0, max_value=(1 << dim) - 1)))
            for _ in range(n_vectors)]
    values = draw(st.integers(min_value=0, max_value=(1 << dim) - 1))
    return QuadraticSpace(form, values), vecs


class TestF2Vector:
    def test_roundtrip(self):
        v = vec("0110")
        assert v.dim == 4 and v.bits == 0b0110
        assert v.to_string() == "0110"
        assert v.support() == (1, 2)

    def test_xor_is_addition(self):
        a, b = vec("101"), vec("011")
        assert (a + b).to_string() == "110"
        assert (a + a).bits == 0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            vec("10") ^ vec("100")

    def test_out_of_range_bits(self):
        with pytest.raises(ValueError):
            F2Vector(2, 4)


class TestBilinearForm:
    def test_triangle_adjacency(self):
        f = triangle_form()
        assert form_eval(f, vec("100"), vec("010")) == 1
        assert form_eval(f, vec("110"), vec("001")) == 0

    def test_zero_diagonal(self):
        f = triangle_form()
        for s in ("100", "010", "001", "111", "110"):
            assert form_eval(f, vec(s), vec(s)) == 0

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            BilinearForm(2, (1, 0))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            BilinearForm(2, (2, 0))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            form_eval(triangle_form(), vec("10"), vec("100"))


class TestQEval:
    def test_triangle_values(self):
        sp = triangle_space()
        assert q_eval(sp, vec("110")) == 1  # 1 + 1 + <100,010>
        assert q_eval(sp, vec("111")) == 0  # 3 vertices + 3 edges
        assert q_eval(sp, vec("000")) == 0

    @settings(max_examples=200)
    @given(form_and_vectors())
    def test_polarization(self, data):
        space, (x, y) = data
        lhs = q_eval(space, x + y) ^ q_eval(space, x) ^ q_eval(space, y)
        assert lhs == form_eval(space.form, x, y)


class TestKernel:
    def test_triangle_kernel(self):
        basis = kernel_basis(triangle_form())
        assert [b.to_string() for b in basis] == ["111"]

    def test_zero_form(self):
        basis = kernel_basis(BilinearForm.zero(4))
        assert sorted(b.bits for b in basis) == [1, 2, 4, 8]

    @settings(max_examples=100)
    @given(form_and_vectors(n_vectors=0))
    def test_kernel_pairs_to_zero(self, data):
        space, _ = data
        f = space.form
        for b in kernel_basis(f):
            for i in range(f.dim):
                assert form_eval(f, b, F2Vector(f.dim, 1 << i)) == 0


class TestSymplecticReduce:
    def _check_basis(self, space):
        sb = symplectic_reduce(space)
        f = space.form
        members = [v for pair in sb.pairs for v in pair] + list(sb.kernel)
        assert len(members) == f.dim
        for ei, fi in sb.pairs:
            assert form_eval(f, ei, fi) == 1
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                expected = 0
                for e, fv in sb.pairs:
                    if {members[a], members[b]} == {e, fv}:
                        expected = 1
                assert form_eval(f, members[a], members[b]) == expected
        return sb

    def test_triangle(self):
        sb = self._check_basis(triangle_space())
        assert len(sb.pairs) == 1 and len(sb.kernel) == 1

    def test_zero_form(self):
        sb = symplectic_reduce(QuadraticSpace.with_all_ones(BilinearForm.zero(3)))
        assert sb.pairs == () and len(sb.kernel) == 3

    @settings(max_examples=60)
    @given(form_and_vectors(n_vectors=0))
    def test_random_forms(self, data):
        space, _ = data
        self._check_basis(space)

    @settings(max_examples=60)
    @given(form_and_vectors(n_vectors=0))
    def test_arf_pivot_independent(self, data):
        space, _ = data
        if arf(space) is ArfClass.KERNEL_NONZERO:
            return
        def arf_with(pivot):
            sb = symplectic_reduce(space, pivot=pivot)
            total = 0
            for e, fv in sb.pairs:
                total ^= space.q_bits(e.bits) & space.q_bits(fv.bits)
            return total
        assert arf_with("low") == arf_with("high")


class TestArf:
    def test_triangle_is_arf1(self):
        assert arf(triangle_space()) is ArfClass.ARF1

    def test_hyperbolic_zero_values(self):
        space = QuadraticSpace(BilinearForm.from_edges(2, [(0, 1)]), 0)
        assert arf(space) is ArfClass.ARF0

    def test_kernel_nonzero(self):
        # q(e)=1 on a kernel vector
        space = QuadraticSpace.with_all_ones(BilinearForm.zero(1))
        assert arf(space) is ArfClass.KERNEL_NONZERO


class TestValueCounts:
    def test_triangle(self):
        assert value_counts_closed(triangle_space()) == (2, 6)
        assert value_counts_brute(triangle_space()) == (2, 6)

    def test_dim_zero(self):
        space = QuadraticSpace.with_all_ones(BilinearForm.zero(0))
        assert value_counts_closed(space) == (1, 0)
        assert value_counts_brute(space) == (1, 0)

    def test_brute_guard(self):
        space = QuadraticSpace.with_all_ones(BilinearForm.zero(31))
        with pytest.raises(ValueError):
            value_counts_brute(space)

    @settings(max_examples=60, deadline=None)
    @given(form_and_vectors(n_vectors=0))
    def test_closed_equals_brute(self, data):
        space, _ = data
        assert value_counts_closed(space) == value_counts_brute(space)

    def test_counts_sum_to_space(self):
        space = triangle_space()
        c0, c1 = value_counts_closed(space)
        assert c0 + c1 == 1 << space.dim


class TestTransvect:
    def test_fixed_on_self(self):
        f = triangle_form()
        d = vec("100")
        assert transvect(f, d, d) == d

    def test_moves_coupled(self):
        f = triangle_form()
        assert transvect(f, vec("100"), vec("010")).to_string() == "110"

    @settings(max_examples=200)
    @given(form_and_vectors(n_vectors=2))
    def test_involution_and_preservation(self, data):
        space, (x, y) = data
        f = space.form
        for i in range(f.dim):
            d = F2Vector(f.dim, 1 << i)
            assert transvect(f, d, transvect(f, d, x)) == x
            assert form_eval(f, transvect(f, d, x), transvect(f, d, y)) == form_eval(f, x, y)
            if space.q_bits(d.bits) == 1:
                assert q_eval(space, transvect(f, d, x)) == q_eval(space, x)


@st.composite
def vector_systems(draw, max_dim=10, max_rows=8):
    dim = draw(st.integers(min_value=0, max_value=max_dim))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << dim) - 1),
                         max_size=max_rows))
    return dim, rows


def brute_span(vectors) -> set[int]:
    points = {0}
    for v in vectors:
        points |= {p ^ v for p in points}
    return points


def is_reduced_echelon_high(basis) -> bool:
    pivots = [b.bit_length() - 1 for b in basis]
    if any(b == 0 for b in basis) or pivots != sorted(set(pivots)):
        return False
    return all(not b >> p & 1 for b in basis for p in pivots if p != b.bit_length() - 1)


class TestLinearLayer:
    """The echelon, null space, solve and mask maps against brute force."""

    @settings(max_examples=150, deadline=None)
    @given(vector_systems())
    def test_echelon_is_the_canonical_basis_of_the_span(self, system):
        _, rows = system
        basis = _echelon(rows)
        assert is_reduced_echelon_high(basis)
        assert brute_span(basis) == brute_span(rows)
        assert len(brute_span(rows)) == 1 << _rank(rows, system[0])

    @settings(max_examples=150, deadline=None)
    @given(vector_systems())
    def test_nullspace_spans_exactly_the_solutions(self, system):
        dim, rows = system
        basis = _nullspace(rows, dim)
        solutions = {x for x in range(1 << dim)
                     if all((x & r).bit_count() % 2 == 0 for r in rows)}
        # a reduced echelon-high basis is unique to its span, so this pins
        # kernel_basis down exactly
        assert is_reduced_echelon_high(basis)
        assert brute_span(basis) == solutions
        assert len(solutions) == 1 << len(basis)

    @settings(max_examples=150, deadline=None)
    @given(vector_systems(), st.integers(min_value=0, max_value=255))
    def test_solve_meets_its_equations_or_refuses_dependent_rows(self, system, values):
        _, rows = system
        values &= (1 << len(rows)) - 1
        if len(brute_span(rows)) < 1 << len(rows):
            with pytest.raises(ValueError, match="dependent"):
                _solve(rows, values)
            return
        x = _solve(rows, values)
        assert all((x & r).bit_count() % 2 == values >> l & 1 for l, r in enumerate(rows))

    @settings(max_examples=150, deadline=None)
    @given(vector_systems(), st.integers(min_value=0, max_value=(1 << 10) - 1))
    def test_reduce_is_the_coset_minimum(self, system, x):
        dim, rows = system
        x &= (1 << dim) - 1
        assert _reduce(x, _echelon(rows)) == min(x ^ p for p in brute_span(rows))

    @settings(max_examples=150, deadline=None)
    @given(vector_systems(), st.integers(min_value=0), st.integers(min_value=0))
    def test_evaluate_and_combine_are_transposes(self, system, x, y):
        dim, rows = system
        x &= (1 << dim) - 1
        y &= (1 << len(rows)) - 1
        image = _evaluate(x, rows)
        assert image < 1 << len(rows)
        assert (image & y).bit_count() % 2 == (x & _combine(y, rows)).bit_count() % 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1), max_size=20),
           st.lists(st.integers(min_value=0), min_size=1, max_size=40))
    def test_byte_tables_apply_combine_to_arrays(self, cols, values):
        values = np.array([v & ((1 << len(cols)) - 1) for v in values], dtype=np.uint32)
        out = _apply_tables(_byte_tables(cols), values)
        assert out.dtype == np.uint32
        assert [int(v) for v in out] == [_combine(int(v), cols) for v in values]
