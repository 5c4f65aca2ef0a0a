"""Vectors, forms, quadratic functions, kernels, Arf."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from f2orbits import f2la
from f2orbits.f2la import (ArfClass, BilinearForm, F2Vector, QuadraticSpace, _Span,
                           _apply_tables, _byte_tables, _combine, _coset_minima, _echelon,
                           _evaluate, _insert, _nullspace, _rank, _reduce, _solve,
                           _span_points, arf, form_eval, kernel_basis, q_eval,
                           symplectic_reduce, transvect, value_counts_brute,
                           value_counts_closed)
from f2orbits.lattice import build, hex_lattice_graph


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
        with pytest.raises(ValueError, match="^bits 0x4 out of range for dim 2$"):
            F2Vector(2, 4)
        with pytest.raises(ValueError, match="^bits -0x1 out of range for dim 3$"):
            F2Vector(3, -1)

    def test_from_support(self):
        v = F2Vector.from_support(5, [0, 3, 4])
        assert v.bits == 0b11001
        assert all(F2Vector.from_support(5, F2Vector(5, bits).support()).bits == bits
                   for bits in range(1 << 5))
        assert F2Vector.from_support(5, []) == F2Vector.zeros(5)

    @pytest.mark.parametrize("index", [5, -1])
    def test_from_support_out_of_range(self, index):
        with pytest.raises(ValueError, match="out of range"):
            F2Vector.from_support(5, [1, index])


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

    # sha256 of the exact (pairs, kernel) bit lists, in order, of every
    # space of a family, computed with the reduction that restarted its
    # scan at the first vector after each pair
    BASIS_SHA256 = {
        ("hex", "low"): "b42acfffb95e5459b7a8363d53f757d141f366e9c03e9986e7ca6be7243d826f",
        ("hex", "high"): "45c21cccc72e8e2297db76a33e22958fe65be1df60746b2b68e88734f8f2f123",
        ("random", "low"): "78cdc5124804a840225597fc17cee46b24f511ec84663a0f858acf93d1f72714",
        ("random", "high"): "0486856481d4b13127978fda617673aab3d1426fa1c812ae924a7df7a45d2ced",
    }

    @staticmethod
    def _family(name):
        """The hex lattice spaces of n = 3..12, or 20 seeded random
        spaces of dimension 0..16."""
        if name == "hex":
            return [build(hex_lattice_graph(n)).qspace for n in range(3, 13)]
        spaces = []
        for seed in range(20):
            rng = random.Random(seed)
            dim = rng.randrange(17)
            edges = [(i, j) for i in range(dim) for j in range(i + 1, dim) if rng.getrandbits(1)]
            spaces.append(QuadraticSpace(BilinearForm.from_edges(dim, edges), rng.getrandbits(dim)))
        return spaces

    @pytest.mark.parametrize("family, pivot", sorted(BASIS_SHA256))
    def test_exact_basis_is_pinned(self, family, pivot):
        h = hashlib.sha256()
        for space in self._family(family):
            sb = symplectic_reduce(space, pivot=pivot)
            h.update(repr(([(e.bits, fv.bits) for e, fv in sb.pairs],
                           [k.bits for k in sb.kernel])).encode())
        assert h.hexdigest() == self.BASIS_SHA256[family, pivot]


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

    def test_brute_above_the_low_split(self):
        # dim 25 runs the high-part loop over bits 24 and up.  Vertex 24
        # has edges into the low part and q(e_24) = 1, and with this seed
        # the level sets differ in size, so dropping either the cross
        # terms or q of the high part changes the counts
        rng = random.Random(32)
        edges = [(u, v) for u in range(25) for v in range(u + 1, 25) if rng.random() < 0.2]
        edges += [(u, 24) for u in (0, 7, 23) if (u, 24) not in edges]
        space = QuadraticSpace(BilinearForm.from_edges(25, edges), rng.getrandbits(25))
        assert space.basis_values >> 24 & 1
        c0, c1 = value_counts_closed(space)
        assert c0 != c1 and value_counts_brute(space) == (c0, c1)

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
    """The echelon, span, null space, solve and mask maps against brute
    force."""

    @settings(max_examples=150, deadline=None)
    @given(vector_systems())
    def test_echelon_is_the_canonical_basis_of_the_span(self, system):
        _, rows = system
        basis = _echelon(rows)
        assert is_reduced_echelon_high(basis)
        assert brute_span(basis) == brute_span(rows)
        assert len(brute_span(rows)) == 1 << _rank(rows, system[0])
        # the last row, reduced by the echelon of the others, inserts
        # into it as the same canonical basis
        head = _echelon(rows[:-1])
        last = _reduce(rows[-1], head) if rows else 0
        if last:
            assert _insert(head, last) == basis

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_coset_minima_are_the_least_xor_of_each_point(self, data):
        # 1 to 128 points, repeated values, and points with bits above
        # every value's
        points = _span_points(data.draw(st.lists(st.integers(0, 2**32 - 1), max_size=7)))
        chunks = data.draw(st.lists(st.lists(st.integers(0, 2**12 - 1), min_size=1,
                                             max_size=50), min_size=1, max_size=4))
        values = [v for chunk in chunks for v in chunk]
        got = _coset_minima((np.array(c, dtype=np.uint32) for c in chunks),
                            np.array(points, dtype=np.uint32))
        assert got.tolist() == [min(v ^ c for v in values) for c in points]

    def test_coset_minima_fill_their_buffer_more_than_once(self, monkeypatch):
        monkeypatch.setattr(f2la, "_LIFT_CHUNK", 8)
        rng = random.Random(5)
        points = _span_points([rng.getrandbits(20) for _ in range(6)])
        chunks = [[rng.getrandbits(20) for _ in range(rng.randint(1, 8))] for _ in range(9)]
        values = [v for chunk in chunks for v in chunk]
        got = _coset_minima((np.array(c, dtype=np.uint32) for c in chunks),
                            np.array(points, dtype=np.uint32))
        assert got.tolist() == [min(v ^ c for v in values) for c in points]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_span_absorbs_every_value_of_its_planes(self, data):
        # values reduced by the span live in the rows of its live
        # coordinates, in any order; each vector absorbed reduces the
        # planes and the potentials alike and drops its pivot's row
        dim = data.draw(st.integers(min_value=0, max_value=6))
        words = data.draw(st.integers(min_value=1, max_value=4))
        start = _echelon(data.draw(st.lists(st.integers(0, (1 << dim) - 1), max_size=3)))
        pivots = {b.bit_length() - 1 for b in start}
        live = data.draw(st.permutations([j for j in range(dim) if j not in pivots]))

        def stack(entries, rows):
            """Bit-planes of the values at (word, bit) positions, reduced
            by start, in the rows of live, over rows rows of garbage."""
            out = np.array([[data.draw(st.integers(0, 2**64 - 1)) for _ in range(words)]
                            for _ in range(rows)], dtype=np.uint64)
            out[:len(live)] = 0
            for w, i, value in entries:
                for r, j in enumerate(live):
                    out[r, w] |= np.uint64((_reduce(value, start) >> j & 1) << i)
            return out

        def read(planes, coords):
            return [sum((int(planes[r, w]) >> i & 1) << j for r, j in enumerate(coords))
                    for w in range(words) for i in range(64)]

        positions = st.tuples(st.integers(0, words - 1), st.integers(0, 63),
                              st.integers(0, (1 << dim) - 1))
        # values at a few positions, so that the span is often left short
        # of F2^dim
        planes = stack(data.draw(st.lists(positions, max_size=8)), len(live))
        potentials = stack(data.draw(st.lists(positions, max_size=8)), dim)
        values, held = read(planes, live), read(potentials, live)
        span = _Span(dim)
        span.basis, span.live = start, list(live)
        span.absorb_planes(planes, np.empty(words, dtype=np.uint64), potentials)
        final = _echelon(start + values)
        assert span.basis == final
        assert span.full is (len(brute_span(start + values)) == 1 << dim)
        # the rows left are the coordinates that are no pivot of the span,
        # and they hold every value reduced by it
        assert sorted(span.live) == [j for j in range(dim)
                                     if not any(b.bit_length() - 1 == j for b in final)]
        assert not planes[:len(span.live)].any()
        assert read(potentials, span.live) == [_reduce(v, final) for v in held]

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
