import random
from itertools import accumulate
from math import prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspgrowth import (
    AbelianHom,
    FiniteAbelianGroup,
    IntMatrix,
    ValidationError,
    cokernel,
    image_index,
    is_surjective,
    kernel_contains,
    smith_normal_form,
)
from cuspgrowth.lattice import _index, _smith_eliminate
from oracles import det_cofactor, minor_gcd_diagonal, subgroup_elements


def columns_of(*cols):
    return IntMatrix.from_columns(list(cols))


def cyclic(modulus, row):
    """The map Z^k -> Z/modulus sending e_j to row[j]."""
    return AbelianHom(FiniteAbelianGroup((modulus,)), IntMatrix.from_rows([list(row)]))


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValidationError, match="row 1"):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_entries_must_be_ints(self):
        with pytest.raises(ValidationError, match="ints"):
            IntMatrix.from_rows([[1.5, 2]])

    def test_degenerate_shapes(self):
        empty_gens = IntMatrix(((),), 0)
        assert empty_gens.shape == (1, 0)
        no_rows = IntMatrix((), 4)
        assert no_rows.shape == (0, 4)

    def test_columns(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.columns() == [(1, 4), (2, 5), (3, 6)]
        assert m.columns() is not m.columns()  # callers may mutate their copy
        assert IntMatrix((), 3).columns() == [(), (), ()]
        assert IntMatrix(((), ()), 0).columns() == []

    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[5, 6], [7, 8]])
        assert (a @ b).entries == ((19, 22), (43, 50))

    def test_det_matches_cofactor_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert IntMatrix.from_rows(rows).det() == det_cofactor(rows)

    def test_big_entries(self):
        big = 10**40
        m = IntMatrix.from_rows([[big, 1], [1, big]])
        assert m.det() == big * big - 1


def assert_valid_snf(a: IntMatrix):
    snf = smith_normal_form(a)
    assert (snf.u @ a @ snf.v).entries == snf.d.entries
    assert abs(snf.u.det()) == 1
    assert abs(snf.v.det()) == 1
    diag = snf.diagonal
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert snf.d[i, j] == 0
    for x in diag:
        assert x >= 0
    nonzero = [x for x in diag if x != 0]
    assert list(diag[: len(nonzero)]) == nonzero, "zeros must trail"
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    assert diag == minor_gcd_diagonal(a)
    return snf


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(IntMatrix.identity(3))
        assert snf.diagonal == (1, 1, 1)

    def test_already_diagonal(self):
        snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 6]]))
        assert snf.diagonal == (2, 6)

    def test_classic_example(self):
        snf = assert_valid_snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert snf.diagonal == (2, 4)

    def test_zero_matrix(self):
        snf = smith_normal_form(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
        assert snf.diagonal == (0, 0)

    def test_non_square(self):
        assert_valid_snf(IntMatrix.from_rows([[4, 6, 10]]))
        assert_valid_snf(IntMatrix.from_rows([[4], [6], [10]]))

    def test_divisor_chain_requires_fixup(self):
        # diag(2, 3) must become diag(1, 6): forces the divisibility repair.
        snf = assert_valid_snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert snf.diagonal == (1, 6)

    def test_deterministic(self):
        a = IntMatrix.from_rows([[3, -1, 4], [1, 5, -9], [2, 6, 5]])
        first = smith_normal_form(a)
        second = smith_normal_form(a)
        assert first == second

    def test_seeded_random_suite(self):
        rng = random.Random(1234)
        for _ in range(150):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            assert_valid_snf(IntMatrix.from_rows(rows))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_property_suite(self, r, c, data):
        rows = [
            [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(c)]
            for _ in range(r)
        ]
        assert_valid_snf(IntMatrix.from_rows(rows))

    def test_diagonal_matches_sympy(self):
        # Past the reach of the minor-gcd oracle: 5x7 up to 8x8, some of
        # them rank-deficient so that zeros and repeated factors show.
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(2026)
        for _ in range(40):
            r = rng.randint(5, 8)
            c = rng.randint(max(r, 7), 8)
            if rng.random() < 0.5:
                r, c = c, r
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.3:
                rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
            if rng.random() < 0.3:
                rows = [[6 * x for x in row] for row in rows]
            expected = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
            diagonal = smith_normal_form(IntMatrix.from_rows(rows)).diagonal
            assert diagonal == tuple(abs(int(x)) for x in expected)


class TestFiniteAbelianGroup:
    def test_canonical_drops_ones(self):
        assert FiniteAbelianGroup((1, 2, 6)).invariant_factors == (2, 6)

    def test_trivial(self):
        g = FiniteAbelianGroup(())
        assert g.order == 1 and g.invariant_factors == ()

    def test_zero_factor_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            FiniteAbelianGroup((0,))

    def test_non_chain_rejected(self):
        with pytest.raises(ValidationError, match="divisor chain"):
            FiniteAbelianGroup((2, 3))

    def test_order_and_elements(self):
        g = FiniteAbelianGroup((2, 4))
        assert g.order == 8

    @pytest.mark.parametrize("factors, expected", [
        ((5,), (5,)),
        ([5], (5,)),
        ((10**50,), (10**50,)),
        ((1,), ()),
        ((True,), "invariant factors must be ints, got True"),
        ((0,), "zero invariant factor means an infinite quotient; deck groups must be finite"),
        ((-3,), "invariant factors must be positive, got -3"),
        ((5.0,), "invariant factors must be ints, got 5.0"),
        ((2, 3), "invariant factors must form a divisor chain; 2 does not divide 3"),
    ])
    def test_one_factor_and_its_neighbours(self, factors, expected):
        """A tuple of one int above 1 is kept as it is; every other input
        is canonicalized or refused as by the general checks."""
        if isinstance(expected, tuple):
            kept = FiniteAbelianGroup(factors).invariant_factors
            assert (kept, type(kept)) == (expected, tuple)
        else:
            with pytest.raises(ValidationError) as exc:
                FiniteAbelianGroup(factors)
            assert str(exc.value) == expected


class TestCokernel:
    def test_unit_generator_kills_everything(self):
        quotient = cokernel(FiniteAbelianGroup((8,)), IntMatrix.from_rows([[1]]))
        assert quotient.invariant_factors == ()

    def test_empty_generators(self):
        g = FiniteAbelianGroup((8,))
        assert cokernel(g, IntMatrix(((),), 0)) == g

    def test_z9_mod_3(self):
        quotient = cokernel(FiniteAbelianGroup((9,)), IntMatrix.from_rows([[3]]))
        assert quotient.invariant_factors == (3,)
        # Independent check: the subgroup <3> of Z/9 has 3 elements.
        sub = subgroup_elements(FiniteAbelianGroup((9,)), [(3,)])
        assert len(sub) == 3 and 9 // len(sub) == quotient.order

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            cokernel(FiniteAbelianGroup((2, 4)), IntMatrix.from_rows([[1]]))

    def test_trivial_target(self):
        assert cokernel(FiniteAbelianGroup(()), IntMatrix((), 3)).invariant_factors == ()

    def test_order_product_against_brute_force(self):
        rng = random.Random(99)
        for _ in range(60):
            factors = [rng.choice([2, 3, 4, 6])]
            for _ in range(rng.randint(0, 2)):
                factors.append(factors[-1] * rng.choice([1, 2, 3]))
            group = FiniteAbelianGroup(tuple(factors))
            s = group.rank
            ncols = rng.randint(0, 3)
            cols = [
                tuple(rng.randrange(d) for d in group.invariant_factors)
                for _ in range(ncols)
            ]
            gens = IntMatrix.from_columns(cols, rows=s)
            quotient = cokernel(group, gens)
            subgroup = subgroup_elements(group, cols)
            assert quotient.order * len(subgroup) == group.order


A_RHO = cyclic(9, (1, 0, 0, 0))
E = IntMatrix.identity(4).columns()


def eliminated_diagonal(d, row):
    """The one-row Smith diagonal entry by the general elimination."""
    m = [[d] + list(row)]
    _smith_eliminate(m, 1, len(m[0]))
    return m[0][0]


class TestOneRowCokernel:
    BIG = 2**2000

    @pytest.mark.parametrize("d, row", [
        (9, []),
        (9, [0, 0, 0]),
        (9, [-6, 0, 15]),
        (12, [-8, -18]),
        (7, [-1]),
        (2**2000 + 1, [0, -(3**1200), 0]),
        (2**1999 * 3, [-(2**1500) * 9, 2**1800 * 15, 0]),
    ])
    def test_gcd_equals_elimination(self, d, row):
        assert _index([d], [row]) == eliminated_diagonal(d, row)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=BIG),
        st.lists(st.one_of(st.just(0), st.integers(min_value=-BIG, max_value=BIG),
                           st.integers(min_value=-20, max_value=20)), max_size=6),
        st.integers(min_value=0, max_value=2000),
    )
    def test_gcd_equals_elimination_property(self, d, row, shift):
        # Scaling by 2^shift makes the entries share large factors.
        d, row = d << shift, [x << shift for x in row]
        assert _index([d], [row]) == eliminated_diagonal(d, row)


def divisor_chains(max_rank, max_order=None):
    """Invariant factors d_1 | d_2 | ... of rank 1 to `max_rank`, each
    step a factor 1, 2, 3 or 5, cut to the longest prefix of order at
    most `max_order`."""
    def chain(first, steps):
        factors = list(accumulate(steps, mul, initial=first))
        while max_order is not None and prod(factors) > max_order:
            factors.pop()
        return factors

    return st.builds(chain, st.integers(min_value=2, max_value=12),
                     st.lists(st.sampled_from([1, 1, 2, 3, 5]), max_size=max_rank - 1))


def image_rows(data, factors, c):
    """One row of `c` entries in -40..40 per factor."""
    entries = st.integers(min_value=-40, max_value=40)
    return [[data.draw(entries) for _ in range(c)] for _ in factors]


class TestIndexFold:
    """`_index` by the relation-lattice fold, against the order of the
    Smith cokernel of [diag(d) | A] and against closure counts, with c
    columns on both sides of the rank r."""

    @staticmethod
    def smith_order(factors, rows):
        r = len(factors)
        block = [[d if j == i else 0 for j in range(r)] + row
                 for i, (d, row) in enumerate(zip(factors, rows))]
        return prod(smith_normal_form(IntMatrix.from_rows(block)).diagonal)

    @settings(max_examples=60, deadline=None)
    @given(divisor_chains(64), st.integers(min_value=0, max_value=6), st.data())
    def test_few_columns_equal_the_smith_order(self, factors, c, data):
        rows = image_rows(data, factors, c)
        assert _index(factors, rows) == self.smith_order(factors, rows)

    @settings(max_examples=60, deadline=None)
    @given(divisor_chains(12), st.data())
    def test_many_columns_equal_the_smith_order(self, factors, data):
        r = len(factors)
        rows = image_rows(data, factors, data.draw(st.integers(min_value=r + 1,
                                                               max_value=3 * r)))
        assert _index(factors, rows) == self.smith_order(factors, rows)

    @settings(max_examples=150, deadline=None)
    @given(divisor_chains(13, max_order=10_000), st.data())
    def test_index_times_closure_is_the_order(self, factors, data):
        r = len(factors)
        c = data.draw(st.integers(min_value=0, max_value=3 * r))
        rows = image_rows(data, factors, c)
        group = FiniteAbelianGroup(tuple(factors))
        subgroup = subgroup_elements(group, zip(*rows)) if c else {()}
        assert _index(factors, rows) * len(subgroup) == group.order

    def test_both_sides_on_one_subgroup(self):
        # (1, 2) has order 6 in Z/6 (+) Z/12, so <(1, 2)> has index 12,
        # spanned by three columns (c > r) or by one (c < r).
        assert _index([6, 12], [[1, 2, 3], [2, 4, 6]]) == 12
        assert _index([6, 12], [[1], [2]]) == 12
        assert _index([6, 12], [[], []]) == 72
        assert _index([], []) == 1


class TestAbelianHomReduction:
    def test_reduced_images_are_kept(self):
        images = IntMatrix.from_rows([[1, 0, 2], [0, 3, 11]])
        rho = AbelianHom(FiniteAbelianGroup((3, 12)), images)
        assert rho.images is images

    @pytest.mark.parametrize("row", [[-1, 0, 0], [0, 12, 0], [25, 0, 1]])
    def test_unreduced_images_are_reduced(self, row):
        rho = AbelianHom(FiniteAbelianGroup((3, 12)), IntMatrix.from_rows([[0, 1, 2], row]))
        assert rho.images.entries == ((0, 1, 2), tuple(x % 12 for x in row))

    def test_one_matrix_shared_by_cyclic_levels(self):
        """The row bounds are taken once per matrix and hold for every
        modulus: a row is kept where it is reduced and reduced elsewhere."""
        images = IntMatrix.from_rows([[0, 4, 6]])
        for d in (7, 100, 3**40):
            assert AbelianHom(FiniteAbelianGroup((d,)), images).images is images
        for d, reduced in ((6, (0, 4, 0)), (5, (0, 4, 1)), (2, (0, 0, 0))):
            assert AbelianHom(FiniteAbelianGroup((d,)), images).images.entries == (reduced,)
        negative = IntMatrix.from_rows([[-1, 0, 5]])
        assert AbelianHom(FiniteAbelianGroup((9,)), negative).images.entries == ((8, 0, 5),)

    def test_empty_rows_are_kept(self):
        images = IntMatrix(((), ()), 0)
        assert AbelianHom(FiniteAbelianGroup((2, 4)), images).images is images
        assert AbelianHom(FiniteAbelianGroup(()), IntMatrix((), 3)).images.entries == ()

    def test_cached_bounds_stay_out_of_eq_hash_and_repr(self):
        a, b = IntMatrix.from_rows([[1, -2], [3, 4]]), IntMatrix.from_rows([[1, -2], [3, 4]])
        before = (repr(a), hash(a))
        assert a._row_bounds == ((-2, 1), (3, 4))
        assert (repr(a), hash(a)) == before == (repr(b), hash(b))
        assert a == b and "_row_bounds" not in repr(a)
        assert IntMatrix(((),), 0)._row_bounds == ((0, 0),)


class TestImageIndex:
    def test_a_tower_kernel_sublattice(self):
        assert image_index(A_RHO, columns_of(E[2], E[3])) == 9

    def test_a_tower_surjective_sublattice(self):
        assert image_index(A_RHO, columns_of(E[0], E[1])) == 1

    def test_b_tower_even_prime(self):
        rho = cyclic(2, (1, 1, 1, 1))
        sub = columns_of((1, 0, 1, 0), (0, 1, 0, 1))
        assert image_index(rho, sub) == 2
        # Oracle: the images are 2 = 0 mod 2, so the image subgroup is trivial.
        assert subgroup_elements(rho.target, [(0,), (0,)]) == {(0,)}

    def test_column_operations_do_not_change_the_index(self):
        rng = random.Random(5)
        rho = AbelianHom(
            FiniteAbelianGroup((2, 12)),
            IntMatrix.from_rows([[1, 0, 1, 1], [0, 3, 2, 7]]),
        )
        sub = columns_of((1, 0, 2, 0), (0, 1, 0, 3))
        expected = image_index(rho, sub)
        for _ in range(25):
            c1, c2 = list(sub.columns())
            t = rng.randint(-3, 3)
            if rng.random() < 0.5:
                c1 = tuple(x + t * y for x, y in zip(c1, c2))
            else:
                c2 = tuple(x + t * y for x, y in zip(c2, c1))
            if rng.random() < 0.5:
                c1, c2 = c2, c1
            sub = columns_of(c1, c2)
            assert image_index(rho, sub) == expected

    def test_prime_cyclic_dichotomy(self):
        # For a cyclic target of prime order, any sublattice not inside
        # the kernel must surject.
        rng = random.Random(11)
        for p in (2, 3, 5, 7):
            for _ in range(20):
                rho = cyclic(p, tuple(rng.randrange(p) for _ in range(3)))
                sub = columns_of(tuple(rng.randint(-4, 4) for _ in range(3)))
                if not kernel_contains(rho, sub):
                    assert image_index(rho, sub) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            image_index(A_RHO, IntMatrix.from_rows([[1], [0]]))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.lists(st.integers(min_value=1, max_value=3), max_size=3),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_index_times_image_order_is_group_order(self, first, steps, k, data):
        # [G : rho(L)] * |<rho(L)>| = |G|, with |<rho(L)>| by closure.
        factors = [first]
        for step in steps:
            factors.append(factors[-1] * step)
        target = FiniteAbelianGroup(tuple(factors))
        assume(target.order <= 10_000)
        entries = st.integers(min_value=-20, max_value=20)
        rho = AbelianHom(target, IntMatrix.from_rows(
            [[data.draw(entries) for _ in range(k)] for _ in range(target.rank)], k))
        gens = [
            tuple(data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(k))
            for _ in range(data.draw(st.integers(min_value=0, max_value=3)))
        ]
        images = [
            tuple(sum(x * y for x, y in zip(row, g)) for row in rho.images.entries)
            for g in gens
        ]
        index = image_index(rho, IntMatrix.from_columns(gens, rows=k))
        assert index * len(subgroup_elements(target, images)) == target.order


class TestSurjectivityAndKernel:
    def test_a_tower_is_surjective(self):
        assert is_surjective(A_RHO)

    def test_non_surjective(self):
        assert not is_surjective(cyclic(4, (2, 2, 0, 0)))

    def test_two_factor_target(self):
        rho = AbelianHom(
            FiniteAbelianGroup((2, 4)),
            IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]]),
        )
        assert is_surjective(rho)
        # Oracle: closure of the two generator images fills all 8 elements.
        assert len(subgroup_elements(rho.target, [(1, 0), (0, 1)])) == 8

    def test_kernel_contains_a_tower(self):
        assert kernel_contains(A_RHO, columns_of(E[2], E[3]))
        assert not kernel_contains(A_RHO, columns_of(E[0]))

    def test_kernel_contains_b_tower_difference_lattice(self):
        for p in (3, 5):
            rho = cyclic(p, (1, 1, 1, 1))
            diff = columns_of((1, 0, -1, 0), (0, 1, 0, -1))
            assert kernel_contains(rho, diff)

    def test_trivial_target_edge_cases(self):
        rho = AbelianHom(FiniteAbelianGroup(()), IntMatrix((), 4))
        assert is_surjective(rho)
        assert image_index(rho, columns_of(E[0])) == 1
        assert kernel_contains(rho, columns_of(E[0]))
