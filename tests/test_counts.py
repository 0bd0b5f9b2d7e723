import importlib.util
import itertools
import math
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cuspgrowth import (
    DTowerDatum,
    GroupFamily,
    Method,
    ResourceLimitError,
    ValidationError,
    brute_force_order,
    cusp_index_proxy,
    d_tower_columns,
    d_tower_series,
    fit_exponent,
    primes_in_range,
    psl2_order,
    sl2_order,
    sl_order,
    su_order,
    u_order,
    unitriangular_u_order,
)
from cuspgrowth import counts
from cuspgrowth.cli import main
from cuspgrowth.counts import (
    _SPRP_BOUNDS,
    MAX_TRIAL_DIVISOR,
    _affine_solutions,
    _laplace_plan,
    _wedge,
    factorize,
    is_prime,
    order_formula,
    prime_power_base,
)
from cuspgrowth.gf import PrimePowerField, field


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _bench_workloads()
#: The light, middle and band brute-force configurations of the
#: congruence-oracle benchmark, in first-seen order.
BENCH_ORDERS = list(dict.fromkeys(
    _WORKLOADS.ORDERS_LIGHT + _WORKLOADS.ORDERS_MIDDLE + _WORKLOADS.ORDERS_BAND
))

#: Every (p, n) with p^n <= 256.
SMALL_FIELDS = [
    (p, n) for p in range(2, 257) if oracles.is_prime_trial(p)
    for n in range(1, 9) if p**n <= 256
]


#: Carmichael numbers: the first ten, and (6k + 1)(12k + 1)(18k + 1) for
#: k with all three factors prime, up to about 1.3 * 10^24.
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341] + [
    (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
    for k in (1, 6, 35, 45, 51, 55, 56, 100_291, 1_000_051, 10_000_146)
]

#: Primes within 3,000 of 2^20, whose products are semiprimes near 2^40.
NEAR_2_20 = primes_in_range(2**20 - 3000, 2**20 + 3000, cap=2**21)

#: GF(2), GF(4), GF(5), GF(9) and GF(25).
AFFINE_FIELDS = [(2, 1), (2, 2), (5, 1), (3, 2), (5, 2)]


@st.composite
def affine_systems(draw):
    """A field, a length m and up to four equations (a, b) over it: random
    rows, zero rows, and multiples of earlier rows whose right-hand side is
    either the same multiple (a repeated row) or arbitrary (often an
    inconsistent one)."""
    f = field(*draw(st.sampled_from(AFFINE_FIELDS)))
    m = draw(st.integers(1, 3))
    element = st.integers(0, f.size - 1)
    equations = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["random", "zero", "multiple"]))
        if kind == "multiple" and equations:
            a, b = draw(st.sampled_from(equations))
            c = draw(element)
            equations.append((tuple(f.mul(c, x) for x in a),
                              draw(st.sampled_from([f.mul(c, b), draw(element)]))))
        elif kind == "zero":
            equations.append(((0,) * m, draw(element)))
        else:
            equations.append((tuple(draw(st.lists(element, min_size=m, max_size=m))),
                              draw(element)))
    return f, m, equations


class TestFiniteField:
    def test_deterministic_moduli(self):
        # Least irreducible quadratics in the little-endian coefficient order.
        assert field(2, 2).modulus_coeffs == (1, 1)   # x^2 + x + 1
        assert field(3, 2).modulus_coeffs == (1, 0)   # x^2 + 1

    def test_field_axioms_sampled(self):
        f = field(3, 2)
        elems = range(f.size)
        for a in elems:
            assert f.add(a, f.neg(a)) == 0
            if a != 0:
                assert 1 in f._mul[a]
        for a in elems:
            for b in elems:
                assert f.mul(a, b) == f.mul(b, a)
                for c in (0, 1, 5, 7):
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_frobenius_is_an_involution_over_the_prime(self):
        q = 3
        f = field(3, 2)
        for a in range(f.size):
            assert f.pow(f.pow(a, q), q) == a


class TestSl2:
    def test_frozen_values(self):
        assert sl2_order(2).order == 6
        assert sl2_order(3).order == 24
        assert sl2_order(4).order == 48

    def test_formula_matches_enumeration_small(self):
        # Up to 128: 128^4 = 2^28 is the largest N^4 under the default cap.
        for n in range(2, 129):
            assert brute_force_order(GroupFamily.SL2_ZN, 2, n).order == sl2_order(n).order

    def test_psl2(self):
        assert psl2_order(2) == 6
        assert psl2_order(3) == 12
        assert psl2_order(5) == 60

    def test_modulus_guard(self):
        with pytest.raises(ValidationError):
            sl2_order(1)


class TestClassicalOrders:
    def test_frozen_values(self):
        assert u_order(2, 2).order == 18
        assert u_order(2, 3).order == 96
        assert u_order(3, 2).order == 648
        assert su_order(3, 2).order == 216
        assert su_order(2, 2).order == 6
        assert sl_order(3, 2).order == 168
        assert sl_order(3, 3).order == 5616
        assert unitriangular_u_order(3, 2).order == 8

    def test_sl2_family_consistency(self):
        for q in (2, 3, 5, 7, 11):
            assert sl_order(2, q).order == sl2_order(q).order
            assert su_order(2, q).order == sl2_order(q).order

    def test_prime_power_arguments(self):
        assert u_order(2, 4).order == 4 * 5 * 15
        with pytest.raises(ValidationError, match="prime power"):
            u_order(2, 6)

    def test_su_divisibility(self):
        for m in (2, 3, 4):
            for q in (2, 3, 5, 7):
                total = su_order(m, q).order
                assert total % q ** (m * (m - 1) // 2) == 0
                assert u_order(m, q).order % (q + 1) == 0

    def test_log_ratio_increases_to_dimension(self):
        for m in (2, 3):
            limit = m * m - 1
            previous = 0.0
            for q in primes_in_range(2, 199):
                ratio = math.log(su_order(m, q).order) / math.log(q)
                assert previous < ratio < limit
                previous = ratio


class TestBruteForce:
    @pytest.mark.parametrize("family", [GroupFamily.SL, GroupFamily.U,
                                        GroupFamily.SU, GroupFamily.UNITRIANGULAR_U])
    @pytest.mark.parametrize("m,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_formula_equals_brute_force_within_cap(self, family, m, q):
        base = q * q if family is not GroupFamily.SL else q
        space = base ** (m * m)
        formula = {
            GroupFamily.SL: sl_order,
            GroupFamily.U: u_order,
            GroupFamily.SU: su_order,
            GroupFamily.UNITRIANGULAR_U: unitriangular_u_order,
        }[family](m, q)
        if space > 1 << 28:
            with pytest.raises(ResourceLimitError):
                brute_force_order(family, m, q)
            return
        brute = brute_force_order(family, m, q)
        assert brute.method is Method.BRUTE_FORCE
        assert formula.method is Method.FORMULA
        assert brute.order == formula.order

    def test_cap_is_configurable(self):
        with pytest.raises(ResourceLimitError) as err:
            brute_force_order(GroupFamily.SL, 2, 3, cap=10)
        assert err.value.space == 81
        with pytest.raises(ResourceLimitError):
            brute_force_order(GroupFamily.SL2_ZN, 2, 100, cap=10**6)

    def test_heisenberg_at_q3(self):
        assert brute_force_order(GroupFamily.UNITRIANGULAR_U, 2, 3).order == 3

    def test_printable_space_is_reported_exactly(self):
        with pytest.raises(ResourceLimitError) as err:
            brute_force_order(GroupFamily.SL, 100, 2)  # 2^10000, 3,011 digits
        assert (err.value.space, err.value.cap) == (2**10000, 1 << 28)

    @pytest.mark.parametrize("family,m,q", [
        (GroupFamily.U, 100, 2),  # 4^10000, past 4,300 digits
        (GroupFamily.SL, 100, 3),  # 3^10000 is built (bound 10,001 bits) but has 15,850
        (GroupFamily.SU, 3000, 2),
        (GroupFamily.SL2_ZN, 2, 10**1100),
    ])
    def test_huge_space_is_refused_by_its_bound(self, family, m, q):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            brute_force_order(family, m, q)
        assert time.perf_counter() - start < 1.0
        assert (err.value.space, err.value.cap) == (1 << 29, 1 << 28)
        assert str(err.value) == f"raw search space of at least {1 << 29} exceeds the cap {1 << 28}"


class TestCuspIndexProxy:
    def test_frozen_values(self):
        assert cusp_index_proxy(2, 2) == 27 == (4 - 1) * (8 + 1)
        assert cusp_index_proxy(2, 3) == 224 == (9 - 1) * (27 + 1)

    def test_closed_form_for_n2(self):
        for q in primes_in_range(2, 50):
            assert cusp_index_proxy(2, q) == (q * q - 1) * (q**3 + 1)

    def test_times_parabolic_order_recovers_the_group(self):
        for q in primes_in_range(2, 50):
            assert cusp_index_proxy(2, q) * q**3 == su_order(3, q).order
            assert cusp_index_proxy(3, q) * q**5 == su_order(4, q).order

    def test_growth_exponent(self):
        pairs = [(q, cusp_index_proxy(2, q)) for q in primes_in_range(2, 199)]
        fit = fit_exponent(pairs)
        assert abs(fit.slope - 5.0) <= 0.05

    def test_guards(self):
        with pytest.raises(ValidationError):
            cusp_index_proxy(4, 5)
        with pytest.raises(ValidationError):
            cusp_index_proxy(2, 8)


class TestDTower:
    def test_series_values(self):
        series = d_tower_series(2, 2, [5, 7])
        assert series[0] == DTowerDatum(
            q=5,
            vol_proxy=su_order(3, 5).order,
            b1_proxy=2 + 2 * psl2_order(5),
            cusp_proxy=cusp_index_proxy(2, 5),
        )
        assert series[1].q == 7

    def test_columns_hold_the_series_and_each_psl2_order(self):
        primes = primes_in_range(2, 101)
        for n in (2, 3):
            q, vol, b1, cusps, psl2 = d_tower_columns(n, 3, 2, 101)
            assert q == primes
            assert list(map(DTowerDatum, q, vol, b1, cusps)) == d_tower_series(n, 3, primes)
            assert psl2 == [psl2_order(p) for p in primes]
            assert b1 == [2 + 4 * p for p in psl2]
        for lo, hi in ((24, 28), (50, 5), (-5, 1)):
            with pytest.raises(ValidationError) as err:
                d_tower_columns(2, 2, lo, hi)
            assert str(err.value) == f"no primes in [{lo}, {hi}]"

    def test_distinct_primes_required(self):
        with pytest.raises(ValidationError, match="distinct"):
            d_tower_series(2, 2, [5, 5])
        with pytest.raises(ValidationError, match="not prime"):
            d_tower_series(2, 2, [6])

    @pytest.mark.parametrize("primes, message", [
        ([5, 7, 5], "primes must be distinct, 5 repeats"),
        ([7, 3, 11, 3], "primes must be distinct, 3 repeats"),
        ([5, 9, 7], "9 is not prime"),
        ([5, 7, 1001], "1001 is not prime"),
        ([0, 5], "0 is not prime"),
        ([5, 1], "1 is not prime"),
        ([1], "1 is not prime"),
        ([5, -7], "-7 is not prime"),
        ([-3], "-3 is not prime"),
        # The first offending value in the given order is the one named.
        ([5, 9, 5, 1], "9 is not prime"),
        ([5, 5, 9], "primes must be distinct, 5 repeats"),
        ([7, -2, 7], "-2 is not prime"),
    ])
    def test_bad_primes_are_refused(self, primes, message):
        for n in (2, 3):
            with pytest.raises(ValidationError) as err:
                d_tower_series(n, 2, primes)
            assert str(err.value) == message

    def test_largest_prime_above_the_cap_is_refused(self):
        with pytest.raises(ResourceLimitError) as err:
            d_tower_columns(2, 2, 5, 103, cap=102)
        assert (err.value.space, err.value.cap) == (103, 102)
        assert d_tower_columns(2, 2, 5, 101, cap=101)[0][-1] == 101
        # The cap comes before the range and the genus.
        with pytest.raises(ResourceLimitError):
            d_tower_columns(3, 1, 1_000_001, 1_000_002)

    def test_listed_primes_have_no_cap(self):
        series = d_tower_series(2, 2, [1_000_003, 2**61 - 1])
        assert [d.q for d in series] == [1_000_003, 2**61 - 1]
        assert series[1].vol_proxy == su_order(3, 2**61 - 1).order

    @pytest.mark.parametrize("field", range(4))
    def test_datum_entries_must_be_positive(self, field):
        for bad in (0, -1):
            entries = [5, 10, 20, 30]
            entries[field] = bad
            with pytest.raises(ValidationError, match="positive"):
                DTowerDatum(*entries)
        assert DTowerDatum(1, 1, 1, 1).q == 1

    def test_empty_primes_give_empty_columns(self):
        assert counts._d_tower_columns(2, 2, []) == ([], [], [], [], [])
        assert d_tower_series(3, 2, []) == []

    def test_columns_match_the_order_functions(self):
        primes = primes_in_range(2, 5000)
        for n in (2, 3):
            for g in (2, 5):
                q, vol, b1, cusps, psl2 = d_tower_columns(n, g, 2, 5000)
                assert q == primes
                assert vol == [su_order(n + 1, p).order for p in primes]
                assert cusps == [cusp_index_proxy(n, p) for p in primes]
                assert psl2 == [psl2_order(p) for p in primes]
                assert b1 == [2 + (2 * g - 2) * psl2_order(p) for p in primes]

    def test_columns_do_not_test_primality_one_by_one(self, monkeypatch, capsys):
        # Each CLI prime-range job sieves its range once and never calls
        # `is_prime`: the sieve is its primality check.
        sieves = []

        def refuse(n):
            raise AssertionError("is_prime was called")

        def flags(lo, hi):
            sieves.append((lo, hi))
            return prime_flags(lo, hi)

        prime_flags = counts._prime_flags
        monkeypatch.setattr(counts, "is_prime", refuse)
        monkeypatch.setattr(counts, "_prime_flags", flags)
        for sub in ("exponents", "dtower"):
            for n in ("2", "3"):
                for fmt in ("json", "csv", "table"):
                    sieves.clear()
                    argv = ["congruence", sub, "--n", n, "--prime-min", "5",
                            "--prime-max", "500", "--format", fmt]
                    assert main(argv) == 0, capsys.readouterr().err
                    assert sieves == [(5, 500)], argv
        assert "499" in capsys.readouterr().out

    def test_genus_guard(self):
        with pytest.raises(ValidationError, match="genus"):
            d_tower_series(2, 1, [5])
        with pytest.raises(ValidationError, match="n = 2 and n = 3"):
            d_tower_columns(4, 2, 5, 5)

    def test_exponents_land_on_targets(self):
        primes = primes_in_range(5, 199)
        series = d_tower_series(2, 2, primes)
        b1 = fit_exponent([(d.vol_proxy, d.b1_proxy) for d in series])
        cusps = fit_exponent([(d.vol_proxy, d.cusp_proxy) for d in series])
        assert abs(b1.slope - 0.375) <= 0.02
        assert abs(cusps.slope - 0.625) <= 0.02
        series3 = d_tower_series(3, 2, primes)
        vol = fit_exponent([(d.q, d.vol_proxy) for d in series3])
        b1_3 = fit_exponent([(d.vol_proxy, d.b1_proxy) for d in series3])
        assert abs(vol.slope - 15.0) <= 0.1
        assert abs(b1_3.slope - 0.2) <= 0.02


class TestKernelsAgainstOracles:
    """The table-driven kernels against the plain searches in `oracles`."""

    @pytest.mark.parametrize("p,n", SMALL_FIELDS)
    def test_add_and_neg_tables_match_digit_arithmetic(self, p, n):
        f = PrimePowerField(p, n)
        for a in range(f.size):
            assert f._neg[a] == oracles.digit_neg(f, a)
            assert f._add[a] == [oracles.digit_add(f, a, b) for b in range(f.size)]
        assert all(f.sub(a, 1) == oracles.digit_sub(f, a, 1) for a in range(f.size))

    @pytest.mark.parametrize("family,m,q", BENCH_ORDERS)
    def test_benchmark_configurations(self, family, m, q):
        assert brute_force_order(family, m, q).order == oracles.group_order(family, m, q)

    def test_sl2_zn_up_to_40(self):
        for n in range(2, 41):
            assert brute_force_order(GroupFamily.SL2_ZN, 2, n).order == oracles.sl2_zn_count(n)

    @pytest.mark.parametrize("p,n,m", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2),
                                       (3, 1, 3), (2, 2, 3), (3, 1, 4), (2, 1, 5)])
    def test_cofactors_give_the_determinant(self, p, n, m):
        """The exterior product of a prefix, one `_wedge` step per column,
        lists its minors on every row subset; it is 0 from a dependent
        column on; and on m - 1 columns it gives the cofactor row of the
        last column, whose dot product with any x is det(prefix | x)."""
        f = field(p, n)
        plan = _laplace_plan(m)
        rng = random.Random(f"{p}:{n}:{m}")
        vectors = list(itertools.product(range(f.size), repeat=m))
        for trial in range(20):
            cols = [rng.choice(vectors) for _ in range(m)]
            dependent = m
            if trial % 4 == 0:  # column `dependent` combines the earlier ones
                dependent = rng.randrange(m)
                c = rng.randrange(f.size)
                cols[dependent] = tuple(
                    f.add(x, f.mul(c, y)) for x, y in zip(cols[dependent - 1], cols[0])
                ) if dependent else (0,) * m
            minors = (1,)
            for k, col in enumerate(cols):
                if k == m - 1:
                    row = [f.neg(minors[s]) if negative else minors[s]
                           for _, s, negative in plan[k][0]]
                    assert [t for t, _, _ in plan[k][0]] == list(range(m))
                    for x in rng.sample(vectors, min(len(vectors), 30)) + [col]:
                        dot = 0
                        for c, xi in zip(row, x):
                            dot = oracles.digit_add(f, dot, f.mul(c, xi))
                        assert dot == oracles.field_det(f, cols[:k] + [x])
                minors = tuple(v[0] for v in _wedge(f, plan[k], minors, [[x] for x in col]))
                prefix = cols[:k + 1]
                expected = [oracles.field_det(f, [[c[i] for i in rows] for c in prefix])
                            for rows in itertools.combinations(range(m), k + 1)]
                assert list(minors) == expected
                if k >= dependent:
                    assert not any(minors)

    def test_wedge_takes_every_candidate_at_once(self):
        f, m = field(3, 1), 3
        plan = _laplace_plan(m)
        vectors = list(itertools.product(range(f.size), repeat=m))
        coords = [list(c) for c in zip(*vectors)]
        minors = tuple(v[0] for v in _wedge(f, plan[0], (1,), [[1], [2], [0]]))
        together = list(zip(*_wedge(f, plan[1], minors, coords)))
        one_by_one = [tuple(v[0] for v in _wedge(f, plan[1], minors, [[x] for x in v]))
                      for v in vectors]
        assert together == one_by_one

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(AFFINE_FIELDS), st.integers(1, 4), st.data())
    def test_one_equation_has_a_hyperplane_of_solutions(self, p_n, m, data):
        f = field(*p_n)
        c = data.draw(st.lists(st.integers(0, f.size - 1), min_size=m, max_size=m))
        expected = f.size ** (m - 1) if any(c) else 0
        assert len(_affine_solutions(f, m, [(c, 1)])) == expected

    @settings(max_examples=200, deadline=None)
    @given(affine_systems())
    @example((field(5, 1), 2, [((1, 2), 3), ((1, 2), 4)]))  # repeated row, new b
    @example((field(2, 1), 1, [((0,), 1)]))  # 0 = 1
    @example((field(3, 2), 3, []))  # no equations: all of F^3
    def test_affine_solutions_match_a_filter_of_the_whole_space(self, system):
        f, m, equations = system
        solutions = _affine_solutions(f, m, equations)
        assert len(set(solutions)) == len(solutions)

        def dot(a, v):
            total = 0
            for x, y in zip(a, v):
                total = oracles.digit_add(f, total, f.mul(x, y))
            return total

        assert set(solutions) == {
            v for v in itertools.product(range(f.size), repeat=m)
            if all(dot(a, v) == b for a, b in equations)
        }

    @pytest.mark.parametrize("family,m,q", [
        (GroupFamily.U, 2, 7), (GroupFamily.SU, 2, 7),
        (GroupFamily.U, 2, 8), (GroupFamily.SU, 2, 8),
        (GroupFamily.U, 2, 9), (GroupFamily.SU, 2, 9),
        (GroupFamily.UNITRIANGULAR_U, 3, 3), (GroupFamily.U, 3, 3), (GroupFamily.SU, 3, 3),
    ])
    def test_heavy_unitary_cases_match_the_closed_forms(self, family, m, q):
        # The (3, 3) spaces, 9^9, lie past the default cap.
        brute = brute_force_order(family, m, q, cap=(q * q) ** (m * m))
        assert brute.order == order_formula(family, m, q).order

    def test_sl_3_3(self):
        assert brute_force_order(GroupFamily.SL, 3, 3).order == oracles.group_order("SL", 3, 3)

    @pytest.mark.parametrize("m,q", [(5, 2), (4, 3)])
    def test_largest_sl_spaces_under_the_default_cap(self, m, q):
        # 2^25 and 3^16 candidate matrices; the plain search of
        # `oracles.count_sl` would take minutes on either.
        start = time.perf_counter()
        assert brute_force_order(GroupFamily.SL, m, q).order == sl_order(m, q).order
        assert time.perf_counter() - start < 10.0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-20, 3000), st.integers(-20, 3000))
    def test_primes_in_range_matches_trial_division(self, lo, hi):
        assert primes_in_range(lo, hi) == oracles.primes_trial_division(lo, hi)

    def test_primes_in_range_edges(self):
        assert primes_in_range(10, 3) == []
        assert primes_in_range(-5, 1) == []
        assert primes_in_range(2, 2) == [2]
        assert primes_in_range(-5, 3) == [2, 3]
        assert primes_in_range(24, 29) == [29]


class TestPrimality:
    def test_factorize_and_is_prime(self):
        assert factorize(1) == {}
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(2 * 1_000_003) == {2: 1, 1_000_003: 1}
        assert [n for n in range(-3, 30) if is_prime(n)] == oracles.primes_trial_division(-3, 29)
        assert not is_prime(10**400 + 1)  # divisible by 17

    def test_trial_division_is_bounded(self):
        big = 2**61 - 1  # prime, with no divisor below the trial bound
        with pytest.raises(ResourceLimitError) as err:
            factorize(big)
        assert err.value.cap == MAX_TRIAL_DIVISOR
        assert is_prime(big)
        with pytest.raises(ResourceLimitError) as err:
            is_prime(2**89 - 1)  # prime, above every strong-probable-prime bound
        assert err.value.cap == MAX_TRIAL_DIVISOR

    def test_is_prime_matches_the_sieve(self):
        n = 200_000
        primes = set(primes_in_range(2, n))
        assert [k for k in range(-20, n) if is_prime(k)] == sorted(primes)

    def test_is_prime_matches_sympy_around_each_bound(self):
        sympy = pytest.importorskip("sympy")
        # Past the last bound is trial division, whose refusals of numbers
        # without a small factor take about 0.05 s each.
        for bound in _SPRP_BOUNDS:
            above = 2001 if bound < _SPRP_BOUNDS[-1] else 0
            for n in range(bound - 2000, bound + above):
                assert is_prime(n) == sympy.isprime(n), n

    @settings(max_examples=500, deadline=None)
    @given(st.integers(2, _SPRP_BOUNDS[-1] - 1)
           | st.builds(lambda a, b: a * b, st.sampled_from(NEAR_2_20), st.sampled_from(NEAR_2_20))
           | st.sampled_from(CARMICHAEL))
    @example(_SPRP_BOUNDS[-1] - 1)
    def test_is_prime_matches_sympy_below_the_last_bound(self, n):
        sympy = pytest.importorskip("sympy")
        assert is_prime(n) == sympy.isprime(n)

    def test_pseudoprimes_at_the_bounds(self):
        assert [is_prime(n) for n in CARMICHAEL] == [False] * len(CARMICHAEL)
        assert not is_prime(318_665_857_834_031_151_167_461)
        with pytest.raises(ResourceLimitError):
            is_prime(3_317_044_064_679_887_385_961_981)

    def test_prime_power_base_matches_factorize(self):
        for q in range(-3, 1 << 16):
            fact = factorize(q) if q >= 1 else {}
            if len(fact) == 1:
                assert prime_power_base(q) == next(iter(fact.items())), q
            else:
                with pytest.raises(ValidationError):
                    prime_power_base(q)

    def test_prime_power_base_takes_roots(self):
        p = 2**61 - 1
        for k in range(1, 40):
            assert prime_power_base(p**k) == (p, k)
        assert prime_power_base(3**500) == (3, 500)
        # 3^100 + 3 * 2^64 agrees with 3^100 in its low 64 bits.
        for q in (3**500 * 5, 2**89 - 2, (2**61 - 1) ** 2 * 3, 3**100 + 3 * 2**64):
            with pytest.raises(ValidationError):
                prime_power_base(q)
        with pytest.raises(ResourceLimitError):  # not a power, no factor below 2^20
            prime_power_base((2**61 - 1) * (2**31 - 1))

    def test_prime_range_cap(self):
        with pytest.raises(ResourceLimitError) as err:
            primes_in_range(5, 101, cap=100)
        assert (err.value.space, err.value.cap) == (101, 100)
        assert primes_in_range(90, 100, cap=100) == [97]
