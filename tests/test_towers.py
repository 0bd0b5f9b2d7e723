import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from cuspgrowth import (
    HIRZEBRUCH,
    AbelianHom,
    BaseSpace,
    CuspData,
    FibrationData,
    FiniteAbelianGroup,
    IntMatrix,
    TowerSpec,
    ValidationError,
    a_tower_report,
    analyze_level,
    analyze_tower,
    b1_bound_for,
    b_tower_report,
    build_a_tower,
    build_b_tower,
    c_tower_report,
    smith_normal_form,
)
from cuspgrowth.errors import ResourceLimitError
from cuspgrowth.serialize import base_to_json, tower_spec_from_json, tower_spec_to_json
from math import gcd, prod
from types import SimpleNamespace


def trivial_hom():
    return AbelianHom(FiniteAbelianGroup(()), IntMatrix((), 4))


def cyclic(modulus, row):
    """The map Z^k -> Z/modulus sending e_j to row[j]."""
    return AbelianHom(FiniteAbelianGroup((modulus,)), IntMatrix.from_rows([list(row)]))


@st.composite
def divisor_chains(draw, first, step, min_size=1, max_size=3):
    """Invariant factors d_1 | d_2 | ...: d_1 in 2..first, and each next
    factor the one before times 1..step."""
    chain = [draw(st.integers(min_value=2, max_value=first))]
    for _ in range(draw(st.integers(min_value=min_size - 1, max_value=max_size - 1))):
        chain.append(chain[-1] * draw(st.integers(min_value=1, max_value=step)))
    return chain


class TestBuiltInBase:
    def test_shape(self):
        assert HIRZEBRUCH.ambient_rank == 4
        assert [c.name for c in HIRZEBRUCH.cusps] == ["C0", "Cinf", "C1", "Czeta"]
        assert [f.name for f in HIRZEBRUCH.fibrations] == ["proj1", "sum"]

    def test_cusp_lattices(self):
        lattices = {c.name: c.sublattice.columns() for c in HIRZEBRUCH.cusps}
        assert lattices["C0"] == [(1, 0, 0, 0), (0, 1, 0, 0)]
        assert lattices["Cinf"] == [(0, 0, 1, 0), (0, 0, 0, 1)]
        assert lattices["C1"] == [(1, 0, 1, 0), (0, 1, 0, 1)]
        assert lattices["Czeta"] == [(1, 0, 0, 1), (0, 1, -1, 1)]

    def test_dependent_cusp_lattice_rejected(self):
        with pytest.raises(ValidationError, match="dependent"):
            CuspData("bad", IntMatrix.from_columns([(1, 0), (2, 0)]))


class TestB1Bound:
    def test_first_factor_fibration(self):
        assert b1_bound_for(HIRZEBRUCH.fibrations[0]) == 6

    def test_sum_fibration(self):
        assert b1_bound_for(HIRZEBRUCH.fibrations[1]) == 7

    def test_annulus_fiber(self):
        fib = FibrationData("annulus", IntMatrix.from_columns([(1, 0)]),
                            target_rank=1, fiber_genus=0, fiber_punctures=2)
        assert b1_bound_for(fib) == 2

    def test_degenerate_fiber_rejected(self):
        with pytest.raises(ValidationError, match="hyperbolic or parabolic"):
            FibrationData("bad", IntMatrix.from_columns([(1, 0)]),
                          target_rank=1, fiber_genus=0, fiber_punctures=1)


class TestAnalyzeLevel:
    def test_base_itself(self):
        report = analyze_level(HIRZEBRUCH, trivial_hom())
        assert report.degree == 1
        assert report.connected
        assert report.total_cusps == 4

    def test_a_tower_p3_level2(self):
        report = analyze_level(HIRZEBRUCH, cyclic(9, (1, 0, 0, 0)))
        assert report.degree == 9
        assert report.connected
        assert report.cusp_multiplicities == {"Cinf": 9, "C0": 1, "C1": 1, "Czeta": 1}
        assert report.total_cusps == 12

    def test_b_tower_p5_level1(self):
        report = analyze_level(HIRZEBRUCH, cyclic(5, (1, 1, 1, 1)))
        assert report.degree == 5
        assert report.connected
        assert report.total_cusps == 4

    def test_b_shape_p2_shows_why_odd_is_needed(self):
        report = analyze_level(HIRZEBRUCH, cyclic(2, (1, 1, 1, 1)))
        assert report.total_cusps == 5
        assert report.cusp_multiplicities["C1"] == 2

    def test_disconnected_cover_is_flagged_not_rejected(self):
        report = analyze_level(HIRZEBRUCH, cyclic(4, (2, 2, 0, 0)))
        assert not report.connected
        assert report.total_cusps is None
        assert report.cusp_multiplicities  # still reported

    def test_rank_mismatch(self):
        with pytest.raises(ValidationError, match="rank"):
            analyze_level(HIRZEBRUCH, cyclic(3, (1, 0)))


@st.composite
def explicit_levels(draw):
    """A random explicit base of rank 1-5 (1-4 cusps, 0-2 fibrations) and
    a level onto a cyclic or non-cyclic deck group of order <= 1000."""
    k = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-3, max_value=3)

    def lattice(max_cols):
        n = draw(st.integers(min_value=1, max_value=min(max_cols, k)))
        return IntMatrix.from_rows([[draw(entry) for _ in range(n)] for _ in range(k)], n)

    cusps = []
    for c in range(draw(st.integers(min_value=1, max_value=4))):
        sub = lattice(3)
        assume(smith_normal_form(sub).rank == sub.cols)
        cusps.append(CuspData(f"K{c}", sub))
    fibrations = tuple(
        FibrationData(f"F{f}", lattice(2), target_rank=1, fiber_genus=1, fiber_punctures=f)
        for f in range(draw(st.integers(min_value=0, max_value=2)))
    )
    if draw(st.booleans()):
        moduli = [draw(st.integers(min_value=1, max_value=1000))]
    else:
        moduli = draw(divisor_chains(12, 4, min_size=2))
    target = FiniteAbelianGroup(tuple(moduli))
    assume(target.order <= 1000)
    images = IntMatrix.from_rows(
        [[draw(st.integers(min_value=-30, max_value=30)) for _ in range(k)]
         for _ in range(target.rank)], k)
    return BaseSpace(k, tuple(cusps), fibrations), AbelianHom(target, images)


def subgroup_order(rho, lattice):
    """Order of the subgroup of the deck group spanned by the images of
    the lattice's generator columns, by closure."""
    images = [
        tuple(sum(x * y for x, y in zip(row, col)) for row in rho.images.entries)
        for col in lattice.columns()
    ]
    return len(oracles.subgroup_elements(rho.target, images))


class TestAnalyzeLevelOracles:
    @settings(max_examples=300, deadline=None)
    @given(explicit_levels())
    def test_matches_public_calls_and_closure(self, case):
        base, rho = case
        report = analyze_level(base, rho)
        assert report == oracles.analyze_level(base, rho)
        order = rho.target.order
        assert report.degree == order
        assert report.connected == (
            subgroup_order(rho, IntMatrix.identity(base.ambient_rank)) == order)
        assert report.cusp_multiplicities == {
            c.name: order // subgroup_order(rho, c.sublattice) for c in base.cusps}
        inherited = [f for f in base.fibrations
                     if subgroup_order(rho, f.kernel_sublattice) == 1]
        assert report.factoring_fibration == (inherited[0].name if inherited else None)
        assert report.b1_bound == (b1_bound_for(inherited[0]) if inherited else None)

    def test_base_with_no_cusps_or_fibrations(self):
        base = BaseSpace(2, ())
        rho = AbelianHom(FiniteAbelianGroup((2, 4)), IntMatrix.from_rows([[1, 0], [0, 1]]))
        report = analyze_level(base, rho)
        assert report == oracles.analyze_level(base, rho)
        assert report.total_cusps == 0 and report.factoring_fibration is None


class TestSpecLevelsAsWritten:
    @settings(max_examples=200, deadline=None)
    @given(explicit_levels(), divisor_chains(6, 3), st.data())
    def test_cusp_indices_match_closure_over_the_written_moduli(self, case, chain, data):
        # A chain with factors 1 mixed in and one row per listed factor,
        # read back from JSON; the oracle closes the image of each cusp
        # lattice in (+) Z/m_i over the moduli as written.
        base, _ = case
        k = base.ambient_rank
        moduli = list(chain)
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            moduli.insert(data.draw(st.integers(min_value=0, max_value=len(moduli))), 1)
        rows = [[data.draw(st.integers(min_value=-30, max_value=30)) for _ in range(k)]
                for _ in moduli]
        doc = {"base": base_to_json(base),
               "levels": [{"invariant_factors": [str(m) for m in moduli],
                           "images": [[str(x) for x in row] for row in rows]}]}
        (level,) = analyze_tower(tower_spec_from_json(doc)).levels
        written = SimpleNamespace(invariant_factors=tuple(moduli), order=prod(moduli))

        def index(lattice):
            images = [tuple(sum(x * y for x, y in zip(row, col)) for row in rows)
                      for col in lattice.columns()]
            return written.order // len(oracles.subgroup_elements(written, images))

        assert level.degree == written.order
        assert level.cusp_multiplicities == {c.name: index(c.sublattice) for c in base.cusps}


@st.composite
def shared_row_specs(draw):
    """A random explicit base of rank 1-4 with 0-3 cusps and 0-2 random
    fibrations, and 1-12 levels: one images row over several cyclic
    moduli (kept unreduced by some, so they share one cached product),
    mixed with repeated rank 2-4 levels, trivial deck groups and all-zero
    rows.  At times the shared row is 0 at some coordinate z and a
    further fibration has kernel e_z, so its product row is all zeros."""
    k = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-3, max_value=3)

    def lattice(max_cols):
        n = draw(st.integers(min_value=1, max_value=min(max_cols, k)))
        return IntMatrix.from_rows([[draw(entry) for _ in range(n)] for _ in range(k)], n)

    cusps = []
    for c in range(draw(st.integers(min_value=0, max_value=3))):
        sub = lattice(3)
        assume(smith_normal_form(sub).rank == sub.cols)
        cusps.append(CuspData(f"K{c}", sub))
    fibrations = [
        FibrationData(f"F{f}", lattice(2), target_rank=1, fiber_genus=1, fiber_punctures=f)
        for f in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    row = [draw(st.integers(min_value=0, max_value=12)) for _ in range(k)]
    if draw(st.booleans()):
        z = draw(st.integers(min_value=0, max_value=k - 1))
        row[z] = 0
        unit = IntMatrix.from_columns([tuple(int(i == z) for i in range(k))])
        fibrations.insert(draw(st.integers(min_value=0, max_value=len(fibrations))),
                          FibrationData("Z", unit, target_rank=1, fiber_genus=1,
                                        fiber_punctures=1))
    modulus = st.integers(min_value=2, max_value=400)
    levels = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(["shared"] * 4 + ["rank", "trivial", "zero"]))
        if kind == "shared":
            levels.append(AbelianHom(FiniteAbelianGroup((draw(modulus),)),
                                     IntMatrix.from_rows([row])))
        elif kind == "zero":
            levels.append(cyclic(draw(modulus), [0] * k))
        elif kind == "trivial":
            levels.append(AbelianHom(FiniteAbelianGroup(()), IntMatrix((), k)))
        else:
            target = FiniteAbelianGroup(tuple(draw(divisor_chains(6, 3, 2, 4))))
            images = IntMatrix.from_rows(
                [row if draw(st.booleans()) else [draw(entry) for _ in range(k)]
                 for _ in range(target.rank)], k)
            levels += [AbelianHom(target, images)] * draw(st.integers(min_value=1, max_value=2))
    return TowerSpec(BaseSpace(k, tuple(cusps), tuple(fibrations)), tuple(levels))


class TestAnalyzeTowerOracle:
    @settings(max_examples=200, deadline=None)
    @given(shared_row_specs())
    def test_levels_match_the_per_level_oracle(self, spec):
        assert list(analyze_tower(spec).levels) == [
            oracles.analyze_level(spec.base, rho) for rho in spec.levels]

    def test_zero_kernel_row_kills_every_level(self):
        base = BaseSpace(2, (CuspData("K", IntMatrix.from_columns([(1, 0)])),), (
            FibrationData("Z", IntMatrix.from_columns([(0, 1)]), target_rank=1,
                          fiber_genus=1, fiber_punctures=1),))
        spec = TowerSpec(base, tuple(cyclic(m, (1, 0)) for m in (2, 9, 400)))
        report = analyze_tower(spec)
        assert [lv.factoring_fibration for lv in report.levels] == ["Z"] * 3
        assert list(report.levels) == [oracles.analyze_level(base, rho) for rho in spec.levels]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_and_b_towers_match_the_oracle(self, p):
        for build in (build_a_tower, build_b_tower)[: 1 + (p > 2)]:
            spec = build(p, 30)
            assert list(analyze_tower(spec).levels) == [
                oracles.analyze_level(HIRZEBRUCH, rho) for rho in spec.levels]


class TestSizeGuards:
    def test_family_bits_exact_at_the_cap(self):
        build_a_tower(2, 99, cap=100)  # 2^99 has 100 bits
        with pytest.raises(ResourceLimitError) as info:
            build_a_tower(2, 100, cap=100)
        assert (info.value.space, info.value.cap) == (101, 100)

    def test_family_bits_exact_when_the_bound_is_under_the_cap(self):
        with pytest.raises(ResourceLimitError) as info:
            build_b_tower(3, 100, cap=150)  # the bound says 101 bits
        assert info.value.space == (3**100).bit_length() == 159

    def test_huge_depth_is_refused_from_the_bound(self):
        with pytest.raises(ResourceLimitError) as info:
            build_a_tower(5, 10**15, cap=10_000)
        assert info.value.space == 2 * 10**15 + 1

    def test_invalid_arguments_are_left_to_the_builders(self):
        for p, depth in ((1, 10**15), (0, 5), (3, 0), (3, -7)):
            with pytest.raises(ValidationError):
                build_a_tower(p, depth, cap=10)

    def test_spec_orders(self):
        spec = tower_spec_to_json(TowerSpec(HIRZEBRUCH, (
            cyclic(8, (1, 0, 0, 0)), cyclic(16, (1, 0, 0, 0)))))
        tower_spec_from_json(spec, cap=5)
        with pytest.raises(ResourceLimitError, match=r"levels\[1\]") as info:
            tower_spec_from_json(spec, cap=4)
        assert (info.value.space, info.value.cap) == (5, 4)

    def test_c_depth(self):
        c_tower_report(2, [0], 10, cap=10)
        with pytest.raises(ResourceLimitError) as info:
            c_tower_report(2, [0], 11, cap=10)
        assert (info.value.space, info.value.cap) == (11, 10)


class TestBuildTowers:
    def test_a_tower_levels(self):
        spec = build_a_tower(2, 3)
        assert [rho.target.invariant_factors for rho in spec.levels] == [(2,), (4,), (8,)]
        for rho in spec.levels:
            assert rho.images.entries == ((1, 0, 0, 0),)

    def test_b_tower_levels(self):
        spec = build_b_tower(3, 2)
        assert [rho.target.invariant_factors for rho in spec.levels] == [(3,), (9,)]
        for rho in spec.levels:
            assert rho.images.entries == ((1, 1, 1, 1),)

    def test_b_tower_rejects_two(self):
        with pytest.raises(ValidationError, match="odd prime"):
            build_b_tower(2, 1)

    def test_composite_prime_rejected(self):
        with pytest.raises(ValidationError, match="not prime"):
            build_a_tower(6, 1)

    def test_a_tower_cusp_law(self):
        for p in (2, 3, 5):
            report = analyze_tower(build_a_tower(p, 6))
            for j, level in enumerate(report.levels, start=1):
                assert level.degree == p**j
                assert level.connected
                assert level.total_cusps == p**j + 3

    def test_b_tower_cusp_law(self):
        for p in (3, 5, 7):
            report = analyze_tower(build_b_tower(p, 6))
            for level in report.levels:
                assert level.connected
                assert level.total_cusps == 4

    def test_bounds_are_constant_along_towers(self):
        for level in analyze_tower(build_a_tower(3, 6)).levels:
            assert level.b1_bound == 6
            assert level.factoring_fibration == "proj1"
        for level in analyze_tower(build_b_tower(3, 6)).levels:
            assert level.b1_bound == 7
            assert level.factoring_fibration == "sum"

    def test_multiplicities_divide_up_the_tower(self):
        # Level j+1 factors through level j, so each cusp multiplicity
        # at level j divides the one at level j+1.
        for spec in (build_a_tower(3, 5), build_b_tower(5, 4)):
            report = analyze_tower(spec)
            for lower, upper in zip(report.levels, report.levels[1:]):
                for name, mult in lower.cusp_multiplicities.items():
                    assert upper.cusp_multiplicities[name] % mult == 0


class TestTowerReportsFromModuli:
    """`a_tower_report` and `b_tower_report` analyze the moduli of a tower
    without building it; each must give what `analyze_tower` gives for
    the built spec, and refuse what the builder refuses, with the same
    error."""

    @pytest.mark.parametrize("depth", [1, 2, 30])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_reports_equal_the_analyzed_spec(self, p, depth):
        pairs = [(a_tower_report, build_a_tower)]
        if p > 2:
            pairs.append((b_tower_report, build_b_tower))
        for report, build in pairs:
            expected = analyze_tower(build(p, depth)).levels
            assert len(expected) == depth
            assert list(report(p, depth).levels) == list(expected), (report, p, depth)

    @pytest.mark.parametrize("p,depth,cap", [
        (4, 3, 100), (1, 3, 100), (0, 3, 100), (3, 0, 100), (3, -7, 100), (6, 1, 100),
        (3, 100, 158), (2, 100, 100), (5, 10**15, 10_000), (1, 10**15, 10),
        (3.0, 2, 100), (True, 2, 100), (3, 2.0, 100), (3, "2", 100), (7, None, 100),
    ])
    def test_refusals_equal_the_builders(self, p, depth, cap):
        for report, build in ((a_tower_report, build_a_tower), (b_tower_report, build_b_tower)):
            with pytest.raises((ValidationError, ResourceLimitError)) as built:
                build(p, depth, cap)
            with pytest.raises(type(built.value)) as reported:
                report(p, depth, cap)
            assert str(reported.value) == str(built.value)
            assert vars(reported.value) == vars(built.value)

    @pytest.mark.parametrize("p,depth,what", [
        (3.0, 2, "p must be an int, got float"),
        (True, 2, "p must be an int, got bool"),
        (3, 2.0, "depth must be an int, got float"),
        (3, False, "depth must be an int, got bool"),
        (3, "2", "depth must be an int, got str"),
    ])
    def test_non_int_arguments_are_refused(self, p, depth, what):
        for call in (build_a_tower, build_b_tower, a_tower_report, b_tower_report):
            with pytest.raises(ValidationError, match=f"^{what}$"):
                call(p, depth)

    def test_b_refuses_two_before_the_other_checks(self):
        for depth in (0, 10**15, 2.5):
            for call in (build_b_tower, b_tower_report):
                with pytest.raises(ValidationError, match="odd prime"):
                    call(2, depth, cap=1)


class TestCTower:
    def test_single_trivial_divisor(self):
        levels = c_tower_report(2, [0], 3)
        assert [lv.total_cusps for lv in levels] == [1, 2, 3]
        assert [lv.b1_surface for lv in levels] == [4, 6, 8]

    def test_surjective_parabolic_images_never_split(self):
        levels = c_tower_report(2, [1, 1, 1], 2)
        assert [lv.total_cusps for lv in levels] == [3, 3]

    def test_mixed_divisors(self):
        levels = c_tower_report(3, [0, 2], 4)
        assert levels[3].total_cusps == gcd(0, 4) + gcd(2, 4) == 6

    def test_linear_growth(self):
        levels = c_tower_report(2, [0], 50)
        assert [lv.b1_surface for lv in levels] == [2 * j + 2 for j in range(1, 51)]
        assert [lv.total_cusps for lv in levels] == list(range(1, 51))

    def test_gcd_compatibility(self):
        for d in (0, 1, 2, 3, 4, 6):
            for j in range(1, 13):
                for m in range(1, 5):
                    assert gcd(d, j * m) % gcd(d, j) == 0

    def test_genus_guard(self):
        with pytest.raises(ValidationError, match="genus"):
            c_tower_report(1, [0], 3)

    def test_negative_divisor_guard(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            c_tower_report(2, [-1], 3)

    @pytest.mark.parametrize("genus,divisors,depth,what", [
        (2, [2.7], 3, "a cusp divisor must be an int, got float"),
        (2, ["3"], 3, "a cusp divisor must be an int, got str"),
        (2, [b"3"], 3, "a cusp divisor must be an int, got bytes"),
        (2, [0, True], 3, "a cusp divisor must be an int, got bool"),
        (2.5, [0], 3, "genus must be an int, got float"),
        (True, [0], 3, "genus must be an int, got bool"),
        (2, [0], 3.0, "depth must be an int, got float"),
        (2, [0], 10**9 + 0.5, "depth must be an int, got float"),
    ])
    def test_non_int_arguments_are_refused(self, genus, divisors, depth, what):
        with pytest.raises(ValidationError, match=f"^{what}$"):
            c_tower_report(genus, divisors, depth)


class TestTowerSpec:
    def test_level_rank_checked(self):
        with pytest.raises(ValidationError, match="rank"):
            TowerSpec(HIRZEBRUCH, (cyclic(3, (1, 0)),))
