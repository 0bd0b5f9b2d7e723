import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspgrowth import (
    HIRZEBRUCH,
    AbelianHom,
    FiniteAbelianGroup,
    IntMatrix,
    ValidationError,
    WeightTuple,
    analyze_tower,
    build_a_tower,
)
from cuspgrowth.errors import ResourceLimitError
from cuspgrowth.serialize import (
    UNBOUNDED,
    base_from_json,
    base_to_json,
    dumps_canonical,
    dumps_d_tower,
    dumps_tower_report,
    level_report_to_json,
    matrix_from_json,
    matrix_to_json,
    tower_report_to_json,
    tower_spec_from_json,
    tower_spec_to_json,
    weights_to_json,
)
from cuspgrowth.cli import _any_int_digits
from cuspgrowth.towers import LevelReport, TowerReport, analyze_level


class TestWeightsJson:
    def test_round_trip(self):
        mu = WeightTuple.parse("2/6,2/6,3/6,4/6,1/6")
        data = weights_to_json(mu)
        assert data == ["1/3", "1/3", "1/2", "2/3", "1/6"]


class TestMatrixJson:
    def test_round_trip_with_big_entries(self):
        big = 10**40
        m = IntMatrix.from_rows([[big, -1], [0, 2]])
        data = matrix_to_json(m)
        assert data == [[str(big), "-1"], ["0", "2"]]
        assert matrix_from_json(data) == m

    def test_strings_preserve_precision_through_json(self):
        big = 2**200 + 1
        m = IntMatrix.from_rows([[big]])
        text = json.dumps(matrix_to_json(m))
        assert matrix_from_json(json.loads(text))[0, 0] == big

    def test_integers_accepted_on_input(self):
        assert matrix_from_json([[1, 2], [3, 4]])[1, 0] == 3

    def test_zero_rows_needs_width(self):
        with pytest.raises(ValidationError, match="column count"):
            matrix_from_json([])
        assert matrix_from_json([], cols=4).shape == (0, 4)


class TestTowerSpecJson:
    def test_builtin_base_round_trip(self):
        spec = build_a_tower(3, 2)
        doc = tower_spec_to_json(spec)
        assert doc["base"] == "hirzebruch"
        again = tower_spec_from_json(doc)
        assert again.base is HIRZEBRUCH
        assert again.levels == spec.levels

    def test_custom_base_round_trip(self):
        # The built-in base spelled out as an explicit custom object must
        # analyze identically to the "hirzebruch" shorthand.
        doc = tower_spec_to_json(build_a_tower(2, 1))
        explicit = {
            "base": {
                "rank": 4,
                "cusps": [
                    {"name": c.name, "sublattice": matrix_to_json(c.sublattice)}
                    for c in HIRZEBRUCH.cusps
                ],
                "fibrations": [
                    {
                        "name": f.name,
                        "kernel_sublattice": matrix_to_json(f.kernel_sublattice),
                        "target_rank": f.target_rank,
                        "fiber_genus": f.fiber_genus,
                        "fiber_punctures": f.fiber_punctures,
                    }
                    for f in HIRZEBRUCH.fibrations
                ],
            },
            "levels": doc["levels"],
        }
        spec = tower_spec_from_json(json.loads(json.dumps(explicit)))
        assert spec.base.ambient_rank == 4
        assert analyze_tower(spec).levels == analyze_tower(build_a_tower(2, 1)).levels

    def test_invariant_factors_accept_ints_and_strings(self):
        doc = {
            "base": "hirzebruch",
            "levels": [
                {"invariant_factors": [9], "images": [[1, 0, 0, 0]]},
                {"invariant_factors": ["9"], "images": [["1", "0", "0", "0"]]},
            ],
        }
        spec = tower_spec_from_json(doc)
        assert spec.levels[0] == spec.levels[1]

    def test_malformed_spec(self):
        with pytest.raises(ValidationError):
            tower_spec_from_json(["not", "an", "object"])
        with pytest.raises(ValidationError):
            tower_spec_from_json({"base": 17, "levels": []})


def cyclic_level(moduli):
    return {"invariant_factors": [str(m) for m in moduli],
            "images": [["1", "0", "0", "0"] for _ in moduli]}


class TestSpecLevelBounds:
    def test_rank_is_bounded_by_the_bits_cap(self):
        # Each factor above 1 adds a bit: (Z/2)^400 has an order of 401 bits.
        doc = {"base": "hirzebruch", "levels": [cyclic_level([3]), cyclic_level([2] * 400)]}
        with pytest.raises(ResourceLimitError, match=r"levels\[1\]: .* at least 401 bits") as info:
            tower_spec_from_json(doc, cap=400)
        assert (info.value.space, info.value.cap) == (401, 400)
        spec = tower_spec_from_json(doc, cap=401)
        assert spec.levels[1].target.invariant_factors == (2,) * 400

    def test_bits_past_the_cap_are_refused_from_the_bound(self):
        # 7^5 has 15 bits; the bound 5 * (3 - 1) + 1 = 11 is already past 10.
        doc = {"base": "hirzebruch", "levels": [cyclic_level([7] * 5)]}
        with pytest.raises(ResourceLimitError, match="at least 11 bits") as info:
            tower_spec_from_json(doc, cap=10)
        assert (info.value.space, info.value.cap) == (11, 10)
        with pytest.raises(ResourceLimitError, match="of 15 bits") as info:
            tower_spec_from_json(doc, cap=14)
        assert (info.value.space, info.value.cap) == (15, 14)
        assert tower_spec_from_json(doc, cap=15).levels[0].target.order == 7**5


class TestReportJson:
    def test_level_report_fields(self):
        rho = AbelianHom(FiniteAbelianGroup((9,)), IntMatrix.from_rows([[1, 0, 0, 0]]))
        report = analyze_level(HIRZEBRUCH, rho)
        doc = level_report_to_json(report)
        assert doc["degree"] == 9
        assert doc["total_cusps"] == 12
        assert doc["b1_bound"] == 6
        assert doc["factoring_fibration"] == "proj1"
        assert list(doc["cusp_multiplicities"]) == sorted(doc["cusp_multiplicities"])

    def test_unbounded_sentinel(self):
        rho = AbelianHom(
            FiniteAbelianGroup((3,)), IntMatrix.from_rows([[1, 1, 1, 0]])
        )
        doc = level_report_to_json(analyze_level(HIRZEBRUCH, rho))
        assert doc["b1_bound"] == UNBOUNDED
        assert doc["factoring_fibration"] is None

    def test_disconnected_note(self):
        doc = level_report_to_json(
            analyze_level(HIRZEBRUCH, AbelianHom(FiniteAbelianGroup((4,)),
                                                 IntMatrix.from_rows([[2, 2, 0, 0]])))
        )
        assert doc["total_cusps"] is None
        assert "disconnected" in doc["note"]

    def test_canonical_dump_is_stable(self):
        report = analyze_tower(build_a_tower(3, 2))
        text1 = dumps_canonical(tower_report_to_json(report))
        text2 = dumps_canonical(tower_report_to_json(analyze_tower(build_a_tower(3, 2))))
        assert text1 == text2
        assert text1.endswith("\n")


#: Names with quotes, backslashes, control characters, non-ASCII text
#: and the template's own '%'.
NAMES = st.text(alphabet=st.sampled_from('aZ0 "\\/%{}\x00\x1f\x7f\n\té€\u2028😀'),
                max_size=6) | st.text(max_size=4)
#: Past the 4,300 digits that int-to-decimal conversion allows by default.
HUGE = 10**4400 + 7


@st.composite
def tower_reports(draw):
    """A report of 0-5 levels over one set of 0-4 cusp names (in a random
    insertion order per level), with connected and disconnected levels,
    unbounded and bounded b1, and degrees up to past 4,300 digits."""
    names = draw(st.lists(NAMES, max_size=4, unique=True))
    fibrations = draw(st.lists(NAMES, min_size=1, max_size=3))
    ints = st.integers(min_value=-5, max_value=10**40)
    levels = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        order = draw(st.permutations(names))
        connected = draw(st.booleans())
        levels.append(LevelReport(
            degree=draw(ints | st.just(HUGE)),
            connected=connected,
            cusp_multiplicities={name: draw(ints) for name in order},
            total_cusps=draw(ints) if connected else None,
            b1_bound=draw(st.none() | ints),
            factoring_fibration=draw(st.none() | st.sampled_from(fibrations)),
        ))
    return TowerReport(tuple(levels))


class TestTowerReportWriter:
    @settings(max_examples=200, deadline=None)
    @given(tower_reports())
    def test_writes_the_canonical_bytes(self, report):
        with _any_int_digits():
            assert dumps_tower_report(report) == dumps_canonical(tower_report_to_json(report))

    def test_empty_report_and_no_cusps(self):
        empty = TowerReport(())
        assert dumps_tower_report(empty) == dumps_canonical(tower_report_to_json(empty))
        level = LevelReport(1, False, {}, None, None, None)
        report = TowerReport((level, level))
        text = dumps_tower_report(report)
        assert text == dumps_canonical(tower_report_to_json(report))
        assert '"cusp_multiplicities": {},' in text
        assert text.index('"factoring_fibration"') < text.index('"note"') < text.index(
            '"total_cusps"')


class TestDTowerWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-5, 5), st.integers(-5, 10**6),
           st.lists(st.tuples(*[st.integers(1, 10**40) | st.just(HUGE)] * 4), max_size=5))
    def test_writes_the_canonical_bytes(self, n, genus, rows):
        doc = {
            "n": n,
            "genus": genus,
            "series": [{"q": q, "vol": vol, "b1": b1, "cusps": cusps}
                       for q, vol, b1, cusps in rows],
        }
        columns = [list(column) for column in zip(*rows)] or [[], [], [], []]
        with _any_int_digits():
            assert dumps_d_tower(n, genus, columns) == dumps_canonical(doc)


class TestBaseJson:
    def test_builtin_marker(self):
        assert base_to_json(HIRZEBRUCH) == "hirzebruch"
        assert base_from_json("hirzebruch") is HIRZEBRUCH
