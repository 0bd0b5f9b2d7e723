import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuspgrowth import (
    ContractionPartition,
    IntVerdict,
    ResourceLimitError,
    ValidationError,
    WeightTuple,
    check_int,
    contract,
    enumerate_tuples,
    find_contraction,
)
from cuspgrowth.weights import _RATIONAL, _fail_masks, _pair_verdict, parse_fraction
from oracles import (
    admissible_contractions,
    int_condition_verdict,
    partitions_into,
    weight_tuple_error,
)

F = Fraction

MU5 = WeightTuple.parse("2/6,2/6,3/6,4/6,1/6")
MU6 = WeightTuple.parse("2/6,2/6,3/6,3/6,1/6,1/6")
NU4 = WeightTuple.parse("1/6,3/6,4/6,4/6")


class TestWeightTuple:
    def test_parse_and_values(self):
        assert MU5.weights == (F(1, 3), F(1, 3), F(1, 2), F(2, 3), F(1, 6))
        assert len(MU5) == 5

    def test_too_short(self):
        with pytest.raises(ValidationError, match="length"):
            WeightTuple.parse("1/2,1/2,1")

    def test_weight_out_of_range(self):
        with pytest.raises(ValidationError, match="between 0 and 1"):
            WeightTuple((F(1), F(1, 3), F(1, 3), F(1, 3)))
        with pytest.raises(ValidationError, match="between 0 and 1"):
            WeightTuple((F(-1, 6), F(5, 6), F(2, 3), F(2, 3)))

    def test_sum_must_be_two(self):
        with pytest.raises(ValidationError, match="sum to exactly 2"):
            WeightTuple.parse("1/2,1/2,1/2,1/4")

    def test_scaling_breaks_the_sum_invariant(self):
        # Scaling by 3/4 keeps every weight inside (0, 1), so it is the
        # sum invariant that rejects the tuple.
        scale = F(3, 4)
        with pytest.raises(ValidationError, match="sum to exactly 2"):
            WeightTuple(tuple(w * scale for w in NU4))
        # Scaling up instead pushes a weight out of range; still rejected.
        with pytest.raises(ValidationError):
            WeightTuple(tuple(w * F(3, 2) for w in NU4))

    def test_sorted_is_canonical(self):
        assert MU5.sorted().weights == tuple(sorted(MU5.weights))


class TestCheckInt:
    def test_five_tuple_is_int(self):
        status = check_int(MU5)
        assert status.verdict is IntVerdict.INT
        assert status.half_witnesses == ()
        assert status.fail_witnesses == ()

    def test_six_tuple_is_half_int_with_sole_witness(self):
        status = check_int(MU6)
        assert status.verdict is IntVerdict.HALF_INT
        assert len(status.half_witnesses) == 1
        w = status.half_witnesses[0]
        assert (w.i, w.j) == (4, 5)
        assert MU6[w.i] == MU6[w.j] == F(1, 6)
        assert w.value == F(3, 2)

    def test_four_tuple_is_int(self):
        assert check_int(NU4).verdict is IntVerdict.INT

    def test_compact_tuples_are_int(self):
        for text in ("3/8,3/8,3/8,7/8", "3/8,3/8,3/8,3/8,4/8", "1/8,3/8,3/8,3/8,3/8,3/8"):
            assert check_int(WeightTuple.parse(text)).verdict is IntVerdict.INT

    def test_fail_example(self):
        # (1/5, 2/5) gives (1 - 3/5)^-1 = 5/2 at unequal weights: a failure.
        status = check_int(WeightTuple.parse("1/5,2/5,4/5,3/5"))
        assert status.verdict is IntVerdict.FAIL
        assert status.fail_witnesses

    def test_matches_direct_evaluation_oracle(self):
        for mu in (MU5, MU6, NU4, WeightTuple.parse("1/5,2/5,4/5,3/5")):
            verdict, half, fail = int_condition_verdict(mu.weights)
            status = check_int(mu)
            assert status.verdict.value == verdict
            assert [((w.i, w.j), w.value) for w in status.half_witnesses] == half
            assert [((w.i, w.j), w.value) for w in status.fail_witnesses] == fail

    @given(st.permutations(list(range(6))))
    def test_permutation_invariance(self, perm):
        shuffled = WeightTuple(tuple(MU6[i] for i in perm))
        assert check_int(shuffled).verdict is check_int(MU6).verdict


class TestContract:
    def test_paper_pair(self):
        partition = ContractionPartition(((4,), (2,), (3,), (0, 1)))
        assert contract(MU5, partition).weights == NU4.sorted().weights

    def test_identity_partition(self):
        partition = ContractionPartition(tuple((i,) for i in range(len(MU5))))
        assert contract(MU5, partition).weights == MU5.sorted().weights

    def test_six_tuple_two_blocks(self):
        partition = ContractionPartition(((4,), (2,), (0, 1), (3, 5)))
        assert contract(MU6, partition).weights == NU4.sorted().weights

    def test_inadmissible_block_is_named(self):
        partition = ContractionPartition(((0, 3), (1,), (2,), (4,)))
        with pytest.raises(ValidationError, match=r"\(0, 3\)"):
            contract(MU5, partition)

    def test_partition_must_cover(self):
        partition = ContractionPartition(((0,), (1,), (2,), (3,)))
        with pytest.raises(ValidationError, match="covers indices"):
            contract(MU5, partition)

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValidationError, match="two blocks"):
            ContractionPartition(((0, 1), (1, 2)))


class TestFindContraction:
    def test_paper_pair_merges_the_equal_weights(self):
        partition = find_contraction(MU5, NU4)
        assert partition is not None
        assert partition.blocks == ((0, 1), (2,), (3,), (4,))

    def test_identity(self):
        partition = find_contraction(MU5, MU5)
        assert partition is not None
        assert partition.blocks == ((0,), (1,), (2,), (3,), (4,))

    def test_no_partition_exists(self):
        nu = WeightTuple.parse("1/2,1/2,1/2,1/2")
        assert find_contraction(MU5, nu) is None

    def test_six_tuple_needs_two_merged_blocks(self):
        partition = find_contraction(MU6, NU4)
        assert partition is not None
        sizes = sorted(len(b) for b in partition.blocks)
        assert sizes == [1, 1, 2, 2]
        assert contract(MU6, partition).weights == NU4.sorted().weights

    def test_six_tuple_every_solution_has_two_merged_blocks(self):
        # Exhaustive: no admissible partition of the 6-tuple onto the
        # 4-tuple uses a 3-block, and the search returns the least one.
        target = sorted(NU4.weights)
        valid = []
        for raw in partitions_into(range(6), 4, max(target), MU6):
            part = ContractionPartition(raw)
            if sorted(part.block_sums(MU6)) != target:
                continue
            if any(len(b) >= 2 and sum(MU6[i] for i in b) >= 1 for b in part.blocks):
                continue
            assert sorted(len(b) for b in part.blocks) == [1, 1, 2, 2]
            valid.append(part.blocks)
        assert len(valid) == 4
        assert find_contraction(MU6, NU4).blocks == min(valid)
        assert min(valid) == ((0, 1), (2,), (3, 4), (5,))

    def test_target_longer_than_source_rejected(self):
        with pytest.raises(ValidationError, match="longer"):
            find_contraction(NU4, MU6)

    @pytest.mark.parametrize("n, den", [(24, 12), (48, 24)])
    def test_repeated_weights_stay_far_below_a_small_cap(self, n, den):
        # n x (1/den) onto 4 x (1/2): the exhaustive search ran for
        # minutes at n = 24; equal weights collapse in the memo.
        mu = WeightTuple((F(1, den),) * n)
        nu = WeightTuple((F(1, 2),) * 4)
        partition = find_contraction(mu, nu, cap=1000)
        size = n // 4
        assert partition.blocks == tuple(
            tuple(range(b * size, (b + 1) * size)) for b in range(4)
        )

    def test_long_source_needs_no_deep_recursion(self):
        # Blocks of 250 indices and 1000 singleton blocks: the search
        # keeps its own stack, so Python's recursion limit is no bound.
        mu = WeightTuple((F(1, 500),) * 1000)
        partition = find_contraction(mu, WeightTuple((F(1, 2),) * 4))
        assert [len(b) for b in partition.blocks] == [250] * 4
        assert find_contraction(mu, mu).blocks == tuple((i,) for i in range(1000))

    def test_node_cap(self):
        mu = WeightTuple((F(1, 6),) * 12)
        nu = WeightTuple((F(1, 2),) * 4)
        with pytest.raises(ResourceLimitError) as err:
            find_contraction(mu, nu, cap=5)
        assert err.value.space == 6
        assert err.value.cap == 5

    def test_round_trip_on_enumerated_tuples(self):
        for mu, _ in enumerate_tuples(5, 6):
            partition = ContractionPartition(((0, 1), (2,), (3,), (4,)))
            try:
                nu = contract(mu, partition)
            except ValidationError:
                continue
            recovered = find_contraction(mu, nu)
            assert recovered is not None
            assert contract(mu, recovered).weights == nu.weights


class TestEnumerate:
    def test_contains_the_five_tuple(self):
        found = [mu.weights for mu, _ in enumerate_tuples(5, 6)]
        assert MU5.sorted().weights in found

    def test_contains_the_compact_four_tuple(self):
        found = [mu.weights for mu, _ in enumerate_tuples(4, 8)]
        assert WeightTuple.parse("3/8,3/8,3/8,7/8").sorted().weights in found

    def test_halves_only(self):
        found = enumerate_tuples(4, 2)
        assert [mu.weights for mu, _ in found] == [(F(1, 2),) * 4]

    def test_everything_emitted_passes_check_int(self):
        # Every hit up to length 8 and denominator 30, the cap lifted to the
        # raw space, carries `check_int`'s status field for field; runs of up
        # to seven equal weights give up to 21 half-integral witnesses, which
        # must come in `combinations` order.
        most = 0
        for length in range(4, 9):
            for den in range(2, 31):
                cap = comb(den + length - 2, length)
                for mu, status in enumerate_tuples(length, den, cap=cap):
                    expected = check_int(mu)
                    assert status.verdict is expected.verdict is not IntVerdict.FAIL
                    assert status.half_witnesses == expected.half_witnesses
                    assert status.fail_witnesses == expected.fail_witnesses == ()
                    most = max(most, len(status.half_witnesses))
        assert most == 21

    def test_fail_masks_match_pair_verdicts(self):
        for d in range(2, 201):
            expected = [0] + [
                sum(1 << a for a in range(1, d) if _pair_verdict(a, b, d) is IntVerdict.FAIL)
                for b in range(1, d)
            ]
            assert _fail_masks(d) == expected, d

    def test_sorted_and_deduplicated(self):
        seen = set()
        for mu, _ in enumerate_tuples(5, 6):
            assert mu.weights == tuple(sorted(mu.weights))
            assert mu.weights not in seen
            seen.add(mu.weights)

    @pytest.mark.parametrize("length, den", [(4, 2), (4, 8), (5, 6), (6, 6), (4, 12), (5, 12),
                                             (5, 24), (4, 48), (4, 7), (5, 9), (6, 10),
                                             (5, 18), (4, 30)])
    def test_matches_brute_recount(self, length, den):
        # Every sorted numerator vector summing to 2 * den, classified by
        # the double-loop oracle; (5, 6) and (6, 6) hold HALF_INT tuples.
        expected = []
        for nums in combinations_with_replacement(range(1, den), length):
            if sum(nums) != 2 * den:
                continue
            ws = tuple(F(a, den) for a in nums)
            verdict, half, _ = int_condition_verdict(ws)
            if verdict != "FAIL":
                expected.append((ws, verdict, half))
        found = [
            (mu.weights, status.verdict.value,
             [((w.i, w.j), w.value) for w in status.half_witnesses])
            for mu, status in enumerate_tuples(length, den)
        ]
        assert found == expected
        if den == 6:
            assert any(verdict == "HALF_INT" for _, verdict, _ in expected)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError) as err:
            enumerate_tuples(5, 6, cap=10)
        assert err.value.space == 126
        assert err.value.cap == 10

    @settings(max_examples=200, deadline=None)
    @given(st.integers(4, 40_000), st.integers(2, 40_000), st.data())
    def test_refusal_reports_the_space_or_a_count_it_reaches(self, length, den, data):
        """The raw space when it prints (at most 14,284 bits, under 10^4300),
        else 2^bits(cap), above the cap and at most the space."""
        space = comb(den + length - 2, length)
        assume(space > 1)
        cap = data.draw(st.integers(1, min(space - 1, 10**30)))
        with pytest.raises(ResourceLimitError) as err:
            enumerate_tuples(length, den, cap=cap)
        exact = space.bit_length() <= 14_284
        shown = err.value.space
        assert shown == space if exact else cap < shown == 1 << cap.bit_length() <= space
        assert str(err.value) == (f"raw search space {'' if exact else 'of at least '}{shown} "
                                  f"exceeds the configured cap {cap}")

    @pytest.mark.parametrize("size", [20_000, 600_000, 2_000_000])
    def test_huge_space_is_refused_by_its_bound(self, size):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            enumerate_tuples(size, size)
        assert time.perf_counter() - start < 1.0
        assert (err.value.space, err.value.cap) == (1 << 23, 5_000_000)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            enumerate_tuples(3, 6)
        with pytest.raises(ValidationError):
            enumerate_tuples(4, 1)


@st.composite
def weight_tuples(draw):
    d = draw(st.integers(min_value=3, max_value=10))
    length = draw(st.integers(min_value=4, max_value=6))
    # A composition of 2d into `length` parts within [1, d - 1].
    parts = []
    remaining = 2 * d
    for slot in range(length - 1, 0, -1):
        lo = max(1, remaining - (d - 1) * slot)
        hi = min(d - 1, remaining - slot)
        if lo > hi:
            # No valid completion; fall back to an even split value.
            lo = hi = max(1, min(d - 1, remaining - slot))
        parts.append(draw(st.integers(min_value=lo, max_value=hi)))
        remaining -= parts[-1]
    parts.append(remaining)
    if not all(1 <= p <= d - 1 for p in parts):
        # Rare fallback: the all-equal tuple over denominator length.
        return WeightTuple(tuple(F(2, length) for _ in range(length)))
    return WeightTuple(tuple(F(p, d) for p in parts))


@settings(max_examples=120, deadline=None)
@given(weight_tuples(), st.randoms())
def test_check_int_permutation_invariance_random(mu, rng):
    ws = list(mu.weights)
    rng.shuffle(ws)
    assert check_int(WeightTuple(tuple(ws))).verdict is check_int(mu).verdict


def _composition(draw, total, n, d, pool=None):
    """Numerators in [1, d - 1] summing to `total`, drawn from `pool`
    where it allows a completion; None when no completion exists."""
    parts = []
    for slot in range(n - 1, 0, -1):
        lo = max(1, total - (d - 1) * slot)
        hi = min(d - 1, total - slot)
        if lo > hi:
            return None
        choices = [p for p in pool or () if lo <= p <= hi]
        part = draw(st.sampled_from(choices) if choices else st.integers(lo, hi))
        parts.append(part)
        total -= part
    return parts + [total] if 1 <= total <= d - 1 else None


@st.composite
def contraction_instances(draw):
    """A source of length <= 8, often with repeated weights, and a target
    that is either a contraction of it or a random (mostly unsolvable)
    tuple, possibly with one weight moved off a block sum."""
    d = draw(st.sampled_from((4, 6, 8, 12)))
    n = draw(st.integers(4, 8))
    k = draw(st.integers(4, n))
    pool = draw(st.lists(st.integers(1, d - 1), min_size=1, max_size=3))
    source = _composition(draw, 2 * d, n, d, pool if draw(st.booleans()) else None)
    if source is None:
        source = _composition(draw, 2 * d, n, d)
    if source is None:
        source = [2 * d // n] * (n - 2 * d % n) + [2 * d // n + 1] * (2 * d % n)
    target = None
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        sums = [sum(a for a, b in zip(source, labels) if b == block) for block in range(k)]
        if all(0 < s < d for s in sums):
            target = sums
            if draw(st.booleans()):
                i, j = draw(st.permutations(range(k)))[:2]
                delta = draw(st.integers(1, 2))
                if 0 < target[i] + delta < d and 0 < target[j] - delta < d:
                    target[i] += delta
                    target[j] -= delta
    if target is None:
        target = _composition(draw, 2 * d, k, d) or source[:]
    return (WeightTuple(tuple(F(a, d) for a in source)),
            WeightTuple(tuple(F(a, d) for a in target)))


@settings(max_examples=300, deadline=None)
@given(contraction_instances())
# The remaining weights {1/6, 5/6} meet the targets {2/6, 4/6} (no
# completion) and later {1/6, 5/6}: a memo keyed on the weights and the
# number of targets would wrongly report no contraction.
@example((WeightTuple.parse("3/6,2/6,1/6,1/6,5/6"), WeightTuple.parse("1/6,2/6,4/6,5/6")))
def test_find_contraction_is_the_least_admissible_partition(instance):
    mu, nu = instance
    valid = admissible_contractions(mu, nu)
    partition = find_contraction(mu, nu)
    if valid:
        assert partition.blocks == min(valid)
    else:
        assert partition is None


@st.composite
def weight_inputs(draw):
    """Weights of a tuple of length 0-9 as Fractions, ints and unreduced
    'a/b' strings.  Either each weight has its own denominator and may
    be zero, negative or at least 1, or the numerators over one d sum
    to 2d and one of them moves by -1, 0 or +1, so that the sum is off
    by 1/d or a weight reaches 0 or 1."""
    n = draw(st.integers(0, 9))
    d = draw(st.integers(1, 12))
    nums = _composition(draw, 2 * d, n, d) if n and draw(st.booleans()) else None
    if nums is None:
        values = []
        for _ in range(n):
            den = draw(st.integers(1, 12))
            inside = draw(st.integers(0, 3)) and den > 1
            num = draw(st.integers(1, den - 1) if inside else st.integers(-den, 2 * den))
            values.append(F(num, den))
    else:
        nums[draw(st.integers(0, n - 1))] += draw(st.sampled_from((-1, 0, 1)))
        values = [F(a, d) for a in nums]
    inputs = []
    for w in values:
        form = draw(st.sampled_from(("fraction", "str", "int")))
        if form == "str":
            k = draw(st.integers(1, 3))
            inputs.append(f"{w.numerator * k}/{w.denominator * k}")
        elif form == "int" and w.denominator == 1:
            inputs.append(w.numerator)
        else:
            inputs.append(w)
    return inputs


@settings(max_examples=400, deadline=None)
@given(weight_inputs())
def test_validation_matches_fraction_arithmetic(ws):
    expected = weight_tuple_error(ws)
    if expected is None:
        mu = WeightTuple(tuple(ws))
        assert mu.weights == tuple(F(w) for w in ws)
        assert all(type(w) is F for w in mu.weights)
    else:
        with pytest.raises(ValidationError) as err:
            WeightTuple(tuple(ws))
        assert str(err.value) == expected


@settings(max_examples=300, deadline=None)
@given(st.from_regex(_RATIONAL, fullmatch=True))
@example("-007/010")
@example("+0012")
@example("-0")
@example("3/0")
@example("-0/000")
def test_parse_fraction_matches_fraction(text):
    try:
        expected = F(text)
    except ZeroDivisionError:
        with pytest.raises(ValidationError, match="cannot parse exact rational"):
            parse_fraction(text)
    else:
        assert parse_fraction(text) == expected
