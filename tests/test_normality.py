import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantornorm import (BasicSequence, ChampernowneBits, ConfigError,
                        ConstantBits, ConstantHalt, Oracle, PeriodicBits,
                        RationalBits, Registry, TableBits, basic_sequence_from,
                        interval_frequency, limit_function,
                        non_normality_report, orbit, star_discrepancy,
                        witness_check)
from cantornorm.cantor import orbit_low_counts
from cantornorm.normality import (FrequencyReport, _common_denominator,
                                  dyadic_frequencies)

from helpers import (brute_star_discrepancy, checkpoint_orbit_low,
                     fraction_orbit, gathered_low_count, one_registry,
                     random_halt, random_registry, zero_registry)


class TestIntervalFrequency:
    def test_half_open_boundary(self):
        report = interval_frequency([Fraction(0), Fraction(1, 2)], 0, Fraction(1, 2))
        assert report.hits == 1
        assert report.fraction == Fraction(1, 2)

    def test_repeated_points(self):
        report = interval_frequency([Fraction(1, 4)] * 3, 0, Fraction(1, 2))
        assert report.fraction == 1

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty sample"):
            interval_frequency([], 0, Fraction(1, 2))

    def test_point_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"points must lie in \[0, 1\)"):
            interval_frequency([Fraction(3, 2)], 0, 1)

    def test_malformed_interval(self):
        with pytest.raises(ValueError, match="interval"):
            interval_frequency([Fraction(1, 2)], Fraction(1, 2), Fraction(1, 2))

    @given(st.lists(st.fractions(min_value=0, max_value=1)
                    .filter(lambda v: v < 1), min_size=1, max_size=20))
    def test_full_interval_is_one(self, points):
        assert interval_frequency(points, 0, 1).fraction == 1


# points anywhere in [0, 1), and dyadic ones that sit on bin edges
UNIT_POINTS = st.one_of(
    st.fractions(min_value=0, max_value=1).filter(lambda v: v < 1),
    st.integers(0, 127).map(lambda j: Fraction(j, 128)))


class TestDyadicFrequencies:
    @given(st.lists(UNIT_POINTS, min_size=1, max_size=30), st.integers(0, 6))
    def test_matches_interval_frequency(self, points, depth):
        expected = [interval_frequency(points, Fraction(j, 2 ** k),
                                       Fraction(j + 1, 2 ** k))
                    for k in range(1, depth + 1) for j in range(2 ** k)]
        assert dyadic_frequencies(points, depth) == expected

    @pytest.mark.parametrize("points, depth", [
        ([], 2), ([Fraction(3, 2)], 2), ([Fraction(1, 2)], -1)])
    def test_refuses_bad_samples_and_depths(self, points, depth):
        with pytest.raises(ValueError):
            dyadic_frequencies(points, depth)


class TestStarDiscrepancy:
    @pytest.mark.parametrize("points,expected", [
        ([Fraction(1, 2)], Fraction(1, 2)),
        ([Fraction(1, 4), Fraction(3, 4)], Fraction(1, 4)),
        ([Fraction(0)], Fraction(1)),
    ])
    def test_known_values(self, points, expected):
        assert star_discrepancy(points) == expected
        assert brute_star_discrepancy(points) == expected

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty sample"):
            star_discrepancy([])

    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=32)
                    .filter(lambda v: v < 1), min_size=1, max_size=8))
    def test_matches_endpoint_enumeration_oracle(self, points):
        assert star_discrepancy(points) == brute_star_discrepancy(points)


@st.composite
def orbit_like_samples(draw):
    """Residues r/b over one denominator b, as the orbit of x = a/b gives
    them: b up to 2**160, or a power of two so that points sit on bin edges."""
    b = draw(st.one_of(st.integers(1, 2 ** 160),
                       st.integers(0, 160).map(lambda k: 2 ** k)))
    residues = draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=30))
    return [Fraction(r, b) for r in residues]


# mixed denominators, or one shared large one
SAMPLES = st.one_of(st.lists(UNIT_POINTS, min_size=1, max_size=30),
                    orbit_like_samples())

STATISTICS = [star_discrepancy,
              lambda points: dyadic_frequencies(points, 3),
              lambda points: interval_frequency(points, Fraction(1, 3), 1)]


def first_primes(count: int) -> list[int]:
    primes, c = [], 2
    while len(primes) < count:
        if all(c % p for p in primes if p * p <= c):
            primes.append(c)
        c += 1
    return primes


class TestIntegerNumerators:
    """The statistics, computed on numerators over one common denominator,
    against routes that compare the `Fraction`s themselves."""

    @given(SAMPLES)
    def test_star_matches_endpoint_enumeration(self, points):
        assert star_discrepancy(points) == brute_star_discrepancy(points)

    @given(SAMPLES, st.integers(0, 6))
    def test_dyadic_matches_interval_frequency(self, points, depth):
        n = len(points)
        expected = []
        for k in range(1, depth + 1):
            for j in range(2 ** k):
                lo, hi = Fraction(j, 2 ** k), Fraction(j + 1, 2 ** k)
                hits = sum(1 for y in points if lo <= y < hi)
                report = FrequencyReport(n, lo, hi, hits, Fraction(hits, n))
                assert interval_frequency(points, lo, hi) == report
                expected.append(report)
        assert dyadic_frequencies(points, depth) == expected

    def test_orbit_denominator_is_shared(self):
        # x = 1/6 under base 2 gives 1/6, then 1/3, 2/3, 1/3, ...: later
        # points reduce to 3, a divisor of 6, and 0 to denominator 1
        points = [Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(2, 3)]
        assert _common_denominator(points) == ([0, 1, 2, 4], 6)
        assert _common_denominator(points[2:]) == ([1, 2], 3)

    def test_unrelated_denominators_stay_points(self):
        # the lcm of 300 primes would make every numerator ~2,900 bits long
        points = [Fraction(1, p) for p in first_primes(300)]
        assert _common_denominator(points) == (points, 1)
        assert _common_denominator(points[:2]) == (points[:2], 1)  # 1/2, 1/3
        assert star_discrepancy(points) == brute_star_discrepancy(points)
        assert dyadic_frequencies(points, 2)[0].hits == 299  # all but 1/2

    @given(SAMPLES, UNIT_POINTS, UNIT_POINTS)
    def test_interval_bounds_between_numerators(self, points, a, b):
        lo, hi = sorted((a, b))
        if lo == hi:
            hi = Fraction(1)
        hits = sum(1 for y in points if lo <= y < hi)
        assert interval_frequency(points, lo, hi).hits == hits

    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_empty_sample_wording(self, statistic):
        with pytest.raises(ValueError) as caught:
            statistic([])
        assert str(caught.value) == "empty sample"

    @pytest.mark.parametrize("statistic", STATISTICS)
    @pytest.mark.parametrize("points, shown", [
        ([Fraction(3, 2)], "3/2"),
        ([Fraction(1, 3), 1, Fraction(3, 2)], "1"),
        ([Fraction(1, 2), 1], "1"),
        ([Fraction(1, 7), Fraction(-1, 2)], "-1/2"),
    ])
    def test_outside_point_wording(self, statistic, points, shown):
        with pytest.raises(ValueError) as caught:
            statistic(points)
        assert str(caught.value) == f"points must lie in [0, 1), got {shown}"

    def test_accepts_what_fraction_accepts(self):
        given_points = [0, "1/3", 0.5, "3/4", Fraction(5, 6)]
        exact = [Fraction(p) for p in given_points]
        assert star_discrepancy(given_points) == Fraction(1, 5)
        assert brute_star_discrepancy(exact) == Fraction(1, 5)
        assert star_discrepancy(iter(given_points)) == Fraction(1, 5)
        assert dyadic_frequencies(given_points, 3) == dyadic_frequencies(exact, 3)
        assert (interval_frequency(given_points, "1/3", 1)
                == interval_frequency(exact, Fraction(1, 3), 1))
        assert interval_frequency(given_points, "1/3", 1).hits == 4


class TestWitnessCheck:
    def test_all_zero_registry(self):
        reg = zero_registry(1)
        report = witness_check(reg, 0, limit_function(reg, 2))
        assert report.chosen_bit == 0
        assert report.fraction_low == 1
        assert report.passed

    def test_all_one_registry(self):
        reg = one_registry(2)
        report = witness_check(reg, 1, limit_function(reg, 8))
        assert report.chosen_bit == 1
        assert report.fraction_high == 1
        assert report.fraction_low == 0
        assert report.passed

    def test_alternating_program_hits_two_thirds_exactly(self):
        reg = Registry.assemble([(PeriodicBits((1, 0)), ConstantHalt(0))])
        report = witness_check(reg, 0, limit_function(reg, 2))
        assert report.chosen_bit == 0
        assert report.fraction_low == Fraction(2, 3)
        assert report.chosen_fraction == Fraction(2, 3)
        assert report.passed

    def test_sides_partition_every_position(self):
        rng = random.Random(31)
        reg = random_registry(rng, entries=3, halt_cap=20)
        f = limit_function(reg, 26)
        for e in range(3):
            report = witness_check(reg, e, f)
            assert report.fraction_low + report.fraction_high == 1

    def test_unsettled_limit_rejected(self):
        reg = zero_registry(2)
        f = limit_function(reg, 4)
        with pytest.raises(ValueError, match="settled through"):
            witness_check(reg, 1, f)

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_always_passes_on_settled_limit(self, seed):
        rng = random.Random(seed)
        reg = random_registry(rng, entries=3, halt_cap=25)
        f = limit_function(reg, 26)
        for e in range(3):
            assert witness_check(reg, e, f).passed


@given(seed=st.integers(0, 10 ** 9), max_position=st.integers(2, 80))
@settings(max_examples=60, deadline=None)
def test_mask_low_counts_match_the_gather(seed, max_position):
    """On random registries, with tables and an oracle whose windows run past
    their listed bits or prefix into the default bit, each witness's low
    count by one mask AND equals the per-position gather, and the scan's
    mask equals the one a copy builds from the values."""
    rng = random.Random(seed)
    oracle = Oracle(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 30))),
                    rng.randint(0, 1))
    entries = 4
    reg = random_registry(rng, entries=entries, halt_cap=20, oracle=oracle,
                          oracle_at=(rng.randrange(entries),),
                          alias_at=(3,) if rng.random() < 0.3 else ())
    f = limit_function(reg, max_position)
    assert len(f.position_mask) == f.values[-1] + 1
    assert f.position_mask == f._replace().position_mask
    e = 0
    while 3 ** (e + 1) - 1 <= max_position:
        assert witness_check(reg, e, f).low_count == gathered_low_count(reg, e, f)
        e += 1


def test_wide_gap_takes_the_int64_fallback():
    """A copy whose last gap passes a byte holds Q's exponents as 64-bit
    ints; they, the bases, the mask, the witnesses and the cross-check counts
    equal those computed from tuples, and the copy's witness reads its own
    values, not the scan's mask."""
    reg = Registry.assemble([(ConstantBits(0), ConstantHalt(0))] * 2
                            + [(RationalBits(1, 3), ConstantHalt(0))])
    f = limit_function(reg, 26)
    assert "position_mask" in vars(f)  # the scan's
    last = f.values[-1] + 301
    wide = f._replace(values=f.values[:-1] + (last,))
    assert "position_mask" not in vars(wide)
    values = tuple(wide.values)
    gaps = tuple(b - a for a, b in zip(values, values[1:]))
    assert gaps[-1] >= 256 > max(gaps[:-1])
    assert f.q_exponents.data.format == "B"
    assert wide.q_exponents.data.format == "q"
    assert wide.q_exponents == gaps
    bases = tuple(2 ** s for s in gaps)
    assert BasicSequence.from_exponents(wide.q_exponents).bases == bases
    assert basic_sequence_from(wide, 26) == BasicSequence(bases)
    kept = set(values)
    assert wide.position_mask == bytes(p in kept for p in range(last + 1))
    for e in range(3):
        report = witness_check(reg, e, wide)
        assert report.low_count == gathered_low_count(reg, e, wide)
    # f(26) moved from an even position, bit 0 of 1/3, to an odd one, bit 1
    assert (witness_check(reg, 2, wide).low_count
            == witness_check(reg, 2, f).low_count - 1)
    x = Fraction(1, 3)
    points = fraction_orbit(x, bases, len(bases))
    checkpoints = [1, 9, 27]
    assert (orbit_low_counts(x, wide.q_exponents, checkpoints)
            == orbit_low_counts(x, gaps, checkpoints)
            == [sum(y < Fraction(1, 2) for y in points[:c]) for c in checkpoints])


def rational_valued_generator(rng: random.Random):
    choice = rng.randrange(4)
    if choice == 0:
        return ConstantBits(0)
    if choice == 1:
        length = rng.randint(1, 6)
        pattern = [rng.randint(0, 1) for _ in range(length)]
        pattern[rng.randrange(length)] = 0
        return PeriodicBits(tuple(pattern))
    if choice == 2:
        count = rng.randint(0, 5)
        return TableBits({rng.randint(0, 60): rng.randint(0, 1)
                          for _ in range(count)}, default=0)
    den = rng.randint(2, 64)
    return RationalBits(rng.randrange(den), den)


@given(seed=st.integers(0, 10 ** 9))
@settings(max_examples=30, deadline=None)
def test_bit_classification_matches_true_orbit(seed):
    """Off the 1/2 boundary, the settled bit at f(p) decides which half the
    exact orbit point lands in; at the boundary the bit convention applies."""
    rng = random.Random(seed)
    reg = Registry.assemble(
        [(rational_valued_generator(rng), random_halt(rng, cap=10))
         for _ in range(3)])
    f = limit_function(reg, 26)
    for e in range(3):
        x = reg.entry(e).generator.exact_value()
        checkpoint = 3 ** (e + 1)
        points = orbit(x, basic_sequence_from(f, checkpoint - 1), checkpoint - 1)
        for p in range(checkpoint):
            bit = reg.eval_limit(e, f.values[p])
            if points[p] < Fraction(1, 2):
                assert bit == 0
            elif points[p] > Fraction(1, 2):
                assert bit == 1


class TestNonNormalityReport:
    def test_zero_source_with_three_aliases(self):
        reg = Registry.assemble([
            (ConstantBits(0), ConstantHalt(0)),
            (PeriodicBits((0, 1)), ConstantHalt(0)),
            0,
            (RationalBits(1, 3), ConstantHalt(0)),
            0,
        ])
        f = limit_function(reg, 3 ** 5 - 1)
        report = non_normality_report(reg, 0, f, [0, 2, 4])
        assert report.non_normal is True
        assert [r.deviation for r in report.records] == [Fraction(1, 2)] * 3
        assert all(r.orbit_agrees for r in report.records)
        assert [r.checkpoint for r in report.records] == [3, 27, 243]

    def test_periodic_source_aliased_twice(self):
        reg = Registry.assemble([
            (PeriodicBits((0, 1)), ConstantHalt(0)),
            (ConstantBits(0), ConstantHalt(0)),
            0,
        ])
        f = limit_function(reg, 26)
        report = non_normality_report(reg, 0, f, [0, 2])
        assert report.non_normal is True
        for record in report.records:
            assert record.deviation >= Fraction(1, 6)
            assert record.orbit_agrees is True

    def test_empty_checkpoints_give_no_verdict(self):
        reg = zero_registry(1)
        report = non_normality_report(reg, 0, limit_function(reg, 2), [])
        assert report.records == ()
        assert report.non_normal is None

    def test_foreign_checkpoint_rejected(self):
        reg = Registry.assemble([
            (ConstantBits(0), ConstantHalt(0)),
            (ConstantBits(1), ConstantHalt(0)),
        ])
        f = limit_function(reg, 8)
        with pytest.raises(ConfigError, match="not an alias"):
            non_normality_report(reg, 0, f, [1])

    def test_champernowne_source_skips_orbit_cross_check(self):
        reg = Registry.assemble([
            (ChampernowneBits(), ConstantHalt(0)),
            (ConstantBits(0), ConstantHalt(0)),
        ])
        f = limit_function(reg, 8)
        report = non_normality_report(reg, 0, f, [0])
        assert report.non_normal is True
        assert report.records[0].orbit_fraction_low is None
        assert report.records[0].orbit_agrees is None

    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_one_orbit_matches_an_orbit_per_checkpoint(self, seed):
        """Prefix counts of one orbit to the largest checkpoint give every
        alias the frequency an orbit built for its checkpoint alone gives."""
        rng = random.Random(seed)
        aliases = tuple(i for i in range(1, 5) if rng.random() < 0.5)
        reg = random_registry(rng, entries=5, halt_cap=8, alias_at=aliases)
        f = limit_function(reg, 3 ** 5 - 1)
        for root, group in reg.alias_groups().items():
            generator = reg.entry(root).generator
            value = generator.exact_value()
            report = non_normality_report(reg, root, f, group)
            for record in report.records:
                expected = (None if value is None or generator.ends_in_ones()
                            else checkpoint_orbit_low(value, f, record.checkpoint))
                assert record.orbit_fraction_low == expected
