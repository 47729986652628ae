import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantornorm import (ChampernowneBits, ConfigError, ConstantBits,
                        ConstantHalt, PeriodicBits, RationalBits, Registry,
                        TableBits, basic_sequence_from, interval_frequency,
                        limit_function, non_normality_report, orbit,
                        star_discrepancy, witness_check)

from helpers import (brute_star_discrepancy, checkpoint_orbit_low,
                     one_registry, random_halt, random_registry, zero_registry)


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

    def test_malformed_interval(self):
        with pytest.raises(ValueError, match="interval"):
            interval_frequency([Fraction(1, 2)], Fraction(1, 2), Fraction(1, 2))

    @given(st.lists(st.fractions(min_value=0, max_value=1)
                    .filter(lambda v: v < 1), min_size=1, max_size=20))
    def test_full_interval_is_one(self, points):
        assert interval_frequency(points, 0, 1).fraction == 1


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
