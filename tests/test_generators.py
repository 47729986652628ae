from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cantornorm import (ChampernowneBits, ConfigError, ConstantBits, Oracle,
                        OracleBits, PeriodicBits, RationalBits, TableBits,
                        champernowne_bits, champernowne_digit,
                        generator_from_config, periodic_bits, rational_bits,
                        value_of_bits)
from helpers import fraction_sum_value, shift_or_numerator

# the binary concatenation 0 1 10 11 100 101 110 111, flattened
CHAMPERNOWNE_2_18 = [0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1]


class TestChampernowne:
    def test_binary_prefix(self):
        assert champernowne_bits(2, 18) == CHAMPERNOWNE_2_18

    def test_decimal_prefix(self):
        assert champernowne_bits(10, 11) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1]

    def test_empty(self):
        assert champernowne_bits(7, 0) == []

    def test_rejects_small_base(self):
        with pytest.raises(ValueError):
            champernowne_bits(1, 5)

    @given(base=st.integers(2, 10), n=st.integers(0, 80), m=st.integers(0, 80))
    def test_prefix_stability(self, base, n, m):
        if n > m:
            n, m = m, n
        assert champernowne_bits(base, m)[:n] == champernowne_bits(base, n)


class TestRationalBits:
    def test_half_terminates(self):
        assert rational_bits(1, 2, 3) == [1, 0, 0]

    def test_third_alternates(self):
        assert rational_bits(1, 3, 4) == [0, 1, 0, 1]

    def test_zero(self):
        assert rational_bits(0, 5, 2) == [0, 0]

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            rational_bits(5, 3, 4)
        with pytest.raises(ValueError):
            rational_bits(-1, 3, 4)

    @given(q=st.integers(1, 200), data=st.data(), n=st.integers(0, 40))
    def test_prefix_value_converges_from_below(self, q, data, n):
        p = data.draw(st.integers(0, q - 1))
        target = Fraction(p, q)
        approx = value_of_bits(rational_bits(p, q, n)).fraction
        assert 0 <= target - approx < Fraction(1, 2 ** n) if n else approx == 0

    @given(q=st.integers(1, 100), data=st.data())
    def test_matches_positional_generator(self, q, data):
        p = data.draw(st.integers(0, q - 1))
        gen = RationalBits(p, q)
        assert gen.prefix(24) == rational_bits(p, q, 24)


class TestPeriodicBits:
    def test_zero_one(self):
        assert periodic_bits((0, 1), 5) == [0, 1, 0, 1, 0]

    def test_single_one(self):
        assert periodic_bits((1,), 3) == [1, 1, 1]

    def test_exact_length(self):
        assert periodic_bits((0, 0, 1), 3) == [0, 0, 1]

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            periodic_bits((), 3)


class TestExactValues:
    def test_constant(self):
        assert ConstantBits(0).exact_value() == 0
        assert ConstantBits(1).exact_value() == 1

    def test_periodic_third(self):
        assert PeriodicBits((0, 1)).exact_value() == Fraction(1, 3)

    def test_table_default_zero(self):
        assert TableBits({0: 1, 2: 1}).exact_value() == Fraction(5, 8)

    def test_table_default_one(self):
        # bits 0,1,1,1,... denote 1/2 by the non-terminating expansion
        gen = TableBits({0: 0}, default=1)
        assert gen.exact_value() == Fraction(1, 2)
        assert gen.ends_in_ones()

    def test_rational(self):
        assert RationalBits(3, 7).exact_value() == Fraction(3, 7)
        assert not RationalBits(3, 7).ends_in_ones()

    def test_champernowne_has_none(self):
        assert ChampernowneBits().exact_value() is None

    def test_champernowne_does_not_end_in_ones(self):
        assert not ChampernowneBits().ends_in_ones()

    def test_oracle(self):
        gen = OracleBits(Oracle((1, 0, 1), default=0))
        assert gen.exact_value() == Fraction(5, 8)
        tail_ones = OracleBits(Oracle((0,), default=1))
        assert tail_ones.exact_value() == Fraction(1, 2)
        assert tail_ones.ends_in_ones()

    @given(pattern=st.lists(st.integers(0, 1), min_size=1, max_size=8))
    def test_periodic_value_matches_prefix_limit(self, pattern):
        gen = PeriodicBits(tuple(pattern))
        n = 8 * len(pattern)
        approx = value_of_bits(gen.prefix(n)).fraction
        assert 0 <= gen.exact_value() - approx <= Fraction(1, 2 ** n - 1)


class TestWordValues:
    """A finite word's value from one integer conversion, against the per-bit
    shift-or loop and the running `Fraction` sum."""

    @given(st.lists(st.integers(0, 1) | st.booleans(), max_size=3000))
    def test_numerator_matches_shift_or(self, word):
        value = value_of_bits(word)
        assert value.numerator == shift_or_numerator(word)
        assert value.exponent == len(word)

    @given(table=st.dictionaries(st.integers(0, 10_000), st.integers(0, 1),
                                 max_size=30),
           default=st.integers(0, 1))
    @example(table={}, default=0)
    @example(table={}, default=1)
    @example(table={0: 1, 9999: 1}, default=1)  # listed bits equal the default
    @example(table={3: 0, 7000: 0}, default=0)
    def test_table_matches_fraction_sum(self, table, default):
        assert (TableBits(table, default).exact_value()
                == fraction_sum_value(table.items(), default))

    @given(prefix=st.lists(st.integers(0, 1), max_size=3000),
           default=st.integers(0, 1))
    def test_oracle_matches_fraction_sum(self, prefix, default):
        assert (OracleBits(Oracle(tuple(prefix), default)).exact_value()
                == fraction_sum_value(enumerate(prefix), default))

    @pytest.mark.parametrize("bit", [0, 1])
    def test_constant_matches_fraction_sum(self, bit):
        assert ConstantBits(bit).exact_value() == fraction_sum_value((), bit)


class TestOracle:
    def test_prefix_then_default(self):
        oracle = Oracle((0, 1, 1), default=0)
        assert [oracle.bit_at(p) for p in range(5)] == [0, 1, 1, 0, 0]

    def test_validates_bits(self):
        with pytest.raises(ValueError):
            Oracle((0, 2))
        with pytest.raises(ValueError):
            Oracle((), default=5)


class TestConfigParsing:
    def test_each_kind(self):
        oracle = Oracle((1, 0), default=0)
        cases = [
            ({"kind": "constant", "bit": 1}, ConstantBits(1)),
            ({"kind": "periodic", "pattern": "011"}, PeriodicBits((0, 1, 1))),
            ({"kind": "table", "bits": {"3": 1}, "default": 0}, TableBits({3: 1})),
            ({"kind": "rational", "numerator": 2, "denominator": 5},
             RationalBits(2, 5)),
            ({"kind": "champernowne"}, ChampernowneBits()),
            ({"kind": "oracle-bit"}, OracleBits(oracle)),
        ]
        for cfg, expected in cases:
            assert generator_from_config(cfg, oracle) == expected

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown program kind"):
            generator_from_config({"kind": "mystery"})

    def test_oracle_bit_needs_oracle(self):
        with pytest.raises(ValueError, match="requires an oracle"):
            generator_from_config({"kind": "oracle-bit"}, None)

    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            generator_from_config({"kind": "periodic", "pattern": "01a"})

    def test_round_trips_through_to_config(self):
        gens = [ConstantBits(1), PeriodicBits((0, 1)), TableBits({2: 1}, 1),
                RationalBits(1, 3), ChampernowneBits()]
        for gen in gens:
            assert generator_from_config(gen.to_config(), None) == gen


@pytest.mark.parametrize("call, error", [
    (lambda: champernowne_digit(2, -1), ValueError),
    (lambda: champernowne_bits(2, -1), ValueError),
    (lambda: TableBits(((1, 1), (1, 0))), ValueError),
    (lambda: TableBits({-1: 1}), ValueError),
    (lambda: ConstantBits().prefix(-1), ValueError),
    (lambda: generator_from_config({"kind": "constant", "bit": 2}), ConfigError),
    (lambda: generator_from_config({"kind": "table", "bits": []}), ConfigError),
], ids=["digit_index", "digit_count", "duplicate_position",
        "negative_position", "prefix_length", "config_bit", "config_table"])
def test_invalid_arguments_refused(call, error):
    with pytest.raises(error):
        call()
