from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cantornorm import (BasicSequence, CantorDigits, DyadicValue, cantor_digits,
                        cantor_value, orbit, shift, value_of_bits)
from cantornorm.cantor import orbit_low_counts
from helpers import fraction_digits, fraction_orbit, fraction_series_value


class TestValueOfBits:
    def test_single_one(self):
        assert value_of_bits([1]).fraction == Fraction(1, 2)

    def test_three_bits(self):
        assert value_of_bits([0, 1, 1]).fraction == Fraction(3, 8)

    def test_empty_word(self):
        assert value_of_bits([]).fraction == 0

    def test_keeps_word_length(self):
        v = value_of_bits([0, 1, 1])
        assert (v.numerator, v.exponent) == (3, 3)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            value_of_bits([0, 2])

    def test_dyadic_invariant(self):
        with pytest.raises(ValueError):
            DyadicValue(9, 3)
        with pytest.raises(ValueError):
            DyadicValue(-1, 3)


class TestShift:
    def test_drops_prefix(self):
        assert shift((0, 1, 1, 0), 2) == (1, 0)

    def test_zero_is_identity(self):
        assert shift((1, 0, 1), 0) == (1, 0, 1)

    def test_full_shift_empties(self):
        assert shift((1,), 1) == ()

    def test_overshift_rejected(self):
        with pytest.raises(ValueError):
            shift((1, 0), 3)


class TestBasicSequence:
    def test_from_exponents(self):
        q = BasicSequence.from_exponents((1, 2, 3))
        assert q.bases == (2, 4, 8)
        assert q.exponents == (1, 2, 3)

    def test_rejects_small_base(self):
        with pytest.raises(ValueError):
            BasicSequence((2, 1))

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            BasicSequence.from_exponents((1, 0))

    def test_exponents_need_powers_of_two(self):
        with pytest.raises(ValueError):
            BasicSequence((2, 3)).exponents

    def test_sequence_protocol(self):
        q = BasicSequence((2, 3, 4))
        assert len(q) == 3 and list(q) == [2, 3, 4] and q[1] == 3


class TestCantorDigits:
    def test_one_half_under_twos(self):
        assert cantor_digits(Fraction(1, 2), (2, 2, 2), 3).digits == (1, 0, 0)

    def test_five_sixths_mixed_bases(self):
        d = cantor_digits(Fraction(5, 6), (2, 3, 4), 3)
        assert d.digits == (1, 2, 0)
        # reconstruction oracle: 1/2 + 2/6 + 0/24
        assert Fraction(1, 2) + Fraction(2, 6) + Fraction(0, 24) == Fraction(5, 6)
        assert cantor_value(d) == Fraction(5, 6)

    def test_zero_gives_zero_digits(self):
        assert cantor_digits(0, (5, 7, 11), 3).digits == (0, 0, 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cantor_digits(Fraction(3, 2), (2, 2), 2)
        with pytest.raises(ValueError):
            cantor_digits(Fraction(-1, 2), (2, 2), 2)
        with pytest.raises(ValueError):
            cantor_digits(Fraction(1, 2), (2, 2), 3)

    def test_digit_invariant_enforced(self):
        with pytest.raises(ValueError):
            CantorDigits((2,), BasicSequence((2,)))


class TestCantorValue:
    def test_half(self):
        assert cantor_value(CantorDigits((1, 0), BasicSequence((2, 2)))) == Fraction(1, 2)

    def test_five_sixths(self):
        assert cantor_value(CantorDigits((1, 2), BasicSequence((2, 3)))) == Fraction(5, 6)

    def test_zeros(self):
        assert cantor_value(CantorDigits((0, 0, 0), BasicSequence((4, 9, 2)))) == 0


class TestOrbit:
    def test_third_under_twos(self):
        assert orbit(Fraction(1, 3), (2, 2), 2) == [
            Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)]

    def test_zero_stays_zero(self):
        assert orbit(0, (7, 5, 3), 3) == [0, 0, 0, 0]

    def test_orbit_is_shifted_word(self):
        # exponents (1, 2): after one step the word loses 1 bit, then 2 more
        word = (0, 1, 1, 0)
        x = value_of_bits(word).fraction
        points = orbit(x, BasicSequence((2, 4)), 2)
        assert points[1] == value_of_bits(shift(word, 1)).fraction
        assert points[2] == value_of_bits(shift(word, 3)).fraction

    def test_rejects_x_outside_unit(self):
        with pytest.raises(ValueError):
            orbit(1, (2, 2), 1)


@st.composite
def word_and_exponents(draw):
    word = tuple(draw(st.lists(st.integers(0, 1), max_size=40)))
    exponents = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=8)))
    return word, exponents


@given(word_and_exponents())
def test_shift_identity(case):
    """Multiplying by 2**s_0 * ... * 2**s_n mod 1 lands on the word shifted by
    the exponent sum, for words padded with zeros (finite support)."""
    word, exponents = case
    q = BasicSequence.from_exponents(exponents)
    total = sum(exponents)
    padded = word + (0,) * total
    x = value_of_bits(word).fraction
    points = orbit(x, q, len(exponents))
    partial = 0
    for n, s in enumerate(exponents):
        partial += s
        assert points[n + 1] == value_of_bits(shift(padded, partial)).fraction


@given(
    x=st.fractions(min_value=0, max_value=1).filter(lambda v: v < 1),
    bases=st.lists(st.integers(2, 16), min_size=1, max_size=10),
)
def test_round_trip_gap(x, bases):
    n = len(bases)
    d = cantor_digits(x, bases, n)
    value = cantor_value(d)
    product = 1
    for q in bases:
        product *= q
    assert 0 <= x - value < Fraction(1, product)
    for a, q in zip(d.digits, bases):
        assert 0 <= a < q


@given(
    bases=st.lists(st.integers(2, 12), min_size=1, max_size=8).map(tuple),
    data=st.data(),
)
def test_round_trip_exact_on_terminating(bases, data):
    digits = tuple(data.draw(st.integers(0, q - 1)) for q in bases)
    seq = BasicSequence(bases)
    x = cantor_value(CantorDigits(digits, seq))
    assert cantor_digits(x, seq, len(bases)).digits == digits


@given(
    b=st.integers(1, 2 ** 64),
    bases=st.lists(st.integers(2, 2 ** 20), max_size=12),
    data=st.data(),
)
def test_integer_recurrence_matches_fractions(b, bases, data):
    """The integer loop behind `cantor_digits` and `orbit` agrees with the
    greedy rule and the mod-1 map computed in `Fraction` arithmetic."""
    x = Fraction(data.draw(st.integers(0, b - 1)), b)
    n = data.draw(st.integers(0, len(bases)))
    assert cantor_digits(x, bases, n).digits == fraction_digits(x, bases, n)
    assert orbit(x, bases, n) == fraction_orbit(x, bases, n)


# mixed bases: small ones of any kind and powers of two up to 2**40
MIXED_BASES = st.one_of(st.integers(2, 1000),
                        st.integers(1, 40).map(lambda s: 2 ** s))


@given(bases=st.one_of(st.lists(MIXED_BASES, max_size=40),
                      st.lists(MIXED_BASES, min_size=33, max_size=150)),
       data=st.data())
def test_value_matches_fraction_sum(bases, data):
    """The binary-split N/D equals one `Fraction` addition per digit, also
    for fewer digits than bases and past the 32-digit runs it splits into."""
    n = data.draw(st.integers(0, len(bases)))
    digits = tuple(data.draw(st.integers(0, q - 1)) for q in bases[:n])
    d = CantorDigits(digits, BasicSequence(tuple(bases)))
    assert cantor_value(d) == fraction_series_value(digits, bases)


@given(b=st.integers(1, 2 ** 64),
       exponents=st.lists(st.integers(1, 70), max_size=30), data=st.data())
def test_low_counts_match_fraction_orbit(b, exponents, data):
    """Each checkpoint's count of residues with 2 r < b equals the count of
    points below 1/2 on the `Fraction` orbit, and the walk reads no exponent
    past the largest checkpoint's last point."""
    x = Fraction(data.draw(st.integers(0, b - 1)), b)
    checkpoints = data.draw(st.lists(st.integers(0, len(exponents) + 1),
                                     max_size=6))
    points = fraction_orbit(x, [2 ** s for s in exponents], len(exponents))
    expected = [sum(y < Fraction(1, 2) for y in points[:c]) for c in checkpoints]
    steps = iter(exponents)
    assert orbit_low_counts(x, steps, checkpoints) == expected
    read = max(max(checkpoints, default=0) - 1, 0)
    assert list(steps) == exponents[read:]


@pytest.mark.parametrize("x, exponents, checkpoints", [
    (Fraction(1), [1, 1], [2]),
    (Fraction(-1, 3), [1, 1], [2]),
    (Fraction(1, 3), [1], [3]),
    (Fraction(1, 3), [1, 1], [-1]),
    (Fraction(1, 3), [1, 1], [-1, 2]),
])
def test_low_counts_refuse_x_and_checkpoints_out_of_range(x, exponents,
                                                          checkpoints):
    with pytest.raises(ValueError):
        orbit_low_counts(x, exponents, checkpoints)


@pytest.mark.parametrize("function", [cantor_digits, orbit])
@pytest.mark.parametrize("x, n", [
    (Fraction(1, 3), -1),
    (Fraction(1, 3), 4),
    (Fraction(1), 2),
    (Fraction(-1, 3), 2),
])
def test_rejects_count_and_x_out_of_range(function, x, n):
    with pytest.raises(ValueError):
        function(x, (2, 3, 5), n)


@pytest.mark.parametrize("make", [
    lambda: DyadicValue(0, -1),
    lambda: CantorDigits((1, 1), BasicSequence((2,))),
], ids=["negative_exponent", "more_digits_than_bases"])
def test_malformed_values_refused(make):
    with pytest.raises(ValueError):
        make()
