"""The one-pass run methods (`BitGenerator.bits`, `HaltRule.steps_over`,
`Registry.eval_window`) and their one-position calls against the per-kind
reference formulas in `helpers`, on non-decreasing runs of positions whose
gaps reach 10**6; and the whole-window methods (`BitGenerator.window`,
`HaltRule.settled`) against the same formulas, position by position."""

import random
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from cantornorm import (ChampernowneBits, ConstantBits, ConstantHalt,
                        LinearHalt, Oracle, OracleBits, PeriodicBits,
                        RationalBits, Registry, TableBits, TableHalt,
                        champernowne_digit)

from helpers import (WORD_FORMS, random_registry, reference_bit,
                     reference_steps)

BITS = st.integers(0, 1)
WORD_FORM = st.sampled_from(list(WORD_FORMS.values()))
# small gaps walk contiguous runs and repeat positions; large ones jump
GAPS = st.one_of(st.integers(0, 3), st.integers(0, 10 ** 6))


@st.composite
def position_runs(draw):
    """Non-decreasing positions from a first gap counted from 0, so that
    p = 0 and repeated positions both occur."""
    return list(accumulate(draw(st.lists(GAPS, max_size=20))))


def table_keys(positions):
    """Table positions that often hit the run."""
    anywhere = st.integers(0, 10 ** 6)
    if not positions:
        return anywhere
    return st.one_of(st.sampled_from(positions), anywhere)


@st.composite
def generator_runs(draw):
    positions = draw(position_runs())
    kind = draw(st.sampled_from(["constant", "periodic", "table", "rational",
                                 "champernowne", "oracle-bit"]))
    if kind == "constant":
        generator = ConstantBits(draw(BITS))
    elif kind == "periodic":
        generator = PeriodicBits(tuple(draw(st.lists(BITS, min_size=1,
                                                     max_size=8))))
    elif kind == "table":
        generator = TableBits(draw(st.dictionaries(table_keys(positions), BITS,
                                                   max_size=8)), draw(BITS))
    elif kind == "rational":
        b = draw(st.integers(1, 2 ** 64))
        generator = RationalBits(draw(st.integers(0, b - 1)), b)
    elif kind == "champernowne":
        generator = ChampernowneBits()
    else:
        generator = OracleBits(Oracle(tuple(draw(st.lists(BITS, max_size=64))),
                                      draw(BITS)))
    return generator, positions


@st.composite
def halt_runs(draw):
    positions = draw(position_runs())
    steps = st.integers(0, 10 ** 6)
    rule = draw(st.sampled_from(["constant", "linear", "table"]))
    if rule == "constant":
        halt = ConstantHalt(draw(steps))
    elif rule == "linear":
        halt = LinearHalt(draw(st.integers(0, 5)), draw(steps))
    else:
        halt = TableHalt(draw(st.dictionaries(table_keys(positions), steps,
                                              max_size=8)), draw(steps))
    return halt, positions


@given(generator_runs())
def test_bits_match_reference(case):
    generator, positions = case
    expected = [reference_bit(generator, p) for p in positions]
    assert list(generator.bits(positions)) == expected
    assert list(generator.bits(iter(positions))) == expected  # one pass
    assert [generator.bit_at(p) for p in positions] == expected


@given(halt_runs())
def test_steps_over_match_reference(case):
    halt, positions = case
    expected = [reference_steps(halt, p) for p in positions]
    assert list(halt.steps_over(positions)) == expected
    assert [halt.steps_at(p) for p in positions] == expected


@given(seed=st.integers(0, 10 ** 9), budget=st.integers(0, 60),
       positions=position_runs())
def test_eval_window_matches_reference(seed, budget, positions):
    rng = random.Random(seed)
    oracle = Oracle(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 150))),
                    rng.randint(0, 1))
    reg = random_registry(rng, entries=6, oracle=oracle,
                          oracle_at=(rng.randrange(5),), alias_at=(5,))
    start = positions[0] if positions else 0
    for run in (positions, range(start, start + 30)):
        for e in range(len(reg)):
            entry = reg.entry(e)
            expected = [reference_bit(entry.generator, p)
                        if reference_steps(entry.halt, p) <= budget else 0
                        for p in run]
            assert list(reg.eval_window(e, budget, run)) == expected
            assert [reg.eval_bounded(e, budget, p) for p in run] == expected


THIRD = Registry.assemble([(RationalBits(1, 3), ConstantHalt(0))])


def window_at(position):
    """A sequence of positions, one window each."""
    return THIRD.eval_window(0, 0, [position])


def window_from(position):
    """One window from `position` to three past it."""
    return THIRD.eval_window(0, 0, range(position - 1, position + 3))


@pytest.mark.parametrize("evaluate", [
    ConstantBits(1).bit_at, PeriodicBits((0, 1)).bit_at,
    TableBits({0: 1}).bit_at, RationalBits(1, 3).bit_at,
    RationalBits(1, 4).bit_at, ChampernowneBits().bit_at,
    OracleBits(Oracle((1,))).bit_at, Oracle((1,)).bit_at,
    ConstantHalt(2).steps_at, LinearHalt(1, 0).steps_at,
    TableHalt({0: 1}).steps_at, window_at, window_from,
])
def test_negative_position_refused(evaluate):
    with pytest.raises(ValueError, match="position must be >= 0"):
        evaluate(-1)


@given(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10 ** 9)),
                max_size=30))
def test_champernowne_walk_matches_digits(gaps):
    """The numeral walk equals `champernowne_digit` on runs with repeats and
    with gaps that skip many numeral lengths at once."""
    positions = list(accumulate(gaps))
    assert (list(ChampernowneBits().bits(positions))
            == [champernowne_digit(2, p) for p in positions])


def test_champernowne_walk_contiguous():
    # every numeral of up to 11 bits and the first few hundred of 12, across
    # each change of numeral length
    assert (list(ChampernowneBits().bits(range(25000)))
            == [champernowne_digit(2, p) for p in range(25000)])


# windows from 0, from just above it and from far out
STARTS = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10 ** 9))
WIDTHS = st.integers(0, 70)


def champernowne_boundaries():
    """First digit of the numerals of each length L: digit 0 is the numeral
    for 0, then L * 2**(L-1) digits per length, so the run of length L
    begins at (L - 2) * 2**(L - 1) + 2."""
    return st.builds(lambda length, offset: max(
        (length - 2) * 2 ** (length - 1) + 2 + offset, 0),
        st.integers(1, 34), st.integers(-3, 3))


def expected_bit(generator, p: int) -> int:
    """`reference_bit`, but far-out rational bits by the per-position
    residue, floor(2 * (a * 2**p mod b) / b), since the whole-number shift
    would build an integer of p bits."""
    if isinstance(generator, RationalBits) and p > 10 ** 5:
        b = generator.denominator
        return 2 * (generator.numerator * pow(2, p, b) % b) // b
    return reference_bit(generator, p)


@st.composite
def generator_windows(draw):
    kind = draw(st.sampled_from(["constant", "periodic", "table", "rational",
                                 "champernowne", "oracle-bit"]))
    start = draw(STARTS)
    if kind == "constant":
        generator = ConstantBits(draw(BITS))
    elif kind == "periodic":
        generator = PeriodicBits(draw(WORD_FORM)(draw(st.lists(
            BITS, min_size=1, max_size=8))))
    elif kind == "table":
        # windows that straddle listed entries, each entry up to 70 past start
        keys = st.integers(0, 300)
        generator = TableBits(draw(st.dictionaries(keys, BITS, max_size=8)),
                              draw(BITS))
        listed = [p for p, _ in generator.assignments] or [0]
        start = draw(st.one_of(keys, st.builds(
            lambda p, back: max(p - back, 0), st.sampled_from(listed),
            st.integers(0, 70))))
    elif kind == "rational":
        b = draw(st.integers(1, 2 ** 64))
        generator = RationalBits(draw(st.integers(0, b - 1)), b)
    elif kind == "champernowne":
        generator = ChampernowneBits()
        start = draw(st.one_of(STARTS, champernowne_boundaries()))
    else:
        prefix = draw(st.lists(BITS, max_size=64))
        generator = OracleBits(Oracle(draw(WORD_FORM)(prefix), draw(BITS)))
        # windows that straddle the end of the prefix
        start = draw(st.integers(0, len(prefix) + 3))
    return generator, start, start + draw(WIDTHS)


@given(generator_windows())
def test_window_matches_reference(case):
    generator, start, stop = case
    window = generator.window(start, stop)
    assert type(window) is bytes
    if isinstance(generator, PeriodicBits):
        assert type(generator.pattern) is bytes
    if isinstance(generator, OracleBits):
        assert type(generator.oracle.prefix) is bytes
    assert list(window) == [expected_bit(generator, p)
                            for p in range(start, stop)]


@st.composite
def halt_windows(draw):
    rule = draw(st.sampled_from(["constant", "linear", "table"]))
    steps = st.integers(0, 10 ** 6)
    start, width = draw(st.integers(0, 10 ** 6)), draw(WIDTHS)
    if rule == "constant":
        halt = ConstantHalt(draw(steps))
        budget = draw(steps)
    elif rule == "linear":
        halt = LinearHalt(draw(st.integers(0, 5)), draw(steps))
        # a budget below the intercept settles nothing, and slope 0 all or
        # nothing; otherwise the window ends just past the last settled
        # position
        budget = draw(st.one_of(st.integers(0, halt.intercept),
                                st.integers(halt.intercept, 2 * 10 ** 6)))
        if halt.slope and budget >= halt.intercept:
            last = (budget - halt.intercept) // halt.slope
            start = max(last + 1 - width + draw(st.integers(0, 3)), 0)
    else:
        keys = st.integers(0, 300)
        halt = TableHalt(draw(st.dictionaries(keys, steps, max_size=8)),
                         draw(steps))
        start, budget = draw(keys), draw(steps)
    return halt, start, start + width, budget


@settings(max_examples=300)
@given(halt_windows())
def test_settled_matches_reference(case):
    halt, start, stop, budget = case
    settled = halt.settled(start, stop, budget)
    assert type(settled) is bytes
    assert list(settled) == [int(reference_steps(halt, p) <= budget)
                             for p in range(start, stop)]


# about the 4 * 3**13 positions that a depth-14 run's last stage scans
WIDE = 6 * 10 ** 6


@pytest.mark.parametrize("halt, start, budget, ones", [
    (ConstantHalt(7), 0, 7, WIDE),
    (ConstantHalt(7), 10 ** 6, 6, 0),
    (LinearHalt(0, 3), 5, 3, WIDE),
    (LinearHalt(0, 3), 5, 2, 0),
    (LinearHalt(2, 5), 0, 4, 0),
    (LinearHalt(1, 0), 0, 3 * 10 ** 6, 3 * 10 ** 6 + 1),
    (LinearHalt(3, 11), 10 ** 6, 10 ** 7, (10 ** 7 - 11) // 3 + 1 - 10 ** 6),
    (LinearHalt(1, 0), 10 ** 6, 10 ** 8, WIDE),
])
def test_settled_wide_window_matches_closed_form(halt, start, budget, ones):
    """A nondecreasing rule's mask over a depth-14 scan window is `ones`
    1s, the positions p >= start with steps_at(p) <= budget, then 0s."""
    assert (halt.settled(start, start + WIDE, budget)
            == b"\1" * ones + b"\0" * (WIDE - ones))


@st.composite
def halts_through(draw):
    """A halting rule and a position, tables listed at, below and above it."""
    position = draw(st.integers(0, 300))
    steps = st.integers(0, 10 ** 6)
    rule = draw(st.sampled_from(["constant", "linear", "table"]))
    if rule == "constant":
        halt = ConstantHalt(draw(steps))
    elif rule == "linear":
        halt = LinearHalt(draw(st.integers(0, 5)), draw(steps))
    else:
        keys = st.integers(0, 2 * position + 1)
        halt = TableHalt(draw(st.dictionaries(keys, steps, max_size=8)),
                         draw(steps))
    return halt, position


@given(halts_through())
@example((TableHalt({0: 4, 1: 2}, 9), 1))  # every position listed
@example((TableHalt({0: 4, 1: 2}, 9), 2))
@example((TableHalt({5: 12}, 3), 4))  # listed only past the position
def test_max_through_matches_reference(case):
    halt, position = case
    assert halt.max_through(position) == max(
        reference_steps(halt, p) for p in range(position + 1))


@pytest.mark.parametrize("start", [0, 1, 6, 17, 2 ** 20])
def test_champernowne_wide_window(start):
    """One window across many numeral lengths joins each length's numerals
    in turn."""
    stop = start + 25000
    assert (list(ChampernowneBits().window(start, stop))
            == [champernowne_digit(2, p) for p in range(start, stop)])
