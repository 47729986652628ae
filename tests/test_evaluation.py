"""The one-pass run methods (`BitGenerator.bits`, `HaltRule.steps_over`,
`Registry.eval_window`) and their one-position calls against the per-kind
reference formulas in `helpers`, on non-decreasing runs of positions whose
gaps reach 10**6."""

import random
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from cantornorm import (ChampernowneBits, ConstantBits, ConstantHalt,
                        LinearHalt, Oracle, OracleBits, PeriodicBits,
                        RationalBits, TableBits, TableHalt)

from helpers import random_registry, reference_bit, reference_steps

BITS = st.integers(0, 1)
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


@pytest.mark.parametrize("evaluate", [
    ConstantBits(1).bit_at, PeriodicBits((0, 1)).bit_at,
    TableBits({0: 1}).bit_at, RationalBits(1, 3).bit_at,
    RationalBits(1, 4).bit_at, ChampernowneBits().bit_at,
    OracleBits(Oracle((1,))).bit_at, Oracle((1,)).bit_at,
    ConstantHalt(2).steps_at, LinearHalt(1, 0).steps_at,
    TableHalt({0: 1}).steps_at,
])
def test_negative_position_refused(evaluate):
    with pytest.raises(ValueError, match="position must be >= 0"):
        evaluate(-1)
