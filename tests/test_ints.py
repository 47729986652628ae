"""Properties of `Ints`, the read-only int sequence behind the public fields
of a limit (`values`, `certificates`, `q_exponents`), a block's `positions`
and a basic sequence's `bases` and `exponents`: it behaves as the tuple of
its items."""

import dataclasses
import random
from array import array

from hypothesis import given, settings, strategies as st

from cantornorm import BasicSequence, Ints, limit_function

from helpers import random_registry

INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
items = st.lists(INT64, max_size=30)


def ints(xs) -> Ints:
    return Ints(array("q", xs))


@given(items, items)
def test_equals_tuples_both_ways(xs, ys):
    assert ints(xs) == tuple(xs) and tuple(xs) == ints(xs)
    assert not ints(xs) != tuple(xs)
    assert (ints(xs) == tuple(ys)) == (xs == ys)
    assert (tuple(ys) == ints(xs)) == (xs == ys)
    assert (ints(xs) == ints(ys)) == (xs == ys)
    assert ints(xs) != list(xs)  # as a tuple is never equal to a list


@given(items, items)
def test_equals_tuples_inside_tuples(xs, ys):
    assert (ints(xs), 1) == (tuple(xs), 1)
    assert (tuple(xs), ints(ys)) == (ints(xs), tuple(ys))
    assert ((ints(xs),) == (tuple(ys),)) == (xs == ys)


@given(items)
def test_hashes_as_its_tuple(xs):
    assert hash(ints(xs)) == hash(tuple(xs))
    assert {tuple(xs): 1}[ints(xs)] == 1


@given(items, st.integers(-40, 40), st.integers(-40, 40),
       st.sampled_from([None, 1, 2, -1, -3]))
def test_slices_are_views(xs, start, stop, step):
    whole = array("q", xs)
    part = Ints(whole)[start:stop:step]
    assert type(part) is Ints
    assert part == tuple(xs)[start:stop:step]
    if len(part):  # a view: a change to the array shows through the slice
        first = range(len(xs))[start:stop:step][0]
        whole[first] = ~whole[first]
        assert part[0] == ~xs[first]


@given(items, items)
def test_add_gives_the_tuple_sum(xs, ys):
    assert ints(xs) + tuple(ys) == tuple(xs) + tuple(ys)
    assert ints(xs) + ints(ys) == tuple(xs + ys)
    assert type(ints(xs) + tuple(ys)) is tuple


@given(items, INT64)
def test_len_iteration_and_index(xs, probe):
    seq = ints(xs)
    assert len(seq) == len(xs) and bool(seq) == bool(xs)
    assert list(seq) == xs and list(reversed(seq)) == xs[::-1]
    assert [seq[i] for i in range(-len(xs), len(xs))] == xs + xs
    assert (probe in seq) == (probe in xs)
    assert seq.count(probe) == xs.count(probe)
    for x in xs:
        assert seq.index(x) == xs.index(x)


@given(st.lists(st.integers(0, 200), max_size=20))
def test_powers_are_powers_of_two(exponents):
    seq = Ints(array("q", exponents), powers=True)
    assert seq == tuple(2 ** s for s in exponents)
    assert tuple(2 ** s for s in exponents) == seq
    assert seq[1:] == tuple(2 ** s for s in exponents[1:])
    assert seq != ints(exponents) or not exponents


@given(seed=st.integers(0, 10 ** 9), m=st.integers(1, 80))
@settings(max_examples=30, deadline=None)
def test_replace_round_trips(seed, m):
    f = limit_function(random_registry(random.Random(seed), entries=8,
                                       halt_cap=5), m)
    assert dataclasses.replace(f) == f
    assert dataclasses.replace(f, values=tuple(f.values)) == f
    assert dataclasses.replace(f, values=f.values[:]) == f
    stretched = dataclasses.replace(
        f, values=f.values[:-1] + (f.values[-1] + 9,))
    assert stretched.values == tuple(f.values)[:-1] + (f.values[-1] + 9,)
    assert stretched.q_exponents == (*f.q_exponents[:-1],
                                     f.q_exponents[-1] + 9)
    assert stretched.certificates == f.certificates
    for block in f.blocks:
        assert dataclasses.replace(
            block, positions=tuple(block.positions)) == block
    q = BasicSequence.from_exponents(f.q_exponents)
    assert dataclasses.replace(q, bases=tuple(q.bases)) == q
