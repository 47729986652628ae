"""Binary words and exact values as `records` builds them: `exact` gives the
`Fraction` that the constructor would, and reduces a dyadic value without
`math.gcd`; `_as_word` accepts 0/1 items, bools among them, and names the
first item that is not one; a word given in any form is held as 0/1 bytes;
an oracle file reads as a parser that takes one character at a time reads
it."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantornorm import (ConfigError, ConstantBits, Oracle, OracleBits,
                        PeriodicBits, load_oracle_file)
from cantornorm.records import _as_word, exact

from helpers import (WORD_FORMS, per_line_oracle_file, reference_bit,
                     reference_oracle_file)


def same_fraction(value, expected: Fraction) -> None:
    """`value` is `expected` in every way a caller can see."""
    assert type(value) is Fraction
    assert value == expected
    assert (value.numerator, value.denominator) == (expected.numerator,
                                                    expected.denominator)
    assert type(value.numerator) is int and type(value.denominator) is int
    assert hash(value) == hash(expected)
    assert str(value) == str(expected) and repr(value) == repr(expected)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is Fraction and copy == expected
    assert (copy.numerator, copy.denominator) == (expected.numerator,
                                                  expected.denominator)


@given(st.integers(0, 400).flatmap(
    lambda k: st.tuples(st.integers(0, 2 ** k), st.just(k))))
def test_dyadic_exact_is_the_constructors_fraction(pair):
    numerator, k = pair
    same_fraction(exact(numerator, 2 ** k), Fraction(numerator, 2 ** k))


@given(st.integers(0, 10 ** 30),
       st.integers(1, 10 ** 30).map(lambda d: 2 * d + 1))
def test_odd_denominator_exact_is_the_constructors_fraction(numerator,
                                                            denominator):
    same_fraction(exact(numerator, denominator),
                  Fraction(numerator, denominator))


@pytest.mark.parametrize("word, default", [
    ((1,), 0), ((0, 1, 1, 0, 0), 0), ((1, 1, 1), 1), ((), 1), ((0, 0), 1)])
def test_dyadic_values_need_no_gcd(monkeypatch, word, default):
    # the constructor's gcd is quadratic in the bit length: a 2,000,000-bit
    # odd numerator took 4.4 s in it, so a dyadic value never goes through it
    expected = Fraction(int("0" + "".join(map(str, word)), 2) + default,
                        2 ** len(word))

    def refuse(*args):
        raise AssertionError("math.gcd called")
    monkeypatch.setattr("math.gcd", refuse)
    for numerator, denominator, lowest in [(12, 2 ** 5, (3, 8)),
                                           (48, 4, (12, 1)), (7, 1, (7, 1))]:
        value = exact(numerator, denominator)
        assert (value.numerator, value.denominator) == lowest
    value = OracleBits(Oracle(word, default)).exact_value()
    assert (value.numerator, value.denominator) == (expected.numerator,
                                                    expected.denominator)


@pytest.mark.parametrize("bad", [2, -1, 5, "1", "a", None])
def test_as_word_names_the_first_bad_item(bad):
    with pytest.raises(ValueError) as refused:
        _as_word((0, True, 1, bad, 7, "b", None))
    assert str(refused.value) == f"bit out of range: {bad!r}"


@pytest.mark.parametrize("bad", [2, 5, 255])
@given(bits=st.lists(st.integers(0, 1), max_size=40),
       others=st.lists(st.tuples(st.integers(0, 40), st.integers(2, 255)),
                       max_size=3), at=st.integers(0, 40))
def test_as_word_checks_bytes_as_it_checks_a_tuple(bad, bits, others, at):
    """Bytes holding `bad` and up to three other bad bytes, each at a random
    place, are refused naming the first bad byte, as the tuple of the same
    items is."""
    word = bytearray(bits)
    for place, byte in [(at, bad), *others]:
        word.insert(place, byte)
    first = next(b for b in word if b > 1)
    for form in (bytes(word), tuple(word)):
        with pytest.raises(ValueError) as refused:
            _as_word(form)
        assert str(refused.value) == f"bit out of range: {first!r}"


def test_as_word_accepts_bools():
    word = _as_word(iter([True, False, 1, 0]))
    assert word == b"\1\0\1\0" and type(word) is bytes
    assert _as_word(()) == b""


@given(st.lists(st.integers(0, 1), max_size=40), st.integers(0, 1),
       st.integers(0, 50), st.integers(0, 50))
def test_every_form_of_a_word_builds_one_generator(word, default, start,
                                                   width):
    """A word given as a tuple, a list, a one-pass iterator, bools or bytes
    builds one oracle and one periodic generator, each holding the word as
    0/1 bytes and reading it as the per-position reference does."""
    oracles = [Oracle(form(word), default) for form in WORD_FORMS.values()]
    patterns = ([PeriodicBits(form(word)) for form in WORD_FORMS.values()]
                if word else [])
    for built, held in [(oracles, [oracle.prefix for oracle in oracles]),
                        (patterns, [periodic.pattern for periodic in patterns])]:
        assert all(b == built[0] and hash(b) == hash(built[0]) for b in built)
        assert all(type(h) is bytes and h == bytes(word) for h in held)
    for generator in [*map(OracleBits, oracles), *patterns]:
        assert list(generator.window(start, start + width)) == [
            reference_bit(generator, p) for p in range(start, start + width)]


@pytest.mark.parametrize("build", [
    lambda: Oracle((1.0, 0)), lambda: Oracle((0, 1), default=1.0),
    lambda: PeriodicBits((0, 1.0)), lambda: ConstantBits(1.0)],
    ids=["oracle_prefix", "oracle_default", "periodic_pattern", "constant"])
def test_a_bit_that_is_no_int_is_refused_when_built(build):
    # 1.0 equals 1, so it passes the count of 0s and 1s; held as it was, it
    # made every later window, and so every run, raise TypeError
    with pytest.raises(TypeError):
        build()


def random_oracle_text(rng: random.Random) -> str:
    """Lines of 0/1 runs among spaces and tabs, blank, comment and
    'default=' lines, and at most one bad character, in a run, a blank line
    or after a default."""
    def run():
        return "".join(rng.choices("0011 \t", k=rng.randint(0, 12)))
    makers = [run, run, run, lambda: rng.choice(["", " ", "\t \t"]),
              lambda: rng.choice(["#", " # "]) + run() + "x",
              lambda: "default=" + rng.choice(["0", "1", " 1 ", "\t0"])]
    lines = [rng.choice(makers)() for _ in range(rng.randint(0, 12))]
    if lines and rng.random() < 0.6:
        i = rng.randrange(len(lines))
        at = rng.randint(0, len(lines[i]))
        bad = rng.choice("x2.-\u00a0\u00e9\r\x0b")
        lines[i] = lines[i][:at] + bad + lines[i][at:]
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


def test_oracle_file_matches_a_per_character_parser(tmp_path):
    path = tmp_path / "oracle.txt"
    for seed in range(600):
        path.write_text(random_oracle_text(random.Random(seed)),
                        encoding="utf-8", newline="")
        try:
            expected = reference_oracle_file(path)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as refused:
                load_oracle_file(path)
            assert str(refused.value) == str(exc), seed
        else:
            assert load_oracle_file(path) == expected, seed


# the characters an oracle file is drawn from: its bits, the spaces, comment
# mark and keyword it knows, characters it refuses, and line breaks that
# `str.splitlines` and `str.strip` treat differently from "\n". Bits, spaces
# and newlines are drawn most often, and a line starting "default=" also
# whole, so that many files are accepted and many set a default
ORACLE_CHARACTERS = [*"01 \t\n" * 6, *"#default=", "x", "\u00e9", "\x00", "\r",
                     "\x0b", "\x0c", "\u2028", "\ndefault=", "\ndefault=1 "]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(ORACLE_CHARACTERS), max_size=60).map("".join))
def test_oracle_file_matches_the_per_line_loop(tmp_path_factory, text):
    """One loop over stripped lines, each run checked by one deleting
    `translate`, reads what the earlier per-line loop read, and refuses
    what it refused with the same message."""
    path = tmp_path_factory.getbasetemp() / "per_line_oracle.txt"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        expected = per_line_oracle_file(path)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as refused:
            load_oracle_file(path)
        assert str(refused.value) == str(exc)
    else:
        assert load_oracle_file(path) == expected
