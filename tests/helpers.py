"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive results along a different route than
the library (set enumeration instead of streaming scans, endpoint enumeration
instead of the sorted-sample formula) so that agreement is evidence, not
tautology.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

from cantornorm import (ChampernowneBits, ConfigError, ConstantBits,
                        ConstantHalt, LinearHalt, Oracle, OracleBits,
                        PeriodicBits, RationalBits, Registry, TableBits,
                        TableHalt, basic_sequence_from, champernowne_digit,
                        interval_frequency, orbit)


# the forms in which a caller may give a bit word, each a map from a list of
# 0/1 ints; every one of them builds the same generator
WORD_FORMS = {"tuple": tuple, "list": list, "iterator": iter,
              "bools": lambda word: tuple(map(bool, word)), "bytes": bytes}


def zero_registry(n: int) -> Registry:
    return Registry.assemble([(ConstantBits(0), ConstantHalt(0))] * n)


def one_registry(n: int) -> Registry:
    return Registry.assemble([(ConstantBits(1), ConstantHalt(0))] * n)


def random_generator(rng: random.Random, allow_ones_tail: bool = True):
    kinds = ["constant", "periodic", "table", "rational", "champernowne"]
    kind = rng.choice(kinds)
    if kind == "constant":
        bit = rng.randint(0, 1) if allow_ones_tail else 0
        return ConstantBits(bit)
    if kind == "periodic":
        length = rng.randint(1, 6)
        pattern = [rng.randint(0, 1) for _ in range(length)]
        if not allow_ones_tail and all(pattern):
            pattern[rng.randrange(length)] = 0
        return PeriodicBits(tuple(pattern))
    if kind == "table":
        count = rng.randint(0, 6)
        table = {rng.randint(0, 100): rng.randint(0, 1) for _ in range(count)}
        default = rng.randint(0, 1) if allow_ones_tail else 0
        return TableBits(table, default)
    if kind == "rational":
        den = rng.randint(2, 64)
        return RationalBits(rng.randrange(den), den)
    return ChampernowneBits()


def expected_value(generator):
    """`generator.exact_value()` as a `Fraction` built from its fields."""
    def word(bits):
        return int("".join(map(str, bits)) or "0", 2)
    kind = generator.kind
    if kind == "constant":
        return Fraction(generator.bit)
    if kind == "periodic":
        return Fraction(word(generator.pattern), 2 ** len(generator.pattern) - 1)
    if kind == "rational":
        return Fraction(generator.numerator, generator.denominator)
    if kind == "champernowne":
        return None
    # the bits through the last listed one, then the default d forever
    if kind == "table":
        n = max((p + 1 for p, _ in generator.assignments), default=0)
        d = generator.default
    else:
        n, d = len(generator.oracle.prefix), generator.oracle.default
    return Fraction(word(generator.prefix(n)) + d, 2 ** n)


def expected_ends_in_ones(generator) -> bool:
    """`generator.ends_in_ones()` from its fields: a constant 1, a pattern
    of 1s only, or a table or oracle whose default is 1. A rational's bits
    take the terminating form, and the concatenation sequence holds 0s
    arbitrarily far out."""
    kind = generator.kind
    if kind == "constant":
        return generator.bit == 1
    if kind == "periodic":
        return all(generator.pattern)
    if kind == "table":
        return generator.default == 1
    if kind == "oracle-bit":
        return generator.oracle.default == 1
    return False


def random_halt(rng: random.Random, cap: int = 50) -> ConstantHalt | TableHalt:
    # constant/table rules keep every halting time <= cap at every position
    if rng.random() < 0.5:
        return ConstantHalt(rng.randint(0, cap))
    count = rng.randint(0, 5)
    table = {rng.randint(0, 120): rng.randint(0, cap) for _ in range(count)}
    return TableHalt(table, rng.randint(0, cap))


def random_registry(rng: random.Random, entries: int = 6, halt_cap: int = 50,
                    oracle: Oracle | None = None,
                    oracle_at: tuple[int, ...] = (),
                    alias_at: tuple[int, ...] = ()) -> Registry:
    """Random entries; each index in `alias_at` (never 0) aliases a random
    earlier index instead."""
    programs = []
    for i in range(entries):
        if i in alias_at:
            programs.append(rng.randrange(i))
            continue
        if i in oracle_at:
            generator = OracleBits(oracle)
        else:
            generator = random_generator(rng)
        programs.append((generator, random_halt(rng, cap=halt_cap)))
    return Registry.assemble(programs, oracle=oracle)


def brute_star_discrepancy(points) -> Fraction:
    """Endpoint enumeration: for anchored intervals [0, t) the deviation
    |#(x < t)/n - t| is extremal at sample values and just past them."""
    pts = sorted(Fraction(p) for p in points)
    n = len(pts)
    worst = Fraction(0)
    for t in set(pts) | {Fraction(1)}:
        below = sum(1 for x in pts if x < t)
        at_or_below = sum(1 for x in pts if x <= t)
        worst = max(worst,
                    abs(Fraction(below, n) - t),
                    abs(Fraction(at_or_below, n) - t))
    return worst


def stage_rule_oracle(registry: Registry, stage: int) -> tuple[int, ...]:
    """Independent re-implementation of the staged build: materialize both
    candidate sets over the whole scan window, pick the bit whose set has
    enough members (0 wins ties), and take its smallest members."""
    values = [0]
    for t in range(stage):
        cut = values[-1]
        quota = 2 * 3 ** t
        window = list(range(cut + 1, cut + 4 * 3 ** t + 1))
        candidates = {
            k: sorted(p for p in window
                      if registry.eval_bounded(t, stage + 1, p) == k)
            for k in (0, 1)
        }
        k = min(k for k in (0, 1) if len(candidates[k]) >= quota)
        values.extend(candidates[k][:quota])
    return tuple(values)


def certificate_oracle(registry: Registry,
                       max_position: int) -> tuple[tuple[int, ...], int]:
    """Per-position certificates and the stage budget, each derived on its
    own: position p of block t is in the domain from stage t+1 on and settled
    once stage s's budget s+1 settles programs 0..t on every position stages
    1..t+1 can consult; the budget settles all covering stages at once."""
    certificates = [0]
    for p in range(1, max_position + 1):
        t = 0
        while 3 ** (t + 1) <= p:
            t += 1
        needed = max(registry.settle_budget(e, 2 * (3 ** (t + 1) - 1))
                     for e in range(t + 1))
        certificates.append(max(t + 1, needed - 1))
    stages = 0
    while 3 ** stages <= max_position:
        stages += 1
    horizon = 2 * (3 ** stages - 1)
    settle = max((registry.settle_budget(e, horizon) for e in range(stages)),
                 default=0)
    return tuple(certificates), max(stages, settle)


def fraction_digits(x, q, n: int) -> tuple[int, ...]:
    """Greedy Cantor digits in `Fraction` arithmetic:
    a_i = floor(r_i * q_i), r_{i+1} = r_i * q_i - a_i from r_0 = x."""
    digits = []
    r = Fraction(x)
    for i in range(n):
        scaled = r * q[i]
        a = int(scaled)
        digits.append(a)
        r = scaled - a
    return tuple(digits)


def fraction_orbit(x, q, n: int) -> list[Fraction]:
    """Orbit points in `Fraction` arithmetic: y_0 = x, y_{i+1} = y_i * q_i mod 1."""
    y = Fraction(x)
    points = [y]
    for i in range(n):
        y = (y * q[i]) % 1
        points.append(y)
    return points


def fraction_series_value(digits, bases) -> Fraction:
    """Value of the Cantor series sum of a_n / (q_0 ... q_n) as a running
    `Fraction` sum, one addition per digit."""
    total, product = Fraction(0), 1
    for a, q in zip(digits, bases):
        product *= q
        total += Fraction(a, product)
    return total


def checkpoint_orbit_low(value, f, checkpoint: int) -> Fraction:
    """Low-half frequency of the orbit of `value` over the first `checkpoint`
    points, from an orbit built for this checkpoint alone."""
    steps = checkpoint - 1
    points = orbit(value, basic_sequence_from(f, steps), steps)
    return interval_frequency(points, 0, Fraction(1, 2)).fraction


def gathered_low_count(registry: Registry, e: int, f) -> int:
    """Program e's witness low count by a per-position gather: one window
    through f(3**(e+1) - 1), read at each value f(p) for p < 3**(e+1), with
    no position mask."""
    checkpoint = 3 ** (e + 1)
    window = registry.entry(e).generator.window(0, f.values[checkpoint - 1] + 1)
    return checkpoint - sum(map(window.__getitem__, islice(f.values, checkpoint)))


def reference_bit(generator, p: int) -> int:
    """Bit p of a generator by each kind's direct per-position formula: the
    whole-number shift for rationals, a linear table scan, the pattern index,
    the oracle prefix then its default. Champernowne bits come from
    `champernowne_digit`, whose prefixes the generator tests pin."""
    if isinstance(generator, ConstantBits):
        return generator.bit
    if isinstance(generator, PeriodicBits):
        return generator.pattern[p % len(generator.pattern)]
    if isinstance(generator, TableBits):
        for q, b in generator.assignments:
            if q == p:
                return b
        return generator.default
    if isinstance(generator, RationalBits):
        return (generator.numerator << (p + 1)) // generator.denominator % 2
    if isinstance(generator, ChampernowneBits):
        return champernowne_digit(2, p)
    if isinstance(generator, OracleBits):
        prefix = generator.oracle.prefix
        return prefix[p] if p < len(prefix) else generator.oracle.default
    raise TypeError(f"no reference for {generator!r}")


def reference_steps(halt, p: int) -> int:
    """Halting time at p by each rule's direct formula (a linear table scan
    for tables)."""
    if isinstance(halt, ConstantHalt):
        return halt.steps
    if isinstance(halt, LinearHalt):
        return halt.slope * p + halt.intercept
    if isinstance(halt, TableHalt):
        for q, s in halt.entries:
            if q == p:
                return s
        return halt.default
    raise TypeError(f"no reference for {halt!r}")


def shift_or_numerator(bits) -> int:
    """Numerator of a finite word's value over 2**len(word), built one bit
    at a time by a shift and an or, first bit most significant."""
    numerator = 0
    for b in bits:
        numerator = (numerator << 1) | b
    return numerator


def fraction_sum_value(pairs, default: int) -> Fraction:
    """Value of (position, bit) pairs over a constant default bit as a
    running `Fraction` sum: the default's value, then each pair's difference
    from the default at weight 2**-(position + 1)."""
    value = Fraction(default)
    for p, b in pairs:
        value += Fraction(b - default, 2 ** (p + 1))
    return value


def reference_oracle_file(path) -> Oracle:
    """`load_oracle_file` one character at a time: each line stripped, a
    blank or '#' line skipped, a 'default=' line read, and on any other line
    each character kept as a bit, passed over as a space or tab, or refused
    as the first bad one."""
    prefix, default = [], 0
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith("default="):
            value = text[len("default="):].strip()
            if value not in ("0", "1"):
                raise ConfigError(f"{path}:{lineno}: default must be 0 or 1")
            default = int(value)
            continue
        for ch in text:
            if ch in ("0", "1"):
                prefix.append(int(ch))
            elif ch not in (" ", "\t"):
                raise ConfigError(
                    f"{path}:{lineno}: unexpected character {ch!r}")
    return Oracle(tuple(prefix), default)


def per_line_oracle_file(path) -> Oracle:
    """`load_oracle_file` as its earlier per-line loop: each line stripped, a
    blank or '#' line skipped, a 'default=' line read, and any other line's
    spaces and tabs dropped, the rest checked by what `lstrip("01")` leaves,
    whose first character is the bad one."""
    runs: list[str] = []
    default = 0
    with open(path, encoding="utf-8") as file:
        lines = file.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith("default="):
            value = text[len("default="):].strip()
            if value not in ("0", "1"):
                raise ConfigError(f"{path}:{lineno}: default must be 0 or 1")
            default = int(value)
            continue
        run = text.replace(" ", "").replace("\t", "")
        if bad := run.lstrip("01")[:1]:
            raise ConfigError(f"{path}:{lineno}: unexpected character {bad!r}")
        runs.append(run)
    return Oracle(tuple(int(bit) for bit in "".join(runs)), default)
