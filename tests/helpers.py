"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive results along a different route than
the library (set enumeration instead of streaming scans, endpoint enumeration
instead of the sorted-sample formula) so that agreement is evidence, not
tautology.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cantornorm import (ChampernowneBits, ConstantBits, ConstantHalt,
                        LinearHalt, Oracle, OracleBits, PeriodicBits,
                        RationalBits, Registry, TableBits, TableHalt,
                        basic_sequence_from, champernowne_digit,
                        interval_frequency, orbit)


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


def checkpoint_orbit_low(value, f, checkpoint: int) -> Fraction:
    """Low-half frequency of the orbit of `value` over the first `checkpoint`
    points, from an orbit built for this checkpoint alone."""
    steps = checkpoint - 1
    points = orbit(value, basic_sequence_from(f, steps), steps)
    return interval_frequency(points, 0, Fraction(1, 2)).fraction


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
