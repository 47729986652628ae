"""Exact arithmetic for Cantor series expansions and mod-1 orbits.

Everything here is exact, on integers and `fractions.Fraction`. The base
products q_0 q_1 ... q_n grow multiplicatively, so floating point would
corrupt mod-1 values within a few steps; floats are left to presentation
layers. Binary words and the `Record` base live in `records`, named here too.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import islice

from .records import (DyadicValue, Record, _as_word, exact,  # noqa: F401
                      shift, value_of_bits)


class Ints(Sequence):
    """A read-only sequence of ints held as C integers: the items of `data`,
    a `bytes`, an `array('q')` or a memoryview of either, or with `powers`
    set the ints 2**s for each item s of `data`. It equals a tuple or an
    `Ints` with the same items, either way round and inside tuples, and
    hashes as that tuple; a slice is a view into the same memory, and `+`
    gives a tuple."""

    __slots__ = ("data", "powers")

    def __init__(self, data, powers: bool = False) -> None:
        self.data = memoryview(data).toreadonly()
        self.powers = powers

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, index):
        item = self.data[index]
        if type(index) is slice:
            return Ints(item, self.powers)
        return 1 << item if self.powers else item

    def __iter__(self) -> Iterator[int]:
        if self.powers:
            return map((1).__lshift__, self.data)
        return iter(self.data)

    def __eq__(self, other):
        if type(other) is Ints and other.powers == self.powers:
            return self.data == other.data
        if isinstance(other, (tuple, Ints)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other):
        if isinstance(other, (tuple, Ints)):
            return tuple(self) + tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


class BasicSequence(Record):
    """Bases q_0, q_1, ... of a Cantor series, each q_n >= 2. Power-of-two
    bases made by `from_exponents` are held as their exponents s_n >= 1, in
    an `Ints` whose items are raised to q_n = 2**s_n on read."""

    bases: Sequence[int]

    def __post_init__(self) -> None:
        bases = self.bases
        if type(bases) is Ints and bases.powers:
            low = min(bases.data, default=1)
            if low < 1:
                raise ValueError(f"every exponent must be >= 1, got {low}")
            return
        object.__setattr__(self, "bases", tuple(bases))
        for q in self.bases:
            if q < 2:
                raise ValueError(f"every base must be >= 2, got {q}")

    @classmethod
    def from_exponents(cls, exponents: Sequence[int]) -> "BasicSequence":
        """Power-of-two bases q_n = 2**s_n from exponents s_n >= 1."""
        plain = type(exponents) is Ints and not exponents.powers
        return cls(Ints(exponents.data if plain else array("q", exponents),
                        powers=True))

    @property
    def exponents(self) -> Sequence[int]:
        """Exponents s_n with q_n = 2**s_n; defined only for power-of-two bases."""
        bases = self.bases
        if type(bases) is Ints:
            return Ints(bases.data)
        for q in bases:
            if q & (q - 1):
                raise ValueError(f"base {q} is not a power of 2")
        return tuple(q.bit_length() - 1 for q in bases)

    def __len__(self) -> int:
        return len(self.bases)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bases)

    def __getitem__(self, n: int) -> int:
        return self.bases[n]


def _as_bases(q) -> BasicSequence:
    return q if isinstance(q, BasicSequence) else BasicSequence(tuple(q))


class CantorDigits(Record):
    """Digits a_n of a Cantor series, each with 0 <= a_n < q_n."""

    digits: tuple[int, ...]
    base: BasicSequence

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        if len(self.digits) > len(self.base):
            raise ValueError(
                f"{len(self.digits)} digits but only {len(self.base)} bases")
        for i, (a, q) in enumerate(zip(self.digits, self.base)):
            if not 0 <= a < q:
                raise ValueError(f"digit {a} at index {i} outside [0, {q})")


def _greedy(x, q, n: int) -> tuple[int, list[int], list[int]]:
    """The greedy rule on integers for x = a/b in lowest terms: r_0 = a and
    a_i, r_{i+1} = divmod(r_i * q_i, b), so the digits are the a_i and the
    orbit points y_i = r_i / b. Returns b, n digits and n+1 remainders."""
    base = _as_bases(q)
    value = Fraction(x)
    if not 0 <= value < 1:
        raise ValueError(f"x must lie in [0, 1), got {value}")
    if not 0 <= n <= len(base):
        raise ValueError(f"count must lie in [0, {len(base)}] for "
                         f"{len(base)} bases, got {n}")
    b = value.denominator
    r = value.numerator
    digits, remainders = [], [r]
    for q_i in base.bases[:n]:
        a, r = divmod(r * q_i, b)
        digits.append(a)
        remainders.append(r)
    return b, digits, remainders


def cantor_digits(x, q, n: int) -> CantorDigits:
    """First n digits of x in the given bases by the greedy rule
    a_i = floor(r_i * q_i), r_{i+1} = r_i * q_i - a_i.

    The remainder after n digits is below 1 / (q_0 ... q_{n-1}), and inputs
    with a terminating expansion come out terminated (all-zero tail).
    """
    base = _as_bases(q)
    _, digits, _ = _greedy(x, base, n)
    return CantorDigits(tuple(digits), BasicSequence(base.bases[:n]))


def cantor_value(d: CantorDigits) -> Fraction:
    """Exact value of the finite series sum of a_n / (q_0 q_1 ... q_n), as
    one fraction N/D built on integers by binary splitting, so that products
    stay balanced: runs (N1, D1), (N2, D2) join as (N1 D2 + N2, D1 D2), and
    a run of up to 32 terms takes N <- N q_n + a_n, D <- D q_n. `exact`
    reduces N/D, by a shift rather than a `gcd` when D is a power of two."""
    def split(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo > 32:
            mid = (lo + hi) // 2
            (n1, d1), (n2, d2) = split(lo, mid), split(mid, hi)
            return n1 * d2 + n2, d1 * d2
        numerator, denominator = 0, 1
        for a, q in zip(d.digits[lo:hi], d.base.bases[lo:hi]):
            numerator = numerator * q + a
            denominator *= q
        return numerator, denominator
    return exact(*split(0, len(d.digits)))


def orbit(x, q, n: int) -> list[Fraction]:
    """Points y_0 = x and y_{i+1} = y_i * q_i mod 1 for i < n, all exact."""
    b, _, remainders = _greedy(x, q, n)
    return [Fraction(r, b) for r in remainders]


def orbit_low_counts(x, exponents: Iterable[int],
                     checkpoints: Sequence[int]) -> list[int]:
    """For each checkpoint c, how many orbit points y_0 .. y_{c-1} of x under
    the bases 2**s_k lie in [0, 1/2), on integers: with x = a/b in lowest
    terms, r_0 = a, r_{k+1} = (r_k << s_k) % b, and y_k < 1/2 iff 2 r_k < b,
    that is iff r_k < ceil(b/2). The walk runs once, one loop over a slice of
    the exponents from each distinct checkpoint to the next, and reads an
    iterator only as far as the largest checkpoint needs."""
    value = Fraction(x)
    if not 0 <= value < 1:
        raise ValueError(f"x must lie in [0, 1), got {value}")
    wanted = sorted(set(checkpoints))
    if not isinstance(exponents, Sequence):
        exponents = tuple(islice(exponents, max(0, max(wanted, default=0) - 1)))
    if wanted and not 0 <= wanted[0] <= wanted[-1] <= len(exponents) + 1:
        raise ValueError("checkpoints must lie in [0, exponents + 1], "
                         f"got {wanted}")
    b, r = value.denominator, value.numerator
    half = (b + 1) // 2
    # y_0 = x itself counts at every checkpoint from 1 on
    counts, low, done = {0: 0}, int(r < half), 1
    for c in wanted:
        if c:
            for s in exponents[done - 1:c - 1]:  # points done .. c - 1
                r = (r << s) % b
                if r < half:  # faster than adding the bool
                    low += 1
            counts[c], done = low, c
    return [counts[c] for c in checkpoints]
