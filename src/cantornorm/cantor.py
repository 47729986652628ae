"""Exact arithmetic for binary words, Cantor series expansions, and mod-1 orbits.

Everything here is exact: finite binary words, dyadic numerator/exponent
pairs, and `fractions.Fraction`. The base products q_0 q_1 ... q_n grow
multiplicatively, so floating point would corrupt mod-1 values within a few
steps; floats are left to presentation layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence


def _as_word(bits: Sequence[int]) -> tuple[int, ...]:
    word = tuple(bits)
    for b in word:
        if b not in (0, 1):
            raise ValueError(f"bit out of range: {b!r}")
    return word


@dataclass(frozen=True)
class DyadicValue:
    """Exact value numerator / 2**exponent, kept unreduced so the length of
    the originating word stays visible."""

    numerator: int
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("exponent must be a natural number")
        if not 0 <= self.numerator <= 2 ** self.exponent:
            raise ValueError("numerator must lie in [0, 2**exponent]")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, 2 ** self.exponent)


def value_of_bits(bits: Sequence[int]) -> DyadicValue:
    """Value of a finite word w as the sum of w(n) / 2**(n+1)."""
    word = _as_word(bits)
    return DyadicValue(int("0" + "".join(["01"[b] for b in word]), 2), len(word))


def shift(bits: Sequence[int], n: int) -> tuple[int, ...]:
    """The word with its first n bits dropped."""
    word = _as_word(bits)
    if not 0 <= n <= len(word):
        raise ValueError(f"cannot drop {n} bits from a word of length {len(word)}")
    return word[n:]


@dataclass(frozen=True)
class BasicSequence:
    """Bases q_0, q_1, ... of a Cantor series, each q_n >= 2."""

    bases: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(self.bases))
        for q in self.bases:
            if q < 2:
                raise ValueError(f"every base must be >= 2, got {q}")

    @classmethod
    def from_exponents(cls, exponents: Sequence[int]) -> "BasicSequence":
        """Power-of-two bases q_n = 2**s_n from exponents s_n >= 1."""
        exps = tuple(exponents)
        for s in exps:
            if s < 1:
                raise ValueError(f"every exponent must be >= 1, got {s}")
        return cls(tuple(2 ** s for s in exps))

    @property
    def exponents(self) -> tuple[int, ...]:
        """Exponents s_n with q_n = 2**s_n; defined only for power-of-two bases."""
        out = []
        for q in self.bases:
            s = q.bit_length() - 1
            if 2 ** s != q:
                raise ValueError(f"base {q} is not a power of 2")
            out.append(s)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.bases)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bases)

    def __getitem__(self, n: int) -> int:
        return self.bases[n]


def _as_bases(q) -> BasicSequence:
    return q if isinstance(q, BasicSequence) else BasicSequence(tuple(q))


@dataclass(frozen=True)
class CantorDigits:
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
    a run of up to 32 terms takes N <- N q_n + a_n, D <- D q_n."""
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
    return Fraction(*split(0, len(d.digits)))


def orbit(x, q, n: int) -> list[Fraction]:
    """Points y_0 = x and y_{i+1} = y_i * q_i mod 1 for i < n, all exact."""
    b, _, remainders = _greedy(x, q, n)
    return [Fraction(r, b) for r in remainders]


def orbit_low_counts(x, exponents: Iterable[int],
                     checkpoints: Sequence[int]) -> list[int]:
    """For each checkpoint c, how many orbit points y_0 .. y_{c-1} of x under
    the bases 2**s_k lie in [0, 1/2), on integers: with x = a/b in lowest
    terms, r_0 = a, r_{k+1} = (r_k << s_k) % b, and y_k < 1/2 iff 2 r_k < b.
    The exponents are read lazily, as far as the largest checkpoint needs."""
    value = Fraction(x)
    if not 0 <= value < 1:
        raise ValueError(f"x must lie in [0, 1), got {value}")
    b, r, low, counts = value.denominator, value.numerator, 0, {0: 0}
    wanted = set(checkpoints)
    for k, s in enumerate(islice(chain((0,), exponents), max(wanted, default=0)), 1):
        r = (r << s) % b
        low += 2 * r < b
        if k in wanted:
            counts[k] = low
    if wanted - counts.keys():
        raise ValueError("checkpoints must lie in [0, exponents + 1], "
                         f"got {sorted(wanted)}")
    return [counts[c] for c in checkpoints]
