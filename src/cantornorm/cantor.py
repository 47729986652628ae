"""Exact arithmetic for binary words, Cantor series expansions, and mod-1 orbits.

Everything here is exact: finite binary words, dyadic numerator/exponent
pairs, and `fractions.Fraction`. The base products q_0 q_1 ... q_n grow
multiplicatively, so floating point would corrupt mod-1 values within a few
steps; floats are left to presentation layers.
"""

from __future__ import annotations

from array import array
from collections import abc
from dataclasses import MISSING, FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence


class Record:
    """Base of the package's frozen value types, behaving as
    `@dataclass(frozen=True)` would, without the code that the decorator
    generates and compiles per class on every start of the program.

    A subclass's fields, its `__match_args__`, are its annotated names in
    order, after those of a record it extends, and a class attribute of a
    field's name is its default. Records init (then call `__post_init__`),
    compare, hash and print as that dataclass would, refuse assignment and
    deletion with `FrozenInstanceError`, and pickle; `dataclasses.fields`
    and `asdict` do not apply to them, `_asdict` gives their fields by
    name."""

    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(dict.fromkeys(
            (*cls.__match_args__, *cls.__dict__.get("__annotations__", ()))))

    def __init__(self, *args, **kwargs) -> None:
        cls, fields, state = type(self), self.__match_args__, self.__dict__
        given = len(args)
        if given > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} "
                            f"positional arguments but {given} were given")
        state.update(zip(fields, args))
        for field in fields[given:]:
            state[field] = kwargs.pop(field, getattr(cls, field, MISSING))
            if state[field] is MISSING:
                raise TypeError(f"{cls.__qualname__}() missing argument "
                                f"{field!r}")
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got an unexpected or "
                            f"repeated keyword argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return {name: self.__dict__[name] for name in self.__match_args__}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a record equals itself, as a tuple of its fields does
        return other is self or self._asdict() == other._asdict()

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _as_word(bits: Sequence[int]) -> tuple[int, ...]:
    word = tuple(bits)
    for b in word:
        if b not in (0, 1):
            raise ValueError(f"bit out of range: {b!r}")
    return word


class DyadicValue(Record):
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


class Ints(abc.Sequence):
    """A read-only sequence of ints held as 64-bit C integers: the items of
    `data`, an `array('q')` or a memoryview of one, or with `powers` set the
    ints 2**s for each item s of `data`. It equals a tuple or an `Ints` with
    the same items, either way round and inside tuples, and hashes as that
    tuple; a slice is a view into the same memory, and `+` gives a tuple."""

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


@dataclass(frozen=True)
class BasicSequence:
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
