"""Stock bit-sequence generators used to populate program registries.

Each generator is a total map position -> bit. Where the generated stream
denotes a rational number (everything except the concatenation sequence),
`exact_value` returns it, which lets report code cross-check bit
classifications against true mod-1 orbit points.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .cantor import _as_word, value_of_bits
from .errors import ConfigError


def champernowne_digit(base: int, index: int) -> int:
    """Digit `index` of the concatenated numerals 0, 1, 2, ... in `base`."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if index < 0:
        raise ValueError("index must be >= 0")
    if index == 0:
        return 0  # the numeral for 0
    idx = index - 1
    length = 1
    while True:
        span = (base - 1) * base ** (length - 1) * length
        if idx < span:
            numeral = base ** (length - 1) + idx // length
            pos = idx % length
            return numeral // base ** (length - 1 - pos) % base
        idx -= span
        length += 1


def champernowne_bits(base: int, n: int) -> list[int]:
    """First n digits of the concatenation of 0, 1, 2, ... written in `base`."""
    if n < 0:
        raise ValueError("digit count must be >= 0")
    return [champernowne_digit(base, i) for i in range(n)]


def rational_bits(p: int, q: int, n: int) -> list[int]:
    """First n bits of p/q.

    Dyadic inputs come out as the terminating expansion (all-zero tail),
    never as an all-ones tail.
    """
    return RationalBits(p, q).prefix(n)


def periodic_bits(pattern: Sequence[int], n: int) -> list[int]:
    """The pattern repeated and truncated to n bits."""
    return PeriodicBits(pattern).prefix(n)


@dataclass(frozen=True)
class Oracle:
    """Infinite bit source: an explicit finite prefix, one default bit beyond."""

    prefix: tuple[int, ...] = ()
    default: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", _as_word(self.prefix))
        _as_word((self.default,))

    def bit_at(self, position: int) -> int:
        return OracleBits(self).bit_at(position)


def _sorted_table(items: Mapping[int, int] | Sequence[tuple[int, int]]
                 ) -> tuple[tuple[int, int], ...]:
    """(position, value) pairs of a table, sorted by position; positions must
    be distinct and >= 0."""
    pairs = items.items() if isinstance(items, Mapping) else items
    table = tuple(sorted((int(p), int(v)) for p, v in pairs))
    if len({p for p, _ in table}) != len(table):
        raise ValueError("duplicate table position")
    for p, _ in table:
        if p < 0:
            raise ValueError(f"position must be >= 0, got {p}")
    return table


def _check_position(position: int) -> int:
    if position < 0:
        raise ValueError("position must be >= 0")
    return position


class BitGenerator(ABC):
    """A total map from positions to bits."""

    kind: str = ""

    @abstractmethod
    def bits(self, positions: Iterable[int]) -> Iterator[int]:
        """The bits at a non-decreasing run of positions >= 0, in one pass;
        the run is not checked."""

    def bit_at(self, position: int) -> int:
        # each kind re-binds bit_at in its class body: perfbench/tracing.py
        # wraps it per class until a run-stats side channel replaces that
        return next(self.bits((_check_position(position),)))

    def prefix(self, n: int) -> list[int]:
        if n < 0:
            raise ValueError("bit count must be >= 0")
        return list(self.bits(range(n)))

    @abstractmethod
    def exact_value(self) -> Fraction | None:
        """The stream's value as the sum of bit(n) / 2**(n+1), when rational."""

    @abstractmethod
    def ends_in_ones(self) -> bool:
        """True when all but finitely many bits are 1."""

    @abstractmethod
    def params(self) -> dict: ...

    def to_config(self) -> dict:
        return {"kind": self.kind, **self.params()}


@dataclass(frozen=True)
class ConstantBits(BitGenerator):
    bit: int = 0
    kind = "constant"
    bit_at = BitGenerator.bit_at

    def __post_init__(self) -> None:
        _as_word((self.bit,))

    def bits(self, positions: Iterable[int]) -> Iterator[int]:
        return (self.bit for _ in positions)

    def exact_value(self) -> Fraction:
        return Fraction(self.bit)

    def ends_in_ones(self) -> bool:
        return self.bit == 1

    def params(self) -> dict:
        return {"bit": self.bit}


@dataclass(frozen=True)
class PeriodicBits(BitGenerator):
    pattern: tuple[int, ...]
    kind = "periodic"
    bit_at = BitGenerator.bit_at

    def __post_init__(self) -> None:
        object.__setattr__(self, "pattern", _as_word(self.pattern))
        if not self.pattern:
            raise ValueError("pattern must be nonempty")

    def bits(self, positions: Iterable[int]) -> Iterator[int]:
        pattern, n = self.pattern, len(self.pattern)
        return (pattern[p % n] for p in positions)

    def exact_value(self) -> Fraction:
        word = value_of_bits(self.pattern)
        return Fraction(word.numerator, 2 ** word.exponent - 1)

    def ends_in_ones(self) -> bool:
        return all(b == 1 for b in self.pattern)

    def params(self) -> dict:
        return {"pattern": "".join(str(b) for b in self.pattern)}


@dataclass(frozen=True)
class TableBits(BitGenerator):
    """Finitely many explicit bits over a constant default."""

    assignments: Mapping[int, int] | tuple[tuple[int, int], ...] = ()
    default: int = 0
    kind = "table"
    bit_at = BitGenerator.bit_at

    def __post_init__(self) -> None:
        norm = _sorted_table(self.assignments)
        _as_word(b for _, b in norm)
        _as_word((self.default,))
        object.__setattr__(self, "assignments", norm)

    def bits(self, positions: Iterable[int]) -> Iterator[int]:
        lookup, default = dict(self.assignments).get, self.default
        return (lookup(p, default) for p in positions)

    def exact_value(self) -> Fraction:
        value = Fraction(self.default)
        for p, b in self.assignments:
            value += Fraction(b - self.default, 2 ** (p + 1))
        return value

    def ends_in_ones(self) -> bool:
        return self.default == 1

    def params(self) -> dict:
        return {"bits": {str(p): b for p, b in self.assignments},
                "default": self.default}


@dataclass(frozen=True)
class RationalBits(BitGenerator):
    """Binary expansion of numerator/denominator, terminating form preferred."""

    numerator: int
    denominator: int
    kind = "rational"
    bit_at = BitGenerator.bit_at

    def __post_init__(self) -> None:
        if self.denominator <= 0 or not 0 <= self.numerator < self.denominator:
            raise ValueError(
                f"need 0 <= p < q, got {self.numerator}/{self.denominator}")

    def bits(self, positions: Iterable[int]) -> Iterator[int]:
        # digit extraction (Bailey, Borwein and Plouffe 1997): carry
        # r = numerator * 2**p mod denominator; bit p is floor(2r / denominator)
        b, r, at = self.denominator, self.numerator, 0
        for p in positions:
            r = r * pow(2, p - at, b) % b
            at = p
            yield 2 * r // b

    def exact_value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def ends_in_ones(self) -> bool:
        return False

    def params(self) -> dict:
        return {"numerator": self.numerator, "denominator": self.denominator}


@dataclass(frozen=True)
class ChampernowneBits(BitGenerator):
    """Base-2 concatenation of 0, 1, 10, 11, 100, ... (irrational value)."""

    kind = "champernowne"
    bit_at = BitGenerator.bit_at

    def bits(self, positions: Iterable[int]) -> Iterator[int]:
        return (champernowne_digit(2, p) for p in positions)

    def exact_value(self) -> None:
        return None

    def ends_in_ones(self) -> bool:
        return False

    def params(self) -> dict:
        return {}


@dataclass(frozen=True)
class OracleBits(BitGenerator):
    """Bit `position` of the attached oracle."""

    oracle: Oracle
    kind = "oracle-bit"
    bit_at = BitGenerator.bit_at

    def bits(self, positions: Iterable[int]) -> Iterator[int]:
        prefix, default = self.oracle.prefix, self.oracle.default
        n = len(prefix)
        return (prefix[p] if p < n else default for p in positions)

    def exact_value(self) -> Fraction:
        word = value_of_bits(self.oracle.prefix)
        return Fraction(word.numerator + self.oracle.default, 2 ** word.exponent)

    def ends_in_ones(self) -> bool:
        return self.oracle.default == 1

    def params(self) -> dict:
        return {}


def _config_int(cfg: Mapping, key: str, default: int | None = None) -> int:
    """An integer config value: JSON booleans, floats and strings are refused
    rather than coerced."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return value


def _config_bit(cfg: Mapping, key: str, default: int | None = None) -> int:
    value = _config_int(cfg, key, default)
    if value not in (0, 1):
        raise ConfigError(f"{key!r} must be 0 or 1, got {value!r}")
    return value


def _config_word(cfg: Mapping, key: str,
                 default: str | None = None) -> tuple[int, ...]:
    """A bit word written as a string of 0/1 characters."""
    text = cfg.get(key, default)
    if not isinstance(text, str) or set(text) - {"0", "1"}:
        raise ConfigError(f"{key!r} must be a string of 0/1, got {text!r}")
    return tuple(int(c) for c in text)


def _config_table(cfg: Mapping, key: str) -> dict[int, int]:
    """A table whose keys are canonical decimal position strings ("7", never
    "07" or "+7", so that no two keys name one position) and values integers."""
    raw = cfg.get(key, {})
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{key!r} must map positions to integers")
    table = {}
    for p in raw:
        if str(int(p)) != p:
            raise ConfigError(
                f"{key!r} keys must be canonical decimal positions, got {p!r}")
        table[int(p)] = _config_int(raw, p)
    return table


def generator_from_config(cfg: Mapping, oracle: Oracle | None = None) -> BitGenerator:
    """Build a generator from one registry-config entry (sans halting rule)."""
    kind = cfg.get("kind")
    try:
        if kind == "constant":
            return ConstantBits(_config_bit(cfg, "bit", 0))
        if kind == "periodic":
            return PeriodicBits(_config_word(cfg, "pattern"))
        if kind == "table":
            return TableBits(_config_table(cfg, "bits"),
                             _config_bit(cfg, "default", 0))
        if kind == "rational":
            return RationalBits(_config_int(cfg, "numerator", 0),
                                _config_int(cfg, "denominator", 1))
        if kind == "champernowne":
            return ChampernowneBits()
        if kind == "oracle-bit":
            if oracle is None:
                raise ConfigError("oracle-bit program requires an oracle")
            return OracleBits(oracle)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} program: {exc}") from None
    raise ConfigError(f"unknown program kind: {kind!r}")
