"""Stock bit-sequence generators used to populate program registries.

Each generator is a total map position -> bit. Where the generated stream
denotes a rational number (everything except the concatenation sequence),
each kind's `_value` gives it as a numerator, a denominator and whether the
bits end in all ones, in one pass; `exact_value` and `ends_in_ones` are read
from it, and report code reads it once to cross-check bit classifications
against true mod-1 orbit points.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, count, islice, product

from .errors import ConfigError
from .records import (_BITS_TO_TEXT, _TEXT_TO_BITS, Record, _as_word, exact,
                      value_of_bits)


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


def _champernowne(base: int, start: int, stop: int) -> Iterator[int]:
    """Digits start..stop-1 of the concatenation of 0, 1, 2, ... written in
    `base`, for base >= 2 and start >= 0 (neither checked); none when stop
    <= start."""
    # the numerals from `numeral` to base**length - 1 have `length` digits
    # and fill the digits from `at` on; 0 is the one-digit numeral before 1.
    # No digit before position `stop` exceeds `stop` (a base above it only
    # reads one-digit numerals there), so digit ranges are cut at `cap`
    numeral, length, at, cap = 0, 1, 0, min(base, stop + 1)
    while start >= (end := at + (base ** length - numeral) * length):
        numeral, length, at = base ** length, length + 1, end
    numeral, skip = numeral + (start - at) // length, (start - at) % length
    digits = [numeral // base ** k % base for k in reversed(range(length))]
    # after the rest of that numeral, the numerals above it of its length,
    # in order: for each digit from the last, those that agree with it
    # before that digit and exceed it there; then each longer length whole
    above = (product(*zip(digits[:i]), range(digits[i] + 1, cap),
                     *[range(cap)] * (length - 1 - i))
             for i in reversed(range(length)))
    longer = (product(range(1, cap), *[range(cap)] * n) for n in count(length))
    numerals = chain.from_iterable(chain([[digits[skip:]]], above, longer))
    return islice(chain.from_iterable(numerals), max(stop - start, 0))


def champernowne_bits(base: int, n: int) -> list[int]:
    """First n digits of the concatenation of 0, 1, 2, ... written in `base`."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 0:
        raise ValueError("digit count must be >= 0")
    return list(_champernowne(base, 0, n))


def rational_bits(p: int, q: int, n: int) -> list[int]:
    """First n bits of p/q.

    Dyadic inputs come out as the terminating expansion (all-zero tail),
    never as an all-ones tail.
    """
    return RationalBits(p, q).prefix(n)


def periodic_bits(pattern: Sequence[int], n: int) -> list[int]:
    """The pattern repeated and truncated to n bits."""
    return PeriodicBits(pattern).prefix(n)


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


def _config_word(cfg: Mapping, key: str, default: str | None) -> bytes:
    """A bit word written as a string of 0/1 characters."""
    text = cfg.get(key, default)
    if not isinstance(text, str) or set(text) - {"0", "1"}:
        raise ConfigError(f"{key!r} must be a string of 0/1, got {text!r}")
    return text.encode().translate(_TEXT_TO_BITS)


def _config_table(cfg: Mapping, key: str, default: Mapping) -> dict[int, int]:
    """A table whose keys are canonical decimal position strings ("7", never
    "07" or "+7", so that no two keys name one position) and values integers."""
    raw = cfg.get(key, default)
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{key!r} must map positions to integers")
    table = {}
    for p in raw:
        if str(int(p)) != p:
            raise ConfigError(
                f"{key!r} keys must be canonical decimal positions, got {p!r}")
        table[int(p)] = _config_int(raw, p)
    return table


# each reader's inverse, from an attribute value to its registry/1 value
_WRITERS = {_config_int: int, _config_bit: int,
            _config_word: lambda word: word.translate(_BITS_TO_TEXT).decode(),
            _config_table: lambda table: {str(p): v for p, v in table}}


def _check_keys(cfg: Mapping, keys: Sequence) -> None:
    """Refuse the first key of `cfg` that is not among `keys`."""
    for key in cfg:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r}")


def _read_fields(cls, cfg: Mapping, what: str, head: tuple = (), *args):
    """`cls(*args, ...)`, each field that `cls._fields` declares in order as
    (key, attribute, reader, default) read from `cfg`, which may hold no keys
    but those and `head`'s; any error is a ConfigError `bad {what}: ...`."""
    try:
        _check_keys(cfg, (*head, *(key for key, *_ in cls._fields)))
        return cls(*args, *(read(cfg, key, default)
                            for key, _, read, default in cls._fields))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from None


def _write_fields(obj, head: dict) -> dict:
    """`head`, then the registry/1 value of each field `obj` declares."""
    return {**head, **{key: _WRITERS[read](getattr(obj, attr))
                       for key, attr, read, _ in obj._fields}}


def _named(classes: Mapping, name, what: str):
    """The class `name` picks; any other name, even unhashable, is refused."""
    if isinstance(name, str) and name in classes:
        return classes[name]
    raise ConfigError(f"unknown {what}: {name!r}")


class Oracle(Record):
    """Infinite bit source: an explicit finite prefix, one default bit beyond.
    The prefix is held as 0/1 bytes, whatever sequence of bits it was given
    as."""

    prefix: bytes = b""
    default: int = 0
    _fields = (("prefix", "prefix", _config_word, ""),
               ("default", "default", _config_bit, 0))

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
    if table and table[0][0] < 0:  # sorted, so the least position is first
        raise ValueError(f"position must be >= 0, got {table[0][0]}")
    return table


def _table_window(table: tuple[tuple[int, int], ...], default: int,
                  start: int, stop: int, value=int) -> bytes:
    """One byte per position in [start, stop): value(default), and
    value(v) at each (position, v) pair of the sorted table inside the
    window, found by bisection."""
    out = bytearray((value(default),)) * (stop - start)
    for p, v in table[bisect_left(table, (start,)):bisect_left(table, (stop,))]:
        out[p - start] = value(v)
    return bytes(out)


def _check_position(position: int) -> int:
    if position < 0:
        raise ValueError("position must be >= 0")
    return position


class BitGenerator(ABC):
    """A total map from positions to bits. A kind defines `window` and
    `_value`; the other methods are derived from them."""

    kind: str = ""
    # the registry/1 fields after `kind`, as `_read_fields` reads them
    _fields: tuple = ()

    @abstractmethod
    def window(self, start: int, stop: int) -> bytes:
        """One 0/1 byte per position in [start, stop), empty when stop <=
        start; both must be >= 0, which is not checked."""

    def bits(self, positions: Iterable[int]) -> Iterator[int]:
        """The bits at positions >= 0, one one-position window each."""
        return map(self.bit_at, positions)

    def bit_at(self, position: int) -> int:
        # each kind re-binds bit_at in its class body: perfbench/tracing.py
        # wraps it per class until a run-stats side channel replaces that
        return self.window(_check_position(position), position + 1)[0]

    def prefix(self, n: int) -> list[int]:
        if n < 0:
            raise ValueError("bit count must be >= 0")
        return list(self.window(0, n))

    @abstractmethod
    def _value(self) -> tuple[int, int, bool] | None:
        """(numerator, denominator, ends_in_ones) of the stream's value, the
        sum of bit(n) / 2**(n+1), when it is rational, else None. The pair
        need not be coprime; the flag is True when all but finitely many
        bits are 1."""

    def exact_value(self) -> Fraction | None:
        """The stream's value as the sum of bit(n) / 2**(n+1), when rational."""
        value = self._value()
        return None if value is None else exact(*value[:2])

    def ends_in_ones(self) -> bool:
        """True when all but finitely many bits are 1. This computes the
        whole value, as `_value` gives both at once: on a long word or a far
        table bit it costs what `exact_value` costs, less the reduction.
        Nothing in the package calls it on its own."""
        value = self._value()
        return value is not None and value[2]

    def to_config(self) -> dict:
        return _write_fields(self, {"kind": self.kind})


class ConstantBits(BitGenerator, Record):
    bit: int = 0
    kind = "constant"
    _fields = (("bit", "bit", _config_bit, 0),)
    bit_at = BitGenerator.bit_at

    def __post_init__(self) -> None:
        _as_word((self.bit,))

    def window(self, start: int, stop: int) -> bytes:
        return bytes((self.bit,)) * (stop - start)

    def _value(self) -> tuple[int, int, bool]:
        return self.bit, 1, self.bit == 1


class PeriodicBits(BitGenerator, Record):
    """The pattern, held as 0/1 bytes, repeated forever."""

    pattern: bytes
    kind = "periodic"
    _fields = (("pattern", "pattern", _config_word, None),)
    bit_at = BitGenerator.bit_at

    def __post_init__(self) -> None:
        object.__setattr__(self, "pattern", _as_word(self.pattern))
        if not self.pattern:
            raise ValueError("pattern must be nonempty")

    def window(self, start: int, stop: int) -> bytes:
        # the pattern rotated to `start`, repeated past `stop` and cut there
        k, width = start % len(self.pattern), stop - start
        rotated = self.pattern[k:] + self.pattern[:k]
        return (rotated * (width // len(rotated) + 1))[:max(width, 0)]

    def _value(self) -> tuple[int, int, bool]:
        word = value_of_bits(self.pattern)
        return word.numerator, 2 ** word.exponent - 1, 0 not in self.pattern


class TableBits(BitGenerator, Record):
    """Finitely many explicit bits over a constant default."""

    assignments: Mapping[int, int] | tuple[tuple[int, int], ...] = ()
    default: int = 0
    kind = "table"
    _fields = (("bits", "assignments", _config_table, {}),
               ("default", "default", _config_bit, 0))
    bit_at = BitGenerator.bit_at

    def __post_init__(self) -> None:
        norm = _sorted_table(self.assignments)
        _as_word(b for _, b in norm)
        _as_word((self.default,))
        object.__setattr__(self, "assignments", norm)

    def window(self, start: int, stop: int) -> bytes:
        return _table_window(self.assignments, self.default, start, stop)

    def _value(self) -> tuple[int, int, bool]:
        # the n bits through the last listed position, then the default d
        # forever: with `word` the n-bit numeral whose 1s mark the listed
        # bits that differ from d, the value is word / 2**n for d = 0 and
        # (2**n - word) / 2**n for d = 1. The word is packed a byte at a
        # time, in O(n/8 + entries), not as a shifted n-bit int per entry
        d, n = self.default, max((p + 1 for p, _ in self.assignments), default=0)
        flips = bytearray((n + 7) // 8)
        for p, b in self.assignments:
            flips[p // 8] |= (b ^ d) << (7 - p % 8)
        word = int.from_bytes(flips, "big") >> (-n % 8)
        return (1 << n) - word if d else word, 1 << n, d == 1


class RationalBits(BitGenerator, Record):
    """Binary expansion of numerator/denominator, terminating form preferred."""

    numerator: int
    denominator: int
    kind = "rational"
    _fields = (("numerator", "numerator", _config_int, 0),
               ("denominator", "denominator", _config_int, 1))
    bit_at = BitGenerator.bit_at

    def __post_init__(self) -> None:
        if self.denominator <= 0 or not 0 <= self.numerator < self.denominator:
            raise ValueError(
                f"need 0 <= p < q, got {self.numerator}/{self.denominator}")

    def window(self, start: int, stop: int) -> bytes:
        # digit extraction (Bailey, Borwein and Plouffe 1997): with
        # r = numerator * 2**start mod denominator, the w bits from `start`
        # are floor(r * 2**w / denominator) as a w-bit numeral
        width = stop - start
        if width <= 0:
            return b""
        b = self.denominator
        r = self.numerator * pow(2, start, b) % b
        return format((r << width) // b, f"0{width}b").encode().translate(
            _TEXT_TO_BITS)

    def _value(self) -> tuple[int, int, bool]:
        return self.numerator, self.denominator, False


class ChampernowneBits(BitGenerator, Record):
    """Base-2 concatenation of 0, 1, 10, 11, 100, ... (irrational value)."""

    kind = "champernowne"
    bit_at = BitGenerator.bit_at

    def window(self, start: int, stop: int) -> bytes:
        return bytes(_champernowne(2, start, stop))

    def _value(self) -> None:
        return None


class OracleBits(BitGenerator, Record):
    """Bit `position` of the attached oracle."""

    oracle: Oracle
    kind = "oracle-bit"
    bit_at = BitGenerator.bit_at

    def window(self, start: int, stop: int) -> bytes:
        prefix, default = self.oracle.prefix, bytes((self.oracle.default,))
        return prefix[start:stop] + default * (stop - max(start, len(prefix)))

    def _value(self) -> tuple[int, int, bool]:
        word, default = value_of_bits(self.oracle.prefix), self.oracle.default
        return word.numerator + default, 2 ** word.exponent, default == 1


_KINDS = {cls.kind: cls for cls in (ConstantBits, PeriodicBits, TableBits,
                                    RationalBits, ChampernowneBits, OracleBits)}


def generator_from_config(cfg: Mapping, oracle: Oracle | None = None) -> BitGenerator:
    """Build a generator from one registry-config entry (sans halting rule)."""
    kind = cfg.get("kind")
    cls = _named(_KINDS, kind, "program kind")
    if cls is OracleBits and oracle is None:
        raise ConfigError("oracle-bit program requires an oracle")
    args = (oracle,) if cls is OracleBits else ()
    return _read_fields(cls, cfg, f"{kind} program", ("kind", "halt"), *args)
