"""The frozen-record base of the value types, exact binary words, and the one
constructor of their exact values: what the registry layer needs, without
importing `dataclasses`, `fractions` or the Cantor series. `fractions`, with
`decimal` and `numbers`, is imported when `exact` first builds a value,
which a registry load never does.

A binary word is held as bytes, one byte 0 or 1 per bit, the format of every
generator window and halting mask, and this module alone knows how it is
written as text, one character "0" or "1" per bit. `_TEXT_TO_BITS` and
`_BITS_TO_TEXT` translate between the two, and `_FLIP_BITS` swaps a word's
0s and 1s, each in one C-level pass, so no conversion of a word loops over
its bits in Python."""

from __future__ import annotations

from collections.abc import Sequence

_MISSING = object()  # no default: a field whose class attribute is absent
_TEXT_TO_BITS = bytes.maketrans(b"01", b"\0\1")  # 0/1 text to 0/1 bytes
_BITS_TO_TEXT = bytes.maketrans(b"\0\1", b"01")  # 0/1 bytes to 0/1 text
_FLIP_BITS = bytes.maketrans(b"\0\1", b"\1\0")  # 0/1 bytes, each bit flipped


class Record:
    """Base of the package's frozen value types, behaving as
    `@dataclass(frozen=True)` would, without the code that the decorator
    generates and compiles per class on every start of the program.

    A subclass's fields, its `__match_args__`, are its annotated names in
    order, after those of a record it extends, and a class attribute of a
    field's name is its default. Records init (then call `__post_init__`),
    compare, hash and print as that dataclass would, refuse assignment and
    deletion with `dataclasses.FrozenInstanceError` (imported only then),
    and pickle. They are not dataclasses: as on a namedtuple, `_asdict`
    gives their fields by name and `_replace` a copy with some changed."""

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
            state[field] = kwargs.pop(field, getattr(cls, field, _MISSING))
            if state[field] is _MISSING:
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

    def _replace(self, **changes):
        """A copy with `changes`, through `__init__` and `__post_init__`."""
        return type(self)(**{**self._asdict(), **changes})

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
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def exact(numerator: int, denominator: int = 1) -> Fraction:
    """`Fraction(numerator, denominator)`, reduced without `math.gcd` when
    the numerator is positive and the denominator a power of two. `fractions`,
    which imports `decimal` and `numbers`, is imported on the first call, so
    that a start that builds no exact value, a registry load among them,
    never loads it."""
    from fractions import Fraction
    if numerator > 0 and denominator > 0 and not denominator & (denominator - 1):
        # a dyadic value is in lowest terms once both sides are shifted right
        # by their shared power of two, the lesser of the numerator's lowest
        # set bit and the denominator. The pair is then built as `fractions`
        # builds one it knows is coprime (3.12's `_from_coprime_ints`),
        # without the constructor's `math.gcd`, quadratic in the bit length
        zeros = min(numerator & -numerator, denominator).bit_length() - 1
        value = object.__new__(Fraction)
        value._numerator = numerator >> zeros
        value._denominator = denominator >> zeros
        return value
    return Fraction(numerator, denominator)


def _as_word(bits: Sequence[int]) -> bytes:
    """`bits` as 0/1 bytes, each item equal to 0 or 1: `bits` itself when
    it is bytes, else its items, bools among them, each as one byte. A bytes
    word is checked by one C-level pass, which deletes its 0s and 1s and
    leaves a byte only where one is bad; a tuple by counting its 0s and 1s.
    An item that equals 0 or 1 but is no int, as 1.0 is, is refused by
    `bytes`."""
    word = bits if isinstance(bits, bytes) else tuple(bits)
    if (word.translate(None, b"\0\1") if isinstance(word, bytes)
            else word.count(0) + word.count(1) != len(word)):
        bad = next(b for b in word if b not in (0, 1))
        raise ValueError(f"bit out of range: {bad!r}")
    return bytes(word)


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
        return exact(self.numerator, 2 ** self.exponent)


def value_of_bits(bits: Sequence[int]) -> DyadicValue:
    """Value of a finite word w as the sum of w(n) / 2**(n+1)."""
    word = _as_word(bits)
    return DyadicValue(int(b"0" + word.translate(_BITS_TO_TEXT), 2), len(word))


def shift(bits: Sequence[int], n: int) -> tuple[int, ...]:
    """The word with its first n bits dropped."""
    word = _as_word(bits)
    if not 0 <= n <= len(word):
        raise ValueError(f"cannot drop {n} bits from a word of length {len(word)}")
    return tuple(word[n:])
