"""Registry of effectively presented binary sequences with declared settling times.

An entry's step-bounded value at a position is its settled bit once the
entry's declared halting time there is within the budget, and 0 before that;
each value therefore changes at most once as the budget grows, and only from
0 to 1. Halting times are declared at registration rather than measured,
which keeps settlement decidable and every downstream construction exact.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ConfigError
from .generators import (BitGenerator, Oracle, _check_position, _config_bit,
                         _config_int, _config_table, _config_word,
                         _sorted_table, generator_from_config)

REGISTRY_FORMAT = "registry/1"


class HaltRule(ABC):
    """Total map position -> number of steps before the value there appears."""

    rule: str = ""

    @abstractmethod
    def steps_over(self, positions: Iterable[int]) -> Iterator[int]:
        """The halting times at a non-decreasing run of positions >= 0, in
        one pass; the run is not checked."""

    def steps_at(self, position: int) -> int:
        return next(self.steps_over((_check_position(position),)))

    @abstractmethod
    def max_through(self, position: int) -> int:
        """Largest steps_at(p) over p <= position."""

    @abstractmethod
    def params(self) -> dict: ...

    def to_config(self) -> dict:
        return {"rule": self.rule, **self.params()}


@dataclass(frozen=True)
class ConstantHalt(HaltRule):
    steps: int = 0
    rule = "constant"
    max_through = HaltRule.steps_at  # the rule is nondecreasing

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be >= 0")

    def steps_over(self, positions: Iterable[int]) -> Iterator[int]:
        return (self.steps for _ in positions)

    def params(self) -> dict:
        return {"steps": self.steps}


@dataclass(frozen=True)
class LinearHalt(HaltRule):
    slope: int = 1
    intercept: int = 0
    rule = "linear"
    max_through = HaltRule.steps_at  # nondecreasing since slope >= 0

    def __post_init__(self) -> None:
        if self.slope < 0 or self.intercept < 0:
            raise ValueError("slope and intercept must be >= 0")

    def steps_over(self, positions: Iterable[int]) -> Iterator[int]:
        return (self.slope * p + self.intercept for p in positions)

    def params(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept}


@dataclass(frozen=True)
class TableHalt(HaltRule):
    """Finitely many explicit halting times over a constant default."""

    entries: Mapping[int, int] | tuple[tuple[int, int], ...] = ()
    default: int = 0
    rule = "table"

    def __post_init__(self) -> None:
        norm = _sorted_table(self.entries)
        if self.default < 0 or any(s < 0 for _, s in norm):
            raise ValueError("steps must be >= 0")
        object.__setattr__(self, "entries", norm)

    def steps_over(self, positions: Iterable[int]) -> Iterator[int]:
        lookup, default = dict(self.entries).get, self.default
        return (lookup(p, default) for p in positions)

    def max_through(self, position: int) -> int:
        _check_position(position)
        listed = [s for p, s in self.entries if p <= position]
        # the default applies unless every position <= `position` is listed
        if len(listed) < position + 1:
            listed.append(self.default)
        return max(listed)

    def params(self) -> dict:
        return {"steps": {str(p): s for p, s in self.entries},
                "default": self.default}


def halt_from_config(cfg) -> HaltRule:
    """Build a halting rule from config; missing config means settled at once."""
    if cfg is None:
        return ConstantHalt(0)
    if not isinstance(cfg, Mapping):
        raise ConfigError("'halt' must be an object")
    rule = cfg.get("rule")
    try:
        if rule == "constant":
            return ConstantHalt(_config_int(cfg, "steps", 0))
        if rule == "linear":
            return LinearHalt(_config_int(cfg, "slope", 1),
                              _config_int(cfg, "intercept", 0))
        if rule == "table":
            return TableHalt(_config_table(cfg, "steps"),
                             _config_int(cfg, "default", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {rule} halting rule: {exc}") from None
    raise ConfigError(f"unknown halting rule: {rule!r}")


@dataclass(frozen=True)
class ProgramEntry:
    index: int
    generator: BitGenerator
    halt: HaltRule
    alias_of: int | None = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("index must be >= 0")


@dataclass(frozen=True)
class Registry:
    """Ordered program entries plus an optional oracle bit source."""

    entries: tuple[ProgramEntry, ...] = ()
    oracle: Oracle | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        for pos, entry in enumerate(self.entries):
            if entry.index != pos:
                raise ConfigError(
                    f"entry at position {pos} carries index {entry.index}")
            if entry.alias_of is not None:
                if not 0 <= entry.alias_of < pos:
                    raise ConfigError(
                        f"entry {pos}: alias_of must name an earlier entry")
                target = self.entries[entry.alias_of]
                if entry.generator != target.generator or entry.halt != target.halt:
                    raise ConfigError(
                        f"entry {pos}: alias must share its target's generator "
                        f"and halting rule")

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, e: int) -> ProgramEntry:
        if not 0 <= e < len(self.entries):
            raise IndexError(f"unknown program index: {e}")
        return self.entries[e]

    def eval_window(self, e: int, budget: int,
                    positions: Sequence[int]) -> Iterator[int]:
        """Program e's values after `budget` steps at a non-decreasing range or
        sequence of positions >= 0, in one pass: at each, the settled bit once
        the declared halting time is within budget, 0 before that."""
        entry = self.entry(e)
        if budget < 0:
            raise ValueError("budget must be >= 0")
        return (bit if steps <= budget else 0 for bit, steps in zip(
            entry.generator.bits(positions), entry.halt.steps_over(positions)))

    def eval_bounded(self, e: int, budget: int, position: int) -> int:
        """Program e's value at `position` after `budget` steps."""
        return next(self.eval_window(e, budget, (_check_position(position),)))

    def eval_limit(self, e: int, position: int) -> int:
        """Program e's settled bit at `position`."""
        return self.entry(e).generator.bit_at(position)

    def settle_budget(self, e: int, max_position: int) -> int:
        """A budget settling program e on every position <= max_position."""
        return self.entry(e).halt.max_through(max_position)

    def root_of(self, e: int) -> int:
        """The non-alias index an entry ultimately duplicates."""
        entry = self.entry(e)
        while entry.alias_of is not None:
            entry = self.entries[entry.alias_of]
        return entry.index

    def alias_groups(self) -> dict[int, list[int]]:
        """Indices grouped by the non-alias entry they duplicate."""
        groups: dict[int, list[int]] = {}
        for entry in self.entries:
            groups.setdefault(self.root_of(entry.index), []).append(entry.index)
        return groups

    @classmethod
    def assemble(cls, programs: Sequence, oracle: Oracle | None = None) -> "Registry":
        """Entries from (generator, halt) pairs; a bare int aliases that index."""
        entries: list[ProgramEntry] = []
        for item in programs:
            if isinstance(item, int):
                if not 0 <= item < len(entries):
                    raise ConfigError(
                        f"alias target {item} must name an earlier entry")
                target = entries[item]
                entries.append(ProgramEntry(len(entries), target.generator,
                                            target.halt, alias_of=item))
            else:
                generator, halt = item
                entries.append(ProgramEntry(len(entries), generator, halt))
        return cls(tuple(entries), oracle)

    @classmethod
    def from_config(cls, cfg: Mapping, oracle: Oracle | None = None) -> "Registry":
        """Registry from a parsed config object; a passed oracle wins over the
        config's own."""
        if not isinstance(cfg, Mapping):
            raise ConfigError("registry config must be a JSON object")
        fmt = cfg.get("format", REGISTRY_FORMAT)
        if fmt != REGISTRY_FORMAT:
            raise ConfigError(f"unsupported registry format: {fmt!r}")
        if oracle is None and cfg.get("oracle") is not None:
            oracle = oracle_from_config(cfg["oracle"])
        raw_entries = cfg.get("entries")
        if not isinstance(raw_entries, list):
            raise ConfigError("registry config needs an 'entries' list")
        programs: list = []
        for pos, raw in enumerate(raw_entries):
            if not isinstance(raw, Mapping):
                raise ConfigError(f"entry {pos} must be an object")
            try:
                if "alias_of" in raw:
                    programs.append(_config_int(raw, "alias_of"))
                else:
                    programs.append((generator_from_config(raw, oracle),
                                     halt_from_config(raw.get("halt"))))
            except ConfigError as exc:
                raise ConfigError(f"entry {pos}: {exc}") from None
        return cls.assemble(programs, oracle)

    @classmethod
    def from_file(cls, path, oracle_path=None) -> "Registry":
        p = Path(path)
        text = _read_input(p, "registry")
        try:
            cfg = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer past Python's int->str cap, or
            # nesting deeper than the parser's recursion allows
            raise ConfigError(f"registry file {p} is not valid JSON: {exc}") from None
        oracle = load_oracle_file(oracle_path) if oracle_path is not None else None
        return cls.from_config(cfg, oracle=oracle)

    def to_config(self) -> dict:
        entries = []
        for entry in self.entries:
            if entry.alias_of is not None:
                entries.append({"alias_of": entry.alias_of})
            else:
                entries.append({**entry.generator.to_config(),
                                "halt": entry.halt.to_config()})
        cfg: dict = {"format": REGISTRY_FORMAT, "entries": entries}
        if self.oracle is not None:
            cfg["oracle"] = {
                "prefix": "".join(str(b) for b in self.oracle.prefix),
                "default": self.oracle.default,
            }
        return cfg


def oracle_from_config(cfg) -> Oracle:
    if not isinstance(cfg, Mapping):
        raise ConfigError("'oracle' must be an object")
    return Oracle(_config_word(cfg, "prefix", ""),
                  _config_bit(cfg, "default", 0))


def _read_input(p: Path, what: str) -> str:
    """The text of a `what` input file; a missing, unreadable or non-UTF-8
    file is a ConfigError."""
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {p}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {p} is not UTF-8: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {p}: "
                          f"{exc.strerror or exc}") from None


def load_oracle_file(path) -> Oracle:
    """Parse a bit-prefix file: runs of 0/1 characters on any number of lines
    are concatenated into the prefix, '#' lines are comments, and an optional
    'default=<0|1>' line fixes the bit beyond the prefix (0 if absent)."""
    p = Path(path)
    prefix: list[int] = []
    default = 0
    for lineno, line in enumerate(_read_input(p, "oracle").splitlines(),
                                  start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith("default="):
            value = text[len("default="):].strip()
            if value not in ("0", "1"):
                raise ConfigError(f"{p}:{lineno}: default must be 0 or 1")
            default = int(value)
            continue
        for ch in text:
            if ch in " \t":
                continue
            if ch not in "01":
                raise ConfigError(f"{p}:{lineno}: unexpected character {ch!r}")
            prefix.append(int(ch))
    return Oracle(tuple(prefix), default)
