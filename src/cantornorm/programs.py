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
from .generators import (BitGenerator, Oracle, OracleBits, _check_keys,
                         _check_position, _config_int, _config_table, _named,
                         _read_fields, _sorted_table, _table_window,
                         _write_fields, generator_from_config)

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
    def settled(self, start: int, stop: int, budget: int) -> bytes:
        """One byte per position in [start, stop), 1 where the halting time
        is within `budget`, else 0; empty when stop <= start; both must be
        >= 0, which is not checked."""

    @abstractmethod
    def max_through(self, position: int) -> int:
        """Largest steps_at(p) over p <= position."""

    def to_config(self) -> dict:
        return _write_fields(self, {"rule": self.rule})


@dataclass(frozen=True)
class ConstantHalt(HaltRule):
    steps: int = 0
    rule = "constant"
    _fields = (("steps", "steps", _config_int, 0),)
    max_through = HaltRule.steps_at  # the rule is nondecreasing

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be >= 0")

    def steps_over(self, positions: Iterable[int]) -> Iterator[int]:
        return (self.steps for _ in positions)

    def settled(self, start: int, stop: int, budget: int) -> bytes:
        return bytes((self.steps <= budget,)) * (stop - start)


@dataclass(frozen=True)
class LinearHalt(HaltRule):
    slope: int = 1
    intercept: int = 0
    rule = "linear"
    _fields = (("slope", "slope", _config_int, 1),
               ("intercept", "intercept", _config_int, 0))
    max_through = HaltRule.steps_at  # nondecreasing since slope >= 0

    def __post_init__(self) -> None:
        if self.slope < 0 or self.intercept < 0:
            raise ValueError("slope and intercept must be >= 0")

    def steps_over(self, positions: Iterable[int]) -> Iterator[int]:
        return (self.slope * p + self.intercept for p in positions)

    def settled(self, start: int, stop: int, budget: int) -> bytes:
        # settled exactly below `cut`; a budget below the intercept puts it
        # at or under 0, and slope 0 settles all or nothing
        cut = ((budget - self.intercept) // self.slope + 1 if self.slope
               else stop if self.intercept <= budget else start)
        return b"\1" * (min(cut, stop) - start) + b"\0" * (stop - max(cut, start))


@dataclass(frozen=True)
class TableHalt(HaltRule):
    """Finitely many explicit halting times over a constant default."""

    entries: Mapping[int, int] | tuple[tuple[int, int], ...] = ()
    default: int = 0
    rule = "table"
    _fields = (("steps", "entries", _config_table, {}),
               ("default", "default", _config_int, 0))

    def __post_init__(self) -> None:
        norm = _sorted_table(self.entries)
        if self.default < 0 or any(s < 0 for _, s in norm):
            raise ValueError("steps must be >= 0")
        object.__setattr__(self, "entries", norm)

    def steps_over(self, positions: Iterable[int]) -> Iterator[int]:
        lookup, default = dict(self.entries).get, self.default
        return (lookup(p, default) for p in positions)

    def settled(self, start: int, stop: int, budget: int) -> bytes:
        return _table_window(self.entries, self.default, start, stop,
                             lambda steps: steps <= budget)

    def max_through(self, position: int) -> int:
        _check_position(position)
        listed = [s for p, s in self.entries if p <= position]
        # the default applies unless every position <= `position` is listed
        if len(listed) < position + 1:
            listed.append(self.default)
        return max(listed)


_RULES = {cls.rule: cls for cls in (ConstantHalt, LinearHalt, TableHalt)}


def halt_from_config(cfg) -> HaltRule:
    """Build a halting rule from config; missing config means settled at once."""
    if cfg is None:
        return ConstantHalt(0)
    if not isinstance(cfg, Mapping):
        raise ConfigError("'halt' must be an object")
    rule = cfg.get("rule")
    return _read_fields(_named(_RULES, rule, "halting rule"), cfg,
                        f"{rule} halting rule", ("rule",))


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
            if (isinstance(entry.generator, OracleBits)
                    and entry.generator.oracle != self.oracle):
                raise ConfigError(f"entry {pos}: an oracle-bit program must "
                                  f"read the registry's oracle")

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, e: int) -> ProgramEntry:
        if not 0 <= e < len(self.entries):
            raise IndexError(f"unknown program index: {e}")
        return self.entries[e]

    def eval_window(self, e: int, budget: int, positions: Sequence[int]) -> bytes:
        """Program e's values after `budget` steps, one byte per position of
        a range or sequence of positions >= 0: at each, the settled bit once
        the declared halting time is within budget, 0 before that. A range
        of step 1 is one window, other positions one window each; a
        negative position is refused."""
        entry = self.entry(e)
        if budget < 0:
            raise ValueError("budget must be >= 0")
        if not (isinstance(positions, range) and positions.step == 1):
            return b"".join(self.eval_window(e, budget, range(p, p + 1))
                            for p in positions)
        start, stop = _check_position(positions.start), positions.stop
        # the bits ANDed with the settled mask, each read as one integer
        bits = int.from_bytes(entry.generator.window(start, stop), "little")
        mask = int.from_bytes(entry.halt.settled(start, stop, budget), "little")
        return (bits & mask).to_bytes(len(positions), "little")

    def eval_bounded(self, e: int, budget: int, position: int) -> int:
        """Program e's value at `position` after `budget` steps."""
        return self.eval_window(e, budget, range(position, position + 1))[0]

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
        """Indices grouped by the non-alias entry they duplicate, in one
        forward pass: an alias names an earlier entry, whose root is known."""
        roots: list[int] = []
        groups: dict[int, list[int]] = {}
        for entry in self.entries:
            root = entry.index if entry.alias_of is None else roots[entry.alias_of]
            roots.append(root)
            groups.setdefault(root, []).append(entry.index)
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
        _check_keys(cfg, ("format", "oracle", "entries"))
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
                    _check_keys(raw, ("alias_of",))
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
        entries = [{"alias_of": entry.alias_of} if entry.alias_of is not None
                   else {**entry.generator.to_config(),
                         "halt": entry.halt.to_config()}
                   for entry in self.entries]
        cfg: dict = {"format": REGISTRY_FORMAT, "entries": entries}
        if self.oracle is not None:
            cfg["oracle"] = _write_fields(self.oracle, {})
        return cfg


def oracle_from_config(cfg) -> Oracle:
    if not isinstance(cfg, Mapping):
        raise ConfigError("'oracle' must be an object")
    return _read_fields(Oracle, cfg, "oracle")


def _read_input(p: Path, what: str) -> str:
    """The text of a `what` input, a regular file or a pipe; any other path,
    or an unreadable or non-UTF-8 file, is a ConfigError."""
    if not (p.is_file() or p.is_fifo()):
        raise ConfigError(f"{what} file {p} is not a regular file or a pipe"
                          if p.exists() else f"{what} file not found: {p}")
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
