"""Registry of effectively presented binary sequences with declared settling times.

An entry's step-bounded value at a position is its settled bit once the
entry's declared halting time there is within the budget, and 0 before that;
each value therefore changes at most once as the budget grows, and only from
0 to 1. Halting times are declared at registration rather than measured,
which keeps settlement decidable and every downstream construction exact.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from stat import S_ISFIFO, S_ISREG

from .errors import ConfigError, ResourceLimitError
from .generators import (BitGenerator, Oracle, OracleBits, _check_keys,
                         _check_position, _config_int, _config_table, _named,
                         _read_fields, _sorted_table, _table_window,
                         _write_fields, generator_from_config)
from .records import _TEXT_TO_BITS, Record

REGISTRY_FORMAT = "registry/1"
# Most characters read from a registry or oracle file. A longer file is
# refused after one bounded read, before any parsing; at the cap a load
# takes seconds and a few hundred MB, as README "Oracle bit-prefix file" says.
INPUT_LIMIT = 2 ** 24


class HaltRule(ABC):
    """Total map position -> number of steps before the value there appears.
    A rule defines `steps_at`; the other methods are derived from it."""

    rule: str = ""

    @abstractmethod
    def steps_at(self, position: int) -> int:
        """The halting time at `position`; a negative one is refused."""

    def steps_over(self, positions: Iterable[int]) -> Iterator[int]:
        """The halting times at a run of positions >= 0."""
        return map(self.steps_at, positions)

    def settled(self, start: int, stop: int, budget: int) -> bytes:
        """One byte per position in [start, stop), 1 where the halting time
        is within `budget`, else 0; empty when stop <= start; both must be
        >= 0. The 1s end where bisection finds the first time past
        `budget`, after O(log(stop - start)) halting times. This needs a
        rule nondecreasing in the position: every rule but the table is one,
        and the table overrides this."""
        cut = bisect_right(range(start, stop), budget, key=self.steps_at)
        return b"\1" * cut + b"\0" * (stop - start - cut)

    def max_through(self, position: int) -> int:
        """Largest steps_at(p) over p <= position, which is steps_at(position)
        for a nondecreasing rule, as `settled` assumes."""
        return self.steps_at(position)

    def to_config(self) -> dict:
        return _write_fields(self, {"rule": self.rule})


class ConstantHalt(HaltRule, Record):
    steps: int = 0
    rule = "constant"
    _fields = (("steps", "steps", _config_int, 0),)

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be >= 0")

    def steps_at(self, position: int) -> int:
        _check_position(position)
        return self.steps


class LinearHalt(HaltRule, Record):
    slope: int = 1
    intercept: int = 0
    rule = "linear"
    _fields = (("slope", "slope", _config_int, 1),
               ("intercept", "intercept", _config_int, 0))

    def __post_init__(self) -> None:
        if self.slope < 0 or self.intercept < 0:
            raise ValueError("slope and intercept must be >= 0")

    def steps_at(self, position: int) -> int:
        return self.slope * _check_position(position) + self.intercept


class TableHalt(HaltRule, Record):
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

    def steps_at(self, position: int) -> int:
        i = bisect_left(self.entries, (_check_position(position),))
        p, steps = self.entries[i] if i < len(self.entries) else (-1, 0)
        return steps if p == position else self.default

    def settled(self, start: int, stop: int, budget: int) -> bytes:
        return _table_window(self.entries, self.default, start, stop,
                             lambda steps: steps <= budget)

    def max_through(self, position: int) -> int:
        i = bisect_left(self.entries, (_check_position(position) + 1,))
        listed = [s for _, s in self.entries[:i]]
        # the default applies unless every position <= `position` is listed
        return max(listed + [self.default] * (i <= position))


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


class ProgramEntry(Record):
    index: int
    generator: BitGenerator
    halt: HaltRule
    alias_of: int | None = None

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("index must be >= 0")


class Registry(Record):
    """Ordered program entries plus an optional oracle bit source. The loop
    that validates the entries also records each one's alias root, which
    `root_of` and `alias_groups` read."""

    entries: tuple[ProgramEntry, ...] = ()
    oracle: Oracle | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        roots: list[int] = []  # the non-alias index each entry duplicates
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
            # an alias names an earlier entry, whose root is already known
            roots.append(pos if entry.alias_of is None else roots[entry.alias_of])
            if (isinstance(entry.generator, OracleBits)
                    and entry.generator.oracle != self.oracle):
                raise ConfigError(f"entry {pos}: an oracle-bit program must "
                                  f"read the registry's oracle")
        object.__setattr__(self, "_roots", tuple(roots))

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
        """The non-alias index an entry ultimately duplicates, as validation
        recorded it."""
        return self._roots[self.entry(e).index]

    def alias_groups(self) -> dict[int, list[int]]:
        """Indices grouped by the non-alias entry they duplicate, roots in
        order of first appearance."""
        groups: dict[int, list[int]] = {}
        for i, root in enumerate(self._roots):
            groups.setdefault(root, []).append(i)
        return groups

    @classmethod
    def assemble(cls, programs: Sequence, oracle: Oracle | None = None) -> "Registry":
        """Entries from (generator, halt) pairs; a bare int aliases that index."""
        entries: list[ProgramEntry] = []
        for item in programs:
            if isinstance(item, int):
                if not 0 <= item < len(entries):
                    raise ConfigError(f"entry {len(entries)}: alias target "
                                      f"{item} must name an earlier entry")
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
        config's own, which is still read, so that a bad one is refused."""
        if not isinstance(cfg, Mapping):
            raise ConfigError("registry config must be a JSON object")
        _check_keys(cfg, ("format", "oracle", "entries"))
        fmt = cfg.get("format", REGISTRY_FORMAT)
        if fmt != REGISTRY_FORMAT:
            raise ConfigError(f"unsupported registry format: {fmt!r}")
        if cfg.get("oracle") is not None:
            own = oracle_from_config(cfg["oracle"])
            oracle = own if oracle is None else oracle
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
        text = _read_input(path, "registry")
        try:
            cfg = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer past Python's int->str cap, or
            # nesting deeper than the parser's recursion allows
            raise ConfigError(f"registry file {path} is not valid JSON: {exc}") from None
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


def _read_input(path, what: str) -> str:
    """The text of a `what` input at `path`, a regular file or a pipe, as
    one `os.stat` finds it; any other path, or an unreadable or non-UTF-8
    file, is a ConfigError, and every message names `path` as given. A path
    that does not exist, the empty one among them, or that runs through a
    regular file, is not found. A path that the OS refuses even to look up,
    as too long, in a loop of symbolic links or under a directory that
    cannot be searched, is unreadable. A file of more than INPUT_LIMIT
    characters is a ResourceLimitError, found by one read of at most one
    character more."""
    try:
        mode = os.stat(path).st_mode
        if not (S_ISREG(mode) or S_ISFIFO(mode)):
            raise ConfigError(
                f"{what} file {path} is not a regular file or a pipe")
        with open(path, encoding="utf-8") as file:
            text = file.read(INPUT_LIMIT + 1)
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not UTF-8: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: "
                          f"{exc.strerror or exc}") from None
    if len(text) > INPUT_LIMIT:
        raise ResourceLimitError(
            f"{what} file {path} holds more than {INPUT_LIMIT} characters")
    return text


def load_oracle_file(path) -> Oracle:
    """Parse a bit-prefix file: runs of 0/1 characters on any number of lines
    are concatenated into the prefix, '#' lines are comments, and an optional
    'default=<0|1>' line fixes the bit beyond the prefix (0 if absent). Spaces
    and tabs in a run are dropped, and a blank line is a run of no bits."""
    runs: list[str] = []
    default = "0"
    lines = _read_input(path, "oracle").splitlines()
    for lineno, text in enumerate(map(str.strip, lines), start=1):
        if text.startswith("default="):
            default = text[len("default="):].strip()
            if default not in ("0", "1"):
                raise ConfigError(f"{path}:{lineno}: default must be 0 or 1")
        elif not text.startswith("#"):
            # one C-level pass deletes the 0s, 1s, spaces and tabs of a run's
            # UTF-8 and leaves the bad characters, whole, as the deleted
            # bytes occur in no other character's encoding
            if bad := text.encode().translate(None, b"01 \t"):
                raise ConfigError(f"{path}:{lineno}: unexpected character "
                                  f"{bad.decode()[0]!r}")
            runs.append(text)
    prefix = "".join(runs).encode().translate(_TEXT_TO_BITS, b" \t")
    return Oracle(prefix, int(default))
