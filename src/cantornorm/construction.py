"""Staged construction of a strictly increasing position map and its limit.

A run is parameterized by how many stages to perform and by the step budget
handed to the registry's bounded evaluations. Stage 0 pins value 0 at
position 0. Stage t+1 scans the window of 4*3**t positions just above the
largest value assigned so far, classifies each one by program t's
step-bounded bit, keeps the bit value that fills a quota of 2*3**t positions
inside the window (0 preferred when both fill it; at least one always does,
since the window splits between two bit values), and appends the 2*3**t
smallest qualifying positions in increasing order.

The quota doubles the domain it extends, so positions [3**t, 3**(t+1)) all
carry one fixed step-bounded bit of program t; that homogeneity is what the
witness checks in `normality` consume. Because halting times are declared,
a sufficient budget makes a run equal to its limit exactly, and every
position gets a certificate budget beyond which its value never changes.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import sub

from .cantor import BasicSequence, Ints
from .errors import ConfigError, ResourceLimitError
from .programs import Registry
from .records import _FLIP_BITS, Record


class BlockChoice(Record):
    """Outcome of one stage: the bit kept and the positions appended, a view
    into the run's values."""

    block: int
    chosen_bit: int
    positions: Sequence[int]


class StageFunction(Record):
    """One stage run: strictly increasing values on [0, 3**stage), or on the
    window `stage_trace` restricts them to."""

    stage: int
    values: Sequence[int]
    blocks: tuple[BlockChoice, ...]


class LimitFunction(Record):
    """Settled values on [0, settled_through], with one certificate per
    block: the stage from which the block's values never change."""

    values: Sequence[int]
    settled_through: int
    block_certificates: tuple[int, ...]
    blocks: tuple[BlockChoice, ...]
    stage_budget: int

    @cached_property
    def certificates(self) -> tuple[int, ...]:
        """Each position's certificate, its block's (0 at position 0): a
        tuple, as a declared halting time may pass 64 bits."""
        end = self.settled_through + 1
        return tuple(chain((0,), *(
            repeat(c, min(3 ** (t + 1), end) - 3 ** t)
            for t, c in enumerate(self.block_certificates))))

    @cached_property
    def q_exponents(self) -> Ints:
        """The exponents f(i+1) - f(i) of Q's bases 2**(f(i+1) - f(i)) for
        i = 0, 1, ... through f's last settled value, computed once: a byte
        each when every gap fits in one, else 64-bit ints."""
        values = self.values
        try:
            return Ints(bytes(map(sub, values[1:], values)))
        except ValueError:  # a gap past 255
            return Ints(array("q", map(sub, values[1:], values)))

    @cached_property
    def position_mask(self) -> bytes:
        """One byte per position 0 .. f(settled_through), 1 exactly at f's
        values. `limit_function` gives it the staged scan's mask; any other
        limit, a `_replace` copy among them, builds it from its own values."""
        mask = bytearray(self.values[-1] + 1)
        for v in self.values:
            mask[v] = 1
        return bytes(mask)


def block_of(position: int) -> int | None:
    """Block t with 3**t <= position < 3**(t+1); position 0 is in no block."""
    if position < 0:
        raise ValueError("position must be >= 0")
    if position == 0:
        return None
    t = 0
    while 3 ** (t + 1) <= position:
        t += 1
    return t


def stages_covering(position: int) -> int:
    """Smallest stage count whose domain [0, 3**stages) contains `position`."""
    t = block_of(position)
    return 0 if t is None else t + 1


# Deepest run served. Each stage triples the positions a run scans, so a
# deeper request is refused before any work instead of exhausting memory.
STAGE_LIMIT = 14


def require_stages(registry: Registry, position: int,
                   stages: int | None = None) -> int:
    """Stage count of a run covering `position`, refused before any work.

    A count the caller fixed must cover `position`, else a resource limit
    naming the count required, and fit the registry, else a configuration
    error. A count derived from `position` that the registry cannot supply
    is a resource limit naming the stages required. Either count is then
    held to STAGE_LIMIT, also as a resource limit.
    """
    if stages is not None and stages < 0:
        raise ValueError("stage count must be >= 0")
    required = stages_covering(position)
    if stages is None:
        stages = required
        if stages > len(registry):
            raise ResourceLimitError(
                f"covering position {position} takes {stages} stages, but "
                f"the registry has only {len(registry)} entries",
                required_stages=stages)
    elif stages < required:
        raise ResourceLimitError(
            f"positions through {position} need {required} stages, "
            f"got {stages}", required_stages=required)
    elif stages > len(registry):
        raise ConfigError(
            f"{stages} stages need {stages} registry entries, but the "
            f"registry has {len(registry)} entries")
    if stages > STAGE_LIMIT:
        raise ResourceLimitError(
            f"a run of {stages} stages exceeds the limit of {STAGE_LIMIT}",
            required_stages=stages)
    return stages


def _run_stages(registry: Registry, stages: int, budget: int
                ) -> tuple[Ints, tuple[BlockChoice, ...], bytes]:
    """The values, the blocks and the position mask of a run. Each window
    starts just past the last value, so the windows, cut at their last kept
    position, join into the mask."""
    values = array("q", [0])
    mask = bytearray(b"\1")
    chosen_bits = []
    for t in range(stages):
        cut = values[-1]
        quota = 2 * 3 ** t
        window = range(cut + 1, cut + 2 * quota + 1)
        bits = registry.eval_window(t, budget, window)
        chosen_bit = 0 if bits.count(0) >= quota else 1
        if chosen_bit == 0:  # flip the bytes, so that 1 marks the kept
            bits = bits.translate(_FLIP_BITS)
        values.extend(islice(compress(window, bits), quota))
        mask += bits[:values[-1] - cut]
        chosen_bits.append(chosen_bit)
    # stage t appended positions [3**t, 3**(t+1)); views are taken only now,
    # since an array with a view on it cannot grow
    values = Ints(values)
    return values, tuple(BlockChoice(t, bit, values[3 ** t:3 ** (t + 1)])
                         for t, bit in enumerate(chosen_bits)), bytes(mask)


def build_stage_function(registry: Registry, stage: int) -> StageFunction:
    """The stage-`stage` approximation: `stage` stages at step budget stage+1."""
    require_stages(registry, 0, stage)
    values, blocks, _ = _run_stages(registry, stage, stage + 1)
    return StageFunction(stage, values, blocks)


def limit_function(registry: Registry, max_position: int) -> LimitFunction:
    """Settled values on [0, max_position], certified from declared halting times.

    Picks the least stage count whose domain covers max_position, bounds the
    positions any of those stages can consult, and runs once at a budget that
    settles all of them — so the result is the exact limit, not an observed
    plateau.
    """
    stages = require_stages(registry, max_position)
    # needed[t] settles programs 0..t on all positions stages 1..t+1 consult
    needed = [max(registry.settle_budget(e, 2 * (3 ** (t + 1) - 1))
                  for e in range(t + 1)) for t in range(stages)]
    stage_budget = max([stages, *needed])
    values, blocks, mask = _run_stages(registry, stages, stage_budget + 1)
    # the run at stage s uses budget s+1, so s >= settle-1 settles block t;
    # s >= t+1 puts it in the domain
    certificates = tuple(max(t + 1, settle - 1)
                         for t, settle in enumerate(needed))
    f = LimitFunction(values[:max_position + 1], max_position,
                      certificates, blocks, stage_budget)
    # the scan's mask, cut to the settled values, is the one `position_mask`
    # would build from them
    vars(f)["position_mask"] = mask[:values[max_position] + 1]
    return f


def stage_trace(registry: Registry, max_position: int,
                stage_indices: Iterable[int]) -> tuple[StageFunction, ...]:
    """Successive stage approximations restricted to [0, max_position].

    Only the stages whose blocks reach max_position are run; later stages
    would extend the domain without touching the reported window, so the
    restriction is exact while staying affordable for large stage indices.
    Each record keeps the blocks of the stages actually run.
    """
    limit = limit_function(registry, max_position)
    return tuple(_stage_snapshot(registry, limit, s) for s in stage_indices)


def _stage_snapshot(registry: Registry, limit: LimitFunction,
                    s: int) -> StageFunction:
    """Stage approximation `s` restricted to the window `limit` settles."""
    if s < 0:
        raise ValueError("stage index must be >= 0")
    if s < limit.stage_budget:
        values, blocks, _ = _run_stages(registry, min(s, len(limit.blocks)),
                                        s + 1)
    else:  # budget s+1 settles every position the stages consult
        values, blocks = limit.values, limit.blocks
    return StageFunction(s, values[:limit.settled_through + 1], blocks)


def basic_sequence_from(f: LimitFunction, n: int) -> BasicSequence:
    """Bases 2**(f(i+1) - f(i)) for i < n."""
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    if f.settled_through < n:
        raise ValueError(
            f"limit values are settled through position {f.settled_through}, "
            f"need {n}")
    return BasicSequence.from_exponents(f.q_exponents[:n])


class BoundCheck(Record):
    """Growth bounds for one block.

    `within_step` and `within_closed` bound the value at the block's last
    position, 3**(block+1) - 1, and are guaranteed by the stage rule. The
    `next_start_*` fields evaluate the same closed-form bound at the next
    block's first position, 3**(block+1); that variant is not guaranteed and
    is reported for information only.
    """

    block: int
    end_value: int
    step_bound: int
    within_step: bool
    closed_bound: int
    within_closed: bool
    next_start: int | None
    next_start_within_closed: bool | None


class BoundReport(Record):
    checks: tuple[BoundCheck, ...]
    passed: bool
    first_violation: int | None


def verify_bound(f) -> BoundReport:
    """Check block by block that values grow no faster than the scan window
    allows: f(3**(t+1) - 1) <= 4*3**t + f(3**t - 1), and in closed form
    f(3**(t+1) - 1) <= 2*(3**(t+1) - 1). A violation means the builder is
    broken, never a valid state."""
    values = f.values
    checks = []
    # the blocks t whose last position, 3**(t+1) - 1, has a value
    for t in range(stages_covering(len(values)) - 1):
        end = 3 ** (t + 1) - 1
        end_value = values[end]
        step_bound = 4 * 3 ** t + values[3 ** t - 1]
        closed_bound = 2 * (3 ** (t + 1) - 1)
        next_start = values[end + 1] if end + 1 < len(values) else None
        checks.append(BoundCheck(
            block=t,
            end_value=end_value,
            step_bound=step_bound,
            within_step=end_value <= step_bound,
            closed_bound=closed_bound,
            within_closed=end_value <= closed_bound,
            next_start=next_start,
            next_start_within_closed=(None if next_start is None
                                      else next_start <= closed_bound),
        ))
    failed = [c.block for c in checks
              if not (c.within_step and c.within_closed)]
    return BoundReport(tuple(checks), not failed, failed[0] if failed else None)
