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

from dataclasses import dataclass
from typing import Iterable

from .cantor import BasicSequence
from .errors import ConfigError, ResourceLimitError
from .programs import Registry


@dataclass(frozen=True)
class BlockChoice:
    """Outcome of one stage: the bit kept and the positions appended."""

    block: int
    chosen_bit: int
    positions: tuple[int, ...]


@dataclass(frozen=True)
class StageFunction:
    """One stage run: strictly increasing values on [0, 3**stage), or on the
    window `stage_trace` restricts them to."""

    stage: int
    values: tuple[int, ...]
    blocks: tuple[BlockChoice, ...]


@dataclass(frozen=True)
class LimitFunction:
    """Settled values on [0, settled_through] with per-position certificates."""

    values: tuple[int, ...]
    settled_through: int
    certificates: tuple[int, ...]
    blocks: tuple[BlockChoice, ...]
    stage_budget: int


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


def require_registry_depth(registry: Registry, stages: int,
                           position: int | None = None) -> None:
    """Refuse a run of `stages` stages on a registry with fewer entries.

    A stage count the caller chose is a configuration error. One derived
    from covering `position` is a resource limit naming the stages required.
    """
    if stages <= len(registry):
        return
    if position is None:
        raise ConfigError(
            f"{stages} stages need {stages} registry entries, but the "
            f"registry has {len(registry)} entries")
    raise ResourceLimitError(
        f"covering position {position} takes {stages} stages, but the "
        f"registry has only {len(registry)} entries", required_stages=stages)


def _run_stages(registry: Registry, stages: int,
                budget: int) -> tuple[tuple[int, ...], tuple[BlockChoice, ...]]:
    if stages < 0:
        raise ValueError("stage count must be >= 0")
    values = [0]
    blocks: list[BlockChoice] = []
    for t in range(stages):
        cut = values[-1]
        quota = 2 * 3 ** t
        hits: tuple[list[int], list[int]] = ([], [])
        window = range(cut + 1, cut + 2 * quota + 1)
        for p, bit in zip(window, registry.eval_window(t, budget, window)):
            hits[bit].append(p)
        chosen_bit = 0 if len(hits[0]) >= quota else 1
        chosen = tuple(hits[chosen_bit][:quota])
        values.extend(chosen)
        blocks.append(BlockChoice(t, chosen_bit, chosen))
    return tuple(values), tuple(blocks)


def build_stage_function(registry: Registry, stage: int) -> StageFunction:
    """The stage-`stage` approximation: `stage` stages at step budget stage+1."""
    require_registry_depth(registry, stage)
    values, blocks = _run_stages(registry, stage, stage + 1)
    return StageFunction(stage, values, blocks)


def limit_function(registry: Registry, max_position: int) -> LimitFunction:
    """Settled values on [0, max_position], certified from declared halting times.

    Picks the least stage count whose domain covers max_position, bounds the
    positions any of those stages can consult, and runs once at a budget that
    settles all of them — so the result is the exact limit, not an observed
    plateau.
    """
    if max_position < 0:
        raise ValueError("max_position must be >= 0")
    stages = stages_covering(max_position)
    require_registry_depth(registry, stages, max_position)
    # needed[t] settles programs 0..t on all positions stages 1..t+1 consult
    needed = [max(registry.settle_budget(e, 2 * (3 ** (t + 1) - 1))
                  for e in range(t + 1)) for t in range(stages)]
    stage_budget = max([stages, *needed])
    values, blocks = _run_stages(registry, stages, stage_budget + 1)

    certificates = [0]
    for t, settle in enumerate(needed):
        # the run at stage s uses budget s+1, so s >= settle-1 settles block
        # t; s >= t+1 puts it in the domain
        width = min(3 ** (t + 1), max_position + 1) - 3 ** t
        certificates.extend([max(t + 1, settle - 1)] * width)
    return LimitFunction(values[:max_position + 1], max_position,
                         tuple(certificates), blocks, stage_budget)


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
        values, blocks = _run_stages(registry, min(s, len(limit.blocks)), s + 1)
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
    return BasicSequence.from_exponents(
        tuple(f.values[i + 1] - f.values[i] for i in range(n)))


@dataclass(frozen=True)
class BoundCheck:
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


@dataclass(frozen=True)
class BoundReport:
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
    first = None
    t = 0
    while 3 ** (t + 1) - 1 < len(values):
        end = 3 ** (t + 1) - 1
        end_value = values[end]
        step_bound = 4 * 3 ** t + values[3 ** t - 1]
        closed_bound = 2 * (3 ** (t + 1) - 1)
        next_start = values[end + 1] if end + 1 < len(values) else None
        check = BoundCheck(
            block=t,
            end_value=end_value,
            step_bound=step_bound,
            within_step=end_value <= step_bound,
            closed_bound=closed_bound,
            within_closed=end_value <= closed_bound,
            next_start=next_start,
            next_start_within_closed=(None if next_start is None
                                      else next_start <= closed_bound),
        )
        checks.append(check)
        if first is None and not (check.within_step and check.within_closed):
            first = t
        t += 1
    return BoundReport(tuple(checks), first is None, first)
