"""Command-line front end emitting deterministic JSON/CSV artifacts.

Exit codes: 0 success, 1 configuration error, 2 resource limit (the message
reports the required stage count) or out of memory, 3 witness or growth-bound
failure (which would signal a builder bug, never a valid state).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict
from fractions import Fraction
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .cantor import BasicSequence, cantor_digits, cantor_value, orbit
from .construction import (STAGE_LIMIT, basic_sequence_from, limit_function,
                           require_stages, _stage_snapshot, verify_bound)
from .errors import ConfigError, ResourceLimitError
from .generators import champernowne_bits
from .normality import (dyadic_frequencies, report_from_witnesses,
                        star_discrepancy, witness_check)
from .programs import Registry

BUILD_FORMAT = "f-table/1"
VERIFY_FORMAT = "witness-report/1"
EXPAND_FORMAT = "cantor-digits/1"
ORBIT_FORMAT = "orbit/1"
DISCREPANCY_FORMAT = "discrepancy/1"
CHAMPERNOWNE_FORMAT = "digit-prefix/1"

# Most values a `build --trace` may hold; each snapshot also scans fewer than
# 6*(max_position+1) positions, so this bounds its evaluations as well. A
# snapshot counts as at least TRACE_SNAPSHOT_FLOOR values, about the cost of
# its own JSON record, so that many tiny snapshots cannot pass the limit.
TRACE_VALUE_LIMIT = 10 ** 6
TRACE_SNAPSHOT_FLOOR = 8

# `_json` chunks joined per write; one each is far slower. A chunk can be a
# whole table row (~140 bytes for build), so 2**10 keeps a write near 140 KB;
# multi-megabyte joins each cost a fresh mapping and its page faults.
JSON_BATCH = 2 ** 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are configuration errors, not argparse's exit(2)
        raise ConfigError(message)


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type accepting integers no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _registry(args: argparse.Namespace) -> Registry:
    return Registry.from_file(args.registry, oracle_path=args.oracle or None)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# JSON text of each scalar type an artifact holds, as `json.dumps` writes it
_SCALARS = {str: _quote, int: int.__repr__, float: json.dumps, bool: json.dumps,
            type(None): json.dumps, Fraction: lambda x: f'"{_frac(x)}"'}


class _Table(NamedTuple):
    """A JSON list of records sharing `keys`: each row holds one record's
    scalar values in the order of `keys`; entries past them are left out."""

    keys: Sequence[str]
    rows: Iterable[Sequence]


def _json(obj, indent: str = "\n") -> Iterator[str]:
    """Chunks whose concatenation is `json.dumps(obj, indent=2,
    sort_keys=True, default=_frac)`, one per dict entry, list item or table
    row, for a str-keyed dict, list, tuple or `_Table` holding these and
    `_SCALARS` types. (Python's own encoder is pure Python when it indents.)"""
    kind, inner = type(obj), indent + "  "
    if kind is _Table:  # keys sorted once, then one `%` template per row
        order = sorted(range(len(obj.keys)), key=obj.keys.__getitem__)
        fields = [f"{inner}  {_quote(obj.keys[i])}: ".replace("%", "%%") + "%s"
                  for i in order]
        template = "{" + ",".join(fields) + (inner if fields else "") + "}"
        parts = (template % tuple([_SCALARS[type(v)](v)
                                   for v in map(row.__getitem__, order)])
                 for row in obj.rows)
    elif kind is dict or kind is list or kind is tuple:
        entries = (((_quote(k) + ": ", obj[k]) for k in sorted(obj))
                   if kind is dict else (("", v) for v in obj))
        parts = (head + _SCALARS[type(v)](v) if type(v) in _SCALARS
                 else chain((head,), _json(v, inner)) for head, v in entries)
    else:
        raise TypeError(f"cannot write a {kind.__name__} as a JSON container")
    opening, closing = "{}" if kind is dict else "[]"
    sep = opening + inner
    for part in parts:  # a scalar item's text, or a nested value's chunks
        if type(part) is str:
            yield sep + part
        else:
            yield sep + next(part)
            yield from part
        sep = "," + inner
    yield indent + closing if sep[0] == "," else opening + closing


def _parse_unit_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational: {text!r} ({exc})") from None
    # exponent notation expands past the digit cap that p/q text is held to
    cap = sys.get_int_max_str_digits()
    if cap and value.denominator >= 10 ** cap:
        raise ConfigError(f"x has a denominator of more than {cap} digits")
    if not 0 <= value < 1:
        raise ConfigError(f"value must lie in [0, 1), got {text}")
    return value


def _emit(args: argparse.Namespace, tag: str, header: list[str],
          rows: Iterable[Sequence], fields: Callable[[], dict]) -> None:
    """Write a command's output in the requested format as it renders, to
    `--out` or stdout: `rows` are the CSV rows under `header`, `fields()`
    returns the JSON object's fields, whose Fractions render as "p/q". Both
    draw on the same records; `rows` may be a one-pass iterator.
    """
    # Python caps int->str conversion at 4,300 digits to guard the parsing of
    # untrusted text. Inputs were parsed under that cap before this point;
    # computed values, such as an expansion's exact sum or a wide base, may
    # pass it and are still rendered in full.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with (open(args.out, "w") if args.out else nullcontext(sys.stdout)) as out:
            if args.format == "json":
                chunks = _json({"format": tag, **fields()})
                for chunk in chunks:
                    out.write(chunk + "".join(islice(chunks, JSON_BATCH - 1)))
                out.write("\n")
            else:
                out.write(f"# format={tag}\n")
                writer = csv.writer(out, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
            out.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out or 'stdout'}: "
                          f"{exc.strerror or exc}") from None
    finally:
        sys.set_int_max_str_digits(limit)


BUILD_HEADER = ["position", "value", "block", "chosen_bit", "certificate",
                "q_exponent"]
POSITION_KEYS = BUILD_HEADER[:5]  # the JSON positions omit q_exponent


def cmd_build(args: argparse.Namespace) -> int:
    if args.trace is not None and args.format != "json":
        raise ConfigError("--trace is only available with --format json")
    registry = _registry(args)
    stages = require_stages(registry, args.max_pos or 0, args.stages)
    max_position = (args.max_pos if args.max_pos is not None
                    else 3 ** stages - 1)
    if args.trace is not None:
        charge = args.trace * max(max_position + 1, TRACE_SNAPSHOT_FLOOR)
        if charge > TRACE_VALUE_LIMIT:
            raise ResourceLimitError(
                f"--trace {args.trace} over positions 0..{max_position} counts "
                f"as {charge} values (at least {TRACE_SNAPSHOT_FLOOR} per "
                f"snapshot), more than {TRACE_VALUE_LIMIT}")
    f = limit_function(registry, max_position)
    q = basic_sequence_from(f, max_position)
    exponents = q.exponents
    steps = exponents + (None,)  # the last position starts no step
    # position 0 is in no block; block t holds 3**t .. 3**(t+1) - 1, which
    # the slices cut at max_position
    spans = [(None, None, 0, 1)] + [
        (b.block, b.chosen_bit, 3 ** b.block, 3 ** (b.block + 1))
        for b in f.blocks]
    rows = chain.from_iterable(
        zip(range(lo, hi), f.values[lo:hi], repeat(t), repeat(bit),
            f.certificates[lo:hi], steps[lo:hi])
        for t, bit, lo, hi in spans)

    def fields() -> dict:
        payload = {
            "stages": args.stages,
            "stage_budget": f.stage_budget,
            "max_position": max_position,
            "positions": _Table(POSITION_KEYS, rows),
            "q_exponents": list(exponents),
            "q": list(q.bases),
        }
        if args.trace is not None:
            payload["trace"] = [
                {"stage": s, "values": list(_stage_snapshot(registry, f, s).values)}
                for s in range(1, args.trace + 1)]
        return payload

    _emit(args, BUILD_FORMAT, BUILD_HEADER, rows, fields)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    registry = _registry(args)
    stages = require_stages(registry, 0, args.stages)
    f = limit_function(registry, 3 ** stages - 1)
    witnesses = [witness_check(registry, e, f) for e in range(args.stages)]
    sources = [report_from_witnesses(registry, root, f,
                                     [witnesses[i] for i in group if i < args.stages])
               for root, group in sorted(registry.alias_groups().items())
               if root < args.stages]
    all_passed = (all(w.passed for w in witnesses)
                  and all(r.non_normal for r in sources)
                  and verify_bound(f).passed)

    rows = sorted(
        ((c.index, s.source_index, c.checkpoint, c.chosen_bit,
          _frac(c.fraction_low), _frac(witnesses[c.index].fraction_high),
          _frac(c.deviation), c.witness_passed, c.orbit_agrees)
         for s in sources for c in s.records),
        key=lambda row: row[0])
    _emit(args, VERIFY_FORMAT,
          ["program_index", "source_index", "checkpoint", "chosen_bit",
           "fraction_low", "fraction_high", "deviation", "witness_passed",
           "orbit_agrees"],
          rows,
          lambda: {"stages": args.stages, "all_passed": all_passed,
                   "witnesses": [asdict(w) for w in witnesses],
                   "non_normality": [
                       {"source_index": r.source_index,
                        "non_normal": r.non_normal,
                        "checkpoints": [asdict(c) for c in r.records]}
                       for r in sources]})
    return 0 if all_passed else 3


def _orbit_request(args: argparse.Namespace,
                   steps: int) -> tuple[Fraction, BasicSequence]:
    """Parse X and build the `steps` bases an expand/orbit/discrepancy
    request consumes."""
    registry = _registry(args)
    x = _parse_unit_fraction(args.x)
    require_stages(registry, steps, args.stages)
    f = limit_function(registry, steps)
    return x, basic_sequence_from(f, steps)


def cmd_expand(args: argparse.Namespace) -> int:
    x, q = _orbit_request(args, args.count)
    digits = cantor_digits(x, q, args.count)
    _emit(args, EXPAND_FORMAT, ["index", "digit", "q"],
          ((i, a, q.bases[i]) for i, a in enumerate(digits.digits)),
          lambda: {"x": x, "count": args.count, "q": list(q.bases),
                   "q_exponents": list(q.exponents),
                   "digits": list(digits.digits),
                   "value": cantor_value(digits)})
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    x, q = _orbit_request(args, args.count)
    points = orbit(x, q, args.count)
    _emit(args, ORBIT_FORMAT, ["index", "point"],
          ((i, _frac(y)) for i, y in enumerate(points)),
          lambda: {"x": x, "count": args.count, "q": list(q.bases),
                   "points": points})
    return 0


def cmd_discrepancy(args: argparse.Namespace) -> int:
    # COUNT counts orbit points, one more than the steps between them
    x, q = _orbit_request(args, args.count - 1)
    points = orbit(x, q, args.count - 1)
    star = star_discrepancy(points)
    frequencies = dyadic_frequencies(points, 4)

    def rows():
        # a generator, so that `star`, whose denominator may pass the digit
        # cap that `_emit` lifts, is rendered only there
        for i, y in enumerate(points):
            yield ("point", i, None, None, None, _frac(y))
        for r in frequencies:
            yield ("frequency", None, _frac(r.lo), _frac(r.hi), r.hits,
                   _frac(r.fraction))
        yield ("star_discrepancy", None, None, None, None, _frac(star))

    _emit(args, DISCREPANCY_FORMAT,
          ["record", "index", "lo", "hi", "hits", "value"], rows(),
          lambda: {"x": x, "count": args.count, "q": list(q.bases),
                   "points": points, "star_discrepancy": star,
                   "star_discrepancy_decimal": float(star),
                   "frequencies": [{"lo": r.lo, "hi": r.hi, "hits": r.hits,
                                    "fraction": r.fraction}
                                   for r in frequencies]})
    return 0


def cmd_champernowne(args: argparse.Namespace) -> int:
    if args.count > 3 ** STAGE_LIMIT:
        raise ResourceLimitError(
            f"{args.count} digits are more than 3**{STAGE_LIMIT} = "
            f"{3 ** STAGE_LIMIT}")
    digits = champernowne_bits(args.base, args.count)
    _emit(args, CHAMPERNOWNE_FORMAT, ["index", "digit"], enumerate(digits),
          lambda: {"base": args.base, "count": args.count, "digits": digits})
    return 0


def _add_common(parser: argparse.ArgumentParser, registry: bool = True,
                stages_required: bool = False) -> None:
    if registry:
        parser.add_argument("--registry", metavar="PATH", required=True,
                            help="registry config file (JSON)")
        parser.add_argument("--oracle", metavar="PATH",
                            help="oracle bit-prefix file (overrides the "
                                 "registry's own oracle)")
        parser.add_argument("--stages", type=_at_least(1), metavar="S",
                            required=stages_required,
                            help="stage budget (build/verify: required; other "
                                 "commands: checked against the needed depth)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cantornorm",
                     description="Build power-of-two basic sequences by staged "
                                 "diagonalization against a program registry and "
                                 "verify, exactly, that no registered real "
                                 "distributes uniformly under them.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("build", help="emit the settled position table and the "
                                     "derived base sequence")
    _add_common(p, stages_required=True)
    p.add_argument("--max-pos", dest="max_pos", type=_at_least(0), metavar="N",
                   help="largest settled position (default: 3**S - 1)")
    p.add_argument("--trace", type=_at_least(1), metavar="S_MAX",
                   help="also emit stage approximations 1..S_MAX (json only)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run witness checks for every stage index "
                                      "and non-normality reports per source")
    _add_common(p, stages_required=True)
    p.set_defaults(func=cmd_verify)

    for name, func, least, help_text, count_help in (
            ("expand", cmd_expand, 0, "Cantor digits of x under the "
             "constructed base sequence", "number of digits"),
            ("orbit", cmd_orbit, 0, "mod-1 orbit of x under the constructed "
             "base sequence", "number of multiplication steps"),
            ("discrepancy", cmd_discrepancy, 1, "orbit statistics: dyadic "
             "interval frequencies and star discrepancy",
             "number of orbit points")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("x", help="rational in [0, 1), e.g. 5/6")
        p.add_argument("count", type=_at_least(least), help=count_help)
        p.set_defaults(func=func)

    p = sub.add_parser("champernowne", help="digit prefix of the base-b "
                                            "concatenation of 0, 1, 2, ...")
    _add_common(p, registry=False)
    p.add_argument("base", type=_at_least(2))
    p.add_argument("count", type=_at_least(0))
    p.set_defaults(func=cmd_champernowne)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    out_of_memory = False
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        suffix = ("" if exc.required_stages is None
                  else f" (required stages: {exc.required_stages})")
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 2
    except MemoryError:
        out_of_memory = True  # reported below, once the failed frames are let go
    if out_of_memory:
        print("error: out of memory; ask for a smaller request", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
