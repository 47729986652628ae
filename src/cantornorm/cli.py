"""Command-line front end emitting deterministic JSON/CSV artifacts.

Exit codes: 0 success, 1 configuration error, 2 resource limit (the message
reports the required stage count), 3 witness failure (which would signal a
builder bug, never a valid state).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .cantor import BasicSequence, cantor_digits, cantor_value, orbit
from .construction import (basic_sequence_from, block_of, limit_function,
                           require_registry_depth, _stage_snapshot,
                           stages_covering)
from .errors import ConfigError, ResourceLimitError
from .generators import champernowne_bits
from .normality import interval_frequency, report_from_witnesses, star_discrepancy, witness_check
from .programs import Registry

BUILD_FORMAT = "f-table/1"
VERIFY_FORMAT = "witness-report/1"
EXPAND_FORMAT = "cantor-digits/1"
ORBIT_FORMAT = "orbit/1"
DISCREPANCY_FORMAT = "discrepancy/1"
CHAMPERNOWNE_FORMAT = "digit-prefix/1"

# Most values a `build --trace` may hold; each snapshot also scans fewer than
# 6*(max_position+1) positions, so this bounds its evaluations as well
TRACE_VALUE_LIMIT = 10 ** 6


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


def _parse_unit_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational: {text!r} ({exc})") from None
    if not 0 <= value < 1:
        raise ConfigError(f"value must lie in [0, 1), got {text}")
    return value


def _check_explicit_stages(args: argparse.Namespace, registry: Registry,
                           position: int) -> None:
    """An explicit --stages must cover `position` and fit the registry."""
    if args.stages is None:
        return
    required = stages_covering(position)
    if args.stages < required:
        raise ResourceLimitError(
            f"positions through {position} need {required} stages, "
            f"got {args.stages}", required_stages=required)
    require_registry_depth(registry, args.stages)


def _emit(args: argparse.Namespace, tag: str, header: list[str],
          rows: Iterable[Sequence], fields: Callable[[], dict]) -> None:
    """Write a command's output in the requested format, building only that
    rendering: `rows` are the CSV rows under `header`, `fields()` returns the
    JSON object's fields, whose Fractions render as "p/q". Both draw on the
    same records; `rows` may be a one-pass iterator that `fields` reads too.
    """
    # Python caps int->str conversion at 4,300 digits to guard the parsing of
    # untrusted text. Inputs were parsed under that cap before this point;
    # computed values, such as an expansion's exact sum or a wide base, may
    # pass it and are still rendered in full.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            text = json.dumps({"format": tag, **fields()}, indent=2,
                              sort_keys=True, default=_frac) + "\n"
        else:
            buf = io.StringIO()
            buf.write(f"# format={tag}\n")
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            text = buf.getvalue()
    finally:
        sys.set_int_max_str_digits(limit)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from None


BUILD_HEADER = ["position", "value", "block", "chosen_bit", "certificate",
                "q_exponent"]
POSITION_KEYS = BUILD_HEADER[:5]  # the JSON positions omit q_exponent


def cmd_build(args: argparse.Namespace) -> int:
    if args.trace is not None and args.format != "json":
        raise ConfigError("--trace is only available with --format json")
    registry = _registry(args)
    # S stages always cover the default window [0, 3**S - 1], so it needs only
    # the registry check, made before 3**S is computed so that a huge S is
    # refused at once rather than after building that power
    _check_explicit_stages(args, registry, args.max_pos or 0)
    max_position = (args.max_pos if args.max_pos is not None
                    else 3 ** args.stages - 1)
    if (args.trace is not None
            and args.trace * (max_position + 1) > TRACE_VALUE_LIMIT):
        raise ResourceLimitError(
            f"--trace {args.trace} over positions 0..{max_position} asks for "
            f"{args.trace * (max_position + 1)} values, more than "
            f"{TRACE_VALUE_LIMIT}")
    f = limit_function(registry, max_position)
    q = basic_sequence_from(f, max_position)
    exponents = q.exponents

    def row(p: int) -> tuple:
        t = block_of(p)
        return (p, f.values[p], t,
                None if t is None else f.blocks[t].chosen_bit,
                f.certificates[p], exponents[p] if p < max_position else None)

    rows = map(row, range(max_position + 1))

    def fields() -> dict:
        payload = {
            "stages": args.stages,
            "stage_budget": f.stage_budget,
            "max_position": max_position,
            "positions": [dict(zip(POSITION_KEYS, r)) for r in rows],
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
    require_registry_depth(registry, args.stages)
    f = limit_function(registry, 3 ** args.stages - 1)
    witnesses = [witness_check(registry, e, f) for e in range(args.stages)]
    sources = [report_from_witnesses(registry, root, f,
                                     [witnesses[i] for i in group if i < args.stages])
               for root, group in sorted(registry.alias_groups().items())
               if root < args.stages]
    all_passed = (all(w.passed for w in witnesses)
                  and all(r.non_normal for r in sources))

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
    _check_explicit_stages(args, registry, steps)
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
    frequencies = [interval_frequency(points, Fraction(j, 2 ** k),
                                      Fraction(j + 1, 2 ** k))
                   for k in range(1, 5) for j in range(2 ** k)]

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


if __name__ == "__main__":
    sys.exit(main())
