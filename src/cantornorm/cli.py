"""Command-line front end emitting deterministic JSON/CSV artifacts.

Exit codes: 0 success, 1 configuration error, 2 resource limit (the message
reports the required stage count) or out of memory, 3 witness or growth-bound
failure (which would signal a builder bug, never a valid state).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from contextlib import nullcontext
from dataclasses import asdict
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .cantor import BasicSequence, Ints, cantor_digits, cantor_value, orbit
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

# `_json` or `_csv` chunks joined per write; one each is far slower. A chunk
# is one dict entry, or RUN_BATCH items of a list of scalars or rows of a
# table or CSV run (the last ones of each one to a chunk). The rows of a run
# and the items of a list of one scalar type are rendered by C-level maps
# over whole columns: one `%` template per run, one text per distinct int,
# or one conversion per item of another type. A build row is about 140
# bytes, so 2**7 chunks keep a write near 290 KB; multi-megabyte joins each
# cost a fresh mapping and its page faults.
JSON_BATCH = 2 ** 7

# Rows of a run formatted by one `%` call of its template repeated, and
# list items per chunk: for a short row the call, not the text it writes,
# is most of the cost.
RUN_BATCH = 16


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


def _one_type(items) -> type | None:
    """The type all of `items` share, or None if they have several or none;
    a range or an `Ints`, which hold only ints, is taken without a scan."""
    if type(items) is range or type(items) is Ints:
        return int
    types = set(map(type, items))
    return types.pop() if len(types) == 1 else None


class _Table(NamedTuple):
    """A JSON list of records sharing `keys`, given as `rows`, a series of
    runs. A run is a tuple aligned with `keys`, whose entries past them are
    left out. Each entry is a `_SCALARS` constant that all of the run's
    records share, or a column: a sequence holding one value per record.
    A run's records stop at its shortest column; a run with no column (a
    plain row) is one record."""

    keys: Sequence[str]
    rows: Iterable[Sequence]


def _json(obj, indent: str = "\n", head: str = "") -> Iterator[str]:
    """Chunks whose concatenation is `head` then `json.dumps(obj, indent=2,
    sort_keys=True, default=_frac)`, for a `_SCALARS` type or a str-keyed
    dict, list, tuple or `_Table` holding these, a table written as its list
    of records. (Python's own encoder is pure Python when it indents.)"""
    kind, inner = type(obj), indent + "  "
    if kind in _SCALARS:
        return iter((head + _SCALARS[kind](obj),))
    sep = "," + inner  # starts every entry; the first one's comma is dropped
    if kind is _Table:  # keys sorted once, then one `%` template per run
        order = sorted(range(len(obj.keys)), key=obj.keys.__getitem__)
        heads = [f"{inner}  {_quote(obj.keys[i])}: ".replace("%", "%%")
                 for i in order]
        close = (inner if heads else "") + "}"
        entries = chain.from_iterable(
            _run(sep + "{", heads, map(run.__getitem__, order),
                 lambda v: _SCALARS[type(v)](v), close)
            for run in obj.rows)
    elif kind is dict:
        entries = chain.from_iterable(
            _json(obj[k], inner, sep + _quote(k) + ": ") for k in sorted(obj))
    elif kind is list or kind is tuple or kind is Ints:
        of = _one_type(obj)
        entries = (_batched(_int_items(obj, sep), len(obj)) if of is int else
                   _batched(map(sep.__add__, map(_SCALARS[of], obj)), len(obj))
                   if of in _SCALARS else
                   chain.from_iterable(_json(v, inner, sep) for v in obj))
    else:
        raise TypeError(f"cannot write a {kind.__name__} as JSON")
    opening, closing = "{}" if kind is dict else "[]"
    first = next(entries, None)
    if first is None:
        return iter((head + opening + closing,))
    # a chain, not a generator, so that no Python frame resumes per chunk
    return chain((head + opening + first[1:],), entries, (indent + closing,))


def _batched(texts: Iterator[str], count: int) -> Iterator[str]:
    """The `count` strings of `texts` joined RUN_BATCH to a chunk, the last
    ones one to a chunk."""
    head = islice(texts, count - count % RUN_BATCH)
    return chain(map("".join, zip(*[head] * RUN_BATCH)), texts)


def _int_items(items: Sequence[int], sep: str) -> Iterator[str]:
    """`sep` and the text of each int of `items`, made once per distinct
    value; for the bases of an `Ints` of powers, once per distinct exponent,
    so that no base is built per item."""
    keys = items.data if type(items) is Ints else items
    distinct = dict.fromkeys(keys)
    numbers = (map((1).__lshift__, distinct)
               if type(items) is Ints and items.powers else distinct)
    texts = dict(zip(distinct, map(sep.__add__, map(int.__repr__, numbers))))
    return map(texts.__getitem__, keys)


def _run(opening: str, heads: Iterable[str], values: Iterable,
         text: Callable[[object], str], close: str) -> Iterable[str]:
    """The rows of one run, each `opening`, then its values after the
    `%`-escaped `heads`, joined by commas, then `close`, by one `%`
    template: constants are written into it as `text` renders them, an int
    column is formatted by `%d` and any other column by `text` first. Rows
    come RUN_BATCH to a chunk, formatted by the template repeated, and the
    last rows of the run one to a chunk."""
    cells, columns, sized = [], [], []
    for head, value in zip(heads, values):
        if type(value) in _SCALARS:
            cells.append(head + text(value).replace("%", "%%"))
            continue
        sized.append(value)
        if _one_type(value) is int:
            cells.append(head + "%d")
            columns.append(value)
        else:
            cells.append(head + "%s")
            columns.append(map(text, value))
    template = opening + ",".join(cells) + close
    if not columns:
        return (template % (),)
    flat = chain.from_iterable(zip(*columns))
    width, count = len(columns), min(map(len, sized))
    batched = islice(flat, (count - count % RUN_BATCH) * width)
    return chain(map((template * RUN_BATCH).__mod__,
                     zip(*[batched] * (RUN_BATCH * width))),
                 map(template.__mod__, zip(*[flat] * width)))


class _Line:
    """A file for `csv.writer` whose write returns the text it is given, so
    that `writerow`, which returns what write returns, returns the row's
    CSV line."""
    write = str


_csv_line = csv.writer(_Line, lineterminator="\n").writerow


def _csv(rows: Iterable[Sequence]) -> Iterator[str]:
    """The CSV lines of `rows`, runs as in `_Table` that keep every entry,
    each as `csv.writer(lineterminator="\n")` writes it. A cell's CSV text
    does not depend on its neighbours, except that csv quotes a line's only
    field when it is empty: a run's cells are rendered beside an empty
    field, whose ",\n" is cut, and a one-field run's alone."""
    return chain.from_iterable(
        (_csv_line(run),) if all(type(v) in _SCALARS for v in run) else
        _run("", [""] * len(run), run,
             (lambda v: _csv_line((v, ""))[:-2]) if len(run) > 1 else
             (lambda v: _csv_line((v,))[:-1]), "\n")
        for run in rows)


# the exponent of `Fraction`'s decimal grammar, `_` separators included
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _parse_unit_fraction(text: str) -> Fraction:
    # exponent notation expands past the digit cap that p/q text is held to,
    # and `Fraction` computes 10**exponent before its digits can be counted.
    # Beyond cap + len(text), a negative exponent leaves more than `cap`
    # digits in the reduced denominator and a positive one makes x zero or
    # at least 1, so either is refused unparsed.
    cap = sys.get_int_max_str_digits()
    exponent = _EXPONENT.search(text)
    if cap and exponent:
        bound = cap + len(text)
        digits = exponent[1].replace("_", "").lstrip("0") or "0"
        if len(digits) > len(str(bound)) or int(digits) > bound:
            raise ConfigError(
                f"x has an exponent of more than {bound} in magnitude")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational: {text!r} ({exc})") from None
    if cap and value.denominator >= 10 ** cap:
        raise ConfigError(f"x has a denominator of more than {cap} digits")
    if not 0 <= value < 1:
        raise ConfigError(f"value must lie in [0, 1), got {text}")
    return value


def _emit(args: argparse.Namespace, tag: str, header: list[str],
          rows: Iterable[Sequence], fields: Callable[[], dict]) -> None:
    """Write a command's output in the requested format as it renders, to
    `--out` or stdout: `rows` are the CSV rows under `header`, as runs (see
    `_Table`), and `fields()` returns the JSON object's fields, whose
    Fractions render as "p/q". Both draw on the same records; `rows` may be
    a one-pass iterator.
    """
    # Python caps int->str conversion at 4,300 digits to guard the parsing of
    # untrusted text. Inputs were parsed under that cap before this point;
    # computed values, such as an expansion's exact sum or a wide base, may
    # pass it and are still rendered in full.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with (open(args.out, "w") if args.out else nullcontext(sys.stdout)) as out:
            chunks = (chain(_json({"format": tag, **fields()}), ("\n",))
                      if args.format == "json" else
                      chain((f"# format={tag}\n",), _csv(chain((header,), rows))))
            while batch := "".join(islice(chunks, JSON_BATCH)):
                out.write(batch)
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
    # position 0 is in no block and block t starts at 3**t: each is one run,
    # up to the next or to max_position, whose row, with q_exponent None as
    # it starts no step, is a run of its own; a run's block, bit and
    # certificate are constants
    labels = [(None, None, 0)] + [(b.block, b.chosen_bit, c) for b, c in
                                  zip(f.blocks, f.block_certificates)]
    starts = [0] + [3 ** b.block for b in f.blocks]
    values = f.values
    rows = [(range(lo, hi), values[lo:hi], *label, exponents[lo:hi])
            for label, lo, hi in zip(labels, starts,
                                     starts[1:] + [max_position])]
    rows.append((max_position, values[max_position], *labels[-1], None))

    def fields() -> dict:
        payload = {
            "stages": args.stages,
            "stage_budget": f.stage_budget,
            "max_position": max_position,
            "positions": _Table(POSITION_KEYS, rows),
            "q_exponents": exponents,
            "q": q.bases,
        }
        if args.trace is not None:
            payload["trace"] = [
                {"stage": s, "values": _stage_snapshot(registry, f, s).values}
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


def _orbit_request(args: argparse.Namespace, steps: int
                   ) -> tuple[Fraction, BasicSequence]:
    """Parse X and build the `steps` bases an expand/orbit/discrepancy
    request consumes."""
    registry = _registry(args)
    x = _parse_unit_fraction(args.x)
    require_stages(registry, steps, args.stages)
    return x, basic_sequence_from(limit_function(registry, steps), steps)


def cmd_expand(args: argparse.Namespace) -> int:
    x, q = _orbit_request(args, args.count)
    digits = cantor_digits(x, q, args.count)
    _emit(args, EXPAND_FORMAT, ["index", "digit", "q"],
          [(range(args.count), digits.digits, q.bases)],
          lambda: {"x": x, "count": args.count, "q": q.bases,
                   "q_exponents": q.exponents,
                   "digits": digits.digits, "value": cantor_value(digits)})
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    x, q = _orbit_request(args, args.count)
    points = orbit(x, q, args.count)
    _emit(args, ORBIT_FORMAT, ["index", "point"],
          ((i, _frac(y)) for i, y in enumerate(points)),
          lambda: {"x": x, "count": args.count, "q": q.bases,
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
          lambda: {"x": x, "count": args.count, "q": q.bases,
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
    _emit(args, CHAMPERNOWNE_FORMAT, ["index", "digit"],
          [(range(args.count), digits)],
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
