"""The JSON and CSV writers render int columns, Q's bases and runs longer
than one `%` call's batch of rows exactly as `json.dumps` and `csv.writer`."""

import csv
import io
import json
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cantornorm import BasicSequence, Ints, cli

INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@given(st.lists(INT64, max_size=50) | st.lists(st.integers(0, 3), max_size=50))
def test_int_array_renders_as_json_dumps(xs):
    seq = Ints(array("q", xs))
    assert "".join(cli._json(seq)) == json.dumps(list(seq), indent=2)
    assert "".join(cli._json(tuple(xs))) == json.dumps(xs, indent=2)


@given(st.lists(st.integers(1, 8) | st.integers(1, 30000), max_size=20))
@settings(deadline=None)
def test_bases_render_as_json_dumps(exponents):
    # a wide base passes the 4,300-digit cap, which `cli._emit` lifts too
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        q = BasicSequence.from_exponents(exponents)
        assert "".join(cli._json(q.bases)) == json.dumps(list(q.bases),
                                                          indent=2)
        assert "".join(cli._json({"q": q.bases})) == json.dumps(
            {"q": [2 ** s for s in exponents]}, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


@given(st.lists(st.integers(1, 30000), max_size=20))
def test_from_exponents_keeps_bases_and_exponents(exponents):
    q = BasicSequence.from_exponents(exponents)
    assert q.bases == tuple(2 ** s for s in exponents)
    assert q.exponents == tuple(exponents)
    assert q == BasicSequence(tuple(2 ** s for s in exponents))


def columns(n: int):
    """Strategies for a column of n values: ints as an `Ints`, a range or a
    tuple, or strings and fractions, which are formatted one by one."""
    return st.one_of(
        st.lists(INT64, min_size=n, max_size=n).map(
            lambda xs: Ints(array("q", xs))),
        st.integers(-5, 5).map(lambda start: range(start, start + n)),
        st.lists(st.integers(), min_size=n, max_size=n).map(tuple),
        st.lists(st.text(max_size=3) | st.fractions(), min_size=n,
                 max_size=n).map(tuple))


@st.composite
def long_runs(draw):
    """(keys, runs, records): runs of up to 3 * RUN_BATCH + 1 rows, each
    entry a constant or a column, and the records they stand for."""
    keys = draw(st.lists(st.sampled_from("abcd%"), min_size=1, max_size=4,
                         unique=True))
    runs, records = [], []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 3 * cli.RUN_BATCH + 1))
        run = tuple(draw(columns(n) | st.integers() | st.text(max_size=3))
                    for _ in keys)
        if all(type(v) in cli._SCALARS for v in run):
            run = run[:-1] + (range(n),)
        runs.append(run)
        rows = zip(*(v if type(v) not in cli._SCALARS else [v] * n
                     for v in run))
        records.extend(dict(zip(keys, row)) for row in rows)
    return keys, runs, records


@settings(deadline=None)
@given(long_runs())
def test_long_runs_render_as_json_dumps_and_csv_writer(case):
    keys, runs, records = case
    assert "".join(cli._json(cli._Table(keys, runs))) == json.dumps(
        records, indent=2, sort_keys=True, default=cli._frac)
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(
        [cli._frac(r[k]) if type(r[k]) is Fraction else r[k] for k in keys]
        for r in records)
    assert "".join(cli._csv(runs)) == expected.getvalue()


@given(st.fractions(), st.integers(0, 2), st.integers(0, 2), st.booleans())
@example(Fraction(2), 0, 0, False)
@example(Fraction(-3), 1, 1, True)
@example(Fraction(-1, 2), 0, 2, False)
def test_a_fraction_renders_as_frac_alone_and_beside_other_cells(
        v, before, after, column):
    """The writer turns a Fraction, whole and negative ones included, into
    `_frac(v)`: bare in CSV, quoted in JSON, as a row's only cell or beside
    other cells, as a constant or in a column."""
    text = cli._frac(v)
    row = ("a",) * before + ([v] if column else v,) + (7,) * after
    line = ["a"] * before + [text] + ["7"] * after
    assert "".join(cli._csv([row])) == ",".join(line) + "\n"
    keys = [f"k{i}" for i in range(len(row))]
    record = dict(zip(keys, ["a"] * before + [text] + [7] * after))
    assert "".join(cli._json(cli._Table(keys, [row]))) == json.dumps(
        [record], indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [{1}, {"a": [1, {2}]}, [b"01"]])
def test_json_refuses_an_unsupported_type(obj):
    """A set or bytes, alone or nested, is no artifact value: `_json`
    refuses it, as the json module does."""
    with pytest.raises(TypeError, match="cannot write a .* as JSON"):
        "".join(cli._json(obj))
