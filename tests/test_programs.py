import json
import os
import random
import re
import threading

import pytest
from hypothesis import given, settings, strategies as st

from cantornorm import (ChampernowneBits, ConfigError, ConstantBits,
                        ConstantHalt, LinearHalt, Oracle, OracleBits,
                        PeriodicBits, ProgramEntry, RationalBits, Registry,
                        ResourceLimitError, TableBits, TableHalt,
                        halt_from_config, load_oracle_file, programs)

from helpers import random_generator, random_halt


def single(generator, halt=ConstantHalt(0)) -> Registry:
    return Registry.assemble([(generator, halt)])


class TestEvalBounded:
    def test_zero_generator_is_zero_at_every_budget(self):
        reg = single(ConstantBits(0), ConstantHalt(9))
        for budget in (0, 5, 9, 50):
            assert reg.eval_bounded(0, budget, 3) == 0

    def test_value_appears_at_declared_step(self):
        reg = single(TableBits({5: 1}), TableHalt({5: 7}))
        assert reg.eval_bounded(0, 6, 5) == 0
        assert reg.eval_bounded(0, 7, 5) == 1

    def test_champernowne_third_bit(self):
        reg = single(ChampernowneBits())
        assert reg.eval_bounded(0, 0, 2) == 1

    def test_index_and_argument_errors(self):
        reg = single(ConstantBits(0))
        with pytest.raises(IndexError):
            reg.eval_bounded(1, 0, 0)
        with pytest.raises(ValueError):
            reg.eval_bounded(0, -1, 0)
        with pytest.raises(ValueError):
            reg.eval_bounded(0, 0, -1)


class TestEvalLimit:
    def test_all_ones(self):
        assert single(ConstantBits(1)).eval_limit(0, 10) == 1

    def test_periodic(self):
        assert single(PeriodicBits((0, 1))).eval_limit(0, 4) == 0

    def test_one_third(self):
        # oracle: binary long division of 1/3 gives remainders 1,2,1,2,...
        r, bits = 1, []
        for _ in range(4):
            r *= 2
            bits.append(r // 3)
            r %= 3
        assert bits[3] == 1
        assert single(RationalBits(1, 3)).eval_limit(0, 3) == 1


class TestSettleBudget:
    def test_constant_zero(self):
        reg = single(ConstantBits(0), ConstantHalt(0))
        for max_position in (0, 9, 100):
            assert reg.settle_budget(0, max_position) == 0

    def test_linear(self):
        reg = single(ConstantBits(0), LinearHalt(1, 0))
        assert reg.settle_budget(0, 9) == 9

    def test_table_max(self):
        reg = single(ConstantBits(0), TableHalt({1: 3, 2: 5}, 0))
        assert reg.settle_budget(0, 2) == 5

    def test_table_default_counts_for_unlisted_positions(self):
        reg = single(ConstantBits(0), TableHalt({0: 1}, 9))
        assert reg.settle_budget(0, 0) == 1
        assert reg.settle_budget(0, 3) == 9


@st.composite
def program(draw):
    seed = draw(st.integers(0, 10 ** 9))
    rng = random.Random(seed)
    return random_generator(rng), random_halt(rng, cap=12)


@given(program(), st.integers(0, 40))
def test_monotone_settling(prog, position):
    reg = Registry.assemble([prog])
    settled = reg.settle_budget(0, position)
    values = [reg.eval_bounded(0, s, position) for s in range(settled + 3)]
    changes = sum(1 for a, b in zip(values, values[1:]) if a != b)
    assert changes <= 1
    for a, b in zip(values, values[1:]):
        assert a <= b  # only ever 0 -> 1


@given(program(), st.integers(0, 40))
def test_settlement(prog, position):
    reg = Registry.assemble([prog])
    budget = reg.settle_budget(0, position)
    assert reg.eval_bounded(0, budget, position) == reg.eval_limit(0, position)


@given(program(), st.integers(0, 30), st.integers(0, 30))
def test_alias_transparency(prog, budget, position):
    reg = Registry.assemble([prog, 0, 1])
    for alias in (1, 2):
        assert (reg.eval_bounded(alias, budget, position)
                == reg.eval_bounded(0, budget, position))
        assert reg.eval_limit(alias, position) == reg.eval_limit(0, position)
    assert reg.root_of(2) == 0
    assert reg.alias_groups() == {0: [0, 1, 2]}


@st.composite
def alias_forest(draw):
    """Registry programs: one shared (generator, halt) pair for each program,
    an earlier index for each alias, with runs of up to 300 aliases that
    each name the entry just before."""
    programs = [(ConstantBits(0), ConstantHalt(0))]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["program", "alias", "chain"]))
        if kind == "program":
            programs.append(programs[0])
        elif kind == "alias":
            programs.append(draw(st.integers(0, len(programs) - 1)))
        else:
            start = len(programs)
            programs.extend(range(start - 1, start - 1 + draw(
                st.integers(1, 300))))
    return programs


@given(alias_forest())
@settings(deadline=None)
def test_alias_groups_group_by_root(programs):
    reg = Registry.assemble(programs)
    expected: dict = {}
    for i in range(len(reg)):
        expected.setdefault(reg.root_of(i), []).append(i)
    groups = reg.alias_groups()
    assert list(groups.items()) == list(expected.items())
    # each index's root is the key of the group that holds it; a root is
    # its own root, and an alias has its target's
    holder = {i: root for root, group in groups.items() for i in group}
    for entry in reg.entries:
        i = entry.index
        assert reg.root_of(i) == holder[i] == (
            i if entry.alias_of is None else reg.root_of(entry.alias_of))
    for outside in (-1, len(reg)):
        with pytest.raises(IndexError):
            reg.root_of(outside)


class TestRegistryValidation:
    def test_index_must_match_position(self):
        entry = ProgramEntry(3, ConstantBits(0), ConstantHalt(0))
        with pytest.raises(ConfigError):
            Registry((entry,))

    def test_alias_must_point_backwards(self):
        with pytest.raises(ConfigError):
            Registry.assemble([(ConstantBits(0), ConstantHalt(0)), 5])

    def test_alias_must_duplicate_target(self):
        entries = (
            ProgramEntry(0, ConstantBits(0), ConstantHalt(0)),
            ProgramEntry(1, ConstantBits(1), ConstantHalt(0), alias_of=0),
        )
        with pytest.raises(ConfigError):
            Registry(entries)

    def test_unknown_index(self):
        with pytest.raises(IndexError):
            Registry().entry(0)

    @pytest.mark.parametrize("oracle", [Oracle((0,)), None],
                             ids=["other_oracle", "no_oracle"])
    def test_oracle_bit_must_read_the_registry_oracle(self, oracle):
        # to_config writes only the registry's oracle, so such an entry
        # would read back as a different program or not at all
        program = (OracleBits(Oracle((1, 1, 1), 1)), ConstantHalt(0))
        with pytest.raises(ConfigError, match="registry's oracle"):
            Registry.assemble([program], oracle=oracle)


class TestConfig:
    CONFIG = {
        "format": "registry/1",
        "oracle": {"prefix": "0110", "default": 0},
        "entries": [
            {"kind": "constant", "bit": 0},
            {"kind": "periodic", "pattern": "01",
             "halt": {"rule": "linear", "slope": 1, "intercept": 2}},
            {"kind": "table", "bits": {"5": 1}, "default": 0,
             "halt": {"rule": "table", "steps": {"5": 7}, "default": 0}},
            {"kind": "rational", "numerator": 1, "denominator": 3},
            {"kind": "oracle-bit", "halt": {"rule": "constant", "steps": 5}},
            {"alias_of": 1},
        ],
    }

    def test_from_config(self):
        reg = Registry.from_config(self.CONFIG)
        assert len(reg) == 6
        assert reg.eval_limit(4, 1) == 1          # oracle prefix bit
        assert reg.eval_bounded(4, 4, 1) == 0     # before the declared delay
        assert reg.eval_bounded(4, 5, 1) == 1
        assert reg.alias_groups()[1] == [1, 5]
        assert reg.settle_budget(1, 3) == 5       # linear rule 1*p + 2

    def test_config_round_trip(self):
        reg = Registry.from_config(self.CONFIG)
        again = Registry.from_config(reg.to_config())
        assert again == reg

    def test_from_file(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(self.CONFIG))
        assert Registry.from_file(path) == Registry.from_config(self.CONFIG)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            Registry.from_file(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            Registry.from_file(path)

    def test_unknown_format_tag(self):
        with pytest.raises(ConfigError, match="unsupported registry format"):
            Registry.from_config({"format": "registry/99", "entries": []})

    def test_entry_errors_carry_position(self):
        cfg = {"entries": [{"kind": "constant"}, {"kind": "bogus"}]}
        with pytest.raises(ConfigError, match="entry 1"):
            Registry.from_config(cfg)

    def test_explicit_oracle_wins_over_config(self):
        oracle = Oracle((1, 1, 1), default=1)
        reg = Registry.from_config(self.CONFIG, oracle=oracle)
        assert reg.eval_limit(4, 0) == 1
        assert reg.oracle == oracle

    @pytest.mark.parametrize("oracle", [None, Oracle((1,), default=1)],
                             ids=["config_oracle", "passed_oracle"])
    def test_bad_config_oracle_refused(self, oracle):
        # a passed oracle wins, but the config's own is still read
        cfg = {"oracle": {"prefx": "1", "default": 7}, "entries": []}
        with pytest.raises(ConfigError,
                           match="^bad oracle: unknown key 'prefx'$"):
            Registry.from_config(cfg, oracle=oracle)

    def test_halt_rule_errors(self):
        with pytest.raises(ConfigError, match="unknown halting rule"):
            halt_from_config({"rule": "quadratic"})
        with pytest.raises(ConfigError):
            halt_from_config({"rule": "constant", "steps": -1})


# JSON-like values whose keys and strings often hit the config vocabulary
CONFIG_WORDS = st.sampled_from([
    "format", "registry/1", "oracle", "prefix", "entries", "alias_of", "kind",
    "constant", "periodic", "table", "rational", "champernowne", "oracle-bit",
    "bit", "pattern", "bits", "default", "numerator", "denominator", "halt",
    "rule", "linear", "steps", "slope", "intercept", "0", "1", "01", "-1",
])
JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10 ** 30) | st.floats()
    | st.text(max_size=4) | CONFIG_WORDS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(CONFIG_WORDS | st.text(max_size=3), children,
                      max_size=5),
    max_leaves=20)
# entry-shaped objects, so that some registries get past the entry checks
FIELDS = {key: JSON_LIKE for key in (
    "bit", "pattern", "bits", "default", "numerator", "denominator", "steps",
    "slope", "intercept", "alias_of")}
ENTRY = st.fixed_dictionaries({"kind": CONFIG_WORDS}, optional={
    **FIELDS, "halt": JSON_LIKE | st.fixed_dictionaries(
        {"rule": CONFIG_WORDS}, optional=FIELDS)})


@given(entries=st.lists(ENTRY | JSON_LIKE, max_size=4),
       extra=st.dictionaries(CONFIG_WORDS, JSON_LIKE, max_size=3))
@settings(max_examples=150, deadline=None)
def test_from_config_raises_only_config_error(entries, extra):
    try:
        Registry.from_config({**extra, "entries": entries})
    except ConfigError:
        pass


@pytest.mark.parametrize("cfg, key", [
    ({"entries": [{"kind": "constant", "bti": 1, "bt": 0}]}, "bti"),
    ({"entries": [{"kind": "constant",
                   "halt": {"rule": "linear", "slop": 5}}]}, "slop"),
    ({"oracle": {"prefx": "1"}, "entries": []}, "prefx"),
    ({"entries": [{"kind": "champernowne"},
                  {"alias_of": 0, "halt": {"rule": "constant", "steps": 3}}]},
     "halt"),
    ({"format": "registry/1", "entries": [], "oracel": {"prefix": "1"}},
     "oracel"),
], ids=["program", "halt", "oracle", "alias", "top_level"])
def test_undeclared_keys_refused(cfg, key):
    # a misspelled key would otherwise load as a different program
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        Registry.from_config(cfg)


BITS = st.integers(0, 1)
STEPS = st.integers(0, 10 ** 6)


def tables(values):
    return st.dictionaries(st.integers(0, 10 ** 6), values, max_size=6)


@st.composite
def registries(draw):
    """Registries over every kind, rule and alias, oracle-bit entries
    reading the registry's oracle."""
    oracle = draw(st.none() | st.builds(
        Oracle, st.lists(BITS, max_size=40).map(tuple), BITS))
    generators = [
        st.builds(ConstantBits, BITS),
        st.builds(PeriodicBits, st.lists(BITS, min_size=1, max_size=8).map(tuple)),
        st.builds(TableBits, tables(BITS), BITS),
        st.integers(1, 2 ** 64).flatmap(lambda q: st.builds(
            RationalBits, st.integers(0, q - 1), st.just(q))),
        st.just(ChampernowneBits()),
    ]
    if oracle is not None:
        generators.append(st.just(OracleBits(oracle)))
    halts = (st.builds(ConstantHalt, STEPS) | st.builds(LinearHalt, STEPS, STEPS)
             | st.builds(TableHalt, tables(STEPS), STEPS))
    programs: list = []
    for i in range(draw(st.integers(0, 6))):
        if i and draw(st.booleans()):
            programs.append(draw(st.integers(0, i - 1)))
        else:
            programs.append((draw(st.one_of(generators)), draw(halts)))
    return Registry.assemble(programs, oracle=oracle)


@given(registries())
def test_config_round_trips_through_json(reg):
    assert Registry.from_config(json.loads(json.dumps(reg.to_config()))) == reg


def _oracle_file(tmp_path, text):
    path = tmp_path / "oracle.txt"
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: LinearHalt(-1), ValueError, "must be >= 0"),
    (lambda tmp: TableHalt({1: -1}), ValueError, "must be >= 0"),
    (lambda tmp: ProgramEntry(-1, ConstantBits(0), ConstantHalt(0)),
     ValueError, "index must be >= 0"),
    (lambda tmp: Registry((
        ProgramEntry(0, ConstantBits(0), ConstantHalt(0), alias_of=1),
        ProgramEntry(1, ConstantBits(0), ConstantHalt(0)))),
     ConfigError, "must name an earlier entry"),
    (lambda tmp: Registry.from_config(
        {"entries": [{"kind": "constant", "halt": 3}]}),
     ConfigError, "'halt' must be an object"),
    (lambda tmp: Registry.from_config([]), ConfigError, "JSON object"),
    (lambda tmp: Registry.from_config({"entries": 3}),
     ConfigError, "'entries' list"),
    (lambda tmp: Registry.from_config({"oracle": 3, "entries": []}),
     ConfigError, "'oracle' must be an object"),
    (lambda tmp: Registry.from_config(
        {"oracle": {"default": 2}, "entries": []}),
     ConfigError, "'default' must be 0 or 1"),
    (lambda tmp: load_oracle_file(_oracle_file(tmp, "01\ndefault=2\n")),
     ConfigError, "default must be 0 or 1"),
], ids=["linear_halt", "table_halt", "entry_index", "forward_alias",
        "halt_config", "registry_config", "entries", "oracle_config",
        "oracle_default", "oracle_file_default"])
def test_malformed_programs_refused(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


class TestOracleFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "oracle.txt"
        path.write_text("# demo oracle\n0110 1\ndefault=1\n01\n")
        oracle = load_oracle_file(path)
        assert oracle == Oracle((0, 1, 1, 0, 1, 0, 1), default=1)

    def test_default_is_zero_when_absent(self, tmp_path):
        path = tmp_path / "oracle.txt"
        path.write_text("101\n")
        assert load_oracle_file(path) == Oracle((1, 0, 1), default=0)

    def test_bad_character(self, tmp_path):
        path = tmp_path / "oracle.txt"
        path.write_text("01x\n")
        with pytest.raises(ConfigError, match="unexpected character"):
            load_oracle_file(path)

    def test_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_oracle_file(tmp_path / "none.txt")

    def test_unreadable_file(self, tmp_path, monkeypatch):
        def deny(*args, **kwargs):
            raise PermissionError(13, "Permission denied")
        path = _oracle_file(tmp_path, "01\n")
        # the reader opens its file with the built-in `open`, looked up in
        # its module's globals before the builtins
        monkeypatch.setattr(programs, "open", deny, raising=False)
        with pytest.raises(ConfigError, match="cannot read oracle file"):
            load_oracle_file(path)

    def test_endless_pipe_is_refused_after_a_bounded_read(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(programs, "INPUT_LIMIT", 1000)
        fifo = tmp_path / "oracle.fifo"
        os.mkfifo(fifo)
        cut_short = []

        def feed():
            # 10 MB, far more than the reader may take: a reader that stops
            # after its bounded read leaves the writer a broken pipe
            try:
                with open(fifo, "w") as pipe:
                    for _ in range(10_000):
                        pipe.write("01" * 512)
            except BrokenPipeError:
                cut_short.append(True)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            with pytest.raises(ResourceLimitError, match=re.escape(
                    f"oracle file {fifo} holds more than 1000 characters")):
                load_oracle_file(fifo)
        finally:
            # release a writer still waiting for its reader
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(5)
        assert not writer.is_alive() and cut_short

    @pytest.mark.parametrize("load, what", [(load_oracle_file, "oracle"),
                                            (Registry.from_file, "registry")])
    def test_path_the_os_refuses_is_unreadable(self, tmp_path, load, what):
        # a name past the file system's 255-byte limit cannot even be
        # looked up: stat fails with ENAMETOOLONG
        with pytest.raises(ConfigError, match=f"cannot read {what} file "):
            load(tmp_path / ("a" * 300))

    @pytest.mark.parametrize("load, what", [(load_oracle_file, "oracle"),
                                            (Registry.from_file, "registry")])
    def test_paths_that_name_no_file(self, tmp_path, load, what):
        """A symbolic link to itself is unreadable; the empty path and a
        path through a regular file, a trailing "/" included, are not
        found. Each message names the path as given."""
        loop, plain = tmp_path / "loop", tmp_path / "plain.txt"
        loop.symlink_to(loop)
        plain.write_text("01\n")
        for path, message in [
                (str(loop), f"cannot read {what} file {loop}: "
                            f"Too many levels of symbolic links"),
                ("", f"{what} file not found: "),
                (f"{plain}/x", f"{what} file not found: {plain}/x"),
                (f"{plain}/", f"{what} file not found: {plain}/")]:
            with pytest.raises(ConfigError) as refused:
                load(path)
            assert str(refused.value) == message

    @pytest.mark.parametrize("load", [load_oracle_file, Registry.from_file])
    def test_directory_is_not_reported_missing(self, tmp_path, load):
        with pytest.raises(ConfigError, match="not a regular file or a pipe"):
            load(tmp_path)

    @pytest.mark.parametrize("load", [load_oracle_file, Registry.from_file])
    def test_non_utf8_input_is_config_error(self, tmp_path, load):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xff\xfe01\n")
        with pytest.raises(ConfigError, match="is not UTF-8"):
            load(path)


class TestTableKeys:
    @pytest.mark.parametrize("key", ["01", "+2", " 2", "2 ", "1_0", "١"])
    @pytest.mark.parametrize("entry", [
        lambda key: {"kind": "table", "bits": {key: 1}},
        lambda key: {"kind": "constant",
                     "halt": {"rule": "table", "steps": {key: 3}}},
    ], ids=["bits", "steps"])
    def test_non_canonical_keys_are_config_errors(self, entry, key):
        with pytest.raises(ConfigError, match="canonical"):
            Registry.from_config({"entries": [entry(key)]})

    def test_keys_naming_one_position_are_not_merged(self):
        with pytest.raises(ConfigError, match="'01'"):
            Registry.from_config({"entries": [
                {"kind": "table", "bits": {"1": 1, "01": 0}}]})
        with pytest.raises(ConfigError, match=r"'\+2'"):
            Registry.from_config({"entries": [
                {"kind": "constant",
                 "halt": {"rule": "table", "steps": {"2": 5, "+2": 9}}}]})
