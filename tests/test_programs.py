import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cantornorm import (ChampernowneBits, ConfigError, ConstantBits,
                        ConstantHalt, LinearHalt, Oracle, PeriodicBits,
                        ProgramEntry, RationalBits, Registry, TableBits,
                        TableHalt, halt_from_config, load_oracle_file)

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
