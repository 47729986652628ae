import random

import pytest
from hypothesis import given, settings, strategies as st

from cantornorm import (ConfigError, ConstantBits, ConstantHalt, PeriodicBits,
                        Registry, ResourceLimitError, StageFunction, TableBits,
                        TableHalt, basic_sequence_from, block_of,
                        build_stage_function, limit_function, stage_trace,
                        stages_covering, verify_bound)

from helpers import (certificate_oracle, one_registry, random_registry,
                     stage_rule_oracle, zero_registry)


def late_bit_registry() -> Registry:
    """Program 0's bit at position 1 is a 1 that appears only after 100 steps."""
    return Registry.assemble([
        (TableBits({1: 1}), TableHalt({1: 100})),
        (ConstantBits(0), ConstantHalt(0)),
    ])


class TestBuildStageFunction:
    def test_all_zero_registry_forces_identity(self):
        f = build_stage_function(zero_registry(2), 2)
        assert f.values == tuple(range(9))
        assert [b.chosen_bit for b in f.blocks] == [0, 0]

    def test_all_one_registry_forces_identity_high(self):
        f = build_stage_function(one_registry(2), 2)
        assert f.values == tuple(range(9))
        assert [b.chosen_bit for b in f.blocks] == [1, 1]

    def test_alternating_program_hand_trace(self):
        reg = Registry.assemble([(PeriodicBits((1, 0)), ConstantHalt(0))])
        f = build_stage_function(reg, 1)
        assert f.values == (0, 1, 3)
        assert f.blocks[0].chosen_bit == 0
        assert f.values == stage_rule_oracle(reg, 1)

    def test_matches_independent_stage_oracle(self):
        rng = random.Random(1105)
        for _ in range(25):
            reg = random_registry(rng, entries=3, halt_cap=6)
            for stage in range(4):
                assert build_stage_function(reg, stage).values == \
                    stage_rule_oracle(reg, stage)

    def test_blocks_record_their_positions(self):
        rng = random.Random(7)
        reg = random_registry(rng, entries=3, halt_cap=5)
        f = build_stage_function(reg, 3)
        for t, block in enumerate(f.blocks):
            assert block.block == t
            assert len(block.positions) == 2 * 3 ** t
            assert block.positions == f.values[3 ** t:3 ** (t + 1)]

    def test_registry_too_small(self):
        with pytest.raises(ConfigError, match="registry has 1 entries"):
            build_stage_function(zero_registry(1), 2)

    def test_determinism(self):
        rng = random.Random(99)
        reg = random_registry(rng, entries=4, halt_cap=10)
        assert build_stage_function(reg, 4) == build_stage_function(reg, 4)


class TestLimitFunction:
    def test_all_zero_identity(self):
        f = limit_function(zero_registry(3), 26)
        assert f.values == tuple(range(27))
        assert f.settled_through == 26
        assert len(f.certificates) == 27

    def test_position_zero_needs_nothing(self):
        f = limit_function(Registry(), 0)
        assert f.values == (0,)
        assert f.certificates == (0,)

    def test_late_bit_settles_at_declared_time(self):
        reg = late_bit_registry()
        early, late = stage_trace(reg, 2, [1, 100])
        assert early.values == (0, 1, 2)   # the late 1 still reads as 0
        assert late.values == (0, 2, 3)    # settled: position 1 is excluded
        f = limit_function(reg, 2)
        assert f.values == late.values
        assert f.certificates[1] <= 100

    def test_required_stages_reported(self):
        with pytest.raises(ResourceLimitError) as excinfo:
            limit_function(zero_registry(2), 26)
        assert excinfo.value.required_stages == 3

    def test_stage_trace_changes_at_most_once(self):
        reg = late_bit_registry()
        snapshots = stage_trace(reg, 8, range(1, 121))
        f = limit_function(reg, 8)
        for p in range(9):
            seq = [s.values[p] for s in snapshots if p < len(s.values)]
            changes = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
            assert changes <= 1
            assert seq[-1] == f.values[p]


class TestStability:
    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_stage_values_frozen_beyond_certificate(self, seed):
        rng = random.Random(seed)
        reg = random_registry(rng, entries=6, halt_cap=4)
        f = limit_function(reg, 26)
        by_stage = {s: build_stage_function(reg, s) for s in range(3, 7)}
        for p in range(27):
            for s, fs in by_stage.items():
                if s >= f.certificates[p]:
                    assert fs.values[p] == f.values[p]


class TestByBlock:
    @given(seed=st.integers(0, 10 ** 9), m=st.integers(0, 80))
    @settings(max_examples=60, deadline=None)
    def test_certificates_match_per_position_oracle(self, seed, m):
        reg = random_registry(random.Random(seed), entries=8, halt_cap=5)
        f = limit_function(reg, m)
        assert (f.certificates, f.stage_budget) == certificate_oracle(reg, m)

    @given(seed=st.integers(0, 10 ** 9), m=st.integers(0, 80))
    @settings(max_examples=40, deadline=None)
    def test_trace_matches_stage_oracle_and_limit(self, seed, m):
        reg = random_registry(random.Random(seed), entries=8, halt_cap=5)
        f = limit_function(reg, m)
        for s in range(len(reg)):
            (snapshot,) = stage_trace(reg, m, [s])
            assert snapshot.values == stage_rule_oracle(reg, s)[:m + 1]
            if s >= f.stage_budget:
                assert (snapshot.values, snapshot.blocks) == \
                    (f.values, f.blocks)


class TestLimitProperties:
    @given(seed=st.integers(0, 10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_block_homogeneity_and_monotonicity(self, seed):
        rng = random.Random(seed)
        reg = random_registry(rng, entries=4, halt_cap=30)
        f = limit_function(reg, 3 ** 4 - 1)
        for a, b in zip(f.values, f.values[1:]):
            assert a < b
        assert f.values[0] == 0
        for t, block in enumerate(f.blocks):
            for p in range(3 ** t, 3 ** (t + 1)):
                assert reg.eval_limit(t, f.values[p]) == block.chosen_bit

    @given(seed=st.integers(0, 10 ** 9), stage=st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_choices_stay_in_scan_window(self, seed, stage):
        rng = random.Random(seed)
        reg = random_registry(rng, entries=4, halt_cap=30)
        f = build_stage_function(reg, stage)
        for t, block in enumerate(f.blocks):
            cut = f.values[3 ** t - 1]
            assert all(cut < p <= cut + 4 * 3 ** t for p in block.positions)


class TestVerifyBound:
    def test_identity_passes(self):
        f = build_stage_function(zero_registry(2), 2)
        report = verify_bound(f)
        assert report.passed and report.first_violation is None
        t0, t1 = report.checks
        assert (t0.end_value, t0.closed_bound) == (2, 4)
        assert (t1.end_value, t1.closed_bound) == (8, 16)

    def test_adversarial_value_fails_first_block(self):
        fake = StageFunction(1, (0, 1, 5), ())
        report = verify_bound(fake)
        assert not report.passed
        assert report.first_violation == 0
        assert not report.checks[0].within_step
        assert not report.checks[0].within_closed

    @given(seed=st.integers(0, 10 ** 9), stage=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_builder_output_always_passes(self, seed, stage):
        rng = random.Random(seed)
        reg = random_registry(rng, entries=4, halt_cap=30)
        assert verify_bound(build_stage_function(reg, stage)).passed

    def test_next_start_field_is_informational(self):
        # program 1 rejects the low end of block 1's window, pushing the
        # start of block 1 past block 0's closed bound of 4 without
        # violating any guaranteed bound
        reg = Registry.assemble([
            (ConstantBits(0), ConstantHalt(0)),
            (TableBits({3: 1, 4: 1}), ConstantHalt(0)),
        ])
        f = build_stage_function(reg, 2)
        assert f.values == (0, 1, 2, 5, 6, 7, 8, 9, 10)
        report = verify_bound(f)
        assert report.passed
        assert report.checks[0].next_start == 5
        assert report.checks[0].next_start_within_closed is False


class TestBasicSequenceFrom:
    def test_identity_gives_all_twos(self):
        f = limit_function(zero_registry(3), 26)
        q = basic_sequence_from(f, 26)
        assert q.exponents == (1,) * 26
        assert set(q.bases) == {2}

    def test_alternating_prefix(self):
        reg = Registry.assemble([(PeriodicBits((1, 0)), ConstantHalt(0))])
        q = basic_sequence_from(limit_function(reg, 2), 2)
        assert q.exponents == (1, 2)
        assert q.bases == (2, 4)

    def test_empty_prefix(self):
        f = limit_function(zero_registry(1), 1)
        assert len(basic_sequence_from(f, 0)) == 0

    def test_needs_settled_prefix(self):
        f = limit_function(zero_registry(2), 4)
        with pytest.raises(ValueError, match="settled through"):
            basic_sequence_from(f, 5)


class TestHelpers:
    def test_stages_covering(self):
        assert [stages_covering(p) for p in (0, 1, 2, 3, 8, 9, 26, 27)] == \
            [0, 1, 1, 2, 2, 3, 3, 4]

    def test_block_of(self):
        assert block_of(0) is None
        assert [block_of(p) for p in (1, 2, 3, 8, 9, 27)] == [0, 0, 1, 1, 2, 3]
