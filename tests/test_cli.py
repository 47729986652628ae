import dataclasses
import errno
import json
import os
import resource
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cantornorm import (Registry, basic_sequence_from, block_of, cantor, cli,
                        construction, limit_function, normality)
from cantornorm.normality import WitnessReport

ZERO_REGISTRY = {
    "format": "registry/1",
    "entries": [{"kind": "constant", "bit": 0}] * 3,
}

MIXED_REGISTRY = {
    "format": "registry/1",
    "entries": [
        {"kind": "periodic", "pattern": "10"},
        {"kind": "rational", "numerator": 1, "denominator": 3},
        {"kind": "champernowne"},
        {"alias_of": 0},
    ],
}

ORACLE_REGISTRY = {
    "format": "registry/1",
    "entries": [
        {"kind": "oracle-bit", "halt": {"rule": "constant", "steps": 3}},
        {"kind": "constant", "bit": 0},
    ],
}


@pytest.fixture
def registry_file(tmp_path):
    def write(cfg, name="registry.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)
    return write


def count_calls(monkeypatch, name, modules):
    """Route `name` in each module through one counting wrapper of the
    first module's function; returns the list of argument tuples seen."""
    original = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def run_json(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBuild:
    def test_identity_table(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        code, payload = run_json(
            ["build", "--registry", path, "--stages", "3"], capsys)
        assert code == 0
        assert payload["format"] == "f-table/1"
        assert payload["max_position"] == 26
        assert [row["value"] for row in payload["positions"]] == list(range(27))
        assert payload["q_exponents"] == [1] * 26
        assert payload["positions"][0]["block"] is None
        assert payload["positions"][1] == {
            "position": 1, "value": 1, "block": 0, "chosen_bit": 0,
            "certificate": 1}

    def test_missing_registry_is_config_error(self, tmp_path, capsys):
        code = cli.main(["build", "--registry", str(tmp_path / "no.json"),
                         "--stages", "2"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_stage_budget_too_small(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        code = cli.main(["build", "--registry", path, "--stages", "2",
                         "--max-pos", "26"])
        assert code == 2
        assert "required stages: 3" in capsys.readouterr().err

    def test_registry_smaller_than_stages(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        code = cli.main(["build", "--registry", path, "--stages", "4"])
        assert code == 1
        assert "registry entries" in capsys.readouterr().err

    def test_byte_stable_outputs(self, registry_file, tmp_path):
        path = registry_file(MIXED_REGISTRY)
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert cli.main(["build", "--registry", path, "--stages", "4",
                             "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_csv_table(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        code = cli.main(["build", "--registry", path, "--stages", "1",
                         "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# format=f-table/1"
        assert lines[1] == "position,value,block,chosen_bit,certificate,q_exponent"
        assert lines[2] == "0,0,,,0,1"
        assert lines[4] == "2,2,0,0,1,"

    def test_rows_match_per_position_formula(self, registry_file, capsys):
        # each position's block by `block_of`, and no step at the last one
        path = registry_file({"entries": MIXED_REGISTRY["entries"] + [
            {"kind": "constant", "bit": 1,
             "halt": {"rule": "linear", "slope": 2, "intercept": 1}}]})
        registry = Registry.from_file(path)
        for max_pos in range(101):
            f = limit_function(registry, max_pos)
            exponents = basic_sequence_from(f, max_pos).exponents
            expected = []
            for p in range(max_pos + 1):
                t = block_of(p)
                expected.append((
                    p, f.values[p], t,
                    None if t is None else f.blocks[t].chosen_bit,
                    f.certificates[p], exponents[p] if p < max_pos else None))
            argv = ["build", "--registry", path, "--stages", "5",
                    "--max-pos", str(max_pos)]
            code, payload = run_json(argv, capsys)
            assert code == 0
            assert payload["positions"] == [
                dict(zip(cli.POSITION_KEYS, row)) for row in expected]
            assert cli.main(argv + ["--format", "csv"]) == 0
            lines = capsys.readouterr().out.splitlines()[2:]
            assert lines == [",".join("" if v is None else str(v) for v in row)
                             for row in expected]

    def test_trace_requires_json(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        code = cli.main(["build", "--registry", path, "--stages", "1",
                         "--format", "csv", "--trace", "3"])
        assert code == 1

    def test_trace_snapshots(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        code, payload = run_json(
            ["build", "--registry", path, "--stages", "2", "--trace", "4"],
            capsys)
        assert code == 0
        assert [snap["stage"] for snap in payload["trace"]] == [1, 2, 3, 4]
        assert payload["trace"][0]["values"] == [0, 1, 2]
        assert payload["trace"][3]["values"] == list(range(9))


class TestTraceLimit:
    DEMO = Path(__file__).resolve().parent.parent / "configs"

    @pytest.mark.parametrize("argv", [
        ["--stages", "2", "--max-pos", "0", "--trace", "1000001"],
        ["--stages", "2", "--trace", "100000000"],
    ])
    def test_oversized_trace_is_resource_limit(self, capsys, argv):
        code = cli.main(["build",
                         "--registry", str(self.DEMO / "demo_registry.json"),
                         "--oracle", str(self.DEMO / "demo_oracle.txt"),
                         *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_limit_counts_values(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        argv = ["build", "--registry", path, "--stages", "2", "--trace"]
        most = cli.TRACE_VALUE_LIMIT // 9   # 9 positions per snapshot
        assert cli.main(argv + [str(most + 1)]) == 2
        capsys.readouterr()
        code, payload = run_json(argv + [str(most)], capsys)
        assert code == 0
        assert payload["trace"][-1] == {"stage": most,
                                        "values": list(range(9))}

    def test_small_snapshots_count_the_floor(self, registry_file, monkeypatch,
                                             capsys):
        demo = ["build", "--registry", str(self.DEMO / "demo_registry.json"),
                "--oracle", str(self.DEMO / "demo_oracle.txt"),
                "--stages", "2", "--max-pos", "0", "--trace", "1000000"]
        assert cli.main(demo) == 2
        assert "at least 8 per snapshot" in capsys.readouterr().err
        # one-value snapshots are charged the floor of 8 values each
        monkeypatch.setattr(cli, "TRACE_VALUE_LIMIT", 80)
        argv = ["build", "--registry", registry_file(ZERO_REGISTRY),
                "--stages", "2", "--max-pos", "0", "--trace"]
        assert cli.main(argv + ["11"]) == 2
        capsys.readouterr()
        code, payload = run_json(argv + ["10"], capsys)
        assert code == 0
        assert len(payload["trace"]) == 10

    def test_trace_computes_the_limit_once(self, monkeypatch, capsys):
        calls = count_calls(monkeypatch, "limit_function", [construction, cli])
        code = cli.main(["build",
                         "--registry", str(self.DEMO / "demo_registry.json"),
                         "--oracle", str(self.DEMO / "demo_oracle.txt"),
                         "--stages", "2", "--trace", "3"])
        assert code == 0
        assert len(calls) == 1


class TestVerify:
    def test_mixed_registry_passes(self, registry_file, capsys):
        path = registry_file(MIXED_REGISTRY)
        code, payload = run_json(
            ["verify", "--registry", path, "--stages", "4"], capsys)
        assert code == 0
        assert payload["all_passed"] is True
        assert len(payload["witnesses"]) == 4
        for witness in payload["witnesses"]:
            low = Fraction(witness["fraction_low"])
            high = Fraction(witness["fraction_high"])
            assert max(low, high) >= Fraction(2, 3)
        sources = {r["source_index"]: r for r in payload["non_normality"]}
        assert sources[0]["checkpoints"][1]["index"] == 3  # the alias
        assert all(r["non_normal"] for r in payload["non_normality"])

    def test_champernowne_source_has_no_orbit_check(self, registry_file, capsys):
        path = registry_file(MIXED_REGISTRY)
        _, payload = run_json(
            ["verify", "--registry", path, "--stages", "3"], capsys)
        by_source = {r["source_index"]: r for r in payload["non_normality"]}
        assert by_source[2]["checkpoints"][0]["orbit_agrees"] is None
        assert by_source[0]["checkpoints"][0]["orbit_agrees"] is True

    def test_csv_rows(self, registry_file, capsys):
        path = registry_file(MIXED_REGISTRY)
        code = cli.main(["verify", "--registry", path, "--stages", "4",
                         "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# format=witness-report/1"
        assert len(lines) == 2 + 4  # header + one row per witnessed index

    def test_each_index_witnessed_once(self, registry_file, monkeypatch,
                                       capsys):
        calls = count_calls(monkeypatch, "witness_check", [normality, cli])
        path = registry_file(MIXED_REGISTRY)
        code = cli.main(["verify", "--registry", path, "--stages", "4"])
        assert code == 0
        assert len(calls) == 4
        assert sorted(e for _, e, _ in calls) == [0, 1, 2, 3]

    def test_each_orbit_walked_once(self, registry_file, monkeypatch, capsys):
        # sources 0 (periodic, aliased by 3) and 1 (rational) have a value;
        # champernowne source 2 has none; the walk counts on residues and
        # builds no orbit
        calls = count_calls(monkeypatch, "orbit_low_counts", [normality])
        orbits = count_calls(monkeypatch, "orbit", [cantor, cli])
        path = registry_file(MIXED_REGISTRY)
        assert cli.main(["verify", "--registry", path, "--stages", "4"]) == 0
        assert ([max(checkpoints) - 1 for _, _, checkpoints in calls]
                == [3 ** 4 - 1, 3 ** 2 - 1])
        assert orbits == []

    def test_failing_witness_exits_three(self, registry_file, monkeypatch, capsys):
        def broken(registry, e, f):
            checkpoint = 3 ** (e + 1)
            return WitnessReport(e, checkpoint, 0, 0, Fraction(0),
                                 Fraction(1), False)
        monkeypatch.setattr(cli, "witness_check", broken)
        path = registry_file(ZERO_REGISTRY)
        code = cli.main(["verify", "--registry", path, "--stages", "2"])
        assert code == 3


    def test_growth_bound_violation_exits_three(self, registry_file,
                                                monkeypatch, capsys):
        real = cli.limit_function

        def stretched(registry, max_position):
            # f(8) = 17 passes block 1's closed bound 2 * (3**2 - 1) = 16
            f = real(registry, max_position)
            return dataclasses.replace(
                f, values=f.values[:-1] + (f.values[-1] + 9,))
        monkeypatch.setattr(cli, "limit_function", stretched)
        path = registry_file(ZERO_REGISTRY)
        code, payload = run_json(
            ["verify", "--registry", path, "--stages", "2"], capsys)
        assert code == 3
        assert payload["all_passed"] is False
        assert payload["format"] == "witness-report/1"
        assert all(w["passed"] for w in payload["witnesses"])
        assert all(r["non_normal"] for r in payload["non_normality"])


class TestExpand:
    def test_identity_bases(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        code, payload = run_json(
            ["expand", "--registry", path, "5/6", "3"], capsys)
        assert code == 0
        assert payload["q"] == [2, 2, 2]
        assert payload["digits"] == [1, 1, 0]
        assert payload["value"] == "3/4"

    def test_value_outside_unit_interval(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        assert cli.main(["expand", "--registry", path, "7/6", "3"]) == 1
        assert cli.main(["expand", "--registry", path, "x", "3"]) == 1

    def test_explicit_stages_checked(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        code = cli.main(["expand", "--registry", path, "--stages", "1",
                         "1/2", "9"])
        assert code == 2

    def test_registry_depth_limits_auto_stages(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)  # 3 entries, depth 81 needs 5
        code = cli.main(["expand", "--registry", path, "1/2", "81"])
        assert code == 2
        assert "required stages: 5" in capsys.readouterr().err


class TestOrbitCommand:
    def test_third_under_identity_bases(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        code, payload = run_json(
            ["orbit", "--registry", path, "1/3", "2"], capsys)
        assert code == 0
        assert payload["points"] == ["1/3", "2/3", "1/3"]


class TestDiscrepancy:
    def test_reports_star_and_frequencies(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        code, payload = run_json(
            ["discrepancy", "--registry", path, "1/3", "4"], capsys)
        assert code == 0
        assert len(payload["points"]) == 4
        assert Fraction(payload["star_discrepancy"]) == Fraction(
            cli.star_discrepancy([Fraction(1, 3), Fraction(2, 3),
                                  Fraction(1, 3), Fraction(2, 3)]))
        assert len(payload["frequencies"]) == 2 + 4 + 8 + 16
        full = sum(Fraction(r["fraction"]) for r in payload["frequencies"]
                   if r["lo"] in ("0/1", "1/2") and Fraction(r["hi"]) - Fraction(r["lo"]) == Fraction(1, 2))
        assert full == 1


class TestChampernowne:
    def test_known_binary_prefix(self, capsys):
        code, payload = run_json(["champernowne", "2", "18"], capsys)
        assert code == 0
        assert payload["digits"] == [0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1,
                                     0, 1, 1, 1]

    def test_base_validation(self, capsys):
        assert cli.main(["champernowne", "1", "5"]) == 1

    @pytest.mark.parametrize("base", [10 ** 12, 10 ** 100])
    def test_huge_base_reads_one_digit_numerals(self, base):
        # in a 500 MB address space, so that a digit range built up to the
        # base fails fast instead of filling memory
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (500 * 2 ** 20,) * 2)
        proc = subprocess.run(
            [sys.executable, "-m", "cantornorm", "champernowne", str(base),
             "5"], capture_output=True, text=True, preexec_fn=limit,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["digits"] == [0, 1, 2, 3, 4]


class TestOracleWiring:
    def test_oracle_file_supplies_bits(self, registry_file, tmp_path, capsys):
        path = registry_file(ORACLE_REGISTRY)
        oracle = tmp_path / "oracle.txt"
        oracle.write_text("11\ndefault=0\n")
        code, payload = run_json(
            ["build", "--registry", path, "--oracle", str(oracle),
             "--stages", "2"], capsys)
        assert code == 0
        # oracle bits are 1,1,0,0,...: the scan from 1 keeps the zeros at 2, 3
        assert [row["value"] for row in payload["positions"]][:3] == [0, 2, 3]

    def test_oracle_bit_without_oracle_is_config_error(self, registry_file,
                                                       capsys):
        path = registry_file(ORACLE_REGISTRY)
        assert cli.main(["build", "--registry", path, "--stages", "2"]) == 1
        assert "requires an oracle" in capsys.readouterr().err


class TestParsing:
    def test_unknown_command_is_config_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_stages_must_be_positive(self, registry_file, capsys):
        path = registry_file(ZERO_REGISTRY)
        assert cli.main(["build", "--registry", path, "--stages", "0"]) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cantornorm", "champernowne", "2", "6"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["digits"] == [0, 1, 1, 0, 1, 1]


class TestLongValues:
    PERIODIC = {"entries": [{"kind": "periodic", "pattern": "01"}] * 10}

    def test_expand_renders_values_past_the_digit_limit(self, registry_file,
                                                        capsys):
        path = registry_file(self.PERIODIC)
        limit = sys.get_int_max_str_digits()
        code = cli.main(["expand", "--registry", path, "22/97", "10000"])
        out = capsys.readouterr().out
        assert code == 0
        assert sys.get_int_max_str_digits() == limit  # lifted only to render
        value = json.loads(out)["value"]
        assert len(value.split("/")[1]) > 4300

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_discrepancy_renders_a_wide_star_value(self, registry_file, capsys,
                                                   fmt):
        # x's numerator and denominator stay within the digit limit, but its
        # star discrepancy over four points has a 4,301-digit denominator
        b = 10 ** 4300 - 1
        path = registry_file(self.PERIODIC)
        code = cli.main(["discrepancy", "--registry", path, "--format", fmt,
                         f"{b // 2}/{b}", "4"])
        out = capsys.readouterr().out
        assert code == 0
        star = (out.splitlines()[-1].split(",")[-1] if fmt == "csv"
                else json.loads(out)["star_discrepancy"])
        assert len(star.split("/")[1]) == 4301

    def test_orbit_renders_a_wide_base(self, registry_file, capsys):
        # nine all-zero stages take positions 1..3**9 - 1 in order, so the
        # stage-9 window opens at 3**9; a run of 2*3**9 ones there pushes
        # f(3**9) up by that much, making base 3**9 - 1 a 11,851-digit power
        # of two
        start, run = 3 ** 9, 2 * 3 ** 9
        pattern = ["0"] * (2 * run)
        for i in range(run):
            pattern[(start + i) % len(pattern)] = "1"
        path = registry_file({"entries": [{"kind": "constant"}] * 9 + [
            {"kind": "periodic", "pattern": "".join(pattern)}]})
        code = cli.main(["orbit", "--registry", path, "1/3", str(start)])
        out = capsys.readouterr().out
        assert code == 0
        assert max(map(len, out.splitlines())) > 11000  # the base, in full

    def test_long_input_still_refused(self, registry_file, capsys):
        path = registry_file(self.PERIODIC)
        x = "1/" + "7" * 5000
        assert cli.main(["expand", "--registry", path, x, "3"]) == 1
        assert "error: not a rational" in capsys.readouterr().err

    def test_exponent_notation_at_the_digit_cap(self, registry_file, capsys):
        # 1e-4299 has a 4,300-digit denominator, the most the cap allows
        path = registry_file(self.PERIODIC)
        assert cli.main(["orbit", "--registry", path, "1e-4299", "2"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert points[0] == "1/1" + "0" * 4299

    def test_exponent_notation_past_the_digit_cap(self, registry_file,
                                                  capsys):
        path = registry_file(self.PERIODIC)
        assert cli.main(["orbit", "--registry", path, "1e-4300", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: x has a denominator of more than " \
                               "4300 digits\n"

    def test_no_digit_cap_no_refusal(self, registry_file, capsys):
        path = registry_file(self.PERIODIC)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code = cli.main(["orbit", "--registry", path, "1e-4300", "2"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["x"]) == 4303

    def test_huge_exponent_refused_before_parsing(self, registry_file,
                                                  capsys):
        # parsing 1e-30000000 would first compute 10**30000000, which takes
        # tens of seconds
        path = registry_file(self.PERIODIC)
        start = time.perf_counter()
        code = cli.main(["orbit", "--registry", path, "1e-30000000", "2"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and elapsed < 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("x", [
        "1e-" + "9" * 4000,
        "1e" + "9" * 4000,
        "1E-" + "1_" * 3000 + "1",
        "0.5e-" + "0" * 5000 + "1",
    ])
    def test_long_exponent_refused(self, registry_file, capsys, x):
        path = registry_file(self.PERIODIC)
        assert cli.main(["orbit", "--registry", path, x, "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_long_registry_integer_refused(self, tmp_path, capsys):
        path = tmp_path / "registry.json"
        path.write_text('{"entries": [{"kind": "rational", "numerator": 1, '
                        '"denominator": %s}]}' % ("7" * 5000))
        assert cli.main(["build", "--registry", str(path), "--stages", "1"]) == 1
        assert "is not valid JSON" in capsys.readouterr().err


class TestStrictIntegers:
    @pytest.mark.parametrize("entry", [
        '{"kind": "constant", "halt": {"rule": "constant", "steps": 1e400}}',
        '{"kind": "constant", "halt": {"rule": "constant", "steps": true}}',
        '{"kind": "constant", "halt": {"rule": "linear", "slope": 1.0}}',
        '{"kind": "constant", "halt": {"rule": "linear", "intercept": "2"}}',
        '{"kind": "constant", "halt": {"rule": "table", "default": false}}',
        '{"kind": "constant", "halt": {"rule": "table", "steps": {"1": 2.5}}}',
        '{"kind": "rational", "numerator": true, "denominator": 3}',
        '{"kind": "rational", "numerator": 1, "denominator": "3"}',
        '{"kind": "table", "bits": {"1": true}}',
        '{"kind": "table", "bits": {"1": 1}, "default": 0.0}',
        '{"kind": "constant", "bit": true}',
    ])
    def test_non_integers_are_config_errors(self, tmp_path, capsys, entry):
        path = tmp_path / "registry.json"
        path.write_text('{"entries": [%s, {"kind": "constant"}]}' % entry)
        assert cli.main(["build", "--registry", str(path), "--stages", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: entry 0: ")

    def test_alias_index_must_be_integer(self, registry_file, capsys):
        path = registry_file({"entries": [{"kind": "constant"},
                                          {"kind": "constant"},
                                          {"alias_of": True}]})
        assert cli.main(["build", "--registry", path, "--stages", "1"]) == 1


class TestOutputErrors:
    def test_out_into_missing_directory(self, registry_file, tmp_path, capsys):
        path = registry_file(ZERO_REGISTRY)
        out = tmp_path / "missing" / "table.json"
        assert cli.main(["build", "--registry", path, "--stages", "1",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_write_failing_mid_stream(self, monkeypatch, capsys, fmt):
        # 100,000 digits take many writes in either format; the third fails
        writes = []

        def write(text):
            writes.append(text)
            if len(writes) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(sys.stdout, "write", write)
        limit = sys.get_int_max_str_digits()
        code = cli.main(["champernowne", "2", "100000", "--format", fmt])
        assert code == 1
        assert len(writes) == 3
        assert sys.get_int_max_str_digits() == limit
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that refuses every write")
    def test_out_on_a_full_device(self, capsys):
        code = cli.main(["champernowne", "2", "100000", "--out", "/dev/full"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n")


class TestOutOfMemory:
    @pytest.mark.parametrize("command", [
        ["verify", "--stages", "2"], ["discrepancy", "1/3", "4"]])
    def test_memory_error_is_a_resource_limit(self, registry_file, monkeypatch,
                                              capsys, command):
        def exhausted(registry, max_position):
            raise MemoryError
        monkeypatch.setattr(cli, "limit_function", exhausted)
        path = registry_file(ZERO_REGISTRY)
        code = cli.main([command[0], "--registry", path, *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


# scalars of every type the writer renders, each paired with itself
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.fractions(),
    st.text(),  # non-ASCII and control characters included
    st.builds(lambda digits, k: k * 10 ** digits, st.integers(4300, 4400),
              st.integers(-99, 99)))  # past the int->str digit cap


def _tables(values):
    """(table, the list of dicts it stands for); rows may run past the keys."""
    def table(keys, rows):
        rows = [tuple(row) for row in rows]
        return cli._Table(keys, rows), [dict(zip(keys, row)) for row in rows]
    keys = st.one_of(st.text(max_size=3), st.sampled_from(["%", "%s"]))
    return st.lists(keys, unique=True, max_size=4).flatmap(
        lambda keys: st.builds(table, st.just(keys), st.lists(st.lists(
            values, min_size=len(keys), max_size=len(keys) + 1), max_size=4)))


def _containers(children):
    """(payload for `cli._json`, the same payload for `json.dumps`)."""
    def split(pairs):
        return [a for a, _ in pairs], [b for _, b in pairs]
    return st.one_of(
        st.lists(children, max_size=4).map(split),
        st.lists(children, max_size=4).map(split).map(
            lambda ab: (tuple(ab[0]), ab[1])),
        st.dictionaries(st.text(max_size=4), children, max_size=4).map(
            lambda d: ({k: a for k, (a, _) in d.items()},
                       {k: b for k, (_, b) in d.items()})),
        _tables(SCALARS))


@settings(max_examples=300, deadline=None)
@given(_containers(st.recursive(SCALARS.map(lambda v: (v, v)), _containers,
                                max_leaves=30)))
def test_json_writer_matches_json_dumps(pair):
    """`cli._json` writes `json.dumps(indent=2, sort_keys=True)`'s bytes, with
    a table written as its list of dicts, and a wide int in full as under
    `_emit`'s lifted digit cap."""
    obj, plain = pair
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert "".join(cli._json(obj)) == json.dumps(
            plain, indent=2, sort_keys=True, default=cli._frac)
    finally:
        sys.set_int_max_str_digits(limit)


class TestArgumentBounds:
    @pytest.mark.parametrize("argv", [
        ["build", "--registry", "REG", "--stages", "1", "--max-pos", "-1"],
        ["build", "--registry", "REG", "--stages", "1", "--trace", "0"],
        ["build", "--registry", "REG", "--stages", "x"],
        ["build", "--registry", "REG"],
        ["verify", "--registry", "REG"],
        ["expand", "--registry", "REG", "1/3", "-1"],
        ["orbit", "--registry", "REG", "1/3", "-1"],
        ["discrepancy", "--registry", "REG", "1/3", "0"],
        ["expand", "1/3", "3"],
        ["champernowne", "2", "-1"],
        ["champernowne", "1", "5"],
    ])
    def test_refused_as_config_error(self, registry_file, capsys, argv):
        path = registry_file(ZERO_REGISTRY)
        assert cli.main([path if a == "REG" else a for a in argv]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestStageLimit:
    DEEP = {"entries": [{"kind": "constant", "bit": 0}] * 20}

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started")
        monkeypatch.setattr(construction, "_run_stages", refuse)
        monkeypatch.setattr(cli, "champernowne_bits", refuse)

    @pytest.mark.parametrize("argv, required", [
        (["expand", "--registry", "REG", "1/3", "100000000"], 17),
        (["orbit", "--registry", "REG", "1/3", "50000000"], 17),
        (["discrepancy", "--registry", "REG", "1/3", str(3 ** 14 + 2)], 15),
        (["expand", "--registry", "REG", "--stages", "15", "1/3", "3"], 15),
        (["build", "--registry", "REG", "--stages", "15"], 15),
        (["verify", "--registry", "REG", "--stages", "15"], 15),
        (["champernowne", "2", "300000000"], None),
        (["champernowne", "2", str(3 ** 14 + 1)], None),
    ])
    def test_deep_request_refused_before_any_work(self, registry_file, capsys,
                                                  argv, required):
        path = registry_file(self.DEEP)
        assert cli.main([path if a == "REG" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert ("required stages" in err) == (required is not None)
        if required is not None:
            assert f"(required stages: {required})" in err

    def test_champernowne_count_at_the_limit(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "champernowne_bits", lambda base, n: [])
        assert cli.main(["champernowne", "2", str(3 ** 14)]) == 0


class TestInputFiles:
    def test_registry_from_a_pipe(self, tmp_path):
        # as `--registry <(cat registry.json)` passes it
        registry = Path(__file__).resolve().parent.parent / "configs" / "demo_registry.json"
        fifo = tmp_path / "registry.fifo"
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "wb") as pipe:
                    pipe.write(registry.read_bytes())
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        outputs = {source: tmp_path / f"{source.name}.out"
                   for source in (fifo, registry)}
        try:
            codes = [cli.main(["verify", "--registry", str(source), "--stages",
                               "2", "--out", str(out)])
                     for source, out in outputs.items()]
        finally:
            # release a writer still waiting for its reader
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(5)
        assert codes == [0, 0]
        assert outputs[fifo].read_bytes() == outputs[registry].read_bytes()

    def test_deeply_nested_registry(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["verify", "--registry", str(path),
                         "--stages", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: registry file") and "not valid JSON" in err

    def test_non_utf8_oracle_file(self, tmp_path, capsys):
        registry = Path(__file__).resolve().parent.parent / "configs" / "demo_registry.json"
        oracle = tmp_path / "o.txt"
        oracle.write_bytes(b"\xff\xfe01\n")
        assert cli.main(["build", "--registry", str(registry), "--oracle",
                         str(oracle), "--stages", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: oracle file")
