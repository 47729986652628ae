import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cantornorm import cli, construction, normality
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
        # champernowne source 2 has none
        calls = count_calls(monkeypatch, "orbit", [normality])
        path = registry_file(MIXED_REGISTRY)
        assert cli.main(["verify", "--registry", path, "--stages", "4"]) == 0
        assert [steps for _, _, steps in calls] == [3 ** 4 - 1, 3 ** 2 - 1]

    def test_failing_witness_exits_three(self, registry_file, monkeypatch, capsys):
        def broken(registry, e, f):
            checkpoint = 3 ** (e + 1)
            return WitnessReport(e, checkpoint, 0, 0, Fraction(0),
                                 Fraction(1), False)
        monkeypatch.setattr(cli, "witness_check", broken)
        path = registry_file(ZERO_REGISTRY)
        code = cli.main(["verify", "--registry", path, "--stages", "2"])
        assert code == 3


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


class TestInputFiles:
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
