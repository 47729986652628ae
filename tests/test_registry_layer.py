"""`import cantornorm` resolves its public names on first access, so that
loading a registry imports only the registry layer (`errors`, `records`,
`generators`, `programs`): not `dataclasses` with `inspect`, nor the
Cantor-series, construction, normality or CLI code, which a registry load
never calls and every start of the program would otherwise compile and run,
nor `fractions` with `decimal` and `numbers`, which only an exact value
needs, and a load builds none. A CLI command, too, imports neither
`dataclasses` nor `typing`, and only CSV output imports `csv`.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cantornorm
from cantornorm import (ConstantBits, Oracle, OracleBits, Registry,
                        TableBits)
from helpers import expected_value

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "default_inputs"
NOT_LOADED = {"dataclasses", "inspect", "cantornorm.cantor",
              "cantornorm.construction", "cantornorm.normality",
              "cantornorm.cli", "fractions", "decimal", "_decimal", "numbers",
              "pathlib"}


def fresh(code: str, *args: str) -> list[str]:
    """The lines `code` prints, run by a new interpreter that finds this
    copy of the package."""
    path = str(Path(cantornorm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_registry_load_imports_only_the_registry_layer():
    # modules that start-up itself loads, as `site` does, do not count
    (bare,) = fresh("import sys; print(*sys.modules)")
    (after,) = fresh(
        "import sys\n"
        "import cantornorm\n"
        "cantornorm.Registry.from_file(sys.argv[1], oracle_path=sys.argv[2])\n"
        "print(*sys.modules)",
        str(INPUTS / "deep_registry.json"), str(INPUTS / "deep_oracle.txt"))
    loaded = set(after.split()) - set(bare.split())
    assert {"cantornorm.programs", "cantornorm.records"} <= loaded
    assert not loaded & NOT_LOADED


def test_exact_values_after_a_registry_load_are_fractions():
    # `fractions` comes in with the first exact value built, not before
    code = (
        "import sys\n"
        "import cantornorm\n"
        "from cantornorm.generators import (ConstantBits, Oracle, OracleBits,\n"
        "                                   TableBits)\n"
        "from cantornorm.records import DyadicValue\n"
        "registry = cantornorm.Registry.from_file(sys.argv[1],\n"
        "                                         oracle_path=sys.argv[2])\n"
        "print('fractions' in sys.modules)\n"
        "values = [e.generator.exact_value() for e in registry.entries]\n"
        "values += [g.exact_value() for g in (ConstantBits(0),\n"
        "           TableBits({2: 0, 5: 0}, 1), TableBits(),\n"
        "           OracleBits(Oracle((1, 0, 1), 1)), OracleBits(Oracle()))]\n"
        "values += [DyadicValue(*v).fraction for v in ((3, 4), (4, 4), (0, 0))]\n"
        "from fractions import Fraction\n"
        "for value in values:\n"
        "    print(value is None or type(value) is Fraction, value)")
    registry = Registry.from_file(INPUTS / "deep_registry.json",
                                  oracle_path=INPUTS / "deep_oracle.txt")
    generators = [e.generator for e in registry.entries] + [
        ConstantBits(0), TableBits({2: 0, 5: 0}, 1), TableBits(),
        OracleBits(Oracle((1, 0, 1), 1)), OracleBits(Oracle())]
    expected = [*map(expected_value, generators),
                Fraction(3, 16), Fraction(1, 4), Fraction(0)]
    assert {g.kind for g in generators} == {
        "constant", "periodic", "table", "rational", "champernowne",
        "oracle-bit"}
    lines = fresh(code, str(INPUTS / "deep_registry.json"),
                  str(INPUTS / "deep_oracle.txt"))
    assert lines == ["False"] + [f"True {v}" for v in expected]


def test_cli_command_imports_no_dataclasses_or_typing():
    # the modules a dataclass or a `typing` import brings, each compiled or
    # run on every start of the program, and `pathlib`, which reading the
    # input files does not need
    (bare,) = fresh("import sys; print(*sys.modules)")
    (after,) = fresh(
        "import os, sys\n"
        "from cantornorm import cli\n"
        "assert cli.main(['verify', '--registry', sys.argv[1], '--oracle',\n"
        "                 sys.argv[2], '--stages', '3', '--out', os.devnull]) == 0\n"
        "print(*sys.modules)",
        str(INPUTS / "deep_registry.json"), str(INPUTS / "deep_oracle.txt"))
    loaded = set(after.split()) - set(bare.split())
    assert "cantornorm.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "dis", "ast", "tokenize",
                         "typing", "pathlib"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_csv_is_imported_only_for_csv_output(fmt):
    (bare,) = fresh("import sys; print(*sys.modules)")
    (after,) = fresh(
        "import os, sys\n"
        "from cantornorm import cli\n"
        "assert cli.main(['champernowne', '2', '5', '--format', sys.argv[1],\n"
        "                 '--out', os.devnull]) == 0\n"
        "print(*sys.modules)", fmt)
    loaded = set(after.split()) - set(bare.split())
    assert "cantornorm.cli" in loaded
    assert loaded & {"csv", "_csv"} == ({"csv", "_csv"} if fmt == "csv"
                                        else set())


def test_frozen_error_is_imported_when_a_record_is_written():
    lines = fresh(
        "import sys\n"
        "from cantornorm import DyadicValue\n"
        "value = DyadicValue(1, 1)\n"
        "print('dataclasses' in sys.modules)\n"
        "for write in (lambda: setattr(value, 'exponent', 2),\n"
        "              lambda: delattr(value, 'exponent')):\n"
        "    try:\n"
        "        write()\n"
        "    except Exception as error:\n"
        "        import dataclasses\n"
        "        print(type(error) is dataclasses.FrozenInstanceError, error)")
    assert lines == ["False", "True cannot assign to field 'exponent'",
                     "True cannot delete field 'exponent'"]


def test_public_names_are_their_defining_modules_objects():
    for name in cantornorm.__all__:
        value = getattr(cantornorm, name)
        assert value.__module__.startswith("cantornorm."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_public_name_follows_a_rebinding_in_its_module(monkeypatch):
    # as a tracer that wraps a module's function relies on
    from cantornorm import construction
    wrapped = object()
    monkeypatch.setattr(construction, "limit_function", wrapped)
    assert cantornorm.limit_function is wrapped


def test_dir_lists_every_public_name_before_its_first_access():
    (names,) = fresh("import cantornorm; print(*dir(cantornorm))")
    assert {*cantornorm.__all__, "__version__"} <= set(names.split())


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cantornorm.no_such_name
    with pytest.raises(ImportError):
        from cantornorm import no_such_name  # noqa: F401
