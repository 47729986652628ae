"""Byte-for-byte golden artifacts of every CLI command in both formats.

The files under tests/golden/ were written by the CLI on the demo registry
and oracle. A change that alters any artifact byte fails here; one that
alters an artifact on purpose rewrites the files with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from cantornorm import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
REGISTRY = ["--registry", str(ROOT / "configs" / "demo_registry.json"),
            "--oracle", str(ROOT / "configs" / "demo_oracle.txt")]

# artifact file name -> CLI arguments before --format/--out
CASES = {
    "build": ["build", *REGISTRY, "--stages", "4"],
    "verify": ["verify", *REGISTRY, "--stages", "5"],
    "expand": ["expand", *REGISTRY, "22/97", "40"],
    "orbit": ["orbit", *REGISTRY, "22/97", "40"],
    "discrepancy": ["discrepancy", *REGISTRY, "22/97", "40"],
    "champernowne": ["champernowne", "3", "60"],
}
ARTIFACTS = {f"{name}.{fmt}": [*args, "--format", fmt]
             for name, args in CASES.items() for fmt in ("json", "csv")}
ARTIFACTS["build_trace.json"] = ["build", *REGISTRY, "--stages", "3",
                                 "--max-pos", "20", "--trace", "5"]


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_artifact_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli.main([*ARTIFACTS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in sorted(ARTIFACTS.items()):
        if cli.main([*args, "--out", str(GOLDEN / name)]) != 0:
            sys.exit(f"{name}: nonzero exit")
