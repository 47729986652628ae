"""Output checks for every benchmark operation.

Each check reads the artifact an operation wrote and raises `CheckFailed`
when it is wrong. The orbit, discrepancy and expand checks recompute the
points independently of the package: by the shift-orbit identity
q_0 ... q_{n-1} = 2**f(n), the orbit point n of x = a/b is
(a * 2**f(n) mod b) / b, so integer residues r_{n+1} = r_n * q_n mod b give
every point, and the greedy digit n is floor(r_n * q_n / b).
"""

from __future__ import annotations

import csv
import json
from math import gcd
from pathlib import Path
from types import SimpleNamespace


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_verify(path: Path) -> None:
    report = json.loads(path.read_text())
    _require(report["all_passed"] is True, "verify: all_passed is not true")
    agrees = [c["orbit_agrees"] for r in report["non_normality"]
              for c in r["checkpoints"]]
    _require(False not in agrees, "verify: an orbit cross-check disagrees")
    _require(len(report["witnesses"]) == report["stages"],
             "verify: one witness per stage index expected")


def _check_values(values: list[int], label: str) -> None:
    # imported late so that run.py can report a checkout without the package
    from cantornorm import verify_bound

    _require(all(a < b for a, b in zip(values, values[1:])),
             f"{label}: values do not strictly increase")
    _require(verify_bound(SimpleNamespace(values=tuple(values))).passed,
             f"{label}: values break the growth bound")


def check_build_json(path: Path, positions: int) -> None:
    table = json.loads(path.read_text())
    values = [row["value"] for row in table["positions"]]
    _require(len(values) == positions, "build json: wrong position count")
    _check_values(values, "build json")


def check_build_csv(path: Path, positions: int) -> None:
    with path.open(newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    _require(len(rows) == positions, "build csv: wrong position count")
    _check_values([int(row["value"]) for row in rows], "build csv")


def _residues(x: str, bases: list[int], steps: int) -> tuple[int, list[int]]:
    a, b = (int(part) for part in x.split("/"))
    _require(len(bases) >= steps, "orbit: fewer bases than steps")
    residues = [a % b]
    for q in bases[:steps]:
        _require(q >= 2 and q & (q - 1) == 0, f"orbit: base {q} is not 2**s")
        residues.append(residues[-1] * q % b)
    return b, residues


def _point(r: int, b: int) -> str:
    g = gcd(r, b)
    return f"{r // g}/{b // g}"


def _check_points(points: list[str], x: str, bases: list[int], steps: int,
                  label: str) -> None:
    b, residues = _residues(x, bases, steps)
    _require(points == [_point(r, b) for r in residues],
             f"{label}: points differ from (a * 2**f(n) mod b) / b")


def check_orbit(path: Path, x: str, count: int) -> None:
    report = json.loads(path.read_text())
    _check_points(report["points"], x, report["q"], count, "orbit")


def check_discrepancy(path: Path, x: str, count: int) -> None:
    report = json.loads(path.read_text())
    _check_points(report["points"], x, report["q"], count - 1, "discrepancy")


def check_expand(path: Path, x: str, count: int) -> None:
    report = json.loads(path.read_text())
    bases = report["q"]
    b, residues = _residues(x, bases, count)
    _require(report["digits"] == [r * q // b for r, q in zip(residues, bases)],
             "expand: digits differ from floor(r_n * q_n / b)")
