"""Seeded benchmark inputs: the deep and cheap registries, the oracle file, and x.

The kind and halting rule at every stage index are fixed; the seed only
draws parameters of fixed size (pattern lengths, table sizes, prime bit
lengths), so every seed costs about the same and run-to-run spread reflects
the machine rather than the inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEEP_REGISTRY = "deep_registry.json"
DEEP_ORACLE = "deep_oracle.txt"
CHEAP_REGISTRY = "cheap_registry.json"
ORBIT_X = "orbit_x.txt"

ORACLE_BITS = 256
RATIONAL_PRIME_BITS = 29
X_PRIME_BITS = 160

# Miller-Rabin with these bases is exact below 3.3e24 (so for the 29-bit
# rationals) and a strong probable-prime test for the 160-bit x.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(r - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _prime(rng: random.Random, bits: int) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_prime(n):
            return n


def _pattern(rng: random.Random, length: int, ones: int) -> str:
    """A periodic pattern with a fixed number of ones at random places. The
    share of ones fixes how fast the constructed values grow, and with it
    the cost of every later step."""
    placed = set(rng.sample(range(length), ones))
    return "".join("1" if i in placed else "0" for i in range(length))


def _table_bits(rng: random.Random, size: int, span: int) -> dict:
    return {"kind": "table",
            "bits": {str(p): 1 for p in sorted(rng.sample(range(span), size))},
            "default": 0}


def _constant_halt(rng: random.Random) -> dict:
    return {"rule": "constant", "steps": rng.randint(0, 5)}


def _linear_halt(rng: random.Random) -> dict:
    return {"rule": "linear", "slope": rng.randint(1, 3),
            "intercept": rng.randint(0, 20)}


def _table_halt(rng: random.Random) -> dict:
    return {"rule": "table",
            "steps": {str(p): rng.randint(1, 40)
                      for p in sorted(rng.sample(range(64), 8))},
            "default": rng.randint(0, 3)}


def _rational(rng: random.Random) -> dict:
    denominator = _prime(rng, RATIONAL_PRIME_BITS)
    return {"kind": "rational", "numerator": rng.randrange(1, denominator),
            "denominator": denominator}


def deep_registry(rng: random.Random) -> dict:
    """Thirteen entries covering all six generator kinds and all three
    halting rules, with aliases; the rationals, whose bits cost the most,
    sit at the deepest stage indices a depth-10 run consults (8 and 9)."""
    entries = [
        {"kind": "periodic", "pattern": _pattern(rng, 6, 2),
         "halt": _constant_halt(rng)},
        {**_table_bits(rng, 16, 128), "halt": _table_halt(rng)},
        {"kind": "constant", "bit": rng.randint(0, 1),
         "halt": _constant_halt(rng)},
        {"kind": "oracle-bit", "halt": _constant_halt(rng)},
        {"kind": "champernowne", "halt": _linear_halt(rng)},
        {"alias_of": 0},
        {"kind": "periodic", "pattern": _pattern(rng, 5, 2),
         "halt": _linear_halt(rng)},
        {"alias_of": 3},
        {**_rational(rng), "halt": _linear_halt(rng)},
        {**_rational(rng), "halt": _linear_halt(rng)},
        {"alias_of": 8},
        {"alias_of": 4},
        {"alias_of": 9},
    ]
    return {"format": "registry/1", "entries": entries}


def cheap_registry(rng: random.Random) -> dict:
    """Twelve entries of the cheap kinds only (constant, periodic, table)."""
    entries = [
        {"kind": "periodic", "pattern": _pattern(rng, 5, 2),
         "halt": _constant_halt(rng)},
        {**_table_bits(rng, 16, 128), "halt": _table_halt(rng)},
        {"kind": "constant", "bit": rng.randint(0, 1),
         "halt": _constant_halt(rng)},
        {"alias_of": 0},
        {"kind": "periodic", "pattern": _pattern(rng, 7, 3),
         "halt": _table_halt(rng)},
        {**_table_bits(rng, 16, 128), "halt": _constant_halt(rng)},
        {"alias_of": 1},
        {"kind": "constant", "bit": rng.randint(0, 1),
         "halt": _table_halt(rng)},
        {"kind": "periodic", "pattern": _pattern(rng, 3, 1),
         "halt": _constant_halt(rng)},
        {**_table_bits(rng, 16, 128), "halt": _table_halt(rng)},
        {"alias_of": 4},
        {"alias_of": 8},
    ]
    return {"format": "registry/1", "entries": entries}


def oracle_text(rng: random.Random) -> str:
    bits = "".join(rng.choice("01") for _ in range(ORACLE_BITS))
    lines = ["# oracle-bit prefix for the verify-deep registry"]
    lines += [bits[i:i + 64] for i in range(0, ORACLE_BITS, 64)]
    lines.append("default=0")
    return "\n".join(lines) + "\n"


def orbit_x(rng: random.Random) -> str:
    """a/b in (0, 1) with b a 160-bit prime."""
    b = _prime(rng, X_PRIME_BITS)
    return f"{rng.randrange(1, b)}/{b}"


def generate(seed: int) -> dict[str, str]:
    """File name -> text of every input for `seed`; each input draws from
    its own stream, so adding one never shifts another."""
    def rng(name: str) -> random.Random:
        return random.Random(f"cantornorm-bench/{name}/{seed}")

    def dump(cfg: dict) -> str:
        return json.dumps(cfg, indent=1) + "\n"

    return {
        DEEP_REGISTRY: dump(deep_registry(rng("deep"))),
        DEEP_ORACLE: oracle_text(rng("oracle")),
        CHEAP_REGISTRY: dump(cheap_registry(rng("cheap"))),
        ORBIT_X: orbit_x(rng("x")) + "\n",
    }


def write(seed: int, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in generate(seed).items():
        (directory / name).write_text(text)
