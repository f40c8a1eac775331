"""Seeded norm-residue answers and class keys, one sha256 per (field, m).

`tests/test_oracle_golden.py` recomputes these digests and compares them
with `oracle_answers.json`.  Rewrite the file only when a change to the
oracle's answers is intended:

    PYTHONPATH=src python tests/golden/regen.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from tamewild.cli import element_from_string
from tamewild.localfield import preset
from tamewild.normoracle import NormResidueOracle, norm_residue_trivial

ANSWERS = Path(__file__).resolve().with_name("oracle_answers.json")

#: (preset, N, m, y strings).  Across the list the y values reach every
#: way the oracle builds an extension: a prime element, a wild unit at a
#: fundamental level, the cokernel of the critical level (unramified,
#: m = p), the unramified quadratic extension (m = 2, odd p) and an m-th
#: power, which needs no extension at all.
CASES = [
    ("qp-zeta-3", 32, 3, ["2*pi^2", "(1+pi)^2*(1-pi^2)", "1+2*pi^3", "8"]),
    ("qp-zeta-5", 32, 5, ["2*pi^3", "(1+2*pi)*(1+pi^2)", "1+3*pi^5"]),
    ("qp-zeta-7", 16, 7, ["3*pi^2", "1+pi^3", "1+2*pi^7"]),
    ("qp-5", 32, 2, ["p", "2", "4"]),
    ("qp-7", 32, 2, ["3*p", "3", "2"]),
    ("cbrt-3", 32, 2, ["pi", "2", "4*pi^2"]),
    ("sqrt-5", 32, 2, ["2*pi", "2", "3*pi"]),
    ("qp-2", 32, 2, ["6", "3", "5", "17"]),
    ("sqrt-2", 32, 2, ["3*pi", "1+pi"]),
]

#: Random x values per y; 1 - y and -y follow them, and both are norms.
RANDOM_X = 3


def case_id(name, N, m):
    return f"{name}/N{N}/m{m}"


def _random_x(ctx, rng):
    """A nonzero element with random digits and a random pi-adic shift."""
    while True:
        x = ctx.elem([rng.randrange(ctx.p ** 5) for _ in range(ctx.e)])
        if not x.is_zero():
            return x * ctx.pi ** rng.randrange(3)


def transcript(name, N, m, ys):
    """The oracle and, per y, (y, class key string, answer string), the
    answers over RANDOM_X seeded x values, 1 - y and -y."""
    ctx = preset(name, N)
    rng = random.Random(case_id(name, N, m))
    oracle = NormResidueOracle(ctx, m)
    rows = []
    for text in ys:
        y = element_from_string(ctx, text)
        key = repr(oracle.class_key(y))
        xs = [_random_x(ctx, rng) for _ in range(RANDOM_X)]
        answers = "".join("1" if norm_residue_trivial(x, y, m) else "0"
                          for x in xs + [ctx.one - y, -y])
        rows.append((y, key, answers))
    return oracle, rows


def digest(rows):
    text = "\n".join(f"{key} {answers}" for _, key, answers in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def compute():
    return {case_id(name, N, m): digest(transcript(name, N, m, ys)[1])
            for name, N, m, ys in CASES}


def main():
    ANSWERS.write_text(json.dumps(compute(), indent=2, sort_keys=True)
                       + "\n")
    print(f"wrote {ANSWERS}", file=sys.stderr)


if __name__ == "__main__":
    main()
