"""Seeded norm-residue answers and class keys, pinned as digests.

The digests in golden/oracle_answers.json were recorded with
golden/regen.py; any change to what the reducer or the oracle answers shows
up here as a changed digest for the (field, m) it touches.
"""

import functools
import importlib.util
import json
import random
from pathlib import Path

import pytest

REGEN = Path(__file__).resolve().parent / "golden" / "regen.py"


def _load_regen():
    spec = importlib.util.spec_from_file_location("oracle_golden_regen",
                                                  REGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()
PINNED = json.loads(regen.ANSWERS.read_text())
IDS = [regen.case_id(name, N, m) for name, N, m, _ in regen.CASES]


@functools.cache
def _transcript(index):
    return regen.transcript(*regen.CASES[index])


def _extension_kind(oracle, key, y):
    """How the oracle realises F(y^{1/m}): read off the extension it
    builds for the class key of y."""
    if not key:
        return "mth-power"
    ext = oracle._build_extension(list(key), y)
    if ext.ram_index == 1:
        return "cokernel" if oracle.reducer.wild else "unramified-quadratic"
    if all(r.is_zero() for r in ext.rhs[1:]):
        return "prime-element"
    return "wild-unit"


def test_pinned_cases_match_the_case_list():
    assert sorted(PINNED) == sorted(IDS)


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_oracle_digest(index):
    _, rows = _transcript(index)
    assert regen.digest(rows) == PINNED[IDS[index]]


def test_cases_reach_every_extension_kind():
    kinds = set()
    for index in range(len(IDS)):
        oracle, rows = _transcript(index)
        for y, _, _ in rows:
            kinds.add(_extension_kind(oracle, oracle.class_key(y), y))
    assert kinds == {"mth-power", "prime-element", "wild-unit", "cokernel",
                     "unramified-quadratic"}


def _full_span_pivots(oracle, y):
    """The reference build: every norm of the spanning set inserted, with
    no stop at the norm group's rank."""
    red = oracle.reducer
    ext = oracle._build_extension(list(oracle.class_key(y)), y)
    pivots = {}
    for elem in ext.spanning_norms(ext.ram_index * (red.H - 1) + 1):
        red.insert_generator(pivots, elem)
    return pivots


def _rows(pivots):
    return {pos: [row[:3] for row in span.rows]
            for pos, span in pivots.items()}


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_stopped_pivots_are_the_full_span(index):
    # the cases reach every extension kind (above) and include sqrt-2 and
    # qp-2 at m = 2: the full spanning set has exactly the norm group's
    # rank, the stopped build holds the same rows, and both answer alike
    oracle, rows = _transcript(index)
    ctx = oracle.ctx
    rng = random.Random(f"full-span-{IDS[index]}")
    xs = [regen._random_x(ctx, rng) for _ in range(12)]
    built = 0
    for y, key, _ in rows:
        if key == "()":
            continue
        full = _full_span_pivots(oracle, y)
        stopped = oracle._pivots_for(y)
        assert sum(len(span.rows) for span in full.values()) == \
            oracle.reducer.norm_rank
        assert _rows(stopped) == _rows(full)
        assert [oracle.reducer.is_member(stopped, x) for x in xs] == \
            [oracle.reducer.is_member(full, x) for x in xs]
        built += 1
    assert built
