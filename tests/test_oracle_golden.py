"""Seeded norm-residue answers and class keys, pinned as digests.

The digests in golden/oracle_answers.json were recorded with
golden/regen.py; any change to the oracle's class keys or answers shows
up here as a changed digest for the (field, m) it touches.
"""

import functools
import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from tamewild.finitefield import echelon_insert, echelon_reduce

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

#: sha256 of each case's answer strings alone, one line per y, with no
#: class key: what the oracle decides, whatever form its keys take.
ANSWERS_ONLY = {
    "qp-zeta-3/N32/m3":
        "cfd564c9e00f651d625460fc7ab6df1ef1bf39719b97c1fb7a21c77f029e12f1",
    "qp-zeta-5/N32/m5":
        "565765403659cb7d172d2cd36ef357c0f1fa00c14a8b6e01418f8f76e4bdae2f",
    "qp-zeta-7/N16/m7":
        "357af430a09707d54e3cb3e3b39376362d84dbd5681b47a3bed4a115d8b23cda",
    "qp-5/N32/m2":
        "e971b303f612f938aa24109bc8140ec344e95905f44d0078af3f816a0de59a6a",
    "qp-7/N32/m2":
        "780d254c27c6e6f81e0906468178a94fb43180d92a0c2e2002d34bc22ba0e466",
    "cbrt-3/N32/m2":
        "ac141a3dddd0c2cc9d796323fc16696b039bae2f84daac51a14c1f1392ce3481",
    "sqrt-5/N32/m2":
        "29e9cc566efbf8e88692046becd863bc859f0c50fe5dd8cd6a87d25de73b014b",
    "qp-2/N32/m2":
        "42d2c6329f31f0a763ad241cebe9d4bffffe6aca9fb745045920877960e72236",
    "sqrt-2/N32/m2":
        "1460136f26f5b3e3a3261c56f5f19326b45107840389d3734676c86049ab0908",
}


@functools.cache
def _transcript(index):
    return regen.transcript(*regen.CASES[index])


def _extension_kind(oracle, key, y):
    """How the oracle realises F(y^{1/m}): read off the extension it
    builds for the class key of y."""
    if not any(key):
        return "mth-power"
    ext = oracle._build_extension(list(key), y)
    if ext.ram_index == 1:
        return "cokernel" if oracle.wild else "unramified-quadratic"
    if not any(ext.tail):
        return "prime-element"
    return "wild-unit"


def test_pinned_cases_match_the_case_list():
    assert sorted(PINNED) == sorted(IDS)


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_oracle_digest(index):
    _, rows = _transcript(index)
    assert regen.digest(rows) == PINNED[IDS[index]]


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_answers_match_the_recorded_digest(index):
    _, rows = _transcript(index)
    text = "\n".join(answers for _, _, answers in rows)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == ANSWERS_ONLY[IDS[index]]


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
    ext = oracle._build_extension(list(oracle.class_key(y)), y)
    rows = []
    for elem in ext.spanning_norms(ext.ram_index * (oracle.H - 1) + 1):
        echelon_insert(rows, oracle.coordinates(elem), oracle.m)
    return rows


def _is_norm(oracle, rows, x):
    return not any(echelon_reduce(rows, oracle.coordinates(x), oracle.m))


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
    for y, _, _ in rows:
        if not any(oracle.class_key(y)):
            continue
        full = _full_span_pivots(oracle, y)
        stopped = oracle._pivots_for(y)
        assert len(full) == oracle.norm_rank
        assert stopped == full
        assert [_is_norm(oracle, stopped, x) for x in xs] == \
            [_is_norm(oracle, full, x) for x in xs]
        built += 1
    assert built


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_norm_rank_is_the_basis_length_less_one(index):
    oracle, _ = _transcript(index)
    ctx = oracle.ctx
    assert len(oracle.coordinates(ctx.pi)) == len(oracle.basis)
    assert oracle.norm_rank == len(oracle.basis) - 1
    assert oracle.norm_rank == (ctx.e * ctx.d + 1 if oracle.wild else 1)


@pytest.mark.parametrize("index", range(len(IDS)), ids=IDS)
def test_a_reduced_vector_is_zero_off_the_free_column(index):
    # the rows lead all columns but one, so a reduced vector can be nonzero
    # only there, and is nonzero exactly for an x that is no norm
    oracle, rows = _transcript(index)
    ctx = oracle.ctx
    rng = random.Random(f"free-column-{IDS[index]}")
    xs = [regen._random_x(ctx, rng) for _ in range(12)]
    for y, _, _ in rows:
        pivots = oracle._pivots_for(y)
        if pivots is None:
            continue
        (free,) = set(range(len(oracle.basis))) - {lead for lead, _ in pivots}
        for x in xs:
            reduced = echelon_reduce(pivots, oracle.coordinates(x), oracle.m)
            assert all(c == 0 for col, c in enumerate(reduced)
                       if col != free)
            assert (reduced[free] == 0) == oracle.trivial(x, y)
