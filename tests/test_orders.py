import random

import pytest

from tamewild.errors import PIsTwo
from tamewild.localfield import (
    eisenstein_root,
    qp,
    qp_zeta,
    unit_decompose,
    valuation,
)
from tamewild.orders import OrderRm, estimate_m0, m0_bound
from tamewild.errors import PRECISION_EXHAUSTED


def _random_integral(ctx, rng, digits=5):
    while True:
        x = ctx.elem([rng.randrange(ctx.p ** digits) for _ in range(ctx.e)])
        if not x.is_zero():
            return x


# -- membership -----------------------------------------------------------------

def test_membership_examples(sqrt3):
    pi = sqrt3.pi
    assert not OrderRm(sqrt3, 2).contains(pi)        # e*0 + 1 = 1 < 2
    assert OrderRm(sqrt3, 2).contains(pi ** 3)       # e*1 + 1 = 3 >= 2
    for m in range(6):
        assert OrderRm(sqrt3, m).contains(sqrt3.from_int(7))


def test_membership_monotone(sqrt3):
    rng = random.Random(0)
    for _ in range(100):
        x = _random_integral(sqrt3, rng)
        flags = [OrderRm(sqrt3, m).contains(x) for m in range(7)]
        # once False, stays False
        assert flags == sorted(flags, reverse=True)


def test_r0_is_valuation_ring(z3):
    rng = random.Random(1)
    order = OrderRm(z3, 0)
    for _ in range(50):
        assert order.contains(_random_integral(z3, rng))


def test_maximal_ideal_examples(sqrt3):
    p_elt = sqrt3.from_int(3)
    for m in range(1, 4):
        assert OrderRm(sqrt3, m).ideal_contains(p_elt)
    assert not OrderRm(sqrt3, 1).ideal_contains(sqrt3.omega)
    # m <= e: the maximal ideal is m^m O_F
    assert OrderRm(sqrt3, 1).ideal_contains(sqrt3.pi)


def test_is_unit_examples(sqrt3):
    assert all(OrderRm(sqrt3, m).is_unit(sqrt3.omega) for m in range(5))
    assert all(OrderRm(sqrt3, m).is_unit(sqrt3.from_int(4)) for m in range(5))
    assert not OrderRm(sqrt3, 1).is_unit(sqrt3.pi)
    assert not OrderRm(sqrt3, 2).is_unit(sqrt3.pi)


def test_dichotomy_and_closure(z3, cbrt3):
    rng = random.Random(2)
    for ctx in (z3, cbrt3):
        for m in range(0, 2 * ctx.e + 1):
            order = OrderRm(ctx, m)
            for _ in range(50):
                x = _random_integral(ctx, rng)
                if not order.contains(x):
                    continue
                assert order.is_unit(x) != order.ideal_contains(x)
                y = _random_integral(ctx, rng)
                if order.contains(y):
                    assert order.contains(x + y)
                    assert order.contains(x * y)


def test_ideal_equals_power_for_small_m(cbrt3):
    rng = random.Random(3)
    for m in range(1, cbrt3.e + 1):
        order = OrderRm(cbrt3, m)
        for _ in range(100):
            x = _random_integral(cbrt3, rng)
            v = valuation(x)
            in_power = v is PRECISION_EXHAUSTED or v >= m
            assert order.ideal_contains(x) == in_power


def test_unit_factorization_and_inverse(z3):
    rng = random.Random(4)
    for m in range(0, 5):
        order = OrderRm(z3, m)
        for _ in range(50):
            x = _random_integral(z3, rng)
            if not order.is_unit(x):
                continue
            dec = unit_decompose(x)
            assert dec.n == 0
            assert order.ideal_contains(dec.u - z3.one)
            assert dec.reconstruct(z3) == x
            assert order.contains(x.invert_unit())


# -- index ---------------------------------------------------------------------

def test_index_examples(sqrt3, z3):
    assert OrderRm(sqrt3, 0).index_in_of() == 1
    assert OrderRm(sqrt3, 2).index_in_of() == 3
    assert OrderRm(z3, 1).index_in_of() == 1
    assert OrderRm(z3, 2).index_in_of() == 3


def test_index_brute_force_small():
    from tamewild.acceptance import brute_force_index
    for p in (3, 5):
        for e in (2, 3):
            ctx = eisenstein_root(p, e, 8)
            for m in range(0, 2 * e + 1):
                assert OrderRm(ctx, m).index_in_of() == \
                    brute_force_index(ctx, m)


# -- bound and estimation ----------------------------------------------------------

def test_m0_bound_values():
    assert m0_bound(qp(5, 16)) == 0
    assert m0_bound(qp_zeta(3, 16)) == 4   # p + 1
    assert m0_bound(qp_zeta(5, 16)) == 6
    assert m0_bound(eisenstein_root(3, 3, 16)) == 1  # k = 0
    with pytest.raises(PIsTwo):
        m0_bound(qp(2, 16))


def test_estimate_unramified_shortcut():
    rep = estimate_m0(qp(7, 16))
    assert rep.estimated_m0 == 0 and rep.bound == 0
    assert rep.certificates[0][1] == "vanishing-sweep"


def test_estimate_k0_field():
    rep = estimate_m0(eisenstein_root(3, 3, 16))
    assert rep.estimated_m0 is not None and rep.estimated_m0 <= 1


def test_estimate_with_wild_oracle():
    from tamewild.symbols import triviality_oracle
    ctx = qp_zeta(3, 32)
    rep = estimate_m0(ctx, triviality_oracle(ctx), sample_budget=2000)
    assert rep.estimated_m0 is not None
    assert rep.estimated_m0 <= rep.bound == 4
    kinds = {m: kind for m, kind, _ in rep.certificates}
    # monotone: vanishing from the estimate up to the bound
    for m in range(rep.estimated_m0, rep.bound + 1):
        assert kinds[m] == "vanishing-sweep"
    for m in range(0, rep.estimated_m0):
        assert kinds[m] == "witness"
    js = rep.to_json()
    assert set(js) >= {"bound", "estimated_m0", "certificates"}


def test_estimate_budget():
    from tamewild.errors import BudgetExceeded
    from tamewild.symbols import triviality_oracle
    ctx = qp_zeta(3, 32)
    with pytest.raises(BudgetExceeded):
        estimate_m0(ctx, triviality_oracle(ctx), sample_budget=3)
