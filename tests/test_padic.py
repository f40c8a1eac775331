"""The unramified ring O0 as the e = 1 FElems of F = O0[1/p] (f = T - p)."""

import random

import pytest

from tamewild.errors import (
    PRECISION_EXHAUSTED,
    BadInput,
    HenselHypothesisFailed,
    ZeroInput,
)
from tamewild.finitefield import default_modulus
from tamewild.localfield import (
    LocalFieldCtx,
    PadicCtx,
    hensel_root,
    val_p_coeffs,
    valuation,
)


def _o0(p, N, d):
    return LocalFieldCtx(PadicCtx(p, N, d), [-p, 1])


def _elem(ctx, coeffs):
    return ctx.elem([list(coeffs)])


def test_ctx_validation():
    with pytest.raises(ValueError):
        PadicCtx(4, 16)
    with pytest.raises(ValueError):
        PadicCtx(5, 4)
    with pytest.raises(ValueError):
        PadicCtx(3, 16, 2, gbar=(0, 0, 1))  # x^2 is reducible


def test_default_moduli_are_deterministic():
    assert default_modulus(3, 2) == (1, 0, 1)  # x^2 + 1
    assert default_modulus(3, 2) == default_modulus(3, 2)
    assert default_modulus(5, 1) == (0, 1)


# -- valuation ---------------------------------------------------------------

def test_val_p_examples():
    ctx = _o0(3, 16, 2)
    assert valuation(ctx.from_int(3)) == 1
    assert valuation(ctx.from_int(0)) is PRECISION_EXHAUSTED
    # 3*omega + 9: coefficients (9, 3), valuations (2, 1)
    assert valuation(_elem(ctx, [9, 3])) == 1
    assert val_p_coeffs((9, 3), 3) == 1
    assert val_p_coeffs((0, 0), 3) is PRECISION_EXHAUSTED


def test_val_p_additive():
    ctx = _o0(5, 16, 2)
    rng = random.Random(0)
    for _ in range(200):
        x = _elem(ctx, [rng.randrange(5 ** 6) for _ in range(2)])
        y = _elem(ctx, [rng.randrange(5 ** 6) for _ in range(2)])
        vx, vy = valuation(x), valuation(y)
        if PRECISION_EXHAUSTED in (vx, vy):
            continue
        if vx + vy < ctx.N:
            assert valuation(x * y) == vx + vy


# -- inversion ----------------------------------------------------------------

def test_invert_frozen_example():
    # 2 * 13 = 26 = 1 mod 25
    ctx = _o0(5, 8, 1)
    assert ctx.from_int(2).invert_unit().flat[0] % 25 == 13


def test_invert_identity_and_errors():
    ctx = _o0(5, 16, 1)
    assert ctx.one.invert_unit() == ctx.one
    with pytest.raises(BadInput):
        ctx.from_int(5).invert_unit()
    with pytest.raises(BadInput):
        ctx.from_int(0).invert_unit()


def invert_geometric(x):
    """The inverse of a unit by the geometric series
    1/x = y0 * sum (1 - x*y0)^l, y0 the lifted residue inverse."""
    ctx = x.ctx
    y0 = ctx.lift_residue(ctx.base.kappa.inv(x.residue()))
    t = ctx.one - x * y0
    acc, term = ctx.one, t
    while not term.is_zero():
        acc = acc + term
        term = term * t
    return y0 * acc


def test_invert_paths_agree_and_roundtrip():
    ctx = _o0(7, 16, 2)
    rng = random.Random(1)
    for _ in range(50):
        x = _elem(ctx, [rng.randrange(7 ** 6) for _ in range(2)])
        if valuation(x) != 0:
            continue
        y = x.invert_unit()
        assert invert_geometric(x) == y
        assert x * y == ctx.one and y * x == ctx.one
        assert y.invert_unit() == x


def test_ring_axioms_random():
    ctx = _o0(3, 16, 3)
    rng = random.Random(2)
    for _ in range(100):
        a, b, c = (_elem(ctx, [rng.randrange(3 ** 8) for _ in range(3)])
                   for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


# -- Teichmuller ----------------------------------------------------------------

def test_teichmuller_frozen_example():
    # 7^4 = 2401 = 1 mod 25 and 7 = 2 mod 5
    ctx = _o0(5, 8, 1)
    assert ctx.teichmuller(2).flat[0] % 25 == 7


def test_teichmuller_fixed_point_and_zero():
    ctx = _o0(5, 16, 1)
    assert ctx.teichmuller(1) == ctx.one
    with pytest.raises(ZeroInput):
        ctx.teichmuller(0)


def test_teichmuller_multiplicative_exhaustive():
    # q = 9 and q = 25: check on all of F_q^x
    for p, d in ((3, 2), (5, 2)):
        ctx = _o0(p, 12, d)
        kappa = ctx.base.kappa
        elems = [c for c in kappa.elements() if c != kappa.zero]
        lifts = {c: ctx.teichmuller(c) for c in elems}
        for c1 in elems:
            for c2 in elems:
                assert lifts[c1] * lifts[c2] == lifts[kappa.mul(c1, c2)]
        for c in elems:
            assert lifts[c] ** (ctx.q - 1) == ctx.one


def test_teichmuller_power_check_random():
    ctx = _o0(13, 12, 1)
    rng = random.Random(3)
    for _ in range(100):
        c = rng.randrange(1, 13)
        w = ctx.teichmuller(c)
        assert w ** (ctx.q - 1) == ctx.one
        assert w.residue() == c


# -- Hensel -------------------------------------------------------------------

def test_hensel_linear_and_frozen_sqrt():
    ctx = _o0(7, 8, 1)
    a = ctx.from_int(17)
    assert hensel_root([-1 * a, ctx.one], a) == a  # x - a
    r = hensel_root([ctx.from_int(-2), ctx.zero, ctx.one], ctx.from_int(3))
    assert r.flat[0] % 49 == 10  # 10^2 = 100 = 2 mod 49
    assert r * r == ctx.from_int(2)
    assert hensel_root([-2, 0, 1], ctx.from_int(3)) == r  # int coefficients
    # v(f'(a)) = 1 > 0: each step divides by pi
    q2 = _o0(2, 16, 1)
    r = hensel_root([-17, 0, 1], q2.one)
    assert r * r == q2.from_int(17) and r.flat[0] % 8 == 1


def test_hensel_nonresidue_fails():
    ctx = _o0(5, 16, 1)
    # Legendre(3, 5) = -1 by Euler's criterion, so x^2 - 3 has no root
    assert pow(3, 2, 5) == 4
    with pytest.raises(HenselHypothesisFailed):
        hensel_root([ctx.from_int(-3), ctx.zero, ctx.one], ctx.one)


def test_o0elem_json():
    ctx = _o0(3, 8, 2)
    assert _elem(ctx, [5, 7]).to_json() == [["5", "7"]]
