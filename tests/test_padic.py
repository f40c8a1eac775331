import random

import pytest

from tamewild.errors import (
    PRECISION_EXHAUSTED,
    HenselHypothesisFailed,
    NotAUnit,
    PrecisionLoss,
    ZeroInput,
)
from tamewild.padic import (
    PadicCtx,
    default_modulus,
    hensel_root,
    invert,
    teichmuller,
    val_p,
    zp_binomial,
)


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
    ctx = PadicCtx(3, 16, 2)
    assert val_p(ctx.from_int(3)) == 1
    assert val_p(ctx.from_int(0)) is PRECISION_EXHAUSTED
    # 3*omega + 9: coefficients (9, 3), valuations (2, 1)
    assert val_p(ctx.elem([9, 3])) == 1


def test_val_p_additive():
    ctx = PadicCtx(5, 16, 2)
    rng = random.Random(0)
    for _ in range(200):
        x = ctx.elem([rng.randrange(5 ** 6) for _ in range(2)])
        y = ctx.elem([rng.randrange(5 ** 6) for _ in range(2)])
        vx, vy = val_p(x), val_p(y)
        if PRECISION_EXHAUSTED in (vx, vy):
            continue
        if vx + vy < ctx.N:
            assert val_p(x * y) == vx + vy


# -- inversion ----------------------------------------------------------------

def test_invert_frozen_example():
    # 2 * 13 = 26 = 1 mod 25
    ctx = PadicCtx(5, 8, 1)
    assert invert(ctx.from_int(2)).coeffs[0] % 25 == 13


def test_invert_identity_and_errors():
    ctx = PadicCtx(5, 16, 1)
    assert invert(ctx.one) == ctx.one
    with pytest.raises(NotAUnit):
        invert(ctx.from_int(5))
    with pytest.raises(NotAUnit):
        invert(ctx.from_int(0))


def invert_geometric(x):
    """The inverse of a unit by the geometric series
    1/x = y0 * sum (1 - x*y0)^l, y0 the lifted residue inverse."""
    ctx = x.ctx
    y0 = ctx.lift_residue(ctx.kappa.inv(x.residue()))
    t = ctx.one - x * y0
    acc, term = ctx.one, t
    while not term.is_zero():
        acc = acc + term
        term = term * t
    return y0 * acc


def test_invert_paths_agree_and_roundtrip():
    ctx = PadicCtx(7, 16, 2)
    rng = random.Random(1)
    for _ in range(50):
        x = ctx.elem([rng.randrange(7 ** 6) for _ in range(2)])
        if val_p(x) != 0:
            continue
        y = invert(x)
        assert invert_geometric(x) == y
        assert x * y == ctx.one and y * x == ctx.one
        assert invert(y) == x


def test_ring_axioms_random():
    ctx = PadicCtx(3, 16, 3)
    rng = random.Random(2)
    for _ in range(100):
        a, b, c = (ctx.elem([rng.randrange(3 ** 8) for _ in range(3)])
                   for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


# -- Teichmuller ----------------------------------------------------------------

def test_teichmuller_frozen_example():
    # 7^4 = 2401 = 1 mod 25 and 7 = 2 mod 5
    ctx = PadicCtx(5, 8, 1)
    assert ctx.teichmuller(2).coeffs[0] % 25 == 7


def test_teichmuller_fixed_point_and_zero():
    ctx = PadicCtx(5, 16, 1)
    assert ctx.teichmuller(1) == ctx.one
    with pytest.raises(ZeroInput):
        ctx.teichmuller(0)


def test_teichmuller_multiplicative_exhaustive():
    # q = 9 and q = 25: check on all of F_q^x
    for p, d in ((3, 2), (5, 2)):
        ctx = PadicCtx(p, 12, d)
        kappa = ctx.kappa
        elems = [c for c in kappa.elements() if c != kappa.zero]
        lifts = {c: ctx.teichmuller(c) for c in elems}
        for c1 in elems:
            for c2 in elems:
                assert lifts[c1] * lifts[c2] == lifts[kappa.mul(c1, c2)]
        for c in elems:
            assert lifts[c] ** (ctx.q - 1) == ctx.one


def test_teichmuller_power_check_random():
    ctx = PadicCtx(13, 12, 1)
    rng = random.Random(3)
    for _ in range(100):
        c = rng.randrange(1, 13)
        w = ctx.teichmuller(c)
        assert w ** (ctx.q - 1) == ctx.one
        assert w.residue() == c


# -- Hensel -------------------------------------------------------------------

def test_hensel_linear_and_frozen_sqrt():
    ctx = PadicCtx(7, 8, 1)
    a = ctx.from_int(17)
    assert hensel_root([-1 * a, ctx.one], a) == a  # x - a
    r = hensel_root([ctx.from_int(-2), ctx.zero, ctx.one], ctx.from_int(3))
    assert r.coeffs[0] % 49 == 10  # 10^2 = 100 = 2 mod 49
    assert r * r == ctx.from_int(2)


def test_hensel_nonresidue_fails():
    ctx = PadicCtx(5, 16, 1)
    # Legendre(3, 5) = -1 by Euler's criterion, so x^2 - 3 has no root
    assert pow(3, 2, 5) == 4
    with pytest.raises(HenselHypothesisFailed):
        hensel_root([ctx.from_int(-3), ctx.zero, ctx.one], ctx.one)


# -- binomials ------------------------------------------------------------------

def test_zp_binomial_values():
    ctx = PadicCtx(3, 8, 1)
    for alpha in (-7, -1, 0, 2, 11):
        assert zp_binomial(ctx, alpha, 0) == 1
    assert zp_binomial(ctx, -1, 2) == 1  # (-1)(-2)/2
    assert zp_binomial(ctx, 3, 2) % 27 == 3
    assert zp_binomial(ctx, 5, 7) == 0  # integer binomial, 5 < 7


def test_zp_binomial_precision_loss():
    ctx = PadicCtx(3, 8, 1)
    with pytest.raises(PrecisionLoss):
        zp_binomial(ctx, 1, 3 ** 9)


def test_o0elem_json():
    ctx = PadicCtx(3, 8, 2)
    assert ctx.elem([5, 7]).to_json() == ["5", "7"]
