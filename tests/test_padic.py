"""The unramified ring O0 as the e = 1 FElems of F = O0[1/p] (f = T - p),
and hensel_root, the Newton reference that p-th roots and roots of unity
are checked against."""

import random

import pytest

from tamewild.errors import BadInput
from tamewild.finitefield import default_modulus
from tamewild.localfield import (
    LocalFieldCtx,
    val_p_coeffs,
    valuation,
)

from conftest import teichmuller_reference


def _o0(p, N, d):
    return LocalFieldCtx(p, [-p, 1], N, d)


def _elem(ctx, coeffs):
    return ctx.elem([list(coeffs)])


def test_ctx_validation():
    with pytest.raises(ValueError):
        _o0(4, 16, 1)
    with pytest.raises(ValueError):
        _o0(5, 4, 1)
    with pytest.raises(ValueError):
        LocalFieldCtx(3, [-3, 1], 16, 2, gbar=(0, 0, 1))  # x^2 is reducible


def test_default_moduli_are_deterministic():
    assert default_modulus(3, 2) == (1, 0, 1)  # x^2 + 1
    assert default_modulus(3, 2) == default_modulus(3, 2)
    assert default_modulus(5, 1) == (0, 1)


# -- valuation ---------------------------------------------------------------

def test_val_p_examples():
    ctx = _o0(3, 16, 2)
    assert valuation(ctx.from_int(3)) == 1
    assert valuation(ctx.from_int(0)) == ctx.M == 16
    # 3*omega + 9: coefficients (9, 3), valuations (2, 1)
    assert valuation(_elem(ctx, [9, 3])) == 1
    assert val_p_coeffs((9, 3), 3, 16) == 1
    assert val_p_coeffs((0, 0), 3, 16) == 16


def test_val_p_additive():
    ctx = _o0(5, 16, 2)
    rng = random.Random(0)
    for _ in range(200):
        x = _elem(ctx, [rng.randrange(5 ** 6) for _ in range(2)])
        y = _elem(ctx, [rng.randrange(5 ** 6) for _ in range(2)])
        vx, vy = valuation(x), valuation(y)
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
    y0 = ctx.lift_residue(ctx.kappa.inv(x.residue()))
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

def _lift(ctx, c):
    """The Teichmuller lift of c != 0 as the field computes it, a power of
    omega."""
    return ctx.teichmuller_power(ctx.kappa.dlog(c))


def test_teichmuller_frozen_example():
    # 7^4 = 2401 = 1 mod 25 and 7 = 2 mod 5
    ctx = _o0(5, 8, 1)
    w = _lift(ctx, 2)
    assert w == teichmuller_reference(ctx, 2)
    assert w.flat[0] % 25 == 7


def test_teichmuller_fixed_point():
    ctx = _o0(5, 16, 1)
    assert _lift(ctx, 1) == teichmuller_reference(ctx, 1) == ctx.one


def test_teichmuller_multiplicative_exhaustive():
    # q = 9 and q = 25: check on all of F_q^x
    for p, d in ((3, 2), (5, 2)):
        ctx = _o0(p, 12, d)
        kappa = ctx.kappa
        elems = [c for c in kappa.elements() if c != kappa.zero]
        lifts = {c: _lift(ctx, c) for c in elems}
        for c in elems:
            assert lifts[c] == teichmuller_reference(ctx, c)
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
        w = _lift(ctx, c)
        assert w == teichmuller_reference(ctx, c)
        assert w ** (ctx.q - 1) == ctx.one
        assert w.residue() == c


# -- Hensel -------------------------------------------------------------------

class HenselHypothesisFailed(ArithmeticError):
    """Newton refinement could not be certified from the given
    approximation."""


def hensel_root(poly, approx):
    """Newton refinement of an approximate root of poly (a list of FElems
    or ints, low degree first): the reference the p-th-root solver of the
    package is checked against.

    Requires the classical certificate v(poly(a)) > 2*v(poly'(a)) at
    working precision; raises HenselHypothesisFailed otherwise.  Each step
    divides exactly by pi^v(poly'(a)), which costs that many certified
    levels; the root is returned once poly(root) vanishes at the remaining
    certified precision.
    """
    return _hensel(poly, approx)[0]


def _hensel(poly, approx):
    """hensel_root's refinement as (root, certified pi-levels spent)."""
    ctx = approx.ctx
    dpoly = [c * i for i, c in enumerate(poly)][1:]

    def ev(coeffs, x):
        acc = ctx.zero
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    fx = ev(poly, approx)
    fpx = ev(dpoly, approx)
    va, vd = valuation(fx), valuation(fpx)
    if not va > 2 * vd:
        raise HenselHypothesisFailed(
            f"v(f(a)) = {va} does not exceed 2*v(f'(a)) = {2 * vd}")
    a = approx
    decay = 0
    for _ in range(ctx.M.bit_length() + 8):
        if fx.is_zero():
            return a, decay
        if vd and valuation(fx) >= ctx.M - decay:
            return a, decay  # vanishes at the certified precision
        a = a - fx.div_pi_pow(vd) * fpx.div_pi_pow(vd).invert_unit()
        decay += vd
        fx = ev(poly, a)
        fpx = ev(dpoly, a)
    raise HenselHypothesisFailed("Newton iteration failed to converge")


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
