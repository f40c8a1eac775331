"""FElem.invert_unit against the Newton loop it replaced, and a count gate on
its kernel products.

invert_unit starts Newton from the inverse mod p (a truncated series over
the residue field) and runs it on flat tuples.  The reference below is the
former loop, written on FElem: Newton from the lifted inverse of the residue,
correct only mod pi, so ceil(log2 e*N) steps instead of ceil(log2 N).  The
inverse of a unit mod (g, f, p^N) is unique, so the flats must agree."""

import math
import random

import pytest

from tamewild.errors import BadInput
from tamewild.localfield import (
    FElem,
    LocalFieldCtx,
    eisenstein_root,
    preset,
    qp,
    valuation,
)

LOCAL_SYMBOLS = ("qp-5", "qp-zeta-3", "cbrt-3", "qp-zeta-5", "qp-zeta-7")


def _invert_unit_reference(x):
    """The inverse of a unit by Newton on FElem from the lifted inverse of
    the residue; each step doubles the pi-adic precision from 1 up to M."""
    v = valuation(x)
    if v != 0:
        raise BadInput("invert_unit needs a unit (valuation 0)")
    ctx = x.ctx
    kappa = ctx.kappa
    r = kappa.digits(kappa.inv(x.residue()))
    y = FElem(ctx, tuple(r) + (0,) * (len(x.flat) - ctx.d))
    two = ctx.from_int(2)
    k = 1
    while k < ctx.M:
        y = y * (two - x * y)
        k *= 2
    return y


def _dense_unram2():
    """A dense Eisenstein sextic over the unramified quadratic extension of
    Q_3: every lower coefficient is nonzero and has both digits in use."""
    f = [[3, 3], [6, 3], [3, 0], [0, 3], [3, 6], [1, 0]]
    return LocalFieldCtx(3, f, 16, 2, name="dense-unram2")


def _corpus():
    for name in LOCAL_SYMBOLS:
        for N in (8, 64):
            yield preset(name, N)
    yield eisenstein_root(3, 4, 16, d=2)
    yield eisenstein_root(5, 3, 16, d=3)
    yield _dense_unram2()
    yield qp(2, 8)
    yield qp(2, 64)


def _units(ctx, n, rng):
    """n seeded units: random flats with a nonzero residue, then 1 + pi and
    a unit whose blocks above the first are all divisible by p."""
    out = [ctx.one + ctx.pi, ctx.from_int(ctx.p + 1) + ctx.pi ** ctx.e]
    while len(out) < n:
        x = FElem(ctx, tuple(rng.randrange(ctx.mod)
                             for _ in range(ctx.e * ctx.d)))
        if x.residue():
            out.append(x)
    return out


@pytest.mark.parametrize("ctx", list(_corpus()),
                         ids=lambda ctx: f"{ctx.name}-N{ctx.N}")
def test_invert_unit_matches_the_newton_loop_from_mod_pi(ctx):
    rng = random.Random(27)
    for x in _units(ctx, 40, rng):
        y = x.invert_unit()
        assert y.flat == _invert_unit_reference(x).flat
        assert x * y == ctx.one
    for x in _units(ctx, 6, rng):
        reference = _invert_unit_reference(x)
        for n in (1, 2, 5):
            assert (x ** -n).flat == (reference ** n).flat
    for non_unit in (ctx.zero, ctx.pi, ctx.from_int(ctx.p) + ctx.pi):
        with pytest.raises(BadInput):
            non_unit.invert_unit()
        with pytest.raises(BadInput):
            _invert_unit_reference(non_unit)


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("name", LOCAL_SYMBOLS)
def test_invert_unit_makes_two_kernel_products_per_newton_step(
        monkeypatch, name, N):
    # the series mod p makes the starting precision e, so the step count is
    # ceil(log2 N) for every e; Newton from mod pi takes ceil(log2 e*N)
    ctx = preset(name, N)
    x = _units(ctx, 3, random.Random(N))[-1]
    kernel_mul, calls = ctx._mul, []

    def counted_mul(a, b):
        calls.append(1)
        return kernel_mul(a, b)

    wrapped_mul, felem_products = FElem.__mul__, []

    def spied_mul(self, other):
        felem_products.append(1)
        return wrapped_mul(self, other)

    ctx._mul = counted_mul
    monkeypatch.setattr(FElem, "__mul__", spied_mul)
    y = x.invert_unit()
    monkeypatch.undo()
    assert len(calls) == 2 * math.ceil(math.log2(N))
    assert felem_products == []
    assert y.flat == _invert_unit_reference(x).flat
