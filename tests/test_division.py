"""Division by pi^n and the leading digit against the product chain.

The reference divides by p blockwise, by pi through p/pi = pi^(e-1) w^-1
(w the unit pi^e/p), and by pi^n as n//e divisions by p, one power of
w^-1 and n%e divisions by pi: a chain of full products.  FElem.div_pi_pow
is one block formula and `lead` reads one block with no product; both are
checked against the chain on seeded elements of every preset and of two
fields with d = 2 and rho != 1.
"""

import random

import pytest

from tamewild.errors import PrecisionExhausted
from tamewild.localfield import (
    FElem,
    LocalFieldCtx,
    eisenstein_root,
    lead,
    preset,
    qp,
    valuation,
)


def ref_div_p(x):
    """x/p, ValueError unless p divides every coefficient."""
    p = x.ctx.p
    if any(c % p for c in x.flat):
        raise ValueError("element not divisible by p")
    return FElem(x.ctx, tuple(c // p for c in x.flat))


def ref_div_pi(x):
    """x/pi = (x - a_0)/pi + (a_0/p) * p/pi, a_0 the O0-coefficient of
    pi^0."""
    ctx = x.ctx
    if ctx.e == 1:
        return ref_div_p(x) * ctx.w_inv
    d = ctx.d
    b = ref_div_p(FElem(ctx, x.flat[:d] + (0,) * (len(x.flat) - d)))
    shifted = FElem(ctx, x.flat[d:] + (0,) * d)
    return shifted + ctx.monomial(ctx.e - 1) * ctx.w_inv * b


def ref_div_pi_pow(x, n):
    """x/pi^n by the chain: n//e divisions by p, w^-(n//e), then n%e
    divisions by pi."""
    k, r = divmod(n, x.ctx.e)
    if k:
        for _ in range(k):
            x = ref_div_p(x)
        x = x * x.ctx.w_inv ** k
    for _ in range(r):
        x = ref_div_pi(x)
    return x


PRESETS = ["qp-2", "qp-3", "qp-5", "qp-zeta-3", "qp-zeta-5", "qp-zeta-7",
           "sqrt-2", "sqrt-3", "cbrt-3", "root4-3", "root6-7"]
# rho = 7 in F_9 and rho = 13 in F_25: w^-1 has a residue outside F_p
D2_FIELDS = [{"p": 3, "N": 16, "d": 2, "f": [[3, 3], [3, 0], [0, 0], 1]},
             {"p": 5, "N": 16, "d": 2, "f": [[10, 5], [0, 0], 1]}]


def _fields():
    yield from (preset(name, 16) for name in PRESETS)
    yield eisenstein_root(5, 4, 16, d=2)
    yield from map(LocalFieldCtx.from_descriptor, D2_FIELDS)


FIELDS = list(_fields())


def test_the_d2_fields_have_rho_7_and_13():
    assert [ctx.rho for ctx in FIELDS[-2:]] == [7, 13]


def _seeded_elements(ctx, rng, count):
    """Elements pi^v * (random integral element), v up to 3e."""
    for _ in range(count):
        x = FElem(ctx, tuple(rng.randrange(ctx.mod)
                            for _ in range(ctx.e * ctx.d)))
        yield x * ctx.pi ** rng.randrange(3 * ctx.e + 1)


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_div_pi_pow_matches_the_chain(ctx):
    rng = random.Random(ctx.e * 1000 + ctx.p * 10 + ctx.d)
    for x in _seeded_elements(ctx, rng, 20):
        v = valuation(x)
        for n in sorted({0, 1, ctx.e - 1, ctx.e, ctx.e + 1, v}):
            if not 0 <= n <= v:
                continue
            diff = x.div_pi_pow(n) - ref_div_pi_pow(x, n)
            dv = valuation(diff)
            assert dv >= ctx.M - n, (x, n)
        with pytest.raises(ValueError):
            x.div_pi_pow(v + 1)
        with pytest.raises(ValueError):
            ref_div_pi_pow(x, v + 1)


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_lead_matches_the_chain(ctx):
    rng = random.Random(ctx.e * 1000 + ctx.p * 10 + ctx.d + 1)
    for x in _seeded_elements(ctx, rng, 20):
        v = valuation(x)
        assert lead(x) == (v, ref_div_pi_pow(x, v).residue()), x


def test_lead_of_zero_raises():
    ctx = qp(5, 16)
    with pytest.raises(PrecisionExhausted, match="indistinguishable from 0"):
        lead(ctx.zero)


def test_divisibility_failures_high_and_low(cbrt3):
    # n = 3k + r; blocks i >= r need p^k, blocks i < r need p^(k+1)
    assert cbrt3.pi.div_pi_pow(1) == cbrt3.one
    # low blocks: pi / pi^2 (k = 0, r = 2) needs p in block 1, and
    # 3 / pi^4 (k = 1, r = 1) needs p^2 in block 0
    with pytest.raises(ValueError):
        cbrt3.pi.div_pi_pow(2)
    with pytest.raises(ValueError):
        cbrt3.from_int(3).div_pi_pow(4)
    # high blocks: pi / pi^3 (k = 1, r = 0) needs p in block 1, and
    # pi^4 = 3 pi over pi^7 (k = 2, r = 1) needs p^2 in block 1
    with pytest.raises(ValueError):
        cbrt3.pi.div_pi_pow(3)
    with pytest.raises(ValueError):
        (cbrt3.pi ** 4).div_pi_pow(7)
    assert (cbrt3.pi ** 4).div_pi_pow(4) == cbrt3.one
