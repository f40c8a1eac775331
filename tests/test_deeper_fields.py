"""Fields beyond the shipped presets: deeper wild exponents and larger
residue fields exercise the general branches of the filtration machinery."""

import pytest

from tamewild.errors import PrecisionExhausted, Unsupported
from tamewild.localfield import (
    LocalFieldCtx,
    hasse_forward,
    pth_root_in_filtration,
    spanning_units,
    valuation,
)
from tamewild.orders import OrderRm, m0_bound
from tamewild.symbols import tame_symbol, triviality_oracle, wild_symbol_zeta


@pytest.fixture(scope="module")
def zeta9():
    """Q_3(zeta_9): f = ((T+1)^9 - 1)/((T+1)^3 - 1), e = 6, k = 2."""
    return LocalFieldCtx(3, [3, 9, 18, 21, 15, 6, 1], 16, name="qp-zeta9-3")


def test_zeta9_wild_exponent(zeta9):
    assert zeta9.q - 1 == 2
    assert zeta9.k == 2


def test_zeta9_bound(zeta9):
    # floor(p*e1 + (k-1)*e) + 1 = floor(9 + 6) + 1
    assert m0_bound(zeta9) == 16


def test_zeta9_hasse_regimes(zeta9):
    for t in range(1, 11):
        rep = hasse_forward(zeta9, t)
        assert rep.ok, (t, rep.min_landing, rep.required)


def test_zeta9_double_root_chain(zeta9):
    i = 16  # above p*e1 + (k-1)*e = 15
    for u in spanning_units(zeta9, i, i + 1):
        r = pth_root_in_filtration(u, i - zeta9.e)
        r = pth_root_in_filtration(r, i - 2 * zeta9.e)
        assert (r ** 3) ** 3 == u


def test_zeta9_not_a_wild_zeta_context(zeta9):
    with pytest.raises(Unsupported, match="ctx must be the "
                       "Q_p\\(zeta_p\\) preset"):
        wild_symbol_zeta(zeta9.one + zeta9.pi, zeta9)
    with pytest.raises(Unsupported, match="no total symbol evaluator for "
                       "k=2, d=1"):
        triviality_oracle(zeta9)  # k = 2 has no shipped wild evaluator


def test_zeta9_order_membership(zeta9):
    # the coefficient criterion scales to e = 6
    order = OrderRm(zeta9, 7)
    assert order.contains(zeta9.pi ** 7)
    assert not order.contains(zeta9.pi)
    assert order.contains(zeta9.from_int(5))
    assert order.index_in_of() == 3 ** 5  # sum of ceil((7-i)/6), i=1..5


def test_large_residue_field_smoke():
    # p = 13, d = 3: q = 2197; dlog tables and tame symbols stay exact
    ctx = LocalFieldCtx(13, [-13, 1], 8, 3, name="q13-3")
    omega = ctx.omega
    assert omega ** (ctx.q - 1) == ctx.one
    assert tame_symbol(ctx.pi, omega) == ctx.q - 2  # residue(omega)^{-1}
    assert tame_symbol(omega, omega ** 5) == 0


def test_hasse_depth_guard(zeta9):
    with pytest.raises(PrecisionExhausted):
        hasse_forward(zeta9, 1, depth=zeta9.N)
