"""The capped-absolute precision contract at its edges: an element
indistinguishable from 0 has valuation M = e*N (a block of it, N), and the
queries that read it compare that int with plain comparisons."""

import pytest

from tamewild.cli import dispatch
from tamewild.errors import PrecisionExhausted
from tamewild.localfield import (
    eisenstein_root,
    pth_root_in_filtration,
    qp_zeta,
    unit_level,
    val_p_coeffs,
    valuation,
)
from tamewild.orders import OrderRm


@pytest.mark.parametrize("ctx", [
    eisenstein_root(3, 2, 16, d=2),  # d > 1
    qp_zeta(5, 8),                   # e > 1
], ids=repr)
def test_zero_has_valuation_M(ctx):
    assert ctx.e * ctx.N == ctx.M
    assert valuation(ctx.zero) == ctx.M
    assert unit_level(ctx.one) == ctx.M
    assert val_p_coeffs(ctx.zero.flat[:ctx.d], ctx.p, ctx.N) == ctx.N
    # the least nonzero element sits just below the cap
    assert valuation(ctx.pi ** (ctx.M - 1)) == ctx.M - 1


def test_order_certifies_zero_up_to_depth_N():
    ctx = qp_zeta(3, 8)
    # the O0-coefficient of pi in R_m has depth ceil((m-1)/e)
    assert OrderRm(ctx, 17).depth(1) == ctx.N
    assert OrderRm(ctx, 17).contains(ctx.zero)
    assert OrderRm(ctx, 18).depth(1) == ctx.N + 1
    with pytest.raises(PrecisionExhausted, match="cannot be certified"):
        OrderRm(ctx, 18).contains(ctx.zero)


def test_order_zero_on_the_command_line(capsys):
    argv = ["order", "--preset", "qp-zeta-3", "-N", "8", "--x", "0"]
    assert dispatch(argv + ["--m", "8"]) == 0
    assert capsys.readouterr().out == (
        "contains: True\nin_maximal_ideal: True\nindex: 81\n"
        "index_exponent: 4\nis_unit: False\nm: 8\n")
    assert dispatch(argv + ["--m", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: coefficient valuation cannot be "
                            "certified against m\n")


def test_pth_root_of_one_above_the_cap():
    ctx = qp_zeta(3, 8)
    t = ctx.M - 1  # t + e > M: no w other than 1 lies in U^(t+e)
    assert t + ctx.e > ctx.M
    assert pth_root_in_filtration(ctx.one, t) == ctx.one
