"""Cross-module invariants that do not belong to a single unit file."""

import json
import random

import pytest

import sympy

from tamewild.errors import Unsupported
from tamewild.localfield import LocalFieldCtx, qp_zeta
from tamewild.normoracle import norm_residue_trivial
from tamewild.orders import OrderRm, estimate_m0
from tamewild.finitefield import GF, FqPoly, default_modulus, is_irreducible
from tamewild.symbols import tame_symbol, triviality_oracle

from conftest import principal_unit_span


def test_default_moduli_cover_small_fields():
    for p in (2, 3, 5, 7, 11, 13):
        for d in (1, 2, 3):
            gbar = default_modulus(p, d)
            assert len(gbar) == d + 1 and gbar[d] == 1
            assert is_irreducible(FqPoly(GF(p), gbar))


def test_residue_generator_has_full_order():
    for p, d in ((3, 2), (5, 2), (7, 1), (2, 3)):
        ctx = LocalFieldCtx(p, [-p, 1], 12, d)
        g = ctx.kappa.generator()
        order = ctx.q - 1
        for f in sympy.factorint(order):
            assert ctx.kappa.pow(g, order // f) != ctx.kappa.one
        assert ctx.kappa.pow(g, order) == ctx.kappa.one


def test_omega_pairs_trivial_under_oracle():
    # pure torsion and torsion-by-principal pairs have trivial symbols
    ctx = qp_zeta(3, 32)
    omega = ctx.omega
    assert tame_symbol(omega, omega) == 0
    assert norm_residue_trivial(omega, omega, 3)
    for g in principal_unit_span(ctx, 2, 2):
        assert tame_symbol(omega, g) == 0
        assert norm_residue_trivial(omega, g, 3)
        assert norm_residue_trivial(g, omega, 3)


def test_zp_exp_with_order_ideal():
    ctx = qp_zeta(3, 16)
    order = OrderRm(ctx, 3)
    u = ctx.one + ctx.from_int(3)  # 1 + p lies in 1 + maximal ideal
    # closure: every Z_p-power lands back in 1 + the ideal
    rng = random.Random(0)
    for _ in range(20):
        alpha = rng.randrange(-30, 30)
        assert order.ideal_contains(u ** alpha - ctx.one)


def test_estimate_requires_wild_oracle():
    # without an oracle, estimate_m0 takes triviality_oracle's, and a field
    # that has none (k = 1 over F_9) still raises
    ctx = qp_zeta(3, 16)
    explicit = estimate_m0(ctx, triviality_oracle(ctx)).to_json()
    assert estimate_m0(qp_zeta(3, 16)).to_json() == explicit
    k1_d2 = LocalFieldCtx.from_json(
        json.dumps({"p": 3, "d": 2, "N": 16, "f": [-3, 0, 1]}))
    assert (k1_d2.k, k1_d2.d) == (1, 2)
    with pytest.raises(Unsupported, match="no total symbol evaluator for "
                       "k=1, d=2"):
        estimate_m0(k1_d2)


def test_inverse_stays_in_order():
    # the geometric-series closure argument, witnessed by direct inversion
    ctx = qp_zeta(3, 16)
    rng = random.Random(1)
    for m in (1, 2, 3, 4):
        order = OrderRm(ctx, m)
        for _ in range(30):
            x = ctx.from_int(rng.randrange(3 ** 5))
            z = rng.choice(principal_unit_span(ctx, m, 2))
            u = z if rng.random() < 0.5 else z * ctx.teichmuller_power(
                rng.randrange(ctx.q - 1))
            assert order.is_unit(u)
            assert order.contains(u.invert_unit())
