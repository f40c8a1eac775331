import random

import pytest

from tamewild.errors import (
    PRECISION_EXHAUSTED,
    BelowThreshold,
    NotInIdeal,
    NotPrincipalUnit,
)
from tamewild.localfield import (
    LocalFieldCtx,
    PadicCtx,
    compute_mu,
    eisenstein_root,
    hasse_forward,
    preset,
    pth_root_in_filtration,
    qp,
    qp_zeta,
    spanning_units,
    unit_decompose,
    unit_level,
    valuation,
    zp_exp,
)


def _random_nonzero(ctx, rng, digits=6):
    while True:
        x = ctx.elem([rng.randrange(ctx.p ** digits) for _ in range(ctx.e)])
        if not x.is_zero():
            return x


def test_eisenstein_validation():
    base = PadicCtx(3, 16, 1)
    with pytest.raises(ValueError):
        LocalFieldCtx(base, [1, 0, 1])       # unit constant term
    with pytest.raises(ValueError):
        LocalFieldCtx(base, [9, 0, 1])       # constant term divisible by p^2
    with pytest.raises(ValueError):
        LocalFieldCtx(base, [3, 1, 1])       # middle coefficient is a unit
    LocalFieldCtx(base, [3, 3, 1])           # fine


def test_presets_and_descriptor_roundtrip():
    for name in ("qp-5", "qp-zeta-3", "sqrt-3", "cbrt-3", "root4-5"):
        ctx = preset(name, 16)
        back = LocalFieldCtx.from_descriptor(ctx.descriptor())
        assert back.descriptor() == ctx.descriptor()


def test_valuation_examples(z3, sqrt3):
    assert valuation(z3.pi) == 1
    assert valuation(z3.from_int(3)) == z3.e  # v(p) = e
    assert valuation(z3.from_int(3) + z3.pi) == 1
    assert valuation(z3.zero) is PRECISION_EXHAUSTED
    assert valuation(sqrt3.pi ** 3) == 3


def test_valuation_multiplicative(z3):
    rng = random.Random(0)
    for _ in range(200):
        x = _random_nonzero(z3, rng)
        y = _random_nonzero(z3, rng)
        vx, vy = valuation(x), valuation(y)
        if PRECISION_EXHAUSTED in (vx, vy) or vx + vy >= z3.M - 2:
            continue
        assert valuation(x * y) == vx + vy


def test_unit_decompose_trivials(q5, z3):
    d = unit_decompose(z3.pi)
    assert (d.n, d.i) == (1, 0) and d.u == z3.one
    d = unit_decompose(q5.from_int(5))  # p is the uniformizer of Q_p
    assert (d.n, d.i) == (1, 0) and d.u == q5.one


def test_unit_decompose_roundtrip(z3, cbrt3):
    rng = random.Random(1)
    for ctx in (z3, cbrt3):
        for _ in range(100):
            x = _random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(4)
            if valuation(x) is PRECISION_EXHAUSTED:
                continue
            d = unit_decompose(x)
            assert d.reconstruct(ctx) == x
            lv = valuation(d.u - ctx.one)
            assert lv is PRECISION_EXHAUSTED or lv >= 1


def test_unit_level(z3):
    assert unit_level(z3.one + z3.pi) == 1
    assert unit_level(z3.one + z3.from_int(3)) == z3.e
    assert unit_level(z3.one) is PRECISION_EXHAUSTED
    with pytest.raises(NotPrincipalUnit):
        unit_level(z3.from_int(2))


# -- Z_p-exponentiation ---------------------------------------------------------

def test_zp_exp_trivials_and_frozen():
    F = qp(5, 8)
    u = F.from_int(6)
    assert zp_exp(u, 1) == u
    assert zp_exp(u, 0) == F.one
    # (1+5)^5 = 7776 = 1 + 25 mod 125
    assert zp_exp(u, 5).flat[0] % 125 == 26


def test_zp_exp_module_laws(z3):
    rng = random.Random(2)
    for _ in range(30):
        u = z3.one + _random_nonzero(z3, rng) * z3.pi
        a = rng.randrange(-50, 50)
        b = rng.randrange(-50, 50)
        assert zp_exp(u, a) * zp_exp(u, b) == zp_exp(u, a + b)
        assert zp_exp(zp_exp(u, a), b) == zp_exp(u, a * b)


def test_zp_exp_preconditions(z3):
    with pytest.raises(NotInIdeal):
        zp_exp(z3.one + z3.pi, 2, ideal=2)
    assert zp_exp(z3.one + z3.pi ** 2, 2, ideal=2) == (z3.one + z3.pi ** 2) ** 2


def test_zp_exp_inverse_root(z3):
    # alpha = 1/(q-1) as a p-adic integer inverts the (q-1)-power map
    u = z3.one + z3.from_int(3) * z3.pi
    qm1 = z3.q - 1
    alpha = pow(qm1, -1, z3.base.mod)
    root = zp_exp(u, alpha)
    assert zp_exp(root, qm1) == u


# -- Hasse landing bounds ----------------------------------------------------------

def test_hasse_forward_regimes(q5, z3):
    # Q_p: e1 = 1/(p-1) < 1, so every t is in the upper regime
    rep = hasse_forward(q5, 1)
    assert rep.regime == "above" and rep.required == 2 and rep.ok
    # Q_3(zeta_3): e1 = 1: t = 1 is critical-regime (p*t bound)
    rep = hasse_forward(z3, 1)
    assert rep.regime == "below" and rep.required == 3 and rep.ok
    rep = hasse_forward(z3, 2)
    assert rep.regime == "above" and rep.required == 4 and rep.ok


def test_hasse_report_against_bound(z5):
    for t in range(1, 6):
        rep = hasse_forward(z5, t)
        assert rep.ok, (t, rep.min_landing, rep.required)


def test_cube_expansion_example(z3):
    # (1+pi)^3 over Q_3(zeta_3) is exactly 1 (pi = zeta_3 - 1)
    assert (z3.one + z3.pi) ** 3 == z3.one
    # level-1 units land at level >= p*t = 3 (here the graded cube map
    # a -> a^3 + rho*a vanishes identically on F_3, so strictly above)
    g = z3.one + z3.from_int(2) * z3.pi
    assert unit_level(g ** 3) >= 3


def test_pth_root_trivial_and_roundtrip(z3, z5):
    assert pth_root_in_filtration(z3.one, 2) == z3.one
    rng = random.Random(3)
    for ctx in (z3, z5):
        t = int(ctx.e1) + 1
        for _ in range(50):
            u = ctx.one
            for s in range(t, t + 2):
                u = u * (ctx.one + ctx.from_int(rng.randrange(ctx.p))
                         * ctx.pi ** s)
            w = u ** ctx.p
            r = pth_root_in_filtration(w, t)
            assert r ** ctx.p == w
            # the recovered root differs from u by a p-th root of unity
            rate = r * u.invert_unit()
            lv = valuation(rate - ctx.one)
            assert lv is PRECISION_EXHAUSTED or rate ** ctx.p == ctx.one


def test_pth_root_threshold(z3):
    with pytest.raises(BelowThreshold):
        pth_root_in_filtration(z3.one + z3.pi ** 4, 1)  # t = 1 = e1


def test_pth_root_frozen_example(z3):
    w = (z3.one + z3.pi ** 2) ** 3
    r = pth_root_in_filtration(w, 2)
    assert r ** 3 == w
    rate = r * (z3.one + z3.pi ** 2).invert_unit()
    assert rate ** 3 == z3.one  # recovers 1+pi^2 up to mu_3


# -- roots of unity -----------------------------------------------------------------

@pytest.mark.parametrize("maker,expected_k", [
    (lambda: qp(3, 16), 0),
    (lambda: qp(5, 16), 0),
    (lambda: qp(7, 16), 0),
    (lambda: qp_zeta(3, 16), 1),
    (lambda: qp_zeta(5, 16), 1),
    (lambda: eisenstein_root(3, 3, 16), 0),
    (lambda: eisenstein_root(3, 2, 16), 0),
    (lambda: qp(2, 16), 1),
])
def test_compute_mu(maker, expected_k):
    ctx = maker()
    qm1, pk = compute_mu(ctx)
    assert qm1 == ctx.q - 1
    assert pk == ctx.p ** expected_k
    assert ctx.k == expected_k


def test_compute_mu_root_count(z3):
    # cross-check by exhaustive enumeration: exactly phi(3) primitive roots
    assert compute_mu(z3, verify_count=True) == (2, 3)


def test_unramified_base_field():
    ctx = eisenstein_root(3, 2, 16, d=2)
    assert ctx.q == 9
    assert valuation(ctx.from_int(3)) == 2
    omega = ctx.omega
    assert omega ** (ctx.q - 1) == ctx.one
    # zeta_3 lives here: sqrt(-3) = sqrt(-1)*sqrt(3) and sqrt(-1) is in Q_9
    assert compute_mu(ctx) == (8, 3)


def test_spanning_units_levels(z5):
    for u in spanning_units(z5, 3, 6):
        assert 3 <= unit_level(u) < 6
