import itertools
import math
import random
from fractions import Fraction

import pytest
from test_padic import HenselHypothesisFailed, _hensel

from tamewild.errors import BadInput, PrecisionExhausted
from tamewild.localfield import (
    LocalFieldCtx,
    eisenstein_root,
    hasse_forward,
    lead,
    preset,
    pth_root,
    pth_root_in_filtration,
    qp,
    qp_zeta,
    spanning_units,
    strip_pth_powers,
    unit_decompose,
    unit_level,
    valuation,
)


def _random_nonzero(ctx, rng, digits=6):
    while True:
        x = ctx.elem([rng.randrange(ctx.p ** digits) for _ in range(ctx.e)])
        if not x.is_zero():
            return x


def test_eisenstein_validation():
    with pytest.raises(ValueError):
        LocalFieldCtx(3, [1, 0, 1], 16)      # unit constant term
    with pytest.raises(ValueError):
        LocalFieldCtx(3, [9, 0, 1], 16)      # constant term divisible by p^2
    with pytest.raises(ValueError):
        LocalFieldCtx(3, [3, 1, 1], 16)      # middle coefficient is a unit
    LocalFieldCtx(3, [3, 3, 1], 16)          # fine


def test_presets_and_descriptor_roundtrip():
    for name in ("qp-5", "qp-zeta-3", "sqrt-3", "cbrt-3", "root4-5"):
        ctx = preset(name, 16)
        back = LocalFieldCtx.from_descriptor(ctx.descriptor())
        assert back.descriptor() == ctx.descriptor()


def test_valuation_examples(z3, sqrt3):
    assert valuation(z3.pi) == 1
    assert valuation(z3.from_int(3)) == z3.e  # v(p) = e
    assert valuation(z3.from_int(3) + z3.pi) == 1
    assert valuation(z3.zero) == z3.M
    assert valuation(sqrt3.pi ** 3) == 3


def test_valuation_multiplicative(z3):
    rng = random.Random(0)
    for _ in range(200):
        x = _random_nonzero(z3, rng)
        y = _random_nonzero(z3, rng)
        vx, vy = valuation(x), valuation(y)
        if vx + vy >= z3.M - 2:
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
            if x.is_zero():
                continue
            d = unit_decompose(x)
            assert d.reconstruct(ctx) == x
            lv = valuation(d.u - ctx.one)
            assert lv >= 1


def test_unit_level(z3):
    assert unit_level(z3.one + z3.pi) == 1
    assert unit_level(z3.one + z3.from_int(3)) == z3.e
    assert unit_level(z3.one) == z3.M
    with pytest.raises(BadInput, match=r"v\(u-1\) <= 0"):
        unit_level(z3.from_int(2))


# -- Z_p-exponentiation ---------------------------------------------------------

def test_zp_exp_trivials_and_frozen():
    F = qp(5, 8)
    u = F.from_int(6)
    assert u ** 1 == u
    assert u ** 0 == F.one
    # (1+5)^5 = 7776 = 1 + 25 mod 125
    assert (u ** 5).flat[0] % 125 == 26


def test_zp_exp_module_laws(z3):
    rng = random.Random(2)
    for _ in range(30):
        u = z3.one + _random_nonzero(z3, rng) * z3.pi
        a = rng.randrange(-50, 50)
        b = rng.randrange(-50, 50)
        assert u ** a * u ** b == u ** (a + b)
        assert (u ** a) ** b == u ** (a * b)


def test_zp_exp_inverse_root(z3):
    # alpha = 1/(q-1) as a p-adic integer inverts the (q-1)-power map
    u = z3.one + z3.from_int(3) * z3.pi
    qm1 = z3.q - 1
    alpha = pow(qm1, -1, z3.mod)
    root = u ** alpha
    assert root ** qm1 == u


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


def test_hasse_forward_refusals(z3):
    with pytest.raises(BadInput, match="t must be >= 1"):
        hasse_forward(z3, 0)
    # M = 32 at N = 16, and t*p = 18 is not below M // 2
    with pytest.raises(BadInput,
                       match=r"no room at working precision for t\*p"):
        hasse_forward(z3, 6)


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
            assert lv == ctx.M or rate ** ctx.p == ctx.one


def _field(name):
    unram = {"sqrt-3-unram2": (3, 2, 2), "sqrt-3-unram3": (3, 2, 3),
             "root4-2-unram3": (2, 4, 3)}
    if name in unram:
        p, e, d = unram[name]
        return eisenstein_root(p, e, 16, d=d)
    return preset(name, 16)


# in the two d = 3 fields, over F_27 and F_8, the critical level's span of
# a -> a^p + rho*a reduces later rows against earlier ones and their
# preimages
@pytest.mark.parametrize("name", ["qp-zeta-3", "qp-zeta-5", "cbrt-3",
                                  "root4-3", "sqrt-3-unram2",
                                  "sqrt-3-unram3", "root4-2-unram3"])
def test_graded_pth_root(name):
    ctx = _field(name)
    kappa, p, top = ctx.kappa, ctx.p, 3 * ctx.e + 4
    # the levels that p-th powers land on, read off (1 + pi^t)^p; t = e1
    # lands on the critical level only when a -> a^p + rho*a is onto
    reached = {unit_level(ctx.level_unit(1, t) ** p)
               for t in range(1, top) if t != ctx.e1}
    # the image of a -> a^p + rho*a over kappa, by brute force
    image = {kappa.add(kappa.pow(a, p), kappa.mul(ctx.rho, a))
             for a in kappa.elements()}
    regimes = set()
    for s in range(1, top):
        for c in kappa.elements():
            if not c:
                continue
            a, t, r = ctx.graded_pth_root(s, c)
            hit = kappa.sub(c, r)
            if s == p * ctx.e1:
                assert hit in image and (r == 0) == (c in image), (s, c)
            else:
                assert r == (0 if s in reached else c), (s, c)
                if r == 0:
                    regimes.add(s == p * t)
            assert (a == 0) == (hit == 0), (s, c)
            if a:
                v = valuation(ctx.level_unit(a, t) ** p
                              - ctx.level_unit(hit, s))
                assert v > s, (s, c)
    # below e1 (Frobenius, s = p*t) only when some t >= 1 lies below e1
    assert regimes == ({True, False} if ctx.e1 > 1 else {False})


def test_pth_root_decides_pth_powers(z3, z5):
    rng = random.Random(7)
    for ctx in (z3, z5):
        for _ in range(20):
            u = ctx.one + _random_nonzero(ctx, rng) * ctx.pi
            w = u ** ctx.p
            assert pth_root(w) ** ctx.p == w
        # 1 + pi sits at level 1 < p*e1, prime to p: no p-th power
        assert pth_root(ctx.one + ctx.pi) is None
    with pytest.raises(BadInput, match="needs a principal unit"):
        pth_root(z3.from_int(2))


def test_pth_root_threshold(z3):
    with pytest.raises(BadInput, match="t = 1 is not above e1 = 1"):
        pth_root_in_filtration(z3.one + z3.pi ** 4, 1)  # t = 1 = e1


def test_pth_root_needs_w_in_the_ideal(z3):
    # t = 2 is above e1 = 1, but 1 + pi^2 lies in U^2, not in U^{t+e}
    with pytest.raises(BadInput, match=r"w has level 2 < t \+ e = 4"):
        pth_root_in_filtration(z3.one + z3.pi ** 2, 2)


def test_pth_root_frozen_example(z3):
    w = (z3.one + z3.pi ** 2) ** 3
    r = pth_root_in_filtration(w, 2)
    assert r ** 3 == w
    rate = r * (z3.one + z3.pi ** 2).invert_unit()
    assert rate ** 3 == z3.one  # recovers 1+pi^2 up to mu_3


@pytest.mark.parametrize("name", ["qp-zeta-3", "qp-zeta-5", "cbrt-3",
                                  "root4-3", "sqrt-3-unram2"])
def test_strip_pth_powers_multiplies_in_x_to_the_p(name):
    ctx = _field(name)
    rng = random.Random(11)
    for _ in range(10):
        u = ctx.one + _random_nonzero(ctx, rng) * ctx.pi
        for stop in (2, ctx.e + 2, ctx.M):
            v, units, stuck = strip_pth_powers(u, stop)
            assert v == u * math.prod(units, start=ctx.one) ** ctx.p
            if stuck is None:
                lv = unit_level(v)
                assert lv >= stop
                continue
            # the level's digit, of which no p-th power reaches any part
            s, r = stuck
            assert s < stop and lead(v - ctx.one) == (s, r)
            assert ctx.graded_pth_root(s, r) == (0, s // ctx.p, r)
        # pth_root(w) is the walk from w^-1 to 1
        v, units, stuck = strip_pth_powers(u ** ctx.p, ctx.M)
        assert v == ctx.one and stuck is None
        assert math.prod(units, start=u) ** ctx.p == ctx.one


def test_strip_pth_powers_stops_at_a_fundamental_level(z3, z5):
    for ctx in (z3, z5):
        p = ctx.p
        for s in range(1, p * int(ctx.e1)):
            if s % p == 0:
                continue
            for c in range(1, p):
                u = ctx.level_unit(c, s) * (ctx.one + ctx.pi ** (s + 1))
                assert strip_pth_powers(u, ctx.M) == (u, [], (s, c))
                assert strip_pth_powers(u, s) == (u, [], None)


# -- roots of unity -----------------------------------------------------------------

def _cyclotomic(p, n, N):
    """Q_p(zeta_{p^n}), f = Phi_{p^n}(T + 1) = sum_{i<p} (T + 1)^(i p^(n-1)),
    so pi = zeta_{p^n} - 1."""
    step = p ** (n - 1)
    f = [sum(math.comb(i * step, j) for i in range(p))
         for j in range((p - 1) * step + 1)]
    return LocalFieldCtx(p, f, N)


@pytest.mark.parametrize("maker,expected_k", [
    (lambda: qp(3, 16), 0),
    (lambda: qp(5, 16), 0),
    (lambda: qp(7, 16), 0),
    (lambda: qp_zeta(3, 16), 1),
    (lambda: qp_zeta(5, 16), 1),
    (lambda: eisenstein_root(3, 3, 16), 0),
    (lambda: eisenstein_root(3, 2, 16), 0),
    (lambda: qp(2, 16), 1),
    # fields where a digit enumeration of roots of unity took seconds
    (lambda: preset("root6-7", 16), 0),
    (lambda: preset("root10-11", 16), 0),
    (lambda: preset("root12-13", 16), 0),
    (lambda: LocalFieldCtx(7, [-21, 0, 0, 0, 0, 0, 1], 16), 0),
    (lambda: preset("root8-2", 16), 1),
    (lambda: LocalFieldCtx(3, [3, 0, 1], 32), 1),  # sqrt(-3)
    (lambda: LocalFieldCtx(5, [5, 0, 0, 0, 1], 16), 1),
    (lambda: LocalFieldCtx(7, [7, 0, 0, 0, 0, 0, 1], 16), 1),
    (lambda: eisenstein_root(5, 4, 16, d=2), 1),
    # Q_p(zeta_{p^n}) has k = n
    (lambda: _cyclotomic(2, 2, 16), 2),
    (lambda: _cyclotomic(2, 3, 16), 3),
    (lambda: _cyclotomic(2, 4, 8), 4),
    (lambda: _cyclotomic(2, 5, 8), 5),
    (lambda: _cyclotomic(3, 3, 8), 3),
    (lambda: _cyclotomic(5, 2, 8), 2),
    (lambda: _cyclotomic(7, 2, 8), 2),
])
def test_compute_mu(maker, expected_k):
    assert maker().k == expected_k


@pytest.mark.parametrize("p,n", [(7, 2), (5, 2), (3, 3)])
def test_k_pinned_at_n_8(p, n):
    # Q_p(zeta_{p^n}) at N = 8: pi = zeta_{p^n} - 1, so 1 + pi has order
    # p^n exactly, is no p-th power (k = n), and its p-th power is one
    ctx = _cyclotomic(p, n, 8)
    assert ctx.k == n
    zeta = ctx.one + ctx.pi
    assert zeta ** (p ** n) == ctx.one != zeta ** (p ** (n - 1))
    assert pth_root(zeta) is None
    assert pth_root(zeta ** p) ** p == zeta ** p


def test_wild_exponent_past_the_certified_digits():
    # Q_2(zeta_64) at N = 8: zeta_64 is certified only mod pi^(M - 6e), and
    # M - 6e = 256 - 192 = 64 = p*e1 leaves no certified digit to decide
    # whether it is a square
    ctx = _cyclotomic(2, 6, 8)
    with pytest.raises(PrecisionExhausted, match="p\\*e1 = 64"):
        ctx.k


def _primitive_roots_by_enumeration(ctx, j):
    """Every primitive p^j-th root of unity, by digit enumeration: each
    1 + sum [c_s] pi^s over digits from the exact level e/phi(p^j) up to a
    Newton-certifiable depth is refined by Newton on Phi_{p^j}(T) =
    sum_{i<p} T^(i p^(j-1)), and the roots are kept that are primitive at
    the certified precision and pairwise distinct at half of it."""
    p, e, kappa = ctx.p, ctx.e, ctx.kappa
    step = p ** (j - 1)
    phi = [int(i % step == 0) for i in range((p - 1) * step + 1)]
    sstar = e // (step * (p - 1))
    # ceil(2e/(p-1)), and the root separation of Phi_{p^j}
    depth = max(-(-2 * e // (p - 1)),
                math.ceil(Fraction((j + 1) * e) - Fraction(e * p, p - 1)),
                sstar)
    digits = list(kappa.elements())
    found = []
    for lead in digits:
        if not lead:
            continue
        for tail in itertools.product(digits, repeat=depth - sstar):
            x0 = ctx.one
            for s, c in enumerate((lead,) + tail, sstar):
                x0 = x0 + ctx.lift_residue(c) * ctx.pi ** s
            try:
                root, decay = _hensel(phi, x0)
            except HenselHypothesisFailed:
                continue
            certified = ctx.M - decay
            top = valuation(root ** (p ** j) - ctx.one)
            low = valuation(root ** step - ctx.one)
            if top < certified:
                continue
            if low >= certified:
                continue
            gaps = [valuation(root - other) for other in found]
            if all(v < ctx.M // 2 for v in gaps):
                found.append(root)
    return found


@pytest.mark.parametrize("p,N", [(3, 16), (5, 8)])
def test_compute_mu_root_count(p, N):
    # cross-check by exhaustive enumeration: exactly phi(p) primitive roots,
    # also at N = 8, where Newton refinement has the least precision to
    # spend; none of them is a p-th power, since k = 1
    ctx = qp_zeta(p, N)
    roots = _primitive_roots_by_enumeration(ctx, 1)
    assert len(roots) == p - 1
    assert all(pth_root(root) is None for root in roots)
    assert (ctx.q - 1, ctx.k) == (p - 1, 1)


def test_unramified_base_field():
    ctx = eisenstein_root(3, 2, 16, d=2)
    assert ctx.q == 9
    assert valuation(ctx.from_int(3)) == 2
    omega = ctx.omega
    assert omega ** (ctx.q - 1) == ctx.one
    # zeta_3 lives here: sqrt(-3) = sqrt(-1)*sqrt(3) and sqrt(-1) is in Q_9
    assert (ctx.q - 1, ctx.k) == (8, 1)


def test_spanning_units_levels(z5):
    for u in spanning_units(z5, 3, 6):
        assert 3 <= unit_level(u) < 6


def test_level_unit_caches_only_the_levels_asked_for():
    ctx = eisenstein_root(3, 3, 8)
    before = {k for k in ctx._cache if k[0] == "pi_pow"}
    assert not before
    for c, s in ((1, 2), (2, 5), (1, 5)):
        assert ctx.level_unit(c, s) == \
            ctx.one + ctx.lift_residue(c) * ctx.pi ** s
    assert {k for k in ctx._cache if k[0] == "pi_pow"} == \
        {("pi_pow", 2), ("pi_pow", 5)}
