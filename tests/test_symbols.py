import random

import pytest

from tamewild.errors import BadInput, PrecisionExhausted
from tamewild.localfield import qp_zeta
from tamewild.symbols import (
    hilbert_quadratic_padic,
    hilbert_quadratic_q,
    k1_decompose,
    k2_transform,
    norm_to_base,
    tame_symbol,
    tame_symbol_residue,
    wild_symbol_zeta,
)


def _random_nonzero(ctx, rng, digits=6):
    while True:
        x = ctx.elem([rng.randrange(ctx.p ** digits) for _ in range(ctx.e)])
        if not x.is_zero():
            return x


# -- tame symbol -----------------------------------------------------------------

def test_tame_trivials(q5):
    pi = q5.pi
    kappa = q5.kappa
    assert tame_symbol_residue(pi, pi) == kappa.neg(kappa.one)
    u = q5.from_int(3)
    assert tame_symbol_residue(pi, u) == kappa.inv(u.residue())
    assert tame_symbol(q5.from_int(2), q5.from_int(3)) == 0


def test_tame_laws_sampled(z3):
    rng = random.Random(0)
    qm1 = z3.q - 1
    for _ in range(200):
        x = _random_nonzero(z3, rng)
        y = _random_nonzero(z3, rng)
        z = _random_nonzero(z3, rng)
        assert (tame_symbol(x * z, y)
                - tame_symbol(x, y) - tame_symbol(z, y)) % qm1 == 0
        assert (tame_symbol(x, y) + tame_symbol(y, x)) % qm1 == 0


def test_steinberg(q5, z3):
    for x in (q5.pi, q5.from_int(2)):
        assert tame_symbol(x, q5.one - x) == 0
    rng = random.Random(1)
    for ctx in (q5, z3):
        count = 0
        while count < 100:
            x = _random_nonzero(ctx, rng)
            y = ctx.one - x
            if y.is_zero():
                continue
            count += 1
            assert tame_symbol(x, y) == 0
            if ctx.e == 1 and ctx.d == 1:
                assert hilbert_quadratic_padic(x, y, ctx) == 1


def test_teichmuller_unit_steinberg(q5):
    # x a Teichmuller unit with 1-x a unit
    om = q5.omega
    assert tame_symbol(om ** 2, q5.one - om ** 2) == 0


# -- closed-form quadratic symbols --------------------------------------------------

def test_hilbert_q_examples():
    assert hilbert_quadratic_q(-1, -1, "inf") == -1
    assert hilbert_quadratic_q(-1, 2, "inf") == 1
    assert hilbert_quadratic_q(5, 2, 5) == -1  # Legendre(2,5) = -1
    assert hilbert_quadratic_q(-1, -1, 2) == -1
    assert hilbert_quadratic_q(2, 7, 7) == 1   # Legendre(2,7) = +1
    with pytest.raises(BadInput, match="Hilbert symbol of zero"):
        hilbert_quadratic_q(0, 3, 5)


def test_hilbert_q_euler_cross_check():
    # independent oracle: Euler's criterion
    rng = random.Random(2)
    for p in (3, 5, 7, 11, 13):
        for _ in range(50):
            u = rng.randrange(1, p)
            expected = pow(u, (p - 1) // 2, p)
            expected = -1 if expected == p - 1 else 1
            assert hilbert_quadratic_q(p, u, p) == expected


def test_hilbert_q_bilinear():
    rng = random.Random(3)
    for _ in range(100):
        a = rng.randint(-300, 300)
        b = rng.randint(-300, 300)
        c = rng.randint(-300, 300)
        if 0 in (a, b, c):
            continue
        for v in (2, 3, 5, "inf"):
            assert hilbert_quadratic_q(a * c, b, v) == \
                hilbert_quadratic_q(a, b, v) * hilbert_quadratic_q(c, b, v)
            assert hilbert_quadratic_q(a, b, v) == \
                hilbert_quadratic_q(b, a, v)


def test_hilbert_padic_matches_rational(q5, q3, q2):
    rng = random.Random(4)
    for ctx in (q5, q3, q2):
        p = ctx.p
        for _ in range(100):
            a = rng.randrange(1, 200)
            b = rng.randrange(1, 200)
            xa = ctx.from_int(a)
            xb = ctx.from_int(b)
            assert hilbert_quadratic_padic(xa, xb, ctx) == \
                hilbert_quadratic_q(a, b, p)


def test_tame_part_matches_quadratic(q5):
    # {p, u}: the tame residue squared-to-sign equals the closed form
    rng = random.Random(5)
    for _ in range(50):
        u = rng.randrange(1, 5 ** 4)
        if u % 5 == 0:
            continue
        x = q5.from_int(u)
        expo = tame_symbol(q5.pi, x)
        sign = -1 if expo % 2 else 1  # (q-1)/2-th power of the generator
        assert sign == hilbert_quadratic_q(5, u, 5)


# -- norms -------------------------------------------------------------------------

def test_norm_scalars(z3):
    n = z3.e * z3.d
    for c in (2, 7, 10):
        assert norm_to_base(z3.from_int(c)) == pow(c, n, z3.mod)


def test_norm_of_uniformizer(z3, z5):
    # N(zeta_p - 1) = Phi_p(1) = p
    for ctx in (z3, z5):
        assert norm_to_base(ctx.pi) == ctx.p


def test_norm_multiplicative(z3):
    rng = random.Random(6)
    for _ in range(200):
        x = _random_nonzero(z3, rng)
        y = _random_nonzero(z3, rng)
        lhs = norm_to_base(x * y)
        rhs = norm_to_base(x) * norm_to_base(y) % z3.mod
        assert lhs == rhs


# -- the wild pairing ---------------------------------------------------------------

def test_wild_zeta_values(z3, z5):
    for ctx in (z3, z5):
        zeta = ctx.one + ctx.pi
        assert wild_symbol_zeta(zeta, ctx) == 0
        assert wild_symbol_zeta(ctx.pi, ctx) == 0  # N(pi) = p, unit part 1
        assert wild_symbol_zeta(ctx.from_int(1 + ctx.p), ctx) != 0


def test_wild_zeta_refusals(z3):
    with pytest.raises(BadInput, match="wild pairing implemented for odd p"):
        wild_symbol_zeta(qp_zeta(2, 16).one, qp_zeta(2, 16))
    with pytest.raises(BadInput, match="wild symbol of zero"):
        wild_symbol_zeta(z3.zero, z3)
    # v = 27 leaves the unit part M - v = 5 < 3e certified pi-digits
    with pytest.raises(PrecisionExhausted, match="norm unit part is "
                       "uncertified mod p\\^2 at this precision"):
        wild_symbol_zeta(z3.pi ** 27, z3)


def test_hilbert_quadratic_padic_needs_q_p(z3):
    with pytest.raises(BadInput, match="p-adic quadratic reading needs a "
                       "Q_p context"):
        hilbert_quadratic_padic(z3.pi, z3.one, z3)


def test_wild_zeta_convention_pinned(z3):
    # units act by their inverse: j(1+p) = +1 under this normalisation
    assert wild_symbol_zeta(z3.from_int(4), z3) == 1


def test_wild_zeta_bilinear(z3):
    rng = random.Random(7)
    p = z3.p
    for _ in range(100):
        x = _random_nonzero(z3, rng)
        y = _random_nonzero(z3, rng)
        assert wild_symbol_zeta(x * y, z3) == \
            (wild_symbol_zeta(x, z3) + wild_symbol_zeta(y, z3)) % p


def test_wild_zeta_torsion(z3):
    rng = random.Random(8)
    for _ in range(20):
        x = _random_nonzero(z3, rng)
        assert wild_symbol_zeta(x ** 3, z3) == 0


def test_wild_zeta_requires_cyclotomic(q5):
    with pytest.raises(BadInput):
        wild_symbol_zeta(q5.one, q5)


def test_wild_zeta_deep_valuation_regression():
    # stripping pi before the norm keeps the unit part certified: the same
    # canonical representative gives the same value at every precision
    from tamewild.localfield import qp_zeta
    vals = []
    for N in (8, 16, 32):
        ctx = qp_zeta(3, N)
        vals.append(wild_symbol_zeta(ctx.elem([0, 54]), ctx))  # v = 7
    assert vals[0] == vals[1] == vals[2]


# -- reduction identities -------------------------------------------------------------

def test_k1_decompose_units(q5):
    u = q5.from_int(2)
    v = q5.from_int(3)
    pairs = k1_decompose(u, v)
    assert pairs[0][0] == q5.pi and pairs[0][1] == q5.one
    assert pairs[1] == (u, v)


def test_k1_decompose_pi_pi(q5):
    pairs = k1_decompose(q5.pi, q5.pi)
    # {pi, pi} = {pi, -1} + {1, 1}
    assert pairs[0][1] == -q5.one
    assert tame_symbol(*pairs[1]) == 0


def test_k1_preserves_tame(z3, q5):
    rng = random.Random(9)
    for ctx in (z3, q5):
        qm1 = ctx.q - 1
        for _ in range(200):
            x = _random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(3)
            y = _random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(3)
            if x.is_zero() or y.is_zero():
                continue
            pairs = k1_decompose(x, y)
            assert tame_symbol(x, y) == \
                (tame_symbol(*pairs[0]) + tame_symbol(*pairs[1])) % qm1


_LOCAL_SYMBOL_PRESETS = ["qp-5", "qp-zeta-3", "cbrt-3", "qp-zeta-5",
                         "qp-zeta-7"]


@pytest.mark.parametrize("name", _LOCAL_SYMBOL_PRESETS)
def test_k1_decompose_inverts_only_for_a_nonunit_y(monkeypatch, name):
    from tamewild.localfield import FElem, preset, split_unit
    ctx = preset(name, 16)
    calls = []
    invert = FElem.invert_unit
    monkeypatch.setattr(FElem, "invert_unit",
                        lambda self: calls.append(self) or invert(self))
    rng = random.Random(f"k1-{name}")
    units = set()
    for _ in range(20):
        x = _random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(4)
        y = _random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(4)
        a, u = split_unit(x)
        b, v = split_unit(y)
        units.add(b == 0)
        del calls[:]
        pairs = k1_decompose(x, y)
        # a unit y needs no u^-1, since u^-b = 1
        assert len(calls) == (1 if b else 0)
        # the formula that always inverted u
        w = v ** a * invert(u) ** b
        assert pairs == [(ctx.pi, -w if a * b % 2 else w), (u, v)]
    assert units == {True, False}


def test_k2_transform_trivial(q5):
    a, b = k2_transform(q5.one)
    assert a == q5.one and b == q5.one - q5.pi
    assert tame_symbol(a, b) == 0


def test_k2_transform_value_preserving(q5, z3):
    rng = random.Random(10)
    for ctx in (q5, z3):
        for _ in range(100):
            u = ctx.one + _random_nonzero(ctx, rng) * ctx.pi ** 2
            a, b = k2_transform(u)
            assert tame_symbol(ctx.pi, u) == tame_symbol(a, b)
            if ctx.e == 1 and ctx.d == 1:
                assert hilbert_quadratic_padic(ctx.pi, u, ctx) == \
                    hilbert_quadratic_padic(a, b, ctx)


def test_k2_transform_depth_requirement(q5):
    with pytest.raises(BadInput, match="unit level 1 < 2"):
        k2_transform(q5.one + q5.pi)
