import hashlib
import random

import pytest

from tamewild.errors import BadInput, PrecisionExhausted, Unsupported
from tamewild.localfield import FElem, qp, qp_zeta, split_unit
from tamewild.symbols import (
    hilbert_quadratic_padic,
    hilbert_quadratic_q,
    k1_decompose,
    k2_transform,
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
#
# The reference norm is the definition: the determinant of multiplication by
# x in the Z_p-basis {theta^a pi^i} of O_F.  wild_symbol_zeta reads N(x) mod
# p^2 from traces and Newton's identities instead.

def _int_det(rows):
    """Exact integer determinant (fraction-free Bareiss with row pivoting)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _multiplication_columns(x):
    """The images of the basis vectors under multiplication by x, as flat
    tuples: the columns of its matrix."""
    ctx = x.ctx
    n = ctx.e * ctx.d
    return [(x * FElem(ctx, tuple(int(s == t) for t in range(n)))).flat
            for s in range(n)]


def norm_to_base(x):
    """N_{F/Q_p}(x) mod p^N: the determinant of multiplication by x (the
    determinant of the transpose is the same)."""
    return _int_det(_multiplication_columns(x)) % x.ctx.mod


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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cyclotomic_traces_are_read_off_the_flat_tuple(p):
    # with pi = zeta_p - 1: Tr(1) = p - 1 and Tr(pi^i) = (-1)^i p for
    # 0 < i < p - 1, the trace being that of the multiplication matrix
    ctx = qp_zeta(p, 16)
    for i in range(ctx.e):
        cols = _multiplication_columns(ctx.pi ** i)
        trace = sum(cols[s][s] for s in range(ctx.e)) % ctx.mod
        assert trace == (p - 1 if i == 0 else (-1) ** i * p % ctx.mod), i


# -- the wild pairing ---------------------------------------------------------------

def test_wild_zeta_values(z3, z5):
    for ctx in (z3, z5):
        zeta = ctx.one + ctx.pi
        assert wild_symbol_zeta(zeta, ctx) == 0
        assert wild_symbol_zeta(ctx.pi, ctx) == 0  # N(pi) = p, unit part 1
        assert wild_symbol_zeta(ctx.from_int(1 + ctx.p), ctx) != 0


def test_wild_zeta_refusals(z3):
    with pytest.raises(Unsupported, match="wild pairing implemented for "
                       "odd p"):
        wild_symbol_zeta(qp_zeta(2, 16).one, qp_zeta(2, 16))
    with pytest.raises(BadInput, match="wild symbol of zero"):
        wild_symbol_zeta(z3.zero, z3)
    # v = 27 leaves the unit part M - v = 5 < 3e certified pi-digits
    with pytest.raises(PrecisionExhausted, match="norm unit part is "
                       "uncertified mod p\\^2 at this precision"):
        wild_symbol_zeta(z3.pi ** 27, z3)


def test_hilbert_quadratic_padic_needs_q_p(z3):
    with pytest.raises(Unsupported, match="p-adic quadratic reading needs "
                       "a Q_p context"):
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
    for ctx in (q5, qp(5)):
        with pytest.raises(Unsupported, match="ctx must be the "
                           "Q_p\\(zeta_p\\) preset"):
            wild_symbol_zeta(ctx.one, ctx)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_wild_zeta_reads_the_determinant_norm(p):
    # j = (N(u)^-1 mod p^2 - 1)/p mod p for the unit part u of x, with the
    # norm from the determinant, at valuations up to the refusal edge
    ctx = qp_zeta(p, 16)
    rng = random.Random(f"wild-det-{p}")
    edge = ctx.M - 3 * ctx.e
    for k in [rng.randrange(edge) for _ in range(59)] + [edge]:
        _, x = split_unit(_random_nonzero(ctx, rng, digits=16))
        x = x * ctx.pi ** k
        _, u = split_unit(x)
        want = (pow(norm_to_base(u), -1, p * p) - 1) // p % p
        assert wild_symbol_zeta(x, ctx) == want, k


def _wild_digest():
    h = hashlib.sha256()
    for p in (3, 5, 7, 11, 13):
        for N in (16, 64):
            ctx = qp_zeta(p, N)
            rng = random.Random(f"wild-{p}-{N}")
            edge = ctx.M - 3 * ctx.e
            shifts = [rng.randrange(edge + 1) for _ in range(30)]
            for i, k in enumerate(shifts + [edge, edge + 1]):
                x = ctx.elem([rng.randrange(p ** N) for _ in range(ctx.e)])
                try:
                    out = str(wild_symbol_zeta(x * ctx.pi ** k, ctx))
                except Exception as exc:
                    out = type(exc).__name__
                h.update(f"{p},{N},{i}:{out}\n".encode())
    return h.hexdigest()


def test_wild_symbol_outputs_match_the_recorded_digest():
    # recorded with the determinant norm; a refusal hashes its class name
    assert _wild_digest() == ("f5447adc16237155bda0e4cbd02f2197"
                              "1da3854fd5867913a94a9c003f8a9be8")


def test_wild_zeta_deep_valuation_regression():
    # stripping pi before the norm keeps the unit part certified: the same
    # canonical representative gives the same value at every precision
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
    from tamewild.localfield import preset
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
