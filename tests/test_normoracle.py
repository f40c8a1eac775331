import itertools
import math
import random
from fractions import Fraction

import pytest

from tamewild.cli import element_from_string
from tamewild.errors import BadInput, ZeroInput
from tamewild.localfield import preset, qp, spanning_units, valuation
from tamewild.errors import PRECISION_EXHAUSTED
from tamewild.normoracle import (
    NormResidueOracle,
    _Pivots,
    _RamifiedKummer,
    norm_residue_trivial,
)
from tamewild.orders import m0_bound
from tamewild.symbols import (
    hilbert_quadratic_q,
    k2_transform,
    tame_symbol,
    triviality_oracle,
    wild_symbol_zeta,
)


def _rational_in(ctx, r):
    r = Fraction(r)
    p = ctx.p
    num, den = r.numerator, r.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    lift = num * pow(den, -1, ctx.base.mod) % ctx.base.mod
    return ctx.from_int(lift) * ctx.pi ** (v % 2)


def _random_nonzero(ctx, rng, digits=5):
    while True:
        x = ctx.elem([rng.randrange(ctx.p ** digits) for _ in range(ctx.e)])
        if not x.is_zero() and valuation(x) is not PRECISION_EXHAUSTED:
            return x


# -- square detection ----------------------------------------------------------

def test_mth_power_detection_quadratic(q5):
    oracle = NormResidueOracle(q5, 2)
    rng = random.Random(0)
    for _ in range(50):
        t = _random_nonzero(q5, rng)
        assert not oracle.class_key(t * t)
    assert oracle.class_key(q5.pi)
    assert oracle.class_key(q5.from_int(2))  # 2 is a nonresidue mod 5


def test_mth_power_detection_wild(z3):
    oracle = NormResidueOracle(z3, 3)
    rng = random.Random(1)
    for _ in range(30):
        t = _random_nonzero(z3, rng)
        assert not oracle.class_key(t ** 3)
    assert oracle.class_key(z3.pi)
    assert oracle.class_key(z3.one + z3.pi)  # zeta_3 is not a cube


def test_trivial_for_mth_power_y(q5):
    rng = random.Random(2)
    for _ in range(20):
        t = _random_nonzero(q5, rng)
        x = _random_nonzero(q5, rng)
        assert norm_residue_trivial(x, t * t, 2)


# -- agreement with the closed form ------------------------------------------------

def test_oracle_vs_closed_form_frozen(q5):
    # (2, 5)_5 = Legendre(2,5) = -1, so 2 is not a norm from Q_5(sqrt 5)
    assert not norm_residue_trivial(_rational_in(q5, 2),
                                    _rational_in(q5, 5), 2)
    assert norm_residue_trivial(_rational_in(q5, 4),
                                _rational_in(q5, 5), 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_oracle_vs_closed_form_sweep(p):
    ctx = qp(p, 16)
    vals = [-1, 1, -2, 2, -5, 5, 3, p, p + 1, 2 * p + 1]
    for a, b in itertools.product(vals, vals):
        closed = hilbert_quadratic_q(a, b, p)
        oracle = norm_residue_trivial(_rational_in(ctx, a),
                                      _rational_in(ctx, b), 2)
        assert (closed == 1) == oracle, (p, a, b)


def test_minus_one_minus_one_at_two(q2):
    # the frozen wild example: -1 is not a sum of two squares in Q_2
    x = q2.from_int(q2.base.mod - 1)
    assert not norm_residue_trivial(x, x, 2)


# -- wild case over Q_p(zeta_p) -----------------------------------------------------

def test_wild_oracle_matches_wild_symbol(z3):
    zeta = z3.one + z3.pi
    rng = random.Random(3)
    for _ in range(40):
        x = _random_nonzero(z3, rng) * z3.pi ** rng.randrange(2)
        if valuation(x) is PRECISION_EXHAUSTED:
            continue
        assert (wild_symbol_zeta(x, z3) == 0) == \
            norm_residue_trivial(x, zeta, 3)


def test_wild_oracle_value_calibration(z5):
    # j(x) is recovered from the oracle by sliding along (1+p)-powers
    zeta = z5.one + z5.pi
    z0 = z5.from_int(6)
    j0 = wild_symbol_zeta(z0, z5)
    assert j0 != 0
    z0inv = z0.invert_unit()
    rng = random.Random(4)
    for _ in range(5):
        x = _random_nonzero(z5, rng)
        j = wild_symbol_zeta(x, z5)
        hits = [s for s in range(5)
                if norm_residue_trivial(x * z0inv ** s, zeta, 5)]
        assert hits == [s for s in range(5) if (j - j0 * s) % 5 == 0]


def test_wild_antisymmetry_triviality(z3):
    # h(zeta, x) and h(x, zeta) are trivial together
    zeta = z3.one + z3.pi
    rng = random.Random(5)
    for _ in range(10):
        x = _random_nonzero(z3, rng)
        assert norm_residue_trivial(zeta, x, 3) == \
            norm_residue_trivial(x, zeta, 3)


def test_vanishing_above_bound(z3):
    B = m0_bound(z3)
    zeta = z3.one + z3.pi
    for x in spanning_units(z3, B + 1, B + 3):
        for y in spanning_units(z3, B + 1, B + 3):
            assert norm_residue_trivial(x, y, 3)
        assert norm_residue_trivial(x, zeta, 3)


def test_steinberg_through_oracle(z3):
    rng = random.Random(6)
    count = 0
    while count < 10:
        x = _random_nonzero(z3, rng)
        y = z3.one - x
        if y.is_zero() or valuation(y) is PRECISION_EXHAUSTED:
            continue
        count += 1
        assert tame_symbol(x, y) == 0 and norm_residue_trivial(x, y, 3)


def test_k2_transform_through_oracle(z3):
    # {pi, u} and {a, b} have the same triviality against any y
    zeta = z3.one + z3.pi
    rng = random.Random(7)
    oracle = triviality_oracle(z3)
    for _ in range(5):
        u = z3.one + _random_nonzero(z3, rng) * z3.pi ** 2
        a, b = k2_transform(u)
        assert oracle(z3.pi, u) == oracle(a, b)


# -- guards ---------------------------------------------------------------------

def test_oracle_guards(q5, cbrt3):
    with pytest.raises(ZeroInput):
        norm_residue_trivial(q5.zero, q5.one, 2)
    with pytest.raises(BadInput):
        NormResidueOracle(q5, 3)  # m must be 2 or p
    with pytest.raises(BadInput):
        NormResidueOracle(cbrt3, 3)  # mu_3 is not in Q_3(cbrt 3)


def test_deep_valuation_precision_guard():
    from tamewild.errors import PrecisionExhausted
    from tamewild.localfield import qp_zeta
    F = qp_zeta(3, 8)  # M = 16, reduction depth H = 4
    zeta = F.one + F.pi
    with pytest.raises(PrecisionExhausted):
        norm_residue_trivial(F.pi ** 13, zeta, 3)
    assert norm_residue_trivial(F.pi ** 7 * 2, zeta, 3) in (True, False)


def test_unramified_splitting_needs_prime_residue_field():
    from tamewild.errors import UnsupportedSplitting
    from tamewild.localfield import eisenstein_root
    ctx = eisenstein_root(5, 2, 16, d=2)  # q = 25
    # ramified y still works for m = 2
    assert not norm_residue_trivial(ctx.omega, ctx.pi, 2)
    assert norm_residue_trivial(ctx.pi ** 2, ctx.pi, 2) in (True, False)
    # a nonsquare unit forces the unramified case, unsupported at d = 2
    with pytest.raises(UnsupportedSplitting):
        norm_residue_trivial(ctx.pi, ctx.omega, 2)


def test_wild_oracle_on_k2_field():
    # Q_3(zeta_9): k = 2 >= 1, so the m = 3 oracle applies
    from tamewild.localfield import LocalFieldCtx, PadicCtx
    base = PadicCtx(3, 16, 1)
    F = LocalFieldCtx(base, [3, 9, 18, 21, 15, 6, 1], name="qp-zeta9-3")
    y = F.one + F.pi
    rng = random.Random(11)
    for _ in range(10):
        t = F.elem([rng.randrange(3 ** 4) for _ in range(6)])
        if t.is_zero() or valuation(t) is PRECISION_EXHAUSTED:
            continue
        assert norm_residue_trivial(t ** 3, y, 3)  # cubes are norms
    # pi is not a cube class; against the unramified-type y it cannot be a
    # norm unless its valuation is divisible by 3
    coker_y = F.one + F.pi ** 9  # leads at the critical cokernel level
    assert not norm_residue_trivial(F.pi, coker_y, 3)
    assert norm_residue_trivial(F.pi ** 3, coker_y, 3)


def test_bilinearity_in_x(z3):
    zeta = z3.one + z3.pi
    rng = random.Random(8)
    for _ in range(10):
        x = _random_nonzero(z3, rng)
        y = _random_nonzero(z3, rng)
        tx = norm_residue_trivial(x, zeta, 3)
        ty = norm_residue_trivial(y, zeta, 3)
        if tx and ty:
            assert norm_residue_trivial(x * y, zeta, 3)


def test_symmetry_quadratic(q5, q2):
    rng = random.Random(9)
    for ctx in (q5, q2):
        for _ in range(15):
            x = _random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(2)
            y = _random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(2)
            if valuation(x) is PRECISION_EXHAUSTED \
                    or valuation(y) is PRECISION_EXHAUSTED:
                continue
            assert norm_residue_trivial(x, y, 2) == \
                norm_residue_trivial(y, x, 2)


def test_unramified_wild_extension(z3):
    # y = 1 + pi^3 leads at the critical cokernel, so L/F is the unramified
    # cubic extension: norms are exactly the elements of valuation in 3Z
    y = z3.one + z3.pi ** 3
    assert not norm_residue_trivial(z3.pi, y, 3)
    assert not norm_residue_trivial(z3.from_int(3), y, 3)  # v(p) = 2
    assert norm_residue_trivial(z3.pi ** 3, y, 3)
    assert norm_residue_trivial(z3.from_int(2), y, 3)  # units are norms
    assert norm_residue_trivial(z3.one + z3.pi, y, 3)


def test_ramified_quadratic_over_bigger_field(cbrt3):
    # m = 2 over Q_3(cbrt 3): the quotient F^x/(F^x)^2 has order 4 and
    # squares are detected inside it
    rng = random.Random(10)
    for _ in range(20):
        t = _random_nonzero(cbrt3, rng) * cbrt3.pi ** rng.randrange(2)
        if valuation(t) is PRECISION_EXHAUSTED:
            continue
        # squares are norms from every quadratic extension
        assert norm_residue_trivial(t * t, cbrt3.pi, 2)
        assert norm_residue_trivial(t * t, cbrt3.omega, 2)
    # pi is not a norm from F(sqrt(omega)) (unramified: norms have even v)
    assert not norm_residue_trivial(cbrt3.pi, cbrt3.omega, 2)
    assert norm_residue_trivial(cbrt3.pi ** 2, cbrt3.omega, 2)
    # omega is not a norm from F(sqrt(pi)) (ramified: unit norms are squares
    # times principal units; omega is a nonsquare Teichmuller unit)
    assert not norm_residue_trivial(cbrt3.omega, cbrt3.pi, 2)
    assert norm_residue_trivial(cbrt3.omega ** 2, cbrt3.pi, 2)


# -- the pivot-build level bound ------------------------------------------------

def _old_high(ctx, m):
    """The former guessed cutoff on U_L levels."""
    return math.ceil(2 * (ctx.p * ctx.e1 + ctx.e) * m)


# (preset, m, y strings): every splitting type each field reaches
_BOUND_CASES = [
    ("qp-zeta-3", 3, ["pi", "1+pi", "1+pi^3"]),
    ("qp-zeta-5", 5, ["pi", "1+pi", "1+pi^5"]),
    ("qp-zeta-3", 2, ["pi", "2"]),
    ("qp-5", 2, ["p", "2"]),
    ("cbrt-3", 2, ["pi", "2"]),
    ("qp-2", 2, ["p", "3", "5"]),  # criterion 2's p = 2
]


@pytest.mark.parametrize("name,m,ys", _BOUND_CASES)
def test_norms_above_the_level_bound_are_mth_powers(name, m, ys):
    ctx = preset(name, 16)
    rng = random.Random(f"bound-{name}-{m}")
    xs = [_random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(m)
          for _ in range(25)]
    kinds = set()
    for y_text in ys:
        y = element_from_string(ctx, y_text)
        oracle = NormResidueOracle(ctx, m)
        red = oracle.reducer
        ext = oracle._build_extension(list(oracle.class_key(y)), y)
        kinds.add(type(ext).__name__)
        high = ext.ram_index * (red.H - 1) + 1
        assert _old_high(ctx, m) > high
        new = ext.spanning_norms(high)
        old = ext.spanning_norms(_old_high(ctx, m))
        assert old[:len(new)] == new
        for elem, shift in old[len(new):]:
            assert red.full_normal_form(elem, shift) == [], (y_text, shift)
        old_pivots = _Pivots()
        for elem, shift in old:
            red.insert_generator(old_pivots, elem, shift)
        for x in xs:
            assert oracle.trivial(x, y) == red.is_member(old_pivots, x)
    assert kinds == {"_RamifiedKummer", "_UnramifiedKummer"}


@pytest.mark.parametrize("name,calls", [("qp-zeta-5", 26), ("qp-zeta-7", 50)])
def test_ramified_class_norm_count(monkeypatch, name, calls):
    # the pi_L generator plus p levels of U_L per level of U_F below H
    ctx = preset(name, 16)
    seen = []
    norm = _RamifiedKummer.norm
    monkeypatch.setattr(_RamifiedKummer, "norm",
                        lambda self, *a: seen.append(a) or norm(self, *a))
    NormResidueOracle(ctx, ctx.p).trivial(ctx.from_int(1 + ctx.p),
                                          ctx.one + ctx.pi)
    assert len(seen) == calls
