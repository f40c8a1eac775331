import itertools
import math
import random
from fractions import Fraction

import pytest

from tamewild.cli import dispatch, element_from_string
from tamewild.errors import BadInput, InvariantFailed, Unsupported
from tamewild.finitefield import FiniteField
from tamewild.localfield import (
    FElem,
    LocalFieldCtx,
    preset,
    qp,
    spanning_units,
    valuation,
)
from tamewild import normoracle
from tamewild.normoracle import (
    NormResidueOracle,
    _Kummer,
    _Reducer,
    _unramified_kummer,
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
    lift = num * pow(den, -1, ctx.mod) % ctx.mod
    return ctx.from_int(lift) * ctx.pi ** (v % 2)


def _random_nonzero(ctx, rng, digits=5):
    while True:
        x = ctx.elem([rng.randrange(ctx.p ** digits) for _ in range(ctx.e)])
        if not x.is_zero():
            return x


# -- square detection ----------------------------------------------------------

def test_mth_power_detection_quadratic(q5):
    oracle = NormResidueOracle(q5, 2)
    rng = random.Random(0)
    for _ in range(50):
        t = _random_nonzero(q5, rng)
        assert not any(oracle.class_key(t * t))
    assert any(oracle.class_key(q5.pi))
    assert any(oracle.class_key(q5.from_int(2)))  # 2 is a nonresidue mod 5


def test_mth_power_detection_wild(z3):
    oracle = NormResidueOracle(z3, 3)
    rng = random.Random(1)
    for _ in range(30):
        t = _random_nonzero(z3, rng)
        assert not any(oracle.class_key(t ** 3))
    assert any(oracle.class_key(z3.pi))
    assert any(oracle.class_key(z3.one + z3.pi))  # zeta_3 is not a cube


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
    x = q2.from_int(q2.mod - 1)
    assert not norm_residue_trivial(x, x, 2)


# -- wild case over Q_p(zeta_p) -----------------------------------------------------

def test_wild_oracle_matches_wild_symbol(z3):
    zeta = z3.one + z3.pi
    rng = random.Random(3)
    for _ in range(40):
        x = _random_nonzero(z3, rng) * z3.pi ** rng.randrange(2)
        if x.is_zero():
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
        if y.is_zero():
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


# -- coordinates ----------------------------------------------------------------

# (field, m): m = p over Q_p(zeta_p), Q_2, Q_2(sqrt 2) and Q_2(i), where
# x^2 + 2x + 2 has the root i - 1 and #mu = 4; m = 2 at odd p
_COORDINATE_CASES = [("qp-zeta-3", 3), ("qp-zeta-5", 5), ("qp-zeta-7", 7),
                     ("qp-2", 2), ("sqrt-2", 2), ("q2-i", 2), ("qp-5", 2),
                     ("cbrt-3", 2)]


@pytest.mark.parametrize("name,m", _COORDINATE_CASES)
def test_coordinates_are_additive_and_vanish_on_mth_powers(name, m):
    ctx = (LocalFieldCtx(2, [2, 2, 1], 16, name=name) if name == "q2-i"
           else preset(name, 16))
    red = NormResidueOracle(ctx, m).reducer
    rng = random.Random(f"coordinates-{name}")
    read = set()
    for _ in range(15):
        x, z, t = (_random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(m)
                   for _ in range(3))
        cx, cz = red.coordinates(x), red.coordinates(z)
        assert len(cx) == len(red.basis)
        assert red.coordinates(x * z) == \
            tuple((a + b) % m for a, b in zip(cx, cz))
        assert not any(red.coordinates(t ** m))
        read.update(col for col, c in enumerate(cx) if c)
    assert read == set(range(len(red.basis)))


# -- guards ---------------------------------------------------------------------

def test_oracle_guards(q5, cbrt3):
    with pytest.raises(BadInput, match="norm-residue oracle needs nonzero "
                       "inputs"):
        norm_residue_trivial(q5.zero, q5.one, 2)
    with pytest.raises(BadInput):
        NormResidueOracle(q5, 3)  # m must be 2 or p
    with pytest.raises(Unsupported, match="mu_p is not contained in F"):
        NormResidueOracle(cbrt3, 3)  # mu_3 is not in Q_3(cbrt 3)


def test_deep_valuation_precision_guard():
    from tamewild.errors import PrecisionExhausted
    from tamewild.localfield import qp_zeta
    F = qp_zeta(3, 8)  # M = 16, reduction depth H = 4
    zeta = F.one + F.pi
    with pytest.raises(PrecisionExhausted):
        norm_residue_trivial(F.pi ** 13, zeta, 3)
    assert norm_residue_trivial(F.pi ** 7 * 2, zeta, 3) in (True, False)


def test_a_norm_that_lost_every_digit_exhausts_precision():
    # the pivot build for y = 1 + p over Q_17(zeta_17) at N = 16 takes a
    # Kummer norm of valuation M = 256; this raised BadInput("zero element
    # has no class"), which blamed the caller's argument
    from tamewild.errors import PrecisionExhausted
    from tamewild.localfield import qp_zeta
    F = qp_zeta(17, 16)
    with pytest.raises(PrecisionExhausted, match="valuation 256 leaves no "
                       "certified digits below level 18"):
        norm_residue_trivial(F.omega, F.from_int(18), 17)


def test_a_zero_argument_is_refused_before_any_pivot_build(z3):
    oracle = NormResidueOracle(z3, 3)
    for x, y in ((z3.zero, z3.from_int(4)), (z3.from_int(4), z3.zero)):
        with pytest.raises(BadInput, match="norm-residue oracle needs "
                           "nonzero inputs"):
            oracle.trivial(x, y)
    assert not oracle._pivot_cache


def test_unramified_splitting_needs_prime_residue_field():
    from tamewild.localfield import eisenstein_root
    ctx = eisenstein_root(5, 2, 16, d=2)  # q = 25
    # ramified y still works for m = 2
    assert not norm_residue_trivial(ctx.omega, ctx.pi, 2)
    assert norm_residue_trivial(ctx.pi ** 2, ctx.pi, 2) in (True, False)
    # a nonsquare unit forces the unramified case, unsupported at d = 2
    with pytest.raises(Unsupported, match="unramified splitting is "
                       "implemented over prime residue fields only"):
        norm_residue_trivial(ctx.pi, ctx.omega, 2)


def test_wild_oracle_on_k2_field():
    # Q_3(zeta_9): k = 2 >= 1, so the m = 3 oracle applies
    from tamewild.localfield import LocalFieldCtx
    F = LocalFieldCtx(3, [3, 9, 18, 21, 15, 6, 1], 16, name="qp-zeta9-3")
    y = F.one + F.pi
    rng = random.Random(11)
    for _ in range(10):
        t = F.elem([rng.randrange(3 ** 4) for _ in range(6)])
        if t.is_zero():
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
            if x.is_zero() or y.is_zero():
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
        if t.is_zero():
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
    unramified = set()
    for y_text in ys:
        y = element_from_string(ctx, y_text)
        oracle = NormResidueOracle(ctx, m)
        red = oracle.reducer
        ext = oracle._build_extension(list(oracle.class_key(y)), y)
        unramified.add(ext.ram_index == 1)
        high = ext.ram_index * (red.H - 1) + 1
        assert _old_high(ctx, m) > high
        new = list(ext.spanning_norms(high))
        old = list(ext.spanning_norms(_old_high(ctx, m)))
        assert old[:len(new)] == new
        for elem in old[len(new):]:
            assert not any(red.coordinates(elem)), y_text
        old_rows = []
        for elem in old:
            red.insert(old_rows, red.coordinates(elem))
        for x in xs:
            assert oracle.trivial(x, y) == \
                (not any(red.reduce(old_rows, red.coordinates(x))))
    assert unramified == {False, True}


@pytest.mark.parametrize("name", ["qp-zeta-3", "qp-zeta-5"])
def test_cold_queries_invert_nothing(monkeypatch, name):
    # everything is read modulo p-th powers: a coordinate c is cleared by
    # multiplying in a basis unit's (p - c)-th power, and a prime y is
    # normalised by a power of its unit part, so past the lazy constants of
    # the field no query inverts a unit
    ctx = preset(name, 16)
    assert ctx.k == 1 and not ctx.omega.is_zero() and not ctx.w_inv.is_zero()
    calls = []
    invert = FElem.invert_unit
    monkeypatch.setattr(FElem, "invert_unit",
                        lambda self: calls.append(self) or invert(self))
    rng = random.Random(f"cold-{name}")
    p = ctx.p
    for y_text in ("pi", "1+pi", f"1+pi^{p}", "2", "pi^2*(1+pi)"):
        y = element_from_string(ctx, y_text)
        x = _random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(p)
        NormResidueOracle(ctx, p).trivial(x, y)
    assert calls == []


def test_short_spanning_set_fails_the_rank_invariant(monkeypatch, capsys):
    # without the prime element's norm only N(U_L) is spanned, of index p
    # in U_F: rank 4 of the 5 the pivots need, and the oracle must refuse
    # to answer from the short span
    spanning = _Kummer.spanning_norms

    def without_first(self, high):
        norms = spanning(self, high)
        next(norms)
        return norms

    monkeypatch.setattr(_Kummer, "spanning_norms", without_first)
    ctx = preset("qp-zeta-5", 16)
    with pytest.raises(InvariantFailed, match="rank 4, below the norm "
                                              "group's rank 5"):
        NormResidueOracle(ctx, 5).trivial(ctx.from_int(2), ctx.pi)
    assert dispatch(["norm-oracle", "--preset", "qp-zeta-5", "-N", "16",
                     "--m", "p", "--x", "2", "--y", "pi"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the spanning norms reach rank 4, below "
                            "the norm group's rank 5\n")


@pytest.mark.parametrize("name,calls", [("qp-zeta-5", 5), ("qp-zeta-7", 7)])
def test_ramified_class_norm_count(monkeypatch, name, calls):
    # the spanning set is the pi_L generator plus p levels of U_L per level
    # of U_F below H (26 and 50 norms), but the build stops at the norm
    # group's rank e + 1 = p, each of the first p norms adding one pivot,
    # and the generator computes no norm past the stop
    ctx = preset(name, 16)
    seen = []
    norm = _Kummer.norm
    monkeypatch.setattr(_Kummer, "norm",
                        lambda self, *a: seen.append(a) or norm(self, *a))
    NormResidueOracle(ctx, ctx.p).trivial(ctx.from_int(1 + ctx.p),
                                          ctx.one + ctx.pi)
    assert len(seen) == calls


def _cold_query_products(monkeypatch, name, N):
    """(all, under _Kummer): the FElem products of one cold query, x = 1 + p
    against y = 1 + pi, and those of them made while _Kummer builds the
    extension (Newton's identities) or computes a spanning norm."""
    ctx = preset(name, N)
    assert ctx.k == 1 and not ctx.omega.is_zero() and not ctx.w_inv.is_zero()
    depth, calls = [0], []

    def flagged(fn):
        def inner(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return inner

    def flagged_norms(self, high):
        step = flagged(lambda norms=spanning(self, high): next(norms, None))
        while (elem := step()) is not None:
            yield elem

    spanning, mul = _Kummer.spanning_norms, FElem.__mul__

    def spy(self, other):
        calls.append(depth[0] > 0)
        return mul(self, other)

    monkeypatch.setattr(_Kummer, "__init__", flagged(_Kummer.__init__))
    monkeypatch.setattr(_Kummer, "spanning_norms", flagged_norms)
    monkeypatch.setattr(FElem, "__mul__", spy)
    monkeypatch.setattr(FElem, "__rmul__", spy)
    NormResidueOracle(ctx, ctx.p).trivial(ctx.from_int(1 + ctx.p),
                                          ctx.one + ctx.pi)
    return len(calls), sum(calls)


def test_cold_septic_query_multiplication_count(monkeypatch):
    # the pivots of one ramified class at p = 7: 7 closed-form norms, up to
    # the norm group's rank, each a few products once the symmetric
    # functions of the conjugates of G^a are known, where a cofactor
    # expansion paid about 840 per norm
    _, kummer = _cold_query_products(monkeypatch, "qp-zeta-7", 16)
    assert kummer <= 451


def test_cold_quintic_query_multiplication_count(monkeypatch):
    # the 5 norms of one ramified class at p = 5 that reach the norm
    # group's rank: a level unit 1 + scale G^a pi^b with b >= 0 has v0 = 1,
    # so its norm is Horner in v1 alone, m products where carrying the
    # powers of v0 took 3m, and the prime element's v0 = 0 leaves the one
    # term e_m v1^m
    _, kummer = _cold_query_products(monkeypatch, "qp-zeta-5", 32)
    assert kummer <= 155


@pytest.mark.parametrize("name,N,bound", [("qp-zeta-7", 16, 525),
                                          ("qp-zeta-5", 32, 200)])
def test_cold_query_total_multiplication_count(monkeypatch, name, N, bound):
    # the whole cold query: the Kummer products above plus the walks that
    # read y and each spanning norm to its end, clearing every coordinate
    # with a power of a basis unit from the oracle's table
    total, _ = _cold_query_products(monkeypatch, name, N)
    assert total <= bound


def test_warm_tame_query_multiplies_only_in_unit_decompose(monkeypatch):
    # with m = 2 and odd p the coordinates are the exponents of pi and
    # omega that unit_decompose reads, and reducing them against warm
    # pivots is integer arithmetic: no other product of field elements
    ctx = preset("cbrt-3", 32)
    oracle = NormResidueOracle(ctx, 2)
    ys = [element_from_string(ctx, text) for text in ("pi", "2", "2*pi")]
    rng = random.Random("tame-divide")
    xs = [_random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(2)
          for _ in range(20)]
    for y in ys:
        oracle.trivial(ctx.one, y)  # warm the pivots
    inside, decomposed, products = [], [], []
    decompose, mul, power = (normoracle.unit_decompose, FElem.__mul__,
                             FElem.__pow__)

    def spy_decompose(x):
        inside.append(None)
        decomposed.append(x)
        try:
            return decompose(x)
        finally:
            inside.pop()

    def counted(op):
        def spy(a, b):
            if not inside:
                products.append(op)
            return op(a, b)
        return spy

    monkeypatch.setattr(normoracle, "unit_decompose", spy_decompose)
    monkeypatch.setattr(FElem, "__mul__", counted(mul))
    monkeypatch.setattr(FElem, "__rmul__", counted(mul))
    monkeypatch.setattr(FElem, "__pow__", counted(power))
    answers = {oracle.trivial(x, y) for x in xs for y in ys}
    assert answers == {False, True}
    assert len(decomposed) == len(xs)
    assert products == []


def test_big_unramified_ring_builds_no_tables(monkeypatch):
    # kappa_L has q = 7^7 = 823543 at p = 7, above MAX_Q, and already at
    # p = 5 its tables would cost tens of milliseconds; the closed-form
    # norms need none, and at m = p no generator of kappa_L^x is built
    built = []
    original = FiniteField._build_tables

    def spy(field):
        built.append(field)
        return original(field)

    monkeypatch.setattr(FiniteField, "_build_tables", spy)
    for p in (5, 7):
        norms = list(_unramified_kummer(qp(p, 8), p).spanning_norms(2))
        assert len(norms) == p
    assert built == []


# (preset, N, m, y): classes whose extension is unramified, leading at the
# cokernel of the critical level (m = p) or at omega (m = 2, odd p)
_UNRAMIFIED_CASES = [
    ("qp-zeta-3", 32, 3, "1+pi^3"),
    ("qp-zeta-5", 32, 5, "1+pi^5"),
    ("qp-zeta-7", 16, 7, "1+pi^7"),
    ("qp-5", 32, 2, "2"),
    ("qp-7", 32, 2, "3"),
    ("cbrt-3", 32, 2, "2"),
    ("sqrt-5", 32, 2, "2"),
    ("qp-zeta-3", 32, 2, "2"),
]


def _lead_position(oracle, y):
    """The basis position of the first nonzero coordinate of y, None for an
    m-th power."""
    key = oracle.class_key(y)
    lead = next((col for col, c in enumerate(key) if c), None)
    return None if lead is None else oracle.reducer.basis[lead]


def _leads_unramified(oracle, y):
    pos = _lead_position(oracle, y)
    return pos == "omega" or (isinstance(pos, tuple)
                              and pos[0] == oracle.reducer.critical)


@pytest.mark.parametrize("name,N,m,y_text", _UNRAMIFIED_CASES)
def test_unramified_norms_are_the_elements_of_valuation_divisible_by_m(
        name, N, m, y_text):
    # local class field theory: the norm group of the unramified degree-m
    # extension is {x : m | v(x)} (Serre, Local Fields, Ch. V, section 2)
    ctx = preset(name, N)
    oracle = NormResidueOracle(ctx, m)
    y = element_from_string(ctx, y_text)
    assert _leads_unramified(oracle, y)
    rng = random.Random(f"unramified-{name}-{m}")
    answers = set()
    for _ in range(20):
        x = _random_nonzero(ctx, rng) * ctx.pi ** rng.randrange(2 * m)
        expected = valuation(x) % m == 0
        assert norm_residue_trivial(x, y, m) == expected
        answers.add(expected)
    assert answers == {False, True}


def test_a_unit_leading_at_a_fundamental_level_is_not_unramified():
    ctx = preset("qp-zeta-3", 32)
    oracle = NormResidueOracle(ctx, 3)
    y = element_from_string(ctx, "2*(1+2*pi^3)")
    assert _lead_position(oracle, y) == (2, 0)
    assert not _leads_unramified(oracle, y)


def test_one_oracle_reads_each_element_once(z3, monkeypatch):
    # x and y share one memo: repeated queries, and an element queried as
    # x and as y, read its coordinates once
    oracle = NormResidueOracle(z3, 3)
    reads = []
    class_key = oracle.class_key
    monkeypatch.setattr(oracle, "class_key",
                        lambda elem: reads.append(elem.flat)
                        or class_key(elem))
    xs = [z3.pi, z3.one + z3.pi ** 2, z3.from_int(2)]
    ys = [z3.one + z3.pi, z3.pi, z3.from_int(7)]
    pairs = [(x, y) for x in xs for y in ys]
    first = [oracle.trivial(x, y) for x, y in pairs]
    assert [oracle.trivial(x, y) for x, y in pairs] == first
    fresh = NormResidueOracle(z3, 3)
    assert [fresh.trivial(x, y) for x, y in pairs] == first
    assert set(first) == {False, True}
    assert sorted(reads) == sorted({elem.flat for elem in xs + ys})


def test_the_class_key_memo_is_capped(z3, monkeypatch):
    monkeypatch.setattr(normoracle, "CLASS_KEY_MEMO", 3)
    oracle, fresh = NormResidueOracle(z3, 3), NormResidueOracle(z3, 3)
    x = z3.one + z3.pi
    for k in range(10):
        y = z3.one + z3.from_int(k % 5 + 1) * z3.pi ** (k % 2 + 1)
        assert oracle.trivial(x, y) == fresh.trivial(x, y)
        assert len(oracle._keys) <= 3
