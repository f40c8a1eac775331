import hashlib
import random

import pytest

from tamewild.errors import BadInput
from tamewild.finitefield import is_irreducible, squarefree_decomposition
from tamewild.funcfield import (
    GF,
    MAX_EXPONENT,
    FFPlace,
    FqPoly,
    FqRational,
    divisor,
    factor,
    ff_hilbert_check,
    ff_tame_symbol,
    rational_from_string,
    residue_at,
    residue_theorem_check,
    weil_reciprocity_check,
)


def poly_from_string(gf, text):
    """A polynomial of F_q[t] in the CLI syntax, read as a rational
    function with denominator 1."""
    r = rational_from_string(gf, text)
    assert r.den == FqPoly.const(gf, 1), text
    return r.num


def _horner(f, a):
    """f(a) for f in F_q[t] and a in F_q."""
    gf, acc = f.gf, 0
    for c in reversed(f.c):
        acc = gf.add(gf.mul(acc, a), c)
    return acc


def _rand_rational(gf, rng, max_deg=4):
    while True:
        num = FqPoly(gf, [rng.randrange(gf.q)
                          for _ in range(rng.randint(1, max_deg + 1))])
        den = FqPoly(gf, [rng.randrange(gf.q)
                          for _ in range(rng.randint(1, max_deg + 1))])
        if not num.is_zero() and not den.is_zero():
            r = FqRational(num, den)
            if not r.is_zero():
                return r


# -- field and polynomial layers --------------------------------------------------

def test_gf4_field_axioms():
    gf = GF(4)
    els = list(gf.elements())
    for a in els:
        for b in els:
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
        if a:
            assert gf.mul(a, gf.inv(a)) == gf.one
    # multiplicative group is cyclic of order 3
    assert sorted(gf.pow(2, k) for k in range(3)) == sorted([1, 2, 3])


def test_gf_not_prime_power():
    with pytest.raises(BadInput):
        GF(6)


def test_poly_divmod_roundtrip():
    gf = GF(5)
    rng = random.Random(0)
    for _ in range(100):
        a = FqPoly(gf, [rng.randrange(5) for _ in range(rng.randint(1, 7))])
        b = FqPoly(gf, [rng.randrange(5) for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree() or r.is_zero()


def test_squarefree_and_factor():
    gf = GF(3)
    t = FqPoly.x(gf)
    one = FqPoly(gf, [1])
    f = (t + one) * (t + one) * t
    sq = squarefree_decomposition(f)
    assert sorted(m for _, m in sq) == [1, 2]
    fac = factor(f)
    assert sum(m for _, m in fac) == 3
    # t^2 + 1 is irreducible over F_3 (-1 is a non-residue)
    assert is_irreducible(poly_from_string(gf, "t^2+1"))
    assert not is_irreducible(poly_from_string(gf, "t^2+2"))


def test_factor_reassembles():
    rng = random.Random(1)
    for q in (2, 3, 4, 5):
        gf = GF(q)
        for _ in range(50):
            f = FqPoly(gf, [rng.randrange(q)
                            for _ in range(rng.randint(2, 8))])
            if f.degree() < 1:
                continue
            prod = FqPoly(gf, [f.lead()])
            for g, m in factor(f):
                assert is_irreducible(g)
                for _ in range(m):
                    prod = prod * g
            assert prod == f


def test_frobenius_powers_in_char2():
    gf = GF(4)
    f = poly_from_string(gf, "t^2+t+1")
    # roots are the two elements of F_4 outside F_2
    roots = [a for a in gf.elements() if _horner(f, a) == 0]
    assert sorted(roots) == [2, 3]


# -- divisors ----------------------------------------------------------------------

def test_divisor_examples():
    gf = GF(3)
    t = FqRational(FqPoly.x(gf))
    div = dict((pl.label(), n) for pl, n in divisor(t))
    assert div == {"[0, 1]": 1, "inf": -1}
    f = rational_from_string(gf, "(t^2+1)/t")
    div = {pl.label(): n for pl, n in divisor(f)}
    assert div == {"[1, 0, 1]": 1, "[0, 1]": -1, "inf": -1}
    with pytest.raises(BadInput, match="divisor of zero"):
        divisor(FqRational(FqPoly(gf, [])))


def test_divisor_degree_zero():
    rng = random.Random(2)
    for q in (2, 3, 4, 5):
        gf = GF(q)
        for _ in range(50):
            f = _rand_rational(gf, rng)
            assert sum(pl.degree() * n for pl, n in divisor(f)) == 0


# -- tame symbols --------------------------------------------------------------------

def test_ff_tame_examples():
    gf = GF(3)
    t = FqRational(FqPoly.x(gf))
    pl = FFPlace(FqPoly.x(gf).monic())
    assert ff_tame_symbol(t, t, pl) == 2  # -1
    g = rational_from_string(gf, "t-1")
    assert ff_tame_symbol(t, g, pl) == 2  # 1/(0-1) = -1


def test_ff_tame_laws():
    rng = random.Random(3)
    gf = GF(5)
    pl = FFPlace(poly_from_string(gf, "t^2+2").monic())
    kappa = pl.residue_field(gf)
    for _ in range(100):
        f = _rand_rational(gf, rng, 3)
        g = _rand_rational(gf, rng, 3)
        h = _rand_rational(gf, rng, 3)
        ab = ff_tame_symbol(f, g, pl)
        assert kappa.mul(ff_tame_symbol(f, h, pl),
                         ff_tame_symbol(g, h, pl)) == \
            ff_tame_symbol(f * g, h, pl)
        assert kappa.mul(ab, ff_tame_symbol(g, f, pl)) == 1


def test_ff_steinberg():
    rng = random.Random(4)
    gf = GF(4)
    one = FqRational(FqPoly(gf, [1]))
    count = 0
    while count < 100:
        f = _rand_rational(gf, rng, 3)
        g = one - f
        if g.is_zero():
            continue
        count += 1
        ok, table = weil_reciprocity_check(f, g)
        assert ok


# -- reciprocity --------------------------------------------------------------------

def test_weil_table_example():
    gf = GF(3)
    t = FqRational(FqPoly.x(gf))
    g = rational_from_string(gf, "t^2+1")
    ok, table = weil_reciprocity_check(t, g)
    assert ok
    # the degree-2 place contributes through a norm from F_9
    labels = {pl.label() for pl, _ in table}
    assert "[1, 0, 1]" in labels


def test_degree2_exponent():
    # over F_3 the power-map exponent at a degree-2 place is 1 + 3 = 4
    assert (3 ** 2 - 1) // (3 - 1) == 4
    gf = GF(3)
    pl = FFPlace(poly_from_string(gf, "t^2+1").monic())
    assert pl.degree() == 2
    # m_v = q^deg - 1 is the order of kappa(v)^x ((t+1)^2 = 2t has order 8)
    kappa = pl.residue_field(gf)
    gen = kappa.pack(poly_from_string(gf, "t+1").c)
    seen = set()
    cur = 1
    for _ in range(3 ** 2 - 1):
        cur = kappa.mul(cur, gen)
        seen.add(cur)
    assert len(seen) == 8


def test_weil_and_hilbert_agree_random():
    rng = random.Random(5)
    for q in (2, 3, 4, 5):
        gf = GF(q)
        for _ in range(60):
            f = _rand_rational(gf, rng, 3)
            g = _rand_rational(gf, rng, 3)
            ok1, t1 = weil_reciprocity_check(f, g)
            ok2, t2 = ff_hilbert_check(f, g)
            assert ok1 and ok2
            assert [(pl.label(), v) for pl, v in t1] == \
                [(pl.label(), v) for pl, v in t2]


def _fresh(f):
    """A copy of f that has read none of its orders."""
    return FqRational(f.num, f.den)


def _all_reads(f, g):
    """Every result of the checks that read the orders of f and g: both
    tables, both divisors and the tame symbol at each place of the
    support."""
    _, weil = weil_reciprocity_check(f, g)
    _, hilbert = ff_hilbert_check(f, g)
    symbols = [ff_tame_symbol(f, g, pl) for pl, _ in weil]
    return weil, hilbert, divisor(f), divisor(g), symbols


@pytest.mark.parametrize("q", [3, 9, 81])
def test_each_polynomial_is_factored_once(monkeypatch, q):
    from tamewild import funcfield
    rng = random.Random(31 + q)
    gf = GF(q)
    for _ in range(4):
        f, g = _rand_rational(gf, rng, 5), _rand_rational(gf, rng, 5)
        want = _all_reads(_fresh(f), _fresh(g))
        calls = []
        factor_ = funcfield.factor
        monkeypatch.setattr(funcfield, "factor",
                            lambda poly: calls.append(poly) or factor_(poly))
        got = _all_reads(f, g)
        assert _all_reads(f, g) == got  # the second pass factors nothing
        monkeypatch.undo()
        assert sorted(map(id, calls)) == sorted(
            map(id, (f.num, f.den, g.num, g.den)))
        assert got == want


def test_kept_orders_survive_mutated_results():
    rng = random.Random(7)
    gf = GF(9)
    for _ in range(6):
        f, g = _rand_rational(gf, rng, 4), _rand_rational(gf, rng, 4)
        want = _all_reads(_fresh(f), _fresh(g))
        div, (_, table) = divisor(f), weil_reciprocity_check(f, g)
        div.clear()
        table.reverse()
        table.append((FFPlace.infinity(), 0))
        assert _all_reads(f, g) == want
        # the support of (g, f) is that of (f, g)
        assert [pl for pl, _ in weil_reciprocity_check(g, f)[1]] == \
            [pl for pl, _ in want[0]]
    # both orders at infinity vanish: the Weil table still lists inf
    f = rational_from_string(gf, "(t+1)/(t+2)")
    g = rational_from_string(gf, "(t^2+1)/t^2")
    assert not any(pl.is_infinite() for h in (f, g) for pl, _ in divisor(h))
    ok, table = weil_reciprocity_check(f, g)
    assert ok and table[0] == (FFPlace.infinity(), 1)


#: sha256 of _digest_lines(), recorded before factoring moved from
#: funcfield to finitefield: every output below must stay byte-identical
_DIGEST_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81, 243)
_DIGEST = "3df0002857fcddbb058ef5ef56bf736b9f50d66e07e6d9a8db175b68d7cbaa7e"


def _digest_lines():
    """One line per seeded pair (f, g) over each q of _DIGEST_QS: the Weil,
    ff-Hilbert and residue tables, both divisors, and the factorizations of
    f.num, f.den, g.num and g.den."""
    for q in _DIGEST_QS:
        gf = GF(q)
        rng = random.Random(q)
        for _ in range(10):
            f, g = _rand_rational(gf, rng, 4), _rand_rational(gf, rng, 4)
            row = []
            for check in (weil_reciprocity_check, ff_hilbert_check):
                ok, table = check(f, g)
                row.append((ok, [(pl.label(), v) for pl, v in table]))
            ok, table, flagged = residue_theorem_check(f, g)
            row.append((ok, [(pl.label(), v) for pl, v in table], flagged))
            row.append([[(pl.label(), n) for pl, n in divisor(h)]
                        for h in (f, g)])
            row.append([[(pi.c, m) for pi, m in factor(h)]
                        for h in (f.num, f.den, g.num, g.den)])
            yield repr(row)


def test_function_field_outputs_match_the_recorded_digest():
    digest = hashlib.sha256()
    for line in _digest_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == _DIGEST


def test_char_p_sanity():
    # m_v = q^deg - 1 is prime to the characteristic
    import sympy
    for q in (2, 3, 4, 5):
        p = list(sympy.factorint(q))[0]
        for deg in (1, 2, 3):
            assert (q ** deg - 1) % p != 0


# -- residues ----------------------------------------------------------------------

def test_residue_dt_over_t():
    gf = GF(5)
    t = FqRational(FqPoly.x(gf))
    ok, table, flagged = residue_theorem_check(t.inverse(), t)
    tab = {pl.label(): v for pl, v in table}
    assert ok and not flagged
    assert tab["[0, 1]"] == 1 and tab["inf"] == gf.neg(1)


def test_residue_partial_fractions():
    gf = GF(5)
    t = FqRational(FqPoly.x(gf))
    h = rational_from_string(gf, "1/(t^2-t)")
    ok, table, _ = residue_theorem_check(h, t)
    tab = {pl.label(): v for pl, v in table}
    assert ok
    assert tab["[0, 1]"] == gf.neg(1)  # res at 0 of (1/(t-1) - 1/t) dt
    assert tab["[4, 1]"] == 1          # res at 1
    assert tab["inf"] == 0


def test_residue_of_exact_differential():
    gf = GF(3)
    one = FqRational(FqPoly(gf, [1]))
    g = rational_from_string(gf, "t^4+2t^2+t")
    ok, table, flagged = residue_theorem_check(one, g)
    assert ok and not flagged
    assert all(v == 0 for _, v in table)


def test_residue_constant_differential_flag():
    gf = GF(3)
    one = FqRational(FqPoly(gf, [1]))
    g = rational_from_string(gf, "t^3+1")  # d(t^3+1) = 0 in char 3
    ok, table, flagged = residue_theorem_check(one, g)
    assert ok and flagged and table == []


def test_residue_linear_in_f():
    gf = GF(5)
    t = FqRational(FqPoly.x(gf))
    pl = FFPlace(FqPoly.x(gf).monic())
    f1 = rational_from_string(gf, "1/t")
    f2 = rational_from_string(gf, "(t+1)/t")
    r1 = residue_at(f1, t, pl)
    r2 = residue_at(f2, t, pl)
    s = residue_at(f1 + f2, t, pl)
    assert pl.residue_field(gf).add(r1, r2) == s


def test_residue_random_sum_zero():
    rng = random.Random(6)
    for q in (2, 3, 5):
        gf = GF(q)
        for _ in range(60):
            f = _rand_rational(gf, rng, 3)
            g = _rand_rational(gf, rng, 3)
            ok, _, _ = residue_theorem_check(f, g)
            assert ok


# -- parsing -----------------------------------------------------------------------

def test_poly_parsing():
    gf = GF(3)
    f = poly_from_string(gf, "t^2+2*t+1")
    assert f.c == [1, 2, 1]
    assert poly_from_string(gf, "t^2+2t+1") == f  # implicit product
    assert poly_from_string(gf, "-t") .c == [0, 2]
    r = rational_from_string(gf, "(t^2+1)/t")
    assert r.num.c == [1, 0, 1] and r.den.c == [0, 1]


def test_order_at():
    # ord_v read off the divisor, at infinity and at finite places
    gf = GF(3)
    f = rational_from_string(gf, "t^3/((t+1)^2*(t^2+1))")
    orders = {pl.label(): n for pl, n in divisor(f)}
    assert orders == {"inf": 1, "[0, 1]": 3, "[1, 1]": -2, "[1, 0, 1]": -1}


def test_rational_parsing_division():
    gf = GF(5)
    t = rational_from_string(gf, "t")
    one = rational_from_string(gf, "1")
    assert rational_from_string(gf, "(t+1)*(t+2)/t") == \
        (t + one) * (t + one + one) * t.inverse()
    assert rational_from_string(gf, "t/(t+1)^2") == \
        t * ((t + one) * (t + one)).inverse()
    # '/' binds like '*': t+1/t is t + 1/t, and a/b*c is (a/b)*c
    assert rational_from_string(gf, "t+1/t") == t + t.inverse()
    assert rational_from_string(gf, "t+1/t") != \
        rational_from_string(gf, "(t+1)/t")
    assert rational_from_string(gf, "1/t*t") == one
    with pytest.raises(ZeroDivisionError):
        rational_from_string(gf, "1/(t-t)")


def test_power_cap():
    gf = GF(3)
    assert poly_from_string(gf, f"t^{MAX_EXPONENT}").degree() == MAX_EXPONENT
    assert poly_from_string(gf, "(t+1)^9") == poly_from_string(gf, "t^9+1")
    assert poly_from_string(gf, "2^1024") == poly_from_string(gf, "1")
    for text in (f"t^{MAX_EXPONENT + 1}", "(t^100)^100", "t^100000000",
                 "2^100000"):
        with pytest.raises(BadInput):
            poly_from_string(gf, text)
        with pytest.raises(BadInput):
            rational_from_string(gf, text)
