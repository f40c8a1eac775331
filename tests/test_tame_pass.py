"""funcfield's tame pass against the tame symbol it replaced.

The reference below is the earlier implementation, kept as it was: at each
place it strips pi_v off the numerator and the denominator of f and of g by
repeated division, which yields each order and each unit, and forms
(-1)^{ab} u_f^b u_g^{-a} with two inversions in kappa(v) and one more for
the negative power.  It reads no factorization.  The pass under test takes
the orders from the factorizations of f.num, f.den, g.num and g.den, reads
only the units whose exponent is nonzero, and inverts at most once.
"""

import random
from collections import Counter

import pytest

from tamewild.finitefield import FiniteField, is_irreducible
from tamewild.funcfield import (
    GF,
    FFPlace,
    FqPoly,
    FqRational,
    _chart,
    factor,
    ff_hilbert_check,
    ff_tame_symbol,
    weil_reciprocity_check,
)

# ---------------------------------------------------------------------------
# the reference: orders and units by repeated division
# ---------------------------------------------------------------------------

def _strip(poly, pi):
    """(k, poly / pi^k mod pi), k the multiplicity of pi in poly != 0."""
    k = 0
    while True:
        q, r = poly.divmod(pi)
        if not r.is_zero():
            return k, r
        poly = q
        k += 1


def _order_and_unit_at(f, place, kappa):
    """(v, the value in kappa = kappa(v) of f / pi^v) for v = ord_v(f)."""
    pi, num, den, k = _chart(f, place)
    kn, un = _strip(num, pi)
    kd, ud = _strip(den, pi)
    unit = kappa.mul(kappa.pack(un.c), kappa.inv(kappa.pack(ud.c)))
    return k + kn - kd, unit


def ref_tame_symbol(f, g, place):
    kappa = place.residue_field(f.gf())
    a, uf = _order_and_unit_at(f, place, kappa)
    b, ug = _order_and_unit_at(g, place, kappa)
    val = kappa.mul(kappa.pow(uf, b), kappa.pow(ug, -a))
    return kappa.neg(val) if a * b % 2 else val


def ref_table(f, g):
    """[(place, norm of the reference symbol)] over infinity and the places
    dividing f.num, f.den, g.num or g.den, in sort_key order."""
    places = {FFPlace(pi.monic()) for h in (f.num, f.den, g.num, g.den)
              for pi, _ in factor(h)}
    places.add(FFPlace.infinity())
    return [(pl, pl.residue_field(f.gf()).norm(ref_tame_symbol(f, g, pl)))
            for pl in sorted(places, key=FFPlace.sort_key)]


# ---------------------------------------------------------------------------
# seeded pairs with zeros and poles of degree 1 to 4
# ---------------------------------------------------------------------------

def _irreducible(gf, d, rng):
    while True:
        poly = FqPoly(gf, [rng.randrange(gf.q) for _ in range(d)] + [1])
        if is_irreducible(poly):
            return poly


def _pair(q, rng):
    """(f, g, places): f and g with zeros and poles of multiplicity up to 2
    at places of degree 1 to 4, some shared, times random constants."""
    gf = GF(q)
    places = [_irreducible(gf, d, rng) for d in (1, 1, 2, 3, 4)]
    one = FqPoly.const(gf, 1)

    def rational(chosen):
        num, den = FqPoly.const(gf, rng.randrange(1, q)), one
        for pi in chosen:
            e = rng.choice((-2, -1, 1, 2))
            for _ in range(abs(e)):
                if e > 0:
                    num = num * pi
                else:
                    den = den * pi
        return FqRational(num, den)

    f = rational(places[0:4])
    g = rational([places[0], places[2], places[4]])
    return f, g, [FFPlace(pi.monic()) for pi in places]


QS = [2, 3, 4, 9, 25, 243]


@pytest.mark.parametrize("q", QS)
def test_tame_symbol_matches_the_reference(q):
    rng = random.Random(q)
    f, g, places = _pair(q, rng)
    for pl in places + [FFPlace.infinity()]:
        assert ff_tame_symbol(f, g, pl) == ref_tame_symbol(f, g, pl), pl
    # a place of neither support: both orders vanish
    other = FFPlace(_irreducible(GF(q), 2, rng).monic())
    if other not in places:
        assert ff_tame_symbol(f, g, other) == 1


@pytest.mark.parametrize("q", QS)
def test_weil_and_hilbert_tables_match_the_reference(q):
    rng = random.Random(100 + q)
    for _ in range(2):
        f, g, _ = _pair(q, rng)
        want = ref_table(f, g)
        assert max(pl.degree() for pl, _ in want) == 4
        for check in (weil_reciprocity_check, ff_hilbert_check):
            ok, table = check(f, g)
            assert ok
            assert table == want


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def test_weil_check_inverts_at_most_once_per_place(monkeypatch):
    """Every place of degree >= 2 has its own tower kappa(v); the pass
    inverts at most one of its elements (the reference inverts three)."""
    seen = []
    inv = FiniteField._euclid_inv

    def spy(kappa, a):
        seen.append(kappa)
        return inv(kappa, a)

    rng = random.Random(7)
    f, g, _ = _pair(9, rng)
    monkeypatch.setattr(FiniteField, "_euclid_inv", spy)
    ok, table = weil_reciprocity_check(f, g)
    assert ok
    per_kappa = Counter(id(kappa) for kappa in seen)
    assert seen and max(per_kappa.values()) == 1
    assert len(per_kappa) <= sum(pl.degree() > 1 for pl, _ in table)
    seen.clear()
    ref_table(f, g)
    assert max(Counter(id(kappa) for kappa in seen).values()) == 3
