"""funcfield.residue_at against the Laurent-series residues it replaced.

The reference below is the earlier implementation, kept as it was: at a
finite place it builds the uniformizer expansion T(s) with pi_v(T) = s by
Newton iteration over kappa(v)((s)) and reads the coefficient of s^-1 in
h(T(s)) T'(s); at infinity it expands in s = 1/t.  It shares no residue
code with residue_at, which reads the same coefficient after a Taylor shift
at the class of t.
"""

import itertools
import random

from tamewild.finitefield import is_irreducible
from tamewild.funcfield import (
    GF,
    FFPlace,
    FqPoly,
    FqRational,
    _reverse_poly,
    residue_at,
    residue_theorem_check,
)
from test_tame_pass import _strip

# ---------------------------------------------------------------------------
# the reference: truncated Laurent series and Newton's uniformizer
# ---------------------------------------------------------------------------

class _Laurent:
    """Truncated Laurent series sum_{i >= lead} c_i s^i over kappa(v),
    carried to absolute order `prec` (exclusive)."""

    __slots__ = ("kappa", "lead", "c", "prec")

    def __init__(self, kappa, lead, coeffs, prec):
        while coeffs and not coeffs[0]:
            coeffs = coeffs[1:]
            lead += 1
        self.kappa = kappa
        self.lead = lead
        self.c = coeffs
        self.prec = prec

    def coeff(self, i):
        j = i - self.lead
        return self.c[j] if 0 <= j < len(self.c) else 0

    def __mul__(self, other):
        kappa = self.kappa
        prec = min(self.prec, other.prec)
        lead = self.lead + other.lead
        n = max(prec - lead, 0)
        out = [0] * n
        for i, x in enumerate(self.c[:n]):
            if x:
                for j, y in enumerate(other.c[:n - i]):
                    out[i + j] = kappa.add(out[i + j], kappa.mul(x, y))
        return _Laurent(kappa, lead, out, prec)

    def __add__(self, other):
        kappa = self.kappa
        prec = min(self.prec, other.prec)
        lead = min(self.lead, other.lead)
        out = [0] * max(prec - lead, 0)
        for src in (self, other):
            for i, x in enumerate(src.c):
                k = i + src.lead - lead
                if 0 <= k < len(out):
                    out[k] = kappa.add(out[k], x)
        return _Laurent(kappa, lead, out, prec)

    def __neg__(self):
        return _Laurent(self.kappa, self.lead,
                        [self.kappa.neg(x) for x in self.c], self.prec)

    def inverse(self):
        """Series inverse; the true leading coefficient must be nonzero."""
        kappa = self.kappa
        c, lead = self.c, self.lead
        if not c:
            raise ZeroDivisionError("inverting the zero series")
        inv0 = kappa.inv(c[0])
        out = [inv0]
        for k in range(1, max(self.prec - lead, 0)):
            acc = 0
            for i in range(1, min(k, len(c) - 1) + 1):
                acc = kappa.add(acc, kappa.mul(c[i], out[k - i]))
            out.append(kappa.mul(inv0, kappa.neg(acc)))
        return _Laurent(kappa, -lead, out, self.prec - 2 * lead)

    def derivative(self):
        kappa = self.kappa
        out = [kappa.scale(x, self.lead + j) for j, x in enumerate(self.c)]
        # d/ds shifts exponents down by one
        return _Laurent(kappa, self.lead - 1, out, self.prec - 1)


def _uniformizer_expansion(kappa, pi, prec):
    """T(s) in kappa(v)[[s]] with pi_v(T) = s, T(0) = the residue of t.

    Newton iteration against P(T) = pi_v(T) - s; pi_v is separable so the
    derivative is a unit at the start."""
    t0 = kappa.pack((FqPoly.x(pi.gf) % pi).c)  # the class of t
    T = _Laurent(kappa, 0, [t0], prec)
    s = _Laurent(kappa, 1, [1], prec)
    for _ in range(prec.bit_length() + 2):
        PT = _eval_poly_series(kappa, pi, T) + (-s)
        if not PT.c:
            break
        dPT = _eval_poly_series(kappa, pi.derivative(), T)
        T = T + (-(PT * dPT.inverse()))
    return T


def _eval_poly_series(kappa, poly, series):
    acc = _Laurent(kappa, 0, [], series.prec)
    for c in reversed(poly.c):
        acc = acc * series + _Laurent(kappa, 0, [c], series.prec)
    return acc


def _rational_series(kappa, f, series):
    num = _eval_poly_series(kappa, f.num, series)
    den = _eval_poly_series(kappa, f.den, series)
    return num * den.inverse()


def laurent_residue_at(f, g, place):
    """res_v(f dg) as an int of kappa(v) = place.residue_field(F_q)."""
    dg = g.derivative()
    if dg.is_zero():
        return 0
    kappa = place.residue_field(f.gf())
    if place.is_infinite():
        return _residue_at_infinity(f, g, kappa)
    h = f * dg  # h dt; res_v(h dt) = coeff_{-1} of h(T(s)) T'(s)
    # dividing by the denominator's zero of order k costs 2k precision
    k = _strip(h.den, place.poly)[0]
    prec = 2 * k + 2
    T = _uniformizer_expansion(kappa, place.poly, prec)
    series = _rational_series(kappa, h, T) * T.derivative()
    return series.coeff(-1)


def _residue_at_infinity(f, g, kappa):
    """Substitute t = 1/s: f dg = -f(1/s) g'(1/s) s^{-2} ds."""
    h = f * g.derivative()
    dn, dd = h.num.degree(), h.den.degree()
    prec = max(0, dn - dd) + 4
    num = _Laurent(kappa, -dn, _reverse_poly(h.num, dn).c, prec)
    den = _Laurent(kappa, -dd, _reverse_poly(h.den, dd).c, prec)
    minus_s_m2 = _Laurent(kappa, -2, [kappa.neg(1)], prec)
    return (num * den.inverse() * minus_s_m2).coeff(-1)



# ---------------------------------------------------------------------------
# residue_at against the reference
# ---------------------------------------------------------------------------

def _monic_irreducibles(gf, deg):
    for low in itertools.product(range(gf.q), repeat=deg):
        poly = FqPoly(gf, list(low) + [1])
        if is_irreducible(poly):
            yield poly


def _random_poly(gf, rng, deg, avoid):
    """A polynomial of exact degree deg not divisible by avoid."""
    while True:
        poly = FqPoly(gf, [rng.randrange(gf.q) for _ in range(deg)]
                      + [rng.randrange(1, gf.q)])
        if avoid is None or not (poly % avoid).is_zero():
            return poly


def _forms(gf, rng, place):
    """(k, f) with f dt of pole order k = 0..3 at the place, f having
    other poles and zeros too."""
    pi = place.poly
    for k in range(4):
        b = _random_poly(gf, rng, rng.randint(2, 3), pi)
        if pi is None:  # ord_inf(f dt) = deg b - deg a - 2
            a = _random_poly(gf, rng, b.degree() + k - 2, None)
        else:
            a = _random_poly(gf, rng, rng.randint(0, 3), pi)
            for _ in range(k):
                b = b * pi
        yield k, FqRational(a, b)


def _compare(q, max_deg, rng):
    gf = GF(q)
    t = FqRational(FqPoly.x(gf))
    places = [FFPlace.infinity()] + [
        FFPlace(pi.monic()) for d in range(1, max_deg + 1)
        for pi in _monic_irreducibles(gf, d)]
    mismatches, count = [], 0
    for place in places:
        for k, f in _forms(gf, rng, place):
            new, old = residue_at(f, t, place), laurent_residue_at(f, t, place)
            count += 1
            if new != old or (k == 0 and new != 0):
                mismatches.append((place.label(), k, f, new, old))
    return count, mismatches


def test_residue_at_matches_the_laurent_reference():
    """Every place of degree <= 3 over F_2, F_3, F_4, of degree <= 2 over
    F_9, and infinity; pole orders 0-3, where order 0 has residue 0."""
    rng = random.Random(11)
    total = 0
    for q, max_deg in ((2, 3), (3, 3), (4, 3), (9, 2)):
        count, mismatches = _compare(q, max_deg, rng)
        assert mismatches == [], (q, mismatches[:3])
        total += count
    assert total == 4 * (1 + 5 + 1 + 14 + 1 + 30 + 1 + 45)


def test_pole_of_order_100_at_a_cubic_place():
    """f dt = t^299 / (t^3+2t+1)^100 dt over F_3 has residue -1 at infinity
    (f = 1/t + O(1/t^2) there), so the residue theorem pins the trace at
    the cubic place to 1."""
    gf = GF(3)
    pi = FqPoly(gf, [1, 2, 0, 1])
    den = FqPoly.const(gf, 1)
    for _ in range(100):
        den = den * pi
    f = FqRational(FqPoly(gf, [0] * 299 + [1]), den)
    t = FqRational(FqPoly.x(gf))
    ok, table, flagged = residue_theorem_check(f, t)
    assert ok and not flagged
    assert [(pl.label(), tr) for pl, tr in table] == [
        ("inf", gf.neg(1)), ("[1, 2, 0, 1]", 1)]
