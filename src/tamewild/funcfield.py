"""Places of P^1 over F_q, tame symbols, Weil reciprocity and the residue
theorem for rational 1-forms.

F_q and F_q[t] are finitefield.GF(q) and finitefield.FqPoly, the same
layer as the p-adic residue fields: elements are integers in [0, q)
encoding base-p digit vectors, polynomials dense coefficient lists (low
degree first).  This module adds factoring over F_q, and rational functions
as reduced fractions with monic denominator.
Places are monic irreducible polynomials plus the degree-one place at
infinity.  The residue field kappa(v) of a place is a FiniteField tower over
F_q (F_q[t]/pi_v, or F_q[x]/(x) at infinity), so tame symbols and residues
are ints of kappa(v) and F_q sits in it as the ints below q.  Local
expansions use truncated Laurent series over kappa(v), exact because
residues depend on finitely many terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BadInput, InvariantFailed, ZeroInput
from .finitefield import (  # noqa: F401 - GF and is_irreducible re-exported
    GF,
    FiniteField,
    FqPoly,
    is_irreducible,
)
# perfbench/tracing.py wraps the F_q methods through this name
from .finitefield import FiniteField as _GFq  # noqa: F401


# ---------------------------------------------------------------------------
# factorization over F_q
# ---------------------------------------------------------------------------

def squarefree_decomposition(f):
    """[(g, multiplicity)] with g squarefree pairwise-coprime monic."""
    gf = f.gf
    f = f.monic()
    out = []
    e = 1
    while f.degree() > 0:
        fp = f.derivative()
        if fp.is_zero():
            f = f.pth_root()
            e *= gf.p
            continue
        t = f.gcd(fp)
        v = f // t
        k = 0
        while v.degree() > 0:
            k += 1
            w = v.gcd(t)
            piece = v // w
            if piece.degree() > 0:
                out.append((piece, e * k))
            v = w
            t = t // w
        f = t
    return out


def _ddf(f):
    """Distinct-degree: [(product_of_degree_d_factors, d)]."""
    gf = f.gf
    out = []
    x = FqPoly.x(gf)
    h = x
    v = f
    d = 0
    while v.degree() > 2 * (d + 1) - 1:
        d += 1
        h = h.pow_mod(gf.q, v)
        g = (h - x).gcd(v)
        if g.degree() > 0:
            out.append((g, d))
            v = v // g
            h = h % v
    if v.degree() > 0:
        out.append((v, v.degree()))
    return out


def _edf(f, d, rng):
    """Equal-degree splitting (Cantor-Zassenhaus; trace map in char 2)."""
    gf = f.gf
    if f.degree() == d:
        return [f.monic()]
    while True:
        r = FqPoly(gf, [rng.randrange(gf.q) for _ in range(f.degree())])
        if r.degree() < 1:
            continue
        if gf.p == 2:
            t = FqPoly(gf, [])
            w = r % f
            for _ in range(d * gf.s):
                t = (t + w) % f
                w = w.pow_mod(2, f)
            g = t.gcd(f)
        else:
            g = r.gcd(f)
            if 0 < g.degree() < f.degree():
                return _edf(g, d, rng) + _edf(f // g, d, rng)
            w = r.pow_mod((gf.q ** d - 1) // 2, f)
            g = (w - FqPoly(gf, [1])).gcd(f)
        if 0 < g.degree() < f.degree():
            return _edf(g, d, rng) + _edf(f // g, d, rng)


def factor(f):
    """[(monic irreducible, multiplicity)], deterministic (seeded by f)."""
    if f.degree() < 1:
        return []
    rng = random.Random(hash((f.gf.q, tuple(f.c))) & 0xFFFFFFFF)
    out = []
    for g, mult in squarefree_decomposition(f):
        for h, d in _ddf(g):
            for irr in _edf(h, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree(), t[0].c))
    return out


# ---------------------------------------------------------------------------
# rational functions and places
# ---------------------------------------------------------------------------

class FqRational:
    """Reduced fraction num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = FqPoly(num.gf, [1])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if g.degree() > 0:
            num, den = num // g, den // g
        lead_inv = num.gf.inv(den.lead())
        self.num = num * lead_inv
        self.den = den * lead_inv

    def __repr__(self):
        return f"FqRational({self.num.c}/{self.den.c})"

    def __eq__(self, other):
        return (isinstance(other, FqRational) and self.num == other.num
                and self.den == other.den)

    def is_zero(self):
        return self.num.is_zero()

    def gf(self):
        return self.num.gf

    def __mul__(self, other):
        return FqRational(self.num * other.num, self.den * other.den)

    def __add__(self, other):
        return FqRational(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __neg__(self):
        return FqRational(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FqRational(self.den, self.num)

    def derivative(self):
        num = self.num.derivative() * self.den \
            - self.num * self.den.derivative()
        return FqRational(num, self.den * self.den)


@dataclass(frozen=True)
class FFPlace:
    """A closed point of P^1/F_q: a monic irreducible polynomial, or the
    degree-one place at infinity."""
    poly: FqPoly | None  # None encodes infinity

    @classmethod
    def infinity(cls):
        return cls(None)

    @classmethod
    def finite(cls, poly):
        return cls(poly.monic())

    def is_infinite(self):
        return self.poly is None

    def degree(self):
        return 1 if self.poly is None else self.poly.degree()

    def label(self):
        return "inf" if self.poly is None else str(self.poly.c)

    def sort_key(self):
        return (0,) if self.poly is None else (1, self.degree(),
                                               tuple(self.poly.c))

    def residue_field(self, gf):
        """kappa(v) as a tower over gf: gf[t]/pi_v, or gf[x]/(x) at
        infinity."""
        return FiniteField(gf, (0, 1) if self.poly is None else self.poly.c)


def _strip(poly, pi):
    """(k, poly / pi^k) for the multiplicity k of pi in the nonzero poly."""
    k = 0
    while True:
        q, r = poly.divmod(pi)
        if not r.is_zero():
            return k, poly
        poly = q
        k += 1


def _reverse_poly(poly, deg):
    c = poly.c + [0] * (deg + 1 - len(poly.c))
    return FqPoly(poly.gf, list(reversed(c)))


def _chart(f, place):
    """(pi, num, den, k) with f = s^k num(s)/den(s) in the place's chart s,
    in which the place is pi(s) = 0: s = t and pi = pi_v at a finite place,
    s = 1/t and pi = s at infinity."""
    if place.poly is not None:
        return place.poly, f.num, f.den, 0
    dn, dd = f.num.degree(), f.den.degree()
    return (FqPoly.x(f.gf()), _reverse_poly(f.num, dn),
            _reverse_poly(f.den, dd), dd - dn)


def divisor(f: FqRational):
    """[(FFPlace, order)] over all places, sorted; the degree-weighted sum
    vanishes (a principal divisor)."""
    if f.is_zero():
        raise ZeroInput("divisor of zero")
    out = {}
    for poly, mult in factor(f.num):
        out[FFPlace.finite(poly)] = mult
    for poly, mult in factor(f.den):
        pl = FFPlace.finite(poly)
        out[pl] = out.get(pl, 0) - mult
    vinf = f.den.degree() - f.num.degree()
    if vinf:
        out[FFPlace.infinity()] = vinf
    items = sorted(out.items(), key=lambda kv: kv[0].sort_key())
    return [(pl, n) for pl, n in items if n]


# ---------------------------------------------------------------------------
# residue fields kappa(v) and the tame symbol
# ---------------------------------------------------------------------------

def _order_and_unit_at(f, place, kappa):
    """(v, the value in kappa = kappa(v) of f / pi^v) for v = ord_v(f)."""
    pi, num, den, k = _chart(f, place)
    kn, num = _strip(num, pi)
    kd, den = _strip(den, pi)
    unit = kappa.mul(kappa.pack((num % pi).c),
                     kappa.inv(kappa.pack((den % pi).c)))
    return k + kn - kd, unit


def ff_tame_symbol(f, g, place):
    """(-1)^{v(f)v(g)} f^{v(g)} g^{-v(f)} reduced at the place: a nonzero
    int of kappa(v) = place.residue_field(F_q)."""
    if f.is_zero() or g.is_zero():
        raise ZeroInput("tame symbol of zero")
    kappa = place.residue_field(f.gf())
    a, uf = _order_and_unit_at(f, place, kappa)
    b, ug = _order_and_unit_at(g, place, kappa)
    val = kappa.mul(kappa.pow(uf, b), kappa.pow(ug, -a))
    return kappa.neg(val) if a * b % 2 else val


def _support(f, g):
    places = set()
    for h in (f, g):
        for poly, _ in factor(h.num):
            places.add(FFPlace.finite(poly))
        for poly, _ in factor(h.den):
            places.add(FFPlace.finite(poly))
    places.add(FFPlace.infinity())
    return sorted(places, key=lambda pl: pl.sort_key())


def _symbol_norms(f, g, power):
    """The pass shared by both checks: the norm of the tame symbol at each
    place of the support (the Frobenius-orbit product; with `power`, also
    the power map, which must agree) and whether their product is 1."""
    if f.is_zero() or g.is_zero():
        raise ZeroInput("reciprocity check of zero")
    gf = f.gf()
    table = []
    prod = gf.one
    for pl in _support(f, g):
        kappa = pl.residue_field(gf)
        sym = ff_tame_symbol(f, g, pl)
        val = kappa.norm(sym)
        if power and kappa.power_norm(sym) != val:
            raise InvariantFailed("power and Frobenius norms disagree")
        table.append((pl, val))
        prod = gf.mul(prod, val)
    return prod == gf.one, table


def weil_reciprocity_check(f, g):
    """prod_v N_{kappa(v)/F_q} of the tame symbols over the support; the
    product must be 1.  Returns (ok, [(place, norm value)])."""
    return _symbol_norms(f, g, power=False)


def ff_hilbert_check(f, g):
    """Same product with the exponents written as m_v/m = (q^deg - 1)/(q-1);
    raises InvariantFailed unless every factor agrees with the norm
    formulation, so its verdict and table are also Weil's."""
    return _symbol_norms(f, g, power=True)


# ---------------------------------------------------------------------------
# residues of rational 1-forms
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


def residue_at(f, g, place):
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


def residue_theorem_check(f, g):
    """Sum of Tr_{kappa(v)/F_q} res_v(f dg) over the polar support; returns
    (ok, [(place, trace)], flagged) where flagged marks dg = 0."""
    if f.is_zero() or g.is_zero():
        raise ZeroInput("residue check of zero")
    gf = f.gf()
    if g.derivative().is_zero():
        return True, [], True
    places = set()
    h = f * g.derivative()
    for poly, _ in factor(h.den):
        places.add(FFPlace.finite(poly))
    places.add(FFPlace.infinity())
    table = []
    total = 0
    for pl in sorted(places, key=lambda pl: pl.sort_key()):
        tr = pl.residue_field(gf).trace(residue_at(f, g, pl))
        table.append((pl, tr))
        total = gf.add(total, tr)
    return total == 0, table, False


# ---------------------------------------------------------------------------
# parsing helpers shared with the CLI
# ---------------------------------------------------------------------------

#: Cap on powers in parsed F_q(t) expressions: an exponent n above it, or a
#: power a^n whose degree would exceed it, is rejected with BadInput.
MAX_EXPONENT = 1024


def _power(a, n, one):
    """a^n by square-and-multiply, within MAX_EXPONENT."""
    deg = max(a.num.degree(), a.den.degree())
    if n > MAX_EXPONENT or n * deg > MAX_EXPONENT:
        raise BadInput(f"power ^{n} exceeds the cap of {MAX_EXPONENT} on "
                       f"exponents and degrees")
    r = one
    while n:
        if n & 1:
            r = r * a
        n >>= 1
        if n:
            a = a * a
    return r


def rational_from_string(gf, text):
    """Parse a rational function of t over F_q: polynomial syntax such as
    't^2+2*t+1' plus '/', which binds like '*' (so 't+1/t' is t + 1/t)."""
    from .parsing import parse_ring_expr
    one = FqRational(FqPoly.const(gf, 1))
    return parse_ring_expr(text, {
        "pow": lambda a, n: _power(a, n, one),
        "int": lambda n: FqRational(FqPoly.const(gf, n % gf.p)),
        "var": {"t": FqRational(FqPoly.x(gf))},
        "div": lambda a, b: a * b.inverse()})
