"""Places of P^1 over F_q, tame symbols, Weil reciprocity and the residue
theorem for rational 1-forms.

F_q and F_q[t] are finitefield.GF(q) and finitefield.FqPoly, the same
layer as the p-adic residue fields: elements are integers in [0, q)
encoding base-p digit vectors, polynomials dense coefficient lists (low
degree first).  This module adds factoring over F_q, and rational functions
as reduced fractions with monic denominator.
Places are monic irreducible polynomials plus the degree-one place at
infinity; local expansions use truncated Laurent series, exact because
residues depend on finitely many terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BadInput, InvariantFailed, ZeroInput
from .finitefield import GF, FqPoly, is_irreducible  # noqa: F401 - re-exported
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


def _strip(poly, pi):
    """(k, poly / pi^k) for the multiplicity k of pi in the nonzero poly."""
    k = 0
    while True:
        q, r = poly.divmod(pi)
        if not r.is_zero():
            return k, poly
        poly = q
        k += 1


def order_at(f: FqRational, place: FFPlace) -> int:
    """ord_v(f)."""
    if f.is_zero():
        raise ZeroInput("order of zero")
    if place.is_infinite():
        return f.den.degree() - f.num.degree()
    return _strip(f.num, place.poly)[0] - _strip(f.den, place.poly)[0]


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

class ResidueAt:
    """kappa(v) = F_q[t]/pi_v (or F_q at infinity) with norm and trace."""

    def __init__(self, gf, place):
        self.gf = gf
        self.place = place
        self.deg = place.degree()

    def reduce(self, poly):
        if self.place.is_infinite():
            raise BadInput("use infinity-specific evaluation")
        return poly % self.place.poly

    def mul(self, a, b):
        return (a * b) % self.place.poly

    def inv(self, a):
        # extended gcd against pi_v
        pi = self.place.poly
        r0, s0 = pi, FqPoly(self.gf, [])
        r1, s1 = a % pi, FqPoly(self.gf, [1])
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree() != 0:
            raise ZeroDivisionError("non-unit in residue field")
        return (s0 * self.gf.inv(r0.c[0])) % pi

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r = FqPoly(self.gf, [1])
        b = a % self.place.poly
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    def norm(self, a):
        """N_{kappa(v)/F_q} as the Frobenius-orbit product; lands in F_q."""
        acc = a % self.place.poly
        conj = acc
        for _ in range(self.deg - 1):
            conj = self.pow(conj, self.gf.q)
            acc = self.mul(acc, conj)
        return self._in_base(acc)

    def power_norm(self, a):
        """The same norm as the (q^deg - 1)/(q - 1)-th power map."""
        e = (self.gf.q ** self.deg - 1) // (self.gf.q - 1)
        return self._in_base(self.pow(a, e))

    @staticmethod
    def _in_base(a):
        if a.degree() > 0:
            raise InvariantFailed("norm did not land in the base field")
        return a.c[0] if a.c else 0

    def trace(self, a):
        """Tr_{kappa(v)/F_q} via the multiplication-matrix trace."""
        pi = self.place.poly
        gf = self.gf
        tr = 0
        col = a % pi
        x = FqPoly(gf, [0, 1])
        for j in range(self.deg):
            cj = col.c[j] if j < len(col.c) else 0
            tr = gf.add(tr, cj)
            col = (col * x) % pi
        return tr


def _order_and_unit_at(f, place):
    """(v, f * pi_v^{-v} evaluated in kappa(v)) with v = ord_v(f), at a
    finite place."""
    pi = place.poly
    kn, num = _strip(f.num, pi)
    kd, den = _strip(f.den, pi)
    res = ResidueAt(f.gf(), place)
    return kn - kd, res.mul(num % pi, res.inv(den % pi))


def _unit_value_at_infinity(f):
    """Leading-coefficient ratio: the value of f * t^{v_inf} at infinity."""
    gf = f.gf()
    return gf.mul(f.num.lead(), gf.inv(f.den.lead()))


def ff_tame_symbol(f, g, place):
    """(-1)^{v(f)v(g)} f^{v(g)} g^{-v(f)} reduced at the place; an element
    of kappa(v)^x (an FqPoly mod pi_v; a scalar polynomial at infinity)."""
    if f.is_zero() or g.is_zero():
        raise ZeroInput("tame symbol of zero")
    gf = f.gf()
    if place.is_infinite():
        a, b = order_at(f, place), order_at(g, place)
        uf = _unit_value_at_infinity(f)
        ug = _unit_value_at_infinity(g)
        val = gf.mul(gf.pow(uf, b) if b >= 0 else gf.inv(gf.pow(uf, -b)),
                     gf.inv(gf.pow(ug, a)) if a >= 0 else gf.pow(ug, -a))
        if (a * b) % 2:
            val = gf.neg(val)
        return FqPoly.const(gf, val)
    a, uf = _order_and_unit_at(f, place)
    b, ug = _order_and_unit_at(g, place)
    res = ResidueAt(gf, place)
    val = res.mul(res.pow(uf, b), res.pow(ug, -a))
    if (a * b) % 2:
        val = -val
    return val % place.poly


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
        sym = ff_tame_symbol(f, g, pl)
        if pl.is_infinite():
            val = sym.c[0] if sym.c else 0
        else:
            res = ResidueAt(gf, pl)
            val = res.norm(sym)
            if power and res.power_norm(sym) != val:
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

    __slots__ = ("res", "lead", "c", "prec")

    def __init__(self, res, lead, coeffs, prec):
        while coeffs and coeffs[0].is_zero():
            coeffs = coeffs[1:]
            lead += 1
        self.res = res
        self.lead = lead
        self.c = coeffs
        self.prec = prec

    def coeff(self, i):
        j = i - self.lead
        if 0 <= j < len(self.c):
            return self.c[j]
        return FqPoly(self.res.gf, [])

    def __mul__(self, other):
        res = self.res
        prec = min(self.prec, other.prec)
        lead = self.lead + other.lead
        n = prec - lead
        out = [FqPoly(res.gf, []) for _ in range(max(n, 0))]
        for i, x in enumerate(self.c):
            if x.is_zero():
                continue
            for j, y in enumerate(other.c):
                k = i + j
                if k < len(out):
                    out[k] = out[k] + res.mul(x, y)
        return _Laurent(res, lead, out, prec)

    def __add__(self, other):
        res = self.res
        prec = min(self.prec, other.prec)
        lead = min(self.lead, other.lead)
        n = prec - lead
        out = [FqPoly(res.gf, []) for _ in range(max(n, 0))]
        for src in (self, other):
            for i, x in enumerate(src.c):
                k = i + src.lead - lead
                if 0 <= k < len(out):
                    out[k] = out[k] + x
        return _Laurent(res, lead, out, prec)

    def __neg__(self):
        return _Laurent(self.res, self.lead, [-x for x in self.c], self.prec)

    def inverse(self):
        """Series inverse; the true leading coefficient must be nonzero."""
        res = self.res
        c, lead = self.c, self.lead
        if not c:
            raise ZeroDivisionError("inverting the zero series")
        n = self.prec - lead
        inv0 = res.inv(c[0])
        out = [inv0]
        for k in range(1, max(n, 0)):
            acc = FqPoly(res.gf, [])
            for i in range(1, min(k, len(c) - 1) + 1):
                acc = acc + res.mul(c[i], out[k - i])
            out.append(res.mul(inv0, -acc))
        return _Laurent(res, -lead, out, self.prec - 2 * lead)

    def derivative(self):
        res = self.res
        gf = res.gf
        out = []
        for j, x in enumerate(self.c):
            i = self.lead + j
            out.append(x * (i % gf.p) if i % gf.p else FqPoly(gf, []))
        # d/ds shifts exponents down by one
        return _Laurent(res, self.lead - 1, out, self.prec - 1)


def _uniformizer_expansion(res, prec):
    """T(s) in kappa(v)[[s]] with pi_v(T) = s, T(0) = the residue of t.

    Newton iteration against P(T) = pi_v(T) - s; pi_v is separable so the
    derivative is a unit at the start."""
    gf = res.gf
    pi = res.place.poly
    x = FqPoly(gf, [0, 1])
    t0 = x % pi  # the class of t
    T = _Laurent(res, 0, [t0], prec)
    s = _Laurent(res, 1, [FqPoly(gf, [1])], prec)
    for _ in range(prec.bit_length() + 2):
        PT = _eval_poly_series(res, pi, T) + (-s)
        if all(c.is_zero() for c in PT.c):
            break
        dPT = _eval_poly_series(res, pi.derivative(), T)
        T = T + (-(PT * dPT.inverse()))
    return T


def _eval_poly_series(res, poly, series):
    acc = _Laurent(res, 0, [], series.prec)
    for c in reversed(poly.c):
        const = _Laurent(res, 0, [FqPoly.const(res.gf, c)], series.prec)
        acc = acc * series + const
    return acc


def _rational_series(res, f, series):
    num = _eval_poly_series(res, f.num, series)
    den = _eval_poly_series(res, f.den, series)
    return num * den.inverse()


def residue_at(f, g, place):
    """res_v(f dg) as an element of kappa(v) (FqPoly mod pi_v)."""
    gf = f.gf()
    dg = g.derivative()
    if dg.is_zero():
        return FqPoly(gf, [])
    if place.is_infinite():
        return _residue_at_infinity(f, g)
    res = ResidueAt(gf, place)
    h = f * dg  # h dt; res_v(h dt) = coeff_{-1} of h(T(s)) T'(s)
    # dividing by the denominator's zero of order k costs 2k precision
    k = _strip(h.den, place.poly)[0]
    prec = 2 * k + 2
    T = _uniformizer_expansion(res, prec)
    series = _rational_series(res, h, T) * T.derivative()
    return series.coeff(-1)


class _InfResidue:
    """kappa(infinity) = F_q wrapped with the ResidueAt interface."""

    def __init__(self, gf):
        self.gf = gf
        self.place = FFPlace.infinity()

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a.degree() > 0 or a.is_zero():
            raise ZeroDivisionError("non-unit")
        return FqPoly.const(self.gf, self.gf.inv(a.c[0]))


def _reverse_poly(poly, deg):
    c = poly.c + [0] * (deg + 1 - len(poly.c))
    return FqPoly(poly.gf, list(reversed(c)))


def _residue_at_infinity(f, g):
    """Substitute t = 1/s: f dg = -f(1/s) g'(1/s) s^{-2} ds."""
    gf = f.gf()
    h = f * g.derivative()
    pole = max(0, h.num.degree() - h.den.degree()) + 2
    prec = pole + 2
    res = _InfResidue(gf)

    def series_of(r):
        dn, dd = r.num.degree(), r.den.degree()
        num = _Laurent(res, -dn,
                       [FqPoly.const(gf, c) for c in _reverse_poly(r.num, dn).c],
                       prec)
        den = _Laurent(res, -dd,
                       [FqPoly.const(gf, c) for c in _reverse_poly(r.den, dd).c],
                       prec)
        return num * den.inverse()

    total = series_of(h)
    minus_s_m2 = _Laurent(res, -2, [FqPoly.const(gf, gf.neg(gf.one))], prec)
    series = total * minus_s_m2
    return series.coeff(-1)


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
        r = residue_at(f, g, pl)
        if pl.is_infinite():
            tr = r.c[0] if r.c else 0
        else:
            tr = ResidueAt(gf, pl).trace(r)
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
