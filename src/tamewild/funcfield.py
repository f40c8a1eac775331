"""Places of P^1 over F_q, tame symbols, Weil reciprocity and the residue
theorem for rational 1-forms.

F_q and F_q[t] are finitefield.GF(q) and finitefield.FqPoly, the same layer
as the p-adic residue fields: elements are integers in [0, q) encoding
base-p digit vectors, polynomials dense coefficient lists (low degree
first), and finitefield.factor factors over F_q.  This module adds rational
functions as reduced fractions with monic denominator.  Places are monic
irreducible polynomials plus the degree-one place at infinity.  The residue
field kappa(v) of a place is a FiniteField tower over F_q (F_q[t]/pi_v, or
F_q[x]/(x) at infinity), so tame symbols and residues are ints of kappa(v)
and F_q sits in it as the ints below q.  The orders of a function at its
places are the multiplicities in the factorizations of its numerator and
denominator (degree differences at infinity), kept with the function the
first time they are read, and every reader takes them from there.  So the
Weil and Hilbert checks, divisor and ff_tame_symbol factor each of f.num,
f.den, g.num and g.den once per function, however many checks read it, and
strip nothing: a tame symbol reads only the units whose exponent is nonzero
and inverts at most one element of kappa(v).  Residues are read after a
Taylor shift to the class theta of t in kappa(v) (of 1/t at infinity),
truncated at the one coefficient that the residue needs; the pole order
there comes from one factorization of the form's denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import BadInput, InvariantFailed
# GF is re-exported; perfbench/tracing.py wraps the F_q methods via _GFq
from .finitefield import GF, FiniteField, FqPoly, factor  # noqa: F401
from .finitefield import FiniteField as _GFq  # noqa: F401


# ---------------------------------------------------------------------------
# rational functions and places
# ---------------------------------------------------------------------------

class FqRational:
    """Reduced fraction num/den with monic denominator.  _orders holds
    {FFPlace: ord_v} once _orders_of has read it."""

    __slots__ = ("num", "den", "_orders")

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
        self._orders = None

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


def _orders_of(f):
    """{place: ord_v f} over infinity, always present, where the order is a
    degree difference, and every place dividing f.num or f.den, where it is
    the signed multiplicity in one factorization of each, kept on f."""
    if f._orders is None:
        orders = {FFPlace.infinity(): f.den.degree() - f.num.degree()}
        for poly, sign in ((f.num, 1), (f.den, -1)):
            for pi, mult in factor(poly):
                orders[FFPlace(pi)] = sign * mult
        f._orders = orders
    return f._orders


def divisor(f: FqRational):
    """[(FFPlace, order)] over all places, sorted; the degree-weighted sum
    vanishes (a principal divisor)."""
    if f.is_zero():
        raise BadInput("divisor of zero")
    items = sorted(_orders_of(f).items(), key=lambda kv: kv[0].sort_key())
    return [(pl, n) for pl, n in items if n]


# ---------------------------------------------------------------------------
# residue fields kappa(v) and the tame symbol
# ---------------------------------------------------------------------------

def _unit_at(poly, pi, k):
    """The class in F_q[t]/pi of poly / pi^k, for pi^k the exact power of pi
    dividing poly, as a coefficient list."""
    for _ in range(k):
        poly = poly // pi
    return (poly % pi).c


def ff_tame_symbol(f, g, place):
    """(-1)^{ab} f^b g^{-a} reduced at the place, a = v(f) and b = v(g): a
    nonzero int of kappa(v) = place.residue_field(F_q).  a and b are read
    off the orders kept on f and g (one factorization of each numerator
    and denominator per function).  Only the units of f and g whose
    exponent is nonzero are read, and the value is one quotient
    top / bot."""
    if f.is_zero() or g.is_zero():
        raise BadInput("tame symbol of zero")
    a, b = _orders_of(f).get(place, 0), _orders_of(g).get(place, 0)
    kappa = place.residue_field(f.gf())
    tops, bots = [], []
    for h, v, e in ((f, a, b), (g, b, -a)):
        if not e:
            continue
        # h = s^k num/den in the chart, so pi divides num v - k times and
        # den k - v times (the reversed polynomials at infinity not at all)
        pi, num, den, k = _chart(h, place)
        un = kappa.pack(_unit_at(num, pi, max(v - k, 0)))
        ud = kappa.pack(_unit_at(den, pi, max(k - v, 0)))
        if e < 0:
            un, ud, e = ud, un, -e
        tops.append(kappa.pow(un, e))
        if ud != 1:
            bots.append(kappa.pow(ud, e))
    val = reduce(kappa.mul, tops) if tops else 1
    if bots:
        val = kappa.mul(val, kappa.inv(reduce(kappa.mul, bots)))
    return kappa.neg(val) if a * b % 2 else val


def _symbol_norms(f, g, power):
    """The pass shared by both checks: the norm of the tame symbol at each
    place of the support (the Frobenius-orbit product; with `power`, also
    the power map, which must agree) and whether their product is 1.  The
    support is the union of the places in the orders kept on f and g, which
    ff_tame_symbol reads too, so both checks on one pair share one
    factorization of each of f.num, f.den, g.num and g.den."""
    if f.is_zero() or g.is_zero():
        raise BadInput("reciprocity check of zero")
    gf = f.gf()
    table = []
    prod = gf.one
    for pl in sorted(_orders_of(f).keys() | _orders_of(g).keys(),
                     key=FFPlace.sort_key):
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

def _taylor_shift(kappa, poly, theta, n):
    """The first n coefficients of poly(theta + u) in u over kappa, by
    Horner's rule truncated at u^n."""
    add, mul = kappa.add, kappa.mul
    acc = []
    for c in reversed(poly.c):
        nxt = [c] + acc[:n - 1]  # u acc + c, then theta acc below
        for i, a in enumerate(acc[:n]):
            if a:
                nxt[i] = add(nxt[i], mul(theta, a))
        acc = nxt
    return acc + [0] * (n - len(acc))


def residue_at(f, g, place):
    """res_v(f dg) as an int of kappa(v) = place.residue_field(F_q)."""
    dg = g.derivative()
    if f.is_zero() or dg.is_zero():
        return 0
    form = f * dg
    kd = dict(factor(form.den)).get(place.poly, 0)  # 0 at infinity
    return _residue(form, place, kd)


def _residue(form, place, kd):
    """res_v(form dt) for the nonzero rational function form.

    The residue of a differential does not depend on the uniformizer used
    to expand it (Serre, Algebraic Groups and Class Fields, Ch. II;
    Stichtenoth, Algebraic Function Fields and Codes, Sec. 4.2), so every
    place takes u = s - theta in the chart s of _chart, with theta the
    class of s in kappa(v) (0 at infinity).  With form dt = s^k num/den ds,
    negated at infinity, and den(theta + u) = u^kd D(u), the residue is
    the coefficient of u^(kd - k - 1) in num(theta + u) / D(u).  kd is the
    multiplicity of pi_v in form.den, read off its factorization (0 at
    infinity, where the reversed den has a nonzero constant term)."""
    kappa = place.residue_field(form.gf())
    pi, num, den, k = _chart(form, place)
    if place.is_infinite():
        k -= 2  # dt = -s^-2 ds
    n = kd - k - 1
    if n < 0:
        return 0
    theta = kappa.pack((FqPoly.x(pi.gf) % pi).c)
    top = _taylor_shift(kappa, num, theta, n + 1)
    low = _taylor_shift(kappa, den, theta, kd + n + 1)[kd:]
    inv0 = kappa.inv(low[0])
    quo = []  # the power series top / low up to u^n
    for j in range(n + 1):
        acc = top[j]
        for i in range(1, j + 1):
            if low[i] and quo[j - i]:
                acc = kappa.sub(acc, kappa.mul(low[i], quo[j - i]))
        quo.append(kappa.mul(acc, inv0))
    return kappa.neg(quo[n]) if place.is_infinite() else quo[n]


def residue_theorem_check(f, g):
    """Sum of Tr_{kappa(v)/F_q} res_v(f dg) over the polar support; returns
    (ok, [(place, trace)], flagged) where flagged marks dg = 0."""
    if f.is_zero() or g.is_zero():
        raise BadInput("residue check of zero")
    gf = f.gf()
    dg = g.derivative()
    if dg.is_zero():
        return True, [], True
    form = f * dg
    table = []
    total = 0
    poles = [(FFPlace.infinity(), 0)] + [(FFPlace(pi), kd) for pi, kd in
                                         factor(form.den)]
    for pl, kd in poles:
        tr = pl.residue_field(gf).trace(_residue(form, pl, kd))
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
