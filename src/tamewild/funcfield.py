"""Places of P^1 over F_q, tame symbols, Weil reciprocity and the residue
theorem for rational 1-forms.

F_q is realised for prime powers q = p^s by the same deterministic modulus
choice as the p-adic presets; elements are integers in [0, q) encoding
base-p digit vectors.  Polynomials are dense coefficient lists (low degree
first); rational functions are reduced fractions with monic denominator.
Places are monic irreducible polynomials plus the degree-one place at
infinity; local expansions use truncated Laurent series, exact because
residues depend on finitely many terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import sympy

from .errors import BadInput, ZeroInput
from .padic import default_modulus


# ---------------------------------------------------------------------------
# F_q arithmetic (table-based; q stays desk-sized)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def GF(q):
    fac = sympy.factorint(q)
    if len(fac) != 1:
        raise BadInput(f"q = {q} is not a prime power")
    (p, s), = fac.items()
    return _GFq(int(p), int(s))


class _GFq:
    """F_{p^s} with elements packed as integers in [0, p^s)."""

    def __init__(self, p, s):
        self.p = p
        self.s = s
        self.q = p ** s
        self.modulus = default_modulus(p, s)  # shared with the p-adic side
        self.zero, self.one = 0, 1 % self.q
        self._mul = None

    def __repr__(self):
        return f"GF({self.q})"

    def _digits(self, a):
        out = []
        for _ in range(self.s):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _pack(self, digits):
        acc = 0
        for d in reversed(digits):
            acc = acc * self.p + d
        return acc

    def add(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return self._pack([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a):
        return self._pack([-x % self.p for x in self._digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.s == 1:
            return a * b % self.p
        if self._mul is None:
            self._build_tables()
        return self._mul[a][b]

    def _build_tables(self):
        p, s = self.p, self.s
        g = self.modulus
        tbl = [[0] * self.q for _ in range(self.q)]
        for a in range(self.q):
            da = self._digits(a)
            for b in range(a, self.q):
                db = self._digits(b)
                conv = [0] * (2 * s - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            conv[i + j] += x * y
                for i in range(2 * s - 2, s - 1, -1):
                    c = conv[i] % p
                    if c:
                        for j in range(s):
                            conv[i - s + j] -= c * g[j]
                    conv[i] = 0
                val = self._pack([c % p for c in conv[:s]])
                tbl[a][b] = tbl[b][a] = val
        self._mul = tbl

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self.pow(a, self.q - 2)

    def pow(self, a, n):
        if a == 0:
            if n <= 0:
                raise ZeroDivisionError("0^n for n <= 0")
            return 0
        n %= self.q - 1
        r, b = self.one, a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    def elements(self):
        return range(self.q)


# ---------------------------------------------------------------------------
# polynomials over F_q
# ---------------------------------------------------------------------------

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


class FqPoly:
    """Dense polynomial over F_q, low coefficient first; [] is zero."""

    __slots__ = ("gf", "c")

    def __init__(self, gf, coeffs):
        self.gf = gf
        self.c = _trim(coeffs)

    @classmethod
    def const(cls, gf, a):
        return cls(gf, [a])

    @classmethod
    def x(cls, gf):
        return cls(gf, [0, 1])

    def __repr__(self):
        return f"FqPoly({self.c} /F{self.gf.q})"

    def __eq__(self, other):
        return isinstance(other, FqPoly) and self.gf is other.gf \
            and self.c == other.c

    def __hash__(self):
        return hash((self.gf.q, tuple(self.c)))

    def is_zero(self):
        return not self.c

    def degree(self):
        return len(self.c) - 1 if self.c else -1

    def lead(self):
        return self.c[-1] if self.c else 0

    def __add__(self, other):
        gf = self.gf
        n = max(len(self.c), len(other.c))
        a = self.c + [0] * (n - len(self.c))
        b = other.c + [0] * (n - len(other.c))
        return FqPoly(gf, [gf.add(x, y) for x, y in zip(a, b)])

    def __neg__(self):
        return FqPoly(self.gf, [self.gf.neg(x) for x in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        gf = self.gf
        if isinstance(other, int):
            return FqPoly(gf, [gf.mul(x, other) for x in self.c])
        if self.is_zero() or other.is_zero():
            return FqPoly(gf, [])
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    out[i + j] = gf.add(out[i + j], gf.mul(x, y))
        return FqPoly(gf, out)

    __rmul__ = __mul__

    def monic(self):
        if self.is_zero():
            return self
        return self * self.gf.inv(self.lead())

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        gf = self.gf
        a = list(self.c)
        b = other.c
        inv_lead = gf.inv(b[-1])
        q = [0] * max(0, len(a) - len(b) + 1)
        while len(a) >= len(b):
            f = gf.mul(a[-1], inv_lead)
            shift = len(a) - len(b)
            q[shift] = f
            for i, bc in enumerate(b):
                a[shift + i] = gf.sub(a[shift + i], gf.mul(f, bc))
            a = _trim(a)
        return FqPoly(gf, q), FqPoly(gf, a)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, n, mod):
        r = FqPoly(self.gf, [1])
        b = self % mod
        while n:
            if n & 1:
                r = (r * b) % mod
            b = (b * b) % mod
            n >>= 1
        return r

    def derivative(self):
        gf = self.gf
        out = []
        for i in range(1, len(self.c)):
            out.append(gf.mul(self.c[i], i % gf.p))
        return FqPoly(gf, out)

    def eval(self, a):
        gf = self.gf
        acc = 0
        for c in reversed(self.c):
            acc = gf.add(gf.mul(acc, a), c)
        return acc

    def pth_root(self):
        """Inverse of Frobenius on coefficients, for f = g(x^p)."""
        gf = self.gf
        out = []
        for i in range(0, len(self.c), gf.p):
            out.append(gf.pow(self.c[i], gf.q // gf.p))
        return FqPoly(gf, out)


# -- factorization ----------------------------------------------------------

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


def is_irreducible(f):
    if f.degree() < 1:
        return False
    fac = factor(f)
    return len(fac) == 1 and fac[0][1] == 1 and fac[0][0] == f.monic()


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


def order_at(f: FqRational, place: FFPlace) -> int:
    """ord_v(f)."""
    if f.is_zero():
        raise ZeroInput("order of zero")
    if place.is_infinite():
        return f.den.degree() - f.num.degree()

    def mult(poly):
        k = 0
        while True:
            q, r = poly.divmod(place.poly)
            if not r.is_zero():
                return k, poly
            k += 1
            poly = q

    kn, _ = mult(f.num)
    kd, _ = mult(f.den)
    return kn - kd


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
        assert acc.degree() <= 0, "norm did not land in the base field"
        return acc.c[0] if acc.c else 0

    def power_norm(self, a):
        """The same norm as the (q^deg - 1)/(q - 1)-th power map."""
        e = (self.gf.q ** self.deg - 1) // (self.gf.q - 1)
        val = self.pow(a, e)
        assert val.degree() <= 0
        return val.c[0] if val.c else 0

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


def _unit_part_at(f, place, v):
    """f * pi_v^{-v} evaluated in kappa(v) (finite place)."""
    pi = place.poly

    def strip(poly):
        k = 0
        while True:
            q, r = poly.divmod(pi)
            if not r.is_zero():
                return poly, k
            poly = q
            k += 1

    num, kn = strip(f.num)
    den, kd = strip(f.den)
    assert kn - kd == v
    res = ResidueAt(f.gf(), place)
    return res.mul(num % pi, res.inv(den % pi))


def _unit_value_at_infinity(f, v):
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
        uf = _unit_value_at_infinity(f, a)
        ug = _unit_value_at_infinity(g, b)
        val = gf.mul(gf.pow(uf, b) if b >= 0 else gf.inv(gf.pow(uf, -b)),
                     gf.inv(gf.pow(ug, a)) if a >= 0 else gf.pow(ug, -a))
        if (a * b) % 2:
            val = gf.neg(val)
        return FqPoly.const(gf, val)
    a = order_at(f, place)
    b = order_at(g, place)
    res = ResidueAt(gf, place)
    uf = _unit_part_at(f, place, a)
    ug = _unit_part_at(g, place, b)
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


def weil_reciprocity_check(f, g):
    """prod_v N_{kappa(v)/F_q} of the tame symbols over the support; the
    product must be 1.  Returns (ok, [(place, norm value)])."""
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
            val = ResidueAt(gf, pl).norm(sym)
        table.append((pl, val))
        prod = gf.mul(prod, val)
    return prod == gf.one, table


def ff_hilbert_check(f, g):
    """Same product with the exponents written as m_v/m = (q^deg - 1)/(q-1);
    asserts factor-by-factor agreement with the norm formulation."""
    if f.is_zero() or g.is_zero():
        raise ZeroInput("reciprocity check of zero")
    gf = f.gf()
    table = []
    prod = gf.one
    for pl in _support(f, g):
        sym = ff_tame_symbol(f, g, pl)
        if pl.is_infinite():
            val = sym.c[0] if sym.c else 0
            other = val
        else:
            res = ResidueAt(gf, pl)
            val = res.power_norm(sym)
            other = res.norm(sym)
        assert val == other, "power and Frobenius norms disagree"
        table.append((pl, val))
        prod = gf.mul(prod, val)
    return prod == gf.one, table


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


def _poly_multiplicity(poly, pi):
    k = 0
    while True:
        q, r = poly.divmod(pi)
        if not r.is_zero():
            return k
        poly = q
        k += 1


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
    k = _poly_multiplicity(h.den, place.poly)
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
    deg = max(a.num.degree(), a.den.degree()) \
        if isinstance(a, FqRational) else a.degree()
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


def _parse(gf, text, lift, **ops):
    """Parse over F_q[t] lifted into FqPoly or FqRational by `lift`."""
    from .parsing import parse_ring_expr
    one = lift(FqPoly.const(gf, 1))
    return parse_ring_expr(text, {
        "pow": lambda a, n: _power(a, n, one),
        "int": lambda n: lift(FqPoly.const(gf, n % gf.p)),
        "var": {"t": lift(FqPoly.x(gf))},
        **ops})


def poly_from_string(gf, text):
    """Parse 't^2+2*t+1' style polynomial syntax over F_q."""
    return _parse(gf, text, lambda poly: poly)


def rational_from_string(gf, text):
    """Parse a rational function of t over F_q: polynomial syntax plus '/',
    which binds like '*' (so 't+1/t' is t + 1/t)."""
    return _parse(gf, text, FqRational, div=lambda a, b: a * b.inverse())
