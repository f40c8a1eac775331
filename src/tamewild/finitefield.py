"""Finite fields F_q, q = p^s, their extensions, and dense polynomials.

This is the one F_q of the package: the residue fields of the local side
(localfield.LocalFieldCtx.kappa), the constant fields of F_q(t) and the
residue fields kappa(v) = F_q[t]/pi_v of its places (funcfield) are all
FiniteField instances.  A FiniteField is base[x]/(modulus) for a monic
irreducible modulus, and an element is an int in [0, q) whose base-Q digit
j, Q the size of the base, is the coefficient of x^j; so the base is the
identity on the ints below Q.

Over the prime p (base the int p) the modulus is by default the first
irreducible in lexicographic coefficient order (default_modulus), so
residue fields are reproducible across runs and shared between the two
sides.  For s = 1 the operations are plain integer arithmetic mod p.  For
s > 1 they go through tables of a fixed generator g, built on the first
operation that needs them: exp (g^i), log and the Zech logarithm Z with
g^Z(n) = 1 + g^n, so that g^a + g^b = g^(a + Z(b - a)) (K. Huber, "Some
comments on Zech's logarithms", IEEE Trans. Inf. Theory 36 (1990)).  The
tables take O(q) memory and O(q s^2) time.  An operation that needs them
refuses a field above MAX_Q elements, and GF refuses to build an extension
field above it.  The discrete logarithm (dlog) uses the same tables for
every s.

Over a FiniteField base (a tower) the field is the residue field kappa(v)
of one place and serves the symbols at that place, so it is not shared and
builds no tables: it multiplies digit polynomials by the FqPoly kernels
over the base, raises them to powers by the same _pow_mod kernel as
FqPoly.pow_mod, inverts by the extended Euclidean algorithm on coefficient
lists, and takes its modulus as irreducible.  A tower of degree 1 runs on
its base's operations, its norm, trace and power_norm the identity.  The
norm to the base is the resultant Res(modulus, a), the trace is sum_j a_j
p_j with p_j the power sums of Newton's identities (H. Cohen, A Course in
Computational Algebraic Number Theory, Sec. 3.3 and Ch. 4).  power_norm,
the cross-check of the norm, multiplies the conjugates a^(Q^i), each the
Frobenius image of the last.

The FqPoly kernels _mul and _divmod work on plain ints mod p when s = 1
and on the logarithms of a table field otherwise.  _pow_mod, square-and-
multiply on coefficient lists for general exponents, and FqPoly.gcd run on
them directly, with no FqPoly per step.  Every Frobenius power h^(p^r) mod
m is the kernel _frobenius instead: r rounds of h -> sum_i h_i^p x^(p i)
on the rows x^(p i) mod m of _frobenius_rows, each the last shifted by p
places and reduced unless p is large (J. von zur Gathen and V. Shoup,
Comput. Complexity 2 (1992)), read in the log form of _log_rows, which
each caller builds once per set of rows.  It serves distinct_degree (the
Frobenius walk of factoring, also the irreducibility test: it stops at the
first factor it finds), the equal-degree splitting _edf and power_norm.
No FqPoly is built over a tower, whose digit polynomials are multiplied
over its base, so a product over a tower with s > 1 fails in _build_tables.

factor, the one factorization over F_q, runs squarefree_decomposition,
distinct_degree and _edf, seeded by the polynomial so that it is
deterministic; funcfield reads the orders of rational functions off it.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache, reduce
from itertools import product, zip_longest

from .errors import BadInput, InvariantFailed
from .ntheory import factorint

#: Largest q whose exp/log/Zech tables are built, and the largest extension
#: field GF builds; an operation that needs tables above it raises BadInput.
MAX_Q = 2 ** 16


class FiniteField:
    """base[x]/(modulus).  Over the prime p (base the int p) one shared
    instance per (p, modulus), BadInput unless the modulus is monic and
    irreducible over F_p; over a FiniteField base a new tower each time."""

    _instances = {}

    def __new__(cls, base, modulus):
        if isinstance(base, FiniteField):
            field = super().__new__(cls)
            field._setup(base.p, base, tuple(modulus))
            return field
        p = base
        modulus = tuple(c % p for c in modulus)
        field = cls._instances.get((p, modulus))
        if field is None:
            if len(modulus) < 2 or modulus[-1] != 1 or (
                    len(modulus) > 2
                    and not is_irreducible(FqPoly(GF(p), modulus))):
                raise BadInput(f"{list(modulus)} is not a monic irreducible "
                               f"polynomial over F_{p}")
            field = super().__new__(cls)
            field._setup(p, None, modulus)
            cls._instances[p, modulus] = field
        return field

    def _setup(self, p, base, modulus):
        self.p, self.base, self.modulus = p, base, modulus
        self.deg = len(modulus) - 1  # the degree over the base
        self.radix = p if base is None else base.q  # the size of the base
        self.q = self.radix ** self.deg
        self.s = self.deg * (1 if base is None else base.s)
        self.zero, self.one = 0, 1
        self._gen = None
        self._tables = None  # (exp, log, zech) once built
        if base is not None and self.deg == 1:  # the base on the same ints
            self.add, self.neg, self.sub = base.add, base.neg, base.sub
            self.mul, self.inv, self.pow = base.mul, base.inv, base.pow
            self.norm = self.trace = self.power_norm = operator.pos  # identity

    def __repr__(self):
        if self.base is None:
            return f"GF({self.q})"
        return f"{self.base!r}[x]/{list(self.modulus)}"

    # -- digits -----------------------------------------------------------

    def digits(self, a):
        """The deg base digits of a, constant coefficient first."""
        out = []
        for _ in range(self.deg):
            a, r = divmod(a, self.radix)
            out.append(r)
        return out

    def pack(self, digits):
        """The element with the given coefficients (each read mod p when
        the base is F_p)."""
        acc = 0
        for c in reversed(digits):
            acc = acc * self.radix + c % self.radix
        return acc

    def elements(self):
        """Every element, in itertools.product order of the digit tuples
        (the constant coefficient varies slowest)."""
        for digits in product(range(self.radix), repeat=self.deg):
            yield self.pack(digits)

    # -- tower arithmetic over the base ------------------------------------

    def _times(self, a, b):
        """The product of the digit polynomials mod the modulus, by the
        FqPoly kernels over the base."""
        base = self.base or GF(self.p)
        prod = _mul(base, self.digits(a), self.digits(b))
        return self.pack(_divmod(base, prod, self.modulus)[1])

    def _power(self, a, n):
        """a^n for n >= 0 by the _pow_mod kernel on a's digit polynomial."""
        base = self.base or GF(self.p)
        return self.pack(_pow_mod(base, self.digits(a), n, self.modulus))

    def _euclid_inv(self, a):
        """1/a for a tower, by the extended Euclidean algorithm against the
        modulus on coefficient lists over the base."""
        base = self.base
        r0, r1 = list(self.modulus), _trim(self.digits(a))
        s0, s1 = [], [1]
        while r1:
            quo, rem = _divmod(base, r0, r1)
            prod = _mul(base, quo, s1)
            r0, r1, s0, s1 = r1, _trim(rem), s1, [
                base.sub(x, y) for x, y in zip_longest(s0, prod, fillvalue=0)]
        return self.pack(_mul(base, s0, [base.inv(r0[0])]))

    def _each(self, op, *elems):
        """op of the base applied digit by digit."""
        return self.pack(list(map(op, *map(self.digits, elems))))

    def generator(self):
        """The fixed generator of F_q^x: the first element of order q - 1 in
        elements() order."""
        if self._gen is None:
            order = self.q - 1
            facs = list(factorint(order))
            self._gen = next(
                a for a in self.elements()
                if a and all(self._power(a, order // f) != 1 for f in facs))
        return self._gen

    def _build_tables(self):
        q, p = self.q, self.p
        if self.base is not None:
            raise BadInput(f"{self!r} is an extension of {self.base!r} and "
                           f"builds no log tables")
        if q > MAX_Q:
            raise BadInput(f"F_{q} is too large for its log tables "
                           f"(q > MAX_Q = {MAX_Q})")
        g, n = self.generator(), q - 1
        exp, log = [1] * (2 * n), [0] * q
        x = 1
        for i in range(n):
            exp[i] = exp[i + n] = x
            log[x] = i
            x = self._times(x, g)
        # 1 + g^i raises the constant digit by one; zech is -1 where it is 0
        zech = [-1] * n
        for i in range(n):
            y = exp[i]
            y += 1 if (y + 1) % p else 1 - p
            if y:
                zech[i] = log[y]
        self._tables = (exp, log, zech)
        return self._tables

    # -- arithmetic -------------------------------------------------------

    def add(self, a, b):
        if self.s == 1:
            return (a + b) % self.p
        if self.base is not None:
            return self._each(self.base.add, a, b)
        if not a:
            return b
        if not b:
            return a
        exp, log, zech = self._tables or self._build_tables()
        la = log[a]
        z = zech[log[b] - la]  # a negative index wraps mod q - 1
        return 0 if z < 0 else exp[la + z]

    def neg(self, a):
        if self.s == 1:
            return -a % self.p
        if not a or self.p == 2:
            return a
        if self.base is not None:
            return self._each(self.base.neg, a)
        exp, log, _ = self._tables or self._build_tables()
        return exp[log[a] + self.q // 2]  # -1 = g^((q-1)/2)

    def sub(self, a, b):
        if self.s == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.s == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        if self.base is not None:
            return self._times(a, b)
        exp, log, _ = self._tables or self._build_tables()
        return exp[log[a] + log[b]]

    def scale(self, a, c):
        """a times the integer c (an element of F_p)."""
        return self.mul(a, c % self.p)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in F_q")
        if self.s == 1:
            return pow(a, -1, self.p)
        if self.base is not None:
            return self._euclid_inv(a)
        exp, log, _ = self._tables or self._build_tables()
        return exp[self.q - 1 - log[a]]

    def pow(self, a, n):
        if not a:
            if n <= 0:
                raise ZeroDivisionError("0^n for n <= 0")
            return 0
        if self.s == 1:
            return pow(a, n % (self.p - 1), self.p)
        if self.base is not None:
            return self._power(self.inv(a) if n < 0 else a, abs(n))
        exp, log, _ = self._tables or self._build_tables()
        return exp[log[a] * n % (self.q - 1)]

    def dlog(self, a):
        """The discrete logarithm to the base generator(), in [0, q - 1)."""
        if not a:
            raise ZeroDivisionError("dlog of zero")
        return (self._tables or self._build_tables())[1][a]

    # -- norm and trace to the base ---------------------------------------

    def norm(self, a):
        """The norm to the base, prod_f g over the roots of the modulus f of
        a's digit polynomial g, by the resultant recurrence prod_f g =
        lead(g)^deg f (-1)^(deg f deg g) prod_g' (f mod g'), g' = g/lead(g)."""
        base = self.base or GF(self.p)
        f, g = FqPoly(base, self.modulus), FqPoly(base, self.digits(a))
        acc = 1
        while True:
            acc = base.mul(acc, base.pow(g.lead(), f.degree()))
            if g.degree() < 1:
                return acc
            if f.degree() * g.degree() % 2:
                acc = base.neg(acc)
            f, g = g.monic(), f % g

    def power_norm(self, a):
        """The same norm as the (q - 1)/(Q - 1)-th power map, as the product
        of the conjugates a^(Q^i), i < deg, each the Q-th power of the last
        by the _frobenius kernel."""
        base, m = self.base or GF(self.p), self.modulus
        lrows = _log_rows(base, _frobenius_rows(base, m))
        conj = acc = self.digits(a)
        for _ in range(self.deg - 1):
            conj = _frobenius(base, conj, lrows, base.s)
            acc = _divmod(base, _mul(base, acc, conj), m)[1]
        a = self.pack(acc)
        if a >= self.radix:
            raise InvariantFailed(f"a norm of {self!r} did not land in the "
                                  f"base field")
        return a

    def trace(self, a):
        """The trace to the base, sum_j a_j p_j over a's digits a_j, with p_j
        the power sums of the roots of the modulus x^n + ... + c_0: by
        Newton, p_k = -(k c_(n-k) + sum_(0<i<k) c_(n-i) p_(k-i))."""
        base = self.base or GF(self.p)
        n, c = self.deg, self.modulus
        sums = [n % self.p]
        for k in range(1, n):
            acc = base.scale(c[n - k], k)
            for i in range(1, k):
                acc = base.add(acc, base.mul(c[n - i], sums[k - i]))
            sums.append(base.neg(acc))
        return reduce(base.add, map(base.mul, self.digits(a), sums), 0)


@lru_cache(maxsize=None)
def GF(q):
    """The field with q elements on its default modulus; BadInput for a
    prime power above MAX_Q, whose operations would all need tables."""
    fac = factorint(q) if q > 1 else {}
    if len(fac) != 1:
        raise BadInput(f"q = {q} is not a prime power")
    (p, s), = fac.items()
    if s > 1 and q > MAX_Q:
        raise BadInput(f"F_{q} is too large for its log tables "
                       f"(q > MAX_Q = {MAX_Q})")
    return FiniteField(p, default_modulus(p, s))


@lru_cache(maxsize=None)
def default_modulus(p, s):
    """The first monic irreducible of degree s over F_p in lexicographic
    coefficient order (constant coefficient first)."""
    if s == 1:
        return (0, 1)
    fp = GF(p)
    return next(tail + (1,) for tail in product(range(p), repeat=s)
                if is_irreducible(FqPoly(fp, list(tail) + [1])))


class DigitSpan:
    """Echelonized F_l-span of elements of `field`, l its characteristic,
    each read as its F_l^d digit vector (a prime field's element is its own
    vector).  Rows carry witness data, and reductions report the
    combination used."""

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.rows = []  # (vec, pivot digit index, its inverse, witness)

    def reduce(self, vec):
        """(residual, combo) with combo = [(witness, scale), ...] such that
        vec = residual + sum scale * row_vec."""
        k = self.field
        combo = []
        for row_vec, piv, inv, wit in self.rows:
            c = k.digits(vec)[piv]
            if c:
                scale = c * inv % self.p
                vec = k.sub(vec, k.scale(row_vec, scale))
                combo.append((wit, scale))
        return vec, combo

    def insert(self, vec, witness):
        """Insert a row whose vector is already reduced against this span."""
        if not vec:
            raise BadInput("cannot insert a zero row")
        piv, lead = next((i, c) for i, c in enumerate(self.field.digits(vec))
                         if c)
        self.rows.append((vec, piv, pow(lead, -1, self.p), witness))


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
        return FqPoly(gf, _mul(gf, self.c, other.c))

    __rmul__ = __mul__

    def monic(self):
        if self.is_zero():
            return self
        return self * self.gf.inv(self.lead())

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.gf, list(self.c), other.c)
        return FqPoly(self.gf, q), FqPoly(self.gf, r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other):
        """The monic gcd, by Euclid on the coefficient lists."""
        gf, a, b = self.gf, self.c, other.c
        while b:
            a, b = b, _trim(_divmod(gf, list(a), b)[1])
        return FqPoly(gf, a).monic()

    def pow_mod(self, n, mod):
        """self^n mod mod for n >= 0, by the _pow_mod kernel."""
        return FqPoly(self.gf, _pow_mod(self.gf, self.c, n, mod.c))

    def derivative(self):
        gf = self.gf
        out = []
        for i in range(1, len(self.c)):
            out.append(gf.mul(self.c[i], i % gf.p))
        return FqPoly(gf, out)

    def pth_root(self):
        """Inverse of Frobenius on coefficients, for f = g(x^p)."""
        gf = self.gf
        out = []
        for i in range(0, len(self.c), gf.p):
            out.append(gf.pow(self.c[i], gf.q // gf.p))
        return FqPoly(gf, out)


def _mul(gf, a, b):
    """The product of the coefficient lists a and b over gf."""
    out = [0] * (len(a) + len(b) - 1)
    if gf.s == 1:  # plain ints, reduced once
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        out = [v % gf.p for v in out]
    else:  # on the logarithms of the table field
        exp, log, zech = gf._tables or gf._build_tables()
        m = gf.q - 1
        lb = [(j, log[y]) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                lx = log[x]
                for j, ly in lb:  # out[i + j] += g^(lx + ly)
                    o = out[i + j]
                    if o:
                        lo = log[o]
                        z = zech[(lx + ly - lo) % m]
                        out[i + j] = exp[lo + z] if z >= 0 else 0
                    else:
                        out[i + j] = exp[lx + ly]
    return out


def _divmod(gf, a, b):
    """(quotient, remainder) of the lists a (overwritten) and b over gf."""
    n = len(b) - 1  # the degree of b
    q = [0] * max(0, len(a) - n)
    tops = range(len(q) - 1, -1, -1)  # a's degree minus n, down to 0
    if gf.s == 1:  # plain ints, reduced once
        p, inv_lead = gf.p, pow(b[-1], -1, gf.p)
        for k in tops:
            f = q[k] = a[k + n] * inv_lead % p
            if f:
                for i, y in enumerate(b, k):
                    a[i] -= f * y
        a = [x % p for x in a[:n]]
    else:  # on the logarithms of the table field
        exp, log, zech = gf._tables or gf._build_tables()
        m = gf.q - 1
        minus = 0 if gf.p == 2 else m // 2  # -1 = g^minus
        inv_lead = m - log[b[-1]]
        neg_b = [(i, log[y] + minus) for i, y in enumerate(b[:n]) if y]
        for k in tops:
            if a[k + n]:
                f = (log[a[k + n]] + inv_lead) % m
                q[k] = exp[f]
                for i, lb in neg_b:  # a[k + i] += g^f g^lb, g^lb = -b_i
                    x = a[k + i]
                    if x:
                        lx = log[x]
                        z = zech[(f + lb - lx) % m]
                        a[k + i] = exp[lx + z] if z >= 0 else 0
                    else:
                        a[k + i] = exp[(f + lb) % m]
    return q, a[:n]


def _pow_mod(gf, a, n, m):
    """a^n mod m for the coefficient lists a and m over gf and n >= 0, by
    left-to-right square-and-multiply: floor(log2 n) squarings, one product
    per further set bit of n, and no squaring after the last bit."""
    if not n:
        return [1]
    a = _divmod(gf, list(a), m)[1]
    r = a
    for bit in bin(n)[3:]:  # the bits below the leading one
        r = _divmod(gf, _mul(gf, r, r), m)[1]
        if bit == "1":
            r = _divmod(gf, _mul(gf, r, a), m)[1]
    return r


def _frobenius_rows(gf, m):
    """The rows R_i = x^(p i) mod m, i < deg m, of the p-th power map on
    gf[x]/(m), each x^p times the last mod m: a shift by p places and a
    reduction, p deg m steps, unless p > 32, where a product with x^p mod
    m (by _pow_mod) costs less."""
    n, p = len(m) - 1, gf.p
    step = _pow_mod(gf, [0, 1], p, m) if p > 32 and n > 1 else None
    rows = [[1]]
    while len(rows) < n:
        top = [0] * p + rows[-1] if step is None else _mul(gf, step, rows[-1])
        rows.append(_divmod(gf, top, m)[1])
    return rows


def _log_rows(gf, rows):
    """The rows in the form _frobenius reads: unchanged over F_p, the
    (index, log) pairs of each row's nonzero entries over a table field.
    Built once per set of rows and passed to every _frobenius call on
    them."""
    if gf.s == 1:
        return rows
    log = (gf._tables or gf._build_tables())[1]
    return [[(j, log[y]) for j, y in enumerate(row) if y] for row in rows]


def _frobenius(gf, h, lrows, r):
    """h^(p^r) mod m for the list h reduced mod m and lrows =
    _log_rows(gf, _frobenius_rows(gf, m)): r rounds of h <- sum_i phi(h_i)
    R_i, since (sum_i h_i x^i)^p = sum_i h_i^p x^(p i) in characteristic p.
    phi(c) = c^p is the identity on F_p and exp[p log c] on a table field;
    a q-th power is s rounds (von zur Gathen and Shoup, "Computing
    Frobenius maps and factoring polynomials")."""
    n = len(lrows)
    if gf.s == 1:  # plain ints, reduced once per round
        for _ in range(r):
            out = [0] * n
            for c, row in zip(h, lrows):
                if c:
                    for j, y in enumerate(row):
                        out[j] += c * y
            h = [v % gf.p for v in out]
        return h
    exp, log, zech = gf._tables or gf._build_tables()
    m = gf.q - 1
    for _ in range(r):
        out = [0] * n
        for c, lrow in zip(h, lrows):
            if c:
                lc = log[c] * gf.p % m  # phi(c) = g^lc
                for j, ly in lrow:  # out[j] += g^(lc + ly)
                    o = out[j]
                    if o:
                        lo = log[o]
                        z = zech[(lc + ly - lo) % m]
                        out[j] = exp[lo + z] if z >= 0 else 0
                    else:
                        out[j] = exp[lc + ly]
        h = out
    return h


def distinct_degree(f):
    """The distinct-degree split of the squarefree f, lazily and by
    increasing d: pairs (g, d) with g the product of f's irreducible
    factors of degree d (Cantor and Zassenhaus, Math. Comp. 36 (1981)).
    Step d raises h = x^(q^(d-1)) to the q-th power mod what is left of f,
    v, by the _frobenius kernel on the rows of v, and splits off the gcd of
    v with h - x.  When a piece g splits off, the rows are reduced mod
    v/g, since x^(p i) mod v/g = (x^(p i) mod v) mod v/g, and their log
    form is rebuilt at the next step, if there is one.  What is left once
    it cannot hold two factors of degree above d is one piece of its own
    degree."""
    gf, x = f.gf, FqPoly.x(f.gf)
    h, v, d = x, f, 0
    rows, lrows = _frobenius_rows(gf, f.c), None
    while v.degree() > 2 * (d + 1) - 1:
        d += 1
        if lrows is None:
            lrows = _log_rows(gf, rows)
        h = FqPoly(gf, _frobenius(gf, h.c, lrows, gf.s))
        g = (h - x).gcd(v)
        if g.degree() > 0:
            yield g, d
            v = v // g
            h = h % v
            rows = [_divmod(gf, row, v.c)[1] for row in rows[:v.degree()]]
            lrows = None
    if v.degree() > 0:
        yield v, v.degree()


def is_irreducible(f):
    """Whether f (degree d >= 1) is irreducible over its F_q: the first
    piece of its distinct-degree split has degree d, which also holds for
    an f with a repeated factor, since that factor has degree <= d/2."""
    d = f.degree()
    if d < 1 or (d > 1 and not f.c[0]):  # x | f: 1/p of default_modulus tries
        return False
    return next(distinct_degree(f))[1] == d


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


def _edf(f, d, rng):
    """Equal-degree splitting (Cantor-Zassenhaus; trace map in char 2).
    Every Frobenius power is a round of _frobenius on the rows
    of f: for odd q, r^((q^d - 1)/2) = prod_(i<d) w^(q^i) with w =
    r^((q - 1)/2); for even q, each squaring in the trace is one round."""
    gf = f.gf
    if f.degree() == d:
        return [f.monic()]
    lrows = (_log_rows(gf, _frobenius_rows(gf, f.c)) if gf.p == 2 or d > 1
             else None)
    while True:
        r = FqPoly(gf, [rng.randrange(gf.q) for _ in range(f.degree())])
        if r.degree() < 1:
            continue
        if gf.p == 2:
            t = w = r
            for _ in range(d * gf.s - 1):
                w = FqPoly(gf, _frobenius(gf, w.c, lrows, 1))
                t = t + w
            g = t.gcd(f)
        else:
            g = r.gcd(f)
            if 0 < g.degree() < f.degree():
                return _edf(g, d, rng) + _edf(f // g, d, rng)
            w = conj = r.pow_mod((gf.q - 1) // 2, f)
            for _ in range(d - 1):
                conj = FqPoly(gf, _frobenius(gf, conj.c, lrows, gf.s))
                w = w * conj % f
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
        for h, d in distinct_degree(g):
            for irr in _edf(h, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree(), t[0].c))
    return out
