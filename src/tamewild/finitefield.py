"""Finite fields F_q, q = p^s, their extensions, and dense polynomials.

This is the one F_q of the package: the residue fields of the local side
(localfield.PadicCtx.kappa, a tower over F_p for the norm oracle's
unramified Kummer rings, whose q = p^p must build no tables), the constant
fields of F_q(t) and the residue fields kappa(v) = F_q[t]/pi_v of its
places (funcfield) are all FiniteField instances.  A FiniteField is
base[x]/(modulus) for a monic irreducible modulus, and an element is an int
in [0, q) whose base-Q digit j, Q the size of the base, is the coefficient
of x^j; so the base is the identity on the ints below Q.

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

Over a FiniteField base (a tower) the field serves one computation, such
as the symbols at one place, so it is not shared and builds no tables: it
multiplies by the schoolbook product over the base's operations, inverts
by the extended Euclidean algorithm, and takes its modulus as irreducible.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from itertools import product

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

    # -- the schoolbook product -------------------------------------------

    def _times(self, a, b):
        """The digit convolution reduced by the modulus, over the base's
        operations; F_p digits are plain ints, reduced once in pack."""
        n, g = self.deg, self.modulus
        if self.radix == self.p:
            add, sub, mul = operator.add, operator.sub, operator.mul
        else:
            add, sub, mul = self.base.add, self.base.sub, self.base.mul
        conv = [0] * (2 * n - 1)
        db = self.digits(b)
        for i, x in enumerate(self.digits(a)):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = add(conv[i + j], mul(x, y))
        for i in range(2 * n - 2, n - 1, -1):
            c = conv[i] % self.radix
            if c:
                for j in range(n):
                    conv[i - n + j] = sub(conv[i - n + j], mul(c, g[j]))
        return self.pack(conv[:n])

    def _power(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self._times(r, a)
            a = self._times(a, a)
            n >>= 1
        return r

    def _euclid_inv(self, a):
        """1/a for a tower, by the extended Euclidean algorithm against the
        modulus over the base."""
        base = self.base
        r0, r1 = FqPoly(base, self.modulus), FqPoly(base, self.digits(a))
        s0, s1 = FqPoly(base, []), FqPoly(base, [1])
        while not r1.is_zero():
            quo, rem = r0.divmod(r1)
            r0, r1, s0, s1 = r1, rem, s1, s0 - quo * s1
        return self.pack((s0 * base.inv(r0.c[0])).c)

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

    def _conjugates(self, a):
        """a and its deg - 1 further images under the Frobenius x -> x^Q of
        the base of Q elements."""
        out = [a]
        for _ in range(self.deg - 1):
            out.append(self.pow(out[-1], self.radix))
        return out

    def _in_base(self, a):
        if a >= self.radix:
            raise InvariantFailed(f"a norm or trace of {self!r} did not land "
                                  f"in the base field")
        return a

    def norm(self, a):
        """The norm to the base, as the product of the Frobenius conjugates."""
        return self._in_base(reduce(self.mul, self._conjugates(a), 1))

    def power_norm(self, a):
        """The same norm as the (q - 1)/(Q - 1)-th power map."""
        return self._in_base(self.pow(a, (self.q - 1) // (self.radix - 1)))

    def trace(self, a):
        """The trace to the base, as the sum of the Frobenius conjugates."""
        return self._in_base(reduce(self.add, self._conjugates(a), 0))


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

    def pth_root(self):
        """Inverse of Frobenius on coefficients, for f = g(x^p)."""
        gf = self.gf
        out = []
        for i in range(0, len(self.c), gf.p):
            out.append(gf.pow(self.c[i], gf.q // gf.p))
        return FqPoly(gf, out)


def is_irreducible(f):
    """Whether f (degree d >= 1) is irreducible over its F_q: x^(q^i) - x is
    prime to f for every i < d, and x^(q^d) = x mod f."""
    d = f.degree()
    if d < 1 or (d > 1 and not f.c[0]):  # x | f: 1/p of default_modulus tries
        return False
    x = FqPoly.x(f.gf)
    h = x
    for i in range(1, d + 1):
        h = h.pow_mod(f.gf.q, f)
        if i < d and (h - x).gcd(f).degree() > 0:
            return False
    return ((h - x) % f).is_zero()
