"""Truncated exact arithmetic in Z_p and its unramified extensions.

Everything is carried modulo p**N for a context-wide precision N.  The
unramified ring O0 of residue degree d is realised as Z[x]/(g, p**N) for a
monic degree-d lift g of an irreducible polynomial gbar over F_p; elements
are coefficient vectors in canonical form (each entry in [0, p**N)).

Default moduli gbar are chosen deterministically (first irreducible in
lexicographic coefficient order), so residue fields are reproducible across
runs and shared with the function-field presets.
"""

from __future__ import annotations

import math
from functools import lru_cache

import sympy

from .errors import (
    PRECISION_EXHAUSTED,
    HenselHypothesisFailed,
    NotAUnit,
    PrecisionLoss,
    ZeroInput,
)


# ---------------------------------------------------------------------------
# residue-field helpers: F_q = F_p[x]/(gbar), elements are int tuples mod p
# ---------------------------------------------------------------------------

def _poly_mod_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod_divmod(a, b, p):
    # both lists of ints mod p, b nonzero
    a = _poly_mod_trim([x % p for x in a])
    b = _poly_mod_trim([x % p for x in b])
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        factor = a[-1] * inv_lead % p
        q[shift] = factor
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bc) % p
        a = _poly_mod_trim(a)
    return q, a


def _poly_mod_gcd(a, b, p):
    a, b = _poly_mod_trim(a), _poly_mod_trim(b)
    while b:
        _, r = _poly_mod_divmod(a, b, p)
        a, b = b, r
    return a


class ResidueField:
    """F_q as tuples of d integers mod p (coefficients w.r.t. gbar's root)."""

    def __init__(self, p, d, gbar):
        self.p = p
        self.d = d
        self.gbar = tuple(c % p for c in gbar)  # length d+1, monic
        self.q = p ** d
        self.zero = (0,) * d
        self.one = tuple([1] + [0] * (d - 1)) if d else ()
        self._dlog = None
        self._gen = None

    def from_int(self, n):
        return tuple([n % self.p] + [0] * (self.d - 1))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def scale(self, a, c):
        return tuple(x * c % self.p for x in a)

    def mul(self, a, b):
        p, d = self.p, self.d
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        # reduce by monic gbar
        for i in range(2 * d - 2, d - 1, -1):
            c = conv[i] % p
            if c:
                for j in range(d):
                    conv[i - d + j] -= c * self.gbar[j]
            conv[i] = 0
        return tuple(c % p for c in conv[:d])

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r, b = self.one, a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("zero in residue field")
        # extended gcd of a (as poly) against gbar
        p = self.p
        r0, r1 = list(self.gbar), _poly_mod_trim(a)
        s0, s1 = [], [1]
        while r1:
            q, r = _poly_mod_divmod(r0, r1, p)
            r0, r1 = r1, r
            # s_next = s0 - q*s1
            sn = list(s0) + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        sn[i + j] = (sn[i + j] - qc * sc) % p
            s0, s1 = s1, _poly_mod_trim(sn)
        # r0 is the gcd, a nonzero constant
        c = pow(r0[0], -1, p)
        out = [x * c % p for x in s0]
        out += [0] * (self.d - len(out))
        return tuple(out[: self.d])

    def elements(self):
        from itertools import product
        for digits in product(range(self.p), repeat=self.d):
            yield tuple(digits)

    def generator(self):
        """Deterministic generator of F_q^x: first element of order q-1."""
        if self._gen is not None:
            return self._gen
        order = self.q - 1
        prime_facs = list(sympy.factorint(order)) if order > 1 else []
        for a in self.elements():
            if a == self.zero:
                continue
            if all(self.pow(a, order // f) != self.one for f in prime_facs):
                self._gen = a
                return a
        raise RuntimeError("no generator found")  # pragma: no cover

    def dlog(self, a):
        """Discrete log w.r.t. the fixed generator (table-based, q is small)."""
        if a == self.zero:
            raise ZeroDivisionError("dlog of zero")
        if self._dlog is None:
            g = self.generator()
            table, x = {}, self.one
            for j in range(self.q - 1):
                table[x] = j
                x = self.mul(x, g)
            self._dlog = table
        return self._dlog[a]


@lru_cache(maxsize=None)
def default_modulus(p, d):
    """First monic irreducible of degree d over F_p in lex coefficient order."""
    if d == 1:
        return (0, 1)
    from itertools import product
    for tail in product(range(p), repeat=d):
        gbar = tuple(tail) + (1,)
        if _is_irreducible_mod_p(gbar, p, d):
            return gbar
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def _is_irreducible_mod_p(gbar, p, d):
    # gcd with x^{p^i} - x for i < d, then x^{p^d} = x
    if d == 1:
        return True
    if gbar[0] == 0:
        return False
    xq = [0, 1]
    for i in range(1, d + 1):
        # xq <- xq^p mod gbar
        xq = _poly_pow_mod(xq, p, gbar, p)
        if i < d:
            g = _poly_mod_gcd(_poly_sub_x(xq, p), gbar, p)
            if len(_poly_mod_trim(g)) > 1:
                return False
    return _poly_mod_trim(_poly_sub_x(xq, p)) == []


def _poly_sub_x(a, p):
    b = list(a) + [0] * max(0, 2 - len(a))
    b[1] = (b[1] - 1) % p
    return b


def _poly_pow_mod(a, n, mod, p):
    r, b = [1], list(a)
    while n:
        if n & 1:
            r = _poly_mod_divmod(_poly_mul(r, b, p), mod, p)[1]
        b = _poly_mod_divmod(_poly_mul(b, b, p), mod, p)[1]
        n >>= 1
    return r


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


# ---------------------------------------------------------------------------
# the context and its elements
# ---------------------------------------------------------------------------

class PadicCtx:
    """Truncated model of O0, the unramified extension of Z_p of degree d.

    p must be prime, N >= 8 is the number of carried p-digits, gbar the
    residue modulus (defaulted deterministically) and g its monic lift.
    """

    def __init__(self, p, N=64, d=1, gbar=None, g=None):
        if not sympy.isprime(p):
            raise ValueError(f"p = {p} is not prime")
        if N < 8:
            raise ValueError("precision N must be at least 8")
        if d < 1:
            raise ValueError("residue degree d must be >= 1")
        self.p, self.N, self.d = p, N, d
        self.mod = p ** N
        if gbar is None:
            gbar = default_modulus(p, d)
        gbar = tuple(c % p for c in gbar)
        if len(gbar) != d + 1 or gbar[d] != 1:
            raise ValueError("gbar must be monic of degree d")
        if not _is_irreducible_mod_p(gbar, p, d):
            raise ValueError("gbar is not irreducible over F_p")
        self.kappa = ResidueField(p, d, gbar)
        self.q = p ** d
        if g is None:
            g = gbar
        self.g = tuple(int(c) for c in g)
        if len(self.g) != d + 1 or self.g[d] != 1:
            raise ValueError("g must be a monic degree-d lift of gbar")
        if any((gc - gb) % p for gc, gb in zip(self.g, gbar)):
            raise ValueError("g does not reduce to gbar mod p")
        self._teich_cache = {}

    def __repr__(self):
        return f"PadicCtx(p={self.p}, N={self.N}, d={self.d})"

    # -- constructors -------------------------------------------------------

    def elem(self, coeffs):
        coeffs = tuple(int(c) % self.mod for c in coeffs)
        if len(coeffs) != self.d:
            raise ValueError("coefficient vector has wrong length")
        return O0Elem(self, coeffs)

    def from_int(self, n):
        return self.elem([n] + [0] * (self.d - 1))

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def lift_residue(self, c):
        """Plain digit lift of a residue-field element."""
        return self.elem(c)

    def teichmuller(self, c):
        """The unique (q-1)-st root of unity congruent to c mod p.

        Computed by iterating x -> x^q to its fixed point; every step gains
        at least one p-digit, so N steps certify the full precision.
        """
        if c == self.kappa.zero:
            raise ZeroInput("Teichmuller lift of zero")
        c = tuple(x % self.p for x in c)
        if c in self._teich_cache:
            return self._teich_cache[c]
        x = self.lift_residue(c)
        for _ in range(self.N):
            x = x ** self.q
        assert x ** (self.q - 1) == self.one
        self._teich_cache[c] = x
        return x


class O0Elem:
    """An element of O0 in canonical form (all coefficients in [0, p^N))."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs

    def __repr__(self):
        return f"O0({list(self.coeffs)} mod {self.ctx.p}^{self.ctx.N})"

    def __eq__(self, other):
        return (isinstance(other, O0Elem) and self.ctx is other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.ctx.mod
        return O0Elem(self.ctx, tuple((a + b) % m for a, b in
                                      zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.ctx.mod
        return O0Elem(self.ctx, tuple((a - b) % m for a, b in
                                      zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        m = self.ctx.mod
        return O0Elem(self.ctx, tuple(-a % m for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            m = self.ctx.mod
            return O0Elem(self.ctx, tuple(a * other % m for a in self.coeffs))
        if not isinstance(other, O0Elem):
            return NotImplemented
        other = self._coerce(other)
        ctx = self.ctx
        d, m, g = ctx.d, ctx.mod, ctx.g
        conv = [0] * (2 * d - 1) if d > 1 else [0]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    conv[i + j] += a * b
        for i in range(2 * d - 2, d - 1, -1):
            c = conv[i] % m
            if c:
                for j in range(d):
                    conv[i - d + j] -= c * g[j]
            conv[i] = 0
        return O0Elem(ctx, tuple(c % m for c in conv[:d]))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return invert(self) ** (-n)
        r, b = self.ctx.one, self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def _coerce(self, other):
        if isinstance(other, O0Elem):
            if other.ctx is not self.ctx:
                raise ValueError("mixed contexts")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return NotImplemented

    def residue(self):
        return tuple(c % self.ctx.p for c in self.coeffs)

    def div_exact_p(self, k=1):
        """Exact division by p^k; every coefficient must be divisible."""
        pk = self.ctx.p ** k
        if any(c % pk for c in self.coeffs):
            raise ValueError("element not divisible by p^k")
        return O0Elem(self.ctx, tuple(c // pk for c in self.coeffs))

    def to_json(self):
        return [str(c) for c in self.coeffs]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def val_p(x):
    """min over coefficients of their p-adic valuations.

    Returns PRECISION_EXHAUSTED when x is indistinguishable from 0 at
    precision (every coefficient vanishes mod p^N).
    """
    return val_p_coeffs(x.coeffs, x.ctx.p)


def val_p_coeffs(coeffs, p):
    """val_p of a coefficient vector given as plain ints (see val_p)."""
    best = None
    for c in coeffs:
        if c == 0:
            continue
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        if best is None or v < best:
            best = v
            if best == 0:
                return 0
    return PRECISION_EXHAUSTED if best is None else best


def invert(x):
    """Inverse of a unit of O0, by residue-field xgcd plus Newton lifting."""
    v = val_p(x)
    if v is PRECISION_EXHAUSTED or v > 0:
        raise NotAUnit("val_p(x) must be 0")
    ctx = x.ctx
    y = ctx.lift_residue(ctx.kappa.inv(x.residue()))
    two = ctx.from_int(2)
    k = 1
    while k < ctx.N:
        y = y * (two - x * y)
        k *= 2
    assert (x * y) == ctx.one
    return y


def teichmuller(ctx, c):
    """Teichmuller lift of a nonzero residue-field element (see PadicCtx)."""
    return ctx.teichmuller(c)


def poly_eval(poly, x):
    """Evaluate a polynomial (list of O0Elem, low degree first) at x."""
    acc = x.ctx.zero
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def poly_derivative(poly):
    return [c * i for i, c in enumerate(poly)][1:] or [poly[0].ctx.zero]


def hensel_root(poly, approx):
    """Newton refinement of an approximate root.

    Requires the classical certificate val(poly(a)) > 2*val(poly'(a)) at
    working precision; raises HenselHypothesisFailed otherwise.  Each step
    divides exactly by p^val(poly'(a)), which costs that many certified
    digits; the root is returned once poly(root) vanishes at the remaining
    certified precision.
    """
    ctx = approx.ctx
    dpoly = poly_derivative(poly)
    fx = poly_eval(poly, approx)
    fpx = poly_eval(dpoly, approx)
    va = ctx.N if fx.is_zero() else val_p(fx)
    vd = val_p(fpx)
    if vd is PRECISION_EXHAUSTED or not va > 2 * vd:
        raise HenselHypothesisFailed(
            f"val(f(a)) = {va} does not exceed 2*val(f'(a)) = "
            f"{2 * vd if vd is not PRECISION_EXHAUSTED else 'inf'}")
    a = approx
    decay = 0
    inv_unit = invert(fpx.div_exact_p(vd))
    for _ in range(ctx.N.bit_length() + 8):
        fx = poly_eval(poly, a)
        if fx.is_zero():
            return a
        if vd and val_p(fx) >= ctx.N - decay:
            return a  # vanishes at the certified precision
        delta = fx.div_exact_p(vd) * inv_unit
        decay += vd
        a = a - delta
        fpx = poly_eval(dpoly, a)
        inv_unit = invert(fpx.div_exact_p(vd))
    raise HenselHypothesisFailed("Newton iteration failed to converge")


def zp_binomial(ctx, alpha, l):
    """binom(alpha, l) mod p^N, via exact integer arithmetic.

    alpha may be any integer (a canonical representative of a p-adic
    integer, or a negative integer for convenience).  The result is certified
    mod p^(N - v_p(l!)); PrecisionLoss is raised when v_p(l!) >= N.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    vp_lfact = 0
    pk = ctx.p
    while pk <= l:
        vp_lfact += l // pk
        pk *= ctx.p
    if vp_lfact >= ctx.N:
        raise PrecisionLoss("v_p(l!) exceeds the working precision")
    if alpha >= 0:
        c = math.comb(alpha, l)
    else:
        c = (-1) ** l * math.comb(-alpha + l - 1, l)
    return c % ctx.mod
