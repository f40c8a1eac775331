"""Truncated exact arithmetic in Z_p and its unramified extensions.

Everything is carried modulo p**N for a context-wide precision N.  The
unramified ring O0 of residue degree d is realised as Z[x]/(g, p**N) for a
monic degree-d lift g of an irreducible polynomial gbar over F_p; elements
are coefficient vectors in canonical form (each entry in [0, p**N)).

The residue field kappa = F_p[x]/(gbar) is a finitefield.FiniteField, so
residues are ints in [0, q) whose base-p digit j is the coefficient of x^j.
Default moduli gbar are chosen deterministically (first irreducible in
lexicographic coefficient order), so residue fields are reproducible across
runs and shared with the function-field presets.
"""

from __future__ import annotations

import math

import sympy

from .errors import (
    PRECISION_EXHAUSTED,
    HenselHypothesisFailed,
    NotAUnit,
    PrecisionLoss,
    ZeroInput,
)
from .finitefield import FiniteField, default_modulus
# perfbench/tracing.py wraps the F_q methods through this name
from .finitefield import FiniteField as ResidueField  # noqa: F401


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
        if len(gbar) != d + 1:
            raise ValueError("gbar must have degree d")
        self.kappa = FiniteField(p, gbar)  # BadInput unless monic irreducible
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
        return self.elem(self.kappa.digits(c))

    def teichmuller(self, c):
        """The unique (q-1)-st root of unity congruent to c mod p.

        Computed by iterating x -> x^q to its fixed point; every step gains
        at least one p-digit, so N steps certify the full precision.
        """
        if not c:
            raise ZeroInput("Teichmuller lift of zero")
        if c in self._teich_cache:
            return self._teich_cache[c]
        x = self.lift_residue(c)
        for _ in range(self.N):
            x = x ** self.q
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
        return self.ctx.kappa.pack(self.coeffs)

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
    """Inverse of a unit of O0, by Newton lifting from x^(q-2), an inverse
    mod p (the residue field needs no tables, however large q is)."""
    v = val_p(x)
    if v is PRECISION_EXHAUSTED or v > 0:
        raise NotAUnit("val_p(x) must be 0")
    ctx = x.ctx
    y = x ** (ctx.q - 2)
    two = ctx.from_int(2)
    k = 1
    while k < ctx.N:
        y = y * (two - x * y)
        k *= 2
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
