"""Arithmetic in F = F0(pi) for an Eisenstein polynomial f over O0.

O0 is the unramified extension of Z_p of degree d (the Witt vectors of
F_q), realised as Z[x]/(g, p^N) for a monic degree-d lift g of an
irreducible gbar over F_p; PadicCtx holds its parameters.  The residue field
kappa = F_p[x]/(gbar) is a finitefield.FiniteField, so residues are ints in
[0, q) whose base-p digit j is the coefficient of x^j.

An element is one flat tuple of e*d integers in [0, p^N): the coefficient
of x^j pi^i sits at index i*d + j, where x is the root of the unramified
modulus g (so block i, indices i*d .. i*d+d-1, is the O0-coefficient of
pi^i).  All arithmetic is performed mod (g, f, p^N).  The pi-adic valuation
of the pi^i term is e*val_p(block i) + i, and these candidates are pairwise
distinct mod e, so the valuation of an element is their minimum and is
attained at a unique index.

Working pi-precision is M = e*N.  An element whose canonical form is the
zero vector is indistinguishable from 0 at that precision.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct

from .errors import (
    PRECISION_EXHAUSTED,
    BadInput,
    BelowThreshold,
    HenselHypothesisFailed,
    InvariantFailed,
    NotInIdeal,
    NotPrincipalUnit,
    PrecisionExhausted,
    UnsupportedField,
    ZeroInput,
)
from .finitefield import FiniteField, default_modulus
from .ntheory import isprime


class PadicCtx:
    """The parameters of O0, the unramified extension of Z_p of degree d,
    truncated mod p^N.  An element of O0 is an FElem whose blocks above
    block 0 are zero.

    p must be prime, N >= 8 is the number of carried p-digits, gbar the
    residue modulus (the first irreducible in lexicographic coefficient
    order by default, so residue fields are reproducible across runs and
    shared with the function-field presets) and g its monic lift.
    """

    def __init__(self, p, N=64, d=1, gbar=None, g=None):
        if not isprime(p):
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

    def __repr__(self):
        return f"PadicCtx(p={self.p}, N={self.N}, d={self.d})"


def val_p_coeffs(coeffs, p):
    """min over the ints coeffs of their p-adic valuations, or
    PRECISION_EXHAUSTED when every one vanishes mod p^N."""
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


class LocalFieldCtx:
    """F = F0(pi) with pi a root of the Eisenstein polynomial f.

    Derived data: ramification index e = deg f, q = p^d, e1 = e/(p-1) kept
    as an exact Fraction, pi-precision M = e*N, and the wild exponent k with
    #mu(F) = p^k (q-1) (computed lazily by compute_mu).  f is kept as a
    flat tuple of (e+1)*d ints in the element layout.
    """

    def __init__(self, base: PadicCtx, f, name=None):
        self.base = base
        self.p, self.N, self.d, self.q = base.p, base.N, base.d, base.q
        self.mod = base.mod
        e = len(f) - 1
        if e < 1:
            raise ValueError("f must have degree >= 1")
        f = tuple(x for c in f for x in self._block(c))
        d = self.d
        if f[e * d:] != self._block(1):
            raise ValueError("f must be monic")
        if any(c % self.p for c in f[:e * d]):
            raise ValueError("f is not Eisenstein: a lower coefficient "
                             "is a unit")
        if val_p_coeffs(f[:d], self.p) != 1:
            raise ValueError("f is not Eisenstein: constant term must have "
                             "valuation exactly 1")
        self.f = f
        self.e = e
        self.e1 = Fraction(e, self.p - 1)
        self.M = e * self.N
        self.name = name
        self._cache = {}
        self._build_fold()

    def __repr__(self):
        tag = self.name or f"e={self.e},d={self.d}"
        return f"LocalFieldCtx(p={self.p}, {tag}, N={self.N})"

    def _block(self, c):
        """The d ints of an O0 coefficient given as an int or a list of d
        ints."""
        if isinstance(c, int):
            return (c % self.mod,) + (0,) * (self.d - 1)
        if (not isinstance(c, (list, tuple)) or len(c) != self.d
                or not all(isinstance(x, int) for x in c)):
            raise BadInput(f"an O0 coefficient must be an int or a list of "
                           f"{self.d} ints, not {c!r}")
        return tuple(x % self.mod for x in c)

    def _build_fold(self):
        """Tables for FElem.__mul__: row k <= 2e-2 (width 2d-1) of the padded
        product holds the x-polynomial coefficient of pi^k, slot s of an
        element sits at _pad[s], and _fold pairs each position outside the
        basis with the normal form of its monomial mod (g, f, p^N)."""
        e, d, m, g, f = self.e, self.d, self.mod, self.base.g, self.f
        w = 2 * d - 1
        forms = {}
        for k in range(2 * e - 1):
            for j in range(w):
                if k < e and j < d:
                    forms[k, j] = [int(s == k * d + j) for s in range(e * d)]
                    continue
                if j >= d:
                    terms = [(g[t], (k, j - d + t)) for t in range(d)]
                else:
                    terms = [(f[i * d + t], (k - e + i, j + t))
                             for i in range(e) for t in range(d)]
                forms[k, j] = [-sum(c * forms[key][s] for c, key in terms) % m
                               for s in range(e * d)]
        self._pad = tuple(i * w + j for i in range(e) for j in range(d))
        self._conv_len = (2 * e - 1) * w
        self._fold = tuple(
            (k * w + j, tuple((self._pad[s], c)
                              for s, c in enumerate(forms[k, j]) if c))
            for (k, j) in forms if k >= e or j >= d)

    # -- constructors ---------------------------------------------------

    def elem(self, coeffs):
        """The element sum_i coeffs[i] pi^i, each coefficient an int or a
        list of d ints."""
        if len(coeffs) != self.e:
            raise ValueError("coefficient vector has wrong length")
        return FElem(self, tuple(x for c in coeffs for x in self._block(c)))

    def from_int(self, n):
        return self.elem([n] + [0] * (self.e - 1))

    def lift_residue(self, c):
        """The plain digit lift to O0 of a residue-field element."""
        return self.monomial(0, self.base.kappa.digits(c))

    def teichmuller(self, c):
        """The unique (q-1)-st root of unity congruent to c mod p.

        Computed by iterating x -> x^q to its fixed point; every step gains
        at least one p-digit, so N steps certify the full precision.
        """
        if not c:
            raise ZeroInput("Teichmuller lift of zero")
        key = ("teichmuller", c)
        if key not in self._cache:
            x = self.lift_residue(c)
            for _ in range(self.N):
                x = x ** self.q
            self._cache[key] = x
        return self._cache[key]

    @property
    def zero(self):
        if "zero" not in self._cache:
            self._cache["zero"] = self.from_int(0)
        return self._cache["zero"]

    @property
    def one(self):
        if "one" not in self._cache:
            self._cache["one"] = self.from_int(1)
        return self._cache["one"]

    @property
    def pi(self):
        if self.e == 1:
            # pi = -f[0] is the chosen uniformizer of an unramified field
            return FElem(self, tuple(-c % self.mod for c in self.f[:self.d]))
        return self.monomial(1)

    def monomial(self, i, c=1):
        """c * pi^i for 0 <= i < e."""
        coeffs = [0] * self.e
        coeffs[i] = c
        return self.elem(coeffs)

    # -- cached structural data ------------------------------------------

    @property
    def w_unit(self):
        """The unit pi^e / p (from the Eisenstein relation)."""
        if "w" not in self._cache:
            m, p = self.mod, self.p
            self._cache["w"] = FElem(self, tuple(
                -c % m // p for c in self.f[:self.e * self.d]))
        return self._cache["w"]

    @property
    def w_inv(self):
        if "w_inv" not in self._cache:
            self._cache["w_inv"] = self.w_unit.invert_unit()
        return self._cache["w_inv"]

    @property
    def p_over_pi(self):
        """p * pi^{-1} = pi^{e-1} * w^{-1}, used for division by pi."""
        if "p_over_pi" not in self._cache:
            if self.e == 1:
                self._cache["p_over_pi"] = self.w_inv
            else:
                self._cache["p_over_pi"] = self.monomial(self.e - 1) * self.w_inv
        return self._cache["p_over_pi"]

    @property
    def rho(self):
        """Residue of p * pi^{-e}; multiplication by rho is the graded
        p-power map on levels above e1."""
        if "rho" not in self._cache:
            self._cache["rho"] = self.w_inv.residue()
        return self._cache["rho"]

    @property
    def omega(self):
        """Teichmuller lift of the fixed residue-field generator."""
        if "omega" not in self._cache:
            self._cache["omega"] = self.teichmuller(
                self.base.kappa.generator())
        return self._cache["omega"]

    @property
    def k(self):
        """Wild exponent: #mu(F) = p^k (q-1)."""
        if "k" not in self._cache:
            self._cache["k"] = _wild_exponent(self)
        return self._cache["k"]

    def teichmuller_power(self, i):
        """omega^i reduced mod q-1 (cached small powers)."""
        i %= self.q - 1
        key = ("omega_pow", i)
        if key not in self._cache:
            self._cache[key] = self.omega ** i
        return self._cache[key]

    # -- descriptors ------------------------------------------------------

    def descriptor(self):
        d = self.d
        return {
            "p": self.p,
            "d": d,
            "N": self.N,
            "gbar": list(self.base.kappa.modulus),
            "f": [list(self.f[i:i + d]) for i in range(0, len(self.f), d)],
            "name": self.name,
        }

    @classmethod
    def from_descriptor(cls, desc):
        """The field of a descriptor() document; BadInput unless it is an
        object with the keys p and f, and p, N and d are ints."""
        if not isinstance(desc, dict):
            raise BadInput("a field descriptor must be a JSON object")
        missing = [key for key in ("p", "f") if key not in desc]
        if missing:
            raise BadInput(f"the field descriptor has no {missing[0]!r}")
        p, N, d = desc["p"], desc.get("N", 64), desc.get("d", 1)
        if not all(type(v) is int for v in (p, N, d)):
            raise BadInput("p, N and d of a field descriptor must be ints")
        gbar, f = desc.get("gbar"), desc["f"]
        if gbar is not None and not (isinstance(gbar, list) and all(
                type(c) is int for c in gbar)):
            raise BadInput("gbar of a field descriptor must be a list of "
                           "ints")
        if not isinstance(f, list):
            raise BadInput("f of a field descriptor must be a list")
        return cls(PadicCtx(p, N, d, gbar=gbar), f, name=desc.get("name"))

    @classmethod
    def from_json(cls, text):
        return cls.from_descriptor(json.loads(text))


# ---------------------------------------------------------------------------
# shipped presets
# ---------------------------------------------------------------------------

def qp(p, N=64):
    """Q_p itself (e = 1, f = T - p)."""
    base = PadicCtx(p, N, 1)
    return LocalFieldCtx(base, [-p, 1], name=f"qp-{p}")


def qp_zeta(p, N=64):
    """Q_p(zeta_p) with f = ((T+1)^p - 1)/T; pi = zeta_p - 1."""
    import math
    base = PadicCtx(p, N, 1)
    f = [math.comb(p, j + 1) for j in range(p)]
    return LocalFieldCtx(base, f, name=f"qp-zeta-{p}")


def eisenstein_root(p, e, N=64, d=1):
    """Q_p-extension with f = T^e - p (the e-th root of p), optionally over
    an unramified base of degree d."""
    if e < 1:
        raise UnsupportedField(f"ramification index e = {e} must be at "
                               f"least 1")
    base = PadicCtx(p, N, d)
    f = [-p] + [0] * (e - 1) + [1]
    name = {2: f"sqrt-{p}", 3: f"cbrt-{p}"}.get(e, f"root{e}-{p}")
    if d > 1:
        name += f"-unram{d}"
    return LocalFieldCtx(base, f, name=name)


_PRESET = re.compile(r"(qp|qp-zeta|sqrt|cbrt|root(\d+))-(\d+)")


def preset(name, N=64):
    """Resolve a preset name: qp-P, qp-zeta-P, sqrt-P, cbrt-P, rootE-P.

    A name of another shape is an unknown preset; a field that cannot be
    built (P not prime, N < 8) raises UnsupportedField naming the cause.
    """
    match = _PRESET.fullmatch(name)
    if match is None:
        raise UnsupportedField(f"unknown field preset {name!r}")
    kind, p = match.group(1), int(match.group(3))
    try:
        if kind == "qp":
            return qp(p, N)
        if kind == "qp-zeta":
            return qp_zeta(p, N)
        e = {"sqrt": 2, "cbrt": 3}.get(kind) or int(match.group(2))
        return eisenstein_root(p, e, N)
    except ValueError as exc:
        raise UnsupportedField(f"field preset {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class FElem:
    """An integral element of F as one flat tuple of e*d ints mod p^N (the
    coefficient of x^j pi^i at index i*d + j; see the module docstring)."""

    __slots__ = ("ctx", "flat")

    def __init__(self, ctx, flat):
        self.ctx = ctx
        self.flat = flat

    def __repr__(self):
        d, f = self.ctx.d, self.flat
        return f"FElem({[list(f[i:i + d]) for i in range(0, len(f), d)]})"

    def __eq__(self, other):
        return (isinstance(other, FElem) and self.ctx is other.ctx
                and self.flat == other.flat)

    def __hash__(self):
        return hash(self.flat)

    def is_zero(self):
        return not any(self.flat)

    def _coerce(self, other):
        if isinstance(other, FElem):
            if other.ctx is not self.ctx:
                raise ValueError("mixed contexts")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.ctx.mod
        return FElem(self.ctx, tuple((a + b) % m for a, b in
                                     zip(self.flat, other.flat)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.ctx.mod
        return FElem(self.ctx, tuple((a - b) % m for a, b in
                                     zip(self.flat, other.flat)))

    def __rsub__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced - self

    def __neg__(self):
        m = self.ctx.mod
        return FElem(self.ctx, tuple(-a % m for a in self.flat))

    def __mul__(self, other):
        """The product mod (g, f, p^N): an integer convolution, the
        out-of-basis monomials folded back by their normal forms
        (LocalFieldCtx._build_fold), one reduction mod p^N per slot."""
        ctx = self.ctx
        if isinstance(other, int):
            m = ctx.mod
            return FElem(ctx, tuple(a * other % m for a in self.flat))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        pad = ctx._pad
        right = [(pt, b) for pt, b in zip(pad, other.flat) if b]
        conv = [0] * ctx._conv_len
        for ps, a in zip(pad, self.flat):
            if a:
                for pt, b in right:
                    conv[ps + pt] += a * b
        for h, form in ctx._fold:
            c = conv[h]
            if c:
                for pos, r in form:
                    conv[pos] += c * r
        m = ctx.mod
        return FElem(ctx, tuple(conv[ps] % m for ps in pad))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.invert_unit() ** (-n)
        r, b = self.ctx.one, self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    # -- valuation-aware helpers ------------------------------------------

    def valuation(self):
        return valuation(self)

    def residue(self):
        """Image in the residue field (the constant coefficient's residue)."""
        return self.ctx.base.kappa.pack(self.flat[:self.ctx.d])

    def div_p(self):
        """Exact division by p (valuation must be >= e).

        Dividing by pi^v is exact in value but costs v levels of certified
        pi-precision: results are certified mod pi^{M-v}.
        """
        p = self.ctx.p
        if any(c % p for c in self.flat):
            raise ValueError("element not divisible by p")
        return FElem(self.ctx, tuple(c // p for c in self.flat))

    def div_pi(self):
        """Exact division by pi (valuation must be >= 1); see div_p for the
        precision cost."""
        ctx = self.ctx
        if ctx.e == 1:
            return self.div_p() * ctx.w_inv
        d = ctx.d
        # a_0 = p b with b in O0, and p / pi = p_over_pi
        b = FElem(ctx, self.flat[:d] + (0,) * (len(self.flat) - d)).div_p()
        shifted = FElem(ctx, self.flat[d:] + (0,) * d)
        return shifted + ctx.p_over_pi * b

    def div_pi_pow(self, n):
        """Exact division by pi^n (valuation must be >= n).

        Uses pi^{-e} = p^{-1} w^{-1} blockwise (w is the unit pi^e/p), then
        single pi-divisions for the remainder.
        """
        x = self
        e = self.ctx.e
        k, r = divmod(n, e)
        if k:
            for _ in range(k):
                x = x.div_p()
            x = x * self.ctx.w_inv ** k
        for _ in range(r):
            x = x.div_pi()
        return x

    def invert_unit(self):
        """Inverse of a unit (valuation 0), by Newton from the lifted inverse
        of the residue; each step doubles the pi-adic precision."""
        v = valuation(self)
        if v is PRECISION_EXHAUSTED or v != 0:
            raise BadInput("invert_unit needs a unit (valuation 0)")
        ctx = self.ctx
        kappa = ctx.base.kappa
        r = kappa.digits(kappa.inv(self.residue()))
        y = FElem(ctx, tuple(r) + (0,) * (len(self.flat) - ctx.d))
        two = ctx.from_int(2)
        k = 1
        while k < ctx.M:
            y = y * (two - self * y)
            k *= 2
        return y

    def to_json(self):
        d = self.ctx.d
        return [[str(c) for c in self.flat[i:i + d]]
                for i in range(0, len(self.flat), d)]


# ---------------------------------------------------------------------------
# valuation, unit structure
# ---------------------------------------------------------------------------

def valuation(x):
    """pi-adic valuation min_i (e*val_p(block i) + i), PRECISION_EXHAUSTED
    if the canonical form is the zero vector.  Block i's candidate is at
    least i, so the scan stops once the best candidate is <= i."""
    ctx = x.ctx
    e, d, p = ctx.e, ctx.d, ctx.p
    flat = x.flat
    best = None
    for i in range(e):
        if best is not None and best <= i:
            break
        v = val_p_coeffs(flat[i * d:(i + 1) * d], p)
        if v is PRECISION_EXHAUSTED:
            continue
        cand = e * v + i
        if best is None or cand < best:
            best = cand
    return PRECISION_EXHAUSTED if best is None else best


@dataclass(frozen=True)
class UnitDecomposition:
    """x = pi^n * omega^i * u with u a principal unit."""
    n: int
    i: int
    u: FElem

    def reconstruct(self, ctx):
        return ctx.pi ** self.n * ctx.teichmuller_power(self.i) * self.u


def unit_decompose(x):
    """Split x (nonzero at precision) as pi^n * omega^i * u, u in U^1."""
    n = valuation(x)
    if n is PRECISION_EXHAUSTED:
        raise PrecisionExhausted("cannot decompose an element that is "
                                 "indistinguishable from 0")
    ctx = x.ctx
    y = x.div_pi_pow(n) if n else x
    i = ctx.base.kappa.dlog(y.residue())
    u = y * ctx.teichmuller_power(-i)
    lv = valuation(u - ctx.one)
    if lv is not PRECISION_EXHAUSTED and lv < 1:
        raise InvariantFailed("x * pi^-n * omega^-i is not a principal unit")
    return UnitDecomposition(n, i, u)


def unit_level(u):
    """Largest r with u in U^r = 1 + m^r, i.e. v(u - 1).

    Returns PRECISION_EXHAUSTED when u is indistinguishable from 1.
    Raises NotPrincipalUnit when v(u - 1) <= 0.
    """
    lv = valuation(u - u.ctx.one)
    if lv is PRECISION_EXHAUSTED:
        return PRECISION_EXHAUSTED
    if lv <= 0:
        raise NotPrincipalUnit("v(u-1) <= 0")
    return lv


def spanning_units(ctx, lo, hi):
    """The spanning set {1 + omega^a pi^s : lo <= s < hi, 0 <= a < d} of
    U^lo / U^hi (graded pieces are F_q-spaces spanned by omega^a pi^s)."""
    out = []
    one = ctx.one
    for s in range(lo, hi):
        pis = ctx.pi ** s
        for a in range(ctx.d):
            out.append(one + ctx.teichmuller_power(a) * pis)
    return out


# ---------------------------------------------------------------------------
# Z_p-exponentiation
# ---------------------------------------------------------------------------

def zp_exp(u, alpha, ideal=1):
    """(1+x)^alpha = sum_l binom(alpha, l) x^l for u = 1+x in the selected
    ideal.

    `ideal` is a minimal unit-filtration level r >= 1, or any object with an
    ideal_contains(x) predicate (an OrderRm for 1 + maximal-ideal groups).
    alpha is an integer, read as a p-adic integer through its representative;
    binomial coefficients are computed exactly over Z, so for honest integer
    exponents the truncated series is exact mod pi^M.
    """
    ctx = u.ctx
    x = u - ctx.one
    if hasattr(ideal, "ideal_contains"):
        if not ideal.ideal_contains(x):
            raise NotInIdeal("u - 1 is not in the selected ideal")
    else:
        r = int(ideal)
        lv = valuation(x)
        if lv is not PRECISION_EXHAUSTED and lv < r:
            raise NotInIdeal(f"u - 1 has level {lv} < {r}")
    if x.is_zero():
        return ctx.one
    total = ctx.one
    xl = x
    binom = 1
    l = 0
    while not xl.is_zero():
        l += 1
        binom = binom * (alpha - l + 1) // l
        c = binom % ctx.base.mod
        if c:
            total = total + xl * c
        xl = xl * x
        if l > ctx.M + ctx.N:
            raise PrecisionExhausted("binomial series did not terminate")
    return total


# ---------------------------------------------------------------------------
# p-power maps along the unit filtration
# ---------------------------------------------------------------------------

@dataclass
class HasseForwardReport:
    """Observed landing levels of the p-power map on a spanning set of
    U^t / U^{t+depth}."""
    t: int
    required: int
    regime: str  # "below" (t <= e1, bound p*t) or "above" (t > e1, bound t+e)
    entries: list  # (s, a, landing)
    min_landing: int
    ok: bool
    precision: int

    def to_json(self):
        return {
            "t": self.t,
            "required": self.required,
            "regime": self.regime,
            "entries": [list(t) for t in self.entries],
            "min_landing": self.min_landing,
            "ok": self.ok,
            "certified_precision": self.precision,
        }


def hasse_forward(ctx, t, depth=None):
    """Empirically verify the p-power landing bounds on U^t.

    For t <= e1 the bound is (U^t)^p in U^{p*t}; for t > e1 it is
    (U^t)^p in U^{t+e}.  Landing levels are reported per spanning generator
    1 + omega^a pi^s.
    """
    if t < 1:
        raise BadInput("t must be >= 1")
    if depth is None:
        depth = ctx.e
    if depth * ctx.e >= ctx.M:
        raise PrecisionExhausted("spanning depth exceeds working precision")
    if not t * ctx.p < ctx.M // 2:
        raise BadInput("no room at working precision for t*p")
    below = Fraction(t) <= ctx.e1
    required = ctx.p * t if below else t + ctx.e
    entries = []
    for idx, g in enumerate(spanning_units(ctx, t, t + depth)):
        s, a = divmod(idx, ctx.d)
        lv = unit_level(g ** ctx.p)
        entries.append((t + s, a, ctx.M if lv is PRECISION_EXHAUSTED else lv))
    min_landing = min(en[2] for en in entries)
    return HasseForwardReport(
        t=t,
        required=required,
        regime="below" if below else "above",
        entries=entries,
        min_landing=min_landing,
        ok=min_landing >= required,
        precision=ctx.M,
    )


def pth_root_in_filtration(w, t):
    """A u in U^t with u^p = w, for w in U^{t+e} and t > e1 (exact rational
    comparison).

    Solved level by level: above e1 the induced map on each graded piece is
    multiplication by the residue of p*pi^{-e}, a bijection, so every digit
    is one residue-field division.  The answer is unique up to mu_p(F).
    """
    ctx = w.ctx
    if not Fraction(t) > ctx.e1:
        raise BelowThreshold(f"t = {t} is not above e1 = {ctx.e1}")
    lv = unit_level(w)
    if lv is PRECISION_EXHAUSTED:
        return ctx.one
    if lv < t + ctx.e:
        raise NotInIdeal(f"w has level {lv} < t + e = {t + ctx.e}")
    kappa = ctx.base.kappa
    rho_inv = kappa.inv(ctx.rho)
    u = ctx.one
    defect = w
    for _ in range(ctx.M + 1):
        dl = valuation(defect - ctx.one)
        if dl is PRECISION_EXHAUSTED:
            break
        s = dl - ctx.e
        if s < t:
            raise InvariantFailed(f"defect at level {dl} is below t + e")
        c = (defect - ctx.one).div_pi_pow(dl).residue()
        a = kappa.mul(c, rho_inv)
        corr = ctx.one + ctx.lift_residue(a) * (ctx.pi ** s)
        u = u * corr
        defect = defect * (corr ** ctx.p).invert_unit()
    else:  # pragma: no cover
        raise PrecisionExhausted("digit solving did not terminate")
    return u


# ---------------------------------------------------------------------------
# Hensel refinement
# ---------------------------------------------------------------------------

def hensel_root(poly, approx):
    """Newton refinement of an approximate root of poly (a list of FElems
    or ints, low degree first).

    Requires the classical certificate v(poly(a)) > 2*v(poly'(a)) at
    working precision; raises HenselHypothesisFailed otherwise.  Each step
    divides exactly by pi^v(poly'(a)), which costs that many certified
    levels; the root is returned once poly(root) vanishes at the remaining
    certified precision.
    """
    ctx = approx.ctx
    dpoly = [c * i for i, c in enumerate(poly)][1:]

    def ev(coeffs, x):
        acc = ctx.zero
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    fx = ev(poly, approx)
    fpx = ev(dpoly, approx)
    va = ctx.M if fx.is_zero() else valuation(fx)
    vd = valuation(fpx)
    if vd is PRECISION_EXHAUSTED or not va > 2 * vd:
        raise HenselHypothesisFailed(
            f"v(f(a)) = {va} does not exceed 2*v(f'(a)) = "
            f"{2 * vd if vd is not PRECISION_EXHAUSTED else 'inf'}")
    a = approx
    decay = 0
    for _ in range(ctx.M.bit_length() + 8):
        if fx.is_zero():
            return a
        if vd and valuation(fx) >= ctx.M - decay:
            return a  # vanishes at the certified precision
        a = a - fx.div_pi_pow(vd) * fpx.div_pi_pow(vd).invert_unit()
        decay += vd
        fx = ev(poly, a)
        fpx = ev(dpoly, a)
    raise HenselHypothesisFailed("Newton iteration failed to converge")


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------

def compute_mu(ctx, verify_count=False):
    """#mu(F) as the pair (q-1, p^k).

    The prime-to-p part is q-1 (Teichmuller).  k is found by searching for
    primitive p^j-th roots of unity for j = 1, 2, ... while the necessary
    condition p^{j-1}(p-1) | e holds: candidates are enumerated by residue
    digits from the exact level e/(p^{j-1}(p-1)) up to a Newton-certifiable
    depth and refined; k is the largest j that produces a verified root.
    """
    k = 0
    p, e = ctx.p, ctx.e
    j = 0
    while True:
        j += 1
        eprime = p ** (j - 1) * (p - 1)
        if eprime > e or e % eprime:
            break
        root = _find_zeta(ctx, j, e // eprime, verify_count)
        if root is None:
            break
        k = j
    return ctx.q - 1, p ** k


def _wild_exponent(ctx):
    return _int_log(compute_mu(ctx)[1], ctx.p)


def _int_log(n, p):
    k = 0
    while n > 1:
        n //= p
        k += 1
    return k


def _cyclotomic_value(ctx, j, x):
    """Phi_{p^j}(x) = sum_{i<p} x^{i p^{j-1}} and its derivative at x."""
    z = x ** (ctx.p ** (j - 1))
    acc = ctx.one
    zi = ctx.one
    for _ in range(ctx.p - 1):
        zi = zi * z
        acc = acc + zi
    return acc


def _cyclotomic_derivative(ctx, j, x):
    pj1 = ctx.p ** (j - 1)
    acc = ctx.zero
    for i in range(1, ctx.p):
        acc = acc + (x ** (i * pj1 - 1)) * (i * pj1)
    return acc


def _newton_in_f(ctx, j, x):
    """Refine x against Phi_{p^j}; (root, decay) with decay the certified
    pi-precision spent on divisions, or None when the certificate fails."""
    decay = 0
    for _ in range(2 * ctx.M.bit_length() + 8):
        fx = _cyclotomic_value(ctx, j, x)
        if fx.is_zero():
            return x, decay
        vfx = valuation(fx)
        if vfx is PRECISION_EXHAUSTED or vfx >= ctx.M - decay:
            return x, decay  # vanishes at the certified precision
        fpx = _cyclotomic_derivative(ctx, j, x)
        vfp = valuation(fpx)
        if vfp is PRECISION_EXHAUSTED:
            return None
        if not vfx > 2 * vfp:
            return None
        delta = fx.div_pi_pow(vfp) * (fpx.div_pi_pow(vfp)).invert_unit()
        decay += 2 * vfp
        x = x - delta
        if decay > ctx.M // 2:
            return None  # not enough precision left to certify anything
    return None


def _find_zeta(ctx, j, sstar, verify_count=False):
    """Search for a primitive p^j-th root of unity, 1 + (level-sstar tail).

    Enumeration depth: at least ceil(2e/(p-1)) (documented engineering
    default) and at least the Newton-sufficiency bound
    ceil((j+1)e - ep/(p-1)) derived from the root separation of Phi_{p^j}.
    """
    p, e = ctx.p, ctx.e
    L0 = -((-2 * e) // (p - 1))  # ceil(2e/(p-1))
    bnd = Fraction((j + 1) * e) - Fraction(e * p, p - 1)
    Lsuff = -((-bnd.numerator) // bnd.denominator)  # ceil
    L = max(L0, Lsuff, sstar)
    kappa = ctx.base.kappa
    digits = list(kappa.elements())
    nonzero = [c for c in digits if c]
    pis = [ctx.pi ** s for s in range(sstar, L + 1)]
    found = []
    for lead in nonzero:
        for tail in _iproduct(digits, repeat=L - sstar):
            x0 = ctx.one + ctx.lift_residue(lead) * pis[0]
            for idx, c in enumerate(tail):
                if c:
                    x0 = x0 + ctx.lift_residue(c) * pis[idx + 1]
            refined = _newton_in_f(ctx, j, x0)
            if refined is None:
                continue
            root, decay = refined
            if not _is_primitive_root(ctx, j, root, decay):
                continue
            if not verify_count:
                return root
            # roots from different starts agree only up to division decay
            if all(_distinct_at_half_precision(ctx, root, other)
                   for other in found):
                found.append(root)
    if verify_count and found:
        expected = p ** j - p ** (j - 1)
        if len(found) != expected:
            raise InvariantFailed(f"found {len(found)} primitive p^{j} "
                                  f"roots, expected {expected}")
        return found[0]
    return None


def _distinct_at_half_precision(ctx, a, b):
    v = valuation(a - b)
    return not (v is PRECISION_EXHAUSTED or v >= ctx.M // 2)


def _is_primitive_root(ctx, j, root, decay):
    """Verify root^{p^j} = 1 at the certified precision left after Newton
    (impostors fail already at level ~e/(p-1)) and primitivity."""
    p = ctx.p
    diff = root ** (p ** j) - ctx.one
    v = valuation(diff)
    if not (v is PRECISION_EXHAUSTED or v >= ctx.M - decay):
        return False
    low = root ** (p ** (j - 1)) - ctx.one
    vlow = valuation(low)
    return not (vlow is PRECISION_EXHAUSTED or vlow >= ctx.M - decay)
