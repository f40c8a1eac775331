"""Arithmetic in F = F0(pi) for an Eisenstein polynomial f over O0.

O0 is the unramified extension of Z_p of degree d (the Witt vectors of
F_q), realised as Z[x]/(g, p^N) for g the digit lift of a monic
irreducible gbar over F_p; LocalFieldCtx holds its parameters beside f.  The
residue field kappa = F_p[x]/(gbar) is a finitefield.FiniteField, so
residues are ints in [0, q) whose base-p digit j is the coefficient of x^j.

An element is one flat tuple of e*d integers in [0, p^N): the coefficient
of x^j pi^i sits at index i*d + j, where x is the root of the unramified
modulus g (so block i, indices i*d .. i*d+d-1, is the O0-coefficient of
pi^i).  All arithmetic is performed mod (g, f, p^N).  The pi-adic valuation
of the pi^i term is e*val_p(block i) + i, and these candidates are pairwise
distinct mod e, so the valuation of an element is their minimum and is
attained at a unique index.

Working pi-precision is M = e*N.  An element whose canonical form is the
zero vector is indistinguishable from 0 at that precision, and its
valuation is M, that of an inexact zero in the capped-absolute model
(Caruso-Roe-Vaccon, "Tracking p-adic precision", arXiv:1402.5938); every
other element has valuation below M.  A unit is
inverted by Newton on flat tuples from its inverse mod p, a truncated series
in O/pO = kappa[pi]/(pi^e), so in ceil(log2 N) steps for every e
(FElem.invert_unit).

Since pi^e = p*w with w a unit, pi^(e*k+r) divides x iff p^k divides its
blocks i >= r and p^(k+1) its blocks i < r (FElem.div_pi_pow), and the
leading digit of x, the residue of x/pi^v for v = v(x) = e*k + i, is that
of block i / p^k times rho^k, rho the residue of 1/w (lead); the p-th-power
walk on the graded pieces U^s/U^(s+1) reads digits so (strip_pth_powers).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInput, InvariantFailed, PrecisionExhausted, Unsupported
from .finitefield import (
    MAX_Q,
    FiniteField,
    default_modulus,
    echelon_insert,
    echelon_reduce,
)
from .ntheory import isprime

#: The precision N of a field when none is given: of presets, field
#: descriptors and the command line.
DEFAULT_N = 64

#: Largest precision N a LocalFieldCtx carries, so that no -N, preset or field
#: descriptor stalls a command; at N = 1024 one norm-oracle query on
#: Q_3(zeta_3) costs 0.06 s of CPU and the m0 experiment on Q_5(zeta_5)
#: 2 s (CPython 3.11, Intel Xeon).
MAX_N = 1024

#: Largest e*d of a LocalFieldCtx.  The set-up of a field's kernels
#: (LocalFieldCtx._build_kernels) is cubic in e*d: at e*d = 64 and a dense
#: Eisenstein polynomial it takes about 0.1 s of CPU at N = 64 and 0.7-1.1 s
#: at N = MAX_N (CPython 3.11, Intel Xeon), and the product's source stays
#: far below the expression length that CPython's compiler can take.
MAX_ED = 64


def _check_ed(e, d):
    """Unsupported unless 1 <= e and e*d <= MAX_ED, checked before any
    polynomial or table of the field is built."""
    if e < 1:
        raise Unsupported(f"ramification index e = {e} must be at least 1")
    if e * d > MAX_ED:
        raise Unsupported(f"e*d = {e * d} exceeds MAX_ED = {MAX_ED}")


def _check_pN(p, N):
    """BadInput unless p is prime and 8 <= N <= MAX_N, checked before any
    polynomial of the field is built."""
    if not isprime(p):
        raise BadInput(f"p = {p} is not prime")
    if N < 8:
        raise BadInput("precision N must be at least 8")
    if N > MAX_N:
        raise BadInput(f"precision N must be at most MAX_N = {MAX_N}")


def val_p_coeffs(coeffs, p, N):
    """min over the ints coeffs, each in [0, p^N), of their p-adic
    valuations: N, the valuation of an inexact zero, when every one is 0."""
    best = N
    for c in coeffs:
        if c == 0:
            continue
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        if v < best:
            best = v
            if best == 0:
                return 0
    return best


class _lazy:
    """A property computed on first access and then kept as a plain
    attribute.  functools.cached_property stores through the instance's
    __dict__, and on CPython 3.11 reading __dict__ turns the context's
    inline attribute values into a dict, which slows every attribute read
    of the context.  Every FElem operation reads its kernel (ctx._mul,
    ctx._add, ...) from the context; a product that read six context
    attributes lost 5-7% on Q_5 and Q_3(zeta_3) that way, and a kernel
    product is within timing noise of it (-5% to +6%; CPython 3.11.7,
    Intel Xeon, min of 60 timings)."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        setattr(obj, self.name, value)
        return value


class LocalFieldCtx:
    """F = F0(pi) with pi a root of the Eisenstein polynomial f over O0, the
    unramified extension of Z_p of degree d, truncated mod p^N.  An element
    of O0 is an FElem whose blocks above block 0 are zero.

    p must be prime, 8 <= N <= MAX_N is the number of carried p-digits,
    gbar the residue modulus (the first irreducible in lexicographic
    coefficient order by default, so residue fields are reproducible across
    runs and shared with the function-field presets); its digit lift g, the
    same coefficients read in Z, is the modulus of O0, and kappa =
    F_p[x]/(gbar) is the residue field.
    The default is searched for only up to p^d = MAX_Q: a larger residue
    field could not build the tables its products need, and the search
    alone can run for minutes.

    Derived data: ramification index e = deg f, q = p^d, e1 = e/(p-1) kept
    as an exact Fraction, pi-precision M = e*N, and, computed lazily, the
    wild exponent k with #mu(F) = p^k (q-1) and the wild level wild_level.
    f is kept as a flat tuple of (e+1)*d ints in the element layout.
    """

    def __init__(self, p, f, N=DEFAULT_N, d=1, gbar=None, name=None):
        _check_pN(p, N)
        if d < 1:
            raise BadInput("residue degree d must be >= 1")
        self.p, self.N, self.d = p, N, d
        self.mod = p ** N
        if gbar is None:
            if p ** d > MAX_Q:
                raise BadInput(f"no default residue modulus for q = {p}^{d} "
                               f"> MAX_Q = {MAX_Q}; give gbar")
            gbar = default_modulus(p, d)
        gbar = tuple(c % p for c in gbar)
        if len(gbar) != d + 1:
            raise BadInput("gbar must have degree d")
        self.kappa = FiniteField(p, gbar)  # BadInput unless monic irreducible
        self.q = p ** d
        if len(f) < 2:
            raise BadInput("f must have degree at least 1")
        e = len(f) - 1
        _check_ed(e, d)
        f = tuple(x for c in f for x in self._block(c))
        if f[e * d:] != self._block(1):
            raise BadInput("f must be monic")
        if any(c % self.p for c in f[:e * d]):
            raise BadInput("f is not Eisenstein: a lower coefficient "
                             "is a unit")
        if val_p_coeffs(f[:d], p, N) != 1:
            raise BadInput("f is not Eisenstein: constant term must have "
                             "valuation exactly 1")
        self.f = f
        self.e = e
        self.e1 = Fraction(e, self.p - 1)
        self.M = e * self.N
        self.name = name
        self._cache = {}
        self._build_kernels()

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

    def _build_kernels(self):
        """Compile this field's arithmetic on flat tuples: _mul, _add, _sub
        and _scale (a tuple times an int), each one straight-line function
        with every index and constant unrolled.

        In the product, row k <= 2e-2 (width 2d-1) of the padded
        convolution holds the x-polynomial coefficient of pi^k.  Each
        position outside the basis is named once and folded into the slots
        by the normal form of its monomial mod (g, f, p^N), written with
        coefficients in (-p^N/2, p^N/2] so that the small ones of f and g
        stay small ints; every output slot is reduced mod p^N once.  Only
        ints of this context go into the source, and MAX_ED bounds its
        length."""
        e, d, m, g, f = self.e, self.d, self.mod, self.kappa.modulus, self.f
        n, w = e * d, 2 * d - 1
        forms = {}
        for k in range(2 * e - 1):
            for j in range(w):
                if k < e and j < d:
                    forms[k, j] = [int(s == k * d + j) for s in range(n)]
                    continue
                if j >= d:
                    terms = [(g[t], (k, j - d + t)) for t in range(d)]
                else:
                    terms = [(f[i * d + t], (k - e + i, j + t))
                             for i in range(e) for t in range(d)]
                forms[k, j] = [-sum(c * forms[key][s] for c, key in terms) % m
                               for s in range(n)]
        pad = [i * w + j for i in range(e) for j in range(d)]
        conv = {}
        for s, ps in enumerate(pad):
            for t, pt in enumerate(pad):
                conv.setdefault(ps + pt, []).append(f"a{s}*b{t}")
        slots = [conv[ps] for ps in pad]
        fold = []
        for (k, j), form in forms.items():
            if k < e and j < d:
                continue
            h = k * w + j
            fold.append(f"h{h} = {' + '.join(conv[h])}")
            for s, c in enumerate(form):
                c = c - m if 2 * c > m else c
                if c:
                    slots[s].append(f"h{h}" if c == 1 else f"{c}*h{h}")

        def kernel(head, body, outs):
            reduced = "".join(f"({x}) % {m}, " for x in outs)
            lines = [f"def {head}:"] + [f" {line}" for line in body]
            return "\n".join(lines + [f" return ({reduced})", ""])

        unpack = [", ".join(f"{v}{s}" for s in range(n)) + f", = {v}"
                  for v in "ab"]
        namespace = {}
        exec(kernel("mul(a, b)", unpack + fold, map(" + ".join, slots))
             + kernel("add(a, b)", unpack, (f"a{s} + b{s}" for s in range(n)))
             + kernel("sub(a, b)", unpack, (f"a{s} - b{s}" for s in range(n)))
             + kernel("scale(a, c)", unpack[:1],
                      (f"a{s}*c" for s in range(n))),
             namespace)
        self._mul, self._add = namespace["mul"], namespace["add"]
        self._sub, self._scale = namespace["sub"], namespace["scale"]

    # -- constructors ---------------------------------------------------

    def elem(self, coeffs):
        """The element sum_i coeffs[i] pi^i, each coefficient an int or a
        list of d ints."""
        if len(coeffs) != self.e:
            raise BadInput("coefficient vector has wrong length")
        return FElem(self, tuple(x for c in coeffs for x in self._block(c)))

    def from_int(self, n):
        return self.elem([n] + [0] * (self.e - 1))

    def lift_residue(self, c):
        """The plain digit lift to O0 of a residue-field element."""
        return self.monomial(0, self.kappa.digits(c))

    def pi_pow(self, s):
        """pi^s for s >= 0, cached per exponent asked for."""
        key = ("pi_pow", s)
        pi_s = self._cache.get(key)
        if pi_s is None:
            pi_s = self._cache[key] = self.pi ** s
        return pi_s

    def level_unit(self, c, s):
        """The unit 1 + [c] pi^s, [c] the digit lift of the residue c."""
        return self.one + self.lift_residue(c) * self.pi_pow(s)

    def graded_pth_root(self, s, c):
        """(a, t, r) with (1 + [a] pi^t)^p = 1 + [c - r] pi^s mod U^{s+1},
        r the part of the residue c that no p-th power reaches: r = 0 when
        all of c is reached, and a = 0 when none of it is.  The graded
        p-power map sends level t < e1 to p*t by the Frobenius (a =
        c^(1/p)), level t > e1 to t + e by multiplication by rho (a =
        c/rho), and the critical level t = e1 to p*t by phi (phi_span); no
        p-th power lands on a level s < p*e1 prime to p.  At the critical
        level (c | 0) reduces to (r | -a) against the rows of phi_span."""
        kappa, p, d = self.kappa, self.p, self.d
        above = s * (p - 1) - p * self.e  # the sign of s - p*e1
        if above > 0:
            return kappa.mul(c, kappa.inv(self.rho)), s - self.e, 0
        if above == 0:
            vec = echelon_reduce(self.phi_span, kappa.digits(c) + [0] * d, p)
            a = kappa.pack([-x for x in vec[d:]])
            return a, s // p, kappa.pack(vec[:d])
        if s % p:
            return 0, s // p, c
        return kappa.pow(c, self.q // p), s // p, 0

    @_lazy
    def zero(self):
        return self.from_int(0)

    @_lazy
    def one(self):
        return self.from_int(1)

    @_lazy
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

    @_lazy
    def w_unit(self):
        """The unit pi^e / p (from the Eisenstein relation)."""
        m, p = self.mod, self.p
        return FElem(self, tuple(-c % m // p
                                 for c in self.f[:self.e * self.d]))

    @_lazy
    def w_inv(self):
        return self.w_unit.invert_unit()

    @_lazy
    def rho(self):
        """Residue of p * pi^{-e}; multiplication by rho is the graded
        p-power map on levels above e1."""
        return self.w_inv.residue()

    @_lazy
    def phi_span(self):
        """The image of phi(a) = a^p + rho*a, the graded p-power map at the
        critical level, as echelon rows (finitefield.echelon_insert) over F_p
        of the vectors digits(phi(a)) ++ digits(a), each leading at a digit
        of phi(a): the last d entries of a row are a preimage of the
        first d."""
        kappa, p, d = self.kappa, self.p, self.d
        rows = []
        gen = kappa.generator() if d > 1 else kappa.one
        for j in range(d):
            a = kappa.pow(gen, j)
            img = kappa.add(kappa.pow(a, p), kappa.mul(self.rho, a))
            vec = echelon_reduce(rows, kappa.digits(img) + kappa.digits(a), p)
            if any(vec[:d]):  # a kernel vector would lead at a digit of a
                echelon_insert(rows, vec, p)
        return rows

    @_lazy
    def omega(self):
        """Teichmuller lift of the fixed residue-field generator: the fixed
        point of x -> x^q from its digit lift; every step gains at least one
        p-digit, so N steps certify the full precision."""
        x = self.lift_residue(self.kappa.generator())
        for _ in range(self.N):
            x = x ** self.q
        return x

    @_lazy
    def k(self):
        """Wild exponent: #mu(F) = p^k (q-1).

        mu_p lies in F iff e1 is an integer and phi has a kernel, that is
        iff -rho = a^(p-1) for some a in kappa; then x = 1 + [a] pi^e1 has
        x^p in U^{p*e1+1}, where every unit is a p-th power, so the walk
        strip_pth_powers(x^p) ends at 1 with level units whose product z
        makes zeta_p = x*z.
        Each zeta_{p^(j+1)} is pth_root(zeta_{p^j}) until that is None.
        zeta_{p^j} is certified mod pi^{M-j*e}, and the decision reads its
        digits up to level p*e1, so PrecisionExhausted is raised once
        M - j*e <= p*e1.
        """
        p, e, kappa = self.p, self.e, self.kappa
        if e % (p - 1):
            return 0
        n, r = divmod(kappa.dlog(kappa.neg(self.rho)), p - 1)
        if r:
            return 0
        x = self.level_unit(kappa.pow(kappa.generator(), n), e // (p - 1))
        zeta, k = math.prod(strip_pth_powers(x ** p, self.M)[1], start=x), 1
        critical = p * e // (p - 1)
        while self.M - k * e > critical:
            zeta = pth_root(zeta)
            if zeta is None:
                return k
            k += 1
        raise PrecisionExhausted(
            f"zeta_{p ** k} is certified only mod pi^{self.M - k * e}, "
            f"not past p*e1 = {critical}")

    @_lazy
    def wild_level(self):
        """H = floor(p*e1 + (k-1)*e) + 1.  With mu_p in F (k >= 1), every
        element of U^H is a p^k-th power (k p-th roots, each e levels down),
        so the wild symbol vanishes on U^H and on R_m for m >= H."""
        return math.floor(self.p * self.e1 + (self.k - 1) * self.e) + 1

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
            "gbar": list(self.kappa.modulus),
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
        p, N, d = desc["p"], desc.get("N", DEFAULT_N), desc.get("d", 1)
        if not all(type(v) is int for v in (p, N, d)):
            raise BadInput("p, N and d of a field descriptor must be ints")
        gbar, f = desc.get("gbar"), desc["f"]
        if gbar is not None and not (isinstance(gbar, list) and all(
                type(c) is int for c in gbar)):
            raise BadInput("gbar of a field descriptor must be a list of "
                           "ints")
        if not isinstance(f, list):
            raise BadInput("f of a field descriptor must be a list")
        return cls(p, f, N, d, gbar=gbar, name=desc.get("name"))

    @classmethod
    def from_json(cls, text):
        return cls.from_descriptor(json.loads(text))


# ---------------------------------------------------------------------------
# shipped presets
# ---------------------------------------------------------------------------

def qp(p, N=DEFAULT_N):
    """Q_p itself (e = 1, f = T - p)."""
    return LocalFieldCtx(p, [-p, 1], N, name=f"qp-{p}")


def cyclotomic_eisenstein(p):
    """The coefficients of ((T+1)^p - 1)/T, low degree first."""
    return [math.comb(p, j + 1) for j in range(p)]


def qp_zeta(p, N=DEFAULT_N):
    """Q_p(zeta_p) with f = ((T+1)^p - 1)/T; pi = zeta_p - 1."""
    _check_pN(p, N)
    _check_ed(p - 1, 1)
    return LocalFieldCtx(p, cyclotomic_eisenstein(p), N,
                         name=f"qp-zeta-{p}")


def eisenstein_root(p, e, N=DEFAULT_N, d=1):
    """Q_p-extension with f = T^e - p (the e-th root of p), optionally over
    an unramified base of degree d."""
    _check_ed(e, d)
    f = [-p] + [0] * (e - 1) + [1]
    name = {2: f"sqrt-{p}", 3: f"cbrt-{p}"}.get(e, f"root{e}-{p}")
    if d > 1:
        name += f"-unram{d}"
    return LocalFieldCtx(p, f, N, d, name=name)


_PRESET = re.compile(r"(qp|qp-zeta|sqrt|cbrt|root(\d+))-(\d+)")


def preset(name, N=DEFAULT_N):
    """Resolve a preset name: qp-P, qp-zeta-P, sqrt-P, cbrt-P, rootE-P.

    A name of another shape is an unknown preset; a field that cannot be
    built (P not prime, N < 8) raises Unsupported naming the cause.
    """
    match = _PRESET.fullmatch(name)
    if match is None:
        raise Unsupported(f"unknown field preset {name!r}")
    kind, p = match.group(1), int(match.group(3))
    try:
        if kind == "qp":
            return qp(p, N)
        if kind == "qp-zeta":
            return qp_zeta(p, N)
        e = {"sqrt": 2, "cbrt": 3}.get(kind) or int(match.group(2))
        return eisenstein_root(p, e, N)
    except ValueError as exc:
        raise Unsupported(f"field preset {name!r}: {exc}") from exc


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
                raise BadInput("mixed contexts")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FElem(self.ctx, self.ctx._add(self.flat, other.flat))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FElem(self.ctx, self.ctx._sub(self.flat, other.flat))

    def __rsub__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced - self

    def __neg__(self):
        return FElem(self.ctx, self.ctx._scale(self.flat, -1))

    def __mul__(self, other):
        """The product mod (g, f, p^N), or an int multiple, by the field's
        compiled kernels (LocalFieldCtx._build_kernels)."""
        ctx = self.ctx
        if isinstance(other, int):
            return FElem(ctx, ctx._scale(self.flat, other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FElem(ctx, ctx._mul(self.flat, other.flat))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n <= 0:
            return self.invert_unit() ** (-n) if n else self.ctx.one
        r = self
        for bit in bin(n)[3:]:  # the bits below the leading one
            r = r * r
            if bit == "1":
                r = r * self
        return r

    # -- valuation-aware helpers ------------------------------------------

    def residue(self):
        """Image in the residue field (the constant coefficient's residue)."""
        return self.ctx.kappa.pack(self.flat[:self.ctx.d])

    def div_pi_pow(self, n):
        """Exact division by pi^n, n >= 0, by the block rule of the module
        docstring: for n = e*k + r, blocks i >= r over p^k move down r
        places, blocks i < r over p^(k+1) move up e - r places times w^-1,
        and the sum is multiplied by w^-k.  BadInput unless v(x) >= n;
        the quotient is certified only mod pi^{M-n}."""
        if not n:
            return self
        ctx, flat = self.ctx, self.flat
        k, r = divmod(n, ctx.e)
        cut, hi, lo = r * ctx.d, ctx.p ** k, ctx.p ** (k + 1)
        if (any(c % hi for c in flat[cut:])
                or any(c % lo for c in flat[:cut])):
            raise BadInput(f"element not divisible by pi^{n}")
        y = FElem(ctx, tuple(c // hi for c in flat[cut:]) + (0,) * cut)
        low = tuple(c // lo for c in flat[:cut])
        if any(low):
            y = y + FElem(ctx, (0,) * (len(flat) - cut) + low) * ctx.w_inv
        return y * ctx.w_inv ** k if k else y

    def invert_unit(self):
        """Inverse of a unit (valuation 0, a nonzero residue).

        O/pO is kappa[pi]/(pi^e), so the inverse mod p is the truncated
        series b_0 = a_0^-1, b_k = -b_0 * sum_{i=1..k} a_i b_{k-i} in the
        residues a_i of the blocks (about e^2/2 residue-field operations).
        Its digit lift is the inverse mod pi^e, and Newton
        y <- y(2 - xy) on flat tuples doubles that precision up to M:
        ceil(log2 N) steps of two kernel products each, whatever e is."""
        ctx, x = self.ctx, self.flat
        kappa, d = ctx.kappa, ctx.d
        a = [kappa.pack(x[i:i + d]) for i in range(0, len(x), d)]
        if not a[0]:
            raise BadInput("invert_unit needs a unit (valuation 0)")
        b = [kappa.inv(a[0])]
        for k in range(1, ctx.e):
            s = 0
            for i in range(1, k + 1):
                s = kappa.add(s, kappa.mul(a[i], b[k - i]))
            b.append(kappa.neg(kappa.mul(b[0], s)))
        y = tuple(c for bk in b for c in kappa.digits(bk))
        two, mul, sub = (2,) + (0,) * (len(x) - 1), ctx._mul, ctx._sub
        k = ctx.e
        while k < ctx.M:
            y = mul(y, sub(two, mul(x, y)))
            k *= 2
        return FElem(ctx, y)

    def to_json(self):
        d = self.ctx.d
        return [[str(c) for c in self.flat[i:i + d]]
                for i in range(0, len(self.flat), d)]


# ---------------------------------------------------------------------------
# valuation, unit structure
# ---------------------------------------------------------------------------

def valuation(x):
    """pi-adic valuation min_i (e*val_p(block i) + i), M if the canonical
    form is the zero vector.  A zero block's candidate e*N + i is at least
    M and any other one below M.  Block i's candidate is at least i, so the
    scan stops once the best candidate is <= i."""
    ctx = x.ctx
    e, d, p, N = ctx.e, ctx.d, ctx.p, ctx.N
    flat = x.flat
    best = ctx.M
    for i in range(e):
        if best <= i:
            break
        cand = e * val_p_coeffs(flat[i * d:(i + 1) * d], p, N) + i
        if cand < best:
            best = cand
    return best


@dataclass(frozen=True)
class UnitDecomposition:
    """x = pi^n * omega^i * u with u a principal unit."""
    n: int
    i: int
    u: FElem

    def reconstruct(self, ctx):
        return ctx.pi ** self.n * ctx.teichmuller_power(self.i) * self.u


def _nonzero_valuation(x):
    v = valuation(x)
    if v == x.ctx.M:
        raise PrecisionExhausted("cannot decompose an element that is "
                                 "indistinguishable from 0")
    return v


def lead(x):
    """(v(x), residue of x/pi^v(x)), read off one block with no product:
    for v = e*k + i it is that of block i / p^k times rho^k (module
    docstring).  PrecisionExhausted when x is indistinguishable from 0."""
    v = _nonzero_valuation(x)
    ctx = x.ctx
    kappa, d = ctx.kappa, ctx.d
    k, i = divmod(v, ctx.e)
    pk = ctx.p ** k
    c = kappa.pack([b // pk for b in x.flat[i * d:(i + 1) * d]])
    return v, kappa.mul(c, kappa.pow(ctx.rho, k)) if k else c


def split_unit(x):
    """(v(x), x / pi^v(x)), the unit part exact but certified only mod
    pi^{M - v(x)}; PrecisionExhausted when x is indistinguishable from 0."""
    v = _nonzero_valuation(x)
    return v, x.div_pi_pow(v)


def unit_decompose(x):
    """Split x (nonzero at precision) as pi^n * omega^i * u, u in U^1."""
    n, y = split_unit(x)
    ctx = x.ctx
    i = ctx.kappa.dlog(y.residue())
    u = y * ctx.teichmuller_power(-i)
    lv = valuation(u - ctx.one)
    if lv < 1:
        raise InvariantFailed("x * pi^-n * omega^-i is not a principal unit")
    return UnitDecomposition(n, i, u)


def unit_level(u):
    """Largest r with u in U^r = 1 + m^r, i.e. v(u - 1).

    Returns M when u is indistinguishable from 1.
    Raises BadInput when v(u - 1) <= 0.
    """
    lv = valuation(u - u.ctx.one)
    if lv <= 0:
        raise BadInput("v(u-1) <= 0")
    return lv


def spanning_units(ctx, lo, hi):
    """The spanning set {1 + omega^a pi^s : lo <= s < hi, 0 <= a < d} of
    U^lo / U^hi (graded pieces are F_q-spaces spanned by omega^a pi^s)."""
    out = []
    one = ctx.one
    for s in range(lo, hi):
        pis = ctx.pi_pow(s)
        for a in range(ctx.d):
            out.append(one + ctx.teichmuller_power(a) * pis)
    return out


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
    if depth < 1:
        raise BadInput(f"depth = {depth} must be at least 1")
    if depth * ctx.e >= ctx.M:
        raise PrecisionExhausted("spanning depth exceeds working precision")
    if not t * ctx.p < ctx.M // 2:
        raise BadInput("no room at working precision for t*p")
    below = Fraction(t) <= ctx.e1
    required = ctx.p * t if below else t + ctx.e
    entries = []
    for idx, g in enumerate(spanning_units(ctx, t, t + depth)):
        s, a = divmod(idx, ctx.d)
        entries.append((t + s, a, unit_level(g ** ctx.p)))
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


def strip_pth_powers(u, stop):
    """(u*x^p, units, lead): multiply p-th powers into the principal unit
    u, level by level, until u*x^p lies in U^stop (lead None) or keeps a
    digit r at a level s < stop that no p-th power reaches (lead (s, r)),
    x the product of the level units in the list units, which is left to
    a caller that reads it.  The digit c at s is cleared as far as p-th
    powers reach it by (1 + [a] pi^t)^p, (a, t, m) = graded_pth_root(s,
    -c), which leaves -m; no inverse is taken, and each cleared level
    raises the level of u*x^p."""
    ctx = u.ctx
    one, p, neg = ctx.one, ctx.p, ctx.kappa.neg
    units = []
    while True:
        y = u - one
        s, c = lead(y) if not y.is_zero() else (stop, 0)
        if s >= stop:
            return u, units, None
        if s < 1:
            raise BadInput("strip_pth_powers needs a principal unit")
        a, t, missed = ctx.graded_pth_root(s, neg(c))
        if a:
            corr = ctx.level_unit(a, t)
            units.append(corr)
            u = u * corr ** p
        if missed:
            return u, units, (s, neg(missed))


def pth_root(w):
    """A p-th root x of the principal unit w, exact mod pi^M and unique up
    to mu_p(F), or None when w is no p-th power: the walk from w^-1 ends at
    1 (then x^p = w) or at a digit that no p-th power reaches."""
    _, units, stuck = strip_pth_powers(w.invert_unit(), w.ctx.M)
    return None if stuck else math.prod(units, start=w.ctx.one)


def pth_root_in_filtration(w, t):
    """A u in U^t with u^p = w, for w in U^{t+e} and t > e1.

    Above e1 the induced map on each graded piece is multiplication by the
    residue of p*pi^{-e}, a bijection, so pth_root finds u digit by digit.
    The answer is unique up to mu_p(F).  A w indistinguishable from 1 (level
    M) passes however far t + e lies above M.
    """
    ctx = w.ctx
    if t * (ctx.p - 1) <= ctx.e:
        raise BadInput(f"t = {t} is not above e1 = {ctx.e1}")
    lv = unit_level(w)
    if lv < min(t + ctx.e, ctx.M):
        raise BadInput(f"w has level {lv} < t + e = {t + ctx.e}")
    return pth_root(w)
