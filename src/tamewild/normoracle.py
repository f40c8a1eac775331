"""Brute-force norm-residue triviality oracle.

Decides whether x is a norm from L = F(y^{1/m}) (m = 2 or m = p) by finite
computation: L is realised explicitly (split by the shape of y into
totally-ramified, ramified-by-unit and unramified cases), norms of a
spanning set of L^x/(L^x)^m U_L^{e(L/F)(H-1)+1} are pushed down to F, and
membership is solved by filtered Gaussian elimination in the elementary
abelian quotient F^x/(F^x)^m U_F^H.  Deeper units add nothing, since every
conjugate of z has v_L(z): v_F(N(1+z) - 1) >= v_L(z)/e(L/F).

The quotient is handled through a constructive normal form.  The p-power
map sends the graded piece at level t to level p*t (Frobenius twist,
t < e1), to level t+e (multiplication by the residue of p*pi^{-e}, t > e1),
and at the critical level t = e1 acts by the F_p-linear map
a -> a^p + rho*a, whose image is divided off and whose cokernel is one
extra coordinate.  Digits surviving elimination (fundamental levels and the
cokernel) are canonical coordinates; U_F^H consists of m-th powers by the
p-power landing bounds, so an empty normal form certifies an m-th power.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    PRECISION_EXHAUSTED,
    BadInput,
    InvariantFailed,
    PrecisionExhausted,
    UnsupportedSplitting,
    ZeroInput,
)
from .finitefield import GF, FiniteField
from .localfield import FElem, LocalFieldCtx, PadicCtx, hensel_root, valuation


# ---------------------------------------------------------------------------
# F_p-echelon of residue-field digits, with witness combinations
# ---------------------------------------------------------------------------

class _DigitSpan:
    """Echelonized F_p-span of kappa-elements (as F_p^d digit vectors); rows
    carry witness data, reductions report the combination used."""

    def __init__(self, kappa):
        self.kappa = kappa
        self.p = kappa.p
        self.rows = []  # (vec, pivot digit index, its inverse, witness)

    def reduce(self, vec):
        """(residual, combo) with combo = [(witness, scale), ...] such that
        vec = residual + sum scale * row_vec."""
        k = self.kappa
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
            raise ValueError("cannot insert a zero row")
        piv, lead = next((i, c) for i, c in enumerate(self.kappa.digits(vec))
                         if c)
        self.rows.append((vec, piv, pow(lead, -1, self.p), witness))


class _Pivots:
    """Echelon data for a generated subgroup of the class quotient."""

    __slots__ = ("special", "spans")

    def __init__(self):
        self.special = {}  # ("pi",) -> (lead, state); ("omega",) likewise
        self.spans = {}    # ("level"|"coker", s) -> _DigitSpan of states


class _ClassState:
    """A running class representative pi^n omega^i u, u a principal unit."""

    __slots__ = ("n", "i", "u")

    def __init__(self, n, i, u):
        self.n = n
        self.i = i
        self.u = u

    def copy(self):
        return _ClassState(self.n, self.i, self.u)


# ---------------------------------------------------------------------------
# constructive reduction in F^x / (F^x)^m U^H
# ---------------------------------------------------------------------------

class _Reducer:
    def __init__(self, ctx: LocalFieldCtx, m: int):
        self.ctx = ctx
        self.m = m
        self.kappa = ctx.base.kappa
        p = ctx.p
        if m == 2 and p != 2:
            self.wild = False
            self.H = 1  # principal units are 2-divisible for odd p
        elif m == p:
            self.wild = True
            if p != 2 and ctx.k < 1:
                raise BadInput("mu_p is not contained in F")
            self.H = math.floor(p * ctx.e1 + (ctx.k - 1) * ctx.e) + 1
            self.critical = (int(p * ctx.e1)
                             if ctx.e1.denominator == 1 else None)
            self.rho = ctx.rho
            self.rho_inv = self.kappa.inv(self.rho)
            self._phi_span = self._build_phi_span()
        else:
            raise BadInput(f"m must be 2 or p = {p}")

    # -- graded p-power machinery (wild case) -------------------------------

    def _phi(self, a):
        k = self.kappa
        return k.add(k.pow(a, self.ctx.p), k.mul(self.rho, a))

    def _build_phi_span(self):
        k = self.kappa
        span = _DigitSpan(k)
        gen = k.generator() if self.ctx.d > 1 else k.one
        basis = [k.pow(gen, j) for j in range(self.ctx.d)]
        for a in basis:
            img = self._phi(a)
            residual, combo = span.reduce(img)
            if residual != k.zero:
                wit = a
                for prev_a, scale in combo:
                    wit = k.sub(wit, k.scale(prev_a, scale))
                span.insert(residual, wit)
        return span

    def _eliminate_step(self, u, s, c):
        """Divide an m-th power off u to kill (part of) the digit c at level
        s; returns (new u, surviving digit or None)."""
        ctx, k = self.ctx, self.kappa
        p = ctx.p
        if s % p == 0 and s >= p and Fraction(s, p) < ctx.e1:
            a = k.pow(c, ctx.q // p)  # Frobenius inverse: a^p = c
            corr = ctx.one + ctx.lift_residue(a) * ctx.pi ** (s // p)
            return u * (corr ** p).invert_unit(), None
        if Fraction(s) > ctx.e1 + ctx.e:
            a = k.mul(c, self.rho_inv)
            corr = ctx.one + ctx.lift_residue(a) * ctx.pi ** (s - ctx.e)
            return u * (corr ** p).invert_unit(), None
        if self.critical is not None and s == self.critical:
            residual, combo = self._phi_span.reduce(c)
            if combo:
                a = k.zero
                for wit, scale in combo:
                    a = k.add(a, k.scale(wit, scale))
                t = int(ctx.e1)
                corr = ctx.one + ctx.lift_residue(a) * ctx.pi ** t
                u = u * (corr ** p).invert_unit()
            return u, (residual if residual != k.zero else None)
        return u, c  # fundamental level: the digit survives

    def _position(self, s):
        return ("coker" if s == self.critical else "level", s)

    # -- class states --------------------------------------------------------

    def decompose(self, x, shift=0):
        if x.is_zero():
            raise ZeroInput("zero element has no class")
        v = valuation(x)
        if v is PRECISION_EXHAUSTED:
            raise ZeroInput("element indistinguishable from 0")
        if self.ctx.M - v <= self.H:
            # dividing by pi^v leaves fewer certified digits than the
            # reduction needs to read
            raise PrecisionExhausted(
                f"valuation {v} leaves no certified digits below level "
                f"{self.H}")
        y = x.div_pi_pow(v) if v else x
        i = self.kappa.dlog(y.residue())
        u = y * self.ctx.teichmuller_power(-i)
        return _ClassState(v - shift, i, u)

    def _divide(self, st, piv, j):
        j %= self.m
        if j == 0:
            return
        st.n -= j * piv.n
        st.i -= j * piv.i
        st.u = st.u * piv.u ** (-j)

    # -- the normal form -----------------------------------------------------

    def normal_form(self, st, pivots=None, collect=None):
        """Reduce a class state modulo (F^x)^m U^H and the pivot subgroup.

        Returns None when the state reduces to triviality; otherwise the
        leading irreducible (position, digit, state).  With a `collect`
        list, surviving digits are recorded and divided off literally,
        producing the full canonical coordinate list (pivots=None then
        yields class-intrinsic coordinates).
        """
        ctx, m = self.ctx, self.m
        st.n %= m
        if st.n:
            handled = pivots is not None and self._solve_pi(st, pivots)
            if not handled:
                if collect is None:
                    return (("pi",), st.n, st)
                collect.append((("pi",), st.n))
                st.n = 0
        if self.wild:
            st.i = 0  # gcd(p, q-1) = 1: omega powers are p-th powers
        else:
            st.i %= 2  # q-1 is even for odd p
        if st.i:
            handled = pivots is not None and self._solve_omega(st, pivots)
            if not handled:
                if collect is None:
                    return (("omega",), st.i, st)
                collect.append((("omega",), st.i))
                st.i = 0
        if not self.wild:
            return None  # principal units are all squares here
        guard = 0
        while True:
            guard += 1
            if guard > self.H + ctx.M:  # pragma: no cover
                raise InvariantFailed("unit reduction did not terminate")
            lv = valuation(st.u - ctx.one)
            if lv is PRECISION_EXHAUSTED or lv >= self.H:
                return None
            c = (st.u - ctx.one).div_pi_pow(lv).residue()
            st.u, surviving = self._eliminate_step(st.u, lv, c)
            if surviving is None:
                continue
            pos = self._position(lv)
            if pivots is not None:
                cleared, surviving = self._solve_digit(st, pos, surviving,
                                                       pivots)
                if cleared:
                    continue
            if collect is None:
                return (pos, surviving, st)
            collect.append((pos, surviving))
            corr = ctx.one + ctx.lift_residue(surviving) * ctx.pi ** lv
            st.u = st.u * corr.invert_unit()

    def full_normal_form(self, x, shift=0):
        """Canonical coordinates of the class of x; empty iff x is an m-th
        power (modulo U^H, hence on the nose)."""
        coords = []
        self.normal_form(self.decompose(x, shift), pivots=None,
                         collect=coords)
        return coords

    # -- pivot solving and insertion ------------------------------------------

    def _solve_pi(self, st, pivots):
        entry = pivots.special.get(("pi",))
        if entry is None:
            return False
        n0, piv = entry
        j = st.n * pow(n0, -1, self.m) % self.m
        self._divide(st, piv, j)
        st.n %= self.m
        return True

    def _solve_omega(self, st, pivots):
        entry = pivots.special.get(("omega",))
        if entry is None:
            return False
        _, piv = entry
        self._divide(st, piv, st.i % 2)
        st.i %= 2
        return True

    def _solve_digit(self, st, pos, digit, pivots):
        span = pivots.spans.get(pos)
        if span is None:
            return False, digit
        residual, combo = span.reduce(digit)
        for piv, scale in combo:
            self._divide(st, piv, scale)
        if not residual:
            return True, None
        return False, residual

    def insert_generator(self, pivots, x, shift=0):
        st = self.decompose(x, shift)
        lead = self.normal_form(st, pivots=pivots)
        if lead is None:
            return
        pos, digit, st = lead
        if pos == ("pi",):
            pivots.special[pos] = (st.n, st.copy())
        elif pos == ("omega",):
            pivots.special[pos] = (st.i, st.copy())
        else:
            span = pivots.spans.setdefault(pos, _DigitSpan(self.kappa))
            span.insert(digit, st.copy())

    def is_member(self, pivots, x, shift=0):
        st = self.decompose(x, shift)
        return self.normal_form(st, pivots=pivots) is None


# ---------------------------------------------------------------------------
# explicit Kummer extensions and their norms
# ---------------------------------------------------------------------------

def _felem_det(ctx, mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = ctx.zero
    for j in range(n):
        c = mat[0][j]
        if c.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = c * _felem_det(ctx, minor)
        acc = acc - term if j % 2 else acc + term
    return acc


class _RamifiedKummer:
    """L = F(G) with a monic degree-m relation G^m = R(G) over F and
    v_L(G) = lam coprime to m (lam = 1 for a prime element, the unit level
    for the relation (1+G)^p = y).  Elements are G-power coefficient vectors
    with an optional pi^{-shift} scaling; in this basis
    v_L(sum w_j G^j) = min_j (m v_F(w_j) + j lam)."""

    def __init__(self, ctx, m, rhs, lam):
        self.ctx = ctx
        self.m = m
        self.ram_index = m  # e(L/F)
        self.rhs = rhs  # list of m FElems: G^m = sum rhs[j] G^j
        self.lam = lam

    def norm(self, vec, shift=0):
        """N_{L/F} as the determinant of the multiplication matrix in the
        G-power basis; returns (FElem, F-side shift)."""
        cols = [list(vec)]
        for _ in range(self.m - 1):
            prev = cols[-1]
            top = prev[-1]
            shifted = [self.ctx.zero] + prev[:-1]
            if not top.is_zero():
                for j in range(self.m):
                    shifted[j] = shifted[j] + top * self.rhs[j]
            cols.append(shifted)
        mat = [[cols[j][i] for j in range(self.m)] for i in range(self.m)]
        return _felem_det(self.ctx, mat), self.m * shift

    def _level_element(self, s, scale=None):
        """A monomial G^a pi^b (as (vec, shift)) of valuation s, optionally
        scaled by a unit."""
        ctx, m, lam = self.ctx, self.m, self.lam
        a = s * pow(lam, -1, m) % m
        b = (s - a * lam) // m
        vec = [ctx.zero] * m
        base = ctx.one if scale is None else scale
        if b >= 0:
            vec[a] = base * ctx.pi ** b
            return vec, 0
        vec[a] = base
        return vec, -b

    def spanning_norms(self, high):
        """Norms of a pi_L generator, omega, and units 1 + omega^c (level-s
        monomial) covering U_L levels 1..high-1."""
        ctx = self.ctx
        out = []
        vec, shift = self._level_element(1)
        out.append(self.norm(vec, shift))
        out.append((ctx.teichmuller_power(self.m), 0))  # N(omega) = omega^m
        for s in range(1, high):
            for c in range(ctx.d):
                om = ctx.teichmuller_power(c)
                vec, shift = self._level_element(s, scale=om)
                vec[0] = vec[0] + (ctx.one if shift == 0
                                   else ctx.pi ** shift)
                out.append(self.norm(vec, shift))
        return out


class _UnramifiedKummer:
    """L = F . F0' for the unramified degree-m extension F0' (base d = 1
    only): the same Eisenstein polynomial over the larger unramified ring,
    with norms computed as products of Frobenius conjugates."""

    def __init__(self, ctx, m):
        if ctx.d != 1:
            raise UnsupportedSplitting(
                "unramified splitting is implemented over prime residue "
                "fields only")
        self.ctx = ctx
        self.m = m
        self.ram_index = 1  # e(L/F)
        big = PadicCtx(ctx.p, ctx.N, m)
        # the residue field as a tower over F_p: the same digits and
        # generator, but Euclid inverses and no tables (q = p^p is 823543
        # at p = 7, above MAX_Q, and already at p = 5 the tables would cost
        # more than the whole extension)
        big.kappa = FiniteField(GF(ctx.p), big.kappa.modulus)
        L = self.big_field = LocalFieldCtx(big, list(ctx.f))
        # Frobenius on the big unramified ring: theta -> the root of g
        # congruent to theta^p, extended to coefficient vectors
        theta = L.monomial(0, [0, 1] + [0] * (m - 2))
        root = hensel_root(list(big.g), theta ** ctx.p)
        self._root_rows = [(root ** j).flat[:m] for j in range(m)]
        self.big = big

    def _frob(self, z):
        """Frobenius on each block of z: sum c_j theta^j -> sum c_j root^j."""
        m, mod, rows = self.m, self.big.mod, self._root_rows
        out = []
        for i in range(0, len(z.flat), m):
            block = z.flat[i:i + m]
            out.extend(sum(c * row[t] for c, row in zip(block, rows)) % mod
                       for t in range(m))
        return FElem(self.big_field, tuple(out))

    def norm(self, z):
        acc = w = z
        for _ in range(self.m - 1):
            w = self._frob(w)
            acc = acc * w
        m = self.m
        if any(c for i, c in enumerate(acc.flat) if i % m):
            raise UnsupportedSplitting("norm did not descend to F")
        return FElem(self.ctx, acc.flat[::m]), 0

    def spanning_norms(self, high):
        L = self.big_field
        out = [(self.ctx.pi ** self.m, 0)]  # pi stays prime; N(pi) = pi^m
        out.append(self.norm(L.omega))
        for s in range(1, high):
            pis = L.pi ** s
            for c in range(self.m):
                out.append(self.norm(L.one + L.teichmuller_power(c) * pis))
        return out


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

class NormResidueOracle:
    """Per-(F, m) oracle; pivots are cached by the canonical class of y
    (the extension depends on y only modulo m-th powers)."""

    def __init__(self, ctx, m):
        self.ctx = ctx
        self.m = int(m)
        if self.m not in (2, ctx.p):
            raise BadInput("m must be 2 or the residue characteristic")
        self.reducer = _Reducer(ctx, self.m)
        self._pivot_cache = {}

    def class_key(self, y):
        return tuple(self.reducer.full_normal_form(y))

    def _build_extension(self, coords, y):
        ctx, m = self.ctx, self.m
        npart = dict(coords).get(("pi",), 0)
        if npart % m:
            # totally ramified: normalise to a prime element y'' ~ y^c
            v = valuation(y)
            u_y = y.div_pi_pow(v) if v else y
            nprime = v % m
            yprime = u_y * ctx.pi ** nprime
            c = pow(nprime, -1, m)
            t = (nprime * c - 1) // m
            ydouble = (yprime ** c).div_pi_pow(m * t) if t else yprime ** c
            if valuation(ydouble) != 1:
                raise UnsupportedSplitting("y normalised to a non-prime "
                                           "element")
            rhs = [ctx.zero] * m
            rhs[0] = ydouble
            return _RamifiedKummer(ctx, m, rhs, lam=1)
        if not self.reducer.wild:
            # odd p, m = 2, unit class: only the omega coordinate survives,
            # so L is the unramified quadratic extension
            return _UnramifiedKummer(ctx, 2)
        # wild unit class: rebuild the canonical unit representative
        unit_coords = [(pos, dig) for pos, dig in coords if pos != ("pi",)]
        lead_pos, _ = unit_coords[0]
        if lead_pos[0] == "coker":
            return _UnramifiedKummer(ctx, m)
        y_red = ctx.one
        for (kind, s), dig in unit_coords:
            y_red = y_red * (ctx.one
                             + ctx.lift_residue(dig) * ctx.pi ** s)
        lam = lead_pos[1]
        if lam % ctx.p == 0:
            raise UnsupportedSplitting(f"fundamental level {lam} is "
                                       f"divisible by p")
        rhs = [ctx.zero] * m  # relation (1+G)^p = y_red
        rhs[0] = y_red - ctx.one
        for j in range(1, m):
            rhs[j] = ctx.from_int(-math.comb(ctx.p, j))
        return _RamifiedKummer(ctx, m, rhs, lam=lam)

    def _pivots_for(self, y):
        key = self.class_key(y)
        if not key:
            return None  # y is an m-th power: L = F, everything is a norm
        if key not in self._pivot_cache:
            ext = self._build_extension(list(key), y)
            pivots = _Pivots()
            # norms from U_L^high lie in U_F^H (module docstring)
            high = ext.ram_index * (self.reducer.H - 1) + 1
            for elem, shift in ext.spanning_norms(high):
                self.reducer.insert_generator(pivots, elem, shift)
            self._pivot_cache[key] = pivots
        return self._pivot_cache[key]

    def trivial(self, x, y):
        if x.is_zero() or y.is_zero():
            raise ZeroInput("norm-residue oracle needs nonzero inputs")
        pivots = self._pivots_for(y)
        if pivots is None:
            return True
        return self.reducer.is_member(pivots, x)


def norm_residue_trivial(x, y, m):
    """True iff x is a norm from F(y^{1/m}), equivalently the m-Hilbert
    symbol (x, y)_m is trivial.  An m-th-power y is detected first (the
    extension is trivial and the answer is True)."""
    ctx = x.ctx
    key = ("norm_oracle", m)
    oracle = ctx._cache.get(key)
    if oracle is None:
        oracle = ctx._cache[key] = NormResidueOracle(ctx, m)
    return oracle.trivial(x, y)
