"""Brute-force norm-residue triviality oracle.

Decides whether x is a norm from L = F(y^{1/m}) (m = 2 or m = p) by finite
computation: L is realised explicitly as F[G]/(G^m - R(G)), one monic
relation chosen by the shape of y (totally ramified by a prime element,
ramified by a unit, or unramified), norms of a spanning set of
L^x/(L^x)^m U_L^{e(L/F)(H-1)+1} are pushed down to F in closed form (each
spanning element is v0 + v1 G^a, whose norm is a form in v0, v1 with the
elementary symmetric functions of the a-th powers of G's conjugates for
coefficients, from Newton's identities), and membership is solved by
Gaussian elimination in the elementary abelian quotient V = F^x/(F^x)^m.
Deeper units add nothing, since every conjugate of z has v_L(z):
v_F(N(1+z) - 1) >= v_L(z)/e(L/F).  The norms are generated one at a time
and inserted only until their span has rank _Reducer.norm_rank, one less
than dim V: by local class field theory the norm group has index m and
contains every m-th power, so it is a hyperplane of V, and each later norm
would reduce to nothing.

Every element is read once, as its coordinate vector in a fixed basis of
V, listed in the order a walk meets it: pi; omega when m = 2 and p is odd
(principal units are squares there, so that is all); otherwise the level
units 1 + [x^j] pi^s for each level s < p*e1 prime to p and each j < d
(x^j the power basis of kappa = F_p[x]/(gbar)), then 1 + [x^j] pi^{p*e1}
for each digit j that the image of phi (LocalFieldCtx.phi_span) leaves
free, the cokernel of the critical level.  localfield.strip_pth_powers
multiplies p-th powers into the unit part up to the first digit that they
do not reach, which sits at one of those levels: every digit of a level
divisible by p below p*e1 and of a level above it is reached, none of a
level below p*e1 prime to p, and the image of phi at p*e1.  The walk
records each F_p-digit c there as a coordinate and clears it by
multiplying in the basis unit's (m - c)-th power, kept once built in one
table per oracle, so nothing is inverted.  The walk ends in U^H, whose
elements are m-th powers by the p-power landing bounds, so x is the
product of the basis units raised to its coordinates, times an m-th power.
The basis has dim V elements (e*d + 2 when mu_p lies in F, 2 in the tame
case), so the coordinates are unique and additive: coords(xz) = coords(x)
+ coords(z) mod m, and an m-th power reads all zeros.

The norm group is then a row space: each spanning norm's vector is
inserted into echelon rows of ints mod m, and x is a norm iff its vector
reduces to zero.  A reduced vector can be nonzero only at the one column
that no row leads.  One memo, keyed by the flat tuple, holds the
coordinates of x and y alike, so a warm query reads neither.

Kummer norms are kept modulo m-th powers too: a norm drops the powers of
pi that keep its coefficients integral, so a level unit 1 + scale G^a pi^b
with b >= 0 keeps v0 = 1 and its norm is Horner in v1 alone, m products;
and no generator whose norm is an m-th power (pi^m when pi stays prime,
omega^m when kappa_L = kappa, the Teichmuller generator of kappa_L^x when
L is unramified of degree p) is built.  In the tame case (m = 2, odd p)
only the exponents of pi and omega are read, so unit parts are not
multiplied at all.
"""

from __future__ import annotations

from .errors import BadInput, InvariantFailed, PrecisionExhausted, Unsupported
from .finitefield import FiniteField, default_modulus
from .localfield import (
    LocalFieldCtx,
    cyclotomic_eisenstein,
    split_unit,
    strip_pth_powers,
    unit_decompose,
    valuation,
)

#: Most coordinate vectors one oracle remembers by x.flat or y.flat; the
#: memo is cleared when full, so warm queries on a few elements skip
#: class_key and memory stays bounded however many distinct ones a run
#: queries.
CLASS_KEY_MEMO = 256


# ---------------------------------------------------------------------------
# coordinates in F^x / (F^x)^m and elimination on them
# ---------------------------------------------------------------------------

class _Reducer:
    """Coordinates in a fixed basis of the F_m-space V = F^x/(F^x)^m
    (module docstring), and echelon rows of ints mod m over them."""

    def __init__(self, ctx: LocalFieldCtx, m: int):
        self.ctx = ctx
        self.m = m
        self.kappa = ctx.kappa
        p = ctx.p
        self.wild = m == p  # otherwise m = 2 and p is odd
        if not self.wild:
            self.H = 1  # principal units are 2-divisible for odd p
            self.basis = ["pi", "omega"]
            return
        if p != 2 and ctx.k < 1:
            raise Unsupported("mu_p is not contained in F")
        self.H = ctx.wild_level
        self.critical = p * ctx.e // (p - 1)  # mu_p in F: (p-1) | e
        reached = {row[1] for row in ctx.phi_span.rows}
        self.basis = ["pi"] + [
            (s, j) for s in range(1, self.critical) if s % p
            for j in range(ctx.d)] + [
            (self.critical, j) for j in range(ctx.d) if j not in reached]
        self._column = {pos: col for col, pos in enumerate(self.basis)}
        self._powers = {}  # (column, k) -> the column's basis unit ^ k

    @property
    def norm_rank(self):
        """The F_m-rank of N(L^x) in V for a cyclic L/F of degree m, dim V
        - 1.  By local class field theory N(L^x) has index [L:F] = m in F^x
        and contains (F^x)^m (Fesenko-Vostokov, Local Fields and Their
        Extensions, Ch. IV), so its image is a hyperplane.  dim V is
        [F:Q_p] + 2 when mu_p is in F (m = p, and m = 2 at p = 2) and 2 for
        m = 2 at odd p, the length of the basis either way."""
        return len(self.basis) - 1

    def power(self, col, k):
        """The level unit at column col of the basis, raised to k; a higher
        power is taken of the unit from the table, not rebuilt."""
        unit = self._powers.get((col, k))
        if unit is None:
            if k > 1:
                unit = self.power(col, 1) ** k
            else:
                s, j = self.basis[col]
                unit = self.ctx.level_unit(self.kappa.pack([0] * j + [1]), s)
            self._powers[col, k] = unit
        return unit

    def coordinates(self, x):
        """The coordinate vector of the class of x in the basis, a tuple of
        ints mod m; all zeros iff x is an m-th power."""
        v = valuation(x)
        if self.ctx.M - v <= self.H:
            # dividing by pi^v leaves fewer certified digits than the
            # walk needs to read; an element that reads zero has v = M
            raise PrecisionExhausted(
                f"valuation {v} leaves no certified digits below level "
                f"{self.H}")
        dec = unit_decompose(x)
        if not self.wild:
            return dec.n % 2, dec.i % 2
        # gcd(p, q-1) = 1: omega is a p-th power and has no column
        coords = [dec.n % self.m] + [0] * (len(self.basis) - 1)
        u = dec.u
        while True:
            u, _, stuck = strip_pth_powers(u, self.H)
            if stuck is None:
                return tuple(coords)
            s, digit = stuck
            for j, c in enumerate(self.kappa.digits(digit)):
                if c:
                    col = self._column[s, j]
                    coords[col] = c
                    u = u * self.power(col, self.m - c)

    def reduce(self, rows, vec):
        """vec minus the combination of the echelon rows that clears every
        column a row leads; rows are (lead, row) in the order inserted, with
        row[lead] = 1 and row zero at the lead of every earlier row."""
        m = self.m
        for lead, row in rows:
            c = vec[lead]
            if c:
                vec = [(a - c * b) % m for a, b in zip(vec, row)]
        return vec

    def insert(self, rows, vec):
        """Add vec to the span of rows, keeping them in echelon form."""
        vec = self.reduce(rows, vec)
        lead = next((col for col, c in enumerate(vec) if c), None)
        if lead is not None:
            inv = pow(vec[lead], -1, self.m)
            rows.append((lead, tuple(c * inv % self.m for c in vec)))


# ---------------------------------------------------------------------------
# explicit Kummer extensions and their norms
# ---------------------------------------------------------------------------

class _Kummer:
    """L = F[G]/(G^m - R(G)) for a monic degree-m relation over F, with
    v_L(G) = lam.  A lam coprime to m makes L totally ramified (lam = 1 for
    a prime element, the unit level for the relation (1+G)^p = y); lam = 0
    makes it unramified, the relation reducing to an irreducible polynomial
    over kappa = F_p whose root G generates kappa_L.  In the G-power basis
    v_L(sum w_j G^j) = min_j (e(L/F) v_F(w_j) + j lam).

    Every element whose norm is taken has the form v0 + v1 G^a, so its norm
    is prod_i (v0 + v1 r_i^a) over the conjugates r_i of G, a form in v0, v1
    whose coefficients are the elementary symmetric functions of the r_i^a.
    Those come from the power sums of the r_i by Newton's identities, which
    divide only by k < m, a unit; the identity holds in every commutative
    ring, so the norm is exact in O/p^N."""

    def __init__(self, ctx, m, rhs, lam):
        self.ctx = ctx
        self.m = m
        self.ram_index = m if lam else 1  # e(L/F)
        self.rhs = rhs  # list of m FElems: G^m = sum rhs[j] G^j
        self.lam = lam
        # the power sums S_n of the r_i for n <= (m-1)^2, by the division-
        # free S_n = n R_{m-n} + sum_{i < n} R_{m-i} S_{n-i} over the
        # nonzero R_j (the first term only for n <= m): Newton's identities
        # up to m, the relation itself above
        terms = [(m - j, r) for j, r in enumerate(rhs) if not r.is_zero()]
        sums = [ctx.from_int(m)]
        for n in range(1, (m - 1) ** 2 + 1):
            acc = ctx.zero
            for i, r in terms:
                if i < n and not sums[n - i].is_zero():
                    acc = acc + r * sums[n - i]
                elif i == n:
                    acc = acc + r * n
            sums.append(acc)
        # e_0, ..., e_m of the r_i^a, whose power sums are S_0, S_a, S_2a,
        # ...; e_m = N(G)^a, with N(G) = (-1)^(m+1) R_0
        top = rhs[0] if m % 2 else -rhs[0]
        self._elementary = [None] + [self._newton(sums[::a], top ** a)
                                     for a in range(1, m)]

    def _newton(self, power_sums, last):
        """e_0, ..., e_m from power_sums[i] = P_i by Newton's identities k e_k
        = sum_{i=1}^k (-1)^(i-1) e_{k-i} P_i for k < m, which divide only
        by a unit k; e_m = last."""
        ctx = self.ctx
        e = [ctx.one]
        for k in range(1, self.m):
            acc = ctx.zero
            for i in range(1, k + 1):
                if power_sums[i].is_zero() or e[k - i].is_zero():
                    continue
                term = e[k - i] * power_sums[i]
                acc = acc + term if i % 2 else acc - term
            e.append(acc * pow(k, -1, ctx.mod))
        return e + [last]

    def norm(self, v0, v1, a):
        """N_{L/F}(v0 + v1 G^a) = sum_j e_j v1^j v0^(m-j), by Horner in v1
        with the powers of v0 riding along.  v0 = None stands for 1, whose
        powers are not multiplied: the norm is then m products, not 3m.  A
        zero v0 leaves the one term e_m v1^m."""
        m = self.m
        if a == 0:
            return ((self.ctx.one if v0 is None else v0) + v1) ** m
        e = self._elementary[a]
        if v0 is not None and v0.is_zero():
            return e[m] * v1 ** m
        acc, v0_pow = e[m], None  # None: v0^(m-j) is 1
        for j in range(m - 1, -1, -1):
            acc = acc * v1
            if v0 is not None:
                v0_pow = v0 if v0_pow is None else v0_pow * v0
            if not e[j].is_zero():
                acc = acc + (e[j] if v0_pow is None else e[j] * v0_pow)
        return acc

    def _level_element(self, s, c, scale, plus_one):
        """(v0, v1, a + c) with v0 + v1 G^(a+c) = pi^max(-b,0) (plus_one +
        scale G^c G^a pi^b), G^a pi^b the monomial of valuation s; c > 0
        only when G is a unit.  The power of pi keeps v0 and v1 integral
        and multiplies the norm by an m-th power; v0 is None when it is 1
        (plus_one and b >= 0), as norm reads it."""
        ctx, m, lam = self.ctx, self.m, self.lam
        a = s * pow(lam, -1, m) % m if lam else 0
        b = (s - a * lam) // self.ram_index
        v1 = scale * ctx.pi_pow(b) if b > 0 else scale
        if not plus_one:
            return ctx.zero, v1, a + c
        return ctx.pi_pow(-b) if b < 0 else None, v1, a + c

    def spanning_norms(self, high):
        """Yield, one at a time and modulo m-th powers, the norms of a
        spanning set of L^x modulo (L^x)^m U_L^high: a prime element of L,
        a unit whose residue generates kappa_L^x when kappa_L is bigger
        than kappa and m = 2, and the units 1 + b pi_L^s for b over an
        F_p-basis of kappa_L and 1 <= s < high, in that order.  The rest of
        the set, pi when it stays prime, omega when kappa_L = kappa and the
        generator of kappa_L^x when m = p, has an m-th power for norm.  A
        consumer that stops early computes no later norm."""
        ctx, m = self.ctx, self.m
        if self.lam:
            # kappa_L = kappa: N(omega) = omega^m, basis omega^c
            yield self.norm(*self._level_element(1, 0, ctx.one, False))
            basis = [(0, ctx.teichmuller_power(c)) for c in range(ctx.d)]
        else:
            # N(pi) = pi^m, and kappa_L = F_p[G]/(G^m - R(G)) has the basis
            # 1, G, ..., G^(m-1).  A digit lift of the generator of
            # kappa_L^x differs from its Teichmuller lift by a principal
            # unit, whose norm the level units already span; at m = p the
            # Teichmuller lift has order prime to p, so its norm is a p-th
            # power and the generator adds nothing
            if m != ctx.p:
                kappa = FiniteField(ctx.p,
                                    [-r.residue() for r in self.rhs] + [1])
                g0, g1 = (ctx.from_int(c)
                          for c in kappa.digits(kappa.generator()))
                yield self.norm(g0, g1, 1)
            basis = [(c, ctx.one) for c in range(m)]
        for s in range(1, high):
            for c, scale in basis:
                yield self.norm(*self._level_element(s, c, scale, True))


def _unramified_kummer(ctx, m):
    """The unramified degree-m extension of F (prime residue field only),
    by a relation that stays irreducible over kappa = F_p: for m = p the
    Artin-Schreier relation G^p = G + 1, for m = 2 the default modulus of
    F_{p^2}."""
    if ctx.d != 1:
        raise Unsupported(
            "unramified splitting is implemented over prime residue "
            "fields only")
    if m == ctx.p:
        rhs = [ctx.one, ctx.one] + [ctx.zero] * (m - 2)
    else:
        rhs = [ctx.from_int(-c) for c in default_modulus(ctx.p, m)[:m]]
    return _Kummer(ctx, m, rhs, lam=0)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

class NormResidueOracle:
    """Per-(F, m) oracle; pivots are cached by the coordinates of y (the
    extension depends on y only modulo m-th powers)."""

    def __init__(self, ctx, m):
        self.ctx = ctx
        self.m = int(m)
        if self.m not in (2, ctx.p):
            raise BadInput("m must be 2 or the residue characteristic")
        self.reducer = _Reducer(ctx, self.m)
        self._pivot_cache = {}
        self._keys = {}  # elem.flat -> class_key(elem), at most CLASS_KEY_MEMO

    def class_key(self, y):
        """The coordinate vector of y: all zeros iff y is an m-th power."""
        return self.reducer.coordinates(y)

    def _coordinates(self, elem):
        """class_key(elem), read once while elem.flat stays in the memo."""
        key = self._keys.get(elem.flat)
        if key is None:
            if len(self._keys) >= CLASS_KEY_MEMO:
                self._keys.clear()
            key = self._keys[elem.flat] = self.class_key(elem)
        return key

    def _build_extension(self, key, y):
        ctx, m, red = self.ctx, self.m, self.reducer
        if key[0]:
            # totally ramified: for y = pi^v u_y and c = v^-1 mod m, y^c is
            # u_y^c pi times an m-th power of pi, a prime element
            v, u_y = split_unit(y)
            rhs = [ctx.zero] * m
            rhs[0] = u_y ** pow(v, -1, m) * ctx.pi
            return _Kummer(ctx, m, rhs, lam=1)
        if not red.wild:
            # odd p, m = 2, unit class: only the omega coordinate survives,
            # so L is the unramified quadratic extension
            return _unramified_kummer(ctx, 2)
        # wild unit class: the walk stops below p*e1 only at levels prime
        # to p, and a class leading at the critical level is unramified
        lead = next(col for col, c in enumerate(key) if c)
        lam, _ = red.basis[lead]
        if lam == red.critical:
            return _unramified_kummer(ctx, m)
        y_red = ctx.one
        for col, c in enumerate(key):
            if c:
                y_red = y_red * red.power(col, c)
        # relation (1+G)^p = y_red: (1+G)^p - 1 is G times the Eisenstein
        # polynomial of Q_p(zeta_p), whose lead is 1
        rhs = [y_red - ctx.one] + [ctx.from_int(-c) for c in
                                   cyclotomic_eisenstein(ctx.p)[:-1]]
        return _Kummer(ctx, m, rhs, lam=lam)

    def _pivots_for(self, y):
        key = self._coordinates(y)
        if not any(key):
            return None  # y is an m-th power: L = F, everything is a norm
        if key not in self._pivot_cache:
            ext = self._build_extension(key, y)
            red = self.reducer
            rows = []
            # norms from U_L^high lie in U_F^H (module docstring); once the
            # rows reach the norm group's rank, no later norm is computed
            high = ext.ram_index * (red.H - 1) + 1
            for elem in ext.spanning_norms(high):
                red.insert(rows, red.coordinates(elem))
                if len(rows) == red.norm_rank:
                    break
            else:
                raise InvariantFailed(
                    f"the spanning norms reach rank {len(rows)}, below the "
                    f"norm group's rank {red.norm_rank}")
            self._pivot_cache[key] = rows
        return self._pivot_cache[key]

    def trivial(self, x, y):
        if x.is_zero() or y.is_zero():
            raise BadInput("norm-residue oracle needs nonzero inputs")
        rows = self._pivots_for(y)
        if rows is None:
            return True
        return not any(self.reducer.reduce(rows, self._coordinates(x)))


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
