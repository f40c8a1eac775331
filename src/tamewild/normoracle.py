"""Brute-force norm-residue triviality oracle.

Decides whether x is a norm from L = F(y^{1/m}) (m = 2 or m = p) by finite
computation: L is realised explicitly as F[G]/(G^m - R(G)), one monic
relation chosen by the shape of y (totally ramified by a prime element,
ramified by a unit, or unramified), norms of a spanning set of
L^x/(L^x)^m U_L^{e(L/F)(H-1)+1} are pushed down to F in closed form, and
membership is solved by Gaussian elimination in the elementary abelian
quotient V = F^x/(F^x)^m.  H is p*e1 + 1 for m = p, above which every unit
is a p-th power, and 1 for m = 2 at odd p.  Deeper units add nothing,
since every conjugate of z has v_L(z): v_F(N(1+z) - 1) >= v_L(z)/e(L/F).

Each spanning element is v0 + v1 G^a, whose norm is a form in v0, v1 with
the elementary symmetric functions e_k of the a-th powers of G's
conjugates for coefficients.  Only the relation's constant R_0 is an
FElem; its other coefficients are ints, so each e_k is a polynomial in R_0
with integer coefficients that depend only on the relation's shape (m,
R_1, ..., R_{m-1}) and p^N.  Those integer-polynomial tables come from the
power sums of the conjugates and Newton's identities, computed once per
shape and kept in a bounded memo (KUMMER_TABLE_MEMO); each extension
evaluates them at its own R_0 from R_0's first m powers.

The norms are generated one at a time and inserted only until their span
has rank NormResidueOracle.norm_rank, one less than dim V: by local class
field theory the norm group has index m and contains every m-th power, so
it is a hyperplane of V, and each later norm would reduce to nothing.

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
table per oracle, so nothing is inverted.  The walk ends in U^H =
U^{p*e1+1}, whose elements are p-th powers, so x is the product of the
basis units raised to its coordinates, times an m-th power; the walk
multiplies no root together, since nothing reads it.  The basis has dim V
elements (e*d + 2 when mu_p lies in F, 2 in the tame case), so the
coordinates are unique and additive: coords(xz) = coords(x) + coords(z)
mod m, and an m-th power reads all zeros.

The norm group is then a row space: each spanning norm's vector is
inserted into echelon rows of ints mod m (finitefield.echelon_insert), and
x is a norm iff its vector reduces to zero.  A reduced vector can be
nonzero only at the one column that no row leads.  One memo, keyed by the
flat tuple, holds the coordinates of x and y alike, so a warm query reads
neither.

Kummer norms are kept modulo m-th powers too: a norm drops the powers of
pi that keep its coefficients integral, so a level unit 1 + scale G^a pi^b
with b >= 0 keeps v0 = 1 and its norm is Horner in v1 alone, m products;
and no generator whose norm is an m-th power (pi^m when pi stays prime,
omega^m when kappa_L = kappa, the Teichmuller generator of kappa_L^x when
L is unramified of degree p) is built.  In the tame case (m = 2, odd p)
only the exponents of pi and omega are read, v(x) and the discrete log of
x's leading digit (localfield.lead), so unit parts are not multiplied at
all.
"""

from __future__ import annotations

import functools

from .errors import BadInput, InvariantFailed, PrecisionExhausted, Unsupported
from .finitefield import (
    FiniteField,
    default_modulus,
    echelon_insert,
    echelon_reduce,
)
from .localfield import (
    FElem,
    cyclotomic_eisenstein,
    lead,
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

#: Most relation shapes (m, tail, p^N) whose integer tables of elementary
#: symmetric functions (_elementary_table) the process keeps, the least
#: recently used dropped first.  A field at one precision has at most four
#: shapes (a prime element, a wild unit class, the unramified m = 2 and
#: m = p); at p <= 17 a table is below 0.1 MB, at p = 41, N = 64 it holds
#: 1.3 MB and takes 1 s of CPU (CPython 3.11, Intel Xeon).
KUMMER_TABLE_MEMO = 16


# ---------------------------------------------------------------------------
# explicit Kummer extensions and their norms
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=KUMMER_TABLE_MEMO)
def _elementary_table(m, tail, mod):
    """For the relation G^m = T + sum_{j>=1} tail[j-1] G^j, its constant T
    an indeterminate: for each a = 1, ..., m - 1, the coefficient lists in T
    (lowest degree first, no trailing zeros) of e_0, ..., e_{m-1}, the
    elementary symmetric functions of the a-th powers of G's conjugates r_i,
    in Z[T] mod `mod`.

    The power sums S_n of the r_i for n <= (m-1)^2 come from the division-
    free S_n = n R_{m-n} + sum_{i < n} R_{m-i} S_{n-i} over the nonzero R_j
    (the first term only for n <= m): Newton's identities up to m, the
    relation itself above.  R_0 = T shifts a coefficient list and every
    other R_j scales it.  The e_k of the r_i^a, whose power sums are S_0,
    S_a, S_2a, ..., follow from Newton's identities k e_k = sum_{i=1}^k
    (-1)^(i-1) e_{k-i} S_ia, whose division by the unit k < m is exact
    because e_k lies in Z[T]."""
    def add_to(acc, c, poly, shift=0):
        """acc += c T^shift poly, in place."""
        acc.extend([0] * (len(poly) + shift - len(acc)))
        for d, x in enumerate(poly, shift):
            acc[d] += c * x

    def reduced(poly):
        poly = [x % mod for x in poly]
        while poly and not poly[-1]:
            poly.pop()
        return poly

    terms = [(m - j, c) for j, c in enumerate(tail, 1) if c % mod]
    sums = [reduced([m])]
    for n in range(1, (m - 1) ** 2 + 1):
        acc = []
        for i, c in terms:
            if i < n:
                add_to(acc, c, sums[n - i])
            elif i == n:
                add_to(acc, n * c, [1])
        if m < n:
            add_to(acc, 1, sums[n - m], 1)
        elif m == n:
            add_to(acc, m, [1], 1)
        sums.append(reduced(acc))
    inverses = [pow(k, -1, mod) for k in range(1, m)]  # units: k < m <= p
    table = []
    for a in range(1, m):
        e = [[1]]
        for k, inv in enumerate(inverses, 1):
            acc = []
            for i in range(1, k + 1):
                sign = 1 if i % 2 else -1
                for d, x in enumerate(e[k - i]):
                    if x:
                        add_to(acc, sign * x, sums[i * a], d)
            e.append(reduced([x * inv for x in acc]))
        table.append(tuple(map(tuple, e)))
    return tuple(table)


class _Kummer:
    """L = F[G]/(G^m - R(G)) for the monic relation G^m = const + sum_{j>=1}
    tail[j-1] G^j over F, its constant an FElem and the rest ints, with
    v_L(G) = lam.  A lam coprime to m makes L totally ramified (lam = 1 for
    a prime element, the unit level for the relation (1+G)^p = y); lam = 0
    makes it unramified, the relation reducing to an irreducible polynomial
    over kappa = F_p whose root G generates kappa_L.  In the G-power basis
    v_L(sum w_j G^j) = min_j (e(L/F) v_F(w_j) + j lam).

    Every element whose norm is taken has the form v0 + v1 G^a, so its norm
    is prod_i (v0 + v1 r_i^a) over the conjugates r_i of G, a form in v0, v1
    whose coefficients are the elementary symmetric functions e_k of the
    r_i^a.  Each e_k with k < m is a polynomial in the constant with integer
    coefficients that depend only on (m, tail) and p^N, so the table of them
    (_elementary_table) is computed once per relation shape and kept; a
    build evaluates it at its own constant from the powers const^0, ...,
    const^(m-1), m - 2 products, and e_m = N(G)^a = ((-1)^(m+1) const)^a is
    one of those powers.  The identities hold in every commutative ring, so
    the norm is exact in O/p^N."""

    def __init__(self, ctx, m, const, tail, lam):
        self.ctx = ctx
        self.m = m
        self.ram_index = m if lam else 1  # e(L/F)
        self.const = const  # R_0, an FElem
        self.tail = tail  # R_1, ..., R_{m-1}, ints
        self.lam = lam
        powers = [ctx.one, const]
        for _ in range(2, m):
            powers.append(powers[-1] * const)
        zeros = ctx.zero.flat[1:]

        def at_const(coeffs):
            # sum_d coeffs[d] const^d; most entries are constants, already
            # reduced mod p^N, and make their flat tuple with no arithmetic
            if len(coeffs) == 1:
                return FElem(ctx, coeffs + zeros)
            acc = ctx.zero
            for c, t in zip(coeffs, powers):
                if c:
                    acc = acc + (t if c == 1 else t * c)
            return acc

        self._elementary = [None] + [
            [at_const(coeffs) for coeffs in row]
            + [powers[a] if m % 2 or a % 2 == 0 else -powers[a]]
            for a, row in enumerate(_elementary_table(m, tail, ctx.mod), 1)]

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
                kappa = FiniteField(ctx.p, [-self.const.residue()]
                                    + [-c for c in self.tail] + [1])
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
        const, tail = ctx.one, (1,) + (0,) * (m - 2)
    else:
        c0, *rest = (-c for c in default_modulus(ctx.p, m)[:m])
        const, tail = ctx.from_int(c0), tuple(rest)
    return _Kummer(ctx, m, const, tail, lam=0)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

class NormResidueOracle:
    """Per-(F, m) oracle: coordinates in a fixed basis of the F_m-space
    V = F^x/(F^x)^m (module docstring), and the norm group of F(y^{1/m})
    as echelon rows of ints mod m over them, cached by the coordinates of
    y (the extension depends on y only modulo m-th powers)."""

    def __init__(self, ctx, m):
        self.ctx = ctx
        self.m = m = int(m)
        p = ctx.p
        if m not in (2, p):
            raise BadInput("m must be 2 or the residue characteristic")
        self._pivot_cache = {}
        self._keys = {}  # elem.flat -> class_key(elem), at most CLASS_KEY_MEMO
        self.wild = m == p  # otherwise m = 2 and p is odd
        if not self.wild:
            self.H = 1  # principal units are 2-divisible for odd p
            self.basis = ["pi", "omega"]
            return
        if p != 2 and ctx.k < 1:
            raise Unsupported("mu_p is not contained in F")
        self.critical = p * ctx.e // (p - 1)  # mu_p in F: (p-1) | e
        self.H = self.critical + 1  # U^{p*e1+1} is all p-th powers
        reached = {lead for lead, _ in ctx.phi_span}
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
                unit = self.ctx.level_unit(
                    self.ctx.kappa.pack([0] * j + [1]), s)
            self._powers[col, k] = unit
        return unit

    def coordinates(self, x):
        """The coordinate vector of the class of x in the basis, a tuple of
        ints mod m; all zeros iff x is an m-th power."""
        ctx, m = self.ctx, self.m
        v = valuation(x)
        if ctx.M - v <= self.H:
            # dividing by pi^v leaves fewer certified digits than the
            # walk needs to read; an element that reads zero has v = M
            raise PrecisionExhausted(
                f"valuation {v} leaves no certified digits below level "
                f"{self.H}")
        if not self.wild:
            return v % 2, ctx.kappa.dlog(lead(x)[1]) % 2
        dec = unit_decompose(x)
        # gcd(p, q-1) = 1: omega is a p-th power and has no column
        coords = [dec.n % m] + [0] * (len(self.basis) - 1)
        u = dec.u
        while True:
            u, _, stuck = strip_pth_powers(u, self.H)
            if stuck is None:
                return tuple(coords)
            s, digit = stuck
            for j, c in enumerate(ctx.kappa.digits(digit)):
                if c:
                    col = self._column[s, j]
                    coords[col] = c
                    u = u * self.power(col, m - c)

    def class_key(self, y):
        """The coordinate vector of y: all zeros iff y is an m-th power."""
        return self.coordinates(y)

    def _coordinates(self, elem):
        """class_key(elem), read once while elem.flat stays in the memo."""
        key = self._keys.get(elem.flat)
        if key is None:
            if len(self._keys) >= CLASS_KEY_MEMO:
                self._keys.clear()
            key = self._keys[elem.flat] = self.class_key(elem)
        return key

    def _build_extension(self, key, y):
        ctx, m = self.ctx, self.m
        if key[0]:
            # totally ramified: for y = pi^v u_y and c = v^-1 mod m, y^c is
            # u_y^c pi times an m-th power of pi, a prime element
            v, u_y = split_unit(y)
            return _Kummer(ctx, m, u_y ** pow(v, -1, m) * ctx.pi,
                           (0,) * (m - 1), lam=1)
        if not self.wild:
            # odd p, m = 2, unit class: only the omega coordinate survives,
            # so L is the unramified quadratic extension
            return _unramified_kummer(ctx, 2)
        # wild unit class: the walk stops below p*e1 only at levels prime
        # to p, and a class leading at the critical level is unramified
        first = next(col for col, c in enumerate(key) if c)
        lam, _ = self.basis[first]
        if lam == self.critical:
            return _unramified_kummer(ctx, m)
        y_red = ctx.one
        for col, c in enumerate(key):
            if c:
                y_red = y_red * self.power(col, c)
        # relation (1+G)^p = y_red: (1+G)^p - 1 is G times the Eisenstein
        # polynomial of Q_p(zeta_p), whose lead is 1
        return _Kummer(ctx, m, y_red - ctx.one,
                       tuple(-c for c in cyclotomic_eisenstein(ctx.p)[:-1]),
                       lam=lam)

    def _pivots_for(self, y):
        key = self._coordinates(y)
        if not any(key):
            return None  # y is an m-th power: L = F, everything is a norm
        if key not in self._pivot_cache:
            ext = self._build_extension(key, y)
            rows = []
            # norms from U_L^high lie in U_F^H (module docstring); once the
            # rows reach the norm group's rank, no later norm is computed
            high = ext.ram_index * (self.H - 1) + 1
            for elem in ext.spanning_norms(high):
                echelon_insert(rows, self.coordinates(elem), self.m)
                if len(rows) == self.norm_rank:
                    break
            else:
                raise InvariantFailed(
                    f"the spanning norms reach rank {len(rows)}, below the "
                    f"norm group's rank {self.norm_rank}")
            self._pivot_cache[key] = rows
        return self._pivot_cache[key]

    def trivial(self, x, y):
        if x.is_zero() or y.is_zero():
            raise BadInput("norm-residue oracle needs nonzero inputs")
        rows = self._pivots_for(y)
        if rows is None:
            return True
        return not any(echelon_reduce(rows, self._coordinates(x), self.m))


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
