"""Reference computations made apart from tamewild.

Everything here works on plain Python integers and never imports the
program, so a check that compares a program result with a value from this
module compares two independent computations of the same quantity.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# Z and Q_p
# ---------------------------------------------------------------------------

def vp(n, p):
    """The p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def split(n, p):
    """n = p^v * u with p not dividing u; returns (v, u)."""
    v = vp(n, p)
    return v, n // p ** v


def legendre(a, p):
    """The Legendre symbol (a|p) for an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return -1 if pow(a, (p - 1) // 2, p) == p - 1 else 1


def hilbert(a, b, place):
    """The quadratic Hilbert symbol (a, b)_v of nonzero integers over Q.

    At an odd prime p the value is (-1)^(alpha beta (p-1)/2) (u|p)^beta
    (v|p)^alpha for a = p^alpha u and b = p^beta v; at 2 it is
    (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u)); at infinity it
    is -1 exactly when both are negative.
    """
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol of zero")
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, u = split(a, p)
    beta, v = split(b, p)
    if p == 2:
        eps_u, eps_v = (u % 4 - 1) // 2, (v % 4 - 1) // 2
        om_u = 1 if u % 8 in (3, 5) else 0
        om_v = 1 if v % 8 in (3, 5) else 0
        return -1 if (eps_u * eps_v + alpha * om_v + beta * om_u) % 2 else 1
    sign = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(v, p)
    return sign


def prime_factors(n):
    """The primes dividing a nonzero integer, by trial division."""
    n = abs(n)
    out = set()
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


def least_primitive_root(p):
    """The least generator of (Z/p)^x, by brute force."""
    for g in range(1, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


def dlog(a, p):
    """The exponent j with g^j = a mod p, g the least primitive root."""
    g = least_primitive_root(p)
    a %= p
    x = 1
    for j in range(p - 1):
        if x == a:
            return j
        x = x * g % p
    raise ValueError(f"{a} is not a unit mod {p}")


def tame_qp(x, y, p):
    """The tame symbol of nonzero integers x, y in Q_p, as an exponent of the
    least primitive root: the residue of (-1)^(ab) u^b v^(-a) for x = p^a u
    and y = p^b v."""
    a, u = split(x, p)
    b, v = split(y, p)
    val = pow(u, b, p) * pow(pow(v, -1, p), a, p) % p
    if (a * b) % 2:
        val = -val % p
    return dlog(val, p)


def wild_zeta_int(x, p):
    """The pairing of an integer x prime to p against zeta_p over
    Q_p(zeta_p), as an exponent mod p.

    The norm of x from Q_p(zeta_p) is x^(p-1); units act on p-power roots of
    unity through the inverse of the cyclotomic character, so the exponent
    is the Fermat quotient of x^(-(p-1)) mod p^2."""
    chi = pow(x, -(p - 1), p * p)
    return (chi - 1) // p % p


def pi_adic_valuation(coeffs, p, e, shift):
    """The valuation of pi^shift * sum c_i pi^i over an Eisenstein extension
    of degree e of Q_p: the terms have pairwise distinct valuations
    e v_p(c_i) + i, so the least one is the valuation of the sum."""
    return shift + min(e * vp(c, p) + i for i, c in enumerate(coeffs) if c)


def m0_bound_cyclotomic(p):
    """The a-priori vanishing bound for Q_p(zeta_p), p odd: e = p - 1,
    e1 = e/(p-1) = 1 and k = 1, so B = floor(p e1 + (k-1) e) + 1 = p + 1."""
    return p + 1


def order_index_brute(p, e, m):
    """[O_F : R_m] for R_m = Z_p + pi^m O_F in an Eisenstein extension of
    degree e, by counting coefficient vectors mod p^K that satisfy the
    membership rule e v_p(c_i) + i >= m for every i >= 1."""
    K = max(1, -(-m // e))
    members = total = 0
    for vec in itertools.product(range(p ** K), repeat=e):
        total += 1
        if all(c == 0 or e * vp(c, p) + i >= m for i, c in enumerate(vec)
               if i >= 1):
            members += 1
    return total // members


def int_det(rows):
    """Determinant of a square integer matrix by exact elimination."""
    m = [[Fraction(c) for c in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            for c in range(k, n):
                m[r][c] -= f * m[k][c]
    return int(det)


# ---------------------------------------------------------------------------
# F_q and F_q[t]
# ---------------------------------------------------------------------------

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _divides(d, f, p):
    """Whether the monic polynomial d divides f over F_p."""
    f = _trim(f)
    while len(f) >= len(d):
        c = f[-1]
        shift = len(f) - len(d)
        for i, dc in enumerate(d):
            f[shift + i] = (f[shift + i] - c * dc) % p
        f = _trim(f)
    return not f


def irreducible(g, p):
    """Irreducibility of a monic polynomial over F_p by trial division with
    every monic polynomial of degree at most deg(g)/2."""
    n = len(g) - 1
    for k in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            if _divides(list(tail) + [1], g, p):
                return False
    return True


class RefField:
    """F_q, q = p^s, on the integer encoding tamewild documents: the base-p
    digits of an element in [0, q) are its coefficients, lowest first, in
    the basis of powers of a root of the first monic irreducible polynomial
    of degree s in lexicographic coefficient order."""

    def __init__(self, q):
        facs = prime_factors(q)
        if len(facs) != 1:
            raise ValueError(f"{q} is not a prime power")
        self.p = p = facs.pop()
        self.s = s = vp(q, p)
        self.q = q
        if s == 1:
            self.modulus = [0, 1]
        else:
            self.modulus = next(
                list(tail) + [1]
                for tail in itertools.product(range(p), repeat=s)
                if irreducible(list(tail) + [1], p))

    def digits(self, a):
        return [a // self.p ** i % self.p for i in range(self.s)]

    def pack(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def add(self, a, b):
        return self.pack([(x + y) % self.p
                          for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a, b):
        p, s = self.p, self.s
        if s == 1:
            return a * b % p
        conv = [0] * (2 * s - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                conv[i + j] += x * y
        for i in range(2 * s - 2, s - 1, -1):
            c = conv[i] % p
            for j in range(s):
                conv[i - s + j] -= c * self.modulus[j]
        return self.pack([c % p for c in conv[:s]])

    def prod(self, values):
        acc = 1
        for v in values:
            acc = self.mul(acc, v)
        return acc

    def sum(self, values):
        acc = 0
        for v in values:
            acc = self.add(acc, v)
        return acc


@functools.lru_cache(maxsize=None)
def ref_field(q):
    """The RefField of order q, built once."""
    return RefField(q)


def _order_and_unit_at(poly, a, q):
    """(k, w) with poly = (t - a)^k * h over F_q, q prime, and w = h(a)."""
    c = _trim([x % q for x in poly])
    k = 0
    while True:
        # synthetic division by (t - a)
        quot = [0] * (len(c) - 1)
        acc = 0
        for i in range(len(c) - 1, 0, -1):
            acc = (acc * a + c[i]) % q
            quot[i - 1] = acc
        rem = (acc * a + c[0]) % q
        if rem:
            return k, rem
        c = _trim(quot)
        k += 1


def ff_tame_deg1(f, g, a, q):
    """The tame symbol (-1)^(v(f)v(g)) f^v(g) g^(-v(f)) at the place t = a of
    F_q(t), q prime; f and g are (numerator, denominator) integer
    coefficient lists, lowest degree first.  a = "inf" selects the place at
    infinity, where the uniformiser is 1/t."""
    def order_unit(r):
        num, den = (_trim([x % q for x in part]) for part in r)
        if a == "inf":
            return len(den) - len(num), num[-1] * pow(den[-1], -1, q) % q
        kn, un = _order_and_unit_at(num, a, q)
        kd, ud = _order_and_unit_at(den, a, q)
        return kn - kd, un * pow(ud, -1, q) % q

    vf, uf = order_unit(f)
    vg, ug = order_unit(g)
    val = pow(uf, vg, q) * pow(ug, -vf, q) % q
    if (vf * vg) % 2:
        val = -val % q
    return val


def deg1_label(a, q):
    """tamewild's label of the place t = a: the monic t - a, lowest
    coefficient first."""
    return "inf" if a == "inf" else str([(-a) % q, 1])
