"""Symbol evaluation: tame symbols, the quadratic Hilbert symbol over Q and
its p-adic reading, the wild pairing against zeta_p over Q_p(zeta_p), and
the constructive symbol-reduction identities.

Value conventions:

- tame symbols are returned as exponents of the fixed residue-field
  generator (0 means trivial);
- quadratic Hilbert symbols are +-1;
- the wild pairing against zeta_p is an exponent mod p.

The wild pairing reads the norm of the unit part u of x only mod p^2, as
the last elementary symmetric function of u's conjugates: Newton's
identities mod p^2 take it from the traces Tr(u^k), k < p, and over
Q_p(zeta_p) a trace is read off the flat tuple.  No determinant is taken.

The cyclotomic-character normalisation is fixed: a unit u of Z_p acts on
p-power roots of unity by u^{-1}, the uniformizer acts trivially on the
ramified part.  The opposite convention flips the sign of
wild_symbol_zeta; the chosen one is pinned by the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadInput, InvariantFailed, PrecisionExhausted, Unsupported
from .localfield import (
    cyclotomic_eisenstein,
    lead,
    split_unit,
    unit_level,
)
from .ntheory import isprime, jacobi


# ---------------------------------------------------------------------------
# tame symbol
# ---------------------------------------------------------------------------

def tame_symbol_residue(x, y):
    """Residue of (-1)^{v(x)v(y)} x^{v(y)} y^{-v(x)}, a residue-field unit."""
    ctx = x.ctx
    a, rx = lead(x)
    b, ry = lead(y)
    kappa = ctx.kappa
    val = kappa.mul(kappa.pow(rx, b), kappa.pow(kappa.inv(ry), a))
    if (a * b) % 2 and ctx.p != 2:
        val = kappa.neg(val)
    return val


def tame_symbol(x, y):
    """Tame symbol as an exponent of the fixed residue generator."""
    return x.ctx.kappa.dlog(tame_symbol_residue(x, y))


# ---------------------------------------------------------------------------
# quadratic Hilbert symbol over Q (classical closed forms)
# ---------------------------------------------------------------------------

def _split_rational(a, p):
    """a = p^alpha * u with u a p-unit; returns (alpha, u mod p^3)."""
    a = Fraction(a)
    num, den = a.numerator, a.denominator
    alpha = 0
    while num % p == 0:
        num //= p
        alpha += 1
    while den % p == 0:
        den //= p
        alpha -= 1
    u = num * pow(den, -1, p ** 3) % p ** 3
    return alpha, u


def _hilbert_closed_form(p, alpha, u, beta, v):
    """(p^alpha u, p^beta v)_p for integers u, v prime to p."""
    if p == 2:
        eps_u, eps_v = (u - 1) // 2 % 2, (v - 1) // 2 % 2
        om_u, om_v = (u * u - 1) // 8 % 2, (v * v - 1) // 8 % 2
        expo = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if expo % 2 else 1
    sign = -1 if (alpha * beta * (p - 1) // 2) % 2 else 1
    return (sign * jacobi(u, p) ** (beta % 2)
            * jacobi(v, p) ** (alpha % 2))


def hilbert_quadratic_q(a, b, place):
    """The quadratic Hilbert symbol (a, b)_v over Q by the classical closed
    forms; contract-checked against the norm-residue oracle.

    place is a prime number or the string "inf"; anything else raises
    BadInput.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise BadInput("Hilbert symbol of zero")
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(place, int) or not isprime(place):
        raise BadInput(f"place must be a prime or 'inf', got {place!r}")
    return _hilbert_closed_form(place, *_split_rational(a, place),
                                *_split_rational(b, place))


def hilbert_quadratic_padic(x, y, ctx):
    """The quadratic symbol read off truncated elements of Q_p (e = d = 1):
    the same closed form applied to (valuation, unit residue)."""
    if ctx.e != 1 or ctx.d != 1:
        raise Unsupported("p-adic quadratic reading needs a Q_p context")
    a, u = split_unit(x)
    b, v = split_unit(y)
    return _hilbert_closed_form(ctx.p, a, u.flat[0], b, v.flat[0])


# ---------------------------------------------------------------------------
# the wild pairing against zeta_p
# ---------------------------------------------------------------------------

def is_cyclotomic_ctx(ctx):
    """True for the shipped Q_p(zeta_p) shape: f = ((T+1)^p - 1)/T over Z_p."""
    return ctx.d == 1 and list(ctx.f) == [
        c % ctx.mod for c in cyclotomic_eisenstein(ctx.p)]


def wild_symbol_zeta(x, ctx):
    """The pairing of x against zeta_p over F = Q_p(zeta_p), as an exponent
    of zeta_p (an integer mod p).

    F(zeta_{p^2})/Q_p is abelian, so the reciprocity map factors through the
    norm: with N(x) = p^t * u one has u = 1 mod p (norms fix mu_p), and the
    exponent j is read from zeta_{p^2}^{chi(u) - 1} = zeta_p^j where chi is
    the cyclotomic character exponent mod p^2 under the pinned
    normalisation (units act by their inverse).
    """
    if ctx.p == 2:
        raise Unsupported("wild pairing implemented for odd p")
    if not is_cyclotomic_ctx(ctx):
        raise Unsupported("ctx must be the Q_p(zeta_p) preset")
    if x.is_zero():
        raise BadInput("wild symbol of zero")
    p = ctx.p
    # N(pi) = p pairs trivially with zeta_p, so only the unit part of x
    # contributes; stripping pi first keeps the norm a unit and its mod-p^2
    # digits certified
    v, x = split_unit(x)
    if ctx.M - v < 3 * ctx.e:
        raise PrecisionExhausted(
            "norm unit part is uncertified mod p^2 at this precision")
    # only N(x) mod p^2 is read: e_{p-1} of the p - 1 conjugates of x, from
    # the power sums P_k = Tr(x^k) by Newton's identities k e_k = sum_{i=1}^k
    # (-1)^(i-1) e_{k-i} P_i, which divide only by k < p.  With pi = zeta_p
    # - 1, Tr(1) = p - 1 and Tr(pi^i) = (-1)^i p for 0 < i < p - 1, so Tr(y)
    # = -y_0 + p sum_i (-1)^i y_i is read off y's flat tuple
    q = p * p
    powers = [x]
    for _ in range(p - 2):
        powers.append(powers[-1] * x)
    sums = [p - 1] + [(p * (sum(f[::2]) - sum(f[1::2])) - f[0]) % q
                      for f in (y.flat for y in powers)]
    e = [1]
    for k in range(1, p):
        acc = sum((-1) ** (i - 1) * e[k - i] * sums[i]
                  for i in range(1, k + 1))
        e.append(acc * pow(k, -1, q) % q)
    # the norm of a unit is a unit, and here even 1 mod p
    u = e[p - 1]
    if u % p != 1:
        raise InvariantFailed(
            f"unit part of the norm is {u % p} mod p, expected 1")
    chi = pow(u, -1, p ** 2)  # u acts by its inverse (module docstring)
    return ((chi - 1) // p) % p


# ---------------------------------------------------------------------------
# symbol-reduction identities
# ---------------------------------------------------------------------------

def k1_decompose(x, y):
    """Write {x, y} = {pi, (-1)^{ab} v^a u^{-b}} + {u, v} for x = pi^a u,
    y = pi^b v; returns the two symbol pairs."""
    ctx = x.ctx
    a, u = split_unit(x)
    b, v = split_unit(y)
    w = (v ** a) * (u ** -b)  # u is inverted only when b != 0
    if (a * b) % 2:
        w = -w
    return [(ctx.pi, w), (u, v)]


def k2_transform(u):
    """For u = 1 - z in U^2 return (a, b) in U^1 x U^1 with {pi, u} = {a, b}:
    with g = 1 + z/pi - z, take a = g^{-1} and b = 1 - pi*g."""
    ctx = u.ctx
    lv = unit_level(u)
    if lv < 2:
        raise BadInput(f"unit level {lv} < 2")
    z = ctx.one - u
    g = ctx.one + z.div_pi_pow(1) - z
    a = g.invert_unit()
    b = ctx.one - ctx.pi * g
    return a, b


# ---------------------------------------------------------------------------
# total triviality oracle
# ---------------------------------------------------------------------------

def triviality_oracle(ctx):
    """A callable (x, y) -> bool deciding whether the full Hilbert symbol of
    the pair is trivial.

    For k = 0 the symbol reduces to the tame symbol.  For k = 1 over a
    prime residue field the wild component is decided by the norm-residue
    oracle at m = p; other wild configurations are unsupported.
    """
    if ctx.k == 0:
        return lambda x, y: tame_symbol(x, y) == 0
    if ctx.k == 1 and ctx.d == 1:
        from .normoracle import norm_residue_trivial

        def oracle(x, y):
            return (tame_symbol(x, y) == 0
                    and norm_residue_trivial(x, y, m=ctx.p))
        return oracle
    raise Unsupported(
        f"no total symbol evaluator for k={ctx.k}, d={ctx.d}")
