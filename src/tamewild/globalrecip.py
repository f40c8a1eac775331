"""Global assembly over Q and the cyclotomic fields Q(zeta_p).

The product formula multiplies, over the finitely many places in the
support, the m_v/m-th powers of the local symbols; for Q (m = 2) every
factor is the classical quadratic Hilbert symbol, so the product being +1
for all inputs is the quadratic reciprocity law.  A place of Q is a prime
int or the string "inf", as hilbert_quadratic_q takes it.  The global
singular order is realised as an explicit integer lattice in column Hermite
normal form, with the index given by the local coefficient constraints at
the unique ramified place; its generators p^depth(j) (zeta - 1)^j are
already triangular on the zeta-power basis, so the normal form is a
reduction of the entries above the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInput, InvariantFailed, Unsupported
from .localfield import qp_zeta
from .ntheory import factorint, isprime
from .orders import OrderRm, m0_bound
from .symbols import hilbert_quadratic_q


@dataclass
class MooreResult:
    product: int
    table: list  # [(place, +-1)]: "inf" first, then the primes ascending

    def to_json(self):
        return {
            "product": self.product,
            "table": {str(pl): val for pl, val in self.table},
        }


def _support_places(a, b):
    a, b = Fraction(a), Fraction(b)
    primes = {2}
    for r in (a, b):
        primes |= set(factorint(abs(r.numerator))) | set(
            factorint(r.denominator))
    return ["inf"] + sorted(primes)


def moore_product_q(a, b) -> MooreResult:
    """Per-place table of the quadratic Hilbert symbols of (a, b) over the
    support {inf, 2} plus the primes of a and b, and their product.

    For every place off the support the factor is +1 (both valuations
    vanish and the tame formula gives a square class); the product over the
    support is the reciprocity product and must be +1.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise BadInput("Moore product of zero")
    table = []
    prod = 1
    for pl in _support_places(a, b):
        val = hilbert_quadratic_q(a, b, pl)
        table.append((pl, val))
        prod *= val
    return MooreResult(prod, table)


# ---------------------------------------------------------------------------
# the global optimal order of Q(zeta_p) as an explicit lattice
# ---------------------------------------------------------------------------

def _cyclotomic_mul(p, a, b):
    """Multiply in Z[zeta_p] on the power basis 1, z, ..., z^{p-2}, reducing
    with z^{p-1} = -(1 + z + ... + z^{p-2})."""
    n = p - 1
    conv = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    for i in range(2 * n - 2, n - 1, -1):
        c = conv[i]
        if c:
            for j in range(n):
                conv[i - n + j] -= c
            conv[i] = 0
    return conv[:n]


@dataclass
class GlobalOrderLattice:
    """A Z-order of Q(zeta_p) as a column-HNF integer matrix on the power
    basis of the maximal order, with its index."""
    p: int
    m: int
    basis: tuple  # rows of the HNF matrix
    index: int

    def to_json(self):
        return {
            "p": self.p,
            "m": self.m,
            "hnf": [list(r) for r in self.basis],
            "index": self.index,
        }

    def contains_one(self):
        return _solve_integer(self.basis, [1] + [0] * (len(self.basis) - 1))

    def multiplicatively_closed(self):
        """Structure-constant check: products of basis columns stay inside."""
        n = len(self.basis)
        cols = [[self.basis[i][j] for i in range(n)] for j in range(n)]
        for x in cols:
            for y in cols:
                if not _solve_integer(self.basis, _cyclotomic_mul(self.p, x, y)):
                    return False
        return True


def _solve_integer(rows, target):
    """Whether target is an integer combination of the columns of the
    upper-triangular HNF matrix given by its rows: exact back-substitution,
    failing at the first coordinate its pivot does not divide."""
    n = len(rows)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        r = target[i] - sum(rows[i][j] * x[j] for j in range(i + 1, n))
        x[i], rem = divmod(r, rows[i][i])
        if rem:
            return False
    return True


def global_optimal_lattice(p, m=None, N=32):
    """The order {x in Z[zeta_p] : x satisfies the R_m constraint at the
    place above p} as a column-HNF lattice with its index.

    All other finite places are unramified in Q(zeta_p)/Q, where the local
    optimal order is the maximal one, so only the place above p constrains.
    m defaults to the explicit local vanishing bound.
    """
    if p == 2 or not isprime(p) or p > 7:
        raise Unsupported("presets cover odd primes p <= 7")
    ctx = qp_zeta(p, N)
    if m is None:
        m = m0_bound(ctx)
    n = p - 1
    order = OrderRm(ctx, m)
    # column j is p^depth(j) (zeta - 1)^j on the zeta-power basis, since
    # local membership constrains the pi-power coordinate j >= 1 to
    # p^depth(j) Z; its entries are (-1)^(j-i) C(j, i) p^depth(j), so the
    # matrix is upper triangular with a positive diagonal
    scale = [1] + [p ** order.depth(j) for j in range(1, n)]
    H = [[(-1) ** (j - i) * math.comb(j, i) * scale[j] if i <= j else 0
          for j in range(n)] for i in range(n)]
    # its column HNF: from the bottom row up, reduce the entries right of
    # each pivot into [0, pivot) by subtracting multiples of the pivot's
    # column, which is zero below the pivot and so leaves lower rows alone
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            q = H[i][j] // H[i][i]
            for r in range(i + 1):
                H[r][j] -= q * H[r][i]
    index = math.prod(H[i][i] for i in range(n))
    if index != order.index_in_of():
        raise InvariantFailed("lattice index != local closed form")
    basis = tuple(tuple(r) for r in H)
    return GlobalOrderLattice(p=p, m=m, basis=basis, index=index)
