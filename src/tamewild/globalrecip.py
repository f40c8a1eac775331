"""Global assembly over Q and the cyclotomic fields Q(zeta_p).

The product formula multiplies, over the finitely many places in the
support, the m_v/m-th powers of the local symbols; for Q (m = 2) every
factor is the classical quadratic Hilbert symbol, so the product being +1
for all inputs is the quadratic reciprocity law.  The global singular order
is realised as an explicit integer lattice in column Hermite normal form,
with the index given by the local coefficient constraints at the unique
ramified place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInput, InvariantFailed, UnsupportedField, ZeroInput
from .localfield import qp_zeta
from .ntheory import factorint, hnf, isprime
from .orders import OrderRm, m0_bound
from .symbols import hilbert_quadratic_q


@dataclass(frozen=True)
class Place:
    """A place of Q: finite(p) or real."""
    kind: str  # "finite" | "real"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "finite" and (self.p is None
                                      or not isprime(self.p)):
            raise BadInput("finite places carry a prime")
        if self.kind not in ("finite", "real"):
            raise BadInput(f"unknown place kind {self.kind!r}")

    @classmethod
    def finite(cls, p):
        return cls("finite", p)

    @classmethod
    def real(cls):
        return cls("real")

    def label(self):
        return str(self.p) if self.kind == "finite" else "inf"

    def sort_key(self):
        return (0, 0) if self.kind != "finite" else (1, self.p)


@dataclass
class MooreResult:
    product: int
    table: list  # [(Place, +-1)] sorted: real place first, primes ascending

    def to_json(self):
        return {
            "product": self.product,
            "table": {pl.label(): val for pl, val in self.table},
        }


def _support_places(a, b):
    a, b = Fraction(a), Fraction(b)
    primes = {2}
    for r in (a, b):
        primes |= set(factorint(abs(r.numerator))) | set(
            factorint(r.denominator))
    return [Place.real()] + [Place.finite(p) for p in sorted(primes)]


def moore_product_q(a, b) -> MooreResult:
    """Per-place table of the quadratic Hilbert symbols of (a, b) over the
    support {inf, 2} plus the primes of a and b, and their product.

    For every place off the support the factor is +1 (both valuations
    vanish and the tame formula gives a square class); the product over the
    support is the reciprocity product and must be +1.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ZeroInput("Moore product of zero")
    table = []
    prod = 1
    for pl in _support_places(a, b):
        val = hilbert_quadratic_q(a, b, pl.p if pl.kind == "finite"
                                  else "inf")
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


def _pi_power_basis(p):
    """Columns: (zeta - 1)^i on the zeta-power basis, i = 0..p-2."""
    n = p - 1
    cols = []
    cur = [1] + [0] * (n - 1)
    for _ in range(n):
        cols.append(list(cur))
        cur = _cyclotomic_mul(p, cur, [-1, 1] + [0] * (n - 2))
    return cols


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
        raise UnsupportedField("presets cover odd primes p <= 7")
    ctx = qp_zeta(p, N)
    if m is None:
        m = m0_bound(ctx)
    n = p - 1
    order = OrderRm(ctx, m)
    # local membership constrains the pi-power coordinate i >= 1 to lie in
    # p^depth(i) Z
    cols = _pi_power_basis(p)
    scaled = []
    for i, col in enumerate(cols):
        depth = order.depth(i) if i >= 1 else 0
        scaled.append([c * p ** depth for c in col])
    H = hnf([[scaled[j][i] for j in range(n)] for i in range(n)])
    index = math.prod(H[i][i] for i in range(n))  # H is upper triangular
    if index != order.index_in_of():
        raise InvariantFailed("lattice index != local closed form")
    basis = tuple(tuple(r) for r in H)
    return GlobalOrderLattice(p=p, m=m, basis=basis, index=index)
