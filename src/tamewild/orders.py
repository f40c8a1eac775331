"""The subrings R_m = O0 + m^m O_F of the valuation ring.

Membership is decided coefficient-wise in the pi-power basis: x = sum a_i
pi^i lies in R_m iff e*val_p(a_i) + i >= m for every 1 <= i <= e-1 (the
constant coefficient is unconstrained beyond integrality).  The maximal
ideal is p O0 + m^m O_F for m >= 1 and m O_F for m = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product

from .errors import BadInput, BudgetExceeded, PrecisionExhausted, Unsupported
from .localfield import MAX_N, spanning_units, val_p_coeffs, valuation
from .symbols import triviality_oracle


class OrderRm:
    """R_m = O0 + m^m O_F as a membership predicate with derived structure.

    R_0 is the full valuation ring; membership is monotone decreasing in m.
    No field carries more than MAX_N p-digits, so past m = e*MAX_N R_m is
    O0 at every precision, and such an m is refused before its index, a
    power of q with about m digits, is computed.
    """

    def __init__(self, ctx, m):
        if m < 0:
            raise BadInput("m must be nonnegative")
        if m > ctx.e * MAX_N:
            raise BadInput(f"m = {m} exceeds e*MAX_N = {ctx.e * MAX_N}, "
                           f"past which R_m is O0 at every precision")
        self.ctx = ctx
        self.m = m

    def __repr__(self):
        return f"OrderRm(m={self.m}, ctx={self.ctx!r})"

    def depth(self, i):
        """ceil((m-i)/e) clamped at 0: the least val_p of the O0-coefficient
        of pi^i (1 <= i < e) in an element of R_m."""
        return max(0, -((i - self.m) // self.ctx.e))

    def _coeff_ok(self, x, i, depth):
        """Certify val_p(a_i) >= depth at precision, a_i the O0-coefficient
        of pi^i in x."""
        if depth <= 0:
            return True
        ctx = self.ctx
        d, N = ctx.d, ctx.N
        v = val_p_coeffs(x.flat[i * d:(i + 1) * d], ctx.p, N)
        if v == N and N < depth:
            raise PrecisionExhausted(
                "coefficient valuation cannot be certified against m")
        return v >= depth

    def contains(self, x):
        """x in O0 + pi^m O_F (integrality of a_0 is built into FElem)."""
        return all(self._coeff_ok(x, i, self.depth(i))
                   for i in range(1, self.ctx.e))

    def ideal_contains(self, z):
        """z in the maximal ideal: p O0 + pi^m O_F for m >= 1, pi O_F for
        m = 0."""
        if self.m == 0:
            return valuation(z) >= 1
        # val_p(a_0) >= 1, and the R_m constraints on the higher blocks
        return self._coeff_ok(z, 0, 1) and self.contains(z)

    def is_unit(self, x):
        """x in R_m^x, equivalently x = omega^i * u with u in 1 + maximal
        ideal (the equivalence is a tested property)."""
        return self.contains(x) and not self.ideal_contains(x)

    # -- index -------------------------------------------------------------

    def index_exponent(self):
        """s with [O_F : R_m] = q^s: one O0-digit constraint per basis index
        i >= 1, of the depth given by depth(i)."""
        return sum(self.depth(i) for i in range(1, self.ctx.e))

    def index_in_of(self):
        return self.ctx.q ** self.index_exponent()


# ---------------------------------------------------------------------------
# optimal-order bound and experimental estimation
# ---------------------------------------------------------------------------

def m0_bound(ctx):
    """The explicit sufficiency bound B for symbol vanishing on R_m units.

    B = 0 for unramified fields; B = 1 when there are no p-power roots of
    unity; otherwise the least integer m with m > p*e1 + (k-1)*e.  Only
    defined for odd p.
    """
    if ctx.p == 2:
        raise Unsupported(
            "the optimal order at p = 2 is the full valuation ring")
    if ctx.e == 1:
        return 0
    if ctx.k == 0:
        return 1
    return ctx.wild_level


@dataclass
class OptimalOrderReport:
    """Sampled evidence for the stabilisation index of the unit-pair sweeps.

    A witness is a proof, and one at m rules out every smaller m, so the
    witnesses come first and estimated_m0 is the first m without one.
    Vanishing is certified on a spanning set up to the stated depth, not
    on the full unit group.
    """
    bound: int
    estimated_m0: int | None
    certificates: list = field(default_factory=list)
    depth: int = 2
    precision: int = 0

    def to_json(self):
        return {
            "bound": self.bound,
            "estimated_m0": (self.estimated_m0
                             if self.estimated_m0 is not None
                             else "UNDETERMINED"),
            "certificates": [
                {"m": m, "kind": kind, "data": data}
                for (m, kind, data) in self.certificates
            ],
            "depth": self.depth,
            "certified_precision": self.precision,
        }


def estimate_m0(ctx, symbol_oracle=None, sample_budget=500, depth=2):
    """Least m <= B whose spanning generator pairs of R_m^x, and those of
    every larger m, all have trivial symbol, with a recorded non-vanishing
    witness for each smaller m.

    The oracle is a callable (x, y) -> bool deciding triviality of the full
    symbol; bimultiplicativity makes spanning-pair vanishing certify the
    subgroup generated at the tested depth.  Without an oracle it uses
    triviality_oracle(ctx), which raises Unsupported for the fields it
    does not cover.

    One generator list serves every m: omega, the layer 1 + p omega^a and
    1 + omega^a pi^s for 1 <= s < B + depth.  R_m's window is the layer
    (for m >= 1) and the levels max(m,1) .. max(m,1) + depth - 1.  The
    windows overlap, and (y, x) is trivial exactly when (x, y) is, since
    (y, x) = (x, y)^-1; so the oracle is asked once per unordered pair.
    The budget still counts every pair of every sweep, so a sweep fails
    with BudgetExceeded at the same m however its pairs are answered.
    """
    if depth < 1:
        raise BadInput(f"depth = {depth} must be at least 1")
    if ctx.p == 2:
        raise Unsupported("no bound computation at p = 2")
    if ctx.e == 1:
        return OptimalOrderReport(
            bound=0, estimated_m0=0,
            certificates=[(0, "vanishing-sweep",
                           {"note": "unramified: maximal order is optimal, "
                                    "no sampling needed"})],
            depth=depth, precision=ctx.M)
    bound = m0_bound(ctx)
    if symbol_oracle is None:
        symbol_oracle = triviality_oracle(ctx)
    budget = sample_budget
    answers = {}  # frozenset of the two flats -> the oracle's bool
    sweeps = []  # per m: the first nontrivial pair or None, and #pairs
    omega, d = ctx.omega, ctx.d
    p_elt = ctx.from_int(ctx.p)
    layer = [ctx.one + ctx.teichmuller_power(a) * p_elt for a in range(d)]
    levels = spanning_units(ctx, 1, bound + depth)  # d units per level
    for m in range(0, bound + 1):
        start = (max(m, 1) - 1) * d
        span = (layer if m else []) + levels[start:start + depth * d]
        # drawn one at a time, so a budget that runs out early never builds
        # the window's len(span)^2 pairs
        pairs = chain([(omega, omega)], ((omega, g) for g in span),
                      product(span, repeat=2))
        witness = None
        for x, y in pairs:
            if budget <= 0:
                raise BudgetExceeded(
                    f"sample budget exhausted at m = {m}")
            budget -= 1
            key = frozenset((x.flat, y.flat))
            trivial = answers.get(key)
            if trivial is None:
                trivial = answers[key] = symbol_oracle(x, y)
            if not trivial:
                witness = (x, y)
                break
        sweeps.append((witness, 1 + len(span) + len(span) ** 2))
    # R_{m+1} is inside R_m: a witness at m is one at every smaller m too
    certificates, witness, estimated = [], None, None
    for m in reversed(range(bound + 1)):
        found, count = sweeps[m]
        witness = found or witness
        if witness is None:
            estimated = m
            certificates.append((m, "vanishing-sweep", {"pairs": count}))
        else:
            certificates.append(
                (m, "witness",
                 {"x": witness[0].to_json(), "y": witness[1].to_json()}))
    certificates.reverse()
    return OptimalOrderReport(bound=bound, estimated_m0=estimated,
                              certificates=certificates, depth=depth,
                              precision=ctx.M)
