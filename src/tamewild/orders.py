"""The subrings R_m = O0 + m^m O_F of the valuation ring.

Membership is decided coefficient-wise in the pi-power basis: x = sum a_i
pi^i lies in R_m iff e*val_p(a_i) + i >= m for every 1 <= i <= e-1 (the
constant coefficient is unconstrained beyond integrality).  The maximal
ideal is p O0 + m^m O_F for m >= 1 and m O_F for m = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    PRECISION_EXHAUSTED,
    BudgetExceeded,
    OracleUnavailable,
    PIsTwo,
    PrecisionExhausted,
)
from .localfield import spanning_units, val_p_coeffs, valuation


class OrderRm:
    """R_m = O0 + m^m O_F as a membership predicate with derived structure.

    R_0 is the full valuation ring; membership is monotone decreasing in m.
    """

    def __init__(self, ctx, m):
        if m < 0:
            raise ValueError("m must be nonnegative")
        self.ctx = ctx
        self.m = m

    def __repr__(self):
        return f"OrderRm(m={self.m}, ctx={self.ctx!r})"

    def _coeff_ok(self, x, i, bound):
        """Certify e*val_p(a_i) >= bound at precision, a_i the O0-coefficient
        of pi^i in x."""
        if bound <= 0:
            return True
        d = self.ctx.d
        v = val_p_coeffs(x.flat[i * d:(i + 1) * d], self.ctx.p)
        if v is PRECISION_EXHAUSTED:
            if self.ctx.e * self.ctx.N >= bound:
                return True
            raise PrecisionExhausted(
                "coefficient valuation cannot be certified against m")
        return self.ctx.e * v >= bound

    def contains(self, x):
        """x in O0 + pi^m O_F (integrality of a_0 is built into FElem)."""
        return all(self._coeff_ok(x, i, self.m - i)
                   for i in range(1, self.ctx.e))

    def ideal_contains(self, z):
        """z in the maximal ideal: p O0 + pi^m O_F for m >= 1, pi O_F for
        m = 0."""
        if self.m == 0:
            v = valuation(z)
            return v is PRECISION_EXHAUSTED or v >= 1
        # val_p(a_0) >= 1, and the R_m constraints on the higher blocks
        return self._coeff_ok(z, 0, self.ctx.e) and self.contains(z)

    def is_unit(self, x):
        """x in R_m^x, equivalently x = omega^i * u with u in 1 + maximal
        ideal (the equivalence is a tested property)."""
        return self.contains(x) and not self.ideal_contains(x)

    # -- index -------------------------------------------------------------

    def index_exponent(self):
        """s with [O_F : R_m] = q^s: one O0-digit constraint per basis index
        i >= 1 and depth ceil((m-i)/e) when positive."""
        e = self.ctx.e
        s = 0
        for i in range(1, e):
            s += max(0, -((i - self.m) // e))  # ceil((m-i)/e), clamped
        return s

    def index_in_of(self):
        return self.ctx.q ** self.index_exponent()

    # -- spanning data for symbol sweeps ------------------------------------

    def principal_unit_span(self, depth):
        """Generators of (1 + maximal ideal) modulo depth: the p O0 layer
        {1 + p omega^a} (for m >= 1) plus {1 + omega^a pi^s} for
        max(m,1) <= s < max(m,1) + depth."""
        ctx = self.ctx
        out = []
        lo = max(self.m, 1)
        if self.m >= 1:
            p_elt = ctx.from_int(ctx.p)
            for a in range(ctx.d):
                out.append(ctx.one + ctx.teichmuller_power(a) * p_elt)
        out.extend(spanning_units(ctx, lo, lo + depth))
        return out


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
        raise PIsTwo("the optimal order at p = 2 is the full valuation ring")
    if ctx.e == 1:
        return 0
    k = ctx.k
    if k == 0:
        return 1
    bound = ctx.p * ctx.e1 + (k - 1) * ctx.e
    return int(bound.numerator // bound.denominator) + 1  # floor + 1


@dataclass
class OptimalOrderReport:
    """Sampled evidence for the stabilisation index of the unit-pair sweeps.

    Experimental upper/lower evidence only: vanishing is certified on a
    spanning set up to the stated depth, not on the full unit group.
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


def _tame_only_oracle(ctx):
    from .symbols import tame_symbol
    return lambda x, y: tame_symbol(x, y) == 0


def estimate_m0(ctx, symbol_oracle=None, sample_budget=500, depth=2):
    """Least m <= B whose spanning generator pairs of R_m^x all have trivial
    symbol, with a recorded non-vanishing witness for each smaller m.

    The oracle is a callable (x, y) -> bool deciding triviality of the full
    symbol; bimultiplicativity makes spanning-pair vanishing certify the
    subgroup generated at the tested depth.  For fields without p-power
    roots of unity the tame symbol is the full symbol and is used when no
    oracle is supplied.
    """
    if ctx.p == 2:
        raise PIsTwo("no bound computation at p = 2")
    if ctx.e == 1:
        return OptimalOrderReport(
            bound=0, estimated_m0=0,
            certificates=[(0, "vanishing-sweep",
                           {"note": "unramified: maximal order is optimal, "
                                    "no sampling needed"})],
            depth=depth, precision=ctx.M)
    bound = m0_bound(ctx)
    if symbol_oracle is None:
        if ctx.k >= 1:
            raise OracleUnavailable(
                "field has p-power roots of unity but no wild symbol "
                "evaluator was supplied")
        symbol_oracle = _tame_only_oracle(ctx)
    budget = sample_budget
    certificates = []
    estimated = None
    omega = ctx.omega
    for m in range(0, bound + 1):
        order = OrderRm(ctx, m)
        span = order.principal_unit_span(depth)
        pairs = [(omega, omega)]
        pairs += [(omega, g) for g in span]
        pairs += [(g, h) for g in span for h in span]
        witness = None
        for x, y in pairs:
            if budget <= 0:
                raise BudgetExceeded(
                    f"sample budget exhausted at m = {m}")
            budget -= 1
            if not symbol_oracle(x, y):
                witness = (x, y)
                break
        if witness is None:
            certificates.append((m, "vanishing-sweep", {"pairs": len(pairs)}))
            if estimated is None:
                estimated = m
        else:
            certificates.append(
                (m, "witness",
                 {"x": witness[0].to_json(), "y": witness[1].to_json()}))
    return OptimalOrderReport(bound=bound, estimated_m0=estimated,
                              certificates=certificates, depth=depth,
                              precision=ctx.M)
