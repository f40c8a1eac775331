import pytest

from tamewild.localfield import eisenstein_root, qp, qp_zeta, spanning_units


def principal_unit_span(ctx, m, depth):
    """Generators of R_m's principal units modulo depth, built afresh for
    one m as estimate_m0 did before its windows became slices of one list:
    the p O0 layer {1 + p omega^a} (for m >= 1) plus {1 + omega^a pi^s}
    for max(m,1) <= s < max(m,1) + depth."""
    out = []
    lo = max(m, 1)
    if m >= 1:
        p_elt = ctx.from_int(ctx.p)
        for a in range(ctx.d):
            out.append(ctx.one + ctx.teichmuller_power(a) * p_elt)
    out.extend(spanning_units(ctx, lo, lo + depth))
    return out


def teichmuller_reference(ctx, c):
    """The unique (q-1)-st root of unity congruent to the residue c != 0,
    by iterating x -> x^q from the digit lift of c to its fixed point:
    every step gains at least one p-digit, so N steps certify the full
    precision.  The field computes only omega this way and every other
    lift as a power of it (LocalFieldCtx.teichmuller_power)."""
    x = ctx.lift_residue(c)
    for _ in range(ctx.N):
        x = x ** ctx.q
    return x


@pytest.fixture(scope="session")
def q5():
    return qp(5, 16)


@pytest.fixture(scope="session")
def q3():
    return qp(3, 16)


@pytest.fixture(scope="session")
def q2():
    return qp(2, 16)


@pytest.fixture(scope="session")
def z3():
    """Q_3(zeta_3)."""
    return qp_zeta(3, 16)


@pytest.fixture(scope="session")
def z5():
    """Q_5(zeta_5)."""
    return qp_zeta(5, 16)


@pytest.fixture(scope="session")
def sqrt3():
    return eisenstein_root(3, 2, 16)


@pytest.fixture(scope="session")
def cbrt3():
    return eisenstein_root(3, 3, 16)
