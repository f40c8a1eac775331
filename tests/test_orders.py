import random

import pytest

from tamewild.errors import BadInput, Unsupported
from tamewild.localfield import (
    MAX_N,
    LocalFieldCtx,
    eisenstein_root,
    qp,
    qp_zeta,
    unit_decompose,
    valuation,
)
from tamewild.orders import OrderRm, estimate_m0, m0_bound

from conftest import principal_unit_span


def _random_integral(ctx, rng, digits=5):
    while True:
        x = ctx.elem([rng.randrange(ctx.p ** digits) for _ in range(ctx.e)])
        if not x.is_zero():
            return x


# -- membership -----------------------------------------------------------------

def test_membership_examples(sqrt3):
    pi = sqrt3.pi
    assert not OrderRm(sqrt3, 2).contains(pi)        # e*0 + 1 = 1 < 2
    assert OrderRm(sqrt3, 2).contains(pi ** 3)       # e*1 + 1 = 3 >= 2
    for m in range(6):
        assert OrderRm(sqrt3, m).contains(sqrt3.from_int(7))


def test_membership_monotone(sqrt3):
    rng = random.Random(0)
    for _ in range(100):
        x = _random_integral(sqrt3, rng)
        flags = [OrderRm(sqrt3, m).contains(x) for m in range(7)]
        # once False, stays False
        assert flags == sorted(flags, reverse=True)


def test_r0_is_valuation_ring(z3):
    rng = random.Random(1)
    order = OrderRm(z3, 0)
    for _ in range(50):
        assert order.contains(_random_integral(z3, rng))


def test_maximal_ideal_examples(sqrt3):
    p_elt = sqrt3.from_int(3)
    for m in range(1, 4):
        assert OrderRm(sqrt3, m).ideal_contains(p_elt)
    assert not OrderRm(sqrt3, 1).ideal_contains(sqrt3.omega)
    # m <= e: the maximal ideal is m^m O_F
    assert OrderRm(sqrt3, 1).ideal_contains(sqrt3.pi)


def test_is_unit_examples(sqrt3):
    assert all(OrderRm(sqrt3, m).is_unit(sqrt3.omega) for m in range(5))
    assert all(OrderRm(sqrt3, m).is_unit(sqrt3.from_int(4)) for m in range(5))
    assert not OrderRm(sqrt3, 1).is_unit(sqrt3.pi)
    assert not OrderRm(sqrt3, 2).is_unit(sqrt3.pi)


def test_dichotomy_and_closure(z3, cbrt3):
    rng = random.Random(2)
    for ctx in (z3, cbrt3):
        for m in range(0, 2 * ctx.e + 1):
            order = OrderRm(ctx, m)
            for _ in range(50):
                x = _random_integral(ctx, rng)
                if not order.contains(x):
                    continue
                assert order.is_unit(x) != order.ideal_contains(x)
                y = _random_integral(ctx, rng)
                if order.contains(y):
                    assert order.contains(x + y)
                    assert order.contains(x * y)


def test_ideal_equals_power_for_small_m(cbrt3):
    rng = random.Random(3)
    for m in range(1, cbrt3.e + 1):
        order = OrderRm(cbrt3, m)
        for _ in range(100):
            x = _random_integral(cbrt3, rng)
            assert order.ideal_contains(x) == (valuation(x) >= m)


def test_unit_factorization_and_inverse(z3):
    rng = random.Random(4)
    for m in range(0, 5):
        order = OrderRm(z3, m)
        for _ in range(50):
            x = _random_integral(z3, rng)
            if not order.is_unit(x):
                continue
            dec = unit_decompose(x)
            assert dec.n == 0
            assert order.ideal_contains(dec.u - z3.one)
            assert dec.reconstruct(z3) == x
            assert order.contains(x.invert_unit())


# -- index ---------------------------------------------------------------------

def test_index_examples(sqrt3, z3):
    assert OrderRm(sqrt3, 0).index_in_of() == 1
    assert OrderRm(sqrt3, 2).index_in_of() == 3
    assert OrderRm(z3, 1).index_in_of() == 1
    assert OrderRm(z3, 2).index_in_of() == 3


def test_m_outside_the_range_is_refused(z3):
    with pytest.raises(BadInput, match="m must be nonnegative"):
        OrderRm(z3, -1)
    # past e*MAX_N, R_m is O0 at every precision; the index is refused
    # before q^s, with s about m, is computed
    cap = z3.e * MAX_N
    assert OrderRm(z3, cap).index_exponent() == MAX_N
    with pytest.raises(BadInput, match=f"m = {cap + 1} exceeds e\\*MAX_N "
                       f"= {cap}, past which R_m is O0 at every precision"):
        OrderRm(z3, cap + 1)


def test_index_brute_force_small():
    from tamewild.acceptance import brute_force_index
    for p in (3, 5):
        for e in (2, 3):
            ctx = eisenstein_root(p, e, 8)
            for m in range(0, 2 * e + 1):
                assert OrderRm(ctx, m).index_in_of() == \
                    brute_force_index(ctx, m)


# -- bound and estimation ----------------------------------------------------------

def test_m0_bound_values():
    assert m0_bound(qp(5, 16)) == 0
    assert m0_bound(qp_zeta(3, 16)) == 4   # p + 1
    assert m0_bound(qp_zeta(5, 16)) == 6
    assert m0_bound(eisenstein_root(3, 3, 16)) == 1  # k = 0
    with pytest.raises(Unsupported, match="optimal order at p = 2 is the "
                       "full valuation ring"):
        m0_bound(qp(2, 16))


def test_estimate_unramified_shortcut():
    rep = estimate_m0(qp(7, 16))
    assert rep.estimated_m0 == 0 and rep.bound == 0
    assert rep.certificates[0][1] == "vanishing-sweep"


def test_estimate_k0_field():
    rep = estimate_m0(eisenstein_root(3, 3, 16))
    assert rep.estimated_m0 is not None and rep.estimated_m0 <= 1


def test_estimate_with_wild_oracle():
    from tamewild.symbols import triviality_oracle
    ctx = qp_zeta(3, 32)
    rep = estimate_m0(ctx, triviality_oracle(ctx), sample_budget=2000)
    assert rep.estimated_m0 is not None
    assert rep.estimated_m0 <= rep.bound == 4
    kinds = {m: kind for m, kind, _ in rep.certificates}
    # monotone: vanishing from the estimate up to the bound
    for m in range(rep.estimated_m0, rep.bound + 1):
        assert kinds[m] == "vanishing-sweep"
    for m in range(0, rep.estimated_m0):
        assert kinds[m] == "witness"
    js = rep.to_json()
    assert set(js) >= {"bound", "estimated_m0", "certificates"}


def test_estimate_budget():
    from tamewild.errors import BudgetExceeded
    from tamewild.symbols import triviality_oracle
    ctx = qp_zeta(3, 32)
    with pytest.raises(BudgetExceeded):
        estimate_m0(ctx, triviality_oracle(ctx), sample_budget=3)


@pytest.mark.parametrize("field,depth,m0", [
    ((3, 32), 1, 2), ((5, 32), 1, 2), ((7, 16), 1, 2), ((11, 16), 2, 6),
    ({"p": 3, "N": 24, "f": [3, 0, 0, 0, 0, 0, 1]}, 2, 5),  # T^6 + 3
])
def test_a_witness_rules_out_every_smaller_m(field, depth, m0):
    # R_{m+1} is inside R_m, so a witness at m is one at every smaller m;
    # each of these sweeps found a vanishing m below a witness (at depth 1
    # R_0's window lacks the 1 + p layer that R_1's has), and reported it
    # as the estimate before witnesses were copied down.  (p, N) is
    # Q_p(zeta_p) at precision N
    from tamewild.symbols import triviality_oracle
    ctx = (LocalFieldCtx.from_descriptor(field) if isinstance(field, dict)
           else qp_zeta(*field))
    oracle = triviality_oracle(ctx)
    rep = estimate_m0(ctx, oracle, depth=depth)
    assert rep.estimated_m0 == m0
    kinds = [kind for _, kind, _ in rep.certificates]
    assert kinds == (["witness"] * m0
                     + ["vanishing-sweep"] * (rep.bound + 1 - m0))
    for m, _, data in rep.certificates[:m0]:
        x, y = (ctx.elem([[int(c) for c in block] for block in data[k]])
                for k in ("x", "y"))
        order = OrderRm(ctx, m)
        assert order.is_unit(x) and order.is_unit(y)
        assert not oracle(x, y) and not oracle(y, x)


# -- one oracle query per unordered pair ------------------------------------------

def _reference_estimate(ctx, symbol_oracle, sample_budget):
    """The sweep that asks the oracle every pair of every window, both
    orders included, as estimate_m0 did before it kept the answers and
    before its windows became slices of one generator list."""
    from tamewild.errors import BudgetExceeded
    from tamewild.orders import OptimalOrderReport
    bound = m0_bound(ctx)
    budget = sample_budget
    certificates = []
    estimated = None
    omega = ctx.omega
    for m in range(0, bound + 1):
        span = principal_unit_span(ctx, m, 2)
        pairs = [(omega, omega)]
        pairs += [(omega, g) for g in span]
        pairs += [(g, h) for g in span for h in span]
        witness = None
        for x, y in pairs:
            if budget <= 0:
                raise BudgetExceeded(f"sample budget exhausted at m = {m}")
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
                              certificates=certificates, depth=2,
                              precision=ctx.M)


def _outcome(sweep, *args):
    from tamewild.errors import BudgetExceeded
    try:
        return sweep(*args).to_json()
    except BudgetExceeded as exc:
        return ("BudgetExceeded", str(exc))


@pytest.mark.parametrize("p,calls", [(3, 22), (5, 30)])
def test_estimate_asks_each_unordered_pair_once(p, calls):
    # the windows of consecutive m overlap and both (g, h) and (h, g) are
    # swept; a sweep that asked every pair made 50 and 73 calls here
    from tamewild.symbols import triviality_oracle
    ctx = qp_zeta(p, 32)
    oracle = triviality_oracle(ctx)
    seen = []

    def spy(x, y):
        seen.append(frozenset((x.flat, y.flat)))
        return oracle(x, y)

    rep = estimate_m0(ctx, spy)
    assert len(seen) == calls == len(set(seen))
    assert rep.to_json() == _reference_estimate(ctx, oracle, 500).to_json()


@pytest.mark.parametrize("p", [3, 5])
def test_estimate_matches_the_every_pair_sweep_at_every_budget(p):
    # the budget counts the pairs of the sweep, not the oracle's calls, so
    # reports and BudgetExceeded messages are those of the reference, while
    # no unordered pair is asked twice; the reference sweep needs 50 pairs
    # at p = 3 and 73 at p = 5
    from tamewild.symbols import triviality_oracle
    ctx = qp_zeta(p, 32)
    oracle = triviality_oracle(ctx)
    answers = {}

    def memo(x, y):
        key = (x.flat, y.flat)
        if key not in answers:
            answers[key] = oracle(x, y)
        return answers[key]

    outcomes = set()
    for budget in range(1, 61):
        ref = _outcome(_reference_estimate, ctx, memo, budget)
        seen = []

        def spy(x, y):
            seen.append(frozenset((x.flat, y.flat)))
            return memo(x, y)

        assert _outcome(estimate_m0, ctx, spy, budget) == ref, budget
        assert len(seen) == len(set(seen)), budget
        outcomes.add(isinstance(ref, tuple))
    assert outcomes == ({True, False} if p == 3 else {True})
