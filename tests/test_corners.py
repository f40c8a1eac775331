"""Targeted tests for branches the main suites pass by."""

import json

import pytest

from tamewild.cli import dispatch
from tamewild.errors import BadInput, PrecisionExhausted
from tamewild.localfield import LocalFieldCtx, PadicCtx, qp, valuation
from tamewild.symbols import tame_symbol


def test_div_pi_unramified(q5):
    # e = 1: pi = p, division by pi is division by p
    assert q5.from_int(10).div_pi() == q5.from_int(2)
    assert q5.from_int(50).div_pi_pow(2) == q5.from_int(2)


def test_field_from_json():
    ctx = qp(5, 16)
    back = LocalFieldCtx.from_json(json.dumps(ctx.descriptor()))
    assert back.descriptor() == ctx.descriptor()


def test_frobenius_elimination_branch():
    # Q_3(zeta_9): e1 = 3, so levels 3 and 6 are eliminated by the
    # Frobenius-twist branch of the graded p-power map
    from tamewild.normoracle import NormResidueOracle
    base = PadicCtx(3, 16, 1)
    F = LocalFieldCtx(base, [3, 9, 18, 21, 15, 6, 1], name="qp-zeta9-3")
    oracle = NormResidueOracle(F, 3)
    # (1 + a pi)^3 = 1 + a^3 pi^3 + ... : level-3 leading digits of cubes
    # must reduce to triviality through that branch
    for a in (1, 2):
        u = (F.one + F.from_int(a) * F.pi) ** 3
        assert not oracle.class_key(u)
    # zeta_9 = 1 + pi is not a cube (that would need a 27th root of unity)
    assert oracle.class_key(F.one + F.pi)
    # level-3 units reduce through the branch and terminate either way
    for a in (1, 2):
        oracle.class_key(F.one + F.from_int(a) * F.pi ** 3)


def test_tame_of_uncertified_raises(q5):
    with pytest.raises(PrecisionExhausted):
        tame_symbol(q5.zero, q5.one)


def test_parsing_errors():
    from tamewild.parsing import parse_ring_expr
    ops = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
           "mul": lambda a, b: a * b, "neg": lambda a: -a,
           "pow": lambda a, n: a ** n, "int": int, "var": {"x": 7}}
    assert parse_ring_expr("2x^2+1", ops) == 99
    with pytest.raises(BadInput):
        parse_ring_expr("2 +", ops)
    with pytest.raises(BadInput):
        parse_ring_expr("y+1", ops)
    with pytest.raises(BadInput):
        parse_ring_expr("x^x", ops)
    with pytest.raises(BadInput):
        parse_ring_expr("x) ", ops)


def test_plain_text_output(capsys):
    code = dispatch(["moore", "--a", "3", "--b", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "product: 1" in out
    assert "table:" in out
    code = dispatch(["order", "--preset", "sqrt-3", "--m", "1"])
    out = capsys.readouterr().out
    assert code == 0 and "index: 1" in out


def test_padic_validation_corners():
    ctx = LocalFieldCtx(PadicCtx(3, 16, 2), [3, 1])
    with pytest.raises(ValueError):
        ctx.elem([[1, 2, 3]])  # wrong length
    with pytest.raises(ValueError):
        PadicCtx(3, 16, 2, g=(1, 0, 0, 1))  # degree mismatch with d
    with pytest.raises(ValueError):
        PadicCtx(3, 16, 2, g=(2, 1, 1))  # wrong reduction mod p
    with pytest.raises(ValueError):
        ctx.from_int(1).div_p()  # not divisible


def test_fq_rational_guards():
    from tamewild.funcfield import FqPoly, FqRational, GF
    gf = GF(3)
    with pytest.raises(ZeroDivisionError):
        FqRational(FqPoly(gf, [1]), FqPoly(gf, []))
    r = FqRational(FqPoly(gf, [2, 2]), FqPoly(gf, [2]))
    assert r.num.c == [1, 1] and r.den.c == [1]  # normalised monic
    with pytest.raises(ZeroDivisionError):
        FqRational(FqPoly(gf, [])).inverse()