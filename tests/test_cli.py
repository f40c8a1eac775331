import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamewild
from tamewild import cli, localfield
from tamewild.cli import RunConfig, dispatch, element_from_string
from tamewild.errors import BadInput, InvariantFailed
from tamewild.localfield import qp_zeta
from tamewild.symbols import hilbert_quadratic_q


def _run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv + ["--json"])
    return code, json.loads(out)


_ENTRY = "from tamewild.cli import main; main()"


def _subprocess(code, argv, timeout=60):
    """Run python -c code with argv in a fresh interpreter on this tamewild."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(tamewild.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


def test_element_parser():
    ctx = qp_zeta(3, 16)
    assert element_from_string(ctx, "p") == ctx.from_int(3)
    assert element_from_string(ctx, "1+3*pi^2") == \
        ctx.one + ctx.from_int(3) * ctx.pi ** 2
    assert element_from_string(ctx, "-(pi+1)") == -(ctx.pi + ctx.one)
    assert element_from_string(ctx, "2pi") == ctx.pi * 2


def test_element_parser_rejects_division():
    ctx = qp_zeta(3, 16)
    with pytest.raises(BadInput, match="'/'"):
        element_from_string(ctx, "1/p")


def test_moore_subcommand(capsys):
    code, doc = _run_json(capsys, ["moore", "--a", "13", "--b", "17"])
    assert code == 0
    assert doc["schema"] == "v1"
    assert doc["result"]["product"] == 1
    assert doc["result"]["table"]["13"] == 1


def test_hilbert2_subcommand(capsys):
    code, doc = _run_json(capsys,
                          ["hilbert2", "--place", "5", "--a", "5", "--b", "2"])
    assert code == 0 and doc["result"]["value"] == -1
    code, doc = _run_json(capsys, ["hilbert2", "--place", "inf",
                                   "--a", "-1", "--b", "-1"])
    assert doc["result"]["value"] == -1
    # negative fractions need the --opt=value spelling
    code, doc = _run_json(capsys, ["hilbert2", "--place", "3",
                                   "--a", "1/3", "--b=-5/7"])
    assert code == 0


@pytest.mark.parametrize("place", [-3, 4, 1, -1, 0, "oo"])
def test_hilbert2_rejects_places_that_are_not_primes(capsys, place):
    with pytest.raises(BadInput):
        hilbert_quadratic_q(3, 5, place)
    assert dispatch(["hilbert2", f"--place={place}", "--a", "3",
                     "--b", "5"]) == 2
    assert capsys.readouterr().out == ""


def test_tame_subcommand(capsys):
    code, doc = _run_json(capsys, ["tame", "--preset", "qp-5",
                                   "--x", "p", "--y", "2"])
    assert code == 0
    assert doc["result"]["value"]["tame_mod"] == 4
    assert not doc["result"]["trivial"]


def test_wild_zeta_subcommand(capsys):
    code, doc = _run_json(capsys, ["wild-zeta", "--p", "3", "--x", "1+p"])
    assert code == 0
    assert doc["result"]["value"]["wild"] == 1


def test_norm_oracle_subcommand(capsys):
    code, doc = _run_json(capsys, ["norm-oracle", "--preset", "qp-5",
                                   "--m", "2", "--x", "2", "--y", "5"])
    assert code == 0 and doc["result"]["trivial"] is False
    code, doc = _run_json(capsys, ["norm-oracle", "--preset", "qp-zeta-3",
                                   "--m", "p", "--x", "1+p", "--y", "1+pi",
                                   "--precision", "32"])
    assert code == 0 and doc["result"]["trivial"] is False


def test_order_subcommand(capsys):
    code, doc = _run_json(capsys, ["order", "--preset", "sqrt-3",
                                   "--m", "2", "--x", "pi^3"])
    assert code == 0
    assert doc["result"]["contains"] is True
    assert doc["result"]["index"] == "3"


def test_m0_subcommand(capsys):
    code, doc = _run_json(capsys, ["m0", "--preset", "qp-zeta-3",
                                   "--precision", "32"])
    assert code == 0
    assert doc["result"]["bound"] == 4
    assert doc["result"]["estimated_m0"] <= 4


def test_m0_plain_text_golden(capsys):
    # without --json a list prints one item after another at its key's
    # indent, and a list of lists flattens to one scalar a line
    code, out = _run(capsys, ["m0", "--preset", "qp-zeta-3", "-N", "32"])
    assert code == 0
    certificate = "  data:\n    pairs: 13\n  kind: vanishing-sweep\n  m: %d\n"
    assert out == (
        "bound: 4\n"
        "certificates:\n"
        "  data:\n"
        "    x:\n      1\n      1\n"
        "    y:\n      1853020188851839\n      1853020188851838\n"
        "  kind: witness\n"
        "  m: 0\n"
        "  data:\n"
        "    x:\n      4\n      0\n"
        "    y:\n      1\n      1\n"
        "  kind: witness\n"
        "  m: 1\n"
        + certificate % 2 + certificate % 3 + certificate % 4
        + "certified_precision: 64\n"
        "depth: 2\n"
        "estimated_m0: 2\n")


def test_hasse_subcommand(capsys):
    code, doc = _run_json(capsys, ["hasse-verify", "--preset", "qp-zeta-5",
                                   "--t", "2", "--precision", "32"])
    assert code == 0
    assert doc["result"]["ok"] is True


@pytest.mark.parametrize("argv", [
    ["m0", "--preset", "qp-zeta-3", "-N", "32", "--depth", "0"],
    ["m0", "--preset", "qp-zeta-3", "-N", "32", "--depth", "-1"],
    ["hasse-verify", "--preset", "qp-zeta-5", "--t", "1", "--depth", "0"],
], ids=["m0-0", "m0-minus-1", "hasse-verify-0"])
def test_depth_below_one_exits_2(capsys, argv):
    # m0 used to sweep no pairs and report estimated_m0 = 0, and
    # hasse-verify to fail on an untyped min() of no landings
    assert dispatch(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: depth = {argv[-1]} must be at least 1\n"


@pytest.mark.parametrize("preset", ["root10-11", "root12-13"])
def test_m0_decides_k_promptly(preset):
    # a digit enumeration of roots of unity ran for more than 20 s here
    proc = _subprocess(_ENTRY, ["m0", "--preset", preset, "-N", "16"],
                       timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_lattice_subcommand(capsys):
    code, doc = _run_json(capsys, ["lattice", "--p", "3", "--m", "2"])
    assert code == 0
    assert doc["result"]["index"] == 3
    assert doc["result"]["multiplicatively_closed"] is True


def test_ff_subcommands(capsys):
    code, doc = _run_json(capsys, ["weil", "--q", "3",
                                   "--f", "t", "--g", "t^2+1"])
    assert code == 0 and doc["result"]["product_is_one"]
    code, doc = _run_json(capsys, ["ff-hilbert", "--q", "4",
                                   "--f", "t^2+t", "--g", "t+1"])
    assert code == 0 and doc["result"]["product_is_one"]
    code, doc = _run_json(capsys, ["residue", "--q", "5",
                                   "--f", "1/(t^2-t)", "--g", "t"])
    assert code == 0 and doc["result"]["sum_is_zero"]


def test_usage_errors(capsys):
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert dispatch(["hilbert2", "--place", "5", "--a", "0", "--b", "1"]) == 2
    capsys.readouterr()
    assert dispatch(["lattice", "--p", "11"]) == 2
    capsys.readouterr()
    # Fraction("1/0") raises ZeroDivisionError, which argparse passes on
    for argv in (["hilbert2", "--place", "3", "--a", "1/0", "--b", "2"],
                 ["moore", "--a", "1/0", "--b", "2"]):
        assert dispatch(argv) == 2
        assert "'1/0' has denominator 0" in capsys.readouterr().err
    # argparse named the converter: "invalid _fraction value: 'abc'"
    assert dispatch(["moore", "--a", "abc", "--b", "2"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --a: 'abc' is not a rational number\n")


_NESTED = "(" * 250 + "1" + ")" * 250


@pytest.mark.parametrize("argv,err", [
    # each level of parentheses costs the parser four frames, and 250 of
    # them overflowed the stack with a traceback
    (["tame", "--preset", "qp-5", "--x", _NESTED, "--y", "2"],
     "error: expression nests deeper than 100 levels\n"),
    (["weil", "--q", "3", "--f=" + "-" * 1000 + "t", "--g", "t+1"],
     "error: expression nests deeper than 100 levels\n"),
    # this said "expected None, found None"
    (["tame", "--preset", "qp-5", "--x", "2^", "--y", "2"],
     "error: unexpected end of input\n"),
    (["tame", "--preset", "qp-5", "--x", "(1", "--y", "2"],
     "error: expected ')' at the end of input\n"),
    # R_m is O0 at every precision past e*MAX_N; these took 54 s and 8.5 s
    (["lattice", "--p", "7", "--m", "1000000", "--json"],
     "error: m = 1000000 exceeds e*MAX_N = 6144, past which R_m is O0 at "
     "every precision\n"),
    (["order", "--preset", "qp-zeta-7", "--m", "10000000"],
     "error: m = 10000000 exceeds e*MAX_N = 6144, past which R_m is O0 at "
     "every precision\n"),
    # the unit-pair sweep of Q_17(zeta_17) meets a Kummer norm that lost
    # every digit; this said "zero element has no class"
    (["m0", "--preset", "qp-zeta-17", "-N", "16"],
     "error: valuation 256 leaves no certified digits below level 18\n"),
    # these said "invalid literal for int() with base 10: '2.5'"
    (["hilbert2", "--place", "2.5", "--a", "3", "--b", "5"],
     "error: --place must be a prime or 'inf', got '2.5'\n"),
    (["hilbert2", "--place", "INF", "--a", "3", "--b", "5"],
     "error: --place must be a prime or 'inf', got 'INF'\n"),
    (["norm-oracle", "--preset", "qp-zeta-3", "--m", "x", "--x", "2",
      "--y", "1+pi"],
     "error: --m must be 2 or 'p', got 'x'\n"),
], ids=["nested-parens", "nested-minus", "dangling-power", "open-paren",
        "lattice-m", "order-m", "m0-zero-class", "place-decimal",
        "place-upper-inf", "norm-oracle-m"])
def test_refusals_exit_2(capsys, argv, err):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter prints ints of any length")
def test_plain_output_is_all_or_nothing(capsys):
    # the index 7^5120 has 4327 digits, past CPython's default str limit;
    # the 38 lines before it used to be printed before the refusal
    assert dispatch(["lattice", "--p", "7", "--m", "6144", "-N", "1024"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Exceeds the limit (4300 digits)")


def test_m0_budget_refusal_builds_no_pair_lists(capsys):
    # every pair list of the sweep was built before the first budget check:
    # 10^6 pairs at depth 1000, 70 MB of them, to refuse after 500
    import tracemalloc
    tracemalloc.start()
    try:
        code = dispatch(["m0", "--preset", "qp-zeta-3", "-N", "32",
                         "--depth", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == \
        "error: sample budget exhausted at m = 0\n"
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("error", [InvariantFailed])
def test_internal_errors_exit_2(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("forced")
    monkeypatch.setattr(cli, "estimate_m0", fail)
    assert dispatch(["m0", "--preset", "qp-zeta-3", "-N", "16"]) == 2
    assert capsys.readouterr().err == "error: forced\n"


def test_residue_parses_quotients_of_products(capsys):
    for f in ("(t+1)*(t+2)/t", "t/(t+1)^2"):
        code, doc = _run_json(capsys, ["residue", "--q", "5", "--f", f,
                                       "--g", "t"])
        assert code == 0 and doc["result"]["sum_is_zero"]
    code, doc = _run_json(capsys, ["residue", "--q", "5", "--f",
                                   "(t+1)*(t+2)/t", "--g", "t"])
    assert doc["result"]["table"] == {"[0, 1]": 2, "inf": 3}


def test_huge_power_exits_promptly():
    proc = _subprocess(_ENTRY, ["weil", "--q", "3", "--f", "t^100000000",
                                "--g", "t"])
    assert proc.returncode == 2
    assert "cap" in proc.stderr


def test_hard_semiprime_exits_at_the_factoring_cap():
    # two 25-digit prime factors: rho would need about 10^12 iterations
    proc = _subprocess(_ENTRY, [
        "moore", "--a=300000000000000000000001060000000000000000000000871",
        "--b", "3", "--json"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "RHO_STEPS" in proc.stderr


_NO_SYMPY = """import sys
from tamewild.cli import dispatch
code = dispatch(sys.argv[1:])
sys.exit(3 if "sympy" in sys.modules else code)"""


@pytest.mark.parametrize("argv", [
    ["tame", "--preset", "qp-5", "--x", "p", "--y", "2"],
    ["hilbert2", "--place", "5", "--a", "5", "--b", "2"],
    ["moore", "--a", "13", "--b", "17"],
    ["weil", "--q", "9", "--f", "t", "--g", "t^2+1"],
    ["ff-hilbert", "--q", "4", "--f", "t^2+t", "--g", "t+1"],
    ["residue", "--q", "5", "--f", "1/(t^2-t)", "--g", "t"],
    ["lattice", "--p", "7"],
    ["m0", "--preset", "qp-zeta-3", "-N", "32"],
    ["norm-oracle", "--preset", "qp-zeta-3", "--m", "p", "--x", "1+p",
     "--y", "1+pi", "-N", "32"],
], ids=lambda argv: argv[0])
def test_commands_never_import_sympy(argv):
    proc = _subprocess(_NO_SYMPY, argv + ["--json"])
    assert proc.returncode == 0, proc.stderr


def test_selftest_rejects_unknown_criterion(capsys):
    assert dispatch(["selftest", "--only", "99"]) == 2
    captured = capsys.readouterr()
    assert "criteria passed" not in captured.out
    assert "1..11" in captured.err


def test_rootE_preset_needs_positive_e(capsys):
    # e = 0 used to build Q_3 silently and print tame_mod 2
    assert dispatch(["tame", "--preset", "root0-3", "--x", "p", "--y", "2",
                     "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 1" in captured.err


def test_ramification_above_the_kernel_cap_exits_2_promptly():
    # e*d = 1000 used to spend over 20 s of CPU building the product tables
    proc = _subprocess(_ENTRY, ["tame", "--preset", "root1000-3", "--x", "p",
                                "--y", "2", "--json"], timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "MAX_ED" in proc.stderr


def test_finite_field_above_the_table_cap_exits_2(capsys):
    assert dispatch(["weil", "--q", "177147", "--f", "t", "--g", "t+1"]) == 2
    assert "MAX_Q" in capsys.readouterr().err


def test_huge_prime_power_exits_before_searching_a_modulus():
    # GF(2^32) used to walk the 2^31 candidate moduli divisible by x first
    proc = _subprocess(_ENTRY, ["weil", "--q", "4294967296", "--f", "t",
                                "--g", "t+1", "--json"], timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "MAX_Q" in proc.stderr


@pytest.mark.parametrize("d", [24, 40])
def test_residue_degree_above_the_cap_exits_before_searching(tmp_path, d):
    # d = 24 once spent 12 s looking for a default modulus; d = 40 did not
    # finish in 5 minutes
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"p": 2, "d": d, "N": 8, "f": [2, 1]}))
    proc = _subprocess(_ENTRY, ["tame", "--field-json", str(path),
                                "--x", "pi", "--y", "pi"], timeout=10)
    assert proc.returncode == 2
    assert "MAX_Q" in proc.stderr and "gbar" in proc.stderr


def test_residue_degree_above_the_cap_builds_with_gbar():
    gbar = [1, 0, 0, 1] + [0] * 13 + [1]  # x^17 + x^3 + 1 over F_2
    ctx = localfield.LocalFieldCtx.from_descriptor(
        {"p": 2, "d": 17, "N": 8, "f": [2, 1], "gbar": gbar})
    assert ctx.q == 2 ** 17
    assert ctx.kappa.modulus == tuple(gbar)
    assert localfield.valuation(ctx.pi * ctx.pi) == 2


_ENVELOPE = ('{"certified_precision": "exact", "command": "%s", "config": '
             '{"budget": 500, "precision": 64, "seed": 0}, "result": %s, '
             '"schema": "v1"}\n')

# --json stdout of function-field commands, recorded before the residue
# fields of places became FiniteField towers: q = 2, 3, 4, 7, 9, 81 and 243,
# places of degree 4, 5 and 7, residues at a degree-3 place and at infinity
_GOLDEN = [
    (["weil", "--q", "2", "--f", "t^5+t^2+1", "--g", "(t^4+t+1)/(t^3+t+1)"],
     '{"product_is_one": true, "table": {"[1, 0, 1, 0, 0, 1]": 1, '
     '"[1, 1, 0, 0, 1]": 1, "[1, 1, 0, 1]": 1, "inf": 1}}'),
    (["ff-hilbert", "--q", "3", "--f", "(t^4+t+2)/t", "--g", "t^5+2*t+1"],
     '{"product_is_one": true, "table": {"[0, 1]": 1, '
     '"[1, 2, 0, 0, 0, 1]": 1, "[2, 1, 0, 0, 1]": 2, "inf": 2}}'),
    (["weil", "--q", "4", "--f", "(t^4+t+1)*(t^2+t+1)", "--g", "t^5+t^2+1"],
     '{"product_is_one": true, "table": {"[1, 0, 1, 0, 0, 1]": 1, '
     '"[2, 1, 1]": 3, "[2, 1]": 1, "[3, 1, 1]": 2, "[3, 1]": 1, "inf": 1}}'),
    (["ff-hilbert", "--q", "7", "--f", "(t^4+3*t+5)/(t+1)", "--g",
      "t^5+t+4"],
     '{"product_is_one": true, "table": {"[1, 1]": 2, "[3, 1]": 4, '
     '"[4, 1, 0, 0, 0, 1]": 6, "[6, 1, 1]": 1, "inf": 6}}'),
    (["weil", "--q", "9", "--f", "t^4+t+2", "--g", "(t^5+2*t+1)/(t^2+1)"],
     '{"product_is_one": true, "table": {"[1, 2, 0, 0, 0, 1]": 2, '
     '"[3, 1]": 3, "[4, 6, 1]": 5, "[6, 1]": 6, "[7, 3, 1]": 8, "inf": 1}}'),
    (["ff-hilbert", "--q", "81", "--f", "(t^5+2*t+1)/(t^2+1)", "--g",
      "t^7+2*t^2+1"],
     '{"product_is_one": true, "table": {"[1, 0, 2, 0, 0, 0, 0, 1]": 2, '
     '"[1, 2, 0, 0, 0, 1]": 2, "[15, 1]": 17, "[21, 1]": 23, "inf": 2}}'),
    (["weil", "--q", "243", "--f", "t^4+t+2", "--g",
      "2*(t^5+2*t+1)/(t^3+2*t+1)"],
     '{"product_is_one": true, "table": {"[1, 2, 0, 1]": 1, "[135, 1]": 195, '
     '"[143, 1]": 233, "[15, 1]": 75, "[2, 1, 0, 0, 1]": 2, "[71, 1]": 123, '
     '"[92, 1]": 105, "inf": 1}}'),
    (["residue", "--q", "3", "--f", "t^2/(t^3+2*t+1)^2", "--g", "t^4+t"],
     '{"constant_differential": false, "sum_is_zero": true, '
     '"table": {"[1, 2, 0, 1]": 1, "inf": 2}}'),
    (["residue", "--q", "243", "--f", "(t+1)/(t^3+2*t+1)", "--g", "t^4+t"],
     '{"constant_differential": false, "sum_is_zero": true, '
     '"table": {"[1, 2, 0, 1]": 1, "inf": 2}}'),
    # recorded before residues became one Taylor-shift routine: a pole of
    # order 6 at infinity, and a triple pole at a degree-3 place over F_9
    (["residue", "--q", "5", "--f", "(t^5+2*t+1)/(t^2+2)", "--g", "t^2+t"],
     '{"constant_differential": false, "sum_is_zero": true, '
     '"table": {"[2, 0, 1]": 3, "inf": 2}}'),
    (["residue", "--q", "9", "--f", "(t^8+t)/((t^3+2*t+1)^3*(t^2+1))",
      "--g", "t^2+t"],
     '{"constant_differential": false, "sum_is_zero": true, '
     '"table": {"[1, 2, 0, 1]": 2, "[3, 1]": 8, "[6, 1]": 5, "inf": 0}}'),
    # recorded before norms became resultants and degree-1 towers took the
    # base's operations: a degree-6 place over F_243, and degree-1 places
    # over F_25
    (["ff-hilbert", "--q", "243", "--f", "(t^5+2*t+1)/(t^2+1)", "--g",
      "t^6+t+2"],
     '{"product_is_one": true, "table": {"[1, 0, 1]": 2, "[135, 1]": 150, '
     '"[143, 1]": 121, "[15, 1]": 149, "[2, 1, 0, 0, 0, 0, 1]": 2, '
     '"[71, 1]": 160, "[92, 1]": 227, "inf": 1}}'),
    (["weil", "--q", "25", "--f", "(t^2+3*t+1)*(t+2)/(t^3+t+1)", "--g",
      "t^4+2*t+3"],
     '{"product_is_one": true, "table": {"[1, 1, 0, 1]": 4, "[14, 1]": 5, '
     '"[17, 1]": 24, "[2, 1]": 4, "[4, 1]": 1, "inf": 1}}'),
]


# --json stdout of local-field commands, recorded before field arithmetic
# became compiled kernels; the m0 runs serialise their witness elements
_LOCAL_GOLDEN = [
    (["norm-oracle", "--preset", "qp-zeta-5", "--m", "p", "--x", "2", "--y",
      "1+pi", "-N", "32"],
     '{"certified_precision": 128, "command": "norm-oracle", "config": '
     '{"budget": 500, "precision": 32, "seed": 0}, "result": {"m": 5, '
     '"trivial": false}, "schema": "v1"}'),
    (["norm-oracle", "--preset", "qp-zeta-5", "--m", "p", "--x", "7", "--y",
      "1+pi", "-N", "32"],
     '{"certified_precision": 128, "command": "norm-oracle", "config": '
     '{"budget": 500, "precision": 32, "seed": 0}, "result": {"m": 5, '
     '"trivial": true}, "schema": "v1"}'),
    (["m0", "--preset", "qp-zeta-3", "-N", "32"],
     '{"certified_precision": 64, "command": "m0", "config": {"budget": 500, '
     '"precision": 32, "seed": 0}, "result": {"bound": 4, "certificates": '
     '[{"data": {"x": [["1"], ["1"]], "y": [["1853020188851839"], '
     '["1853020188851838"]]}, "kind": "witness", "m": 0}, {"data": {"x": '
     '[["4"], ["0"]], "y": [["1"], ["1"]]}, "kind": "witness", "m": 1}, '
     '{"data": {"pairs": 13}, "kind": "vanishing-sweep", "m": 2}, {"data": '
     '{"pairs": 13}, "kind": "vanishing-sweep", "m": 3}, {"data": {"pairs": '
     '13}, "kind": "vanishing-sweep", "m": 4}], "certified_precision": 64, '
     '"depth": 2, "estimated_m0": 2}, "schema": "v1"}'),
    (["m0", "--preset", "qp-zeta-5", "-N", "32"],
     '{"certified_precision": 128, "command": "m0", "config": {"budget": '
     '500, "precision": 32, "seed": 0}, "result": {"bound": 6, '
     '"certificates": [{"data": {"x": [["1"], ["1"], ["0"], ["0"]], "y": '
     '[["1"], ["0"], ["1"], ["0"]]}, "kind": "witness", "m": 0}, {"data": '
     '{"x": [["6"], ["0"], ["0"], ["0"]], "y": [["1"], ["1"], ["0"], '
     '["0"]]}, "kind": "witness", "m": 1}, {"data": {"x": [["1"], ["0"], '
     '["1"], ["0"]], "y": [["1"], ["0"], ["0"], ["1"]]}, "kind": "witness", '
     '"m": 2}, {"data": {"pairs": 13}, "kind": "vanishing-sweep", "m": 3}, '
     '{"data": {"pairs": 13}, "kind": "vanishing-sweep", "m": 4}, {"data": '
     '{"pairs": 13}, "kind": "vanishing-sweep", "m": 5}, {"data": {"pairs": '
     '13}, "kind": "vanishing-sweep", "m": 6}], "certified_precision": 128, '
     '"depth": 2, "estimated_m0": 3}, "schema": "v1"}'),
    (["tame", "--preset", "qp-zeta-7", "--x", "3*pi^2", "--y", "7*pi+5"],
     '{"certified_precision": 384, "command": "tame", "config": {"budget": '
     '500, "precision": 64, "seed": 0}, "result": {"trivial": false, '
     '"value": {"tame": 2, "tame_mod": 6}}, "schema": "v1"}'),
    (["tame", "--preset", "qp-zeta-7", "--x", "98", "--y", "3"],
     '{"certified_precision": 384, "command": "tame", "config": {"budget": '
     '500, "precision": 64, "seed": 0}, "result": {"trivial": true, '
     '"value": {"tame": 0, "tame_mod": 6}}, "schema": "v1"}'),
    (["wild-zeta", "--p", "5", "--x", "2"],
     '{"certified_precision": 256, "command": "wild-zeta", "config": '
     '{"budget": 500, "precision": 64, "seed": 0}, "result": {"trivial": '
     'false, "value": {"wild": 2, "wild_mod": 5}}, "schema": "v1"}'),
    (["wild-zeta", "--p", "5", "--x", "13"],
     '{"certified_precision": 256, "command": "wild-zeta", "config": '
     '{"budget": 500, "precision": 64, "seed": 0}, "result": {"trivial": '
     'false, "value": {"wild": 3, "wild_mod": 5}}, "schema": "v1"}'),
    (["hasse-verify", "--preset", "qp-zeta-5", "--t", "3"],
     '{"certified_precision": 256, "command": "hasse-verify", "config": '
     '{"budget": 500, "precision": 64, "seed": 0}, "result": '
     '{"certified_precision": 256, "entries": [[3, 0, 7], [4, 0, 8], '
     '[5, 0, 9], [6, 0, 10]], "min_landing": 7, "ok": true, "regime": '
     '"above", "required": 7, "t": 3}, "schema": "v1"}'),
    # recorded before roots of unity came from the residue criterion and
    # the graded p-th root instead of a digit enumeration
    (["m0", "--preset", "root6-7", "-N", "16"],
     '{"certified_precision": 96, "command": "m0", "config": {"budget": 500, '
     '"precision": 16, "seed": 0}, "result": {"bound": 1, "certificates": '
     '[{"data": {"pairs": 7}, "kind": "vanishing-sweep", "m": 0}, {"data": '
     '{"pairs": 13}, "kind": "vanishing-sweep", "m": 1}], '
     '"certified_precision": 96, "depth": 2, "estimated_m0": 0}, '
     '"schema": "v1"}'),
    # README examples, recorded before quadratic_reciprocity_view,
    # mu_counts_q and the complex place left globalrecip
    (["moore", "--a", "13", "--b", "17"],
     '{"certified_precision": "exact", "command": "moore", "config": '
     '{"budget": 500, "precision": 64, "seed": 0}, "result": {"product": 1, '
     '"table": {"13": 1, "17": 1, "2": 1, "inf": 1}}, "schema": "v1"}'),
    (["hilbert2", "--place", "5", "--a", "5", "--b", "2"],
     '{"certified_precision": "exact", "command": "hilbert2", "config": '
     '{"budget": 500, "precision": 64, "seed": 0}, "result": {"value": -1}, '
     '"schema": "v1"}'),
    (["order", "--preset", "sqrt-3", "--m", "2", "--x", "pi^3"],
     '{"certified_precision": 128, "command": "order", "config": {"budget": '
     '500, "precision": 64, "seed": 0}, "result": {"contains": true, '
     '"in_maximal_ideal": true, "index": "3", "index_exponent": 1, '
     '"is_unit": false, "m": 2}, "schema": "v1"}'),
    (["lattice", "--p", "3", "--m", "2"],
     '{"certified_precision": 64, "command": "lattice", "config": {"budget": '
     '500, "precision": 64, "seed": 0}, "result": {"contains_one": true, '
     '"hnf": [[1, 0], [0, 3]], "index": 3, "m": 2, '
     '"multiplicatively_closed": true, "p": 3}, "schema": "v1"}'),    # m0 on three more field shapes, recorded before the sweep asked each
    # unordered pair once
    (["m0", "--preset", "qp-zeta-7", "-N", "16"],
     '{"certified_precision": 96, "command": "m0", "config": {"budget": '
     '500, "precision": 16, "seed": 0}, "result": {"bound": 8, '
     '"certificates": [{"data": {"x": [["1"], ["1"], ["0"], ["0"], ["0"], '
     '["0"]], "y": [["1"], ["0"], ["1"], ["0"], ["0"], ["0"]]}, "kind": '
     '"witness", "m": 0}, {"data": {"x": [["8"], ["0"], ["0"], ["0"], '
     '["0"], ["0"]], "y": [["1"], ["1"], ["0"], ["0"], ["0"], ["0"]]}, '
     '"kind": "witness", "m": 1}, {"data": {"x": [["1"], ["0"], ["1"], '
     '["0"], ["0"], ["0"]], "y": [["1"], ["0"], ["0"], ["1"], ["0"], '
     '["0"]]}, "kind": "witness", "m": 2}, {"data": {"x": [["1"], ["0"], '
     '["0"], ["1"], ["0"], ["0"]], "y": [["1"], ["0"], ["0"], ["0"], ["1"], '
     '["0"]]}, "kind": "witness", "m": 3}, {"data": {"pairs": 13}, "kind": '
     '"vanishing-sweep", "m": 4}, {"data": {"pairs": 13}, "kind": '
     '"vanishing-sweep", "m": 5}, {"data": {"pairs": 13}, "kind": '
     '"vanishing-sweep", "m": 6}, {"data": {"pairs": 13}, "kind": '
     '"vanishing-sweep", "m": 7}, {"data": {"pairs": 13}, "kind": '
     '"vanishing-sweep", "m": 8}], "certified_precision": 96, "depth": 2, '
     '"estimated_m0": 4}, "schema": "v1"}'),
    (["m0", "--preset", "cbrt-3", "-N", "16"],
     '{"certified_precision": 48, "command": "m0", "config": {"budget": '
     '500, "precision": 16, "seed": 0}, "result": {"bound": 1, '
     '"certificates": [{"data": {"pairs": 7}, "kind": "vanishing-sweep", '
     '"m": 0}, {"data": {"pairs": 13}, "kind": "vanishing-sweep", "m": 1}], '
     '"certified_precision": 48, "depth": 2, "estimated_m0": 0}, "schema": '
     '"v1"}'),
    (["m0", "--preset", "root4-3", "-N", "16"],
     '{"certified_precision": 64, "command": "m0", "config": {"budget": '
     '500, "precision": 16, "seed": 0}, "result": {"bound": 1, '
     '"certificates": [{"data": {"pairs": 7}, "kind": "vanishing-sweep", '
     '"m": 0}, {"data": {"pairs": 13}, "kind": "vanishing-sweep", "m": 1}], '
     '"certified_precision": 64, "depth": 2, "estimated_m0": 0}, "schema": '
     '"v1"}'),
    (["m0", "--preset", "root4-5", "-N", "16"],
     '{"certified_precision": 64, "command": "m0", "config": {"budget": '
     '500, "precision": 16, "seed": 0}, "result": {"bound": 1, '
     '"certificates": [{"data": {"pairs": 7}, "kind": "vanishing-sweep", '
     '"m": 0}, {"data": {"pairs": 13}, "kind": "vanishing-sweep", "m": 1}], '
     '"certified_precision": 64, "depth": 2, "estimated_m0": 0}, "schema": '
     '"v1"}'),
    # m0 at depth 3, recorded before the sweep's windows became slices of
    # one generator list: every other m0 golden is at depth 2 (--depth
    # comes first so that these ids do not collide with the depth-2 ones)
    (["m0", "--depth", "3", "--preset", "qp-zeta-3", "-N", "32"],
     '{"certified_precision": 64, "command": "m0", "config": {"budget": 500, '
     '"precision": 32, "seed": 0}, "result": {"bound": 4, "certificates": '
     '[{"data": {"x": [["1"], ["1"]], "y": [["1853020188851839"], '
     '["1853020188851838"]]}, "kind": "witness", "m": 0}, {"data": {"x": '
     '[["4"], ["0"]], "y": [["1"], ["1"]]}, "kind": "witness", "m": 1}, '
     '{"data": {"pairs": 21}, "kind": "vanishing-sweep", "m": 2}, {"data": '
     '{"pairs": 21}, "kind": "vanishing-sweep", "m": 3}, {"data": {"pairs": '
     '21}, "kind": "vanishing-sweep", "m": 4}], "certified_precision": 64, '
     '"depth": 3, "estimated_m0": 2}, "schema": "v1"}'),
    (["m0", "--depth", "3", "--preset", "qp-zeta-5", "-N", "32"],
     '{"certified_precision": 128, "command": "m0", "config": {"budget": '
     '500, "precision": 32, "seed": 0}, "result": {"bound": 6, '
     '"certificates": [{"data": {"x": [["1"], ["1"], ["0"], ["0"]], "y": '
     '[["1"], ["0"], ["1"], ["0"]]}, "kind": "witness", "m": 0}, {"data": '
     '{"x": [["6"], ["0"], ["0"], ["0"]], "y": [["1"], ["1"], ["0"], '
     '["0"]]}, "kind": "witness", "m": 1}, {"data": {"x": [["1"], ["0"], '
     '["1"], ["0"]], "y": [["1"], ["0"], ["0"], ["1"]]}, "kind": "witness", '
     '"m": 2}, {"data": {"pairs": 21}, "kind": "vanishing-sweep", "m": 3}, '
     '{"data": {"pairs": 21}, "kind": "vanishing-sweep", "m": 4}, {"data": '
     '{"pairs": 21}, "kind": "vanishing-sweep", "m": 5}, {"data": {"pairs": '
     '21}, "kind": "vanishing-sweep", "m": 6}], "certified_precision": 128, '
     '"depth": 3, "estimated_m0": 3}, "schema": "v1"}'),
    (["m0", "--depth", "3", "--preset", "qp-zeta-7", "-N", "16"],
     '{"certified_precision": 96, "command": "m0", "config": {"budget": 500, '
     '"precision": 16, "seed": 0}, "result": {"bound": 8, "certificates": '
     '[{"data": {"x": [["1"], ["1"], ["0"], ["0"], ["0"], ["0"]], "y": '
     '[["1"], ["0"], ["1"], ["0"], ["0"], ["0"]]}, "kind": "witness", "m": '
     '0}, {"data": {"x": [["8"], ["0"], ["0"], ["0"], ["0"], ["0"]], "y": '
     '[["1"], ["1"], ["0"], ["0"], ["0"], ["0"]]}, "kind": "witness", "m": '
     '1}, {"data": {"x": [["1"], ["0"], ["1"], ["0"], ["0"], ["0"]], "y": '
     '[["1"], ["0"], ["0"], ["1"], ["0"], ["0"]]}, "kind": "witness", "m": '
     '2}, {"data": {"x": [["1"], ["0"], ["0"], ["1"], ["0"], ["0"]], "y": '
     '[["1"], ["0"], ["0"], ["0"], ["1"], ["0"]]}, "kind": "witness", "m": '
     '3}, {"data": {"pairs": 21}, "kind": "vanishing-sweep", "m": 4}, '
     '{"data": {"pairs": 21}, "kind": "vanishing-sweep", "m": 5}, {"data": '
     '{"pairs": 21}, "kind": "vanishing-sweep", "m": 6}, {"data": {"pairs": '
     '21}, "kind": "vanishing-sweep", "m": 7}, {"data": {"pairs": 21}, '
     '"kind": "vanishing-sweep", "m": 8}], "certified_precision": 96, '
     '"depth": 3, "estimated_m0": 4}, "schema": "v1"}'),
]

# the same for Q_3(sqrt(-3)) from a descriptor: k = 1, but its zeta_3 is
# not 1 + pi
_SQRT_MINUS_3 = {"p": 3, "N": 32, "f": [3, 0, 1]}
_DESCRIPTOR_GOLDEN = [
    (["m0"],
     '{"certified_precision": 64, "command": "m0", "config": {"budget": 500, '
     '"precision": 64, "seed": 0}, "result": {"bound": 4, "certificates": '
     '[{"data": {"x": [["1"], ["1"]], "y": [["1853020188851839"], ["0"]]}, '
     '"kind": "witness", "m": 0}, {"data": {"x": [["4"], ["0"]], "y": '
     '[["1"], ["1"]]}, "kind": "witness", "m": 1}, {"data": {"pairs": 13}, '
     '"kind": "vanishing-sweep", "m": 2}, {"data": {"pairs": 13}, "kind": '
     '"vanishing-sweep", "m": 3}, {"data": {"pairs": 13}, "kind": '
     '"vanishing-sweep", "m": 4}], "certified_precision": 64, "depth": 2, '
     '"estimated_m0": 2}, "schema": "v1"}'),
    (["norm-oracle", "--m", "p", "--x", "1+pi", "--y", "2+pi"],
     '{"certified_precision": 64, "command": "norm-oracle", "config": '
     '{"budget": 500, "precision": 64, "seed": 0}, "result": {"m": 3, '
     '"trivial": true}, "schema": "v1"}'),
]


@pytest.mark.parametrize("argv,result", _GOLDEN,
                         ids=lambda v: "-".join(v[:3]) if isinstance(v, list)
                         else "")
def test_function_field_golden_output(capsys, argv, result):
    code, out = _run(capsys, argv + ["--json"])
    assert code == 0
    assert out == _ENVELOPE % (argv[0], result)


@pytest.mark.parametrize("argv,stdout", _LOCAL_GOLDEN,
                         ids=lambda v: "-".join(v[:3]) if isinstance(v, list)
                         else "")
def test_local_field_golden_output(capsys, argv, stdout):
    code, out = _run(capsys, argv + ["--json"])
    assert code == 0
    assert out == stdout + "\n"


def test_m0_budget_error_golden(capsys):
    # recorded with the m0 goldens: the budget counts every pair of the
    # sweep, so it runs out at the same m however the pairs are answered
    code = dispatch(["m0", "--preset", "qp-zeta-5", "-N", "32",
                     "--budget", "40", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: sample budget exhausted at m = 4\n"


@pytest.mark.parametrize("argv,stdout", _DESCRIPTOR_GOLDEN,
                         ids=lambda v: v[0] if isinstance(v, list) else "")
def test_descriptor_golden_output(tmp_path, capsys, argv, stdout):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(_SQRT_MINUS_3))
    code, out = _run(capsys, argv + ["--field-json", str(path), "--json"])
    assert code == 0
    assert out == stdout + "\n"


def test_preset_errors_name_the_cause(capsys):
    assert dispatch(["tame", "--preset", "qp-5", "-N", "4",
                     "--x", "p", "--y", "2"]) == 2
    assert "at least 8" in capsys.readouterr().err
    assert dispatch(["tame", "--preset", "qp-4", "--x", "p", "--y", "2"]) == 2
    assert "not prime" in capsys.readouterr().err
    assert dispatch(["tame", "--preset", "qp-x", "--x", "p", "--y", "2"]) == 2
    assert "unknown field preset" in capsys.readouterr().err


def test_field_json_descriptor(tmp_path, capsys):
    desc = qp_zeta(3, 16).descriptor()
    path = tmp_path / "field.json"
    path.write_text(json.dumps(desc))
    code, doc = _run_json(capsys, ["tame", "--field-json", str(path),
                                   "--x", "pi", "--y", "pi"])
    assert code == 0
    assert doc["result"]["value"]["tame"] == (qp_zeta(3, 16).q - 1) // 2


@pytest.mark.parametrize("text", [
    '{"p": 3}',
    '[1, 2]',
    '{"p": 3, "f": [[3], [0], [1]], "d": "x"}',
], ids=["missing-f", "not-an-object", "d-not-an-int"])
def test_bad_field_descriptors_exit_2(tmp_path, text):
    path = tmp_path / "field.json"
    path.write_text(text)
    proc = _subprocess(_ENTRY, ["tame", "--field-json", str(path),
                                "--x", "pi", "--y", "pi"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("f", [[], [5]], ids=["f-empty", "f-constant"])
def test_descriptor_of_degree_below_one_exits_2(tmp_path, capsys, f):
    # a malformed descriptor, not a field outside the caps
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"p": 3, "f": f}))
    assert dispatch(["tame", "--field-json", str(path),
                     "--x", "pi", "--y", "pi"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", "error: f must have degree at least 1\n")


def test_precision_above_the_cap_exits_2(tmp_path, capsys):
    # uncapped, this query runs for more than 20 s
    assert dispatch(["norm-oracle", "--preset", "qp-zeta-3", "--m", "p",
                     "--x", "1+p", "--y", "1+pi", "-N", "20000"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    desc = dict(qp_zeta(3, 16).descriptor(), N=5000)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(desc))
    assert dispatch(["tame", "--field-json", str(path),
                     "--x", "pi", "--y", "pi"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_precision_ignores_the_environment():
    argv = ["tame", "--preset", "qp-5", "--x", "p", "--y", "2", "--json"]
    plain = _subprocess(_ENTRY, argv)
    env = dict(os.environ, TAMEWILD_PRECISION="abc",
               PYTHONPATH=str(Path(tamewild.__file__).resolve().parents[1]))
    knob = subprocess.run([sys.executable, "-c", _ENTRY, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=env)
    assert plain.returncode == knob.returncode == 0, knob.stderr
    assert knob.stdout == plain.stdout
    assert '"precision": 64' in knob.stdout


def test_byte_identical_output(capsys):
    argv = ["m0", "--preset", "qp-zeta-3", "--precision", "32", "--json"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2
    argv = ["moore", "--a", "-99", "--b", "1001", "--json"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2


def test_selftest_single(capsys):
    code, out = _run(capsys, ["selftest", "--only", "11"])
    assert code == 0
    assert "[PASS] criterion 11" in out


def test_selftest_byte_identical(capsys):
    _, out1 = _run(capsys, ["selftest", "--only", "11"])
    _, out2 = _run(capsys, ["selftest", "--only", "11"])
    assert out1 == out2


def test_selftest_json(capsys):
    argv = ["selftest", "--only", "11", "--json"]
    code, out = _run(capsys, argv)
    assert code == 0 and _run(capsys, argv)[1] == out
    doc = json.loads(out)
    assert (doc["schema"], doc["command"]) == ("v1", "selftest")
    expected = {"number": 11, "name": "global lattice of Q(zeta_3)",
                "passed": True, "detail": "HNF [[1, 0], [0, 3]], index 3"}
    assert doc["result"] == {"criteria": [expected]}
    code, doc = _run_json(capsys, ["selftest", "--only", "11", "--timings"])
    entry, = doc["result"]["criteria"]
    assert entry.pop("elapsed") >= 0 and entry == expected


def test_runconfig_json():
    cfg = RunConfig(precision=32, budget=100, seed=7)
    assert cfg.to_json() == {"precision": 32, "budget": 100, "seed": 7}
