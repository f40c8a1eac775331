import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamewild
from tamewild import cli
from tamewild.cli import RunConfig, dispatch, element_from_string
from tamewild.errors import BadInput, InvariantFailed, NormUnitNotPrincipal
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


@pytest.mark.parametrize("place", [-3, 4, 1, -1, 0])
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


def test_hasse_subcommand(capsys):
    code, doc = _run_json(capsys, ["hasse-verify", "--preset", "qp-zeta-5",
                                   "--t", "2", "--precision", "32"])
    assert code == 0
    assert doc["result"]["ok"] is True


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


@pytest.mark.parametrize("error", [InvariantFailed, NormUnitNotPrincipal])
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
]


@pytest.mark.parametrize("argv,result", _GOLDEN,
                         ids=lambda v: "-".join(v[:3]) if isinstance(v, list)
                         else "")
def test_function_field_golden_output(capsys, argv, result):
    code, out = _run(capsys, argv + ["--json"])
    assert code == 0
    assert out == _ENVELOPE % (argv[0], result)


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
