"""Command-line entry point.

Every verification and computation is exposed as a subcommand with
deterministic text and JSON output: identical (argv, seed, N) produce
byte-identical output.  Exit codes: 0 success/verified, 1 a checked law
fails, 2 usage error or typed error (an internal invariant included).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import localfield
from .errors import (
    BadInput,
    BudgetExceeded,
    InvariantFailed,
    NormUnitNotPrincipal,
    OracleUnavailable,
    UnsupportedSplitting,
)
from .finitefield import GF
from .funcfield import (
    ff_hilbert_check,
    rational_from_string,
    residue_theorem_check,
    weil_reciprocity_check,
)
from .globalrecip import global_optimal_lattice, moore_product_q
from .localfield import hasse_forward, preset
from .normoracle import norm_residue_trivial
from .orders import OrderRm, estimate_m0
from .parsing import parse_ring_expr
from .symbols import (
    hilbert_quadratic_q,
    tame_symbol,
    triviality_oracle,
    wild_symbol_zeta,
)

SCHEMA = "v1"
DEFAULT_PRECISION = 64


@dataclass
class RunConfig:
    """Run parameters; the seed fully determines all sampled tests."""
    precision: int = 64
    budget: int = 500
    seed: int = 0
    json_mode: bool = False

    def to_json(self):
        return {"precision": self.precision, "budget": self.budget,
                "seed": self.seed}


def element_from_string(ctx, text):
    """Parse '1+3*pi^2' style field-element syntax (pi, p and integers)."""
    return parse_ring_expr(text, {
        "int": ctx.from_int,
        "var": {"pi": ctx.pi, "p": ctx.from_int(ctx.p)},
    })


def _load_field(args, cfg):
    if getattr(args, "field_json", None):
        with open(args.field_json) as fh:
            return localfield.LocalFieldCtx.from_json(fh.read())
    return preset(args.preset, cfg.precision)


def _emit(args, cfg, command, result, certified=None):
    if cfg.json_mode:
        doc = {
            "schema": SCHEMA,
            "command": command,
            "config": cfg.to_json(),
            "result": result,
        }
        if certified is not None:
            doc["certified_precision"] = certified
        print(json.dumps(doc, sort_keys=True))
    else:
        _print_plain(result)


def _print_plain(result, indent=""):
    if isinstance(result, dict):
        for k in sorted(result):
            v = result[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _print_plain(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(result, list):
        for v in result:
            _print_plain(v, indent)
    else:
        print(f"{indent}{result}")


def _fraction(text):
    from fractions import Fraction
    return Fraction(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_tame(args, cfg):
    ctx = _load_field(args, cfg)
    x = element_from_string(ctx, args.x)
    y = element_from_string(ctx, args.y)
    expo = tame_symbol(x, y)
    result = {"value": {"tame": expo, "tame_mod": ctx.q - 1},
              "trivial": expo == 0}
    _emit(args, cfg, "tame", result, certified=ctx.M)
    return 0


def _cmd_hilbert2(args, cfg):
    place = args.place if args.place == "inf" else int(args.place)
    val = hilbert_quadratic_q(args.a, args.b, place)
    _emit(args, cfg, "hilbert2", {"value": val}, certified="exact")
    return 0


def _cmd_wild_zeta(args, cfg):
    ctx = preset(f"qp-zeta-{args.p}", cfg.precision)
    x = element_from_string(ctx, args.x)
    j = wild_symbol_zeta(x, ctx)
    _emit(args, cfg, "wild-zeta",
          {"value": {"wild": j, "wild_mod": ctx.p}, "trivial": j == 0},
          certified=ctx.M)
    return 0


def _cmd_norm_oracle(args, cfg):
    ctx = _load_field(args, cfg)
    x = element_from_string(ctx, args.x)
    y = element_from_string(ctx, args.y)
    m = ctx.p if args.m == "p" else int(args.m)
    triv = norm_residue_trivial(x, y, m)
    _emit(args, cfg, "norm-oracle", {"trivial": triv, "m": m},
          certified=ctx.M)
    return 0


def _cmd_order(args, cfg):
    ctx = _load_field(args, cfg)
    order = OrderRm(ctx, args.m)
    result = {"m": args.m, "index": str(order.index_in_of()),
              "index_exponent": order.index_exponent()}
    if args.x is not None:
        x = element_from_string(ctx, args.x)
        result.update({
            "contains": order.contains(x),
            "in_maximal_ideal": order.ideal_contains(x),
            "is_unit": order.is_unit(x),
        })
    _emit(args, cfg, "order", result, certified=ctx.M)
    return 0


def _cmd_m0(args, cfg):
    ctx = _load_field(args, cfg)
    oracle = None
    if ctx.e > 1 and ctx.k >= 1:
        oracle = triviality_oracle(ctx)
    report = estimate_m0(ctx, oracle, sample_budget=cfg.budget,
                         depth=args.depth)
    _emit(args, cfg, "m0", report.to_json(), certified=ctx.M)
    return 0


def _cmd_hasse_verify(args, cfg):
    ctx = _load_field(args, cfg)
    report = hasse_forward(ctx, args.t, depth=args.depth)
    _emit(args, cfg, "hasse-verify", report.to_json(), certified=ctx.M)
    return 0 if report.ok else 1


def _cmd_moore(args, cfg):
    res = moore_product_q(args.a, args.b)
    _emit(args, cfg, "moore", res.to_json(), certified="exact")
    return 0 if res.product == 1 else 1


def _cmd_lattice(args, cfg):
    lat = global_optimal_lattice(args.p, m=args.m, N=cfg.precision)
    result = lat.to_json()
    result["contains_one"] = lat.contains_one()
    result["multiplicatively_closed"] = lat.multiplicatively_closed()
    _emit(args, cfg, "lattice", result, certified=cfg.precision)
    ok = result["contains_one"] and result["multiplicatively_closed"]
    return 0 if ok else 1


def _ff_args(args):
    gf = GF(args.q)
    f = rational_from_string(gf, args.f)
    g = rational_from_string(gf, args.g)
    return gf, f, g


def _cmd_weil(args, cfg):
    gf, f, g = _ff_args(args)
    ok, table = weil_reciprocity_check(f, g)
    result = {"product_is_one": ok,
              "table": {pl.label(): v for pl, v in table}}
    _emit(args, cfg, "weil", result, certified="exact")
    return 0 if ok else 1


def _cmd_ff_hilbert(args, cfg):
    gf, f, g = _ff_args(args)
    ok, table = ff_hilbert_check(f, g)
    result = {"product_is_one": ok,
              "table": {pl.label(): v for pl, v in table}}
    _emit(args, cfg, "ff-hilbert", result, certified="exact")
    return 0 if ok else 1


def _cmd_residue(args, cfg):
    gf, f, g = _ff_args(args)
    ok, table, flagged = residue_theorem_check(f, g)
    result = {"sum_is_zero": ok, "constant_differential": flagged,
              "table": {pl.label(): v for pl, v in table}}
    _emit(args, cfg, "residue", result, certified="exact")
    return 0 if ok else 1


def _cmd_selftest(args, cfg):
    from .acceptance import CRITERIA, run_all
    if args.only is not None and not 1 <= args.only <= len(CRITERIA):
        raise BadInput(f"--only must be a criterion number 1..{len(CRITERIA)}")
    results = run_all(cfg, only=args.only)
    failed = sum(not r.passed for r in results)
    if cfg.json_mode:
        criteria = []
        for r in results:
            entry = {"number": r.ident, "name": r.name, "passed": r.passed,
                     "detail": r.detail}
            if args.timings:
                entry["elapsed"] = round(r.elapsed, 6)
            criteria.append(entry)
        _emit(args, cfg, "selftest", {"criteria": criteria})
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            timing = f" ({r.elapsed:.1f}s)" if args.timings else ""
            print(f"[{status}] criterion {r.ident}: {r.name}{timing} "
                  f"{r.detail}")
        print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(
        prog="tamewild",
        description="Exact desk-scale local-field symbols and reciprocity "
                    "checks")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, field=False):
        p.add_argument("--json", action="store_true", dest="json_mode")
        p.add_argument("--precision", "-N", type=int,
                       default=DEFAULT_PRECISION)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=500)
        if field:
            p.add_argument("--preset", default="qp-3",
                           help="field preset: qp-P, qp-zeta-P, sqrt-P, "
                                "cbrt-P, rootE-P")
            p.add_argument("--field-json",
                           help="JSON field descriptor file (overrides "
                                "--preset)")

    p = sub.add_parser("tame", help="tame symbol of two field elements")
    common(p, field=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_tame)

    p = sub.add_parser("hilbert2", help="quadratic Hilbert symbol over Q")
    common(p)
    p.add_argument("--place", required=True, help="a prime or 'inf'")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--b", type=_fraction, required=True)
    p.set_defaults(func=_cmd_hilbert2)

    p = sub.add_parser("wild-zeta",
                       help="wild pairing against zeta_p over Q_p(zeta_p)")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(func=_cmd_wild_zeta)

    p = sub.add_parser("norm-oracle",
                       help="norm-residue triviality of (x, y) at m")
    common(p, field=True)
    p.add_argument("--m", default="2", help="2 or 'p'")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_norm_oracle)

    p = sub.add_parser("order", help="membership and index data of R_m")
    common(p, field=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("m0", help="experimental stabilisation index report")
    common(p, field=True)
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(func=_cmd_m0)

    p = sub.add_parser("hasse-verify",
                       help="p-power landing levels on U^t spanning sets")
    common(p, field=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=_cmd_hasse_verify)

    p = sub.add_parser("moore",
                       help="per-place quadratic symbol table over Q")
    common(p)
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--b", type=_fraction, required=True)
    p.set_defaults(func=_cmd_moore)

    p = sub.add_parser("lattice",
                       help="global order lattice of Q(zeta_p) in HNF")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("weil", help="Weil reciprocity over F_q(t)")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_weil)

    p = sub.add_parser("ff-hilbert",
                       help="function-field Hilbert reciprocity")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_ff_hilbert)

    p = sub.add_parser("residue", help="residue theorem for f dg")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_residue)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    common(p)
    p.add_argument("--only", type=int, default=None,
                   help="run a single criterion by number")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings, in seconds (breaks "
                        "byte-identical output)")
    p.set_defaults(func=_cmd_selftest)

    return top


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cfg = RunConfig(precision=args.precision, budget=args.budget,
                    seed=args.seed, json_mode=args.json_mode)
    try:
        return args.func(args, cfg)
    except (ValueError, ArithmeticError, OSError, OracleUnavailable,
            BudgetExceeded, UnsupportedSplitting, InvariantFailed,
            NormUnitNotPrincipal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
