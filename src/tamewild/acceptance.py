"""The acceptance suite: every criterion with its stated parameters.

Each criterion is a function returning a CriterionResult; run_all executes
them in order and is shared by the CLI selftest and the pytest suite.
Sampling is fully determined by the run seed.  Independent oracles
(Euler-criterion Legendre symbols, brute-force coset counting) live here,
next to the checks that consume them, and never call the code paths they
certify.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import PRECISION_EXHAUSTED
from .finitefield import GF, FqPoly
from .funcfield import FqRational
from .funcfield import ff_hilbert_check as _ff_hilbert
from .funcfield import residue_theorem_check as _residue_check
from .globalrecip import global_optimal_lattice, moore_product_q
from .localfield import (
    FElem,
    eisenstein_root,
    hasse_forward,
    pth_root_in_filtration,
    qp,
    qp_zeta,
    spanning_units,
    unit_decompose,
    valuation,
)
from .normoracle import norm_residue_trivial
from .ntheory import primerange
from .orders import OrderRm, estimate_m0, m0_bound
from .symbols import (
    hilbert_quadratic_q,
    k1_decompose,
    k2_transform,
    tame_symbol,
    triviality_oracle,
    wild_symbol_zeta,
)


@dataclass
class CriterionResult:
    ident: int
    name: str
    passed: bool
    detail: str
    elapsed: float | None = None  # seconds, set by run_all


def _rng(cfg, tag):
    return random.Random(f"{cfg.seed}:{tag}")


def _random_nonzero(ctx, rng, val_cap=4, coeff_digits=6):
    """A random nonzero integral element with smallish valuation."""
    while True:
        coeffs = [rng.randrange(ctx.p ** coeff_digits)
                  for _ in range(ctx.e)]
        x = ctx.elem(coeffs) * ctx.pi ** rng.randrange(val_cap)
        if not x.is_zero() and valuation(x) is not PRECISION_EXHAUSTED:
            return x


def _euler_legendre(a, p):
    """Independent Legendre oracle by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


# ---------------------------------------------------------------------------

def criterion_1(cfg):
    """Quadratic reciprocity via the product formula."""
    failures = []
    odd_primes_200 = primerange(3, 200)
    count = 0
    for p, q in itertools.permutations(odd_primes_200, 2):
        count += 1
        if moore_product_q(p, q).product != 1:
            failures.append(f"product != 1 at ({p},{q})")
    rng = _rng(cfg, "moore-random")
    done = 0
    while done < 500:
        a = rng.randint(-10 ** 4, 10 ** 4)
        b = rng.randint(-10 ** 4, 10 ** 4)
        if a == 0 or b == 0:
            continue
        done += 1
        if moore_product_q(a, b).product != 1:
            failures.append(f"product != 1 at random ({a},{b})")
    qr_pairs = 0
    for p, q in itertools.permutations(primerange(3, 100), 2):
        qr_pairs += 1
        lhs = _euler_legendre(p, q) * _euler_legendre(q, p)
        rhs = -1 if ((p - 1) // 2) * ((q - 1) // 2) % 2 else 1
        tab = {pl.label(): v for pl, v in moore_product_q(p, q).table}
        # the table must reproduce both Legendre symbols and the sign rule
        if tab[str(q)] != _euler_legendre(p, q) \
                or tab[str(p)] != _euler_legendre(q, p) \
                or lhs != rhs or tab["2"] != rhs:
            failures.append(f"QR identity mismatch at ({p},{q})")
    detail = (f"{count} prime pairs < 200, 500 random pairs, "
              f"{qr_pairs} QR identities")
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(1, "Moore product / quadratic reciprocity",
                           not failures, detail)


def criterion_2(cfg):
    """Closed-form quadratic symbol vs norm-residue oracle."""
    N = 32
    failures = []
    pairs_tested = 0
    for p in (2, 3, 5, 7):
        ctx = qp(p, N)
        rng = _rng(cfg, f"coherence-{p}")
        units = []
        while len(units) < 2:
            u = rng.randrange(2, p ** 3)
            if u % p:
                units.append(u)
        values = [-1, 1, -2, 2, -5, 5, p, p - 1, p + 1] + units
        for a, b in itertools.product(values, values):
            if a == 0 or b == 0:
                continue
            closed = hilbert_quadratic_q(a, b, p)
            xa = _rational_in(ctx, a)
            xb = _rational_in(ctx, b)
            oracle = norm_residue_trivial(xa, xb, 2)
            pairs_tested += 1
            if (closed == 1) != oracle:
                failures.append(f"p={p} ({a},{b}): closed {closed}, "
                                f"oracle {oracle}")
    detail = f"{pairs_tested} pairs at p in (2,3,5,7), N={N}"
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(2, "closed form vs norm-residue oracle",
                           not failures and pairs_tested >= 200, detail)


def _rational_in(ctx, r):
    """Embed a nonzero rational in Q_p modulo squares (class-preserving)."""
    r = Fraction(r)
    p = ctx.p
    num, den = r.numerator, r.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    lift = num * pow(den, -1, ctx.base.mod) % ctx.base.mod
    return ctx.from_int(lift) * ctx.pi ** (v % 2)


def _presets(cfg, N=None):
    N = N or cfg.precision
    return [qp(3, N), qp(5, N), qp_zeta(3, N), eisenstein_root(3, 3, N)]


def criterion_3(cfg):
    """Tame symbol laws: bilinearity, antisymmetry, Steinberg."""
    failures = []
    total = 0
    for ctx in _presets(cfg):
        rng = _rng(cfg, f"tame-{ctx.name}")
        qm1 = ctx.q - 1
        for _ in range(500):
            total += 1
            x = _random_nonzero(ctx, rng)
            y = _random_nonzero(ctx, rng)
            z = _random_nonzero(ctx, rng)
            sxy = tame_symbol(x, y)
            if (tame_symbol(x * z, y) - tame_symbol(z, y) - sxy) % qm1:
                failures.append(f"{ctx.name}: bilinearity")
                break
            if (sxy + tame_symbol(y, x)) % qm1:
                failures.append(f"{ctx.name}: antisymmetry")
                break
            one_minus = ctx.one - x
            if not one_minus.is_zero() \
                    and valuation(one_minus) is not PRECISION_EXHAUSTED \
                    and tame_symbol(x, one_minus) != 0:
                failures.append(f"{ctx.name}: Steinberg")
                break
    detail = f"{total} sampled triples over 4 presets at N={cfg.precision}"
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(3, "tame symbol laws", not failures, detail)


def _sample_in_order(ctx, order, rng):
    """A random element of R_m built from the membership constraints."""
    e, m = ctx.e, order.m
    coeffs = [rng.randrange(ctx.p ** 6)]
    for i in range(1, e):
        depth = max(0, -((i - m) // e))
        coeffs.append(ctx.p ** depth * rng.randrange(ctx.p ** 5))
    return ctx.elem(coeffs)


def criterion_4(cfg):
    """Local-ring structure of R_m on sampled elements."""
    failures = []
    checks = 0
    for ctx in _presets(cfg):
        rng = _rng(cfg, f"rm-{ctx.name}")
        for m in range(0, 2 * ctx.e + 1):
            order = OrderRm(ctx, m)
            # residue surjectivity from the unramified part alone
            residues = set()
            for c in ctx.base.kappa.elements():
                x = ctx.lift_residue(c)
                if not order.contains(x):
                    failures.append(f"{ctx.name} m={m}: O0 not in R_m")
                    break
                residues.add(x.residue())
            if len(residues) != ctx.q:
                failures.append(f"{ctx.name} m={m}: residue map not onto")
            for _ in range(500 // (2 * ctx.e + 1) + 1):
                checks += 1
                x = _sample_in_order(ctx, order, rng)
                y = _sample_in_order(ctx, order, rng)
                if not (order.contains(x + y) and order.contains(x * y)):
                    failures.append(f"{ctx.name} m={m}: not closed")
                    break
                if x.is_zero():
                    continue
                unit = order.is_unit(x)
                maximal = order.ideal_contains(x)
                if unit == maximal:
                    failures.append(f"{ctx.name} m={m}: dichotomy")
                    break
                if 1 <= m <= ctx.e:
                    v = valuation(x)
                    in_power = (v is not PRECISION_EXHAUSTED and v >= m) \
                        or v is PRECISION_EXHAUSTED
                    if order.ideal_contains(x) != in_power:
                        failures.append(
                            f"{ctx.name} m={m}: maximal ideal != m^m O_F")
                        break
                if unit:
                    dec = unit_decompose(x)
                    if dec.n != 0 or not order.ideal_contains(
                            dec.u - ctx.one):
                        failures.append(f"{ctx.name} m={m}: factorization")
                        break
                    if dec.reconstruct(ctx) != x:
                        failures.append(f"{ctx.name} m={m}: reconstruction")
                        break
                    if not order.contains(x.invert_unit()):
                        failures.append(
                            f"{ctx.name} m={m}: inverse escapes")
                        break
    detail = (f"{checks} sampled memberships over 4 presets, m <= 2e, "
              f"N={cfg.precision}")
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(4, "singular order local-ring suite",
                           not failures, detail)


def brute_force_index(ctx, m):
    """Coset count of R_m in O_F via exhaustive enumeration mod p^K."""
    e, p, d = ctx.e, ctx.p, ctx.d
    K = max(1, -((-m) // e))  # ceil(m/e); p^K O_F lies inside R_m
    order = OrderRm(ctx, m)
    members = 0
    total = 0
    for coeffs in itertools.product(range(p ** K), repeat=e * d):
        total += 1
        if order.contains(FElem(ctx, coeffs)):
            members += 1
    return total // members


def criterion_5(cfg):
    """Index formula against brute-force coset counting."""
    N = 8
    failures = []
    cases = 0
    for p in (3, 5):
        for e in (1, 2, 3):
            ctx = eisenstein_root(p, e, N) if e > 1 else qp(p, N)
            for m in range(0, 2 * e + 1):
                cases += 1
                closed = OrderRm(ctx, m).index_in_of()
                brute = brute_force_index(ctx, m)
                if closed != brute:
                    failures.append(
                        f"p={p} e={e} m={m}: closed {closed} != {brute}")
    detail = f"{cases} (p,e,m) cases at N={N}"
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(5, "index formula vs coset enumeration",
                           not failures, detail)


def criterion_6(cfg):
    """Unit-filtration p-power landing bounds and constructive roots."""
    failures = []
    fields = [qp_zeta(3, cfg.precision), qp_zeta(5, cfg.precision),
              eisenstein_root(3, 3, cfg.precision)]
    for ctx in fields:
        tmax = int(ctx.e1) + ctx.e + 1
        for t in range(1, tmax + 1):
            rep = hasse_forward(ctx, t)
            if not rep.ok:
                failures.append(f"{ctx.name} t={t}: landing "
                                f"{rep.min_landing} < {rep.required}")
        k = ctx.k
        if k >= 1:
            bound = ctx.p * ctx.e1 + (k - 1) * ctx.e
            i = int(bound.numerator // bound.denominator) + 1
            for u in spanning_units(ctx, i, i + 2):
                root = u
                for step in range(k):
                    lvl = i - (step + 1) * ctx.e
                    root = pth_root_in_filtration(root, lvl)
                back = root
                for _ in range(k):
                    back = back ** ctx.p
                if back != u:
                    failures.append(f"{ctx.name}: p-th root chain at U^{i}")
                    break
    detail = ("forward bounds + root chains on qp-zeta-3, qp-zeta-5, "
              f"cbrt-3 at N={cfg.precision}")
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(6, "p-power filtration compatibility",
                           not failures, detail)


def criterion_7(cfg):
    """Wild symbol nontriviality at 1+p and vanishing above the bound."""
    N = 32
    failures = []
    for p in (3, 5):
        ctx = qp_zeta(p, N)
        zeta = ctx.one + ctx.pi
        B = m0_bound(ctx)
        j = wild_symbol_zeta(ctx.from_int(1 + p), ctx)
        if j == 0:
            failures.append(f"p={p}: wild(1+p) = 0")
        if norm_residue_trivial(ctx.from_int(1 + p), zeta, p):
            failures.append(f"p={p}: oracle says 1+p is a norm")
        for x in spanning_units(ctx, B + 1, B + 3):
            if wild_symbol_zeta(x, ctx) != 0:
                failures.append(f"p={p}: wild symbol nonzero above bound")
                break
            if not norm_residue_trivial(x, zeta, p):
                failures.append(f"p={p}: oracle disagrees above bound")
                break
    detail = "qp-zeta-3 and qp-zeta-5 at N=32, spanning depth 2"
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(7, "wild symbol vanishing bound", not failures,
                           detail)


def criterion_8(cfg):
    """Symbol-reduction identities preserve values under all evaluators."""
    failures = []
    total = 0
    for ctx in _presets(cfg):
        rng = _rng(cfg, f"reduce-{ctx.name}")
        qm1 = ctx.q - 1
        evaluators = [("tame", lambda a, b: tame_symbol(a, b))]
        if ctx.e == 1 and ctx.d == 1:
            from .symbols import hilbert_quadratic_padic
            evaluators.append(
                ("quad", lambda a, b: hilbert_quadratic_padic(a, b, ctx)))
        for _ in range(200):
            total += 1
            x = _random_nonzero(ctx, rng)
            y = _random_nonzero(ctx, rng)
            pairs = k1_decompose(x, y)
            for name, ev in evaluators:
                direct = ev(x, y)
                via = [ev(*pr) for pr in pairs]
                combined = sum(via) % qm1 if name == "tame" \
                    else via[0] * via[1]
                if combined != direct:
                    failures.append(f"{ctx.name}: k1 under {name}")
                    break
            u = ctx.one + _random_nonzero(ctx, rng) * ctx.pi ** 2
            a, b = k2_transform(u)
            for name, ev in evaluators:
                lhs = ev(ctx.pi, u)
                rhs = ev(a, b)
                if lhs != rhs:
                    failures.append(f"{ctx.name}: k2 under {name}")
                    break
            if failures:
                break
    detail = f"{total} seeded inputs over 4 presets at N={cfg.precision}"
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(8, "symbol reduction identities", not failures,
                           detail)


def criterion_9(cfg):
    """Stabilisation-index experiments."""
    N = 32
    failures = []
    details = []
    for p in (3, 5, 7):
        rep = estimate_m0(qp(p, N))
        details.append(f"qp-{p}:{rep.estimated_m0}")
        if rep.estimated_m0 != 0:
            failures.append(f"qp-{p}: estimated {rep.estimated_m0} != 0")
    rep = estimate_m0(eisenstein_root(3, 3, N))
    details.append(f"cbrt-3:{rep.estimated_m0}")
    if rep.estimated_m0 is None or rep.estimated_m0 > 1:
        failures.append(f"cbrt-3: estimated {rep.estimated_m0} > 1")
    for p in (3, 5):
        ctx = qp_zeta(p, N)
        oracle = triviality_oracle(ctx)
        rep = estimate_m0(ctx, oracle, sample_budget=cfg.budget)
        B = m0_bound(ctx)
        details.append(f"qp-zeta-{p}:{rep.estimated_m0}<= B={B}")
        if rep.estimated_m0 is None or rep.estimated_m0 > B:
            failures.append(f"qp-zeta-{p}: estimate exceeds bound {B}")
        kinds = {m: kind for m, kind, _ in rep.certificates}
        if rep.estimated_m0 is not None:
            for m in range(rep.estimated_m0, B + 1):
                if kinds.get(m) != "vanishing-sweep":
                    failures.append(f"qp-zeta-{p}: vanishing not monotone")
            if not any(kind == "witness" for m, kind in kinds.items()
                       if m < rep.estimated_m0) and rep.estimated_m0 > 0:
                failures.append(f"qp-zeta-{p}: no recorded witness below")
    detail = "; ".join(details)
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(9, "stabilisation index experiments",
                           not failures, detail)


def _random_rational(gf, rng, max_deg=4):
    while True:
        num = FqPoly(gf, [rng.randrange(gf.q)
                          for _ in range(rng.randint(1, max_deg + 1))])
        den = FqPoly(gf, [rng.randrange(gf.q)
                          for _ in range(rng.randint(1, max_deg + 1))])
        if not num.is_zero() and not den.is_zero():
            r = FqRational(num, den)
            if not r.is_zero():
                return r


def criterion_10(cfg):
    """Function-field reciprocity and the residue theorem."""
    failures = []
    for q in (2, 3, 4, 5):
        gf = GF(q)
        rng = _rng(cfg, f"weil-{q}")
        for _ in range(500):
            f = _random_rational(gf, rng)
            g = _random_rational(gf, rng)
            # the Weil product, with every norm also checked as a power map
            ok, _ = _ff_hilbert(f, g)
            if not ok:
                failures.append(f"q={q}: reciprocity product != 1")
                break
    for q in (2, 3, 5):
        gf = GF(q)
        rng = _rng(cfg, f"residue-{q}")
        for _ in range(500):
            f = _random_rational(gf, rng, max_deg=3)
            g = _random_rational(gf, rng, max_deg=3)
            ok, _, _ = _residue_check(f, g)
            if not ok:
                failures.append(f"q={q}: residue sum != 0")
                break
    detail = ("500 pairs per q in (2,3,4,5) + 500 forms per q in (2,3,5); "
              "exact finite-field arithmetic")
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(10, "function-field reciprocity suite",
                           not failures, detail)


def criterion_11(cfg):
    """The global lattice at p = 3, m = 2."""
    failures = []
    lat = global_optimal_lattice(3, m=2, N=32)
    if not lat.contains_one():
        failures.append("1 is not in the lattice")
    if not lat.multiplicatively_closed():
        failures.append("lattice is not multiplicatively closed")
    ctx = qp_zeta(3, 8)
    closed = OrderRm(ctx, 2).index_in_of()
    brute = brute_force_index(ctx, 2)
    if not (lat.index == closed == brute):
        failures.append(
            f"index mismatch: lattice {lat.index}, closed {closed}, "
            f"brute {brute}")
    detail = f"HNF {list(map(list, lat.basis))}, index {lat.index}"
    if failures:
        detail += f"; FIRST FAILURE: {failures[0]}"
    return CriterionResult(11, "global lattice of Q(zeta_3)", not failures,
                           detail)


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11]


def run_all(cfg, only=None):
    """Run every criterion, or only the one numbered only, timing each on
    the perf_counter clock."""
    results = []
    for i, crit in enumerate(CRITERIA, start=1):
        if only is not None and i != only:
            continue
        t0 = time.perf_counter()
        result = crit(cfg)
        result.elapsed = time.perf_counter() - t0
        results.append(result)
    return results
