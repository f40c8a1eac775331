"""The in-process workloads: local-symbols, wild-m0 and funcfield-recip.

One operation visits every field of its workload once: a part per field.
The fields' costs differ up to eightfold, so an operation of one field
each keeps the make-up of every operation the same and puts the median
operation time inside a dense distribution rather than in the gap between
two fields' costs.  A workload draws the inputs of an operation from a
seeded random.Random as plain integers and turns them into program objects
before any timing starts.  run_part() makes the program calls that are
timed and verify_part() checks their results, untimed, against oracles.py
and against laws the results must obey.  The program is reached through
module attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import functools

import oracles


class Sweep:
    """An operation is one part per field; a round is one operation."""

    def round(self, rng):
        return [{"label": self.name, "parts": self.parts(rng)}]

    def run(self, op):
        return [self.run_part(part) for part in op["parts"]]

    def verify(self, op, out):
        return [err for part, o in zip(op["parts"], out)
                for err in self.verify_part(part, o)]


def _programs():
    from tamewild import funcfield, localfield, normoracle, orders, symbols
    return localfield, symbols, normoracle, orders, funcfield


def _elem_spec(rng, p, e):
    """Coefficients in [0, p^6) on the basis 1, pi, ..., pi^(e-1), not all
    zero, and a power of pi to multiply by."""
    while True:
        coeffs = [rng.randrange(p ** 6) for _ in range(e)]
        if any(coeffs):
            return coeffs, rng.randrange(4)


def unit_prime_to(rng, p, hi=10 ** 6):
    """A seeded integer in [2, hi) prime to p."""
    while True:
        c = rng.randrange(2, hi)
        if c % p:
            return c


def _from_json(ctx, data):
    """An element of a field with d = 1 from its to_json() form."""
    return ctx.elem([int(c[0]) for c in data])


class LocalSymbols(Sweep):
    """Symbols of seeded element pairs over five local fields at N = 64."""

    name = "local-symbols"
    FIELDS = ("qp-5", "qp-zeta-3", "cbrt-3", "qp-zeta-5", "qp-zeta-7")
    N = 64
    Y_QUADRATIC = (2, 5, 10)  # the three nontrivial square classes of Q_5
    TRACE_ROUNDS = 10

    def setup(self):
        self.lf, self.sy, self.no, _, _ = _programs()
        self.ctx = {}
        for name in self.FIELDS:
            ctx = self.lf.preset(name, self.N)
            ctx.k, ctx.w_inv  # roots of unity and p/pi^e, computed lazily
            self.sy.tame_symbol(ctx.pi, ctx.omega)  # the residue dlog table
            self.ctx[name] = ctx
        q5 = self.ctx["qp-5"]
        self.y2 = [q5.from_int(y) for y in self.Y_QUADRATIC]
        for y in self.y2:
            self.no.norm_residue_trivial(q5.one, y, 2)
        q3 = self.ctx["qp-zeta-3"]
        self.zeta3 = q3.one + q3.pi
        self.no.norm_residue_trivial(q3.one, self.zeta3, 3)

    def parts(self, rng):
        parts = []
        for name in self.FIELDS:
            ctx = self.ctx[name]
            spec = {k: _elem_spec(rng, ctx.p, ctx.e) for k in "xyzw"}
            part = {"label": name, "ctx": ctx, "spec": spec,
                  "c": unit_prime_to(rng, ctx.p)}
            for k, (coeffs, shift) in spec.items():
                part[k.upper()] = ctx.elem(coeffs) * ctx.pi ** shift
            part["U2"] = ctx.one + part["W"] * ctx.pi ** 2
            parts.append(part)
        return parts

    def run_part(self, part):
        sy, lf, no = self.sy, self.lf, self.no
        ctx, X, Y = part["ctx"], part["X"], part["Y"]
        dec = lf.unit_decompose(X)
        out = {"tame": sy.tame_symbol(X, Y),
               "k1": sy.k1_decompose(X, Y),
               "k2": sy.k2_transform(part["U2"]),
               "unit": dec,
               "inverse": dec.u.invert_unit()}
        if part["label"] == "qp-5":
            out["quad"] = sy.hilbert_quadratic_padic(X, Y, ctx)
            out["oracle"] = [no.norm_residue_trivial(X, y, 2)
                             for y in self.y2]
        if part["label"].startswith("qp-zeta"):
            out["wild"] = [sy.wild_symbol_zeta(v, ctx)
                           for v in (X, Y, ctx.from_int(part["c"]))]
        if part["label"] == "qp-zeta-3":
            out["oracle"] = [no.norm_residue_trivial(v, self.zeta3, 3)
                             for v in (X, Y)]
        return out

    def verify_part(self, part, out):
        sy, lf = self.sy, self.lf
        ctx, X, Y, Z = part["ctx"], part["X"], part["Y"], part["Z"]
        p, e, qm1 = ctx.p, ctx.e, ctx.q - 1
        one, pi = ctx.one, ctx.pi
        errors = []

        def need(ok, what):
            if not ok:
                errors.append(f"{part['label']}: {what}")

        def close(A, B, loss):
            """A = B to the precision left after dividing by pi^loss."""
            D = A - B
            return D.is_zero() or lf.valuation(D) >= ctx.M - loss

        ints = {k: c[0] * p ** s for k, (c, s) in part["spec"].items()}
        vals = {k: oracles.pi_adic_valuation(c, p, e, s)
                for k, (c, s) in part["spec"].items()}
        t = out["tame"]
        if part["label"] == "qp-5":
            need(t == oracles.tame_qp(ints["x"], ints["y"], p),
                 "tame symbol != integer tame symbol")
        need((sy.tame_symbol(X * Z, Y) - sy.tame_symbol(Z, Y) - t) % qm1 == 0,
             "tame symbol not bilinear")
        need((sy.tame_symbol(Y, X) + t) % qm1 == 0,
             "tame symbol not antisymmetric")
        W = one - X
        if not W.is_zero():
            need(sy.tame_symbol(X, W) == 0, "Steinberg relation fails")

        (P, w), (u, v) = out["k1"]
        need(P == pi and close(u * pi ** vals["x"], X, vals["x"])
             and close(v * pi ** vals["y"], Y, vals["y"]),
             "k1_decompose: (u, v) are not the unit parts of (x, y)")
        need((sy.tame_symbol(P, w) + sy.tame_symbol(u, v) - t) % qm1 == 0,
             "k1_decompose changes the tame symbol")

        U2 = part["U2"]
        a, b = out["k2"]
        # g = 1 + z/pi - z for z = 1 - u = -w pi^2
        g = one - part["W"] * pi + part["W"] * pi ** 2
        need(close(a * g, one, 1) and b == (one - pi) * U2,
             "k2_transform: (a, b) != (g^-1, 1 - pi g)")
        need(sy.tame_symbol(pi, U2) == sy.tame_symbol(a, b),
             "k2_transform changes the tame symbol")

        dec = out["unit"]
        need(dec.n == vals["x"], "unit_decompose: n != v(x)")
        principal = close(dec.u, one, ctx.M - 1)  # v(u - 1) >= 1
        need(0 <= dec.i < qm1 and principal,
             "unit_decompose: u is not a principal unit")
        need(close(dec.reconstruct(ctx), X, dec.n),
             "unit_decompose: pi^n omega^i u != x")
        need(dec.u * out["inverse"] == one, "invert_unit: u * u^-1 != 1")

        if part["label"] == "qp-5":
            h = oracles.hilbert(ints["x"], ints["y"], p)
            need(out["quad"] == h, "quadratic symbol != Euler-criterion value")
            quad = functools.partial(sy.hilbert_quadratic_padic, ctx=ctx)
            need(quad(P, w) * quad(u, v) == h,
                 "k1_decompose changes the quadratic symbol")
            need(quad(pi, U2) == quad(a, b),
                 "k2_transform changes the quadratic symbol")
            for y, triv in zip(self.Y_QUADRATIC, out["oracle"]):
                need(triv == (oracles.hilbert(ints["x"], y, p) == 1),
                     f"m = 2 oracle at y = {y} != Euler-criterion value")
        if "wild" in out:
            jx, jy, jc = out["wild"]
            need(jc == oracles.wild_zeta_int(part["c"], p),
                 "wild symbol of an integer != its Fermat quotient")
            need((sy.wild_symbol_zeta(X * Y, ctx) - jx - jy) % p == 0,
                 "wild symbol not multiplicative")
        if part["label"] == "qp-zeta-3":
            for j, triv in zip((jx, jy), out["oracle"]):
                need(triv == (j == 0),
                     "m = p oracle against zeta disagrees with wild symbol")
            need(self.no.norm_residue_trivial(pi, U2, p)
                 == self.no.norm_residue_trivial(a, b, p),
                 "k2_transform changes the m = p symbol")
        return errors

    #: (what is corrupted, output key it needs, function (part, out) -> a
    #: corrupted copy of the part's output) for the checker self-test
    CORRUPTIONS = [
        ("tame exponent off by one", "tame",
         lambda part, o: {**o, "tame": o["tame"] + 1}),
        ("k1 sign of w flipped", "k1",
         lambda part, o: {**o, "k1": [(o["k1"][0][0], -o["k1"][0][1]),
                                    o["k1"][1]]}),
        ("k2 sign of b flipped", "k2",
         lambda part, o: {**o, "k2": (o["k2"][0], -o["k2"][1])}),
        ("unit decomposition n off by one", "unit",
         lambda part, o: {**o, "unit": dataclasses.replace(
             o["unit"], n=o["unit"].n + 1)}),
        ("inverse off by one", "inverse",
         lambda part, o: {**o, "inverse": o["inverse"] + 1}),
        ("quadratic symbol sign flipped", "quad",
         lambda part, o: {**o, "quad": -o["quad"]}),
        ("oracle answer flipped", "oracle",
         lambda part, o: {**o, "oracle": [not o["oracle"][0]]
                        + o["oracle"][1:]}),
        ("wild exponent of the integer off by one", "wild",
         lambda part, o: {**o, "wild": o["wild"][:2] + [o["wild"][2] + 1]}),
    ]


def _m0_edit(fn):
    """Apply fn(ctx, report) to a part's report."""
    def corrupt(part, out):
        ctx, oracle, rep = out
        return ctx, oracle, fn(ctx, rep)
    return corrupt


def _m0_witness_one(ctx, rep):
    certs = [(m, k, {**d, "x": ctx.one.to_json()}) if k == "witness"
             else (m, k, d) for m, k, d in rep.certificates]
    return dataclasses.replace(rep, certificates=certs)


def _m0_last_kind(ctx, rep):
    *certs, (m, _, _) = rep.certificates
    one = ctx.one.to_json()
    return dataclasses.replace(
        rep, certificates=certs + [(m, "witness", {"x": one, "y": one})])


class WildM0(Sweep):
    """The stabilisation experiment of criterion 9 on fresh contexts."""

    name = "wild-m0"
    PRIMES = (3, 5)
    N = 32
    DEPTH = 2
    BUDGET = 500
    AGREEMENT = 3  # seeded x per field checked against wild_symbol_zeta
    TRACE_ROUNDS = 1

    def setup(self):
        self.lf, self.sy, self.no, self.od, _ = _programs()

    def parts(self, rng):
        order = list(self.PRIMES)
        rng.shuffle(order)
        return [{"label": f"qp-zeta-{p}", "p": p,
                 "xs": [_elem_spec(rng, p, p - 1)
                        for _ in range(self.AGREEMENT)]} for p in order]

    def run_part(self, part):
        ctx = self.lf.qp_zeta(part["p"], self.N)
        oracle = self.sy.triviality_oracle(ctx)
        report = self.od.estimate_m0(ctx, oracle, sample_budget=self.BUDGET,
                                     depth=self.DEPTH)
        return ctx, oracle, report

    def verify_part(self, part, out):
        ctx, oracle, rep = out
        p = part["p"]
        errors = []

        def need(ok, what):
            if not ok:
                errors.append(f"{part['label']}: {what}")

        bound = oracles.m0_bound_cyclotomic(p)
        est = rep.estimated_m0
        need(rep.bound == bound, f"bound {rep.bound} != {bound}")
        if est is None or not 0 <= est <= bound:
            return errors + [f"{part['label']}: estimate {est} outside "
                             f"[0, {bound}]"]
        need([m for m, _, _ in rep.certificates] == list(range(bound + 1)),
             "certificates do not cover m = 0..B once each")
        for m, kind, data in rep.certificates:
            if m >= est:
                need(kind == "vanishing-sweep" and data["pairs"] > 0,
                     f"no vanishing certificate at m = {m} >= m0")
                continue
            need(kind == "witness", f"no witness at m = {m} < m0")
            if kind != "witness":
                continue
            x, y = _from_json(ctx, data["x"]), _from_json(ctx, data["y"])
            order = self.od.OrderRm(ctx, m)
            need(order.is_unit(x) and order.is_unit(y),
                 f"witness at m = {m} is not a pair of units of R_m")
            need(not oracle(x, y) and not oracle(y, x),
                 f"witness at m = {m} is trivial one way round")
        zeta = ctx.one + ctx.pi
        for coeffs, shift in part["xs"]:
            x = ctx.elem(coeffs) * ctx.pi ** shift
            need((self.sy.wild_symbol_zeta(x, ctx) == 0)
                 == self.no.norm_residue_trivial(x, zeta, p),
                 "wild_symbol_zeta and the oracle disagree on (x, zeta)")
        return errors

    CORRUPTIONS = [
        ("estimate off by one", None, _m0_edit(
            lambda c, r: dataclasses.replace(
                r, estimated_m0=r.estimated_m0 + 1))),
        ("bound off by one", None, _m0_edit(
            lambda c, r: dataclasses.replace(r, bound=r.bound - 1))),
        ("witness x replaced by 1", None, _m0_edit(_m0_witness_one)),
        ("vanishing certificate at B turned into a witness", None,
         _m0_edit(_m0_last_kind)),
    ]


def _ff_bump(key):
    """Replace the first table value v by another element of F_q."""
    def corrupt(part, o):
        head, ((pl, v), *tail), *rest = o[key]
        return {**o, key: (head, [(pl, (v + 1) % part["q"])] + tail,
                           *rest)}
    return corrupt


class FuncfieldRecip(Sweep):
    """Reciprocity and the residue theorem over F_q(t) for eight q."""

    name = "funcfield-recip"
    FIELDS = (3, 5, 7, 4, 9, 25, 81, 243)
    # degrees of (numerator, denominator): fixed, because the cost of a pair
    # grows steeply with its degrees and random degrees spread the
    # operation times too widely for a steady median
    DEGREES = {"f": (8, 5), "g": (6, 7), "rf": (3, 3), "rg": (3, 3)}
    TRACE_ROUNDS = 2

    def setup(self):
        *_, self.ff = _programs()
        self.gf = {}
        for q in self.FIELDS:
            gf = self.ff.GF(q)
            gf.mul(1, 1)  # builds the multiplication table when q is not prime
            self.gf[q] = gf

    def parts(self, rng):
        def poly(q, d):
            return [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]

        parts = []
        for q in self.FIELDS:
            gf, ff = self.gf[q], self.ff
            part = {"label": f"F_{q}", "q": q}
            for k, (dn, dd) in self.DEGREES.items():
                num, den = poly(q, dn), poly(q, dd)
                part[k] = (num, den)
                part[k.upper()] = ff.FqRational(ff.FqPoly(gf, num),
                                              ff.FqPoly(gf, den))
            parts.append(part)
        return parts

    def run_part(self, part):
        ff = self.ff
        return {"weil": ff.weil_reciprocity_check(part["F"], part["G"]),
                "hilbert": ff.ff_hilbert_check(part["F"], part["G"]),
                "residue": ff.residue_theorem_check(part["RF"], part["RG"])}

    def verify_part(self, part, out):
        q = part["q"]
        ref = oracles.ref_field(q)
        errors = []

        def need(ok, what):
            if not ok:
                errors.append(f"{part['label']}: {what}")

        ok, table = out["weil"]
        weil = [(pl.label(), v) for pl, v in table]
        values = [v for _, v in weil]
        need(ok and all(0 < v < q for v in values)
             and ref.prod(values) == 1, "Weil product != 1")
        if ref.s == 1:
            got = dict(weil)
            for a in list(range(q)) + ["inf"]:
                want = oracles.ff_tame_deg1(part["f"], part["g"], a, q)
                need(got.get(oracles.deg1_label(a, q), 1) == want,
                     f"tame symbol at t = {a} != integer value {want}")
        ok, table = out["hilbert"]
        need(ok and [(pl.label(), v) for pl, v in table] == weil,
             "ff_hilbert_check table != Weil table")
        ok, table, flagged = out["residue"]
        traces = [v for _, v in table]
        need(ok and (flagged or ref.sum(traces) == 0)
             and (not flagged or not table), "residues do not sum to 0")
        return errors

    CORRUPTIONS = [
        ("Weil value off by one", "weil", _ff_bump("weil")),
        ("Hilbert value off by one", "hilbert", _ff_bump("hilbert")),
        ("residue trace off by one", "residue", _ff_bump("residue")),
    ]


WORKLOADS = {w.name: w for w in (LocalSymbols, WildM0, FuncfieldRecip)}
