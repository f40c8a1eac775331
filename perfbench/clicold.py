"""The cli-cold workload: tamewild commands, each in a fresh interpreter.

One round is a fixed list of fourteen `tamewild ... --json` commands,
run one at a time as `python3 -c "from tamewild.cli import main; main()"`
with the checkout's src on PYTHONPATH, the same entry point as the
installed console script.  The seed draws the arguments of the first
twelve and the order of the round; every later round repeats the same
argv list, and its stdout must be byte-identical to the first round's.
The last two commands are faults of the program with fixed arguments:
they fail on every run and are counted in `failed`.

An operation fails when the exit code differs from the documented one;
it is wrong when the exit code is right but the output breaks a check.
"""

from __future__ import annotations

import json
import sys

import oracles
from workloads import unit_prime_to

ENTRY = "from tamewild.cli import main; main()"
FAULTY = 2  # the last FAULTY commands of every round fail until fixed


def _poly_text(coeffs):
    """An F_p polynomial, lowest coefficient first, in the CLI syntax."""
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            terms.append(str(c) if i == 0 else
                         f"{c}*t" if i == 1 else f"{c}*t^{i}")
    return "+".join(terms) or "0"


def _rational(rng, p, max_deg):
    def poly():
        d = rng.randint(0, max_deg)
        return [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
    num, den = poly(), poly()
    return (num, den), f"({_poly_text(num)})/({_poly_text(den)})"


def _nonzero(rng, hi):
    while True:
        a = rng.randint(-hi, hi)
        if a:
            return a


def commands(rng):
    """The round: a list of (name, argv, documented exit code, check),
    check(doc) returning a list of errors about the parsed JSON output."""
    out = []

    def add(name, argv, check, code=0):
        out.append((name, argv + ["--json"], code, check))

    place = rng.choice([3, 5, 7, 11, 13])
    a, b = _nonzero(rng, 10 ** 4), _nonzero(rng, 10 ** 4)
    add("hilbert2", ["hilbert2", "--place", str(place), f"--a={a}",
                     f"--b={b}"],
        lambda d: _check_hilbert2(d, a, b, place))
    a2, b2 = _nonzero(rng, 10 ** 4), _nonzero(rng, 10 ** 4)
    add("moore", ["moore", f"--a={a2}", f"--b={b2}"],
        lambda d: _check_moore(d, a2, b2))
    x = 5 ** rng.randrange(3) * unit_prime_to(rng, 5, 10 ** 4)
    y = 5 ** rng.randrange(3) * unit_prime_to(rng, 5, 10 ** 4)
    add("tame", ["tame", "--preset", "qp-5", "--x", str(x), "--y", str(y)],
        lambda d: _check_tame(d, x, y))
    c5 = unit_prime_to(rng, 5)
    add("wild-zeta", ["wild-zeta", "--p", "5", "--x", str(c5)],
        lambda d: _check_wild(d, c5))
    c3 = unit_prime_to(rng, 3)
    add("norm-oracle", ["norm-oracle", "--preset", "qp-zeta-3", "--m", "p",
                        "--x", str(c3), "--y", "1+pi", "-N", "32"],
        lambda d: _check_norm_oracle(d, c3))
    m, k = rng.randrange(6), rng.randrange(7)
    add("order", ["order", "--preset", "sqrt-3", "--m", str(m),
                  "--x", f"pi^{k}"],
        lambda d: _check_order(d, m, k))
    add("m0", ["m0", "--preset", "qp-zeta-3", "-N", "32"], _check_m0)
    t = rng.randrange(1, 6)
    add("hasse-verify", ["hasse-verify", "--preset", "qp-zeta-5",
                         "--t", str(t)],
        lambda d: _check_hasse(d, t))
    lm = rng.randrange(1, 4)
    add("lattice", ["lattice", "--p", "3", "--m", str(lm)],
        lambda d: _check_lattice(d, lm))
    (fw, fw_text), (gw, gw_text) = _rational(rng, 3, 4), _rational(rng, 3, 4)
    add("weil", ["weil", "--q", "81", "--f", fw_text, "--g", gw_text],
        lambda d: _check_reciprocity(d, 81, None, None))
    (fh, fh_text), (gh, gh_text) = _rational(rng, 7, 4), _rational(rng, 7, 4)
    add("ff-hilbert", ["ff-hilbert", "--q", "7", "--f", fh_text,
                       "--g", gh_text],
        lambda d: _check_reciprocity(d, 7, fh, gh))
    (_, fr_text), (_, gr_text) = _rational(rng, 5, 3), _rational(rng, 5, 3)
    add("residue", ["residue", "--q", "5", "--f", fr_text, "--g", gr_text],
        lambda d: _check_residue(d, 5))
    rng.shuffle(out)
    # faults of the program, kept at the end with fixed arguments
    add("hilbert2-bad-place", ["hilbert2", "--place", "-3", "--a", "3",
                               "--b", "5"],
        lambda d: ["a non-prime place has no Hilbert symbol"], code=2)
    add("residue-product-syntax", ["residue", "--q", "5", "--f",
                                   "(t+1)*(t+2)/t", "--g", "t"],
        lambda d: _check_residue(d, 5))
    return out


def argv_of(command_argv):
    return [sys.executable, "-c", ENTRY] + command_argv


def verify(command, code, stdout):
    """(failed, errors) for one command's exit code and stdout."""
    name, argv, want_code, check = command
    if code != want_code:
        return True, [f"{name}: exit code {code}, documented {want_code}"]
    if want_code != 0:
        return False, []
    try:
        doc = json.loads(stdout)
        return False, [f"{name}: {e}" for e in check(doc["result"])]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, [f"{name}: unreadable output ({exc!r})"]


# ---------------------------------------------------------------------------
# checks of the parsed "result" documents
# ---------------------------------------------------------------------------

def _check_hilbert2(res, a, b, place):
    want = oracles.hilbert(a, b, place)
    return [] if res["value"] == want else [f"value {res['value']} != {want}"]


def _check_moore(res, a, b):
    places = ["inf", 2] + sorted(oracles.prime_factors(a * b) - {2})
    want = {str(pl): oracles.hilbert(a, b, pl) for pl in places}
    errors = []
    if res["table"] != want:
        errors.append(f"table {res['table']} != {want}")
    if res["product"] != 1:
        errors.append("product formula fails")
    return errors


def _check_tame(res, x, y):
    want = oracles.tame_qp(x, y, 5)
    got = res["value"]
    ok = (got == {"tame": want, "tame_mod": 4}
          and res["trivial"] == (want == 0))
    return [] if ok else [f"tame {got} != {want}"]


def _check_wild(res, c):
    want = oracles.wild_zeta_int(c, 5)
    ok = (res["value"] == {"wild": want, "wild_mod": 5}
          and res["trivial"] == (want == 0))
    return [] if ok else [f"wild {res['value']} != {want}"]


def _check_norm_oracle(res, c):
    want = oracles.wild_zeta_int(c, 3) == 0
    ok = res == {"m": 3, "trivial": want}
    return [] if ok else [f"oracle {res} != trivial={want}"]


def _check_order(res, m, k):
    # in Q_3(sqrt 3), pi^k = 3^(k // 2) pi^(k % 2) on the basis 1, pi
    c = [0, 0]
    c[k % 2] = 3 ** (k // 2)

    def deep(i, bound):  # e v_3(c_i) >= bound, with c_i = 0 deep enough
        return c[i] == 0 or 2 * oracles.vp(c[i], 3) >= bound

    contains = deep(1, m - 1)
    maximal = k >= 1 if m == 0 else deep(0, 2) and deep(1, m - 1)
    index = oracles.order_index_brute(3, 2, m)
    want = {"m": m, "index": str(index),
            "index_exponent": oracles.vp(index, 3),
            "contains": contains, "in_maximal_ideal": maximal,
            "is_unit": contains and not maximal}
    return [] if res == want else [f"{res} != {want}"]


def _check_m0(res):
    bound = oracles.m0_bound_cyclotomic(3)
    est = res["estimated_m0"]
    if res["bound"] != bound or not isinstance(est, int) \
            or not 0 <= est <= bound:
        return [f"estimate {est} or bound {res['bound']} breaks m0 <= {bound}"]
    certs = res["certificates"]
    errors = []
    if [c["m"] for c in certs] != list(range(bound + 1)):
        errors.append("certificates do not cover m = 0..B once each")
    for c in certs:
        want = "vanishing-sweep" if c["m"] >= est else "witness"
        if c["kind"] != want:
            errors.append(f"m = {c['m']}: {c['kind']}, expected {want}")
    return errors


def _check_hasse(res, t):
    e, p = 4, 5  # Q_5(zeta_5): e = 4, e1 = e/(p-1) = 1
    required = p * t if t <= 1 else t + e
    landings = [en[2] for en in res["entries"]]
    ok = (res["required"] == required
          and res["regime"] == ("below" if t <= 1 else "above")
          and [en[:2] for en in res["entries"]] == [[s, 0] for s in
                                                    range(t, t + e)]
          and res["min_landing"] == min(landings)
          and res["ok"] and min(landings) >= required)
    return [] if ok else [f"landing report {res} breaks (U^t)^p in "
                          f"U^{required}"]


def _check_lattice(res, m):
    index = oracles.order_index_brute(3, 2, m)
    hnf = res["hnf"]
    ok = (res["index"] == index and abs(oracles.int_det(hnf)) == index
          and res["contains_one"] and res["multiplicatively_closed"])
    return [] if ok else [f"lattice {res} != index {index}"]


def _check_reciprocity(res, q, f, g):
    ref = oracles.ref_field(q)
    table = res["table"]
    errors = []
    if not res["product_is_one"] or ref.prod(table.values()) != 1:
        errors.append("reciprocity product != 1")
    if f is not None:
        for a in list(range(q)) + ["inf"]:
            want = oracles.ff_tame_deg1(f, g, a, q)
            got = table.get(oracles.deg1_label(a, q), 1)
            if got != want:
                errors.append(f"symbol at t = {a}: {got} != {want}")
    return errors


def _check_residue(res, q):
    ref = oracles.ref_field(q)
    if res["sum_is_zero"] and ref.sum(res["table"].values()) == 0:
        return []
    return [f"residues {res['table']} do not sum to 0"]


#: (command, what is corrupted, function from a result document to a
#: corrupted copy) for the checker self-test
CORRUPTIONS = [
    ("hilbert2", "sign flipped", lambda r: {**r, "value": -r["value"]}),
    ("moore", "a table entry flipped", lambda r: {
        **r, "table": {**r["table"], "inf": -r["table"]["inf"]}}),
    ("tame", "exponent off by one", lambda r: {
        **r, "value": {**r["value"], "tame": (r["value"]["tame"] + 1) % 4}}),
    ("wild-zeta", "exponent off by one", lambda r: {
        **r, "value": {**r["value"], "wild": (r["value"]["wild"] + 1) % 5}}),
    ("norm-oracle", "answer flipped", lambda r: {
        **r, "trivial": not r["trivial"]}),
    ("order", "membership flipped", lambda r: {
        **r, "contains": not r["contains"]}),
    ("m0", "estimate off by one", lambda r: {
        **r, "estimated_m0": r["estimated_m0"] + 1}),
    ("hasse-verify", "a landing level off by one", lambda r: {
        **r, "min_landing": r["min_landing"] + 1}),
    ("lattice", "index off by one", lambda r: {
        **r, "index": r["index"] + 1}),
    ("weil", "a table value off by one", lambda r: {
        **r, "table": _bump_first(r["table"], 81)}),
    ("ff-hilbert", "a table value off by one", lambda r: {
        **r, "table": _bump_first(r["table"], 7)}),
    ("residue", "a trace off by one", lambda r: {
        **r, "table": _bump_first(r["table"], 5)}),
]


def _bump_first(table, q):
    (k, v), *rest = table.items()
    return {k: (v + 1) % q, **dict(rest)}
