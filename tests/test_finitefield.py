"""The finite-field layer against a plain polynomial product written here."""

import itertools
import random
from collections import Counter

import pytest

from tamewild import finitefield
from tamewild.errors import BadInput
from tamewild.finitefield import MAX_Q, GF, FiniteField, FqPoly, is_irreducible


class _Ref:
    """F_p[x]/(modulus) on digit lists, by schoolbook product and remainder."""

    def __init__(self, gf):
        self.p, self.s, self.g = gf.p, gf.s, gf.modulus

    def digits(self, a):
        return [a // self.p ** j % self.p for j in range(self.s)]

    def pack(self, digits):
        return sum(c % self.p * self.p ** j for j, c in enumerate(digits))

    def add(self, a, b):
        return self.pack([x + y for x, y in zip(self.digits(a),
                                                self.digits(b))])

    def neg(self, a):
        return self.pack([-x for x in self.digits(a)])

    def mul(self, a, b):
        p, s = self.p, self.s
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for k in range(2 * s - 2, s - 1, -1):
            c = prod[k] % p
            for j in range(s + 1):
                prod[k - s + j] -= c * self.g[j]
        return self.pack(prod[:s])

    def pow(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r


def _check_pair(gf, ref, a, b):
    assert gf.add(a, b) == ref.add(a, b)
    assert gf.sub(a, b) == ref.add(a, ref.neg(b))
    assert gf.mul(a, b) == ref.mul(a, b)
    assert gf.scale(a, b) == ref.mul(a, b % gf.p)


def _check_single(gf, ref, a):
    assert gf.neg(a) == ref.neg(a)
    if not a:
        with pytest.raises(ZeroDivisionError):
            gf.inv(a)
        with pytest.raises(ZeroDivisionError):
            gf.dlog(a)
        assert gf.pow(a, 5) == 0
        return
    assert ref.mul(a, gf.inv(a)) == 1
    k = gf.dlog(a)
    assert 0 <= k < gf.q - 1
    assert ref.pow(gf.generator(), k) == a
    for n in (0, 1, 2, 3, gf.q, -1, -2):
        want = ref.pow(a, n) if n >= 0 else ref.pow(gf.inv(a), -n)
        assert gf.pow(a, n) == want


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_every_pair_against_the_schoolbook_product(q):
    gf = GF(q)
    ref = _Ref(gf)
    for a in range(q):
        _check_single(gf, ref, a)
        for b in range(q):
            _check_pair(gf, ref, a, b)


@pytest.mark.parametrize("q", [81, 243, 3 ** 8])
def test_random_pairs_against_the_schoolbook_product(q):
    gf = GF(q)
    ref = _Ref(gf)
    rng = random.Random(q)
    for _ in range(300):
        a, b = rng.randrange(q), rng.randrange(q)
        _check_pair(gf, ref, a, b)
        _check_single(gf, ref, a)


def test_prime_fields_are_plain_integers():
    gf = GF(7)
    for a in range(7):
        for b in range(7):
            assert gf.add(a, b) == (a + b) % 7
            assert gf.sub(a, b) == (a - b) % 7
            assert gf.mul(a, b) == a * b % 7
        if a:
            assert gf.inv(a) * a % 7 == 1
            assert pow(gf.generator(), gf.dlog(a), 7) == a


def test_generators_of_the_parent_release():
    # these fix every dlog, hence every tame exponent the CLI prints
    for (p, s), g in {(3, 2): 4, (5, 2): 16, (2, 3): 4, (13, 3): 351}.items():
        assert GF(p ** s).generator() == g
    assert GF(7).generator() == 3


def test_elements_in_product_order_of_digit_tuples():
    for q in (9, 8, 5):
        gf = GF(q)
        want = [gf.pack(t) for t in
                itertools.product(range(gf.p), repeat=gf.s)]
        assert list(gf.elements()) == want
        assert sorted(want) == list(range(q))
    assert list(GF(9).elements())[:4] == [0, 3, 6, 1]


def test_one_instance_per_modulus():
    assert GF(9) is FiniteField(3, (1, 0, 1))
    assert FiniteField(3, (1, 0, 4)) is GF(9)  # coefficients are read mod p
    assert FiniteField(3, (2, 1, 1)) is not GF(9)


def test_default_moduli_are_irreducible_and_first():
    for q in (4, 8, 9, 16, 25, 27, 49, 125):
        gf = GF(q)
        fp = GF(gf.p)
        assert is_irreducible(FqPoly(fp, list(gf.modulus)))
        earlier = itertools.takewhile(
            lambda t: t != gf.modulus[:-1],
            itertools.product(range(gf.p), repeat=gf.s))
        assert not any(is_irreducible(FqPoly(fp, list(t) + [1]))
                       for t in earlier)


def test_tables_are_capped():
    assert 3 ** 11 > MAX_Q
    with pytest.raises(BadInput, match="MAX_Q"):  # refused when built
        GF(3 ** 11)
    prime = GF(65537)  # s = 1 needs no table
    assert prime.mul(prime.inv(3), 3) == 1
    assert prime.add(65536, 2) == 1
    assert prime.pow(3, 65536) == 1
    with pytest.raises(BadInput):  # a discrete logarithm needs the tables
        prime.dlog(3)


# -- the FqPoly kernels ------------------------------------------------------

def _trimmed(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(ref, a, b):
    """The schoolbook product of digit-list polynomials over ref's field."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ref.add(out[i + j], ref.mul(x, y))
    return _trimmed(out)


def _poly_divmod(ref, a, b):
    """Long division of digit-list polynomials over ref's field, one
    leading term at a time."""
    a, quo = _trimmed(a), [0] * max(0, len(a) - len(b) + 1)
    inv_lead = ref.pow(b[-1], ref.p ** ref.s - 2)
    while len(a) >= len(b):
        f = ref.mul(a[-1], inv_lead)
        k = len(a) - len(b)
        quo[k] = f
        for i, y in enumerate(b):
            a[k + i] = ref.add(a[k + i], ref.neg(ref.mul(f, y)))
        a = _trimmed(a)
    return _trimmed(quo), a


def _divisors(q, rng):
    """Non-monic divisors of degree 0 to 6, with and without zero middle
    coefficients."""
    out = [[rng.randrange(1, q)]]
    for d in range(1, 7):
        lead = rng.randrange(1, q)
        out.append([rng.randrange(q)] + [0] * (d - 1) + [lead])
        out.append([rng.randrange(1, q)] + [rng.choice([0, rng.randrange(q)])
                                            for _ in range(d - 1)] + [lead])
    return out


@pytest.mark.parametrize("q", [4, 8, 9, 243])
def test_poly_product_and_division_against_digit_lists(q):
    gf, rng = GF(q), random.Random(q)
    ref = _Ref(gf)
    for b in _divisors(q, rng):
        for length in (0, 1, len(b) - 1, len(b), len(b) + 1, 12):
            a = [rng.randrange(q) for _ in range(length)]
            if a:
                a[-1] = rng.randrange(1, q)
            fa, fb = FqPoly(gf, a), FqPoly(gf, b)
            assert (fa * fb).c == _poly_mul(ref, a, b)
            quo, rem = fa.divmod(fb)
            assert (quo.c, rem.c) == _poly_divmod(ref, a, b)
            assert rem.degree() < fb.degree() or rem.is_zero()
            back = _poly_mul(ref, quo.c, b) + [0] * len(a)
            assert _trimmed([ref.add(x, y) for x, y in
                             zip(back, rem.c + [0] * len(back))]) == fa.c


@pytest.mark.parametrize("p", [2, 3, 7])
def test_poly_product_and_division_against_sympy(p):
    import sympy
    x = sympy.symbols("x")
    gf, rng = GF(p), random.Random(p)

    def sym(c):
        return sympy.Poly(list(reversed(c)) or [0], x, modulus=p)

    def coeffs(poly):
        return _trimmed(c % p for c in reversed(poly.all_coeffs()))

    for b in _divisors(p, rng):
        for length in (0, 1, len(b), 9, 15):
            a = [rng.randrange(p) for _ in range(length)]
            fa, fb = FqPoly(gf, a), FqPoly(gf, b)
            assert (fa * fb).c == coeffs(sym(a) * sym(b))
            quo, rem = fa.divmod(fb)
            want_quo, want_rem = sym(a).div(sym(b))
            assert (quo.c, rem.c) == (coeffs(want_quo), coeffs(want_rem))


@pytest.mark.parametrize("q", [4, 9])
def test_degree_one_towers_are_their_base(q):
    gf = GF(q)
    for c in range(q):
        tower = FiniteField(gf, (c, 1))
        for a in range(q):
            assert tower.norm(a) == tower.trace(a) == a
            # the general algorithms agree with the identity at degree 1
            assert FiniteField.norm(tower, a) == a
            assert FiniteField.trace(tower, a) == a
            assert tower.neg(a) == gf.neg(a)
            for b in range(q):
                assert tower.add(a, b) == gf.add(a, b)
                assert tower.sub(a, b) == gf.sub(a, b)
                assert tower.mul(a, b) == gf.mul(a, b) == tower._times(a, b)
            if a:
                assert tower.inv(a) == gf.inv(a) == tower._euclid_inv(a)
                assert tower.power_norm(a) == a
                for n in (-3, -1, 0, 1, 2, q + 1):
                    assert tower.pow(a, n) == gf.pow(a, n)
        assert tower._tables is None
        # polynomials are built over the base, never over a tower
        with pytest.raises(BadInput):
            FqPoly(tower, [c, 1]) * FqPoly(tower, [1, 1])


def test_pow_mod_squares_floor_log2_n_times(monkeypatch):
    gf = GF(9)
    mod = [1, 2, 0, 1]
    mul, squares, products = finitefield._mul, [], []

    def spy(field, a, b):
        (squares if a is b else products).append(1)
        return mul(field, a, b)

    monkeypatch.setattr(finitefield, "_mul", spy)
    for n in range(200):
        squares.clear()
        products.clear()
        finitefield._pow_mod(gf, [3, 1], n, mod)
        assert len(squares) == max(n.bit_length() - 1, 0), n
        assert len(products) == max(bin(n).count("1") - 1, 0), n


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25])
def test_powers_match_repeated_multiplication(q):
    gf, rng = GF(q), random.Random(q)
    mod = FqPoly(gf, [rng.randrange(q) for _ in range(3)] + [1])
    a = FqPoly(gf, [rng.randrange(q) for _ in range(5)])
    r = FqPoly(gf, [1])
    for n in range(41):
        assert a.pow_mod(n, mod) == r % mod, n
        r = r * a % mod
    while True:
        modulus = [rng.randrange(q) for _ in range(2)] + [1]
        if is_irreducible(FqPoly(gf, modulus)):
            break
    kappa = FiniteField(gf, modulus)
    for a in (1, rng.randrange(q, kappa.q), kappa.q - 1):
        r = 1
        for n in range(41):
            assert kappa.pow(a, n) == r, (a, n)
            assert kappa.mul(kappa.pow(a, -n), r) == 1, (a, -n)
            r = kappa.mul(r, a)


def _irreducible_reference(f):
    """Whether f (degree d >= 1) is irreducible over its F_q by the full
    Frobenius walk: x^(q^i) - x is prime to f for every i < d, and
    x^(q^d) = x mod f."""
    d = f.degree()
    if d < 1:
        return False
    x = FqPoly.x(f.gf)
    h = x
    for i in range(1, d + 1):
        h = h.pow_mod(f.gf.q, f)
        if i < d and (h - x).gcd(f).degree() > 0:
            return False
    return ((h - x) % f).is_zero()


@pytest.mark.parametrize("q,top", [(2, 7), (3, 5), (4, 4), (5, 4), (7, 4),
                                   (9, 3)])
def test_irreducibility_matches_the_frobenius_walk(q, top):
    gf = GF(q)
    for d in range(1, top + 1):
        for tail in itertools.product(range(q), repeat=d):
            f = FqPoly(gf, list(tail) + [1])
            assert is_irreducible(f) == _irreducible_reference(f), f


@pytest.mark.parametrize("coeffs,irreducible,calls", [
    ([0, 1, 0, 1, 1], False, 0),  # t^4 + t^3 + t: t divides it
    ([1, 0, 1, 1], False, 1),  # t^3 + t^2 + 1 has the root 1
    ([2, 0, 0, 0, 0, 1], False, 1),  # t^5 - 1: the root 1, then a quartic
    ([2, 1, 1, 0, 0, 1], True, 2),  # t^5 + t^2 + t + 2
])
def test_irreducibility_stops_at_the_first_factor(monkeypatch, coeffs,
                                                  irreducible, calls):
    # the x | f shortcut and the lazy split: a linear factor ends the walk
    # after one q-th power, where a full split of t^5 - 1 would go on to the
    # quartic, and an irreducible quintic needs two, since a factorization
    # would have a factor of degree <= 2
    seen = []
    frobenius = finitefield._frobenius
    monkeypatch.setattr(finitefield, "_frobenius",
                        lambda gf, h, rows, r: seen.append(r)
                        or frobenius(gf, h, rows, r))
    f = FqPoly(GF(3), coeffs)
    assert is_irreducible(f) is irreducible
    assert len(seen) == calls


# -- the Frobenius kernel ----------------------------------------------------

def _moduli(q, rng):
    """Monic moduli of degree 1 to 9 (so deg m <= p for some), squarefree or
    not, and one with a zero constant term."""
    gf = GF(q)
    out = [[rng.randrange(q) for _ in range(d)] + [1] for d in range(1, 10)]
    lin = FqPoly(gf, [rng.randrange(q), 1])
    quad = FqPoly(gf, [rng.randrange(q), rng.randrange(q), 1])
    out += [(lin * lin * quad).c, (quad * quad * lin).c, (lin * lin * lin).c,
            [0, 0, rng.randrange(q), 1]]
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27, 81, 101, 243])
def test_frobenius_kernel_is_the_qth_power(q):
    # q = 101 > 32 builds its rows from x^p mod m instead of a shift
    gf, rng = GF(q), random.Random(q)
    for m in _moduli(q, rng):
        mod = FqPoly(gf, m)
        rows = finitefield._frobenius_rows(gf, m)
        assert len(rows) == mod.degree()
        for i, row in enumerate(rows):
            want = FqPoly.x(gf).pow_mod(gf.p * i, mod)
            assert FqPoly(gf, row) == want, (m, i)
        lrows = finitefield._log_rows(gf, rows)
        for _ in range(4):
            h = FqPoly(gf, [rng.randrange(q) for _ in range(len(m) - 1)])
            for r in range(gf.s + 2):  # r = s is the q-th power
                got = finitefield._frobenius(gf, h.c, lrows, r)
                assert FqPoly(gf, got) == h.pow_mod(gf.p ** r, mod), (m, r)


def test_large_primes_build_rows_without_a_shift(monkeypatch):
    # a shift by p places would reduce lists of p + deg m entries
    gf, mod = GF(1000003), FqPoly(GF(1000003), [5, 0, 3, 0, 0, 1])
    sizes, divmod_ = [], finitefield._divmod
    monkeypatch.setattr(finitefield, "_divmod", lambda field, a, b:
                        sizes.append(len(a)) or divmod_(field, a, b))
    rows = finitefield._frobenius_rows(gf, mod.c)
    assert sizes and max(sizes) <= 2 * mod.degree() - 1
    for i, row in enumerate(rows):
        assert FqPoly(gf, row) == FqPoly.x(gf).pow_mod(gf.p * i, mod)


@pytest.mark.parametrize("q", [2, 3, 9, 25, 243])
def test_frobenius_rows_reduce_to_a_divisor(q):
    # distinct_degree reduces its rows when a piece splits off
    gf, rng = GF(q), random.Random(q)
    for _ in range(6):
        div = FqPoly(gf, [rng.randrange(q) for _ in range(rng.randrange(
            1, 5))] + [1])
        m = div * FqPoly(gf, [rng.randrange(q) for _ in range(rng.randrange(
            1, 5))] + [1])
        rows = finitefield._frobenius_rows(gf, m.c)
        reduced = [(FqPoly(gf, row) % div).c for row in rows[:div.degree()]]
        assert reduced == [_trimmed(row) for row in
                           finitefield._frobenius_rows(gf, div.c)]


@pytest.mark.parametrize("q", [7, 8, 9, 25, 27, 81, 243, 3 ** 8])
def test_power_norm_over_the_prime_is_the_power_map(q):
    gf, rng = GF(q), random.Random(q)
    assert gf.power_norm(0) == 0
    for a in [1, q - 1] + [rng.randrange(1, q) for _ in range(60)]:
        assert gf.power_norm(a) == gf.pow(a, (q - 1) // (gf.p - 1))



@pytest.mark.parametrize("f_text,g_text,rows", [
    ("t*(t+1)/(t+2)", "(t+3)^2/(t+4)", 0),  # degree-1 places and infinity
    ("(t^2+2)/t", "(t^3+t+1)*(t+1)", 2),    # and one of degree 2 and 3
])
def test_power_norm_builds_rows_only_above_degree_one(monkeypatch, f_text,
                                                      g_text, rows):
    # a degree-1 residue field is its base, where power_norm is the identity
    from tamewild.funcfield import (ff_hilbert_check, rational_from_string,
                                    weil_reciprocity_check)
    gf = GF(5)
    tower = FiniteField(gf, (3, 1))
    assert [tower.power_norm(a) for a in range(5)] == list(range(5))
    f, g = rational_from_string(gf, f_text), rational_from_string(gf, g_text)
    _, weil = weil_reciprocity_check(f, g)  # factors f and g outside the count
    calls, rows_ = [], finitefield._frobenius_rows
    monkeypatch.setattr(finitefield, "_frobenius_rows", lambda field, m:
                        calls.append(m) or rows_(field, m))
    ok, table = ff_hilbert_check(f, g)
    assert ok and table == weil
    assert len(calls) == sum(pl.degree() > 1 for pl, _ in table) == rows

# -- the tower inverse -------------------------------------------------------

def _euclid_inv_reference(tower, a):
    """1/a in the tower by the extended Euclidean algorithm on FqPoly."""
    base = tower.base
    r0, r1 = FqPoly(base, tower.modulus), FqPoly(base, tower.digits(a))
    s0, s1 = FqPoly(base, []), FqPoly(base, [1])
    while not r1.is_zero():
        quo, rem = r0.divmod(r1)
        r0, r1, s0, s1 = r1, rem, s1, s0 - quo * s1
    return tower.pack((s0 * base.inv(r0.c[0])).c)


def _first_irreducible(gf, d):
    return next(list(t) + [1] for t in itertools.product(range(gf.q),
                                                         repeat=d)
                if is_irreducible(FqPoly(gf, list(t) + [1])))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_tower_inverse_on_every_element(q):
    gf = GF(q)
    for d in (2, 3, 4):
        tower = FiniteField(gf, _first_irreducible(gf, d))
        for a in range(1, tower.q):
            inv = tower._euclid_inv(a)
            assert inv == _euclid_inv_reference(tower, a), (d, a)
            assert tower.mul(a, inv) == 1


@pytest.mark.parametrize("q", [25, 81, 243])
def test_tower_inverse_on_seeded_elements(q):
    gf, rng = GF(q), random.Random(q)
    for d in range(2, 9):
        while True:
            m = [rng.randrange(q) for _ in range(d)] + [1]
            if is_irreducible(FqPoly(gf, m)):
                break
        tower = FiniteField(gf, m)
        for a in [1, q - 1, q, tower.q - 1] + [rng.randrange(1, tower.q)
                                               for _ in range(20)]:
            inv = tower._euclid_inv(a)
            assert inv == _euclid_inv_reference(tower, a), (d, a)
            assert tower.mul(a, inv) == 1


# -- kernel counts -----------------------------------------------------------

def _count_kernels(monkeypatch):
    """Count the calls of _mul, _divmod and _frobenius."""
    seen = Counter()
    for name in ("_mul", "_divmod", "_frobenius"):
        def spy(*args, _name=name, _fn=getattr(finitefield, name)):
            seen[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(finitefield, name, spy)
    return seen


def _seeded_octic(q, seed):
    gf = GF(q)
    gf.mul(2, 2)  # the tables, built outside the count
    rng = random.Random(seed)
    return FqPoly(gf, [rng.randrange(q) for _ in range(8)] + [1])


def test_frobenius_powers_take_no_squarings(monkeypatch):
    # a fallback to square-and-multiply shows in these counts of (_mul,
    # _divmod, _frobenius); the square-and-multiply walk made (66, 114),
    # (64, 209) and (10, 11) calls of the first two
    factor = finitefield.factor
    odd, even = _seeded_octic(243, 3), _seeded_octic(16, 3)
    tower = FiniteField(GF(7), finitefield.default_modulus(7, 4))
    a = random.Random(4).randrange(7, tower.q)
    seen = _count_kernels(monkeypatch)

    def counts():
        out = seen["_mul"], seen["_divmod"], seen["_frobenius"]
        seen.clear()
        return out

    assert [(g.degree(), e) for g, e in factor(odd)] == [(1, 1), (2, 1),
                                                         (2, 1), (3, 1)]
    assert counts() == (22, 88, 4)
    # the trace of even q: an octic split into two quartics, 15 rounds a try
    assert [(g.degree(), e) for g, e in factor(even)] == [(4, 1), (4, 1)]
    assert counts() == (0, 56, 49)
    assert tower.power_norm(a) == 4
    assert counts() == (3, 6, 3)
