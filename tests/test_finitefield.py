"""The finite-field layer against a plain polynomial product written here."""

import itertools
import random

import pytest

from tamewild.errors import BadInput
from tamewild.finitefield import MAX_Q, GF, FiniteField, FqPoly, is_irreducible
from tamewild.localfield import qp
from tamewild.normoracle import _UnramifiedKummer


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


def test_big_unramified_ring_builds_no_tables(monkeypatch):
    # q = 7^7 = 823543 is above MAX_Q, and the tables of q = 5^5 cost tens
    # of milliseconds; the Frobenius, the Teichmuller lifts and the spanning
    # norms need only the generator, products and Euclid inverses
    built = []
    original = FiniteField._build_tables

    def spy(field):
        built.append(field)
        return original(field)

    monkeypatch.setattr(FiniteField, "_build_tables", spy)
    for p in (5, 7):
        kummer = _UnramifiedKummer(qp(p, 8), p)
        norms = kummer.spanning_norms(2)
        assert len(norms) == 2 + p
        assert kummer.big.kappa._tables is None
    assert built == []
