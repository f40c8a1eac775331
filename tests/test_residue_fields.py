"""Residue fields kappa(v) of places of P^1/F_q as FiniteField towers,
against F_q[t]/pi_v computed on FqPoly residues here."""

import itertools
import random

import pytest

from tamewild.errors import BadInput
from tamewild.finitefield import GF, FiniteField, FqPoly, is_irreducible
from tamewild.funcfield import FFPlace, FqRational, weil_reciprocity_check


class _Ref:
    """F_q[t]/pi on FqPoly residues: the product mod pi, the extended
    Euclidean inverse, the Frobenius-orbit norm and the trace of the
    multiplication matrix.  Elements are read from and written to ints with
    base-q digits."""

    def __init__(self, gf, pi):
        self.gf, self.pi, self.d = gf, pi, pi.degree()

    def poly(self, a):
        return FqPoly(self.gf, [a // self.gf.q ** j % self.gf.q
                                for j in range(self.d)])

    def elem(self, poly):
        return sum(c * self.gf.q ** j for j, c in enumerate(poly.c))

    def add(self, a, b):
        return self.elem(self.poly(a) + self.poly(b))

    def neg(self, a):
        return self.elem(-self.poly(a))

    def mul(self, a, b):
        return self.elem((self.poly(a) * self.poly(b)) % self.pi)

    def inv(self, a):
        gf, pi = self.gf, self.pi
        r0, s0 = pi, FqPoly(gf, [])
        r1, s1 = self.poly(a), FqPoly(gf, [1])
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        assert r0.degree() == 0
        return self.elem((s0 * gf.inv(r0.c[0])) % pi)

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def norm(self, a):
        acc = conj = a
        for _ in range(self.d - 1):
            conj = self.pow(conj, self.gf.q)
            acc = self.mul(acc, conj)
        assert acc < self.gf.q
        return acc

    def power_norm(self, a):
        q = self.gf.q
        return self.pow(a, (q ** self.d - 1) // (q - 1))

    def trace(self, a):
        gf, tr, col = self.gf, 0, self.poly(a)
        t = FqPoly.x(gf)
        for j in range(self.d):
            tr = gf.add(tr, col.c[j] if j < len(col.c) else 0)
            col = (col * t) % self.pi
        return tr


def _places(gf, d):
    """Every monic irreducible of degree d over gf."""
    for tail in itertools.product(range(gf.q), repeat=d):
        pi = FqPoly(gf, list(tail) + [1])
        if is_irreducible(pi):
            yield pi


def _random_place(gf, d, rng):
    while True:
        pi = FqPoly(gf, [rng.randrange(gf.q) for _ in range(d)] + [1])
        if is_irreducible(pi):
            return pi


def _check(kappa, ref, rng, count):
    assert kappa.q == ref.gf.q ** ref.d and kappa.deg == ref.d
    for _ in range(count):
        a, b = rng.randrange(1, kappa.q), rng.randrange(kappa.q)
        assert kappa.add(a, b) == ref.add(a, b)
        assert kappa.sub(a, b) == ref.add(a, ref.neg(b))
        assert kappa.mul(a, b) == ref.mul(a, b)
        assert kappa.inv(a) == ref.inv(a)
        for n in (-5, -2, -1, 0, 1, 2, 3, ref.gf.q + 1):
            assert kappa.pow(a, n) == ref.pow(a, n)
        norm = ref.norm(a)
        assert kappa.norm(a) == norm
        assert kappa.power_norm(a) == ref.power_norm(a) == norm
        assert kappa.trace(a) == ref.trace(a)
    assert kappa.norm(0) == kappa.trace(0) == 0
    with pytest.raises(ZeroDivisionError):
        kappa.inv(0)
    assert kappa._tables is None


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_every_place_of_degree_at_most_3(q):
    gf = GF(q)
    rng = random.Random(q)
    for d in (1, 2, 3):
        for pi in _places(gf, d):
            _check(FFPlace(pi.monic()).residue_field(gf), _Ref(gf, pi), rng,
                   count=3)


@pytest.mark.parametrize("q", [25, 81, 243])
def test_seeded_places_of_degree_5_to_8(q):
    gf = GF(q)
    rng = random.Random(q)
    for d in (5, 6, 7, 8):
        pi = _random_place(gf, d, rng)
        _check(FFPlace(pi.monic()).residue_field(gf), _Ref(gf, pi), rng,
               count=4)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25, 243])
def test_the_place_at_infinity(q):
    gf = GF(q)
    kappa = FFPlace.infinity().residue_field(gf)
    assert kappa.base is gf and kappa.modulus == (0, 1)
    _check(kappa, _Ref(gf, FqPoly.x(gf)), random.Random(q), count=20)
    for a in range(1, min(q, 50)):
        assert kappa.mul(a, 3 % q) == gf.mul(a, 3 % q)
        assert kappa.norm(a) == kappa.trace(a) == a


def test_towers_are_not_shared_and_build_no_tables():
    gf = GF(4)
    pi = tuple(next(_places(gf, 2)).c)
    tower = FiniteField(gf, pi)
    assert tower is not FiniteField(gf, pi)
    assert GF(4) is FiniteField(2, (1, 1, 1))  # fields over F_p are shared
    with pytest.raises(BadInput):  # a discrete logarithm needs tables
        tower.dlog(1)
    assert tower._tables is None


def test_weil_over_fresh_places_builds_no_tables_and_shares_nothing(
        monkeypatch):
    gf = GF(9)
    gf.mul(2, 2)  # the constant field's own tables
    built = []
    original = FiniteField._build_tables

    def spy(field):
        built.append(field)
        return original(field)

    monkeypatch.setattr(FiniteField, "_build_tables", spy)
    before = len(FiniteField._instances)
    rng = random.Random(7)
    degrees = set()
    for _ in range(20):
        f, g = (FqRational(FqPoly(gf, [rng.randrange(9) for _ in range(6)]
                                  + [1]),
                           FqPoly(gf, [rng.randrange(9) for _ in range(4)]
                                  + [1]))
                for _ in range(2))
        ok, table = weil_reciprocity_check(f, g)
        assert ok
        degrees.update(pl.degree() for pl, _ in table)
    assert max(degrees) >= 3
    assert len(FiniteField._instances) == before
    assert built == []
