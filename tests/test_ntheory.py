"""Differential tests of tamewild.ntheory against sympy as the independent
oracle: primality, factoring and the sieve; and of the global lattices'
column Hermite normal forms and the exact back-substitution that decides
lattice membership."""

import random

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form
from sympy.ntheory.primetest import is_strong_lucas_prp

from tamewild import ntheory
from tamewild.errors import FactoringCapExceeded
from tamewild.globalrecip import _solve_integer, global_optimal_lattice
from tamewild.localfield import qp_zeta
from tamewild.ntheory import factorint, isprime, primerange
from tamewild.orders import m0_bound

# -- isprime -----------------------------------------------------------------

def test_isprime_below_1e5():
    assert [n for n in range(10 ** 5) if isprime(n)] == \
        list(sympy.primerange(0, 10 ** 5))


def test_isprime_rejects_pseudoprimes_and_carmichael_numbers():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first 9 primes
    for n in (3215031751, 3825123056546413051):
        assert not isprime(n) and not sympy.isprime(n)
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    for n in carmichael:
        assert sympy.factorint(n) != {n: 1}
        assert not isprime(n)


def test_isprime_non_integers_are_not_prime():
    assert not isprime(3.0) and not isprime("3") and not isprime(-7)


@pytest.mark.parametrize("center", [2 ** 64, ntheory.MR_BOUND,
                                    10 ** 40])
def test_isprime_random_around(center):
    rng = random.Random(center)
    hits = 0
    for _ in range(300):
        n = center + rng.randrange(-10 ** 6, 10 ** 6) | 1
        hits += isprime(n)
        assert isprime(n) == sympy.isprime(n), n
    assert hits > 0  # the sample reaches the prime branch
    semiprime = sympy.nextprime(center // 10 ** 6) * sympy.nextprime(10 ** 6)
    assert not isprime(semiprime)


def test_strong_lucas_matches_sympy():
    # the Lucas half of Baillie-PSW, on odd n past the trial-division primes
    rng = random.Random(5)
    sample = list(range(1001, 30000, 2)) + \
        [rng.randrange(10 ** 20, 10 ** 21) | 1 for _ in range(300)]
    for n in sample:
        if all(n % p for p in primerange(2, 1000)):
            assert ntheory._strong_lucas_probable_prime(n) == \
                is_strong_lucas_prp(n), n


# -- factorint -----------------------------------------------------------------

def test_factorint_random_below_1e18():
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randrange(1, 10 ** rng.randint(1, 18) + 1)
        assert factorint(n) == sympy.factorint(n), n


def test_factorint_prime_powers_and_large_factors():
    p, q = sympy.nextprime(10 ** 6), sympy.nextprime(10 ** 11)
    for n in (p ** 3, q ** 2, p * q, p ** 2 * q * 2 ** 5,
              sympy.nextprime(10 ** 30)):
        assert factorint(n) == sympy.factorint(n), n
    assert list(factorint(2 ** 4 * 3 * 1009)) == [2, 3, 1009]  # ascending
    assert factorint(1) == {}
    with pytest.raises(ValueError):
        factorint(0)


def test_factorint_cap(monkeypatch):
    monkeypatch.setattr(ntheory, "RHO_STEPS", 2 ** 10)
    n = sympy.nextprime(10 ** 12) * sympy.nextprime(10 ** 13)
    with pytest.raises(FactoringCapExceeded, match="RHO_STEPS"):
        factorint(n)


# -- primerange ------------------------------------------------------------------

@pytest.mark.parametrize("a,b", [(0, 0), (0, 2), (0, 3), (2, 3), (3, 200),
                                 (3, 100), (90, 97), (90, 98), (1000, 5000)])
def test_primerange(a, b):
    assert primerange(a, b) == list(sympy.primerange(a, b))


# -- lattice bases and back-substitution ------------------------------------------

def _sympy_hnf(rows):
    H = hermite_normal_form(sympy.Matrix(rows))
    return [[int(H[i, j]) for j in range(H.cols)] for i in range(H.rows)]


def _lattice_matrix(p, m):
    """The generators of the lattice global_optimal_lattice(p, m) reduces,
    by sympy: column j is p^depth(j) (z - 1)^j mod the p-th cyclotomic
    polynomial on the basis 1, z, ..., z^(p-2), depth(j) = ceil((m - j)/
    (p - 1)) clamped at 0 for j >= 1 and depth(0) = 0."""
    n = p - 1
    z = sympy.symbols("z")
    cols = []
    for j in range(n):
        r = sympy.Poly(sympy.rem((z - 1) ** j, sympy.cyclotomic_poly(p, z)),
                       z)
        depth = max(0, -((j - m) // n)) if j >= 1 else 0
        cols.append([int(r.coeff_monomial(z ** i)) * p ** depth
                     for i in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lattice_bases_match_sympy(p):
    B = m0_bound(qp_zeta(p, 32))
    for m in range(1, B + 1):
        lat = global_optimal_lattice(p, m=m)
        assert [list(r) for r in lat.basis] == \
            _sympy_hnf(_lattice_matrix(p, m)), (p, m)
    if p == 3:
        assert lat.basis == ((1, 0), (0, 9))
    if p == 5:
        assert lat.basis == ((1, 0, 0, 0), (0, 25, 15, 10), (0, 0, 5, 0),
                             (0, 0, 0, 5))
    if p == 7:
        assert lat.basis == ((1, 0, 0, 0, 0, 0), (0, 49, 35, 28, 21, 14),
                             (0, 0, 7, 0, 0, 0), (0, 0, 0, 7, 0, 0),
                             (0, 0, 0, 0, 7, 0), (0, 0, 0, 0, 0, 7))


def test_solve_integer_matches_rational_solve():
    rng = random.Random(7)
    for p in (3, 5, 7):
        basis = global_optimal_lattice(p).basis
        A = sympy.Matrix(basis)
        verdicts = set()
        for i in range(60):
            target = [rng.randint(-60, 60) for _ in range(p - 1)]
            if i % 2:  # a lattice point
                target = [int(c) for c in A * sympy.Matrix(target)]
            x = A.solve(sympy.Matrix(target))
            verdict = _solve_integer(basis, target)
            assert verdict == all(c.is_integer for c in x), target
            verdicts.add(verdict)
        assert verdicts == {True, False}
