import random

import pytest

from tamewild.errors import BadInput, Unsupported
from tamewild.globalrecip import global_optimal_lattice, moore_product_q


def _euler_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def _reciprocity_holds(p, q):
    """(q|p)(p|q) = (-1)^((p-1)(q-1)/4) for distinct odd primes p, q, read
    off the Moore table of (p, q): (p, q)_p = (q|p), (p, q)_q = (p|q), and
    (p, q)_2 is the sign."""
    res = moore_product_q(p, q)
    tab = res.to_json()["table"]
    sign = -1 if (p - 1) // 2 * ((q - 1) // 2) % 2 else 1
    return (res.product == 1 and tab[str(p)] == _euler_legendre(q, p)
            and tab[str(q)] == _euler_legendre(p, q)
            and tab[str(p)] * tab[str(q)] == tab["2"] == sign)


# -- the product formula ------------------------------------------------------------

def test_moore_frozen_tables():
    r = moore_product_q(-1, -1)
    assert r.product == 1
    assert r.to_json()["table"] == {"inf": -1, "2": -1}
    r = moore_product_q(13, 17)
    assert r.product == 1
    tab = r.to_json()["table"]
    assert tab["13"] == _euler_legendre(17, 13)
    assert tab["17"] == _euler_legendre(13, 17)


def test_moore_zero_input():
    with pytest.raises(BadInput, match="Moore product of zero"):
        moore_product_q(0, 5)


def test_moore_random_product_one():
    rng = random.Random(0)
    done = 0
    while done < 200:
        a = rng.randint(-10 ** 4, 10 ** 4)
        b = rng.randint(-10 ** 4, 10 ** 4)
        if a == 0 or b == 0:
            continue
        done += 1
        assert moore_product_q(a, b).product == 1


def test_moore_rationals():
    from fractions import Fraction
    assert moore_product_q(Fraction(3, 7), Fraction(-5, 11)).product == 1


def test_moore_bimultiplicative():
    rng = random.Random(1)
    for _ in range(50):
        a = rng.randint(1, 500)
        b = rng.randint(1, 500)
        c = rng.randint(1, 500)
        t_ab = {str(pl): v for pl, v in moore_product_q(a, b).table}
        t_cb = {str(pl): v for pl, v in moore_product_q(c, b).table}
        t_acb = {str(pl): v for pl, v in moore_product_q(a * c, b).table}
        for key, val in t_acb.items():
            assert val == t_ab.get(key, 1) * t_cb.get(key, 1)


def test_local_factor_off_support():
    # for ell coprime to 2ab the local factor is +1
    from tamewild.symbols import hilbert_quadratic_q
    rng = random.Random(2)
    import sympy
    for _ in range(50):
        a = rng.randint(1, 1000)
        b = rng.randint(1, 1000)
        ell = sympy.nextprime(rng.randint(3, 100))
        if a % ell == 0 or b % ell == 0:
            continue
        assert hilbert_quadratic_q(a, b, ell) == 1


def test_quadratic_reciprocity_view():
    assert _reciprocity_holds(3, 5)
    assert _reciprocity_holds(5, 13)


def test_quadratic_reciprocity_exhaustive_small():
    import itertools
    import sympy
    primes = list(sympy.primerange(3, 60))
    for p, q in itertools.permutations(primes, 2):
        assert _reciprocity_holds(p, q)


# -- the global lattice --------------------------------------------------------------

def test_lattice_trivial_order():
    lat = global_optimal_lattice(3, m=0)
    assert lat.index == 1
    assert lat.contains_one() and lat.multiplicatively_closed()


def test_lattice_p3_m2():
    lat = global_optimal_lattice(3, m=2)
    assert lat.index == 3
    assert lat.contains_one()
    assert lat.multiplicatively_closed()


def test_lattice_index_matches_closed_form():
    from tamewild.localfield import qp_zeta
    from tamewild.orders import OrderRm
    for p, m in ((3, 1), (3, 3), (5, 2), (5, 6), (7, 4)):
        lat = global_optimal_lattice(p, m=m)
        assert lat.index == OrderRm(qp_zeta(p, 32), m).index_in_of()
        assert lat.contains_one()
        assert lat.multiplicatively_closed()


def test_lattice_defaults_to_bound():
    lat = global_optimal_lattice(3)
    assert lat.m == 4  # the local vanishing bound for Q_3(zeta_3)


def test_lattice_unsupported():
    with pytest.raises(Unsupported, match="odd primes p <= 7"):
        global_optimal_lattice(11)
    with pytest.raises(Unsupported, match="odd primes p <= 7"):
        global_optimal_lattice(2)
