"""The flat FElem representation against an independent product."""

import random

import pytest

from tamewild.errors import BadInput, Unsupported
from tamewild.localfield import (
    MAX_ED,
    FElem,
    LocalFieldCtx,
    eisenstein_root,
    preset,
)

from conftest import teichmuller_reference

PRESETS = ["qp-5", "qp-2", "qp-zeta-3", "qp-zeta-5", "qp-zeta-7", "sqrt-3",
           "cbrt-3", "cbrt-2", "root4-5", "root5-3"]


def _fields(N):
    out = [preset(name, N) for name in PRESETS]
    out.append(eisenstein_root(3, 2, N, d=2))
    # Q_3(zeta_3)'s Eisenstein polynomial over the cubic unramified ring,
    # the shape of the norm oracle's unramified extensions
    out.append(LocalFieldCtx(3, [3, 3, 1], N, 3, name="z3-unram3"))
    return out


def _dense_eisenstein(p, e, d, N, rng):
    """A field whose Eisenstein polynomial has random full-precision
    coefficients, so that every normal form the product folds by is dense."""
    mod = p ** N
    f = [[p * rng.randrange(mod) % mod for _ in range(d)] for _ in range(e)]
    f[0][0] = p * (1 + p * rng.randrange(mod)) % mod
    return LocalFieldCtx(p, f + [1], N, d, name=f"dense-{e}-{d}")


def _large_fields(N):
    """A d > 1 field with e*d = 16, and fields at the cap MAX_ED = e*d."""
    rng = random.Random(N)
    return [_dense_eisenstein(3, 4, 4, N, rng),
            _dense_eisenstein(3, MAX_ED // 4, 4, N, rng),
            eisenstein_root(2, MAX_ED // 2, N, d=2)]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_rem_monic(a, g):
    """Remainder of a by the monic integer polynomial g."""
    a = list(a)
    d = len(g) - 1
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top]
        if c:
            for t in range(d + 1):
                a[top - d + t] -= c * g[t]
    return (a + [0] * d)[:d]


def _reference_product(ctx, a, b):
    """a*b by plain integer polynomial multiplication in (pi, x), then the
    remainder by f in pi and by g in x, mod p^N.  Rows are pi-powers, each
    an integer polynomial in x."""
    e, d, mod = ctx.e, ctx.d, ctx.mod
    g = list(ctx.kappa.modulus)
    f = ctx.descriptor()["f"]  # e+1 blocks of d ints, monic in pi
    rows_a = [list(a.flat[i * d:(i + 1) * d]) for i in range(e)]
    rows_b = [list(b.flat[i * d:(i + 1) * d]) for i in range(e)]
    prod = [[0] for _ in range(2 * e - 1)]
    for i, ra in enumerate(rows_a):
        for k, rb in enumerate(rows_b):
            term = _poly_mul(ra, rb)
            row = prod[i + k]
            row += [0] * (len(term) - len(row))
            for j, c in enumerate(term):
                row[j] += c
    # pi^e = -(f_0 + ... + f_{e-1} pi^{e-1}), from the top row down
    for top in range(2 * e - 2, e - 1, -1):
        c = prod[top]
        prod[top] = [0]
        for k in range(e):
            term = _poly_mul(c, f[k])
            row = prod[top - e + k]
            row += [0] * (len(term) - len(row))
            for j, t in enumerate(term):
                row[j] -= t
    out = []
    for row in prod[:e]:
        out.extend(c % mod for c in _poly_rem_monic(row, g))
    return tuple(out)


def _random_elem(ctx, rng):
    mod = ctx.mod
    n = ctx.e * ctx.d
    kind = rng.randrange(4)
    if kind == 0:  # dense, full precision
        flat = [rng.randrange(mod) for _ in range(n)]
    elif kind == 1:  # small digits
        flat = [rng.randrange(ctx.p ** 3) for _ in range(n)]
    elif kind == 2:  # sparse
        flat = [0] * n
        flat[rng.randrange(n)] = rng.randrange(1, mod)
    else:  # deep in the maximal ideal
        flat = [ctx.p ** rng.randrange(ctx.N) * rng.randrange(mod) % mod
                for _ in range(n)]
    return FElem(ctx, tuple(flat))


@pytest.mark.parametrize("N", [8, 64])
def test_flat_multiply_matches_reference(N):
    rng = random.Random(N)
    for ctx in _fields(N):
        for _ in range(25):
            a, b = _random_elem(ctx, rng), _random_elem(ctx, rng)
            prod = a * b
            assert prod.flat == _reference_product(ctx, a, b), ctx.name
            assert len(prod.flat) == ctx.e * ctx.d
            assert all(0 <= c < ctx.mod for c in prod.flat)
            assert b * a == prod
        assert ctx.pi ** ctx.e == ctx.from_int(ctx.p) * ctx.w_unit


def test_o0_scalars_match_embedding():
    rng = random.Random(5)
    for ctx in _fields(16):
        c = [rng.randrange(ctx.mod) for _ in range(ctx.d)]
        o0 = ctx.elem([c] + [0] * (ctx.e - 1))
        assert o0.flat == tuple(c) + (0,) * (ctx.d * (ctx.e - 1))
        assert ctx.monomial(0, c) == o0
        x = _random_elem(ctx, rng)
        assert (o0 * x).flat == (x * o0).flat == _reference_product(ctx, o0, x)
        assert (x * 7).flat == tuple(v * 7 % ctx.mod for v in x.flat)
        r = rng.randrange(ctx.q)
        assert ctx.lift_residue(r).residue() == r


def _sparse_elems(ctx, rng):
    """0, 1, int scalars, powers of pi and Teichmuller lifts."""
    out = [ctx.zero, ctx.one, ctx.from_int(-1), ctx.from_int(ctx.p),
           ctx.from_int(rng.randrange(ctx.mod))]
    out += [ctx.pi ** k for k in (1, ctx.e - 1, ctx.e, 2 * ctx.e + 1)]
    for c in (1, rng.randrange(1, ctx.q)):
        lift = ctx.teichmuller_power(ctx.kappa.dlog(c))
        assert lift == teichmuller_reference(ctx, c)
        out.append(lift)
    out.append(ctx.one + ctx.pi)
    return out


@pytest.mark.parametrize("N", [8, 64])
def test_sparse_operands_match_reference(N):
    rng = random.Random(N + 1)
    for ctx in _fields(N):
        sparse = _sparse_elems(ctx, rng)
        for a in sparse:
            for b in sparse + [_random_elem(ctx, rng)]:
                assert (a * b).flat == _reference_product(ctx, a, b), ctx.name
        x = _random_elem(ctx, rng)
        for c in (0, 1, -1, ctx.p, rng.randrange(-ctx.mod, ctx.mod)):
            want = ctx.from_int(c)
            assert x * c == c * x == x * want
            assert (x + c).flat == (x + want).flat
            assert (c - x).flat == (want - x).flat


def test_large_fields_match_reference():
    rng = random.Random(16)
    for N in (8, 32):
        for ctx in _large_fields(N):
            elems = [_random_elem(ctx, rng) for _ in range(4)]
            elems += [ctx.one + ctx.pi, ctx.pi ** (ctx.e - 1), ctx.from_int(5)]
            for a, b in zip(elems, elems[1:] + elems[:1]):
                assert (a * b).flat == _reference_product(ctx, a, b), ctx.name
            assert ctx.pi ** ctx.e == ctx.from_int(ctx.p) * ctx.w_unit
            u = ctx.one + ctx.pi
            assert u * u.invert_unit() == ctx.one


def test_fields_above_the_cap_are_refused():
    with pytest.raises(Unsupported, match="MAX_ED"):
        eisenstein_root(2, MAX_ED + 1, 8)
    with pytest.raises(Unsupported, match="MAX_ED"):
        eisenstein_root(3, MAX_ED // 2 + 1, 8, d=2)
    with pytest.raises(Unsupported, match="MAX_ED"):
        LocalFieldCtx(3, [3] + [0] * (MAX_ED // 4) + [1], 8, 4)
    with pytest.raises(Unsupported, match="MAX_ED"):
        preset("qp-zeta-67")


@pytest.mark.parametrize("N", [8, 64])
def test_add_and_sub_match_reference(N):
    rng = random.Random(N + 2)
    for ctx in _fields(N) + _large_fields(8)[:1]:
        mod = ctx.mod
        for _ in range(10):
            a, b = _random_elem(ctx, rng), _random_elem(ctx, rng)
            assert (a + b).flat == tuple((x + y) % mod
                                         for x, y in zip(a.flat, b.flat))
            assert (a - b).flat == tuple((x - y) % mod
                                         for x, y in zip(a.flat, b.flat))
            assert (-a).flat == tuple(-x % mod for x in a.flat)
            assert a - b + b == a and (a - a).is_zero()


def test_mixed_contexts_are_refused():
    a, b = preset("qp-5", 16).one, preset("qp-5", 16).one
    for op in (lambda: a * b, lambda: a + b, lambda: a - b, lambda: b - a):
        with pytest.raises(BadInput, match="mixed contexts"):
            op()
