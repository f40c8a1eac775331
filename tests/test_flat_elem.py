"""The flat FElem representation against an independent product."""

import random

import pytest

from tamewild.localfield import (
    FElem,
    LocalFieldCtx,
    PadicCtx,
    eisenstein_root,
    preset,
)

PRESETS = ["qp-5", "qp-2", "qp-zeta-3", "qp-zeta-5", "qp-zeta-7", "sqrt-3",
           "cbrt-3", "cbrt-2", "root4-5", "root5-3"]


def _fields(N):
    out = [preset(name, N) for name in PRESETS]
    out.append(eisenstein_root(3, 2, N, d=2))
    # Q_3(zeta_3)'s Eisenstein polynomial over the cubic unramified ring,
    # the shape of the norm oracle's unramified extensions
    out.append(LocalFieldCtx(PadicCtx(3, N, 3), [3, 3, 1], name="z3-unram3"))
    return out


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
    e, d, mod = ctx.e, ctx.d, ctx.base.mod
    g = list(ctx.base.g)
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
    mod = ctx.base.mod
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
            assert all(0 <= c < ctx.base.mod for c in prod.flat)
            assert b * a == prod
        assert ctx.pi ** ctx.e == ctx.from_int(ctx.p) * ctx.w_unit


def test_o0_scalars_match_embedding():
    rng = random.Random(5)
    for ctx in _fields(16):
        c = [rng.randrange(ctx.base.mod) for _ in range(ctx.d)]
        o0 = ctx.elem([c] + [0] * (ctx.e - 1))
        assert o0.flat == tuple(c) + (0,) * (ctx.d * (ctx.e - 1))
        assert ctx.monomial(0, c) == o0
        x = _random_elem(ctx, rng)
        assert (o0 * x).flat == (x * o0).flat == _reference_product(ctx, o0, x)
        assert (x * 7).flat == tuple(v * 7 % ctx.base.mod for v in x.flat)
        r = rng.randrange(ctx.q)
        assert ctx.lift_residue(r).residue() == r
