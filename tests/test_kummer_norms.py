"""The closed-form Kummer norms against the determinant of multiplication.

`normoracle._Kummer.norm` takes N(v0 + v1 G^a) from the elementary
symmetric functions of the a-th powers of G's conjugates.  The reference
here is the definition: the determinant of multiplication by an element of
L = F[G]/(G^m - R(G)) in the G-power basis, expanded by cofactors.  Both
are polynomial identities with integer coefficients, so they agree
exactly, as FElems, not only modulo m-th powers.

The symmetric functions themselves are evaluated from integer tables in
the relation's constant (`normoracle._elementary_table`); their reference
is the recurrence on FElems that computed them per extension, power sums
of the conjugates and then Newton's identities.
"""

import random

import pytest

from tamewild import normoracle
from tamewild.cli import element_from_string
from tamewild.finitefield import FiniteField, echelon_reduce
from tamewild.localfield import preset, qp, qp_zeta
from tamewild.normoracle import NormResidueOracle, _unramified_kummer
from test_oracle_golden import _extension_kind


def _relation(ext):
    """R_0, ..., R_{m-1} of the relation G^m = sum_j R_j G^j, as FElems."""
    return [ext.const] + [ext.ctx.from_int(c) for c in ext.tail]


def _residue_field(ext):
    """kappa_L = F_p[G]/(G^m - R(G)) of an unramified extension."""
    return FiniteField(ext.ctx.p, [-ext.const.residue()]
                       + [-c for c in ext.tail] + [1])


def _newton(ctx, m, power_sums, last):
    """e_0, ..., e_m from power_sums[i] = P_i by Newton's identities k e_k
    = sum_{i=1}^k (-1)^(i-1) e_{k-i} P_i for k < m, which divide only
    by a unit k; e_m = last."""
    e = [ctx.one]
    for k in range(1, m):
        acc = ctx.zero
        for i in range(1, k + 1):
            if power_sums[i].is_zero() or e[k - i].is_zero():
                continue
            term = e[k - i] * power_sums[i]
            acc = acc + term if i % 2 else acc - term
        e.append(acc * pow(k, -1, ctx.mod))
    return e + [last]


def reference_elementary(ext):
    """[None, e(1), ..., e(m-1)], e(a) = e_0, ..., e_m of the a-th powers
    of G's conjugates r_i, all on FElems: the power sums S_n of the r_i for
    n <= (m-1)^2 by the division-free S_n = n R_{m-n} + sum_{i < n} R_{m-i}
    S_{n-i} over the nonzero R_j (the first term only for n <= m), then
    Newton's identities on S_0, S_a, S_2a, ..., with e_m = N(G)^a and N(G)
    = (-1)^(m+1) R_0."""
    ctx, m = ext.ctx, ext.m
    rhs = _relation(ext)
    terms = [(m - j, r) for j, r in enumerate(rhs) if not r.is_zero()]
    sums = [ctx.from_int(m)]
    for n in range(1, (m - 1) ** 2 + 1):
        acc = ctx.zero
        for i, r in terms:
            if i < n and not sums[n - i].is_zero():
                acc = acc + r * sums[n - i]
            elif i == n:
                acc = acc + r * n
        sums.append(acc)
    top = rhs[0] if m % 2 else -rhs[0]
    return [None] + [_newton(ctx, m, sums[::a], top ** a)
                     for a in range(1, m)]


def _felem_det(ctx, mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = ctx.zero
    for j in range(n):
        c = mat[0][j]
        if c.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = c * _felem_det(ctx, minor)
        acc = acc - term if j % 2 else acc + term
    return acc


def reference_norm(ext, vec):
    """N_{L/F}(sum vec[j] G^j) as the determinant of the multiplication
    matrix, whose j-th column is vec times G^j."""
    ctx, m, rhs = ext.ctx, ext.m, _relation(ext)
    cols = [list(vec)]
    for _ in range(m - 1):
        prev = cols[-1]
        top = prev[-1]
        shifted = [ctx.zero] + prev[:-1]
        if not top.is_zero():
            for j in range(m):
                shifted[j] = shifted[j] + top * rhs[j]
        cols.append(shifted)
    return _felem_det(ctx, [[cols[j][i] for j in range(m)]
                            for i in range(m)])


def _vector(ext, v0, v1, a):
    """The coordinates of v0 + v1 G^a, v0 = None standing for 1."""
    ctx = ext.ctx
    vec = [ctx.zero] * ext.m
    vec[a] = v1
    vec[0] = vec[0] + (ctx.one if v0 is None else v0)
    return vec


# (preset, N, m, y strings): each extension kind the oracle builds, at
# p = 2, 3, 5 and 7, for m = p and for m = 2
_CASES = [
    ("qp-zeta-3", 16, 3, ["pi", "2*pi^2", "1+pi", "(1+pi)^2*(1-pi^2)",
                          "1+pi^3"]),
    ("qp-zeta-5", 16, 5, ["pi", "1+pi", "(1+2*pi)*(1+pi^2)", "1+pi^5"]),
    ("qp-zeta-7", 16, 7, ["3*pi^2", "1+pi^3", "1+2*pi^7"]),
    ("qp-zeta-3", 16, 2, ["pi", "2"]),
    ("qp-5", 16, 2, ["p", "2"]),
    ("qp-7", 16, 2, ["3*p", "3"]),
    ("cbrt-3", 16, 2, ["pi", "2"]),
    ("qp-2", 16, 2, ["6", "3", "5"]),
]


def _extensions(name, N, m, ys):
    ctx = preset(name, N)
    oracle = NormResidueOracle(ctx, m)
    for text in ys:
        y = element_from_string(ctx, text)
        key = oracle.class_key(y)
        yield oracle, _extension_kind(oracle, key, y), \
            oracle._build_extension(list(key), y)


def _random_elem(ctx, rng):
    while True:
        x = ctx.elem([rng.randrange(ctx.p ** 4) for _ in range(ctx.e)])
        if not x.is_zero():
            return x * ctx.pi ** rng.randrange(3)


@pytest.mark.parametrize("name,N,m,ys", _CASES,
                         ids=[f"{c[0]}-m{c[2]}" for c in _CASES])
def test_closed_form_is_the_determinant_for_every_power(name, N, m, ys):
    rng = random.Random(f"kummer-{name}-{m}")
    for _, _, ext in _extensions(name, N, m, ys):
        ctx = ext.ctx
        for a in range(m):
            pairs = [(_random_elem(ctx, rng), _random_elem(ctx, rng))
                     for _ in range(2)]
            pairs += [(ctx.one, _random_elem(ctx, rng)),
                      (None, _random_elem(ctx, rng)),
                      (ctx.zero, _random_elem(ctx, rng))]
            for v0, v1 in pairs:
                assert ext.norm(v0, v1, a) == \
                    reference_norm(ext, _vector(ext, v0, v1, a)), (name, a)


def test_cases_reach_every_extension_kind_at_every_prime():
    kinds = {}
    for name, N, m, ys in _CASES:
        for _, kind, ext in _extensions(name, N, m, ys):
            kinds.setdefault(kind, set()).add(ext.ctx.p)
    assert kinds == {"prime-element": {2, 3, 5, 7}, "wild-unit": {2, 3, 5, 7},
                     "cokernel": {2, 3, 5, 7},
                     "unramified-quadratic": {3, 5, 7}}


@pytest.mark.parametrize("name,N,m,ys", _CASES,
                         ids=[f"{c[0]}-m{c[2]}" for c in _CASES])
def test_spanning_norms_are_the_determinants(name, N, m, ys):
    for oracle, _, ext in _extensions(name, N, m, ys):
        high = ext.ram_index * (oracle.H - 1) + 1
        ctx = ext.ctx
        elements = []
        if ext.lam:
            elements.append(ext._level_element(1, 0, ctx.one, False))
            basis = [(0, ctx.teichmuller_power(c)) for c in range(ctx.d)]
        else:
            if m != ctx.p:
                kappa = _residue_field(ext)
                g0, g1 = kappa.digits(kappa.generator())
                elements.append((ctx.from_int(g0), ctx.from_int(g1), 1))
            basis = [(c, ctx.one) for c in range(m)]
        elements += [ext._level_element(s, c, scale, True)
                     for s in range(1, high) for c, scale in basis]
        assert list(ext.spanning_norms(high)) == [
            reference_norm(ext, _vector(ext, *elem)) for elem in elements]


@pytest.mark.parametrize("name,N,y_text", [
    ("qp-zeta-3", 16, "1+pi^3"), ("qp-zeta-5", 16, "1+pi^5"),
    ("qp-zeta-7", 16, "1+2*pi^7"), ("qp-2", 16, "5")])
def test_unramified_generator_norm_is_spanned_without_it(name, N, y_text):
    # at m = p the Teichmuller lift of a generator of kappa_L^x has order
    # prime to p, so the norm of its digit lift is the norm of a principal
    # unit times a p-th power: the level units' norms already span it, and
    # with it the norm of every element of L
    ctx = preset(name, N)
    p = ctx.p
    oracle = NormResidueOracle(ctx, p)
    y = element_from_string(ctx, y_text)
    ext = oracle._build_extension(list(oracle.class_key(y)), y)
    assert ext.ram_index == 1
    rows = oracle._pivots_for(y)
    kappa = _residue_field(ext)
    gen = [ctx.from_int(c) for c in kappa.digits(kappa.generator())]
    rng = random.Random(f"generator-{name}")
    vectors = [gen] + [[_random_elem(ctx, rng) for _ in range(p)]
                       for _ in range(4)]
    for vec in vectors:
        assert not any(echelon_reduce(rows, oracle.coordinates(
            reference_norm(ext, vec)), p))
    assert any(echelon_reduce(rows, oracle.coordinates(ctx.pi), p))


def _relation_shapes(p, N):
    """(kind, extension) for every relation shape the oracle builds over
    Q_p(zeta_p) (Q_2 at p = 2) at precision N, each ramified shape for two
    constants: a prime element, a wild unit class, the unramified
    extension of degree p and, for odd p, the unramified quadratic one."""
    ctx = qp(2, N) if p == 2 else qp_zeta(p, N)
    oracle = NormResidueOracle(ctx, p)
    for c in (1, 2 * p - 1):
        for y in (ctx.from_int(c) * ctx.pi,
                  ctx.one + ctx.from_int(c) * ctx.pi):
            key = oracle.class_key(y)
            yield _extension_kind(oracle, key, y), \
                oracle._build_extension(list(key), y)
    yield "cokernel", _unramified_kummer(ctx, p)
    if p != 2:
        yield "unramified-quadratic", _unramified_kummer(ctx, 2)


@pytest.mark.parametrize("N", [8, 32])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_elementary_tables_are_the_felem_recurrence(p, N):
    kinds = set()
    for kind, ext in _relation_shapes(p, N):
        kinds.add(kind)
        assert ext._elementary == reference_elementary(ext), (kind, p, N)
    assert kinds == {"prime-element", "wild-unit", "cokernel"} | (
        set() if p == 2 else {"unramified-quadratic"})


def test_a_second_build_of_a_shape_computes_no_table():
    # the tables depend only on (m, tail, p^N): a fresh oracle on a fresh
    # context of the same field evaluates the kept table at its own constant
    def build(y_text):
        ctx = preset("qp-zeta-5", 16)
        y = element_from_string(ctx, y_text)
        oracle = NormResidueOracle(ctx, 5)
        return oracle._build_extension(list(oracle.class_key(y)), y)

    build("1+pi")
    misses = normoracle._elementary_table.cache_info().misses
    second = build("1+2*pi")
    assert normoracle._elementary_table.cache_info().misses == misses
    assert second._elementary == reference_elementary(second)
