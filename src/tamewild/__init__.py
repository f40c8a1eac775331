"""Exact desk-scale arithmetic for local fields and their reciprocity laws.

Subpackages:

- finitefield: F_q (residue and constant fields), F_q[x] and its factoring,
  one distinct-degree split shared by factor and is_irreducible
- localfield: totally-ramified-over-unramified extensions F = F0(pi), each
  one LocalFieldCtx holding p, N, the residue field and f, the unramified
  ring O0 being block 0 of their elements; valuations capped at M = e*N,
  the unit filtration, the one p-th-root solver and the roots of unity
- padic: old names of localfield and finitefield classes, kept for
  perfbench/tracing.py
- orders: the singular subrings O0 + m^m O_F and the optimal-order bound
- symbols: tame/Hilbert/wild symbol evaluation and reduction lemmas
- normoracle: brute-force norm-residue triviality oracle
- globalrecip: Moore product over Q, quadratic reciprocity, global lattices
- funcfield: places of P^1/F_q, Weil reciprocity, the residue theorem
- cli: command-line entry points
"""

from .finitefield import GF, FiniteField, FqPoly
from .localfield import (
    LocalFieldCtx,
    FElem,
    UnitDecomposition,
    valuation,
    unit_decompose,
    unit_level,
    hasse_forward,
    pth_root_in_filtration,
    qp,
    qp_zeta,
    eisenstein_root,
    preset,
)
from .orders import OrderRm, OptimalOrderReport, m0_bound, estimate_m0
from .symbols import (
    tame_symbol,
    hilbert_quadratic_q,
    wild_symbol_zeta,
    k1_decompose,
    k2_transform,
    triviality_oracle,
)
from .normoracle import norm_residue_trivial
from . import padic  # noqa: F401  (perfbench/tracing.py looks it up)
from .globalrecip import (
    GlobalOrderLattice,
    moore_product_q,
    global_optimal_lattice,
)
from .funcfield import (
    FqRational,
    FFPlace,
    divisor,
    ff_tame_symbol,
    weil_reciprocity_check,
    ff_hilbert_check,
    residue_theorem_check,
)

__all__ = [
    "LocalFieldCtx", "FElem", "UnitDecomposition", "valuation",
    "unit_decompose", "unit_level", "hasse_forward", "pth_root_in_filtration",
    "qp", "qp_zeta", "eisenstein_root", "preset",
    "OrderRm", "OptimalOrderReport", "m0_bound", "estimate_m0",
    "tame_symbol", "hilbert_quadratic_q", "wild_symbol_zeta",
    "k1_decompose", "k2_transform", "triviality_oracle",
    "norm_residue_trivial",
    "GlobalOrderLattice", "moore_product_q", "global_optimal_lattice",
    "GF", "FiniteField", "FqPoly", "FqRational", "FFPlace", "divisor", "ff_tame_symbol",
    "weil_reciprocity_check", "ff_hilbert_check", "residue_theorem_check",
]
