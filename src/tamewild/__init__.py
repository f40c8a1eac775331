"""Exact desk-scale arithmetic for local fields and their reciprocity laws.

Subpackages:

- finitefield: the finite fields F_q (residue and constant fields) and F_q[x]
- padic: truncated arithmetic in Z_p and unramified extensions
- localfield: totally-ramified-over-unramified extensions F = F0(pi)
- orders: the singular subrings O0 + m^m O_F and the optimal-order bound
- symbols: tame/Hilbert/wild symbol evaluation and reduction lemmas
- normoracle: brute-force norm-residue triviality oracle
- globalrecip: Moore product over Q, quadratic reciprocity, global lattices
- funcfield: places of P^1/F_q, Weil reciprocity, the residue theorem
- cli: command-line entry points
"""

from .errors import PRECISION_EXHAUSTED
from .finitefield import GF, FiniteField, FqPoly
from .padic import PadicCtx, O0Elem, val_p, invert, teichmuller, hensel_root, zp_binomial
from .localfield import (
    LocalFieldCtx,
    FElem,
    UnitDecomposition,
    valuation,
    unit_decompose,
    unit_level,
    zp_exp,
    hasse_forward,
    pth_root_in_filtration,
    compute_mu,
    qp,
    qp_zeta,
    eisenstein_root,
    preset,
)
from .orders import OrderRm, OptimalOrderReport, m0_bound, estimate_m0
from .symbols import (
    tame_symbol,
    hilbert_quadratic_q,
    hilbert_tame_part,
    wild_symbol_zeta,
    norm_to_base,
    k1_decompose,
    k2_transform,
    steinberg_check,
    triviality_oracle,
)
from .normoracle import norm_residue_trivial
from .globalrecip import (
    Place,
    GlobalOrderLattice,
    mu_counts_q,
    moore_product_q,
    quadratic_reciprocity_view,
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
    "PRECISION_EXHAUSTED",
    "PadicCtx", "O0Elem", "val_p", "invert", "teichmuller", "hensel_root",
    "zp_binomial",
    "LocalFieldCtx", "FElem", "UnitDecomposition", "valuation",
    "unit_decompose", "unit_level", "zp_exp", "hasse_forward",
    "pth_root_in_filtration", "compute_mu", "qp", "qp_zeta",
    "eisenstein_root", "preset",
    "OrderRm", "OptimalOrderReport", "m0_bound", "estimate_m0",
    "tame_symbol", "hilbert_quadratic_q", "hilbert_tame_part",
    "wild_symbol_zeta", "norm_to_base", "k1_decompose", "k2_transform",
    "steinberg_check", "triviality_oracle", "norm_residue_trivial",
    "Place", "GlobalOrderLattice", "mu_counts_q", "moore_product_q",
    "quadratic_reciprocity_view", "global_optimal_lattice",
    "GF", "FiniteField", "FqPoly", "FqRational", "FFPlace", "divisor", "ff_tame_symbol",
    "weil_reciprocity_check", "ff_hilbert_check", "residue_theorem_check",
]
