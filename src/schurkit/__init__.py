"""Exact symmetric polynomials, arithmetic-formula rewriting, and the
reduction from suitable Schur polynomials to the determinant, everything
verifiable by brute-force expansion at desk scale."""

from .field import (
    CyclotomicScalar,
    Rat,
    ScalarMatrix,
    cyclotomic_polynomial,
    omega,
)
from .partitions import Partition, staircase
from .poly import Poly, poly_from_text
from .circuits import ABP, Formula, det_abp, formula_from_poly
from .symmetric import (
    e_in_h_basis,
    e_in_p_basis,
    e_poly,
    express_in_e_basis,
    generalized_vandermonde,
    h_poly,
    p_poly,
    scaled_staircase_schur,
    schur_bialternant,
    schur_jt_e,
    schur_jt_h,
    schur_ssyt,
    skew_schur_h,
)
from .independence import (
    CommonZeroWitness,
    h_family_witness,
    is_independence_witness,
    jacobian,
    p_family_witness,
    roots_of_unity_witness,
    shifted_witness,
    symbolic_rank,
)
from .transforms import (
    ReductionReport,
    divide_formula,
    homogeneous_component_formula,
    jacobi_trudi_formula,
    recover_outer_formula,
    reduction_hypothesis_holds,
    schur_to_det_reduce,
    shift_formula,
)
from .derivatives import (
    pdc_dimension,
    product_pdc_check,
    shifted_product_pdc_check,
)

__all__ = [
    "ABP",
    "CommonZeroWitness",
    "CyclotomicScalar",
    "Formula",
    "Partition",
    "Poly",
    "Rat",
    "ReductionReport",
    "ScalarMatrix",
    "cyclotomic_polynomial",
    "det_abp",
    "divide_formula",
    "e_in_h_basis",
    "e_in_p_basis",
    "e_poly",
    "express_in_e_basis",
    "formula_from_poly",
    "generalized_vandermonde",
    "h_family_witness",
    "h_poly",
    "homogeneous_component_formula",
    "is_independence_witness",
    "jacobian",
    "jacobi_trudi_formula",
    "omega",
    "p_family_witness",
    "p_poly",
    "pdc_dimension",
    "poly_from_text",
    "product_pdc_check",
    "recover_outer_formula",
    "reduction_hypothesis_holds",
    "roots_of_unity_witness",
    "scaled_staircase_schur",
    "schur_bialternant",
    "schur_jt_e",
    "schur_jt_h",
    "schur_ssyt",
    "schur_to_det_reduce",
    "shift_formula",
    "shifted_product_pdc_check",
    "shifted_witness",
    "skew_schur_h",
    "staircase",
    "symbolic_rank",
]
