"""invopoly: involutions of the form x^r * h(x^s) over finite fields.

The package builds small finite fields F_{p^n} with a deterministic
polynomial basis, decides whether a constant-free polynomial is a
permutation or an involution by a subgroup criterion that touches only
the d = (q-1)/s roots of unity, constructs involutions from interpolation
data or from closed-form families, and ships a brute-force oracle with
which the command line and the tests referee the criterion.
"""
from __future__ import annotations

from .criterion import (
    CriterionReport,
    PermutationCheck,
    SubgroupInvolution,
    check_iff_subgroup,
    check_involution,
    check_permutation,
    induced_subgroup_involution,
)
from .construct import (
    construct_cor_r1,
    construct_cor_rq43,
    construct_d2,
    construct_d3,
    construct_from_inverse,
    construct_general,
    fixed_point_choices,
    involutory_exponents,
    partner_offset,
)
from .errors import AlgebraError
from .families import (
    FAMILY_IDS,
    ConditionCheck,
    FamilySpec,
    ReversalOutcome,
    cor_exm_case_verdict,
    cor_exm_gcd_verdict,
    gen_conj_symmetric,
    gen_cor_exm,
    gen_cor_m4d4,
    gen_cor_mdq1,
    gen_cor_qb,
    gen_geometric,
    gen_palindromic,
    gen_reversal,
    lift_involution,
    omega_set,
    validate,
)
from .gf import Element, Field, make_field, parse_field, subfield_embedding
from .oracle import PermReport, compositional_inverse, sweep
from .polyring import (
    RhsForm,
    SparsePoly,
    compose_reduce,
    decompose,
    interpolate_on_subgroup,
    interpolate_table,
    parse_poly,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "ConditionCheck",
    "CriterionReport",
    "Element",
    "FAMILY_IDS",
    "FamilySpec",
    "Field",
    "PermReport",
    "PermutationCheck",
    "ReversalOutcome",
    "RhsForm",
    "SparsePoly",
    "SubgroupInvolution",
    "check_iff_subgroup",
    "check_involution",
    "check_permutation",
    "compose_reduce",
    "compositional_inverse",
    "construct_cor_r1",
    "construct_cor_rq43",
    "construct_d2",
    "construct_d3",
    "construct_from_inverse",
    "construct_general",
    "cor_exm_case_verdict",
    "cor_exm_gcd_verdict",
    "decompose",
    "fixed_point_choices",
    "gen_conj_symmetric",
    "gen_cor_exm",
    "gen_cor_m4d4",
    "gen_cor_mdq1",
    "gen_cor_qb",
    "gen_geometric",
    "gen_palindromic",
    "gen_reversal",
    "induced_subgroup_involution",
    "interpolate_on_subgroup",
    "interpolate_table",
    "involutory_exponents",
    "lift_involution",
    "make_field",
    "omega_set",
    "parse_field",
    "parse_poly",
    "partner_offset",
    "subfield_embedding",
    "sweep",
    "validate",
]
