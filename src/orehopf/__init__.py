"""Exact Hopf algebra computations for iterated Ore extensions of abelian
group algebras over cyclotomic fields, with finite-dimensional quotients
and the classification of simple modules."""

from .abgroup import (AbelianGroup, Character, GroupElement, Subgroup,
                      SubgroupCharacter, char_kernel, joint_kernel)
from .catalog import (CatalogEntry, catalog_entry, catalog_names,
                      fantino_garcia_core, generalized_taft, klein_example,
                      takeuchi_u1, wang_wu_tan)
from .cyclotomic import Cyclotomic, q_binomial, q_int, root_of_unity
from .exprparse import ParseError, element_to_expr, parse_element, serialize_element
from .hopfcore import (AlgebraSpec, GroupAlgElem, HopfElem, Mode, SpecError,
                       TensorElem, antipode, antipode_order,
                       change_of_variables_check, comultiply, counit,
                       cyclotomic_to_literal, hopf_axiom_check,
                       literal_to_cyclotomic, multiply, random_element,
                       validate_spec, wind)
from .quotient import (QuotientElem, QuotientSpec, hopf_ideal_check,
                       q_multiply, q_reduce, quotient_basis)
from .report import Report
from .reps import (ClassifyError, IsoResult, ModuleRep, SimpleParams,
                   are_isomorphic, build_Vbar_diff, build_Vx_diff,
                   build_Vx_skew, build_Vxy_skew, build_Vy_diff, build_Vy_skew,
                   build_induced_skew, build_simple, build_torsion_char,
                   classify_simple, conjugate, direct_sum, is_simple_burnside,
                   iso_criterion, rep_check, torsion_profile, truncation_index)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "Character", "GroupElement", "Subgroup",
    "SubgroupCharacter", "char_kernel", "joint_kernel",
    "CatalogEntry", "catalog_entry", "catalog_names", "fantino_garcia_core",
    "generalized_taft", "klein_example", "takeuchi_u1", "wang_wu_tan",
    "Cyclotomic", "q_binomial", "q_int", "root_of_unity",
    "ParseError", "element_to_expr", "parse_element", "serialize_element",
    "AlgebraSpec", "GroupAlgElem", "HopfElem", "Mode", "SpecError",
    "TensorElem", "antipode", "antipode_order",
    "change_of_variables_check", "comultiply", "counit",
    "cyclotomic_to_literal", "hopf_axiom_check", "literal_to_cyclotomic",
    "multiply", "random_element", "validate_spec", "wind",
    "QuotientElem", "QuotientSpec", "hopf_ideal_check", "q_multiply",
    "q_reduce", "quotient_basis",
    "Report",
    "ClassifyError", "IsoResult", "ModuleRep", "SimpleParams",
    "are_isomorphic", "build_Vbar_diff", "build_Vx_diff", "build_Vx_skew",
    "build_Vxy_skew", "build_Vy_diff", "build_Vy_skew", "build_induced_skew",
    "build_simple", "build_torsion_char", "classify_simple", "conjugate",
    "direct_sum", "is_simple_burnside", "iso_criterion", "rep_check",
    "torsion_profile", "truncation_index",
]
