"""Exact Hopf algebra computations for iterated Ore extensions of abelian
group algebras over cyclotomic fields, with finite-dimensional quotients
and the classification of simple modules.

The layers load lazily.  ``import orehopf`` puts every layer module
(``orehopf.cyclotomic``, ``orehopf.reps`` and the rest of ``_NAMES``) in
``sys.modules`` through ``importlib.util.LazyLoader``: a layer is compiled
and run on the first attribute read from it, so a CLI call compiles only
the layers its subcommand uses.  The names of ``__all__`` are read from
their layers on access.  ``perfbench/tracer.py`` relies on this: after
``import orehopf`` every layer is in ``sys.modules``, and reading its
``vars()`` runs it.  Before Python 3.13 the first load of a layer takes no
lock, so a program that starts threads should use each layer once first.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# every layer with the names it exports; __all__ is these names in this order
_NAMES = {
    "abgroup": ("AbelianGroup", "Character", "GroupElement", "Subgroup",
                "SubgroupCharacter", "char_kernel", "joint_kernel"),
    "catalog": ("CatalogEntry", "catalog_entry", "catalog_names",
                "fantino_garcia_core", "generalized_taft", "klein_example",
                "takeuchi_u1", "wang_wu_tan"),
    "cyclotomic": ("Cyclotomic", "q_binomial", "q_int", "root_of_unity"),
    "exprparse": ("ParseError", "element_to_expr", "parse_element",
                  "serialize_element"),
    "hopfcore": ("AlgebraSpec", "GroupAlgElem", "HopfElem", "Mode", "SpecError",
                 "TensorElem", "antipode", "antipode_order",
                 "change_of_variables_check", "comultiply", "counit",
                 "cyclotomic_to_literal", "hopf_axiom_check",
                 "literal_to_cyclotomic", "multiply", "random_element",
                 "validate_spec", "wind"),
    "linalg": (),
    "quotient": ("QuotientElem", "QuotientSpec", "hopf_ideal_check", "q_multiply",
                 "q_reduce", "quotient_basis"),
    "report": ("Report",),
    "reps": ("ClassifyError", "IsoResult", "ModuleRep", "SimpleParams",
             "are_isomorphic", "build_Vbar_diff", "build_Vx_diff", "build_Vx_skew",
             "build_Vxy_skew", "build_Vy_diff", "build_Vy_skew",
             "build_induced_skew", "build_simple", "build_torsion_char",
             "classify_simple", "conjugate", "direct_sum", "is_simple_burnside",
             "iso_criterion", "rep_check", "torsion_profile", "truncation_index"),
}

__all__ = [name for names in _NAMES.values() for name in names]

_LAYER_OF = {name: layer for layer, names in _NAMES.items() for name in names}


def _lazy_layer(layer):
    """The module orehopf.<layer>, in sys.modules, not yet run."""
    spec = find_spec(f"{__name__}.{layer}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((layer, _lazy_layer(layer)) for layer in _NAMES)


def __getattr__(name):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
