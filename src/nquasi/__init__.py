"""Rewriting and finite-algebra workbench for n-quasigroups and n-loops.

The package namespace is lazy: a public name, or a submodule such as
`nquasi.algebras`, imports its module on first use, so a caller pays only
for the layers it touches.
"""

import importlib

_EXPORTS = {
    "terms": """App Elem ParseError Signature Var apply_substitution match parse_term
        positions rename_apart replace_at size subterm_at unify variables""",
    "rewriting": """CapExceeded CriticalPair MaxRoundsExceeded Rule StepBoundExceeded
        TerminationNotVerified Trs UnorientableError check_conditions check_confluence
        complete critical_pairs enumerate_terms format_trs joinable
        local_confluence_oracle normalize parse_trs reducts rewrite_steps""",
    "varieties": """VarietySpec base_loop base_quasigroup complete_loop complete_quasigroup
        generate_trs""",
    "algebras": """AlgebraError CarrierTooLargeError Congruence Embedding FiniteAlgebra
        NotAQuasigroupError algebra_from_function algebra_from_json algebra_to_json
        cyclic_loop derive_divisions enumerate_congruences extend generated_congruence
        permutation_quasigroup restrict validate_embedding""",
    "amalgams": """AmalgamDiagram AmalgamElement UnknownElementError apply_op build_amalgam
        check_strong_amalgamation check_unique_normal_forms normalize_element
        parse_element_term""",
    "codescent": """CepReport cep_by_enumeration check_cep identity_embedding
        is_effective_codescent search_noncep_monomorphism verify_prop_3_6""",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(importlib.import_module("." + _OWNER[name], __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_OWNER) | set(_SUBMODULES))
