"""The package namespace: `nquasi` exports the same names as when it
imported every layer eagerly, each the defining module's own object, and
imports a layer only when one of its names is first used."""

import importlib
import subprocess
import sys

import pytest

import nquasi

from conftest import child_env

EXPORTS = {
    "terms": [
        "App", "Elem", "ParseError", "Signature", "Var", "apply_substitution", "match", "parse_term",
        "positions", "rename_apart", "replace_at", "size", "subterm_at", "unify", "variables",
    ],
    "rewriting": [
        "CapExceeded", "CriticalPair", "MaxRoundsExceeded", "Rule", "StepBoundExceeded",
        "TerminationNotVerified", "Trs", "UnorientableError", "check_conditions", "check_confluence",
        "complete", "critical_pairs", "enumerate_terms", "format_trs", "joinable",
        "local_confluence_oracle", "normalize", "parse_trs", "reducts", "rewrite_steps",
    ],
    "varieties": [
        "VarietySpec", "base_loop", "base_quasigroup", "complete_loop", "complete_quasigroup", "generate_trs",
    ],
    "algebras": [
        "AlgebraError", "CarrierTooLargeError", "Congruence", "Embedding", "FiniteAlgebra",
        "NotAQuasigroupError", "algebra_from_function", "algebra_from_json", "algebra_to_json",
        "cyclic_loop", "derive_divisions", "enumerate_congruences", "extend", "generated_congruence",
        "permutation_quasigroup", "restrict", "validate_embedding",
    ],
    "amalgams": [
        "AmalgamDiagram", "AmalgamElement", "UnknownElementError", "apply_op", "build_amalgam",
        "check_strong_amalgamation", "check_unique_normal_forms", "normalize_element", "parse_element_term",
    ],
    "codescent": [
        "CepReport", "cep_by_enumeration", "check_cep", "identity_embedding", "is_effective_codescent",
        "search_noncep_monomorphism", "verify_prop_3_6",
    ],
}
OWNER = [(name, module) for module, names in EXPORTS.items() for name in names]


def test_all_is_the_export_list():
    assert nquasi.__all__ == [name for name, _ in OWNER]


def test_each_name_is_the_defining_modules_object():
    for name, module in OWNER:
        value = getattr(nquasi, name)
        assert value is getattr(importlib.import_module("nquasi." + module), name), name
        assert value.__module__ == "nquasi." + module, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from nquasi import *", namespace)
    assert {name: namespace[name] for name, _ in OWNER} == {name: getattr(nquasi, name) for name, _ in OWNER}


def test_dir_lists_the_exports_and_layers():
    assert set(nquasi.__all__) | set(EXPORTS) | {"cli", "__version__"} <= set(dir(nquasi))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nquasi.no_such_name
    assert not hasattr(nquasi, "_no_such_name")


# the layer functions that perfbench/tracing.py rebinds in `nquasi.cli`,
# resolved there through the package's export map
CLI_LAYER_NAMES = [
    "generate_trs", "validate_embedding", "check_cep", "build_amalgam",
    "check_unique_normal_forms", "check_strong_amalgamation", "normalize_element",
]


@pytest.mark.parametrize("name", CLI_LAYER_NAMES)
def test_cli_resolves_each_layer_name_to_the_packages_object(name):
    assert getattr(nquasi.cli, name) is getattr(nquasi, name)


def test_cli_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'nquasi.cli' has no attribute 'no_such_name'$"):
        nquasi.cli.no_such_name


FRESH = """
import sys
import nquasi

def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("nquasi."))

print(loaded())
print(nquasi.algebras.__name__, loaded())
print(nquasi.check_cep.__module__, loaded())
print(nquasi.cli.__name__, nquasi.__version__)
"""


def test_a_bare_import_loads_layers_on_first_use():
    proc = subprocess.run([sys.executable, "-c", FRESH], capture_output=True, text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "[]",
        "nquasi.algebras ['algebras', 'terms']",
        "nquasi.codescent ['algebras', 'codescent', 'terms']",
        "nquasi.cli 0.1.0",
    ]
