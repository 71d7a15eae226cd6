import copy

import pytest

from nquasi.algebras import algebra_from_function, cyclic_loop
from nquasi.rewriting import Trs, terms_up_to
from nquasi.terms import App, Elem


@pytest.fixture
def z3():
    return cyclic_loop(3)


@pytest.fixture
def z4():
    return cyclic_loop(4)


@pytest.fixture
def z6():
    return cyclic_loop(6)


@pytest.fixture
def trivial_loop():
    return algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")


@pytest.fixture
def trivial_quasigroup():
    return algebra_from_function("S1", 2, "quasigroup", ["0"], lambda a, b: 0)


def steiner3(name="St3"):
    # f(a, b) = -(a + b) mod 3: idempotent, commutative, every equation solvable
    return algebra_from_function(name, 2, "quasigroup", ["0", "1", "2"], lambda a, b: (-a - b) % 3)


@pytest.fixture
def steiner():
    return steiner3()


def element_terms(d, max_size):
    """All terms over an amalgam diagram's carrier union of size <= max_size."""
    symbols = [(s, d.n) for s in d.operations]
    return terms_up_to([Elem(a) for a in d.carrier_union], symbols, max_size)


def diagram_with_rules(d, rules):
    """A copy of an amalgam diagram whose reduction system has the given
    rules, such as a mutant with a wrong table value."""
    mutant = copy.copy(d)
    Trs.__init__(mutant, d.signature, rules)
    return mutant


def random_element_term(d, rng, max_depth):
    """A random term over the carrier union, at most max_depth applications deep."""
    if max_depth <= 0 or rng.random() < 0.3:
        return Elem(rng.choice(d.carrier_union))
    symbol = rng.choice(sorted(d.operations))
    return App(symbol, tuple(random_element_term(d, rng, max_depth - 1) for _ in range(d.n)))


def _dihedral8(i, j):
    # element k + 4*b stands for r^k s^b; (r^k s^b)(r^l s^c) = r^(k + (-1)^b l) s^(b + c)
    b, k = divmod(i, 4)
    c, l = divmod(j, 4)
    return (k + (-1) ** b * l) % 4 + 4 * (b ^ c)


def klein_in_dihedral8(subgroup, n=2, kind="quasigroup"):
    """(source, target, map) of a non-central Klein four-subgroup of D4,
    {0,2,4,6} = {1, r^2, s, r^2 s} or {0,2,5,7} = {1, r^2, rs, r^3 s},
    relabelled 0..3 in that order, with f the n-fold product."""

    def product(*ix):
        acc = 0
        for i in ix:
            acc = _dihedral8(acc, i)
        return acc

    identity = "0" if kind == "loop" else None
    target = algebra_from_function("D4", n, kind, [str(i) for i in range(8)], product, identity)
    source = algebra_from_function(
        "V4", n, kind, ["0", "1", "2", "3"],
        lambda *ix: subgroup.index(product(*(subgroup[i] for i in ix))), identity,
    )
    return source, target, {str(i): str(a) for i, a in enumerate(subgroup)}
