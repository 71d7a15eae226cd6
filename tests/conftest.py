import copy
import itertools
import os
import random

import pytest
from hypothesis import strategies as st

import nquasi
from nquasi.algebras import Congruence, Embedding, algebra_from_function, cyclic_loop
from nquasi.codescent import (
    identity_embedding,
    latin_squares,
    permutation_from_cycle_type,
    quasigroup_from_square,
    sub_permutation_embeddings,
)
from nquasi.rewriting import Rule, Trs, check_conditions, terms_up_to
from nquasi.terms import App, Elem, Var, apply_substitution, canonical_renaming, variables


def child_env():
    """Environment for a child interpreter that imports the same package as
    the tests, installed or not."""
    src = os.path.dirname(os.path.dirname(nquasi.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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


def canonical_rule_set(trs):
    """The rules as (lhs, rhs) pairs, each renamed v1, v2, ... in
    first-occurrence order, skipping the symbols; labels are dropped."""
    out = set()
    for rule in trs.rules:
        renaming = canonical_renaming((rule.lhs, rule.rhs), trs.signature)
        out.add((apply_substitution(renaming, rule.lhs), apply_substitution(renaming, rule.rhs)))
    return out


def confluence_mutants(trs, count, seed, label_prefix):
    """Confluence-exercising variants that keep the size-decrease condition.

    Kinds: `fork` adds a copy of a rule with its right side changed to a
    different variable of the left side (making the system non-confluent
    with a divergence no larger than the rule's left side, so the bounded
    oracle can see it); `rename` rewrites one rule's variables; `shuffle`
    permutes the rule order.  Right-side replacement is deliberately not
    used: it can push the smallest divergent peak beyond the oracle's term
    bound.
    """
    rng = random.Random(seed)
    out = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        kind = rng.choice(["fork", "rename", "shuffle"])
        if kind == "fork":
            rule = rng.choice(trs.rules)
            options = sorted(v for v in variables(rule.lhs) if Var(v) != rule.rhs)
            if not options:
                continue
            fork = Rule(rule.lhs, Var(rng.choice(options)), "%s%d" % (label_prefix, attempt))
            mutant = trs.with_rules([fork])
        elif kind == "rename":
            index = rng.randrange(len(trs.rules))
            rule = trs.rules[index]
            renaming = {
                v: Var("w%d" % k) for k, v in enumerate(sorted(variables(rule.lhs)), start=1)
            }
            renamed = Rule(
                apply_substitution(renaming, rule.lhs),
                apply_substitution(renaming, rule.rhs),
                rule.label,
            )
            mutant = Trs(trs.signature, trs.rules[:index] + (renamed,) + trs.rules[index + 1 :])
        else:
            order = list(trs.rules)
            rng.shuffle(order)
            mutant = Trs(trs.signature, order)
        if check_conditions(mutant).star_ok:
            out.append(mutant)
    return out


def redex_terms(trs, elements=()):
    """Terms over the signature of trs, the variables x, y and the given
    element leaves, in which any subterm may be an instance of a rule's
    left side, so that rewriting has work to do at every depth."""
    leaves = [Var("x"), Var("y")] + [App(c) for c in trs.signature.constants()] + [Elem(a) for a in elements]
    symbols = sorted((s, k) for s, k in trs.signature.symbols.items() if k)

    def extend(inner):
        apps = st.sampled_from(symbols).flatmap(lambda sk: st.tuples(*[inner] * sk[1]).map(lambda args: App(sk[0], args)))
        redexes = st.sampled_from(trs.rules).flatmap(
            lambda r: st.fixed_dictionaries({v: inner for v in sorted(variables(r.lhs))}).map(
                lambda sigma: apply_substitution(sigma, r.lhs)
            )
        )
        return apps | redexes

    return st.recursive(st.sampled_from(leaves), extend, max_leaves=8)


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


def flat_table(n, carrier, table):
    """A table keyed by element-name tuples as value indices in product order."""
    return [carrier.index(table[args]) for args in itertools.product(carrier, repeat=n)]


def named_table(n, carrier, flat):
    """Value indices in product order as a table keyed by element-name tuples."""
    return {args: carrier[v] for args, v in zip(itertools.product(carrier, repeat=n), flat)}


def congruence_from_blocks(alg, blocks):
    """A `Congruence` with the given blocks, each element labelled with the
    least carrier index of its block, without any check that the blocks
    are compatible: reference code hands its partitions over in this form."""
    idx = {a: i for i, a in enumerate(alg.carrier)}
    labels = [None] * alg.order
    for block in blocks:
        least = min(map(idx.__getitem__, block))
        for a in block:
            labels[idx[a]] = least
    return Congruence(alg.carrier, tuple(labels))


def random_latin_square(order, rng):
    """A seeded Latin square built row by row.  Every Latin rectangle
    extends by a row (Hall's theorem), so a random fitting row never
    leads to a dead end."""
    rows = []
    while len(rows) < order:
        fitting = [
            perm
            for perm in itertools.permutations(range(order))
            if all(perm[c] != row[c] for row in rows for c in range(order))
        ]
        rows.append(rng.choice(fitting))
    return tuple(rows)


def reversed_klein():
    """The Klein loop a ^ b on the carrier d, c, b, a, whose string order is
    the reverse of its index order."""
    klein = algebra_from_function("V4:dcba", 2, "loop", "0123", lambda a, b: a ^ b, identity="0")
    return klein.rename({"0": "d", "1": "c", "2": "b", "3": "a"})


def congruence_test_algebras():
    rng = random.Random(20240327)
    algebras = [cyclic_loop(6), cyclic_loop(3, n=3, name="Z3:n=3"), cyclic_loop(4, n=3, name="Z4:n=3")]
    for order, count in ((5, 6), (6, 4)):
        for k in range(count):
            square = random_latin_square(order, rng)
            algebras.append(quasigroup_from_square(square, "L%d.%d" % (order, k)))
    return algebras + [reversed_klein()]


CONGRUENCE_ALGEBRAS = congruence_test_algebras()


def order8_quasigroups(count, seed):
    """Seeded order-8 quasigroups with a subquasigroup on {0..3}: an order-4
    square S and three 4x4 Latin quadrants, S.T = A, T.S = B and T.T = C
    for T = {4..7}.  A 4-element subquasigroup of an order-8 one forces
    this form."""
    squares = list(latin_squares(4))
    rng = random.Random(seed)
    out = []
    for k in range(count):
        s, a, b, c = (rng.choice(squares) for _ in range(4))
        rows = [list(s[x]) + [4 + v for v in a[x]] for x in range(4)]
        rows += [[4 + v for v in b[x]] + list(c[x]) for x in range(4)]
        out.append(quasigroup_from_square(rows, "O8.%d" % k))
    return out


def cep_fixtures():
    """(label, embedding) for every embedding the CEP tests decide: identity
    and doubling maps of cyclic loops, singleton sources, unary cycle
    unions, and the Klein four-subgroups of D4 in their binary, loop and
    ternary forms."""
    trivial_loop = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
    singleton = algebra_from_function("S1", 2, "quasigroup", ["0"], lambda a, b: 0)
    out = [("id:" + a.name, identity_embedding(a)) for a in (cyclic_loop(3), cyclic_loop(4), steiner3())]
    out += [
        ("T->Z3", Embedding(trivial_loop, cyclic_loop(3), {"0": "0"})),
        ("T->Z4", Embedding(trivial_loop, cyclic_loop(4), {"0": "0"})),
        ("S1->St3", Embedding(singleton, steiner3(), {"0": "0"})),
    ]
    for source, target in ((2, 4), (2, 6), (3, 6)):
        emb = Embedding(
            cyclic_loop(source), cyclic_loop(target), {str(i): str(i * (target // source)) for i in range(source)}
        )
        out.append(("Z%d->Z%d" % (source, target), emb))
    for cycle_type in ((2, 2), (3, 1), (2, 1, 1), (4, 2)):
        for k, emb in enumerate(sub_permutation_embeddings(permutation_from_cycle_type(cycle_type))):
            out.append(("perm%s#%d" % ("".join(map(str, cycle_type)), k), emb))
    for subgroup in ((0, 2, 4, 6), (0, 2, 5, 7)):
        for n, kind in ((2, "quasigroup"), (2, "loop"), (3, "quasigroup")):
            label = "V4=%s->D4:n=%d:%s" % ("".join(map(str, subgroup)), n, kind)
            out.append((label, Embedding(*klein_in_dihedral8(subgroup, n, kind))))
    return out
