"""Each fast path of the CEP scan and the congruence layer, checked
against the straightforward string-keyed code it replaced (congruences
found as joins of principal ones against a filter over every set
partition; the flat bitmask Latin-square walk against the cell-by-cell
walk and the per-level row-filter walk; the lattice memoized per algebra
and scope against fresh algebras and a count of its computations; the
closed-subset masks of each square against the test of every subset;
slot rows read from one flat index table against rows looked up
entry by entry; the closure that stops at one class and the sparse,
one-pass lattice join against the closure that drains every pending pair
and the frontier search joining over every index); amalgam reduction by ground rules on the shared rewriting
engine, checked against the separate amalgam engine with its collapse
step that it replaced; rule selection by argument heads, checked against
the root-symbol index it replaced; critical pairs from the rules that
the argument heads let overlap, checked against the loop over every
ordered rule pair it replaced; `unify` with one binding branch, the
leftmost strategies as the first of the position-ordered steps, and the
per-slot head masks of the rule index for matching and unifying, checked
against the two-branch `unify`, the leftmost loop and the two filters they
replaced;
the local-confluence oracle on one memoized step relation, checked
against the oracle on `rewrite_steps` and `joinable` it replaced;
`check_confluence` on the oracle's join test, checked against the
`joinable` decision on each critical pair that it replaced; the
one-step relation as root steps plus lifted argument steps, checked for
steps, reducts, normal forms and traces against the position walk with
`replace_at` that it replaced; innermost normalization in one post-order
pass, checked for normal forms, traces, step bounds and root-step counts
against the walk from the root after every step that it replaced; every
invented variable name and completion label from `fresh_names`, checked
against the counters of `rename_apart`, `canonical_renaming` and
`complete` and the fixed variable pool of `enumerate_terms` that it
replaced; `unify` on triangular bindings, variable walks on one
explicit stack and the two-part `step_key`, checked against the `unify`
that applied every binding as it went, the recursive variable walk and
the key that also printed the result; and the rule families, Prop. 3.6 and the
square-to-quasigroup step, checked against the hand-built code they
replaced; the one identity-2.3 pass of the `FiniteAlgebra`
constructor, checked against the three-pass `validate` it replaced; and
one flat integer table per operation, checked for views, JSON, renaming,
error messages and embedding violations against the name-keyed
total-table check, JSON nesting, division derivation and embedding loop
it replaced; and the hand-written term classes with their iterative
`str`, checked for equality, hashes, set order, `repr` and immutability
against the frozen dataclasses they replaced; and the term reader as one
loop over regex tokens with an explicit stack, checked for every parsed
term and error message against the character-loop tokenizer and
recursive-descent parser it replaced; and the term enumerator as one
generator over a variable pool that yields one term per renaming class,
checked against the product over every split of the size that it
replaced, with the oracle on those terms checked against the oracle on
every term; and, for n >= 2, the principal congruences of the pairs
(0, b) alone, checked against those of every pair that they replaced;
and each rule's termination conditions, computed once when the rule is
built, checked against the per-system functions that derived them anew
for every system; and `positions` on an explicit stack, checked for every
pair and its order against the recursive generator that it replaced.
The reference implementations below
are kept only for these comparisons."""

import collections
import dataclasses
import functools
import itertools
import json
import math
import pickle
import random
import re
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from nquasi.algebras import (
    AlgebraError,
    FiniteAlgebra,
    InvalidAlgebraError,
    NotAQuasigroupError,
    Violation,
    algebra_from_function,
    algebra_to_json,
    cyclic_loop,
    derive_divisions,
    enumerate_congruences,
    extend,
    generated_congruence,
    permutation_quasigroup,
)
from nquasi.amalgams import (
    _resolve_e,
    build_amalgam,
    check_unique_normal_forms,
    normalize_element,
    reduct_graph,
)
from nquasi import algebras, codescent, rewriting
from nquasi.codescent import (
    _closed_subsets_along,
    integer_partitions,
    latin_squares,
    permutation_from_cycle_type,
    quasigroup_from_square,
    search_noncep_monomorphism,
)
from nquasi.rewriting import (
    DEFAULT_REDUCT_CAP,
    CapExceeded,
    CompletionResult,
    CriticalPair,
    MaxRoundsExceeded,
    OracleVerdict,
    Rule,
    StepBoundExceeded,
    TerminationNotVerified,
    Trs,
    UnorientableError,
    _RuleIndex,
    _canonical_terms,
    _step_memo,
    check_conditions,
    check_confluence,
    complete,
    critical_pairs,
    enumerate_terms,
    format_trs,
    joinable,
    local_confluence_oracle,
    normalize,
    parse_trs,
    reducts,
    rewrite_steps,
    step_key,
    terms_up_to,
)
from nquasi.terms import (
    _first_occurrences,
    _IDENT_RE,
    App,
    Elem,
    ParseError,
    Signature,
    Var,
    apply_substitution,
    canonical_renaming,
    fresh_names,
    iter_variables,
    match,
    parse_term,
    positions,
    rename_apart,
    replace_at,
    size,
    strip_comments,
    subterm_at,
    unify,
    variables,
)
from nquasi.varieties import VarietySpec, complete_loop, const_run, generate_trs, var_run, variety_signature

from conftest import (
    CONGRUENCE_ALGEBRAS,
    cep_fixtures,
    confluence_mutants,
    congruence_from_blocks,
    diagram_with_rules,
    element_terms,
    flat_table,
    klein_in_dihedral8,
    named_table,
    random_element_term,
    random_latin_square,
    redex_terms,
    steiner3,
)


# ---------------------------------------------------------------------------
# references


def reference_positions_postorder(t, prefix=()):
    """(position, subterm) pairs with children before their parent."""
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            yield from reference_positions_postorder(a, prefix + (i,))
    yield prefix, t


def reference_position_steps(system, t, pos, sub):
    """The steps of t at the position pos of its application sub: each root
    step of sub, put in place by `replace_at`."""
    return [(replace_at(t, pos, result), label, pos) for result, label, _root in system.root_steps(sub)]


def reference_successors(system, t, walk):
    """The steps of t, position by position in the order of `walk`
    (`positions` or `reference_positions_postorder`)."""
    for pos, sub in walk(t):
        if isinstance(sub, App):
            yield from reference_position_steps(system, t, pos, sub)


def reference_latin_squares(order):
    """Cell-by-cell backtracking with column availability masks."""
    full = (1 << order) - 1
    rows = []
    col_used = [0] * order

    def rec(r):
        if r == order:
            yield tuple(tuple(row) for row in rows)
            return
        row = [0] * order
        rows.append(row)

        def fill(c, row_used):
            if c == order:
                yield from rec(r + 1)
                return
            free = full & ~row_used & ~col_used[c]
            while free:
                bit = free & -free
                free ^= bit
                row[c] = bit.bit_length() - 1
                col_used[c] |= bit
                yield from fill(c + 1, row_used | bit)
                col_used[c] ^= bit

        yield from fill(0, 0)
        rows.pop()

    yield from rec(0)


def row_filter_latin_squares(order):
    """Whole rows with (column, symbol) bitmasks, each level recursing on
    a filtered list of the rows disjoint from the one just placed."""
    rows = [
        (perm, sum(1 << (column * order + symbol) for column, symbol in enumerate(perm)))
        for perm in itertools.permutations(range(order))
    ]
    square = []

    def extend(fitting):
        if len(square) == order:
            yield tuple(square)
            return
        for perm, mask in fitting:
            square.append(perm)
            yield from extend([row for row in fitting if not row[1] & mask])
            square.pop()

    yield from extend(rows)


def reference_closed_subsets(square, order):
    """Every subset of 2..order-1 elements closed under the product."""
    for k in range(2, order):
        for subset in itertools.combinations(range(order), k):
            members = set(subset)
            if all(square[a][b] in members for a in subset for b in subset):
                yield subset


def _scope_tables(alg, scope):
    return (alg.table_f,) if scope == "f" else (alg.table_f,) + alg.tables_g


def reference_compatible(alg, block_of, scope):
    n = alg.n
    for table in _scope_tables(alg, scope):
        for block in set(block_of.values()):
            members = [a for a in alg.carrier if block_of[a] is block]
            for other in members[1:]:
                for slot in range(n):
                    for context in itertools.product(alg.carrier, repeat=n - 1):
                        k1 = context[:slot] + (members[0],) + context[slot:]
                        k2 = context[:slot] + (other,) + context[slot:]
                        if block_of[table[k1]] is not block_of[table[k2]]:
                            return False
    return True


def partitions(items):
    """All set partitions of a sequence, each a list of blocks in which
    items keep their order: the first item alone or joined to a block of
    each partition of the rest."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for blocks in partitions(items[1:]):
        yield [[first]] + blocks
        for i, block in enumerate(blocks):
            yield blocks[:i] + [[first] + block] + blocks[i + 1 :]


def reference_congruences(alg, scope):
    out = []
    for blocks in partitions(alg.carrier):
        interned = [tuple(b) for b in blocks]
        block_of = {a: blk for blk in interned for a in blk}
        if reference_compatible(alg, block_of, scope):
            out.append(congruence_from_blocks(alg, interned))
    out.sort(key=lambda c: (len(c.blocks), c.blocks))
    return [c.blocks for c in out]


class ReferenceUnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            x, p[x] = p[x], p[p[x]]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def blocks(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


def reference_generated_congruence(alg, seed_pairs, scope):
    """Union-find over names, iterated over every class, table, slot and
    context until a round merges nothing."""
    uf = ReferenceUnionFind(alg.carrier)
    for a, b in seed_pairs:
        uf.union(a, b)
    changed = True
    while changed:
        changed = False
        roots = {}
        for a in alg.carrier:
            roots.setdefault(uf.find(a), []).append(a)
        for members in roots.values():
            for other in members[1:]:
                for table in _scope_tables(alg, scope):
                    for slot in range(alg.n):
                        for context in itertools.product(alg.carrier, repeat=alg.n - 1):
                            v1 = table[context[:slot] + (members[0],) + context[slot:]]
                            v2 = table[context[:slot] + (other,) + context[slot:]]
                            changed |= uf.union(v1, v2)
    return congruence_from_blocks(alg, uf.blocks()).blocks


def reference_slot_rows(alg, scope):
    """The slot rows looked up entry by entry: one table lookup per slot,
    element and context of the other slots."""
    index = alg._index
    contexts = list(itertools.product(alg.carrier, repeat=alg.n - 1))
    return tuple(
        tuple(
            tuple(index[table[ctx[:slot] + (a,) + ctx[slot:]]] for ctx in contexts)
            for a in alg.carrier
        )
        for table in _scope_tables(alg, scope)
        for slot in range(alg.n)
    )


def draining_closing_merges(alg, scope, parent, pending):
    """The closure that drains `pending` whatever the number of classes."""
    maps = reference_slot_rows(alg, scope)
    while pending:
        a, b = pending.pop()
        for rows in maps:
            for x, y in zip(rows[a], rows[b]):
                if algebras._union(parent, x, y):
                    pending.append((x, y))
    return tuple(algebras._find(parent, a) for a in range(len(parent)))


def draining_generated_congruence(alg, seed_pairs, scope):
    parent = list(range(alg.order))
    pending = []
    for a, b in seed_pairs:
        pair = (alg.index(a), alg.index(b))
        if algebras._union(parent, *pair):
            pending.append(pair)
    return algebras.Congruence(alg.carrier, draining_closing_merges(alg, scope, parent, pending)).blocks


def dense_congruence_lattice(alg, scope):
    """The lattice by draining closures and a frontier search: every
    congruence found is joined with every principal congruence, by merges
    of every index with its label there."""
    m = alg.order
    principal = {}
    for a, b in itertools.combinations(range(m), 2):
        parent = list(range(m))
        algebras._union(parent, a, b)
        principal.setdefault(draining_closing_merges(alg, scope, parent, [(a, b)]), (a, b))
    found = {tuple(range(m))}
    frontier = list(found)
    while frontier:
        labels = frontier.pop()
        for other, (a, b) in principal.items():
            if labels[a] == labels[b]:
                continue
            parent = list(labels)
            for x, y in enumerate(other):
                algebras._union(parent, x, y)
            joined = tuple(algebras._find(parent, x) for x in range(m))
            if joined not in found:
                found.add(joined)
                frontier.append(joined)
    out = [algebras.Congruence(alg.carrier, labels) for labels in found]
    out.sort(key=lambda c: (len(c.blocks), c.blocks))
    return [c.blocks for c in out]


def reference_divisions(n, carrier, table_f):
    """Search every candidate b for each division entry."""
    tables = []
    for i in range(1, n + 1):
        gi = {}
        for args in itertools.product(carrier, repeat=n):
            solutions = [b for b in carrier if table_f[args[: i - 1] + (b,) + args[i:]] == args[i - 1]]
            if len(solutions) != 1:
                raise NotAQuasigroupError("slot %d: %d solutions for %r" % (i, len(solutions), args))
            gi[args] = solutions[0]
        tables.append(gi)
    return tables


# ---------------------------------------------------------------------------
# inputs


def isotope_of_cyclic(order, alpha, beta, gamma, name="iso"):
    """x * y = gamma(alpha(x) + beta(y) mod order)."""
    return algebra_from_function(
        name,
        2,
        "quasigroup",
        [str(i) for i in range(order)],
        lambda x, y: gamma[(alpha[x] + beta[y]) % order],
    )




# ---------------------------------------------------------------------------
# Latin squares and closed subsets


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_latin_squares_match_reference_sequence(order):
    assert list(latin_squares(order)) == list(reference_latin_squares(order))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5])
def test_latin_squares_match_the_row_filter_walk(order):
    # compared square by square, so order 5 holds no list of 161,280 squares
    pairs = itertools.zip_longest(latin_squares(order), row_filter_latin_squares(order))
    assert all(square == expected for square, expected in pairs)  # tuples of row tuples


def test_order_five_squares_are_all_latin_squares_in_order():
    # The reference yields every Latin square once in increasing order, so
    # 161,280 (OEIS A002860) strictly increasing Latin squares are exactly
    # its sequence.
    count = 0
    previous = None
    symbols = set(range(5))
    for square in latin_squares(5):
        assert previous is None or previous < square
        assert all(set(row) == symbols for row in square)
        assert all({row[c] for row in square} == symbols for c in range(5))
        previous = square
        count += 1
    assert count == 161280


def test_subquasigroup_bound_on_every_order_four_square():
    for square, closed in _closed_subsets_along(latin_squares(4), 4):
        assert closed == list(reference_closed_subsets(square, 4))


def test_subquasigroup_bound_on_seeded_order_five_squares():
    rng = random.Random(5)
    squares = list(latin_squares(5))
    found = 0
    for square, closed in _closed_subsets_along(rng.sample(squares, 2000), 5):
        assert closed == list(reference_closed_subsets(square, 5))
        found += bool(closed)
    assert found > 0


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_closed_subsets_match_the_reference_in_any_order(order):
    # no square may see anything left over from the one before, so every
    # square is also tested in a seeded shuffled order, and squares are
    # tested twice in a row
    squares = list(latin_squares(order))
    expected = {square: list(reference_closed_subsets(square, order)) for square in squares}
    shuffled = list(squares)
    random.Random(order).shuffle(shuffled)
    repeated = [square for square in shuffled[:3000] for _ in range(2)]
    for sequence in (squares, shuffled, repeated):
        tested = list(_closed_subsets_along(sequence, order))
        assert [square for square, _ in tested] == sequence
        assert all(closed == expected[square] for square, closed in tested)
    assert sum(map(bool, expected.values())) == {2: 0, 3: 0, 4: 88, 5: 5550}[order]


def test_interleaved_scans_of_two_orders_match_the_reference():
    # each call keeps its own row table, so an order-4 scan and an order-5
    # scan consumed in turn see nothing of each other
    fours = list(latin_squares(4))
    fives = random.Random(45).sample(list(latin_squares(5)), len(fours))
    found = {4: 0, 5: 0}
    for (four, closed4), (five, closed5) in zip(_closed_subsets_along(fours, 4), _closed_subsets_along(fives, 5)):
        assert closed4 == list(reference_closed_subsets(four, 4))
        assert closed5 == list(reference_closed_subsets(five, 5))
        found[4] += bool(closed4)
        found[5] += bool(closed5)
    assert found[4] == 88 and found[5] > 0


def _s3_product(a, b):
    perms = list(itertools.permutations(range(3)))
    return perms.index(tuple(perms[a][perms[b][i]] for i in range(3)))


def _steiner_in_six(a, b):
    # the idempotent order-3 square -(x + y) on {0, 1, 2}, completed by
    # cyclic quadrants; {0, 1, 2} is a subsquare and {0}, {1}, {2} are
    # closed one-element sets
    (p, x), (q, y) = divmod(a, 3), divmod(b, 3)
    if p == q == 0:
        return (-x - y) % 3
    return (x + y) % 3 + (3 if p != q else 0)


FANO_LINES = [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]


def _fano(a, b):
    # the Steiner quasigroup of the Fano plane: each line is a closed 3-subset
    if a == b:
        return a
    line = next(line for line in FANO_LINES if {a, b} <= line)
    return (line - {a, b}).pop()


PLANTED = [
    (6, lambda a, b: (a + b) % 6),  # Z6
    (6, lambda a, b: (a // 3 + b // 3) % 2 * 3 + (a + b) % 3),  # Z2 x Z3
    (6, _s3_product),
    (6, _steiner_in_six),
    (7, _fano),
]


def relabelled_table(order, product, rng):
    """The Cayley table of `product` on {0..order-1} renamed by a seeded
    permutation, which maps closed subsets onto closed subsets."""
    name = list(range(order))
    rng.shuffle(name)
    rows = [[None] * order for _ in range(order)]
    for a, b in itertools.product(range(order), repeat=2):
        rows[name[a]][name[b]] = name[product(a, b)]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("order, count", [(6, 150), (7, 30)])
def test_subquasigroup_bound_on_seeded_order_six_and_seven_squares(order, count):
    # 3-subsets first occur here; most random squares end on a zero mask
    rng = random.Random(order)
    squares = [random_latin_square(order, rng) for _ in range(count)]
    squares += [relabelled_table(m, product, rng) for m, product in PLANTED if m == order for _ in range(4)]
    sizes, empty = [], 0
    for square, closed in _closed_subsets_along(squares, order):
        assert closed == list(reference_closed_subsets(square, order))
        sizes += map(len, closed)
        empty += not closed
    assert 3 in sizes and empty > 0


def reference_scan(max_order):
    """(target f table, source f table, map) of each embedding the CEP scan
    decides, in its order, from the reference squares and subsets."""
    for order in range(2, max_order + 1):
        for square in reference_latin_squares(order):
            for subset in reference_closed_subsets(square, order):
                yield (
                    {(str(a), str(b)): str(square[a][b]) for a in range(order) for b in range(order)},
                    {
                        (str(i), str(j)): str(subset.index(square[a][b]))
                        for i, a in enumerate(subset)
                        for j, b in enumerate(subset)
                    },
                    {str(i): str(a) for i, a in enumerate(subset)},
                )


@pytest.mark.parametrize("max_order, k", [(4, 1), (4, 2), (4, 41), (4, 96), (5, 97), (5, 98), (5, 150)])
def test_scan_stops_at_the_kth_embedding_of_the_reference_scan(monkeypatch, max_order, k):
    decided = []

    def fail_kth(emb, scope="full"):
        decided.append(emb)
        return codescent.CepReport(embedding=emb, scope=scope, verdict=len(decided) != k)

    monkeypatch.setattr(codescent, "check_cep", fail_kth)
    emb, report = search_noncep_monomorphism(max_order)
    assert len(decided) == k and report.verdict is False
    expected = next(itertools.islice(reference_scan(max_order), k - 1, None))
    assert (emb.target.table_f, emb.source.table_f, emb.mapping) == expected


def test_scan_builds_each_source_table_once(monkeypatch):
    names = []

    def counting(square, name):
        names.append(name)
        return quasigroup_from_square(square, name)

    def no_divisions(n, carrier, table_f):
        raise AssertionError("a division table was derived")

    monkeypatch.setattr(codescent, "quasigroup_from_square", counting)
    monkeypatch.setattr(algebras, "derive_divisions", no_divisions)  # the scan reads only f
    stats = {"squares": 590, "targets": 88, "sources": 2, "embeddings": 96}
    assert search_noncep_monomorphism(4) == (None, stats)
    assert sum(1 for _ in reference_scan(4)) == 96
    assert len([name for name in names if name.startswith("S")]) <= 2


def test_scan_builds_no_name_keyed_table(monkeypatch):
    def no_view(alg):
        raise AssertionError("a name-keyed table was built")

    monkeypatch.setattr(FiniteAlgebra, "table_f", property(no_view))  # the scan reads only flat tables
    monkeypatch.setattr(FiniteAlgebra, "tables_g", property(no_view))
    stats = {"squares": 590, "targets": 88, "sources": 2, "embeddings": 96}
    assert search_noncep_monomorphism(4) == (None, stats)


def test_scan_builds_and_resolves_no_name_pair(monkeypatch):
    def no_names(*args, **kwargs):
        raise AssertionError("the decision went through element names")

    monkeypatch.setattr(algebras.Embedding, "__call__", no_names)  # check_cep runs on labels and image indices
    monkeypatch.setattr(codescent, "generated_congruence", no_names)
    stats = {"squares": 590, "targets": 88, "sources": 2, "embeddings": 96}
    assert search_noncep_monomorphism(4) == (None, stats)


def test_scan_computes_each_source_lattice_once(monkeypatch):
    computed = []
    calls = []

    def counting_lattice(alg, scope):
        computed.append((tuple(sorted(alg.table_f.items())), scope))
        return lattice(alg, scope)

    def counting_calls(alg, scope="full"):
        calls.append(scope)
        return enumerate_congruences(alg, scope)

    lattice = algebras._congruence_lattice
    monkeypatch.setattr(algebras, "_congruence_lattice", counting_lattice)
    monkeypatch.setattr(codescent, "enumerate_congruences", counting_calls)
    stats = {"squares": 590, "targets": 88, "sources": 2, "embeddings": 96}
    assert search_noncep_monomorphism(4) == (None, stats)
    assert len(calls) == 96  # still one call per embedding decided
    assert len(set(computed)) == len(computed) <= 2


# ---------------------------------------------------------------------------
# congruences


@pytest.mark.parametrize("scope", ["f", "full"])
def test_enumerated_congruences_are_a_fresh_list_each_call(scope):
    alg = cyclic_loop(6)
    first = enumerate_congruences(alg, scope)
    second = enumerate_congruences(alg, scope)
    assert first == second and first is not second
    expected = list(second)
    first.clear()
    assert second == expected
    second.append(None)
    second.reverse()
    assert enumerate_congruences(alg, scope) == expected


def test_each_scope_enumerates_its_own_lattice(monkeypatch):
    computed = []

    def counting_lattice(alg, scope):
        computed.append(scope)
        return lattice(alg, scope)

    lattice = algebras._congruence_lattice
    monkeypatch.setattr(algebras, "_congruence_lattice", counting_lattice)
    alg = cyclic_loop(4)
    f_lattice = enumerate_congruences(alg, "f")
    full_lattice = enumerate_congruences(alg, "full")
    assert computed == ["f", "full"]
    assert [c.blocks for c in full_lattice] == reference_congruences(alg, "full")
    assert [c.blocks for c in f_lattice] == reference_congruences(alg, "f")
    enumerate_congruences(alg, "f")
    enumerate_congruences(alg, "full")
    assert computed == ["f", "full"]


@pytest.mark.parametrize("scope", ["f", "full"])
@pytest.mark.parametrize("alg", CONGRUENCE_ALGEBRAS, ids=lambda alg: alg.name)
def test_enumerated_congruences_match_reference(alg, scope):
    # a fresh copy, whose lattice no earlier test has computed
    fresh = FiniteAlgebra(alg.name, alg.n, alg.kind, alg.carrier, alg.table_f, identity=alg.identity)
    assert [c.blocks for c in enumerate_congruences(fresh, scope)] == reference_congruences(alg, scope)


def test_reference_partitions_count_and_cover():
    assert [sum(1 for _ in partitions(range(m))) for m in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    for blocks in partitions("abcd"):
        assert sorted(x for b in blocks for x in b) == ["a", "b", "c", "d"]
    assert len({frozenset(map(frozenset, blocks)) for blocks in partitions("abcde")}) == 52


@pytest.mark.parametrize("scope", ["f", "full"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_enumerated_congruences_of_every_small_square_match_reference(order, scope):
    for square in latin_squares(order):
        alg = quasigroup_from_square(square, "Q")
        assert [c.blocks for c in enumerate_congruences(alg, scope)] == reference_congruences(alg, scope), square


def _ternary_loops_and_dihedral_fixtures():
    out = [pytest.param(cyclic_loop(order, n=3), id="Z%d:n=3" % order) for order in range(1, 7)]
    for subgroup in ((0, 2, 4, 6), (0, 2, 5, 7)):
        for n, kind in ((2, "quasigroup"), (2, "loop"), (3, "quasigroup")):
            source, target, _ = klein_in_dihedral8(subgroup, n, kind)
            out.append(pytest.param(source, id="V4=%s:n=%d:%s" % ("".join(map(str, subgroup)), n, kind)))
            if subgroup == (0, 2, 4, 6):  # the same D4 for both subgroups
                out.append(pytest.param(target, id="D4:n=%d:%s" % (n, kind)))
    return out


@pytest.mark.parametrize("scope", ["f", "full"])
@pytest.mark.parametrize("alg", _ternary_loops_and_dihedral_fixtures())
def test_enumerated_congruences_of_ternary_loops_and_dihedral_fixtures_match_reference(alg, scope):
    assert [c.blocks for c in enumerate_congruences(alg, scope)] == reference_congruences(alg, scope)


@pytest.mark.parametrize("scope", ["f", "full"])
@pytest.mark.parametrize("order", range(1, 8))
def test_enumerated_congruences_of_every_cycle_type_match_reference(order, scope):
    # a 1-quasigroup has few principal congruences and many joins of them
    for cycle_type in integer_partitions(order):
        alg = permutation_quasigroup(permutation_from_cycle_type(cycle_type))
        assert [c.blocks for c in enumerate_congruences(alg, scope)] == reference_congruences(alg, scope), cycle_type


@pytest.mark.parametrize("scope", ["f", "full"])
@pytest.mark.parametrize("alg", CONGRUENCE_ALGEBRAS, ids=lambda alg: alg.name)
def test_generated_congruences_match_reference(alg, scope):
    singles = [[pair] for pair in itertools.combinations(alg.carrier, 2)]
    rng = random.Random(alg.name)
    doubles = [rng.sample(list(itertools.combinations(alg.carrier, 2)), 2) for _ in range(10)]
    for seeds in [[]] + singles + doubles:
        expected = reference_generated_congruence(alg, seeds, scope)
        assert generated_congruence(alg, seeds, scope).blocks == expected, seeds


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    order=st.integers(min_value=1, max_value=6),
    scope=st.sampled_from(["f", "full"]),
)
def test_generated_congruence_on_isotopes_of_cyclic_groups(data, order, scope):
    perm = st.permutations(range(order))
    alg = isotope_of_cyclic(order, data.draw(perm), data.draw(perm), data.draw(perm))
    element = st.sampled_from(alg.carrier)
    seeds = data.draw(st.lists(st.tuples(element, element), max_size=3))
    expected = reference_generated_congruence(alg, seeds, scope)
    assert generated_congruence(alg, seeds, scope).blocks == expected


def reference_restrict(cong, emb):
    """The name-keyed pull-back: a label per target name read off the
    blocks, taken through the map; returns the source blocks, source names
    grouped by label in carrier order."""
    label = {x: k for k, block in enumerate(cong.blocks) for x in block}
    groups = {}
    for a in emb.source.carrier:
        groups.setdefault(label[emb(a)], []).append(a)
    return tuple(map(tuple, groups.values()))


def block_pairs(cong):
    """Every pair of names in every block of a congruence."""
    return [pair for block in cong.blocks for pair in itertools.combinations(block, 2)]


def reference_extension(cong, emb):
    """The name-seeded least extension: every pair of a source block taken
    through the map, then closed under f on the target."""
    return generated_congruence(emb.target, [(emb(a), emb(b)) for a, b in block_pairs(cong)], "f")


def assert_canonical(cong):
    labels = cong.labels
    assert all(labels[labels[x]] == labels[x] <= x for x in range(len(labels))), cong


CEP_FIXTURES = cep_fixtures()


@pytest.mark.parametrize("scope", ["f", "full"])
@pytest.mark.parametrize("emb", [emb for _, emb in CEP_FIXTURES], ids=[label for label, _ in CEP_FIXTURES])
def test_restrict_matches_the_name_keyed_reference(emb, scope, monkeypatch):
    # every restriction that check_cep and cep_by_enumeration make: first
    # each witness's extension, then each target congruence
    original, restricted = codescent.restrict, []

    def recording(cong, emb):
        back = original(cong, emb)
        restricted.append((cong, back))
        return back

    monkeypatch.setattr(codescent, "restrict", recording)
    witnesses = codescent.check_cep(emb, scope).witnesses
    codescent.cep_by_enumeration(emb, scope)
    target_congs = enumerate_congruences(emb.target, scope)
    assert restricted == [(ext, back) for _, ext, back in witnesses] + [(c, original(c, emb)) for c in target_congs]
    for cong, back in restricted:
        expected = reference_restrict(cong, emb)
        assert back.blocks == expected
        assert back == congruence_from_blocks(emb.source, expected)
        assert_canonical(cong)
        assert_canonical(back)
    for cong, _, _ in witnesses:
        assert_canonical(cong)


@pytest.mark.parametrize("emb", [emb for _, emb in CEP_FIXTURES], ids=[label for label, _ in CEP_FIXTURES])
def test_image_matches_the_name_lookups(emb):
    assert emb.image == tuple(emb.target.index(emb(a)) for a in emb.source.carrier)


@pytest.mark.parametrize("emb", [emb for _, emb in CEP_FIXTURES], ids=[label for label, _ in CEP_FIXTURES])
def test_extend_matches_the_name_seeded_reference(emb):
    for cong in enumerate_congruences(emb.source, "f"):
        expected = reference_extension(cong, emb)
        extension = extend(cong, emb)
        assert extension.labels == expected.labels, cong
        assert extension.blocks == expected.blocks, cong
        assert_canonical(extension)


# cyclic n-loops and relabelled n-quasigroups with m^n <= 300
KERNEL_SHAPES = [(1, m) for m in (1, 2, 3, 5, 8, 12)]
KERNEL_SHAPES += [(2, m) for m in (1, 2, 3, 4, 5, 6, 8, 12, 17)]
KERNEL_SHAPES += [(3, m) for m in (1, 2, 3, 4, 6)]
KERNEL_CASES = [(n, m, variant) for n, m in KERNEL_SHAPES for variant in ("cyclic", "relabelled", "supplied")]


def kernel_algebra(n, m, variant):
    """The cyclic n-loop of order m, or a seeded isotope of it,
    gamma(alpha_1(x_1) + .. + alpha_n(x_n)), whose elements are listed in a
    shuffled order; "supplied" passes its division tables to the
    constructor."""
    if variant == "cyclic":
        return cyclic_loop(m, n)
    return FiniteAlgebra("Iso%d" % m, n, "quasigroup", *kernel_tables(n, m, variant))


def kernel_tables(n, m, variant):
    """Carrier, f table and division tables (None unless "supplied"), keyed
    by element names, of a kernel case that is not cyclic."""
    rng = random.Random("%d-%d" % (n, m))
    alpha = [rng.sample(range(m), m) for _ in range(n)]
    gamma = rng.sample(range(m), m)
    names = ["q%d" % i for i in range(m)]
    rng.shuffle(names)
    table = {
        tuple(names[x] for x in ix): names[gamma[sum(a[x] for a, x in zip(alpha, ix)) % m]]
        for ix in itertools.product(range(m), repeat=n)
    }
    tables_g = reference_divisions(n, names, table) if variant == "supplied" else None
    return names, table, tables_g


def _kernel_id(case):
    return "n=%d,m=%d,%s" % case


@pytest.mark.parametrize("case", KERNEL_CASES, ids=_kernel_id)
def test_slot_rows_match_the_rows_looked_up_entry_by_entry(case):
    alg = kernel_algebra(*case)
    for scope in ("f", "full"):
        assert algebras._slot_rows(alg, scope) == reference_slot_rows(alg, scope), scope


def test_kernel_cases_list_carriers_out_of_sorted_order():
    variants = set()
    for case in KERNEL_CASES:
        carrier = list(kernel_algebra(*case).carrier)
        if carrier != sorted(carrier):
            variants.add(case[2])
    assert variants == {"cyclic", "relabelled", "supplied"}


@pytest.mark.parametrize("case", KERNEL_CASES, ids=_kernel_id)
def test_generated_congruences_match_the_draining_closure(case):
    alg = kernel_algebra(*case)
    pairs = list(itertools.combinations(alg.carrier, 2))
    rng = random.Random(_kernel_id(case))
    seeds = [[pair] for pair in pairs] + [rng.sample(pairs, min(3, len(pairs))) for _ in range(10)]
    for scope in ("f", "full"):
        for seed in seeds:
            expected = draining_generated_congruence(alg, seed, scope)
            assert generated_congruence(alg, seed, scope).blocks == expected, (scope, seed)


@pytest.mark.parametrize("case", [case for case in KERNEL_CASES if case[1] <= 8], ids=_kernel_id)
def test_enumerated_congruences_match_the_dense_join(case):
    alg = kernel_algebra(*case)
    for scope in ("f", "full"):
        expected = dense_congruence_lattice(alg, scope)
        assert [c.blocks for c in enumerate_congruences(alg, scope)] == expected, scope


@pytest.mark.parametrize("order", range(1, 9))
def test_enumerated_congruences_of_every_cycle_type_match_the_dense_join(order):
    # the largest lattices within the carrier bound: Bell(8) = 4,140 for the identity
    for cycle_type in integer_partitions(order):
        alg = permutation_quasigroup(permutation_from_cycle_type(cycle_type))
        for scope in ("f", "full"):
            expected = dense_congruence_lattice(alg, scope)
            assert [c.blocks for c in enumerate_congruences(alg, scope)] == expected, (cycle_type, scope)


def principal_congruences(alg, scope, pairs):
    return {algebras._closure(alg, scope, [pair]) for pair in pairs}


def assert_principal_congruences_come_from_zero(alg):
    # for n >= 2 every Cg(c, d) is some Cg(0, b): the lattice closes only those pairs
    m = alg.order
    for scope in ("f", "full"):
        every = principal_congruences(alg, scope, itertools.combinations(range(m), 2))
        assert principal_congruences(alg, scope, [(0, b) for b in range(1, m)]) == every, (alg, scope)


@pytest.mark.parametrize("case", [case for case in KERNEL_CASES if case[0] >= 2 and case[1] <= 8], ids=_kernel_id)
def test_principal_congruences_of_the_kernel_cases_come_from_zero(case):
    assert_principal_congruences_come_from_zero(kernel_algebra(*case))


def test_principal_congruences_of_every_order_four_square_come_from_zero():
    squares = list(latin_squares(4))
    assert len(squares) == 576
    for square in squares:
        assert_principal_congruences_come_from_zero(quasigroup_from_square(square, "Q"))


def test_principal_congruences_of_seeded_order_five_squares_come_from_zero():
    rng = random.Random(5)
    for _ in range(200):
        assert_principal_congruences_come_from_zero(quasigroup_from_square(random_latin_square(5, rng), "Q"))


@pytest.mark.parametrize("alg", _ternary_loops_and_dihedral_fixtures())
def test_principal_congruences_of_ternary_loops_and_dihedral_fixtures_come_from_zero(alg):
    assert_principal_congruences_come_from_zero(alg)


@pytest.mark.parametrize("scope", ["f", "full"])
def test_principal_congruences_of_a_unary_quasigroup_need_every_pair(scope):
    # on the identity permutation of order 3, Cg(1, 2) = {0} | {1,2} is no Cg(0, b)
    alg = permutation_quasigroup([0, 1, 2])
    every = principal_congruences(alg, scope, itertools.combinations(range(3), 2))
    from_zero = principal_congruences(alg, scope, [(0, 1), (0, 2)])
    assert every - from_zero == {(0, 1, 1)}


# ---------------------------------------------------------------------------
# divisions


def _tables(n, carrier, func, changed=None):
    table = {args: func(*args) for args in itertools.product(carrier, repeat=n)}
    table.update(changed or {})
    return table


def _division_cases():
    c2, c3 = ("a", "b"), ("0", "1", "2")
    z3 = lambda *args: str(sum(map(int, args)) % 3)
    ok = [
        (1, c3, _tables(1, c3, lambda x: str((int(x) + 1) % 3))),
        (2, c3, _tables(2, c3, z3)),
        (3, c3, _tables(3, c3, z3)),
    ]
    bad = [
        # n = 1: two elements share an image; the first failure is
        # ambiguous in one case and missing in the other
        (1, c3, _tables(1, c3, lambda x: "0" if x == "2" else x)),
        (1, c3, _tables(1, c3, lambda x: "1" if x == "0" else x)),
        # n = 2: f constant, so the first failure is a missing solution
        (2, c2, _tables(2, c2, lambda x, y: "b")),
        # n = 2: every row constant; slot 1 solves, slot 2 is ambiguous or missing
        (2, c2, _tables(2, c2, lambda x, y: x)),
        # n = 2: every column constant; slot 1 already fails
        (2, c2, _tables(2, c2, lambda x, y: y)),
        # n = 3: one entry of Z3 changed, so a fibre in every slot breaks
        (3, c3, _tables(3, c3, z3, {("1", "2", "0"): "1"})),
        # n = 3: f ignores its last argument
        (3, c3, _tables(3, c3, lambda x, y, z: str((int(x) + int(y)) % 3))),
    ]
    return ok, bad


@pytest.mark.parametrize("case", _division_cases()[0], ids=lambda case: "n=%d" % case[0])
def test_divisions_match_reference(case):
    n, carrier, table = case
    expected = [list(t.items()) for t in reference_divisions(n, carrier, table)]
    derived = derive_divisions(n, carrier, flat_table(n, carrier, table))
    assert all(type(flat) is tuple for flat in derived)
    assert [list(named_table(n, carrier, flat).items()) for flat in derived] == expected
    # the constructor keeps f only; its division view is derived on first read
    alg = FiniteAlgebra("A", n, "quasigroup", carrier, table, tables_g=None)
    assert [list(t.items()) for t in alg.tables_g] == expected


@pytest.mark.parametrize("case", _division_cases()[1], ids=lambda case: "n=%d" % case[0])
def test_division_errors_match_reference(case):
    n, carrier, table = case
    with pytest.raises(NotAQuasigroupError) as expected:
        reference_divisions(n, carrier, table)
    with pytest.raises(NotAQuasigroupError) as got:
        derive_divisions(n, carrier, flat_table(n, carrier, table))
    assert str(got.value) == str(expected.value)
    # the constructor checks f's one-slot rows and raises the same message, naming the algebra
    with pytest.raises(NotAQuasigroupError) as built:
        FiniteAlgebra("A", n, "quasigroup", carrier, table, tables_g=None)
    assert str(built.value) == "A is not a valid quasigroup: %s" % expected.value


# ---------------------------------------------------------------------------
# amalgam reduction: the separate engine with collapse steps it replaced


def reference_leaf_factors(d, t):
    """Factors containing every element leaf of t (empty when mixed)."""
    if isinstance(t, Elem):
        return d.owns(t.name)
    acc = None
    for a in t.args:
        s = reference_leaf_factors(d, a)
        acc = s if acc is None else acc & s
        if not acc:
            return frozenset()
    return acc if acc is not None else frozenset()


def reference_rules_by_root(d):
    by_root = {}
    for r in generate_trs(VarietySpec(d.kind, d.n, complete=True)).rules:
        lhs, rhs = _resolve_e(r.lhs, d.identity_leaf), _resolve_e(r.rhs, d.identity_leaf)
        by_root.setdefault(lhs.symbol, []).append((lhs, rhs, r.label))
    return by_root


def reference_steps_at(d, by_root, t, pos, sub):
    """Steps available at one position, collapse before rule steps."""
    out = []
    if isinstance(sub, App):
        eligible = reference_leaf_factors(d, sub)
        if eligible:
            factor = d.factors[min(eligible)]
            out.append((replace_at(t, pos, Elem(factor.eval_term(sub))), "collapse[%s]" % sub, pos))
        for lhs, rhs, label in by_root.get(sub.symbol, ()):
            bindings = match(lhs, sub)
            if bindings is not None:
                out.append((replace_at(t, pos, apply_substitution(bindings, rhs)), label, pos))
    return out


def reference_amalgam_steps(d, by_root, t):
    return [step for pos, sub in positions(t) for step in reference_steps_at(d, by_root, t, pos, sub)]


def reference_normalize(d, by_root, t, strategy, seed=0):
    """(normal form, trace of (step label, position))"""
    rng = random.Random(seed)
    current = t
    trace = []
    while True:
        if strategy == "random":
            options = reference_amalgam_steps(d, by_root, current)
            step = rng.choice(sorted(options, key=lambda s: (s[2], s[1], str(s[0])))) if options else None
        else:
            order = reference_positions_postorder if strategy == "leftmost-innermost" else positions
            step = None
            for pos, sub in order(current):
                found = reference_steps_at(d, by_root, current, pos, sub)
                if found:
                    step = found[0]
                    break
        if step is None:
            return current, tuple(trace)
        current = step[0]
        trace.append(step[1:])


def reference_reduct_graph(d, by_root, t):
    seen = {t}
    frontier = [t]
    while frontier:
        fresh = []
        for u in frontier:
            for v, _label, _pos in reference_amalgam_steps(d, by_root, u):
                if v not in seen:
                    seen.add(v)
                    fresh.append(v)
        frontier = fresh
    return seen


def irreducible_reducts(d, t):
    return {u for u in reduct_graph(d, t) if not rewrite_steps(d, u)}


def reference_element_terms(d, max_size):
    by_size = {1: [Elem(a) for a in d.carrier_union]}
    symbols = [s for s, k in d.signature.symbols.items() if k == d.n]
    for size in range(2, max_size + 1):
        splits = [c for c in itertools.product(range(1, size), repeat=d.n) if sum(c) == size - 1]
        by_size[size] = [
            App(symbol, args)
            for symbol in symbols
            for split in splits
            if all(part in by_size for part in split)
            for args in itertools.product(*(by_size[part] for part in split))
        ]
    return [t for size in range(1, max_size + 1) for t in by_size[size]]


def _trivial(n, kind):
    return algebra_from_function("T", n, kind, ["0"], lambda *ix: 0, identity="0" if kind == "loop" else None)


AMALGAM_CASES = {
    # name: (diagram builder, largest term size); a ternary application
    # has size >= 4, so size <= 3 would hold leaves only
    "Z3*Z3/T": (lambda: build_amalgam(_trivial(2, "loop"), [cyclic_loop(3, name="Z3a"), cyclic_loop(3, name="Z3b")], [{"0": "0"}] * 2), 5),
    "Z4*Z4/Z2": (lambda: build_amalgam(cyclic_loop(2), [cyclic_loop(4, name="Z4a"), cyclic_loop(4, name="Z4b")], [{"0": "0", "1": "2"}] * 2), 5),
    "St3*St3/S1": (lambda: build_amalgam(_trivial(2, "quasigroup"), [steiner3("Sta"), steiner3("Stb")], [{"0": "0"}] * 2), 5),
    "Z3*Z3/T:n=3": (lambda: build_amalgam(_trivial(3, "loop"), [cyclic_loop(3, 3, "Z3a"), cyclic_loop(3, 3, "Z3b")], [{"0": "0"}] * 2), 4),
}


@pytest.mark.parametrize("name", sorted(AMALGAM_CASES))
def test_amalgam_reduction_matches_reference(name):
    build, max_size = AMALGAM_CASES[name]
    d = build()
    by_root = reference_rules_by_root(d)
    terms = element_terms(d, max_size)
    assert terms == reference_element_terms(d, max_size)
    for t in terms:
        reference = reference_reduct_graph(d, by_root, t)
        assert reduct_graph(d, t) == reference
        assert irreducible_reducts(d, t) == {u for u in reference if not reference_amalgam_steps(d, by_root, u)}
        # Ground rules collapse only f(a1..an) with element arguments; a
        # pure subterm with an application argument reaches the same
        # element by a chain of such steps, innermost first.
        reference_steps = set(reference_amalgam_steps(d, by_root, t))
        steps = rewrite_steps(d, t)
        assert steps <= reference_steps
        assert reference_steps - steps == {
            step
            for step in reference_steps
            if step[1].startswith("collapse[") and any(isinstance(a, App) for a in subterm_at(t, step[2]).args)
        }
        for strategy, seed in [("leftmost-innermost", 0), ("leftmost-outermost", 0)] + [("random", k) for k in range(5)]:
            expected = reference_normalize(d, by_root, t, strategy, seed)
            got = normalize(d, t, strategy, seed)
            if strategy == "leftmost-innermost":
                assert got == expected  # the whole path: innermost takes the same steps
            assert got[0] == expected[0]
            assert normalize_element(d, t, strategy, seed).normal_form == expected[0]


# ---------------------------------------------------------------------------
# unique normal forms: the term enumeration and random sampling that the
# critical-pair decision replaced


def reference_check_unique_normal_forms(d, depth=5, trials=200, seed=0, rand_depth=4):
    """Every term of size <= depth has exactly one irreducible reduct, and
    the three strategies agree on random terms: None, or (mode, term,
    normal forms)."""
    for t in element_terms(d, depth):
        irreducible = irreducible_reducts(d, t)
        if len(irreducible) != 1:
            return "reduct-graph", t, tuple(sorted(irreducible, key=str))
    rng = random.Random(seed)
    for k in range(trials):
        t = random_element_term(d, rng, rand_depth)
        results = {
            normalize_element(d, t, "leftmost-innermost").normal_form,
            normalize_element(d, t, "leftmost-outermost").normal_form,
            normalize_element(d, t, "random", seed=seed + k).normal_form,
        }
        if len(results) != 1:
            return "strategy", t, tuple(sorted(results, key=str))
    return None


UNF_CASES = dict(
    AMALGAM_CASES,
    **{"Z5*Z5/T": (lambda: build_amalgam(_trivial(2, "loop"), [cyclic_loop(5, name="Z5a"), cyclic_loop(5, name="Z5b")], [{"0": "0"}] * 2), 5)},
)


@pytest.mark.parametrize("name", sorted(UNF_CASES))
def test_unique_normal_forms_match_reference(name):
    d = UNF_CASES[name][0]()
    assert check_unique_normal_forms(d) is None
    assert reference_check_unique_normal_forms(d) is None


def table_value_mutants(d, count, seed):
    """`count` copies of the diagram, each with one ground rule sent to a
    wrong element of the same factor."""
    rng = random.Random(seed)
    ground = [i for i, r in enumerate(d.rules) if r.label.startswith("collapse[")]
    mutants = []
    for i in rng.sample(ground, count):
        rule = d.rules[i]
        factor = next(f for f in d.factors if all(a.name in f.carrier for a in rule.lhs.args))
        wrong = rng.choice([a for a in factor.carrier if Elem(a) != rule.rhs])
        rules = list(d.rules)
        rules[i] = Rule(rule.lhs, Elem(wrong), rule.label)
        mutants.append(diagram_with_rules(d, rules))
    return mutants


TABLE_MUTANT_CASES = ["St3*St3/S1", "Z3*Z3/T", "Z4*Z4/Z2", "Z5*Z5/T"]


@pytest.mark.parametrize("name", TABLE_MUTANT_CASES)
def test_table_value_mutants_are_flagged(name):
    for mutant in table_value_mutants(UNF_CASES[name][0](), 3, seed=name):
        bad = check_unique_normal_forms(mutant)
        assert bad is not None and str(bad).startswith("critical-pair: %s has normal forms {" % bad.term)
        assert all(not isinstance(sub, Var) for _pos, sub in positions(bad.term))
        first, second = bad.normal_forms
        assert first != second
        assert not rewrite_steps(mutant, first) and not rewrite_steps(mutant, second)
        assert {first, second} <= irreducible_reducts(mutant, bad.term)
        assert reference_check_unique_normal_forms(mutant) is not None


# ---------------------------------------------------------------------------
# Trs rule selection: the root-symbol index it replaced


def reference_rule_steps(by_root, t):
    """Every rule with the root symbol of t, tried by `match` in rule order."""
    out = []
    for lhs, rhs, label in by_root.get(t.symbol, ()):
        bindings = match(lhs, t)
        if bindings is not None:
            out.append((apply_substitution(bindings, rhs), label, ()))
    return out


class RootIndexedTrs:
    """A Trs as a reduction system whose rules are selected by root only."""

    def __init__(self, trs):
        self.terminates = trs.terminates
        self.collapsing = frozenset(r.label for r in trs.rules if isinstance(r.rhs, Var))
        self.by_root = {}
        for r in trs.rules:
            self.by_root.setdefault(r.lhs.symbol, []).append((r.lhs, r.rhs, r.label))

    def root_steps(self, t):
        return reference_rule_steps(self.by_root, t)


# nested, non-linear and constant-argument left sides, all size-decreasing
HANDMADE_TRS = """
sig f/2 h/2 u/1 c/0 d/0
rule nested: f(u(u(x)),y) -> y
rule nonlinear: h(x,x) -> x
rule nonlinear-below: f(x,h(y,y)) -> f(x,y)
rule constant: f(c,x) -> x
rule constants: h(c,d) -> d
rule mixed: h(u(x),c) -> x
rule deep: u(h(x,u(c))) -> x
rule constant-right: f(x,d) -> u(x)
"""


def check_rule_selection(trs, max_size):
    """Same steps, normal forms and traces as the root-only selection for
    every term of size <= max_size over three variables."""
    reference = RootIndexedTrs(trs)
    assert trs.terminates
    for t in enumerate_terms(trs.signature, max_size, num_vars=3):
        assert rewrite_steps(trs, t) == rewrite_steps(reference, t)
        for strategy, seed in [("leftmost-innermost", 0), ("leftmost-outermost", 0)] + [("random", k) for k in range(5)]:
            assert normalize(trs, t, strategy, seed) == normalize(reference, t, strategy, seed)


@pytest.mark.parametrize("complete", [False, True], ids=["base", "complete"])
@pytest.mark.parametrize("kind", ["quasigroup", "loop"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_variety_rule_selection_matches_reference(n, kind, complete):
    # a ternary application has size >= 4, so size <= 5 adds nothing over 4
    check_rule_selection(generate_trs(VarietySpec(kind, n, complete)), 4 if n == 3 else 5)


def test_handmade_rule_selection_matches_reference():
    check_rule_selection(parse_trs(HANDMADE_TRS), 5)


# ---------------------------------------------------------------------------
# critical pairs: the loop over every ordered rule pair that the
# argument-head filter replaced


def reference_critical_pairs(trs):
    """Every ordered rule pair renamed apart, with `reference_unify` tried
    at every application position of the first rule's left side; the
    renamings come from the recursive variable walk."""
    out = []
    for rule1 in trs.rules:
        for rule2 in trs.rules:
            renaming = reference_rename_apart((rule1.lhs, rule1.rhs), (rule2.lhs, rule2.rhs))
            l2 = apply_substitution(renaming, rule2.lhs)
            r2 = apply_substitution(renaming, rule2.rhs)
            for pos, sub in positions(rule1.lhs):
                if not isinstance(sub, App):
                    continue
                sigma = reference_unify(sub, l2)
                if sigma is None:
                    continue
                peak = apply_substitution(sigma, rule1.lhs)
                left = apply_substitution(sigma, rule1.rhs)
                right = replace_at(peak, pos, apply_substitution(sigma, r2))
                canon = reference_canonical_renaming((peak, left, right))
                left_c = apply_substitution(canon, left)
                right_c = apply_substitution(canon, right)
                out.append(
                    CriticalPair(
                        left=left_c,
                        right=right_c,
                        peak=apply_substitution(canon, peak),
                        rule1=rule1.label,
                        rule2=rule2.label,
                        position=pos,
                        mgu=tuple(sorted(sigma.items())),
                        trivial=left_c == right_c,
                    )
                )
    out.sort(key=reference_pair_sort_key)
    return tuple(out)


def reference_pair_sort_key(cp):
    """The key `critical_pairs` sorted by before: labels and position, then
    both sides printed."""
    return cp.rule1, cp.rule2, cp.position, str(cp.left), str(cp.right)


def _arg_head(t):
    return t.symbol if isinstance(t, App) else (t if isinstance(t, Elem) else None)


def clash(s, t):
    """Whether two applications differ in root symbol or arity, or in the
    head of an argument where neither has a variable: then no unifier."""
    return (s.symbol, len(s.args)) != (t.symbol, len(t.args)) or any(
        a is not None and b is not None and a != b
        for a, b in zip(map(_arg_head, s.args), map(_arg_head, t.args))
    )


def spied_critical_pairs(trs):
    """`critical_pairs` with every `unify` call it makes recorded:
    (pairs, [(s, t)])."""
    calls = []

    def spy(s, t):
        calls.append((s, t))
        return unify(s, t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewriting, "unify", spy)
        return critical_pairs(trs), calls


@pytest.mark.parametrize("complete", [False, True], ids=["base", "complete"])
@pytest.mark.parametrize("kind", ["quasigroup", "loop"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_variety_critical_pairs_match_reference(n, kind, complete):
    trs = generate_trs(VarietySpec(kind, n, complete))
    pairs = critical_pairs(trs)
    assert pairs == reference_critical_pairs(trs)
    assert all(variables(cp.left, cp.right) <= variables(cp.peak) for cp in pairs)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["quasigroup", "loop"])
def test_fork_rename_and_shuffle_mutant_critical_pairs_match_reference(kind, n):
    for mutant in confluence_mutants(generate_trs(VarietySpec(kind, n, True)), 8, seed=10 * n, label_prefix="m"):
        assert critical_pairs(mutant) == reference_critical_pairs(mutant)


@pytest.mark.parametrize("name", sorted(UNF_CASES))
def test_amalgam_critical_pairs_match_reference(name):
    d = UNF_CASES[name][0]()
    mutants = table_value_mutants(d, 3, seed=name) if name in TABLE_MUTANT_CASES else []
    for system in [d] + mutants:
        assert critical_pairs(system) == reference_critical_pairs(system)


def test_handmade_critical_pairs_match_reference():
    trs = parse_trs(HANDMADE_TRS)
    assert critical_pairs(trs) == reference_critical_pairs(trs)


@pytest.mark.parametrize(
    "build", [lambda: complete_loop(3), AMALGAM_CASES["Z4*Z4/Z2"][0]], ids=["complete_loop(3)", "Z4*Z4/Z2"]
)
def test_critical_pairs_never_unify_sides_that_clash(build):
    trs = build()
    pairs, calls = spied_critical_pairs(trs)
    assert pairs == reference_critical_pairs(trs)
    assert len(calls) >= len(pairs)
    assert [(str(s), str(t)) for s, t in calls if clash(s, t)] == []


RANDOM_RULE_SIGNATURE = Signature({"f": 2, "h": 2, "u": 1, "t": 3, "c": 0, "d": 0})

# v1 is also the first fresh name of rename_apart
RULE_LEAVES = [Var("x"), Var("y"), Var("v1"), Elem("a"), Elem("b"), App("c"), App("d")]


def _applications(args):
    symbols = sorted(s for s, k in RANDOM_RULE_SIGNATURE.symbols.items() if k)
    return st.sampled_from(symbols).flatmap(
        lambda s: st.tuples(*[args] * RANDOM_RULE_SIGNATURE.arity(s)).map(lambda a: App(s, a))
    )


@st.composite
def random_rule_sets(draw):
    """One to five rules over variables shared between rules, element
    leaves, constants and nested applications; a right side is a subterm
    of its left side, and left sides may repeat a variable."""
    arguments = st.recursive(st.sampled_from(RULE_LEAVES), _applications, max_leaves=4)
    rules = []
    for k in range(draw(st.integers(1, 5))):
        lhs = draw(_applications(arguments) | st.sampled_from([App("c"), App("d")]))
        rhs = draw(st.sampled_from([sub for _pos, sub in positions(lhs)]))
        rules.append(Rule(lhs, rhs, "r%d" % k))
    return Trs(RANDOM_RULE_SIGNATURE, rules)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(trs=random_rule_sets())
def test_critical_pairs_of_random_rule_sets_match_reference(trs):
    pairs, calls = spied_critical_pairs(trs)
    assert pairs == reference_critical_pairs(trs)
    # what naming a pair through its peak alone rests on
    assert all(variables(cp.left, cp.right) <= variables(cp.peak) for cp in pairs)
    assert not any(clash(s, t) for s, t in calls)


# ---------------------------------------------------------------------------
# the rewriting core: the two-branch `unify`, the leftmost loop of
# `normalize` and the two rule filters that one copy each replaced


def reference_unify(s, t):
    """`unify` before the triangular bindings: every binding is applied to
    both sides of each popped pair and to every earlier binding as soon as
    it is made; a variable on the right has its own, mirrored branch."""
    sub = {}
    work = [(s, t)]
    while work:
        a, b = work.pop()
        a = apply_substitution(sub, a)
        b = apply_substitution(sub, b)
        if a == b:
            continue
        if isinstance(a, Var):
            if a.name in variables(b):
                return None
            one = {a.name: b}
            for k in sub:
                sub[k] = apply_substitution(one, sub[k])
            sub[a.name] = b
        elif isinstance(b, Var):
            if b.name in variables(a):
                return None
            one = {b.name: a}
            for k in sub:
                sub[k] = apply_substitution(one, sub[k])
            sub[b.name] = a
        elif isinstance(a, App) and isinstance(b, App) and a.symbol == b.symbol and len(a.args) == len(b.args):
            work.extend(zip(a.args, b.args))
        else:
            return None
    return sub


# few variables shared between the sides and often one side an instance
# of the other, so that pairs often bind one variable on both sides, fail
# the occurs check, or bind variables whose values hold other bound ones
UNIFY_VARIABLES = ["x", "y", "z", "w"]
UNIFY_LEAVES = [Var(name) for name in UNIFY_VARIABLES] + [Elem("a"), Elem("b"), App("c"), App("d")]
unify_terms = st.recursive(st.sampled_from(UNIFY_LEAVES), _applications, max_leaves=8)
X, Y, Z = Var("x"), Var("y"), Var("z")


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    s=unify_terms,
    t=unify_terms,
    sigma=st.dictionaries(st.sampled_from(UNIFY_VARIABLES), unify_terms, max_size=3),
    instance=st.booleans(),
)
@example(s=X, t=Y, sigma={}, instance=False)
@example(s=X, t=App("u", (X,)), sigma={}, instance=False)
@example(s=App("f", (Y, X)), t=App("f", (X, App("u", (Y,)))), sigma={}, instance=False)
@example(s=App("f", (X, Elem("a"))), t=App("f", (Elem("a"), X)), sigma={}, instance=False)
@example(s=App("f", (X, Elem("a"))), t=App("f", (Elem("b"), X)), sigma={}, instance=False)
@example(s=App("t", (X, Y, Z)), t=App("t", (Y, Z, App("c"))), sigma={}, instance=False)
# x -> y -> z -> c, bound in that order
@example(s=App("t", (Z, Y, X)), t=App("t", (App("c"), Z, Y)), sigma={}, instance=False)
# x -> y, then y -> c: x walks two steps to c, which clashes with d
@example(s=App("t", (X, Y, X)), t=App("t", (App("d"), App("c"), Y)), sigma={}, instance=False)
# x -> u(y) bound before y -> c, and after it
@example(s=App("f", (Y, X)), t=App("f", (App("c"), App("u", (Y,)))), sigma={}, instance=False)
@example(s=App("f", (X, Y)), t=App("f", (App("u", (Y,)), App("c"))), sigma={}, instance=False)
# x against y, bound to u(x): an occurs-check failure through a binding
@example(s=App("f", (X, Y)), t=App("f", (Y, App("u", (X,)))), sigma={}, instance=False)
# x bound to b, then met with a: an Elem clash through a binding
@example(s=App("f", (X, X)), t=App("f", (Elem("a"), Elem("b"))), sigma={}, instance=False)
def test_unify_matches_reference(s, t, sigma, instance):
    if instance:
        t = apply_substitution(sigma, s)
    for a, b in ((s, t), (t, s)):
        got, expected = unify(a, b), reference_unify(a, b)
        assert got == expected
        if got is not None:
            assert list(got.items()) == list(expected.items())
            assert apply_substitution(got, a) == apply_substitution(got, b)


def reference_leftmost(system, t, strategy):
    """(normal form, trace): the first step at the first position of the
    walk that has one, found by its own loop over positions."""
    order = reference_positions_postorder if strategy == "leftmost-innermost" else positions
    trace = []
    current = t
    while True:
        step = None
        for pos, sub in order(current):
            if isinstance(sub, App):
                steps = reference_position_steps(system, current, pos, sub)
                if steps:
                    step = steps[0]
                    break
        if step is None:
            return current, tuple(trace)
        current, label, pos = step
        trace.append((label, pos))


def check_leftmost(system, terms):
    for t in terms:
        for strategy in ("leftmost-innermost", "leftmost-outermost"):
            assert normalize(system, t, strategy) == reference_leftmost(system, t, strategy), (strategy, str(t))


# the complete systems for n = 1..3, each followed by eight seeded mutants
LEFTMOST_SYSTEMS = [
    system
    for kind in ("quasigroup", "loop")
    for n in (1, 2, 3)
    for trs in [generate_trs(VarietySpec(kind, n, True))]
    for system in [trs] + confluence_mutants(trs, 8, seed=10 * n, label_prefix="m")
]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(LEFTMOST_SYSTEMS).flatmap(lambda trs: st.tuples(st.just(trs), redex_terms(trs))))
def test_leftmost_normal_forms_and_traces_match_reference(case):
    system, t = case
    check_leftmost(system, [t])


@pytest.mark.parametrize("name", sorted(AMALGAM_CASES))
def test_amalgam_leftmost_normal_forms_and_traces_match_reference(name):
    build, max_size = AMALGAM_CASES[name]
    d = build()
    check_leftmost(d, element_terms(d, max_size))


class ReferenceRuleIndex(dict):
    """Match candidates filled per key by one predicate, and unify
    candidates rebuilt on every call by another, in no set order."""

    def __init__(self, rules):
        super().__init__()
        self.exact = {}
        self.general = {}
        for i, rule in enumerate(rules):
            heads = tuple(map(_arg_head, rule.lhs.args))
            if None not in heads:
                self.exact.setdefault((rule.lhs.symbol, *heads), []).append((i, rule))
                continue
            fixed = tuple(k for k, h in enumerate(heads, start=1) if h is not None)
            entry = (i, len(heads) + 1, fixed, tuple(heads[k - 1] for k in fixed), rule)
            self.general.setdefault(rule.lhs.symbol, []).append(entry)

    def __missing__(self, key):
        found = [
            (i, rule)
            for i, length, fixed, heads, rule in self.general.get(key[0], ())
            if len(key) == length and tuple(map(key.__getitem__, fixed)) == heads
        ]
        exact = self.exact.get(key)
        if exact:
            found = sorted(found + exact)
        self[key] = found = [rule for _i, rule in found]
        return found

    def overlapping(self, key):
        if None not in key:
            return self[key]
        found = [
            rule
            for _i, length, fixed, heads, rule in self.general.get(key[0], ())
            if len(key) == length and all(key[k] in (None, h) for k, h in zip(fixed, heads))
        ]
        for other, entries in self.exact.items():
            if len(other) == len(key) and all(a is None or a == b for a, b in zip(key, other)):
                found += [rule for _i, rule in entries]
        return found


def _index_keys(signature, heads):
    for symbol, arity in signature.symbols.items():
        for key_heads in itertools.product(heads, repeat=arity):
            yield (symbol,) + key_heads


def _variety_case(kind, n, complete):
    trs = generate_trs(VarietySpec(kind, n, complete))
    return trs.rules, _index_keys(trs.signature, [None] + list(trs.signature.symbols))


def _two_arity_case():
    """One symbol with two arities, element and application arguments."""
    a, b, x, y, z = Elem("a"), Elem("b"), Var("x"), Var("y"), Var("z")
    rules = [
        Rule(App("f", (x, y)), x, "two"),
        Rule(App("f", (a, y)), y, "two-a"),
        Rule(App("f", (App("u", (x,)), y)), y, "two-u"),
        Rule(App("f", (a, b)), a, "ground-two"),
        Rule(App("f", (x, y, z)), x, "three"),
        Rule(App("f", (a, b, a)), a, "ground-three"),
    ]
    heads = [None, a, b, "u"]
    return rules, [("f",) + key for arity in (1, 2, 3, 4) for key in itertools.product(heads, repeat=arity)]


def _nonlinear_case():
    rules = [Rule(App("g1", (Var("x"), Var("x"))), Var("x"), "idem")]
    return rules, _index_keys(Signature({"g1": 2}), [None, Elem("a"), Elem("b")])


def _amalgam_case():
    d = AMALGAM_CASES["Z4*Z4/Z2"][0]()
    return d.rules, _index_keys(d.signature, [None, "e"] + [Elem(a) for a in d.carrier_union])


def _sampled_keys(rules, heads, seed, count=300):
    """The key of every application in a left side, then `count` seeded
    keys, each a left side's key with every argument head redrawn from
    heads with probability 1/2: all keys are too many at these arities."""
    keys = [
        (sub.symbol, *map(_arg_head, sub.args))
        for rule in rules
        for _pos, sub in positions(rule.lhs)
        if isinstance(sub, App)
    ]
    rng = random.Random(seed)
    for key in rng.choices(keys, k=count):
        keys.append((key[0], *(rng.choice(heads) if rng.random() < 0.5 else h for h in key[1:])))
    return keys


def _large_variety_case(kind, n):
    trs = generate_trs(VarietySpec(kind, n, True))
    return trs.rules, _sampled_keys(trs.rules, [None] + list(trs.signature.symbols), seed="%s%d" % (kind, n))


def _diagram_heads(d):
    return [None] + list(d.signature.symbols) + [Elem(a) for a in d.carrier_union]


def _sampled_diagram_case(name):
    d = UNF_CASES[name][0]()
    return d.rules, _sampled_keys(d.rules, _diagram_heads(d), seed=name)


def _mutant_case(name, k):
    d = table_value_mutants(UNF_CASES[name][0](), 3, seed=name)[k]
    return d.rules, _sampled_keys(d.rules, _diagram_heads(d), seed="%s-%d" % (name, k))


# the systems whose rule selection TestRuleIndex in tests/test_rewriting.py
# checks, then systems of arity up to 20 and amalgams with a wrong table value
INDEX_CASES = {
    "bq2": lambda: _variety_case("quasigroup", 2, False),
    "cq2": lambda: _variety_case("quasigroup", 2, True),
    "bl2": lambda: _variety_case("loop", 2, False),
    "cl2": lambda: _variety_case("loop", 2, True),
    "cl3": lambda: _variety_case("loop", 3, True),
    "two-arities": _two_arity_case,
    "nonlinear": _nonlinear_case,
    "Z4*Z4/Z2": _amalgam_case,
    "cq8": lambda: _large_variety_case("quasigroup", 8),
    "cq20": lambda: _large_variety_case("quasigroup", 20),
    "cl6": lambda: _large_variety_case("loop", 6),
    "Z5*Z5/T": lambda: _sampled_diagram_case("Z5*Z5/T"),
    **{
        "%s-mutant%d" % (name, k): (lambda name=name, k=k: _mutant_case(name, k))
        for name in TABLE_MUTANT_CASES
        for k in range(3)
    },
}


@pytest.mark.parametrize("name", list(INDEX_CASES))
def test_rule_index_lists_match_reference_filters_in_rule_order(name):
    rules, keys = INDEX_CASES[name]()
    index, reference = _RuleIndex(rules), ReferenceRuleIndex(rules)
    number = {rule.label: i for i, rule in enumerate(rules)}
    for key in keys:
        assert index[key] == reference[key], key
        expected = sorted(reference.overlapping(key), key=lambda rule: number[rule.label])
        assert index.overlapping(key) == expected, key


@pytest.mark.parametrize("name", list(INDEX_CASES))
def test_unknown_symbol_or_arity_selects_no_rule(name):
    rules, _keys = INDEX_CASES[name]()
    index = _RuleIndex(rules)
    roots = {(rule.lhs.symbol, len(rule.lhs.args)) for rule in rules}
    longest = max(arity for _symbol, arity in roots)
    unknown = [("no-such-symbol", arity) for arity in (0, 1, 2)] + [
        (symbol, arity) for symbol, _ in roots for arity in range(longest + 2) if (symbol, arity) not in roots
    ]
    heads = [_arg_head(arg) for rule in rules for arg in rule.lhs.args]
    some_head = next((head for head in heads if head is not None), Elem("a"))  # one the rules have, if any
    for symbol, arity in unknown:
        for key in [(symbol,) + (None,) * arity, (symbol,) + (some_head,) * arity]:
            assert index[key] == [] and index.overlapping(key) == [], key


def _index_system(rules):
    """The parts of a system that `critical_pairs` reads; the rules of
    "two-arities" have no Signature, and no case has a symbol named v<k>."""
    return types.SimpleNamespace(rules=tuple(rules), _index=_RuleIndex(rules), signature=())


@pytest.mark.parametrize(
    "system",
    [pytest.param(lambda name=name: _index_system(INDEX_CASES[name]()[0]), id=name) for name in INDEX_CASES]
    + [pytest.param(UNF_CASES[name][0], id=name) for name in sorted(UNF_CASES)],
)
def test_critical_pairs_are_one_per_rule_pair_and_position(system):
    # so sorting by (rule1, rule2, position) never ties
    pairs = critical_pairs(system())
    assert len({(cp.rule1, cp.rule2, cp.position) for cp in pairs}) == len(pairs)


# ---------------------------------------------------------------------------
# the term enumerator: one generator over a variable pool, yielding one
# term per renaming class of the pool, against the product over every
# split of the size that it replaced


def reference_terms_up_to(leaves, symbols, max_size):
    """All terms of size <= max_size, smallest first: per size, symbol and
    split of the arguments' sizes (in lexicographic order), the product of
    the smaller sizes' terms."""
    by_size = {1: list(leaves)}
    for n in range(2, max_size + 1):
        bucket = []
        for symbol, k in symbols:
            for split in itertools.product(range(1, n), repeat=k):
                if sum(split) == n - 1:
                    for args in itertools.product(*(by_size[s] for s in split)):
                        bucket.append(App(symbol, args))
        by_size[n] = bucket
    out = []
    for n in range(1, max_size + 1):
        out.extend(by_size[n])
    return out


def reference_enumerate_terms(sig, max_size, num_vars=3):
    pool = [Var(name) for name in fresh_names("v", num_vars, sig)]
    symbols = [(s, k) for s, k in sig.symbols.items() if k >= 1]
    return reference_terms_up_to(pool + [App(c) for c in sig.constants()], symbols, max_size)


ENUMERATION_SYMBOLS = {
    "unary": [("u", 1)],
    "binary": [("f", 2)],
    "ternary": [("t", 3)],
    "mixed": [("f", 2), ("u", 1), ("t", 3)],
}


@pytest.mark.parametrize("arities", list(ENUMERATION_SYMBOLS))
def test_empty_pool_enumerates_every_term_as_the_product_does(arities):
    symbols = ENUMERATION_SYMBOLS[arities]
    leaves = [Var("x"), Elem("a"), App("c")]
    for max_size in range(8):
        expected = reference_terms_up_to(leaves, symbols, max_size)
        assert list(_canonical_terms((), leaves, symbols, max_size)) == [(t, 0) for t in expected]
        assert terms_up_to(leaves, symbols, max_size) == expected


def _first_occurrence_form(t, pool):
    """t with its pool variables renamed to pool[0], pool[1], ... in order
    of first occurrence, and how many it uses."""
    names = {v.name for v in pool}
    firsts = [x for x in _first_occurrences([t]) if x in names]
    return apply_substitution(dict(zip(firsts, pool)), t), len(firsts)


@pytest.mark.parametrize("k", range(5))
def test_pool_enumeration_yields_one_term_per_renaming_class(k):
    pool = [Var("v%d" % (i + 1)) for i in range(k)]
    leaves = [App("c"), Elem("a"), Var("x")]  # x is no pool variable: renamings fix it
    symbols = [("f", 2), ("u", 1)]
    full = reference_terms_up_to(pool + leaves, symbols, 6)
    got = list(_canonical_terms(pool, leaves, symbols, 6))
    assert all(_first_occurrence_form(t, pool) == (t, j) for t, j in got)
    place = {t: i for i, t in enumerate(full)}
    order = [place[t] for t, _j in got]
    assert order == sorted(set(order))  # in the full enumeration's order, each once
    # each full term is a renaming of exactly one yielded term, and the
    # class of a term with j pool variables has perm(k, j) members
    classes = collections.Counter(_first_occurrence_form(t, pool)[0] for t in full)
    assert dict(classes) == {t: math.perm(k, j) for t, j in got}
    assert sum(math.perm(k, j) for _t, j in got) == len(full)


# ---------------------------------------------------------------------------
# the local-confluence oracle: one memoized step relation per call, against
# `rewrite_steps` and `joinable` on every term


def reference_step_key(step):
    """The key `step_key` replaced: position, label, then the printed result."""
    return step[2], step[1], str(step[0])


def reference_local_confluence_oracle(trs, max_size=6, num_vars=3, cap=DEFAULT_REDUCT_CAP):
    if not check_conditions(trs).star_ok:
        raise TerminationNotVerified("termination not verified (rules do not strictly decrease size)")
    checked = 0
    for peak in reference_enumerate_terms(trs.signature, max_size, num_vars):
        steps = sorted(rewrite_steps(trs, peak), key=reference_step_key)
        if len(steps) < 2:
            continue
        checked += 1
        succs = []
        for term, _label, _pos in steps:
            if term not in succs:
                succs.append(term)
        for t1, t2 in itertools.combinations(succs, 2):
            ok, _ = joinable(trs, t1, t2, cap)
            if not ok:
                return OracleVerdict(status="not-confluent", peak=peak, pair=(t1, t2), peaks_checked=checked)
    return OracleVerdict(status="confluent", peaks_checked=checked)


# six seeded mutants of each complete system for n = 2, among them forks,
# renames and shuffles
ORACLE_MUTANTS = {
    kind: confluence_mutants(generate_trs(VarietySpec(kind, 2, True)), 6, seed=2, label_prefix="m")
    for kind in ("quasigroup", "loop")
}


def _oracle_cases():
    cases = {}
    for kind, top in (("quasigroup", 3), ("loop", 2)):
        for n in range(1, top + 1):
            cases["complete_%s(%d)@6" % (kind, n)] = (generate_trs(VarietySpec(kind, n, True)), 6)
    cases["complete_loop(2)@7"] = (complete_loop(2), 7)
    # no binary quasigroup peak has size 6 or less
    cases["complete_quasigroup(2)@7"] = (generate_trs(VarietySpec("quasigroup", 2, True)), 7)
    cases["base_quasigroup(2)@7"] = (generate_trs(VarietySpec("quasigroup", 2)), 7)
    for kind, size in (("quasigroup", 7), ("loop", 6)):
        for n in (1, 2, 3):
            cases["base_%s(%d)@6" % (kind, n)] = (generate_trs(VarietySpec(kind, n)), 6)
        for i, mutant in enumerate(ORACLE_MUTANTS[kind]):
            cases["mutant_%s(2)#%d@%d" % (kind, i, size)] = (mutant, size)
    # three steps at the root, whose labels sort against the rule order, so
    # that the first divergent pair depends on sorting all steps by position and label
    x, y = Var("x"), Var("y")
    rules = [Rule(App("f", (x, y)), App(h, (x,)), label) for h, label in (("g", "z"), ("h", "a"))]
    rules.append(Rule(App("f", (x, y)), x, "b"))
    cases["three root steps"] = (Trs(Signature({"f": 2, "g": 1, "h": 1}), rules), 6)
    swap = Rule(App("f", (x, y)), App("f", (y, x)), "swap")
    cases["non-terminating swap"] = (Trs(Signature({"f": 2}), [swap]), 6)
    return cases


ORACLE_CASES = _oracle_cases()


ORACLE_REFUSAL = "refused: termination not verified (rules do not strictly decrease size)"


def oracle_outcome(oracle, trs, max_size):
    """The verdict, or the refusal of a system whose termination is not certified."""
    try:
        return oracle(trs, max_size)
    except TerminationNotVerified as exc:
        return "refused: %s" % exc


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_local_confluence_oracle_matches_reference(name):
    trs, max_size = ORACLE_CASES[name]
    expected = oracle_outcome(reference_local_confluence_oracle, trs, max_size)
    assert oracle_outcome(local_confluence_oracle, trs, max_size) == expected
    assert (expected == ORACLE_REFUSAL) == (name == "non-terminating swap")


@pytest.mark.parametrize("num_vars", [0, 1, 2, 4])
@pytest.mark.parametrize("name", ["complete_loop(2)@6", "mutant_loop(2)#0@6", "mutant_loop(2)#4@6"])
def test_local_confluence_oracle_matches_reference_at_each_pool_size(name, num_vars):
    trs, max_size = ORACLE_CASES[name]
    verdict = local_confluence_oracle(trs, max_size, num_vars)
    assert verdict == reference_local_confluence_oracle(trs, max_size, num_vars)
    if num_vars >= 2:  # each mutant's witness has two variables
        assert (verdict.status == "confluent") == (name == "complete_loop(2)@6")


def _assert_step_orders_agree(system, terms):
    """On every term, `step_key` sorts the steps as the printed key does,
    from either input order, and no two steps share a key."""
    for t in terms:
        steps = list(rewrite_steps(system, t))
        expected = sorted(steps, key=reference_step_key)
        assert sorted(steps, key=step_key) == expected == sorted(reversed(steps), key=step_key)
        assert len(set(map(step_key, steps))) == len(steps)


STEP_ORDER_SYSTEMS = {
    "%s_%s(2)" % ("complete" if complete else "base", kind): generate_trs(VarietySpec(kind, 2, complete))
    for kind in ("quasigroup", "loop")
    for complete in (False, True)
}
STEP_ORDER_SYSTEMS.update(
    ("mutant_%s(2)#%d" % (kind, i), mutant) for kind, mutants in ORACLE_MUTANTS.items() for i, mutant in enumerate(mutants)
)


@pytest.mark.parametrize("name", list(STEP_ORDER_SYSTEMS))
def test_step_key_orders_every_size_6_peak_as_the_printed_key(name):
    trs = STEP_ORDER_SYSTEMS[name]
    _assert_step_orders_agree(trs, enumerate_terms(trs.signature, 6))


def test_step_key_orders_amalgam_steps_as_the_printed_key():
    d = AMALGAM_CASES["Z4*Z4/Z2"][0]()
    _assert_step_orders_agree(d, element_terms(d, 5))


def test_oracle_cases_cover_every_verdict_and_mutant_kind():
    outcomes = {name: oracle_outcome(local_confluence_oracle, trs, size) for name, (trs, size) in ORACLE_CASES.items() if size == 6}
    assert outcomes.pop("non-terminating swap") == ORACLE_REFUSAL
    assert {verdict.status for verdict in outcomes.values()} == {"confluent", "not-confluent"}
    for kind, mutants in ORACLE_MUTANTS.items():
        parent = generate_trs(VarietySpec(kind, 2, True))
        forks = [m for m in mutants if len(m.rules) > len(parent.rules)]
        renames = [m for m in mutants if len(m.rules) == len(parent.rules) and set(m.rules) != set(parent.rules)]
        shuffles = [m for m in mutants if m.rules != parent.rules and set(m.rules) == set(parent.rules)]
        assert forks and renames and shuffles, kind
    assert len(_FORK.rules) > len(complete_loop(2).rules)


@pytest.mark.parametrize("max_size, cap", [(6, 1), (7, 3)])
def test_oracle_exceeds_a_small_cap_as_the_reference_does(max_size, cap):
    trs = complete_loop(2)
    with pytest.raises(CapExceeded) as raised:
        local_confluence_oracle(trs, max_size, cap=cap)
    with pytest.raises(CapExceeded) as expected:
        reference_local_confluence_oracle(trs, max_size, cap=cap)
    assert str(raised.value) == str(expected.value)


_FORK = ORACLE_MUTANTS["loop"][0]  # complete_loop(2) and a forked rule
_DIAGRAM = AMALGAM_CASES["Z4*Z4/Z2"][0]()  # element leaves and ground rules


def _system_and_term(trs, elements=()):
    return redex_terms(trs, elements).map(lambda t: (trs, t))


# ---------------------------------------------------------------------------
# check_confluence on the oracle's join test over one memoized step relation
# per call, against the decision by `joinable` on each pair that it replaced


def reference_nonjoinable(trs, cap=DEFAULT_REDUCT_CAP):
    """The non-trivial critical pairs for which `joinable` finds no common reduct."""
    return tuple(cp for cp in critical_pairs(trs) if not cp.trivial and not joinable(trs, cp.left, cp.right, cap)[0])


def _confluence_cases():
    cases = {}
    for kind in ("quasigroup", "loop"):
        for n in range(1, 5):
            for complete in (False, True):
                name = "%s_%s(%d)" % ("complete" if complete else "base", kind, n)
                cases[name] = lambda kind=kind, n=n, complete=complete: generate_trs(VarietySpec(kind, n, complete))
    for kind, seed, prefix in (("quasigroup", 71, "mq"), ("loop", 72, "ml")):  # the AC07 mutants
        for i in range(10):
            build = lambda kind=kind, seed=seed, prefix=prefix, i=i: confluence_mutants(
                generate_trs(VarietySpec(kind, 2, True)), 10, seed=seed, label_prefix=prefix
            )[i]
            cases["ac07_%s_mutant#%d" % (kind, i)] = build
    cases["handmade"] = lambda: parse_trs(HANDMADE_TRS)
    for name in sorted(UNF_CASES):
        cases[name] = UNF_CASES[name][0]
    for name in TABLE_MUTANT_CASES:
        for k in range(3):
            cases["%s-mutant%d" % (name, k)] = lambda name=name, k=k: table_value_mutants(UNF_CASES[name][0](), 3, seed=name)[k]
    return cases


CONFLUENCE_CASES = _confluence_cases()


def confluence_outcome(decide):
    """The non-joinable pairs that `decide()` returns, or the message of the CapExceeded it raises."""
    try:
        return decide()
    except CapExceeded as exc:
        return "cap exceeded: %s" % exc


@pytest.mark.parametrize("name", list(CONFLUENCE_CASES))
def test_check_confluence_matches_the_joinable_decision(name):
    trs = CONFLUENCE_CASES[name]()
    expected = reference_nonjoinable(trs)
    verdict = check_confluence(trs)
    assert verdict.nonjoinable == expected
    assert verdict.witness == (expected[0] if expected else None)
    assert verdict.status == ("not-confluent" if expected else "confluent")
    for cap in (1, 2):
        expected = confluence_outcome(lambda: reference_nonjoinable(trs, cap))
        assert confluence_outcome(lambda: check_confluence(trs, cap).nonjoinable) == expected


def test_confluence_cases_cover_both_verdicts_the_cap_and_a_join_below_both_sides():
    verdicts = [check_confluence(build()) for build in CONFLUENCE_CASES.values()]
    assert {v.status for v in verdicts} == {"confluent", "not-confluent"}
    trs = CONFLUENCE_CASES["handmade"]()  # neither side of such a pair is a reduct of the other
    assert any(
        joinable(trs, cp.left, cp.right)[0] and cp.right not in reducts(trs, cp.left) and cp.left not in reducts(trs, cp.right)
        for cp in critical_pairs(trs)
    )
    for cap in (1, 2):
        outcomes = [confluence_outcome(lambda: reference_nonjoinable(build(), cap)) for build in CONFLUENCE_CASES.values()]
        assert any(isinstance(o, str) for o in outcomes) and any(isinstance(o, tuple) for o in outcomes), cap


# ---------------------------------------------------------------------------
# the one-step relation: the position walk that `_lifted` replaced, which
# rebuilt the term at each position with a step by `replace_at`


def reference_normalize_by_positions(system, t, strategy, seed=0):
    """(normal form, trace): the first step of the pre- or post-order
    position walk, or a seeded choice among all steps sorted by `step_key`."""
    rng = random.Random(seed) if strategy == "random" else None
    order = reference_positions_postorder if strategy == "leftmost-innermost" else positions
    trace = []
    current = t
    while True:
        if rng is None:
            step = next(reference_successors(system, current, order), None)
        else:
            options = sorted(reference_successors(system, current, order), key=step_key)
            step = rng.choice(options) if options else None
        if step is None:
            return current, tuple(trace)
        current, label, pos = step
        trace.append((label, pos))


def reference_reducts(system, t):
    seen = {t}
    frontier = [t]
    while frontier:
        fresh = []
        for u in frontier:
            for v, _label, _pos in reference_successors(system, u, positions):
                if v not in seen:
                    seen.add(v)
                    fresh.append(v)
        frontier = fresh
    return seen


_STEP_CASES = (
    _system_and_term(complete_loop(2)) | _system_and_term(_FORK) | _system_and_term(_DIAGRAM, _DIAGRAM.carrier_union)
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_STEP_CASES)
def test_memoized_steps_are_the_rewrite_steps(case):
    trs, t = case
    steps = _step_memo(trs)
    expected = list(reference_successors(trs, t, positions))
    for _call in range(2):  # the second call reads the memo
        found = steps(t)
        assert len(found) == len(expected) and set(found) == set(expected), str(t)
    assert list(rewriting._lifted(trs, t, steps)) == found  # the oracle's lift of a peak
    for _pos, sub in positions(t):  # each subterm's steps, kept by the calls above
        found = steps(sub)
        assert sorted(found, key=step_key) == sorted(reference_successors(trs, sub, positions), key=step_key), str(sub)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_STEP_CASES)
def test_steps_and_reducts_are_the_position_walk_steps_and_reducts(case):
    trs, t = case
    assert _step_memo(trs)(t) == list(reference_successors(trs, t, positions)), str(t)
    assert rewrite_steps(trs, t) == set(reference_successors(trs, t, positions))
    assert reducts(trs, t) == reference_reducts(trs, t)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_STEP_CASES)
def test_normal_forms_and_traces_are_the_position_walk_ones(case):
    trs, t = case
    for strategy, seed in [("leftmost-innermost", 0), ("leftmost-outermost", 0)] + [("random", k) for k in range(4)]:
        assert normalize(trs, t, strategy, seed) == reference_normalize_by_positions(trs, t, strategy, seed), (strategy, seed, str(t))
    for strategy in ("leftmost-innermost", "leftmost-outermost"):  # the bound stops at the same step
        expected = reference_normalize_by_positions(trs, t, strategy)
        for k in range(len(expected[1]) + 1):
            if k < len(expected[1]):
                with pytest.raises(StepBoundExceeded):
                    normalize(trs, t, strategy, max_steps=k)
            else:
                assert normalize(trs, t, strategy, max_steps=k) == expected


class CountingTrs:
    """A Trs as a reduction system that records each term whose root steps
    are asked for."""

    def __init__(self, trs):
        self.trs, self.terminates, self.collapsing, self.asked = trs, trs.terminates, trs.collapsing, []

    def root_steps(self, t):
        self.asked.append(t)
        return self.trs.root_steps(t)


@pytest.mark.parametrize(
    "strategy, order", [("leftmost-outermost", positions), ("leftmost-innermost", reference_positions_postorder)]
)
def test_first_leftmost_step_asks_no_application_past_the_first_redex(strategy, order):
    trs = complete_loop(2)
    t = parse_term("f(g1(f(x,y),f(y,e)),g2(f(e,x),g1(y,e)))", trs.signature)
    apps = [sub for _pos, sub in order(t) if isinstance(sub, App)]
    redexes = [i for i, sub in enumerate(apps) if trs.root_steps(sub)]
    assert redexes[0] > 0 and len(redexes) >= 3  # the walk passes applications before and after it
    counting = CountingTrs(trs)
    with pytest.raises(StepBoundExceeded):  # max_steps=0 stops after the first step
        normalize(counting, t, strategy, max_steps=0)
    assert counting.asked == apps[: redexes[0] + 1]


def _postorder_applications(t):
    return [sub for _pos, sub in reference_positions_postorder(t) if isinstance(sub, App)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_STEP_CASES)
def test_innermost_normalize_asks_each_application_once(case):
    """Innermost normalization in one pass asks for the root steps of each
    application of t once, and after each step of each application of the
    step's result once more, unless the step's rule has a variable right
    side: then the result is a subterm of a normal form and is asked
    nothing.  No walk from the root again."""
    trs, t = case
    rhs = {r.label: r.rhs for r in trs.rules}
    normal_form, trace = reference_normalize_by_positions(trs, t, "leftmost-innermost")
    expected, current = len(_postorder_applications(t)), t
    for label, pos in trace:
        current = next(u for u, l, p in reference_successors(trs, current, positions) if (l, p) == (label, pos))
        if not isinstance(rhs[label], Var):
            expected += len(_postorder_applications(subterm_at(current, pos)))
    counting = CountingTrs(trs)
    assert normalize(counting, t) == (normal_form, trace)
    assert len(counting.asked) == expected, str(t)
    counting = CountingTrs(trs)  # on an irreducible term, once per application in post-order
    assert normalize(counting, normal_form) == (normal_form, ())
    assert counting.asked == _postorder_applications(normal_form)


# ---------------------------------------------------------------------------
# rule families, Prop. 3.6 and squares: the hand-built code they replaced


def reference_generate_trs(spec):
    """Each rule family's arguments assembled run by run."""
    n = spec.n
    x = Var("x")
    e = "e"
    f = lambda args: App("f", tuple(args))
    g = lambda i, args: App("g%d" % i, tuple(args))
    rules = []
    if spec.kind == "loop":
        for i in range(1, n + 1):
            rules.append(Rule(f(const_run(e, i - 1) + (x,) + const_run(e, n - i)), x, "2.2[i=%d]" % i))
    for i in range(1, n + 1):
        lhs = f(var_run(1, i - 1) + (g(i, var_run(1, n)),) + var_run(i + 1, n))
        rules.append(Rule(lhs, Var("x%d" % i), "2.3[i=%d]" % i))
    for i in range(1, n + 1):
        lhs = g(i, var_run(1, i - 1) + (f(var_run(1, n)),) + var_run(i + 1, n))
        rules.append(Rule(lhs, Var("x%d" % i), "2.4[i=%d]" % i))
    if spec.complete:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                args = var_run(1, i - 1) + (Var("x%d" % j),) + var_run(i + 1, j - 1)
                args += (g(j, var_run(1, n)),) + var_run(j + 1, n)
                rules.append(Rule(g(i, args), Var("x%d" % i), "2.7[i=%d,j=%d]" % (i, j)))
        for i in range(1, n + 1):
            for j in range(1, i):
                args = var_run(1, j - 1) + (g(j, var_run(1, n)),) + var_run(j + 1, i - 1)
                args += (Var("x%d" % j),) + var_run(i + 1, n)
                rules.append(Rule(g(i, args), Var("x%d" % i), "2.8[i=%d,j=%d]" % (i, j)))
        if spec.kind == "loop":
            for i in range(1, n + 1):
                rules.append(Rule(g(i, const_run(e, i - 1) + (x,) + const_run(e, n - i)), x, "2.9[i=%d]" % i))
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    args = const_run(e, i - 1) + (x,) + const_run(e, j - i - 1) + (x,) + const_run(e, n - j)
                    rules.append(Rule(g(i, args), App(e), "2.10[i=%d,j=%d]" % (i, j)))
            for i in range(1, n + 1):
                for j in range(1, i):
                    args = const_run(e, j - 1) + (x,) + const_run(e, i - j - 1) + (x,) + const_run(e, n - i)
                    rules.append(Rule(g(i, args), App(e), "2.11[i=%d,j=%d]" % (i, j)))
    return Trs(variety_signature(spec.kind, n), rules)


def reference_unary_compatible(func, block_of, blocks):
    return all(len({block_of[func[a]] for a in block}) == 1 for block in blocks)


def reference_prop_3_6_partitions(perm):
    """(perm-compatible, perm-and-inverse-compatible) partitions of
    range(len(perm)), each a set of frozensets of blocks."""
    inverse = [0] * len(perm)
    for i, v in enumerate(perm):
        inverse[v] = i
    with_perm, with_both = set(), set()
    for blocks in partitions(range(len(perm))):
        block_of = {a: i for i, b in enumerate(blocks) for a in b}
        if reference_unary_compatible(perm, block_of, blocks):
            key = frozenset(map(frozenset, blocks))
            with_perm.add(key)
            if reference_unary_compatible(inverse, block_of, blocks):
                with_both.add(key)
    return with_perm, with_both


def reference_quasigroup_from_square(square, name):
    order = len(square)
    carrier = tuple(str(i) for i in range(order))
    table_f = {(carrier[a], carrier[b]): carrier[square[a][b]] for a in range(order) for b in range(order)}
    return FiniteAlgebra(name, 2, "quasigroup", carrier, table_f)


@pytest.mark.parametrize("complete", [False, True], ids=["base", "complete"])
@pytest.mark.parametrize("kind", ["quasigroup", "loop"])
@pytest.mark.parametrize("n", range(1, 8))
def test_rule_families_match_reference(n, kind, complete):
    spec = VarietySpec(kind, n, complete)
    assert format_trs(generate_trs(spec)) == format_trs(reference_generate_trs(spec))


@pytest.mark.parametrize("order", range(1, 7))
def test_prop_3_6_kernel_scopes_match_reference_scan(order):
    for cycle_type in integer_partitions(order):
        perm = permutation_from_cycle_type(cycle_type)
        alg = permutation_quasigroup(perm)
        kernel = [
            {frozenset(frozenset(map(int, b)) for b in cong.blocks) for cong in enumerate_congruences(alg, scope)}
            for scope in ("f", "full")
        ]
        assert tuple(kernel) == reference_prop_3_6_partitions(perm), cycle_type


@pytest.mark.parametrize("order", range(1, 8))
def test_prop_3_6_label_seeds_generate_what_every_block_pair_generates(order):
    # `verify_prop_3_6` seeds each x with the least member of its class
    for cycle_type in integer_partitions(order):
        alg = permutation_quasigroup(permutation_from_cycle_type(cycle_type))
        for cong in enumerate_congruences(alg, "f"):
            seeds = [(alg.carrier[x], alg.carrier[y]) for x, y in enumerate(cong.labels) if x != y]
            assert len(seeds) == alg.order - len(cong.blocks)
            for scope in ("f", "full"):
                expected = generated_congruence(alg, block_pairs(cong), scope)
                assert generated_congruence(alg, seeds, scope) == expected, (cycle_type, cong, scope)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_quasigroups_from_squares_match_reference(order):
    for square in latin_squares(order):
        got = quasigroup_from_square(square, "Q")
        expected = reference_quasigroup_from_square(square, "Q")
        assert (got.name, got.n, got.kind, got.carrier) == (expected.name, expected.n, expected.kind, expected.carrier)
        assert (got.table_f, got.tables_g, got.identity) == (expected.table_f, expected.tables_g, expected.identity)


# ---------------------------------------------------------------------------
# algebra axioms: the three-pass `validate` that the constructor's single
# identity-2.3 pass replaced


def reference_validate(n, kind, carrier, table_f, tables_g, identity):
    """None when every axiom holds on the raw tables, else the first
    violation: each one-slot map of f injective, then identities 2.3 and
    2.4 for each g_i, then the loop identity law."""
    for i in range(1, n + 1):
        for context in itertools.product(carrier, repeat=n - 1):
            seen = {}
            for b in carrier:
                args = context[: i - 1] + (b,) + context[i - 1 :]
                value = table_f[args]
                if value in seen:
                    return Violation(
                        "unique-solution",
                        args,
                        "slot %d: f repeats value %r (also at %r)" % (i, value, seen[value]),
                    )
                seen[value] = args
    for i in range(1, n + 1):
        for args in itertools.product(carrier, repeat=n):
            b = tables_g[i - 1][args]
            got = table_f[args[: i - 1] + (b,) + args[i:]]
            if got != args[i - 1]:
                return Violation(
                    "f-of-division",
                    args,
                    "f(.., g%d(..) ,..) gave %r, expected %r" % (i, got, args[i - 1]),
                )
            fv = table_f[args]
            got = tables_g[i - 1][args[: i - 1] + (fv,) + args[i:]]
            if got != args[i - 1]:
                return Violation(
                    "division-of-f",
                    args,
                    "g%d(.., f(..) ,..) gave %r, expected %r" % (i, got, args[i - 1]),
                )
    if kind == "loop":
        if identity is None:
            return Violation("identity", (), "loop without identity element")
        for i in range(n):
            for a in carrier:
                args = (identity,) * i + (a,) + (identity,) * (n - 1 - i)
                if table_f[args] != a:
                    return Violation("identity", args, "f%s = %r, expected %r" % (args, table_f[args], a))
    return None


def _raw_tables(alg):
    return alg.n, alg.kind, alg.carrier, alg.table_f, list(alg.tables_g), alg.identity


# Derived divisions: every Latin square of order <= 4, a unary and a
# ternary algebra, and a loop.
DERIVED_ALGEBRAS = [
    quasigroup_from_square(square, "Q%d" % order) for order in range(1, 5) for square in latin_squares(order)
] + [permutation_quasigroup([1, 2, 0]), cyclic_loop(4), cyclic_loop(3, 3)]

# f repeats a value in each row, with f copied into both division tables
REPEATED_ROW = (
    2,
    "quasigroup",
    ("a", "b"),
    {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"},
    [{("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}] * 2,
    None,
)


def test_derived_algebras_pass_the_reference_check():
    assert len(DERIVED_ALGEBRAS) == 1 + 2 + 12 + 576 + 3
    for alg in DERIVED_ALGEBRAS:
        assert reference_validate(*_raw_tables(alg)) is None, alg


@st.composite
def division_mutants(draw):
    """A derived algebra's raw tables with at most one entry of one
    division table replaced by some element (possibly the same one)."""
    n, kind, carrier, table_f, tables_g, identity = _raw_tables(draw(st.sampled_from(DERIVED_ALGEBRAS)))
    if draw(st.booleans()):
        slot = draw(st.integers(0, n - 1))
        args = draw(st.sampled_from(sorted(tables_g[slot])))
        tables_g[slot] = {**tables_g[slot], args: draw(st.sampled_from(carrier))}
    return n, kind, carrier, table_f, tables_g, identity


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=division_mutants())
@example(case=REPEATED_ROW)
def test_constructor_raises_exactly_when_the_reference_finds_a_violation(case):
    n, kind, carrier, table_f, tables_g, identity = case
    expected = reference_validate(*case)
    if expected is None:
        FiniteAlgebra("A", n, kind, carrier, table_f, tables_g, identity)
        return
    with pytest.raises(InvalidAlgebraError) as raised:
        FiniteAlgebra("A", n, kind, carrier, table_f, tables_g, identity)
    message = str(raised.value)
    assert message.startswith("A is not a valid %s: f-of-division at " % kind)
    if expected.axiom == "f-of-division":
        assert message == "A is not a valid %s: %s" % (kind, expected)


# ---------------------------------------------------------------------------
# flat tables: the name-keyed total-table check, JSON nesting, division
# derivation and embedding loop that one flat integer table per operation
# replaced


def reference_check_total(n, carrier, table, opname):
    table = {tuple(k): v for k, v in table.items()}
    elems = set(carrier)
    expected = len(carrier) ** n
    if len(table) != expected:
        raise AlgebraError("%s table has %d entries, expected %d" % (opname, len(table), expected))
    for key, value in table.items():
        if len(key) != n or not elems.issuperset(key) or value not in elems:
            raise AlgebraError("%s table entry %r -> %r is out of carrier" % (opname, key, value))
    return table


def reference_nest_table(n, carrier, table):
    def build(prefix):
        if len(prefix) == n:
            return table[prefix]
        return [build(prefix + (a,)) for a in carrier]

    return build(())


def reference_derive_divisions(n, carrier, table_f):
    """Each one-slot map of a name-keyed f inverted in one pass."""
    table_f = {tuple(k): v for k, v in table_f.items()}
    tables = []
    for i in range(n):
        solution, count = {}, {}
        for args in itertools.product(carrier, repeat=n):
            solved = args[:i] + (table_f[args],) + args[i + 1 :]
            solution[solved] = args[i]
            count[solved] = count.get(solved, 0) + 1
        gi = {}
        for args in itertools.product(carrier, repeat=n):
            if count.get(args) != 1:
                raise NotAQuasigroupError("slot %d: %d solutions for %r" % (i + 1, count.get(args, 0), args))
            gi[args] = solution[args]
        tables.append(gi)
    return tables


def reference_preserve_f(source_f, target_f, n, carrier, mapping):
    """The first argument tuple, in product order, whose f value the map
    does not preserve, or None."""
    for args in itertools.product(carrier, repeat=n):
        if mapping[source_f[args]] != target_f[tuple(map(mapping.__getitem__, args))]:
            return Violation("preserve-f", args, "f is not preserved")
    return None


def reference_tables(alg, given=None):
    """(f, divisions) as the name-keyed constructor kept them: the given
    name-keyed tables (f, divisions or None) through
    `reference_check_total`, or, for an algebra built from value indices, f
    read off `flat_f`; divisions derived by `reference_derive_divisions`
    unless given."""
    n, carrier = alg.n, alg.carrier
    table_f, tables_g = given or (named_table(n, carrier, alg.flat_f), None)
    table_f = reference_check_total(n, carrier, table_f, "f")
    if tables_g is None:
        return table_f, reference_derive_divisions(n, carrier, table_f)
    return table_f, [reference_check_total(n, carrier, tg, "g%d" % (i + 1)) for i, tg in enumerate(tables_g)]


def check_flat_tables(alg, targets, rng, given=None):
    """The views, the JSON form and a renamed copy of `alg` against the
    references, and the first preserve-f violation of one seeded injective
    map into each target against `reference_preserve_f`.  Returns the
    number of maps with such a violation."""
    n, carrier = alg.n, alg.carrier
    table_f, tables_g = reference_tables(alg, given)
    order = list(itertools.product(carrier, repeat=n))
    assert alg.table_f == table_f and list(alg.table_f) == order
    assert list(alg.tables_g) == tables_g and all(list(view) == order for view in alg.tables_g)
    expected = {"name": alg.name, "n": n, "kind": alg.kind, "carrier": list(carrier)}
    expected["f"] = reference_nest_table(n, carrier, table_f)
    expected["g"] = [reference_nest_table(n, carrier, tg) for tg in tables_g]
    if alg.identity is not None:
        expected["e"] = alg.identity
    assert json.dumps(algebra_to_json(alg)) == json.dumps(expected)
    mapping = {a: "r" + carrier[(k + 1) % alg.order] for k, a in enumerate(carrier)}
    renamed = alg.rename(mapping)
    assert renamed.flat_f == alg.flat_f
    assert renamed.table_f == {tuple(map(mapping.get, args)): mapping[v] for args, v in table_f.items()}
    violations = 0
    for target in targets:
        mapping = dict(zip(carrier, rng.sample(target.carrier, alg.order)))
        got = algebras.validate_embedding(types.SimpleNamespace(source=alg, target=target, mapping=mapping))
        target_f = named_table(n, target.carrier, target.flat_f)
        expected = reference_preserve_f(table_f, target_f, n, carrier, mapping)
        assert (got if got is not None and got.axiom == "preserve-f" else None) == expected, (alg, target, mapping)
        violations += expected is not None
    return violations


def _targets(alg, pool, rng, count=2):
    """`alg` itself and `count` seeded algebras of the pool of its n and
    kind and at least its order."""
    fitting = [t for t in pool if (t.n, t.kind) == (alg.n, alg.kind) and t.order >= alg.order]
    return [alg] + rng.sample(fitting, min(count, len(fitting)))


@functools.lru_cache(maxsize=None)
def _kernel_pool():
    return tuple(kernel_algebra(*case) for case in KERNEL_CASES)


@pytest.mark.parametrize("case", KERNEL_CASES, ids=_kernel_id)
def test_kernel_flat_tables_match_the_name_keyed_references(case):
    alg = kernel_algebra(*case)
    given = None if case[2] == "cyclic" else kernel_tables(*case)[1:]
    rng = random.Random(_kernel_id(case))
    violations = check_flat_tables(alg, _targets(alg, _kernel_pool(), rng), rng, given)
    # f of a unary cyclic loop is the identity, which every map preserves
    assert violations > 0 or alg.order <= 2 or case[::2] == (1, "cyclic")


@pytest.mark.parametrize(
    "pool", [DERIVED_ALGEBRAS, CONGRUENCE_ALGEBRAS], ids=["derived", "congruence"]
)
def test_flat_tables_match_the_name_keyed_references(pool):
    rng = random.Random(len(pool))
    violations = sum(check_flat_tables(alg, _targets(alg, pool, rng), rng) for alg in pool)
    assert violations >= len(pool) // 2


def _malformed_z3_tables():
    z3 = {(str(a), str(b)): str((a + b) % 3) for a in range(3) for b in range(3)}
    last = dict(list(z3.items())[:-1])  # without ("2", "2")
    two_bad = {**last, ("0", "1"): "x", ("9", "9"): "0"}
    return {
        "missing": last,
        "extra": {**z3, ("0", "3"): "0"},
        "value": {**z3, ("1", "2"): "7"},
        "key": {**last, ("2", "9"): "0"},
        "short-key": {**last, ("2",): "0"},
        "two-bad": two_bad,
        "two-bad-reversed": dict(reversed(list(two_bad.items()))),
    }


@pytest.mark.parametrize("label", sorted(_malformed_z3_tables()))
def test_name_keyed_table_errors_match_reference(label):
    table = _malformed_z3_tables()[label]
    with pytest.raises(AlgebraError) as expected:
        reference_check_total(2, ("0", "1", "2"), table, "f")
    with pytest.raises(AlgebraError) as got:
        FiniteAlgebra("Z3", 2, "loop", ("0", "1", "2"), table, identity="0")
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# invented names: `fresh_names` against the counter loop of `rename_apart`,
# the name generator of `canonical_renaming`, the label counter of
# `complete` and the fixed variable pool of `enumerate_terms` that it
# replaced


def reference_iter_variables(t):
    """The recursive walk that `iter_variables` and `_first_occurrences`
    replaced."""
    if isinstance(t, Var):
        yield t.name
    elif isinstance(t, App):
        for a in t.args:
            yield from reference_iter_variables(a)


def _reference_first_occurrences(terms):
    return list(dict.fromkeys(name for t in terms for name in reference_iter_variables(t)))


def reference_rename_apart(fixed, movable):
    taken = variables(*fixed)
    movable_vars = _reference_first_occurrences(movable)
    used = taken | set(movable_vars)
    renaming = {}
    counter = 1
    for name in movable_vars:
        if name in taken:
            while "v%d" % counter in used:
                counter += 1
            fresh = "v%d" % counter
            used.add(fresh)
            renaming[name] = Var(fresh)
    return renaming


def reference_fresh_variables(taken):
    """v1, v2, ... without the names in taken, without end."""
    return (name for name in ("v%d" % i for i in itertools.count(1)) if name not in taken)


def reference_canonical(sig, *terms):
    fresh = (Var(name) for name in reference_fresh_variables(sig))
    renaming = dict(zip(_reference_first_occurrences(terms), fresh))
    return tuple(apply_substitution(renaming, t) for t in terms)


def reference_canonical_renaming(terms):
    return {name: Var("v%d" % i) for i, name in enumerate(_reference_first_occurrences(terms), start=1)}


def reference_fresh_label(used, counter):
    while True:
        label = "cp%d" % counter
        counter += 1
        if label not in used:
            used.add(label)
            return label, counter


def reference_complete(trs, max_rounds=10, cap=DEFAULT_REDUCT_CAP):
    """`complete` with its own label counter, `reference_canonical`, and
    the test of each candidate against every current rule that `complete`
    dropped."""
    if not check_conditions(trs).star_ok:
        raise TerminationNotVerified("completion requires size-decreasing input rules")
    current = trs
    used_labels = {r.label for r in current.rules}
    counter = 1
    adopted = []
    rounds = 0
    while True:
        nonjoinable = check_confluence(current, cap).nonjoinable
        if not nonjoinable:
            return CompletionResult(trs=current, rounds=rounds, adopted=tuple(adopted))
        if rounds >= max_rounds:
            raise MaxRoundsExceeded(rounds, current)
        for cp in nonjoinable:
            left_nf, _ = normalize(current, cp.left)
            right_nf, _ = normalize(current, cp.right)
            if left_nf == right_nf:
                continue
            if size(left_nf) == size(right_nf):
                raise UnorientableError(cp, "equal sizes after normalization")
            big, small = (left_nf, right_nf) if size(left_nf) > size(right_nf) else (right_nf, left_nf)
            lhs, rhs = reference_canonical(trs.signature, big, small)
            if any(reference_canonical(trs.signature, r.lhs, r.rhs) == (lhs, rhs) for r in current.rules):
                continue
            if isinstance(lhs, Var) or variables(rhs) - variables(lhs):
                raise UnorientableError(cp, "candidate violates rule invariants")
            label, counter = reference_fresh_label(used_labels, counter)
            rule = Rule(lhs, rhs, label)
            if not reference_rule_star(rule):
                raise UnorientableError(cp, "candidate violates the size-decrease condition")
            current = current.with_rules([rule])
            adopted.append((rule, cp))
        rounds += 1


# variable names that the renamings may invent, beside others
NAME_POOL = ["x", "y", "z", "v1", "v2", "v3", "v5", "v12"]
V_NAMES = ["v1", "v2", "v3", "v4", "v6"]


def _named_terms():
    leaves = st.sampled_from([Var(name) for name in NAME_POOL] + [Elem("a"), App("c")])
    return st.recursive(
        leaves,
        lambda inner: st.tuples(inner, inner).map(lambda a: App("f", a)) | inner.map(lambda a: App("u", (a,))),
        max_leaves=5,
    )


def _v_signatures():
    """f/2, u/1 and c/0, and some v<k> declared at arity 0, 1 or 2."""
    return st.dictionaries(st.sampled_from(V_NAMES), st.integers(0, 2), max_size=3).map(
        lambda vs: Signature({"f": 2, "u": 1, "c": 0, **vs})
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    count=st.integers(0, 6),
    taken=st.sets(st.sampled_from(V_NAMES + ["x", "v", "v0", "cp1"])),
    sig=_v_signatures(),
)
def test_fresh_names_are_the_names_the_generator_skipped_to(count, taken, sig):
    for names in (taken, sig):
        assert fresh_names("v", count, names) == list(itertools.islice(reference_fresh_variables(names), count))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    fixed=st.lists(_named_terms(), max_size=3),
    movable=st.lists(_named_terms(), min_size=1, max_size=3),
    sig=_v_signatures(),
)
def test_renamings_match_reference(fixed, movable, sig):
    assert _first_occurrences(fixed + movable) == _reference_first_occurrences(fixed + movable)
    assert [list(iter_variables(t)) for t in movable] == [list(reference_iter_variables(t)) for t in movable]
    assert rename_apart(fixed, movable) == reference_rename_apart(fixed, movable)
    assert canonical_renaming(movable) == reference_canonical_renaming(movable)
    renaming = canonical_renaming(movable, sig)
    assert tuple(apply_substitution(renaming, t) for t in movable) == reference_canonical(sig, *movable)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(taken=st.sets(st.sampled_from(["cp1", "cp2", "cp3", "cp5", "cp8", "r1", "cp"])), count=st.integers(1, 8))
def test_completion_labels_match_reference_counter(taken, count):
    used, counter, expected = set(taken), 1, []
    for _ in range(count):
        label, counter = reference_fresh_label(used, counter)
        expected.append(label)
    labels = set(taken)
    for label in expected:
        assert fresh_names("cp", 1, labels) == [label]
        labels.add(label)


def _relabelled(trs, labels):
    """trs with its first rules relabelled, in order, by the given labels."""
    rules = [Rule(r.lhs, r.rhs, label) for r, label in zip(trs.rules, labels)]
    return Trs(trs.signature, rules + list(trs.rules[len(rules) :]))


def _with_symbols(trs, extra):
    return Trs(Signature({**trs.signature.symbols, **extra}), trs.rules)


@pytest.mark.parametrize("variant", ["as generated", "cp1 and cp3 taken", "v1 and v2 declared"])
@pytest.mark.parametrize("kind", ["quasigroup", "loop"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complete_matches_reference(n, kind, variant):
    trs = generate_trs(VarietySpec(kind, n))
    if variant == "cp1 and cp3 taken":
        trs = _relabelled(trs, ["cp1", "cp3"])
    elif variant == "v1 and v2 declared":
        trs = _with_symbols(trs, {"v1": 0, "v2": 1})
    got, expected = complete(trs), reference_complete(trs)
    assert got.trs == expected.trs and got.rounds == expected.rounds
    # each adopted left side is irreducible by the rules before it, so it
    # repeats none of them: why `complete` needs no duplicate test
    for k, (rule, _cp) in enumerate(got.adopted):
        assert not rewrite_steps(Trs(trs.signature, got.trs.rules[: len(trs.rules) + k]), rule.lhs)
    assert [r.label for r in got.trs.rules] == [r.label for r in expected.trs.rules]
    assert got.adopted == expected.adopted
    assert format_trs(got.trs) == format_trs(expected.trs)


@pytest.mark.parametrize("kind", ["quasigroup", "loop"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerated_terms_match_the_fixed_pool_without_declared_v_names(kind, n):
    sig = variety_signature(kind, n)
    leaves = [Var("v%d" % (i + 1)) for i in range(3)] + [App(c) for c in sig.constants()]
    symbols = [(s, k) for s, k in sig.symbols.items() if k >= 1]
    assert enumerate_terms(sig, 5) == terms_up_to(leaves, symbols, 5)


def test_enumerated_variables_skip_declared_symbols():
    sig = Signature({"f": 2, "v1": 0, "v3": 1})
    pool = [t for t in enumerate_terms(sig, 1, num_vars=3) if isinstance(t, Var)]
    assert pool == [Var("v2"), Var("v4"), Var("v5")]
    assert all(parse_term(str(t), sig) == t for t in enumerate_terms(sig, 4))


def test_oracle_witness_reads_back_when_a_symbol_is_named_v1():
    # the fixed pool v1, v2, v3 reported the peak f(v1,v1), a variable beside
    # the constant v1, with the same status and peaks_checked
    trs = parse_trs("sig f/2 v1/0\nrule r1: f(x,y) -> x\nrule r2: f(x,v1) -> v1\n")
    verdict = local_confluence_oracle(trs, max_size=3)
    assert (verdict.status, verdict.peaks_checked) == ("not-confluent", 1)
    assert str(verdict.peak) == "f(v2,v1)"
    for t in (verdict.peak, *verdict.pair):
        assert parse_term(str(t), trs.signature) == t
    assert verdict == reference_local_confluence_oracle(trs, max_size=3)


# ---------------------------------------------------------------------------
# the hand-written term classes against the frozen dataclasses they replaced


@dataclasses.dataclass(frozen=True, slots=True)
class ReferenceVar:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclasses.dataclass(frozen=True, slots=True)
class ReferenceElem:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclasses.dataclass(frozen=True, slots=True)
class ReferenceApp:
    symbol: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.symbol
        return "%s(%s)" % (self.symbol, ",".join(str(a) for a in self.args))


def reference_term(t):
    if isinstance(t, App):
        return ReferenceApp(t.symbol, tuple(map(reference_term, t.args)))
    return (ReferenceVar if isinstance(t, Var) else ReferenceElem)(t.name)


def rebuilt(t):
    """An equal copy of t that shares no node with it."""
    if isinstance(t, App):
        return App(t.symbol, tuple(map(rebuilt, t.args)))
    return type(t)(t.name)


TERM_CLASS_CASES = [
    *enumerate_terms(complete_loop(2).signature, 6),
    Elem("a"),
    Elem("v1"),
    Elem("e"),
    App("f", (Elem("a"), Var("v1"))),
    App("g1", (App("e"), Elem("v1"))),
    App("f", (App("f", (Elem("a"), Elem("b"))), Elem("a"))),
]


def test_term_classes_match_the_dataclasses():
    refs = [reference_term(t) for t in TERM_CLASS_CASES]
    for t, ref in zip(TERM_CLASS_CASES, refs):
        copy = rebuilt(t)
        assert (hash(t), hash(copy)) == (hash(ref), hash(ref))
        assert t == copy and not t != copy
        assert repr(t) == repr(ref).replace("Reference", "")
        assert str(t) == str(ref)
        assert pickle.loads(pickle.dumps(t)) == t
        fields = ("symbol", "args") if isinstance(t, App) else ("name",)
        for field in fields:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(t, field, getattr(t, field))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ref, field, getattr(ref, field))
    rng = random.Random(32)
    pairs = [*zip(TERM_CLASS_CASES, TERM_CLASS_CASES[1:])]
    pairs += [(rng.choice(TERM_CLASS_CASES), rng.choice(TERM_CLASS_CASES)) for _ in range(3000)]
    for a, b in pairs:
        expected = reference_term(a) == reference_term(b)
        assert (a == b, a != b, b == a) == (expected, not expected, expected)
    # equal hashes and equality give sets and dicts one iteration order
    assert [reference_term(t) for t in set(TERM_CLASS_CASES)] == list(set(refs))
    assert [reference_term(t) for t in dict.fromkeys(reversed(TERM_CLASS_CASES))] == list(dict.fromkeys(reversed(refs)))


@pytest.mark.parametrize("name", ["x", "v1", "e", "a"])
def test_leaves_of_different_classes_differ(name):
    assert Var(name) != Elem(name) and Elem(name) != Var(name)
    assert not Var(name) == Elem(name)
    assert len({Var(name), Elem(name), App(name)}) == 3
    assert (ReferenceVar(name) != ReferenceElem(name)) and len({ReferenceVar(name), ReferenceElem(name)}) == 2


def test_deep_terms_print_without_recursion():
    t, ref = Var("x"), ReferenceVar("x")
    for _ in range(200):
        t, ref = App("f", (t, Var("x"))), ReferenceApp("f", (ref, ReferenceVar("x")))
        assert str(t) == str(ref)
    for _ in range(5000 - 200):
        t = App("f", (t, Var("x")))
    assert str(t) == "f(" * 5000 + "x" + ",x)" * 5000


def test_records_compare_hash_and_print_by_their_fields():
    rule = Rule(App("f", (Var("x"), App("e"))), Var("x"), "r")
    assert repr(rule) == "Rule(lhs=App(symbol='f', args=(Var(name='x'), App(symbol='e', args=()))), rhs=Var(name='x'), label='r')"
    spec = VarietySpec("loop", 2)
    assert repr(spec) == "VarietySpec(kind='loop', n=2, complete=False)"
    pair = critical_pairs(complete_loop(2))[0]
    for record, values in [
        (rule, (rule.lhs, rule.rhs, "r")),
        (spec, ("loop", 2, False)),
        (pair, (pair.left, pair.right, pair.peak, pair.rule1, pair.rule2, pair.position, pair.mgu, pair.trivial)),
    ]:
        assert hash(record) == hash(values)
        assert record == type(record)(*values) and pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, "rule1" if record is pair else "n" if record is spec else "label", values[0])
    verdict = check_confluence(complete_loop(2))
    assert repr(verdict) == "ConfluenceVerdict(status='confluent', witness=None, nonjoinable=(), pairs_total=%d)" % verdict.pairs_total
    assert verdict == check_confluence(complete_loop(2)) and verdict != OracleVerdict("confluent")
    with pytest.raises(TypeError, match="unhashable"):
        hash(verdict)


# ---------------------------------------------------------------------------
# the term reader: the character-loop tokenizer and recursive-descent parser
# that one loop over regex tokens with an explicit stack replaced


def reference_tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "(),":
            tokens.append(c)
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if not m:
            raise ParseError("unexpected character %r in term" % c)
        tokens.append(m.group())
        i = m.end()
    return tokens


def reference_parse_term(text: str, sig: Signature):
    tokens = reference_tokenize(strip_comments(text))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of term in %r" % text)
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ParseError("expected %r, found %r in %r" % (expected, tok, text))
        pos += 1
        return tok

    def term():
        name = take()
        if name in "(),":
            raise ParseError("unexpected %r in %r" % (name, text))
        if peek() == "(":
            if name not in sig:
                raise ParseError("undeclared symbol %r in %r" % (name, text))
            take("(")
            args = [term()]
            while peek() == ",":
                take(",")
                args.append(term())
            take(")")
            if sig.arity(name) != len(args):
                raise ParseError(
                    "symbol %s expects %d arguments, got %d" % (name, sig.arity(name), len(args))
                )
            return App(name, tuple(args))
        if name in sig:
            if sig.arity(name) != 0:
                raise ParseError("symbol %s expects %d arguments" % (name, sig.arity(name)))
            return App(name)
        return Var(name)

    result = term()
    if pos != len(tokens):
        raise ParseError("trailing input %r in %r" % (tokens[pos:], text))
    return result


def parsed(parse, text, sig):
    """repr of the parsed term, or the ParseError message."""
    try:
        return repr(parse(text, sig))
    except ParseError as exc:
        return "ParseError: %s" % exc


# the eight messages, each by a pattern that no other one matches
PARSE_ERRORS = {
    "bad character": r"unexpected character .+ in term",
    "end": r"unexpected end of term in .+",
    "expected": r"expected '\)', found .+ in .+",
    "unexpected": r"unexpected '[(),]' in .+",
    "undeclared": r"undeclared symbol .+ in .+",
    "arity": r"symbol \S+ expects \d+ arguments, got \d+",
    "bare symbol": r"symbol \S+ expects \d+ arguments",
    "trailing": r"trailing input \[.+\] in .+",
}

# every str.splitlines boundary, other Unicode whitespace, the comment sign,
# identifier characters, punctuation and characters no term contains
MUTATION_CHARS = (
    "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029" + " \t\x1f\xa0\u2003\u3000" + "#" * 4 + "@._xe01" + "(),,))" + "$-\xe9\x00"
)


def random_term(rng, sig, depth):
    applied = [s for s, k in sig.symbols.items() if k]
    if depth and rng.random() < 0.7:
        symbol = rng.choice(applied)
        return App(symbol, tuple(random_term(rng, sig, depth - 1) for _ in range(sig.arity(symbol))))
    leaf = rng.choice(["x", "y1", "a.b", "2@1", "_"] + sig.constants())
    return App(leaf) if leaf in sig else Var(leaf)


def mutated_terms(sig, count, seed):
    """Printed random terms over sig, most with one to three single-character
    insertions, deletions or replacements."""
    rng = random.Random(seed)
    for _ in range(count):
        text = str(random_term(rng, sig, rng.randint(0, 3)))
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            i = rng.randint(0, len(text))
            kind = rng.randrange(3)  # insert, replace, delete
            c = rng.choice(MUTATION_CHARS)
            text = text[:i] + (c if kind < 2 else "") + text[i + (kind > 0) :]
        yield text


def test_term_reader_matches_the_recursive_parser_on_a_mutated_corpus():
    sig = complete_loop(2).signature  # f, g1, g2 and the constant e
    seen = set()
    corpus = list(mutated_terms(sig, 100_000, 34))
    for text in corpus:
        expected = parsed(reference_parse_term, text, sig)
        assert parsed(parse_term, text, sig) == expected, text
        if expected.startswith("ParseError: "):
            message = expected[len("ParseError: ") :]
            seen.update(name for name, pattern in PARSE_ERRORS.items() if re.fullmatch(pattern, message, re.S))
    assert seen == set(PARSE_ERRORS)
    for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\xa0\u3000#@.":
        assert any(c in text for text in corpus), repr(c)


def test_a_deep_term_parses_and_prints_back():
    sig = Signature({"f": 2})
    text = "f(" * 10_000 + "." + ",x)" * 10_000
    t = parse_term(text, sig)
    assert str(t) == text
    for _ in range(10_000):  # down the first arguments, without ==
        assert (t.symbol, len(t.args), t.args[1].__class__, t.args[1].name) == ("f", 2, Var, "x")
        t = t.args[0]
    assert (t.__class__, t.name) == (Var, ".")


# ---------------------------------------------------------------------------
# termination conditions: `Rule.star` and `Rule.star3`, computed once when
# the rule is built, against the functions that `Trs` called on every rule
# of every system it built


def reference_rule_star(rule):
    lhs_vars, rhs_vars = list(iter_variables(rule.lhs)), list(iter_variables(rule.rhs))
    return size(rule.lhs) > size(rule.rhs) and all(rhs_vars.count(v) <= lhs_vars.count(v) for v in rhs_vars)


def reference_rule_star3(rule):
    lhs_vars = variables(rule.lhs)
    for _pos, sub in positions(rule.lhs):
        if isinstance(sub, App) and sub.args and variables(sub) != lhs_vars:
            return False
    return True


_CONDITION_SIG = Signature({"f": 2, "g": 1, "h": 3})


def _failing_rules():
    """Rules that fail a condition: (rule, star, star3)."""
    rules = [
        ("swap", "f(x,y)", "f(y,x)", False, True),
        ("grow", "g(x)", "f(x,x)", False, True),
        ("repeat", "h(x,y,z)", "f(x,x)", False, True),  # smaller, but x twice on the right
        ("sub", "f(g(x),y)", "y", True, False),  # g(x) lacks y
    ]
    return [
        (Rule(parse_term(lhs, _CONDITION_SIG), parse_term(rhs, _CONDITION_SIG), label), star, star3)
        for label, lhs, rhs, star, star3 in rules
    ]


def _condition_cases():
    cases = {}
    for kind in ("quasigroup", "loop"):
        for n in range(1, 7):
            for complete in (False, True):
                name = "%s_%s(%d)" % ("complete" if complete else "base", kind, n)
                cases[name] = lambda kind=kind, n=n, complete=complete: generate_trs(VarietySpec(kind, n, complete))
    for kind, seed, prefix in (("quasigroup", 71, "mq"), ("loop", 72, "ml")):  # the AC07 mutants
        cases["ac07_%s_mutants" % kind] = lambda kind=kind, seed=seed, prefix=prefix: confluence_mutants(
            generate_trs(VarietySpec(kind, 2, True)), 10, seed=seed, label_prefix=prefix
        )
    for name in sorted(UNF_CASES):  # ground and resolved rules
        cases[name] = UNF_CASES[name][0]
    cases["failing"] = lambda: Trs(_CONDITION_SIG, [rule for rule, _star, _star3 in _failing_rules()])
    return cases


CONDITION_CASES = _condition_cases()


@pytest.mark.parametrize("name", list(CONDITION_CASES))
def test_rule_conditions_match_reference(name):
    built = CONDITION_CASES[name]()
    systems = built if isinstance(built, list) else [built]
    for trs in systems:
        for rule in trs.rules:
            assert (rule.star, rule.star3) == (reference_rule_star(rule), reference_rule_star3(rule)), rule
        report = check_conditions(trs)
        assert list(report.star.items()) == [(r.label, reference_rule_star(r)) for r in trs.rules]
        assert list(report.star3.items()) == [(r.label, reference_rule_star3(r)) for r in trs.rules]


def test_failing_rules_fail_their_condition():
    for rule, star, star3 in _failing_rules():
        assert (rule.star, rule.star3) == (star, star3), rule.label


def test_building_a_trs_walks_no_rule_for_conditions(monkeypatch):
    bq2 = generate_trs(VarietySpec("quasigroup", 2))
    prebuilt = Rule(parse_term("f(g1(x,y),y)", bq2.signature), Var("x"), "prebuilt")

    def walked(*args):
        raise AssertionError("a rule's conditions were computed again")

    monkeypatch.setattr(rewriting, "size", walked)
    monkeypatch.setattr(rewriting, "positions", walked)
    extended = bq2.with_rules([prebuilt])
    monkeypatch.undo()
    assert check_conditions(extended).star == {**check_conditions(bq2).star, "prebuilt": True}
    assert check_conditions(extended).star3 == {**check_conditions(bq2).star3, "prebuilt": True}


# ---------------------------------------------------------------------------
# `positions` on an explicit stack, against the recursive generator it
# replaced


def reference_positions(t, prefix=()):
    """(position, subterm) pairs in pre-order (root first)."""
    yield prefix, t
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            yield from reference_positions(a, prefix + (i,))


_POSITION_SYMBOLS = [("f", 2), ("u", 1), ("t", 3)]
_POSITION_LEAVES = [Var("x"), Var("y"), Elem("a"), Elem("0@1"), App("c")]


def random_position_term(rng, depth):
    if depth and rng.random() < 0.7:
        symbol, k = rng.choice(_POSITION_SYMBOLS)
        return App(symbol, tuple(random_position_term(rng, depth - 1) for _ in range(k)))
    return rng.choice(_POSITION_LEAVES)


def test_positions_match_the_recursive_walk_on_seeded_terms():
    rng = random.Random(12)
    for _ in range(3000):
        t = random_position_term(rng, rng.randint(0, 7))
        assert list(positions(t)) == list(reference_positions(t)), str(t)


def test_positions_of_a_deep_term_need_no_recursion():
    t = Var("x")
    for _ in range(10_000):
        t = App("f", (t, Var("x")))
    found = list(positions(t))
    assert len(found) == 20_001
    assert found[0][0] == () and found[0][1] is t
    assert found[10_000] == ((1,) * 10_000, Var("x"))  # the innermost first argument
    assert found[-1] == ((2,), Var("x"))  # the root's second argument comes last
