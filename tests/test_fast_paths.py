"""Each fast path of the CEP scan and the congruence layer, checked
against the straightforward string-keyed code it replaced.  The reference
implementations below are kept only for these comparisons."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nquasi.algebras import (
    Congruence,
    NotAQuasigroupError,
    algebra_from_function,
    cyclic_loop,
    derive_divisions,
    enumerate_congruences,
    generated_congruence,
    partitions,
)
from nquasi.codescent import _closed_subsets, latin_squares, quasigroup_from_square


# ---------------------------------------------------------------------------
# references


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


def reference_congruences(alg, scope):
    out = []
    for blocks in partitions(alg.carrier):
        interned = [tuple(b) for b in blocks]
        block_of = {a: blk for blk in interned for a in blk}
        if reference_compatible(alg, block_of, scope):
            out.append(Congruence.from_blocks(alg, interned, scope))
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
    return Congruence.from_blocks(alg, uf.blocks(), scope).blocks


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


def isotope_of_cyclic(order, alpha, beta, gamma, name="iso"):
    """x * y = gamma(alpha(x) + beta(y) mod order)."""
    return algebra_from_function(
        name,
        2,
        "quasigroup",
        [str(i) for i in range(order)],
        lambda x, y: gamma[(alpha[x] + beta[y]) % order],
    )


def congruence_test_algebras():
    rng = random.Random(20240327)
    algebras = [cyclic_loop(6), cyclic_loop(3, n=3, name="Z3:n=3"), cyclic_loop(4, n=3, name="Z4:n=3")]
    for order, count in ((5, 6), (6, 4)):
        for k in range(count):
            square = random_latin_square(order, rng)
            algebras.append(quasigroup_from_square(square, "L%d.%d" % (order, k)))
    return algebras


CONGRUENCE_ALGEBRAS = congruence_test_algebras()


# ---------------------------------------------------------------------------
# Latin squares and closed subsets


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_latin_squares_match_reference_sequence(order):
    assert list(latin_squares(order)) == list(reference_latin_squares(order))


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
    for square in latin_squares(4):
        assert list(_closed_subsets(square, 4)) == list(reference_closed_subsets(square, 4))


def test_subquasigroup_bound_on_seeded_order_five_squares():
    rng = random.Random(5)
    squares = list(latin_squares(5))
    found = 0
    for square in rng.sample(squares, 2000):
        closed = list(_closed_subsets(square, 5))
        assert closed == list(reference_closed_subsets(square, 5))
        found += bool(closed)
    assert found > 0


# ---------------------------------------------------------------------------
# congruences


@pytest.mark.parametrize("scope", ["f", "full"])
@pytest.mark.parametrize("alg", CONGRUENCE_ALGEBRAS, ids=lambda alg: alg.name)
def test_enumerated_congruences_match_reference(alg, scope):
    assert [c.blocks for c in enumerate_congruences(alg, scope)] == reference_congruences(alg, scope)


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
    got, expected = derive_divisions(n, carrier, table), reference_divisions(n, carrier, table)
    assert [list(t.items()) for t in got] == [list(t.items()) for t in expected]


@pytest.mark.parametrize("case", _division_cases()[1], ids=lambda case: "n=%d" % case[0])
def test_division_errors_match_reference(case):
    n, carrier, table = case
    with pytest.raises(NotAQuasigroupError) as expected:
        reference_divisions(n, carrier, table)
    with pytest.raises(NotAQuasigroupError) as got:
        derive_divisions(n, carrier, table)
    assert str(got.value) == str(expected.value)

