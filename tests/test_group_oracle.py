"""A congruence-extension oracle from group theory, independent of the
union-find kernel.

A group is a binary quasigroup by its Cayley table, a loop with its
identity, and a ternary quasigroup with f(x, y, z) = xyz.  In each form
its congruences are the coset partitions of its normal subgroups: a group
congruence is compatible with the product and with the divisions
x\\y = x^-1 y and x/y = x y^-1, and a congruence of the ternary form is
compatible with the polynomial f(x, y, e) = xy.  The restriction of the
partition by M to a subgroup H is the partition by M & H, and the least
normal subgroup of G containing N is its normal closure N^G.  So H -> G
has the congruence extension property exactly when N^G & H = N for every
normal subgroup N of H.

Groups are built from permutation generators by closure, and subgroups as
joins of cyclic ones, with no library.
"""

import pytest

from nquasi.algebras import Embedding, algebra_from_function, enumerate_congruences
from nquasi.codescent import check_cep


def compose(p, q):
    """p after q."""
    return tuple(p[i] for i in q)


def inverse(p):
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


def closure(generators, degree):
    """The subgroup generated by some permutations of `degree` points."""
    found = {tuple(range(degree))}
    frontier = list(found)
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = compose(p, g)
            if q not in found:
                found.add(q)
                frontier.append(q)
    return frozenset(found)


def subgroups(group):
    """Every subgroup, as the joins of the cyclic subgroups: each subgroup is
    the join of the cyclic subgroups of its elements."""
    degree = len(next(iter(group)))
    cyclic = {closure([g], degree) for g in group}
    found = set(cyclic)
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for c in cyclic:
            if not c <= h:
                joined = closure(h | c, degree)
                if joined not in found:
                    found.add(joined)
                    frontier.append(joined)
    return found


def normal_closure(subgroup, group):
    degree = len(next(iter(group)))
    return closure({compose(compose(g, n), inverse(g)) for g in group for n in subgroup}, degree)


def is_normal(subgroup, group):
    return normal_closure(subgroup, group) == subgroup


def cep_by_normal_closure(subgroup, group):
    return all(
        normal_closure(n, group) & subgroup == n
        for n in subgroups(subgroup)
        if is_normal(n, subgroup)
    )


def as_algebra(name, elements, form):
    """The group on `elements` (sorted, the identity first) as an algebra on
    {"0", "1", ...} in one of the forms (n, kind)."""
    n, kind = form
    index = {p: k for k, p in enumerate(elements)}

    def product(*ix):
        acc = elements[0]
        for i in ix:
            acc = compose(acc, elements[i])
        return index[acc]

    identity = "0" if kind == "loop" else None
    return algebra_from_function(name, n, kind, [str(k) for k in range(len(elements))], product, identity)


def cycle(*points, degree):
    p = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        p[a] = b
    return tuple(p)


def dihedral(m):
    return [cycle(*range(m), degree=m), tuple((-i) % m for i in range(m))]


TARGETS = {
    "S4": [cycle(0, 1, degree=4), cycle(0, 1, 2, 3, degree=4)],
    "A4": [cycle(0, 1, 2, degree=4), cycle(1, 2, 3, degree=4)],
    "D4": dihedral(4),
    "D6": dihedral(6),
    "D8": dihedral(8),
    "Z2^4": [cycle(2 * k, 2 * k + 1, degree=8) for k in range(4)],
    "Z4xZ4": [cycle(0, 1, 2, 3, degree=8), cycle(4, 5, 6, 7, degree=8)],
    "D4xZ2": [p + (4, 5) for p in dihedral(4)] + [cycle(4, 5, degree=6)],
}
ORDERS = {"S4": 24, "A4": 12, "D4": 8, "D6": 12, "D8": 16, "Z2^4": 16, "Z4xZ4": 16, "D4xZ2": 16}

BINARY, LOOP, TERNARY = (2, "quasigroup"), (2, "loop"), (3, "quasigroup")
FORMS = pytest.mark.parametrize("form", [BINARY, LOOP, TERNARY], ids=["binary", "loop", "ternary"])


def in_reach(elements, form):
    # ternary tables have |G|^3 entries: targets of order <= 12 keep tier-1
    # fast, and the `slow` test covers the rest
    return form != TERNARY or len(elements) <= 12


def group_cases():
    """(target name, target elements, subgroup) for every proper non-trivial
    subgroup of order at most 8 of every target."""
    out = []
    for name, generators in TARGETS.items():
        group = closure(generators, len(generators[0]))
        assert len(group) == ORDERS[name]
        for h in sorted(subgroups(group), key=lambda h: (len(h), sorted(h))):
            if 1 < len(h) <= 8 and h != group:
                out.append((name, sorted(group), h))
    return out


CASES = group_cases()


def embedding(target, elements, subgroup, form):
    members = sorted(subgroup)
    source = as_algebra("H%d" % len(members), members, form)
    position = {p: k for k, p in enumerate(elements)}
    return Embedding(source, target, {str(k): str(position[p]) for k, p in enumerate(members)})


def agreement_counts(form, cases):
    """Assert that `check_cep` agrees with the criterion in both scopes on
    each case; return how many embeddings were checked and how many of
    them lack the extension property."""
    checked = failing = 0
    targets = {}
    for target_name, elements, subgroup in cases:
        if target_name not in targets:
            targets[target_name] = as_algebra(target_name, elements, form)
        expected = cep_by_normal_closure(subgroup, frozenset(elements))
        emb = embedding(targets[target_name], elements, subgroup, form)
        for scope in ("f", "full"):
            assert check_cep(emb, scope).verdict == expected, (target_name, sorted(subgroup), scope)
        checked += 1
        failing += not expected
    print("%d embeddings, %d without the extension property" % (checked, failing))
    return checked, failing


@FORMS
def test_check_cep_agrees_with_the_normal_closure_criterion(form):
    cases = [case for case in CASES if in_reach(case[1], form)]
    assert agreement_counts(form, cases) == {BINARY: (185, 22), LOOP: (185, 22), TERNARY: (30, 3)}[form]


@pytest.mark.slow
def test_check_cep_agrees_with_the_normal_closure_criterion_on_every_ternary_target():
    assert agreement_counts(TERNARY, CASES) == (185, 22)


@FORMS
def test_congruences_are_normal_subgroup_cosets(form):
    # every source subgroup once, with its congruences enumerated on the
    # union-find kernel and read off its normal subgroups
    seen = set()
    for _target_name, elements, subgroup in CASES:
        members = sorted(subgroup)
        if subgroup in seen or not in_reach(elements, form):
            continue
        seen.add(subgroup)
        algebra = as_algebra("H", members, form)
        position = {p: str(k) for k, p in enumerate(members)}
        expected = set()
        for n in subgroups(subgroup):
            if is_normal(n, subgroup):
                cosets = {frozenset(compose(h, x) for x in n) for h in members}
                expected.add(frozenset(frozenset(map(position.__getitem__, c)) for c in cosets))
        for scope in ("f", "full"):
            found = {frozenset(map(frozenset, c.blocks)) for c in enumerate_congruences(algebra, scope)}
            assert found == expected, (members, scope)
