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

import functools

import pytest

from nquasi.algebras import Embedding, algebra_from_function, enumerate_congruences
from nquasi.codescent import cep_by_enumeration, check_cep


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


def check_cep_verdict(emb, scope):
    return check_cep(emb, scope).verdict


def enumeration_verdict(emb, scope):
    return cep_by_enumeration(emb, scope)[0]


def agreement_counts(form, cases, deciders=(check_cep_verdict,)):
    """Assert that each decider (`check_cep` by default) agrees with the
    criterion in both scopes on each case; return how many embeddings were
    checked and how many of them lack the extension property."""
    checked = failing = 0
    targets = {}
    for target_name, elements, subgroup in cases:
        if target_name not in targets:
            targets[target_name] = as_algebra(target_name, elements, form)
        expected = cep_by_normal_closure(subgroup, frozenset(elements))
        emb = embedding(targets[target_name], elements, subgroup, form)
        for scope in ("f", "full"):
            for decide in deciders:
                assert decide(emb, scope) == expected, (target_name, sorted(subgroup), scope, decide.__name__)
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


def direct_product(a, b):
    """Generators of the product of two permutation groups, acting on
    disjoint points, the second group's after the first's."""
    da, db = len(a[0]), len(b[0])
    return [p + tuple(range(da, da + db)) for p in a] + [tuple(range(da)) + tuple(da + x for x in q) for q in b]


S3 = [cycle(0, 1, degree=3), cycle(0, 1, 2, degree=3)]
# target: (generators, order, embeddings, embeddings without the extension
# property), over every proper non-trivial subgroup in the binary and loop
# forms; their ternary tables reach 1.7 million entries at S5, so no
# ternary form is checked
LARGE_TARGETS = {
    "S3xS3": (direct_product(S3, S3), 36, 58, 2),
    "A5": ([cycle(0, 1, 2, degree=5), cycle(0, 1, 2, 3, 4, degree=5)], 60, 57, 26),
    "Z2wrZ4": ([cycle(0, 1, degree=8), tuple((i + 2) % 8 for i in range(8))], 64, 127, 78),
    "D4xD4": (direct_product(dihedral(4), dihedral(4)), 64, 387, 129),
    "S5": ([cycle(0, 1, degree=5), cycle(0, 1, 2, 3, 4, degree=5)], 120, 154, 87),
}


@functools.lru_cache(maxsize=None)
def large_target_cases(name):
    """(target name, target elements, subgroup) for every proper non-trivial
    subgroup of a large target."""
    generators, order = LARGE_TARGETS[name][:2]
    group = closure(generators, len(generators[0]))
    assert len(group) == order
    ordered = sorted(subgroups(group), key=lambda h: (len(h), sorted(h)))
    return [(name, sorted(group), h) for h in ordered if 1 < len(h) and h != group]


LARGE_TARGET_FORMS = [
    # orders 36 and 60 take under a second a form, 64 and 120 take 3-21 s
    pytest.param(name, form, id="%s:%s" % (name, form_id), marks=[pytest.mark.slow] if LARGE_TARGETS[name][1] > 60 else [])
    for name in LARGE_TARGETS
    for form, form_id in ((BINARY, "binary"), (LOOP, "loop"))
]


@pytest.mark.parametrize("name, form", LARGE_TARGET_FORMS)
def test_check_cep_agrees_with_the_normal_closure_criterion_above_order_24(name, form):
    assert agreement_counts(form, large_target_cases(name)) == LARGE_TARGETS[name][2:]


@pytest.mark.parametrize("form", [BINARY, LOOP], ids=["binary", "loop"])
def test_the_enumeration_oracle_agrees_with_check_cep_and_the_criterion(form):
    # cep_by_enumeration builds every target's lattice, up to S4 of order 24
    assert agreement_counts(form, CASES, (check_cep_verdict, enumeration_verdict)) == (185, 22)


def normal_coset_partitions(members):
    """The coset partitions of the normal subgroups of the group on the
    sorted `members`, in the element names of `as_algebra`."""
    group = frozenset(members)
    position = {p: str(k) for k, p in enumerate(members)}
    expected = set()
    for n in subgroups(group):
        if is_normal(n, group):
            cosets = {frozenset(compose(h, x) for x in n) for h in members}
            expected.add(frozenset(frozenset(map(position.__getitem__, c)) for c in cosets))
    return expected


def assert_lattice_is_normal_subgroup_cosets(members, form):
    algebra = as_algebra("H", members, form)
    expected = normal_coset_partitions(members)
    for scope in ("f", "full"):
        found = {frozenset(map(frozenset, c.blocks)) for c in enumerate_congruences(algebra, scope)}
        assert found == expected, (members, scope)


@FORMS
def test_congruences_are_normal_subgroup_cosets(form):
    # every source subgroup once, with its congruences enumerated on the
    # union-find kernel and read off its normal subgroups
    seen = set()
    for _target_name, elements, subgroup in CASES:
        if subgroup in seen or not in_reach(elements, form):
            continue
        seen.add(subgroup)
        assert_lattice_is_normal_subgroup_cosets(sorted(subgroup), form)


TARGET_GROUPS = {name: sorted(closure(generators, len(generators[0]))) for name, generators in TARGETS.items()}
TARGET_FORMS = [
    pytest.param(name, form, id="%s:%s" % (name, form_id))
    for name in TARGETS
    for form, form_id in ((BINARY, "binary"), (LOOP, "loop"), (TERNARY, "ternary"))
]


@pytest.mark.parametrize("name, form", [p for p in TARGET_FORMS if in_reach(TARGET_GROUPS[p.values[0]], p.values[1])])
def test_target_congruences_are_normal_subgroup_cosets(name, form):
    # the targets, of orders 8 to 24, in the forms that keep tier-1 fast
    assert_lattice_is_normal_subgroup_cosets(TARGET_GROUPS[name], form)


@pytest.mark.slow
@pytest.mark.parametrize("name, form", [p for p in TARGET_FORMS if not in_reach(TARGET_GROUPS[p.values[0]], p.values[1])])
def test_ternary_target_congruences_above_order_twelve_are_normal_subgroup_cosets(name, form):
    assert_lattice_is_normal_subgroup_cosets(TARGET_GROUPS[name], form)
