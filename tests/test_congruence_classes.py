"""Congruences of n-quasigroups with n >= 2 read off one class, with no
union-find, and a family of affine n-quasigroups whose congruences and
extension property are known.

Class oracle.  Let n >= 2 and let 0 be the first element.  For each y the
slot-1 translation t(x) = f(x, u, 0, .., 0), with u the unique element
for which t(0) = y, is a bijection and a unary polynomial of f, so it
maps each class of a congruence into one class.  It maps the class B of 0
into the class of y, and a translation back maps that class into B, so
all classes have |B| elements, |B| divides m, and the class of y is t(B).
So a congruence is fixed by B: for each d dividing m and each B of d
elements containing 0, the candidate classes are the sets t(B), and B
gives a congruence exactly when they partition the carrier and every
table of the scope maps classes into one class.  That is checked entry by
entry: each entry lies in the class of the entry at its arguments'
class representatives.  The oracle shares no code with
`algebras._closure` and is compared with `enumerate_congruences`.

Affine family.  Take an elementary abelian 2-group A = Z2^k and
f(x_1, .., x_n) = phi_1(x_1) + .. + phi_n(x_n) + c with each phi_i an
automorphism and n >= 2.  Its congruences are the coset partitions of
the subgroups M that every phi_i maps into M.  Such cosets are
compatible with f.  Conversely, x -> phi_1(x) + b is a polynomial for
every b (put a suitable element in slot 2 and 0 elsewhere); its powers
with b = 0 give x -> phi_1^(k-1)(x) for the order k of phi_1, and one more
step with any b gives x -> x + b.  A congruence is therefore invariant
under every translation, so it is the coset partition of the class M of
0, which is a subgroup (a ~ 0 and b ~ 0 give a + b ~ b ~ 0, and
-a ~ 0), and phi_i(M) ~ phi_i(0) in slot i gives phi_i(M) inside M.
This holds under f alone, so in both scopes on a finite carrier.

Every embedding of a coset a + W of an invariant subgroup W, closed
under f, into A has the congruence extension property.  The coset is
affine over W: f(a + w_1, .., a + w_n) = a + sum phi_i(w_i) + c' for
c' = sum phi_i(a) + c - a in W.  So its congruences are the partitions of
a + W by the cosets of the subgroups M of W that every phi_i maps into
M.  That condition does not depend on the group around W, so the cosets
of M in A are a congruence of A, and it restricts to the partition of
a + W by M.  Medial quasigroups are affine by the Toyoda-Bruck theorem,
so the family is the medial n-quasigroups over Z2^2 and Z2^3 whose
phi_i are block triangular, each leaving a flag of subgroups invariant.
"""

import itertools

import pytest

from nquasi.algebras import Embedding, algebra_from_function, cyclic_loop, enumerate_congruences
from nquasi.codescent import cep_by_enumeration, check_cep

from conftest import _dihedral8
from test_fast_paths import KERNEL_CASES, _kernel_id, kernel_algebra
from test_group_oracle import CASES, TARGET_FORMS, TARGET_GROUPS, TARGETS, as_algebra, closure


def partitions_of(congruences):
    return {frozenset(map(frozenset, c.blocks)) for c in congruences}


def translation_to(alg, y):
    """The slot-1 translation x -> f(x, u, 0, .., 0) that maps 0 to y, by names."""
    zero = alg.carrier[0]
    rest = (zero,) * (alg.n - 2)
    u = next(u for u in alg.carrier if alg.table_f[(zero, u, *rest)] == y)
    return {x: alg.table_f[(x, u, *rest)] for x in alg.carrier}


def congruences_by_class(alg, scope):
    """Every scope-congruence of an n-quasigroup with n >= 2 as a set of
    partitions, each a frozenset of frozensets of names, from the candidate
    classes of 0."""
    assert alg.n >= 2
    carrier, m = alg.carrier, alg.order
    translations = [translation_to(alg, y) for y in carrier]
    tables = [alg.table_f] + (list(alg.tables_g) if scope == "full" else [])
    found = set()
    for d in (d for d in range(1, m + 1) if m % d == 0):
        for rest in itertools.combinations(carrier[1:], d - 1):
            block = (carrier[0],) + rest
            cls = {y: frozenset(t[b] for b in block) for y, t in zip(carrier, translations)}
            if any(cls[z] != cls[y] for y in carrier for z in cls[y]):
                continue  # the candidate classes overlap: no partition
            rep = {y: min(cls[y], key=alg.index) for y in carrier}
            if all(
                rep[value] == rep[table[tuple(rep[a] for a in args)]]
                for table in tables
                for args, value in table.items()
            ):
                found.add(frozenset(cls.values()))
    return found


def group_oracle_algebras():
    """Every algebra of order at most 8 that `test_group_oracle.py` builds:
    the sources in each form and the targets of order 8, each table once."""
    groups = [sorted(subgroup) for _, _, subgroup in CASES]
    groups += [sorted(closure(gens, len(gens[0]))) for gens in TARGETS.values()]
    out = {}
    for form in ((2, "quasigroup"), (2, "loop"), (3, "quasigroup")):
        for members in groups:
            if len(members) <= 8:
                alg = as_algebra("G%d" % len(members), members, form)
                out.setdefault((alg.n, alg.kind, alg.flat_f), alg)
    return list(out.values())


def _s3(a, b):
    perms = list(itertools.permutations(range(3)))  # identity first
    return perms.index(tuple(perms[a][i] for i in perms[b]))


def _q8(a, b):
    # 2 * unit + sign, units 1, i, j, k: ij = k, jk = i, ki = j, ii = jj = kk = -1
    (u, s), (v, t) = divmod(a, 2), divmod(b, 2)
    if u == 0 or v == 0:
        return 2 * (u + v) + (s ^ t)
    if u == v:
        return s ^ t ^ 1
    return 2 * (6 - u - v) + (s ^ t ^ ((v - u) % 3 != 1))


def cep_workload_targets():
    """The order-6 to order-8 targets of the `cep` benchmark workload with
    n >= 2, rebuilt: groups in loop form, ternary cyclic loops and three
    affine quasigroups over Z8."""
    loop = lambda name, order, op: algebra_from_function(name, 2, "loop", [str(i) for i in range(order)], op, "0")
    out = [cyclic_loop(6), cyclic_loop(7), cyclic_loop(8)]
    out += [
        loop("Z2xZ4", 8, lambda a, b: ((a // 4 + b // 4) % 2) * 4 + (a + b) % 4),
        loop("Z2^3", 8, lambda a, b: a ^ b),
        loop("S3", 6, _s3),
        loop("D4", 8, _dihedral8),
        loop("Q8", 8, _q8),
    ]
    out += [cyclic_loop(6, 3, "Z6:n=3"), cyclic_loop(8, 3, "Z8:n=3")]
    for a, b, c in ((3, 1, 0), (1, 5, 1), (3, 5, 2)):
        op = lambda x, y, a=a, b=b, c=c: (a * x + b * y + c) % 8
        out.append(algebra_from_function("Aff%d%d%d" % (a, b, c), 2, "quasigroup", [str(i) for i in range(8)], op))
    return out


ORACLE_CASES = [pytest.param(alg, id="%s:%d:%s#%d" % (alg.name, alg.n, alg.kind, k)) for k, alg in enumerate(group_oracle_algebras())]
ORACLE_CASES += [pytest.param(kernel_algebra(*case), id=_kernel_id(case)) for case in KERNEL_CASES if case[0] >= 2 and case[1] <= 8]
ORACLE_CASES += [pytest.param(alg, id="cep:%s" % alg.name) for alg in cep_workload_targets()]


@pytest.mark.parametrize("scope", ["f", "full"])
@pytest.mark.parametrize("alg", ORACLE_CASES)
def test_enumerated_congruences_match_the_class_oracle(alg, scope):
    lattice = enumerate_congruences(alg, scope)
    assert len(partitions_of(lattice)) == len(lattice)
    assert partitions_of(lattice) == congruences_by_class(alg, scope)


def assert_the_target_matches_the_class_oracle(name, form, scope):
    alg = as_algebra(name, TARGET_GROUPS[name], form)
    lattice = enumerate_congruences(alg, scope)
    assert len(partitions_of(lattice)) == len(lattice)
    assert partitions_of(lattice) == congruences_by_class(alg, scope)


@pytest.mark.parametrize("scope", ["f", "full"])
@pytest.mark.parametrize("name, form", [p for p in TARGET_FORMS if 8 < len(TARGET_GROUPS[p.values[0]]) <= 16])
def test_group_target_congruences_of_orders_twelve_and_sixteen_match_the_class_oracle(name, form, scope):
    assert_the_target_matches_the_class_oracle(name, form, scope)


@pytest.mark.slow
def test_s4_congruences_match_the_class_oracle():
    # order 24: the oracle tries about 1.6 million candidate classes, such
    # as the C(23, 11) of size 12, for 30-50 s a scope and form
    assert_the_target_matches_the_class_oracle("S4", (2, "loop"), "full")


def test_the_class_oracle_covers_every_group_oracle_algebra_of_order_eight_at_most():
    algebras = group_oracle_algebras()
    assert {alg.order for alg in algebras} == {2, 3, 4, 6, 8}
    assert {(alg.n, alg.kind) for alg in algebras} == {(2, "quasigroup"), (2, "loop"), (3, "quasigroup")}


def test_the_cep_workload_targets_are_quasigroups_of_orders_six_to_eight():
    targets = cep_workload_targets()
    assert len(targets) == 13 and {alg.order for alg in targets} == {6, 7, 8}
    assert [len(enumerate_congruences(alg, "f")) for alg in targets if alg.name == "Z2^3"] == [16]


# ---------------------------------------------------------------------------
# affine n-quasigroups over Z2^2 and Z2^3


def linear_map(images):
    """The endomorphism of Z2^k (elements as bit vectors 0..2^k-1, + as
    xor) sending the j-th basis vector 1 << j to images[j]."""

    def phi(x):
        out = 0
        for j, image in enumerate(images):
            if x >> j & 1:
                out ^= image
        return out

    return phi


# images of the basis vectors e0 = 1, e1 = 2, e2 = 4 of block-triangular
# automorphisms: each fixes the flag of spans of the first basis vectors
# of its blocks
ID2, SHEAR2, ROTATE2 = (1, 2), (1, 3), (2, 3)  # Z2^2: blocks (1, 1), (1, 1), (2)
ID3 = (1, 2, 4)
SHEAR3 = (1, 3, 6)  # blocks (1, 1, 1): e1 -> e0 + e1, e2 -> e1 + e2
UPPER3 = (1, 2, 7)  # blocks (1, 1, 1): e2 -> e0 + e1 + e2
ROTATE_LOW3 = (2, 3, 4)  # blocks (2, 1): an order-3 rotation of <e0, e1>
ROTATE_HIGH3 = (1, 4, 7)  # blocks (1, 2): e0 fixed, an order-3 rotation modulo <e0>

AFFINE_FAMILY = [
    (2, (ID2, ID2), 0),
    (2, (ID2, SHEAR2), 1),
    (2, (SHEAR2, SHEAR2), 3),
    (2, (ROTATE2, ID2), 2),
    (2, (ID2, SHEAR2, ID2), 0),
    (2, (SHEAR2, ROTATE2, SHEAR2), 1),
    (3, (ID3, ID3), 0),
    (3, (ID3, SHEAR3), 5),
    (3, (SHEAR3, UPPER3), 2),
    (3, (ROTATE_LOW3, ID3), 4),
    (3, (ROTATE_HIGH3, SHEAR3), 7),
    (3, (ID3, UPPER3, ID3), 1),
    (3, (ROTATE_LOW3, ID3, SHEAR3), 6),
    (3, (ROTATE_HIGH3, ROTATE_HIGH3, UPPER3), 3),
]


def affine_algebra(k, images, c):
    phis = [linear_map(im) for im in images]
    name = "Aff[%s]+%d" % (";".join(",".join(map(str, im)) for im in images), c)

    def op(*xs):
        out = c
        for phi, x in zip(phis, xs):
            out ^= phi(x)
        return out

    return algebra_from_function(name, len(images), "quasigroup", [str(i) for i in range(2**k)], op)


def subgroups(k):
    """Every subgroup of Z2^k, by brute force over the subsets holding 0."""
    rest = range(1, 2**k)
    subsets = (frozenset((0,) + s) for r in range(2**k) for s in itertools.combinations(rest, r))
    return [s for s in subsets if all(a ^ b in s for a in s for b in s)]


def invariant_subgroups(k, images):
    phis = [linear_map(im) for im in images]
    return [w for w in subgroups(k) if all(phi(x) in w for phi in phis for x in w)]


def cosets(group, subgroup):
    return frozenset(frozenset(str(a ^ w) for w in subgroup) for a in group)


def _affine_id(case):
    k, images, c = case
    return "Z2^%d:n=%d:%s+%d" % (k, len(images), ";".join("".join(map(str, im)) for im in images), c)


def test_subgroup_counts():
    # 1 + 3 + 1 subgroups of Z2^2 and 1 + 7 + 7 + 1 of Z2^3
    assert [len(subgroups(k)) for k in (1, 2, 3)] == [2, 5, 16]


@pytest.mark.parametrize("case", AFFINE_FAMILY, ids=_affine_id)
def test_affine_congruences_are_the_cosets_of_the_invariant_subgroups(case):
    k, images, c = case
    alg = affine_algebra(k, images, c)
    invariant = invariant_subgroups(k, images)
    expected = {cosets(range(2**k), w) for w in invariant}
    for scope in ("f", "full"):
        lattice = enumerate_congruences(alg, scope)
        assert len(lattice) == len(invariant), scope
        assert partitions_of(lattice) == expected, scope


def test_affine_family_lattice_sizes():
    # the flags keep some subgroups invariant, and the family reaches from
    # the trivial lattice of the rotation to every subgroup of Z2^3
    sizes = [len(invariant_subgroups(k, images)) for k, images, _ in AFFINE_FAMILY]
    assert min(sizes) == 2 and max(sizes) == 16 and len(set(sizes)) >= 5


def coset_embeddings(k, images, c):
    """An embedding into the affine algebra of the first coset a + W closed
    under f, for each invariant subgroup W that has one."""
    target = affine_algebra(k, images, c)
    out = []
    for w in invariant_subgroups(k, images):
        for a in range(2**k):
            members = sorted(a ^ x for x in w)
            index = {x: i for i, x in enumerate(members)}
            values = [int(target.table_f[tuple(str(x) for x in xs)]) for xs in itertools.product(members, repeat=len(images))]
            if all(v in index for v in values):
                source = algebra_from_function(
                    "coset%d+%s" % (a, "".join(map(str, sorted(w)))),
                    len(images),
                    "quasigroup",
                    [str(i) for i in range(len(members))],
                    lambda *ix: index[int(target.table_f[tuple(str(members[i]) for i in ix)])],
                )
                out.append(Embedding(source, target, {str(i): str(x) for i, x in enumerate(members)}))
                break
    return out


@pytest.mark.parametrize("case", AFFINE_FAMILY, ids=_affine_id)
def test_every_coset_embedding_of_an_affine_family_member_has_the_extension_property(case):
    embeddings = coset_embeddings(*case)
    assert embeddings  # the whole carrier is a coset of itself
    for emb in embeddings:
        for scope in ("f", "full"):
            assert check_cep(emb, scope).verdict, (emb, scope)
            assert cep_by_enumeration(emb, scope)[0], (emb, scope)


def test_affine_family_has_proper_coset_embeddings():
    proper = [emb for case in AFFINE_FAMILY for emb in coset_embeddings(*case) if 1 < emb.source.order < emb.target.order]
    assert len(proper) >= 20
    assert {emb.source.order for emb in proper} == {2, 4}
