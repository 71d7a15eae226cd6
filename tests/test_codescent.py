import json
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nquasi import codescent
from nquasi.algebras import (
    CarrierTooLargeError,
    Embedding,
    FiniteAlgebra,
    InvalidAlgebraError,
    algebra_from_function,
    algebra_from_json,
    algebra_to_json,
    cyclic_loop,
    enumerate_congruences,
    permutation_quasigroup,
)
from nquasi.codescent import (
    cep_by_enumeration,
    check_cep,
    identity_embedding,
    integer_partitions,
    is_effective_codescent,
    latin_squares,
    permutation_from_cycle_type,
    quasigroup_from_square,
    search_noncep_monomorphism,
    sub_permutation_embeddings,
    verify_prop_3_6,
)

from conftest import cep_fixtures, child_env, klein_in_dihedral8, random_latin_square

CEP_FIXTURES = cep_fixtures()


def doubling(source_order, target_order, factor):
    return Embedding(
        cyclic_loop(source_order),
        cyclic_loop(target_order),
        {str(i): str(i * factor) for i in range(source_order)},
    )


class TestCheckCep:
    def test_identity_embedding_holds(self, z4):
        report = check_cep(identity_embedding(z4))
        assert report.verdict and report.failing is None
        assert len(report.witnesses) == 3  # one per congruence on Z4

    def test_singleton_source_holds(self, trivial_loop, z3):
        emb = Embedding(trivial_loop, z3, {"0": "0"})
        assert check_cep(emb).verdict

    def test_doubling_map_holds_in_both_scopes(self):
        emb = doubling(2, 4, 2)
        assert check_cep(emb, scope="full").verdict
        assert check_cep(emb, scope="f").verdict

    def test_witnesses_round_trip(self):
        emb = doubling(3, 6, 2)
        report = check_cep(emb)
        for source_cong, extension, back in report.witnesses:
            assert back.blocks == source_cong.blocks

    def test_invalid_embedding_rejected(self, z4):
        with pytest.raises(InvalidAlgebraError, match="invalid embedding: preserve-f"):
            Embedding(cyclic_loop(2), z4, {"0": "0", "1": "1"})

    def test_effective_codescent_uses_full_scope(self, z4):
        report = is_effective_codescent(identity_embedding(z4))
        assert report.scope == "full" and report.verdict


class TestKnownFailure:
    """A non-central Klein four-subgroup V4 of D4 does not have the CEP: the
    congruence of V4 by <s> generates on D4 the congruence by the normal
    closure of <s>, which is V4 itself, so it restricts to the full one."""

    @pytest.mark.parametrize("subgroup", [(0, 2, 4, 6), (0, 2, 5, 7)])
    @pytest.mark.parametrize("n, kind", [(2, "quasigroup"), (2, "loop"), (3, "quasigroup")])
    def test_klein_subgroup_of_dihedral_group_fails(self, subgroup, n, kind):
        source, target, mapping = klein_in_dihedral8(subgroup, n, kind)
        for alg in (source, target):  # rebuilt from all its tables, so checked
            assert algebra_from_json(algebra_to_json(alg)).tables_g == alg.tables_g
        emb = Embedding(source, target, mapping)
        report = check_cep(emb)
        assert not report.verdict
        assert report.failing.blocks == (("0", "2"), ("1", "3"))
        back = {cong: restricted for cong, _extension, restricted in report.witnesses}
        assert back[report.failing].labels == (0, 0, 0, 0)
        verdict, per_congruence = cep_by_enumeration(emb)
        assert not verdict
        assert next(cong for cong, ok in per_congruence if not ok) == report.failing


def witness_blocks(report):
    return [(cong.blocks, ext.blocks, back.blocks) for cong, ext, back in report.witnesses]


@pytest.mark.parametrize("emb", [emb for _, emb in CEP_FIXTURES], ids=[label for label, _ in CEP_FIXTURES])
def test_both_scopes_give_the_same_report(emb):
    f_report, full_report = check_cep(emb, "f"), check_cep(emb, "full")
    assert (f_report.scope, full_report.scope) == ("f", "full")
    assert f_report.verdict == full_report.verdict
    assert f_report.failing == full_report.failing
    assert witness_blocks(f_report) == witness_blocks(full_report)


def relabelled(alg, perm):
    """The algebra with element k renamed str(perm[k]) and the carrier
    listed in the new names' order, so enumeration order follows too."""
    names = {a: str(perm[k]) for k, a in enumerate(alg.carrier)}
    move = lambda table: {tuple(names[a] for a in key): names[v] for key, v in table.items()}
    identity = None if alg.identity is None else names[alg.identity]
    carrier = [str(k) for k in range(alg.order)]
    return FiniteAlgebra(alg.name, alg.n, alg.kind, carrier, move(alg.table_f), list(map(move, alg.tables_g)), identity), names


def failing_partitions(report, rename=lambda a: a):
    return {
        frozenset(frozenset(map(rename, block)) for block in cong.blocks)
        for cong, _extension, back in report.witnesses
        if back.blocks != cong.blocks
    }


@pytest.mark.parametrize("emb", [emb for _, emb in CEP_FIXTURES], ids=[label for label, _ in CEP_FIXTURES])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_relabelling_keeps_the_decision(emb, data):
    # V4 -> D4 fails, so its failing set is non-empty; the set, not the first
    # failure, is compared, because enumeration order follows the names
    source, s_names = relabelled(emb.source, data.draw(st.permutations(range(emb.source.order))))
    target, t_names = relabelled(emb.target, data.draw(st.permutations(range(emb.target.order))))
    moved = Embedding(source, target, {s_names[a]: t_names[b] for a, b in emb.mapping.items()})
    original = failing_partitions(check_cep(emb), s_names.__getitem__)
    for scope in ("f", "full"):
        report = check_cep(moved, scope)
        assert report.verdict == (not original)
        assert failing_partitions(report) == original


class TestOracleEquivalence:
    @pytest.mark.parametrize("scope", ["f", "full"])
    def test_fixture_embeddings(self, scope, trivial_loop, z3):
        fixtures = [
            identity_embedding(z3),
            identity_embedding(cyclic_loop(4)),
            Embedding(trivial_loop, z3, {"0": "0"}),
            doubling(2, 4, 2),
            doubling(2, 6, 3),
            doubling(3, 6, 2),
        ]
        for emb in fixtures:
            report = check_cep(emb, scope=scope)
            oracle_verdict, per_congruence = cep_by_enumeration(emb, scope=scope)
            assert report.verdict == oracle_verdict
            by_blocks = {cong.blocks: ok for cong, ok in per_congruence}
            for source_cong, _ext, back in report.witnesses:
                assert (back.blocks == source_cong.blocks) == by_blocks[source_cong.blocks]


class TestProp36:
    def test_partition_counts(self):
        assert sum(1 for _ in integer_partitions(6)) == 11
        assert list(integer_partitions(3)) == [(3,), (2, 1), (1, 1, 1)]

    def test_cycle_type_layout(self):
        assert permutation_from_cycle_type((3,)) == (1, 2, 0)
        assert permutation_from_cycle_type((2, 2)) == (1, 0, 3, 2)
        assert permutation_from_cycle_type((1, 1)) == (0, 1)

    def test_three_cycle_congruence_count(self):
        # only the identity and full partitions commute with a 3-cycle
        from nquasi.algebras import enumerate_congruences

        alg = permutation_quasigroup([1, 2, 0])
        f_congs = enumerate_congruences(alg, scope="f")
        assert len(f_congs) == 2
        full_congs = enumerate_congruences(alg, scope="full")
        assert {c.blocks for c in f_congs} == {c.blocks for c in full_congs}

    def test_identity_permutation_everything_compatible(self):
        from nquasi.algebras import enumerate_congruences

        alg = permutation_quasigroup([0, 1, 2])
        assert len(enumerate_congruences(alg, scope="full")) == 5  # Bell(3)

    def test_small_orders_ok(self):
        assert verify_prop_3_6(4) is None

    def test_bound_guard(self):
        # the identity permutation of order 9 has Bell(9) = 21,147 congruences
        with pytest.raises(CarrierTooLargeError, match=re.escape("congruence lattice exceeded cap 4140: ")):
            verify_prop_3_6(9)

    def test_order_eight_holds(self):
        assert verify_prop_3_6(8) is None

    def test_counterexample_is_reported(self, monkeypatch):
        # With g1 the shift a -> a+1 in place of the inverse, {0,1} | {2}
        # is compatible with the transposition (0 1) but not with g1.
        def shifted_division(perm):
            alg = permutation_quasigroup(perm)
            alg.flat_g = (tuple((i + 1) % alg.order for i in range(alg.order)),)
            return alg

        monkeypatch.setattr(codescent, "permutation_quasigroup", shifted_division)
        found = verify_prop_3_6(3)
        assert (found.order, found.permutation, found.blocks) == (3, (1, 0, 2), ((0, 1), (2,)))


def block_sizes(alg, scope):
    return [{len(b) for b in cong.blocks} for cong in enumerate_congruences(alg, scope)]


class TestUniformBlocks:
    """For n >= 2 every congruence of a finite n-quasigroup has blocks of
    one size, so a prime-order quasigroup has only the trivial and the full
    congruence (the lemma in `search_noncep_monomorphism`)."""

    @pytest.mark.parametrize("scope", ["f", "full"])
    def test_every_order_4_square(self, scope):
        for square in latin_squares(4):
            assert all(len(sizes) == 1 for sizes in block_sizes(quasigroup_from_square(square, "Q"), scope))

    @pytest.mark.parametrize("scope", ["f", "full"])
    @pytest.mark.parametrize("order", [5, 6])
    def test_seeded_squares(self, order, scope):
        rng = random.Random(order)
        for _ in range(20):
            alg = quasigroup_from_square(random_latin_square(order, rng), "Q")
            sizes = block_sizes(alg, scope)
            assert all(len(s) == 1 for s in sizes)
            if order == 5:
                assert len(sizes) == 2

    @pytest.mark.parametrize("scope", ["f", "full"])
    def test_cyclic_loops(self, scope):
        # random order-6 squares rarely have a proper congruence; Z6 has two
        assert sorted(map(sorted, block_sizes(cyclic_loop(6), scope))) == [[1], [2], [3], [6]]
        assert block_sizes(cyclic_loop(3, 3), scope) == [{3}, {1}]
        assert sorted(map(sorted, block_sizes(cyclic_loop(4, 3), scope))) == [[1], [2], [4]]

    @pytest.mark.parametrize("order", [2, 3])
    def test_prime_order_squares_have_two_congruences(self, order):
        for square in latin_squares(order):
            alg = quasigroup_from_square(square, "Q")
            for scope in ("f", "full"):
                assert len(enumerate_congruences(alg, scope)) == 2

    def test_unary_counterexample(self):
        alg = permutation_quasigroup([0, 1, 2])
        for scope in ("f", "full"):
            blocks = {c.blocks for c in enumerate_congruences(alg, scope)}
            assert (("0", "1"), ("2",)) in blocks


class TestUnaryEffectiveness:
    def test_all_small_unary_embeddings_are_effective(self):
        # cycle unions embedded into permutation quasigroups, orders <= 5
        for cycle_type in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 2, 1), (4, 1)]:
            perm = permutation_from_cycle_type(cycle_type)
            for emb in sub_permutation_embeddings(perm):
                report = is_effective_codescent(emb)
                assert report.verdict, "failed for %s inside %s" % (
                    emb.source.name,
                    list(perm),
                )

    def test_unary_oracle_agreement(self):
        perm = permutation_from_cycle_type((2, 2))
        for emb in sub_permutation_embeddings(perm):
            assert cep_by_enumeration(emb)[0] == check_cep(emb).verdict


class TestSearch:
    def test_latin_square_counts(self):
        assert sum(1 for _ in latin_squares(1)) == 1
        assert sum(1 for _ in latin_squares(2)) == 2
        assert sum(1 for _ in latin_squares(3)) == 12
        assert sum(1 for _ in latin_squares(4)) == 576

    @pytest.mark.parametrize("order", [-1, -5])
    def test_latin_squares_refuse_a_negative_order(self, order):
        with pytest.raises(ValueError, match="order must be nonnegative, got %d" % order):
            next(latin_squares(order))

    @pytest.mark.parametrize("order", [-1, -3])
    def test_scans_refuse_a_negative_max_order(self, order):
        # a bound that checks nothing must not read as "no counterexample"
        with pytest.raises(ValueError, match="^max_order must be nonnegative, got %d$" % order):
            search_noncep_monomorphism(order)
        with pytest.raises(ValueError, match="^max_order must be nonnegative, got %d$" % order):
            verify_prop_3_6(order)

    def test_scans_accept_a_zero_max_order(self):
        assert search_noncep_monomorphism(0) == (None, {"squares": 0, "targets": 0, "sources": 0, "embeddings": 0})
        assert verify_prop_3_6(0) is None

    def test_squares_become_valid_quasigroups(self):
        for k, square in enumerate(latin_squares(4)):
            if k % 97 == 0:  # sample; supplied divisions are checked
                q = quasigroup_from_square(square, "Q")
                FiniteAlgebra("Q", 2, "quasigroup", q.carrier, q.table_f, q.tables_g)

    def test_search_small_orders_finds_nothing(self):
        found, stats = search_noncep_monomorphism(4)
        assert found is None
        assert stats["squares"] == 2 + 12 + 576
        assert stats["embeddings"] > 0

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize(
        "call, name",
        [
            (search_noncep_monomorphism, "max_order"),
            (verify_prop_3_6, "max_order"),
            (lambda order: next(latin_squares(order)), "order"),
        ],
        ids=["search_noncep_monomorphism", "verify_prop_3_6", "latin_squares"],
    )
    def test_an_order_that_is_no_integer_is_refused(self, call, name, value):
        # 2.5 failed inside range with a TypeError, and True ran as order 1
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == "%s must be an integer, got %r" % (name, value)

    def test_search_refuses_order_six_before_enumerating(self, monkeypatch):
        def no_squares(order):
            raise AssertionError("order-%d squares enumerated" % order)

        monkeypatch.setattr(codescent, "latin_squares", no_squares)
        with pytest.raises(ValueError, match="max_order above 5 is out of enumeration range"):
            search_noncep_monomorphism(6)

    def test_steiner_subquasigroup_is_found_and_passes(self, steiner):
        # {0} is closed under f(a,b) = -(a+b); its embedding trivially extends
        sub = algebra_from_function("S1", 2, "quasigroup", ["0"], lambda a, b: 0)
        emb = Embedding(sub, steiner, {"0": "0"})
        assert check_cep(emb).verdict


# The three holding embeddings whose `nq codescent --json` reports are
# compared under two hash seeds in CI: Z2 in Z4, the identity of Z2^3 (16
# congruences) and the ternary Z2 in Z6.  Their reports give only counts,
# so the child prints each lattice in the order it is listed.
LATTICE_ORDER_CHILD = """
import json
from nquasi.algebras import Embedding, algebra_from_function, cyclic_loop, enumerate_congruences
from nquasi.codescent import check_cep

z2cubed = algebra_from_function("Z2^3", 2, "loop", "01234567", lambda a, b: a ^ b, identity="0")
embeddings = [
    Embedding(cyclic_loop(2), cyclic_loop(4), {"0": "0", "1": "2"}),
    Embedding(z2cubed, z2cubed, {a: a for a in "01234567"}),
    Embedding(cyclic_loop(2, 3), cyclic_loop(6, 3), {"0": "0", "1": "3"}),
]
out = []
for emb in embeddings:
    for scope in ("full", "f"):
        report = check_cep(emb, scope)
        out.append([report.verdict, [str(c) for c, _, _ in report.witnesses]])
        out.append([str(c) for c in enumerate_congruences(emb.target, scope)])
print(json.dumps(out))
"""


def test_lattice_order_does_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        env = dict(child_env(), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", LATTICE_ORDER_CHILD], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    reports = json.loads(outputs[0])[::2]
    assert all(verdict for verdict, _witnesses in reports)
    assert [len(witnesses) for _verdict, witnesses in reports] == [2, 2, 16, 16, 2, 2]
