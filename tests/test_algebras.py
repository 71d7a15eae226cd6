import itertools
import json
import re

import pytest

from nquasi.algebras import (
    AlgebraError,
    CarrierTooLargeError,
    Embedding,
    FiniteAlgebra,
    InvalidAlgebraError,
    NotAQuasigroupError,
    algebra_from_function,
    algebra_from_json,
    algebra_to_json,
    cyclic_loop,
    derive_divisions,
    enumerate_congruences,
    extend,
    generated_congruence,
    permutation_quasigroup,
    restrict,
    validate_embedding,
)
from nquasi.codescent import (
    check_cep,
    identity_embedding,
    integer_partitions,
    latin_squares,
    permutation_from_cycle_type,
    quasigroup_from_square,
    sub_permutation_embeddings,
)
from nquasi.varieties import VarietySpec, generate_trs

from conftest import CONGRUENCE_ALGEBRAS, flat_table, order8_quasigroups, reversed_klein, steiner3


def brute_force_division(n, carrier, table_f, i):
    """Oracle: solve f(a_1..b..a_n) = a_i for b by exhaustive search."""
    out = {}
    for args in itertools.product(carrier, repeat=n):
        hits = [b for b in carrier if table_f[args[: i - 1] + (b,) + args[i:]] == args[i - 1]]
        assert len(hits) == 1
        out[args] = hits[0]
    return out


def rebuilt(alg):
    """The algebra built again from all its tables, which the constructor
    checks because the divisions are supplied."""
    return FiniteAlgebra(alg.name, alg.n, alg.kind, alg.carrier, alg.table_f, alg.tables_g, alg.identity)


class TestValidation:
    def test_cyclic_loop_is_valid(self, z3):
        assert rebuilt(z3).tables_g == z3.tables_g
        assert z3.identity == "0"

    def test_identity_is_discovered(self):
        alg = algebra_from_function("Z5", 2, "loop", [str(i) for i in range(5)],
                                    lambda a, b: (a + b) % 5)
        assert alg.identity == "0"

    def test_repeated_row_breaks_uniqueness(self):
        carrier = ("a", "b")
        table = {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
        tables_g = [dict(table), dict(table)]
        message = r"bad is not a valid quasigroup: f-of-division at \['a', 'b'\]"
        with pytest.raises(InvalidAlgebraError, match=message):
            FiniteAlgebra("bad", 2, "quasigroup", carrier, table, tables_g)

    def test_inconsistent_division_table(self, z3):
        broken = {k: ("1" if v == "0" else "0" if v == "1" else v)
                  for k, v in z3.tables_g[0].items()}
        with pytest.raises(InvalidAlgebraError, match="bad is not a valid quasigroup: f-of-division"):
            FiniteAlgebra("bad", 2, "quasigroup", z3.carrier, z3.table_f, [broken, z3.tables_g[1]])

    def test_division_copied_from_f_is_refused(self, z4):
        message = re.escape("Z4 is not a valid loop: f-of-division at ['0', '1']: "
                            "f(.., g1(..) ,..) gave '2', expected '0'")
        with pytest.raises(InvalidAlgebraError, match=message):
            FiniteAlgebra("Z4", 2, "loop", z4.carrier, z4.table_f, [z4.table_f] * 2, "0")

    def test_permutation_is_a_valid_unary_quasigroup(self):
        alg = permutation_quasigroup([1, 2, 0])
        assert rebuilt(alg).tables_g == alg.tables_g

    def test_missing_identity_rejected(self):
        with pytest.raises(AlgebraError):
            algebra_from_function("S", 2, "loop", ["0", "1", "2"],
                                  lambda a, b: (-a - b) % 3)

    def test_given_identity_must_satisfy_the_loop_law(self, z3):
        message = r"Z3 is not a valid loop: identity at \['0', '1'\]: f\('0', '1'\) = '1', expected '0'"
        with pytest.raises(AlgebraError, match=message):
            FiniteAlgebra("Z3", 2, "loop", z3.carrier, z3.table_f, z3.tables_g, identity="1")
        again = FiniteAlgebra("Z3", 2, "loop", z3.carrier, z3.table_f, z3.tables_g, identity="0")
        assert again.identity == "0"

    def test_steiner_quasigroup_valid(self, steiner):
        assert rebuilt(steiner).tables_g == steiner.tables_g

    def test_tables_must_be_total(self):
        with pytest.raises(AlgebraError):
            FiniteAlgebra("bad", 2, "quasigroup", ("a", "b"), {("a", "a"): "a"})

    @pytest.mark.parametrize(
        "func, entry",
        [(lambda i: (i + 1) % 3 - 1, "('2',) -> -1"), (lambda i: i + 1, "('2',) -> 3")],
        ids=["negative", "too-large"],
    )
    def test_value_index_outside_the_carrier_names_its_entry(self, func, entry):
        # a negative index must not wrap round to the end of the carrier
        with pytest.raises(AlgebraError, match=re.escape("f table entry %s is out of carrier" % entry)):
            algebra_from_function("P3", 1, "quasigroup", ["0", "1", "2"], func)


class TestDeriveDivisions:
    def test_cyclic_group_divisions(self, z3):
        for a in range(3):
            for b in range(3):
                assert z3.tables_g[0][str(a), str(b)] == str((a - b) % 3)
                assert z3.tables_g[1][str(a), str(b)] == str((b - a) % 3)

    def test_matches_brute_force_oracle(self, z4, steiner):
        for alg in (z4, steiner):
            for i in (1, 2):
                assert alg.tables_g[i - 1] == brute_force_division(
                    2, alg.carrier, alg.table_f, i
                )

    def test_unary_division_is_the_inverse_permutation(self):
        alg = permutation_quasigroup([2, 0, 1])
        assert alg.tables_g[0] == {("0",): "1", ("1",): "2", ("2",): "0"}

    def test_ternary_parity_sum(self):
        alg = algebra_from_function("Z2x3", 3, "loop", ["0", "1"],
                                    lambda a, b, c: (a + b + c) % 2)
        for args in alg.tuples():
            total = sum(int(a) for a in args) % 2
            assert alg.tables_g[0][args] == str(total)
        assert alg.tables_g[0] == brute_force_division(3, alg.carrier, alg.table_f, 1)

    def test_not_a_quasigroup(self):
        carrier = ("a", "b")
        table = {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
        # slot 1 solves everywhere; in slot 2 both elements solve f(a, b) = a
        with pytest.raises(NotAQuasigroupError, match=re.escape("slot 2: 2 solutions for ('a', 'a')")):
            derive_divisions(2, carrier, flat_table(2, carrier, table))

    @pytest.mark.parametrize(
        "alg",
        [
            cyclic_loop(4),
            algebra_from_function("T3", 3, "quasigroup", ["0", "1", "2"], lambda a, b, c: (a - b + 2 * c) % 3),
        ],
        ids=["loop", "ternary"],
    )
    def test_renamed_algebra_has_the_remapped_divisions(self, alg):
        mapping = {a: "x" + alg.carrier[(k + 1) % alg.order] for k, a in enumerate(alg.carrier)}
        remapped = [{tuple(map(mapping.get, args)): mapping[b] for args, b in tg.items()} for tg in alg.tables_g]
        assert list(alg.rename(mapping).tables_g) == remapped

    def test_renaming_that_misses_an_element_names_it(self):
        with pytest.raises(AlgebraError, match="renaming misses element '2'"):
            cyclic_loop(3).rename({"0": "a", "1": "b"})


class TestModelsSatisfyGeneratedRules:
    """Validated algebras must satisfy every rule of their variety's
    complete presentation, exhaustively over all assignments."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_cyclic_loops(self, order):
        self._check(cyclic_loop(order))

    def test_steiner_quasigroup(self, steiner):
        self._check(steiner)

    def test_ternary_loop(self):
        self._check(algebra_from_function("Z2/3", 3, "loop", ["0", "1"],
                                          lambda a, b, c: (a + b + c) % 2))

    def _check(self, alg):
        from nquasi.terms import variables

        trs = generate_trs(VarietySpec(alg.kind, alg.n, complete=True))
        for rule in trs.rules:
            names = sorted(variables(rule.lhs))
            for values in itertools.product(alg.carrier, repeat=len(names)):
                assignment = dict(zip(names, values))
                assert alg.eval_term(rule.lhs, assignment) == alg.eval_term(
                    rule.rhs, assignment
                ), "rule %s fails on %s in %s" % (rule.label, assignment, alg.name)


class TestPartitions:
    """Every partition of the carrier is an f-congruence of the identity
    permutation's 1-quasigroup."""

    def test_bell_numbers(self):
        counts = [len(enumerate_congruences(permutation_quasigroup(list(range(m))), "f")) for m in range(1, 9)]
        assert counts == [1, 2, 5, 15, 52, 203, 877, 4140]

    def test_blocks_cover_exactly(self):
        alg = permutation_quasigroup([0, 1, 2, 3])
        congs = enumerate_congruences(alg, "f")
        assert len({c.blocks for c in congs}) == 15
        for cong in congs:
            assert sorted(x for b in cong.blocks for x in b) == ["0", "1", "2", "3"]


class TestCongruences:
    def test_cyclic3_has_only_trivial_congruences(self, z3):
        congs = enumerate_congruences(z3)
        assert len(congs) == 2
        assert congs[0].labels == (0, 0, 0) and congs[-1].labels == (0, 1, 2)

    def test_cyclic4_congruences_match_subgroups(self, z4):
        congs = enumerate_congruences(z4)
        assert len(congs) == 3
        blocks = {c.blocks for c in congs}
        assert (("0", "2"), ("1", "3")) in blocks

    def test_lattice_is_sorted_by_names_not_indices(self):
        # sorted by index labels, the three middle congruences would come
        # in reverse order
        expected = ["{d,c,b,a}", "{d,a} | {c,b}", "{d,b} | {c,a}", "{d,c} | {b,a}", "{d} | {c} | {b} | {a}"]
        for scope in ("f", "full"):
            assert [str(c) for c in enumerate_congruences(reversed_klein(), scope)] == expected

    def test_singleton_has_exactly_one(self, trivial_loop):
        assert len(enumerate_congruences(trivial_loop)) == 1

    def test_carrier_bound(self):
        big = cyclic_loop(9)
        with pytest.raises(CarrierTooLargeError):
            enumerate_congruences(big)

    def test_full_scope_congruences_are_f_congruences(self):
        # On a finite carrier every f-congruence is compatible with every
        # division (the proof is in `check_cep`), so both scopes generate
        # the same congruence from every pair and have the same lattice.
        algebras = [
            quasigroup_from_square(square, "Q%d" % order)
            for order in range(1, 5)
            for square in latin_squares(order)
        ]
        algebras += CONGRUENCE_ALGEBRAS + order8_quasigroups(30, seed=8)
        algebras += [cyclic_loop(order, n) for order in range(1, 7) for n in range(1, 5)]
        for alg in algebras:
            for pair in itertools.combinations(alg.carrier, 2):
                f_cong = generated_congruence(alg, [pair], "f")
                assert f_cong.blocks == generated_congruence(alg, [pair], "full").blocks, (alg, pair)
            if alg.order <= 6:
                full = enumerate_congruences(alg, "full")
                assert [c.blocks for c in enumerate_congruences(alg, "f")] == [c.blocks for c in full]

    @pytest.mark.parametrize("alg", [cyclic_loop(1), cyclic_loop(3)], ids=["order1", "order3"])
    def test_unknown_scope_rejected_at_entry(self, alg):
        for call in (
            lambda: enumerate_congruences(alg, "g"),
            lambda: generated_congruence(alg, [], "g"),
            lambda: check_cep(identity_embedding(alg), "g"),
        ):
            with pytest.raises(AlgebraError, match="scope must be 'f' or 'full'"):
                call()

    def test_generated_empty_seed_is_identity(self, z4):
        assert generated_congruence(z4, []).labels == (0, 1, 2, 3)

    def test_generated_full_from_adjacent_pair(self, z3):
        assert generated_congruence(z3, [("0", "1")]).labels == (0, 0, 0)

    def test_generated_two_block_partition(self, z4):
        cong = generated_congruence(z4, [("0", "2")])
        assert cong.blocks == (("0", "2"), ("1", "3"))

    def test_generated_is_least(self, z4, z6):
        # the generated congruence refines every congruence containing its seed
        for alg in (z4, z6):
            congs = enumerate_congruences(alg)
            for a, b in itertools.combinations(range(alg.order), 2):
                gen = generated_congruence(alg, [(alg.carrier[a], alg.carrier[b])])
                for cong in congs:
                    if cong.labels[a] == cong.labels[b]:
                        # x and the least member of its gen-class share a cong-class
                        assert all(cong.labels[x] == cong.labels[k] for x, k in enumerate(gen.labels))

    def test_seed_outside_carrier_rejected(self, z3):
        with pytest.raises(AlgebraError):
            generated_congruence(z3, [("0", "7")])


class TestEmbeddings:
    def test_identity_embedding_ok(self, z4):
        emb = Embedding(z4, z4, {a: a for a in z4.carrier})
        assert validate_embedding(emb) is None

    def test_doubling_map_ok(self, z4):
        z2 = cyclic_loop(2)
        emb = Embedding(z2, z4, {"0": "0", "1": "2"})
        assert validate_embedding(emb) is None

    def test_non_homomorphism_rejected(self, z4):
        with pytest.raises(InvalidAlgebraError, match="invalid embedding: preserve-f at"):
            Embedding(cyclic_loop(2), z4, {"0": "0", "1": "1"})

    def test_every_embedding_preserves_every_division(self):
        # `validate_embedding` checks f only: a map preserving f preserves
        # each g_i by uniqueness of solutions.  Every map that builds is
        # compared against the division tables directly.
        def built(source, target):
            for images in itertools.permutations(target.carrier, source.order):
                try:
                    yield Embedding(source, target, dict(zip(source.carrier, images)))
                except InvalidAlgebraError:
                    pass

        squares2 = [quasigroup_from_square(sq, "Q2") for sq in latin_squares(2)]
        squares4 = [quasigroup_from_square(sq, "Q4") for sq in latin_squares(4)]
        binary = [e for s in squares2 for t in squares4 for e in built(s, t)]
        ternary = [
            e
            for order in range(2, 7)
            for k in range(1, order)
            if order % k == 0
            for e in built(cyclic_loop(k, 3), cyclic_loop(order, 3))
        ]
        unary = [
            e
            for order in range(2, 7)
            for perm in map(permutation_from_cycle_type, integer_partitions(order))
            for e in sub_permutation_embeddings(perm)
        ]
        for family in (binary, ternary, unary):
            assert family
            for emb in family:
                m = emb.mapping
                for source_g, target_g in zip(emb.source.tables_g, emb.target.tables_g):
                    for args, value in source_g.items():
                        assert target_g[tuple(map(m.__getitem__, args))] == m[value], (emb, args)
        assert (len(binary), len(ternary), len(unary)) == (192, 9, 238)

    def test_violation_of_a_mutated_embedding(self, z4):
        emb = Embedding(cyclic_loop(2), z4, {"0": "0", "1": "2"})
        emb.mapping["1"] = "0"
        assert validate_embedding(emb).axiom == "injectivity"

    def test_validation_reads_the_image_of_the_map_as_it_is(self, z4):
        # still injective, so only the image indices of the changed map see it
        emb = Embedding(cyclic_loop(2), z4, {"0": "0", "1": "2"})
        emb.mapping["1"] = "1"
        assert validate_embedding(emb).axiom == "preserve-f"
        assert emb.image == (0, 1)

    def test_non_injective_rejected(self, z4):
        with pytest.raises(InvalidAlgebraError, match="invalid embedding: injectivity"):
            Embedding(cyclic_loop(2), z4, {"0": "0", "1": "0"})

    def test_kind_mismatch_rejected(self, z4, steiner):
        with pytest.raises(InvalidAlgebraError, match="invalid embedding: shape"):
            Embedding(steiner, z4, {"0": "0", "1": "1", "2": "2"})

    def test_restrict_identity_and_full(self, z4):
        z2 = cyclic_loop(2)
        emb = Embedding(z2, z4, {"0": "0", "1": "2"})
        identity = generated_congruence(z4, [])
        full = generated_congruence(z4, [("0", "1")])
        assert identity.labels == (0, 1, 2, 3) and full.labels == (0, 0, 0, 0)
        assert restrict(identity, emb).labels == (0, 1)
        assert restrict(full, emb).labels == (0, 0)

    def test_restrict_pullback(self, z4):
        z2 = cyclic_loop(2)
        emb = Embedding(z2, z4, {"0": "0", "1": "2"})
        half = generated_congruence(z4, [("1", "3")])
        assert half.blocks == (("0", "2"), ("1", "3"))
        assert restrict(half, emb).labels == (0, 0)

    def test_restrict_refuses_a_congruence_off_the_target(self, z4, z6):
        # a congruence of another algebra, and one of the source itself
        z2 = cyclic_loop(2)
        emb = Embedding(z2, z4, {"0": "0", "1": "2"})
        for cong in (generated_congruence(z6, [("0", "3")]), generated_congruence(z2, [])):
            with pytest.raises(AlgebraError, match="congruence is not on the carrier of the target Z4"):
                restrict(cong, emb)

    def test_extend_refuses_a_congruence_off_the_source(self, z4, z6):
        # a congruence of another algebra, and one of the target itself
        emb = Embedding(cyclic_loop(2, name="Z2"), z4, {"0": "0", "1": "2"})
        for cong in (generated_congruence(z6, [("0", "3")]), generated_congruence(z4, [])):
            with pytest.raises(AlgebraError, match="congruence is not on the carrier of the source Z2"):
                extend(cong, emb)

    def test_extend_identity_and_full(self, z4):
        emb = Embedding(cyclic_loop(2), z4, {"0": "0", "1": "2"})
        full, identity = enumerate_congruences(emb.source, "f")  # fewest blocks first
        assert identity.labels == (0, 1) and full.labels == (0, 0)
        assert extend(identity, emb).labels == (0, 1, 2, 3)
        assert extend(full, emb) == generated_congruence(z4, [("0", "2")], "f")
        assert extend(full, emb).blocks == (("0", "2"), ("1", "3"))


class TestJsonFormat:
    def test_round_trip(self, z4):
        obj = algebra_to_json(z4)
        again = algebra_from_json(json.dumps(obj))
        assert again.carrier == z4.carrier
        assert again.table_f == z4.table_f
        assert again.tables_g == z4.tables_g
        assert again.identity == z4.identity

    def test_divisions_derived_when_absent(self, z3):
        obj = algebra_to_json(z3)
        del obj["g"]
        again = algebra_from_json(obj)
        assert again.tables_g == z3.tables_g

    def test_missing_field(self):
        with pytest.raises(AlgebraError):
            algebra_from_json({"name": "x", "n": 2, "kind": "loop"})

    @pytest.mark.parametrize("name", [["x"], {"a": 1}, 7, None])
    def test_non_string_name_rejected(self, z3, name):
        with pytest.raises(AlgebraError, match=re.escape("name must be a string, got %r" % (name,))):
            algebra_from_json(dict(algebra_to_json(z3), name=name))

    def test_malformed_table_shape(self, z3):
        obj = algebra_to_json(z3)
        obj["f"] = [["0", "1"], ["1", "2"]]
        with pytest.raises(AlgebraError):
            algebra_from_json(obj)

    @pytest.mark.parametrize("op, path, entry", [("f", (1, 2), "('1', '2')"), ("g1", (2, 0), "('2', '0')")])
    def test_name_outside_the_carrier_names_its_entry(self, z3, op, path, entry):
        obj = algebra_to_json(z3)
        table = obj["f"] if op == "f" else obj["g"][0]
        table[path[0]][path[1]] = "zz"
        with pytest.raises(AlgebraError, match=re.escape("%s table entry %s -> 'zz' is out of carrier" % (op, entry))):
            algebra_from_json(obj)

    def test_quasigroup_with_identity_rejected(self):
        obj = dict(algebra_to_json(steiner3()), e="zzz")
        with pytest.raises(AlgebraError, match="quasigroup has no identity"):
            algebra_from_json(obj)

    def test_steiner_fixture_round_trips(self):
        alg = steiner3()
        again = algebra_from_json(algebra_to_json(alg))
        assert again.table_f == alg.table_f
        assert again.identity is None


def test_eval_term_with_identity_constant(z3):
    from nquasi.terms import App, Elem

    assert z3.eval_term(App("f", (App("e"), Elem("2")))) == "2"
    assert z3.eval_term(App("g1", (Elem("0"), Elem("1")))) == "2"


@pytest.mark.parametrize(
    "symbol, args",
    [("g0", "12"), ("e", "1"), ("g3", "12"), ("gx", "12"), ("f", "1")],
    ids=["g0(1,2)", "e(1)", "g3(1,2)", "gx(1,2)", "f(1)"],
)
def test_eval_term_rejects_what_is_no_operation_at_its_arity(z3, symbol, args):
    from nquasi.terms import App, Elem

    with pytest.raises(AlgebraError, match="no operation '%s'" % symbol):
        z3.eval_term(App(symbol, tuple(map(Elem, args))))


@pytest.mark.parametrize("value", ["zz", ["0"]], ids=["unknown", "unhashable"])
def test_eval_term_refuses_an_assigned_value_outside_the_carrier(z3, value):
    from nquasi.terms import App, Elem, Var

    with pytest.raises(AlgebraError, match="is not an element of"):
        z3.eval_term(App("f", (Var("x"), Elem("0"))), {"x": value})
