import itertools
from random import Random

import pytest

from nquasi.algebras import AlgebraError, Embedding, algebra_from_function, cyclic_loop
from nquasi.amalgams import (
    AmalgamElement,
    AmalgamError,
    UnknownElementError,
    amalgam_steps,
    apply_op,
    build_amalgam,
    check_strong_amalgamation,
    check_unique_normal_forms,
    normalize_element,
    parse_element_term,
    reduct_graph,
)
from nquasi.rewriting import Rule, TerminationNotVerified, Trs, check_confluence
from nquasi.terms import App, Elem, Var, size

from conftest import diagram_with_rules, element_terms, random_element_term, steiner3


def two_z3_over_trivial():
    base = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
    return build_amalgam(
        base,
        [cyclic_loop(3, name="Z3a"), cyclic_loop(3, name="Z3b")],
        [{"0": "0"}, {"0": "0"}],
    )


def z4_twice_over_z2():
    base = cyclic_loop(2)
    return build_amalgam(
        base,
        [cyclic_loop(4, name="Z4a"), cyclic_loop(4, name="Z4b")],
        [{"0": "0", "1": "2"}, {"0": "0", "1": "2"}],
    )


def steiner_twice_over_singleton():
    base = algebra_from_function("S1", 2, "quasigroup", ["0"], lambda a, b: 0)
    return build_amalgam(
        base,
        [steiner3("Sta"), steiner3("Stb")],
        [{"0": "0"}, {"0": "0"}],
    )


class TestBuild:
    def test_canonical_renaming(self):
        d = two_z3_over_trivial()
        assert [f.carrier for f in d.factors] == [("0", "1@1", "2@1"), ("0", "1@2", "2@2")]
        assert d.owns("0") == frozenset({0, 1})
        assert d.owns("1@2") == frozenset({1})

    def test_base_names_survive_noninjective_looking_maps(self):
        d = z4_twice_over_z2()
        # the image of the base keeps the base's names: 2 becomes "1"
        assert set(d.factors[0].carrier) == {"0", "1", "1@1", "3@1"}
        assert d.factors[0].table_f[("1", "1")] == "0"  # 2 + 2 = 0 in the original

    def test_single_factor(self):
        base = cyclic_loop(2)
        d = build_amalgam(base, [cyclic_loop(4, name="Z4")], [{"0": "0", "1": "2"}])
        for a in d.factors[0].carrier:
            assert normalize_element(d, Elem(a)).normal_form == Elem(a)

    def test_mixed_base_embeddings(self):
        base = cyclic_loop(2)
        d = build_amalgam(
            base,
            [cyclic_loop(4, name="Z4"), cyclic_loop(6, name="Z6")],
            [{"0": "0", "1": "2"}, {"0": "0", "1": "3"}],
        )
        overlap = set(d.factors[0].carrier) & set(d.factors[1].carrier)
        assert overlap == {"0", "1"}

    def test_kind_mismatch(self, trivial_loop, steiner):
        with pytest.raises(AmalgamError):
            build_amalgam(trivial_loop, [steiner], [{"0": "0"}])

    def test_invalid_embedding(self):
        base = cyclic_loop(2)
        with pytest.raises(AlgebraError, match="invalid embedding: preserve-f"):
            build_amalgam(base, [cyclic_loop(4)], [{"0": "0", "1": "1"}])

    def test_embedding_object_into_another_algebra_rejected(self):
        # renaming Z4 by the images of a Z2 -> Z6 map would give Z4's 3 the base name 1
        z2 = cyclic_loop(2)
        with pytest.raises(AmalgamError, match="embedding 1 does not map the base into factor Z4"):
            build_amalgam(z2, [cyclic_loop(4)], [Embedding(z2, cyclic_loop(6), {"0": "0", "1": "3"})])
        with pytest.raises(AmalgamError, match="embedding 1 does not map the base into factor Z4"):
            build_amalgam(z2, [cyclic_loop(4)], [Embedding(cyclic_loop(2), cyclic_loop(4), {"0": "0", "1": "2"})])
        z4 = cyclic_loop(4)
        d = build_amalgam(z2, [z4], [Embedding(z2, z4, {"0": "0", "1": "2"})])
        assert set(d.factors[0].carrier) == {"0", "1", "1@1", "3@1"}

    def test_private_name_equal_to_a_base_name_collides(self):
        # factor 2 renames its private 1 to 1@2, a name the base already has
        base = algebra_from_function("Z2", 2, "loop", ["0", "1@2"], lambda a, b: (a + b) % 2, identity="0")
        with pytest.raises(AmalgamError, match="renaming collision in factor Z4b"):
            build_amalgam(
                base,
                [cyclic_loop(4, name="Z4a"), cyclic_loop(4, name="Z4b")],
                [{"0": "0", "1@2": "2"}, {"0": "0", "1@2": "2"}],
            )

    def test_element_named_like_a_symbol_rejected(self):
        weird = algebra_from_function(
            "W", 2, "loop", ["e", "a", "b"], lambda a, b: (a + b) % 3, identity="e"
        )
        with pytest.raises(AmalgamError):
            build_amalgam(weird, [weird], [{x: x for x in weird.carrier}])

    def test_quasigroup_amalgam_has_no_identity_machinery(self):
        d = steiner_twice_over_singleton()
        assert d.identity_leaf is None
        assert "e" not in d.signature


class TestNormalizeElement:
    def test_leaf_is_irreducible(self):
        d = two_z3_over_trivial()
        for name in d.carrier_union:
            assert normalize_element(d, Elem(name)).normal_form == Elem(name)

    def test_pure_subterm_collapses_to_its_value(self):
        d = two_z3_over_trivial()
        t = parse_element_term(d, "f(Z3a.1, Z3a.2)")
        assert normalize_element(d, t).normal_form == Elem("0")

    def test_mixed_application_is_stuck(self):
        d = two_z3_over_trivial()
        t = parse_element_term(d, "f(Z3a.1, Z3b.1)")
        assert normalize_element(d, t).normal_form == t
        assert amalgam_steps(d, t) == ()

    def test_division_cancels_mixed_product(self):
        d = two_z3_over_trivial()
        t = parse_element_term(d, "g1(f(Z3a.1, Z3b.1), Z3b.1)")
        assert normalize_element(d, t).normal_form == Elem("1@1")

    def test_identity_constant_resolves_before_normalization(self):
        d = two_z3_over_trivial()
        t = parse_element_term(d, "f(e, f(Z3a.1, Z3b.1))")
        mixed = parse_element_term(d, "f(Z3a.1, Z3b.1)")
        assert normalize_element(d, t).normal_form == mixed

    def test_identity_element_leaf_behaves_like_the_constant(self):
        d = two_z3_over_trivial()
        t = App("f", (Elem("0"), parse_element_term(d, "f(Z3a.1, Z3b.1)")))
        assert normalize_element(d, t).normal_form == parse_element_term(d, "f(Z3a.1, Z3b.1)")

    def test_variables_are_rejected(self):
        d = two_z3_over_trivial()
        with pytest.raises(UnknownElementError):
            normalize_element(d, App("f", (Var("x"), Elem("0"))))

    def test_unknown_element_rejected(self):
        d = two_z3_over_trivial()
        with pytest.raises(UnknownElementError):
            normalize_element(d, Elem("7"))

    @pytest.mark.parametrize(
        "t",
        [
            App("f", (Elem("1@1"),)),
            App("h", (Elem("1@1"), Elem("0"))),
            App("f", (Elem("1@1"), Elem("2@1"), Elem("0"))),
            App("g1", (Elem("0"), App("f", (Elem("1@1"),)))),
        ],
        ids=str,
    )
    def test_applications_outside_the_operations_are_rejected(self, t):
        d = two_z3_over_trivial()
        with pytest.raises(AmalgamError, match="not one of f, g1, g2 applied to 2 arguments"):
            normalize_element(d, t)
        with pytest.raises(AmalgamError):
            apply_op(d, "f", [t, Elem("0")])

    def test_the_identity_constant_is_resolved_before_the_check(self):
        d = two_z3_over_trivial()
        assert normalize_element(d, App("f", (App("e"), Elem("1@1")))).normal_form == Elem("1@1")

    def test_result_is_a_normal_form(self):
        d = z4_twice_over_z2()
        rng = Random(5)
        for _ in range(50):
            t = random_element_term(d, rng, 3)
            nf = normalize_element(d, t).normal_form
            assert amalgam_steps(d, nf) == ()

    def test_strategies_agree(self):
        d = z4_twice_over_z2()
        rng = Random(11)
        for k in range(60):
            t = random_element_term(d, rng, 3)
            res = {
                normalize_element(d, t, "leftmost-innermost").normal_form,
                normalize_element(d, t, "leftmost-outermost").normal_form,
                normalize_element(d, t, "random", seed=k).normal_form,
            }
            assert len(res) == 1


class TestParseElementTerm:
    def test_qualified_and_bare_names(self):
        d = two_z3_over_trivial()
        assert parse_element_term(d, "Z3a.1") == Elem("1@1")
        assert parse_element_term(d, "1@2") == Elem("1@2")
        assert parse_element_term(d, "0") == Elem("0")

    def test_unknown_names(self):
        d = two_z3_over_trivial()
        with pytest.raises(UnknownElementError):
            parse_element_term(d, "Z9.1")
        with pytest.raises(UnknownElementError):
            parse_element_term(d, "q")

    def test_first_bad_name_is_reported(self):
        d = two_z3_over_trivial()
        with pytest.raises(UnknownElementError, match="unknown element 'q'"):
            parse_element_term(d, "f(q, g1(Z9.1, Z3a.7))")
        with pytest.raises(UnknownElementError, match="no factor named 'Z9'"):
            parse_element_term(d, "f(Z9.1, q)")
        with pytest.raises(UnknownElementError, match="'7' is not an element of factor Z3a"):
            parse_element_term(d, "f(Z3a.7, q)")

    def test_repeated_names_resolve_alike(self):
        d = two_z3_over_trivial()
        one = Elem("1@1")
        assert parse_element_term(d, "f(Z3a.1, g1(Z3a.1, 1@1))") == App("f", (one, App("g1", (one, one))))

    def test_ambiguous_factor_name(self):
        base = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
        d = build_amalgam(
            base, [cyclic_loop(3), cyclic_loop(3)], [{"0": "0"}, {"0": "0"}]
        )
        with pytest.raises(UnknownElementError):
            parse_element_term(d, "Z3.1")
        assert parse_element_term(d, "1@2") == Elem("1@2")


class TestApplyOp:
    def test_identity_slots_absorb(self):
        d = two_z3_over_trivial()
        alpha = AmalgamElement(parse_element_term(d, "f(Z3a.1, Z3b.1)"))
        e = AmalgamElement(Elem("0"))
        assert apply_op(d, "f", [alpha, e]).normal_form == alpha.normal_form
        assert apply_op(d, "f", [e, alpha]).normal_form == alpha.normal_form

    def test_division_round_trip(self):
        d = two_z3_over_trivial()
        rng = Random(3)
        for _ in range(40):
            alpha = AmalgamElement(normalize_element(d, random_element_term(d, rng, 3)).normal_form)
            beta = AmalgamElement(normalize_element(d, random_element_term(d, rng, 3)).normal_form)
            quotient = apply_op(d, "g1", [alpha, beta])
            assert apply_op(d, "f", [quotient, beta]).normal_form == alpha.normal_form

    def test_same_factor_leaves_collapse(self):
        d = two_z3_over_trivial()
        got = apply_op(d, "f", [AmalgamElement(Elem("1@1")), AmalgamElement(Elem("1@1"))])
        assert got.normal_form == Elem("2@1")

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_arity_checked(self, count):
        # by the element-term check of normalize_element
        d = two_z3_over_trivial()
        with pytest.raises(AmalgamError) as refused:
            apply_op(d, "f", [AmalgamElement(Elem("1@1"))] * count)
        term = App("f", (Elem("1@1"),) * count)
        assert str(refused.value) == "%s: not one of f, g1, g2 applied to 2 arguments" % term

    def test_symbol_checked(self):
        d = two_z3_over_trivial()
        with pytest.raises(AmalgamError):
            apply_op(d, "h", [AmalgamElement(Elem("0"))] * 2)
        assert d.kind == "loop"  # where e() would otherwise resolve to the identity
        with pytest.raises(AmalgamError, match="'e' is not an n-ary operation"):
            apply_op(d, "e", [])

    def test_satisfies_loop_identities_on_samples(self):
        d = z4_twice_over_z2()
        rng = Random(9)
        elements = [
            AmalgamElement(normalize_element(d, random_element_term(d, rng, 2)).normal_form)
            for _ in range(12)
        ]
        e = AmalgamElement(Elem(d.base.identity))
        for alpha in elements:
            assert apply_op(d, "f", [alpha, e]).normal_form == alpha.normal_form
            for beta in elements[:6]:
                lhs = apply_op(d, "f", [apply_op(d, "g1", [alpha, beta]), beta])
                assert lhs.normal_form == alpha.normal_form
                rhs = apply_op(d, "g2", [beta, apply_op(d, "f", [beta, alpha])])
                assert rhs.normal_form == alpha.normal_form


class TestSharedSubalgebra:
    def test_base_pure_terms_agree_across_factors(self):
        d = z4_twice_over_z2()
        base_names = list(d.base.carrier)
        for args in itertools.product(base_names, repeat=2):
            values = {f.eval_term(App("f", (Elem(args[0]), Elem(args[1])))) for f in d.factors}
            assert len(values) == 1

    def test_each_table_entry_is_one_collapse_step(self):
        # entries on the shared base are in both factors' tables, but give one rule
        d = z4_twice_over_z2()
        for factor in d.factors:
            for symbol, table in zip(d.operations, (factor.table_f,) + factor.tables_g):
                for args, value in table.items():
                    t = App(symbol, tuple(map(Elem, args)))
                    collapses = [step for step in d.root_steps(t) if step[1].startswith("collapse[")]
                    assert collapses == [(Elem(value), "collapse[%s]" % t, ())]

    def test_collapse_of_base_pure_terms_lands_in_base(self):
        d = z4_twice_over_z2()
        t = App("f", (Elem("0"), App("f", (Elem("1"), Elem("1")))))
        nf = normalize_element(d, t).normal_form
        assert nf == Elem("0")  # 2 + 2 = 0 inside either copy


class TestCriticalPairs:
    """The diagram is an ordinary Trs, so its critical pairs decide unique
    normal forms for all terms."""

    @pytest.mark.parametrize(
        "build, pairs",
        [(two_z3_over_trivial, 263), (z4_twice_over_z2, 374), (steiner_twice_over_singleton, 171)],
        ids=["Z3*Z3/T", "Z4*Z4/Z2", "St3*St3/S1"],
    )
    def test_diagrams_are_confluent(self, build, pairs):
        d = build()
        assert isinstance(d, Trs) and d.terminates
        verdict = check_confluence(d)
        assert (verdict.status, verdict.pairs_total) == ("confluent", pairs)

    def test_wrong_table_value_is_not_confluent(self):
        d = two_z3_over_trivial()
        rules = list(d.rules)
        i = rules.index(Rule(App("f", (Elem("1@1"), Elem("1@1"))), Elem("2@1"), "collapse[f(1@1,1@1)]"))
        rules[i] = Rule(rules[i].lhs, Elem("0"), rules[i].label)
        verdict = check_confluence(Trs(d.signature, rules))
        assert verdict.status == "not-confluent"
        assert verdict.nonjoinable


class TestUniqueNormalForms:
    def test_exhaustive_small_universe(self):
        d = two_z3_over_trivial()
        assert check_unique_normal_forms(d) is None

    def test_quasigroup_diagram(self):
        d = steiner_twice_over_singleton()
        assert check_unique_normal_forms(d) is None

    def test_wrong_table_value_gives_a_critical_pair_witness(self):
        d = two_z3_over_trivial()
        rules = list(d.rules)
        i = rules.index(Rule(App("f", (Elem("1@1"), Elem("1@1"))), Elem("2@1"), "collapse[f(1@1,1@1)]"))
        rules[i] = Rule(rules[i].lhs, Elem("0"), rules[i].label)
        bad = check_unique_normal_forms(diagram_with_rules(d, rules))
        # f(g1(2,1),1) -> 2 by division, and g1(2,1) = 1 with f(1,1) now 0
        assert str(bad) == "critical-pair: f(g1(2@1,1@1),1@1) has normal forms {0, 2@1}"

    def test_unverified_termination_is_raised(self):
        d = two_z3_over_trivial()
        swap = Rule(App("f", (Var("x"), Var("y"))), App("f", (Var("y"), Var("x"))), "swap")
        with pytest.raises(TerminationNotVerified):
            check_unique_normal_forms(diagram_with_rules(d, [*d.rules, swap]))

    def test_single_factor_amalgam_reproduces_the_factor(self):
        # with one factor the free product is the factor itself: applying an
        # operation to leaves must land on the factor's own table value
        base = cyclic_loop(2)
        d = build_amalgam(base, [cyclic_loop(4, name="Z4")], [{"0": "0", "1": "2"}])
        factor = d.factors[0]
        for a in factor.carrier:
            for b in factor.carrier:
                got = apply_op(d, "f", [AmalgamElement(Elem(a)), AmalgamElement(Elem(b))])
                assert got.normal_form == Elem(factor.table_f[(a, b)])
                got = apply_op(d, "g1", [AmalgamElement(Elem(a)), AmalgamElement(Elem(b))])
                assert got.normal_form == Elem(factor.tables_g[0][(a, b)])

    def test_single_factor_normal_forms_are_leaves(self):
        base = cyclic_loop(2)
        d = build_amalgam(base, [cyclic_loop(4, name="Z4")], [{"0": "0", "1": "2"}])
        for t in element_terms(d, 3):
            graph = reduct_graph(d, t)
            normal_forms = [u for u in graph if not amalgam_steps(d, u)]
            assert len(normal_forms) == 1
            assert isinstance(normal_forms[0], Elem)

    def test_enumeration_counts(self):
        d = two_z3_over_trivial()
        terms = element_terms(d, 5)
        assert len(terms) == 5 + 3 * 25 + 3 * 2 * 5 * 75
        assert all(size(t) <= 5 for t in terms)


class TestStrongAmalgamation:
    def test_identity_pushout(self):
        z3 = cyclic_loop(3)
        identity = {a: a for a in z3.carrier}
        report = check_strong_amalgamation(z3, z3, z3, [identity, identity])
        assert report.ok
        assert report.intersection == report.base_image

    def test_two_z3_over_trivial(self, trivial_loop):
        report = check_strong_amalgamation(
            trivial_loop,
            cyclic_loop(3, name="Z3a"),
            cyclic_loop(3, name="Z3b"),
            [{"0": "0"}, {"0": "0"}],
        )
        assert report.ok
        assert report.intersection == frozenset({"0"})

    def test_z4_twice_over_z2(self):
        base = cyclic_loop(2)
        report = check_strong_amalgamation(
            base,
            cyclic_loop(4, name="Z4a"),
            cyclic_loop(4, name="Z4b"),
            [{"0": "0", "1": "2"}, {"0": "0", "1": "2"}],
        )
        assert report.ok
        assert report.intersection == frozenset({"0", "1"})

    def test_distinct_leaves_stay_distinct_under_probing(self):
        d = two_z3_over_trivial()
        leaves = [Elem(a) for a in d.carrier_union]
        for a, b in itertools.combinations(leaves, 2):
            for c in leaves:
                left = apply_op(d, "f", [AmalgamElement(a), AmalgamElement(c)])
                right = apply_op(d, "f", [AmalgamElement(b), AmalgamElement(c)])
                assert left.normal_form != right.normal_form
