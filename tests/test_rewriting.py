import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from nquasi.algebras import algebra_from_function, cyclic_loop
from nquasi.amalgams import build_amalgam
from nquasi.rewriting import (
    STRATEGIES,
    CapExceeded,
    MaxRoundsExceeded,
    Rule,
    StepBoundExceeded,
    TerminationNotVerified,
    Trs,
    UnorientableError,
    _RuleIndex,
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
)
from nquasi.terms import (
    App,
    Elem,
    ParseError,
    Signature,
    Var,
    apply_substitution,
    match,
    parse_term,
    positions,
    size,
    subterm_at,
    variables,
)
from nquasi.varieties import VarietySpec, base_loop, base_quasigroup, complete_loop, complete_quasigroup, generate_trs

from conftest import canonical_rule_set, redex_terms

BQ2 = base_quasigroup(2)
CQ2 = complete_quasigroup(2)
BL2 = base_loop(2)
CL2 = complete_loop(2)


def bq2(text):
    return parse_term(text, BQ2.signature)


def cl2(text):
    return parse_term(text, CL2.signature)


class TestRuleInvariants:
    def test_variable_lhs_rejected(self):
        with pytest.raises(ValueError) as caught:
            Rule(Var("x"), Var("x"), "bad")
        assert str(caught.value) == "rule bad: left-hand side is a variable"

    def test_fresh_rhs_variable_rejected(self):
        with pytest.raises(ValueError):
            Rule(bq2("f(x,y)"), bq2("g1(x,z)"), "bad")

    def test_element_leaves_are_rigid_constants(self):
        rule = Rule(App("f", (Elem("a"), Var("x"))), Var("x"), "r")
        trs = Trs(BQ2.signature, [rule, Rule(App("g1", (Elem("a"), Elem("b"))), Elem("a"), "ground")])
        assert trs.terminates
        assert rewrite_steps(trs, App("f", (Elem("a"), Elem("b")))) == {(Elem("b"), "r", ())}
        assert rewrite_steps(trs, App("f", (Elem("b"), Elem("b")))) == set()
        assert rewrite_steps(trs, App("g1", (Elem("a"), Elem("b")))) == {(Elem("a"), "ground", ())}

    def test_element_lhs_rejected(self):
        with pytest.raises(ValueError, match="rule bad: left-hand side is an element"):
            Rule(Elem("a"), Elem("b"), "bad")

    def test_duplicate_labels_rejected(self):
        rule = Rule(bq2("f(x,y)"), Var("x"), "r")
        with pytest.raises(ValueError):
            Trs(BQ2.signature, [rule, rule])

    def test_undeclared_symbol_rejected(self):
        sig = Signature({"f": 2})
        with pytest.raises(ValueError):
            Trs(sig, [Rule(bq2("g1(x,y)"), Var("x"), "r")])


# labels and variable names that the TRS format can write, and ones that
# it cannot; "c" and "v1" are declared constants
AWKWARD_SIGNATURE = Signature({"f": 2, "u": 1, "c": 0, "v1": 0})
WRITABLE_LABELS = ["r", "2.3[i=1]", "cp1", "", "a b"]
AWKWARD_LABELS = ["a:b", "a#b", " a", "a ", "a\nb", "a\rb", "a\x85b"]
WRITABLE_NAMES = ["x", "y", "v2"]
AWKWARD_NAMES = ["v1", "c", "f", "x y", "x#", "x:", ""]


@st.composite
def awkward_systems(draw):
    """Up to three rules over AWKWARD_SIGNATURE, each label and variable
    name writable three times in four; a right side is a subterm of its
    left side."""
    names = WRITABLE_NAMES * 7 + AWKWARD_NAMES
    leaves = st.sampled_from([Var(name) for name in names] + [App("c"), App("v1")])
    apps = lambda args: st.one_of(
        st.tuples(args, args).map(lambda a: App("f", a)), args.map(lambda a: App("u", (a,)))
    )
    labels = draw(st.lists(st.sampled_from(WRITABLE_LABELS * 4 + AWKWARD_LABELS), unique=True, max_size=3))
    rules = []
    for label in labels:
        lhs = draw(apps(st.recursive(leaves, apps, max_leaves=3)))
        rhs = draw(st.sampled_from([sub for _pos, sub in positions(lhs)]))
        rules.append(Rule(lhs, rhs, label))
    return Trs(AWKWARD_SIGNATURE, rules)


class TestTrsFileFormat:
    def test_round_trip(self):
        text = format_trs(CL2)
        again = parse_trs(text)
        assert again == CL2
        assert format_trs(again) == text

    @pytest.mark.parametrize(
        "spec",
        [VarietySpec(kind, n, complete) for kind in ("quasigroup", "loop") for n in range(1, 6) for complete in (False, True)],
        ids=lambda spec: "%s-%d-%s" % (spec.kind, spec.n, "complete" if spec.complete else "base"),
    )
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_round_trip_of_generated_systems(self, spec, rng):
        trs = generate_trs(spec)
        rules = list(trs.rules)
        rng.shuffle(rules)
        for system in (trs, Trs(trs.signature, rules)):
            assert parse_trs(format_trs(system)) == system

    def test_element_leaves_are_refused(self):
        trivial = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
        d = build_amalgam(trivial, [cyclic_loop(3, name="Z3a"), cyclic_loop(3, name="Z3b")], [{"0": "0"}] * 2)
        # unrefused, the text would not parse: in f(1@1,1@1) -> 2@1, 2@1 reads as a fresh variable
        with pytest.raises(ValueError, match=r"^rule collapse\[f\(0,0\)\]: element leaves"):
            format_trs(d)
        # read back, f(0,0) -> 0 would be the idempotence rule f(x,x) -> x
        with pytest.raises(ValueError, match=r"^rule collapse\[f\(0,0\)\]: element leaves"):
            format_trs(Trs(d.signature, [r for r in d.rules if r.label == "collapse[f(0,0)]"]))

    @pytest.mark.parametrize(
        "rule, message",
        [
            (Rule(App("u", (Var("x"),)), Var("x"), "a:b"), "rule label 'a:b' has no syntax"),
            (Rule(App("u", (Var("x"),)), Var("x"), "a#b"), "rule label 'a#b' has no syntax"),
            (Rule(App("u", (Var("x"),)), Var("x"), " a"), "rule label ' a' has no syntax"),
            (Rule(App("u", (Var("x"),)), Var("x"), "a\nb"), "rule label 'a\\nb' has no syntax"),
            (Rule(App("u", (Var("c"),)), Var("c"), "r"), "rule r: variables ['c'] would not read back"),
            (Rule(App("u", (Var("x y"),)), Var("x y"), "r"), "rule r: variables ['x y'] would not read back"),
        ],
        ids=["colon", "hash", "leading-space", "line-break", "declared-name", "not-an-identifier"],
    )
    def test_rules_that_would_not_read_back_are_refused(self, rule, message):
        with pytest.raises(ValueError) as info:
            format_trs(Trs(Signature({"u": 1, "c": 0}), [rule]))
        assert str(info.value).startswith(message)

    def test_empty_signature_round_trip(self):
        empty = Trs(Signature({}), [])
        assert parse_trs(format_trs(empty)) == empty
        assert parse_trs("sig\n") == empty

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(trs=awkward_systems())
    def test_a_system_is_refused_or_reads_back_as_itself(self, trs):
        try:
            text = format_trs(trs)
        except ValueError:
            # each refusal is needed: written out anyway, the rules do not read back
            naive = format_trs(Trs(trs.signature, []))
            naive += "".join("rule %s: %s -> %s\n" % (r.label, r.lhs, r.rhs) for r in trs.rules)
            try:
                assert parse_trs(naive) != trs
            except ValueError:
                pass
        else:
            assert parse_trs(text) == trs

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(labels=st.lists(st.text(st.characters(codec="utf-8"), max_size=4), min_size=1, max_size=4))
    def test_every_parsed_system_reads_back_as_itself(self, labels):
        # what parse_trs reads, format_trs writes back: the CLI writes only
        # parsed or generated systems and the rules that completion adopts
        lines = ["rule %s: u(x) -> x" % label for label in labels]
        try:
            trs = parse_trs("sig u/1 c/0\n" + "\n".join(lines) + "\n")
        except ParseError:
            return
        assert parse_trs(format_trs(trs)) == trs

    def test_crlf_and_comments(self):
        text = "# header\r\nsig f/1 g1/1\r\nrule a: f(g1(x)) -> x # inverse\r\n"
        trs = parse_trs(text)
        assert len(trs.rules) == 1
        assert trs.rules[0].label == "a"

    def test_missing_sig(self):
        with pytest.raises(ParseError):
            parse_trs("rule a: f(x) -> x\n")

    def test_duplicate_sig(self):
        with pytest.raises(ParseError):
            parse_trs("sig f/1\nsig g/1\n")

    def test_garbage_line(self):
        with pytest.raises(ParseError):
            parse_trs("sig f/1\nnonsense\n")

    def test_bad_rule_syntax(self):
        with pytest.raises(ParseError):
            parse_trs("sig f/1\nrule a f(x) -> x\n")
        with pytest.raises(ParseError):
            parse_trs("sig f/1\nrule a: f(x) = x\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("sig f/-1\n", "line 1: bad arity for f: -1"),
            ("sig g/1 f$/2\n", "line 1: bad symbol name: 'f$'"),
            ("\nsig /2\n", "line 2: bad symbol name: ''"),
            ("sig f/1\nrule a: f(x) -> x\nrule b: f(f(x)) -> x\nrule a: x -> f(x)\n", "line 4: duplicate rule label 'a'"),
        ],
        ids=["negative-arity", "bad-name", "empty-name", "duplicate-label"],
    )
    def test_bad_sig_entry_and_duplicate_label_are_parse_errors(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_trs(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("arity", [True, False])
    def test_signature_refuses_a_bool_arity(self, arity):
        # a bool is an int to isinstance, but no arity
        with pytest.raises(ValueError) as info:
            Signature({"f": arity})
        assert str(info.value) == "bad arity for f: %r" % (arity,)

    @pytest.mark.parametrize("name", [1, None, ("f",)])
    def test_signature_refuses_a_name_that_is_no_string(self, name):
        # an int reached the regex and raised TypeError there
        with pytest.raises(ValueError) as info:
            Signature({name: 2})
        assert str(info.value) == "bad symbol name: %r" % (name,)


class TestRewriteSteps:
    def test_cancellation_at_root(self):
        t = bq2("f(g1(x1,x2),x2)")
        assert rewrite_steps(BQ2, t) == {(Var("x1"), "2.3[i=1]", ())}

    def test_variable_is_irreducible(self):
        assert rewrite_steps(BQ2, Var("x")) == set()

    def test_division_of_product(self):
        t = bq2("g1(f(y1,y2),y2)")
        assert rewrite_steps(BQ2, t) == {(Var("y1"), "2.4[i=1]", ())}

    def test_steps_change_only_at_or_below_position(self):
        t = bq2("f(x1, g2(x1, f(g1(y1,y2), y2)))")
        for result, _label, pos in rewrite_steps(BQ2, t):
            for q, sub in positions(t):
                off_path = not (q[: len(pos)] == pos or pos[: len(q)] == q)
                if off_path:
                    assert subterm_at(result, q) == sub

    def test_size_strictly_decreases(self):
        t = bq2("f(x1, g2(x1, f(g1(y1,y2), y2)))")
        frontier = {t}
        while frontier:
            u = frontier.pop()
            for v, _l, _p in rewrite_steps(BQ2, u):
                assert size(v) < size(u)
                frontier.add(v)


def _all_keys(signature, heads):
    """Every index key (symbol, argument heads) over the given heads."""
    for symbol, arity in signature.symbols.items():
        for key_heads in itertools.product(heads, repeat=arity):
            yield (symbol,) + key_heads


def _labels(index, key):
    return [r.label for r in index[key]]


class TestRuleIndex:
    """Rules are selected by root symbol and argument heads; `match`
    still decides among the candidates."""

    @pytest.mark.parametrize(
        "trs", [BQ2, CQ2, BL2, CL2, complete_loop(3)], ids=["bq2", "cq2", "bl2", "cl2", "cl3"]
    )
    def test_candidates_agree_with_argument_heads_in_rule_order(self, trs):
        index = _RuleIndex(trs.rules)
        order = [r.label for r in trs.rules]
        for key in _all_keys(trs.signature, [None] + list(trs.signature.symbols)):
            candidates = index[key]
            positions_in_order = [order.index(r.label) for r in candidates]
            assert positions_in_order == sorted(positions_in_order)
            for r in trs.rules:
                fits = r.lhs.symbol == key[0] and all(
                    isinstance(arg, Var) or arg.symbol == head for arg, head in zip(r.lhs.args, key[1:])
                )
                assert (r in candidates) == fits, (key, r.label)

    def test_variable_argument_never_selects_an_application_argument(self):
        index = _RuleIndex(CQ2.rules)
        assert _labels(index, ("f", None, None)) == []
        assert _labels(index, ("f", "g1", None)) == ["2.3[i=1]"]
        assert _labels(index, ("g1", None, None)) == []
        assert _labels(index, ("g1", None, "g2")) == ["2.7[i=1,j=2]"]
        assert rewrite_steps(CQ2, bq2("f(x1,x2)")) == set()

    def test_wrong_number_of_arguments_selects_no_rule(self):
        # a term built without the signature's check; the rules of its
        # root symbol all have two arguments
        index = _RuleIndex(CQ2.rules)
        g1 = App("g1", (Var("x"), Var("y")))
        for args, key in [
            ((Var("x"),), ("f", None)),
            ((g1,), ("f", "g1")),
            ((g1, Var("y"), Var("z")), ("f", "g1", None, None)),
        ]:
            assert index[key] == []
            assert rewrite_steps(CQ2, App("f", args)) == set()

    def test_overlapping_rules_fit_the_key_with_variables_as_wildcards_on_both_sides(self):
        # one symbol with two arities, which `_RuleIndex` takes from bare
        # rules; the key's arity and every head where neither side has a
        # variable must agree
        a, b, x, y, z = Elem("a"), Elem("b"), Var("x"), Var("y"), Var("z")
        rules = [
            Rule(App("f", (x, y)), x, "two"),
            Rule(App("f", (a, y)), y, "two-a"),
            Rule(App("f", (App("u", (x,)), y)), y, "two-u"),
            Rule(App("f", (a, b)), a, "ground-two"),
            Rule(App("f", (x, y, z)), x, "three"),
            Rule(App("f", (a, b, a)), a, "ground-three"),
        ]
        index = _RuleIndex(rules)
        assert {r.label for r in index.overlapping(("f", None, None))} == {"two", "two-a", "two-u", "ground-two"}
        assert {r.label for r in index.overlapping(("f", None, b, None))} == {"three", "ground-three"}
        heads = lambda t: [None if isinstance(u, Var) else u if isinstance(u, Elem) else u.symbol for u in t.args]
        for arity in (1, 2, 3, 4):
            for key_heads in itertools.product([None, a, b, "u"], repeat=arity):
                fits = [
                    r.label
                    for r in rules
                    if len(r.lhs.args) == arity
                    and all(k is None or h is None or k == h for k, h in zip(key_heads, heads(r.lhs)))
                ]
                got = [r.label for r in index.overlapping(("f",) + key_heads)]
                assert sorted(got) == sorted(fits), key_heads

    def test_overlapping_lists_are_the_matching_lists_for_keys_without_a_variable(self, monkeypatch):
        # every left side of CQ2 has a variable argument at each application,
        # so the ground rules of an amalgam supply the keys without a variable
        trivial = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
        d = build_amalgam(trivial, [cyclic_loop(3, name="Z3a"), cyclic_loop(3, name="Z3b")], [{"0": "0"}] * 2)
        met = []
        overlapping = _RuleIndex.overlapping
        monkeypatch.setattr(_RuleIndex, "overlapping", lambda index, key: met.append((index, key)) or overlapping(index, key))
        for system in (CQ2, d):
            critical_pairs(system)
        monkeypatch.undo()
        ground = [(index, key) for index, key in met if None not in key]
        assert len(met) == 81 and len(ground) == 51
        for index, key in ground:
            assert index.overlapping(key) == index[key], key
        index = _RuleIndex(CQ2.rules)
        for key, labels in [
            (("g1", None, "f"), ["2.4[i=1]"]),
            (("f", "g1", None), ["2.3[i=1]", "2.3[i=2]"]),
            (("g1", None, None), ["2.4[i=1]", "2.7[i=1,j=2]"]),
        ]:
            assert [r.label for r in index.overlapping(key)] == labels

    def test_nonlinear_rule_is_a_candidate_that_match_rejects(self):
        lhs = App("g1", (Var("x"), Var("x")))
        trs = Trs(Signature({"g1": 2}), [Rule(lhs, Var("x"), "idem")])
        index = _RuleIndex(trs.rules)
        for a, b, key in [
            (Var("a"), Var("b"), ("g1", None, None)),
            (Elem("a"), Elem("b"), ("g1", Elem("a"), Elem("b"))),
        ]:
            subject = App("g1", (a, b))
            assert _labels(index, key) == ["idem"]
            assert match(lhs, subject) is None
            assert rewrite_steps(trs, subject) == set()
        assert rewrite_steps(trs, App("g1", (Var("a"), Var("a")))) == {(Var("a"), "idem", ())}

    def test_resolved_identity_selects_identity_rules_only_for_the_identity(self):
        factors = [cyclic_loop(4, name="Z4a"), cyclic_loop(4, name="Z4b")]
        d = build_amalgam(cyclic_loop(2), factors, [{"0": "0", "1": "2"}] * 2)
        identity = Elem(d.base.identity)
        # the constant e is resolved in the rules, so its head selects nothing
        for a in [Elem(x) for x in d.carrier_union] + ["e"]:
            expected = a == identity
            assert ("2.2[i=1]" in _labels(d._index, ("f", None, a))) == expected
            assert ("2.2[i=2]" in _labels(d._index, ("f", a, None))) == expected
            assert ("2.9[i=1]" in _labels(d._index, ("g1", None, a))) == expected
            assert ("2.9[i=2]" in _labels(d._index, ("g2", a, None))) == expected
        identity_rules = {r.label for r in d.rules if r.label.startswith(("2.2", "2.9"))}
        for key in _all_keys(d.signature, [None, Elem("1")]):
            assert identity_rules.isdisjoint(_labels(d._index, key))


# complete, hence confluent, presentations: every strategy reaches the
# one normal form
COMPLETE_SYSTEMS = [generate_trs(VarietySpec(kind, n, True)) for kind in ("quasigroup", "loop") for n in (1, 2, 3)]
COMPLETE_SYSTEM_TERMS = st.sampled_from(COMPLETE_SYSTEMS).flatmap(lambda trs: st.tuples(st.just(trs), redex_terms(trs)))


class TestNormalize:
    def test_nested_normalization(self):
        t = bq2("f(x1, g2(x1, f(g1(y1,y2), y2)))")
        # oracle first: the full reduct graph has a single irreducible term
        graph = reducts(BQ2, t)
        normal_forms = {u for u in graph if not rewrite_steps(BQ2, u)}
        assert normal_forms == {Var("y1")}
        for strategy in ("leftmost-innermost", "leftmost-outermost", "random"):
            got, trace = normalize(BQ2, t, strategy=strategy, seed=7)
            assert got == Var("y1")
            assert 0 < len(trace) <= size(t) - 1  # one size unit per step

    @pytest.mark.parametrize("max_steps", [-1, 0.5, True])
    def test_max_steps_that_is_no_nonnegative_integer_is_refused(self, max_steps):
        # -1 said "no normal form within -1 steps", and 0.5 "within 0 steps"
        with pytest.raises(ValueError) as info:
            normalize(BQ2, bq2("f(g1(x1,x2),x2)"), max_steps=max_steps)
        assert str(info.value) == "max_steps must be a nonnegative integer, got %r" % (max_steps,)

    def test_irreducible_term_fixed_with_empty_trace(self):
        t = bq2("g1(x2, x1)")
        got, trace = normalize(BQ2, t)
        assert got == t
        assert trace == ()

    def test_loop_identity_absorption(self):
        # inner absorption then a division of the identity element
        t = cl2("g2(e, f(e, y))")
        got, trace = normalize(CL2, t)
        assert got == Var("y")
        assert trace == (("2.2[i=2]", (2,)), ("2.9[i=2]", ()))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=COMPLETE_SYSTEM_TERMS)
    @example(case=(BQ2, bq2("y1")))
    @example(case=(BQ2, bq2("g1(x2,x1)")))
    @example(case=(BQ2, bq2("f(x,y)")))
    def test_idempotent_on_normal_forms(self, case):
        trs, t = case
        for strategy in STRATEGIES:
            nf, _ = normalize(trs, t, strategy, seed=3)
            again, trace = normalize(trs, nf, strategy, seed=3)
            assert again == nf and trace == ()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=COMPLETE_SYSTEM_TERMS, seed=st.integers(0, 2**16))
    def test_strategies_agree_on_complete_systems(self, case, seed):
        trs, t = case
        innermost, _ = normalize(trs, t, "leftmost-innermost")
        assert normalize(trs, t, "leftmost-outermost")[0] == innermost
        assert normalize(trs, t, "random", seed)[0] == innermost

    def test_termination_not_verified_without_bound(self):
        sig = Signature({"f": 2})
        swap = Trs(sig, [Rule(parse_term("f(x,y)", sig), parse_term("f(y,x)", sig), "swap")])
        with pytest.raises(TerminationNotVerified):
            normalize(swap, parse_term("f(a,b)", sig))

    @pytest.mark.parametrize("max_steps", [5, 5000])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_step_bound(self, strategy, max_steps):
        # thousands of steps at one position take no stack
        sig = Signature({"f": 2})
        swap = Trs(sig, [Rule(parse_term("f(x,y)", sig), parse_term("f(y,x)", sig), "swap")])
        with pytest.raises(StepBoundExceeded, match="no normal form within %d steps" % max_steps):
            normalize(swap, parse_term("f(a,b)", sig), strategy, max_steps=max_steps)

    @pytest.mark.parametrize("units, reducible", [(900, False), (450, True)])
    def test_innermost_depth(self, units, reducible):
        # one stack frame per level: under the default recursion limit a
        # script normalizes at most 994 nested f(.,x) and 496 units
        # f(g1(.,y),y); 900 and 450 leave room for the test runner's frames
        x, y = Var("x"), Var("y")
        t = x
        for _ in range(units):
            t = App("f", (App("g1", (t, y)), y)) if reducible else App("f", (t, x))
        got, trace = normalize(CQ2, t)
        if reducible:
            assert got == x and len(trace) == units
        else:
            assert got is t and trace == ()  # irreducible: the term itself comes back

    def test_bounded_run_on_decreasing_system(self):
        t = bq2("f(g1(x1,x2),x2)")
        got, trace = normalize(BQ2, t, max_steps=10)
        assert got == Var("x1") and len(trace) == 1


class TestReducts:
    def test_irreducible_singleton(self):
        t = bq2("g1(x2,x1)")
        assert reducts(BQ2, t) == {t}

    def test_single_step_term(self):
        t = bq2("f(g1(x1,x2),x2)")
        assert reducts(BQ2, t) == {t, Var("x1")}

    def test_divergent_peak_has_two_normal_forms(self):
        peak = bq2("g1(f(y1, g2(y1,y2)), g2(y1,y2))")
        graph = reducts(BQ2, peak)
        normal_forms = {u for u in graph if not rewrite_steps(BQ2, u)}
        assert normal_forms == {Var("y1"), bq2("g1(y2, g2(y1,y2))")}

    def test_cap_exceeded(self):
        t = bq2("f(x1, g2(x1, f(g1(y1,y2), y2)))")
        with pytest.raises(CapExceeded):
            reducts(BQ2, t, cap=2)

    def test_requires_size_decrease(self):
        sig = Signature({"f": 2})
        swap = Trs(sig, [Rule(parse_term("f(x,y)", sig), parse_term("f(y,x)", sig), "swap")])
        with pytest.raises(TerminationNotVerified):
            reducts(swap, parse_term("f(a,b)", sig))

    @pytest.mark.parametrize("cap", [0, -1, 2.5, True])
    def test_cap_that_is_no_positive_integer_is_refused(self, cap):
        # 0 gave an irreducible term its one-element reduct set
        with pytest.raises(ValueError) as info:
            reducts(BQ2, bq2("g1(x2,x1)"), cap=cap)
        assert str(info.value) == "cap must be a positive integer, got %r" % (cap,)


class TestJoinable:
    def test_reflexive(self):
        t = bq2("f(x1, g2(x1, f(g1(y1,y2), y2)))")
        ok, witness = joinable(BQ2, t, t)
        assert ok and witness == t

    def test_joinable_pair_with_witness(self):
        # overlap of a cancellation with a derived rule: rejoins at the variable
        ok, witness = joinable(CQ2, Var("y2"), bq2("f(y1, g2(y1, y2))"))
        assert ok and witness == Var("y2")

    def test_reduct_of_first_term_is_its_own_witness(self):
        # t2 is a reduct of t1, so t2 is returned although b, a smaller
        # common reduct, exists
        t1, t2 = bq2("g1(f(f(a,g2(a,b)),c),c)"), bq2("f(a,g2(a,b))")
        assert t2 in reducts(CQ2, t1)
        assert Var("b") in reducts(CQ2, t1) & reducts(CQ2, t2)
        assert joinable(CQ2, t1, t2) == (True, t2)
        assert joinable(CQ2, t2, t1) == (True, Var("b"))

    def test_nonjoinable_identity_pair(self):
        # identity constant against a duplicated-argument division, without
        # the collapsing rules: both sides are stuck
        union = Trs(
            CL2.signature,
            [r for r in CL2.rules if r.label.split("[")[0] in ("2.2", "2.3", "2.4", "2.7", "2.8")],
        )
        ok, witness = joinable(union, App("e"), cl2("g1(y,y)"))
        assert not ok and witness is None


class TestCriticalPairs:
    def test_division_and_derived_lhs_never_unify(self):
        # a division lhs g_i(.., f(..), ..) cannot overlap a derived lhs
        # g_i(.., g_j(..), ..) at the root: the sizes at the two slots
        # cannot agree, which surfaces as an occurs-check failure
        from nquasi.terms import apply_substitution, rename_apart, unify

        for n in (2, 3):
            lhs = {r.label: r.lhs for r in complete_quasigroup(n).rules}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    division = lhs["2.4[i=%d]" % i]
                    derived = lhs["2.7[i=%d,j=%d]" % (i, j)]
                    renaming = rename_apart([division], [derived])
                    assert unify(division, apply_substitution(renaming, derived)) is None

    def test_base_quasigroup_contains_divergent_pair(self):
        pairs = {(str(cp.left), str(cp.right)) for cp in critical_pairs(BQ2) if not cp.trivial}
        assert ("v1", "g1(v2,g2(v1,v2))") in pairs
        assert ("v2", "g2(g1(v1,v2),v1)") in pairs

    def test_variable_argument_rules_only_self_overlap(self):
        sig = Signature({"a": 1, "b": 1})
        trs = Trs(
            sig,
            [
                Rule(parse_term("a(x)", sig), Var("x"), "ra"),
                Rule(parse_term("b(x)", sig), Var("x"), "rb"),
            ],
        )
        pairs = critical_pairs(trs)
        assert all(cp.trivial for cp in pairs)
        assert {(cp.rule1, cp.rule2) for cp in pairs} == {("ra", "ra"), ("rb", "rb")}

    def test_base_loop_identity_overlap(self):
        pairs = {(str(cp.left), str(cp.right)) for cp in critical_pairs(BL2) if not cp.trivial}
        assert ("g1(v1,e)", "v1") in pairs

    def test_identity_overlap_unifier_provenance(self):
        # absorption lhs against cancellation lhs: the unifier pins the
        # non-distinguished slots to the identity and the bound variable to
        # a division of the identity row
        [cp] = [
            cp
            for cp in critical_pairs(BL2)
            if cp.rule1 == "2.2[i=1]" and cp.rule2 == "2.3[i=1]" and cp.position == ()
        ]
        assert {k: str(v) for k, v in dict(cp.mgu).items()} == {"x": "g1(x1,e)", "x2": "e"}
        assert str(cp.peak) == "f(g1(v1,e),e)"

    def test_division_overlap_unifier_provenance(self):
        # the inner product of a division lhs against a renamed cancellation
        # lhs: one variable goes to the division term, the rest rename
        [cp] = [
            cp
            for cp in critical_pairs(BQ2)
            if cp.rule1 == "2.4[i=1]" and cp.rule2 == "2.3[i=2]" and cp.position == (1,)
        ]
        sigma = dict(cp.mgu)
        assert str(sigma["x2"]).startswith("g2(")
        assert sigma["x1"] == subterm_at(sigma["x2"], (1,))

    def test_peak_rewrites_to_both_sides(self):
        for trs in (BQ2, BL2, CQ2, CL2):
            for cp in critical_pairs(trs):
                steps = rewrite_steps(trs, cp.peak)
                assert (cp.left, cp.rule1, ()) in steps
                assert (cp.right, cp.rule2, cp.position) in steps

    def test_root_self_overlaps_flagged_trivial(self):
        for cp in critical_pairs(BQ2):
            if cp.rule1 == cp.rule2 and cp.position == ():
                assert cp.trivial

    def test_deterministic_order(self):
        assert [str(cp) for cp in critical_pairs(CL2)] == [str(cp) for cp in critical_pairs(CL2)]


class TestCheckConfluence:
    def test_unary_base_confluent(self):
        assert check_confluence(base_quasigroup(1)).status == "confluent"

    def test_binary_base_not_confluent_with_the_expected_witness(self):
        verdict = check_confluence(BQ2)
        assert verdict.status == "not-confluent"
        assert str(verdict.witness.left) == "v1"
        assert str(verdict.witness.right) == "g1(v2,g2(v1,v2))"

    def test_completed_system_confluent(self):
        assert check_confluence(CQ2).status == "confluent"

    def test_termination_not_verified(self):
        sig = Signature({"f": 2})
        swap = Trs(sig, [Rule(parse_term("f(x,y)", sig), parse_term("f(y,x)", sig), "swap")])
        with pytest.raises(TerminationNotVerified) as refused:
            check_confluence(swap)
        assert str(refused.value) == "termination not verified (rules do not strictly decrease size)"

    @pytest.mark.parametrize("cap", [-5, 0, 2.5, True])
    def test_cap_that_is_no_positive_integer_is_refused(self, cap):
        # -5 raised CapExceeded, a resource error, and 2.5 gave a verdict
        with pytest.raises(ValueError) as info:
            check_confluence(CL2, cap=cap)
        assert str(info.value) == "cap must be a positive integer, got %r" % (cap,)


class TestCheckConditions:
    def test_complete_quasigroup_all_hold(self):
        report = check_conditions(CQ2)
        assert report.star_ok and report.star3_ok
        assert report.star2 == "holds"  # no constants at all

    def test_complete_loop_all_hold(self):
        report = check_conditions(CL2)
        assert report.star_ok and report.star3_ok
        assert report.star2 == "holds"  # a single constant

    def test_equal_size_rule_fails_size_decrease(self):
        sig = Signature({"f": 2})
        trs = Trs(sig, [Rule(parse_term("f(x,x)", sig), parse_term("f(x,x)", sig), "r")])
        assert check_conditions(trs).star == {"r": False}

    def test_occurrence_growth_fails_size_decrease(self):
        sig = Signature({"f": 2, "g1": 2})
        trs = Trs(sig, [Rule(parse_term("f(x,y)", sig), parse_term("g1(x,f(x,y))", sig), "r")])
        assert check_conditions(trs).star == {"r": False}

    def test_two_constants_undetermined(self):
        sig = Signature({"f": 2, "c": 0, "d": 0})
        trs = Trs(sig, [Rule(parse_term("f(x,y)", sig), Var("x"), "r")])
        assert check_conditions(trs).star2 == "undetermined"

    def test_subterm_variable_condition_fails(self):
        sig = Signature({"f": 2, "g1": 2})
        trs = Trs(sig, [Rule(parse_term("f(g1(x,x),y)", sig), Var("x"), "r")])
        assert check_conditions(trs).star3 == {"r": False}

    def test_report_is_kept_per_system(self):
        report = check_conditions(BQ2)
        assert check_conditions(BQ2) is report and BQ2.terminates
        swap = BQ2.with_rules([Rule(bq2("f(x,y)"), bq2("f(y,x)"), "swap")])
        assert check_conditions(swap).star["swap"] is False and not swap.terminates
        assert check_conditions(BQ2) is report and report.star_ok


class TestComplete:
    def test_already_confluent_unchanged(self):
        result = complete(CQ2)
        assert result.rounds == 0
        assert result.trs is CQ2 or result.trs == CQ2
        assert result.adopted == ()

    def test_base_quasigroup_completes_to_derived_set(self):
        result = complete(BQ2)
        assert check_confluence(result.trs).status == "confluent"
        assert canonical_rule_set(result.trs) == canonical_rule_set(CQ2)

    def test_base_loop_completes_to_derived_set(self):
        result = complete(BL2)
        assert check_confluence(result.trs).status == "confluent"
        assert canonical_rule_set(result.trs) == canonical_rule_set(CL2)

    def test_adopted_rules_carry_their_source_pairs(self):
        result = complete(BQ2)
        for rule, cp in result.adopted:
            assert not cp.trivial
            assert size(rule.lhs) > size(rule.rhs)

    def test_unorientable_pair(self):
        sig = Signature({"c": 1, "a": 1, "b": 1})
        trs = Trs(
            sig,
            [
                Rule(parse_term("c(c(x))", sig), parse_term("a(x)", sig), "r1"),
                Rule(parse_term("c(c(x))", sig), parse_term("b(x)", sig), "r2"),
            ],
        )
        with pytest.raises(UnorientableError):
            complete(trs)

    def test_max_rounds_exceeded(self):
        with pytest.raises(MaxRoundsExceeded):
            complete(BQ2, max_rounds=0)

    @pytest.mark.parametrize("max_rounds", [-1, 1.5, True])
    def test_max_rounds_that_is_no_nonnegative_integer_is_refused(self, max_rounds):
        # 1.5 ran, and -1 said "completion did not converge within 0 rounds"
        with pytest.raises(ValueError) as info:
            complete(BL2, max_rounds=max_rounds)
        assert str(info.value) == "max_rounds must be a nonnegative integer, got %r" % (max_rounds,)

    @pytest.mark.parametrize("cap", [0, 2.5])
    def test_cap_that_is_no_positive_integer_is_refused(self, cap):
        with pytest.raises(ValueError) as info:
            complete(BL2, cap=cap)
        assert str(info.value) == "cap must be a positive integer, got %r" % (cap,)


class TestUniqueNormalFormsOfCompleteSystems:
    """Confluence consequence, checked by brute force: every term of size
    <= 7 over <= 3 variables has exactly one irreducible reduct."""

    @pytest.mark.parametrize(
        "trs",
        [complete_quasigroup(2), complete_quasigroup(3), complete_loop(2), complete_loop(3)],
        ids=["cq2", "cq3", "cl2", "cl3"],
    )
    def test_single_irreducible_reduct(self, trs):
        memo = {}

        def irreducible_reducts(t):
            got = memo.get(t)
            if got is None:
                successors = {u for u, _l, _p in rewrite_steps(trs, t)}
                if not successors:
                    got = frozenset([t])
                else:
                    got = frozenset().union(*(irreducible_reducts(u) for u in successors))
                memo[t] = got
            return got

        for t in enumerate_terms(trs.signature, 7):
            assert len(irreducible_reducts(t)) == 1, "distinct normal forms below %s" % (t,)


class TestOracle:
    def test_enumeration_counts(self):
        # 3 variables over three binary symbols: 3 + 27 + 486 terms
        terms = enumerate_terms(BQ2.signature, 6)
        assert len(terms) == 516
        assert len({str(t) for t in terms}) == 516
        with_e = enumerate_terms(CL2.signature, 6)
        assert len(with_e) == 4 + 48 + 1152

    @pytest.mark.parametrize(
        "trs",
        [
            base_quasigroup(1),
            complete_quasigroup(2),
            base_loop(1),
            base_loop(2),
            complete_loop(1),
            complete_loop(2),
        ],
        ids=["bq1", "cq2", "bl1", "bl2", "cl1", "cl2"],
    )
    def test_agrees_with_critical_pair_route(self, trs):
        assert local_confluence_oracle(trs).status == check_confluence(trs).status

    def test_negative_num_vars_is_refused(self):
        with pytest.raises(ValueError) as info:
            enumerate_terms(BQ2.signature, 3, num_vars=-1)
        assert str(info.value) == "num_vars must be nonnegative, got -1"
        with pytest.raises(ValueError) as info:
            local_confluence_oracle(CL2, 4, num_vars=-2)
        assert str(info.value) == "num_vars must be nonnegative, got -2"

    def test_num_vars_that_is_no_integer_is_refused(self):
        # 1.5 built a pool of two variables, and the oracle then failed in math.perm
        with pytest.raises(ValueError) as info:
            enumerate_terms(CL2.signature, 1, num_vars=1.5)
        assert str(info.value) == "num_vars must be an integer, got 1.5"
        with pytest.raises(ValueError) as info:
            local_confluence_oracle(CL2, 4, num_vars=True)
        assert str(info.value) == "num_vars must be an integer, got True"

    @pytest.mark.parametrize("cap", [0, -1, 2.5])
    def test_cap_that_is_no_positive_integer_is_refused(self, cap):
        # 0 returned "confluent" after 3 peaks, where `reducts` on a redex raises
        with pytest.raises(ValueError) as info:
            local_confluence_oracle(CL2, 4, cap=cap)
        assert str(info.value) == "cap must be a positive integer, got %r" % (cap,)

    def test_max_size_that_is_no_integer_is_refused(self):
        # both failed inside range
        with pytest.raises(ValueError) as info:
            enumerate_terms(CL2.signature, 2.5)
        assert str(info.value) == "max_size must be an integer, got 2.5"
        with pytest.raises(ValueError) as info:
            local_confluence_oracle(CL2, max_size=2.5)
        assert str(info.value) == "max_size must be an integer, got 2.5"

    def test_binary_base_quasigroup_divergence_is_above_the_size_bound(self):
        # the smallest divergent peak of this system has size 9, so the
        # bounded oracle cannot see it; the targeted peak check below is the
        # brute-force confirmation of non-confluence instead
        assert local_confluence_oracle(BQ2).status == "confluent"
        peak = bq2("g1(f(y1, g2(y1,y2)), g2(y1,y2))")
        assert size(peak) == 9
        succs = [t for t, _l, _p in rewrite_steps(BQ2, peak)]
        assert len(succs) == 2
        assert not joinable(BQ2, succs[0], succs[1])[0]

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "trs, max_size, status, peaks",
        [(CL2, 9, "confluent", 395_724), (complete_quasigroup(3), 10, "confluent", 324), (BQ2, 9, "not-confluent", 703)],
        ids=["cl2@9", "cq3@10", "bq2@9"],
    )
    def test_oracle_at_the_larger_reach(self, trs, max_size, status, peaks):
        # the peak counts of a scan over every term of the enumeration; the
        # oracle decides one peak per renaming class of the variable pool
        verdict = local_confluence_oracle(trs, max_size)
        assert (verdict.status, verdict.peaks_checked) == (status, peaks)
        if status == "not-confluent":  # the first size-9 peak that fails to join
            assert str(verdict.peak) == "g1(f(v1,g2(v1,v1)),g2(v1,v1))"

    def test_not_confluent_reports_a_real_peak(self):
        verdict = local_confluence_oracle(base_loop(2))
        assert verdict.status == "not-confluent"
        t1, t2 = verdict.pair
        steps = {t for t, _l, _p in rewrite_steps(base_loop(2), verdict.peak)}
        assert {t1, t2} <= steps
        assert not joinable(base_loop(2), t1, t2)[0]
