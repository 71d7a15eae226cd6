import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nquasi.terms import (
    App,
    Elem,
    ParseError,
    Signature,
    Var,
    apply_substitution,
    canonical_renaming,
    match,
    occurs,
    parse_term,
    positions,
    rename_apart,
    replace_at,
    size,
    subterm_at,
    term_key,
    unify,
    variables,
)

SIG4 = Signature({"f": 4, "g1": 4, "g2": 4, "g3": 4, "g4": 4})
SIG2 = Signature({"f": 2, "g1": 2, "g2": 2})

# the running example tree: f(x1, x2, g3(x1,x2,x3,x4), x4)
TREE = parse_term("f(x1, x2, g3(x1, x2, x3, x4), x4)", SIG4)


def t2(text):
    return parse_term(text, SIG2)


class TestSubtermAt:
    def test_child_position(self):
        assert subterm_at(TREE, (3,)) == parse_term("g3(x1,x2,x3,x4)", SIG4)

    def test_root_position(self):
        assert subterm_at(TREE, ()) == TREE

    def test_grandchild_position(self):
        assert subterm_at(TREE, (3, 2)) == Var("x2")

    def test_invalid_position(self):
        with pytest.raises(IndexError):
            subterm_at(TREE, (5,))
        with pytest.raises(IndexError):
            subterm_at(TREE, (1, 1))


class TestReplaceAt:
    def test_identity_replacement_everywhere(self):
        for pos, sub in positions(TREE):
            assert replace_at(TREE, pos, sub) == TREE

    def test_leaf_splice(self):
        t = t2("f(g1(x,y),y)")
        assert replace_at(t, (1,), Var("z")) == t2("f(z,y)")

    def test_inner_splice_rebuilds_tree(self):
        assert replace_at(TREE, (3,), Var("x3")) == parse_term("f(x1,x2,x3,x4)", SIG4)

    def test_unchanged_off_path(self):
        got = replace_at(TREE, (3, 2), Var("z"))
        assert subterm_at(got, (1,)) == Var("x1")
        assert subterm_at(got, (4,)) == Var("x4")
        assert subterm_at(got, (3, 1)) == Var("x1")


class TestApplySubstitution:
    def test_empty_substitution(self):
        for t in [TREE, Var("q"), t2("g1(x,f(x,y))")]:
            assert apply_substitution({}, t) == t

    def test_single_binding(self):
        sigma = {"x1": t2("g1(y1,y2)")}
        assert apply_substitution(sigma, t2("f(x1,x2)")) == t2("f(g1(y1,y2),x2)")

    def test_substitution_moving_other_variables_fixes_term(self):
        # the overlap unifier binds x-variables only, so a y-term is fixed
        sigma = {"x1": Var("y1"), "x2": t2("g2(y1,y2)")}
        l2 = t2("f(y1, g2(y1,y2))")
        assert apply_substitution(sigma, l2) == l2

    def test_fixes_elem_leaves(self):
        t = App("f", (Elem("a"), Var("x")))
        assert apply_substitution({"x": Elem("b")}, t) == App("f", (Elem("a"), Elem("b")))


def _all_terms(max_size, symbols, var_names):
    leaves = [Var(v) for v in var_names]
    by_size = {1: leaves}
    for n in range(2, max_size + 1):
        bucket = []
        for sym, k in symbols:
            if k == 2 and n >= 3:
                for a in range(1, n - 1):
                    for left in by_size.get(a, ()):
                        for right in by_size.get(n - 1 - a, ()):
                            bucket.append(App(sym, (left, right)))
            if k == 1 and n >= 2:
                for inner in by_size.get(n - 1, ()):
                    bucket.append(App(sym, (inner,)))
        by_size[n] = bucket
    return [t for n in range(1, max_size + 1) for t in by_size[n]]


def _brute_force_unifiers(s, t, max_size=3):
    """Every substitution into terms of size <= max_size over <= 3 variables
    that equates s and t (the desk-scale oracle)."""
    names = sorted(variables(s) | variables(t))
    candidates = _all_terms(max_size, [("f", 2), ("g1", 2)], ["x", "y", "z"])
    found = []
    for images in itertools.product(candidates, repeat=len(names)):
        sigma = dict(zip(names, images))
        if apply_substitution(sigma, s) == apply_substitution(sigma, t):
            found.append(sigma)
    return found


class TestUnify:
    def test_variable_against_term(self):
        assert unify(Var("x"), t2("f(y1,y2)")) == {"x": t2("f(y1,y2)")}

    def test_overlap_unifier_shape(self):
        # the division rule's inner f against a renamed cancellation lhs
        sigma = unify(t2("f(x1,x2)"), t2("f(y1, g2(y1,y2))"))
        assert sigma == {"x1": Var("y1"), "x2": t2("g2(y1,y2)")}

    def test_occurs_check_failure(self):
        assert unify(t2("f(x,x)"), t2("f(y, g1(y,z))")) is None
        # the brute-force oracle confirms no small substitution equates them
        assert _brute_force_unifiers(t2("f(x,x)"), t2("f(y, g1(y,z))")) == []

    def test_symbol_clash(self):
        assert unify(t2("g1(x,y)"), t2("g2(x,y)")) is None
        assert unify(t2("f(x,y)"), Var("x")) is None  # occurs via root

    def test_symmetric_success(self):
        cases = [
            (t2("f(x1,x2)"), t2("f(y1, g2(y1,y2))")),
            (Var("x"), t2("f(y1,y2)")),
            (t2("g1(x, f(x,y))"), t2("g1(g2(a,b), z)")),
            (t2("f(x,x)"), t2("f(y, g1(y,z))")),
        ]
        for s, t in cases:
            fwd = unify(s, t)
            bwd = unify(t, s)
            assert (fwd is None) == (bwd is None)
            if fwd is not None:
                left = apply_substitution(fwd, s)
                right = apply_substitution(bwd, s)
                ren_l = canonical_renaming([left])
                ren_r = canonical_renaming([right])
                assert apply_substitution(ren_l, left) == apply_substitution(ren_r, right)

    def test_most_general_at_desk_scale(self):
        cases = [
            (t2("f(x,y)"), t2("f(y,x)")),
            (t2("f(x, g1(y,z))"), t2("f(g1(y,z), x)")),
            (t2("g1(x,y)"), t2("g1(f(z,z), z)")),
        ]
        for s, t in cases:
            sigma = unify(s, t)
            assert sigma is not None
            brute = _brute_force_unifiers(s, t)
            assert brute, "oracle found no unifiers for a unifiable pair"
            for tau in brute:
                for v in variables(s) | variables(t):
                    via_sigma = apply_substitution(tau, apply_substitution(sigma, Var(v)))
                    assert via_sigma == apply_substitution(tau, Var(v))

    def test_idempotent(self):
        for s, t in [
            (t2("f(x1,x2)"), t2("f(y1, g2(y1,y2))")),
            (t2("f(x,y)"), t2("f(y,x)")),
            (Var("x"), t2("f(y1,y2)")),
        ]:
            sigma = unify(s, t)
            probe = t2("f(g1(x,y), f(x1, f(x2, f(y1,y2))))")
            once = apply_substitution(sigma, probe)
            assert apply_substitution(sigma, once) == once

    def test_domain_inside_input_variables(self):
        sigma = unify(t2("g1(x, f(x,y))"), t2("g1(g2(a,b), z)"))
        assert set(sigma) <= variables(t2("g1(x, f(x,y))"), t2("g1(g2(a,b), z)"))

    def test_size_never_shrinks_under_substitution(self):
        sigma = unify(t2("f(x,y)"), t2("f(g1(u,v), w)"))
        for t in [t2("f(x,y)"), t2("g2(x, g1(x,y))"), Var("x")]:
            assert size(apply_substitution(sigma, t)) >= size(t)

    def test_element_leaves_are_rigid_constants(self):
        a, b = Elem("a"), Elem("b")
        assert unify(App("f", (a, Var("x"))), App("f", (a, b))) == {"x": b}
        assert unify(App("f", (a, Var("x"))), App("f", (b, Var("x")))) is None
        assert unify(a, Var("x")) == {"x": a}
        assert unify(a, a) == {}
        assert unify(a, App("f", (a, a))) is None


class TestRenameApart:
    def test_forced_disjointness(self):
        rho = rename_apart([t2("f(x1,x2)")], [Var("x1")])
        assert rho == {"x1": Var("v1")}

    def test_disjoint_inputs_identity(self):
        assert rename_apart([t2("f(x1,x2)")], [t2("g1(y1,y2)")]) == {}

    def test_renamed_copy_is_disjoint(self):
        fixed = [t2("f(g1(x1,x2),x2)"), Var("x1")]
        movable = [t2("f(g1(x1,x2),x2)"), Var("x1")]
        rho = rename_apart(fixed, movable)
        moved = [apply_substitution(rho, t) for t in movable]
        assert not (variables(*fixed) & variables(*moved))
        assert len(set(rho.values())) == len(rho)

    def test_deterministic(self):
        fixed = [t2("f(x,y)")]
        movable = [t2("g1(y,x)")]
        assert rename_apart(fixed, movable) == rename_apart(fixed, movable)
        assert rename_apart(fixed, movable) == {"y": Var("v1"), "x": Var("v2")}

    def test_skips_names_in_use(self):
        rho = rename_apart([t2("f(v1,x)")], [t2("g1(x,v1)")])
        values = {v.name for v in rho.values()}
        assert "v1" not in values


class TestParser:
    def test_round_trip(self):
        for text in ["x", "f(x,y)", "g1(f(x1,x2),x2)", "f(g1(x,y),g2(y,x))"]:
            assert str(t2(text)) == text.replace(" ", "")

    def test_whitespace_and_comments(self):
        assert t2(" f( x1 ,\n x2 ) # trailing comment") == t2("f(x1,x2)")

    def test_constant(self):
        sig = Signature({"f": 2, "e": 0})
        assert parse_term("f(e, x)", sig) == App("f", (App("e"), Var("x")))

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            t2("f(x)")
        with pytest.raises(ParseError):
            t2("f(x,y,z)")

    def test_bare_symbol_with_positive_arity(self):
        with pytest.raises(ParseError):
            t2("f")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            t2("f(x,y) f")

    def test_unknown_call_symbol(self):
        with pytest.raises(ParseError):
            t2("h(x,y)")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            t2("f(x,y)!")


def test_size_counts_nodes():
    assert size(Var("x")) == 1
    assert size(TREE) == 9
    assert size(t2("f(g1(x,y),y)")) == 5


def test_term_key_orders_by_size_then_text():
    terms = [t2("f(x,y)"), Var("z"), Var("a"), t2("g1(x,y)")]
    assert sorted(terms, key=term_key) == [Var("a"), Var("z"), t2("f(x,y)"), t2("g1(x,y)")]


def _deep_term(leaf, depth=5000):
    """f(...f(leaf, y)..., y), nested `depth` times: deeper than the
    default recursion limit."""
    t = leaf
    for _ in range(depth):
        t = App("f", (t, Var("y")))
    return t


def test_occurs_on_a_deep_term():
    t = _deep_term(Var("x"))
    assert occurs("x", t) and occurs("y", t)
    assert not occurs("z", t)
    assert not occurs("x", _deep_term(Elem("x")))


# ---------------------------------------------------------------------------
# properties over random terms: variables, two elements, the constant e and
# the binary f, g1, g2

LEAVES = st.sampled_from([Var("x"), Var("y"), Var("z"), Elem("a"), Elem("b"), App("e")])
TERMS = st.recursive(
    LEAVES,
    lambda inner: st.builds(lambda op, l, r: App(op, (l, r)), st.sampled_from(["f", "g1", "g2"]), inner, inner),
    max_leaves=8,
)
SUBSTITUTIONS = st.dictionaries(st.sampled_from(["x", "y", "z"]), TERMS, max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pattern=TERMS, subject=TERMS, sigma=SUBSTITUTIONS, instance=st.booleans())
def test_match_is_sound(pattern, subject, sigma, instance):
    if instance:  # so that about half the cases match
        subject = apply_substitution(sigma, pattern)
    found = match(pattern, subject)
    if found is not None:
        assert apply_substitution(found, pattern) == subject
    assert found is not None or not instance


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(s=TERMS, t=TERMS, sigma=SUBSTITUTIONS, instance=st.booleans())
def test_unify_gives_an_idempotent_unifier(s, t, sigma, instance):
    if instance:  # t an instance of s, which often unifies with it
        t = apply_substitution(sigma, s)
    found = unify(s, t)
    if found is None:
        return
    assert apply_substitution(found, s) == apply_substitution(found, t)
    for u in (s, t, *found.values()):
        once = apply_substitution(found, u)
        assert apply_substitution(found, once) == once
