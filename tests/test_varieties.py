import pytest

from nquasi.rewriting import check_conditions, complete
from nquasi.terms import App, Var, parse_term
from nquasi.varieties import (
    VarietySpec,
    base_loop,
    base_quasigroup,
    complete_loop,
    complete_quasigroup,
    const_run,
    generate_trs,
    var_run,
    variety_signature,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        VarietySpec("group", 2)
    with pytest.raises(ValueError):
        VarietySpec("loop", 0)


@pytest.mark.parametrize("n", [True, 2.0])
def test_spec_refuses_an_n_that_is_no_integer(n):
    # a bool is an int to isinstance, and VarietySpec("loop", True) kept n=True
    with pytest.raises(ValueError) as info:
        VarietySpec("loop", n)
    assert str(info.value) == "n must be a positive integer, got %r" % (n,)


@pytest.mark.parametrize("complete", ["no", 1, None])
def test_spec_refuses_a_complete_flag_that_is_no_bool(complete):
    # VarietySpec("loop", 2, complete="no") kept "no", and generate_trs read it as true
    with pytest.raises(ValueError) as info:
        VarietySpec("loop", 2, complete=complete)
    assert str(info.value) == "complete must be True or False, got %r" % (complete,)


def test_run_helpers_empty_edges():
    assert var_run(1, 0) == ()
    assert var_run(3, 2) == ()
    assert const_run("e", 0) == ()
    assert var_run(2, 4) == (Var("x2"), Var("x3"), Var("x4"))
    assert const_run("e", 2) == (App("e"), App("e"))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rule_counts(n):
    assert len(base_quasigroup(n).rules) == 2 * n
    assert len(complete_quasigroup(n).rules) == n * n + n
    assert len(base_loop(n).rules) == 3 * n
    assert len(complete_loop(n).rules) == 2 * n * n + 2 * n


def test_signature_shapes():
    sig = variety_signature("loop", 3)
    assert sig.symbols == {"f": 3, "g1": 3, "g2": 3, "g3": 3, "e": 0}
    assert variety_signature("quasigroup", 2).constants() == []


def test_unary_base_rules():
    trs = base_quasigroup(1)
    sig = trs.signature
    assert [(str(r.lhs), str(r.rhs)) for r in trs.rules] == [
        ("f(g1(x1))", "x1"),
        ("g1(f(x1))", "x1"),
    ]
    assert parse_term("f(g1(x1))", sig) == trs.rules[0].lhs


def test_unary_complete_equals_base():
    base = base_quasigroup(1)
    full = complete_quasigroup(1)
    assert [(r.lhs, r.rhs, r.label) for r in base.rules] == [
        (r.lhs, r.rhs, r.label) for r in full.rules
    ]


def test_unary_complete_loop_rules():
    labels = [r.label for r in complete_loop(1).rules]
    assert labels == ["2.2[i=1]", "2.3[i=1]", "2.4[i=1]", "2.9[i=1]"]


def test_ternary_identity_rule_instantiation():
    rules = {r.label: r for r in base_loop(3).rules}
    rule = rules["2.2[i=1]"]
    assert str(rule.lhs) == "f(x,e,e)"
    assert rule.rhs == Var("x")
    assert str(rules["2.2[i=2]"].lhs) == "f(e,x,e)"


def test_binary_complete_quasigroup_contents():
    trs = complete_quasigroup(2)
    by_label = {r.label: (str(r.lhs), str(r.rhs)) for r in trs.rules}
    assert by_label == {
        "2.3[i=1]": ("f(g1(x1,x2),x2)", "x1"),
        "2.3[i=2]": ("f(x1,g2(x1,x2))", "x2"),
        "2.4[i=1]": ("g1(f(x1,x2),x2)", "x1"),
        "2.4[i=2]": ("g2(x1,f(x1,x2))", "x2"),
        "2.7[i=1,j=2]": ("g1(x2,g2(x1,x2))", "x1"),
        "2.8[i=2,j=1]": ("g2(g1(x1,x2),x1)", "x2"),
    }


def test_binary_complete_loop_contents():
    trs = complete_loop(2)
    by_label = {r.label: (str(r.lhs), str(r.rhs)) for r in trs.rules}
    assert by_label["2.9[i=1]"] == ("g1(x,e)", "x")
    assert by_label["2.9[i=2]"] == ("g2(e,x)", "x")
    assert by_label["2.10[i=1,j=2]"] == ("g1(x,x)", "e")
    assert by_label["2.11[i=2,j=1]"] == ("g2(x,x)", "e")


def test_ternary_duplicate_slot_rules():
    trs = complete_loop(3)
    by_label = {r.label: str(r.lhs) for r in trs.rules}
    assert by_label["2.10[i=1,j=2]"] == "g1(x,x,e)"
    assert by_label["2.10[i=1,j=3]"] == "g1(x,e,x)"
    assert by_label["2.10[i=2,j=3]"] == "g2(e,x,x)"
    assert by_label["2.11[i=3,j=1]"] == "g3(x,e,x)"
    assert by_label["2.7[i=1,j=3]"] == "g1(x3,x2,g3(x1,x2,x3))"
    assert by_label["2.8[i=3,j=1]"] == "g3(g1(x1,x2,x3),x2,x1)"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["quasigroup", "loop"])
def test_generated_rules_satisfy_syntactic_conditions(kind, n):
    report = check_conditions(generate_trs(VarietySpec(kind, n, complete=True)))
    assert report.star_ok
    assert report.star3_ok
    assert report.star2 == "holds"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["quasigroup", "loop"])
def test_complete_systems_are_completion_fixed_points(kind, n):
    trs = generate_trs(VarietySpec(kind, n, complete=True))
    assert complete(trs).rounds == 0
