import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from nquasi.algebras import algebra_from_function, algebra_to_json, cyclic_loop
from nquasi.cli import main
from nquasi.rewriting import complete, format_trs, parse_trs
from nquasi.varieties import VarietySpec, generate_trs

from conftest import child_env, klein_in_dihedral8


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def base_quasi_file(tmp_path, capsys):
    path = tmp_path / "bq2.trs"
    code, out, _ = run_cli(capsys, "gen-trs", "--kind", "quasigroup", "--n", "2")
    assert code == 0
    path.write_text(out, encoding="utf-8")
    return str(path)


@pytest.fixture
def complete_loop_file(tmp_path, capsys):
    path = tmp_path / "cl2.trs"
    code, out, _ = run_cli(capsys, "gen-trs", "--kind", "loop", "--n", "2", "--complete")
    assert code == 0
    path.write_text(out, encoding="utf-8")
    return str(path)


@pytest.fixture
def diagram_file(tmp_path):
    trivial = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
    payload = {
        "base": algebra_to_json(trivial),
        "factors": [
            algebra_to_json(cyclic_loop(3, name="Z3a")),
            algebra_to_json(cyclic_loop(3, name="Z3b")),
        ],
        "embeddings": [{"0": "0"}, {"0": "0"}],
    }
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def embedding_file(tmp_path):
    payload = {
        "source": algebra_to_json(cyclic_loop(2)),
        "target": algebra_to_json(cyclic_loop(4)),
        "map": {"0": "0", "1": "2"},
    }
    path = tmp_path / "embedding.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestGenTrs:
    def test_unary_quasigroup(self, capsys):
        code, out, _ = run_cli(capsys, "gen-trs", "--kind", "quasigroup", "--n", "1")
        assert code == 0
        assert out == (
            "sig f/1 g1/1\n"
            "rule 2.3[i=1]: f(g1(x1)) -> x1\n"
            "rule 2.4[i=1]: g1(f(x1)) -> x1\n"
        )

    def test_complete_loop_rule_count(self, capsys):
        code, out, _ = run_cli(capsys, "gen-trs", "--kind", "loop", "--n", "2", "--complete")
        assert code == 0
        assert sum(1 for line in out.splitlines() if line.startswith("rule ")) == 12

    def test_byte_stable(self, capsys):
        first = run_cli(capsys, "gen-trs", "--kind", "loop", "--n", "3", "--complete")
        second = run_cli(capsys, "gen-trs", "--kind", "loop", "--n", "3", "--complete")
        assert first == second

    def test_bad_n_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "gen-trs", "--kind", "quasigroup", "--n", "0")
        assert code == 2

    def test_bad_kind_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "gen-trs", "--kind", "group", "--n", "2")
        assert code == 2


class TestCheck:
    def test_base_quasigroup_not_confluent(self, capsys, base_quasi_file):
        code, out, _ = run_cli(capsys, "check", "--trs", base_quasi_file)
        assert code == 1
        assert out.splitlines()[0] == "not confluent"
        assert "witness: rules 2.4[i=1] x 2.3[i=2] at position [1]" in out
        assert "  peak:  g1(f(v1,g2(v1,v2)),g2(v1,v2))" in out
        assert "  left:  v1" in out
        assert "  right: g1(v2,g2(v1,v2))" in out

    def test_complete_loop_confluent(self, capsys, complete_loop_file):
        code, out, _ = run_cli(capsys, "check", "--trs", complete_loop_file)
        assert code == 0
        assert out.strip() == "confluent"

    def test_conditions_flag(self, capsys, complete_loop_file):
        code, out, _ = run_cli(capsys, "check", "--trs", complete_loop_file, "--conditions")
        assert code == 0
        assert "size-decrease ok" in out

    def test_conditions_undetermined_constants_do_not_fail(self, capsys, tmp_path):
        # with two constants the injectivity condition is semantic; it is
        # reported undetermined rather than counted as a failure
        path = tmp_path / "two_consts.trs"
        path.write_text("sig f/2 c/0 d/0\nrule r: f(x,y) -> x\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", "--trs", str(path), "--conditions")
        assert code == 0
        assert "constants undetermined" in out

    def test_critical_pairs_listing(self, capsys, base_quasi_file):
        code, out, _ = run_cli(capsys, "check", "--trs", base_quasi_file, "--critical-pairs")
        assert code == 0
        assert "critical pairs" in out
        assert "[trivial]" in out

    def test_json_report(self, capsys, base_quasi_file):
        code, out, _ = run_cli(capsys, "check", "--trs", base_quasi_file, "--json")
        assert code == 1
        report = json.loads(out)
        assert report["exit_code"] == 1
        assert report["details"]["confluence"]["status"] == "not-confluent"
        assert len(report["details"]["confluence"]["nonjoinable"]) == 2
        assert report["inputs"]["trs"]

    def test_json_deterministic(self, capsys, base_quasi_file):
        first = run_cli(capsys, "check", "--trs", base_quasi_file, "--json")
        second = run_cli(capsys, "check", "--trs", base_quasi_file, "--json")
        assert first == second

    def test_full_output_golden(self, capsys, base_quasi_file):
        _, out, _ = run_cli(capsys, "check", "--trs", base_quasi_file)
        assert out == (
            "not confluent\n"
            "witness: rules 2.4[i=1] x 2.3[i=2] at position [1]\n"
            "  peak:  g1(f(v1,g2(v1,v2)),g2(v1,v2))\n"
            "  left:  v1\n"
            "  right: g1(v2,g2(v1,v2))\n"
        )

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.trs"
        bad.write_text("rule before sig\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "check", "--trs", str(bad))
        assert code == 2 and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "--trs", "/nonexistent.trs")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "flags", [(), ("--json",), ("--conditions", "--confluence", "--critical-pairs")], ids=" ".join
    )
    def test_termination_not_verified(self, capsys, tmp_path, flags):
        path = tmp_path / "swap.trs"
        path.write_text("sig f/2\nrule swap: f(x,y) -> f(y,x)\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "check", "--trs", str(path), *flags)
        assert (code, out) == (2, "")
        assert err == "error: termination not verified (rules do not strictly decrease size)\n"

    def test_reduct_cap_env(self, capsys, complete_loop_file, monkeypatch):
        monkeypatch.setenv("NQ_REDUCT_CAP", "1")
        code, _, err = run_cli(capsys, "check", "--trs", complete_loop_file)
        assert code == 3 and "cap" in err


class TestNormalize:
    def test_simple(self, capsys, base_quasi_file):
        code, out, _ = run_cli(
            capsys, "normalize", "--trs", base_quasi_file, "--term", "f(g1(x1,x2),x2)"
        )
        assert code == 0
        assert out.strip() == "normal form: x1"

    def test_trace(self, capsys, complete_loop_file):
        code, out, _ = run_cli(
            capsys,
            "normalize",
            "--trs",
            complete_loop_file,
            "--term",
            "g2(e, f(e, y))",
            "--trace",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "normal form: y"
        assert lines[1] == "  2.2[i=2] at [2]"
        assert lines[2] == "  2.9[i=2] at []"

    def test_strategies_give_same_normal_form(self, capsys, complete_loop_file):
        term = "g1(f(x1, g2(x1, f(e, y))), g2(x1, y))"
        results = set()
        for strategy in ("leftmost-innermost", "leftmost-outermost", "random"):
            code, out, _ = run_cli(
                capsys,
                "normalize",
                "--trs",
                complete_loop_file,
                "--term",
                term,
                "--strategy",
                strategy,
            )
            assert code == 0
            results.add(out.strip())
        assert len(results) == 1

    def test_parse_error(self, capsys, base_quasi_file):
        code, _, err = run_cli(capsys, "normalize", "--trs", base_quasi_file, "--term", "f(x")
        assert code == 2 and "error" in err

    def test_step_bound(self, capsys, base_quasi_file):
        code, _, err = run_cli(
            capsys,
            "normalize",
            "--trs",
            base_quasi_file,
            "--term",
            "f(g1(x1,x2),x2)",
            "--max-steps",
            "0",
        )
        assert code == 3 and "steps" in err

    def test_step_bound_on_a_non_terminating_system(self, capsys, tmp_path):
        path = tmp_path / "swap.trs"
        path.write_text("sig f/2\nrule swap: f(x,y) -> f(y,x)\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "normalize", "--trs", str(path), "--term", "f(a,b)", "--max-steps", "5000"
        )
        assert (code, out) == (3, "")
        assert "no normal form within 5000 steps" in err


class TestComplete:
    def test_base_quasigroup(self, capsys, base_quasi_file):
        code, out, _ = run_cli(capsys, "complete", "--trs", base_quasi_file)
        assert code == 0
        assert "confluent after 1 completion round(s), 2 rule(s) added" in out
        assert "adopted cp1: g1(v1,g2(v2,v1)) -> v2" in out
        assert sum(1 for line in out.splitlines() if line.startswith("rule ")) == 6

    def test_adopted_variables_skip_declared_symbols(self, capsys, tmp_path):
        # v1 is a declared constant, so an adopted rule's variables start at
        # v2; named v1, the first one would read back as the constant
        _, base, _ = run_cli(capsys, "gen-trs", "--kind", "quasigroup", "--n", "2")
        path = tmp_path / "v1.trs"
        path.write_text(base.replace("sig f/2 g1/2 g2/2\n", "sig f/2 g1/2 g2/2 v1/0\n"), encoding="utf-8")
        code, out, _ = run_cli(capsys, "complete", "--trs", str(path))
        assert code == 0
        assert "adopted cp1: g1(v2,g2(v3,v2)) -> v3" in out
        code, out, _ = run_cli(capsys, "complete", "--trs", str(path), "--json")
        assert code == 0
        expected = complete(parse_trs(path.read_text(encoding="utf-8"))).trs
        assert expected.signature.arity("v1") == 0
        assert parse_trs(json.loads(out)["details"]["trs"]) == expected

    def test_pair_variables_skip_declared_symbols(self, capsys, tmp_path):
        # the source pair of an adopted rule, and a check witness, name their
        # variables v2, v3, ...: v1 is the declared constant
        _, base, _ = run_cli(capsys, "gen-trs", "--kind", "quasigroup", "--n", "2")
        path = tmp_path / "v1.trs"
        path.write_text(base.replace("sig f/2 g1/2 g2/2\n", "sig f/2 g1/2 g2/2 v1/0\n"), encoding="utf-8")
        code, out, _ = run_cli(capsys, "complete", "--trs", str(path))
        assert code == 0
        assert "from pair (v2, g1(v3,g2(v2,v3))) from 2.4[i=1] x 2.3[i=2] at [1]" in out
        code, out, _ = run_cli(capsys, "complete", "--trs", str(path), "--json")
        pair = json.loads(out)["details"]["adopted"][0]["source_pair"]
        assert (pair["left"], pair["right"], pair["peak"]) == ("v2", "g1(v3,g2(v2,v3))", "g1(f(v2,g2(v2,v3)),g2(v2,v3))")
        code, out, _ = run_cli(capsys, "check", "--trs", str(path))
        assert code == 1
        assert "  peak:  g1(f(v2,g2(v2,v3)),g2(v2,v3))" in out
        assert "v1" not in out

    def test_max_rounds_exceeded(self, capsys, base_quasi_file):
        code, _, err = run_cli(capsys, "complete", "--trs", base_quasi_file, "--max-rounds", "0")
        assert code == 3 and "rounds" in err

    def test_candidate_with_a_fresh_variable_is_refused(self, capsys, tmp_path):
        # f(g(v1),h(c,c)) rewrites to v1 by r1 and to g(c) by r2; both are
        # normal forms, and the larger, g(c), would become a left side
        # without the right side's variable v1
        path = tmp_path / "fresh.trs"
        path.write_text("sig f/2 g/1 h/2 c/0\nrule r1: f(g(x),y) -> x\nrule r2: f(z,h(c,c)) -> g(c)\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "complete", "--trs", str(path))
        assert (code, out) == (1, "")
        assert err == "error: unorientable critical pair (candidate violates rule invariants): v1 vs g(c)\n"

    def test_json(self, capsys, base_quasi_file):
        code, out, _ = run_cli(capsys, "complete", "--trs", base_quasi_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["details"]["rounds"] == 1
        assert len(report["details"]["adopted"]) == 2


class TestAmalgam:
    def test_normalize(self, capsys, diagram_file):
        code, out, _ = run_cli(
            capsys,
            "amalgam",
            "--diagram",
            diagram_file,
            "--normalize",
            "g1(f(Z3a.1, Z3b.1), Z3b.1)",
        )
        assert code == 0
        assert out.strip() == "normal form: 1@1"

    def test_check_unf(self, capsys, diagram_file):
        code, out, _ = run_cli(
            capsys, "amalgam", "--diagram", diagram_file, "--check-unf", "--depth", "3"
        )
        assert code == 0
        assert "ok" in out

    def test_strong_amalgamation(self, capsys, diagram_file):
        code, out, _ = run_cli(
            capsys, "amalgam", "--diagram", diagram_file, "--check-strong-amalgamation"
        )
        assert code == 0
        assert "strong amalgamation holds" in out

    def test_bad_diagram(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}", encoding="utf-8")
        code, _, err = run_cli(capsys, "amalgam", "--diagram", str(path), "--check-unf")
        assert code == 2 and "error" in err

    def test_unknown_element(self, capsys, diagram_file):
        code, _, err = run_cli(
            capsys, "amalgam", "--diagram", diagram_file, "--normalize", "f(q, 0)"
        )
        assert code == 2 and "error" in err

    def test_reduct_cap_env(self, capsys, diagram_file, monkeypatch):
        # the decision joins critical pairs whatever the depth; on this
        # diagram every side has at most two reducts
        for depth in ["3", "5"]:
            monkeypatch.setenv("NQ_REDUCT_CAP", "1")
            code, out, err = run_cli(capsys, "amalgam", "--diagram", diagram_file, "--check-unf", "--depth", depth)
            assert code == 3 and out == ""
            assert err.startswith("error: ") and "cap 1" in err
            monkeypatch.setenv("NQ_REDUCT_CAP", "2")
            code, out, _ = run_cli(capsys, "amalgam", "--diagram", diagram_file, "--check-unf", "--depth", depth)
            assert code == 0 and out == "unique normal forms up to size %s: ok\n" % depth


# Exact output of `nq amalgam` on the fixture diagram, recorded before the
# amalgam reductions moved onto the shared rewriting engine.
GOLDEN_TERM = "g1(f(g2(Z3a.1, f(Z3a.1, f(Z3b.2, Z3a.2))), Z3b.1), f(e, g2(Z3b.1, Z3a.1)))"
GOLDEN_NORMAL_FORM = "normal form: g1(f(f(2@2,2@1),1@2),g2(1@2,1@1))\n"
GOLDEN_DIGEST = '"9650ae58d587c5a4ff7e46783515ade9164071a4a396e029ebe13312724091a6"'
GOLDEN_UNF = (
    '{\n  "command": "amalgam",\n  "details": {\n    "depth": 4\n  },\n  "exit_code": 0,\n'
    '  "inputs": {\n    "diagram": %s\n  },\n  "verdict": "unique-normal-forms"\n}\n' % GOLDEN_DIGEST
)
GOLDEN_STRONG = (
    '{\n  "command": "amalgam",\n  "details": {\n    "base_image": [\n      "0"\n    ],\n'
    '    "intersection": [\n      "0"\n    ],\n    "ok": true\n  },\n  "exit_code": 0,\n'
    '  "inputs": {\n    "diagram": %s\n  },\n'
    '  "verdict": "strong amalgamation holds (intersection of size 1)"\n}\n' % GOLDEN_DIGEST
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--normalize", GOLDEN_TERM], GOLDEN_NORMAL_FORM),
        (["--normalize", GOLDEN_TERM, "--strategy", "leftmost-outermost"], GOLDEN_NORMAL_FORM),
        (["--normalize", GOLDEN_TERM, "--strategy", "random", "--seed", "0"], GOLDEN_NORMAL_FORM),
        (["--normalize", GOLDEN_TERM, "--strategy", "random", "--seed", "5"], GOLDEN_NORMAL_FORM),
        (["--check-unf", "--depth", "4", "--json"], GOLDEN_UNF),
        (["--check-strong-amalgamation", "--json"], GOLDEN_STRONG),
    ],
)
def test_amalgam_output_is_byte_identical(capsys, diagram_file, argv, expected):
    assert run_cli(capsys, "amalgam", "--diagram", diagram_file, *argv) == (0, expected, "")


class TestCodescent:
    def test_effective(self, capsys, embedding_file):
        code, out, _ = run_cli(capsys, "codescent", "--embedding", embedding_file)
        assert code == 0
        assert out.splitlines()[0] == "effective codescent morphism"

    def test_f_scope(self, capsys, embedding_file):
        code, out, _ = run_cli(capsys, "codescent", "--embedding", embedding_file, "--scope", "f")
        assert code == 0
        assert "(f scope) holds" in out

    def test_json(self, capsys, embedding_file):
        code, out, _ = run_cli(capsys, "codescent", "--embedding", embedding_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "effective"
        assert report["details"]["congruences_checked"] == 2

    def test_invalid_map(self, capsys, tmp_path):
        payload = {
            "source": algebra_to_json(cyclic_loop(2)),
            "target": algebra_to_json(cyclic_loop(4)),
            "map": {"0": "0", "1": "1"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run_cli(capsys, "codescent", "--embedding", str(path))
        assert code == 2 and "error" in err

    def test_klein_subgroup_of_dihedral_group_is_not_effective(self, capsys, tmp_path):
        source, target, mapping = klein_in_dihedral8((0, 2, 4, 6))
        payload = {"source": algebra_to_json(source), "target": algebra_to_json(target), "map": mapping}
        path = tmp_path / "klein.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, "codescent", "--embedding", str(path))
        assert (code, err) == (1, "")
        assert out.splitlines()[0] == "not an effective codescent morphism"
        code, out, _ = run_cli(capsys, "codescent", "--embedding", str(path), "--json")
        report = json.loads(out)
        assert code == 1 and report["verdict"] == "not-effective"
        assert report["details"]["failing"] == "{0,2} | {1,3}"

    def test_source_by_relative_path(self, capsys, tmp_path):
        (tmp_path / "z2.json").write_text(
            json.dumps(algebra_to_json(cyclic_loop(2))), encoding="utf-8"
        )
        payload = {
            "source": "z2.json",
            "target": algebra_to_json(cyclic_loop(4)),
            "map": {"0": "0", "1": "2"},
        }
        path = tmp_path / "embedding.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "codescent", "--embedding", str(path))
        assert code == 0


def test_carrier_above_the_enumeration_bound_is_a_resource_exit(capsys, tmp_path):
    z9 = algebra_to_json(cyclic_loop(9))
    path = tmp_path / "embedding.json"
    path.write_text(json.dumps({"source": z9, "target": z9, "map": {str(i): str(i) for i in range(9)}}), encoding="utf-8")
    code, out, err = run_cli(capsys, "codescent", "--embedding", str(path))
    assert (code, out) == (3, "")
    assert err == "error: carrier of size 9 exceeds the enumeration bound 8\n"


class TestHostileInput:
    """Bad input exits 2 with an error line, never with a traceback."""

    def _assert_rejected(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def _embedding_path(self, tmp_path, payload):
        path = tmp_path / "embedding.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_non_integer_reduct_cap(self, capsys, complete_loop_file, monkeypatch):
        monkeypatch.setenv("NQ_REDUCT_CAP", "abc")
        err = self._assert_rejected(capsys, "check", "--trs", complete_loop_file)
        assert "NQ_REDUCT_CAP" in err

    def test_non_positive_reduct_cap(self, capsys, complete_loop_file, monkeypatch):
        monkeypatch.setenv("NQ_REDUCT_CAP", "0")
        err = self._assert_rejected(capsys, "check", "--trs", complete_loop_file)
        assert "NQ_REDUCT_CAP" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", "2"), ("n", 0), ("n", True), ("kind", "group"), ("carrier", "01"), ("carrier", [0, 1]),
            ("name", ["x"]), ("name", {"a": 1}),
        ],
    )
    def test_algebra_schema(self, capsys, tmp_path, field, value):
        source = dict(algebra_to_json(cyclic_loop(2)), **{field: value})
        payload = {"source": source, "target": algebra_to_json(cyclic_loop(4)), "map": {"0": "0", "1": "2"}}
        err = self._assert_rejected(capsys, "codescent", "--embedding", self._embedding_path(tmp_path, payload))
        assert field in err

    def test_list_as_embedding_file(self, capsys, tmp_path):
        payload = [{"source": algebra_to_json(cyclic_loop(2)), "target": algebra_to_json(cyclic_loop(4))}]
        err = self._assert_rejected(capsys, "codescent", "--embedding", self._embedding_path(tmp_path, payload))
        assert "JSON object" in err

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: [d], "JSON object"),
            (lambda d: dict(d, factors=5), "factors"),
            (lambda d: dict(d, embeddings=3), "embeddings"),
            (lambda d: dict(d, embeddings=[["0"], {"0": "0"}]), "embedding"),
            (lambda d: dict(d, base=dict(d["base"], name=["x"])), "name must be a string"),
        ],
        ids=["list-as-file", "factors-not-a-list", "embeddings-not-a-list", "embedding-as-list", "name-as-list"],
    )
    def test_diagram_schema(self, capsys, diagram_file, change, message):
        with open(diagram_file, encoding="utf-8") as handle:
            payload = change(json.load(handle))
        with open(diagram_file, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        err = self._assert_rejected(capsys, "amalgam", "--diagram", diagram_file, "--check-unf")
        assert err.startswith("error: bad diagram file: ") and message in err

    @pytest.mark.parametrize("subcommand", ["normalize", "amalgam"])
    def test_deep_term(self, capsys, base_quasi_file, diagram_file, subcommand):
        term = "0"
        for _ in range(1500):
            term = "f(%s,0)" % term
        if subcommand == "normalize":
            argv = ["normalize", "--trs", base_quasi_file, "--term", term]
        else:
            argv = ["amalgam", "--diagram", diagram_file, "--normalize", term]
        err = self._assert_rejected(capsys, *argv)
        assert "nested too deeply" in err

    @pytest.mark.parametrize(
        "source, target, mapping, message",
        [
            (
                algebra_to_json(cyclic_loop(2)),
                dict(algebra_to_json(cyclic_loop(4)), g=[algebra_to_json(cyclic_loop(4))["f"]] * 2),
                {"0": "0", "1": "2"},
                "target Z4 is not a valid loop: f-of-division",
            ),
            (
                dict(algebra_to_json(cyclic_loop(3)), e="1"),
                dict(algebra_to_json(cyclic_loop(3)), e="1"),
                {"0": "0", "1": "1", "2": "2"},
                "source Z3 is not a valid loop: identity",
            ),
        ],
        ids=["division-copies-f", "loop-with-wrong-identity"],
    )
    def test_invalid_algebra_in_embedding(self, capsys, tmp_path, source, target, mapping, message):
        payload = {"source": source, "target": target, "map": mapping}
        err = self._assert_rejected(capsys, "codescent", "--embedding", self._embedding_path(tmp_path, payload))
        assert err.startswith("error: " + message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-trs", "--kind", "quasigroup", "--n", "-1"],
            ["normalize", "--trs", "{trs}", "--term", "f(g1(x1,x2),x2)", "--max-steps", "-1"],
            ["complete", "--trs", "{trs}", "--max-rounds", "-1"],
            ["amalgam", "--diagram", "{diagram}", "--check-unf", "--depth", "-1"],
        ],
        ids=["n", "max-steps", "max-rounds", "depth"],
    )
    def test_negative_count(self, capsys, base_quasi_file, diagram_file, argv):
        argv = [arg.format(trs=base_quasi_file, diagram=diagram_file) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "error: argument %s: must be at least" % argv[-2] in err

    @pytest.mark.parametrize("subcommand", ["check", "amalgam", "codescent"])
    def test_non_utf8_file(self, capsys, tmp_path, subcommand):
        path = tmp_path / "bin.trs"
        path.write_bytes(b"\xff\xfe")
        flag = {"check": "--trs", "amalgam": "--diagram", "codescent": "--embedding"}[subcommand]
        argv = [subcommand, flag, str(path)] + (["--check-unf"] if subcommand == "amalgam" else [])
        err = self._assert_rejected(capsys, *argv)
        assert err.startswith("error: cannot read %s: " % path) and "utf-8" in err

    @pytest.mark.parametrize("entry", ["f/-1", "f$/2", "/2"])
    @pytest.mark.parametrize("subcommand", ["check", "normalize", "complete"])
    def test_bad_sig_entry(self, capsys, tmp_path, subcommand, entry):
        path = tmp_path / "sig.trs"
        path.write_text("sig %s\n" % entry, encoding="utf-8")
        argv = [subcommand, "--trs", str(path)] + (["--term", "x"] if subcommand == "normalize" else [])
        err = self._assert_rejected(capsys, *argv)
        assert err.startswith("error: line 1: bad ")

    def test_duplicate_rule_labels(self, capsys, tmp_path):
        path = tmp_path / "dup.trs"
        path.write_text("sig f/2\nrule r: f(x,y) -> x\nrule r: f(x,y) -> y\n", encoding="utf-8")
        err = self._assert_rejected(capsys, "check", "--trs", str(path))
        assert err == "error: line 3: duplicate rule label 'r'\n"

    def test_map_of_lists(self, capsys, tmp_path):
        payload = {
            "source": algebra_to_json(cyclic_loop(2)),
            "target": algebra_to_json(cyclic_loop(4)),
            "map": {"0": ["0"], "1": ["2"]},
        }
        self._assert_rejected(capsys, "codescent", "--embedding", self._embedding_path(tmp_path, payload))


def test_json_reports_share_the_envelope(capsys, base_quasi_file, diagram_file, embedding_file):
    invocations = [
        ["check", "--trs", base_quasi_file, "--json"],
        ["normalize", "--trs", base_quasi_file, "--term", "f(g1(x1,x2),x2)", "--json"],
        ["complete", "--trs", base_quasi_file, "--json"],
        ["amalgam", "--diagram", diagram_file, "--check-unf", "--depth", "3", "--json"],
        ["codescent", "--embedding", embedding_file, "--json"],
    ]
    for argv in invocations:
        code = main(argv)
        out = capsys.readouterr().out
        report = json.loads(out)
        assert set(report) == {"command", "inputs", "verdict", "details", "exit_code"}
        assert report["exit_code"] == code


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nquasi.cli", "gen-trs", "--kind", "quasigroup", "--n", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("sig f/1 g1/1")


# ---------------------------------------------------------------------------
# one call per fresh interpreter: the layers and standard modules each
# subcommand imports, and the errors main() maps for layers it never imports
# itself

LAYERS = {"varieties", "algebras", "amalgams", "codescent"}

# the module list is taken before this script imports json for its own output
FRESH_MAIN = """
import contextlib, io, sys
from nquasi.cli import main

out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
modules = sorted(sys.modules)
import json
print(json.dumps([code, out.getvalue(), err.getvalue(), modules]))
"""


def run_fresh(*argv):
    """main(argv) in a new interpreter: exit code, stdout, stderr, the
    layers of LAYERS that the call imported and every module it had
    loaded.  The child runs with -S, so that no module a `site` hook loads
    (a .pth file of an installed package) counts."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", FRESH_MAIN, *argv], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    code, out, err, modules = json.loads(proc.stdout)
    layers = {m.split(".", 1)[1] for m in modules if m.startswith("nquasi.")}
    return code, out, err, LAYERS.intersection(layers), set(modules)


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["gen-trs", "--kind", "loop", "--n", "2"], {"varieties"}),
        (["check", "--trs", "{trs}", "--conditions", "--critical-pairs", "--json"], set()),
        (["normalize", "--trs", "{trs}", "--term", "f(g1(x1,x2),x2)", "--trace"], set()),
        (["complete", "--trs", "{trs}"], set()),
        (["amalgam", "--diagram", "{diagram}", "--check-unf", "--json"], {"varieties", "algebras", "amalgams"}),
        (["codescent", "--embedding", "{embedding}"], {"algebras", "codescent"}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_each_subcommand_imports_only_its_layers(capsys, base_quasi_file, diagram_file, embedding_file, argv, layers):
    argv = [a.format(trs=base_quasi_file, diagram=diagram_file, embedding=embedding_file) for a in argv]
    code, out, err, loaded, modules = run_fresh(*argv)
    assert loaded == layers
    # no decision needs these; the input digest is computed only for --json
    assert not {"dataclasses", "inspect", "typing"} & modules
    assert ("hashlib" in modules) == ("--json" in argv)
    if argv[0] in ("gen-trs", "normalize", "complete"):  # no JSON read or written
        assert "json" not in modules
    assert (code, out, err) == run_cli(capsys, *argv)


def test_a_deep_well_formed_term_prints_as_its_own_normal_form(complete_loop_file):
    # 800 levels fit under the recursion limit in the parser and in
    # innermost normalization, one frame a level; printing takes none
    term = "f(" * 800 + "x" + ",x)" * 800
    assert run_fresh("normalize", "--trs", complete_loop_file, "--term", term)[:3] == (0, "normal form: %s\n" % term, "")


def test_lazily_imported_errors_keep_their_exit_codes(capsys, tmp_path, diagram_file):
    with open(diagram_file, encoding="utf-8") as handle:
        diagram = json.load(handle)
    one_embedding = tmp_path / "one_embedding.json"
    one_embedding.write_text(json.dumps(dict(diagram, embeddings=[{"0": "0"}])), encoding="utf-8")
    bad_map = tmp_path / "bad_map.json"
    z2, z4, z9 = (algebra_to_json(cyclic_loop(m)) for m in (2, 4, 9))
    bad_map.write_text(json.dumps({"source": z2, "target": z4, "map": {"0": "0", "1": "1"}}), encoding="utf-8")
    too_large = tmp_path / "too_large.json"
    too_large.write_text(
        json.dumps({"source": z9, "target": z9, "map": {str(i): str(i) for i in range(9)}}), encoding="utf-8"
    )
    cases = [
        (["amalgam", "--diagram", str(one_embedding), "--check-unf"], 2, "error: need one embedding per factor\n"),
        (
            ["codescent", "--embedding", str(bad_map)],
            2,
            "error: invalid embedding: preserve-f at ['1', '1']: f is not preserved\n",
        ),
        (["codescent", "--embedding", str(too_large)], 3, "error: carrier of size 9 exceeds the enumeration bound 8\n"),
    ]
    for argv, code, err in cases:
        assert run_fresh(*argv)[:3] == (code, "", err), argv
        assert run_cli(capsys, *argv) == (code, "", err), argv


# ---------------------------------------------------------------------------
# fuzzing: argv from the real subcommands and options, small file bodies


def _mangled(text):
    """Text with a short slice replaced by a few syntax characters."""
    cut = st.tuples(st.integers(0, len(text)), st.integers(0, 12), st.text("(),->:/#{}[]\" \n\\fgxe012", max_size=6))
    return cut.map(lambda c: text[: c[0]] + c[2] + text[c[0] + c[1] :])


def _json_bodies(docs):
    """Valid documents, mostly; else one with a field replaced by any small
    JSON value, any small JSON value, or mangled document text."""
    doc = st.sampled_from(docs)
    replaced = doc.flatmap(
        lambda d: st.tuples(st.sampled_from(sorted(d)), JSON_VALUES).map(lambda kv: dict(d, **{kv[0]: kv[1]}))
    )
    valid = doc.map(json.dumps)
    return st.one_of(valid, valid, replaced.map(json.dumps), JSON_VALUES.map(json.dumps), valid.flatmap(_mangled))


JSON_KEYS = ["name", "n", "kind", "carrier", "f", "g", "e", "base", "factors", "embeddings", "source", "target", "map", "0", "1"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.sampled_from(["0", "1", "2", "loop", "quasigroup", "alg.json", "e"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=3),
    max_leaves=8,
)
_TRIVIAL = algebra_to_json(algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0"))
_Z2, _Z3, _Z4 = (algebra_to_json(cyclic_loop(k)) for k in (2, 3, 4))
_TRS = st.sampled_from(
    [format_trs(generate_trs(VarietySpec(kind, n, complete))) for kind in ("quasigroup", "loop") for n in (1, 2) for complete in (False, True)]
    + ["sig f/2 c/0\nrule r: f(x,x) -> x\nrule s: f(c,y) -> y\n", "sig f/2\nrule r: f(x,y) -> f(y,x)\n"]
)
TRS_BODIES = st.one_of(_TRS, _TRS, _TRS.flatmap(_mangled))
ALGEBRA_BODIES = _json_bodies([_TRIVIAL, _Z2, _Z3, _Z4, algebra_to_json(cyclic_loop(3, 3))])
DIAGRAM_BODIES = _json_bodies(
    [
        {"base": _TRIVIAL, "factors": [_Z3, _Z3], "embeddings": [{"0": "0"}] * 2},
        {"base": _Z2, "factors": [_Z4, _Z4], "embeddings": [{"0": "0", "1": "2"}] * 2},
    ]
)
EMBEDDING_BODIES = _json_bodies(
    [
        {"source": _Z2, "target": _Z4, "map": {"0": "0", "1": "2"}},
        {"source": "alg.json", "target": _Z3, "map": {"0": "0"}},
        {"source": _TRIVIAL, "target": "alg.json", "map": {"0": "0"}},
    ]
)
ANY_BODY = st.one_of(
    st.text(max_size=20).map(str.encode),
    st.binary(max_size=12).map(lambda b: b"\xff" + b),  # never valid UTF-8
    TRS_BODIES.map(str.encode),
    ALGEBRA_BODIES.map(str.encode),
)


def _file(bodies):
    """A file argument: ("file", bytes) for a file to write, or a path that
    does not exist."""
    own = bodies.map(lambda text: ("file", text.encode()))
    return st.one_of(own, own, own, ANY_BODY.map(lambda b: ("file", b)), st.just("missing/none.trs"))


_int = st.sampled_from(["1", "2", "0", "3", "-1", "x", ""])
_term = st.sampled_from(["f(g1(x1,x2),x2)", "g2(e,f(e,y))", "f(1,2)", "g1(f(2,0),1)", "x", "f(x,", "0", "e", ""]) | st.text(max_size=8)
_strategy = st.sampled_from(["leftmost-innermost", "leftmost-outermost", "random", "bogus"])


def _flag(name):
    return st.just([name])


def _opt(name, values):
    return values.map(lambda v: [name, v])


# subcommand -> (options it needs, one of which is drawn per group, the
# rest), as the parser declares them
OPTIONS = {
    "gen-trs": (
        [[_opt("--kind", st.sampled_from(["quasigroup", "loop", "group"]))], [_opt("--n", _int)]],
        [_flag("--complete")],
    ),
    "check": (
        [[_opt("--trs", _file(TRS_BODIES))]],
        [_flag("--confluence"), _flag("--conditions"), _flag("--critical-pairs"), _flag("--json")],
    ),
    "normalize": (
        [[_opt("--trs", _file(TRS_BODIES))], [_opt("--term", _term)]],
        [_opt("--strategy", _strategy), _opt("--seed", _int), _opt("--max-steps", _int), _flag("--trace"), _flag("--json")],
    ),
    "complete": ([[_opt("--trs", _file(TRS_BODIES))]], [_opt("--max-rounds", _int), _flag("--json")]),
    "amalgam": (
        [
            [_opt("--diagram", _file(DIAGRAM_BODIES))],
            [_opt("--normalize", _term), _flag("--check-unf"), _flag("--check-strong-amalgamation")],
        ],
        [
            _opt("--normalize", _term),
            _flag("--check-unf"),
            _opt("--depth", _int),
            _opt("--seed", _int),
            _opt("--strategy", _strategy),
            _flag("--json"),
        ],
    ),
    "codescent": (
        [[_opt("--embedding", _file(EMBEDDING_BODIES))]],
        [_opt("--scope", st.sampled_from(["f", "full", "x"])), _flag("--json")],
    ),
}


@st.composite
def cli_calls(draw):
    """(argv with its file arguments still to write, the body of alg.json,
    NQ_REDUCT_CAP or None): a subcommand with one option of each needed
    group, mostly, and some of its other options, in any order; now and
    then a stray token."""
    subcommand = draw(st.sampled_from(sorted(OPTIONS)))
    needed, others = OPTIONS[subcommand]
    chosen = [draw(st.sampled_from(group)) for group in needed if draw(st.integers(0, 9))]
    chosen += draw(st.lists(st.sampled_from(others), unique_by=id, max_size=3))
    parts = [draw(option) for option in draw(st.permutations(chosen))]
    argv = [subcommand] + [token for part in parts for token in part]
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "-h", "extra", "--json"])))
    alg_body = draw(ALGEBRA_BODIES).encode()
    cap = draw(st.sampled_from([None, None, None, None, "abc", "0", "4", "200"]))
    return argv, alg_body, cap


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(call=cli_calls())
def test_fuzzed_calls_keep_the_exit_code_contract(call):
    argv, alg_body, cap = call
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "alg.json"), "wb") as handle:
            handle.write(alg_body)
        args = []
        for k, arg in enumerate(argv):
            if isinstance(arg, tuple):
                path = os.path.join(tmp, "file%d" % k)
                with open(path, "wb") as handle:
                    handle.write(arg[1])
                arg = path
            args.append(arg)
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("NQ_REDUCT_CAP", raising=False)
            if cap is not None:
                patch.setenv("NQ_REDUCT_CAP", cap)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
    assert code in (0, 1, 2, 3), (args, code)
    assert "Traceback" not in err.getvalue()
