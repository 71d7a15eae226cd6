import json
import subprocess
import sys

import pytest

from nquasi.algebras import algebra_from_function, algebra_to_json, cyclic_loop
from nquasi.cli import main


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

    def test_termination_not_verified(self, capsys, tmp_path):
        path = tmp_path / "swap.trs"
        path.write_text("sig f/2\nrule swap: f(x,y) -> f(y,x)\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "check", "--trs", str(path))
        assert code == 2 and "termination" in err

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


class TestComplete:
    def test_base_quasigroup(self, capsys, base_quasi_file):
        code, out, _ = run_cli(capsys, "complete", "--trs", base_quasi_file)
        assert code == 0
        assert "confluent after 1 completion round(s), 2 rule(s) added" in out
        assert "adopted cp1: g1(v1,g2(v2,v1)) -> v2" in out
        assert sum(1 for line in out.splitlines() if line.startswith("rule ")) == 6

    def test_max_rounds_exceeded(self, capsys, base_quasi_file):
        code, _, err = run_cli(capsys, "complete", "--trs", base_quasi_file, "--max-rounds", "0")
        assert code == 3 and "rounds" in err

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
        [("n", "2"), ("n", 0), ("n", True), ("kind", "group"), ("carrier", "01"), ("carrier", [0, 1])],
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
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("sig f/1 g1/1")
