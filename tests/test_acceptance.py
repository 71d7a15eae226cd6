"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and time budgets are pinned here, not configurable.
"""

import time

from nquasi.algebras import Embedding, algebra_from_function, cyclic_loop
from nquasi.amalgams import build_amalgam, check_strong_amalgamation, check_unique_normal_forms
from nquasi.codescent import (
    cep_by_enumeration,
    check_cep,
    identity_embedding,
    is_effective_codescent,
    permutation_from_cycle_type,
    search_noncep_monomorphism,
    sub_permutation_embeddings,
    verify_prop_3_6,
)
from nquasi.rewriting import (
    Trs,
    check_conditions,
    check_confluence,
    complete,
    local_confluence_oracle,
)
from nquasi.rewriting import _canonical
from nquasi.varieties import base_loop, base_quasigroup, complete_loop, complete_quasigroup

from conftest import confluence_mutants, steiner3


def criterion(tag, ok, detail=""):
    print("[%s] %s%s" % (tag, "PASS" if ok else "FAIL", " - " + detail if detail else ""))
    assert ok, "%s failed%s" % (tag, ": " + detail if detail else "")


def canonical_rule_set(trs):
    return {_canonical(trs.signature, r.lhs, r.rhs) for r in trs.rules}


def pair_shapes(verdict):
    return {(str(cp.left), str(cp.right)) for cp in verdict.nonjoinable}


def test_ac01_base_quasigroup_confluence_boundary():
    start = time.monotonic()
    verdicts = {}
    for n in (1, 2, 3, 4):
        t0 = time.monotonic()
        verdicts[n] = check_confluence(base_quasigroup(n))
        assert time.monotonic() - t0 < 5.0, "n=%d exceeded the 5 s budget" % n
    ok = verdicts[1].status == "confluent" and all(
        verdicts[n].status == "not-confluent" for n in (2, 3, 4)
    )
    witness = verdicts[2].witness
    # the divergent pair from overlapping a division with a cancellation
    ok = ok and (str(witness.left), str(witness.right)) == ("v1", "g1(v2,g2(v1,v2))")
    criterion(
        "AC01 base-quasigroup-confluence-boundary",
        ok,
        "witness (%s, %s) in %.2fs" % (witness.left, witness.right, time.monotonic() - start),
    )


def test_ac02_complete_quasigroup_confluent():
    times = {}
    for n, budget in ((2, 30.0), (3, 30.0), (4, 300.0)):
        t0 = time.monotonic()
        verdict = check_confluence(complete_quasigroup(n))
        times[n] = time.monotonic() - t0
        assert verdict.status == "confluent", "n=%d not confluent" % n
        assert times[n] < budget
    criterion(
        "AC02 complete-quasigroup-confluent",
        True,
        "n=2,3,4 in %s" % {n: "%.2fs" % t for n, t in times.items()},
    )


def test_ac03_loop_divergences():
    start = time.monotonic()
    for n in (1, 2, 3):
        assert check_confluence(base_loop(n)).status == "not-confluent", n

    # the derived quasigroup rules together with the identity-absorption
    # rules: still not confluent, diverging at the identity overlap
    cl2 = complete_loop(2)
    union_rules = [
        r for r in cl2.rules if r.label.split("[")[0] in ("2.2", "2.3", "2.4", "2.7", "2.8")
    ]
    union = Trs(cl2.signature, union_rules)
    verdict_union = check_confluence(union)
    assert verdict_union.status == "not-confluent"
    shapes = pair_shapes(verdict_union)
    division_of_identity = {("g1(v1,e)", "v1"), ("g2(e,v1)", "v1"), ("v1", "g1(v1,e)"), ("v1", "g2(e,v1)")}
    assert shapes & division_of_identity, shapes

    # adding only the identity-division rules: the duplicated-slot pair appears
    with_29 = Trs(
        cl2.signature,
        [r for r in cl2.rules if r.label.split("[")[0] in ("2.2", "2.3", "2.4", "2.9")],
    )
    verdict_29 = check_confluence(with_29)
    assert verdict_29.status == "not-confluent"
    shapes_29 = pair_shapes(verdict_29)
    duplicated_slot = {("e", "g1(v1,v1)"), ("e", "g2(v1,v1)"), ("g1(v1,v1)", "e"), ("g2(v1,v1)", "e")}
    assert shapes_29 & duplicated_slot, shapes_29

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    criterion("AC03 loop-system-divergences", True, "%.2fs" % elapsed)


def test_ac04_complete_loop_confluent():
    times = {}
    for n in (1, 2, 3):
        t0 = time.monotonic()
        verdict = check_confluence(complete_loop(n))
        times[n] = time.monotonic() - t0
        assert verdict.status == "confluent", "n=%d not confluent" % n
        assert times[n] < 60.0
    criterion(
        "AC04 complete-loop-confluent",
        True,
        "n=1,2,3 in %s" % {n: "%.2fs" % t for n, t in times.items()},
    )


def test_ac05_completion_rediscovers_derived_rules():
    quasi = complete(base_quasigroup(2))
    ok_quasi = (
        check_confluence(quasi.trs).status == "confluent"
        and canonical_rule_set(quasi.trs) == canonical_rule_set(complete_quasigroup(2))
    )
    loop = complete(base_loop(2))
    ok_loop = (
        check_confluence(loop.trs).status == "confluent"
        and canonical_rule_set(loop.trs) == canonical_rule_set(complete_loop(2))
    )
    criterion(
        "AC05 completion-rediscovery",
        ok_quasi and ok_loop,
        "quasigroup +%d rules in %d round(s); loop +%d rules in %d round(s)"
        % (len(quasi.adopted), quasi.rounds, len(loop.adopted), loop.rounds),
    )


def test_ac06_conditions_hold_for_generated_systems():
    failures = []
    for kind_gen in (complete_quasigroup, complete_loop):
        for n in (1, 2, 3, 4):
            report = check_conditions(kind_gen(n))
            for label, good in report.star.items():
                if not good:
                    failures.append(("size-decrease", kind_gen.__name__, n, label))
            for label, good in report.star3.items():
                if not good:
                    failures.append(("subterm-variables", kind_gen.__name__, n, label))
            if report.star2 != "holds":
                failures.append(("constants", kind_gen.__name__, n, report.star2))
    criterion("AC06 syntactic-conditions", not failures, "%d failures" % len(failures))


def test_ac07_confluence_oracle_equivalence():
    start = time.monotonic()
    systems = [complete_quasigroup(2), complete_loop(2)]
    systems += confluence_mutants(complete_quasigroup(2), 10, seed=71, label_prefix="mq")
    systems += confluence_mutants(complete_loop(2), 10, seed=72, label_prefix="ml")
    assert len(systems) == 22
    agreements = 0
    for trs in systems:
        by_pairs = check_confluence(trs).status
        by_enumeration = local_confluence_oracle(trs, max_size=6, num_vars=3).status
        assert by_pairs == by_enumeration, "disagreement on a %d-rule system" % len(trs.rules)
        agreements += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    criterion(
        "AC07 confluence-oracle-equivalence",
        agreements == len(systems),
        "%d/%d systems agree in %.1fs" % (agreements, len(systems), elapsed),
    )


def _fixture_diagrams():
    trivial_loop = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
    singleton_quasi = algebra_from_function("S1", 2, "quasigroup", ["0"], lambda a, b: 0)
    return [
        (
            "two-Z3-loops-over-trivial",
            build_amalgam(
                trivial_loop,
                [cyclic_loop(3, name="Z3a"), cyclic_loop(3, name="Z3b")],
                [{"0": "0"}, {"0": "0"}],
            ),
        ),
        (
            "Z4-twice-over-Z2",
            build_amalgam(
                cyclic_loop(2),
                [cyclic_loop(4, name="Z4a"), cyclic_loop(4, name="Z4b")],
                [{"0": "0", "1": "2"}, {"0": "0", "1": "2"}],
            ),
        ),
        (
            "two-idempotent-quasigroups-over-singleton",
            build_amalgam(
                singleton_quasi,
                [steiner3("Sta"), steiner3("Stb")],
                [{"0": "0"}, {"0": "0"}],
            ),
        ),
    ]


def test_ac08_unique_normal_forms():
    start = time.monotonic()
    for name, diagram in _fixture_diagrams():
        counterexample = check_unique_normal_forms(diagram)
        assert counterexample is None, "%s: %s" % (name, counterexample)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    criterion("AC08 unique-normal-forms", True, "3 diagrams, %.1fs" % elapsed)


def test_ac09_strong_amalgamation():
    trivial_loop = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
    singleton_quasi = algebra_from_function("S1", 2, "quasigroup", ["0"], lambda a, b: 0)
    z3 = cyclic_loop(3)
    pushouts = [
        ("identity-pushout", z3, z3, z3, [{a: a for a in z3.carrier}] * 2),
        (
            "two-Z3-over-trivial",
            trivial_loop,
            cyclic_loop(3, name="Z3a"),
            cyclic_loop(3, name="Z3b"),
            [{"0": "0"}, {"0": "0"}],
        ),
        (
            "Z4-twice-over-Z2",
            cyclic_loop(2),
            cyclic_loop(4, name="Z4a"),
            cyclic_loop(4, name="Z4b"),
            [{"0": "0", "1": "2"}, {"0": "0", "1": "2"}],
        ),
        (
            "idempotent-quasigroups-over-singleton",
            singleton_quasi,
            steiner3("Sta"),
            steiner3("Stb"),
            [{"0": "0"}, {"0": "0"}],
        ),
    ]
    for name, base, a1, a2, embeddings in pushouts:
        report = check_strong_amalgamation(base, a1, a2, embeddings)
        assert report.ok, "%s: %s" % (name, report)
        assert report.intersection == report.base_image, name
    criterion("AC09 strong-amalgamation", True, "%d pushouts" % len(pushouts))


def test_ac10_effective_codescent_and_search():
    trivial_loop = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
    easy = [
        identity_embedding(cyclic_loop(3)),
        identity_embedding(cyclic_loop(4)),
        identity_embedding(steiner3()),
        Embedding(trivial_loop, cyclic_loop(3), {"0": "0"}),
        Embedding(trivial_loop, cyclic_loop(4), {"0": "0"}),
        Embedding(trivial_loop, cyclic_loop(6), {"0": "0"}),
    ]
    for emb in easy:
        assert is_effective_codescent(emb).verdict, emb

    t0 = time.monotonic()
    found, info = search_noncep_monomorphism(5)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    if found is None:
        detail = (
            "no extension failure among %d embeddings from %d quasigroups of order <= 5 (%.1fs)"
            % (info["embeddings"], info["squares"], elapsed)
        )
        ok = True
    else:
        emb, report = found if isinstance(found, tuple) else (found, None)
        ok = not is_effective_codescent(emb).verdict
        detail = "found a non-extending monomorphism %s (%.1fs)" % (emb, elapsed)
    criterion("AC10 effective-codescent", ok, detail)


def test_ac11_unary_congruence_upgrade():
    start = time.monotonic()
    counterexample = verify_prop_3_6(6)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    criterion(
        "AC11 unary-f-congruences-are-full-congruences",
        counterexample is None,
        "orders 1..6 in %.1fs" % elapsed,
    )


def _fixture_embeddings():
    trivial_loop = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
    singleton_quasi = algebra_from_function("S1", 2, "quasigroup", ["0"], lambda a, b: 0)
    out = [
        identity_embedding(cyclic_loop(3)),
        identity_embedding(cyclic_loop(4)),
        identity_embedding(steiner3()),
        Embedding(trivial_loop, cyclic_loop(3), {"0": "0"}),
        Embedding(trivial_loop, cyclic_loop(4), {"0": "0"}),
        Embedding(singleton_quasi, steiner3(), {"0": "0"}),
        Embedding(cyclic_loop(2), cyclic_loop(4), {"0": "0", "1": "2"}),
        Embedding(cyclic_loop(2), cyclic_loop(6), {"0": "0", "1": "3"}),
        Embedding(cyclic_loop(3), cyclic_loop(6), {"0": "0", "1": "2", "2": "4"}),
    ]
    out.extend(sub_permutation_embeddings(permutation_from_cycle_type((2, 2))))
    out.extend(sub_permutation_embeddings(permutation_from_cycle_type((3, 1))))
    return out


def test_ac12_cep_oracle_equivalence():
    embeddings = _fixture_embeddings()
    assert all(emb.target.order <= 6 for emb in embeddings)
    checked = 0
    for emb in embeddings:
        for scope in ("f", "full"):
            report = check_cep(emb, scope=scope)
            oracle_verdict, per_congruence = cep_by_enumeration(emb, scope=scope)
            assert report.verdict == oracle_verdict, (emb, scope)
            by_blocks = {cong.blocks: good for cong, good in per_congruence}
            for source_cong, _extension, back in report.witnesses:
                assert (back.blocks == source_cong.blocks) == by_blocks[source_cong.blocks]
            checked += 1
    criterion("AC12 cep-oracle-equivalence", True, "%d embedding/scope checks" % checked)
