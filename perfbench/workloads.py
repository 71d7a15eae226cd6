"""The four workloads: seeded inputs and decision tasks with known answers.

Each ``setup_<workload>(nq, seed, workdir)`` builds the inputs from the
seed with the freshly imported modules in ``nq`` and returns the task list
of one pass.  A task's ``run`` is the timed call into the program; its
answer is either a constant fixed by construction or by a theorem, or an
``oracle`` that the runner calls once per run outside the timed region.
The seed picks only mutations, relabellings and random terms, never which
kinds of task run or how many, so every seed gives the same mix.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from random import Random
from typing import Callable


class ContractBreak(Exception):
    """A CLI call ended in a traceback or an exit code the contract does not
    give for its input."""


def _same(raw):
    return raw


@dataclass
class Task:
    name: str
    kind: str  # the mix key: which program entry point the task times
    run: Callable[[], object]  # timed; returns the raw result
    expected: object = None  # known answer, unless an oracle computes it
    oracle: Callable[[], object] | None = None  # untimed, once per run
    verdict: Callable[[object], object] = _same  # raw result -> answer, untimed
    inproc: Callable[[object, Callable[[], float]], None] | None = None  # traced cli passes only
    hostile: bool = False  # a known exit-code contract defect (ROADMAP item 4)


def _status(result):
    return result.status


def canonical_rules(nq, trs) -> frozenset:
    """Rules up to variable renaming, as text."""
    out = set()
    for rule in trs.rules:
        ren = nq.terms.canonical_renaming((rule.lhs, rule.rhs))
        sub = nq.terms.apply_substitution
        out.add("%s -> %s" % (sub(ren, rule.lhs), sub(ren, rule.rhs)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# confluence: terms and rewriting


def mutate(nq, trs, kind, rng, label):
    """A seeded mutant of a confluent system.

    `fork` adds a copy of a rule whose right side is another variable of its
    left side, so the left side itself rewrites to two distinct irreducible
    terms: not confluent by construction, with a peak no larger than that
    left side.  `rename` renames one rule's variables and `shuffle` permutes
    the rules; both keep the parent's verdict.
    """
    rw, terms = nq.rewriting, nq.terms
    if kind == "fork":
        rules = [r for r in trs.rules if any(terms.Var(v) != r.rhs for v in terms.variables(r.lhs))]
        rule = rng.choice(rules)
        options = sorted(v for v in terms.variables(rule.lhs) if terms.Var(v) != rule.rhs)
        return trs.with_rules([rw.Rule(rule.lhs, terms.Var(rng.choice(options)), label)])
    if kind == "rename":
        index = rng.randrange(len(trs.rules))
        rule = trs.rules[index]
        ren = {v: terms.Var("w%d" % k) for k, v in enumerate(sorted(terms.variables(rule.lhs)), start=1)}
        renamed = rw.Rule(terms.apply_substitution(ren, rule.lhs), terms.apply_substitution(ren, rule.rhs), rule.label)
        return rw.Trs(trs.signature, trs.rules[:index] + (renamed,) + trs.rules[index + 1 :])
    order = list(trs.rules)
    rng.shuffle(order)
    return rw.Trs(trs.signature, order)


MUTANT_VERDICT = {"fork": "not-confluent", "rename": "confluent", "shuffle": "confluent"}
# Two of each kind: with one, the ten slowest tasks ended exactly at the
# complete_loop(4) group, and verdict_tail_ms fell on the edge of a cluster,
# where one noisy task moves it.
MUTANTS_PER_KIND = 2


def setup_confluence(nq, seed, workdir):
    rw, va = nq.rewriting, nq.varieties
    rng = Random(seed)
    tasks = []

    def confluence(name, trs, expected):
        tasks.append(Task("check_confluence:" + name, "check_confluence", lambda: rw.check_confluence(trs), expected, verdict=_status))

    def oracle(name, trs, size, expected, verdict=_status):
        tasks.append(
            Task(
                "local_confluence_oracle:%s@%d" % (name, size),
                "local_confluence_oracle",
                lambda: rw.local_confluence_oracle(trs, max_size=size, num_vars=3),
                expected,
                verdict=verdict,
            )
        )

    def completion(kind, n):
        base = va.generate_trs(va.VarietySpec(kind, n))
        tasks.append(
            Task(
                "complete:base_%s(%d)" % (kind, n),
                "complete",
                lambda: rw.complete(base),
                oracle=lambda: canonical_rules(nq, va.generate_trs(va.VarietySpec(kind, n, complete=True))),
                verdict=lambda result: canonical_rules(nq, result.trs),
            )
        )

    for n in range(2, 8):
        confluence("complete_quasigroup(%d)" % n, va.complete_quasigroup(n), "confluent")
    for n in range(1, 6):
        confluence("complete_loop(%d)" % n, va.complete_loop(n), "confluent")
    for n in range(1, 6):
        # the base presentations are confluent only for unary quasigroups (AC01, AC03)
        confluence("base_quasigroup(%d)" % n, va.base_quasigroup(n), "confluent" if n == 1 else "not-confluent")
        confluence("base_loop(%d)" % n, va.base_loop(n), "not-confluent")
    small = []
    for kind in ("quasigroup", "loop"):
        for n in (2, 3, 4):
            parent = va.generate_trs(va.VarietySpec(kind, n, complete=True))
            if n == 2:
                small.append(("complete_%s(2)" % kind, parent, "confluent"))
            for i, how in enumerate(("fork", "rename", "shuffle") * MUTANTS_PER_KIND):
                name = "%s:complete_%s(%d)#%d" % (how, kind, n, i // 3)
                mutant = mutate(nq, parent, how, rng, "fork1")
                confluence(name, mutant, MUTANT_VERDICT[how])
                if n == 2:
                    small.append((name, mutant, MUTANT_VERDICT[how]))
    for kind in ("quasigroup", "loop"):
        for n in (2, 3, 4):
            completion(kind, n)
    for name, trs, expected in small:
        oracle(name, trs, 6, expected)
    oracle(
        "complete_loop(2)",
        va.complete_loop(2),
        7,
        ("confluent", 8394),
        verdict=lambda result: (result.status, result.peaks_checked),
    )
    for make, n in ((va.complete_quasigroup, 2), (va.complete_loop, 2), (va.complete_quasigroup, 3), (va.complete_loop, 3)):
        trs, name = make(n), "%s(%d)" % (make.__name__, n)
        for i in range(QUERIES_PER_SYSTEM):
            start = random_f_term(nq, trs.signature, rng, 2)
            term = expand(nq, trs, start, rng, EXPANSIONS)
            tasks.append(
                Task(
                    "normalize:%s#%d" % (name, i),
                    "normalize",
                    lambda trs=trs, term=term: rw.normalize(trs, term),
                    str(start),
                    verdict=lambda result: str(result[0]),
                )
            )
    return tasks


# Seeded normalization queries per complete system, each undoing EXPANSIONS
# rule steps.  A hundred small verdicts of similar cost put the median of
# the workload inside one dense cluster, as the queries do for `amalgam`.
QUERIES_PER_SYSTEM = 25
EXPANSIONS = 24


def random_f_term(nq, sig, rng, depth, leaves=("x", "y", "z")):
    """A full tree of f over variables: no rule applies, as every left side
    of the complete systems holds a division g_i (or the constant e)."""
    if depth == 0:
        return nq.terms.Var(rng.choice(leaves))
    return nq.terms.App("f", tuple(random_f_term(nq, sig, rng, depth - 1, leaves) for _ in range(sig.arity("f"))))


def expand(nq, trs, term, rng, steps, leaves=("x", "y", "z")):
    """Rewrite backwards: replace a random subterm s by a rule's left side
    whose right side is the variable it binds to s, other variables becoming
    random leaves.  The result rewrites to `term`, which is irreducible, so
    in a confluent system `term` is its normal form."""
    terms = nq.terms
    rules = [r for r in trs.rules if isinstance(r.rhs, terms.Var)]
    for _ in range(steps):
        rule = rng.choice(rules)
        pos, sub = rng.choice(list(terms.positions(term)))
        binding = {v: terms.Var(rng.choice(leaves)) for v in sorted(terms.variables(rule.lhs))}
        binding[rule.rhs.name] = sub
        term = terms.replace_at(term, pos, terms.apply_substitution(binding, rule.lhs))
    return term


# ---------------------------------------------------------------------------
# amalgam: the amalgam reduction engine and its step cache


def _steiner(nq, name):
    # f(a, b) = -(a + b) mod 3: idempotent, commutative, every equation solvable
    return nq.algebras.algebra_from_function(name, 2, "quasigroup", ["0", "1", "2"], lambda a, b: (-a - b) % 3)


def _trivial(nq, n, kind):
    return nq.algebras.algebra_from_function(
        "T%d%s" % (n, kind[0]), n, kind, ["0"], lambda *ix: 0, identity="0" if kind == "loop" else None
    )


def random_element_term(nq, d, rng, depth):
    """A full tree of the given depth over d's n-ary operations."""
    if depth == 0:
        return nq.terms.Elem(rng.choice(d.carrier_union))
    symbols = sorted(s for s, k in d.signature.symbols.items() if k == d.n)
    return nq.terms.App(rng.choice(symbols), tuple(random_element_term(nq, d, rng, depth - 1) for _ in range(d.n)))


def agreed_normal_form(nq, d, term):
    """The normal form when all three strategies agree on an irreducible
    term; otherwise a description of the disagreement."""
    am = nq.amalgams
    forms = {
        am.normalize_element(d, term, strategy).normal_form
        for strategy in ("leftmost-innermost", "leftmost-outermost")
    }
    forms.add(am.normalize_element(d, term, "random", seed=7).normal_form)
    if len(forms) != 1:
        return "strategies disagree: %s" % sorted(map(str, forms))
    (form,) = forms
    if am.amalgam_steps(d, form):
        return "reducible: %s" % form
    return str(form)


def amalgam_diagrams(nq):
    al, am = nq.algebras, nq.amalgams
    z = al.cyclic_loop
    one = [{"0": "0"}, {"0": "0"}]
    return [
        ("Z3*Z3/T", am.build_amalgam(_trivial(nq, 2, "loop"), [z(3, name="Z3a"), z(3, name="Z3b")], one)),
        ("Z4*Z4/Z2", am.build_amalgam(z(2), [z(4, name="Z4a"), z(4, name="Z4b")], [{"0": "0", "1": "2"}] * 2)),
        ("St3*St3/S1", am.build_amalgam(_trivial(nq, 2, "quasigroup"), [_steiner(nq, "Sta"), _steiner(nq, "Stb")], one)),
        ("Z5*Z5/T", am.build_amalgam(_trivial(nq, 2, "loop"), [z(5, name="Z5a"), z(5, name="Z5b")], one)),
        ("Z3*Z3/T:n=3", am.build_amalgam(_trivial(nq, 3, "loop"), [z(3, 3, "Z3a"), z(3, 3, "Z3b")], one)),
    ]


def strong_amalgamation_pushouts(nq):
    al = nq.algebras
    z3 = al.cyclic_loop(3)
    one = [{"0": "0"}, {"0": "0"}]
    return [
        ("identity", z3, z3, z3, [{a: a for a in z3.carrier}] * 2),
        ("Z3,Z3/T", _trivial(nq, 2, "loop"), al.cyclic_loop(3, name="Z3a"), al.cyclic_loop(3, name="Z3b"), one),
        ("Z4,Z4/Z2", al.cyclic_loop(2), al.cyclic_loop(4, name="Z4a"), al.cyclic_loop(4, name="Z4b"), [{"0": "0", "1": "2"}] * 2),
        ("St3,St3/S1", _trivial(nq, 2, "quasigroup"), _steiner(nq, "Sta"), _steiner(nq, "Stb"), one),
    ]


# Queries per diagram.  The ternary ones cost about twice the binary ones;
# with ten of them, the ten tasks beyond verdict_tail_ms are the five
# unique-normal-form checks and half of these, so the tail sits in the
# middle of that cluster instead of in the upper tail of forty random costs.
QUERIES_PER_DIAGRAM = {2: 40, 3: 10}


def setup_amalgam(nq, seed, workdir):
    am = nq.amalgams
    rng = Random(seed)
    tasks = []

    def unf(name, d, trial_seed):
        tasks.append(
            Task(
                "check_unique_normal_forms:" + name,
                "check_unique_normal_forms",
                lambda: am.check_unique_normal_forms(d, depth=5, trials=1000, seed=trial_seed, rand_depth=4),
                "unique",
                verdict=lambda result: "unique" if result is None else str(result),
            )
        )

    def strong(name, base, a1, a2, embeddings):
        tasks.append(
            Task(
                "check_strong_amalgamation:" + name,
                "check_strong_amalgamation",
                lambda: am.check_strong_amalgamation(base, a1, a2, embeddings),
                (True, True),
                verdict=lambda report: (report.ok, report.intersection == report.base_image),
            )
        )

    def query(name, d, kind, run, term):
        tasks.append(
            Task(name, kind, run, oracle=lambda: agreed_normal_form(nq, d, term), verdict=lambda element: str(element.normal_form))
        )

    diagrams = amalgam_diagrams(nq)
    for name, d in diagrams:
        # unique normal forms in these free products is the paper's theorem
        unf(name, d, rng.randrange(2**31))
    for args in strong_amalgamation_pushouts(nq):
        strong(*args)
    for name, d in diagrams:
        # a few milliseconds per query, so one interrupt does not double it
        depth = 4 if d.n == 3 else 5
        symbols = sorted(s for s, k in d.signature.symbols.items() if k == d.n)
        for i in range(QUERIES_PER_DIAGRAM[d.n] // 2):
            term = random_element_term(nq, d, rng, depth)
            query("normalize_element:%s#%d" % (name, i), d, "normalize_element", lambda d=d, t=term: am.normalize_element(d, t), term)
            symbol = rng.choice(symbols)
            args = tuple(random_element_term(nq, d, rng, depth - 1) for _ in range(d.n))
            query(
                "apply_op:%s#%d" % (name, i),
                d,
                "apply_op",
                lambda d=d, s=symbol, a=args: am.apply_op(d, s, a),
                nq.terms.App(symbol, args),
            )
    return tasks


# ---------------------------------------------------------------------------
# cep: finite algebras and codescent


def _table_algebra(nq, name, n, order, op, kind="loop"):
    return nq.algebras.algebra_from_function(
        name, n, kind, [str(i) for i in range(order)], op, identity="0" if kind == "loop" else None
    )


def _s3_op():
    perms = list(itertools.permutations(range(3)))  # identity first
    return lambda a, b: perms.index(tuple(perms[a][perms[b][i]] for i in range(3)))


def _d4_op(a, b):
    # r^i s^j as i + 4j, with s r = r^-1 s
    (i1, j1), (i2, j2) = (a % 4, a // 4), (b % 4, b // 4)
    return (i1 + (i2 if j1 == 0 else -i2)) % 4 + 4 * (j1 ^ j2)


# Q8 as 2*unit + sign with units 1, i, j, k: product of units -> (sign, unit)
_Q8_UNITS = {
    (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
    (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
    (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
}  # fmt: skip


def _q8_op(a, b):
    u1, u2 = a // 2, b // 2
    if u1 == 0 or u2 == 0:
        sign, unit = 0, u1 + u2
    else:
        sign, unit = _Q8_UNITS[(u1, u2)]
    return 2 * unit + ((a % 2) ^ (b % 2) ^ sign)


def sub_embedding(nq, target, elements, name):
    """Embedding of the subalgebra on the given target indices (identity
    first for loops), built as an algebra of its own."""
    carrier = [str(i) for i in range(len(elements))]

    def op(*ix):
        value = target.table_f[tuple(target.carrier[elements[i]] for i in ix)]
        return elements.index(target.index(value))

    source = nq.algebras.algebra_from_function(
        name, target.n, target.kind, carrier, op, identity="0" if target.kind == "loop" else None
    )
    return nq.algebras.Embedding(source, target, {str(i): target.carrier[e] for i, e in enumerate(elements)})


def cep_embeddings(nq):
    """(label, embedding, answer a theorem fixes or None).

    Abelian groups have the congruence extension property: a subgroup N of
    H <= G is normal in G, and N is its own restriction.  In D4 the Klein
    subgroup V = {1, r^2, s, r^2 s} fails it: <s> is normal in V, but every
    normal subgroup of D4 that contains s contains V.
    """
    al, cd = nq.algebras, nq.codescent
    z = al.cyclic_loop
    z2z4 = _table_algebra(nq, "Z2xZ4", 2, 8, lambda a, b: ((a // 4 + b // 4) % 2) * 4 + (a + b) % 4)
    z2cubed = _table_algebra(nq, "Z2^3", 2, 8, lambda a, b: a ^ b)
    s3 = _table_algebra(nq, "S3", 2, 6, _s3_op())
    d4 = _table_algebra(nq, "D4", 2, 8, _d4_op)
    q8 = _table_algebra(nq, "Q8", 2, 8, _q8_op)
    groups = [
        (z(6), True, [[0, 3], [0, 2, 4], list(range(6))]),
        (z(7), True, [[0], list(range(7))]),
        (z(8), True, [[0, 4], [0, 2, 4, 6], list(range(8))]),
        (z2z4, True, [[0, 4], [0, 2], [0, 6], [0, 1, 2, 3], [0, 5, 2, 7], [0, 4, 2, 6], list(range(8))]),
        (z2cubed, True, [[0, 1], [0, 3], [0, 7], [0, 1, 2, 3], [0, 3, 5, 6], list(range(8))]),
        (s3, None, [[0, 1], [0, 2], [0, 5], [0, 3, 4], list(range(6))]),
        (d4, None, [[0, 2], [0, 4], [0, 1, 2, 3], list(range(8))]),
        (d4, False, [[0, 2, 4, 6], [0, 2, 5, 7]]),
        (q8, None, [[0, 1], [0, 2, 1, 3], list(range(8))]),
        (z(6, 3, "Z6:n=3"), None, [[0, 3], [0, 2, 4], list(range(6))]),
        (z(8, 3, "Z8:n=3"), None, [[0, 4], [0, 2, 4, 6]]),
    ]
    # Affine quasigroups a*x + b*y + c over Z8 (a, b odd), embedded as a whole:
    # an identity embedding has the property by construction.  With the five
    # order-8 groups they make 16 decisions whose source has Bell(8) = 4,140
    # partitions, the cluster verdict_tail_ms falls in.
    for a, b, c in ((3, 1, 0), (1, 5, 1), (3, 5, 2)):
        affine = _table_algebra(nq, "Aff%d%d%d" % (a, b, c), 2, 8, lambda x, y, a=a, b=b, c=c: (a * x + b * y + c) % 8, "quasigroup")
        groups.append((affine, True, [list(range(8))]))
    out = []
    for target, theorem, subgroups in groups:
        for elements in subgroups:
            label = "%s<%s" % ("{%s}" % ",".join(map(str, elements)), target.name)
            out.append((label, sub_embedding(nq, target, elements, "H%d" % len(elements)), theorem))
    for cycle_type in ((4, 2), (3, 3), (3, 2, 2), (4, 3), (5, 3), (4, 2, 2)):
        perm = cd.permutation_from_cycle_type(cycle_type)
        for k, emb in enumerate(cd.sub_permutation_embeddings(perm)):
            out.append(("perm%s#%d" % ("".join(map(str, cycle_type)), k), emb, None))
    return out


def relabel(nq, emb, rng):
    """The same embedding with both carriers renamed by seeded permutations
    and listed in the new names' order, so enumeration order changes too."""
    al = nq.algebras

    def renamed(alg):
        perm = list(range(alg.order))
        rng.shuffle(perm)
        names = {a: str(perm[i]) for i, a in enumerate(alg.carrier)}
        move = lambda table: {tuple(names[a] for a in key): names[v] for key, v in table.items()}
        carrier = [str(i) for i in range(alg.order)]
        identity = None if alg.identity is None else names[alg.identity]
        return al.FiniteAlgebra(alg.name, alg.n, alg.kind, carrier, move(alg.table_f), [move(t) for t in alg.tables_g], identity), names

    source, s_names = renamed(emb.source)
    target, t_names = renamed(emb.target)
    return al.Embedding(source, target, {s_names[a]: t_names[b] for a, b in emb.mapping.items()})


def _cep_answer(nq, emb, scope, theorem):
    verdict, _ = nq.codescent.cep_by_enumeration(emb, scope)
    if theorem is not None and verdict != theorem:
        return "oracle %s contradicts the theorem" % verdict
    return verdict


def setup_cep(nq, seed, workdir):
    cd = nq.codescent
    rng = Random(seed)
    tasks = [
        Task(
            "search_noncep_monomorphism(5)",
            "search_noncep_monomorphism",
            lambda: cd.search_noncep_monomorphism(5),
            # Latin squares of orders 2..5: 2 + 12 + 576 + 161,280 (OEIS A002860)
            (True, 161870, 5856),
            verdict=lambda result: (result[0] is None, result[1].get("squares"), result[1].get("embeddings"))
            if result[0] is None
            else (False, str(result[0]), None),
        ),
        Task(
            "verify_prop_3_6(7)",
            "verify_prop_3_6",
            lambda: cd.verify_prop_3_6(7),
            "none",  # Prop. 3.6: f-congruences of finite 1-quasigroups are full
            verdict=lambda result: "none" if result is None else str(result),
        ),
    ]
    for label, emb, theorem in cep_embeddings(nq):
        emb = relabel(nq, emb, rng)
        for scope in ("f", "full"):
            tasks.append(
                Task(
                    "check_cep:%s:%s" % (label, scope),
                    "check_cep",
                    lambda emb=emb, scope=scope: cd.check_cep(emb, scope),
                    oracle=lambda emb=emb, scope=scope, theorem=theorem: _cep_answer(nq, emb, scope, theorem),
                    verdict=lambda report: report.verdict,
                )
            )
    return tasks


# ---------------------------------------------------------------------------
# cli: one `python -m nquasi.cli` subprocess per task


def cli_env(root, extra=None):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("NQ_REDUCT_CAP", None)
    env.update(extra or {})
    return env


def _run_cli(root, argv, env_extra):
    done = subprocess.run(
        [sys.executable, "-m", "nquasi.cli"] + argv,
        cwd=root,
        env=cli_env(root, env_extra),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def _first_line(out):
    return out.splitlines()[0] if out.strip() else ""


def _json_field(*path):
    def get(out):
        value = json.loads(out)
        for key in path:
            value = value[key]
        return value

    return get


def cli_verdict(expected_code, fact):
    """raw (code, stdout, stderr) -> (code, fact(stdout)); a traceback, an
    exit code outside 0..3, an unexpected resource stop, or anything but 2
    for bad input breaks the contract."""

    def verdict(raw):
        code, out, err = raw
        if "Traceback" in err or code not in (0, 1, 2, 3):
            raise ContractBreak("exit %r%s" % (code, ", traceback" if "Traceback" in err else ""))
        if (code == 3) != (expected_code == 3) or (expected_code == 2 and code != 2):
            raise ContractBreak("exit %d for an input the contract gives %d" % (code, expected_code))
        return code, (fact(out) if fact and code == expected_code else None)

    return verdict


def _inproc(nq, argv, env_extra, clock):
    """Run cli.main in this process with output captured; returns ms."""
    saved = {k: os.environ.get(k) for k in env_extra}
    os.environ.update(env_extra)
    sink = io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            nq.cli.main(list(argv))
    except (Exception, SystemExit):
        pass  # the subprocess run of the same argv already judged the outcome
    finally:
        elapsed = clock() - t0
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return elapsed * 1000.0


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def random_term(nq, sig, rng, depth, leaves=("x", "y")):
    symbols = sorted(s for s, k in sig.symbols.items() if k >= 1)
    if depth == 0:
        return nq.terms.Var(rng.choice(leaves))
    symbol = rng.choice(symbols)
    return nq.terms.App(symbol, tuple(random_term(nq, sig, rng, depth - 1, leaves) for _ in range(sig.arity(symbol))))


def setup_cli(nq, seed, workdir):
    va, al, rw = nq.varieties, nq.algebras, nq.rewriting
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rng = Random(seed)
    tasks = []
    path = lambda name: os.path.join(workdir, name)

    def cli(name, argv, expected_code, fact=None, oracle_fact=None, env=None, hostile=False):
        env = env or {}

        def inproc(tracer, clock):
            tracer.stats["cli.main." + argv[0]]["ms"] += _inproc(nq, argv, env, clock)

        tasks.append(
            Task(
                "cli:" + name,
                "cli:" + argv[0],
                lambda: _run_cli(root, argv, env),
                (expected_code, None) if oracle_fact is None else None,
                oracle=None if oracle_fact is None else lambda: (expected_code, oracle_fact()),
                verdict=cli_verdict(expected_code, fact),
                inproc=inproc,
                hostile=hostile,
            )
        )

    systems = {
        "cq2": va.complete_quasigroup(2),
        "cq3": va.complete_quasigroup(3),
        "cl2": va.complete_loop(2),
        "bq2": va.base_quasigroup(2),
        "bq3": va.base_quasigroup(3),
        "bl2": va.base_loop(2),
        "bl3": va.base_loop(3),
    }
    systems["fork"] = mutate(nq, systems["cq2"], "fork", rng, "fork1")
    files = {name: _write(path(name + ".trs"), rw.format_trs(trs)) for name, trs in systems.items()}
    _write(path("malformed.trs"), "sig f/2\nrule r1: f(x, -> x\n")

    trivial = _trivial(nq, 2, "loop")
    diagram = {
        "base": al.algebra_to_json(trivial),
        "factors": [al.algebra_to_json(al.cyclic_loop(3, name="Z3a")), al.algebra_to_json(al.cyclic_loop(3, name="Z3b"))],
        "embeddings": [{"0": "0"}, {"0": "0"}],
    }
    _write(path("diagram.json"), json.dumps(diagram))
    _write(path("diagram_broken.json"), json.dumps({"base": diagram["base"]}))

    def embedding_file(name, emb):
        payload = {"source": al.algebra_to_json(emb.source), "target": al.algebra_to_json(emb.target), "map": emb.mapping}
        _write(path(name), json.dumps(payload))
        return emb

    z2z6 = embedding_file("emb_z2z6.json", relabel(nq, sub_embedding(nq, al.cyclic_loop(6), [0, 3], "H2"), rng))
    d4 = _table_algebra(nq, "D4", 2, 8, _d4_op)
    embedding_file("emb_d4.json", relabel(nq, sub_embedding(nq, d4, [0, 2, 4, 6], "V"), rng))
    bad_map = {"source": al.algebra_to_json(al.cyclic_loop(2)), "target": al.algebra_to_json(al.cyclic_loop(4)), "map": {"0": "0", "1": "0"}}
    _write(path("emb_badmap.json"), json.dumps(bad_map))
    string_n = dict(bad_map, map={"0": "0", "1": "2"})
    string_n["source"] = dict(string_n["source"], n="2")
    _write(path("emb_string_n.json"), json.dumps(string_n))
    _write(path("emb_list.json"), json.dumps([bad_map]))

    terms = [random_term(nq, systems[s].signature, rng, 4) for s in ("cq2", "cl2", "cq3")]
    amalgam_term = rng.choice(["Z3a.1", "Z3b.2", "0"])
    for _ in range(3):
        amalgam_term = "%s(%s,%s)" % (rng.choice(["f", "g1", "g2"]), amalgam_term, rng.choice(["Z3a.1", "Z3a.2", "Z3b.1", "Z3b.2", "0"]))
    deep = "x"
    for _ in range(1500):
        deep = "f(%s,x)" % deep

    def nf(trs, term):
        return "normal form: %s" % rw.normalize(trs, term)[0]

    def amalgam_nf():
        d = nq.amalgams.build_amalgam(trivial, [al.cyclic_loop(3, name="Z3a"), al.cyclic_loop(3, name="Z3b")], diagram["embeddings"])
        return "normal form: %s" % agreed_normal_form(nq, d, nq.amalgams.parse_element_term(d, amalgam_term))

    def completed(out):
        return canonical_rules(nq, rw.parse_trs(json.loads(out)["details"]["trs"]))

    def cep_word(emb, scope):
        return lambda: "effective" if nq.codescent.cep_by_enumeration(emb, scope)[0] else "not-effective"

    cli("gen-trs:quasigroup-2", ["gen-trs", "--kind", "quasigroup", "--n", "2"], 0, _same, lambda: rw.format_trs(systems["bq2"]))
    cli(
        "gen-trs:loop-3-complete",
        ["gen-trs", "--kind", "loop", "--n", "3", "--complete"],
        0,
        _same,
        lambda: rw.format_trs(va.complete_loop(3)),
    )
    cli("check:cq3", ["check", "--trs", files["cq3"]], 0, _first_line, lambda: "confluent")
    cli("check:bq2", ["check", "--trs", files["bq2"]], 1, _first_line, lambda: "not confluent")
    cli("check:fork", ["check", "--trs", files["fork"]], 1, _first_line, lambda: "not confluent")
    cli(
        "check:cl2-conditions-pairs-json",
        ["check", "--trs", files["cl2"], "--confluence", "--conditions", "--critical-pairs", "--json"],
        0,
        lambda out: (_json_field("details", "confluence", "status")(out), len(_json_field("details", "critical_pairs")(out))),
        lambda: ("confluent", len(rw.critical_pairs(systems["cl2"]))),
    )
    cli(
        "check:bl3-json",
        ["check", "--trs", files["bl3"], "--json"],
        1,
        _json_field("details", "confluence", "status"),
        lambda: "not-confluent",
    )
    cli(
        "normalize:cq2-trace",
        ["normalize", "--trs", files["cq2"], "--term", str(terms[0]), "--trace"],
        0,
        _first_line,
        lambda: nf(systems["cq2"], terms[0]),
    )
    cli(
        "normalize:cl2-json",
        ["normalize", "--trs", files["cl2"], "--term", str(terms[1]), "--json"],
        0,
        lambda out: "normal form: %s" % _json_field("verdict")(out),
        lambda: nf(systems["cl2"], terms[1]),
    )
    cli(
        "normalize:cq3-random",
        ["normalize", "--trs", files["cq3"], "--term", str(terms[2]), "--strategy", "random", "--seed", str(rng.randrange(1000))],
        0,
        _first_line,
        lambda: nf(systems["cq3"], terms[2]),
    )
    cli("complete:bq2", ["complete", "--trs", files["bq2"], "--json"], 0, completed, lambda: canonical_rules(nq, va.complete_quasigroup(2)))
    cli("complete:bl2", ["complete", "--trs", files["bl2"], "--json"], 0, completed, lambda: canonical_rules(nq, va.complete_loop(2)))
    cli("complete:bq3", ["complete", "--trs", files["bq3"], "--json"], 0, completed, lambda: canonical_rules(nq, va.complete_quasigroup(3)))
    cli(
        "amalgam:normalize",
        ["amalgam", "--diagram", path("diagram.json"), "--normalize", amalgam_term],
        0,
        _first_line,
        amalgam_nf,
    )
    cli(
        "amalgam:check-unf",
        ["amalgam", "--diagram", path("diagram.json"), "--check-unf", "--depth", "4", "--seed", str(rng.randrange(1000))],
        0,
        _first_line,
        lambda: "unique normal forms up to size 4: ok",
    )
    cli(
        "amalgam:strong",
        ["amalgam", "--diagram", path("diagram.json"), "--check-strong-amalgamation", "--json"],
        0,
        _json_field("details", "ok"),
        lambda: True,
    )
    cli("codescent:z2z6-full", ["codescent", "--embedding", path("emb_z2z6.json")], 0, _first_line, lambda: "effective codescent morphism")
    cli(
        "codescent:z2z6-f-json",
        ["codescent", "--embedding", path("emb_z2z6.json"), "--scope", "f", "--json"],
        0,
        _json_field("verdict"),
        cep_word(z2z6, "f"),
    )
    cli(
        "codescent:d4-klein-json",
        ["codescent", "--embedding", path("emb_d4.json"), "--json"],
        1,
        _json_field("verdict"),
        lambda: "not-effective",
    )
    # bad input: the contract gives exit 2
    cli("bad:missing-file", ["check", "--trs", path("missing.trs")], 2)
    cli("bad:malformed-trs", ["check", "--trs", path("malformed.trs")], 2)
    cli("bad:undeclared-symbol", ["normalize", "--trs", files["cq2"], "--term", "h(x)"], 2)
    cli("bad:arity-zero", ["gen-trs", "--kind", "loop", "--n", "0"], 2)
    cli("bad:non-injective-map", ["codescent", "--embedding", path("emb_badmap.json")], 2)
    cli("bad:diagram-missing-field", ["amalgam", "--diagram", path("diagram_broken.json"), "--check-unf"], 2)
    # the four hostile inputs of ROADMAP item 4: bad input, so exit 2 too
    cli("hostile:deep-term", ["normalize", "--trs", files["cq2"], "--term", deep], 2, hostile=True)
    cli("hostile:string-arity", ["codescent", "--embedding", path("emb_string_n.json")], 2, hostile=True)
    cli("hostile:list-embedding", ["codescent", "--embedding", path("emb_list.json")], 2, hostile=True)
    cli("hostile:reduct-cap", ["check", "--trs", files["cq2"]], 2, env={"NQ_REDUCT_CAP": "abc"}, hostile=True)
    return tasks


SETUPS = {
    "confluence": setup_confluence,
    "amalgam": setup_amalgam,
    "cep": setup_cep,
    "cli": setup_cli,
}

# Counts a traced pass must reproduce exactly, whatever the seed.
KNOWN_COUNTS = {
    "cep": {"codescent.latin_squares.items": 161870, "codescent.embeddings": 5856},
}
