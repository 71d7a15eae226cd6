"""Command-line front end: one binary, stable text or JSON reports.

Exit codes: 0 the checked property holds (or plain output succeeded),
1 the property fails (a witness is printed), 2 usage or input error,
3 a resource bound was hit.  NQ_REDUCT_CAP overrides the reduct-graph
safety cap.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from . import _OWNER
from .rewriting import (
    CapExceeded,
    DEFAULT_REDUCT_CAP,
    MaxRoundsExceeded,
    STRATEGIES,
    StepBoundExceeded,
    TerminationNotVerified,
    UnorientableError,
    check_conditions,
    check_confluence,
    complete,
    critical_pairs,
    format_trs,
    normalize,
    parse_trs,
)
from .terms import ParseError, parse_term

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

# Each subcommand imports only what it runs: the layers beyond `terms` and
# `rewriting`, and `json` where it reads or writes JSON.  The sha256 digest
# of its input, and so `hashlib`, is computed only for --json.  A package
# export resolves here on first access and is kept, for perfbench/tracing.py
# to rebind; the subcommands call the layer's own binding.


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(importlib.import_module("." + _OWNER[name], __package__), name)
    return value


def _loaded(*names):
    """The classes named `layer.Name` whose layer this process imported: a
    layer that was never imported raised nothing."""
    found = []
    for qualified in names:
        layer, name = qualified.split(".")
        module = sys.modules.get("%s.%s" % (__package__, layer))
        if module is not None:
            found.append(getattr(module, name))
    return tuple(found)


def _reduct_cap() -> int:
    raw = os.environ.get("NQ_REDUCT_CAP")
    if raw is None:
        return DEFAULT_REDUCT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise _InputError("NQ_REDUCT_CAP must be an integer, got %r" % raw) from None
    if cap < 1:
        raise _InputError("NQ_REDUCT_CAP must be positive")
    return cap


def _digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError("cannot read %s: %s" % (path, exc)) from None


class _InputError(Exception):
    pass


def _at_least(low: int):
    """argparse type: an integer of at least `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # argparse's own wording for type=int
            raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return parse


_count = _at_least(0)
_positive = _at_least(1)


def _pair_json(cp) -> dict:
    return {
        "left": str(cp.left),
        "right": str(cp.right),
        "peak": str(cp.peak),
        "rule1": cp.rule1,
        "rule2": cp.rule2,
        "position": list(cp.position),
        "trivial": cp.trivial,
    }


def _emit(args, command, inputs, verdict, details, exit_code, human_lines) -> int:
    """Print the report and return its exit code.  With --json the report
    is one JSON object, and only then is `inputs()` called for its input
    digests (`check` and `complete` also build `details` only then);
    otherwise the human lines are printed."""
    if getattr(args, "json", False):
        import json

        report = {
            "command": command,
            "inputs": inputs(),
            "verdict": verdict,
            "details": details,
            "exit_code": exit_code,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
    return exit_code


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_trs(args) -> int:
    from .varieties import VarietySpec, generate_trs

    spec = VarietySpec(args.kind, args.n, complete=args.complete)
    sys.stdout.write(format_trs(generate_trs(spec)))
    return EXIT_OK


def cmd_check(args) -> int:
    text = _read(args.trs)
    trs = parse_trs(text)
    cap = _reduct_cap()
    do_confluence = args.confluence or not (args.conditions or args.critical_pairs)
    inputs = lambda: {"trs": _digest(text)}
    details = {}
    human = []
    ok = True

    if args.conditions:
        report = check_conditions(trs)
        if args.json:
            details["conditions"] = {"star": report.star, "star2": report.star2, "star3": report.star3}
        ok = ok and report.star_ok and report.star3_ok
        human.append("conditions: size-decrease %s, constants %s, subterm-variables %s"
                     % ("ok" if report.star_ok else "FAIL",
                        report.star2,
                        "ok" if report.star3_ok else "FAIL"))
        for label, good in sorted(report.star.items()):
            if not good:
                human.append("  size-decrease fails for rule %s" % label)
        for label, good in sorted(report.star3.items()):
            if not good:
                human.append("  subterm-variables fails for rule %s" % label)

    if args.critical_pairs:
        pairs = critical_pairs(trs)
        if args.json:
            details["critical_pairs"] = [_pair_json(cp) for cp in pairs]
        human.append("%d critical pairs (%d trivial)" % (len(pairs), sum(cp.trivial for cp in pairs)))
        for cp in pairs:
            flag = " [trivial]" if cp.trivial else ""
            human.append("  %s%s" % (cp, flag))

    if do_confluence:
        try:
            verdict = check_confluence(trs, cap)
        except (TerminationNotVerified, CapExceeded):
            if not args.json:  # the text sections computed so far, then main reports the refusal
                for line in human:
                    print(line)
            raise
        if args.json:
            details["confluence"] = {
                "status": verdict.status,
                "witness": _pair_json(verdict.witness) if verdict.witness else None,
                "nonjoinable": [_pair_json(cp) for cp in verdict.nonjoinable],
            }
        human.append(verdict.status.replace("-", " "))
        if verdict.witness is not None:
            human.append("witness: rules %s x %s at position %s"
                         % (verdict.witness.rule1, verdict.witness.rule2, list(verdict.witness.position)))
            human.append("  peak:  %s" % verdict.witness.peak)
            human.append("  left:  %s" % verdict.witness.left)
            human.append("  right: %s" % verdict.witness.right)
        ok = ok and verdict.confluent

    code = EXIT_OK if ok else EXIT_FAIL
    return _emit(args, "check", inputs, "ok" if ok else "fail", details, code, human)


def cmd_normalize(args) -> int:
    text = _read(args.trs)
    trs = parse_trs(text)
    term = parse_term(args.term, trs.signature)
    result, trace = normalize(
        trs, term, strategy=args.strategy, seed=args.seed, max_steps=args.max_steps
    )
    inputs = lambda: {"trs": _digest(text), "term": args.term}
    details = {"normal_form": str(result), "steps": [[label, list(pos)] for label, pos in trace]}
    human = ["normal form: %s" % result]
    if args.trace:
        for label, pos in trace:
            human.append("  %s at %s" % (label, list(pos)))
        human.append("  (%d steps)" % len(trace))
    return _emit(args, "normalize", inputs, str(result), details, EXIT_OK, human)


def cmd_complete(args) -> int:
    text = _read(args.trs)
    trs = parse_trs(text)
    result = complete(trs, max_rounds=args.max_rounds, cap=_reduct_cap())
    inputs = lambda: {"trs": _digest(text)}
    details = {
        "rounds": result.rounds,
        "adopted": [
            {"rule": str(rule), "source_pair": _pair_json(cp)} for rule, cp in result.adopted
        ],
        "trs": format_trs(result.trs),
    } if args.json else None
    human = ["confluent after %d completion round(s), %d rule(s) added"
             % (result.rounds, len(result.adopted))]
    for rule, cp in result.adopted:
        human.append("  adopted %s" % rule)
        human.append("    from pair %s" % cp)
    human.append(format_trs(result.trs).rstrip("\n"))
    return _emit(args, "complete", inputs, "confluent", details, EXIT_OK, human)


def cmd_amalgam(args) -> int:
    import json

    from .algebras import algebra_from_json
    from .amalgams import (
        build_amalgam,
        check_strong_amalgamation,
        check_unique_normal_forms,
        normalize_element,
        parse_element_term,
    )

    text = _read(args.diagram)
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        base = algebra_from_json(obj["base"])
        if not isinstance(obj["factors"], list):
            raise ValueError("factors must be a list")
        factors = [algebra_from_json(f) for f in obj["factors"]]
        embeddings = obj["embeddings"]
        if not isinstance(embeddings, list):  # build_amalgam checks its length
            raise ValueError("embeddings must be a list")
        for mapping in embeddings:
            if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
                raise ValueError("each embedding must be an object of element names")
    except (KeyError, ValueError) as exc:
        raise _InputError("bad diagram file: %s" % exc) from None
    inputs = lambda: {"diagram": _digest(text)}

    if args.normalize is not None:
        diagram = build_amalgam(base, factors, embeddings)
        term = parse_element_term(diagram, args.normalize)
        element = normalize_element(diagram, term, strategy=args.strategy, seed=args.seed)
        details = {"normal_form": str(element)}
        return _emit(args, "amalgam", inputs, str(element), details, EXIT_OK, ["normal form: %s" % element])

    if args.check_unf:
        diagram = build_amalgam(base, factors, embeddings)
        bad = check_unique_normal_forms(diagram, cap=_reduct_cap())
        if bad is None:
            human = ["unique normal forms up to size %d: ok" % args.depth]
            return _emit(args, "amalgam", inputs, "unique-normal-forms", {"depth": args.depth}, EXIT_OK, human)
        details = {"counterexample": str(bad)}
        return _emit(args, "amalgam", inputs, "counterexample", details, EXIT_FAIL, ["counterexample: %s" % bad])

    if len(factors) != 2:
        raise _InputError("strong amalgamation check needs exactly two factors")
    sa = check_strong_amalgamation(base, factors[0], factors[1], embeddings)
    details = {
        "ok": sa.ok,
        "intersection": sorted(sa.intersection),
        "base_image": sorted(sa.base_image),
    }
    return _emit(args, "amalgam", inputs, str(sa), details, EXIT_OK, [str(sa)])


def cmd_codescent(args) -> int:
    import json

    from .algebras import Embedding
    from .codescent import check_cep

    text = _read(args.embedding)
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise _InputError("bad embedding file: expected a JSON object")
        source = _load_algebra_field(obj, "source", args.embedding)
        target = _load_algebra_field(obj, "target", args.embedding)
        mapping = obj["map"]
    except (KeyError, ValueError) as exc:
        raise _InputError("bad embedding file: %s" % exc) from None
    if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
        raise _InputError("bad embedding file: map must be an object of element names")
    emb = Embedding(source, target, mapping)
    report = check_cep(emb, scope=args.scope)
    inputs = lambda: {"embedding": _digest(text)}
    details = {
        "scope": args.scope,
        "congruences_checked": len(report.witnesses),
        "failing": str(report.failing) if report.failing is not None else None,
    }
    verdict = "effective" if report.verdict else "not-effective"
    human = [str(report)]
    if args.scope == "full":
        human.insert(0, "effective codescent morphism" if report.verdict
                     else "not an effective codescent morphism")
    code = EXIT_OK if report.verdict else EXIT_FAIL
    return _emit(args, "codescent", inputs, verdict, details, code, human)


def _load_algebra_field(obj, role, embedding_path):
    from .algebras import InvalidAlgebraError, algebra_from_json

    value = obj[role]
    if isinstance(value, str):
        base_dir = os.path.dirname(os.path.abspath(embedding_path))
        value = _read(os.path.join(base_dir, value))
    try:
        return algebra_from_json(value)
    except InvalidAlgebraError as exc:
        raise _InputError("%s %s" % (role, exc)) from None


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nq",
        description="Rewriting workbench for n-quasigroups and n-loops.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen-trs", help="emit a variety presentation as a TRS file")
    gen.add_argument("--kind", choices=["quasigroup", "loop"], required=True)
    gen.add_argument("--n", type=_positive, required=True)
    gen.add_argument("--complete", action="store_true")
    gen.set_defaults(func=cmd_gen_trs)

    chk = sub.add_parser("check", help="confluence / condition / critical-pair checks")
    chk.add_argument("--trs", required=True)
    chk.add_argument("--confluence", action="store_true")
    chk.add_argument("--conditions", action="store_true")
    chk.add_argument("--critical-pairs", action="store_true")
    chk.add_argument("--json", action="store_true")
    chk.set_defaults(func=cmd_check)

    norm = sub.add_parser("normalize", help="rewrite a term to normal form")
    norm.add_argument("--trs", required=True)
    norm.add_argument("--term", required=True)
    norm.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="leftmost-innermost",
    )
    norm.add_argument("--seed", type=int, default=0)
    norm.add_argument("--max-steps", type=_count, default=None)
    norm.add_argument("--trace", action="store_true")
    norm.add_argument("--json", action="store_true")
    norm.set_defaults(func=cmd_normalize)

    comp = sub.add_parser("complete", help="orient non-joinable critical pairs until confluent")
    comp.add_argument("--trs", required=True)
    comp.add_argument("--max-rounds", type=_count, default=10)
    comp.add_argument("--json", action="store_true")
    comp.set_defaults(func=cmd_complete)

    ama = sub.add_parser("amalgam", help="free products with an amalgamated subalgebra")
    ama.add_argument("--diagram", required=True)
    action = ama.add_mutually_exclusive_group(required=True)
    action.add_argument("--normalize", metavar="TERM", default=None)
    action.add_argument("--check-unf", action="store_true")
    action.add_argument("--check-strong-amalgamation", action="store_true")
    ama.add_argument("--depth", type=_count, default=4)
    ama.add_argument("--seed", type=int, default=0)
    ama.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="leftmost-innermost",
    )
    ama.add_argument("--json", action="store_true")
    ama.set_defaults(func=cmd_amalgam)

    cod = sub.add_parser("codescent", help="effective-codescent decision for an embedding")
    cod.add_argument("--embedding", required=True)
    cod.add_argument("--scope", choices=["f", "full"], default="full")
    cod.add_argument("--json", action="store_true")
    cod.set_defaults(func=cmd_codescent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    # an except clause's classes are looked up only when an exception is matched
    except (CapExceeded, StepBoundExceeded, MaxRoundsExceeded) + _loaded("algebras.CarrierTooLargeError") as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except (_InputError, ParseError, TerminationNotVerified) + _loaded(
        "algebras.AlgebraError", "amalgams.AmalgamError"
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except UnorientableError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except RecursionError:
        # the term walkers recurse once per level of nesting
        print("error: term is nested too deeply", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
