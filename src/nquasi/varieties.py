"""Generators for the rewriting systems presenting n-quasigroups and
n-loops, for any n >= 1.

The base quasigroup system pairs the n-ary operation f with its n division
operations g_1..g_n (2n rules); loops add an identity constant e and its
absorption rules.  The "complete" variants add the derived rules that make
the system confluent.  Rule labels encode the identity family and the slot
indices, e.g. ``2.7[i=1,j=3]``, and are stable across runs.
"""

from __future__ import annotations

from .rewriting import Rule, Trs
from .terms import App, Signature, Term, Var, _FrozenRecord, _setattr


class VarietySpec(_FrozenRecord):
    __slots__ = _fields = ("kind", "n", "complete")

    def __init__(self, kind: str, n: int, complete: bool = False):
        if kind not in ("quasigroup", "loop"):
            raise ValueError("kind must be 'quasigroup' or 'loop', got %r" % (kind,))
        if not isinstance(n, int) or n < 1:
            raise ValueError("n must be a positive integer, got %r" % (n,))
        _setattr(self, "kind", kind)  # quasigroup | loop
        _setattr(self, "n", n)
        _setattr(self, "complete", complete)


def var_run(lo: int, hi: int) -> tuple:
    """The sequence x_lo, ..., x_hi; empty when lo > hi."""
    return tuple(Var("x%d" % k) for k in range(lo, hi + 1))


def const_run(symbol: str, count: int) -> tuple:
    """`count` copies of a constant; empty when count is 0."""
    if count < 0:
        raise ValueError("negative repeat count %d" % count)
    return (App(symbol),) * count


def variety_signature(kind: str, n: int) -> Signature:
    symbols = {"f": n}
    for i in range(1, n + 1):
        symbols["g%d" % i] = n
    if kind == "loop":
        symbols["e"] = 0
    return Signature(symbols)


def _f(args) -> Term:
    return App("f", tuple(args))


def _g(i: int, args) -> Term:
    return App("g%d" % i, tuple(args))


def _put(args: tuple, slots: dict) -> tuple:
    """`args` with the term of each 1-based slot of `slots` put in place."""
    out = list(args)
    for slot, term in slots.items():
        out[slot - 1] = term
    return tuple(out)


def generate_trs(spec: VarietySpec) -> Trs:
    """The presentation of the chosen variety as a rewriting system."""
    n = spec.n
    x = Var("x")
    xs = var_run(1, n)
    es = const_run("e", n)
    slots = range(1, n + 1)
    above = [(i, j) for i in slots for j in range(i + 1, n + 1)]
    below = [(i, j) for i in slots for j in range(1, i)]
    loop = spec.kind == "loop"
    rules = []

    if loop:
        rules += [Rule(_f(_put(es, {i: x})), x, "2.2[i=%d]" % i) for i in slots]
    rules += [Rule(_f(_put(xs, {i: _g(i, xs)})), xs[i - 1], "2.3[i=%d]" % i) for i in slots]
    rules += [Rule(_g(i, _put(xs, {i: _f(xs)})), xs[i - 1], "2.4[i=%d]" % i) for i in slots]

    if spec.complete:
        for family, pairs in (("2.7", above), ("2.8", below)):
            rules += [
                Rule(
                    _g(i, _put(xs, {i: xs[j - 1], j: _g(j, xs)})),
                    xs[i - 1],
                    "%s[i=%d,j=%d]" % (family, i, j),
                )
                for i, j in pairs
            ]
        if loop:
            rules += [Rule(_g(i, _put(es, {i: x})), x, "2.9[i=%d]" % i) for i in slots]
            for family, pairs in (("2.10", above), ("2.11", below)):
                rules += [
                    Rule(_g(i, _put(es, {i: x, j: x})), App("e"), "%s[i=%d,j=%d]" % (family, i, j))
                    for i, j in pairs
                ]

    return Trs(variety_signature(spec.kind, n), rules)


def base_quasigroup(n: int) -> Trs:
    return generate_trs(VarietySpec("quasigroup", n, complete=False))


def complete_quasigroup(n: int) -> Trs:
    return generate_trs(VarietySpec("quasigroup", n, complete=True))


def base_loop(n: int) -> Trs:
    return generate_trs(VarietySpec("loop", n, complete=False))


def complete_loop(n: int) -> Trs:
    return generate_trs(VarietySpec("loop", n, complete=True))
