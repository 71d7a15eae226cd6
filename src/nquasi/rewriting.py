"""Rewrite relation, normalization, critical pairs, confluence and
completion for term rewriting systems whose rules strictly shrink terms.

Confluence is decided for terminating systems by joinability of all
critical pairs; termination itself is only ever certified through the
syntactic size-decrease condition (the `star` check below), never guessed.
A brute-force local-confluence oracle over an enumerated universe of small
terms provides an independent cross-check of the critical-pair route.
"""

from __future__ import annotations

import itertools
import math

from .terms import (
    _IDENT_RE,
    App,
    Elem,
    ParseError,
    Position,
    Signature,
    Term,
    Var,
    _FrozenRecord,
    _Record,
    _check_bound,
    _cut,
    _setattr,
    apply_substitution,
    canonical_renaming,
    check_well_formed,
    fresh_names,
    iter_variables,
    match,
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

DEFAULT_REDUCT_CAP = 100_000

STRATEGIES = ("leftmost-innermost", "leftmost-outermost", "random")


def _check_cap(cap) -> None:
    """Refuse a reduct cap that is not an integer of at least 1, as the
    CLI refuses such an `NQ_REDUCT_CAP`."""
    if type(cap) is not int or cap < 1:
        raise ValueError("cap must be a positive integer, got %r" % (cap,))


class RewriteError(Exception):
    pass


class TerminationNotVerified(RewriteError):
    """The size-decrease condition failed and the operation needs termination."""


class CapExceeded(RewriteError):
    """A reduct-graph search outgrew its safety cap."""


class StepBoundExceeded(RewriteError):
    pass


class UnorientableError(RewriteError):
    def __init__(self, pair, reason):
        super().__init__("unorientable critical pair (%s): %s vs %s" % (reason, pair.left, pair.right))
        self.pair = pair
        self.reason = reason


class MaxRoundsExceeded(RewriteError):
    def __init__(self, rounds, trs):
        super().__init__("completion did not converge within %d rounds" % rounds)
        self.rounds = rounds
        self.trs = trs


class Rule(_FrozenRecord):
    """lhs -> rhs, named by its label; the left side is an application and
    the right side has no variable that the left side lacks.  Its two
    termination conditions are computed once, here, and kept beside the
    fields: `star` (lhs is larger, and no variable occurs more often in rhs)
    and `star3` (every application with arguments in lhs has all its variables)."""

    __slots__ = ("lhs", "rhs", "label", "star", "star3")
    _fields = ("lhs", "rhs", "label")

    def __init__(self, lhs: Term, rhs: Term, label: str):
        if not isinstance(lhs, App):
            leaf = "a variable" if isinstance(lhs, Var) else "an element"
            raise ValueError("rule %s: left-hand side is %s" % (label, leaf))
        lhs_vars, rhs_vars = list(iter_variables(lhs)), list(iter_variables(rhs))
        extra = set(rhs_vars).difference(lhs_vars)
        if extra:
            raise ValueError("rule %s: right-hand side has fresh variables %s" % (label, sorted(extra)))
        _setattr(self, "lhs", lhs)
        _setattr(self, "rhs", rhs)
        _setattr(self, "label", label)
        _setattr(self, "star", size(lhs) > size(rhs) and all(rhs_vars.count(v) <= lhs_vars.count(v) for v in rhs_vars))
        lhs_set = set(lhs_vars)
        applications = (sub for _pos, sub in positions(lhs) if isinstance(sub, App) and sub.args)
        _setattr(self, "star3", all(variables(sub) == lhs_set for sub in applications))

    def __str__(self) -> str:
        return "%s: %s -> %s" % (self.label, self.lhs, self.rhs)


class Trs:
    """A signature together with a finite sequence of rewrite rules; as a
    reduction system, it terminates when its rules pass the size-decrease
    check."""

    def __init__(self, signature: Signature, rules):
        rules = tuple(rules)
        labels = [r.label for r in rules]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError("duplicate rule labels: %s" % dupes)
        for r in rules:
            check_well_formed(signature, r.lhs)
            check_well_formed(signature, r.rhs)
        self.signature = signature
        self.rules = rules
        self._index = _RuleIndex(rules)
        self.collapsing = frozenset(r.label for r in rules if isinstance(r.rhs, Var))  # right side a variable
        self.conditions = ConditionsReport(  # returned by check_conditions
            star={r.label: r.star for r in rules},
            star2="holds" if len(signature.constants()) <= 1 else "undetermined",
            star3={r.label: r.star3 for r in rules},
        )

    @property
    def terminates(self) -> bool:
        return self.conditions.star_ok

    def root_steps(self, t: App) -> list:
        """The one-step successors (result, rule label, ()) of t at its
        root, in rule order.

        Rules apply left to right only, by one-sided matching of the
        left-hand side against t.
        """
        out = []
        for rule in self._index[(t.symbol, *map(_head, t.args))]:
            bindings = match(rule.lhs, t)
            if bindings is not None:
                out.append((apply_substitution(bindings, rule.rhs), rule.label, ()))
        return out

    def with_rules(self, extra) -> "Trs":
        return Trs(self.signature, self.rules + tuple(extra))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Trs)
            and self.signature == other.signature
            and self.rules == other.rules
        )

    def __repr__(self) -> str:
        return "Trs(%r, %d rules)" % (self.signature, len(self.rules))


def format_trs(trs: Trs) -> str:
    """The TRS file format read by parse_trs.  A rule that would not read
    back as itself is refused with ValueError: one whose label has ':', '#',
    a line break or surrounding whitespace, one with an element leaf (a
    bare name reads back as a variable), and one with a variable whose name
    is a declared symbol or no identifier."""
    sig = trs.signature
    lines = ["sig " + " ".join("%s/%d" % (s, k) for s, k in sig.symbols.items())]
    for r in trs.rules:
        if r.label != r.label.strip() or len(r.label.splitlines()) > 1 or ":" in r.label or "#" in r.label:
            raise ValueError("rule label %r has no syntax in the TRS format" % r.label)
        if any(isinstance(sub, Elem) for side in (r.lhs, r.rhs) for _pos, sub in positions(side)):
            raise ValueError("rule %s: element leaves have no syntax in the TRS format" % r.label)
        unreadable = sorted(v for v in variables(r.lhs) if v in sig or not _IDENT_RE.fullmatch(v))
        if unreadable:
            raise ValueError("rule %s: variables %s would not read back as variables" % (r.label, unreadable))
        lines.append("rule %s: %s -> %s" % (r.label, r.lhs, r.rhs))
    return "\n".join(lines) + "\n"


def parse_trs(text: str) -> Trs:
    """Parse the TRS file format: one `sig NAME/ARITY ...` line followed by
    `rule LABEL: LHS -> RHS` lines; `#` comments; LF or CRLF."""
    sig = None
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "sig" or line.startswith("sig "):
            if sig is not None:
                raise ParseError("line %d: duplicate sig line" % lineno)
            symbols = {}
            for chunk in line[4:].split():
                if "/" not in chunk:
                    raise ParseError("line %d: expected NAME/ARITY, got %s" % (lineno, _cut(chunk)))
                name, _, arity = chunk.rpartition("/")
                if name in symbols:
                    raise ParseError("line %d: repeated symbol %s" % (lineno, _cut(name)))
                try:
                    symbols[name] = int(arity)
                except ValueError:
                    raise ParseError("line %d: bad arity in %s" % (lineno, _cut(chunk))) from None
            try:
                sig = Signature(symbols)
            except ValueError as exc:
                raise ParseError("line %d: %s" % (lineno, exc)) from None
        elif line.startswith("rule "):
            if sig is None:
                raise ParseError("line %d: rule before sig line" % lineno)
            body = line[5:]
            if ":" not in body:
                raise ParseError("line %d: missing ':' after rule label" % lineno)
            label, _, rest = body.partition(":")
            label = label.strip()
            if "->" not in rest:
                raise ParseError("line %d: missing '->'" % lineno)
            if any(r.label == label for r in rules):
                raise ParseError("line %d: duplicate rule label %s" % (lineno, _cut(label)))
            lhs_text, _, rhs_text = rest.partition("->")
            try:
                lhs = parse_term(lhs_text, sig)
                rhs = parse_term(rhs_text, sig)
                rules.append(Rule(lhs, rhs, label))
            except ValueError as exc:
                raise ParseError("line %d: %s" % (lineno, exc)) from None
        else:
            raise ParseError("line %d: unrecognized line %s" % (lineno, _cut(line)))
    if sig is None:
        raise ParseError("missing sig line")
    return Trs(sig, rules)


# ---------------------------------------------------------------------------
# the rewrite relation


def _head(t: Term):
    """The symbol of an application, an element leaf itself, or None for a
    variable (which a rule's variable argument matches like any other)."""
    if isinstance(t, App):
        return t.symbol
    return t if isinstance(t, Elem) else None


class _RuleIndex(dict):
    """(root symbol, head of each argument) -> the rules that may match an
    application with that key, filled on first use and cached per key;
    `overlapping(key)` gives the rules that may unify with it.  Both lists
    are in rule order.

    Rule k is bit k of a mask.  Each (root symbol, arity) keeps the mask of
    its rules and, for each argument slot, the mask of its rules with each
    head there.  A rule fits a key when at every slot its head equals the
    key's or is a variable; when unifying, a variable of the key fits every
    head, so its slot is skipped.  `match` and `unify` still check deeper
    levels and repeated variables.
    """

    def __init__(self, rules):
        super().__init__()
        self.rules = tuple(rules)
        self.roots = {}  # (root symbol, arity) -> (mask of its rules, per slot {head: mask of its rules with it there})
        for i, rule in enumerate(self.rules):
            bit, args = 1 << i, rule.lhs.args
            root = rule.lhs.symbol, len(args)
            mask, slots = self.roots.get(root) or (0, [{} for _ in args])
            for by_head, head in zip(slots, map(_head, args)):
                by_head[head] = by_head.get(head, 0) | bit
            self.roots[root] = mask | bit, slots

    def __missing__(self, key):
        self[key] = found = self._fitting(key, False)
        return found

    def overlapping(self, key) -> list:
        return self._fitting(key, True)

    def _fitting(self, key, unifying: bool) -> list:
        mask, slots = self.roots.get((key[0], len(key) - 1), (0, ()))
        for by_head, head in zip(slots, key[1:]):
            if head is not None or not unifying:
                mask &= by_head.get(head, 0) | by_head.get(None, 0)
        found = []
        while mask:  # lowest bit first: rule order
            low = mask & -mask
            found.append(self.rules[low.bit_length() - 1])
            mask ^= low
        return found


def _lifted(system, t: Term, below):
    """The steps (result, label, position) of t: its root steps, then each
    argument's steps `below(arg)` lifted into t."""
    if not isinstance(t, App):
        return
    yield from system.root_steps(t)
    symbol, args = t.symbol, t.args
    for i, arg in enumerate(args):
        for result, label, pos in below(arg):
            yield App(symbol, (*args[:i], result, *args[i + 1 :])), label, (i + 1, *pos)


def _step_memo(system):
    """`steps(t)`: the list of `_lifted` steps of t, positions in pre-order
    and rules in order at each, computed once per term and kept."""
    memo = {}

    def steps(t: Term) -> list:
        if not isinstance(t, App):
            return []
        found = memo.get(t)
        if found is None:
            memo[t] = found = list(_lifted(system, t, steps))
        return found

    return steps


def rewrite_steps(system, t: Term) -> set:
    """All one-step successors of t: (result, step label, position)."""
    return set(_step_memo(system)(t))


def step_key(step) -> tuple:
    """Total order on the steps from one term: position, then label.  No
    two steps tie, as a system's labels are distinct (`Trs` refuses
    duplicates) and a rule fires at most once at a position."""
    return step[2], step[1]


def normalize(
    system,
    t: Term,
    strategy: str = "leftmost-innermost",
    seed: int = 0,
    max_steps: int | None = None,
):
    """Rewrite t to an irreducible term; returns (normal form, trace).

    The trace lists the (step label, position) of every step taken.  The
    leftmost strategies take the first step at the first position that has
    one, children before parents (innermost) or parents first (outermost);
    `random` picks uniformly among all steps sorted by `step_key`.
    Without a step bound the system must terminate.

    Leftmost-innermost runs as one post-order pass: normalize the
    arguments left to right, then take the first root step and normalize
    the result in place, until the root has no step.  This takes exactly
    the steps of restarting the post-order walk from the root after each
    step: the first redex of that walk lies in the leftmost argument that
    is not yet normal, else at the root, and after a root step inside its
    result, whose arguments may hold new redexes.  A step by a rule of
    `system.collapsing`, whose right side is a variable, ends the pass at
    once: its result is a subterm of the arguments just normalized, so it
    is normal.  Outermost and random walk the whole term again after every
    step.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    if max_steps is not None:
        _check_bound("max_steps", max_steps)
    if max_steps is None and not system.terminates:
        raise TerminationNotVerified(
            "rules do not all strictly decrease size; pass max_steps to rewrite anyway"
        )
    trace = []

    def record(label, pos):
        trace.append((label, pos))
        if max_steps is not None and len(trace) > max_steps:
            raise StepBoundExceeded("no normal form within %d steps" % max_steps)

    if strategy == "leftmost-innermost":
        collapsing = system.collapsing

        def nf(t: Term, pos: Position) -> Term:
            # a loop over the steps at pos and over the arguments: a call per
            # step, or a comprehension's frame per level, would cut the depth
            # of term that fits under the recursion limit
            while isinstance(t, App):
                args = t.args
                for i, arg in enumerate(t.args):
                    u = nf(arg, (*pos, i + 1))
                    if u is not arg:
                        args = (*args[:i], u, *args[i + 1 :])
                if args is not t.args:
                    t = App(t.symbol, args)
                steps = system.root_steps(t)
                if not steps:
                    break
                t, label, _root = steps[0]
                record(label, pos)
                if label in collapsing:
                    break
            return t

        return nf(t, ()), tuple(trace)
    rng = None
    if strategy == "random":
        from random import Random  # imported only by the strategy that uses it

        rng = Random(seed)
    walk = lambda t: _lifted(system, t, walk)  # pre-order, computed only as consumed
    current = t
    while True:
        if rng is None:
            step = next(walk(current), None)
        else:
            options = sorted(walk(current), key=step_key)
            step = rng.choice(options) if options else None
        if step is None:
            return current, tuple(trace)
        current, label, pos = step
        record(label, pos)


def reducts(system, t: Term, cap: int = DEFAULT_REDUCT_CAP) -> set:
    """The set {t' | t ->* t'}, including t itself, by breadth-first search.

    Requires a terminating system (finiteness then follows from finite
    branching); the cap is a safety net against a non-decreasing system
    slipping through.
    """
    _check_cap(cap)
    if not system.terminates:
        raise TerminationNotVerified("reduct enumeration requires size-decreasing rules")
    return _reach(_step_memo(system), t, cap)


def _reach(steps, t: Term, cap: int) -> set:
    """The terms reachable from t by the one-step relation `steps`, by
    breadth-first search; CapExceeded once more than cap are seen."""
    seen = {t}
    frontier = [t]
    while frontier:
        fresh = []
        for u in frontier:
            for v, _label, _pos in steps(u):
                if v not in seen:
                    seen.add(v)
                    if len(seen) > cap:
                        raise CapExceeded("reduct set exceeded cap %d" % cap)
                    fresh.append(v)
        frontier = fresh
    return seen


def _joins(steps, t1: Term, t2: Term, cap: int) -> bool:
    """Whether t1 and t2 have a common reduct under the one-step relation
    `steps`: t2 is a reduct of t1, or the two reduct sets meet."""
    reach1 = _reach(steps, t1, cap)
    return t2 in reach1 or not reach1.isdisjoint(_reach(steps, t2, cap))


def joinable(system, t1: Term, t2: Term, cap: int = DEFAULT_REDUCT_CAP):
    """Whether t1 and t2 have a common reduct; returns (bool, witness).

    The witness is t2 itself when t2 is a reduct of t1, even if a smaller
    common reduct exists; otherwise it is the size-minimal common reduct
    (ties broken by the term ordering), or None.
    """
    r1 = reducts(system, t1, cap)
    if t2 in r1:  # cheap hit before building the second graph
        return True, t2
    r2 = reducts(system, t2, cap)
    common = r1 & r2
    if not common:
        return False, None
    return True, min(common, key=term_key)


# ---------------------------------------------------------------------------
# critical pairs and confluence


class CriticalPair(_FrozenRecord):
    """Two one-step results from a unifiable overlap of rule left sides.

    left/right/peak are canonically renamed (v1, v2, ... in first-occurrence
    order over the peak, skipping the declared symbols); mgu is kept in the
    original rule variables as provenance.  peak rewrites to left by rule1
    at the root and to right by rule2 at `position`.
    """

    __slots__ = _fields = ("left", "right", "peak", "rule1", "rule2", "position", "mgu", "trivial")

    def __init__(
        self, left: Term, right: Term, peak: Term, rule1: str, rule2: str, position: Position, mgu: tuple, trivial: bool
    ):
        _setattr(self, "left", left)
        _setattr(self, "right", right)
        _setattr(self, "peak", peak)
        _setattr(self, "rule1", rule1)
        _setattr(self, "rule2", rule2)
        _setattr(self, "position", position)
        _setattr(self, "mgu", mgu)
        _setattr(self, "trivial", trivial)

    def __str__(self) -> str:
        return "(%s, %s) from %s x %s at %s" % (
            self.left,
            self.right,
            self.rule1,
            self.rule2,
            list(self.position),
        )


def _overlaps(trs: Trs):
    """Every unifiable overlap of a rule's left side with a rule's renamed
    left side: (rule1, position, rule2, sigma, peak, left, right), with
    peak = sigma(l1), left = sigma(r1) and right = peak[position <-
    sigma(r2)], all in the unifier's own variable names.  Rules come in
    order, positions in pre-order, and the index's candidates in rule
    order, including each rule's own renamed copy.

    Only the rules the index offers for a subterm's root symbol and
    argument heads are tried there, with a variable argument on either
    side as a wildcard.  That loses no overlap: a unifier agrees on the
    root symbol, the arity and every argument head where neither side has
    a variable, and renaming apart maps variables to variables, so it
    keeps every head.  Renaming rule2 apart depends only on rule1's
    variables, so rule2's renamed sides are made once per variable set for
    the whole call.
    """
    renamed = {}  # (rule1's variables, rule2 label) -> rule2's sides renamed apart from them
    for rule1 in trs.rules:
        names = frozenset(variables(rule1.lhs))  # the right side's are among them
        for pos, sub in positions(rule1.lhs):
            if not isinstance(sub, App):
                continue
            for rule2 in trs._index.overlapping((sub.symbol, *map(_head, sub.args))):
                key = names, rule2.label
                if key not in renamed:
                    renaming = rename_apart((rule1.lhs, rule1.rhs), (rule2.lhs, rule2.rhs))
                    sides = rule2.lhs, rule2.rhs  # kept as they are when disjoint, so ground rules are not copied
                    renamed[key] = tuple(apply_substitution(renaming, side) for side in sides) if renaming else sides
                l2, r2 = renamed[key]
                sigma = unify(sub, l2)
                if sigma is None:
                    continue
                peak, left = rule1.lhs, rule1.rhs  # taken as they are when sigma is empty: all ground
                if sigma:
                    peak = apply_substitution(sigma, peak)
                    left = apply_substitution(sigma, left)
                    r2 = apply_substitution(sigma, r2)
                yield rule1, pos, rule2, sigma, peak, left, replace_at(peak, pos, r2)


def _named(overlap, signature) -> CriticalPair:
    """The critical pair of an `_overlaps` overlap: peak, left and right
    renamed by the first occurrences in the peak (v1, v2, ..., skipping the
    declared symbols), with the unifier kept as provenance."""
    rule1, pos, rule2, sigma, peak, left, right = overlap
    rho = canonical_renaming((peak,), signature)
    if any(x != v.name for x, v in rho.items()):  # often none moves: rename_apart's names are v1, v2, ...
        peak = apply_substitution(rho, peak)
        left = apply_substitution(rho, left)
        # right is the peak but at the position, so only that part is renamed anew
        right = replace_at(peak, pos, apply_substitution(rho, subterm_at(right, pos)))
    return CriticalPair(
        left=left,
        right=right,
        peak=peak,
        rule1=rule1.label,
        rule2=rule2.label,
        position=pos,
        mgu=tuple(sorted(sigma.items())),
        trivial=left == right,
    )


def _pair_key(cp: CriticalPair) -> tuple:
    # one unify per (rule1, position, rule2) gives at most one pair, and
    # labels are distinct, so this key never ties and prints no term
    return cp.rule1, cp.rule2, cp.position


def critical_pairs(trs: Trs) -> tuple:
    """All critical pairs of ordered rule pairs, including overlaps of a
    rule with its own renamed copy: every `_overlaps` overlap named by
    `_named`, sorted by rule labels and position, so the order does not
    depend on the order in which overlaps are found.

    Pairs whose two sides are syntactically equal (always the case for the
    root overlap of a rule with its own copy) come out flagged trivial.

    Naming by the peak alone names left and right too: they have no
    variable that the peak lacks, as sigma(r1) and sigma(r2) take theirs
    from sigma(l1) and sigma(l2), and sigma(l2) is the peak's subterm at
    the position.  The peak sigma(l1) reads its variables as those of
    sigma(x), x running over l1's variables in first-occurrence order (an
    unbound x standing for itself), so its first occurrences are those of
    that list, and rho(sigma(t)) is (rho after sigma)(t): each pair is the
    one that renaming through the composed substitution gives.
    """
    return tuple(sorted((_named(overlap, trs.signature) for overlap in _overlaps(trs)), key=_pair_key))


class ConfluenceVerdict(_Record):
    _fields = ("status", "witness", "nonjoinable", "pairs_total")

    def __init__(self, status: str, witness: CriticalPair | None = None, nonjoinable: tuple = (), pairs_total: int = 0):
        self.status = status  # confluent | not-confluent
        self.witness = witness
        self.nonjoinable = nonjoinable
        self.pairs_total = pairs_total

    @property
    def confluent(self) -> bool:
        return self.status == "confluent"


def check_confluence(trs: Trs, cap: int = DEFAULT_REDUCT_CAP) -> ConfluenceVerdict:
    """Confluent iff every critical pair is joinable (for a terminating
    system).  Termination is certified via the size-decrease check; if that
    fails, TerminationNotVerified is raised rather than a guess returned.

    Each overlap is joined in the unifier's own names, through the one
    memoized step relation of the call (`_step_memo`), and only the
    overlaps that do not join are named (`_named`) and sorted as
    `critical_pairs` sorts them; `pairs_total` counts every overlap.  The
    verdict is that of joining the named pairs: a renaming is a bijection
    on variables and commutes with one-step rewriting (a rule matches
    rho(t) at a position iff it matches t there, with rho applied to the
    bindings), so it maps the reduct set of a term one to one onto that of
    its renamed copy, and two sides are equal, or join, iff their renamed
    copies are.  For the same reason every reduct set has the size it has
    in the named pair, so a pair's join exceeds the cap iff the named
    pair's does; the join of each non-trivial overlap is always tried, so
    CapExceeded is raised iff some non-trivial pair exceeds the cap,
    whatever the join order, and its message names only the cap.
    """
    _check_cap(cap)
    if not check_conditions(trs).star_ok:
        raise TerminationNotVerified("termination not verified (rules do not strictly decrease size)")
    steps = _step_memo(trs)
    total = 0
    bad = []
    for overlap in _overlaps(trs):
        total += 1
        left, right = overlap[5:]
        if left != right and not _joins(steps, left, right, cap):
            bad.append(_named(overlap, trs.signature))
    bad.sort(key=_pair_key)
    return ConfluenceVerdict(
        status="not-confluent" if bad else "confluent",
        witness=bad[0] if bad else None,
        nonjoinable=tuple(bad),
        pairs_total=total,
    )


# ---------------------------------------------------------------------------
# syntactic conditions


class ConditionsReport(_Record):
    _fields = ("star", "star2", "star3")

    def __init__(self, star: dict, star2: str, star3: dict):
        self.star = star
        self.star2 = star2  # holds | undetermined
        self.star3 = star3

    @property
    def star_ok(self) -> bool:
        return all(self.star.values())

    @property
    def star3_ok(self) -> bool:
        return all(self.star3.values())


def check_conditions(trs: Trs) -> ConditionsReport:
    """Per-rule size/occurrence check, constant-injectivity check, and the
    every-proper-subterm-sees-all-variables check; computed once per rule
    (`Rule.star`, `Rule.star3`) and gathered per system.

    The constant condition is semantic (it quantifies over all nontrivial
    models), so it is only reported `holds` when vacuous (at most one
    constant) and `undetermined` otherwise.
    """
    return trs.conditions


# ---------------------------------------------------------------------------
# completion


class CompletionResult(_Record):
    _fields = ("trs", "rounds", "adopted")

    def __init__(self, trs: Trs, rounds: int, adopted: tuple = ()):
        self.trs = trs
        self.rounds = rounds
        self.adopted = adopted  # (Rule, CriticalPair) in adoption order


def complete(trs: Trs, max_rounds: int = 10, cap: int = DEFAULT_REDUCT_CAP) -> CompletionResult:
    """Orient non-joinable critical pairs into new rules until confluent.

    Both sides of a pair are normalized first; the larger side becomes the
    new left-hand side.  The rule's variables are the first v<k> that are
    not symbols, and its label is the first cp<k> that no rule has (both
    from `fresh_names`).  Orientation is strictly by size; a pair whose
    normal forms have equal size, or whose orientation would violate the
    rule invariants or the size-decrease condition, raises UnorientableError
    rather than guessing.
    """
    _check_bound("max_rounds", max_rounds)
    if not check_conditions(trs).star_ok:
        raise TerminationNotVerified("completion requires size-decreasing input rules")
    current = trs
    adopted = []
    rounds = 0
    while True:
        nonjoinable = check_confluence(current, cap).nonjoinable
        if not nonjoinable:
            return CompletionResult(trs=current, rounds=rounds, adopted=tuple(adopted))
        if rounds >= max_rounds:
            raise MaxRoundsExceeded(rounds, current)
        for cp in nonjoinable:
            left_nf, _ = normalize(current, cp.left)
            right_nf, _ = normalize(current, cp.right)
            if left_nf == right_nf:
                continue  # joinable via rules adopted earlier this round
            if size(left_nf) == size(right_nf):
                raise UnorientableError(cp, "equal sizes after normalization")
            big, small = (left_nf, right_nf) if size(left_nf) > size(right_nf) else (right_nf, left_nf)
            # big outgrows small, so it is an application, and as a normal form
            # of current it is no current rule's left side: the rule is new
            renaming = canonical_renaming((big, small), trs.signature)
            lhs, rhs = apply_substitution(renaming, big), apply_substitution(renaming, small)
            if variables(rhs) - variables(lhs):
                raise UnorientableError(cp, "candidate violates rule invariants")
            label = fresh_names("cp", 1, {r.label for r in current.rules})[0]
            rule = Rule(lhs, rhs, label)
            if not rule.star:
                raise UnorientableError(cp, "candidate violates the size-decrease condition")
            current = current.with_rules([rule])
            adopted.append((rule, cp))
        rounds += 1


# ---------------------------------------------------------------------------
# brute-force oracle: local confluence over an enumerated term universe


def enumerate_terms(sig: Signature, max_size: int, num_vars: int = 3) -> list:
    """All terms of size <= max_size over the signature and the first
    num_vars of v1, v2, ... that are not symbols (complete up to renaming)."""
    pool, leaves, symbols = _universe(sig, num_vars)
    return terms_up_to(pool + leaves, symbols, max_size)


def terms_up_to(leaves, symbols, max_size: int) -> list:
    """All terms of size <= max_size built from the given leaves and
    (symbol, arity >= 1) pairs, smallest first."""
    return [t for t, _used in _canonical_terms((), leaves, symbols, max_size)]


def _universe(sig: Signature, num_vars: int):
    """The variable pool, the constants and the (symbol, arity >= 1) pairs
    that `enumerate_terms` builds its terms from."""
    if type(num_vars) is not int:
        raise ValueError("num_vars must be an integer, got %r" % (num_vars,))
    if num_vars < 0:
        raise ValueError("num_vars must be nonnegative, got %r" % num_vars)
    pool = [Var(name) for name in fresh_names("v", num_vars, sig)]
    return pool, [App(c) for c in sig.constants()], [(s, k) for s, k in sig.symbols.items() if k >= 1]


def _canonical_terms(pool, leaves, symbols, max_size: int):
    """(term, j) for each term of `terms_up_to(pool + leaves, symbols,
    max_size)` whose pool variables first occur in pool order (v1 first,
    then v2, ...), j being how many it uses, in that enumeration's order;
    with an empty pool, every term.

    A bucket holds the terms of one size built after `used` pool variables
    have occurred: those may repeat and only pool[used] may come next.  An
    application's arguments are filled left to right, each from the bucket
    of its size after the variables its left neighbours used.  Buckets are
    built on first use and kept for arguments; the largest size, which is
    no argument, comes in chunks and is not kept."""
    if type(max_size) is not int:
        raise ValueError("max_size must be an integer, got %r" % (max_size,))
    buckets = {}

    def bucket(n, used):
        found = buckets.get((n, used))
        if found is None:
            buckets[n, used] = found = [item for chunk in build(n, used) for item in chunk]
        return found

    def build(n, used):
        # chunks of (term, pool variables used after it), in enumeration order
        if n == 1:
            fresh = [(pool[used], used + 1)] if used < len(pool) else []
            yield [(v, used) for v in pool[:used]] + fresh + [(leaf, used) for leaf in leaves]
            return
        for symbol, k in symbols:
            for split in _compositions(n - 1, k):
                heads = [((), used)]
                for s in split[:-1]:
                    heads = [((*args, t), after) for args, before in heads for t, after in bucket(s, before)]
                for args, before in heads:
                    yield [(App(symbol, (*args, t)), after) for t, after in bucket(split[-1], before)]

    for n in range(1, max_size):
        yield from bucket(n, 0)
    for chunk in build(max_size, 0):
        yield from chunk


def _compositions(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class OracleVerdict(_Record):
    _fields = ("status", "peak", "pair", "peaks_checked")

    def __init__(self, status: str, peak: Term | None = None, pair: tuple | None = None, peaks_checked: int = 0):
        self.status = status  # confluent | not-confluent
        self.peak = peak
        self.pair = pair
        self.peaks_checked = peaks_checked


def local_confluence_oracle(
    trs: Trs, max_size: int = 6, num_vars: int = 3, cap: int = DEFAULT_REDUCT_CAP
) -> OracleVerdict:
    """Independent confluence check: enumerate every peak up to max_size,
    take all pairs of its one-step reducts and test joinability.  Together
    with verified termination this decides confluence by Newman's lemma,
    without ever looking at critical pairs.

    The scan visits one term per class of `enumerate_terms` under bijective
    renamings of the variable pool: the term whose pool variables first
    occur in pool order (`_canonical_terms`).  A class whose term uses j
    pool variables has perm(num_vars, j) members, which a confluent verdict
    counts in `peaks_checked`.  Verdict, peak, pair and exception are those
    of the scan over every term:

    - Members of a class have one shape, and the enumeration orders terms
      of one shape lexicographically by their leaf sequences, leaves by
      their place in pool + constants, so pool variables come first and in
      pool order.  At the first leaf where a member differs from the
      first-occurrence term, both have seen the same v1, ..., vi; the
      first-occurrence term has one of them or v(i+1), the member an unseen
      variable other than v(i+1), so the first-occurrence term comes first.
    - The rewrite relation is closed under substitution, so a bijective
      renaming maps steps to steps with the same label and position (so in
      the same `step_key` order), reduct searches to reduct searches of the
      same sizes and joins to joins: being a peak, failing to join and
      exceeding the cap are the same for every member of a class.
    - So the first non-joinable pair or `CapExceeded` of the full scan falls
      on a first-occurrence term, where this scan meets it in the same way.

    A failing verdict counts the peaks of the full enumeration up to its
    peak, as class sizes would also count members that come after it.

    One step relation serves the whole call (`_step_memo`): a term's steps
    are its root steps plus the steps of its arguments, which are computed
    once and kept, so a subterm is matched against the rules once however
    many terms contain it.  A peak's own steps are lifted from its
    arguments' here and not kept: most peaks have the largest size and are
    an argument of no other term, so keeping them would grow the memo by
    most of the terms visited (a process peak RSS of 18.3 MB against 15.6
    MB on complete_loop(2) at size 7, Python 3.11), and looking them up
    would hash every peak for almost no hits.  The steps of the reducts
    that the joinability walks visit are kept.  Like check_confluence, it
    raises TerminationNotVerified on a system whose termination the
    size-decrease check does not certify."""
    _check_cap(cap)
    if not check_conditions(trs).star_ok:
        raise TerminationNotVerified("termination not verified (rules do not strictly decrease size)")
    steps = _step_memo(trs)
    pool, leaves, symbols = _universe(trs.signature, num_vars)
    checked = 0
    for peak, used in _canonical_terms(pool, leaves, symbols, max_size):
        found = list(_lifted(trs, peak, steps))
        if len(found) < 2:
            continue
        checked += math.perm(num_vars, used)
        succs = []
        for term, _label, _pos in sorted(found, key=step_key):
            if term not in succs:
                succs.append(term)
        for t1, t2 in itertools.combinations(succs, 2):
            if not _joins(steps, t1, t2, cap):
                checked = 0
                for t, _used in _canonical_terms((), pool + leaves, symbols, size(peak)):
                    checked += len(list(itertools.islice(_lifted(trs, t, steps), 2))) == 2
                    if t == peak:
                        break
                return OracleVerdict(status="not-confluent", peak=peak, pair=(t1, t2), peaks_checked=checked)
    return OracleVerdict(status="confluent", peaks_checked=checked)
