"""Amalgamated free products of finite n-quasigroups and n-loops.

A diagram is a base algebra embedded into each of several factors; after a
canonical renaming the factor carriers intersect pairwise exactly in the
base.  Elements of the free product are represented by terms over the
union of the carriers and reduced by an ordinary `Trs` with two kinds of
rule: the variety's complete rules, and one ground rule
op(a1, ..., an) -> v for each entry of each factor's operation tables.
Irreducible terms are the normal forms.  Their uniqueness is decided for
all terms at once by the critical pairs of that system, not assumed; the
strong amalgamation report reads the factor images off the renamed
carriers.
"""

from __future__ import annotations

from .algebras import Embedding
from .rewriting import (
    DEFAULT_REDUCT_CAP,
    Rule,
    Trs,
    check_confluence,
    normalize,
    reducts,
    rewrite_steps,
    step_key,
)
from .terms import (
    App,
    Elem,
    Term,
    Var,
    _FrozenRecord,
    _Record,
    _setattr,
    apply_substitution,
    iter_variables,
    parse_term,
    positions,
)

# Rule steps match and replace in `rewriting`, and an `Embedding` checks
# itself when built; these stay bound here so that the per-layer tracer of
# perfbench/tracing.py can rebind them in this module.
from .algebras import validate_embedding  # noqa: F401
from .terms import match, replace_at  # noqa: F401
from .varieties import generate_trs, VarietySpec


class AmalgamError(ValueError):
    pass


class UnknownElementError(AmalgamError):
    pass


class AmalgamElement(_FrozenRecord):
    """An element of the free product, held by its irreducible term."""

    __slots__ = _fields = ("normal_form",)

    def __init__(self, normal_form: Term):
        _setattr(self, "normal_form", normal_form)

    def __str__(self) -> str:
        return str(self.normal_form)


class AmalgamDiagram(Trs):
    """Base algebra, renamed factors, and the rewrite system of their
    amalgamated free product.  Built by build_amalgam.

    The rules are one ground rule op(a1, ..., an) -> v, labelled
    collapse[op(a1,...,an)], per table entry of the factors, followed by
    the variety's complete rules with the identity constant resolved.
    Element leaves are rigid constants, so this is an ordinary `Trs`.
    """

    def __init__(self, base, factors, renamings):
        self.base = base
        self.factors = tuple(factors)
        self.renamings = tuple(renamings)  # original name -> shared name, per factor
        self.n = base.n
        self.kind = base.kind
        variety = generate_trs(VarietySpec(self.kind, self.n, complete=True))
        self.operations = tuple(s for s, k in variety.signature.symbols.items() if k == self.n)
        self.identity_leaf = Elem(base.identity) if self.kind == "loop" else None
        # The factors agree on the shared base (the embeddings are
        # homomorphisms), so its entries are kept once.
        ground = dict.fromkeys(
            Rule(lhs, Elem(value), "collapse[%s]" % lhs)
            for factor in self.factors
            for symbol, table in zip(self.operations, (factor.table_f,) + factor.tables_g)
            for args, value in table.items()
            for lhs in [App(symbol, tuple(map(Elem, args)))]
        )
        # The identity constant is resolved to the base's identity element,
        # so the rules fire on element-only terms.  A ground rule from e to
        # that element instead would not shrink terms, and the diagram
        # would fail the size-decrease check that certifies termination.
        resolved = [
            Rule(_resolve_e(r.lhs, self.identity_leaf), _resolve_e(r.rhs, self.identity_leaf), r.label)
            for r in variety.rules
        ]
        super().__init__(variety.signature, [*ground, *resolved])
        self.membership = {}
        for i, factor in enumerate(self.factors):
            for a in factor.carrier:
                self.membership.setdefault(a, set()).add(i)
        self.membership = {a: frozenset(s) for a, s in self.membership.items()}
        base_carrier = set(base.carrier)
        self.carrier_union = tuple(sorted(self.membership, key=lambda a: (a not in base_carrier, a)))

    def owns(self, element: str) -> frozenset:
        try:
            return self.membership[element]
        except KeyError:
            raise UnknownElementError("%r is not an element of any factor" % (element,)) from None

    def __repr__(self) -> str:
        return "AmalgamDiagram(%s over %s, %d factors)" % (
            self.kind,
            self.base.name,
            len(self.factors),
        )


def _resolve_e(t: Term, identity_leaf) -> Term:
    if isinstance(t, App):
        if t.symbol == "e" and not t.args:
            return identity_leaf
        return App(t.symbol, tuple(_resolve_e(a, identity_leaf) for a in t.args))
    return t


def build_amalgam(base, factors, embeddings) -> AmalgamDiagram:
    """Rename factor-private elements so that the carriers pairwise
    intersect exactly in the base, and build the diagram.

    Elements in the image of the base keep the base's names; a private
    element a of the i-th factor becomes "a@i" (1-based).  So private names
    of two different factors differ after the last "@", and a private name
    equal to a base name is a renaming collision in its own factor: the
    carriers meet exactly in the base.  The algebras are valid because
    they were built, and each embedding is checked when it is built.
    """
    factors = list(factors)
    embeddings = list(embeddings)
    if not factors or len(factors) != len(embeddings):
        raise AmalgamError("need one embedding per factor")
    renamed = []
    renamings = []
    for i, (factor, mapping) in enumerate(zip(factors, embeddings), start=1):
        if factor.n != base.n or factor.kind != base.kind:
            raise AmalgamError(
                "factor %s does not match the base (n=%d %s)" % (factor.name, base.n, base.kind)
            )
        emb = mapping if isinstance(mapping, Embedding) else Embedding(base, factor, mapping)
        if emb.source is not base or emb.target is not factor:
            raise AmalgamError("embedding %d does not map the base into factor %s" % (i, factor.name))
        image = {emb(b): b for b in base.carrier}
        renaming = {a: image.get(a, "%s@%d" % (a, i)) for a in factor.carrier}
        if len(set(renaming.values())) != len(renaming):
            raise AmalgamError("renaming collision in factor %s" % factor.name)
        renamed.append(factor.rename(renaming))
        renamings.append(renaming)
    diagram = AmalgamDiagram(base, renamed, renamings)
    for a in diagram.carrier_union:
        if a in diagram.signature:
            raise AmalgamError("element name %r collides with an operation symbol" % (a,))
    return diagram


# ---------------------------------------------------------------------------
# element terms and their normal forms


def _check_element_term(d: AmalgamDiagram, t: Term) -> None:
    """Refuse a variable, an unknown element, or an application that is not
    one of the diagram's n-ary operations with n arguments."""
    for _pos, sub in positions(t):
        if isinstance(sub, App):
            if sub.symbol not in d.operations or len(sub.args) != d.n:
                raise AmalgamError(
                    "%s: not one of %s applied to %d arguments" % (sub, ", ".join(d.operations), d.n)
                )
        elif isinstance(sub, Var):
            raise UnknownElementError("unknown element %r" % (sub.name,))
        else:
            d.owns(sub.name)


def amalgam_steps(d: AmalgamDiagram, t: Term) -> tuple:
    """All one-step successors (term, step label, position), in the order
    of `rewriting.step_key`: by position, then label, which never tie, as
    the rule labels are distinct and a rule fires at most once at a
    position."""
    return tuple(sorted(rewrite_steps(d, t), key=step_key))


def normalize_element(
    d: AmalgamDiagram, t: Term, strategy: str = "leftmost-innermost", seed: int = 0
) -> AmalgamElement:
    """Reduce a term over the carrier union to an irreducible term.

    Normal forms are strategy-independent for these varieties, which
    check_unique_normal_forms verifies rather than assumes.
    """
    if d.kind == "loop":
        t = _resolve_e(t, d.identity_leaf)
    _check_element_term(d, t)
    return AmalgamElement(normalize(d, t, strategy, seed)[0])


def apply_op(d: AmalgamDiagram, symbol: str, args) -> AmalgamElement:
    """Apply f or g_i to amalgam elements and normalize the result;
    `normalize_element` refuses a wrong number of arguments."""
    # checked here, as `_resolve_e` would turn a loop's e() into its identity
    if symbol not in d.operations:
        raise AmalgamError("%r is not an n-ary operation of this variety" % (symbol,))
    arg_terms = tuple(a.normal_form if isinstance(a, AmalgamElement) else a for a in args)
    return normalize_element(d, App(symbol, arg_terms))


# ---------------------------------------------------------------------------
# parsing element terms


def parse_element_term(d: AmalgamDiagram, text: str) -> Term:
    """Concrete syntax with element leaves: bare shared/renamed names, or
    FACTOR.element to pick an element of a named factor."""
    raw = parse_term(text, d.signature)
    leaves = {name: Elem(_resolve_name(d, name)) for name in dict.fromkeys(iter_variables(raw))}
    return apply_substitution(leaves, raw)


def _resolve_name(d: AmalgamDiagram, name: str) -> str:
    if name in d.membership:
        return name
    if "." in name:
        factor_name, _, element = name.partition(".")
        hits = [ren for factor, ren in zip(d.factors, d.renamings) if factor.name == factor_name]
        if not hits:
            raise UnknownElementError("no factor named %r" % (factor_name,))
        if len(hits) > 1:
            raise UnknownElementError(
                "factor name %r is ambiguous; use the renamed element directly" % (factor_name,)
            )
        if element not in hits[0]:
            raise UnknownElementError("%r is not an element of factor %s" % (element, factor_name))
        return hits[0][element]
    raise UnknownElementError("unknown element %r" % (name,))


# ---------------------------------------------------------------------------
# checks: unique normal forms, strong amalgamation


class UnfCounterexample(_Record):
    _fields = ("term", "normal_forms")

    def __init__(self, term: Term, normal_forms: tuple):
        self.term = term
        self.normal_forms = normal_forms

    def __str__(self) -> str:
        forms = ", ".join(str(t) for t in self.normal_forms)
        return "critical-pair: %s has normal forms {%s}" % (self.term, forms)


reduct_graph = reducts


def check_unique_normal_forms(
    d: AmalgamDiagram,
    depth: int = 5,
    trials: int = 200,
    seed: int = 0,
    rand_depth: int = 4,
    cap: int = DEFAULT_REDUCT_CAP,
) -> UnfCounterexample | None:
    """Decide whether every term over the carrier union has exactly one
    normal form.  None means it has.

    The diagram's rules shrink terms, so by Newman's lemma this holds
    exactly when every critical pair is joinable.  Otherwise the witness
    is the peak of the first non-joinable pair, with the normal forms of
    its two sides.  The peak is an element term: every pair of two
    variety rules is joinable, because the complete system is confluent,
    and in a pair with a ground rule, condition star3 (every application
    in a left side holds all of that side's variables) makes the mgu bind
    every variable to an element.  On rules edited not to shrink it raises
    check_confluence's TerminationNotVerified, which no `nq` command reaches.

    `depth`, `trials`, `seed` and `rand_depth` are unused; they remain
    only because the benchmark's `amalgam` workload passes them.
    """
    verdict = check_confluence(d, cap)
    if verdict.confluent:
        return None
    cp = verdict.witness
    normal_forms = sorted((normalize(d, cp.left)[0], normalize(d, cp.right)[0]), key=str)
    return UnfCounterexample(term=cp.peak, normal_forms=tuple(normal_forms))


class StrongAmalgamationReport(_Record):
    _fields = ("ok", "base_image", "intersection")

    def __init__(self, ok: bool, base_image: frozenset = frozenset(), intersection: frozenset = frozenset()):
        self.ok = ok
        self.base_image = base_image
        self.intersection = intersection

    def __str__(self) -> str:
        return "strong amalgamation holds (intersection of size %d)" % len(self.intersection)


def check_strong_amalgamation(base, a1, a2, embeddings) -> StrongAmalgamationReport:
    """For the pushout of two embeddings out of the base: the factor
    images, which intersect exactly in the base's image.

    `build_amalgam` names the carriers so that they meet exactly in the
    base, so the check holds whenever the diagram builds.  Every element
    leaf is irreducible (a rule's left side is an application), so each
    element is its own normal form, and the factor injections are
    injective because normal forms are unique (check_unique_normal_forms)."""
    d = build_amalgam(base, [a1, a2], embeddings)
    images = tuple(frozenset(factor.carrier) for factor in d.factors)
    return StrongAmalgamationReport(
        ok=True,
        base_image=frozenset(base.carrier),
        intersection=images[0] & images[1],
    )
