"""Amalgamated free products of finite n-quasigroups and n-loops.

A diagram is a base algebra embedded into each of several factors; after a
canonical renaming the factor carriers intersect pairwise exactly in the
base.  Elements of the free product are represented by terms over the
union of the carriers and reduced by an ordinary `Trs` with two kinds of
rule: the variety's complete rules, and one ground rule
op(a1, ..., an) -> v for each entry of each factor's operation tables.
Irreducible terms are the normal forms; their uniqueness and the strong
amalgamation property are checkable rather than assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random

from .algebras import Embedding, validate, validate_embedding
from .rewriting import (
    DEFAULT_REDUCT_CAP,
    Rule,
    Trs,
    explore_reducts,
    normalize,
    reducts,
    rewrite_steps,
    step_key,
    terms_up_to,
)
from .terms import (
    App,
    Elem,
    Term,
    Var,
    apply_substitution,
    iter_variables,
    parse_term,
    positions,
)

# Rule steps match and replace in `rewriting`; these stay bound here so
# that the per-layer tracer of perfbench/tracing.py can rebind them in
# this module.
from .terms import match, replace_at  # noqa: F401
from .varieties import generate_trs, VarietySpec


class AmalgamError(ValueError):
    pass


class UnknownElementError(AmalgamError):
    pass


@dataclass(frozen=True)
class AmalgamElement:
    """An element of the free product, held by its irreducible term."""

    normal_form: Term

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
        # validated), so its entries are kept once.
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
        self.carrier_union = tuple(
            sorted(self.membership, key=lambda a: (a not in set(base.carrier), a))
        )

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
    """Validate the pushout data and rename factor-private elements so the
    carriers pairwise intersect exactly in the base.

    Elements in the image of the base keep the base's names; a private
    element a of the i-th factor becomes "a@i" (1-based).
    """
    factors = list(factors)
    embeddings = list(embeddings)
    if not factors or len(factors) != len(embeddings):
        raise AmalgamError("need one embedding per factor")
    bad = validate(base)
    if bad:
        raise AmalgamError("base %s is not a valid %s: %s" % (base.name, base.kind, bad))
    renamed = []
    renamings = []
    for i, (factor, mapping) in enumerate(zip(factors, embeddings), start=1):
        if factor.n != base.n or factor.kind != base.kind:
            raise AmalgamError(
                "factor %s does not match the base (n=%d %s)" % (factor.name, base.n, base.kind)
            )
        bad = validate(factor)
        if bad:
            raise AmalgamError("factor %s is not valid: %s" % (factor.name, bad))
        emb = mapping if isinstance(mapping, Embedding) else Embedding(base, factor, mapping)
        bad = validate_embedding(emb)
        if bad:
            raise AmalgamError("embedding into %s is invalid: %s" % (factor.name, bad))
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
    shared = set(base.carrier)
    for i, j in itertools.combinations(range(len(renamed)), 2):
        overlap = set(renamed[i].carrier) & set(renamed[j].carrier)
        if overlap != shared:
            raise AmalgamError("factors %d and %d overlap outside the base" % (i + 1, j + 1))
    return diagram


# ---------------------------------------------------------------------------
# element terms and their normal forms


def _check_element_term(d: AmalgamDiagram, t: Term) -> None:
    for _pos, sub in positions(t):
        if isinstance(sub, Var):
            raise UnknownElementError("unknown element %r" % (sub.name,))
        if isinstance(sub, Elem):
            d.owns(sub.name)


def amalgam_steps(d: AmalgamDiagram, t: Term) -> tuple:
    """All one-step successors (term, step label, position), in the order
    of `rewriting.step_key`."""
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
    """Apply f or g_i to amalgam elements and normalize the result."""
    if symbol not in d.operations:
        raise AmalgamError("%r is not an n-ary operation of this variety" % (symbol,))
    arg_terms = tuple(a.normal_form if isinstance(a, AmalgamElement) else a for a in args)
    if len(arg_terms) != d.n:
        raise AmalgamError("%s expects %d arguments, got %d" % (symbol, d.n, len(arg_terms)))
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


@dataclass
class UnfCounterexample:
    term: Term
    normal_forms: tuple
    mode: str  # reduct-graph | strategy

    def __str__(self) -> str:
        forms = ", ".join(str(t) for t in self.normal_forms)
        return "%s: %s has normal forms {%s}" % (self.mode, self.term, forms)


def enumerate_element_terms(d: AmalgamDiagram, max_size: int) -> list:
    """All terms over the carrier union of size <= max_size."""
    symbols = [(s, d.n) for s in d.operations]
    return terms_up_to([Elem(a) for a in d.carrier_union], symbols, max_size)


reduct_graph = reducts


def random_element_term(d: AmalgamDiagram, rng: Random, max_depth: int) -> Term:
    if max_depth <= 0 or rng.random() < 0.3:
        return Elem(rng.choice(d.carrier_union))
    symbol = rng.choice(sorted(d.operations))
    return App(symbol, tuple(random_element_term(d, rng, max_depth - 1) for _ in range(d.n)))


def check_unique_normal_forms(
    d: AmalgamDiagram,
    depth: int = 5,
    trials: int = 200,
    seed: int = 0,
    rand_depth: int = 4,
    cap: int = DEFAULT_REDUCT_CAP,
) -> UnfCounterexample | None:
    """Exhaustively check that every term of size <= depth has exactly one
    irreducible reduct, then sample random terms and compare the three
    reduction strategies.  None means no discrepancy."""
    for t in enumerate_element_terms(d, depth):
        _graph, irreducible = explore_reducts(d, t, cap)
        normal_forms = tuple(sorted(irreducible, key=str))
        if len(normal_forms) != 1:
            return UnfCounterexample(term=t, normal_forms=normal_forms, mode="reduct-graph")
    rng = Random(seed)
    for k in range(trials):
        t = random_element_term(d, rng, rand_depth)
        results = {
            normalize_element(d, t, "leftmost-innermost").normal_form,
            normalize_element(d, t, "leftmost-outermost").normal_form,
            normalize_element(d, t, "random", seed=seed + k).normal_form,
        }
        if len(results) != 1:
            return UnfCounterexample(
                term=t, normal_forms=tuple(sorted(results, key=str)), mode="strategy"
            )
    return None


@dataclass
class StrongAmalgamationReport:
    ok: bool
    factor_images: tuple = ()
    base_image: frozenset = frozenset()
    intersection: frozenset = frozenset()
    detail: str = ""

    def __str__(self) -> str:
        if self.ok:
            return "strong amalgamation holds (intersection of size %d)" % len(self.intersection)
        return "strong amalgamation fails: %s" % self.detail


def check_strong_amalgamation(base, a1, a2, embeddings) -> StrongAmalgamationReport:
    """For the pushout of two embeddings out of the base: the factor
    injections must stay injective on normal forms, and the factor images
    must intersect exactly in the base's image."""
    d = build_amalgam(base, [a1, a2], embeddings)
    images = []
    for factor in d.factors:
        forms = {a: normalize_element(d, Elem(a)).normal_form for a in factor.carrier}
        if len(set(forms.values())) != len(forms):
            return StrongAmalgamationReport(
                ok=False, detail="factor %s loses elements in the amalgam" % factor.name
            )
        images.append(frozenset(str(t) for t in forms.values()))
    base_image = frozenset(
        str(normalize_element(d, Elem(b)).normal_form) for b in base.carrier
    )
    intersection = images[0] & images[1]
    if intersection != base_image:
        return StrongAmalgamationReport(
            ok=False,
            factor_images=tuple(images),
            base_image=base_image,
            intersection=intersection,
            detail="factor images meet in %s, expected %s"
            % (sorted(intersection), sorted(base_image)),
        )
    return StrongAmalgamationReport(
        ok=True, factor_images=tuple(images), base_image=base_image, intersection=intersection
    )
