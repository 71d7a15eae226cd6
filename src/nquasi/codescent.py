"""Effective-codescent decisions for monomorphisms of finite
n-quasigroups and n-loops.

For these varieties a monomorphism is an effective codescent morphism
exactly when every congruence on the source is the restriction of one on
the target; on a finite carrier, compatibility with f implies it with
every division (see `check_cep`).  The decision uses least extensions:
the congruence generated on the target by the image pairs is contained
in every extension, so an extension exists iff that generated congruence
restricts back to the original.  A full-enumeration oracle over all
target congruences provides the independent cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebras import (
    Congruence,
    Embedding,
    FiniteAlgebra,
    algebra_from_function,
    check_scope,
    enumerate_congruences,
    generated_congruence,
    permutation_quasigroup,
    restrict,
)

# `Embedding` checks itself when built; `validate_embedding` stays bound
# here so that the per-layer tracer of perfbench/tracing.py can rebind it
# in this module.
from .algebras import validate_embedding  # noqa: F401


@dataclass
class CepReport:
    embedding: Embedding
    scope: str
    verdict: bool
    witnesses: tuple = ()  # (source congruence, generated extension, its restriction)
    failing: Congruence | None = None

    def __str__(self) -> str:
        word = "holds" if self.verdict else "fails"
        out = "congruence extension (%s scope) %s for %s -> %s" % (
            self.scope,
            word,
            self.embedding.source.name,
            self.embedding.target.name,
        )
        if self.failing is not None:
            out += "; first failing congruence: %s" % self.failing
        return out


def check_cep(emb: Embedding, scope: str = "full") -> CepReport:
    """For every congruence R on the source, extend least and restrict
    back; the verdict is the conjunction over all R.  The embedding and its
    algebras were checked when they were built.

    Both scopes close under f alone, and `scope` only labels the report:
    Cg_f(S) = Cg_full(S) for every set S of pairs.  A one-slot translation
    t of f is a bijection mapping blocks into blocks, and onto them: for
    n >= 2 blocks have one size (see `search_noncep_monomorphism`); for
    n = 1, t^-1 = t^(k-1) for the order k of t.  So t^-1, which is g_i in
    slot i, maps blocks onto blocks.  In a slot j != i, if a ~ a' differ
    only there, f(a'[i := g_i(a)]) ~ f(a[i := g_i(a)]) = a_i =
    f(a'[i := g_i(a')]), so g_i(a) ~ g_i(a').
    """
    check_scope(scope)
    witnesses = []
    failing = None
    for cong in enumerate_congruences(emb.source, "f"):
        seeds = [(emb(a), emb(b)) for a, b in cong.pairs()]
        extension = generated_congruence(emb.target, seeds, "f")
        back = restrict(extension, emb)
        witnesses.append((cong, extension, back))
        if failing is None and back.blocks != cong.blocks:
            failing = cong
    return CepReport(
        embedding=emb,
        scope=scope,
        verdict=failing is None,
        witnesses=tuple(witnesses),
        failing=failing,
    )


def is_effective_codescent(emb: Embedding) -> CepReport:
    """Effective codescent for a monomorphism of these varieties is the
    congruence extension property, decided under f alone by `check_cep`."""
    return check_cep(emb, scope="full")


def cep_by_enumeration(emb: Embedding, scope: str = "full"):
    """Independent oracle: enumerate every congruence on the target and ask
    for each source congruence whether some restriction matches.  Returns
    (verdict, per-source-congruence booleans)."""
    target_congs = enumerate_congruences(emb.target, scope)
    restrictions = [restrict(c, emb).blocks for c in target_congs]
    per_congruence = []
    for cong in enumerate_congruences(emb.source, scope):
        per_congruence.append((cong, cong.blocks in restrictions))
    return all(ok for _, ok in per_congruence), tuple(per_congruence)


# ---------------------------------------------------------------------------
# finite 1-quasigroups: every f-congruence is a full congruence


@dataclass
class Prop36Counterexample:
    order: int
    permutation: tuple
    blocks: tuple

    def __str__(self) -> str:
        return "order %d, permutation %s, partition %s" % (
            self.order,
            list(self.permutation),
            self.blocks,
        )


def integer_partitions(total: int):
    """Partitions of `total` as weakly decreasing tuples."""

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(total, total)


def permutation_from_cycle_type(cycle_type) -> tuple:
    """Canonical permutation with the given cycle lengths, cycles laid out
    on consecutive points."""
    perm = []
    start = 0
    for length in cycle_type:
        perm.extend([start + (k + 1) % length for k in range(length)])
        start += length
    return tuple(perm)


def verify_prop_3_6(max_order: int = 6) -> Prop36Counterexample | None:
    """Check, for every cycle type of every order up to max_order, that
    each partition compatible with the permutation is also compatible with
    its inverse: the full congruence generated by each f-congruence of the
    permutation's 1-quasigroup, whose division g1 is the inverse, is that
    f-congruence.  None means no counterexample (as expected)."""
    if max_order > 7:
        raise ValueError("max_order above 7 is out of enumeration range")
    for order in range(1, max_order + 1):
        for cycle_type in integer_partitions(order):
            perm = permutation_from_cycle_type(cycle_type)
            alg = permutation_quasigroup(perm)
            for cong in enumerate_congruences(alg, "f"):
                if generated_congruence(alg, cong.pairs(), "full").blocks != cong.blocks:
                    return Prop36Counterexample(
                        order=order,
                        permutation=perm,
                        blocks=tuple(tuple(map(int, b)) for b in cong.blocks),
                    )
    return None


# ---------------------------------------------------------------------------
# exhaustive search for a monomorphism without the extension property


def latin_squares(order: int):
    """All Latin squares on {0..order-1} as tuples of row tuples, in
    lexicographic order of their rows.

    A row is a permutation carrying a bitmask of its (column, symbol)
    cells; it fits under the rows above it when its mask is disjoint from
    theirs.  Each level keeps only the permutations that still fit."""
    rows = [
        (perm, sum(1 << (column * order + symbol) for column, symbol in enumerate(perm)))
        for perm in itertools.permutations(range(order))
    ]
    square = []

    def extend(fitting):
        if len(square) == order:
            yield tuple(square)
            return
        for perm, mask in fitting:
            square.append(perm)
            yield from extend([row for row in fitting if not row[1] & mask])
            square.pop()

    yield from extend(rows)


def _closed_subsets(square, order):
    """Proper subsets of at least two elements closed under the table
    product, by size and then lexicographically.

    Only sizes up to order/2 need testing.  If S is closed and b is outside
    S, the products s*b for s in S are |S| distinct elements (b's column
    holds no symbol twice), and none lies in S: s*b = t in S would make b
    the unique solution of s*x = t, which S already holds because x -> s*x
    permutes the finite closed set S.  So S and S*b are disjoint, and
    2|S| <= order."""
    diagonal = [1 << row[a] for a, row in enumerate(square)]
    for k in range(2, order // 2 + 1):
        for subset in itertools.combinations(range(order), k):
            members = squared = 0
            for a in subset:
                members |= 1 << a
                squared |= diagonal[a]
            if not squared & ~members and all(
                members >> square[a][b] & 1 for a in subset for b in subset
            ):
                yield subset


def quasigroup_from_square(square, name: str) -> FiniteAlgebra:
    return algebra_from_function(
        name, 2, "quasigroup", [str(i) for i in range(len(square))], lambda a, b: square[a][b]
    )


def search_noncep_monomorphism(max_order: int = 5):
    """Scan every quasigroup of order <= max_order and every proper
    subquasigroup for a full-scope congruence that fails to extend.

    Returns (embedding, report) for the first failure, or (None, stats)
    when none exists at these sizes.  Finite subsets closed under the
    product are automatically closed under both divisions, so closure
    under f alone identifies the subquasigroups.

    No failure exists at orders <= 7.  For n >= 2 the blocks of a
    congruence (in either scope) of a finite n-quasigroup all have the same
    size: given blocks B and C and elements a in B, c in C, fixing all but
    one argument of f gives a bijection that sends a to c and, by
    compatibility, maps B into C, so |B| <= |C| and by symmetry |B| = |C|.
    Hence a quasigroup of prime order has only the trivial and the full
    congruence, and both always extend.  A proper subquasigroup has at
    most m/2 elements (see `_closed_subsets`), so below order 8 every
    source has 2 or 3 elements.  For n = 1 the argument fails, since f is
    one fixed permutation: the identity on {0,1,2} has the congruence
    {0,1} | {2}.
    """
    stats = {"squares": 0, "embeddings": 0}
    for order in range(2, max_order + 1):
        for square in latin_squares(order):
            stats["squares"] += 1
            subsets = list(_closed_subsets(square, order))
            if not subsets:
                continue
            target = quasigroup_from_square(square, "Q%d" % order)
            for subset in subsets:
                sub_square = [[subset.index(square[a][b]) for b in subset] for a in subset]
                source = quasigroup_from_square(sub_square, "S%d" % len(subset))
                emb = Embedding(
                    source, target, {str(i): str(a) for i, a in enumerate(subset)}
                )
                stats["embeddings"] += 1
                report = check_cep(emb, scope="full")
                if not report.verdict:
                    return emb, report
    return None, stats


def identity_embedding(alg: FiniteAlgebra) -> Embedding:
    return Embedding(alg, alg, {a: a for a in alg.carrier})


def sub_permutation_embeddings(perm, max_points: int = 6):
    """Embeddings of cycle-unions into the 1-quasigroup of a permutation."""
    order = len(perm)
    whole = permutation_quasigroup(perm, "P%d" % order)
    cycles = []
    seen = set()
    for start in range(order):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        cycles.append(cycle)
    out = []
    for r in range(1, len(cycles) + 1):
        for chosen in itertools.combinations(cycles, r):
            points = sorted(p for c in chosen for p in c)
            if len(points) > max_points or len(points) == order:
                continue
            relabel = {p: i for i, p in enumerate(points)}
            sub_perm = [relabel[perm[p]] for p in points]
            source = permutation_quasigroup(sub_perm, "sub")
            out.append(
                Embedding(source, whole, {str(i): str(p) for i, p in enumerate(points)})
            )
    return out
