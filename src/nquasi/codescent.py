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

from .algebras import (
    Congruence,
    Embedding,
    FiniteAlgebra,
    check_scope,
    enumerate_congruences,
    extend,
    generated_congruence,
    permutation_quasigroup,
    restrict,
)
from .terms import _Record

# `Embedding` checks itself when built; `validate_embedding` stays bound
# here so that the per-layer tracer of perfbench/tracing.py can rebind it
# in this module.
from .algebras import validate_embedding  # noqa: F401


class CepReport(_Record):
    _fields = ("embedding", "scope", "verdict", "witnesses", "failing")

    def __init__(
        self, embedding: Embedding, scope: str, verdict: bool, witnesses: tuple = (), failing: Congruence | None = None
    ):
        self.embedding = embedding
        self.scope = scope
        self.verdict = verdict
        self.witnesses = witnesses  # (source congruence, generated extension, its restriction)
        self.failing = failing

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
    """For every congruence R on the source, `extend` least and `restrict`
    back, on carrier indices; the verdict is the conjunction over all R.
    The embedding and its algebras were checked when they were built.

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
        extension = extend(cong, emb)
        back = restrict(extension, emb)
        witnesses.append((cong, extension, back))
        if failing is None and back != cong:
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
    restrictions = {restrict(c, emb) for c in target_congs}
    per_congruence = []
    for cong in enumerate_congruences(emb.source, scope):
        per_congruence.append((cong, cong in restrictions))
    return all(ok for _, ok in per_congruence), tuple(per_congruence)


# ---------------------------------------------------------------------------
# finite 1-quasigroups: every f-congruence is a full congruence


class Prop36Counterexample(_Record):
    _fields = ("order", "permutation", "blocks")

    def __init__(self, order: int, permutation: tuple, blocks: tuple):
        self.order = order
        self.permutation = permutation
        self.blocks = blocks

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
    f-congruence.  None means no counterexample (as expected).  An order
    above 8 may raise `CarrierTooLargeError` at the congruence cap: the
    identity permutation of order 9 has Bell(9) = 21,147 congruences."""
    if type(max_order) is not int:
        raise ValueError("max_order must be an integer, got %r" % (max_order,))
    for order in range(1, max_order + 1):
        for cycle_type in integer_partitions(order):
            perm = permutation_from_cycle_type(cycle_type)
            alg = permutation_quasigroup(perm)
            for cong in enumerate_congruences(alg, "f"):
                seeds = [(alg.carrier[x], alg.carrier[y]) for x, y in enumerate(cong.labels) if x != y]
                if generated_congruence(alg, seeds, "full") != cong:
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
    lexicographic order of their rows; an order that is no int, or is
    negative, raises ValueError.

    A row is a permutation, and permutation k carries the bitmask
    `fits[k]` of the permutations whose (column, symbol) cells are
    disjoint from its own.  The rows that fit under the rows placed so far
    are the AND of their masks, bit k standing for permutation k in
    lexicographic order.  The walk keeps one (fitting, untried) pair of
    masks per open level on an explicit stack.  The last row is emitted
    directly: under order-1 rows each column misses exactly one symbol, and
    those symbols form the one permutation that fits."""
    if type(order) is not int:
        raise ValueError("order must be an integer, got %r" % (order,))
    if order < 0:
        raise ValueError("order must be nonnegative, got %d" % order)
    if order < 2:
        yield ((0,),) * order  # () and ((0,),)
        return
    perms = list(itertools.permutations(range(order)))
    with_cell = {}  # (column, symbol) -> mask of the permutations using that cell
    for k, perm in enumerate(perms):
        for cell in enumerate(perm):
            with_cell[cell] = with_cell.get(cell, 0) | 1 << k
    every = (1 << len(perms)) - 1
    fits = []
    for perm in perms:
        mask = every
        for cell in enumerate(perm):
            mask &= ~with_cell[cell]
        fits.append(mask)
    square = []
    stack = [(every, every)]  # per open level: (rows that fit, rows not yet tried)
    while stack:
        fitting, untried = stack[-1]
        if len(square) == order - 2:
            while untried:
                low = untried & -untried
                untried ^= low
                k = low.bit_length() - 1
                yield (*square, perms[k], perms[(fitting & fits[k]).bit_length() - 1])
        if not untried:
            stack.pop()
            if square:
                square.pop()
            continue
        low = untried & -untried
        stack[-1] = (fitting, untried ^ low)
        k = low.bit_length() - 1
        square.append(perms[k])
        below = fitting & fits[k]
        stack.append((below, below))


def _closed_subsets_along(squares, order):
    """Each square of `squares` (rows are tuples) with its proper subsets
    of at least two elements closed under the table product, by size and
    then lexicographically.

    S is closed when every row a in S maps S into S.  The candidates are
    the subsets of 2 to order/2 elements in that order, candidate k being
    bit k of a mask.  The row table, filled as rows are met and kept for
    one call, holds for a row permutation p one mask per row index a: the
    candidates S that row a keeps closed, meaning a is not in S or p maps
    S into S.  The closed candidates are the bits that survive the AND of
    the square's row masks, taken in row order until the mask is 0.

    Only sizes up to order/2 need testing.  If S is closed and b is outside
    S, the products s*b for s in S are |S| distinct elements (b's column
    holds no symbol twice), and none lies in S: s*b = t in S would make b
    the unique solution of s*x = t, which S already holds because x -> s*x
    permutes the finite closed set S.  So S and S*b are disjoint, and
    2|S| <= order."""
    candidates = [subset for size in range(2, order // 2 + 1) for subset in itertools.combinations(range(order), size)]
    outside = [sum(1 << k for k, subset in enumerate(candidates) if a not in subset) for a in range(order)]
    table = {}  # row permutation -> its mask at each row index
    every = (1 << len(candidates)) - 1
    for square in squares:
        mask = every
        for a, row in enumerate(square):
            if not mask:
                break
            masks = table.get(row)
            if masks is None:
                into = sum(1 << k for k, subset in enumerate(candidates) if all(row[b] in subset for b in subset))
                masks = table[row] = [kept | into for kept in outside]
            mask &= masks[a]
        subsets = []
        while mask:
            low = mask & -mask
            subsets.append(candidates[low.bit_length() - 1])
            mask ^= low
        yield square, subsets


def quasigroup_from_square(square, name: str) -> FiniteAlgebra:
    carrier = [str(i) for i in range(len(square))]
    return FiniteAlgebra(name, 2, "quasigroup", carrier, [v for row in square for v in row])


def search_noncep_monomorphism(max_order: int = 5):
    """Scan every quasigroup of order <= max_order and every subquasigroup
    of at least two elements for a full-scope congruence that fails to
    extend.  A one-element source needs no check: its only congruence is
    both trivial and full, and it always extends.

    Returns (embedding, report) for the first failure, or (None, stats)
    when none exists at these sizes.  The stats count the Latin squares
    scanned (`squares`), those with a proper subquasigroup, whose algebra
    was built (`targets`), the distinct source tables (`sources`) and the
    embeddings decided (`embeddings`).  Finite subsets closed under the
    product are automatically closed under both divisions, so closure
    under f alone identifies the subquasigroups.  Each distinct source
    table is built once per call, so `check_cep` enumerates its congruence
    lattice once (`enumerate_congruences` keeps it on the algebra); every
    embedding is still built, which checks it, and decided.  Orders above
    5 are refused: order 6 alone has 812,851,200 Latin squares.

    No failure exists at orders <= 7.  For n >= 2 the blocks of a
    congruence (in either scope) of a finite n-quasigroup all have the same
    size: given blocks B and C and elements a in B, c in C, fixing all but
    one argument of f gives a bijection that sends a to c and, by
    compatibility, maps B into C, so |B| <= |C| and by symmetry |B| = |C|.
    Hence a quasigroup of prime order has only the trivial and the full
    congruence, and both always extend.  A proper subquasigroup has at
    most m/2 elements (see `_closed_subsets_along`), so below order 8 every
    source has 2 or 3 elements.  For n = 1 the argument fails, since f is
    one fixed permutation: the identity on {0,1,2} has the congruence
    {0,1} | {2}.
    """
    if type(max_order) is not int:
        raise ValueError("max_order must be an integer, got %r" % (max_order,))
    if max_order > 5:
        raise ValueError("max_order above 5 is out of enumeration range")
    stats = {"squares": 0, "targets": 0, "sources": 0, "embeddings": 0}
    sources = {}  # sub-square -> its quasigroup
    for order in range(2, max_order + 1):
        for square, subsets in _closed_subsets_along(latin_squares(order), order):
            stats["squares"] += 1
            if not subsets:
                continue
            target = quasigroup_from_square(square, "Q%d" % order)
            stats["targets"] += 1
            for subset in subsets:
                sub_square = tuple(
                    tuple(subset.index(square[a][b]) for b in subset) for a in subset
                )
                source = sources.get(sub_square)
                if source is None:
                    source = quasigroup_from_square(sub_square, "S%d" % len(subset))
                    sources[sub_square] = source
                emb = Embedding(
                    source, target, {str(i): str(a) for i, a in enumerate(subset)}
                )
                stats["embeddings"] += 1
                report = check_cep(emb, scope="full")
                if not report.verdict:
                    return emb, report
    stats["sources"] = len(sources)
    return None, stats


def identity_embedding(alg: FiniteAlgebra) -> Embedding:
    return Embedding(alg, alg, {a: a for a in alg.carrier})


def sub_permutation_embeddings(perm):
    """Embeddings of proper cycle-unions of <= 6 points into the 1-quasigroup of a permutation."""
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
            if len(points) > 6 or len(points) == order:
                continue
            relabel = {p: i for i, p in enumerate(points)}
            sub_perm = [relabel[perm[p]] for p in points]
            source = permutation_quasigroup(sub_perm, "sub")
            out.append(
                Embedding(source, whole, {str(i): str(p) for i, p in enumerate(points)})
            )
    return out
