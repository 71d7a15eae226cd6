"""Finite n-quasigroups and n-loops as operation tables.

An algebra carries a total n-ary table for f and one for each division
operation g_i (derived from f when not supplied).  Validation checks the
Latin-hypercube property (each one-unknown equation in f has exactly one
solution), the defining identities tying f to the g_i, and the identity
element law for loops.  Congruences are plain partitions filtered or
closed for compatibility, with an explicit scope: f alone, or f together
with every division.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .terms import Elem, Term, Var

DEFAULT_CARRIER_BOUND = 8


class AlgebraError(ValueError):
    pass


class NotAQuasigroupError(AlgebraError):
    pass


class CarrierTooLargeError(AlgebraError):
    pass


@dataclass
class Violation:
    axiom: str
    where: tuple
    detail: str

    def __str__(self) -> str:
        return "%s at %s: %s" % (self.axiom, list(self.where), self.detail)


class FiniteAlgebra:
    """Carrier plus total tables for f and g_1..g_n (names, not indices)."""

    def __init__(self, name, n, kind, carrier, table_f, tables_g=None, identity=None):
        if kind not in ("quasigroup", "loop"):
            raise AlgebraError("kind must be 'quasigroup' or 'loop', got %r" % (kind,))
        if n < 1:
            raise AlgebraError("n must be positive")
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier) or not carrier:
            raise AlgebraError("carrier must be nonempty and duplicate-free")
        self.name = name
        self.n = n
        self.kind = kind
        self.carrier = carrier
        self.table_f = _check_total(n, carrier, table_f, "f")
        if tables_g is None:
            tables_g = derive_divisions(n, carrier, self.table_f)
        if len(tables_g) != n:
            raise AlgebraError("expected %d division tables, got %d" % (n, len(tables_g)))
        self.tables_g = tuple(
            _check_total(n, carrier, tg, "g%d" % (i + 1)) for i, tg in enumerate(tables_g)
        )
        if kind == "loop":
            if identity is None:
                identity = _discover_identity(n, carrier, self.table_f)
            elif identity not in carrier:
                raise AlgebraError("identity %r not in carrier" % (identity,))
        self.identity = identity
        self._index = {a: i for i, a in enumerate(carrier)}
        self._slot_row_cache = {}  # scope -> _slot_rows(self, scope)

    def f(self, *args) -> str:
        return self.table_f[args]

    def g(self, i, *args) -> str:
        return self.tables_g[i - 1][args]

    def index(self, element: str) -> int:
        return self._index[element]

    @property
    def order(self) -> int:
        return len(self.carrier)

    def tuples(self):
        return itertools.product(self.carrier, repeat=self.n)

    def eval_term(self, t: Term, assignment=None) -> str:
        """Value of a term whose leaves are carrier elements (or variables
        resolved through `assignment`)."""
        if isinstance(t, Elem):
            if t.name not in self._index:
                raise AlgebraError("%r is not an element of %s" % (t.name, self.name))
            return t.name
        if isinstance(t, Var):
            if not assignment or t.name not in assignment:
                raise AlgebraError("unassigned variable %r" % (t.name,))
            return assignment[t.name]
        if t.symbol == "e":
            if self.identity is None:
                raise AlgebraError("%s has no identity element" % self.name)
            return self.identity
        args = tuple(self.eval_term(a, assignment) for a in t.args)
        if t.symbol == "f":
            return self.table_f[args]
        if t.symbol.startswith("g"):
            return self.tables_g[int(t.symbol[1:]) - 1][args]
        raise AlgebraError("unknown operation symbol %r" % (t.symbol,))

    def rename(self, mapping, name=None) -> "FiniteAlgebra":
        """Copy with every element renamed through an injective mapping."""
        if len(set(mapping.values())) != len(mapping):
            raise AlgebraError("renaming is not injective")
        remap = lambda a: mapping[a]
        return FiniteAlgebra(
            name=name or self.name,
            n=self.n,
            kind=self.kind,
            carrier=[remap(a) for a in self.carrier],
            table_f={tuple(map(remap, k)): remap(v) for k, v in self.table_f.items()},
            tables_g=[
                {tuple(map(remap, k)): remap(v) for k, v in tg.items()} for tg in self.tables_g
            ],
            identity=None if self.identity is None else remap(self.identity),
        )

    def __repr__(self) -> str:
        return "FiniteAlgebra(%s: %d-%s of order %d)" % (self.name, self.n, self.kind, self.order)


def _check_total(n, carrier, table, opname):
    table = {tuple(k): v for k, v in table.items()}
    elems = set(carrier)
    expected = len(carrier) ** n
    if len(table) != expected:
        raise AlgebraError("%s table has %d entries, expected %d" % (opname, len(table), expected))
    for key, value in table.items():
        if len(key) != n or any(a not in elems for a in key) or value not in elems:
            raise AlgebraError("%s table entry %r -> %r is out of carrier" % (opname, key, value))
    return table


def _discover_identity(n, carrier, table_f):
    # Identity elements need not be unique once n >= 3 (in the parity
    # 3-loop on two elements both elements qualify); take the first in
    # carrier order for determinism.
    for e in carrier:
        if all(
            table_f[(e,) * (i - 1) + (a,) + (e,) * (n - i)] == a
            for i in range(1, n + 1)
            for a in carrier
        ):
            return e
    raise AlgebraError("no identity element satisfies the loop law")


def derive_divisions(n, carrier, table_f) -> list:
    """Division tables: g_i(a_1..a_n) is the unique b solving f with b in
    slot i equal to a_i.  Raises NotAQuasigroupError when a solution is
    missing or ambiguous.

    Each one-slot map b -> f(..b..) is inverted in one pass over the
    table, so the cost is O(m^n) per slot rather than a search over b."""
    table_f = {tuple(k): v for k, v in table_f.items()}
    tables = []
    for i in range(n):
        solution, count = {}, {}
        for args in itertools.product(carrier, repeat=n):
            solved = args[:i] + (table_f[args],) + args[i + 1 :]
            solution[solved] = args[i]
            count[solved] = count.get(solved, 0) + 1
        gi = {}
        for args in itertools.product(carrier, repeat=n):
            if count.get(args) != 1:
                raise NotAQuasigroupError(
                    "slot %d: %d solutions for %r" % (i + 1, count.get(args, 0), args)
                )
            gi[args] = solution[args]
        tables.append(gi)
    return tables


def validate(alg: FiniteAlgebra) -> Violation | None:
    """None when all axioms hold; otherwise the first violation found."""
    n, carrier = alg.n, alg.carrier
    for i in range(1, n + 1):
        for context in itertools.product(carrier, repeat=n - 1):
            seen = {}
            for b in carrier:
                args = context[: i - 1] + (b,) + context[i - 1 :]
                value = alg.table_f[args]
                if value in seen:
                    return Violation(
                        "unique-solution",
                        args,
                        "slot %d: f repeats value %r (also at %r)" % (i, value, seen[value]),
                    )
                seen[value] = args
    for i in range(1, n + 1):
        for args in alg.tuples():
            b = alg.tables_g[i - 1][args]
            got = alg.table_f[args[: i - 1] + (b,) + args[i:]]
            if got != args[i - 1]:
                return Violation(
                    "f-of-division",
                    args,
                    "f(.., g%d(..) ,..) gave %r, expected %r" % (i, got, args[i - 1]),
                )
            fv = alg.table_f[args]
            got = alg.tables_g[i - 1][args[: i - 1] + (fv,) + args[i:]]
            if got != args[i - 1]:
                return Violation(
                    "division-of-f",
                    args,
                    "g%d(.., f(..) ,..) gave %r, expected %r" % (i, got, args[i - 1]),
                )
    if alg.kind == "loop":
        e = alg.identity
        if e is None:
            return Violation("identity", (), "loop without identity element")
        for i in range(1, n + 1):
            for a in carrier:
                args = (e,) * (i - 1) + (a,) + (e,) * (n - i)
                if alg.table_f[args] != a:
                    return Violation(
                        "identity", args, "f%s = %r, expected %r" % (args, alg.table_f[args], a)
                    )
    return None


# ---------------------------------------------------------------------------
# congruences


@dataclass(frozen=True)
class Congruence:
    """A compatible partition of the carrier; blocks are kept in a canonical
    order (by first element in carrier order)."""

    algebra: FiniteAlgebra = field(compare=False, hash=False)
    blocks: tuple = ()
    scope: str = "full"

    def __post_init__(self):
        if self.scope not in ("f", "full"):
            raise AlgebraError("scope must be 'f' or 'full'")

    @staticmethod
    def from_blocks(alg, blocks, scope="full") -> "Congruence":
        idx = {a: i for i, a in enumerate(alg.carrier)}
        canon = tuple(
            sorted((tuple(sorted(b, key=idx.__getitem__)) for b in blocks), key=lambda b: idx[b[0]])
        )
        return Congruence(algebra=alg, blocks=canon, scope=scope)

    def block_of(self, element: str) -> tuple:
        for b in self.blocks:
            if element in b:
                return b
        raise KeyError(element)

    def relates(self, a: str, b: str) -> bool:
        return self.block_of(a) is self.block_of(b)

    def pairs(self):
        for block in self.blocks:
            for a, b in itertools.combinations(block, 2):
                yield a, b

    @property
    def is_identity(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    @property
    def is_full(self) -> bool:
        return len(self.blocks) == 1

    def __str__(self) -> str:
        return " | ".join("{" + ",".join(b) + "}" for b in self.blocks)


def _slot_rows(alg: FiniteAlgebra, scope: str) -> tuple:
    """The one-slot maps of the scope's tables over carrier indices, built
    once per algebra and scope.  One entry per (table, slot); entry[a] is
    the tuple of value indices with element a in that slot, over every
    context of the other slots in product order."""
    rows = alg._slot_row_cache.get(scope)
    if rows is None:
        tables = (alg.table_f,) if scope == "f" else (alg.table_f,) + alg.tables_g
        index = alg._index
        contexts = list(itertools.product(alg.carrier, repeat=alg.n - 1))
        rows = tuple(
            tuple(
                tuple(index[table[ctx[:slot] + (a,) + ctx[slot:]]] for ctx in contexts)
                for a in alg.carrier
            )
            for table in tables
            for slot in range(alg.n)
        )
        alg._slot_row_cache[scope] = rows
    return rows


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent: list, x: int, y: int) -> bool:
    """Merge the classes of x and y under the smaller root; False when
    they were one class already."""
    rx, ry = _find(parent, x), _find(parent, y)
    if rx == ry:
        return False
    parent[max(rx, ry)] = min(rx, ry)
    return True


def _closing_merges(alg: FiniteAlgebra, scope: str, parent: list, pending: list):
    """Congruence closure on an integer union-find over carrier indices.

    `parent` holds the classes; `pending` holds pairs already in one class
    whose images under the one-slot maps have not been merged yet.  Yields
    each pair whose classes it merges; when exhausted, the classes form the
    least scope-congruence containing the classes it started from.  One
    slot at a time suffices: transitivity chains cover full tuples."""
    maps = _slot_rows(alg, scope)
    while pending:
        a, b = pending.pop()
        for rows in maps:
            for x, y in zip(rows[a], rows[b]):
                if _union(parent, x, y):
                    pending.append((x, y))
                    yield x, y


def _congruence(alg: FiniteAlgebra, labels, scope: str) -> Congruence:
    """The congruence whose blocks group carrier indices by label.  Blocks
    come out in canonical order: members ascending, blocks by first member."""
    groups = {}
    for a, label in zip(alg.carrier, labels):
        groups.setdefault(label, []).append(a)
    return Congruence(algebra=alg, blocks=tuple(map(tuple, groups.values())), scope=scope)


def _growth_strings(m: int):
    """Restricted growth strings of length m >= 1: the block label of each
    of m items, labels numbered by first use.  The same list is yielded
    each time, updated in place between yields."""
    rgs = [0] * m
    maxes = [0] * m
    while True:
        yield rgs
        i = m - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, m):
            rgs[j] = 0
            maxes[j] = maxes[i]


def partitions(items):
    """All set partitions, by restricted growth strings."""
    items = list(items)
    if not items:
        yield []
        return
    for rgs in _growth_strings(len(items)):
        blocks = {}
        for item, b in zip(items, rgs):
            blocks.setdefault(b, []).append(item)
        yield list(blocks.values())


def _compatible(alg: FiniteAlgebra, labels: list, scope: str) -> bool:
    """Whether the partition of carrier indices by `labels` is a
    scope-congruence, i.e. closing it merges no two of its blocks."""
    first = {}
    parent = [first.setdefault(label, a) for a, label in enumerate(labels)]
    pending = [(b, a) for a, b in enumerate(parent) if a != b]
    return next(_closing_merges(alg, scope, parent, pending), None) is None


def enumerate_congruences(alg: FiniteAlgebra, scope="full", bound=DEFAULT_CARRIER_BOUND) -> list:
    """All scope-compatible partitions of the carrier, in a stable order."""
    if alg.order > bound:
        raise CarrierTooLargeError(
            "carrier of size %d exceeds the enumeration bound %d" % (alg.order, bound)
        )
    out = []
    for labels in _growth_strings(alg.order):
        if _compatible(alg, labels, scope):
            out.append(_congruence(alg, labels, scope))
    out.sort(key=lambda c: (len(c.blocks), c.blocks))
    return out


def generated_congruence(alg: FiniteAlgebra, seed_pairs, scope="full") -> Congruence:
    """Least scope-congruence containing the seed pairs: the seeds merged
    in an integer union-find, then closed under one-slot compatibility."""
    parent = list(range(alg.order))
    pending = []
    for a, b in seed_pairs:
        if a not in alg._index or b not in alg._index:
            raise AlgebraError("seed pair (%r, %r) is not in the carrier" % (a, b))
        pair = (alg._index[a], alg._index[b])
        if _union(parent, *pair):
            pending.append(pair)
    for _ in _closing_merges(alg, scope, parent, pending):
        pass
    return _congruence(alg, [_find(parent, a) for a in range(alg.order)], scope)


# ---------------------------------------------------------------------------
# embeddings


class Embedding:
    """An injective map between algebras of the same n and kind."""

    def __init__(self, source: FiniteAlgebra, target: FiniteAlgebra, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, element: str) -> str:
        return self.mapping[element]

    def __repr__(self) -> str:
        return "Embedding(%s -> %s, %r)" % (self.source.name, self.target.name, self.mapping)


def validate_embedding(emb: Embedding) -> Violation | None:
    src, tgt, m = emb.source, emb.target, emb.mapping
    if src.n != tgt.n or src.kind != tgt.kind:
        return Violation("shape", (), "source and target differ in n or kind")
    if set(m) != set(src.carrier):
        return Violation("totality", (), "map domain is not the source carrier")
    if any(v not in tgt._index for v in m.values()):
        return Violation("codomain", (), "map image leaves the target carrier")
    if len(set(m.values())) != len(m):
        return Violation("injectivity", (), "map identifies distinct elements")
    for args in src.tuples():
        mapped = tuple(m[a] for a in args)
        if m[src.table_f[args]] != tgt.table_f[mapped]:
            return Violation("preserve-f", args, "f is not preserved")
    for i in range(1, src.n + 1):
        for args in src.tuples():
            mapped = tuple(m[a] for a in args)
            if m[src.tables_g[i - 1][args]] != tgt.tables_g[i - 1][mapped]:
                return Violation("preserve-g%d" % i, args, "g%d is not preserved" % i)
    if src.kind == "loop" and m[src.identity] != tgt.identity:
        return Violation("preserve-identity", (src.identity,), "identity is not preserved")
    return None


def restrict(cong: Congruence, emb: Embedding) -> Congruence:
    """Pull a target congruence back along an embedding."""
    label = {x: k for k, block in enumerate(cong.blocks) for x in block}
    return _congruence(emb.source, [label[emb(a)] for a in emb.source.carrier], cong.scope)


# ---------------------------------------------------------------------------
# file format and convenience constructors


def _nest_table(n, carrier, table):
    def build(prefix):
        if len(prefix) == n:
            return table[prefix]
        return [build(prefix + (a,)) for a in carrier]

    return build(())


def _flatten_table(n, carrier, nested, opname) -> dict:
    table = {}

    def walk(prefix, level):
        if len(prefix) == n:
            if not isinstance(level, str):
                raise AlgebraError("%s table entry %r is not an element name" % (opname, level))
            table[prefix] = level
            return
        if not isinstance(level, list) or len(level) != len(carrier):
            raise AlgebraError("%s table is not a %d-deep array over the carrier" % (opname, n))
        for a, sub in zip(carrier, level):
            walk(prefix + (a,), sub)

    walk((), nested)
    return table


def algebra_to_json(alg: FiniteAlgebra) -> dict:
    obj = {
        "name": alg.name,
        "n": alg.n,
        "kind": alg.kind,
        "carrier": list(alg.carrier),
        "f": _nest_table(alg.n, alg.carrier, alg.table_f),
        "g": [_nest_table(alg.n, alg.carrier, tg) for tg in alg.tables_g],
    }
    if alg.identity is not None:
        obj["e"] = alg.identity
    return obj


def algebra_from_json(obj) -> FiniteAlgebra:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise AlgebraError("algebra must be a JSON object")
    try:
        name = obj["name"]
        n = obj["n"]
        kind = obj["kind"]
        carrier = obj["carrier"]
        f = obj["f"]
    except KeyError as exc:
        raise AlgebraError("algebra object is missing field %s" % exc) from None
    if type(n) is not int or n < 1:
        raise AlgebraError("n must be an integer of at least 1, got %r" % (n,))
    if not isinstance(carrier, list) or not all(isinstance(a, str) for a in carrier):
        raise AlgebraError("carrier must be a list of element names")
    carrier = tuple(carrier)
    table_f = _flatten_table(n, carrier, f, "f")
    tables_g = None
    if "g" in obj:
        if not isinstance(obj["g"], list):
            raise AlgebraError("g must be a list of division tables")
        tables_g = [_flatten_table(n, carrier, tg, "g%d" % (i + 1)) for i, tg in enumerate(obj["g"])]
    return FiniteAlgebra(name, n, kind, carrier, table_f, tables_g, obj.get("e"))


def algebra_from_function(name, n, kind, carrier, func, identity=None) -> FiniteAlgebra:
    """Build tables for f by evaluating `func` on index tuples (0-based)."""
    carrier = tuple(carrier)
    idx = {a: i for i, a in enumerate(carrier)}
    table_f = {
        args: carrier[func(*(idx[a] for a in args))]
        for args in itertools.product(carrier, repeat=n)
    }
    return FiniteAlgebra(name, n, kind, carrier, table_f, identity=identity)


def cyclic_loop(order: int, n: int = 2, name=None) -> FiniteAlgebra:
    """The n-loop on {0..order-1} with f = sum mod order and identity 0."""
    return algebra_from_function(
        name or "Z%d" % order,
        n,
        "loop",
        [str(i) for i in range(order)],
        lambda *ix: sum(ix) % order,
        identity="0",
    )


def permutation_quasigroup(perm, name=None) -> FiniteAlgebra:
    """The 1-quasigroup given by a permutation (list of 0-based images)."""
    order = len(perm)
    if sorted(perm) != list(range(order)):
        raise AlgebraError("not a permutation: %r" % (perm,))
    return algebra_from_function(
        name or "perm%d" % order,
        1,
        "quasigroup",
        [str(i) for i in range(order)],
        lambda i: perm[i],
    )
