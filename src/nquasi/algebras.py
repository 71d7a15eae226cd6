"""Finite n-quasigroups and n-loops as operation tables.

An algebra is one flat integer table for f, `flat_f`: the index of each
value, in product order of the argument index tuples.  The divisions
`flat_g` share its layout and are derived from f when first read, unless
supplied; the name-keyed `table_f` and `tables_g` are views built when
first read.  Algebras and embeddings are valid by construction: the
constructors raise `InvalidAlgebraError` when an axiom fails.  A congruence
is its canonical labels; its name blocks are a view for printing and
sorting.  One closure kernel on an integer union-find builds the congruence
generated by any set of pairs, under f alone (decisions) or also under
every division (oracles; the same, see `codescent.check_cep`); the lattice
is the set of joins of the principal congruences: those of the pairs
(0, b) when n >= 2, of every pair when n = 1.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .terms import Elem, Term, Var, _Frozen, _Record, _setattr

CONGRUENCE_CAP = 4140


class AlgebraError(ValueError):
    pass


class CarrierTooLargeError(AlgebraError):
    """A congruence lattice that would close more pairs than
    `CONGRUENCE_CAP`, or holds more congruences than that; see
    `enumerate_congruences`."""


class InvalidAlgebraError(AlgebraError):
    """Tables that break an axiom, or a map that is not an embedding; the
    message names the algebra (or says "invalid embedding") and the
    violation."""


class NotAQuasigroupError(InvalidAlgebraError):
    pass


class Violation(_Record):
    _fields = ("axiom", "where", "detail")

    def __init__(self, axiom: str, where: tuple, detail: str):
        self.axiom = axiom
        self.where = where
        self.detail = detail

    def __str__(self) -> str:
        return "%s at %s: %s" % (self.axiom, list(self.where), self.detail)


class FiniteAlgebra:
    """Carrier plus a total table for f, given as value indices in product
    order or as a mapping from element-name tuples to names (converted once).

    Built from f alone, every one-slot map of f must be a bijection (a
    failure raises from `derive_divisions`).  Supplied division tables are
    kept and must satisfy identity 2.3, f(.., g_i(a), ..) = a_i in slot i,
    checked in product order: on a finite carrier each one-slot map of f
    then has a right inverse, so it is a bijection, g_i is its inverse and
    identity 2.4 holds too.  A loop must satisfy the identity law."""

    def __init__(self, name, n, kind, carrier, table_f, tables_g=None, identity=None):
        if kind not in ("quasigroup", "loop"):
            raise AlgebraError("kind must be 'quasigroup' or 'loop', got %r" % (kind,))
        _check_positive("n", n)
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier) or not carrier:
            raise AlgebraError("carrier must be nonempty and duplicate-free")
        self.name = name
        self.n = n
        self.kind = kind
        self.carrier = carrier
        self._index = {a: i for i, a in enumerate(carrier)}
        self.flat_f = _flat_table(self, table_f, "f")
        self._memo = {}  # ("rows" or "congruences", scope) -> what this algebra derives once
        if tables_g is None:
            if any(len(set(col)) < len(carrier) for rows in _slot_rows(self, "f") for col in zip(*rows)):
                try:
                    derive_divisions(n, carrier, self.flat_f)  # a column is no permutation: raises
                except NotAQuasigroupError as exc:
                    raise NotAQuasigroupError("%s is not a valid %s: %s" % (name, kind, exc)) from None
        elif len(tables_g) != n:
            raise AlgebraError("expected %d division tables, got %d" % (n, len(tables_g)))
        else:
            self.flat_g = tuple(_flat_table(self, tg, "g%d" % (i + 1)) for i, tg in enumerate(tables_g))
        if kind == "loop":
            if identity is None:
                identity = next((e for e in carrier if _identity_violation(self, e) is None), None)
                if identity is None:
                    raise AlgebraError("no identity element satisfies the loop law")
            elif identity not in carrier:
                raise AlgebraError("identity %r not in carrier" % (identity,))
            else:
                bad = _identity_violation(self, identity)
                if bad:
                    raise InvalidAlgebraError("%s is not a valid loop: %s" % (name, bad))
        elif identity is not None:
            raise AlgebraError("a quasigroup has no identity element, got %r" % (identity,))
        if tables_g is not None:
            bad = _division_violation(self)
            if bad:
                raise InvalidAlgebraError("%s is not a valid %s: %s" % (name, kind, bad))
        self.identity = identity

    @functools.cached_property
    def flat_g(self) -> tuple:
        return tuple(derive_divisions(self.n, self.carrier, self.flat_f))

    @functools.cached_property
    def table_f(self) -> dict:
        return self._view(self.flat_f)

    @functools.cached_property
    def tables_g(self) -> tuple:
        return tuple(map(self._view, self.flat_g))

    def _view(self, flat) -> dict:
        """A flat table keyed by element-name tuples, in carrier product order."""
        return dict(zip(self.tuples(), map(self.carrier.__getitem__, flat)))

    def index(self, element: str) -> int:
        return self._index[element]

    @property
    def order(self) -> int:
        return len(self.carrier)

    def tuples(self):
        return itertools.product(self.carrier, repeat=self.n)

    def eval_term(self, t: Term, assignment=None) -> str:
        """Value of a term whose leaves are carrier elements (or variables
        resolved through `assignment`).  Its operations are f and g1..gn,
        each with n arguments, and the constant e of a loop."""
        if isinstance(t, Elem):
            if t.name not in self._index:
                raise AlgebraError("%r is not an element of %s" % (t.name, self.name))
            return t.name
        if isinstance(t, Var):
            if not assignment or t.name not in assignment:
                raise AlgebraError("unassigned variable %r" % (t.name,))
            value = assignment[t.name]
            if value not in self.carrier:  # compared, not hashed: an unhashable value is refused too
                raise AlgebraError("%r is not an element of %s" % (value, self.name))
            return value
        if t.symbol == "e" and not t.args:
            if self.identity is None:
                raise AlgebraError("%s has no identity element" % self.name)
            return self.identity
        names = ["f"] + ["g%d" % i for i in range(1, self.n + 1)]
        if t.symbol not in names or len(t.args) != self.n:
            raise AlgebraError("%s has no operation %r with %d arguments" % (self.name, t.symbol, len(t.args)))
        args = tuple(self.eval_term(a, assignment) for a in t.args)
        slot = names.index(t.symbol)
        return (self.tables_g[slot - 1] if slot else self.table_f)[args]

    def rename(self, mapping) -> "FiniteAlgebra":
        """Same-named copy, same `flat_f`, with every element renamed through an injective mapping."""
        for a in self.carrier:
            if a not in mapping:
                raise AlgebraError("renaming misses element %r" % (a,))
        if len(set(mapping.values())) != len(mapping):
            raise AlgebraError("renaming is not injective")
        carrier = [mapping[a] for a in self.carrier]
        identity = None if self.identity is None else mapping[self.identity]
        return FiniteAlgebra(self.name, self.n, self.kind, carrier, self.flat_f, None, identity)

    def __repr__(self) -> str:
        return "FiniteAlgebra(%s: %d-%s of order %d)" % (self.name, self.n, self.kind, self.order)


def _check_positive(name, value) -> None:
    """Refuse an arity or order that is not an integer of at least 1, bools included."""
    if type(value) is not int or value < 1:
        raise AlgebraError("%s must be a positive integer, got %r" % (name, value))


def _key(carrier, n, p) -> tuple:
    """The element-name tuple at place p of a flat table, by p's base-m digits: slot i reads p // m^(n-1-i) % m."""
    return tuple(carrier[p // len(carrier) ** (n - 1 - i) % len(carrier)] for i in range(n))


def _flat_table(alg: FiniteAlgebra, table, opname) -> tuple:
    """A table as value indices in product order: a mapping from
    element-name tuples to names is converted, value indices are checked
    for length and range.  An entry outside the carrier raises, named."""
    named = hasattr(table, "items")
    table = {tuple(k): v for k, v in table.items()} if named else tuple(table)
    m = alg.order
    expected = m ** alg.n
    if len(table) != expected:
        raise AlgebraError("%s table has %d entries, expected %d" % (opname, len(table), expected))
    if named:
        place = dict(zip(alg.tuples(), range(expected)))
        flat = [0] * expected
        for key, value in table.items():
            if key not in place or value not in alg._index:
                raise AlgebraError("%s table entry %r -> %r is out of carrier" % (opname, key, value))
            flat[place[key]] = alg._index[value]
        return tuple(flat)
    for p, value in enumerate(table):
        if not (isinstance(value, int) and 0 <= value < m):
            key = _key(alg.carrier, alg.n, p)
            raise AlgebraError("%s table entry %r -> %r is out of carrier" % (opname, key, value))
    return table


def _identity_violation(alg: FiniteAlgebra, e) -> Violation | None:
    """The first failure of the loop law f(e,..,e,a,e,..,e) = a, or None; n*m
    lookups.  Identities need not be unique once n >= 3 (both elements of the
    parity 3-loop on two elements are), so the constructor takes the first."""
    m, n, x = alg.order, alg.n, alg._index[e]
    diagonal = sum(x * m**k for k in range(n))  # the place of (e, .., e)
    for i in range(n):
        for a in range(m):
            got = alg.flat_f[diagonal + (a - x) * m ** (n - 1 - i)]
            if got != a:
                args = (e,) * i + (alg.carrier[a],) + (e,) * (n - 1 - i)
                return Violation("identity", args, "f%s = %r, expected %r" % (args, alg.carrier[got], args[i]))
    return None


def derive_divisions(n, carrier, flat_f) -> list:
    """Division tables laid out as `flat_f`: place p of g_i holds the unique
    b for which f, with b in slot i of p, gives slot i of p.  Raises
    NotAQuasigroupError, naming the element tuple, when none or several do.

    Each one-slot map b -> f(..b..) is inverted in one pass over the
    table, so the cost is O(m^n) per slot rather than a search over b."""
    m = len(carrier)
    tables = []
    for i in range(n):
        stride = m ** (n - 1 - i)
        solution, count = [0] * len(flat_f), [0] * len(flat_f)
        for p, value in enumerate(flat_f):
            b = p // stride % m
            solved = p + (value - b) * stride  # place p with value in slot i
            solution[solved] = b
            count[solved] += 1
        for p, c in enumerate(count):
            if c != 1:
                raise NotAQuasigroupError("slot %d: %d solutions for %r" % (i + 1, c, _key(carrier, n, p)))
        tables.append(tuple(solution))
    return tables


def _division_violation(alg: FiniteAlgebra) -> Violation | None:
    """The first failure of identity 2.3, f(.., g_i(a), ..) = a_i, in slot
    order and then in product order, or None; n*m^n table lookups."""
    m, n = alg.order, alg.n
    for i, gi in enumerate(alg.flat_g):
        stride = m ** (n - 1 - i)
        for p, b in enumerate(gi):
            a = p // stride % m
            got = alg.flat_f[p + (b - a) * stride]
            if got != a:
                detail = "f(.., g%d(..) ,..) gave %r, expected %r" % (i + 1, alg.carrier[got], alg.carrier[a])
                return Violation("f-of-division", _key(alg.carrier, n, p), detail)
    return None


# ---------------------------------------------------------------------------
# congruences


class Congruence(_Frozen):
    """A compatible partition as canonical labels: labels[x] is the least
    index of x's class, so equal partitions compare equal.  `blocks` is a
    view, the names of each class in carrier order, classes by least index,
    read only by `str` and to sort the lattice.  Equality and hashing are
    those of the field tuple (carrier, labels)."""

    def __init__(self, carrier: tuple, labels: tuple):
        _setattr(self, "carrier", carrier)
        _setattr(self, "labels", labels)

    def __eq__(self, other):
        if other.__class__ is Congruence:
            return self.labels == other.labels and self.carrier == other.carrier
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.carrier, self.labels))

    def __repr__(self) -> str:
        return "Congruence(carrier=%r, labels=%r)" % (self.carrier, self.labels)

    @functools.cached_property
    def blocks(self) -> tuple:
        named = tuple(zip(self.carrier, self.labels))
        return tuple(tuple(a for a, k in named if k == x) for x, k in enumerate(self.labels) if k == x)

    def __str__(self) -> str:
        return " | ".join("{" + ",".join(b) + "}" for b in self.blocks)


def check_scope(scope: str) -> None:
    """Closure under f alone ("f") or f and every division ("full")."""
    if scope not in ("f", "full"):
        raise AlgebraError("scope must be 'f' or 'full'")


@functools.lru_cache(maxsize=None)
def _slot_readers(m: int, n: int) -> tuple:
    """Per slot, per element index a: a function that reads, from a flat
    table, the tuple of values with a in that slot, over every context of
    the other slots in product order.  Its places, built once per (m, n) in
    n*m^n steps, have digit a at stride s = m^(n-1-slot), the digit rule of
    `derive_divisions`: b + lo, for b in range(a*s, m^n, m*s) and lo < s."""
    strides = [m ** (n - 1 - slot) for slot in range(n)]
    places = [[tuple(b + lo for b in range(a * s, m**n, m * s) for lo in range(s)) for a in range(m)] for s in strides]
    if m ** (n - 1) == 1:  # one place per row: itemgetter would return the value, not a 1-tuple
        return tuple(tuple((lambda flat, p=p: (flat[p],)) for (p,) in per) for per in places)
    return tuple(tuple(operator.itemgetter(*ps) for ps in per) for per in places)


def _slot_rows(alg: FiniteAlgebra, scope: str) -> tuple:
    """The one-slot maps of the scope's tables over carrier indices, built
    once per algebra and scope.  One entry per (table, slot); entry[a] is
    the tuple of value indices with element a in that slot, over every
    context of the other slots in product order, cut out of the flat table
    by `_slot_readers`."""
    rows = alg._memo.get(("rows", scope))
    if rows is None:
        tables = (alg.flat_f,) if scope == "f" else (alg.flat_f, *alg.flat_g)
        readers = _slot_readers(alg.order, alg.n)
        rows = alg._memo[("rows", scope)] = tuple(tuple([read(f) for read in per]) for f in tables for per in readers)
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


def _closure(alg: FiniteAlgebra, scope: str, pairs) -> tuple:
    """Congruence closure on an integer union-find over carrier indices.

    Merges the given index pairs from singletons; a pair that joined two
    classes is pending until its images under the one-slot maps are merged
    too.  Merges until the classes form the least scope-congruence
    containing the pairs, and returns each index's class label, the least
    index of its class.  One slot at a time suffices: transitivity chains
    cover full tuples.  The closure stops once one class is left, counted
    from the merges, since the full relation is a congruence."""
    maps = _slot_rows(alg, scope)
    parent = list(range(alg.order))
    pending = [pair for pair in pairs if _union(parent, *pair)]
    classes = len(parent) - len(pending)
    while pending and classes > 1:
        a, b = pending.pop()
        for rows in maps:
            for x, y in zip(rows[a], rows[b]):
                if _union(parent, x, y):
                    pending.append((x, y))
                    classes -= 1
    return tuple(_find(parent, a) for a in range(len(parent)))


def enumerate_congruences(alg: FiniteAlgebra, scope="full") -> list:
    """All scope-congruences of the carrier, fewest blocks first, as a
    fresh list on every call.

    Every congruence is the join of the principal congruences Cg(a, b) of
    its pairs, and a join of congruences is their join as equivalence
    relations.  For n >= 2 every principal congruence is some Cg(0, b),
    index 0 being the first element.  Given c != d, let u be the unique
    element with f(c, u, 0, .., 0) = 0 and t(x) = f(x, u, 0, .., 0).
    Then t is a unary polynomial of f and a bijection of the finite
    carrier, so t^-1 = t^(k-1), for the order k of t, is one too; a
    congruence relating c and d relates t(c) and t(d), and back.  So
    Cg(c, d) = Cg(t(c), t(d)) = Cg(0, t(d)), in both scopes, since t uses
    f alone.  For n = 1 this fails: on the identity permutation of order
    3, Cg(1, 2) is no Cg(0, b).  So the pairs (0, b) are closed when
    n >= 2, and every pair when n = 1, each once, and the lattice is built
    in one pass over the distinct principal congruences: the k-th, Cg(a, b),
    is joined by union-find merges, with no further closure, into each
    congruence found so far that does not relate a and b.  By induction
    the found set then holds every join of the first k, since a
    congruence that relates a and b contains Cg(a, b).  The lattice
    depends only on the algebra and the scope, so it is computed once per
    algebra and scope and kept beside the slot rows.

    The work is capped by `CONGRUENCE_CAP` = Bell(8) = 4140, the most
    congruences a carrier of order 8 or less can have (every partition is
    one for the identity permutation of order 8), so no lattice of such an
    order is refused.  `CarrierTooLargeError` is raised before any closure
    when more pairs than the cap would be closed (m - 1 when n >= 2,
    m(m - 1)/2 when n = 1), and after the joins of a principal congruence
    once more congruences than the cap are found.  The pair count is
    needed for n = 1: a cyclic permutation has only the congruences of the
    divisors of m, yet closing its m(m - 1)/2 pairs takes time cubic in m."""
    check_scope(scope)
    lattice = alg._memo.get(("congruences", scope))
    if lattice is None:
        lattice = alg._memo[("congruences", scope)] = _congruence_lattice(alg, scope)
    return list(lattice)


def _congruence_lattice(alg: FiniteAlgebra, scope: str) -> tuple:
    """The uncached work of `enumerate_congruences`."""
    m = alg.order
    closures = m - 1 if alg.n > 1 else m * (m - 1) // 2
    if closures > CONGRUENCE_CAP:
        raise CarrierTooLargeError("congruence lattice exceeded cap %d: %d pairs to close" % (CONGRUENCE_CAP, closures))
    principal = {}  # labels of Cg(a, b) -> one generating pair (a, b)
    pairs = [(0, b) for b in range(1, m)] if alg.n > 1 else itertools.combinations(range(m), 2)
    for a, b in pairs:
        principal.setdefault(_closure(alg, scope, [(a, b)]), (a, b))
    found = {tuple(range(m))}
    for other, (a, b) in principal.items():
        moved = [(x, y) for x, y in enumerate(other) if x != y]  # a join with Cg(a, b) merges these
        for labels in [labels for labels in found if labels[a] != labels[b]]:
            parent = list(labels)
            for x, y in moved:
                _union(parent, x, y)
            found.add(tuple(_find(parent, x) for x in range(m)))
        if len(found) > CONGRUENCE_CAP:
            raise CarrierTooLargeError("congruence lattice exceeded cap %d: %d congruences found" % (CONGRUENCE_CAP, len(found)))
    out = [Congruence(alg.carrier, labels) for labels in found]
    out.sort(key=lambda c: (len(c.blocks), c.blocks))  # by names, not indices
    return tuple(out)


def generated_congruence(alg: FiniteAlgebra, seed_pairs, scope="full") -> Congruence:
    """Least scope-congruence containing the seed pairs of element names,
    each resolved to its index pair and checked, then closed."""
    check_scope(scope)
    pairs = []
    for a, b in seed_pairs:
        if a not in alg._index or b not in alg._index:
            raise AlgebraError("seed pair (%r, %r) is not in the carrier" % (a, b))
        pairs.append((alg._index[a], alg._index[b]))
    return Congruence(alg.carrier, _closure(alg, scope, pairs))


# ---------------------------------------------------------------------------
# embeddings


class Embedding:
    """An injective homomorphism between algebras of the same n and kind;
    the constructor raises `InvalidAlgebraError` for any other map."""

    def __init__(self, source: FiniteAlgebra, target: FiniteAlgebra, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        bad = validate_embedding(self)
        if bad:
            raise InvalidAlgebraError("invalid embedding: %s" % bad)

    def __call__(self, element: str) -> str:
        return self.mapping[element]

    def __repr__(self) -> str:
        return "Embedding(%s -> %s, %r)" % (self.source.name, self.target.name, self.mapping)


def validate_embedding(emb: Embedding) -> Violation | None:
    """The first failure, or None.  Preserving f preserves each g_i: b =
    g_i(a) solves f(..b..) = a_i in slot i, so m(b) solves it at m(a).  The
    loop identity is checked, as it need not be unique once n >= 3."""
    src, tgt, m = emb.source, emb.target, emb.mapping
    if src.n != tgt.n or src.kind != tgt.kind:
        return Violation("shape", (), "source and target differ in n or kind")
    if set(m) != set(src.carrier):
        return Violation("totality", (), "map domain is not the source carrier")
    if any(v not in tgt._index for v in m.values()):
        return Violation("codomain", (), "map image leaves the target carrier")
    if len(set(m.values())) != len(m):
        return Violation("injectivity", (), "map identifies distinct elements")
    emb.image = image = tuple(tgt._index[m[a]] for a in src.carrier)  # the target index of each source index
    places, width = [0], tgt.order  # the target place of each source argument tuple, in product order
    for _ in range(src.n):
        places = [q * width + y for q in places for y in image]
    for p, (value, q) in enumerate(zip(src.flat_f, places)):
        if image[value] != tgt.flat_f[q]:
            return Violation("preserve-f", _key(src.carrier, src.n, p), "f is not preserved")
    if src.kind == "loop" and m[src.identity] != tgt.identity:
        return Violation("preserve-identity", (src.identity,), "identity is not preserved")
    return None


def extend(cong: Congruence, emb: Embedding) -> Congruence:
    """The least f-congruence (so also full, see `codescent.check_cep`) of
    the target relating the images of each source index and its label."""
    if cong.carrier != emb.source.carrier:
        raise AlgebraError("congruence is not on the carrier of the source %s" % emb.source.name)
    pairs = [(emb.image[x], emb.image[label]) for x, label in enumerate(cong.labels) if label != x]
    return Congruence(emb.target.carrier, _closure(emb.target, "f", pairs))


def restrict(cong: Congruence, emb: Embedding) -> Congruence:
    """Pull a target congruence back along an embedding, reading its labels at the image indices."""
    if cong.carrier != emb.target.carrier:
        raise AlgebraError("congruence is not on the carrier of the target %s" % emb.target.name)
    image = (cong.labels[y] for y in emb.image)
    first = {}  # target label -> the least source index reading it: the canonical source label
    return Congruence(emb.source.carrier, tuple(first.setdefault(label, x) for x, label in enumerate(image)))


# ---------------------------------------------------------------------------
# file format and convenience constructors


def _nest_table(alg, flat):
    level = [alg.carrier[v] for v in flat]
    for _ in range(alg.n):
        level = [level[k : k + alg.order] for k in range(0, len(level), alg.order)]
    return level[0]


def _flatten_table(n, carrier, nested, opname) -> list:
    """A nested JSON table as value indices in product order; a name outside
    the carrier is kept, for the constructor's range check to name."""
    index = {a: i for i, a in enumerate(carrier)}
    flat = []

    def walk(level, depth):
        if depth == n:
            if not isinstance(level, str):
                raise AlgebraError("%s table entry %r is not an element name" % (opname, level))
            flat.append(index.get(level, level))
            return
        if not isinstance(level, list) or len(level) != len(carrier):
            raise AlgebraError("%s table is not a %d-deep array over the carrier" % (opname, n))
        for sub in level:
            walk(sub, depth + 1)

    walk(nested, 0)
    return flat


def algebra_to_json(alg: FiniteAlgebra) -> dict:
    obj = {
        "name": alg.name,
        "n": alg.n,
        "kind": alg.kind,
        "carrier": list(alg.carrier),
        "f": _nest_table(alg, alg.flat_f),
        "g": [_nest_table(alg, flat) for flat in alg.flat_g],
    }
    if alg.identity is not None:
        obj["e"] = alg.identity
    return obj


def algebra_from_json(obj) -> FiniteAlgebra:
    if isinstance(obj, str):
        import json

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
    if not isinstance(name, str):
        raise AlgebraError("name must be a string, got %r" % (name,))
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
    """Build f from the value index `func` gives each argument index tuple (0-based)."""
    _check_positive("n", n)
    carrier = tuple(carrier)
    flat = [func(*ix) for ix in itertools.product(range(len(carrier)), repeat=n)]
    return FiniteAlgebra(name, n, kind, carrier, flat, identity=identity)


def cyclic_loop(order: int, n: int = 2, name=None) -> FiniteAlgebra:
    """The n-loop on {0..order-1} with f = sum mod order and identity 0."""
    _check_positive("order", order)
    carrier = [str(i) for i in range(order)]
    return algebra_from_function(name or "Z%d" % order, n, "loop", carrier, lambda *ix: sum(ix) % order, identity="0")


def permutation_quasigroup(perm, name=None) -> FiniteAlgebra:
    """The 1-quasigroup given by a permutation (list of 0-based images)."""
    order = len(perm)
    if sorted(perm) != list(range(order)):
        raise AlgebraError("not a permutation: %r" % (perm,))
    return FiniteAlgebra(name or "perm%d" % order, 1, "quasigroup", [str(i) for i in range(order)], perm)
