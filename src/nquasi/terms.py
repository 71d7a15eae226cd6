"""First-order terms over a signature: positions, substitution, matching
and syntactic unification.

A term is an immutable tree.  Leaves are variables (`Var`) or, in amalgam
contexts, elements of finite algebras (`Elem`); inner nodes apply a
signature symbol to argument terms (`App`, constants being zero-argument
applications).  An element leaf is a rigid constant: substitution fixes
it, matching and unification pair it only with itself or a variable.  The
concrete syntax used throughout the package is `name` for a leaf,
`sym(t1,...,tk)` for an application and bare `sym` for a constant;
whitespace is insignificant and `#` starts a comment running to the end of
the line.  Any identifier that is not a declared symbol parses as a
variable, which keeps the symbol and variable namespaces disjoint.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping


# the frozen classes store their fields through this in `__init__`; bound
# once, it saves an attribute lookup per field on every construction
_setattr = object.__setattr__


class _Frozen:
    """Refuses to assign or delete a field after `__init__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class _Record:
    """Equality and repr over the fields named in `_fields`: equal only to
    an instance of its own class with equal fields, in order, and
    unhashable unless a subclass defines `__hash__`."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (self.__class__.__qualname__, fields)


class _FrozenRecord(_Frozen, _Record):
    """A `_Record` whose fields are set once, in `__init__`, and hashed as
    their tuple; `__init__` takes the fields in order."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()


class _Leaf(_Frozen):
    """A named leaf, equal only to a leaf of its own class and name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _setattr(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))

    def __reduce__(self):
        return self.__class__, (self.name,)

    def __repr__(self) -> str:
        return "%s(name=%r)" % (self.__class__.__name__, self.name)

    def __str__(self) -> str:
        return self.name


class Var(_Leaf):
    """A variable leaf."""

    __slots__ = ()


class Elem(_Leaf):
    """An element leaf: a rigid constant naming an element of a finite algebra."""

    __slots__ = ()


class App(_Frozen):
    """A signature symbol applied to a tuple of argument terms; a constant
    has no arguments.

    Equality and hashing are those of the field tuple (symbol, args), so
    sets and dicts of terms keep one iteration order for given inputs."""

    __slots__ = ("symbol", "args")

    def __init__(self, symbol: str, args: tuple = ()):
        _setattr(self, "symbol", symbol)
        _setattr(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is App:
            return self.symbol == other.symbol and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.symbol, self.args))

    def __reduce__(self):
        return App, (self.symbol, self.args)

    def __repr__(self) -> str:
        return "App(symbol=%r, args=%r)" % (self.symbol, self.args)

    def __str__(self) -> str:
        # the open argument iterators on an explicit stack, so that a term
        # of any depth prints without recursion
        if not self.args:
            return self.symbol
        parts = [self.symbol, "("]
        stack = [iter(self.args)]
        while stack:
            for t in stack[-1]:
                if t.__class__ is App and t.args:
                    parts.append(t.symbol)
                    parts.append("(")
                    stack.append(iter(t.args))
                    break
                parts.append(t.symbol if t.__class__ is App else t.name)
                parts.append(",")
            else:  # the arguments are done: close over the last one's comma
                parts[-1] = ")"
                parts.append(",")
                stack.pop()
        parts.pop()
        return "".join(parts)


Term = Var | Elem | App
Position = tuple
Substitution = dict

_IDENT_RE = re.compile(r"[A-Za-z0-9_.@]+")


class Signature:
    """Finite map from operation-symbol names to arities (>= 0)."""

    def __init__(self, symbols):
        arities = dict(symbols)
        for name, arity in arities.items():
            if type(name) is not str or not _IDENT_RE.fullmatch(name):
                raise ValueError("bad symbol name: %s" % _cut(name))
            if type(arity) is not int or arity < 0:
                raise ValueError("bad arity for %s: %r" % (name, arity))
        self._arities = arities

    def arity(self, name: str) -> int:
        return self._arities[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    @property
    def symbols(self) -> Mapping[str, int]:
        return dict(self._arities)

    def constants(self) -> list:
        return [s for s, k in self._arities.items() if k == 0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self._arities == other._arities

    def __repr__(self) -> str:
        inner = " ".join("%s/%d" % (s, k) for s, k in self._arities.items())
        return "Signature(%s)" % inner


def size(t: Term) -> int:
    """Number of nodes in the term tree."""
    if isinstance(t, App):
        total = 1
        stack = list(t.args)
        while stack:
            u = stack.pop()
            total += 1
            if isinstance(u, App):
                stack.extend(u.args)
        return total
    return 1


def variables(*terms: Term) -> set:
    """Set of variable names occurring in the given terms."""
    out = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, App):
            stack.extend(t.args)
    return out


def iter_variables(*terms: Term) -> Iterator[str]:
    """Variable names of the terms in pre-order, left to right, with repeats."""
    stack = list(reversed(terms))
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            yield u.name
        elif isinstance(u, App):
            stack.extend(reversed(u.args))


def subterm_at(t: Term, pos: Position) -> Term:
    """Subterm at a position (sequence of 1-based child indices)."""
    for i in pos:
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            raise IndexError("position %r invalid for %s" % (pos, t))
        t = t.args[i - 1]
    return t


def replace_at(t: Term, pos: Position, s: Term) -> Term:
    """Copy of t with the subterm at pos replaced by s."""
    if not pos:
        return s
    i = pos[0]
    if not isinstance(t, App) or not 1 <= i <= len(t.args):
        raise IndexError("position %r invalid for %s" % (pos, t))
    args = list(t.args)
    args[i - 1] = replace_at(args[i - 1], pos[1:], s)
    return App(t.symbol, tuple(args))


def positions(t: Term) -> Iterator[tuple]:
    """(position, subterm) pairs in pre-order (root first), from an explicit stack."""
    stack = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos, u
        if isinstance(u, App):
            i = len(u.args)
            for a in reversed(u.args):  # the first argument ends on top
                stack.append((pos + (i,), a))
                i -= 1


def apply_substitution(sigma: Substitution, t: Term) -> Term:
    """Homomorphic extension of sigma; fixes Elem leaves and unbound variables."""
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    if isinstance(t, App) and t.args:
        return App(t.symbol, tuple([apply_substitution(sigma, a) for a in t.args]))
    return t


def occurs(name: str, t: Term, bindings: Substitution = {}) -> bool:
    """Whether the variable `name` occurs in t, reading each variable bound
    in `bindings` (which is not changed) as its value."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            if u.name == name:
                return True
            bound = bindings.get(u.name)
            if bound is not None:
                stack.append(bound)
        elif isinstance(u, App):
            stack.extend(u.args)
    return False


def match(pattern: Term, subject: Term) -> Substitution | None:
    """One-sided matching: sigma with sigma(pattern) == subject, or None.

    An Elem leaf is a rigid constant: in the pattern it matches only the
    identical Elem, and a pattern variable may bind to one in the subject.
    """
    bindings = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = bindings.get(p.name)
            if bound is None:
                bindings[p.name] = s
            elif bound != s:
                return None
        elif isinstance(p, App):
            if not isinstance(s, App) or p.symbol != s.symbol or len(p.args) != len(s.args):
                return None
            stack.extend(zip(p.args, s.args))
        else:  # Elem
            if p != s:
                return None
    return bindings


def unify(s: Term, t: Term) -> Substitution | None:
    """Most general unifier of s and t, or None if they do not unify.

    The result is idempotent with domain inside Var(s, t); occurs-check
    failures and symbol clashes both report no unifier.  An Elem leaf is a
    rigid constant: it unifies with itself or with a variable, and clashes
    with any other Elem or application.

    The bindings stay triangular while solving: a value may contain
    variables bound before or after it.  A popped pair is walked through
    the bindings at its roots only, and the occurs check reads through
    them.  At the end the bindings are applied to their own values until
    no bound variable is left.  The unifier and the order of its bindings
    are those of applying every binding to each pair as it is popped.
    """
    sub: Substitution = {}
    work = [(s, t)]
    while work:
        a, b = work.pop()
        while isinstance(a, Var) and a.name in sub:
            a = sub[a.name]
        while isinstance(b, Var) and b.name in sub:
            b = sub[b.name]
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a  # the variable to bind goes on the left
        if isinstance(a, Var):
            if isinstance(b, Var):
                if a.name == b.name:
                    continue
            elif occurs(a.name, b, sub):
                return None
            sub[a.name] = b
        elif isinstance(a, App):
            if not isinstance(b, App) or a.symbol != b.symbol or len(a.args) != len(b.args):
                return None
            work.extend(zip(a.args, b.args))  # equal sides are not tested: their pairs bind nothing
        elif a != b:
            return None
    while not variables(*sub.values()).isdisjoint(sub):
        sub = {name: apply_substitution(sub, value) for name, value in sub.items()}
    return sub


def _check_bound(name, value) -> None:
    """Refuse a count or bound that is not an integer of at least 0, bools included."""
    if type(value) is not int or value < 0:
        raise ValueError("%s must be a nonnegative integer, got %r" % (name, value))


def fresh_names(prefix: str, count: int, taken) -> list:
    """The first `count` of prefix1, prefix2, ... not in `taken` (a set of
    names or a Signature); every name the package invents comes from here."""
    _check_bound("count", count)
    names = []
    i = 0
    while len(names) < count:
        i += 1
        name = "%s%d" % (prefix, i)
        if name not in taken:
            names.append(name)
    return names


def rename_apart(fixed, movable) -> Substitution:
    """Variable renaming for `movable` making its variables disjoint from
    those of `fixed`.

    The clashing variables, in first-occurrence order, get the first fresh
    names v1, v2, ... used on neither side; the other variables of
    `movable` are kept, so already-disjoint inputs get the identity renaming.
    """
    taken = variables(*fixed)
    movable_vars = _first_occurrences(movable)
    clashing = [name for name in movable_vars if name in taken]
    return dict(zip(clashing, map(Var, fresh_names("v", len(clashing), taken.union(movable_vars)))))


def canonical_renaming(terms, taken=()) -> Substitution:
    """Renaming to v1, v2, ... in left-to-right first-occurrence order,
    skipping the names in `taken` (a set of names or a Signature)."""
    names = _first_occurrences(terms)
    return dict(zip(names, map(Var, fresh_names("v", len(names), taken))))


def _first_occurrences(terms) -> list:
    """Variable names of the terms, each once, in left-to-right order: the
    walk of `iter_variables`, inlined, as it names every critical pair."""
    seen = {}  # a name met again keeps its first place
    stack = list(reversed(terms))
    while stack:
        u = stack.pop()
        if u.__class__ is App:
            stack.extend(reversed(u.args))
        elif u.__class__ is Var:
            seen[u.name] = None
    return list(seen)


def check_well_formed(sig: Signature, t: Term) -> None:
    """Raise ValueError unless every App node uses a declared symbol with
    the right number of arguments."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App):
            if u.symbol not in sig:
                raise ValueError("undeclared symbol %r in %s" % (u.symbol, t))
            if sig.arity(u.symbol) != len(u.args):
                raise ValueError(
                    "symbol %s expects %d arguments, got %d in %s"
                    % (u.symbol, sig.arity(u.symbol), len(u.args), t)
                )
            stack.extend(u.args)


class ParseError(ValueError):
    pass


def strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


# a token of a term: punctuation, an identifier or, in group 1, any other
# non-space character, which is an error
_TOKEN_RE = re.compile(r"[(),]|%s|(\S)" % _IDENT_RE.pattern)


_QUOTED_IN_FULL = 200  # the longest input, and repr of a part of it, a ParseError quotes whole


def _cut(value) -> str:
    """`repr(value)`, or past _QUOTED_IN_FULL characters its first 60,
    "..." and value's length: a long input gives a one-line message."""
    shown = repr(value)
    if len(shown) <= _QUOTED_IN_FULL:
        return shown
    return "%s... (%d %s)" % (shown[:60], len(value), "characters" if isinstance(value, str) else "tokens")


def parse_term(text: str, sig: Signature) -> Term:
    """Parse the concrete term syntax.  Identifiers not in the signature
    become variables; declared symbols must be applied at their arity.

    The whole text is tokenized first, so a bad character is reported
    before any syntax error.  One loop then reads the tokens, keeping each
    application whose `)` is still to come on an explicit stack as
    (symbol, arguments so far), so a term of any depth parses."""
    tokens = []
    for m in _TOKEN_RE.finditer(strip_comments(text)):
        if m.lastindex:
            raise ParseError("unexpected character %r in term" % m[1])
        tokens.append(m[0])
    tokens.append(None)  # the end of the term
    quoted = repr if len(text) <= _QUOTED_IN_FULL else _cut
    stack = []
    i = 0
    while True:  # a term starts at tokens[i]
        name = tokens[i]
        if name is None:
            raise ParseError("unexpected end of term in %s" % quoted(text))
        i += 1
        if name in "(),":
            raise ParseError("unexpected %r in %s" % (name, quoted(text)))
        if tokens[i] == "(":
            if name not in sig:
                raise ParseError("undeclared symbol %s in %s" % (quoted(name), quoted(text)))
            stack.append((name, []))
            i += 1
            continue
        if name not in sig:
            t = Var(name)
        elif sig.arity(name):
            raise ParseError("symbol %s expects %d arguments" % (name, sig.arity(name)))
        else:
            t = App(name)
        while stack:  # t is whole: close each application whose last argument it is
            symbol, args = stack[-1]
            args.append(t)
            tok = tokens[i]
            i += 1
            if tok == ",":
                break
            if tok is None:
                raise ParseError("unexpected end of term in %s" % quoted(text))
            if tok != ")":
                raise ParseError("expected ')', found %s in %s" % (quoted(tok), quoted(text)))
            stack.pop()
            if sig.arity(symbol) != len(args):
                raise ParseError(
                    "symbol %s expects %d arguments, got %d" % (symbol, sig.arity(symbol), len(args))
                )
            t = App(symbol, tuple(args))
        else:  # no application is open: t is the whole term
            if tokens[i] is not None:
                raise ParseError("trailing input %s in %s" % (quoted(tokens[i:-1]), quoted(text)))
            return t


def term_key(t: Term):
    """Total order key: by size, then by rendered text."""
    return size(t), str(t)
