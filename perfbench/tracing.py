"""Per-layer tracing from outside the package.

Each traced function is wrapped once and the wrapper is bound in place of
the original name in the namespace of every module that calls it, for
example ``nquasi.amalgams.match`` and ``nquasi.codescent.check_cep``.
Calls that stay inside ``terms.py`` are therefore not seen, and a wrapper
counts only its outermost call, so a recursive method like ``eval_term``
counts once per evaluation.  Hot leaf calls are folded into counters and
total time; spans with parent ids are kept only for tasks and the phase
functions listed in ``PHASES``.  ``uninstall`` puts every original back
and checks that it did.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (defining module, function, other modules whose namespace holds call
# sites).  Functions of `terms` are not rebound in `terms` itself, so its
# internal recursion is not counted; every other function is also rebound
# in its own module, which catches calls between functions of one layer
# and calls the benchmark makes through the module attribute.
WRAPS = (
    ("terms", "match", ("rewriting", "amalgams")),
    ("terms", "unify", ("rewriting",)),
    ("terms", "apply_substitution", ("rewriting", "amalgams")),
    ("terms", "replace_at", ("rewriting", "amalgams")),
    ("terms", "positions", ("rewriting", "amalgams")),
    ("rewriting", "check_conditions", ("cli",)),
    ("rewriting", "critical_pairs", ("cli",)),
    ("rewriting", "joinable", ()),
    ("rewriting", "reducts", ()),
    ("rewriting", "rewrite_steps", ()),
    ("rewriting", "normalize", ("cli",)),
    ("rewriting", "check_confluence", ("cli",)),
    ("rewriting", "local_confluence_oracle", ()),
    ("rewriting", "complete", ("cli",)),
    ("varieties", "generate_trs", ("amalgams", "cli")),
    ("algebras", "enumerate_congruences", ("codescent",)),
    ("algebras", "generated_congruence", ("codescent",)),
    ("algebras", "restrict", ("codescent",)),
    ("algebras", "validate_embedding", ("codescent", "amalgams", "cli")),
    ("algebras", "derive_divisions", ()),
    ("codescent", "search_noncep_monomorphism", ()),
    ("codescent", "verify_prop_3_6", ()),
    ("codescent", "latin_squares", ()),
    ("codescent", "check_cep", ("cli",)),
    ("codescent", "quasigroup_from_square", ()),
    ("amalgams", "build_amalgam", ("cli",)),
    ("amalgams", "check_unique_normal_forms", ("cli",)),
    ("amalgams", "check_strong_amalgamation", ("cli",)),
    ("amalgams", "normalize_element", ("cli",)),
    ("amalgams", "apply_op", ()),
    ("amalgams", "reduct_graph", ()),
    ("amalgams", "amalgam_steps", ()),
)

# Methods of FiniteAlgebra, patched on the class: metric key -> attribute.
METHODS = {"algebras.FiniteAlgebra": "__init__", "algebras.eval_term": "eval_term"}

# Generators: `positions` is only counted; `latin_squares` is timed item by
# item, so its time is charged to it and not to the caller's self time.
COUNT_ONLY = {"terms.positions"}
ITEMIZED = {"codescent.latin_squares"}

PHASES = {
    "rewriting.check_confluence",
    "rewriting.critical_pairs",
    "rewriting.complete",
    "rewriting.local_confluence_oracle",
    "varieties.generate_trs",
    "codescent.search_noncep_monomorphism",
    "codescent.verify_prop_3_6",
    "codescent.check_cep",
    "amalgams.build_amalgam",
    "amalgams.check_unique_normal_forms",
    "amalgams.check_strong_amalgamation",
}


_DONE = object()


def _bound(owner, attribute):
    """What `attribute` names in a module, or in a class's own namespace."""
    return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)


def bell(m: int) -> int:
    """Number of set partitions of an m-element set."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


class Tracer:
    """Counters, inclusive and self time per wrapped function, and spans."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.spans = []  # [id, parent id, name, start, end]
        self.diagrams = []  # AmalgamDiagrams built while installed
        self._frames = []  # child time of each open wrapped call
        self._open_spans = []
        self._patches = []  # (owner, attribute, original)
        self._t0 = perf_counter()

    # -- spans -----------------------------------------------------------

    def _span_open(self, name):
        span_id = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append([span_id, parent, name, perf_counter() - self._t0, None])
        self._open_spans.append(span_id)
        return span_id

    def _span_close(self, span_id):
        self._open_spans.pop()
        self.spans[span_id][4] = perf_counter() - self._t0

    def task(self, name, fn):
        """Run one benchmark task inside a task span; returns fn()."""
        span_id = self._span_open("task:" + name)
        self._frames.append([0.0])
        try:
            return fn()
        finally:
            self._frames.pop()
            self._span_close(span_id)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": self.spans}, handle)

    # -- wrappers --------------------------------------------------------

    def _wrap_call(self, key, fn):
        stats = self.stats[key]
        frames = self._frames
        depth = [0]
        span = key in PHASES
        before, after = _HOOKS.get(key, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            if before is not None:
                before(stats, args)
            depth[0] = 1
            frame = [0.0]
            frames.append(frame)
            span_id = tracer._span_open(key) if span else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                if span:
                    tracer._span_close(span_id)
                frames.pop()
                depth[0] = 0
                stats["calls"] += 1
                stats["s"] += elapsed
                stats["self_s"] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
            if after is not None:
                after(tracer, stats, args, result)
            return result

        return wrapper

    def _wrap_count(self, key, fn):
        stats = self.stats[key]

        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_items(self, key, fn):
        stats = self.stats[key]
        frames = self._frames

        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                item = next(inner, _DONE)
                elapsed = perf_counter() - t0
                stats["s"] += elapsed
                if frames:
                    frames[-1][0] += elapsed
                if item is _DONE:
                    return
                stats["items"] += 1
                yield item

        return wrapper

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, _bound(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self, nq):
        """Bind wrappers into the freshly imported modules of `nq`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, name, callers in WRAPS:
            key = "%s.%s" % (layer, name)
            fn = getattr(getattr(nq, layer), name)
            if key in COUNT_ONLY:
                wrapper = self._wrap_count(key, fn)
            elif key in ITEMIZED:
                wrapper = self._wrap_items(key, fn)
            else:
                wrapper = self._wrap_call(key, fn)
            sites = callers if layer == "terms" else (layer,) + callers
            for module in sites:
                self._patch(getattr(nq, module), name, wrapper)
        cls = nq.algebras.FiniteAlgebra
        for key, attribute in METHODS.items():
            self._patch(cls, attribute, self._wrap_call(key, cls.__dict__[attribute]))

    def uninstall(self):
        """Restore every original binding and check that each is back."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        for owner, attribute, original in self._patches:
            if _bound(owner, attribute) is not original:
                raise RuntimeError("%s.%s was not restored" % (owner.__name__, attribute))
        self._patches = []


# -- per-function extras: (before(stats, args), after(tracer, stats, args, result))


def _pairs(tracer, stats, args, result):
    stats["pairs"] += len(result)
    stats["trivial"] += sum(1 for cp in result if cp.trivial)


def _joined(tracer, stats, args, result):
    stats["joined"] += 1 if result[0] else 0


def _sized(tracer, stats, args, result):
    stats["terms"] += len(result)
    stats["max"] = max(stats["max"], len(result))


def _peaks(tracer, stats, args, result):
    stats["peaks"] += result.peaks_checked


def _rounds(tracer, stats, args, result):
    stats["rounds"] += result.rounds


def _congruences(tracer, stats, args, result):
    stats["found"] += len(result)
    stats["tried"] += bell(len(args[0].carrier))


def _scan(tracer, stats, args, result):
    found, info = result
    if found is None:
        stats["embeddings"] += info["embeddings"]


def _square(tracer, stats, args, result):
    # search_noncep_monomorphism names the algebra of a whole square "Q<m>"
    # and only builds it when the square has a proper subquasigroup.
    name = args[1] if len(args) > 1 else ""
    if str(name).startswith("Q"):
        stats["useful"] += 1


def _diagram(tracer, stats, args, result):
    tracer.diagrams.append(result)


def _cache_probe(stats, args):
    cache = getattr(args[0], "_step_cache", None)
    if cache is not None and args[1] in cache:
        stats["hits"] += 1


_HOOKS = {
    "rewriting.critical_pairs": (None, _pairs),
    "rewriting.joinable": (None, _joined),
    "rewriting.reducts": (None, _sized),
    "rewriting.local_confluence_oracle": (None, _peaks),
    "rewriting.complete": (None, _rounds),
    "algebras.enumerate_congruences": (None, _congruences),
    "codescent.search_noncep_monomorphism": (None, _scan),
    "codescent.quasigroup_from_square": (None, _square),
    "amalgams.build_amalgam": (None, _diagram),
    "amalgams.reduct_graph": (None, _sized),
    "amalgams.amalgam_steps": (_cache_probe, None),
}


# -- the declared per-layer metrics -------------------------------------


def _stat(key, stat, unit="count", better="lower"):
    return (key + "." + stat, unit, better, lambda S: S[key][stat])


def _ratio(name, key, part, whole_key, whole, better="higher"):
    return (name, "ratio", better, lambda S: S[key][part] / S[whole_key][whole] if S[whole_key][whole] else 0.0)


def _calls_s(*keys):
    return [m for key in keys for m in (_stat(key, "calls"), _stat(key, "s", "s"))]


PER_LAYER = (
    _calls_s("terms.match", "terms.unify", "terms.apply_substitution", "terms.replace_at")
    + [_stat("terms.positions", "calls")]
    + _calls_s("rewriting.check_conditions", "rewriting.critical_pairs")
    + [
        _stat("rewriting.critical_pairs", "pairs"),
        _ratio("rewriting.critical_pairs.trivial_frac", "rewriting.critical_pairs", "trivial", "rewriting.critical_pairs", "pairs"),
    ]
    + _calls_s("rewriting.joinable")
    + [_ratio("rewriting.joinable.joined_frac", "rewriting.joinable", "joined", "rewriting.joinable", "calls")]
    + _calls_s("rewriting.reducts")
    + [_stat("rewriting.reducts", "terms"), _stat("rewriting.reducts", "max")]
    + _calls_s("rewriting.rewrite_steps", "rewriting.normalize")
    + [
        _stat("rewriting.local_confluence_oracle", "s", "s"),
        _stat("rewriting.local_confluence_oracle", "peaks"),
        _stat("rewriting.complete", "s", "s"),
        _stat("rewriting.complete", "rounds"),
    ]
    + _calls_s("varieties.generate_trs", "algebras.enumerate_congruences")
    + [
        _ratio(
            "algebras.enumerate_congruences.hit_frac",
            "algebras.enumerate_congruences", "found", "algebras.enumerate_congruences", "tried",
        )
    ]  # fmt: skip
    + _calls_s(
        "algebras.generated_congruence",
        "algebras.restrict",
        "algebras.validate_embedding",
        "algebras.derive_divisions",
        "algebras.FiniteAlgebra",
        "algebras.eval_term",
    )
    + [
        _stat("codescent.search_noncep_monomorphism", "s", "s"),
        _stat("codescent.search_noncep_monomorphism", "self_s", "s"),
        _stat("codescent.latin_squares", "items"),
        _stat("codescent.latin_squares", "s", "s"),
        _ratio("codescent.useful_square_frac", "codescent.quasigroup_from_square", "useful", "codescent.latin_squares", "items"),
    ]
    + _calls_s("codescent.check_cep", "codescent.quasigroup_from_square")
    + [("codescent.embeddings", "count", "lower", lambda S: S["codescent.search_noncep_monomorphism"]["embeddings"])]
    + _calls_s(
        "amalgams.build_amalgam",
        "amalgams.check_unique_normal_forms",
        "amalgams.check_strong_amalgamation",
        "amalgams.normalize_element",
        "amalgams.reduct_graph",
    )
    + [
        _stat("amalgams.reduct_graph", "terms"),
        _stat("amalgams.reduct_graph", "max"),
        _stat("amalgams.amalgam_steps", "calls"),
        _ratio("amalgams.step_cache.hit_frac", "amalgams.amalgam_steps", "hits", "amalgams.amalgam_steps", "calls"),
        _stat("amalgams.step_cache", "entries"),
        ("cli.import_ms", "ms", "lower", lambda S: S["cli"]["import_ms"]),
    ]
    + [_stat("cli.main." + sub, "ms", "ms") for sub in ("gen-trs", "check", "normalize", "complete", "amalgam", "codescent")]
    + [
        _ratio("cli.startup_frac", "cli", "startup_ms", "cli", "subprocess_ms", better="lower"),
        ("cli.contract_breaks", "count", "lower", lambda S: S["cli"]["contract_breaks"]),
        ("trace.overhead_s", "s", "lower", lambda S: S["trace"]["overhead_s"]),
    ]
)


def layer_values(tracer: Tracer) -> dict:
    """Every declared per-layer metric: name -> value (0 when idle)."""
    stats = tracer.stats
    stats["amalgams.step_cache"]["entries"] = sum(
        len(getattr(d, "_step_cache", ())) for d in tracer.diagrams
    )
    return {name: float(get(stats)) for name, _unit, _better, get in PER_LAYER}
