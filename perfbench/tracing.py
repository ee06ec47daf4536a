"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of every pfdim module,
and every alias another module imported it under (``families.engine_count``,
``cli.engine_count``, ``dimension.aggregate_count``, ``parser.sort_check``,
...), with a wrapper that records a span: name, start, end, parent span and
job id, kept in memory.  ``uninstall`` puts the originals back.  Nothing
under ``src/`` changes.

A span's self time is its length minus the time its child spans cover.
The per-element helpers in ``SKIP`` cost less than a wrapper would add, so
they stay unwrapped and their time counts towards their caller.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import types
from collections import Counter, defaultdict
from math import comb

MODULES = ("cli", "parser", "logic", "families", "counting", "dimension",
           "measure", "abelian", "vspace", "gf", "groups")

SKIP = frozenset({"counting.eval_term", "counting.evaluate", "gf.vec_add",
                  "gf.vec_scale", "gf.vec_decode", "gf.vec_encode",
                  "measure.mu", "groups.eval_word"})


def _has_quantifier(phi):
    kind = type(phi).__name__
    if kind in ("Exists", "Forall"):
        return True
    if kind == "Not":
        return _has_quantifier(phi.body)
    if kind in ("And", "Or", "Implies"):
        return _has_quantifier(phi.left) or _has_quantifier(phi.right)
    return False


def _lex_rank(combo, n):
    """Position of a sorted k-combination of range(n) in lexicographic order."""
    k = len(combo)
    rank, prev = 0, -1
    for i, c in enumerate(combo):
        for j in range(prev + 1, c):
            rank += comb(n - j - 1, k - i - 1)
        prev = c
    return rank


# Counters derived from a call's arguments and result: (span, args, kwargs,
# result, originals) -> {counter: increment}.

def _count_hook(span, args, kwargs, result, orig):
    phi, M = args[0], args[1]
    counted = args[3] if len(args) > 3 else kwargs["counted_vars"]
    sorts = dict(orig["logic.free_variables"](phi))
    work = 1
    for v in counted:
        work *= M.sizes[sorts[v]]
    kind = "quant" if _has_quantifier(phi) else "qf"
    return {f"counting.count.{kind}.assignments": work,
            f"counting.count.{kind}.busy_s": span[2] - span[1]}


def _find_k_hook(span, args, kwargs, result, orig):
    if result is None:
        return {}
    return {"measure.find_k_intersection.subsets_visited":
            _lex_rank(result.indices, len(args[1])) + 1}


HOOKS = {
    "families.aggregate_count": lambda s, a, kw, r, o: {
        "families.aggregate_count.hits": r is not None},
    "families.generate": lambda s, a, kw, r, o: {
        "families.generate.elements": sum(r.sizes.values()),
        "families.generate.relation_entries": sum(
            len(t) for t in r.relations.values())},
    "counting.count": _count_hook,
    "abelian.symbolic_count": lambda s, a, kw, r, o: {
        "abelian.symbolic_count.cases": len(r)},
    "groups.word_image": lambda s, a, kw, r, o: {
        "groups.word_image.evaluations":
            a[1].n ** o["groups.word_arity"](a[0])},
    "measure.find_k_intersection": _find_k_hook,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self.counters = Counter()
        self.job = None
        self._local = threading.local()
        self._patches = []
        self.originals = {}

    def install(self):
        mods = [importlib.import_module("pfdim")]
        mods += [importlib.import_module(f"pfdim.{m}") for m in MODULES]
        by_id = {}
        for short, mod in zip(MODULES, mods[1:]):
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self.originals[f"{short}.{name}"] = obj
                    if f"{short}.{name}" not in SKIP:
                        by_id[id(obj)] = (f"{short}.{name}", obj)
        wrappers = {key: self._wrap(q, fn) for key, (q, fn) in by_id.items()}
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in by_id and by_id[id(obj)][1] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self):
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, local, hook, tracer = self.spans, self._local, HOOKS.get(name), self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                tracer.counters.update(hook(span, args, kwargs, result,
                                            tracer.originals))
            return result

        return traced

    def totals(self):
        """(calls, self seconds) per function name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for (name, start, end, _parent, _job), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s


# ---------------------------------------------------------------------------
# The per-layer metrics, in BENCHMARK.json order.  Each is (name, unit,
# better); calls and counters are per pass, times are seconds per pass.

CALLS_AND_SELF = (
    "families.family_count", "families.aggregate_count",
    "families.family_summary", "families.spectrum_logcounts",
    "families.generate", "families.make_vector_space", "counting.count",
    "parser.parse_formula", "measure.find_k_intersection",
    "measure.pairwise_threshold_check", "abelian.exact_count",
    "abelian.brute_count", "abelian.symbolic_count", "abelian.symbolic_value",
    "vspace.count_theta_case", "vspace.count_coset_difference",
    "gf.make_field", "gf.rank", "gf.solve_affine", "groups.builtin_group",
    "groups.word_image", "groups.triple_product_covers")
SELF_ONLY = ("cli.main", "cli.build_parser", "logic.sort_check",
             "logic.load_structure", "dimension.delta_compare",
             "dimension.chain_detect", "dimension.fmv_spectrum",
             "measure.mu_D_sequence")
COUNTS = ("families.generate.elements", "families.generate.relation_entries",
          "counting.count.qf.assignments", "counting.count.quant.assignments",
          "measure.find_k_intersection.subsets_visited",
          "abelian.symbolic_count.cases", "groups.word_image.evaluations")


def per_layer_spec():
    spec = [("cli.main.calls", "count", "lower")]
    for f in CALLS_AND_SELF:
        spec += [(f"{f}.calls", "count", "lower"), (f"{f}.self_s", "s", "lower")]
    spec += [(f"{f}.self_s", "s", "lower") for f in SELF_ONLY]
    spec += [(c, "count", "lower") for c in COUNTS]
    spec += [("parser.parse_formula.per_job", "count", "lower"),
             ("families.aggregate_count.hit_ratio", "ratio", "higher"),
             ("counting.count.qf.assignments_per_s", "1/s", "higher"),
             ("counting.count.quant.assignments_per_s", "1/s", "higher"),
             ("trace.jobs", "count", "higher"),
             ("trace.overhead", "ratio", "lower"),
             ("selftest.layer_separation", "count", "higher")]
    return spec


def layer_separation(workload, calls, counters):
    """The designed split of work between layers, as a list of breaches."""
    bad = []
    if workload in ("growth", "oracles") and calls["counting.count"]:
        bad.append("counting.count is called")
    agg = calls["families.aggregate_count"]
    if workload == "growth" and counters["families.aggregate_count.hits"] != agg:
        bad.append("families.aggregate_count declined")
    if workload in ("growth", "enumerate"):
        for name, n in calls.items():
            if n and name.split(".")[0] in ("abelian", "vspace", "groups"):
                bad.append(f"{name} is called")
    return bad


def layer_metrics(workload, tracer, passes, jobs, overhead):
    calls, self_s = tracer.totals()
    c = tracer.counters
    values = {"cli.main.calls": calls["cli.main"] / passes}
    for f in CALLS_AND_SELF:
        values[f"{f}.calls"] = calls[f] / passes
    for f in CALLS_AND_SELF + SELF_ONLY:
        values[f"{f}.self_s"] = self_s[f] / passes
    for name in COUNTS:
        values[name] = c[name] / passes
    agg = calls["families.aggregate_count"]
    values["parser.parse_formula.per_job"] = (calls["parser.parse_formula"]
                                              / (jobs * passes))
    values["families.aggregate_count.hit_ratio"] = (
        c["families.aggregate_count.hits"] / agg if agg else 0.0)
    for kind in ("qf", "quant"):
        busy = c[f"counting.count.{kind}.busy_s"]
        values[f"counting.count.{kind}.assignments_per_s"] = (
            c[f"counting.count.{kind}.assignments"] / busy if busy else 0.0)
    values["trace.jobs"] = jobs
    values["trace.overhead"] = overhead
    breaches = layer_separation(workload, calls, c)
    values["selftest.layer_separation"] = 0 if breaches else 1
    return values, breaches
