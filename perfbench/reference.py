"""Reference results for every job kind, computed by routes other than the
one the job exercises.

* Family counts (growth) are re-derived from the families' documented class
  and predicate sizes: the universe is split into the element types that a
  quantifier-free formula cannot tell apart, and an independent formula
  evaluator decides each type on one representative.
* Enumeration counts (enumerate) use the same evaluator on a structure the
  benchmark materializes itself, by brute force.
* Oracle jobs are checked against ``abelian.brute_count``, against
  enumeration over the vector space with the benchmark's own field
  arithmetic, against the benchmark's own word evaluator, and by
  recomputing measures with ``Fraction`` sums.

Each ``check_*`` function returns None when the output is right and a
one-line reason otherwise.  Post-processing that has no second route (the
growth verdicts of ``dimension.delta_compare``) is taken from the library
and pinned by the output digest of the default seed instead.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, product

NEG_INF = float("-inf")

# ---------------------------------------------------------------------------
# Families, re-derived from their definitions


def class_sizes(family_id, n):
    if family_id == "earlyexample":
        return [i * i for i in range(1, n + 1)]
    if family_id == "stablenonattainability":
        return [n ** i for i in range(1, n + 1)]
    if family_id == "findelta":
        return [n ** i for i in range(1, n + 1) for _ in range(n)]
    if family_id == "rank2classes":
        return [n] * n + [n * n]
    raise ValueError(f"not an equivalence family: {family_id}")


def pred_sizes(n):
    """convsupersimple: |P_i| = n^(n-i) inside a universe of n^n."""
    return [n ** (n - i) for i in range(1, n + 1)]


def selector_class(family_id, selector, n):
    """Index of the class whose first element the named selector picks."""
    kind, _, num = selector.rpartition("-")
    if family_id == "stablenonattainability" and kind == "class-rank":
        return n - int(num) - 1          # the class of size n^(n-t)
    if family_id == "earlyexample":
        return n - 1 if selector == "largest-class" else int(num) - 1
    if family_id == "findelta" and kind == "class-level":
        return (int(num) - 1) * n        # first class of size n^i
    if family_id == "rank2classes":
        return n if selector == "big-class" else 0
    raise ValueError(f"unknown selector {family_id}/{selector}")


# ---------------------------------------------------------------------------
# An evaluator of the formula AST, independent of pfdim.counting


def compile_formula(phi, holds, sizes):
    """Closure env -> bool for ``phi``; ``holds(rel, tuple)`` decides atoms
    and ``sizes[sort]`` bounds quantifiers.  Terms are variables only."""
    kind = type(phi).__name__
    if kind == "Rel":
        names = [a.name for a in phi.args]
        rel = phi.name
        return lambda env: holds(rel, tuple(env[v] for v in names))
    if kind == "Eq":
        a, b = phi.left.name, phi.right.name
        return lambda env: env[a] == env[b]
    if kind == "Not":
        body = compile_formula(phi.body, holds, sizes)
        return lambda env: not body(env)
    if kind in ("And", "Or", "Implies"):
        left = compile_formula(phi.left, holds, sizes)
        right = compile_formula(phi.right, holds, sizes)
        if kind == "And":
            return lambda env: left(env) and right(env)
        if kind == "Or":
            return lambda env: left(env) or right(env)
        return lambda env: (not left(env)) or right(env)
    if kind in ("Exists", "Forall"):
        body = compile_formula(phi.body, holds, sizes)
        var, size = phi.var, sizes[phi.sort]
        pick = any if kind == "Exists" else all

        def quantified(env):
            inner = dict(env)

            def at(v):
                inner[var] = v
                return body(inner)
            return pick(at(v) for v in range(size))
        return quantified
    raise ValueError(f"unsupported node {kind}")


def _parse(text, family_id, n):
    from pfdim.families import family_signature, get_family
    from pfdim.parser import parse_formula
    return parse_formula(text, family_signature(get_family(family_id), n))


def type_count(family_id, n, formulas):
    """Exact number of x satisfying every (formula, selector) pair at once.

    Each formula's free 'y' is bound to the first element of its selector's
    class (a selector may also be given as that class's index); the
    universe is cut into element types (each parameter element, the rest
    of each referenced class, everything else) that no quantifier-free
    formula in x can separate."""
    if family_id == "convsupersimple":
        sizes = [n ** n] + pred_sizes(n) + [0]
        reps = [(lv, sizes[lv] - sizes[lv + 1]) for lv in range(n + 1)]
        compiled = [compile_formula(_parse(f, family_id, n),
                                    lambda rel, t: t[0] >= int(rel[1:]), {})
                    for f, _ in formulas]
        return sum(w for lv, w in reps
                   if w and all(c({"x": lv}) for c in compiled))
    csizes = class_sizes(family_id, n)
    formulas = [(f, selector_class(family_id, s, n) if isinstance(s, str) else s)
                for f, s in formulas]
    params = sorted({ci for _, ci in formulas if ci is not None})
    # element = (class, is_param_element); class -1 is every other class
    reps = [((ci, True), 1) for ci in params]
    reps += [((ci, False), csizes[ci] - 1) for ci in params]
    reps.append(((-1, False), sum(csizes) - sum(csizes[ci] for ci in params)))

    def holds(_rel, t):
        return t[0][0] == t[1][0]

    checks = []
    for text, ci in formulas:
        env0 = {} if ci is None else {"y": (ci, True)}
        checks.append((compile_formula(_parse(text, family_id, n), holds, {}),
                       env0))
    return sum(w for elem, w in reps
               if w and all(c({**env0, "x": elem}) for c, env0 in checks))


def _log(c):
    return math.log(c) if c else NEG_INF


def _json_float(v):
    return "-inf" if v == NEG_INF else ("inf" if v == float("inf") else v)


# ---------------------------------------------------------------------------
# growth


def _sequence(family_id, formula, selector, indices):
    from pfdim.counting import CardinalitySequence, Count
    return CardinalitySequence(
        family_id, formula, selector,
        tuple((n, Count(type_count(family_id, n, [(formula, selector)])))
              for n in indices))


def expect_growth(spec):
    kind = spec["kind"]
    fam = spec["family"]
    if kind == "family":
        c = type_count(fam, spec["index"], [(spec["formula"], spec["selector"])])
        return {"familyId": fam, "index": spec["index"],
                "formula": spec["formula"], "selector": spec["selector"],
                "count": str(c)}
    if kind == "dim-compare":
        from pfdim.dimension import delta_compare
        X = _sequence(fam, spec["formula_x"], spec["selector_x"], spec["indices"])
        Y = _sequence(fam, spec["formula_y"], spec["selector_y"], spec["indices"])
        return delta_compare(X, Y, tau=spec["tau"]).to_json_dict()
    if kind == "chain":
        from pfdim.dimension import delta_compare
        from pfdim.counting import CardinalitySequence, Count
        steps, indices = spec["steps"], spec["indices"]
        counts = [[type_count(fam, n, steps[:i]) for n in indices]
                  for i in range(1, len(steps) + 1)]
        verdicts = []
        for i in range(len(steps) - 1):
            a, b = (CardinalitySequence(fam, steps[j][0], steps[j][1],
                                        tuple(zip(indices, map(Count, counts[j]))))
                    for j in (i, i + 1))
            verdicts.append(delta_compare(a, b, spec["tau"]).classification)
        drop = 1
        for i, v in enumerate(verdicts):
            if v != "greater" or not all(counts[i + 1]):
                break
            drop += 1
        return {"steps": [{"formula": f, "selector": s} for f, s in steps],
                "indices": indices,
                "logCounts": [[_json_float(_log(c)) for c in row]
                              for row in counts],
                "verdicts": verdicts, "dropLength": drop, "tau": spec["tau"]}
    if kind == "spectrum":
        rows, clusters = [], []
        for n in spec["indices"]:
            # the count depends only on the size of y's class
            sizes = class_sizes(fam, n)
            logs = sorted({_log(type_count(fam, n, [(spec["formula"],
                                                     sizes.index(size))]))
                           for size in set(sizes)})
            rows.append([_json_float(v) for v in logs])
            clusters.append(1 + sum(1 for a, b in zip(logs, logs[1:])
                                    if b - a > spec["gamma"]) if logs else 0)
        return {"familyId": fam, "formula": spec["formula"],
                "indices": spec["indices"], "logCounts": rows,
                "clusterCounts": clusters, "gamma": spec["gamma"],
                "unbounded": len(clusters) >= 2 and all(
                    b > a for a, b in zip(clusters, clusters[1:]))}
    if kind == "mu_D_sequence":
        out = []
        for n in spec["indices"]:
            d = (spec["d_formula"], spec["d_selector"])
            x = (spec["x_formula"], spec["x_selector"])
            out.append(str(Fraction(type_count(fam, n, [x, d]),
                                    type_count(fam, n, [d]))))
        return out
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# enumerate


def brute_count(phi, holds, size, fixed, counted):
    f = compile_formula(phi, holds, {"S": size})
    env = dict(fixed)
    total = 0
    for values in product(range(size), repeat=len(counted)):
        env.update(zip(counted, values))
        total += f(env)
    return total


def expect_enumerate(spec, workdir):
    from pfdim.logic import free_variables, make_signature
    from pfdim.parser import parse_formula
    if spec["kind"] == "count":
        with open(f"{workdir}/{spec['structure']}") as fh:
            data = json.load(fh)
        table = {tuple(t) for t in data["relations"][0]["tuples"]}
        phi = parse_formula(spec["formula"], make_signature(
            ["S"], relations=[("E", ("S", "S"))]))
        c = brute_count(phi, lambda _r, t: t in table, data["sorts"][0]["size"],
                        spec["fixed"], spec["count_vars"])
        return {"count": str(c)}
    fam, n = spec["family"], spec["index"]
    phi = _parse(spec["formula"], fam, n)
    fixed = {}
    if fam == "convsupersimple":
        psizes = pred_sizes(n)
        size = n ** n

        def holds(rel, t):
            return t[0] < psizes[int(rel[1:]) - 1]
    else:
        csizes = class_sizes(fam, n)
        size = sum(csizes)
        cls = [ci for ci, s in enumerate(csizes) for _ in range(s)]

        def holds(_rel, t):
            return cls[t[0]] == cls[t[1]]
        if spec["selector"]:
            ci = selector_class(fam, spec["selector"], n)
            fixed = {"y": sum(csizes[:ci])}
    counted = [v for v, _ in free_variables(phi) if v not in fixed]
    c = brute_count(phi, holds, size, fixed, counted)
    return {"familyId": fam, "index": n, "formula": spec["formula"],
            "selector": spec["selector"], "count": str(c)}


# ---------------------------------------------------------------------------
# oracles


DEDEKIND = (2, 3, 6, 20, 168)   # downward-closed families on t atoms


def valuation(k, p):
    """Exponent of p in k (0 for k = 0)."""
    v = 0
    while k and k % p == 0:
        k //= p
        v += 1
    return v


def check_abelian(spec, out):
    from pfdim.abelian import brute_count as abelian_brute
    from pfdim.abelian import parse_standard_conjunction
    p, n, m = spec["p"], spec["n"], spec["m"]
    atoms = parse_standard_conjunction(spec["formula"], 1, spec["s"])
    params = [tuple(c) for c in spec["params"]]
    if not spec["symbolic"] or spec["params"] or spec["s"] == 0:
        # the CLI evaluates a count (the fired case, when symbolic)
        if out.get("count") != str(abelian_brute(atoms, params, p, n, m).value):
            return "count differs from brute force"
    if not spec["symbolic"]:
        return None if set(out) == {"count"} else "unexpected output fields"
    d = spec["d"] or max([1] + [a.level for a in atoms if a.kind == "div"]
                         + [valuation(abs(c), p) for a in atoms
                            for c in a.term.x_coeffs + a.term.y_coeffs if c])
    negs = sum(a.negated for a in atoms)
    if len(out["cases"]) != (2 * d + 3) * DEDEKIND[negs]:
        return "catalog size differs from regimes x Dedekind number"
    return None


_GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


class Field:
    """GF(q) for q in {2, 3, 4, 5}; GF(4) = GF(2)[a]/(a^2 + a + 1) with
    element b0 + 2*b1 standing for b0 + b1*a."""

    def __init__(self, q):
        self.q = q
        if q == 4:
            self.add = lambda a, b: a ^ b
            self.mul = lambda a, b: _GF4_MUL[a][b]
        else:
            self.add = lambda a, b: (a + b) % q
            self.mul = lambda a, b: (a * b) % q


def _decode(v, q, dim):
    return tuple(v // q ** i % q for i in range(dim))


def _extend(F, span, v):
    return {tuple(F.add(a, F.mul(c, b)) for a, b in zip(s, v))
            for s in span for c in range(F.q)}


def _span(F, vecs, dim):
    span = {(0,) * dim}
    for v in vecs:
        span = _extend(F, span, v)
    return span


def _independent(F, vecs, dim):
    """Each vector lies outside the span of the ones before it."""
    span = {(0,) * dim}
    for v in vecs:
        if v in span:
            return False
        span = _extend(F, span, v)
    return True


def _poly_value(poly, V, Fq):
    return sum(Fraction(t["coeff"]["num"], t["coeff"]["den"]) * V ** t["vPow"]
               * Fq ** t["fPow"] for t in poly["terms"])


def check_vspace(spec, out, workdir):
    q, dim = spec["q"], spec["dim"]
    F = Field(q)
    space = [_decode(v, q, dim) for v in range(q ** dim)]
    if spec["coset_spec"]:
        with open(f"{workdir}/{spec['coset_spec']}") as fh:
            cs = json.load(fh)

        def members(c):
            point = tuple(c["point"])
            return {tuple(F.add(a, b) for a, b in zip(point, s))
                    for s in _span(F, [tuple(r) for r in c.get("rows", [])], dim)}
        inc = [members(c) for c in cs["include"]]
        exc = [members(c) for c in cs["exclude"]]
        want = sum(1 for u in space if all(u in s for s in inc)
                   and not any(u in s for s in exc))
    else:
        w = [space[i] for i in spec["w"]]
        wp = [space[i] for i in spec["wprime"]]
        want = sum(1 for u in space if _independent(
            F, [tuple(F.add(a, b) for a, b in zip(u, wi)) for wi in w] + wp, dim))
        parts = out["firstDisjunct"]["count"], out["secondDisjunct"]["count"]
        if int(parts[0]) + int(parts[1]) != want:
            return "disjunct counts do not add up to the enumerated count"
    if out["count"] != str(want):
        return f"count {out['count']} differs from enumeration {want}"
    if _poly_value(out["poly"], q ** dim, q) != want:
        return "polynomial does not evaluate to the count"
    return None


def _eval_word(w, G, args):
    kind = type(w).__name__
    if kind == "WVar":
        return args[w.index - 1]
    if kind == "WInv":
        return G.inv[_eval_word(w.body, G, args)]
    if kind == "WMul":
        return G.mul[_eval_word(w.left, G, args)][_eval_word(w.right, G, args)]
    return 0


def _arity(w):
    kind = type(w).__name__
    if kind == "WVar":
        return w.index
    if kind == "WInv":
        return _arity(w.body)
    if kind == "WMul":
        return max(_arity(w.left), _arity(w.right))
    return 0


def expect_word_image(spec):
    from pfdim.groups import builtin_group, parse_word
    G = builtin_group(spec["group"])
    w = parse_word(spec["word"])
    image = sorted({_eval_word(w, G, a)
                    for a in product(range(G.n), repeat=_arity(w))})
    step = {G.mul[a][b] for a in image for b in image}
    full = {G.mul[a][b] for a in step for b in image}
    missing = sorted(set(range(G.n)) - full)
    return {"group": spec["group"], "word": spec["word"],
            "imageSize": len(image), "image": image,
            "tripleProductCovers": not missing, "missing": missing}


def _frac(f):
    return f"{f.numerator}/{f.denominator}"


def _measure_of(weights, atoms):
    return sum((weights[a] for a in atoms), Fraction(0))


def expect_measure(spec, workdir):
    with open(f"{workdir}/{spec['space']}") as fh:
        data = json.load(fh)
    weights = [Fraction(w) for w in data["weights"]]
    events = [frozenset(e) for e in data["events"]]
    if spec["kind"] == "measure-kcap":
        k = spec["k"]
        eps = min(min(_measure_of(weights, e) for e in events), Fraction(1, 2))
        bound = eps ** (3 ** (k - 1))
        for combo in combinations(range(len(events)), k):
            val = _measure_of(weights, frozenset.intersection(
                *[events[i] for i in combo]))
            if val >= bound:
                return {"indices": list(combo), "measure": _frac(val),
                        "bound": _frac(bound)}
        return {"exhausted": True}
    eps = Fraction(spec["eps"])
    bound = eps ** 3
    for i, j in combinations(range(len(events)), 2):
        val = _measure_of(weights, events[i] & events[j])
        if val >= bound:
            return {"pair": [i, j], "measure": _frac(val), "bound": _frac(bound)}
    return {"exhausted": True}


# ---------------------------------------------------------------------------


def check(spec, code, stdout, workdir):
    """None when the job's output is right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    kind = spec["kind"]
    if kind == "abelian-count":
        return check_abelian(spec, out)
    if kind == "vs-count":
        return check_vspace(spec, out, workdir)
    if kind == "word-image":
        want = expect_word_image(spec)
    elif kind in ("measure-kcap", "pairwise-check"):
        want = expect_measure(spec, workdir)
    elif spec.get("route") == "enumerate":
        want = expect_enumerate(spec, workdir)
    else:
        want = expect_growth(spec)
    return None if out == want else "output differs from the reference"
