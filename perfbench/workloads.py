"""Seeded job generators for the three workloads.

A workload is a list of *passes*; every pass has the same mix of job kinds
(and, for the heavy kinds, the same sizes), drawn with fresh random
parameters, so a pass costs about the same for every seed.  The runner
measures whole passes only.  Each job is one user-level request: an argv
list for ``pfdim.cli.main`` or one call of a public function that has no
subcommand.  The program sees only that argv and the input files written
here (structures, coset specs, measure spaces); the ``spec`` half of a job
stays with the benchmark and tells ``reference.py`` what the answer is.

Warm-up jobs come from a fixed seed, so set-up time does not depend on
``--seed``.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

from reference import valuation

WORKLOADS = ("growth", "enumerate", "oracles")
PASSES = 4             # distinct passes; a longer run repeats them in order,
                       # so the reference check stays short next to the run
WARMUP_SEED = "warm-up"
TAU = math.log(100.0)  # the CLI defaults, echoed in the outputs
GAMMA = 0.2

EQUIV = ("earlyexample", "stablenonattainability", "findelta", "rank2classes")


class Builder:
    def __init__(self, workdir, rng, tag):
        self.workdir = workdir
        self.rng = rng
        self.tag = tag
        self.jobs = []

    def add(self, spec, argv=None, call=None):
        job = {"id": f"{self.tag}-{len(self.jobs)}", "spec": spec}
        if argv is not None:
            job["argv"] = argv
        else:
            job["call"] = call
        self.jobs.append(job)

    def write(self, stem, payload):
        name = f"{self.tag}-{len(self.jobs)}-{stem}.json"
        with open(f"{self.workdir}/{name}", "w") as fh:
            json.dump(payload, fh)
        return name


# ---------------------------------------------------------------------------
# random formulas


def qf(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    op = rng.choice(("&", "|", "->", "!"))
    if op == "!":
        return f"!({qf(rng, atoms, depth - 1)})"
    return f"({qf(rng, atoms, depth - 1)} {op} {qf(rng, atoms, depth - 1)})"


def qf_with(rng, atoms, depth, must):
    while True:
        text = qf(rng, atoms, depth)
        if all(v in text for v in must):
            return text


XY_ATOMS = ("E(x, y)", "E(y, x)", "x = y", "E(x, x)", "!(x = y)")


def equiv_formula(rng):
    """Quantifier-free, counted x, parameter y."""
    return qf_with(rng, XY_ATOMS, 3, "xy")


def pred_formula(rng, top):
    return qf_with(rng, [f"P{i}(x)" for i in range(1, top + 1)] + ["x = x"],
                   3, "P")


def selectors(family, n):
    if family == "stablenonattainability":
        return [f"class-rank-{t}" for t in range(1, min(8, n - 1) + 1)]
    if family == "earlyexample":
        return [f"class-{i}" for i in range(1, min(8, n) + 1)] + ["largest-class"]
    if family == "findelta":
        return [f"class-level-{i}" for i in range(1, min(8, n) + 1)]
    return ["big-class", "small-class"]


def indices(rng, lo, hi, k):
    """k sorted indices, one drawn from each of k equal bins of [lo, hi],
    so the cost of a job barely depends on the draw."""
    width = (hi - lo + 1) / k
    return [lo + int(i * width) + rng.randrange(max(1, int(width)))
            for i in range(k)]


# ---------------------------------------------------------------------------
# growth: the paper's pipeline through the block route


def growth_pass(b, block):
    """One block: every family, every equivalence family for each kind,
    with the heavy sizes fixed and the indices stratified over [8, 64]."""
    rng = b.rng
    for k, fam in enumerate(EQUIV + ("convsupersimple",)):
        n = 8 + (block * 5 + k) * 13 % 57
        if fam == "convsupersimple":
            formula, sel = pred_formula(rng, 8), None
        else:
            formula, sel = equiv_formula(rng), rng.choice(selectors(fam, 8))
        argv = ["family", "--name", fam, "--index", str(n), "--formula", formula]
        if sel:
            argv += ["--selector", sel]
        b.add({"kind": "family", "family": fam, "index": n,
               "formula": formula, "selector": sel}, argv)
    for fam in EQUIV:
        idx = indices(rng, 8, 40 if fam == "findelta" else 64, 6)
        fx, fy = equiv_formula(rng), equiv_formula(rng)
        sx, sy = rng.sample(selectors(fam, 8), 2)
        b.add({"kind": "dim-compare", "family": fam, "indices": idx,
               "formula_x": fx, "selector_x": sx, "formula_y": fy,
               "selector_y": sy, "tau": TAU},
              ["dim-compare", "--family", fam, "--formula-x", fx,
               "--selector-x", sx, "--formula-y", fy, "--selector-y", sy,
               "--indices", ",".join(map(str, idx))])
    for fam in ("convsupersimple", "stablenonattainability", "earlyexample"):
        idx = indices(rng, 8, 64, 5)
        if fam == "convsupersimple":
            steps = [[f"P{lv}(x)", None]
                     for lv in sorted(rng.sample(range(1, 9), 4))]
        else:
            steps = [[equiv_formula(rng), s]
                     for s in rng.sample(selectors(fam, 8), 3)]
        argv = ["chain", "--family", fam, "--indices", ",".join(map(str, idx))]
        for f, s in steps:
            argv += ["--step", f if s is None else f"{f}@{s}"]
        b.add({"kind": "chain", "family": fam, "indices": idx, "steps": steps,
               "tau": TAU}, argv)
    # spectra: light ones, then findelta, the heavy tail
    for fam, idx in ((EQUIV[block % 2], indices(rng, 8, 32, 3)),
                     ("rank2classes", indices(rng, 8, 64, 3)),
                     ("findelta", [8, 12]), ("findelta", [8, 16]),
                     ("findelta", [12, 16, 20])):
        formula = equiv_formula(rng)
        b.add({"kind": "spectrum", "family": fam, "formula": formula,
               "indices": idx, "gamma": GAMMA},
              ["spectrum", "--family", fam, "--formula", formula,
               "--indices", ",".join(map(str, idx))])
    for fam in EQUIV:
        sd, sx = rng.sample(selectors(fam, 8), 2)
        d = f"({equiv_formula(rng)}) | x = y"   # y itself keeps D nonempty
        x = equiv_formula(rng)
        idx = indices(rng, 8, 32 if fam == "findelta" else 64, 5)
        call = {"func": "measure.mu_D_sequence", "family": fam,
                "d_formula": d, "x_formula": x, "indices": idx,
                "d_selector": sd, "x_selector": sx}
        b.add({"kind": "mu_D_sequence", **call}, call=call)


# ---------------------------------------------------------------------------
# enumerate: materialize and enumerate


def quant_formula(rng):
    """A two-step path or a neighbourhood inclusion through z, decorated:
    on sparse relations the quantifier usually scans the whole domain."""
    a = rng.choice(("E(x, z)", "E(z, x)"))
    b = rng.choice(("E(z, y)", "E(y, z)"))
    extra = rng.choice(("", " & !(z = x)", " & !(z = y)", " & !E(z, z)"))
    if rng.random() < 0.5:
        text = f"exists z:S. ({a} & {b}{extra})"
    else:
        text = f"forall z:S. (({a}{extra}) -> {b})"
    if rng.random() < 0.5:
        text = f"({qf(rng, XY_ATOMS, 1)}) {rng.choice('&|')} ({text})"
    return text


def random_structure(rng, n):
    """A sparse random binary relation (density 1/10) on n elements."""
    tuples = [[a, c] for a in range(n) for c in range(n) if rng.random() < 0.1]
    return {"sorts": [{"name": "S", "size": n}],
            "relations": [{"name": "E", "sorts": ["S", "S"], "tuples": tuples}]}


EQ_OR_E = re.compile(r"E\((\w+), (\w+)\)|(\w+) = (\w+)")


def sorts_inferable(text):
    """False when an equality between two variables not seen before comes
    first: sort_check then leaves the right-hand one unsorted, and the
    engine refuses the formula (a known defect; see CHANGES.md)."""
    seen = {"z"}
    for m in EQ_OR_E.finditer(text):
        if m.group(3) and not {m.group(3), m.group(4)} & seen:
            return False
        seen.update(g for g in m.groups() if g)
    return True


def has_free(text, *names):
    return all(re.search(rf"\b{v}\b", text) for v in names)


def engine_formula(rng, quantified):
    """Counted x and y (or x with y fixed) for the enumeration engine."""
    while True:
        text = quant_formula(rng) if quantified else qf(rng, XY_ATOMS, 3)
        if has_free(text, "x", "y") and sorts_inferable(text):
            return text


# (shape, size range) of the count jobs: "qf2" and "q1" visit n^2
# assignments, "q2" up to n^3 with the quantifier
COUNT_JOBS = (("qf2", 40, 60), ("qf2", 20, 40), ("q1", 40, 60), ("q1", 20, 40),
              ("q2", 34, 38), ("q2", 34, 38), ("q2", 34, 38))


def enumerate_pass(b, block):
    rng = b.rng
    for shape, lo, hi in COUNT_JOBS:
        n = lo + (block * 7 + len(b.jobs)) % (hi - lo + 1)
        name = b.write("structure", random_structure(rng, n))
        formula = engine_formula(rng, shape != "qf2")
        fixed = {"y": rng.randrange(n)} if shape == "q1" else {}
        counted = ["x"] if shape == "q1" else ["x", "y"]
        argv = ["count", "--structure", name, "--formula", formula,
                "--count-vars", ",".join(counted)]
        if fixed:
            argv += ["--fix", f"y={fixed['y']}"]
        b.add({"kind": "count", "route": "enumerate", "structure": name,
               "formula": formula, "fixed": fixed, "count_vars": counted},
              argv)
    # family jobs the block route declines: quantifiers, or two counted vars;
    # indices small enough to materialize
    for fam, n, shape in (("earlyexample", 4 + block % 2, "q"),
                          ("stablenonattainability", 3, "q"),
                          ("findelta", 3, "q"),
                          ("rank2classes", 6 + block % 3, "q"),
                          ("convsupersimple", 3, "q"),
                          (EQUIV[1 + block % 3], 3, "qf2"),
                          ("earlyexample", 5, "qf2")):
        sel = None
        if fam == "convsupersimple":
            formula = ("exists z:S. (" + pred_formula(rng, n).replace("x", "z")
                       + f" & !(x = z) & {pred_formula(rng, n)})")
        else:
            formula = engine_formula(rng, shape == "q")
            if shape == "q":
                sel = rng.choice(selectors(fam, n))
        argv = ["family", "--name", fam, "--index", str(n), "--formula", formula]
        if sel:
            argv += ["--selector", sel]
        b.add({"kind": "family", "route": "enumerate", "family": fam,
               "index": n, "formula": formula, "selector": sel}, argv)


# ---------------------------------------------------------------------------
# oracles: closed forms


def abelian_atom(rng, p, n, s, negated, max_val):
    xs = rng.choice([c for c in range(1, max(2, p ** n))
                     if valuation(c, p) <= max_val])
    parts = [f"{xs}*x1"]
    for j in range(1, s + 1):
        c = rng.choice([0, 1, 2, 3, p + 1])
        if c:
            parts.append(f"{c}*y{j}")
    term = " + ".join(parts)
    if rng.random() < 0.5:
        body = f"{term} = 0"
    else:
        body = f"div({p}^{rng.randint(1, min(n, max_val))}, {term})"
    return ("!" if negated else "") + body


def abelian_job(b, p, n, m, s, negs, symbolic, with_params, d=None):
    rng = b.rng
    atoms = [abelian_atom(rng, p, n, s, i < negs, d or n)
             for i in range(negs + rng.randint(1, 2))]
    rng.shuffle(atoms)
    formula = " & ".join(atoms)
    params = ([[rng.randrange(p ** n) for _ in range(m)] for _ in range(s)]
              if with_params else [])
    argv = ["abelian-count", "--p", str(p), "--n", str(n), "--m", str(m),
            "--r", "1", "--s", str(s), "--formula", formula]
    for c in params:
        argv += ["--param", ",".join(map(str, c))]
    if symbolic:
        argv.append("--symbolic")
    if d:
        argv += ["--d", str(d)]
    b.add({"kind": "abelian-count", "p": p, "n": n, "m": m, "s": s,
           "formula": formula, "params": params, "symbolic": symbolic,
           "d": d}, argv)


def coset(rng, q, dim):
    return {"point": [rng.randrange(q) for _ in range(dim)],
            "rows": [[rng.randrange(q) for _ in range(dim)]
                     for _ in range(rng.randint(0, 2))]}


def measure_space(rng, n_events, k):
    """Sparse events: all but the last k are pairwise disjoint blocks, and
    only the last k share an atom, so the first k-subset meeting the bound
    is the last one in lexicographic order."""
    n_atoms = 3 * n_events + 2
    weights = [rng.randint(1, 9) for _ in range(n_atoms)]
    total = sum(weights)
    atoms = list(range(1, n_atoms))
    rng.shuffle(atoms)
    events = [sorted(atoms[3 * i:3 * i + 3]) for i in range(n_events)]
    for e in events[-k:]:
        e.append(0)
    return {"weights": [str(Fraction(w, total)) for w in weights],
            "events": [sorted(e) for e in events]}


def pairwise_space(rng, eps_den):
    """n_atoms equal atoms, N(eps) events each holding 1/eps_den of them."""
    n_atoms = eps_den * rng.randint(3, 5)
    n_events = math.floor(eps_den ** 2 + Fraction(1, 2))
    events = [sorted(rng.sample(range(n_atoms), n_atoms // eps_den))
              for _ in range(n_events)]
    return {"weights": [f"1/{n_atoms}"] * n_atoms, "events": events}


# (p, n, m) of the exact and symbolic abelian jobs: the group orders fix
# the cost of the brute-force cross-check
ABELIAN_EXACT = ((2, 2, 2), (3, 2, 2), (5, 1, 3), (2, 3, 2), (3, 1, 2),
                 (2, 4, 1), (5, 2, 2), (3, 2, 3), (2, 3, 3), (3, 3, 1))
ABELIAN_SYMBOLIC = ((2, 1, 1), (3, 2, 1), (2, 2, 2), (2, 3, 1), (3, 1, 2),
                    (2, 2, 1))
VS_THETA = ((2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (4, 3), (3, 4), (5, 3),
            (3, 3), (2, 5))
VS_COSET = ((2, 3), (3, 2), (2, 2), (5, 2))
WORDS = ("x*x", "[x,y]", "x*y*x^-1*y", "x*x*x", "(x*y)^-1*x*x", "[x,y]*[y,x]",
         "x*y*y*x")
GROUPS = ("S3", "S4", "A4", "A5", "PSL(2,7)", "C12")


def oracles_pass(b, block):
    """The two named hot spots, the 4-negation catalog (fixed d, so a fixed
    size) and vs-count at q=2, dim=4, come once per pass (block 0): they
    stay below half of the pass time.  Everything else comes every block."""
    rng = b.rng
    for negs, (p, n, m) in zip((0, 1, 2, 3, 4, 0, 1, 2, 3, 4), ABELIAN_EXACT):
        abelian_job(b, p, n, m, rng.randint(0, 2), negs, False, True)
    for negs, (p, n, m) in zip((0, 1, 2, 3, 3, 2), ABELIAN_SYMBOLIC):
        abelian_job(b, p, n, m, 1, negs, True, True)
    if block == 0:
        abelian_job(b, 2, 2, 1, 1, 4, True, False, d=2)
    for q, dim in VS_THETA + (((2, 4),) if block == 0 else ()):
        w = [rng.randrange(q ** dim) for _ in range(rng.randint(1, 2))]
        wp = [rng.randrange(q ** dim) for _ in range(rng.randint(0, 2))]
        b.add({"kind": "vs-count", "q": q, "dim": dim, "w": w, "wprime": wp,
               "coset_spec": None},
              ["vs-count", "--q", str(q), "--dim", str(dim),
               "--w", ",".join(map(str, w)), "--wprime", ",".join(map(str, wp))])
    for q, dim in VS_COSET:
        spec = {"include": [coset(rng, q, dim) for _ in range(rng.randint(1, 2))],
                "exclude": [coset(rng, q, dim) for _ in range(rng.randint(1, 3))]}
        name = b.write("cosets", spec)
        b.add({"kind": "vs-count", "q": q, "dim": dim, "coset_spec": name},
              ["vs-count", "--q", str(q), "--dim", str(dim),
               "--coset-spec", name])
    for group in GROUPS:
        word = rng.choice(WORDS if group != "PSL(2,7)" else WORDS[:3])
        b.add({"kind": "word-image", "group": group, "word": word},
              ["word-image", "--group", group, "--word", word, "--triple"])
    for n_events, k in ((24, 2), (24, 3), (22, 4), (20, 5)):
        name = b.write("space", measure_space(rng, n_events, k))
        b.add({"kind": "measure-kcap", "space": name, "k": k},
              ["measure-kcap", "--space", name, "--k", str(k)])
    for eps_den in (2, 3, 4):
        name = b.write("space", pairwise_space(rng, eps_den))
        b.add({"kind": "pairwise-check", "space": name, "eps": f"1/{eps_den}"},
              ["pairwise-check", "--space", name, "--eps", f"1/{eps_den}"])


PASS_BUILDERS = {"growth": growth_pass, "enumerate": enumerate_pass,
                 "oracles": oracles_pass}
BLOCKS = {"growth": 16, "enumerate": 12, "oracles": 3}


def light(spec):
    """Warm-up jobs exercise every code path but skip the heavy sizes."""
    if spec["kind"] == "abelian-count":
        return not spec["d"]
    if spec["kind"] == "vs-count":
        return spec["q"] ** spec["dim"] <= 9
    return True


def build(workload, seed, workdir):
    """{'warmup': [job], 'passes': [[job]]} with input files in workdir.
    The warm-up is the light part of one block drawn from a fixed seed."""
    warm = Builder(workdir, random.Random(WARMUP_SEED), f"{workload}-w")
    PASS_BUILDERS[workload](warm, 0)
    rng = random.Random(f"{workload}:{seed}")
    passes = []
    for i in range(PASSES):
        b = Builder(workdir, rng, f"{workload}-p{i}")
        for block in range(BLOCKS[workload]):
            PASS_BUILDERS[workload](b, block)
        passes.append(b.jobs)
    return {"warmup": [j for j in warm.jobs if light(j["spec"])],
            "passes": passes}
