"""Acceptance gate: eight end-to-end checks, one pass/fail line each.

Each check records a single verdict line; conftest prints them in the
terminal summary so a full run shows exactly one line per criterion.
"""

import random
from fractions import Fraction

from pfdim.abelian import (AbelianError, LinearTerm, StandardAtom,
                           brute_count, evaluate_poly, exact_count,
                           symbolic_count)
from pfdim.counting import count
from pfdim.dimension import chain_detect, delta_compare, fmv_spectrum
from pfdim.families import count_family, get_family, make_vector_space
from pfdim.gf import rank, vec_add
from pfdim.groups import (builtin_group, parse_word, triple_product_covers,
                          word_image)
from pfdim.logic import (And, Eq, Exists, FiniteStructure, Not, Or, Rel, Var,
                         free_variables, make_signature, sort_check)
from pfdim.measure import (FiniteMeasureSpace, HypothesisError,
                           find_k_intersection, mu, mu_D_sequence,
                           pairwise_threshold, pairwise_threshold_check,
                           truncated_inclusion_exclusion_ok, uniform_space)
from pfdim.parser import ParseDiagnostic, parse_formula, render_formula
from pfdim.vspace import (Coset, ambient_of, count_coset_difference,
                          count_theta_case)


def verdict(number, name, ok):
    import conftest
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    print(line, flush=True)
    conftest.VERDICTS.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared random-case generators

GRID = [(p, n, m) for p in (2, 3) for n in (1, 2, 3) for m in (1, 2)]


def all_single_atoms(p):
    # every standard atom shape with coefficients in [-4, 4], level <= 2
    for a in range(-4, 5):
        for b in range(-4, 5):
            term = LinearTerm((a,), (b,))
            for negated in (False, True):
                yield StandardAtom("eq", term, negated=negated)
                for level in (1, 2):
                    yield StandardAtom("div", term, level=level,
                                       negated=negated, base=p)


def random_atom(rng, p, r=1):
    xc = tuple(rng.randint(-4, 4) for _ in range(r))
    yc = (rng.randint(-4, 4),)
    term = LinearTerm(xc, yc)
    negated = rng.random() < 0.4
    if rng.random() < 0.5:
        return StandardAtom("eq", term, negated=negated)
    base = p if rng.random() < 0.85 else (3 if p == 2 else 2)
    return StandardAtom("div", term, level=rng.randint(1, 2),
                        negated=negated, base=base)


def test_criterion_1_abelian_oracle_equivalence():
    rng = random.Random(20260826)
    mismatches = 0
    checked = 0
    # all single atoms, every grid cell, two random parameter tuples each
    for p, n, m in GRID:
        mod = p ** n
        for atom in all_single_atoms(p):
            for _ in range(2):
                params = [tuple(rng.randrange(mod) for _ in range(m))]
                checked += 1
                if (exact_count([atom], params, p, n, m).value
                        != brute_count([atom], params, p, n, m).value):
                    mismatches += 1
    # seeded sample of conjunctions of 2 and 3 atoms
    for _ in range(1500):
        p, n, m = rng.choice(GRID)
        mod = p ** n
        atoms = [random_atom(rng, p) for _ in range(rng.choice([2, 3]))]
        params = [tuple(rng.randrange(mod) for _ in range(m))]
        checked += 1
        if (exact_count(atoms, params, p, n, m).value
                != brute_count(atoms, params, p, n, m).value):
            mismatches += 1
    verdict(1, "abelian oracle equivalence",
            mismatches == 0 and checked > 10000)


def test_criterion_2_symbolic_catalog_fidelity():
    rng = random.Random(414243)
    cases_checked = 0
    failures = 0
    while cases_checked < 500:
        p, n, m = rng.choice(GRID)
        mod = p ** n
        atoms = [random_atom(rng, p) for _ in range(rng.randint(1, 3))]
        params = [tuple(rng.randrange(mod) for _ in range(m))]
        try:
            catalog = symbolic_count(atoms, 1, p)
        except AbelianError:
            continue
        cases_checked += 1
        firing = [c for c in catalog if c.fires(n, m, params)]
        if len(firing) != 1:
            failures += 1
            continue
        want = brute_count(atoms, params, p, n, m).value
        if evaluate_poly(firing[0].poly, p, m, n).value != want:
            failures += 1
    verdict(2, "symbolic candidate-set fidelity", failures == 0)


def test_criterion_3_vector_space_oracle_equivalence():
    rng = random.Random(515253)
    failures = 0
    for q in (2, 3):
        for dim in (2, 3, 4):
            space = make_vector_space(q, dim)
            amb = ambient_of(space)
            nvec = q ** dim

            def brute_theta(w_ids, wp_ids):
                total = 0
                for u in range(nvec):
                    uvec = amb.decode(u)
                    rows = ([vec_add(amb.F, uvec, amb.decode(i))
                             for i in w_ids]
                            + [amb.decode(i) for i in wp_ids])
                    if rank(amb.F, rows) == len(rows):
                        total += 1
                return total

            # independence atoms: complement-of-span and span-slice disjuncts
            pool = list(range(nvec))
            theta_args = [([], []), ([0], [])]
            theta_args += [([w], []) for w in pool[:6]]
            theta_args += [([w], [wp]) for w in pool[:4] for wp in pool[:4]]
            for _ in range(40):
                w_ids = rng.sample(pool, rng.randint(0, 2))
                wp_ids = rng.sample(pool, rng.randint(0, 2))
                theta_args.append((w_ids, wp_ids))
            for w_ids, wp_ids in theta_args:
                case = count_theta_case(space, w_ids, wp_ids)
                want = brute_theta(w_ids, wp_ids)
                if case.count.value != want:
                    failures += 1
                if case.poly.evaluate_count(nvec, q).value != want:
                    failures += 1
                if (case.first_count.value + case.second_count.value
                        != case.count.value):
                    failures += 1

            # coset differences: up to 2 intersected cosets minus up to 2
            def members(c):
                span = {(0,) * dim}
                grew = True
                while grew:
                    grew = False
                    for v in list(span):
                        for row in c.rows:
                            w = vec_add(amb.F, v, row)
                            if w not in span:
                                span.add(w)
                                grew = True
                return {vec_add(amb.F, c.point, v) for v in span}

            def rand_coset():
                point = tuple(rng.randrange(q) for _ in range(dim))
                rows = tuple(tuple(rng.randrange(q) for _ in range(dim))
                             for _ in range(rng.randint(0, 2)))
                return Coset(point, rows)

            for _ in range(60):
                include = [rand_coset() for _ in range(rng.randint(1, 2))]
                exclude = [rand_coset() for _ in range(rng.randint(0, 2))]
                got = count_coset_difference(space, include, exclude)
                base = set.intersection(*[members(c) for c in include])
                for c in exclude:
                    base -= members(c)
                if got.count.value != len(base):
                    failures += 1
                if got.poly.evaluate_count(nvec, q).value != len(base):
                    failures += 1
    verdict(3, "vector-space oracle equivalence", failures == 0)


def test_criterion_4_growth_rate_examples():
    ok = True
    # (a) adjacent class ranks compare as strictly greater
    fam = get_family("stablenonattainability")
    indices = [8, 16, 32, 64]
    for t in (1, 2):
        X = count_family("E(x, y)", fam, indices, selector=f"class-rank-{t}")
        Y = count_family("E(x, y)", fam, indices,
                         selector=f"class-rank-{t + 1}")
        ok &= delta_compare(X, Y).classification == "greater"
    # (b) nested predicates give a strict drop of length 4
    fam = get_family("convsupersimple")
    report = chain_detect(fam, [(f"P{i}(x)", None) for i in range(1, 5)],
                          [8, 16, 32, 64])
    ok &= report.drop_length == 4
    # (c) class-size spectrum has n clusters at index n, growing unboundedly
    fam = get_family("findelta")
    spec = fmv_spectrum(fam, "E(x, y)", [4, 6, 8])
    ok &= list(spec.cluster_counts) == [4, 6, 8] and spec.unbounded
    # (d) the big class occupies exactly half the universe at every index
    fam = get_family("rank2classes")
    ratios = mu_D_sequence(fam, "E(x, x)", "E(x, y)", [4, 6, 8, 10],
                           x_selector="big-class")
    ok &= ratios == [Fraction(1, 2)] * 4
    verdict(4, "growth-rate example reproduction", ok)


def test_criterion_5_measure_intersection_theorems():
    rng = random.Random(616263)
    failures = 0
    spaces_checked = 0
    while spaces_checked < 1000:
        n = rng.randint(1, 20)
        raw = [rng.randint(1, 10) for _ in range(n)]
        total = sum(raw)
        space = FiniteMeasureSpace(tuple(Fraction(w, total) for w in raw))
        events = [frozenset(a for a in range(n) if rng.random() < 0.5)
                  for _ in range(rng.randint(1, 8))]
        spaces_checked += 1
        if not truncated_inclusion_exclusion_ok(space, events):
            failures += 1
        measures = [mu(space, e) for e in events]
        if min(measures) == 0 or min(measures) > Fraction(1, 2):
            continue
        for k in (1, 2, 3, 4):
            try:
                w = find_k_intersection(space, events, k)
            except HypothesisError:
                continue
            except Exception:
                failures += 1
                continue
            if w is not None and w.measure < w.bound:
                failures += 1
    for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
        parts = eps.denominator
        space = uniform_space(parts)
        events = [frozenset({i % parts})
                  for i in range(pairwise_threshold(eps))]
        try:
            w = pairwise_threshold_check(space, events, eps)
            if w.measure < eps ** 3:
                failures += 1
        except Exception:
            failures += 1
    verdict(5, "measure intersection bounds", failures == 0)


def test_criterion_6_counting_engine_laws():
    sig = make_signature(["S"],
                         relations=[("E", ("S", "S")), ("P", ("S",))])
    rng = random.Random(717273)

    def random_structure(max_size):
        n = rng.randint(1, max_size)
        E = frozenset((a, b) for a in range(n) for b in range(n)
                      if rng.random() < 0.3)
        P = frozenset((a,) for a in range(n) if rng.random() < 0.5)
        return FiniteStructure(signature=sig, sizes={"S": n},
                               relations={"E": E, "P": P},
                               functions={}, constants={})

    def random_formula(depth, allow_quant):
        r = rng.random()
        if depth > 3 or r < 0.4:
            if rng.random() < 0.6:
                return Rel("E", (Var(rng.choice("xy")), Var(rng.choice("xy"))))
            return Rel("P", (Var(rng.choice("xy")),))
        if r < 0.55:
            return Not(random_formula(depth + 1, allow_quant))
        if r < 0.72:
            return And(random_formula(depth + 1, allow_quant),
                       random_formula(depth + 1, allow_quant))
        if r < 0.89 or not allow_quant:
            return Or(random_formula(depth + 1, allow_quant),
                      random_formula(depth + 1, allow_quant))
        return Exists("z", "S", Rel("E", (Var("z"), Var(rng.choice("xy")))))

    def pad_to(phi, names):
        present = {n for n, _ in free_variables(phi)}
        for v in names:
            if v not in present:
                phi = And(phi, Eq(Var(v), Var(v)))
        return phi

    failures = 0
    for trial in range(500):
        big = trial % 25 == 0
        M = random_structure(200 if big else 25)
        n = M.sizes["S"]
        a = random_formula(0, allow_quant=not big)
        b = random_formula(0, allow_quant=not big)
        cv = sorted({nm for nm, _ in free_variables(And(a, b))}) or ["x"]
        a, b = pad_to(a, cv), pad_to(b, cv)
        fa = sort_check(a, sig)
        fb = sort_check(b, sig)
        fand = sort_check(And(a, b), sig)
        for_ = sort_check(Or(a, b), sig)
        fneg = sort_check(Not(a), sig)
        ca, cb, cboth, ceither, cneg = [count(f, M, {}, cv).value
                                        for f in (fa, fb, fand, for_, fneg)]
        if ceither != ca + cb - cboth:
            failures += 1
        if cneg != n ** len(cv) - ca:
            failures += 1
        # disjoint-variable product and Fubini on a fresh pair
        px = sort_check(Rel("P", (Var("x"),)), sig)
        ey = sort_check(Rel("E", (Var("y"), Var("y"))), sig)
        both = sort_check(And(Rel("P", (Var("x"),)),
                              Rel("E", (Var("y"), Var("y")))), sig)
        full = count(both, M, {}, ["x", "y"]).value
        if full != count(px, M, {}, ["x"]).value * count(ey, M, {}, ["y"]).value:
            failures += 1
        if full != sum(count(both, M, {"x": v}, ["y"]).value
                       for v in range(n)):
            failures += 1
    verdict(6, "counting-engine algebraic laws", failures == 0)


def test_criterion_7_word_map_checks():
    ok = True
    A5 = builtin_group("A5")
    squares = word_image(parse_word("x*x"), A5)
    ok &= len(squares) == 45
    covers, missing = triple_product_covers(squares, squares, squares, A5)
    brute = {A5.mul[a][A5.mul[b][c]]
             for a in squares for b in squares for c in squares}
    ok &= covers == (brute == set(range(A5.n)))
    ok &= (missing == []) == covers
    S3 = builtin_group("S3")
    comm = word_image(parse_word("[x,y]"), S3)
    # the commutator image is the unique subgroup of order 3
    ok &= len(comm) == 3 and 0 in comm
    ok &= all(S3.mul[a][b] in comm for a in comm for b in comm)
    verdict(7, "word-map image checks", ok)


def test_criterion_8_parser_robustness():
    sig = make_signature(["S"],
                         relations=[("E", ("S", "S")), ("P", ("S",))],
                         functions=[("f", ("S",), "S")],
                         constants=[("c", "S")])
    rng = random.Random(818283)
    crashes = 0
    for _ in range(100_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 80)))
        text = blob.decode("utf-8", errors="replace")
        try:
            parse_formula(text, sig)
        except ParseDiagnostic:
            pass
        except Exception:
            crashes += 1

    from pfdim.logic import (And as LAnd, App, Const, Eq as LEq, Exists as LEx,
                             Forall, Implies, Not as LNot, Or as LOr)

    def rand_term(depth=0):
        r = rng.random()
        if depth > 2 or r < 0.6:
            return Var(rng.choice("xyz")) if rng.random() < 0.7 else Const("c")
        return App("f", (rand_term(depth + 1),))

    def rand_formula(depth=0):
        r = rng.random()
        if depth > 4 or r < 0.35:
            choice = rng.random()
            if choice < 0.4:
                return Rel("E", (rand_term(), rand_term()))
            if choice < 0.7:
                return Rel("P", (rand_term(),))
            return LEq(rand_term(), rand_term())
        if r < 0.5:
            return LNot(rand_formula(depth + 1))
        if r < 0.65:
            return LAnd(rand_formula(depth + 1), rand_formula(depth + 1))
        if r < 0.8:
            return LOr(rand_formula(depth + 1), rand_formula(depth + 1))
        if r < 0.9:
            return Implies(rand_formula(depth + 1), rand_formula(depth + 1))
        binder = LEx if rng.random() < 0.5 else Forall
        return binder(rng.choice("xyz"), "S", rand_formula(depth + 1))

    roundtrip_failures = 0
    for _ in range(1000):
        phi = rand_formula()
        text = render_formula(phi)
        try:
            if render_formula(parse_formula(text, sig)) != text:
                roundtrip_failures += 1
        except Exception:
            roundtrip_failures += 1
    verdict(8, "parser robustness", crashes == 0 and roundtrip_failures == 0)
