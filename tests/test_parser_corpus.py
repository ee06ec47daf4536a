"""The parser's exact outcomes, pinned.

``data/parser_corpus.json`` holds texts over four signatures (the test
signature of ``test_parser.py``, the equivalence families', that of
``convsupersimple`` at index 8 and the two-sorted vector space) with what
``parse_formula`` made of each: the rendered formula and its free variables
with their sorts, or the error with its message and position (or its
kind).  The texts are well-formed formulas, mutations of them, junk bytes
and hand-made mistakes; the outcomes were written by the three-pass parser
(lexer, raw tree, ``sort_check``) that the one-pass parser replaced, and
they stay the fixed reference.  Running this file writes the corpus again
only when ``PYTHONPATH`` points at a checkout of that parser (commit
7c6263c, the last with ``parser._Lexer``); against any later parser it
refuses, since the outcomes would then pin nothing.

A Hypothesis test checks the same contract on random ASTs: parsing a
rendered formula gives what ``sort_check`` gives for it, or raises the
same sort error.
"""

import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pfdim.families import family_signature, get_family, make_vector_space
from pfdim.logic import (And, App, Eq, Exists, Forall, Implies, Not, Or, Rel,
                         SortError, Var, free_variables, make_signature,
                         sort_check)
from pfdim import parser
from pfdim.parser import ParseDiagnostic, parse_formula, render_formula

CORPUS = Path(__file__).parent / "data" / "parser_corpus.json"

SIGNATURES = {
    "test": make_signature(
        ["S"], relations=[("E", ("S", "S")), ("P", ("S",))],
        functions=[("f", ("S",), "S")], constants=[("c", "S")]),
    "equivalence": family_signature(get_family("findelta"), 8),
    "convsupersimple-8": family_signature(get_family("convsupersimple"), 8),
    "vector-space": make_vector_space(2, 2).signature,
}


def outcome(text, sig):
    """What ``parse_formula`` makes of ``text``, as JSON."""
    try:
        phi = parse_formula(text, sig)
    except ParseDiagnostic as exc:
        return {"error": "ParseDiagnostic", "message": str(exc),
                "offset": exc.offset, "line": exc.line, "column": exc.column}
    except SortError as exc:
        return {"error": "SortError", "message": str(exc), "kind": exc.kind}
    return {"formula": render_formula(phi),
            "free": [list(pair) for pair in free_variables(phi)]}


# ---------------------------------------------------------------------------
# The texts

VARIABLES = ["x", "y", "z", "w", "x1", "y_2"]
SPACES = [" ", " ", " ", "", "  ", "\n", "\t"]
JUNK = ["$", "#", "é", "-", ">", "1", "9x", "*", "'", "\\", " ", "Ω",
        ";", "[", "]", "@"]


def symbols(sig):
    return sorted(sig.relations), sorted(sig.functions), sorted(sig.constants)


def term_text(rng, sig, depth):
    _, functions, constants = symbols(sig)
    roll = rng.random()
    if functions and depth and roll < 0.25:
        name = rng.choice(functions)
        arity = len(sig.functions[name][0])
        if rng.random() < 0.1:
            arity += rng.choice([-1, 1])
        args = [term_text(rng, sig, depth - 1) for _ in range(max(arity, 0))]
        return f"{name}({', '.join(args)})"
    if constants and roll < 0.4:
        return rng.choice(constants)
    return rng.choice(VARIABLES)


def atom_text(rng, sig, depth):
    relations = symbols(sig)[0]
    if relations and rng.random() < 0.6:
        name = rng.choice(relations)
        arity = len(sig.relations[name])
        if rng.random() < 0.08:
            arity += rng.choice([-1, 1])
        args = [term_text(rng, sig, depth) for _ in range(max(arity, 0))]
        return f"{name}({', '.join(args)})"
    return f"{term_text(rng, sig, depth)} = {term_text(rng, sig, depth)}"


def formula_text(rng, sig, depth=3):
    """A formula written the way people write them: minimal or extra
    parentheses, any spacing, sorts right or not."""
    s = rng.choice(SPACES)
    roll = rng.random()
    if not depth or roll < 0.3:
        return atom_text(rng, sig, 2)
    if roll < 0.45:
        return f"!{s}{formula_text(rng, sig, depth - 1)}"
    if roll < 0.55:
        return f"({s}{formula_text(rng, sig, depth - 1)}{s})"
    if roll < 0.7:
        sort = rng.choice(list(sig.sorts) * 4 + ["T", "E", "forall"])
        kind = rng.choice(["forall", "exists"])
        return (f"{kind} {rng.choice(VARIABLES)}:{sort}.{s}"
                f"{formula_text(rng, sig, depth - 1)}")
    op = rng.choice(["&", "|", "->"])
    return (f"{formula_text(rng, sig, depth - 1)}{s}{op}{s}"
            f"{formula_text(rng, sig, depth - 1)}")


def mutated(rng, text):
    """``text`` with one token dropped, doubled, moved or replaced, or cut
    short."""
    tokens = re.findall(r"\w+|->|\S|\s+", text)
    i = rng.randrange(len(tokens))
    roll = rng.random()
    if roll < 0.2:
        del tokens[i]
    elif roll < 0.35:
        tokens.insert(i, tokens[i])
    elif roll < 0.5:
        j = rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif roll < 0.8:
        tokens[i] = rng.choice(JUNK + ["forall", "exists", "(", ")", ",", ".",
                                       ":", "=", "&", "|", "!", "->"])
    else:
        return text[:rng.randrange(len(text) + 1)]
    return "".join(tokens)


def targeted(sig):
    """Texts for each kind of mistake that ``sig`` can make."""
    relations, functions, constants = symbols(sig)
    r = relations[0]
    k = len(sig.relations[r])
    args = ", ".join(VARIABLES[:k])
    texts = [
        f"{r}(xé, y)", f"{r}(x{chr(0x3a9)})", "Ωx = x", f"{r}(x, y)é",
        f"{r}(forall, x)", "exists = x", "x = forall", f"{r}(exists)",
        f"{r}({r}, x)", f"x = {r}", f"{r}(x) = y", f"{r}({r}(x))",
        f"{r}({args}, x)", f"{r}()", f"{r}(x", f"{r}(x,)",
        f"exists z:T. {r}({args})", f"forall z:{r}. {r}({args})",
        f"exists z:. {r}({args})", f"exists :S. {r}({args})",
        f"exists z S. {r}({args})", f"forall forall:S. {r}({args})",
        "x = y", "z = w & x = z", "(x = y) -> x = x",
        f"{r}({args}) & x = y", f"x = y & {r}({args})",
        f"Q({args})", "q(x) = x", f"{r}({args}) {r}({args})",
        f"{r}({args}) &", f"& {r}({args})", "", "   ", "\n", "(", ")",
        f"!!{r}({args})", f"((({r}({args}))))", f"{r}({args}) -> -> x = x",
    ]
    for c in constants:
        texts += [f"{c}(x) = x", f"x = {c}()", f"{c} = {c}", f"{c} = x",
                  f"x = {c}", f"{r}({', '.join([c] * k)})"]
    for f in functions:
        arg_sorts, res = sig.functions[f]
        texts += [f"{f}(x) = x", f"{f}(x, y) = x", f"{f} = x", f"{f}(x",
                  f"{f}() = x", f"x = {f}({', '.join(['y'] * len(arg_sorts))})"]
    for s in sig.sorts:
        texts += [f"exists z:{s}. z = x", f"forall x:{s}. {r}({args})",
                  f"exists x:{s}. x = y & y = x"]
    if len(sig.sorts) > 1:
        a, b = sig.sorts[:2]
        texts += [f"exists u:{a}. exists v:{b}. u = v",
                  f"forall u:{a}. u = x & forall v:{b}. v = x"]
    return texts


def texts(rng, sig):
    out = targeted(sig)
    well_formed = [formula_text(rng, sig) for _ in range(260)]
    out += well_formed
    out += [mutated(rng, rng.choice(well_formed)) for _ in range(220)]
    for _ in range(40):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        out.append(blob.decode("utf-8", errors="replace"))
    for _ in range(40):
        out.append("".join(rng.choice("()!&|-> ,.:=xyzEP1_é\n")
                           for _ in range(rng.randrange(1, 30))))
    return out


def write():
    if not hasattr(parser, "_Lexer"):
        return ("the corpus is written only by the three-pass parser "
                "(commit 7c6263c); this one would pin its own outcomes")
    rng = random.Random(22)
    entries = [{"signature": name, "text": text, "outcome": outcome(text, sig)}
               for name, sig in SIGNATURES.items() for text in texts(rng, sig)]
    CORPUS.parent.mkdir(exist_ok=True)
    with open(CORPUS, "w", encoding="ascii") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")


# ---------------------------------------------------------------------------
# The tests

@pytest.fixture(scope="module")
def entries():
    return json.loads(CORPUS.read_text(encoding="ascii"))


def test_corpus_covers_every_outcome(entries):
    assert len(entries) >= 2000
    kinds = {(e["outcome"].get("error"), e["outcome"].get("kind"))
             for e in entries}
    assert kinds >= {(None, None), ("ParseDiagnostic", None),
                     ("SortError", "sort-mismatch"),
                     ("SortError", "arity-mismatch"),
                     ("SortError", "unknown-symbol")}
    assert {e["signature"] for e in entries} == set(SIGNATURES)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_parser_reproduces_the_corpus(entries, name):
    sig = SIGNATURES[name]
    wrong = [(e["text"], e["outcome"], outcome(e["text"], sig))
             for e in entries if e["signature"] == name
             and outcome(e["text"], sig) != e["outcome"]]
    assert not wrong, wrong[:3]


# The differential test: a generated AST, its annotations dropped so that
# sort_check infers every sort as the parser does.

def bare(phi):
    if isinstance(phi, Var):
        return Var(phi.name)
    if isinstance(phi, App):
        return App(phi.func, tuple(map(bare, phi.args)))
    if isinstance(phi, Rel):
        return Rel(phi.name, tuple(map(bare, phi.args)))
    if isinstance(phi, Eq):
        return Eq(bare(phi.left), bare(phi.right))
    if isinstance(phi, Not):
        return Not(bare(phi.body))
    if isinstance(phi, (Exists, Forall)):
        return type(phi)(phi.var, phi.sort, bare(phi.body))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(bare(phi.left), bare(phi.right))
    return phi


def generated():
    import test_compiled_eval as ce
    import test_parser as tp
    return st.one_of(
        st.tuples(tp.formula_strategy(), st.just(tp.SIG)),
        st.tuples(ce.S_FORMULAS, st.just(ce.SIG)),
        st.tuples(ce.G_FORMULAS, st.just(ce.GROUP.signature)),
        st.tuples(ce.V_FORMULAS, st.just(ce.SPACE.signature)),
        st.tuples(ce.two_sorted_formulas(), st.just(ce.TWO)))


def checked(phi, sig):
    try:
        return sort_check(phi, sig)
    except SortError as exc:
        return ("SortError", exc.kind, str(exc))


@settings(max_examples=600, deadline=None)
@given(generated())
def test_parse_of_rendering_is_sort_check(case):
    phi, sig = case
    phi = bare(phi)
    try:
        parsed = parse_formula(render_formula(phi), sig)
    except SortError as exc:
        parsed = ("SortError", exc.kind, str(exc))
    assert parsed == checked(phi, sig)


if __name__ == "__main__":
    sys.exit(write())
