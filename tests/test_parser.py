"""Round-trip and robustness properties of the formula parser."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pfdim.families import make_vector_space
from pfdim.logic import (And, App, Const, Eq, Exists, Forall, Implies, Not,
                         Or, Rel, SortError, Var, make_signature)
from pfdim.parser import (ParseDiagnostic, identifiers, parse_formula,
                          render_formula)


SIG = make_signature(
    ["S"],
    relations=[("E", ("S", "S")), ("P", ("S",))],
    functions=[("f", ("S",), "S")],
    constants=[("c", "S")],
)

VARS = ["x", "y", "z"]


def term_strategy():
    base = st.one_of(st.sampled_from(VARS).map(Var),
                     st.just(Const("c")))
    return st.recursive(base, lambda t: t.map(lambda a: App("f", (a,))),
                        max_leaves=4)


def formula_strategy():
    atom = st.one_of(
        st.tuples(term_strategy(), term_strategy()).map(
            lambda ab: Rel("E", ab)),
        term_strategy().map(lambda a: Rel("P", (a,))),
        st.tuples(term_strategy(), term_strategy()).map(
            lambda ab: Eq(*ab)),
    )

    def extend(inner):
        return st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda ab: And(*ab)),
            st.tuples(inner, inner).map(lambda ab: Or(*ab)),
            st.tuples(inner, inner).map(lambda ab: Implies(*ab)),
            st.tuples(st.sampled_from(VARS), inner).map(
                lambda vi: Exists(vi[0], "S", vi[1])),
            st.tuples(st.sampled_from(VARS), inner).map(
                lambda vi: Forall(vi[0], "S", vi[1])),
        )

    return st.recursive(atom, extend, max_leaves=12)


class TestRoundTrip:
    @settings(max_examples=1000, deadline=None)
    @given(formula_strategy())
    def test_render_parse_fixpoint(self, phi):
        text = render_formula(phi)
        reparsed = parse_formula(text, SIG)
        assert render_formula(reparsed) == text

    def test_precedence(self):
        phi = parse_formula("P(x) | P(y) & P(z)", SIG)
        assert isinstance(phi, Or)
        phi = parse_formula("!P(x) & P(y)", SIG)
        assert isinstance(phi, And)

    def test_implication_right_associates(self):
        phi = parse_formula("P(x) -> P(y) -> P(z)", SIG)
        assert isinstance(phi, Implies)
        assert isinstance(phi.right, Implies)


class TestDiagnostics:
    @pytest.mark.parametrize("text", [
        "", "(", "P(", "P(x))", "x =", "forall x. P(x)", "Q(x)",
        "P(x) &", "f(x", "& P(x)", "P(x y)",
    ])
    def test_bad_input_reports_position(self, text):
        with pytest.raises(ParseDiagnostic) as exc:
            parse_formula(text, SIG)
        assert exc.value.line >= 1
        assert exc.value.column >= 1

    @pytest.mark.parametrize("text, offset, line, column", [
        ("   # P(x)", 3, 1, 4),            # after leading whitespace
        ("P(x) &\n  $P(y)", 9, 2, 3),       # after a newline
        ("P(x) & P(y)#", 11, 1, 12),        # the last character of the text
        ("P(x)%& P(y)", 4, 1, 5),           # straight after a token
        ("E(x1é, y)", 4, 1, 5),             # straight after a name
    ])
    def test_bad_character_position(self, text, offset, line, column):
        with pytest.raises(ParseDiagnostic) as exc:
            parse_formula(text, SIG)
        assert (exc.value.offset, exc.value.line, exc.value.column) == (
            offset, line, column)
        assert str(exc.value) == (
            f"{line}:{column}: unexpected character {text[offset]!r}")

    @pytest.mark.parametrize("text, where", [
        ("c(x) = x", "1:1"), ("x = c()", "1:5"), ("E(x, f(c(y)))", "1:8")])
    def test_constant_with_arguments_reported_at_its_name(self, text, where):
        with pytest.raises(ParseDiagnostic,
                           match=f"^{where}: constant c takes no arguments$"):
            parse_formula(text, SIG)

    def test_vector_space_constant_with_arguments(self):
        sig = make_vector_space(2, 2).signature
        with pytest.raises(ParseDiagnostic,
                           match="^1:1: constant zeroK takes no arguments$"):
            parse_formula("zeroK(x) = x", sig)

    @pytest.mark.parametrize("text", ["E(x)", "exists x:T. P(x)"])
    def test_sort_errors_surface(self, text):
        with pytest.raises(SortError):
            parse_formula(text, SIG)

    def test_fuzz_bytes_never_crash(self):
        rng = random.Random(99)
        for _ in range(5000):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 60)))
            text = blob.decode("utf-8", errors="replace")
            try:
                parse_formula(text, SIG)
            except ParseDiagnostic:
                pass


class TestIdentifiers:
    """``identifiers`` reads a text with the parser's scan."""

    @pytest.mark.parametrize("text", ["   # P(x)", "P(x) &\n  $P(y)",
                                      "E(x1é, y)", "P(x) -- P(y)", "1x = x"])
    def test_identifiers_report_a_bad_character_as_the_parser_does(self,
                                                                   text):
        with pytest.raises(ParseDiagnostic) as parsed:
            parse_formula(text, SIG)
        with pytest.raises(ParseDiagnostic) as scanned:
            identifiers(text)
        assert scanned.value == parsed.value
        assert str(scanned.value) == str(parsed.value)

    def test_identifiers_are_the_names_but_keywords(self):
        assert identifiers("forall x:S. E(x, c) -> f(y) = y1") == {
            "x", "S", "E", "c", "f", "y", "y1"}
