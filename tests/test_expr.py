"""Expression core: parsing, printing, evaluation, sorts."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caviar.extraction
from caviar.egraph import from_expr
from caviar.engine import EngineConfig, prove_pulsed
from caviar.expr import (
    BOOL, INT, OPERATORS, App, BoolConst, IntConst, Operator, ParseError,
    PatVar, SortError, UnboundVariable, Var, _tokenize_infix, apply_op,
    ast_size, evaluate, free_vars, parse_infix, parse_sexpr, print_infix,
    print_sexpr, sort_of,
)
from caviar.extraction import extract_best
from caviar.matching import apply_rule
from caviar.rules import default_ruleset, parse_rules

from .helpers import VALUE_POOL, oracle_tokenize_infix, random_expr


def test_parse_infix_precedence():
    e = parse_infix("a + b * c")
    assert e == App("+", (Var("a"), App("*", (Var("b"), Var("c")))))
    e = parse_infix("a * b + c")
    assert e == App("+", (App("*", (Var("a"), Var("b"))), Var("c")))
    e = parse_infix("a < b && c < d || e < f")
    assert e.op == "||"
    assert e.args[0].op == "&&"


def test_parse_infix_unary_and_functions():
    assert parse_infix("-a") == App("neg", (Var("a"),))
    assert parse_infix("--a") == App("neg", (App("neg", (Var("a"),)),))
    assert parse_infix("!(a < b)") == App("!", (App("<", (Var("a"), Var("b"))),))
    assert parse_infix("min(a, b)") == App("min", (Var("a"), Var("b")))
    assert parse_infix("max(a + 1, 2)") == App(
        "max", (App("+", (Var("a"), IntConst(1))), IntConst(2)))


def test_parse_infix_literals():
    assert parse_infix("true") == BoolConst(True)
    assert parse_infix("false") == BoolConst(False)
    # a leading minus on a literal folds into the constant
    assert parse_infix("-3") == IntConst(-3)
    assert parse_infix("v0 + -1") == App("+", (Var("v0"), IntConst(-1)))
    assert parse_infix("-(3)") == App("neg", (IntConst(3),))


def test_parse_infix_subtraction_is_left_assoc():
    e = parse_infix("a - b - c")
    assert e == App("-", (App("-", (Var("a"), Var("b"))), Var("c")))


def test_comparison_non_associative():
    with pytest.raises(ParseError):
        parse_infix("a < b < c")


def test_parse_errors_report_offsets():
    with pytest.raises(ParseError, match="offset"):
        parse_infix("a + ")
    with pytest.raises(ParseError):
        parse_infix("(a + b")
    with pytest.raises(ParseError):
        parse_infix("")
    with pytest.raises(ParseError):
        parse_infix("a @ b")


def test_sort_errors():
    with pytest.raises(SortError):
        parse_infix("a + (b < c)")
    with pytest.raises(SortError):
        parse_infix("a && b")
    with pytest.raises(SortError):
        parse_infix("!a")
    with pytest.raises(SortError):
        parse_infix("true < false")


# exact texts, offsets included, recorded before the infix parser became one
# precedence-climbing loop
@pytest.mark.parametrize("src,error", [
    ("a + ", "ParseError: unexpected token 'end of input' (at offset 4)"),
    ("(a + b", "ParseError: expected ')', found 'end of input' (at offset 6)"),
    ("", "ParseError: unexpected token 'end of input' (at offset 0)"),
    ("a @ b", "ParseError: unexpected character '@' (at offset 2)"),
    ("a < b < c", "ParseError: unexpected trailing input '<' (at offset 6)"),
    ("x == y == z", "ParseError: unexpected trailing input '==' (at offset 7)"),
    ("min(a)", "ParseError: expected ',', found ')' (at offset 5)"),
    ("a +* b", "ParseError: unexpected token '*' (at offset 3)"),
    ("a b", "ParseError: unexpected trailing input 'b' (at offset 2)"),
    ("a + (b < c)", "SortError: expected int-sorted operand, got bool (at offset 4)"),
    ("a && b", "SortError: expected bool-sorted operand, got int (at offset 0)"),
    ("!a", "SortError: expected bool-sorted operand, got int (at offset 0)"),
    ("-true", "SortError: expected int-sorted operand, got bool (at offset 0)"),
    ("min(a < b, c)", "SortError: expected int-sorted operand, got bool (at offset 4)"),
    ("x <= (y && z)", "SortError: expected bool-sorted operand, got int (at offset 6)"),
    ("1 + 2 || x < y", "SortError: expected bool-sorted operand, got int (at offset 0)"),
])
def test_parse_error_texts_pinned(src, error):
    with pytest.raises((ParseError, SortError)) as exc:
        parse_infix(src)
    assert f"{exc.type.__name__}: {exc.value}" == error


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return exc.message, exc.offset


# '²' is isdigit but neither isdecimal nor isalpha, '٣' is a decimal digit
# that `int` reads, '\x1c' is whitespace, and '&' is a punctuation token
# only when doubled
_TRICKY = "²٣é\x1c&|=!<>-_ ( ),+*/%\t\n\xa0½Ⅷ"


@settings(max_examples=400, deadline=None)
@given(st.text(st.one_of(st.sampled_from(_TRICKY), st.characters(max_codepoint=127),
                         st.characters()), max_size=24))
def test_tokenizer_agrees_with_per_character_reference(text):
    assert (_tokens_or_error(_tokenize_infix, text)
            == _tokens_or_error(oracle_tokenize_infix, text))


def test_tokenizer_cases_agree_with_per_character_reference():
    for text in ["²", "٣", "é", "\x1c", "&", "a²", "3x + é1", "٣٣ <= x\x1c",
                 "a && b || !c", "a & b", "x2_ != _y", "min(a,b)>=-3", "½", ""]:
        assert (_tokens_or_error(_tokenize_infix, text)
                == _tokens_or_error(oracle_tokenize_infix, text)), text


def test_tokenizer_character_classes_are_the_str_predicates():
    # the pattern's \s, \d and \w stand for str.isspace, str.isdecimal and
    # str.isalnum or '_' on every code point
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for cls, pred in ((r"\s", str.isspace), (r"\d", str.isdecimal),
                      (r"\w", lambda c: c.isalnum() or c == "_")):
        assert re.findall(cls, every) == [c for c in every if pred(c)], cls


def test_parse_deep_sum_checks_sorts_in_linear_time():
    # each operand's sort is checked once, at its root; re-checking whole
    # operands made this quadratic and overflowed the recursion limit
    e = parse_infix(" + ".join(["x"] * 1200) + " <= 0")
    assert e.op == "<=" and e.args[1] == IntConst(0)
    depth, left = 0, e.args[0]
    while isinstance(left, App):
        depth, left = depth + 1, left.args[0]
    assert depth == 1199 and left == Var("x")
    with pytest.raises(SortError):
        parse_infix(" + ".join(["x"] * 1200) + " + (x < 0)")


def test_sort_of():
    assert sort_of(parse_infix("a + b")) == "int"
    assert sort_of(parse_infix("a <= b")) == "bool"
    assert sort_of(parse_infix("min(a, b) < 3 && true")) == "bool"


def test_sort_of_infers_pattern_variable_sorts():
    env = {}
    p = parse_sexpr("(&& ?p (< ?a (neg ?b)))", allow_patvars=True)
    assert sort_of(p, env, "bool") == "bool"
    assert env == {"p": "bool", "a": "int", "b": "int"}
    assert sort_of(PatVar("p"), env, "bool") == "bool"
    with pytest.raises(SortError, match=r"\?p used at sorts bool and int"):
        sort_of(parse_sexpr("(+ ?p 1)", allow_patvars=True), env, "int")
    with pytest.raises(SortError):
        sort_of(PatVar("q"))  # nothing decides its sort


def test_apply_op_floor_division():
    assert apply_op("/", 7, 2) == 3
    assert apply_op("/", -7, 2) == -4
    assert apply_op("/", 7, -2) == -4
    assert apply_op("%", -7, 2) == 1
    assert apply_op("%", 7, -2) == -1
    assert apply_op("/", 5, 0) == 0
    assert apply_op("%", 5, 0) == 0
    assert apply_op("min", 3, -2) == -2
    assert apply_op("max", 3, -2) == 3


# Each operator's sorts and semantics spelled out independently of the
# table, floor division through exact fractions.
SPELLED_OUT_SORTS = {
    "+": (INT, INT), "-": (INT, INT), "*": (INT, INT), "/": (INT, INT),
    "%": (INT, INT), "min": (INT, INT), "max": (INT, INT),
    "<": (INT, BOOL), "<=": (INT, BOOL), ">": (INT, BOOL), ">=": (INT, BOOL),
    "==": (INT, BOOL), "!=": (INT, BOOL),
    "&&": (BOOL, BOOL), "||": (BOOL, BOOL),
    "neg": (INT, INT), "!": (BOOL, BOOL),
}
REFERENCE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: 0 if b == 0 else math.floor(Fraction(a, b)),
    "%": lambda a, b: 0 if b == 0 else a - b * math.floor(Fraction(a, b)),
    "min": lambda a, b: a if a <= b else b,
    "max": lambda a, b: b if a <= b else a,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "&&": lambda a, b: a and b,
    "||": lambda a, b: a or b,
    "neg": lambda a: -a,
    "!": lambda a: not a,
}


def test_operator_table_matches_spelled_out_definitions():
    assert {op: (o.operand, o.result) for op, o in OPERATORS.items()} == SPELLED_OUT_SORTS
    assert [op for op, o in OPERATORS.items() if o.arity == 1] == ["neg", "!"]
    pools = {INT: VALUE_POOL, BOOL: [False, True]}  # VALUE_POOL holds 0 and negatives
    for op, o in OPERATORS.items():
        pool = pools[o.operand]
        for args in ([(a,) for a in pool] if o.arity == 1
                     else [(a, b) for a in pool for b in pool]):
            got, want = apply_op(op, *args), REFERENCE[op](*args)
            assert got == want and type(got) is type(want), (op, args, got, want)
            assert type(got) is (bool if o.result == BOOL else int), (op, args)
    with pytest.raises(ValueError, match="unknown operator '\\*\\*'"):
        apply_op("**", 2, 3)


@pytest.mark.parametrize("parse,text,offset", [
    (parse_infix, "x < " + "9" * 5000, 4),
    (parse_infix, "x < -" + "9" * 5000, 5),
    (parse_sexpr, "(< x " + "9" * 5000 + ")", 5),
    (parse_sexpr, "(< x -" + "9" * 5000 + ")", 5),
], ids=["infix", "infix-negative", "sexpr", "sexpr-negative"])
def test_literal_past_digit_limit_is_a_parse_error(parse, text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.message, exc.value.offset) == (
        "integer literal longer than 4300 digits", offset)


def test_evaluate_and_free_vars():
    e = parse_infix("(x + y) / 2 <= max(x, y)")
    assert free_vars(e) == {"x", "y"}
    assert evaluate(e, {"x": 3, "y": 5}) is True
    with pytest.raises(UnboundVariable):
        evaluate(e, {"x": 3})


def test_evaluate_reads_pattern_variables_as_variables():
    p = parse_sexpr("(< (+ ?a x) 3)", allow_patvars=True)
    assert evaluate(p, {"a": 1, "x": 1}) is True
    with pytest.raises(UnboundVariable):
        evaluate(p, {"x": 1})


def test_evaluate_big_integers():
    e = parse_infix("x * x")
    v = 10 ** 30
    assert evaluate(e, {"x": v}) == v * v


def test_ast_size():
    assert ast_size(parse_infix("a")) == 1
    assert ast_size(parse_infix("a + 1")) == 3
    assert ast_size(parse_infix("-(a + 1)")) == 4


def test_print_infix_minimal_parens():
    for src in ["a + b * c", "(a + b) * c", "a - (b - c)", "a - b - c",
                "-(a + b)", "min(a, b) + 1", "!(a < b) && c < d"]:
        e = parse_infix(src)
        assert parse_infix(print_infix(e)) == e


def test_sexpr_round_trip():
    e = parse_infix("min(a, -1) < b && !(c == 3)")
    assert parse_sexpr(print_sexpr(e)) == e


def test_sexpr_patvars():
    p = parse_sexpr("(+ ?a 1)", allow_patvars=True)
    assert p == App("+", (PatVar("a"), IntConst(1)))
    assert print_sexpr(p) == "(+ ?a 1)"
    with pytest.raises(ParseError):
        parse_sexpr("(+ ?a 1)", allow_patvars=False)


def test_sexpr_identifiers_are_infix_identifiers():
    for tok in ["x", "_x1", "x\u00b2", "foo@", "x-y", "1x", "?", "x.y"]:
        try:
            infix_ok = parse_infix(f"{tok} < 0") == App("<", (Var(tok), IntConst(0)))
        except ParseError:
            infix_ok = False
        try:
            sexpr_ok = parse_sexpr(f"(< {tok} 0)") == App("<", (Var(tok), IntConst(0)))
        except ParseError:
            sexpr_ok = False
        assert sexpr_ok == infix_ok, tok


def test_sexpr_comments_and_errors():
    assert parse_sexpr("; lead\n(+ a ; inner\n 1) # tail") == \
        App("+", (Var("a"), IntConst(1)))
    for src, error in [("(+ a)", "operator '+' takes 2 arguments, got 1 (at offset 1)"),
                       ("(neg a b)", "operator 'neg' takes 1 argument, got 2 (at offset 1)"),
                       ("(foo a b)", "unknown operator 'foo' (at offset 1)"),
                       ("(+ a b", "missing ')' (at offset 0)"),
                       ("(+ a b) c", "unexpected trailing input (at offset 8)"),
                       ("x-y", "bad atom 'x-y' (at offset 0)"),
                       # infix reads these only as functions
                       ("(< min 1)", "'min' is an operator, not a variable (at offset 3)"),
                       ("(+ 1 max)", "'max' is an operator, not a variable (at offset 5)"),
                       ("; only a comment", "empty input")]:
        with pytest.raises(ParseError) as exc:
            parse_sexpr(src)
        assert str(exc.value) == error


def test_operator_arity_is_read_from_the_table_alone(monkeypatch):
    # a ternary operator takes one table row (and an extraction tie-break
    # ordinal): every walker reads its arity from `OPERATORS`
    clamp = Operator(3, INT, INT, lambda x, lo, hi: min(max(x, lo), hi))
    monkeypatch.setitem(OPERATORS, "clamp", clamp)
    monkeypatch.setitem(caviar.extraction._OP_ORDINAL, "clamp",
                        len(caviar.extraction._OP_ORDINAL))
    e = parse_sexpr("(clamp x 0 5)")
    assert e == App("clamp", (Var("x"), IntConst(0), IntConst(5)))
    assert sort_of(e) == INT
    assert [evaluate(e, {"x": x}) for x in (-3, 2, 9)] == [0, 2, 5]
    assert print_sexpr(e) == "(clamp x 0 5)"
    assert extract_best(*from_expr(e)) == (e, 4)
    # constant folding applies it too
    assert extract_best(*from_expr(parse_sexpr("(clamp 7 0 5)"))) == (IntConst(5), 1)
    rule, = parse_rules("(rule r (clamp ?a ?b ?b) ?b)").rules
    g, root = from_expr(parse_sexpr("(clamp (+ x 1) y y)"))
    assert apply_rule(g, rule) == 1
    assert extract_best(g, root) == (Var("y"), 1)
    with pytest.raises(ParseError) as exc:
        parse_sexpr("(clamp x 1)")
    assert exc.value.message == "operator 'clamp' takes 3 arguments, got 2"


def test_term_walkers_keep_nesting_depth():
    # each walker takes one level of the recursion limit per level of a term
    # (a comprehension over the operands, before Python 3.12, or a `map` or
    # `sum` over them would take two), so a chain of 900 nested `+` stays
    # under the default limit of 1000
    e = Var("x")
    for _ in range(900):
        e = App("+", (e, IntConst(1)))
    e = App("<", (e, Var("y")))
    text = print_sexpr(e)
    assert text == "(< " + "(+ " * 900 + "x" + " 1)" * 900 + " y)"
    assert print_sexpr(parse_sexpr(text)) == text
    assert sort_of(e) == BOOL
    assert evaluate(e, {"x": 0, "y": 901}) is True
    assert ast_size(e) == 1803
    assert free_vars(e) == {"x", "y"}
    assert print_infix(e) == "x" + " + 1" * 900 + " < y"
    g, root = from_expr(e)
    best, cost = extract_best(g, root)
    assert print_sexpr(best) == text and cost == 1803
    r = prove_pulsed(e, default_ruleset(), cfg=EngineConfig(deterministic=True, iter_limit=0))
    assert r.outcome == "unknown" and print_sexpr(r.best_expr) == text


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_infix_round_trip_random(seed):
    rng = random.Random(seed)
    e = random_expr(rng, depth=4)
    assert parse_infix(print_infix(e)) == e


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_sexpr_round_trip_random(seed):
    rng = random.Random(seed)
    e = random_expr(rng, depth=4)
    assert parse_sexpr(print_sexpr(e)) == e
