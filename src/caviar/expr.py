"""Expression language: AST, sorts, parsing, printing, and evaluation.

The term language is two-sorted (integer, boolean). Division and modulo
follow the floor convention (quotient rounds toward -inf, remainder takes
the divisor's sign), and x/0 = x%0 = 0 so evaluation is total.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Union

INT = "int"
BOOL = "bool"


class Operator(NamedTuple):
    arity: int
    operand: str       # the sort of every operand
    result: str
    semantics: Callable  # total on operands of the operand sort


# symbol -> Operator: the one definition of the operators, read by the
# parsers, the sort check, the evaluator, constant folding and extraction.
# The order is extraction's tie-break order among e-nodes of one cost.
OPERATORS = {
    "neg": Operator(1, INT, INT, operator.neg),
    "!": Operator(1, BOOL, BOOL, operator.not_),
    "+": Operator(2, INT, INT, operator.add),
    "-": Operator(2, INT, INT, operator.sub),
    "*": Operator(2, INT, INT, operator.mul),
    "/": Operator(2, INT, INT, lambda a, b: 0 if b == 0 else a // b),
    "%": Operator(2, INT, INT, lambda a, b: 0 if b == 0 else a % b),
    "min": Operator(2, INT, INT, min),
    "max": Operator(2, INT, INT, max),
    "<": Operator(2, INT, BOOL, operator.lt),
    "<=": Operator(2, INT, BOOL, operator.le),
    ">": Operator(2, INT, BOOL, operator.gt),
    ">=": Operator(2, INT, BOOL, operator.ge),
    "==": Operator(2, INT, BOOL, operator.eq),
    "!=": Operator(2, INT, BOOL, operator.ne),
    "&&": Operator(2, BOOL, BOOL, lambda a, b: a and b),
    "||": Operator(2, BOOL, BOOL, lambda a, b: a or b),
}


class ExprError(Exception):
    """Base class for expression-language errors; `message` is the text
    without the offset suffix."""

    def __init__(self, message: str, offset: int | None = None):
        self.message, self.offset = message, offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class ParseError(ExprError):
    pass


class SortError(ExprError):
    pass


class UnboundVariable(ExprError):
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class App:
    """Operator `op` applied to `args`, as many as `OPERATORS[op].arity`."""
    op: str
    args: tuple


@dataclass(frozen=True)
class PatVar:
    """A pattern variable, written `?name`: a hole that a rule's lhs binds."""
    name: str


Expr = Union[Var, IntConst, BoolConst, App]
Pattern = Union[Expr, PatVar]  # a term with holes

Assignment = dict  # variable name -> int or bool

def _signature(op: str) -> tuple[str, str]:
    try:
        o = OPERATORS[op]
    except KeyError:
        raise SortError(f"unknown operator {op!r}") from None
    return o.operand, o.result


def sort_of(e: Pattern, pat_sorts: dict[str, str] | None = None,
            hole: str | None = None) -> str:
    """Sort of a well-sorted term; raises SortError otherwise.

    Variables are integer-sorted (the corpus language has no boolean
    variables). A pattern variable takes the sort its position asks for,
    `hole` at the root, and records it in `pat_sorts`; a name asked for at
    two sorts is an error.
    """
    if isinstance(e, App):
        arg, res = _signature(e.op)
        for x in e.args:
            if sort_of(x, pat_sorts, arg) != arg:
                # every operand's sort, or the error of a later one; `map`,
                # as a comprehension would make `arg` a closure cell and so
                # slow every call
                got = ", ".join(map(sort_of, e.args, repeat(pat_sorts), repeat(arg)))
                raise SortError(f"operator {e.op!r} expects {arg} "
                                f"operand{'s' * (len(e.args) != 1)}, got {got}")
        return res
    if isinstance(e, (Var, IntConst)):
        return INT
    if isinstance(e, BoolConst):
        return BOOL
    if isinstance(e, PatVar):
        if hole is None or pat_sorts is None:
            raise SortError(f"cannot determine the sort of ?{e.name}")
        prev = pat_sorts.setdefault(e.name, hole)
        if prev != hole:
            raise SortError(f"pattern variable ?{e.name} used at sorts {prev} and {hole}")
        return hole
    raise TypeError(f"not an Expr: {e!r}")


def root_sort(e: Pattern) -> str | None:
    """Sort of a term's root node alone, its operands unchecked; None for a
    pattern variable, whose sort its context decides."""
    if isinstance(e, App):
        return OPERATORS[e.op].result
    if isinstance(e, BoolConst):
        return BOOL
    return None if isinstance(e, PatVar) else INT


def apply_op(op: str, *args):
    """Total operator semantics shared by the evaluator and constant folding."""
    try:
        semantics = OPERATORS[op].semantics
    except KeyError:
        raise ValueError(f"unknown operator {op!r}") from None
    return semantics(*args)


def evaluate(e: Pattern, a: Assignment):
    """Evaluate a fully bound term; a pattern variable reads `a` as a
    variable does. Total on well-sorted input."""
    if isinstance(e, (Var, PatVar)):
        try:
            return a[e.name]
        except KeyError:
            raise UnboundVariable(e.name) from None
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, BoolConst):
        return e.value
    # every walker recurses from a plain loop: a comprehension (a frame of
    # its own before Python 3.12) or a builtin that calls back into Python,
    # such as `map` or `sum`, takes a second level of the recursion limit
    # per level of the term, halving the depth a term can have
    vals = []
    for x in e.args:
        vals.append(evaluate(x, a))
    return apply_op(e.op, *vals)


def ast_size(e: Expr) -> int:
    n = 1
    if isinstance(e, App):
        for x in e.args:
            n += ast_size(x)
    return n


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    out = set()
    if isinstance(e, App):
        for x in e.args:
            out |= free_vars(x)
    return out


# ---------------------------------------------------------------------------
# Infix grammar (C-style precedence, one level per `_PREC` value; binary
# operators associate to the left, and comparisons do not chain):
#   expr := unary (binop unary)*; unary := ('-'|'!') unary | atom;
#   atom := int | 'true' | 'false' | ident | 'min(' expr ',' expr ')'
#         | 'max(' expr ',' expr ')' | '(' expr ')'

_PREC = {"||": 1, "&&": 2, "<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3, "!=": 3,
         "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}
_CMP_PREC = 3

# one token per match, whitespace skipped between matches: an integer (a run
# of `str.isdecimal` characters, which `int` takes; `str.isdigit` also takes
# '²'), a run of `isalnum` characters or '_' that is an identifier if it
# starts with a letter or '_', a punctuation token (longest first), or any
# other character, which is an error. In `str` patterns `\s`, `\d` and `\w`
# are `str.isspace`, `str.isdecimal` and `str.isalnum` or '_'.
_INFIX_TOKEN = re.compile(r"(\d+)|(\w+)|(<=|>=|==|!=|&&|\|\||[-<>(),+*/%!])|(\S)")
_INFIX_KINDS = (None, "int", "ident", "punct")


def _ident_end(text: str, i: int) -> int:
    """End of the identifier starting at `text[i]`, or `i` if none does: a
    letter or '_', then letters, digits or '_'. S-expression atoms are read
    with this; `_INFIX_TOKEN` reads the same identifiers in one match."""
    c = text[i]
    if not (c.isalpha() or c == "_"):
        return i
    n = len(text)
    i += 1
    while i < n and (text[i].isalnum() or text[i] == "_"):
        i += 1
    return i


def _int_literal(text: str, off: int) -> int:
    """The integer literal `text` at offset `off`. Both grammars read
    literals with this, so that one past the interpreter's int/str digit
    limit is a ParseError at its offset."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal longer than "
                         f"{sys.get_int_max_str_digits()} digits", off) from None


def _tokenize_infix(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _INFIX_TOKEN.finditer(text):
        kind, tok, i = m.lastindex, m.group(), m.start()
        if kind == 4 or (kind == 2 and not (tok[0].isalpha() or tok[0] == "_")):
            raise ParseError(f"unexpected character {tok[0]!r}", i)
        toks.append((_INFIX_KINDS[kind], tok, i))
    toks.append(("eof", "", len(text)))
    return toks


class _InfixParser:
    def __init__(self, text: str):
        self.toks = _tokenize_infix(text)
        self.pos = 0

    def expect(self, value: str):
        kind, val, off = self.toks[self.pos]
        self.pos += 1
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", off)

    def _check(self, e: Expr, want: str, off: int) -> Expr:
        # every operand was checked when it was built, so its root's sort
        # is its sort; a whole `sort_of` here made parsing quadratic in depth
        got = root_sort(e)
        if got != want:
            raise SortError(f"expected {want}-sorted operand, got {got}", off)
        return e

    def parse(self) -> Expr:
        e = self.parse_binary(1)
        kind, val, off = self.toks[self.pos]
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {val!r}", off)
        return e

    def parse_binary(self, min_prec: int) -> Expr:
        """Operators of precedence `min_prec` and up, by precedence climbing."""
        toks = self.toks
        off = toks[self.pos][2]
        e = self.parse_unary()
        last = 0  # precedence of the operator applied last in this loop
        while True:
            op = toks[self.pos][1]
            prec = _PREC.get(op)
            # a comparison left over after `||`, `&&` or a comparison chains
            # comparisons; the caller reports it as trailing input
            if (prec is None or prec < min_prec
                    or (prec == _CMP_PREC and 0 < last <= _CMP_PREC)):
                return e
            self.pos += 1
            want = OPERATORS[op].operand
            self._check(e, want, off)
            roff = toks[self.pos][2]
            e = App(op, (e, self._check(self.parse_binary(prec + 1), want, roff)))
            last = prec

    def parse_unary(self) -> Expr:
        kind, val, off = self.toks[self.pos]
        if val == "-":
            self.pos += 1
            # fold a leading minus on a literal into the constant
            k, v, o = self.toks[self.pos]
            if k == "int":
                self.pos += 1
                return IntConst(-_int_literal(v, o))
            return App("neg", (self._check(self.parse_unary(), INT, off),))
        if val == "!":
            self.pos += 1
            return App("!", (self._check(self.parse_unary(), BOOL, off),))
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind, val, off = self.toks[self.pos]
        self.pos += 1
        if kind == "int":
            return IntConst(_int_literal(val, off))
        if kind == "ident":
            if val == "true":
                return BoolConst(True)
            if val == "false":
                return BoolConst(False)
            if val in ("min", "max"):
                self.expect("(")
                loff = self.toks[self.pos][2]
                left = self._check(self.parse_binary(1), INT, loff)
                self.expect(",")
                roff = self.toks[self.pos][2]
                right = self._check(self.parse_binary(1), INT, roff)
                self.expect(")")
                return App(val, (left, right))
            return Var(val)
        if val == "(":
            e = self.parse_binary(1)
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {val or 'end of input'!r}", off)


def parse_infix(text: str) -> Expr:
    return _InfixParser(text).parse()


def print_infix(e: Expr) -> str:
    def go(e: Expr, parent_prec: int, rhs: bool) -> str:
        if isinstance(e, Var):
            return e.name
        if isinstance(e, IntConst):
            return str(e.value)
        if isinstance(e, BoolConst):
            return "true" if e.value else "false"
        if len(e.args) == 1:
            x, = e.args
            sym = "-" if e.op == "neg" else "!"
            # a negated literal must not print as `-3`, which the parser
            # would fold back into a single negative constant
            if e.op == "neg" and isinstance(x, IntConst) and x.value >= 0:
                return f"-({x.value})"
            return f"{sym}{go(x, 6, True)}"
        left, right = e.args
        if e.op in ("min", "max"):
            return f"{e.op}({go(left, 0, False)}, {go(right, 0, False)})"
        p = _PREC[e.op]
        s = f"{go(left, p, False)} {e.op} {go(right, p, True)}"
        # parenthesize at equal precedence on the right (left-associative ops)
        # and always for nested comparisons
        if p < parent_prec or (p == parent_prec and rhs):
            return f"({s})"
        return s

    return go(e, 0, False)


# ---------------------------------------------------------------------------
# S-expression form, the canonical serialization for rules and golden tests,
# and the grammar of rule files. One reader turns text into nested lists of
# atoms; one builder turns a list into a term.

# a comment, a parenthesis or an atom; whitespace separates them
_SEXPR_TOKEN = re.compile(r"[;#][^\n]*|[()]|[^\s();#]+")


def read_sexprs(text: str) -> list[tuple[int, object]]:
    """The top-level s-expressions of `text`. Each is an `(offset, value)`
    pair whose value is an atom's text or a list of such pairs; `;` and `#`
    start comments that run to the end of the line."""
    out: list = []
    stack: list[tuple[int, list]] = []
    for m in _SEXPR_TOKEN.finditer(text):
        tok, i = m.group(), m.start()
        if tok == "(":
            stack.append((i, []))
        elif tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", i)
            node = stack.pop()
            (stack[-1][1] if stack else out).append(node)
        elif tok[0] not in ";#":
            (stack[-1][1] if stack else out).append((i, tok))
    if stack:
        raise ParseError("missing ')'", stack[-1][0])
    return out


def _atom(tok: str, off: int, patvars: bool) -> Pattern:
    if patvars and tok[0] == "?":
        if len(tok) > 1 and _ident_end(tok, 1) == len(tok):
            return PatVar(tok[1:])
        raise ParseError(f"bad pattern variable {tok!r}", off)
    if tok == "true":
        return BoolConst(True)
    if tok == "false":
        return BoolConst(False)
    if tok.removeprefix("-").isdecimal():
        return IntConst(_int_literal(tok, off))
    if tok in ("min", "max"):
        # the infix grammar reads these only as functions
        raise ParseError(f"{tok!r} is an operator, not a variable", off)
    if _ident_end(tok, 0) == len(tok):
        return Var(tok)
    raise ParseError(f"bad atom {tok!r}", off)


def build_term(node: tuple[int, object], patvars: bool = False) -> Pattern:
    """The term an s-expression from `read_sexprs` denotes: `(op arg...)`
    with the arity `op` takes (`not` reads as `!`), or an atom: an integer,
    `true`, `false`, an identifier, or with `patvars` a `?identifier`."""
    off, v = node
    if isinstance(v, str):
        return _atom(v, off, patvars)
    if not v or not isinstance(v[0][1], str):
        raise ParseError("expected operator symbol", v[0][0] if v else off + 1)
    (hoff, head), args = v[0], []
    for a in v[1:]:
        args.append(build_term(a, patvars))
    op = "!" if head == "not" else head
    if op not in OPERATORS:
        raise ParseError(f"unknown operator {head!r}", hoff)
    arity = OPERATORS[op].arity
    if len(args) != arity:
        raise ParseError(f"operator {head!r} takes {arity} argument{'s' * (arity != 1)}, "
                         f"got {len(args)}", hoff)
    return App(op, tuple(args))


def parse_sexpr(text: str, allow_patvars: bool = False) -> Pattern:
    forms = read_sexprs(text)
    if not forms:
        raise ParseError("empty input")
    e = build_term(forms[0], allow_patvars)
    if len(forms) > 1:
        raise ParseError("unexpected trailing input", forms[1][0])
    if not allow_patvars:
        sort_of(e)
    return e


def print_sexpr(e: Pattern) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, BoolConst):
        return "true" if e.value else "false"
    if isinstance(e, App):
        parts = [e.op]
        for x in e.args:
            parts.append(print_sexpr(x))
        return f"({' '.join(parts)})"
    if isinstance(e, PatVar):
        return f"?{e.name}"
    raise TypeError(f"not an Expr: {e!r}")
