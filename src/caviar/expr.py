"""Expression language: AST, sorts, parsing, printing, and evaluation.

The term language is two-sorted (integer, boolean). Division and modulo
follow the floor convention (quotient rounds toward -inf, remainder takes
the divisor's sign), and x/0 = x%0 = 0 so evaluation is total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

INT = "int"
BOOL = "bool"

# Binary operators, grouped by signature.
ARITH_OPS = ("+", "-", "*", "/", "%", "min", "max")  # int x int -> int
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")         # int x int -> bool
LOGIC_OPS = ("&&", "||")                             # bool x bool -> bool
BINARY_OPS = ARITH_OPS + CMP_OPS + LOGIC_OPS
UNARY_OPS = ("neg", "!")


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class SortError(ExprError):
    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


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
class Unary:
    op: str  # "neg" or "!"
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Var, IntConst, BoolConst, Unary, Binary]

Assignment = dict  # variable name -> int or bool


def sort_of(e: Expr, var_sorts: dict[str, str] | None = None) -> str:
    """Sort of a well-sorted expression; raises SortError otherwise.

    Variables are integer-sorted (the corpus language has no boolean
    variables) unless `var_sorts` overrides a name.
    """
    if isinstance(e, Var):
        if var_sorts is not None:
            return var_sorts.get(e.name, INT)
        return INT
    if isinstance(e, IntConst):
        return INT
    if isinstance(e, BoolConst):
        return BOOL
    if isinstance(e, Unary):
        want = INT if e.op == "neg" else BOOL
        got = sort_of(e.child, var_sorts)
        if got != want:
            raise SortError(f"operator {e.op!r} expects {want} operand, got {got}")
        return want
    if isinstance(e, Binary):
        ls = sort_of(e.left, var_sorts)
        rs = sort_of(e.right, var_sorts)
        if e.op in ARITH_OPS or e.op in CMP_OPS:
            if ls != INT or rs != INT:
                raise SortError(f"operator {e.op!r} expects int operands, got {ls}, {rs}")
            return INT if e.op in ARITH_OPS else BOOL
        if e.op in LOGIC_OPS:
            if ls != BOOL or rs != BOOL:
                raise SortError(f"operator {e.op!r} expects bool operands, got {ls}, {rs}")
            return BOOL
        raise SortError(f"unknown operator {e.op!r}")
    raise TypeError(f"not an Expr: {e!r}")


def root_sort(e: Expr) -> str:
    """Sort of an expression's root node alone; its operands are not checked."""
    if isinstance(e, (Var, IntConst)):
        return INT
    if isinstance(e, BoolConst):
        return BOOL
    if isinstance(e, Unary):
        return INT if e.op == "neg" else BOOL
    return INT if e.op in ARITH_OPS else BOOL


def apply_op(op: str, *args):
    """Total operator semantics shared by the evaluator and constant folding."""
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "/":
        return 0 if args[1] == 0 else args[0] // args[1]
    if op == "%":
        return 0 if args[1] == 0 else args[0] % args[1]
    if op == "min":
        return min(args)
    if op == "max":
        return max(args)
    if op == "<":
        return args[0] < args[1]
    if op == "<=":
        return args[0] <= args[1]
    if op == ">":
        return args[0] > args[1]
    if op == ">=":
        return args[0] >= args[1]
    if op == "==":
        return args[0] == args[1]
    if op == "!=":
        return args[0] != args[1]
    if op == "&&":
        return args[0] and args[1]
    if op == "||":
        return args[0] or args[1]
    if op == "neg":
        return -args[0]
    if op == "!":
        return not args[0]
    raise ValueError(f"unknown operator {op!r}")


def evaluate(e: Expr, a: Assignment):
    """Evaluate a fully bound expression. Total on well-sorted input."""
    if isinstance(e, Var):
        try:
            return a[e.name]
        except KeyError:
            raise UnboundVariable(e.name) from None
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, BoolConst):
        return e.value
    if isinstance(e, Unary):
        return apply_op(e.op, evaluate(e.child, a))
    return apply_op(e.op, evaluate(e.left, a), evaluate(e.right, a))


def ast_size(e: Expr) -> int:
    if isinstance(e, (Var, IntConst, BoolConst)):
        return 1
    if isinstance(e, Unary):
        return 1 + ast_size(e.child)
    return 1 + ast_size(e.left) + ast_size(e.right)


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (IntConst, BoolConst)):
        return set()
    if isinstance(e, Unary):
        return free_vars(e.child)
    return free_vars(e.left) | free_vars(e.right)


# ---------------------------------------------------------------------------
# Infix grammar (C-style precedence):
#   expr := or; or := and ('||' and)*; and := cmp ('&&' cmp)*;
#   cmp := sum (cmpop sum)?; sum := term (('+'|'-') term)*;
#   term := unary (('*'|'/'|'%') unary)*; unary := ('-'|'!') unary | atom;
#   atom := int | 'true' | 'false' | ident | 'min(' e ',' e ')'
#         | 'max(' e ',' e ')' | '(' expr ')'

_PUNCT = ("<=", ">=", "==", "!=", "&&", "||", "<", ">", "(", ")", ",",
          "+", "-", "*", "/", "%", "!")


def _tokenize_infix(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():  # `int` takes these; isdigit also takes '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(("punct", p, i))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("eof", "", n))
    return toks


class _InfixParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize_infix(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, value: str):
        kind, val, off = self.next()
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
        e = self.parse_or()
        kind, val, off = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {val!r}", off)
        return e

    def parse_or(self) -> Expr:
        off = self.peek()[2]
        e = self.parse_and()
        while self.peek()[1] == "||":
            self.next()
            self._check(e, BOOL, off)
            roff = self.peek()[2]
            r = self._check(self.parse_and(), BOOL, roff)
            e = Binary("||", e, r)
        return e

    def parse_and(self) -> Expr:
        off = self.peek()[2]
        e = self.parse_cmp()
        while self.peek()[1] == "&&":
            self.next()
            self._check(e, BOOL, off)
            roff = self.peek()[2]
            r = self._check(self.parse_cmp(), BOOL, roff)
            e = Binary("&&", e, r)
        return e

    def parse_cmp(self) -> Expr:
        off = self.peek()[2]
        e = self.parse_sum()
        if self.peek()[1] in CMP_OPS:
            op = self.next()[1]
            self._check(e, INT, off)
            roff = self.peek()[2]
            r = self._check(self.parse_sum(), INT, roff)
            return Binary(op, e, r)
        return e

    def parse_sum(self) -> Expr:
        off = self.peek()[2]
        e = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            self._check(e, INT, off)
            roff = self.peek()[2]
            r = self._check(self.parse_term(), INT, roff)
            e = Binary(op, e, r)
        return e

    def parse_term(self) -> Expr:
        off = self.peek()[2]
        e = self.parse_unary()
        while self.peek()[1] in ("*", "/", "%"):
            op = self.next()[1]
            self._check(e, INT, off)
            roff = self.peek()[2]
            r = self._check(self.parse_unary(), INT, roff)
            e = Binary(op, e, r)
        return e

    def parse_unary(self) -> Expr:
        kind, val, off = self.peek()
        if val == "-":
            self.next()
            # fold a leading minus on a literal into the constant
            k, v, o = self.peek()
            if k == "int":
                self.next()
                return IntConst(-int(v))
            child = self._check(self.parse_unary(), INT, off)
            return Unary("neg", child)
        if val == "!":
            self.next()
            child = self._check(self.parse_unary(), BOOL, off)
            return Unary("!", child)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "int":
            return IntConst(int(val))
        if kind == "ident":
            if val == "true":
                return BoolConst(True)
            if val == "false":
                return BoolConst(False)
            if val in ("min", "max"):
                self.expect("(")
                loff = self.peek()[2]
                left = self._check(self.parse_or(), INT, loff)
                self.expect(",")
                roff = self.peek()[2]
                right = self._check(self.parse_or(), INT, roff)
                self.expect(")")
                return Binary(val, left, right)
            return Var(val)
        if val == "(":
            e = self.parse_or()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {val or 'end of input'!r}", off)


def parse_infix(text: str) -> Expr:
    return _InfixParser(text).parse()


_PREC = {"||": 1, "&&": 2, "<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3, "!=": 3,
         "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}


def print_infix(e: Expr) -> str:
    def go(e: Expr, parent_prec: int, rhs: bool) -> str:
        if isinstance(e, Var):
            return e.name
        if isinstance(e, IntConst):
            return str(e.value)
        if isinstance(e, BoolConst):
            return "true" if e.value else "false"
        if isinstance(e, Unary):
            sym = "-" if e.op == "neg" else "!"
            # a negated literal must not print as `-3`, which the parser
            # would fold back into a single negative constant
            if e.op == "neg" and isinstance(e.child, IntConst) and e.child.value >= 0:
                return f"-({e.child.value})"
            return f"{sym}{go(e.child, 6, True)}"
        if e.op in ("min", "max"):
            return f"{e.op}({go(e.left, 0, False)}, {go(e.right, 0, False)})"
        p = _PREC[e.op]
        s = f"{go(e.left, p, False)} {e.op} {go(e.right, p, True)}"
        # parenthesize at equal precedence on the right (left-associative ops)
        # and always for nested comparisons
        if p < parent_prec or (p == parent_prec and rhs):
            return f"({s})"
        return s

    return go(e, 0, False)


# ---------------------------------------------------------------------------
# S-expression form, the canonical serialization for rules and golden tests.

def _tokenize_sexpr(text: str) -> list[tuple[str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            toks.append((c, i))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in "()":
            j += 1
        toks.append((text[i:j], i))
        i = j
    return toks


_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _sexpr_atom(tok: str, off: int, allow_patvars: bool) -> Expr:
    if tok == "true":
        return BoolConst(True)
    if tok == "false":
        return BoolConst(False)
    if tok.removeprefix("-").isdecimal():
        return IntConst(int(tok))
    if allow_patvars and tok.startswith("?"):
        from .matching import PatVar  # local import to avoid a cycle
        if len(tok) > 1 and all(ch in _IDENT_OK for ch in tok[1:]):
            return PatVar(tok[1:])
        raise ParseError(f"bad pattern variable {tok!r}", off)
    if tok[0].isalpha() or tok[0] == "_":
        if all(ch in _IDENT_OK for ch in tok):
            return Var(tok)
    raise ParseError(f"bad atom {tok!r}", off)


def _parse_sexpr_at(toks, i, allow_patvars):
    if i >= len(toks):
        raise ParseError("unexpected end of input")
    tok, off = toks[i]
    if tok == ")":
        raise ParseError("unexpected ')'", off)
    if tok != "(":
        return _sexpr_atom(tok, off, allow_patvars), i + 1
    if i + 1 >= len(toks):
        raise ParseError("unexpected end of input after '('", off)
    head, hoff = toks[i + 1]
    if head in ("(", ")"):
        raise ParseError("expected operator symbol", hoff)
    args = []
    j = i + 2
    while j < len(toks) and toks[j][0] != ")":
        arg, j = _parse_sexpr_at(toks, j, allow_patvars)
        args.append(arg)
    if j >= len(toks):
        raise ParseError("missing ')'", off)
    j += 1
    if head in UNARY_OPS or head == "not":
        if len(args) != 1:
            raise ParseError(f"operator {head!r} takes 1 argument, got {len(args)}", hoff)
        return Unary("!" if head == "not" else head, args[0]), j
    if head in BINARY_OPS:
        if len(args) != 2:
            raise ParseError(f"operator {head!r} takes 2 arguments, got {len(args)}", hoff)
        return Binary(head, args[0], args[1]), j
    raise ParseError(f"unknown operator {head!r}", hoff)


def parse_sexpr(text: str, allow_patvars: bool = False) -> Expr:
    toks = _tokenize_sexpr(text)
    if not toks:
        raise ParseError("empty input")
    e, i = _parse_sexpr_at(toks, 0, allow_patvars)
    if i != len(toks):
        raise ParseError("unexpected trailing input", toks[i][1])
    if not allow_patvars:
        sort_of(e)
    return e


def print_sexpr(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, BoolConst):
        return "true" if e.value else "false"
    if isinstance(e, Unary):
        return f"({e.op} {print_sexpr(e.child)})"
    if isinstance(e, Binary):
        return f"({e.op} {print_sexpr(e.left)} {print_sexpr(e.right)})"
    # pattern leaves print as ?name; see matching.PatVar
    from .matching import PatVar
    if isinstance(e, PatVar):
        return f"?{e.name}"
    raise TypeError(f"not an Expr: {e!r}")
