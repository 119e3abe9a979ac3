"""Built-in axiomatic ruleset, non-provable patterns, and rule file I/O.

Rule files are line-oriented s-expressions:

    (rule <name> <lhs> <rhs> [:if <cond>])
    (nppd <id> <pattern> :if <cond>)

Pattern variables are written ``?x``. Condition forms: ``(const ?x)``,
``(nonconst ?x)``, ``(nonzero ?x)``, ``(isvar ?x)``,
``(pred <boolean expression over matched constants>)`` and ``(and ...)``.
Inside ``pred``, ``and``/``or``/``not`` alias the boolean operators and
``(abs x)`` is shorthand for ``max(x, -x)``. Lines starting with ``;`` or
``#`` are comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .expr import (
    BINARY_OPS, BOOL, UNARY_OPS,
    Binary, BoolConst, IntConst, ParseError, SortError, Unary, Var,
)
from .matching import (
    CondAnd, CondIsConst, CondIsVar, CondNonConst, CondNonZero, CondPred,
    Condition, Matcher, PatVar, Pattern, Rule, check_pattern_sort,
)

# ---------------------------------------------------------------------------
# Generic s-expression reader (nested lists of atom strings).

def _read_sexprs(text: str) -> list[tuple[object, int]]:
    """All top-level s-expressions in `text`, with their line numbers."""
    items: list[tuple[object, int]] = []
    stack: list[list] = []
    starts: list[int] = []
    line = 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c in ";#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "(":
            stack.append([])
            starts.append(line)
            i += 1
            continue
        if c == ")":
            if not stack:
                raise ParseError(f"line {line}: unmatched ')'")
            done = stack.pop()
            start = starts.pop()
            if stack:
                stack[-1].append(done)
            else:
                items.append((done, start))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in "();#":
            j += 1
        atom = text[i:j]
        if stack:
            stack[-1].append(atom)
        else:
            items.append((atom, line))
        i = j
    if stack:
        raise ParseError(f"line {starts[-1]}: unclosed '('")
    return items


def _pattern_from_sexp(sx, line: int) -> Pattern:
    if isinstance(sx, str):
        if sx == "true":
            return BoolConst(True)
        if sx == "false":
            return BoolConst(False)
        if sx.startswith("?") and len(sx) > 1:
            return PatVar(sx[1:])
        if sx.lstrip("-").isdigit() and sx != "-":
            return IntConst(int(sx))
        if sx[0].isalpha() or sx[0] == "_":
            return Var(sx)
        raise ParseError(f"line {line}: bad atom {sx!r}")
    if not sx or isinstance(sx[0], list):
        raise ParseError(f"line {line}: expected operator symbol")
    head, args = sx[0], sx[1:]
    if head == "not":
        head = "!"
    if head in UNARY_OPS:
        if len(args) != 1:
            raise ParseError(f"line {line}: {head!r} takes 1 argument")
        return Unary(head, _pattern_from_sexp(args[0], line))
    if head in BINARY_OPS:
        if len(args) != 2:
            raise ParseError(f"line {line}: {head!r} takes 2 arguments")
        return Binary(head, _pattern_from_sexp(args[0], line),
                      _pattern_from_sexp(args[1], line))
    raise ParseError(f"line {line}: unknown operator {head!r}")


def _pred_from_sexp(sx, line: int) -> Pattern:
    if isinstance(sx, list) and sx:
        head = sx[0]
        if head == "abs":
            if len(sx) != 2:
                raise ParseError(f"line {line}: abs takes 1 argument")
            inner = _pred_from_sexp(sx[1], line)
            return Binary("max", inner, Unary("neg", inner))
        alias = {"and": "&&", "or": "||", "not": "!"}.get(head)
        if alias == "!":
            if len(sx) != 2:
                raise ParseError(f"line {line}: not takes 1 argument")
            return Unary("!", _pred_from_sexp(sx[1], line))
        if alias:
            args = [_pred_from_sexp(a, line) for a in sx[1:]]
            if len(args) < 2:
                raise ParseError(f"line {line}: {head!r} takes 2+ arguments")
            out = args[0]
            for a in args[1:]:
                out = Binary(alias, out, a)
            return out
        return _pattern_binary_pred(sx, line)
    return _pattern_from_sexp(sx, line)


def _pattern_binary_pred(sx, line: int) -> Pattern:
    head, args = sx[0], sx[1:]
    if head in UNARY_OPS:
        if len(args) != 1:
            raise ParseError(f"line {line}: {head!r} takes 1 argument")
        return Unary(head, _pred_from_sexp(args[0], line))
    if head in BINARY_OPS:
        if len(args) != 2:
            raise ParseError(f"line {line}: {head!r} takes 2 arguments")
        return Binary(head, _pred_from_sexp(args[0], line),
                      _pred_from_sexp(args[1], line))
    raise ParseError(f"line {line}: unknown operator {head!r} in pred")


def _var_name(sx, line: int) -> str:
    if isinstance(sx, str) and sx.startswith("?") and len(sx) > 1:
        return sx[1:]
    raise ParseError(f"line {line}: expected pattern variable, got {sx!r}")


def _cond_from_sexp(sx, line: int) -> Condition:
    if not isinstance(sx, list) or not sx or not isinstance(sx[0], str):
        raise ParseError(f"line {line}: bad condition {sx!r}")
    head = sx[0]
    if head == "and":
        return CondAnd(tuple(_cond_from_sexp(a, line) for a in sx[1:]))
    if head == "const":
        return CondIsConst(_var_name(sx[1], line))
    if head == "nonconst":
        return CondNonConst(_var_name(sx[1], line))
    if head == "nonzero":
        return CondNonZero(_var_name(sx[1], line))
    if head == "isvar":
        return CondIsVar(_var_name(sx[1], line))
    if head == "pred":
        if len(sx) != 2:
            raise ParseError(f"line {line}: pred takes 1 argument")
        return CondPred(_pred_from_sexp(sx[1], line))
    raise ParseError(f"line {line}: unknown condition form {head!r}")


# ---------------------------------------------------------------------------
# Serialization back to the rule-file grammar.

def _sexp_of_pattern(p: Pattern) -> str:
    if isinstance(p, PatVar):
        return f"?{p.name}"
    if isinstance(p, Var):
        return p.name
    if isinstance(p, IntConst):
        return str(p.value)
    if isinstance(p, BoolConst):
        return "true" if p.value else "false"
    if isinstance(p, Unary):
        return f"({p.op} {_sexp_of_pattern(p.child)})"
    return f"({p.op} {_sexp_of_pattern(p.left)} {_sexp_of_pattern(p.right)})"


def _sexp_of_cond(c: Condition) -> str:
    if isinstance(c, CondAnd):
        return "(and " + " ".join(_sexp_of_cond(i) for i in c.items) + ")"
    if isinstance(c, CondIsConst):
        return f"(const ?{c.var})"
    if isinstance(c, CondNonConst):
        return f"(nonconst ?{c.var})"
    if isinstance(c, CondNonZero):
        return f"(nonzero ?{c.var})"
    if isinstance(c, CondIsVar):
        return f"(isvar ?{c.var})"
    if isinstance(c, CondPred):
        return f"(pred {_sexp_of_pattern(c.expr)})"
    raise TypeError(f"not a condition: {c!r}")


def rule_to_line(r: Rule) -> str:
    s = f"(rule {r.name} {_sexp_of_pattern(r.lhs)} {_sexp_of_pattern(r.rhs)}"
    if r.cond is not None:
        s += f" :if {_sexp_of_cond(r.cond)}"
    return s + ")"


# ---------------------------------------------------------------------------
# Domain types.

@dataclass
class Ruleset:
    name: str
    rules: list[Rule] = field(default_factory=list)

    def __post_init__(self):
        names = [r.name for r in self.rules]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate rule names: {sorted(dupes)}")

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def serialize(self) -> str:
        return "\n".join(rule_to_line(r) for r in self.rules) + "\n"


@dataclass(frozen=True)
class NPPattern:
    """A pattern whose instances the ruleset is known to be unable to decide."""
    id: str
    pattern: Pattern
    cond: Condition

    @cached_property
    def matcher(self) -> Matcher:
        """The pattern compiled for e-matching, built on first use."""
        return Matcher(self.pattern)

    def validate(self):
        env: dict[str, str] = {}
        check_pattern_sort(self.pattern, BOOL, env)


def nppd_to_line(p: NPPattern) -> str:
    return f"(nppd {p.id} {_sexp_of_pattern(p.pattern)} :if {_sexp_of_cond(p.cond)})"


# ---------------------------------------------------------------------------
# Parsing of rule and NPPD files.

def parse_rules(text: str, name: str = "loaded") -> Ruleset:
    rules = []
    for sx, line in _read_sexprs(text):
        if not isinstance(sx, list) or not sx:
            raise ParseError(f"line {line}: expected (rule ...) form")
        if sx[0] != "rule":
            raise ParseError(f"line {line}: expected 'rule', got {sx[0]!r}")
        if len(sx) not in (4, 6):
            raise ParseError(f"line {line}: rule takes name, lhs, rhs and optional :if cond")
        rname = sx[1]
        if not isinstance(rname, str):
            raise ParseError(f"line {line}: rule name must be an atom")
        lhs = _pattern_from_sexp(sx[2], line)
        rhs = _pattern_from_sexp(sx[3], line)
        cond = None
        if len(sx) == 6:
            if sx[4] != ":if":
                raise ParseError(f"line {line}: expected ':if', got {sx[4]!r}")
            cond = _cond_from_sexp(sx[5], line)
        rule = Rule(rname, lhs, rhs, cond)
        try:
            rule.validate()
        except SortError as e:
            raise SortError(f"line {line}: {e}") from None
        rules.append(rule)
    return Ruleset(name, rules)


def parse_nppd(text: str) -> list[NPPattern]:
    out = []
    for sx, line in _read_sexprs(text):
        if not isinstance(sx, list) or not sx or sx[0] != "nppd":
            raise ParseError(f"line {line}: expected (nppd ...) form")
        if len(sx) != 5 or sx[3] != ":if":
            raise ParseError(f"line {line}: nppd takes id, pattern, :if cond")
        pid = sx[1]
        if not isinstance(pid, str):
            raise ParseError(f"line {line}: nppd id must be an atom")
        pat = _pattern_from_sexp(sx[2], line)
        cond = _cond_from_sexp(sx[4], line)
        p = NPPattern(pid, pat, cond)
        try:
            p.validate()
        except SortError as e:
            raise SortError(f"line {line}: {e}") from None
        out.append(p)
    ids = [p.id for p in out]
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate non-provable pattern ids")
    return out


def load_rules(path) -> Ruleset:
    with open(path, "r", encoding="utf-8") as f:
        return parse_rules(f.read(), name=str(path))


def load_nppd(path) -> list[NPPattern]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_nppd(f.read())


# ---------------------------------------------------------------------------
# The built-in ruleset. Semantics throughout: floor division/modulo with
# x/0 = x%0 = 0. Every rule must survive random ground instantiation against
# the evaluator; the unit tests enforce this.

DEFAULT_RULES_TEXT = """
; --- additive structure ---
(rule add-comm (+ ?a ?b) (+ ?b ?a))
(rule add-assoc (+ (+ ?a ?b) ?c) (+ ?a (+ ?b ?c)))
(rule add-assoc-rev (+ ?a (+ ?b ?c)) (+ (+ ?a ?b) ?c))
(rule add-zero (+ ?a 0) ?a)
(rule add-self (+ ?a ?a) (* 2 ?a))
(rule sub-to-add (- ?a ?b) (+ ?a (neg ?b)))
(rule add-neg-to-sub (+ ?a (neg ?b)) (- ?a ?b))
(rule sub-zero (- ?a 0) ?a)
(rule zero-sub (- 0 ?a) (neg ?a))
(rule sub-self (- ?a ?a) 0)
(rule add-sub-cancel (- (+ ?a ?b) ?b) ?a)
(rule sub-add-cancel (+ (- ?a ?b) ?b) ?a)
(rule neg-to-mul (neg ?a) (* -1 ?a))
(rule mul-neg-one (* -1 ?a) (neg ?a))
(rule neg-neg (neg (neg ?a)) ?a)
(rule neg-add (neg (+ ?a ?b)) (+ (neg ?a) (neg ?b)))
(rule add-neg-neg (+ (neg ?a) (neg ?b)) (neg (+ ?a ?b)))
; --- multiplicative structure ---
(rule mul-comm (* ?a ?b) (* ?b ?a))
(rule mul-assoc (* (* ?a ?b) ?c) (* ?a (* ?b ?c)))
(rule mul-assoc-rev (* ?a (* ?b ?c)) (* (* ?a ?b) ?c))
(rule mul-one (* ?a 1) ?a)
(rule mul-zero (* ?a 0) 0)
(rule neg-mul (neg (* ?a ?b)) (* (neg ?a) ?b))
(rule mul-neg-left (* (neg ?a) ?b) (neg (* ?a ?b)))
(rule mul-dist-add (* ?a (+ ?b ?c)) (+ (* ?a ?b) (* ?a ?c)))
(rule mul-factor (+ (* ?a ?b) (* ?a ?c)) (* ?a (+ ?b ?c)))
(rule mul-dist-sub (* ?a (- ?b ?c)) (- (* ?a ?b) (* ?a ?c)))
; --- division and modulo (floor semantics, x/0 = x%0 = 0) ---
(rule div-one (/ ?a 1) ?a)
(rule div-by-zero (/ ?a 0) 0)
(rule zero-div (/ 0 ?a) 0)
(rule div-self (/ ?a ?a) 1 :if (nonzero ?a))
(rule mod-one (% ?a 1) 0)
(rule mod-by-zero (% ?a 0) 0)
(rule zero-mod (% 0 ?a) 0)
(rule mod-self (% ?a ?a) 0)
(rule mul-div-cancel (/ (* ?a ?b) ?b) ?a :if (nonzero ?b))
(rule mul-mod-zero (% (* ?a ?b) ?b) 0)
(rule mod-mod (% (% ?a ?b) ?b) (% ?a ?b))
(rule add-mul-mod (% (+ ?a (* ?b ?c)) ?c) (% ?a ?c))
(rule div-mod-decomp (+ (* (/ ?a ?b) ?b) (% ?a ?b)) ?a :if (nonzero ?b))
(rule div-shift-const (/ (+ ?a ?c1) ?c2) (+ (/ (+ ?a (- ?c1 ?c2)) ?c2) 1) :if (and (const ?c1) (nonzero ?c2)))
(rule div-div-pos (/ (/ ?a ?b) ?c) (/ ?a (* ?b ?c)) :if (pred (and (< 0 ?b) (< 0 ?c))))
(rule neg-div-neg (/ (neg ?a) (neg ?b)) (/ ?a ?b))
(rule neg-mod (% (neg ?a) (neg ?b)) (neg (% ?a ?b)))
; --- min / max ---
(rule min-comm (min ?a ?b) (min ?b ?a))
(rule min-assoc (min (min ?a ?b) ?c) (min ?a (min ?b ?c)))
(rule max-comm (max ?a ?b) (max ?b ?a))
(rule max-assoc (max (max ?a ?b) ?c) (max ?a (max ?b ?c)))
(rule min-self (min ?a ?a) ?a)
(rule max-self (max ?a ?a) ?a)
(rule min-max-absorb (min ?a (max ?a ?b)) ?a)
(rule max-min-absorb (max ?a (min ?a ?b)) ?a)
(rule min-add (+ (min ?a ?b) ?c) (min (+ ?a ?c) (+ ?b ?c)))
(rule min-add-factor (min (+ ?a ?c) (+ ?b ?c)) (+ (min ?a ?b) ?c))
(rule max-add (+ (max ?a ?b) ?c) (max (+ ?a ?c) (+ ?b ?c)))
(rule max-add-factor (max (+ ?a ?c) (+ ?b ?c)) (+ (max ?a ?b) ?c))
(rule min-to-neg-max (min ?a ?b) (neg (max (neg ?a) (neg ?b))))
(rule max-to-neg-min (max ?a ?b) (neg (min (neg ?a) (neg ?b))))
(rule min-mul-pos (* (min ?a ?b) ?c) (min (* ?a ?c) (* ?b ?c)) :if (pred (< 0 ?c)))
(rule max-mul-pos (* (max ?a ?b) ?c) (max (* ?a ?c) (* ?b ?c)) :if (pred (< 0 ?c)))
; --- comparison canonicalization ---
(rule gt-to-lt (> ?a ?b) (< ?b ?a))
(rule lt-to-gt (< ?a ?b) (> ?b ?a))
(rule ge-to-le (>= ?a ?b) (<= ?b ?a))
(rule le-to-ge (<= ?a ?b) (>= ?b ?a))
(rule le-to-not-lt (<= ?a ?b) (not (< ?b ?a)))
(rule not-lt-to-le (not (< ?b ?a)) (<= ?a ?b))
(rule lt-to-le-succ (< ?a ?b) (<= (+ ?a 1) ?b))
(rule le-succ-to-lt (<= (+ ?a 1) ?b) (< ?a ?b))
(rule eq-comm (== ?a ?b) (== ?b ?a))
(rule ne-comm (!= ?a ?b) (!= ?b ?a))
(rule eq-to-le-le (== ?a ?b) (&& (<= ?a ?b) (<= ?b ?a)))
(rule ne-to-not-eq (!= ?a ?b) (not (== ?a ?b)))
(rule not-eq-to-ne (not (== ?a ?b)) (!= ?a ?b))
(rule eq-sub-zero (== ?a ?b) (== (- ?a ?b) 0))
(rule lt-irrefl (< ?a ?a) false)
(rule le-refl (<= ?a ?a) true)
(rule eq-refl (== ?a ?a) true)
(rule ne-irrefl (!= ?a ?a) false)
; --- comparison shifting (sound for all integers) ---
(rule le-shift-add (<= (+ ?a ?b) ?c) (<= ?a (- ?c ?b)))
(rule le-shift-add-rev (<= ?a (+ ?b ?c)) (<= (- ?a ?c) ?b))
(rule lt-shift-add (< (+ ?a ?b) ?c) (< ?a (- ?c ?b)))
(rule lt-shift-add-rev (< ?a (+ ?b ?c)) (< (- ?a ?c) ?b))
(rule eq-shift-add (== (+ ?a ?b) ?c) (== ?a (- ?c ?b)))
(rule le-add-both (<= (+ ?a ?c) (+ ?b ?c)) (<= ?a ?b))
(rule lt-add-both (< (+ ?a ?c) (+ ?b ?c)) (< ?a ?b))
(rule eq-add-both (== (+ ?a ?c) (+ ?b ?c)) (== ?a ?b))
(rule lt-mul-pos (< (* ?a ?c) (* ?b ?c)) (< ?a ?b) :if (pred (< 0 ?c)))
(rule le-mul-pos (<= (* ?a ?c) (* ?b ?c)) (<= ?a ?b) :if (pred (< 0 ?c)))
(rule lt-neg-swap (< (neg ?a) (neg ?b)) (< ?b ?a))
(rule le-neg-swap (<= (neg ?a) (neg ?b)) (<= ?b ?a))
; --- min / max versus comparisons ---
(rule min-le-left (<= (min ?a ?b) ?a) true)
(rule le-max-left (<= ?a (max ?a ?b)) true)
(rule le-min-decomp (<= ?c (min ?a ?b)) (&& (<= ?c ?a) (<= ?c ?b)))
(rule max-le-decomp (<= (max ?a ?b) ?c) (&& (<= ?a ?c) (<= ?b ?c)))
(rule min-le-decomp (<= (min ?a ?b) ?c) (|| (<= ?a ?c) (<= ?b ?c)))
(rule le-max-decomp (<= ?c (max ?a ?b)) (|| (<= ?c ?a) (<= ?c ?b)))
(rule lt-min-decomp (< (min ?a ?b) ?c) (|| (< ?a ?c) (< ?b ?c)))
(rule lt-max-decomp (< ?c (max ?a ?b)) (|| (< ?c ?a) (< ?c ?b)))
(rule min-gt-decomp (< ?c (min ?a ?b)) (&& (< ?c ?a) (< ?c ?b)))
(rule max-lt-decomp (< (max ?a ?b) ?c) (&& (< ?a ?c) (< ?b ?c)))
; --- boolean algebra ---
(rule and-comm (&& ?a ?b) (&& ?b ?a))
(rule and-assoc (&& (&& ?a ?b) ?c) (&& ?a (&& ?b ?c)))
(rule or-comm (|| ?a ?b) (|| ?b ?a))
(rule or-assoc (|| (|| ?a ?b) ?c) (|| ?a (|| ?b ?c)))
(rule and-true (&& ?a true) ?a)
(rule and-false (&& ?a false) false)
(rule or-true (|| ?a true) true)
(rule or-false (|| ?a false) ?a)
(rule and-self (&& ?a ?a) ?a)
(rule or-self (|| ?a ?a) ?a)
(rule not-not (not (not ?a)) ?a)
(rule demorgan-and (not (&& ?a ?b)) (|| (not ?a) (not ?b)))
(rule demorgan-or (not (|| ?a ?b)) (&& (not ?a) (not ?b)))
(rule and-absorb (&& ?a (|| ?a ?b)) ?a)
(rule or-absorb (|| ?a (&& ?a ?b)) ?a)
(rule and-dist-or (&& ?a (|| ?b ?c)) (|| (&& ?a ?b) (&& ?a ?c)))
(rule or-dist-and (|| ?a (&& ?b ?c)) (&& (|| ?a ?b) (|| ?a ?c)))
(rule and-not-self (&& ?a (not ?a)) false)
(rule or-not-self (|| ?a (not ?a)) true)
(rule lt-antisym (&& (< ?a ?b) (< ?b ?a)) false)
(rule lt-total (|| (< ?a ?b) (<= ?b ?a)) true)
; --- ordering facts with constant offsets ---
(rule le-succ-true (<= ?a (+ ?a ?c)) true :if (pred (<= 0 ?c)))
(rule lt-succ-true (< ?a (+ ?a ?c)) true :if (pred (< 0 ?c)))
(rule add-le-true (<= (+ ?a ?c) ?a) true :if (pred (<= ?c 0)))
(rule sub-le-true (<= (- ?a ?c) ?a) true :if (pred (<= 0 ?c)))
; --- division/modulo bound axioms ---
(rule div-mul-le (<= (* (/ ?a ?c1) ?c1) ?a) true :if (pred (< 0 ?c1)))
(rule div-le-mono (<= (/ ?a ?c1) (/ (+ ?a ?c2) ?c1)) true :if (pred (and (< 0 ?c1) (<= 0 ?c2))))
(rule le-div-shift (<= (+ (/ ?a ?c1) ?c2) (/ (+ ?a ?c3) ?c1)) true :if (pred (and (< 0 ?c1) (<= (* ?c2 ?c1) ?c3))))
(rule le-mul-div-round (<= ?a (* (/ (+ ?a ?c1) ?c2) ?c2)) true :if (pred (and (< 0 ?c2) (<= (- ?c2 1) ?c1))))
(rule mod-lb-true (<= ?c0 (% ?a ?c1)) true :if (pred (and (<= ?c0 0) (< 0 ?c1))))
(rule mod-ub-lt-true (< (% ?a ?c1) ?c0) true :if (pred (and (not (== ?c1 0)) (<= (abs ?c1) ?c0))))
(rule mod-ub-le-true (<= (% ?a ?c1) ?c0) true :if (pred (and (not (== ?c1 0)) (<= (- (abs ?c1) 1) ?c0))))
(rule mod-gt-false (< ?c0 (% ?a ?c1)) false :if (pred (and (not (== ?c1 0)) (<= (- (abs ?c1) 1) ?c0))))
(rule mod-ge-false (<= ?c0 (% ?a ?c1)) false :if (pred (and (not (== ?c1 0)) (<= (abs ?c1) ?c0))))
(rule mod-lt-false (< (% ?a ?c1) ?c0) false :if (pred (and (< 0 ?c1) (<= ?c0 0))))
(rule mod-le-false (<= (% ?a ?c1) ?c0) false :if (pred (and (< 0 ?c1) (< ?c0 0))))
(rule mod-nonneg (<= 0 (% ?a ?c1)) true :if (pred (< 0 ?c1)))
"""

DEFAULT_NPPD_TEXT = """
; Patterns the axiomatic ruleset cannot decide, with the side conditions
; under which they are genuinely undecidable (both truth values reachable).
(nppd var-ne-const (!= ?x ?c) :if (and (const ?c) (nonconst ?x)))
(nppd const-lt-mod (< ?c (% ?a ?b)) :if (and (nonconst ?a) (pred (and (< 0 ?b) (<= 0 ?c) (< ?c (- ?b 1))))))
(nppd mod-lt-const (< (% ?a ?b) ?c) :if (and (nonconst ?a) (pred (and (< 0 ?b) (< 0 ?c) (< ?c ?b)))))
(nppd var-eq-const (== ?x ?c) :if (and (const ?c) (nonconst ?x)))
(nppd const-lt-var (< ?c ?x) :if (and (const ?c) (isvar ?x)))
"""

_DEFAULT_RULESET: Ruleset | None = None
_DEFAULT_NPPD: list[NPPattern] | None = None


def default_ruleset() -> Ruleset:
    global _DEFAULT_RULESET
    if _DEFAULT_RULESET is None:
        _DEFAULT_RULESET = parse_rules(DEFAULT_RULES_TEXT, name="builtin")
    return _DEFAULT_RULESET


def default_nppd_patterns() -> list[NPPattern]:
    global _DEFAULT_NPPD
    if _DEFAULT_NPPD is None:
        _DEFAULT_NPPD = parse_nppd(DEFAULT_NPPD_TEXT)
    return _DEFAULT_NPPD
