"""The rule file format, and the built-in ruleset and non-provable patterns.

Rule files are line-oriented s-expressions:

    (rule <name> <lhs> <rhs> [:if <cond>])
    (nppd <id> <pattern> :if <cond>)

Patterns are terms in `expr.parse_sexpr`'s grammar, read by the same
reader and builder, with pattern variables written ``?x``; identifiers are
those of infix expressions. Condition forms: ``(const ?x)``,
``(nonconst ?x)``, ``(nonzero ?x)``, ``(isvar ?x)``,
``(pred <boolean expression over matched constants>)`` and ``(and ...)``.
Inside ``pred``, ``and``/``or``/``not`` alias the boolean operators and
``(abs x)`` is shorthand for ``max(x, -x)``. ``;`` and ``#`` start comments.
A malformed file raises ParseError or SortError naming the line.
"""

from __future__ import annotations

from functools import cache

from .expr import ParseError, PatVar, SortError, build_term, read_sexprs
from .matching import (
    CondAnd, CondIsConst, CondIsVar, CondNonConst, CondNonZero, CondPred,
    Condition, NPPattern, Rule,
)

# ---------------------------------------------------------------------------
# Conditions. Terms are read by `expr.read_sexprs` and `expr.build_term`;
# only the rule, nppd and condition forms are read here.

_VAR_CONDS = {"const": CondIsConst, "nonconst": CondNonConst,
              "nonzero": CondNonZero, "isvar": CondIsVar}


def _desugar(node):
    """`pred`'s aliases rewritten to core operators: `and`/`or` take two or
    more arguments and fold to the left, and `(abs x)` is `(max x (neg x))`."""
    off, v = node
    if isinstance(v, str) or not v or not isinstance(v[0][1], str):
        return node
    (hoff, head), args = v[0], [_desugar(a) for a in v[1:]]
    if head == "abs":
        if len(args) != 1:
            raise ParseError(f"abs takes 1 argument, got {len(args)}", hoff)
        return off, [(hoff, "max"), args[0], (off, [(hoff, "neg"), args[0]])]
    op = {"and": "&&", "or": "||"}.get(head)
    if op is None:
        return off, [v[0], *args]
    if len(args) < 2:
        raise ParseError(f"{head} takes 2 or more arguments, got {len(args)}", hoff)
    out = args[0]
    for a in args[1:]:
        out = off, [(hoff, op), out, a]
    return out


def _cond(node) -> Condition:
    off, v = node
    if isinstance(v, str) or not v or not isinstance(v[0][1], str):
        raise ParseError("expected a condition form", off)
    (hoff, head), args = v[0], v[1:]
    if head == "and":
        return CondAnd(tuple(_cond(a) for a in args))
    if head != "pred" and head not in _VAR_CONDS:
        raise ParseError(f"unknown condition form {head!r}", hoff)
    if len(args) != 1:
        raise ParseError(f"{head} takes 1 argument, got {len(args)}", hoff)
    if head == "pred":
        return CondPred(build_term(_desugar(args[0]), patvars=True))
    var = build_term(args[0], patvars=True)
    if not isinstance(var, PatVar):
        raise ParseError(f"{head} takes a pattern variable", args[0][0])
    return _VAR_CONDS[head](var.name)


# ---------------------------------------------------------------------------
# Rulesets.

class Ruleset:
    """A named list of rules, no two of one name."""

    def __init__(self, name: str, rules: list[Rule] | None = None):
        self.name, self.rules = name, [] if rules is None else rules
        names = [r.name for r in self.rules]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate rule names: {sorted(dupes)}")

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


# ---------------------------------------------------------------------------
# Parsing of rule and NPPD files.

def _rule(items) -> Rule:
    if len(items) not in (4, 6):
        raise ParseError("rule takes name, lhs, rhs and optional :if cond", items[0][0])
    return Rule(_name(items[1], "rule"), build_term(items[2], patvars=True),
                build_term(items[3], patvars=True),
                _if_cond(items[4:]) if len(items) == 6 else None)


def _nppd(items) -> NPPattern:
    if len(items) != 5:
        raise ParseError("nppd takes id, pattern, :if cond", items[0][0])
    return NPPattern(_name(items[1], "nppd"), build_term(items[2], patvars=True),
                     _if_cond(items[3:]))


def _name(node, form: str) -> str:
    off, v = node
    if not isinstance(v, str):
        raise ParseError(f"{form} name must be an atom", off)
    return v


def _if_cond(items) -> Condition:
    (off, kw), cond = items
    if kw != ":if":
        raise ParseError("expected ':if' before the condition", off)
    return _cond(cond)


def _parse_forms(text: str, keyword: str, build) -> list:
    """`build` applied to each `(keyword ...)` form of `text`, validated, and
    named by its second atom, which no other form may repeat; an error
    names the line it is on."""
    pos, out, names = 0, [], set()
    try:
        for pos, v in read_sexprs(text):
            if isinstance(v, str) or not v or v[0][1] != keyword:
                raise ParseError(f"expected ({keyword} ...) form", pos)
            item = build(v)
            item.validate()
            off, name = v[1]
            if name in names:
                raise ParseError(f"duplicate {keyword} {name!r}", off)
            names.add(name)
            out.append(item)
    except (ParseError, SortError) as e:
        at = pos if e.offset is None else e.offset
        raise type(e)(f"line {text.count(chr(10), 0, at) + 1}: {e.message}") from None
    return out


def parse_rules(text: str, name: str = "loaded") -> Ruleset:
    return Ruleset(name, _parse_forms(text, "rule", _rule))


def parse_nppd(text: str) -> list[NPPattern]:
    return _parse_forms(text, "nppd", _nppd)


def load_rules(path) -> Ruleset:
    with open(path, "r", encoding="utf-8-sig") as f:
        return parse_rules(f.read(), name=str(path))


def load_nppd(path) -> list[NPPattern]:
    with open(path, "r", encoding="utf-8-sig") as f:
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

@cache
def default_ruleset() -> Ruleset:
    return parse_rules(DEFAULT_RULES_TEXT, name="builtin")


@cache
def default_nppd_patterns() -> list[NPPattern]:
    return parse_nppd(DEFAULT_NPPD_TEXT)
