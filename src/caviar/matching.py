"""Patterns, e-matching, conditions, and rewrite rule application."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

from .egraph import EClassId, EGraph, ENode, leaf
from .expr import (
    ARITH_OPS, BOOL, CMP_OPS, INT, LOGIC_OPS,
    Binary, BoolConst, Expr, IntConst, SortError, Unary, Var, apply_op,
)


@dataclass(frozen=True)
class PatVar:
    name: str


Pattern = Union[Expr, PatVar]
Substitution = dict  # pattern variable name -> EClassId


def pattern_vars(p: Pattern) -> list[str]:
    """Pattern variable names in first-occurrence order."""
    out: list[str] = []

    def go(p):
        if isinstance(p, PatVar):
            if p.name not in out:
                out.append(p.name)
        elif isinstance(p, Unary):
            go(p.child)
        elif isinstance(p, Binary):
            go(p.left)
            go(p.right)

    go(p)
    return out


def check_pattern_sort(p: Pattern, expected: str, env: dict[str, str]) -> None:
    """Check a pattern against an expected sort, inferring variable sorts."""
    if isinstance(p, PatVar):
        prev = env.setdefault(p.name, expected)
        if prev != expected:
            raise SortError(f"pattern variable ?{p.name} used at sorts {prev} and {expected}")
        return
    if isinstance(p, Var):
        if expected != INT:
            raise SortError(f"ground variable {p.name} is int-sorted, expected {expected}")
        return
    if isinstance(p, IntConst):
        if expected != INT:
            raise SortError(f"integer literal where {expected} expected")
        return
    if isinstance(p, BoolConst):
        if expected != BOOL:
            raise SortError(f"boolean literal where {expected} expected")
        return
    if isinstance(p, Unary):
        if p.op == "neg":
            if expected != INT:
                raise SortError("neg produces int")
            check_pattern_sort(p.child, INT, env)
        else:
            if expected != BOOL:
                raise SortError("! produces bool")
            check_pattern_sort(p.child, BOOL, env)
        return
    if isinstance(p, Binary):
        if p.op in ARITH_OPS:
            if expected != INT:
                raise SortError(f"{p.op} produces int, expected {expected}")
            child = INT
        elif p.op in CMP_OPS:
            if expected != BOOL:
                raise SortError(f"{p.op} produces bool, expected {expected}")
            child = INT
        elif p.op in LOGIC_OPS:
            if expected != BOOL:
                raise SortError(f"{p.op} produces bool, expected {expected}")
            child = BOOL
        else:
            raise SortError(f"unknown operator {p.op}")
        check_pattern_sort(p.left, child, env)
        check_pattern_sort(p.right, child, env)
        return
    raise TypeError(f"not a pattern: {p!r}")


def pattern_root_sort(p: Pattern) -> str | None:
    """Sort determined by the pattern's root node, if any."""
    if isinstance(p, PatVar):
        return None
    if isinstance(p, (Var, IntConst)):
        return INT
    if isinstance(p, BoolConst):
        return BOOL
    if isinstance(p, Unary):
        return INT if p.op == "neg" else BOOL
    return INT if p.op in ARITH_OPS else BOOL


# ---------------------------------------------------------------------------
# Conditions. Decidable from per-class constant data only.

@dataclass(frozen=True)
class CondIsConst:
    var: str


@dataclass(frozen=True)
class CondNonConst:
    var: str


@dataclass(frozen=True)
class CondNonZero:
    var: str


@dataclass(frozen=True)
class CondIsVar:
    """Holds when the matched class contains a bare-variable e-node."""
    var: str


@dataclass(frozen=True)
class CondPred:
    # boolean pattern expression over constants; (abs x) in the source
    # grammar is normalized to max(x, -x) at parse time
    expr: Pattern


@dataclass(frozen=True)
class CondAnd:
    items: tuple


Condition = Union[CondIsConst, CondNonConst, CondNonZero, CondIsVar, CondPred, CondAnd]


def condition_vars(c: Condition) -> list[str]:
    if isinstance(c, CondAnd):
        out = []
        for item in c.items:
            for v in condition_vars(item):
                if v not in out:
                    out.append(v)
        return out
    if isinstance(c, CondPred):
        return pattern_vars(c.expr)
    return [c.var]


def eval_pattern_ground(p: Pattern, env: dict):
    if isinstance(p, (PatVar, Var)):
        return env[p.name]
    if isinstance(p, (IntConst, BoolConst)):
        return p.value
    if isinstance(p, Unary):
        return apply_op(p.op, eval_pattern_ground(p.child, env))
    return apply_op(p.op, eval_pattern_ground(p.left, env), eval_pattern_ground(p.right, env))


def eval_condition(cond: Condition, g: EGraph, subst: Substitution) -> bool:
    """Evaluate a condition against e-class constant data. Never mutates."""
    if isinstance(cond, CondAnd):
        return all(eval_condition(c, g, subst) for c in cond.items)
    if isinstance(cond, CondIsConst):
        return g.class_data(subst[cond.var]) is not None
    if isinstance(cond, CondNonConst):
        return g.class_data(subst[cond.var]) is None
    if isinstance(cond, CondNonZero):
        d = g.class_data(subst[cond.var])
        return d is not None and d != 0
    if isinstance(cond, CondIsVar):
        return any(n.op == "var" for n in g.classes[g.find(subst[cond.var])].nodes)
    if isinstance(cond, CondPred):
        env = {}
        for v in pattern_vars(cond.expr):
            d = g.class_data(subst[v])
            if d is None:
                return False
            env[v] = d
        return bool(eval_pattern_ground(cond.expr, env))
    raise TypeError(f"not a condition: {cond!r}")


def eval_condition_ground(cond: Condition, values: dict) -> bool:
    """Ground semantics of a condition, used by rule soundness testing.

    Every variable is a known constant in a ground instantiation, so
    IsConst holds and NonConst fails.
    """
    if isinstance(cond, CondAnd):
        return all(eval_condition_ground(c, values) for c in cond.items)
    if isinstance(cond, CondIsConst):
        return True
    if isinstance(cond, CondNonConst):
        return False
    if isinstance(cond, CondNonZero):
        return values[cond.var] != 0
    if isinstance(cond, CondIsVar):
        return False
    if isinstance(cond, CondPred):
        return bool(eval_pattern_ground(cond.expr, values))
    raise TypeError(f"not a condition: {cond!r}")


# ---------------------------------------------------------------------------
# Rules.

@dataclass(frozen=True)
class Rule:
    name: str
    lhs: Pattern
    rhs: Pattern
    cond: Condition | None = None

    @cached_property
    def matcher(self) -> Matcher:
        """The lhs compiled for e-matching, built on first use."""
        return Matcher(self.lhs)

    def validate(self) -> dict[str, str]:
        """Check sort consistency and variable scoping; returns var sorts."""
        lv, rv = pattern_vars(self.lhs), pattern_vars(self.rhs)
        extra = [v for v in rv if v not in lv]
        if extra:
            raise SortError(f"rule {self.name}: rhs variables {extra} not bound by lhs")
        sort = pattern_root_sort(self.lhs) or pattern_root_sort(self.rhs)
        if sort is None:
            raise SortError(f"rule {self.name}: cannot determine sort of bare-variable rule")
        env: dict[str, str] = {}
        check_pattern_sort(self.lhs, sort, env)
        check_pattern_sort(self.rhs, sort, env)
        if self.cond is not None:
            for v in condition_vars(self.cond):
                if v not in lv:
                    raise SortError(f"rule {self.name}: condition variable ?{v} not bound by lhs")
        return env


# ---------------------------------------------------------------------------
# E-matching: patterns compile once to nested closures over the stored
# e-nodes, which `rebuild` keeps canonical; match only a rebuilt graph.

def _compile(p: Pattern, names: list[str]):
    """Matcher `m(g, cid, vals)` for `p` at class `cid`: an iterable, lazy
    for operators, of the extensions of the binding tuple `vals` under which
    `p` matches, in e-node order. `names`, the variables of `vals` in order,
    gains those that `p` binds first."""
    if isinstance(p, PatVar):
        if p.name in names:
            i = names.index(p.name)
            return lambda g, cid, vals: (vals,) if vals[i] == cid else ()
        names.append(p.name)
        return lambda g, cid, vals: (vals + (cid,),)
    if isinstance(p, (Var, IntConst, BoolConst)):
        node = (leaf("var", p.name) if isinstance(p, Var) else
                leaf("bool" if isinstance(p, BoolConst) else "int", p.value))
        return lambda g, cid, vals: (vals,) if node in g.classes[cid].nodes else ()
    op = p.op
    if isinstance(p, Unary):
        child = _compile(p.child, names)
        return lambda g, cid, vals: (
            v1 for n in g.classes[cid].nodes if n.op == op
            for v1 in child(g, n.children[0], vals))
    left, right = _compile(p.left, names), _compile(p.right, names)
    return lambda g, cid, vals: (
        v2 for n in g.classes[cid].nodes if n.op == op
        for v1 in left(g, n.children[0], vals)
        for v2 in right(g, n.children[1], v1))


class Matcher:
    """A pattern compiled once for e-matching. Pickles as its pattern."""

    def __init__(self, pattern: Pattern):
        self.pattern, self.names = pattern, []
        self._match = _compile(pattern, self.names)

    def __reduce__(self):
        return (Matcher, (self.pattern,))

    def match_class(self, g: EGraph, cid: EClassId) -> Iterator[Substitution]:
        """Yields the matches against one e-class, deduplicated, in
        deterministic order; lazily, so that a caller's tick can stop a
        class with millions of matches."""
        seen = set()
        for vals in self._match(g, g.find(cid), ()):
            if vals not in seen:
                seen.add(vals)
                yield dict(zip(self.names, vals))

    def search(self, g: EGraph):
        """Yields every (class, substitution) pair where the pattern matches,
        deduplicated per class, in deterministic order."""
        p = self.pattern
        candidates = (g.classes_by_op().get(p.op, ()) if isinstance(p, (Unary, Binary))
                      else sorted(g.classes))
        for cid in candidates:
            for subst in self.match_class(g, cid):
                yield cid, subst


def ematch(g: EGraph, p: Pattern):
    """`Matcher(p).search(g)`; rules and non-provable patterns keep theirs."""
    return Matcher(p).search(g)


def instantiate(g: EGraph, p: Pattern, subst: Substitution) -> EClassId:
    """Add the e-nodes for a pattern under a substitution; returns the class."""
    if isinstance(p, PatVar):
        return g.find(subst[p.name])
    if isinstance(p, Var):
        return g.add(leaf("var", p.name))
    if isinstance(p, IntConst):
        return g.add(leaf("int", p.value))
    if isinstance(p, BoolConst):
        return g.add(leaf("bool", p.value))
    if isinstance(p, Unary):
        return g.add(ENode(p.op, None, (instantiate(g, p.child, subst),)))
    return g.add(ENode(p.op, None,
                       (instantiate(g, p.left, subst), instantiate(g, p.right, subst))))


def gather_matches(g: EGraph, rule: Rule,
                   tick=None) -> list[tuple[EClassId, Substitution]]:
    """Condition-filtered matches of a rule's lhs against the frozen graph.

    `tick`, if given, is called periodically and may raise to abort an
    enumeration that is taking too long.
    """
    out = []
    for i, (cid, subst) in enumerate(rule.matcher.search(g)):
        if tick is not None and (i & 0xFF) == 0:
            tick()
        if rule.cond is None or eval_condition(rule.cond, g, subst):
            out.append((cid, subst))
    return out


def apply_matches(g: EGraph, rule: Rule,
                  matches: list[tuple[EClassId, Substitution]],
                  tick=None) -> int:
    """Instantiate and union pre-gathered matches; returns non-redundant unions.

    `tick` is called periodically, as in gather_matches.
    """
    unions = 0
    for i, (cid, subst) in enumerate(matches):
        if tick is not None and (i & 0xFF) == 0:
            tick()
        new = instantiate(g, rule.rhs, subst)
        before = g.find(cid)
        if g.find(new) != before:
            g.union(before, new)
            unions += 1
    return unions


def apply_rule(g: EGraph, rule: Rule) -> int:
    """Match a rule against the graph snapshot, apply all rewrites, rebuild."""
    matches = gather_matches(g, rule)
    unions = apply_matches(g, rule, matches)
    g.rebuild()
    return unions
