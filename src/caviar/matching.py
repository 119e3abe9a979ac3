"""Patterns, e-matching, conditions, and rewrite rule application."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

from .egraph import EClassId, EGraph, ENode, enode, leaf
# patterns are terms with holes, so `PatVar` and `Pattern` are the term
# language's; they are imported from here too
from .expr import (
    Binary, BoolConst, IntConst, PatVar, Pattern, SortError, Unary, Var,
    evaluate, root_sort, sort_of,
)

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


def pattern_ops(p: Pattern) -> frozenset[str]:
    """Operator symbols of a pattern's `Unary`/`Binary` nodes."""
    if isinstance(p, Unary):
        return pattern_ops(p.child) | {p.op}
    if isinstance(p, Binary):
        return pattern_ops(p.left) | pattern_ops(p.right) | {p.op}
    return frozenset()


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


def condition_vars(c: Condition | None) -> list[str]:
    if c is None:
        return []
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


# the ground evaluator of patterns is `evaluate`, kept under this name too
eval_pattern_ground = evaluate


def check_scope(where: str, bound: list[str], what: str, used: list[str]) -> None:
    """The scope rule of rules and non-provable patterns: every variable
    that `what` uses is bound by the pattern they match."""
    free = [f"?{v}" for v in used if v not in bound]
    if free:
        raise SortError(f"{where}: {what} uses {', '.join(free)}, not bound by the pattern")


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
        return bool(evaluate(cond.expr, env))
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
        return bool(evaluate(cond.expr, values))
    raise TypeError(f"not a condition: {cond!r}")


# ---------------------------------------------------------------------------
# Rules.

@dataclass(frozen=True)
class Rule:
    name: str
    lhs: Pattern
    rhs: Pattern
    cond: Condition | None = None

    def __reduce__(self):
        # pickles without the compiled forms, which hold closures
        return (Rule, (self.name, self.lhs, self.rhs, self.cond))

    @cached_property
    def matcher(self) -> Matcher:
        """The lhs compiled for e-matching, built on first use."""
        return Matcher(self.lhs)

    @cached_property
    def ops(self) -> frozenset[str]:
        """The lhs's operator symbols: the rule can match only a graph that
        holds an e-node of each (leaves are left out, so this is safe)."""
        return pattern_ops(self.lhs)

    @cached_property
    def build(self):
        """The rhs compiled into `build(g, subst) -> EClassId`, which adds
        its e-nodes under a substitution; built on first use."""
        return _compile_rhs(self.rhs)

    def validate(self) -> dict[str, str]:
        """Check variable scoping and sorts; returns the variables' sorts."""
        where, bound = f"rule {self.name}", pattern_vars(self.lhs)
        check_scope(where, bound, "rhs", pattern_vars(self.rhs))
        check_scope(where, bound, "condition", condition_vars(self.cond))
        sort = root_sort(self.lhs) or root_sort(self.rhs)
        if sort is None:
            raise SortError(f"{where}: cannot determine sort of bare-variable rule")
        env: dict[str, str] = {}
        for side, p in (("lhs", self.lhs), ("rhs", self.rhs)):
            got = sort_of(p, env, sort)
            if got != sort:
                raise SortError(f"{where}: {side} is {got}-sorted, expected {sort}")
        return env


# ---------------------------------------------------------------------------
# E-matching: patterns compile once to nested closures over the stored
# e-nodes, which `rebuild` keeps canonical; match only a rebuilt graph.

def _leaf_node(p: Var | IntConst | BoolConst) -> ENode:
    if isinstance(p, Var):
        return leaf("var", p.name)
    return leaf("bool" if isinstance(p, BoolConst) else "int", p.value)


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
        # a leaf e-node is stored by exactly one class, the one its hashcons
        # entry finds: O(1), where scanning the class's e-nodes is not
        node = _leaf_node(p)

        def match_leaf(g, cid, vals):
            home = g.hashcons.get(node)
            return (vals,) if home is not None and g.find(home) == cid else ()
        return match_leaf
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
        # both candidate lists hold canonical ids only
        candidates = (g.classes_by_op().get(p.op, ()) if isinstance(p, (Unary, Binary))
                      else sorted(g.classes))
        match, names = self._match, self.names
        for cid in candidates:
            seen = set()
            for vals in match(g, cid, ()):
                if vals not in seen:
                    seen.add(vals)
                    yield cid, dict(zip(names, vals))


def ematch(g: EGraph, p: Pattern):
    """`Matcher(p).search(g)`; rules and non-provable patterns keep theirs."""
    return Matcher(p).search(g)


def _compile_rhs(p: Pattern):
    """Builder `b(g, subst)` that adds the e-nodes of `p` under `subst` and
    returns the class. Its children are fresh `find` results or classes
    `add` just returned, so `add` can look the node up as given."""
    if isinstance(p, PatVar):
        name = p.name
        return lambda g, subst: g.find(subst[name])
    if isinstance(p, (Var, IntConst, BoolConst)):
        node = _leaf_node(p)
        return lambda g, subst: g.add(node)
    op = p.op
    if isinstance(p, Unary):
        child = _compile_rhs(p.child)
        return lambda g, subst: g.add(enode((op, None, (child(g, subst),))))
    left, right = _compile_rhs(p.left), _compile_rhs(p.right)
    return lambda g, subst: g.add(enode((op, None, (left(g, subst), right(g, subst)))))


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
    unions, build = 0, rule.build
    for i, (cid, subst) in enumerate(matches):
        if tick is not None and (i & 0xFF) == 0:
            tick()
        new = build(g, subst)
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
