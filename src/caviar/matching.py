"""Patterns, e-matching, conditions, and rewrite rule application."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Union

from .egraph import EClassId, EGraph, ENode, enode, leaf
# patterns are terms with holes, so `PatVar` and `Pattern` are the term
# language's; they are imported from here too
from .expr import (
    BOOL, Binary, BoolConst, IntConst, PatVar, Pattern, SortError, Unary, Var,
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


def check_preds(where: str, cond: Condition | None, sorts: dict[str, str]) -> None:
    """Each `pred` of a condition is a boolean term over the pattern's
    variables, at the sorts `sorts` the pattern gives them."""
    if isinstance(cond, CondAnd):
        for c in cond.items:
            check_preds(where, c, sorts)
    elif isinstance(cond, CondPred):
        got = sort_of(cond.expr, sorts, BOOL)
        if got != BOOL:
            raise SortError(f"{where}: pred is {got}-sorted, expected bool")


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
        # pickles without the compiled forms, which hold generated code
        return (Rule, (self.name, self.lhs, self.rhs, self.cond))

    @cached_property
    def matcher(self) -> Matcher:
        """The lhs compiled for e-matching, built on first use."""
        return Matcher(self.lhs)

    @cached_property
    def shape(self) -> frozenset:
        """The lhs's operator symbols and its `(op, child index, child op)`
        triples between operator nodes. A match maps each onto a stored
        e-node whose child class stores that operator, so the rule can match
        only a graph whose `EGraph.shape()` holds them all (leaves are left
        out, so this is safe)."""
        out = set()

        def go(p):
            if isinstance(p, (Unary, Binary)):
                out.add(p.op)
                kids = (p.child,) if isinstance(p, Unary) else (p.left, p.right)
                for i, k in enumerate(kids):
                    if isinstance(k, (Unary, Binary)):
                        out.add((p.op, i, k.op))
                    go(k)

        go(self.lhs)
        return frozenset(out)

    # the compiled forms, each built on first use
    @cached_property
    def gather(self):
        """`gather(g, tick)`: `gather_matches` of this rule."""
        return _define(*_search_source(self.lhs, gather=True, cond=self.cond))

    @cached_property
    def apply(self):
        """`apply(g, matches, tick)`: `apply_matches` of this rule."""
        return _define(*_apply_source(self.rhs, build=False))

    @cached_property
    def build(self):
        """`build(g, subst) -> EClassId`: adds the rhs's e-nodes under a
        substitution."""
        return _define(*_apply_source(self.rhs, build=True))

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
        check_preds(where, self.cond, env)
        return env


# ---------------------------------------------------------------------------
# E-matching by generated code. A pattern compiles, on first use, to Python
# source: nested loops over the stored e-nodes, which `rebuild` keeps
# canonical, so match only a rebuilt graph. The source holds only names made
# up here; variable names, operator symbols, leaf e-nodes and conditions
# reach it as constants of its `exec` namespace, so that no rule file can
# write code, and rules of one shape share their compiled code.

# Python nests at most 20 blocks in a function; past this many e-node loops
# the rest of a match moves into a generator of its own
_MAX_LOOPS = 16


def _leaf_node(p: Var | IntConst | BoolConst) -> ENode:
    if isinstance(p, Var):
        return leaf("var", p.name)
    return leaf("bool" if isinstance(p, BoolConst) else "int", p.value)


class _Consts(dict):
    """The `exec` namespace of generated code: each value the code uses,
    under a name made up here."""

    def name(self, value) -> str:
        k = f"k{len(self)}"
        self[k] = value
        return k


def _plan(p: Pattern, consts: _Consts):
    """The steps that match `p` at the class in local `cid`, in run order:
    `("loop", node, cls, op, kids)` walks the e-nodes of operator `op` in
    class `cls` and unpacks their children into the locals `kids`, and
    `("same", pairs)` goes on only where each pair of locals holds one
    class. Also returns the local bound to each pattern variable, in
    `pattern_vars` order, and the leaf e-nodes whose classes the locals
    `l<i>` hold."""
    names = pattern_vars(p)
    bound: dict[str, str] = {}
    steps: list[tuple] = []
    leaves: list[ENode] = []

    def pair(p, cls) -> tuple[str, str]:
        if isinstance(p, PatVar):
            return cls, bound[p.name]
        # a leaf e-node is stored by exactly one class, the one its hashcons
        # entry finds: O(1), where scanning a class is not
        leaves.append(_leaf_node(p))
        return cls, f"l{len(leaves) - 1}"

    def ready(p) -> bool:
        # checkable by now: a leaf, or a variable bound already
        return isinstance(p, (Var, IntConst, BoolConst)) or (
            isinstance(p, PatVar) and p.name in bound)

    def at(p, cls):
        if isinstance(p, PatVar) and p.name not in bound:
            bound[p.name] = cls
            return
        if not isinstance(p, (Unary, Binary)):
            steps.append(("same", [pair(p, cls)]))
            return
        kids = (p.child,) if isinstance(p, Unary) else (p.left, p.right)
        locs, rest = [], []
        for i, k in enumerate(kids):
            # a variable's first occurrence binds it where it is unpacked
            if (isinstance(k, PatVar) and k.name not in bound
                    and not any(k.name in pattern_vars(e) for e in kids[:i])):
                bound[k.name] = f"v{names.index(k.name)}"
                locs.append(bound[k.name])
            else:
                locs.append(f"c{len(steps)}_{i}")
                rest.append((k, locs[-1]))
        steps.append(("loop", f"n{len(steps)}", cls, consts.name(p.op), locs))
        # checks that need no inner loop run before any
        early = [(k, c) for k, c in rest if ready(k)]
        if early:
            steps.append(("same", [pair(k, c) for k, c in early]))
        for k, c in rest:
            if (k, c) not in early:
                at(k, c)

    at(p, "cid")
    return steps, [bound[n] for n in names], leaves


def _emit_steps(steps, vals, lines, depth, subs, defined) -> int:
    """Append the lines of `steps` at indent `depth` and return the indent
    of the innermost body. `defined` lists the locals set so far; past
    `_MAX_LOOPS` loops, a generator appended to `subs` runs the rest."""
    loops = 0
    for at, step in enumerate(steps):
        pad = "    " * depth
        if step[0] == "same":
            lines.append(f"{pad}if {' or '.join(f'{a} != {b}' for a, b in step[1])}: continue")
            continue
        if loops == _MAX_LOOPS:
            name, args = f"rest{len(subs)}", ", ".join(defined)
            sub = [f"def {name}(classes, {args}):"]
            subs.append(sub)
            inner = _emit_steps(steps[at:], vals, sub, 1, subs, defined)
            sub.append("    " * inner + f"yield ({_tuple(vals)})")
            lines.append(f"{pad}for ({_tuple(vals)}) in {name}(classes, {args}):")
            return depth + 1
        _, node, cls, op, kids = step
        lines += [f"{pad}for {node} in classes[{cls}].nodes:",
                  f"{pad}    if {node}[0] != {op}: continue",
                  f"{pad}    {_tuple(kids)} = {node}[2]"]
        defined = defined + kids
        loops += 1
        depth += 1
    return depth


def _search_source(p: Pattern, gather: bool, cond: Condition | None = None):
    """A search for `p`: the name, source and constants of its function.
    The generator form `search(g, cands=None)` yields the `(class,
    substitution)` pairs over the classes `cands`, by default every class
    that `p` can match. The gather form `gather(g, tick)` returns the list
    of those whose substitution satisfies `cond`, and calls `tick` every 256
    matches and every 256 classes after the first. Both deduplicate per
    class and keep a deterministic order."""
    consts = _Consts()
    keys = [consts.name(n) for n in pattern_vars(p)]
    steps, vals, leaves = _plan(p, consts)
    subst = "{" + ", ".join(f"{k}: {v}" for k, v in zip(keys, vals)) + "}"
    cands = (f"g.classes_by_op().get({steps[0][3]}, ())" if isinstance(p, (Unary, Binary))
             else "sorted(g.classes)")
    name = "gather" if gather else "search"
    lines = (["def gather(g, tick):", "    classes, seen, out, i = g.classes, set(), [], 0"]
             if gather else ["def search(g, cands=None):", "    classes, seen = g.classes, set()"])
    for i, node in enumerate(leaves):
        lines += [f"    l{i} = g.hashcons.get({consts.name(node)})",
                  f"    if l{i} is None: return{' out' * gather}",
                  f"    l{i} = g.find(l{i})"]
    if gather:
        lines += [f"    for j, cid in enumerate({cands}):",
                  "        if j and not j & 255: tick()"]
    else:
        lines.append(f"    for cid in {cands} if cands is None else cands:")
    subs: list[list[str]] = []
    pad = "    " * _emit_steps(steps, vals, lines, 2, subs,
                               ["cid"] + [f"l{i}" for i in range(len(leaves))])
    lines += [f"{pad}m = {_tuple(['cid'] + vals)}",
              f"{pad}if m in seen: continue",
              f"{pad}seen.add(m)"]
    if not gather:
        lines.append(f"{pad}yield cid, {subst}")
    else:
        test = "" if cond is None else f"if {consts.name(eval_condition)}({consts.name(cond)}, g, s): "
        lines += [f"{pad}if not i & 255: tick()",
                  f"{pad}i += 1",
                  f"{pad}s = {subst}",
                  f"{pad}{test}out.append((cid, s))",
                  "    return out"]
    return name, "\n".join(sum(subs, []) + lines), consts


def _apply_source(p: Pattern, build: bool):
    """The rhs `p`: the name, source and constants of `build(g, s)`, which
    returns the class of its instance under substitution `s`, or of
    `apply(g, matches, tick)`, which unions each match's class with its
    instance, calls `tick` every 256 matches and returns the number of
    unions that merged two classes. One statement adds each e-node, in the
    order of a left-to-right walk (a nested expression would reach Python's
    limit on nested parentheses); its children are fresh `find` results or
    classes that `add` just returned, so `add` can look it up as given."""
    consts = _Consts(enode=enode)
    keys: dict[str, str] = {}
    rhs: list[str] = []

    def go(p) -> str:
        if isinstance(p, PatVar):
            if p.name not in keys:
                keys[p.name] = consts.name(p.name)
            expr = f"find(s[{keys[p.name]}])"
        elif isinstance(p, (Var, IntConst, BoolConst)):
            expr = f"add({consts.name(_leaf_node(p))})"
        else:
            kids = [go(p.child)] if isinstance(p, Unary) else [go(p.left), go(p.right)]
            expr = f"add(enode(({consts.name(p.op)}, None, ({_tuple(kids)}))))"
        rhs.append(f"t{len(rhs)} = {expr}")
        return f"t{len(rhs) - 1}"

    root = go(p)
    if build:
        lines = ["def build(g, s):", "    find, add = g.find, g.add"]
        lines += ["    " + line for line in rhs] + [f"    return {root}"]
    else:
        lines = ["def apply(g, matches, tick):",
                 "    find, add, union, unions = g.find, g.add, g.union, 0",
                 "    for i, (cid, s) in enumerate(matches):",
                 "        if not i & 255: tick()"]
        lines += ["        " + line for line in rhs]
        lines += ["        before = find(cid)",
                  f"        if find({root}) != before:",
                  f"            union(before, {root})",
                  "            unions += 1",
                  "    return unions"]
    return ("build" if build else "apply"), "\n".join(lines), consts


def _tuple(items: list[str]) -> str:
    """`items` as the elements of a tuple display, for any length."""
    return ", ".join(items) + "," * (len(items) == 1)


@lru_cache(maxsize=None)
def _code(source: str):
    # rules of one shape have one source, compiled once
    return compile(source, "<generated>", "exec")


def _define(name: str, source: str, consts: _Consts):
    """Function `name` of `source`, executed in a namespace of `consts`."""
    # a plain dict: Python specializes global loads only from one
    namespace = dict(consts)
    exec(_code(source), namespace)
    return namespace[name]


class Matcher:
    """A pattern compiled, on first use, for e-matching. Pickles as its
    pattern."""

    def __init__(self, pattern: Pattern):
        self.pattern = pattern

    def __reduce__(self):
        return (Matcher, (self.pattern,))

    @cached_property
    def _search(self):
        return _define(*_search_source(self.pattern, gather=False))

    def match_class(self, g: EGraph, cid: EClassId) -> Iterator[Substitution]:
        """Yields the matches against one e-class, deduplicated, in
        deterministic order; lazily, so that a caller can stop a class with
        millions of matches."""
        return (subst for _, subst in self._search(g, (g.find(cid),)))

    def search(self, g: EGraph) -> Iterator[tuple[EClassId, Substitution]]:
        """Yields every (class, substitution) pair where the pattern matches,
        deduplicated per class, in deterministic order."""
        return self._search(g)


def ematch(g: EGraph, p: Pattern):
    """`Matcher(p).search(g)`; rules and non-provable patterns keep theirs."""
    return Matcher(p).search(g)


def _no_tick():
    pass


def gather_matches(g: EGraph, rule: Rule,
                   tick=None) -> list[tuple[EClassId, Substitution]]:
    """Condition-filtered matches of a rule's lhs against the frozen graph.

    `tick`, if given, is called every 256 matches and every 256 candidate
    classes, and may raise to abort an enumeration that takes too long.
    """
    return rule.gather(g, tick or _no_tick)


def apply_matches(g: EGraph, rule: Rule,
                  matches: list[tuple[EClassId, Substitution]],
                  tick=None) -> int:
    """Instantiate and union pre-gathered matches; returns non-redundant unions.

    `tick` is called every 256 matches, as in gather_matches.
    """
    return rule.apply(g, matches, tick or _no_tick)


def apply_rule(g: EGraph, rule: Rule) -> int:
    """Match a rule against the graph snapshot, apply all rewrites, rebuild."""
    matches = gather_matches(g, rule)
    unions = apply_matches(g, rule, matches)
    g.rebuild()
    return unions
