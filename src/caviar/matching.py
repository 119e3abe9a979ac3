"""Patterns, e-matching, conditions, rewrite rules and non-provable
patterns, and rule application."""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import count
from typing import Union

from .egraph import EClassId, EGraph, ENode, enode, leaf_of
# patterns are terms with holes, so `PatVar` and `Pattern` are the term
# language's; they are imported from here too
from .expr import (
    BOOL, INT, App, BoolConst, IntConst, PatVar, Pattern, SortError, Var, _Record, _set,
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
        elif isinstance(p, App):
            for k in p.args:
                go(k)

    go(p)
    return out


# ---------------------------------------------------------------------------
# Conditions. Decidable from per-class constant data only.

class _VarCond(_Record):
    """A condition on the class that pattern variable `var` matched."""
    __slots__ = _fields = ("var",)

    def __init__(self, var: str):
        _set(self, "var", var)


class CondIsConst(_VarCond):
    __slots__ = ()


class CondNonConst(_VarCond):
    __slots__ = ()


class CondNonZero(_VarCond):
    __slots__ = ()


class CondIsVar(_VarCond):
    """Holds when the matched class contains a bare-variable e-node."""
    __slots__ = ()


class CondPred(_Record):
    # boolean pattern expression over constants; (abs x) in the source
    # grammar is normalized to max(x, -x) at parse time
    __slots__ = _fields = ("expr",)

    def __init__(self, expr: Pattern):
        _set(self, "expr", expr)


class CondAnd(_Record):
    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple):
        _set(self, "items", items)


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


def _holds(cond: Condition, datum, isvar) -> bool:
    """The one interpreter of conditions: `datum(v)` is the constant that
    pattern variable `v` stands for, or None, and `isvar(v)` whether `v`'s
    class stores a variable leaf."""
    if isinstance(cond, CondAnd):
        return all(_holds(c, datum, isvar) for c in cond.items)
    if isinstance(cond, CondIsConst):
        return datum(cond.var) is not None
    if isinstance(cond, CondNonConst):
        return datum(cond.var) is None
    if isinstance(cond, CondNonZero):
        d = datum(cond.var)
        return d is not None and d != 0
    if isinstance(cond, CondIsVar):
        return isvar(cond.var)
    if isinstance(cond, CondPred):
        env = {}
        for v in pattern_vars(cond.expr):
            d = datum(v)
            if d is None:
                return False
            env[v] = d
        return bool(evaluate(cond.expr, env))
    raise TypeError(f"not a condition: {cond!r}")


def eval_condition(cond: Condition, g: EGraph, subst: Substitution) -> bool:
    """Evaluate a condition against e-class constant data. Never mutates."""
    return _holds(cond, lambda v: g.class_data(subst[v]), lambda v: g.has_var(subst[v]))


def _never(v: str) -> bool:
    return False


def eval_condition_ground(cond: Condition, values: dict) -> bool:
    """Ground semantics of a condition, used by rule soundness testing.

    Every variable is a known constant in a ground instantiation, so
    IsConst holds, NonConst fails and no class holds a variable.
    """
    return _holds(cond, values.__getitem__, _never)


# ---------------------------------------------------------------------------
# Rules and non-provable patterns: each is a guarded pattern, one that
# matches where its substitution satisfies its side condition.

class _Guarded(_Record):
    """What `Rule` and `NPPattern` share: the pattern `lhs`, searched for
    matches whose substitution satisfies the condition `cond`. The compiled
    forms are kept in the instance `__dict__`, which pickling leaves out,
    since they hold generated code."""

    @cached_property
    def gather(self):
        """`gather(g, tick, cands)`: the matches of `lhs` whose substitution
        satisfies `cond`, over the classes `cands`; compiled on first use."""
        return _define(*_search_source(self.lhs, self.cond))

    def _check(self, where: str, sides: tuple) -> dict[str, str]:
        """The scope and sort rules, with errors named `where`. `sides` are
        the `(name, pattern)` pairs checked, `lhs` first: each later side and
        the condition use only variables that `lhs` binds, every side has
        the sort `_sort` gives, each `pred` of the condition is a boolean
        term at the sorts the sides give the variables, which are returned,
        and each `nonzero` variable is int-sorted."""
        bound = pattern_vars(self.lhs)
        used = [(name, pattern_vars(p)) for name, p in sides[1:]]
        for what, names in used + [("condition", condition_vars(self.cond))]:
            free = [f"?{v}" for v in names if v not in bound]
            if free:
                raise SortError(f"{where}: {what} uses {', '.join(free)}, not bound by the pattern")
        sort = self._sort(where)
        env: dict[str, str] = {}
        for name, p in sides:
            got = sort_of(p, env, sort)
            if got != sort:
                raise SortError(f"{where}: {name} is {got}-sorted, expected {sort}")
        conds = [self.cond]
        while conds:
            c = conds.pop()
            if isinstance(c, CondAnd):
                conds.extend(reversed(c.items))
            elif isinstance(c, CondPred):
                got = sort_of(c.expr, env, BOOL)
                if got != BOOL:
                    raise SortError(f"{where}: pred is {got}-sorted, expected bool")
            elif isinstance(c, CondNonZero) and env[c.var] != INT:
                raise SortError(f"{where}: nonzero ?{c.var} is {env[c.var]}-sorted, expected int")
        return env


class Rule(_Guarded):
    _fields = ("name", "lhs", "rhs", "cond")

    def __init__(self, name: str, lhs: Pattern, rhs: Pattern,
                 cond: Condition | None = None):
        vars(self).update(name=name, lhs=lhs, rhs=rhs, cond=cond)

    @cached_property
    def shape(self) -> frozenset:
        """The lhs's operator symbols and its `(op, child index, child op)`
        triples between operator nodes. A match maps each onto a stored
        e-node whose child class stores that operator, so the rule can match
        only a graph whose shape (`index`) holds them all (leaves are left
        out, so this is safe)."""
        out = set()

        def go(p):
            if isinstance(p, App):
                out.add(p.op)
                for i, k in enumerate(p.args):
                    if isinstance(k, App):
                        out.add((p.op, i, k.op))
                    go(k)

        go(self.lhs)
        return frozenset(out)

    @cached_property
    def root(self) -> str | None:
        """The lhs's root operator or leaf kind, under which `index` lists
        its candidates; None for a bare pattern variable."""
        if isinstance(self.lhs, App):
            return self.lhs.op
        return None if isinstance(self.lhs, PatVar) else leaf_of(self.lhs).op

    @cached_property
    def apply(self):
        """`apply(g, matches, tick)`: `apply_matches` of this rule, compiled
        on first use."""
        return _define(*_apply_source(self.rhs))

    def _sort(self, where: str) -> str:
        if isinstance(self.lhs, PatVar):
            # it would match every class, of either sort
            raise SortError(f"{where}: lhs is a bare pattern variable")
        return root_sort(self.lhs)

    def validate(self) -> dict[str, str]:
        """Check variable scoping and sorts; returns the variables' sorts."""
        return self._check(f"rule {self.name}", (("lhs", self.lhs), ("rhs", self.rhs)))


def index(g: EGraph) -> tuple[dict[str, list[EClassId]], set]:
    """The operator index of a rebuilt graph, which maps each operator and
    leaf kind to the sorted ids of the classes storing an e-node of it, and
    its shape: those symbols and the `(op, child index, child op)` triples of
    a stored `op` e-node whose child class stores an e-node of `child op`.
    A rule whose `Rule.shape` is not a subset of the shape has no match."""
    by_op: dict[str, list[EClassId]] = {}
    ops_of: dict[EClassId, set[str]] = {}
    classes = g.classes
    for cid, cls in classes.items():  # in ascending id order
        ops = ops_of[cid] = {n.op for n in cls.nodes}
        for op in ops:
            by_op.setdefault(op, []).append(cid)
    shape = {(n.op, i, child_op) for cls in classes.values() for n in cls.nodes
             for i, c in enumerate(n.children) for child_op in ops_of[c]}
    shape.update(by_op)
    return by_op, shape


class NPPattern(_Guarded):
    """A pattern whose instances the ruleset is known to be unable to decide."""
    _fields = ("id", "pattern", "cond")

    def __init__(self, id: str, pattern: Pattern, cond: Condition):
        vars(self).update(id=id, pattern=pattern, cond=cond)

    @property
    def lhs(self) -> Pattern:
        """The pattern, under the name a rule gives its own."""
        return self.pattern

    def _sort(self, where: str) -> str:
        return BOOL

    def validate(self) -> dict[str, str]:
        """Check variable scoping and sorts; returns the variables' sorts."""
        return self._check(f"nppd {self.id}", (("pattern", self.pattern),))


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
        leaves.append(leaf_of(p))
        return cls, f"l{len(leaves) - 1}"

    def ready(p) -> bool:
        # checkable by now: a leaf, or a variable bound already
        return isinstance(p, (Var, IntConst, BoolConst)) or (
            isinstance(p, PatVar) and p.name in bound)

    def at(p, cls):
        if isinstance(p, PatVar) and p.name not in bound:
            bound[p.name] = cls
            return
        if not isinstance(p, App):
            steps.append(("same", [pair(p, cls)]))
            return
        locs, rest = [], []
        for i, k in enumerate(p.args):
            # a variable's first occurrence binds it where it is unpacked
            if (isinstance(k, PatVar) and k.name not in bound
                    and not any(k.name in pattern_vars(e) for e in p.args[:i])):
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


def _search_source(p: Pattern, cond: Condition | None = None):
    """A search for `p`: the name, source and constants of `gather(g, tick,
    cands)`, which returns the `(class, substitution)` pairs over the classes
    `cands` whose substitution satisfies `cond`, in a deterministic order.
    It calls `tick` every 256 matches and every 256 classes after the
    first. Nothing deduplicates, and no pair repeats: in a rebuilt graph
    each stored e-node is held by one class, so a substitution fixes every
    e-node that a match walks."""
    consts = _Consts()
    keys = [consts.name(n) for n in pattern_vars(p)]
    steps, vals, leaves = _plan(p, consts)
    subst = "{" + ", ".join(f"{k}: {v}" for k, v in zip(keys, vals)) + "}"
    lines = ["def gather(g, tick, cands):", "    classes, out, i = g.classes, [], 0"]
    for i, node in enumerate(leaves):
        lines += [f"    l{i} = g.hashcons.get({consts.name(node)})",
                  f"    if l{i} is None: return out",
                  f"    l{i} = g.find(l{i})"]
    lines += ["    for j, cid in enumerate(cands):",
              "        if j and not j & 255: tick()"]
    subs: list[list[str]] = []
    pad = "    " * _emit_steps(steps, vals, lines, 2, subs,
                               ["cid"] + [f"l{i}" for i in range(len(leaves))])
    test = "" if cond is None else f"if {consts.name(eval_condition)}({consts.name(cond)}, g, s): "
    lines += [f"{pad}if not i & 255: tick()",
              f"{pad}i += 1",
              f"{pad}s = {subst}",
              f"{pad}{test}out.append((cid, s))",
              "    return out"]
    return "gather", "\n".join(sum(subs, []) + lines), consts


def _apply_source(p: Pattern):
    """The rhs `p`: the name, source and constants of `apply(g, matches,
    tick)`, which unions each match's class with its instance, calls `tick`
    every 256 matches and returns the number of unions that merged two
    classes. One statement adds each e-node, in the order of a
    left-to-right walk (a nested expression would reach Python's limit on
    nested parentheses); its children are roots, since `add` returns one
    and its fold merges away only the class it just made, so `add` can look
    it up as given. `find` runs only on an id that is not a root."""
    consts = _Consts(enode=enode)
    keys: dict[str, str] = {}
    rhs: list[str] = []
    temps = count()

    def go(p) -> str:
        if isinstance(p, PatVar):
            if p.name not in keys:
                keys[p.name] = consts.name(p.name)
            t = f"t{next(temps)}"
            rhs.extend([f"{t} = s[{keys[p.name]}]", f"if uf[{t}] != {t}: {t} = find({t})"])
            return t
        if isinstance(p, (Var, IntConst, BoolConst)):
            expr = f"add({consts.name(leaf_of(p))})"
        else:
            kids = list(map(go, p.args))
            expr = f"add(enode(({consts.name(p.op)}, None, ({_tuple(kids)}))))"
        t = f"t{next(temps)}"
        rhs.append(f"{t} = {expr}")
        return t

    root = go(p)
    lines = ["def apply(g, matches, tick):",
             "    find, add, union, uf, unions = g.find, g.add, g.union, g._uf, 0",
             "    for i, (cid, s) in enumerate(matches):",
             "        if not i & 255: tick()"]
    lines += ["        " + line for line in rhs]
    lines += ["        if uf[cid] != cid: cid = find(cid)",
              f"        if {root} != cid:",
              f"            union(cid, {root})",
              "            unions += 1",
              "    return unions"]
    return "apply", "\n".join(lines), consts


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


def _no_tick():
    pass


def gather_matches(g: EGraph, rule: Rule, cands=None,
                   tick=None) -> list[tuple[EClassId, Substitution]]:
    """Condition-filtered matches of a rule's lhs against the frozen graph,
    over the candidate classes `cands`, by default every class that `index`
    lists under `rule.root`.

    `tick`, if given, is called every 256 matches and every 256 candidate
    classes, and may raise to abort an enumeration that takes too long.
    """
    if cands is None:
        cands = index(g)[0].get(rule.root, ())
    return rule.gather(g, tick or _no_tick, cands)


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
