"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import random

from caviar.egraph import (
    ConstantContradiction, EClass, EGraph, ENode, enode, leaf_term, literal,
)
from caviar.extraction import AST_DEPTH, _node_key
from caviar.expr import (
    BOOL, INT, OPERATORS, App, BoolConst, Expr, IntConst, ParseError, Var,
    _ident_end, apply_op, evaluate, free_vars, print_sexpr,
)
from caviar.matching import (
    CondAnd, CondPred, Condition, NPPattern, PatVar, Rule, apply_matches,
    gather_matches, index,
)
from caviar.rules import _VAR_CONDS, Ruleset

VALUE_POOL = [-100, -17, -10, -8, -7, -5, -4, -3, -2, -1, 0,
              1, 2, 3, 4, 5, 7, 8, 10, 17, 100, 1 << 40, -(1 << 40)]

VAR_NAMES = ["x", "y", "z", "w", "v0", "v1"]


def leaf(op: str, payload) -> ENode:
    """A leaf e-node spelled out: `op` is "var", "int" or "bool"."""
    return enode((op, payload, ()))


def _binary_ops(operand: str, result: str) -> tuple[str, ...]:
    return tuple(op for op, o in OPERATORS.items()
                 if (o.arity, o.operand, o.result) == (2, operand, result))


ARITH_OPS = _binary_ops(INT, INT)     # + - * / % min max
CMP_OPS = _binary_ops(INT, BOOL)      # < <= > >= == !=
LOGIC_OPS = _binary_ops(BOOL, BOOL)   # && ||


def random_int_expr(rng: random.Random, depth: int, allow_consts: bool = True) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        if allow_consts and rng.random() < 0.4:
            return IntConst(rng.choice([-3, -2, -1, 0, 1, 2, 3, 5, 8]))
        return Var(rng.choice(VAR_NAMES))
    if rng.random() < 0.15:
        return App("neg", (random_int_expr(rng, depth - 1, allow_consts),))
    op = rng.choice(ARITH_OPS)
    return App(op, (random_int_expr(rng, depth - 1, allow_consts),
                    random_int_expr(rng, depth - 1, allow_consts)))


def random_bool_expr(rng: random.Random, depth: int, allow_consts: bool = True) -> Expr:
    if depth <= 0 or rng.random() < 0.2:
        if allow_consts and rng.random() < 0.3:
            return BoolConst(rng.random() < 0.5)
        op = rng.choice(CMP_OPS)
        return App(op, (random_int_expr(rng, 1, allow_consts),
                        random_int_expr(rng, 1, allow_consts)))
    r = rng.random()
    if r < 0.2:
        return App("!", (random_bool_expr(rng, depth - 1, allow_consts),))
    if r < 0.6:
        op = rng.choice(LOGIC_OPS)
        return App(op, (random_bool_expr(rng, depth - 1, allow_consts),
                        random_bool_expr(rng, depth - 1, allow_consts)))
    op = rng.choice(CMP_OPS)
    return App(op, (random_int_expr(rng, depth - 1, allow_consts),
                    random_int_expr(rng, depth - 1, allow_consts)))


def random_expr(rng: random.Random, depth: int = 3, allow_consts: bool = True) -> Expr:
    if rng.random() < 0.5:
        return random_int_expr(rng, depth, allow_consts)
    return random_bool_expr(rng, depth, allow_consts)


def random_assignment(rng: random.Random, names) -> dict[str, int]:
    return {name: rng.choice(VALUE_POOL) for name in names}


def exprs_agree(a: Expr, b: Expr, rng: random.Random, trials: int = 200) -> bool:
    names = sorted(free_vars(a) | free_vars(b))
    for _ in range(trials):
        env = random_assignment(rng, names)
        if evaluate(a, env) != evaluate(b, env):
            return False
    return True


def saturate(g: EGraph, rules, iterations: int) -> None:
    """Run saturation iterations: gather every rule's matches against the
    frozen graph, apply them all, rebuild."""
    for _ in range(iterations):
        ms = [gather_matches(g, r) for r in rules]
        for r, m in zip(rules, ms):
            apply_matches(g, r, m)
        g.rebuild()


def random_congruence_graph(rng: random.Random, max_nodes: int = 30):
    """A random e-graph of int-sorted var leaves and operators, plus the raw
    union requests applied to it.

    Constant leaves are deliberately excluded so the constant analysis never
    merges classes on its own and brute-force congruence closure is the full
    ground truth.
    """
    g = EGraph()
    added: list[tuple[ENode, int]] = []
    ids: list[int] = []
    for name in rng.sample(VAR_NAMES, rng.randrange(2, 5)):
        n = leaf("var", name)
        cid = g.add(n)
        added.append((n, cid))
        ids.append(cid)
    target = rng.randrange(8, max_nodes + 1)
    while len(added) < target:
        op = rng.choice(("+", "*", "min", "max", "-", "neg"))
        if op == "neg":
            n = ENode(op, None, (rng.choice(ids),))
        else:
            n = ENode(op, None, (rng.choice(ids), rng.choice(ids)))
        cid = g.add(n)
        if all(existing != n for existing, _ in added):
            added.append((n, cid))
        ids.append(cid)
    unions = []
    for _ in range(rng.randrange(2, 9)):
        a, b = rng.choice(ids), rng.choice(ids)
        unions.append((a, b))
        g.union(a, b)
    g.rebuild()
    return g, added, unions


def brute_force_congruence(added, unions):
    """Equivalence classes over original ids by naive congruence closure."""
    ids = [cid for _, cid in added]
    parent = {i: i for i in ids}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def merge(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            return True
        return False

    for a, b in unions:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for i, (n1, id1) in enumerate(added):
            for n2, id2 in added[i + 1:]:
                if find(id1) == find(id2):
                    continue
                if n1.op != n2.op or n1.payload != n2.payload:
                    continue
                if len(n1.children) != len(n2.children):
                    continue
                if all(find(a) == find(b)
                       for a, b in zip(n1.children, n2.children)):
                    if merge(id1, id2):
                        changed = True
    return find


# The constant analysis in its general form, egg's make and merge over
# data that may be absent: the reference the graph's inline folding and
# agreement check are tested against.

def oracle_make(op: str, payload, child_data: tuple):
    """Constant datum for a fresh e-node given its children's data."""
    if op == "int" or op == "bool":
        return payload
    if op == "var":
        return None
    if None in child_data:
        return None
    return apply_op(op, *child_data)


def oracle_join(a, b, context: str = ""):
    """Least upper bound of two data; absent is bottom."""
    if a is None:
        return b
    if b is None:
        return a
    if a == b and isinstance(a, bool) == isinstance(b, bool):
        return a
    raise ConstantContradiction(a, b, context)


class OracleEGraph(EGraph):
    """The e-graph with the full add and repair: `add` canonicalizes any
    node it does not find as given, folds over all children and adds the
    literal e-node of every datum; the repair re-keys every parent entry of
    a repaired class in the hashcons and re-folds it, and marks its class
    stale, whether or not it changed; `union` formats its join context on
    every call. The reference the incremental write path is tested against.
    It counts the fresh literal leaves it adds and the repairs of classes
    with no datum, which the write path skips work on."""

    def __init__(self):
        super().__init__()
        self.literal_leaves = 0
        self.bare_repairs = 0

    def add(self, n):
        existing = self.hashcons.get(n)
        if existing is None:
            n = self.canonicalize(n)
            existing = self.hashcons.get(n)
        if existing is not None:
            return self.find(existing)
        cid = len(self._uf)
        self._uf.append(cid)
        cls = self.classes[cid] = EClass(n)
        self.hashcons[n] = cid
        for c in n.children:
            self.classes[c].parents.append((n, cid))
        cls.data = oracle_make(n.op, n.payload,
                               tuple(self.classes[c].data for c in n.children))
        if cls.data is not None:
            self.literal_leaves += not n.children
            self._materialize_const(cid)
        self.version += 1
        return self.find(cid)

    def union(self, a, b):
        fa, fb = self.find(a), self.find(b)
        if fa == fb:
            return fa
        keep, gone = (fa, fb) if fa < fb else (fb, fa)
        kc, gc = self.classes[keep], self.classes.pop(gone)
        self._uf[gone] = keep
        new_data = oracle_join(kc.data, gc.data, context=f"union of classes {keep} and {gone}")
        kc.nodes.extend(gc.nodes)
        kc.parents.extend(gc.parents)
        kc.data = new_data
        self._worklist.append(keep)
        self._stale.add(keep)
        self.version += 1
        return keep

    def _repair(self, cid):
        cls = self.classes[cid]
        parents, cls.parents = cls.parents, []
        new_parents: dict[ENode, int] = {}
        for pnode, pclass in parents:
            self.hashcons.pop(pnode, None)
            pnode2 = self.canonicalize(pnode)
            pclass = self.find(pclass)
            self._stale.add(pclass)
            prev = new_parents.get(pnode2)
            if prev is not None:
                pclass = self.union(prev, pclass)
            new_parents[pnode2] = pclass
            self.hashcons[pnode2] = pclass
        self.classes[self.find(cid)].parents.extend(new_parents.items())
        self.bare_repairs += self.classes[self.find(cid)].data is None
        for pnode, pclass in new_parents.items():
            pclass = self.find(pclass)
            pcls = self.classes[pclass]
            nd = oracle_make(
                pnode.op, pnode.payload,
                tuple(self.classes[self.find(c)].data for c in pnode.children),
            )
            joined = oracle_join(pcls.data, nd, context=f"folding into class {pclass}")
            if joined is not None and pcls.data is None:
                pcls.data = joined
                self._materialize_const(pclass)
                self._worklist.append(pclass)


def dump(g: EGraph) -> str:
    """Deterministic textual dump of a graph for golden tests."""
    lines = []
    for cid in sorted(g.classes):
        parts = []
        for n in sorted(g.classes[cid].nodes, key=repr):
            if n.children:
                parts.append("(" + " ".join([n.op] + [f"c{c}" for c in n.children]) + ")")
            else:
                parts.append(print_sexpr(leaf_term(n)))
        data = g.classes[cid].data
        suffix = "" if data is None else f"  [= {data!r}]"
        lines.append(f"c{cid}: " + ", ".join(parts) + suffix)
    return "\n".join(lines)


def assert_canonical_storage(g: EGraph) -> None:
    """The rebuild invariant: each class's stored e-nodes are canonical
    (every child is its own find) and duplicate-free, and each is in the
    hashcons under its own class."""
    for cid, cls in g.classes.items():
        assert len(set(cls.nodes)) == len(cls.nodes), cid
        for n in cls.nodes:
            assert all(g.find(c) == c for c in n.children), (cid, n)
            assert g.find(g.hashcons[n]) == cid, (cid, n)


# ---------------------------------------------------------------------------
# Interpretive e-matching: the reference the compiled matcher is tested
# against. It re-canonicalizes every class it reads, so it does not rely on
# the rebuild invariant.

def has_literal(g: EGraph, cid: int, value) -> bool:
    """Whether the class of `cid` stores the literal e-node of `value`, read
    through the hashcons."""
    home = g.hashcons.get(literal(value))
    return home is not None and g.find(home) == g.find(cid)


def oracle_nodes(g: EGraph, cid: int) -> list[ENode]:
    dedup: dict[ENode, None] = {}
    for n in g.classes[g.find(cid)].nodes:
        dedup.setdefault(g.canonicalize(n), None)
    return list(dedup)


def oracle_match_node(g: EGraph, p, cid: int, subst: dict):
    """Yields substitutions matching a pattern against one class."""
    cid = g.find(cid)
    if isinstance(p, PatVar):
        bound = subst.get(p.name)
        if bound is not None:
            if g.find(bound) == cid:
                yield subst
            return
        s = dict(subst)
        s[p.name] = cid
        yield s
        return
    if isinstance(p, Var):
        for n in oracle_nodes(g, cid):
            if n.op == "var" and n.payload == p.name:
                yield subst
                return
        return
    if isinstance(p, (IntConst, BoolConst)):
        if has_literal(g, cid, p.value):
            yield subst
        return
    for n in oracle_nodes(g, cid):
        if n.op == p.op and len(n.children) == len(p.args):
            yield from _oracle_match_args(g, p.args, n.children, subst)


def _oracle_match_args(g: EGraph, ps: tuple, cids: tuple, subst: dict):
    """Yields substitutions matching each pattern of `ps` against the class
    at the same position of `cids`, left to right."""
    if not ps:
        yield subst
        return
    for s in oracle_match_node(g, ps[0], cids[0], subst):
        yield from _oracle_match_args(g, ps[1:], cids[1:], s)


def oracle_ematch_class(g: EGraph, p, cid: int) -> list[dict]:
    """Matches of a pattern against one e-class, deduplicated, in
    deterministic order."""
    seen = set()
    out = []
    for s in oracle_match_node(g, p, cid, {}):
        key = tuple(sorted((k, g.find(v)) for k, v in s.items()))
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


def oracle_ematch(g: EGraph, p) -> list[tuple[int, dict]]:
    """Every (class, substitution) pair where the pattern matches, over the
    classes holding the pattern's root operator in ascending id order."""
    op = p.op if isinstance(p, App) else None
    candidates = sorted({g.find(cid) for cid in g.classes
                         if op is None or any(n.op == op for n in oracle_nodes(g, cid))})
    return [(cid, s) for cid in candidates for s in oracle_ematch_class(g, p, cid)]


def ematch(g: EGraph, p, cands=None) -> list[tuple[int, dict]]:
    """The compiled search of a condition-less pattern over the classes
    `cands`, by default every class it can match: those `index` lists
    under its root, or every class for a bare pattern variable."""
    r = Rule("ematch", p, p)
    if cands is None:
        cands = sorted(g.classes) if r.root is None else index(g)[0].get(r.root, ())
    return r.gather(g, lambda: None, cands)


def oracle_instantiate(g: EGraph, p, subst: dict) -> int:
    """Adds the e-nodes of a pattern under a substitution, children left to
    right, and returns the class: the reference the compiled rhs is tested
    against."""
    if isinstance(p, PatVar):
        return g.find(subst[p.name])
    if isinstance(p, Var):
        return g.add(leaf("var", p.name))
    if isinstance(p, (IntConst, BoolConst)):
        return g.add(leaf("int" if isinstance(p, IntConst) else "bool", p.value))
    kids = [oracle_instantiate(g, k, subst) for k in p.args]
    return g.add(ENode(p.op, None, tuple(kids)))


def oracle_apply(g: EGraph, rhs, matches) -> int:
    """Unions each matched class with the rhs instance; returns the unions
    that merged two classes."""
    unions = 0
    for cid, subst in matches:
        new = oracle_instantiate(g, rhs, subst)
        if g.find(new) != g.find(cid):
            g.union(cid, new)
            unions += 1
    return unions


# ---------------------------------------------------------------------------
# Extraction by fixed-point relaxation over (cost, e-node) pairs: the
# reference `extract_best` is tested against.

def oracle_extract_best(g: EGraph, root: int, cost_model: str) -> tuple[Expr, int]:
    root = g.find(root)
    best: dict[int, tuple[int, ENode]] = {}
    changed = True
    while changed:
        changed = False
        for cid, cls in g.classes.items():
            for n in cls.nodes:
                entries = [best.get(c) for c in n.children]
                if None in entries:
                    continue
                costs = [e[0] for e in entries]
                cost = 1 + (max(costs, default=0) if cost_model == AST_DEPTH else sum(costs))
                cur = best.get(cid)
                if cur is None or cost < cur[0] or (
                        cost == cur[0] and _node_key(n) < _node_key(cur[1])):
                    best[cid] = (cost, n)
                    changed = True

    def build(cid: int) -> Expr:
        n = best[cid][1]
        if n.op == "var":
            return Var(n.payload)
        if n.op == "int":
            return IntConst(n.payload)
        if n.op == "bool":
            return BoolConst(n.payload)
        return App(n.op, tuple([build(c) for c in n.children]))

    return build(root), best[root][0]


# ---------------------------------------------------------------------------
# The operator index and the shape recomputed over every class: the
# reference `matching.index` is tested against.

def oracle_index(g: EGraph) -> tuple[dict[str, list[int]], set]:
    by_op: dict[str, list[int]] = {}
    ops_of: dict[int, set[str]] = {}
    classes = g.classes
    for cid in sorted(classes):
        ops = ops_of[cid] = {n.op for n in classes[cid].nodes}
        for op in ops:
            by_op.setdefault(op, []).append(cid)
    shape = {(n.op, i, child_op) for cls in classes.values() for n in cls.nodes
             for i, c in enumerate(n.children) for child_op in ops_of[c]}
    shape.update(by_op)
    return by_op, shape


# ---------------------------------------------------------------------------
# The infix tokenizer one character at a time, trying each punctuation token
# in turn: the reference the one-pattern tokenizer is tested against.

_PUNCT = ("<=", ">=", "==", "!=", "&&", "||", "<", ">", "(", ")", ",",
          "+", "-", "*", "/", "%", "!")


def oracle_tokenize_infix(text: str) -> list[tuple[str, str, int]]:
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
        j = _ident_end(text, i)
        if j > i:
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


# ---------------------------------------------------------------------------
# Rules and non-provable patterns written back in the rule file format, for
# the round-trip tests.

_COND_NAMES = {kind: name for name, kind in _VAR_CONDS.items()}


def _cond_text(c: Condition) -> str:
    if isinstance(c, CondAnd):
        return "(and " + " ".join(_cond_text(i) for i in c.items) + ")"
    if isinstance(c, CondPred):
        return f"(pred {print_sexpr(c.expr)})"
    return f"({_COND_NAMES[type(c)]} ?{c.var})"


def rule_to_line(r: Rule) -> str:
    s = f"(rule {r.name} {print_sexpr(r.lhs)} {print_sexpr(r.rhs)}"
    if r.cond is not None:
        s += f" :if {_cond_text(r.cond)}"
    return s + ")"


def nppd_to_line(p: NPPattern) -> str:
    return f"(nppd {p.id} {print_sexpr(p.pattern)} :if {_cond_text(p.cond)})"


def serialize(rs: Ruleset) -> str:
    return "\n".join(rule_to_line(r) for r in rs.rules) + "\n"
