"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import random

from caviar.egraph import EGraph, ENode, leaf
from caviar.expr import (
    ARITH_OPS, CMP_OPS, LOGIC_OPS,
    Binary, BoolConst, Expr, IntConst, Unary, Var, evaluate, free_vars,
)
from caviar.matching import PatVar

VALUE_POOL = [-100, -17, -10, -8, -7, -5, -4, -3, -2, -1, 0,
              1, 2, 3, 4, 5, 7, 8, 10, 17, 100, 1 << 40, -(1 << 40)]

VAR_NAMES = ["x", "y", "z", "w", "v0", "v1"]


def random_int_expr(rng: random.Random, depth: int, allow_consts: bool = True) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        if allow_consts and rng.random() < 0.4:
            return IntConst(rng.choice([-3, -2, -1, 0, 1, 2, 3, 5, 8]))
        return Var(rng.choice(VAR_NAMES))
    if rng.random() < 0.15:
        return Unary("neg", random_int_expr(rng, depth - 1, allow_consts))
    op = rng.choice(ARITH_OPS)
    return Binary(op, random_int_expr(rng, depth - 1, allow_consts),
                  random_int_expr(rng, depth - 1, allow_consts))


def random_bool_expr(rng: random.Random, depth: int, allow_consts: bool = True) -> Expr:
    if depth <= 0 or rng.random() < 0.2:
        if allow_consts and rng.random() < 0.3:
            return BoolConst(rng.random() < 0.5)
        op = rng.choice(CMP_OPS)
        return Binary(op, random_int_expr(rng, 1, allow_consts),
                      random_int_expr(rng, 1, allow_consts))
    r = rng.random()
    if r < 0.2:
        return Unary("!", random_bool_expr(rng, depth - 1, allow_consts))
    if r < 0.6:
        op = rng.choice(LOGIC_OPS)
        return Binary(op, random_bool_expr(rng, depth - 1, allow_consts),
                      random_bool_expr(rng, depth - 1, allow_consts))
    op = rng.choice(CMP_OPS)
    return Binary(op, random_int_expr(rng, depth - 1, allow_consts),
                  random_int_expr(rng, depth - 1, allow_consts))


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
        if g.has_literal(cid, p.value):
            yield subst
        return
    if isinstance(p, Unary):
        for n in oracle_nodes(g, cid):
            if n.op == p.op:
                yield from oracle_match_node(g, p.child, n.children[0], subst)
        return
    for n in oracle_nodes(g, cid):
        if n.op == p.op and len(n.children) == 2:
            for s1 in oracle_match_node(g, p.left, n.children[0], subst):
                yield from oracle_match_node(g, p.right, n.children[1], s1)


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
    op = p.op if isinstance(p, (Unary, Binary)) else None
    candidates = sorted({g.find(cid) for cid in g.classes
                         if op is None or any(n.op == op for n in oracle_nodes(g, cid))})
    return [(cid, s) for cid in candidates for s in oracle_ematch_class(g, p, cid)]
