"""Minimum-cost term extraction from an e-class."""

from __future__ import annotations

from itertools import product

from .egraph import LEAF_BOOL, LEAF_INT, LEAF_VAR, EClassId, EGraph, ENode, leaf_term
from .expr import OPERATORS, App, Expr

AST_SIZE = "ast-size"
AST_DEPTH = "ast-depth"

# deterministic tie-break order: the leaf kinds, then the operators in
# their table's order
_OP_ORDINAL = {op: i for i, op in enumerate((LEAF_INT, LEAF_BOOL, LEAF_VAR, *OPERATORS))}


def _node_key(n: ENode):
    return (_OP_ORDINAL[n.op], n.children, repr(n.payload))


def _relax(g: EGraph, depth: bool) -> tuple[dict[EClassId, int], dict[EClassId, ENode]]:
    """The least cost of a finite term of each class that has one, by
    relaxing integer costs to their fixed point, and the class's e-node of
    that cost, ties broken by `_node_key`.

    Costs only fall, so a pick keeps its cost until a cheaper e-node
    replaces it, and the last pass, which changes nothing, compares every
    tie against it under the final costs."""
    cost: dict[EClassId, int] = {}
    pick: dict[EClassId, ENode] = {}
    get = cost.get
    changed = True
    while changed:
        changed = False
        for cid, cls in g.classes.items():
            old = best = get(cid)
            if old == 1:
                continue  # holds a leaf: no term costs less
            chosen = prev = pick.get(cid)
            for n in cls.nodes:
                c = 0
                for child in n.children:
                    k = get(child)
                    if k is None:
                        break
                    c = (k if k > c else c) if depth else c + k
                else:
                    c += 1
                    if best is None or c < best:
                        best, chosen = c, n
                    elif c == best and n is not chosen and _node_key(n) < _node_key(chosen):
                        chosen = n
            if chosen is not prev:
                pick[cid] = chosen
            if best != old:
                cost[cid] = best
                changed = True
    return cost, pick


def extract_best(g: EGraph, root: EClassId, cost_model: str = AST_SIZE) -> tuple[Expr, int]:
    """Minimum-cost representative of a class.

    Integer costs are relaxed to their fixed point, and each class picks on
    the way its e-node of least cost, ties broken by operator ordinal, then
    by the children's canonical class ids, so extraction is deterministic
    for a given graph. A root that stores a leaf needs no relaxation: a
    leaf costs 1 under both models, so no term of the root costs less, and
    `_relax` would pick its least leaf by `_node_key`. Reads the stored
    e-nodes, so the graph must be rebuilt.
    """
    root = g.find(root)
    leaves = [n for n in g.classes[root].nodes if not n.children]
    if leaves:
        return leaf_term(min(leaves, key=_node_key)), 1
    cost, pick = _relax(g, cost_model == AST_DEPTH)
    if root not in cost:
        raise RuntimeError(f"class {root} has no extractable finite term")
    terms: dict[EClassId, Expr] = {}

    def build(cid: EClassId) -> Expr:
        term = terms.get(cid)
        if term is not None:
            return term
        n = pick[cid]
        if n.children:
            args = []
            for c in n.children:
                args.append(build(c))
            term = App(n.op, tuple(args))
        else:
            term = leaf_term(n)
        terms[cid] = term
        return term

    return build(root), cost[root]


def enumerate_terms(g: EGraph, cid: EClassId, depth: int) -> set:
    """All terms representable from a class with AST depth <= depth.

    Test oracle; exponential, use on small graphs only.
    """
    memo: dict[tuple[EClassId, int], frozenset] = {}

    def go(cid: EClassId, d: int) -> frozenset:
        cid = g.find(cid)
        if d <= 0:
            return frozenset()
        key = (cid, d)
        if key in memo:
            return memo[key]
        memo[key] = frozenset()  # cycle guard within one depth level
        out = set()
        for n in g.classes[cid].nodes:
            if not n.children:
                out.add(leaf_term(n))
            elif d > 1:
                for args in product(*[go(c, d - 1) for c in n.children]):
                    out.add(App(n.op, args))
        result = frozenset(out)
        memo[key] = result
        return result

    return set(go(cid, depth))
