"""Minimum-cost term extraction from an e-class."""

from __future__ import annotations

from .egraph import EClassId, EGraph, ENode
from .expr import Binary, BoolConst, Expr, IntConst, Unary, Var

AST_SIZE = "ast-size"
AST_DEPTH = "ast-depth"

# deterministic tie-break order across operator/leaf symbols
_OP_ORDER = ["int", "bool", "var", "neg", "!", "+", "-", "*", "/", "%",
             "min", "max", "<", "<=", ">", ">=", "==", "!=", "&&", "||"]
_OP_ORDINAL = {op: i for i, op in enumerate(_OP_ORDER)}


def _node_key(n: ENode):
    return (_OP_ORDINAL[n.op], n.children, repr(n.payload))


def _class_costs(g: EGraph, depth: bool) -> dict[EClassId, int]:
    """The least cost of a finite term of each class that has one, by
    relaxing integer costs to their fixed point."""
    cost: dict[EClassId, int] = {}
    get = cost.get
    changed = True
    while changed:
        changed = False
        for cid, cls in g.classes.items():
            old = best = get(cid)
            if old == 1:
                continue  # holds a leaf: no term costs less
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
                        best = c
            if best != old:
                cost[cid] = best
                changed = True
    return cost


def _node_cost(n: ENode, cost: dict[EClassId, int], depth: bool) -> int | None:
    """An e-node's cost from its children's, or None if one has none yet."""
    c = 0
    for child in n.children:
        k = cost.get(child)
        if k is None:
            return None
        c = (k if k > c else c) if depth else c + k
    return c + 1


def extract_best(g: EGraph, root: EClassId, cost_model: str = AST_SIZE) -> tuple[Expr, int]:
    """Minimum-cost representative of a class.

    Integer costs are relaxed to their fixed point first; then each class
    the term reaches picks, once, its e-node of least cost, ties broken by
    operator ordinal, then by the children's canonical class ids, so
    extraction is deterministic for a given graph. Reads the stored e-nodes,
    so the graph must be rebuilt.
    """
    root = g.find(root)
    depth = cost_model == AST_DEPTH
    cost = _class_costs(g, depth)
    if root not in cost:
        raise RuntimeError(f"class {root} has no extractable finite term")
    terms: dict[EClassId, Expr] = {}

    def build(cid: EClassId) -> Expr:
        term = terms.get(cid)
        if term is not None:
            return term
        k = cost[cid]
        n = min((n for n in g.classes[cid].nodes if _node_cost(n, cost, depth) == k),
                key=_node_key)
        if n.op == "var":
            term = Var(n.payload)
        elif n.op == "int":
            term = IntConst(n.payload)
        elif n.op == "bool":
            term = BoolConst(n.payload)
        elif len(n.children) == 1:
            term = Unary(n.op, build(n.children[0]))
        else:
            term = Binary(n.op, build(n.children[0]), build(n.children[1]))
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
            if n.op == "var":
                out.add(Var(n.payload))
            elif n.op == "int":
                out.add(IntConst(n.payload))
            elif n.op == "bool":
                out.add(BoolConst(n.payload))
            elif d > 1:
                subsets = [go(c, d - 1) for c in n.children]
                if len(subsets) == 1:
                    for a in subsets[0]:
                        out.add(Unary(n.op, a))
                else:
                    for a in subsets[0]:
                        for b in subsets[1]:
                            out.add(Binary(n.op, a, b))
        result = frozenset(out)
        memo[key] = result
        return result

    return set(go(cid, depth))
