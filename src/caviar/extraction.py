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


def _node_cost(cm: str, child_costs: list[int]) -> int:
    if cm == AST_DEPTH:
        return 1 + max(child_costs, default=0)
    return 1 + sum(child_costs)


def extract_best(g: EGraph, root: EClassId, cost_model: str = AST_SIZE) -> tuple[Expr, int]:
    """Minimum-cost representative of a class, by fixed-point relaxation.

    Ties are broken by operator ordinal, then by the children's canonical
    class ids, so extraction is deterministic for a given graph. Reads the
    stored e-nodes, so the graph must be rebuilt.
    """
    root = g.find(root)
    best: dict[EClassId, tuple[int, ENode]] = {}
    changed = True
    while changed:
        changed = False
        for cid, cls in g.classes.items():
            for n in cls.nodes:
                entries = [best.get(c) for c in n.children]
                if None in entries:
                    continue
                cand = (_node_cost(cost_model, [e[0] for e in entries]), n)
                cur = best.get(cid)
                if cur is None or cand[0] < cur[0] or (
                        cand[0] == cur[0] and _node_key(cand[1]) < _node_key(cur[1])):
                    best[cid] = cand
                    changed = True

    entry = best.get(root)
    if entry is None:
        raise RuntimeError(f"class {root} has no extractable finite term")

    def build(cid: EClassId) -> Expr:
        cost, n = best[cid]
        if n.op == "var":
            return Var(n.payload)
        if n.op == "int":
            return IntConst(n.payload)
        if n.op == "bool":
            return BoolConst(n.payload)
        if len(n.children) == 1:
            return Unary(n.op, build(n.children[0]))
        return Binary(n.op, build(n.children[0]), build(n.children[1]))

    return build(root), entry[0]


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
