"""Minimum-cost term extraction from an e-class."""

from __future__ import annotations

from .egraph import EClassId, EGraph, ENode, enode
from .expr import Binary, BoolConst, Expr, IntConst, Unary, Var

AST_SIZE = "ast-size"
AST_DEPTH = "ast-depth"

# deterministic tie-break order across operator/leaf symbols
_OP_ORDER = ["int", "bool", "var", "neg", "!", "+", "-", "*", "/", "%",
             "min", "max", "<", "<=", ">", ">=", "==", "!=", "&&", "||"]
_OP_ORDINAL = {op: i for i, op in enumerate(_OP_ORDER)}


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


def _picks(g: EGraph, root: EClassId, cost_model: str):
    """The root's canonical id, its class costs and its picked e-nodes."""
    root = g.find(root)
    cost, pick = _relax(g, cost_model == AST_DEPTH)
    if root not in cost:
        raise RuntimeError(f"class {root} has no extractable finite term")
    return root, cost, pick


def extract_best(g: EGraph, root: EClassId, cost_model: str = AST_SIZE) -> tuple[Expr, int]:
    """Minimum-cost representative of a class.

    Integer costs are relaxed to their fixed point, and each class picks on
    the way its e-node of least cost, ties broken by operator ordinal, then
    by the children's canonical class ids, so extraction is deterministic
    for a given graph. Reads the stored e-nodes, so the graph must be
    rebuilt.
    """
    root, cost, pick = _picks(g, root, cost_model)
    terms: dict[EClassId, Expr] = {}

    def build(cid: EClassId) -> Expr:
        term = terms.get(cid)
        if term is not None:
            return term
        n = pick[cid]
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


def extract_graph(g: EGraph, root: EClassId,
                  cost_model: str = AST_SIZE) -> tuple[EGraph, EClassId]:
    """`from_expr(extract_best(g, root, cost_model)[0])` without the term:
    the root's picked e-nodes go into a fresh graph in post-order, left to
    right, each class once. `from_expr` adds the same e-nodes in the same
    order, since a second visit of a shared subterm only hits the
    hashcons."""
    root, _, pick = _picks(g, root, cost_model)
    out = EGraph()
    copied: dict[EClassId, EClassId] = {}

    def copy(cid: EClassId) -> EClassId:
        new = copied.get(cid)
        if new is None:
            n = pick[cid]
            if n.children:
                n = enode((n.op, None, tuple([copy(c) for c in n.children])))
            new = copied[cid] = out.add(n)
        return new

    new_root = copy(root)
    out.rebuild()
    return out, out.find(new_root)


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
