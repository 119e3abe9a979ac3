"""E-graph: hashconsed e-nodes in e-classes under a union-find.

Congruence is maintained by deferred rebuilding: unions mark classes dirty
and `rebuild` repairs the hashcons/congruence invariants to a fixed point.
After `rebuild`, each class's stored `nodes` list is canonical (every child
is its own `find`) and duplicate-free, so readers use it as stored.
The union-find keeps the smallest member id as the canonical representative,
which makes class ids (and everything derived from them) deterministic.
"""

from __future__ import annotations

from typing import NamedTuple

from . import analysis
from .analysis import ConstantContradiction, LEAF_BOOL, LEAF_INT, LEAF_VAR
from .expr import Binary, BoolConst, Expr, IntConst, Unary, Var

EClassId = int


class ENode(NamedTuple):
    op: str                       # operator symbol, or "var"/"int"/"bool"
    payload: object               # leaf payload; None for operators
    children: tuple[EClassId, ...]


def leaf(op: str, payload) -> ENode:
    return ENode(op, payload, ())


class EClass:
    __slots__ = ("nodes", "parents", "data")

    def __init__(self):
        self.nodes: list[ENode] = []
        self.parents: list[tuple[ENode, EClassId]] = []
        self.data = None  # constant datum or None


class EGraph:
    def __init__(self):
        self._uf: list[int] = []
        self.classes: dict[EClassId, EClass] = {}
        self.hashcons: dict[ENode, EClassId] = {}
        self._worklist: list[EClassId] = []
        # bumped on every structural change; the saturation engine compares
        # it across an iteration to detect saturation
        self.version = 0
        self._op_index: tuple[int, dict[str, list[EClassId]]] = (-1, {})

    # -- union-find --------------------------------------------------------

    def find(self, a: EClassId) -> EClassId:
        uf = self._uf
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    def canonicalize(self, n: ENode) -> ENode:
        if not n.children:
            return n
        return ENode(n.op, n.payload, tuple(map(self.find, n.children)))

    # -- construction ------------------------------------------------------

    def add(self, n: ENode) -> EClassId:
        n = self.canonicalize(n)
        existing = self.hashcons.get(n)
        if existing is not None:
            return self.find(existing)
        cid = len(self._uf)
        self._uf.append(cid)
        cls = EClass()
        cls.nodes.append(n)
        self.classes[cid] = cls
        self.hashcons[n] = cid
        for c in n.children:
            self.classes[c].parents.append((n, cid))
        cls.data = analysis.make(n.op, n.payload, tuple(self.classes[c].data for c in n.children))
        if cls.data is not None:
            self._materialize_const(cid)
        self.version += 1
        return cid

    def _materialize_const(self, cid: EClassId) -> None:
        """Add the literal e-node for a class's constant datum (analysis modify)."""
        v = self.classes[cid].data
        ln = leaf(LEAF_BOOL if isinstance(v, bool) else LEAF_INT, v)
        other = self.hashcons.get(ln)
        if other is None:
            self.hashcons[ln] = cid
            self.classes[cid].nodes.append(ln)
            self.version += 1
        elif self.find(other) != cid:
            self.union(other, cid)

    def union(self, a: EClassId, b: EClassId) -> EClassId:
        fa, fb = self.find(a), self.find(b)
        if fa == fb:
            return fa
        keep, gone = (fa, fb) if fa < fb else (fb, fa)
        kc, gc = self.classes[keep], self.classes.pop(gone)
        self._uf[gone] = keep
        new_data = analysis.join(kc.data, gc.data, context=f"union of classes {keep} and {gone}")
        kc.nodes.extend(gc.nodes)
        kc.parents.extend(gc.parents)
        changed = new_data is not None and kc.data is None
        kc.data = new_data
        if changed:
            self._materialize_const(keep)
        self._worklist.append(keep)
        self.version += 1
        return keep

    # -- rebuilding --------------------------------------------------------

    def rebuild(self) -> None:
        dirty = bool(self._worklist)
        while self._worklist:
            todo = dict.fromkeys(map(self.find, self._worklist))
            self._worklist = []
            for c in todo:
                self._repair(self.find(c))
        if dirty:
            # the one place that keeps stored nodes canonical and duplicate-
            # free; `_repair` rewrites only the parent lists
            for cls in self.classes.values():
                cls.nodes = list(dict.fromkeys(map(self.canonicalize, cls.nodes)))

    def _repair(self, cid: EClassId) -> None:
        cls = self.classes[cid]
        # taken out first: a union below may merge this class, and the
        # surviving class keeps its own parents (queued for repair) plus these
        parents, cls.parents = cls.parents, []
        new_parents: dict[ENode, EClassId] = {}
        for pnode, pclass in parents:
            self.hashcons.pop(pnode, None)
            pnode2 = self.canonicalize(pnode)
            pclass = self.find(pclass)
            prev = new_parents.get(pnode2)
            if prev is not None:
                pclass = self.union(prev, pclass)
            new_parents[pnode2] = pclass
            self.hashcons[pnode2] = pclass
        self.classes[self.find(cid)].parents.extend(new_parents.items())
        # propagate constant data upward
        for pnode, pclass in new_parents.items():
            pclass = self.find(pclass)
            pcls = self.classes[pclass]
            nd = analysis.make(
                pnode.op, pnode.payload,
                tuple(self.classes[self.find(c)].data for c in pnode.children),
            )
            joined = analysis.join(pcls.data, nd, context=f"folding into class {pclass}")
            if joined is not None and pcls.data is None:
                pcls.data = joined
                self._materialize_const(pclass)
                self._worklist.append(pclass)

    # -- queries -----------------------------------------------------------

    def classes_by_op(self) -> dict[str, list[EClassId]]:
        """Sorted, distinct ids of the classes holding an e-node of each
        operator symbol. Cached per graph version; valid after rebuild."""
        version, index = self._op_index
        if version == self.version:
            return index
        index = {}
        for cid in sorted(self.classes):
            for op in {n.op for n in self.classes[cid].nodes}:
                index.setdefault(op, []).append(cid)
        self._op_index = (self.version, index)
        return index

    def class_data(self, cid: EClassId):
        return self.classes[self.find(cid)].data

    def has_literal(self, cid: EClassId, value) -> bool:
        ln = leaf(LEAF_BOOL if isinstance(value, bool) else LEAF_INT, value)
        home = self.hashcons.get(ln)
        return home is not None and self.find(home) == self.find(cid)

    def add_expr(self, e: Expr) -> EClassId:
        if isinstance(e, Var):
            return self.add(leaf(LEAF_VAR, e.name))
        if isinstance(e, IntConst):
            return self.add(leaf(LEAF_INT, e.value))
        if isinstance(e, BoolConst):
            return self.add(leaf(LEAF_BOOL, e.value))
        if isinstance(e, Unary):
            return self.add(ENode(e.op, None, (self.add_expr(e.child),)))
        return self.add(ENode(e.op, None, (self.add_expr(e.left), self.add_expr(e.right))))

    def dump(self) -> str:
        """Deterministic textual dump for golden tests."""
        lines = []
        for cid in sorted(self.classes):
            parts = []
            for n in sorted(self.classes[cid].nodes, key=repr):
                if n.children:
                    parts.append("(" + " ".join([n.op] + [f"c{c}" for c in n.children]) + ")")
                elif n.op == LEAF_VAR:
                    parts.append(str(n.payload))
                elif n.op == LEAF_BOOL:
                    parts.append("true" if n.payload else "false")
                else:
                    parts.append(str(n.payload))
            data = self.classes[cid].data
            suffix = "" if data is None else f"  [= {data!r}]"
            lines.append(f"c{cid}: " + ", ".join(parts) + suffix)
        return "\n".join(lines)


def from_expr(e: Expr) -> tuple[EGraph, EClassId]:
    g = EGraph()
    root = g.add_expr(e)
    g.rebuild()
    return g, g.find(root)
