"""E-graph: hashconsed e-nodes in e-classes under a union-find.

Congruence is maintained by deferred rebuilding: unions mark classes dirty
and `rebuild` repairs the hashcons/congruence invariants to a fixed point.
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
        return ENode(n.op, n.payload, tuple(self.find(c) for c in n.children))

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
            todo = []
            seen = set()
            for c in self._worklist:
                c = self.find(c)
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
            self._worklist = []
            for c in todo:
                self._repair(self.find(c))
        if dirty:
            # normalize member node storage so later scans see canonical,
            # deduplicated nodes without re-canonicalizing per query
            for cls in self.classes.values():
                dedup: dict[ENode, None] = {}
                for n in cls.nodes:
                    dedup.setdefault(self.canonicalize(n), None)
                cls.nodes = list(dedup)

    def _repair(self, cid: EClassId) -> None:
        cls = self.classes.get(cid)
        if cls is None:
            return
        new_parents: dict[ENode, EClassId] = {}
        for pnode, pclass in cls.parents:
            self.hashcons.pop(pnode, None)
            pnode2 = self.canonicalize(pnode)
            pclass = self.find(pclass)
            prev = new_parents.get(pnode2)
            if prev is not None:
                pclass = self.union(prev, pclass)
            new_parents[pnode2] = pclass
            self.hashcons[pnode2] = pclass
        cid = self.find(cid)
        cls = self.classes[cid]
        cls.parents = list(new_parents.items())
        # re-canonicalize and dedupe member nodes
        dedup: dict[ENode, None] = {}
        for n in cls.nodes:
            dedup.setdefault(self.canonicalize(n), None)
        cls.nodes = list(dedup)
        # propagate constant data upward
        for pnode, pclass in cls.parents:
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

    def nodes_by_op(self) -> dict[str, list[tuple[EClassId, ENode]]]:
        """Index of canonical member e-nodes grouped by operator symbol.

        Cached per graph version; valid after rebuild.
        """
        cache = getattr(self, "_op_cache", None)
        if cache is not None and cache[0] == self.version:
            return cache[1]
        index: dict[str, list[tuple[EClassId, ENode]]] = {}
        for cid in self.classes:
            for n in self.canonical_nodes(cid):
                index.setdefault(n.op, []).append((cid, n))
        self._op_cache = (self.version, index)
        return index

    def canonical_nodes(self, cid: EClassId) -> list[ENode]:
        """Canonicalized, deduplicated member e-nodes of a class."""
        dedup: dict[ENode, None] = {}
        for n in self.classes[self.find(cid)].nodes:
            dedup.setdefault(self.canonicalize(n), None)
        return list(dedup)

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
            for n in sorted(self.canonical_nodes(cid), key=repr):
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
