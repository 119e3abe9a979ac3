"""E-graph: hashconsed e-nodes in e-classes under a union-find.

Congruence is maintained by deferred rebuilding: unions queue classes for
repair and `rebuild` repairs the hashcons/congruence invariants to a fixed
point. After `rebuild`, each class's stored `nodes` list is canonical (every
child is its own `find`) and duplicate-free, so readers use it as stored.
Only the classes a union kept or a repair re-keyed can break that, so
`rebuild` re-canonicalizes those alone, and a repair re-keys only the parent
e-nodes that a union made non-canonical or congruent to another.
The union-find keeps the smallest member id as the canonical representative,
which makes class ids (and everything derived from them) deterministic.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from . import analysis
from .analysis import ConstantContradiction, LEAF_BOOL, LEAF_INT, LEAF_VAR
from .expr import Binary, BoolConst, Expr, IntConst, Unary, Var

EClassId = int


class ENode(NamedTuple):
    op: str                       # operator symbol, or "var"/"int"/"bool"
    payload: object               # leaf payload; None for operators
    children: tuple[EClassId, ...]


# builds an e-node from an (op, payload, children) tuple at C level; the
# NamedTuple's own constructor goes through Python-level `__new__`
enode = partial(tuple.__new__, ENode)


def leaf(op: str, payload) -> ENode:
    return enode((op, payload, ()))


class EClass:
    __slots__ = ("nodes", "parents", "data")

    def __init__(self, node: ENode):
        self.nodes: list[ENode] = [node]
        self.parents: list[tuple[ENode, EClassId]] = []
        self.data = None  # constant datum or None


class EGraph:
    def __init__(self):
        self._uf: list[int] = []
        self.classes: dict[EClassId, EClass] = {}
        self.hashcons: dict[ENode, EClassId] = {}
        self._worklist: list[EClassId] = []
        # classes whose stored nodes may be stale or duplicated: the kept
        # class of every union and every parent class a repair re-keys
        self._stale: set[EClassId] = set()
        # bumped on every structural change; the saturation engine compares
        # it across an iteration to detect saturation
        self.version = 0
        # (version, classes_by_op, shape), computed together once per version
        self._index: tuple[int, dict[str, list[EClassId]], frozenset] = (-1, {}, frozenset())

    # -- union-find --------------------------------------------------------

    def find(self, a: EClassId) -> EClassId:
        uf = self._uf
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    def canonicalize(self, n: ENode) -> ENode:
        """`n` with every child replaced by its find; `n` itself when every
        child is already a root."""
        uf = self._uf
        for c in n.children:
            if uf[c] != c:
                return enode((n.op, n.payload, tuple(map(self.find, n.children))))
        return n

    # -- construction ------------------------------------------------------

    def add(self, n: ENode) -> EClassId:
        # the rhs builder and `add_expr` pass canonical children, so try the
        # node as given first; a stale key found here still names a
        # congruent class, so the answer is right for any caller
        hashcons = self.hashcons
        existing = hashcons.get(n)
        if existing is None:
            canon = self.canonicalize(n)
            if canon is not n:
                n = canon
                existing = hashcons.get(n)
        if existing is not None:
            return self.find(existing)
        cid = len(self._uf)
        self._uf.append(cid)
        classes = self.classes
        cls = classes[cid] = EClass(n)
        hashcons[n] = cid
        for c in n.children:
            classes[c].parents.append((n, cid))
        cls.data = analysis.make(n.op, n.payload, tuple([classes[c].data for c in n.children]))
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
        # the join's context is formatted only where it can raise
        if kc.data is not None and gc.data is not None:
            analysis.join(kc.data, gc.data, context=f"union of classes {keep} and {gone}")
        kc.nodes.extend(gc.nodes)
        kc.parents.extend(gc.parents)
        if kc.data is None and gc.data is not None:
            kc.data = gc.data
            self._materialize_const(keep)
        self._worklist.append(keep)
        self._stale.add(keep)
        self.version += 1
        return keep

    # -- rebuilding --------------------------------------------------------

    def rebuild(self) -> None:
        while self._worklist:
            todo = dict.fromkeys(map(self.find, self._worklist))
            self._worklist = []
            for c in todo:
                self._repair(self.find(c))
        # the one place that keeps stored nodes canonical and duplicate-free;
        # `_repair` rewrites only the parent lists
        for cid in {self.find(c) for c in self._stale}:
            cls = self.classes[cid]
            cls.nodes = list(dict.fromkeys(map(self.canonicalize, cls.nodes)))
        self._stale.clear()

    def _repair(self, cid: EClassId) -> None:
        cls = self.classes[cid]
        find, classes, hashcons = self.find, self.classes, self.hashcons
        # taken out first: a union below may merge this class, and the
        # surviving class keeps its own parents (queued for repair) plus these
        parents, cls.parents = cls.parents, []
        new_parents: dict[ENode, EClassId] = {}
        for pnode, pclass in parents:
            pnode2 = self.canonicalize(pnode)
            pclass = find(pclass)
            prev = new_parents.get(pnode2)
            if pnode2 is pnode and prev is None:
                # still canonical and not congruent to an earlier parent: its
                # hashcons key stands (readers `find` the value) and its class
                # holds nothing stale on its account
                new_parents[pnode] = pclass
                continue
            hashcons.pop(pnode, None)
            self._stale.add(pclass)
            if prev is not None:
                pclass = self.union(prev, pclass)
            new_parents[pnode2] = pclass
            hashcons[pnode2] = pclass
        classes[find(cid)].parents.extend(new_parents.items())
        # propagate constant data upward; a parent with a child of no datum
        # folds to nothing
        for pnode, pclass in new_parents.items():
            pclass = find(pclass)
            child_data = tuple([classes[find(c)].data for c in pnode.children])
            if None in child_data:
                continue
            pcls = classes[pclass]
            nd = analysis.make(pnode.op, pnode.payload, child_data)
            if pcls.data is not None:
                analysis.join(pcls.data, nd, context=f"folding into class {pclass}")
            else:
                pcls.data = nd
                self._materialize_const(pclass)
                self._worklist.append(pclass)

    # -- queries -----------------------------------------------------------

    def _indexed(self) -> tuple[int, dict[str, list[EClassId]], frozenset]:
        index = self._index
        if index[0] == self.version:
            return index
        by_op: dict[str, list[EClassId]] = {}
        ops_of: dict[EClassId, set[str]] = {}
        classes = self.classes
        for cid in sorted(classes):
            ops = ops_of[cid] = {n.op for n in classes[cid].nodes}
            for op in ops:
                by_op.setdefault(op, []).append(cid)
        shape = {(n.op, i, child_op) for cls in classes.values() for n in cls.nodes
                 for i, c in enumerate(n.children) for child_op in ops_of[c]}
        shape.update(by_op)
        index = self._index = (self.version, by_op, frozenset(shape))
        return index

    def classes_by_op(self) -> dict[str, list[EClassId]]:
        """Sorted, distinct ids of the classes holding an e-node of each
        operator symbol. Cached per graph version; valid after rebuild."""
        return self._indexed()[1]

    def shape(self) -> frozenset:
        """The operator symbols of the stored e-nodes, and the
        `(op, child index, child op)` triples of an e-node of operator `op`
        whose child class stores an e-node of `child op`: a pattern whose
        `Rule.shape` is not a subset has no match. Cached with
        `classes_by_op`."""
        return self._indexed()[2]

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
            return self.add(enode((e.op, None, (self.add_expr(e.child),))))
        return self.add(enode((e.op, None, (self.add_expr(e.left), self.add_expr(e.right)))))

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
