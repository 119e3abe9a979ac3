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

Constant folding is the graph's one analysis: an e-node whose children all
hold a constant datum (int or bool) folds by the operator table, and its
class stores the literal e-node of the datum too. Merging distinct data is a
fatal contradiction, which only an unsound rule or an engine bug can cause.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

from .expr import OPERATORS, App, BoolConst, Expr, IntConst, Var

EClassId = int

LEAF_INT = "int"
LEAF_BOOL = "bool"
LEAF_VAR = "var"


def _show(value) -> str:
    """`repr(value)`, or for an integer past the int/str digit limit, which
    `repr` refuses, its sign and its number of decimal digits."""
    try:
        return repr(value)
    except ValueError:
        n = abs(value)
        digits = int(math.log10(n)) + 1  # off by one only next to a power of 10
        if n < 10 ** (digits - 1):
            digits -= 1
        elif n >= 10 ** digits:
            digits += 1
        return f"<{'-' if value < 0 else ''}{digits}-digit integer>"


class ConstantContradiction(Exception):
    def __init__(self, a, b, context: str = ""):
        self.values, self.context = (a, b), context
        msg = f"constant contradiction: {_show(a)} vs {_show(b)}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)

    def __reduce__(self):
        # to cross from a worker process: `Exception` unpickles as `cls(*args)`
        return type(self), (*self.values, self.context)


def _agree(a, b, context: str) -> None:
    """Raise ConstantContradiction unless the data `a` and `b` are one
    constant: equal, and both bool or both int (`1 == True` in Python)."""
    if a != b or isinstance(a, bool) != isinstance(b, bool):
        raise ConstantContradiction(a, b, context)


class ENode(NamedTuple):
    op: str                       # operator symbol, or "var"/"int"/"bool"
    payload: object               # leaf payload; None for operators
    children: tuple[EClassId, ...]


# builds an e-node from an (op, payload, children) tuple at C level; the
# NamedTuple's own constructor goes through Python-level `__new__`
enode = partial(tuple.__new__, ENode)


# The one mapping between leaf terms and leaf e-nodes: a variable is a
# `var` e-node holding its name, a constant an `int` or `bool` e-node
# holding its value.

def literal(value) -> ENode:
    """The leaf e-node of an int or bool constant."""
    return enode((LEAF_BOOL if isinstance(value, bool) else LEAF_INT, value, ()))


def leaf_of(term: Var | IntConst | BoolConst) -> ENode:
    """The leaf e-node of a leaf term."""
    if isinstance(term, Var):
        return enode((LEAF_VAR, term.name, ()))
    return literal(term.value)


_LEAF_TERMS = {LEAF_VAR: Var, LEAF_INT: IntConst, LEAF_BOOL: BoolConst}


def leaf_term(n: ENode) -> Var | IntConst | BoolConst:
    """The leaf term of a leaf e-node; the inverse of `leaf_of`."""
    return _LEAF_TERMS[n.op](n.payload)


class EClass:
    __slots__ = ("nodes", "parents", "data")

    def __init__(self, node: ENode):
        self.nodes: list[ENode] = [node]
        self.parents: list[tuple[ENode, EClassId]] = []
        self.data = None  # constant datum or None


class EGraph:
    """`classes` iterates in ascending id order: ids are handed out in
    increasing order, and `union` removes the larger of two ids."""

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
        """The root of the class holding `n`, added if it is new."""
        # the rhs builder and `add_expr` pass canonical children, so try the
        # node as given first; a stale key found here still names a
        # congruent class, so the answer is right for any caller
        hashcons, uf = self.hashcons, self._uf
        existing = hashcons.get(n)
        if existing is None:
            for c in n.children:
                if uf[c] != c:
                    n = self.canonicalize(n)
                    existing = hashcons.get(n)
                    break
        if existing is not None:
            return existing if uf[existing] == existing else self.find(existing)
        cid = len(uf)
        uf.append(cid)
        classes = self.classes
        cls = classes[cid] = EClass(n)
        hashcons[n] = cid
        op, payload, children = n
        if children:
            data = []
            for c in children:
                child = classes[c]
                child.parents.append((n, cid))
                data.append(child.data)
            # folds only when every child holds a datum
            if None not in data:
                cls.data = OPERATORS[op].semantics(*data)
                cid = self._materialize_const(cid)
        elif op == LEAF_INT or op == LEAF_BOOL:
            # a literal is its own datum and its own literal e-node
            cls.data = payload
        self.version += 1
        return cid

    def _materialize_const(self, cid: EClassId) -> EClassId:
        """Add the literal e-node for a class's constant datum (egg's
        analysis `modify`); returns the class that holds `cid` afterwards."""
        ln = literal(self.classes[cid].data)
        other = self.hashcons.get(ln)
        if other is None:
            self.hashcons[ln] = cid
            self.classes[cid].nodes.append(ln)
            self.version += 1
        elif self.find(other) != cid:
            return self.union(other, cid)
        return cid

    def union(self, a: EClassId, b: EClassId) -> EClassId:
        uf = self._uf
        fa = a if uf[a] == a else self.find(a)
        fb = b if uf[b] == b else self.find(b)
        if fa == fb:
            return fa
        keep, gone = (fa, fb) if fa < fb else (fb, fa)
        kc, gc = self.classes[keep], self.classes.pop(gone)
        uf[gone] = keep
        # the context is formatted only where it can raise
        if kc.data is not None and gc.data is not None:
            _agree(kc.data, gc.data, f"union of classes {keep} and {gone}")
        kc.nodes.extend(gc.nodes)
        kc.parents.extend(gc.parents)
        if kc.data is None:
            # gc.nodes brought the datum's literal e-node along
            kc.data = gc.data
        self._worklist.append(keep)
        self._stale.add(keep)
        self.version += 1
        return keep

    # -- rebuilding --------------------------------------------------------

    def rebuild(self) -> None:
        find, uf, classes = self.find, self._uf, self.classes
        while self._worklist:
            todo = dict.fromkeys([c if uf[c] == c else find(c) for c in self._worklist])
            self._worklist = []
            for c in todo:
                self._repair(c if uf[c] == c else find(c))
        # the one place that keeps stored nodes canonical and duplicate-free;
        # `_repair` rewrites only the parent lists
        for cid in {c if uf[c] == c else find(c) for c in self._stale}:
            cls = classes[cid]
            cls.nodes = list(dict.fromkeys(map(self.canonicalize, cls.nodes)))
        self._stale.clear()

    def _repair(self, cid: EClassId) -> None:
        cls = self.classes[cid]
        find, uf, classes, hashcons = self.find, self._uf, self.classes, self.hashcons
        # taken out first: a union below may merge this class, and the
        # surviving class keeps its own parents (queued for repair) plus these
        parents, cls.parents = cls.parents, []
        new_parents: dict[ENode, EClassId] = {}
        for pnode, pclass in parents:
            pnode2 = self.canonicalize(pnode)
            if uf[pclass] != pclass:
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
        cls = classes[cid if uf[cid] == cid else find(cid)]
        cls.parents.extend(new_parents.items())
        # propagate constant data upward. A parent folds only when every
        # child holds a datum, and each has this class as a child: with no
        # datum here, none folds, and so nothing below can give it one
        if cls.data is None:
            return
        for pnode, pclass in new_parents.items():
            if uf[pclass] != pclass:
                pclass = find(pclass)
            child_data = [classes[c if uf[c] == c else find(c)].data
                          for c in pnode.children]
            if None in child_data:
                continue
            pcls = classes[pclass]
            nd = OPERATORS[pnode.op].semantics(*child_data)
            if pcls.data is not None:
                _agree(pcls.data, nd, f"folding into class {pclass}")
            else:
                pcls.data = nd
                self._materialize_const(pclass)
                self._worklist.append(pclass)

    # -- queries -----------------------------------------------------------

    def class_data(self, cid: EClassId):
        return self.classes[self.find(cid)].data

    def has_var(self, cid: EClassId) -> bool:
        """Whether the class stores a variable leaf; valid after rebuild."""
        return any(n.op == LEAF_VAR for n in self.classes[self.find(cid)].nodes)

    def add_expr(self, e: Expr) -> EClassId:
        if isinstance(e, App):
            kids = []
            for x in e.args:
                kids.append(self.add_expr(x))
            return self.add(enode((e.op, None, tuple(kids))))
        return self.add(leaf_of(e))


def from_expr(e: Expr) -> tuple[EGraph, EClassId]:
    g = EGraph()
    root = g.add_expr(e)
    g.rebuild()
    return g, g.find(root)
