"""E-graph invariants: hashconsing, union-find, rebuild, constant data."""

import pickle
import random
from collections import Counter

import pytest

from caviar.egraph import (
    ConstantContradiction, EGraph, ENode, from_expr, leaf_of, leaf_term, literal,
)
from caviar.corpusgen import corpus_text
from caviar.expr import BoolConst, IntConst, Var, parse_infix, parse_sexpr
from caviar.harness import read_dataset
from caviar.matching import index
from caviar.rules import default_ruleset

from .helpers import (
    VAR_NAMES, OracleEGraph, assert_canonical_storage, brute_force_congruence,
    dump, has_literal, leaf, oracle_index, random_congruence_graph, random_expr,
    saturate,
)


def test_hashcons_dedup():
    g = EGraph()
    a = g.add(leaf("var", "a"))
    b = g.add(leaf("var", "b"))
    n1 = g.add(ENode("+", None, (a, b)))
    n2 = g.add(ENode("+", None, (a, b)))
    assert n1 == n2
    assert len(g.classes) == 3


def test_union_keeps_smallest_id():
    g = EGraph()
    a = g.add(leaf("var", "a"))
    b = g.add(leaf("var", "b"))
    root = g.union(a, b)
    assert root == min(a, b)
    assert g.find(a) == g.find(b) == root


def test_congruence_propagates_upward():
    g = EGraph()
    a = g.add(leaf("var", "a"))
    b = g.add(leaf("var", "b"))
    c = g.add(leaf("var", "c"))
    fa = g.add(ENode("+", None, (a, c)))
    fb = g.add(ENode("+", None, (b, c)))
    assert g.find(fa) != g.find(fb)
    g.union(a, b)
    g.rebuild()
    assert g.find(fa) == g.find(fb)


def test_congruence_two_levels():
    g = EGraph()
    a = g.add(leaf("var", "a"))
    b = g.add(leaf("var", "b"))
    fa = g.add(ENode("neg", None, (a,)))
    fb = g.add(ENode("neg", None, (b,)))
    ffa = g.add(ENode("neg", None, (fa,)))
    ffb = g.add(ENode("neg", None, (fb,)))
    g.union(a, b)
    g.rebuild()
    assert g.find(fa) == g.find(fb)
    assert g.find(ffa) == g.find(ffb)


def test_constant_folding_on_add():
    g = EGraph()
    two = g.add(leaf("int", 2))
    three = g.add(leaf("int", 3))
    s = g.add(ENode("+", None, (two, three)))
    assert g.class_data(s) == 5
    assert has_literal(g, s, 5)


def test_constant_propagates_after_union():
    g, root = from_expr(parse_infix("x + 3"))
    gx = g.add(leaf("var", "x"))
    two = g.add(leaf("int", 2))
    g.union(gx, two)
    g.rebuild()
    assert g.class_data(root) == 5
    assert has_literal(g, root, 5)


def test_has_literal_distinguishes_bool_from_int():
    g = EGraph()
    one = g.add(leaf("int", 1))
    t = g.add(leaf("bool", True))
    assert has_literal(g, one, 1)
    assert not has_literal(g, one, True)
    assert has_literal(g, t, True)
    assert not has_literal(g, t, 1)


def test_contradiction_raises():
    g = EGraph()
    one = g.add(leaf("int", 1))
    two = g.add(leaf("int", 2))
    with pytest.raises(ConstantContradiction):
        g.union(one, two)


def test_leaf_data():
    # a literal's class holds its value as its datum, a variable's none
    g = EGraph()
    assert g.class_data(g.add(literal(7))) == 7
    assert g.class_data(g.add(literal(True))) is True
    assert g.class_data(g.add(leaf("var", "x"))) is None


def test_folding_follows_the_operator_table():
    for src, value in [("(+ 2 3)", 5), ("(* -4 5)", -20), ("(/ 7 2)", 3),
                       ("(/ 7 0)", 0), ("(% -7 2)", 1), ("(< 1 2)", True),
                       ("(&& true false)", False), ("(neg 3)", -3), ("(! false)", True)]:
        g, root = from_expr(parse_sexpr(src))
        data = g.class_data(root)
        assert data == value and type(data) is type(value), src
        assert has_literal(g, root, value), src


def test_unknown_child_blocks_folding():
    for src in ["(+ 2 x)", "(min x y)", "(< x (+ 1 2))"]:
        g, root = from_expr(parse_sexpr(src))
        assert g.class_data(root) is None, src


def test_data_propagate_and_agreeing_folds_pass():
    # a union gives the kept class the other's datum, whichever holds it
    for first, second in [(leaf("var", "x"), literal(5)), (literal(5), leaf("var", "x"))]:
        g = EGraph()
        assert g.class_data(g.union(g.add(first), g.add(second))) == 5
    # a fold that agrees with the datum its class holds already is no
    # contradiction, for an int and for a bool
    for src, x, y, value in [("(+ x y)", 1, 1, 2), ("(< x y)", 1, 2, True)]:
        g, root = from_expr(parse_sexpr(src))
        g.union(root, g.add(literal(value)))
        g.union(g.add(leaf("var", "x")), g.add(literal(x)))
        g.union(g.add(leaf("var", "y")), g.add(literal(y)))
        g.rebuild()
        data = g.class_data(root)
        assert data == value and type(data) is type(value), src


def test_contradiction_names_where_it_arose():
    for a, b in [(1, 2), (True, False)]:
        g = EGraph()
        one, two = g.add(literal(a)), g.add(literal(b))
        with pytest.raises(ConstantContradiction) as exc:
            g.union(one, two)
        assert str(exc.value) == f"constant contradiction: {a!r} vs {b!r} (union of classes 0 and 1)"
    # classes x 0, y 1, x + y 2; 2 holds 5, then x and y both hold 1
    g, root = from_expr(parse_sexpr("(+ x y)"))
    g.union(root, g.add(literal(5)))
    g.union(g.add(leaf("var", "x")), g.add(literal(1)))
    g.union(g.add(leaf("var", "y")), g.add(literal(1)))
    with pytest.raises(ConstantContradiction) as exc:
        g.rebuild()
    assert str(exc.value) == "constant contradiction: 5 vs 2 (folding into class 2)"
    assert exc.value.values == (5, 2)


def test_union_distinguishes_bool_from_int():
    # 1 == True and 0 == False in Python, but they are different constants
    for a, b in [(1, True), (0, False)]:
        g = EGraph()
        one, t = g.add(literal(a)), g.add(literal(b))
        with pytest.raises(ConstantContradiction) as exc:
            g.union(one, t)
        assert str(exc.value) == f"constant contradiction: {a} vs {b} (union of classes 0 and 1)"


def test_contradiction_message_bounds_long_integers():
    # past the int/str digit limit `repr` raises; the message gives the
    # digit count, exact also next to a power of ten
    big = 10 ** 4400
    g = EGraph()
    a, b = g.add(literal(big - 1)), g.add(literal(-big))
    with pytest.raises(ConstantContradiction) as exc:
        g.union(a, b)
    assert str(exc.value) == ("constant contradiction: <4400-digit integer> vs "
                              "<-4401-digit integer> (union of classes 0 and 1)")
    assert exc.value.values == (big - 1, -big)


def test_contradiction_survives_pickling():
    # a worker process sends its contradiction to the parent pickled
    for exc in (ConstantContradiction(5, 2, "folding into class 2"),
                ConstantContradiction(True, 1)):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is ConstantContradiction
        assert (back.values, str(back)) == (exc.values, str(exc))


def test_from_expr_shares_subterms():
    g, root = from_expr(parse_infix("(x + 1) * (x + 1)"))
    # x, 1, x+1, and the product
    assert len(g.classes) == 4


def test_dump_is_deterministic():
    e = parse_infix("min(x, y) + max(x, 2)")
    g1, _ = from_expr(e)
    g2, _ = from_expr(e)
    assert dump(g1) == dump(g2)


def test_rebuild_matches_brute_force_congruence():
    for seed in range(50):
        rng = random.Random(seed)
        g, added, unions = random_congruence_graph(rng)
        oracle_find = brute_force_congruence(added, unions)
        ids = [cid for _, cid in added]
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                expected = oracle_find(a) == oracle_find(b)
                got = g.find(a) == g.find(b)
                assert got == expected, (seed, a, b)


def test_rebuild_keeps_stored_nodes_canonical():
    for seed in range(50):
        rng = random.Random(seed)
        g, added, _ = random_congruence_graph(rng)
        ids = [cid for _, cid in added]
        for _ in range(rng.randrange(1, 5)):
            g.union(rng.choice(ids), rng.choice(ids))
        g.rebuild()
        assert_canonical_storage(g)


def test_version_tracks_change():
    g = EGraph()
    a = g.add(leaf("var", "a"))
    v = g.version
    g.add(leaf("var", "a"))  # duplicate, no change
    assert g.version == v
    g.add(leaf("var", "b"))
    assert g.version > v


def _root(uf, a):
    """`find` without path compression, so that comparing two graphs does
    not change either."""
    while uf[a] != a:
        a = uf[a]
    return a


def _state(g):
    return (dump(g), list(g._uf),
            {n: _root(g._uf, v) for n, v in g.hashcons.items()},
            [(cid, list(cls.nodes), list(cls.parents), cls.data)
             for cid, cls in g.classes.items()])


def _run_constant_script(g, rng):
    """Seeded adds and unions over var and int leaves, rebuilt at random
    points; returns the states after each rebuild, the text of the first
    ConstantContradiction, if any, and the count of unions whose kept class
    has a datum. Adds after a union, before the rebuild, pass children as
    they are, which need not be roots, and may find a literal a fold
    already added. Every `add` returns a root, also when its fold merged
    the new class. After every union the kept class stores the literal
    e-node of its datum, so `union` need not add it."""
    def add(n):
        cid = g.add(n)
        assert g._uf[cid] == cid, (n, cid)
        return cid

    ids = [add(leaf("var", name)) for name in rng.sample(VAR_NAMES, 3)]
    ids += [add(leaf("int", v)) for v in rng.sample([-2, -1, 0, 1, 2, 3], 3)]
    states = []
    datum_unions = 0

    def add_random(canonical):
        op = rng.choice(("+", "-", "*", "min", "max", "/", "%", "neg"))
        kids = (rng.choice(ids),) if op == "neg" else (rng.choice(ids), rng.choice(ids))
        ids.append(add(ENode(op, None, tuple(map(g.find, kids)) if canonical else kids)))

    try:
        for _ in range(rng.randrange(10, 30)):
            add_random(True)
        for _ in range(rng.randrange(2, 12)):
            keep = g.union(rng.choice(ids), rng.choice(ids))
            data = g.classes[keep].data
            if data is not None:
                assert g.find(g.hashcons[literal(data)]) == keep, (keep, data)
                datum_unions += 1
            if rng.random() < 0.3:
                add_random(False)
                ids.append(add(leaf("int", rng.choice([-4, 0, 2, 6, 9]))))
            if rng.random() < 0.4:
                g.rebuild()
                states.append(_state(g))
        g.rebuild()
    except ConstantContradiction as exc:
        return states, str(exc), datum_unions
    states.append(_state(g))
    return states, None, datum_unions


def test_incremental_repair_agrees_with_full_repair_oracle():
    # int literals and unions that give classes a datum, so folding runs and
    # unsound unions and folds raise; every rebuild leaves the same graph,
    # union-find and hashcons as the full repair, and every error the same text
    errors = {"union": 0, "folding": 0}
    folded = literal_leaves = bare_repairs = datum_unions = 0
    for seed in range(300):
        new, old = EGraph(), OracleEGraph()
        got = _run_constant_script(new, random.Random(seed))
        want = _run_constant_script(old, random.Random(seed))
        assert got == want, seed
        states, error, n = got
        datum_unions += n
        if error is not None:
            errors["union" if "union of classes" in error else "folding"] += 1
        folded += sum(data is not None for *_, data in states[-1][3]) if states else 0
        literal_leaves += old.literal_leaves
        bare_repairs += old.bare_repairs
    assert errors["union"] >= 50 and errors["folding"] >= 30, errors
    assert folded >= 500 and datum_unions >= 500, (folded, datum_unions)
    # `add` gives a fresh literal leaf its datum without a fold, and the
    # repair of a class with no datum skips the fold
    assert literal_leaves >= 1000 and bare_repairs >= 400, (literal_leaves, bare_repairs)


class IndexCheckedEGraph(EGraph):
    """Checks the operator index and the shape that `matching.index`
    computes against the ones recomputed over every class, after every
    rebuild, and that `classes` iterates in ascending id order, which the
    index's sorted id lists rely on. Checks too that a class's datum and its
    literal e-nodes agree both ways, which the goal check relies on when it
    reads the root's datum alone."""

    def __init__(self):
        super().__init__()
        self.checked = 0
        self.data_checked = Counter()  # classes with a datum, by its type

    def rebuild(self):
        super().rebuild()
        assert list(self.classes) == sorted(self.classes)
        assert index(self) == oracle_index(self)
        for cid, cls in self.classes.items():
            if cls.data is not None:
                # the hashcons entry of the datum's literal finds the class
                assert has_literal(self, cid, cls.data), (cid, cls.data)
                self.data_checked[type(cls.data)] += 1
            for n in cls.nodes:
                if n.op in ("int", "bool"):
                    # a stored literal is the datum, with bool and int apart
                    assert n == literal(cls.data), (cid, n, cls.data)
        self.checked += 1


def test_index_and_data_agree_after_every_rebuild():
    # the constant scripts union, add over ids that are not roots and
    # materialize literals; saturation adds and unions at scale, and on
    # provable rows a rule's rhs brings in the goal literal
    graphs = []
    for seed in range(300):
        g = IndexCheckedEGraph()
        _run_constant_script(g, random.Random(seed))
        graphs.append(g)
    rules = default_ruleset().rules
    grew = 0
    for seed in range(16):
        g = IndexCheckedEGraph()
        g.add_expr(random_expr(random.Random(seed), 4))
        g.rebuild()
        before = len(index(g)[1])
        saturate(g, rules, 3)
        graphs.append(g)
        grew += len(index(g)[1]) > before
    for _, src in read_dataset(corpus_text("provable.txt"))[:16]:
        g = IndexCheckedEGraph()
        g.add_expr(parse_infix(src))
        g.rebuild()
        saturate(g, rules, 3)
        graphs.append(g)
    checked = sum(g.checked for g in graphs)
    data_checked = sum((g.data_checked for g in graphs), Counter())
    assert checked >= 600 and grew >= 12, (checked, grew)
    assert data_checked[int] >= 3000 and data_checked[bool] >= 60, data_checked


def test_leaf_encoding_round_trips():
    terms = [Var("x"), IntConst(-3), IntConst(0), IntConst(1), BoolConst(True),
             BoolConst(False)]
    for t in terms:
        assert leaf_term(leaf_of(t)) == t
    # 1 == True in Python, but an int and a bool literal are distinct leaves
    assert len({leaf_of(t) for t in terms}) == len(terms)
    assert leaf_of(IntConst(1)) == literal(1) != literal(True) == leaf_of(BoolConst(True))
