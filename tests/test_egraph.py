"""E-graph invariants: hashconsing, union-find, rebuild, constant data."""

import random

import pytest

from caviar.analysis import ConstantContradiction
from caviar.egraph import EGraph, ENode, from_expr, leaf
from caviar.expr import parse_infix

from .helpers import (
    assert_canonical_storage, brute_force_congruence, random_congruence_graph,
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
    assert g.has_literal(s, 5)


def test_constant_propagates_after_union():
    g, root = from_expr(parse_infix("x + 3"))
    gx = g.add(leaf("var", "x"))
    two = g.add(leaf("int", 2))
    g.union(gx, two)
    g.rebuild()
    assert g.class_data(root) == 5
    assert g.has_literal(root, 5)


def test_has_literal_distinguishes_bool_from_int():
    g = EGraph()
    one = g.add(leaf("int", 1))
    t = g.add(leaf("bool", True))
    assert g.has_literal(one, 1)
    assert not g.has_literal(one, True)
    assert g.has_literal(t, True)
    assert not g.has_literal(t, 1)


def test_contradiction_raises():
    g = EGraph()
    one = g.add(leaf("int", 1))
    two = g.add(leaf("int", 2))
    with pytest.raises(ConstantContradiction):
        g.union(one, two)


def test_from_expr_shares_subterms():
    g, root = from_expr(parse_infix("(x + 1) * (x + 1)"))
    # x, 1, x+1, and the product
    assert len(g.classes) == 4


def test_dump_is_deterministic():
    e = parse_infix("min(x, y) + max(x, 2)")
    g1, _ = from_expr(e)
    g2, _ = from_expr(e)
    assert g1.dump() == g2.dump()


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
