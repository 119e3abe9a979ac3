"""Extraction: minimum-cost terms, determinism, and the enumeration oracle."""

import random

import caviar.extraction
from caviar.egraph import EGraph, ENode, from_expr, leaf_term
from caviar.expr import ast_size, free_vars, parse_infix
from caviar.extraction import (
    _OP_ORDINAL, AST_DEPTH, AST_SIZE, _relax, enumerate_terms, extract_best,
)
from caviar.matching import apply_rule
from caviar.rules import default_ruleset, parse_rules

from .helpers import (
    exprs_agree, leaf, oracle_extract_best, random_congruence_graph, random_expr,
    random_int_expr, saturate,
)

SHRINKING_RULES = parse_rules("""
(rule add-zero (+ ?a 0) ?a)
(rule mul-one (* ?a 1) ?a)
(rule mul-zero (* ?a 0) 0)
(rule neg-neg (neg (neg ?a)) ?a)
(rule sub-self (- ?a ?a) 0)
(rule add-comm (+ ?a ?b) (+ ?b ?a))
(rule min-self (min ?a ?a) ?a)
""").rules


def test_extract_trivial():
    g, root = from_expr(parse_infix("a + 1"))
    e, cost = extract_best(g, root, AST_SIZE)
    assert e == parse_infix("a + 1")
    assert cost == 3


def test_extract_chooses_smaller_member():
    g, root = from_expr(parse_infix("a + 0"))
    for r in SHRINKING_RULES:
        apply_rule(g, r)
    e, cost = extract_best(g, root, AST_SIZE)
    assert e == parse_infix("a")
    assert cost == 1


def test_extract_depth_cost():
    g, root = from_expr(parse_infix("(a + b) + (c + d)"))
    _, depth = extract_best(g, root, AST_DEPTH)
    assert depth == 3


def test_extract_deterministic():
    src = "min(a + 0, b * 1) + max(a, b)"
    results = []
    for _ in range(3):
        g, root = from_expr(parse_infix(src))
        for r in SHRINKING_RULES:
            apply_rule(g, r)
        results.append(extract_best(g, root, AST_SIZE))
    assert results[0] == results[1] == results[2]


def test_enumerate_terms_contains_original():
    g, root = from_expr(parse_infix("a + 0"))
    terms = enumerate_terms(g, root, 6)
    assert parse_infix("a + 0") in terms


def test_extract_matches_enumeration_oracle():
    for seed in range(100):
        rng = random.Random(seed)
        e = random_int_expr(rng, depth=3)
        g, root = from_expr(e)
        for r in rng.sample(SHRINKING_RULES, 4):
            apply_rule(g, r)
        best, cost = extract_best(g, root, AST_SIZE)
        terms = enumerate_terms(g, root, 6)
        assert terms, seed
        oracle = min(ast_size(t) for t in terms)
        assert cost == oracle, (seed, best, cost, oracle)
        assert ast_size(best) == cost


def test_extracted_term_is_equivalent():
    rng = random.Random(7)
    for seed in range(20):
        sub = random.Random(seed)
        e = random_int_expr(sub, depth=3)
        g, root = from_expr(e)
        for r in default_ruleset().rules[:40]:
            apply_rule(g, r)
        best, _ = extract_best(g, root, AST_SIZE)
        assert free_vars(best) <= free_vars(e) | set()
        assert exprs_agree(e, best, rng, trials=100), (seed, e, best)


def _relaxation_graphs() -> list:
    # plain random graphs, and graphs after a few iterations of the default
    # rules, whose classes hold many tied and cyclic e-nodes
    rules = default_ruleset().rules
    graphs = []
    for seed in range(12):
        graphs.append(random_congruence_graph(random.Random(seed))[0])
        g, _ = from_expr(random_expr(random.Random(seed), 4))
        saturate(g, rules, 3)
        graphs.append(g)
    return graphs


def test_extract_best_agrees_with_relaxation_oracle():
    graphs = _relaxation_graphs()
    checked = 0
    for i, g in enumerate(graphs):
        roots = random.Random(i).sample(sorted(g.classes), min(8, len(g.classes)))
        for root in roots:
            for cm in (AST_SIZE, AST_DEPTH):
                assert extract_best(g, root, cm) == oracle_extract_best(g, root, cm), (i, root, cm)
                checked += 1
    assert checked > 300 and max(len(g.hashcons) for g in graphs) > 400


def test_tie_break_order_is_pinned():
    # the pinned reports depend on it: leaf kinds, then the operator table
    assert list(_OP_ORDINAL) == ("int bool var neg ! + - * / % min max "
                                 "< <= > >= == != && ||").split()


def _literal_root_graph():
    """Classes that store leaves beside operator e-nodes after unions: `x`,
    `y`, `3` and `x + 0`; `true` and `a < b`; `z` and `true`."""
    g = EGraph()
    x, y, z, a, b = (g.add(leaf("var", name)) for name in "xyzab")
    three, zero = g.add(leaf("int", 3)), g.add(leaf("int", 0))
    plus = g.add(ENode("+", None, (x, zero)))
    less = g.add(ENode("<", None, (a, b)))
    true = g.add(leaf("bool", True))
    for u, v in ((plus, y), (three, x), (y, plus), (less, true), (z, true)):
        g.union(u, v)
    g.rebuild()
    return g, {"int": g.find(x), "bool": g.find(less)}


def test_literal_root_skips_relaxation_with_the_same_pick(monkeypatch):
    # a root that stores a leaf picks its least leaf at cost 1, as
    # relaxation does; the leaf order puts int before bool before var
    g, roots = _literal_root_graph()
    assert {n.op for n in g.classes[roots["int"]].nodes} == {"var", "int", "+"}
    assert {n.op for n in g.classes[roots["bool"]].nodes} == {"var", "bool", "<"}
    # among variables, the least name
    h = EGraph()
    h.union(h.add(leaf("var", "y")), h.add(leaf("var", "x")))
    h.rebuild()
    cases = [(g, root, kind) for kind, root in roots.items()] + [(h, 0, "var")]
    want = {}
    for graph, root, kind in cases:
        for cm in (AST_SIZE, AST_DEPTH):
            cost, pick = _relax(graph, cm == AST_DEPTH)
            assert cost[root] == 1 and pick[root].op == kind, (kind, cm)
            want[root, kind, cm] = (leaf_term(pick[root]), 1)
    assert want[0, "var", AST_SIZE][0] == leaf_term(leaf("var", "x"))

    def no_relax(*args):
        raise AssertionError("a root that stores a leaf is not relaxed")

    monkeypatch.setattr(caviar.extraction, "_relax", no_relax)
    for graph, root, kind in cases:
        for cm in (AST_SIZE, AST_DEPTH):
            assert extract_best(graph, root, cm) == want[root, kind, cm], (kind, cm)
