"""E-matching, conditions, and rewrite application semantics."""

import random

import pytest

from caviar.egraph import EGraph, ENode, from_expr, leaf
from caviar.expr import SortError, parse_infix, parse_sexpr
from caviar.matching import (
    CondIsConst, CondNonConst, CondNonZero, CondPred, Matcher, PatVar, Rule,
    apply_matches, apply_rule, ematch, eval_condition, gather_matches,
    instantiate, pattern_vars,
)
from caviar.rules import default_nppd_patterns, default_ruleset, parse_rules

from .helpers import assert_canonical_storage, oracle_ematch, random_bool_expr


def pat(src):
    return parse_sexpr(src, allow_patvars=True)


def rule(src):
    return parse_rules(src).rules[0]


def test_pattern_vars_order():
    assert pattern_vars(pat("(+ ?b (+ ?a ?b))")) == ["b", "a"]


def test_ematch_simple():
    g, root = from_expr(parse_infix("(a + b) * c"))
    matches = list(ematch(g, pat("(* ?x ?y)")))
    assert len(matches) == 1
    cid, subst = matches[0]
    assert cid == root
    assert subst["x"] == g.find(g.add(ENode("+", None, (
        g.add(leaf("var", "a")), g.add(leaf("var", "b"))))))


def test_ematch_nonlinear():
    g1, _ = from_expr(parse_infix("a + a"))
    assert len(list(ematch(g1, pat("(+ ?x ?x)")))) == 1
    g2, _ = from_expr(parse_infix("a + b"))
    assert len(list(ematch(g2, pat("(+ ?x ?x)")))) == 0
    # nonlinear across classes made equal by a union
    g3, _ = from_expr(parse_infix("a + b"))
    g3.union(g3.add(leaf("var", "a")), g3.add(leaf("var", "b")))
    g3.rebuild()
    assert len(list(ematch(g3, pat("(+ ?x ?x)")))) == 1


def test_ematch_ground_literal():
    g, root = from_expr(parse_infix("x + 1"))
    assert len(list(ematch(g, pat("(+ ?a 1)")))) == 1
    assert len(list(ematch(g, pat("(+ ?a 2)")))) == 0


def test_ematch_matches_folded_constants():
    # 2 + 3 folds to 5; a literal-5 pattern must match the sum's class
    g, root = from_expr(parse_infix("(2 + 3) % x"))
    assert len(list(ematch(g, pat("(% 5 ?x)")))) == 1


def test_ematch_class_dedup():
    g, root = from_expr(parse_infix("a + b"))
    subs = list(Matcher(pat("?x")).match_class(g, root))
    assert len(subs) == 1


def test_conditions():
    g, root = from_expr(parse_infix("x + 3"))
    cx = g.find(g.add(leaf("var", "x")))
    c3 = g.find(g.add(leaf("int", 3)))
    assert eval_condition(CondIsConst("a"), g, {"a": c3})
    assert not eval_condition(CondIsConst("a"), g, {"a": cx})
    assert eval_condition(CondNonConst("a"), g, {"a": cx})
    assert eval_condition(CondNonZero("a"), g, {"a": c3})
    assert not eval_condition(CondNonZero("a"), g, {"a": cx})
    assert eval_condition(CondPred(pat("(< 0 ?a)")), g, {"a": c3})
    assert not eval_condition(CondPred(pat("(< 0 ?a)")), g, {"a": cx})


def test_rule_validation():
    with pytest.raises(SortError):
        Rule("bad", pat("(+ ?a ?b)"), pat("?c")).validate()
    with pytest.raises(SortError):
        Rule("bad", pat("(+ ?a ?b)"), pat("(&& ?a ?b)")).validate()
    with pytest.raises(SortError):
        Rule("bad", pat("?a"), pat("?a")).validate()
    Rule("ok", pat("(+ ?a ?b)"), pat("(+ ?b ?a)")).validate()


def test_apply_rule_unions_lhs_and_rhs():
    g, root = from_expr(parse_infix("(a + b) - b"))
    r = rule("(rule cancel (- (+ ?x ?y) ?y) ?x)")
    assert apply_rule(g, r) == 1
    a = g.find(g.add(leaf("var", "a")))
    assert g.find(root) == a
    # second application is redundant
    assert apply_rule(g, r) == 0


def test_conditional_rule_respects_condition():
    r = rule("(rule div-self (/ ?a ?a) 1 :if (nonzero ?a))")
    g1, root1 = from_expr(parse_infix("x / x"))
    assert apply_rule(g1, r) == 0  # x is not a known nonzero constant
    g2, root2 = from_expr(parse_infix("3 / 3"))
    # folded already by the analysis, so the rule match is redundant
    assert g2.has_literal(root2, 1)


def test_instantiate_reuses_classes():
    g, root = from_expr(parse_infix("a + b"))
    n_before = len(g.classes)
    subst = dict(list(ematch(g, pat("(+ ?x ?y)")))[0][1])
    cid = instantiate(g, pat("(+ ?y ?x)"), subst)
    assert len(g.classes) == n_before + 1  # only the flipped sum is new
    assert cid != g.find(root)


def test_snapshot_semantics_order_invariance():
    # gathering matches for both rules against the same snapshot, then
    # applying, gives the same result whichever rule applies first
    src = "(a + 0) * 1"
    r1 = rule("(rule add-zero (+ ?x 0) ?x)")
    r2 = rule("(rule mul-one (* ?x 1) ?x)")
    dumps = []
    for order in ((r1, r2), (r2, r1)):
        g, root = from_expr(parse_infix(src))
        ms = [gather_matches(g, r) for r in order]
        from caviar.matching import apply_matches
        for r, m in zip(order, ms):
            apply_matches(g, r, m)
        g.rebuild()
        dumps.append((g.find(root), g.dump()))
    assert dumps[0] == dumps[1]


def test_gather_matches_is_frozen_snapshot():
    # matches gathered before mutation do not see nodes added afterwards
    g, root = from_expr(parse_infix("a + 0"))
    r = rule("(rule add-zero (+ ?x 0) ?x)")
    ms = gather_matches(g, r)
    assert len(ms) == 1
    g.add(ENode("+", None, (g.add(leaf("var", "b")), g.add(leaf("int", 0)))))
    assert len(ms) == 1


def test_tick_can_stop_a_class_with_many_matches():
    # one class with 400 `+` e-nodes: a search must produce its matches one
    # at a time, so that the engine's deadline tick stops it mid-class
    g = EGraph()
    leaves = [g.add(leaf("var", f"a{i}")) for i in range(20)]
    sums = [g.add(ENode("+", None, (a, b))) for a in leaves for b in leaves]
    for s in sums:
        g.union(sums[0], s)
    g.rebuild()
    pulled = []

    class CountingNodes(list):
        def __iter__(self):
            for n in list.__iter__(self):
                pulled.append(n)
                yield n

    g.classes_by_op()  # index first: count only the matcher's reads
    big = g.classes[g.find(sums[0])]
    big.nodes = CountingNodes(big.nodes)
    assert len(big.nodes) == 400

    class Deadline(Exception):
        pass

    def tick():
        if len(pulled) >= 256:
            raise Deadline

    with pytest.raises(Deadline):
        gather_matches(g, rule("(rule add-comm (+ ?a ?b) (+ ?b ?a))"), tick=tick)
    assert len(pulled) == 257


def test_compiled_matcher_agrees_with_interpretive_oracle():
    # every default rule lhs and NPPD pattern, and ground variables, on
    # graphs saturated for a few iterations so that classes hold many
    # merged, re-canonicalized e-nodes
    rules = default_ruleset().rules
    extra = [pat(src) for src in ("(+ x ?a)", "(< ?a (+ y ?a))", "(max ?a x)")]
    compiled = ([(r.matcher, r.lhs) for r in rules]
                + [(p.matcher, p.pattern) for p in default_nppd_patterns()]
                + [(Matcher(p), p) for p in extra])
    matched, hit = 0, set()
    for seed in range(16):
        g, _ = from_expr(random_bool_expr(random.Random(seed), 4))
        for _ in range(3):
            assert_canonical_storage(g)
            for i, (matcher, p) in enumerate(compiled):
                got = list(matcher.search(g))
                assert got == oracle_ematch(g, p), (seed, p)
                matched += len(got)
                if got:
                    hit.add(i)
            ms = [gather_matches(g, r) for r in rules]
            for r, m in zip(rules, ms):
                apply_matches(g, r, m)
            g.rebuild()
    # the comparison is only as strong as the matches it saw
    assert matched > 2000 and len(hit) > 90
