"""E-matching, conditions, and rewrite application semantics."""

import copy
import io
import keyword
import pickle
import random
import re
import tokenize

import pytest

from caviar.egraph import EGraph, ENode, from_expr, leaf
from caviar.expr import SortError, parse_infix, parse_sexpr
from caviar.matching import (
    CondIsConst, CondNonConst, CondNonZero, CondPred, Matcher, PatVar, Rule,
    _apply_source, _search_source, apply_matches, apply_rule, ematch,
    eval_condition, gather_matches, pattern_vars,
)
from caviar.rules import default_nppd_patterns, default_ruleset, parse_rules

from .helpers import (
    assert_canonical_storage, oracle_apply, oracle_ematch, random_bool_expr,
    saturate,
)


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


def test_leaf_pattern_matches_a_merged_leaf_class():
    # leaves added after the class they merge into keep hashcons entries
    # that name their old id; matching must go through find
    g, root = from_expr(parse_infix("(a + b) * c"))
    ab = g.add_expr(parse_infix("a + b"))
    c = g.add(leaf("var", "c"))
    g.union(ab, g.add(leaf("var", "w")))
    g.union(ab, g.add(leaf("int", 7)))
    g.rebuild()
    assert list(ematch(g, pat("(* w ?y)"))) == [(root, {"y": c})]
    assert list(ematch(g, pat("(* 7 ?y)"))) == [(root, {"y": c})]
    assert list(ematch(g, pat("(* ?y 7)"))) == []


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
    cid = rule("(rule flip (+ ?x ?y) (+ ?y ?x))").build(g, subst)
    assert len(g.classes) == n_before + 1  # only the flipped sum is new
    assert cid != g.find(root)
    assert g.classes[cid].nodes == [ENode("+", None, (subst["y"], subst["x"]))]


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


def oracle_gather(g, r):
    return [(cid, s) for cid, s in oracle_ematch(g, r.lhs)
            if r.cond is None or eval_condition(r.cond, g, s)]


def assert_applies_as_oracle(g, rules, matches):
    """Applies each rule's matches to `g` and to a copy by `oracle_apply`:
    the same unions per rule, and the same graph."""
    ref = copy.deepcopy(g)
    for r, ms in zip(rules, matches):
        assert apply_matches(g, r, ms) == oracle_apply(ref, r.rhs, ms), r.name
    g.rebuild()
    ref.rebuild()
    assert g.dump() == ref.dump()


def test_compiled_matcher_agrees_with_interpretive_oracle():
    # every default rule lhs and NPPD pattern, and ground variables, on
    # graphs saturated for a few iterations so that classes hold many
    # merged, re-canonicalized e-nodes; both search forms, and the rhs
    rules = default_ruleset().rules
    extra = [pat(src) for src in ("(+ x ?a)", "(< ?a (+ y ?a))", "(max ?a x)")]
    compiled = ([(r.matcher, r.lhs) for r in rules]
                + [(p.matcher, p.pattern) for p in default_nppd_patterns()]
                + [(Matcher(p), p) for p in extra])
    matched, hit, kept = 0, set(), 0
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
            gathered = [gather_matches(g, r) for r in rules]
            for r, ms in zip(rules, gathered):
                assert ms == oracle_gather(g, r), (seed, r.name)
                kept += len(ms)
            assert_applies_as_oracle(g, rules, gathered)
    # the comparison is only as strong as the matches it saw
    assert matched > 2000 and len(hit) > 90 and kept > 1500


ODD_NAMES = """
(rule odd-comm (+ ?class (* ?None ?x²)) (+ (* ?x² ?None) ?class))
(rule odd-leaf (+ None ?None) (+ ?None None) :if (nonconst ?None))
(rule odd-pred (* ?class ?x²) (* ?x² ?class) :if (pred (< 0 ?x²)))
"""


def test_odd_names_compile_match_and_apply():
    # pattern variables and leaves named as Python keywords or with
    # characters Python identifiers cannot hold reach the generated code
    # only as constants
    rules = parse_rules(ODD_NAMES).rules
    g, _ = from_expr(parse_infix("None + a * b + (c + 3 * None)"))
    for _ in range(3):
        for r in rules:
            assert list(r.matcher.search(g)) == oracle_ematch(g, r.lhs), r.name
        gathered = [gather_matches(g, r) for r in rules]
        assert [ms == oracle_gather(g, r) for r, ms in zip(rules, gathered)] == [True] * 3
        assert_applies_as_oracle(g, rules, gathered)
    assert all(gather_matches(g, r) for r in rules)


def generated_sources(r):
    return [_search_source(r.lhs, True, r.cond)[1], _search_source(r.lhs, False)[1],
            _apply_source(r.rhs, False)[1], _apply_source(r.rhs, True)[1]]


def test_generated_source_holds_only_made_up_names():
    # no variable name, leaf name, operator symbol or literal of a rule
    # reaches the generated source: it is made of keywords, a few builtins,
    # the emitter's own names and small integers
    allowed = set(keyword.kwlist) | {"set", "enumerate", "sorted"}
    odd = parse_rules(ODD_NAMES + "(rule zqrule (+ zqleaf (* ?zqvar 9137)) "
                      "(- ?zqvar (* 9137 zqleaf)) :if (pred (< 8191 ?zqvar)))").rules
    for r in default_ruleset().rules + odd:
        for source in generated_sources(r):
            assert not re.search("zq|9137|8191", source)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type == tokenize.NAME:
                    assert tok.string in allowed or re.fullmatch(r"[a-z_]+[0-9_]*", tok.string), \
                        (r.name, tok.string)
                    assert tok.string not in pattern_vars(r.lhs) or tok.string in allowed
                assert tok.type != tokenize.STRING, (r.name, tok.string)
                if tok.type == tokenize.NUMBER:
                    assert tok.string in ("0", "1", "2", "255"), (r.name, tok.string)


def test_large_patterns_compile():
    # past 16 e-node loops a match continues in a generator of its own, and
    # a deep rhs is one statement per e-node: Python limits nested blocks to
    # 20 and nested parentheses to 200
    n = 40
    lhs = "?a0"
    for i in range(1, n + 1):
        lhs = f"(+ {lhs} ?a{i})"
    rhs = "?a0"
    for i in range(1, n + 1):
        rhs = f"(+ ?a{i} {rhs})"
    r = rule(f"(rule big {lhs} {rhs})")
    src = "v0"
    for i in range(1, n + 1):
        src = f"({src} + v{i % 7})"
    g, root = from_expr(parse_infix(src))
    got = list(r.matcher.search(g))
    assert got == oracle_ematch(g, r.lhs) and [cid for cid, _ in got] == [root]
    ms = gather_matches(g, r)
    assert ms == got
    assert_applies_as_oracle(g, [r], [ms])


def test_search_ticks_per_256_matches_and_classes():
    # a tick at match 0 and every 256 matches, and at every 256th candidate
    # class but never the first, so a small search ticks only if it matches
    ticks = []
    g, _ = from_expr(parse_infix("a + a"))
    gather_matches(g, rule("(rule r (+ ?x ?x) ?x)"), tick=lambda: ticks.append(1))
    assert len(ticks) == 1
    g = EGraph()
    for i in range(600):
        g.add(ENode("+", None, (g.add(leaf("var", f"x{i}")), g.add(leaf("var", f"y{i}")))))
    g.rebuild()
    ticks.clear()
    assert gather_matches(g, rule("(rule r (+ ?x ?x) ?x)"), tick=lambda: ticks.append(1)) == []
    assert len(ticks) == 2


def test_rule_shape_filter_is_sound():
    # a rule whose lhs has an operator or a parent-child operator pair that
    # the graph lacks has no match in it
    rules = default_ruleset().rules
    assert rule("(rule r (+ ?a (* ?b 2)) ?a)").shape == {"+", "*", ("+", 1, "*")}
    assert rule("(rule r (! true) false)").shape == {"!"}
    g, _ = from_expr(parse_infix("a + b * 2"))
    assert g.shape() == {"+", "*", "var", "int", ("+", 0, "var"), ("+", 1, "*"),
                         ("*", 0, "var"), ("*", 1, "int")}
    skipped = 0
    for seed in range(16):
        g, _ = from_expr(random_bool_expr(random.Random(seed), 3))
        for _ in range(3):
            shape = g.shape()
            for r in rules:
                if not r.shape <= shape:
                    assert list(r.matcher.search(g)) == [], (seed, r.name)
                    skipped += 1
            saturate(g, rules, 1)
    assert skipped > 1000


def test_rule_pickles_after_compiling():
    # the compiled lhs and rhs hold closures; a rule pickles without them
    r = rule("(rule flip (+ ?x ?y) (+ ?y ?x))")
    g, _ = from_expr(parse_infix("a + b"))
    assert apply_rule(g, r) == 1
    r2 = pickle.loads(pickle.dumps(r))
    assert r2 == r and "build" not in vars(r2)
    g2, _ = from_expr(parse_infix("a + b"))
    assert apply_rule(g2, r2) == 1 and g2.dump() == g.dump()
