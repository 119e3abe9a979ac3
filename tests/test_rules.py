"""Rule file parsing, serialization, the built-in ruleset, and the
non-provable pattern definitions."""

import hashlib
import random

import pytest

from caviar.expr import ParseError, SortError, evaluate, parse_infix
from caviar.matching import eval_condition_ground, eval_pattern_ground
from caviar.rules import default_nppd_patterns, default_ruleset, parse_nppd, parse_rules

from .helpers import VALUE_POOL, nppd_to_line, serialize


def test_parse_rule_basic():
    rs = parse_rules("(rule add-comm (+ ?a ?b) (+ ?b ?a))")
    assert len(rs) == 1
    assert rs.rules[0].name == "add-comm"
    assert rs.rules[0].cond is None


def test_parse_rule_with_condition():
    rs = parse_rules("(rule div-self (/ ?a ?a) 1 :if (nonzero ?a))")
    assert rs.rules[0].cond is not None


def test_parse_rule_comments_and_blank_lines():
    rs = parse_rules("""
    ; a comment
    # another comment
    (rule r1 (+ ?a 0) ?a)

    (rule r2 (* ?a 1) ?a)
    """)
    assert [r.name for r in rs.rules] == ["r1", "r2"]


def test_parse_rule_errors():
    with pytest.raises(ParseError):
        parse_rules("(rule broken (+ ?a ?b))")
    with pytest.raises(ParseError):
        parse_rules("(rule broken (+ ?a ?b) (+ ?b ?a) :when (const ?a))")
    with pytest.raises(SortError):
        parse_rules("(rule bad-scope (+ ?a 0) ?b)")
    with pytest.raises(SortError):
        parse_rules("(rule bad-sort (+ ?a ?b) (&& ?a ?b))")
    with pytest.raises(SortError):
        parse_rules("(rule bad-cond-var (+ ?a 0) ?a :if (nonzero ?c))")
    with pytest.raises(ParseError, match=r"^line 4: duplicate rule 'dup'$"):
        parse_rules("(rule dup (+ ?a 0) ?a)\n(rule e (* ?a 1) ?a)\n\n"
                    "(rule dup (- ?a 0) ?a)")


def test_rule_round_trip():
    rs = default_ruleset()
    text = serialize(rs)
    rs2 = parse_rules(text)
    assert [r.name for r in rs2.rules] == [r.name for r in rs.rules]
    assert [(r.lhs, r.rhs, r.cond) for r in rs2.rules] == \
        [(r.lhs, r.rhs, r.cond) for r in rs.rules]


def test_nppd_round_trip():
    ps = default_nppd_patterns()
    text = "\n".join(nppd_to_line(p) for p in ps)
    ps2 = parse_nppd(text)
    assert ps2 == ps


# sha256 of the built-in rules and patterns as serialized before rule files
# and expressions shared one reader
DEFAULT_RULES_SHA256 = "a7fc27839da6a6234c4e7c83089ecd956539e54718c32df1314a2dc3ced3bd9c"
DEFAULT_NPPD_SHA256 = "12a1619667bebddfb5335eec7ab292857209018c10b2c1c60074f84cb2777404"


def test_default_serialization_pinned():
    text = serialize(default_ruleset())
    assert len(default_ruleset()) == 137
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_RULES_SHA256
    text = "\n".join(nppd_to_line(p) for p in default_nppd_patterns())
    assert len(default_nppd_patterns()) == 5
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_NPPD_SHA256


_HEAD = "; header\n(rule ok (+ ?a 0) ?a)\n"


@pytest.mark.parametrize("text,error", [
    # a condition with no operand
    (_HEAD + "(rule r (+ ?a 0) ?a :if (const))",
     "ParseError: line 3: const takes 1 argument, got 0"),
    # a second operand is not dropped
    (_HEAD + "(rule r (+ ?a ?b) ?a :if (const ?a ?b))",
     "ParseError: line 3: const takes 1 argument, got 2"),
    # atoms that are not infix identifiers
    (_HEAD + "(rule r (+ foo@ 0) 0)", "ParseError: line 3: bad atom 'foo@'"),
    (_HEAD + "(rule r (+ ?a 0)\n  (- x-y x-y))", "ParseError: line 4: bad atom 'x-y'"),
    (_HEAD + "(rule r (+ ?a@ 0) ?a@)", "ParseError: line 3: bad pattern variable '?a@'"),
    # an lhs that matches every class, of either sort
    (_HEAD + "(rule pad ?a (+ ?a 0))", "SortError: line 3: rule pad: lhs is a bare pattern variable"),
    (_HEAD + "(rule r ?a (&& ?a true))", "SortError: line 3: rule r: lhs is a bare pattern variable"),
    # a condition at the wrong sort
    (_HEAD + "(rule r (&& ?a ?b) ?a :if (nonzero ?a))",
     "SortError: line 3: rule r: nonzero ?a is bool-sorted, expected int"),
    # past the interpreter's int/str digit limit
    (_HEAD + "(rule r (+ ?a 0)\n  (+ ?a " + "9" * 5000 + "))",
     "ParseError: line 4: integer literal longer than 4300 digits"),
    # an rhs of the other sort than its lhs, and an operand of the wrong sort
    (_HEAD + "(rule r (+ ?a 1) true)", "SortError: line 3: rule r: rhs is bool-sorted, expected int"),
    (_HEAD + "(rule r (+ ?a true) ?a)",
     "SortError: line 3: operator '+' expects int operands, got int, bool"),
    (_HEAD + "(rule r (neg true) 0)",
     "SortError: line 3: operator 'neg' expects int operand, got bool"),
], ids=["cond-no-operand", "cond-two-operands", "atom-at", "atom-dash", "patvar-at",
        "bare-lhs-int", "bare-lhs-bool", "nonzero-bool", "overlong-literal", "rhs-sort",
        "operand-sort", "unary-operand-sort"])
def test_bad_rule_file_names_its_line(text, error):
    with pytest.raises((ParseError, SortError)) as exc:
        parse_rules(text)
    assert f"{exc.type.__name__}: {exc.value}" == error


def test_nppd_condition_variables_are_scoped():
    # NPPattern.validate shares Rule.validate's scope check
    with pytest.raises(SortError, match=r"^line 2: nppd p: condition uses \?zz"):
        parse_nppd("\n(nppd p (!= ?x ?c) :if (const ?zz))")
    with pytest.raises(ParseError, match=r"^line 1: bad atom 'x-y'"):
        parse_nppd("(nppd p (!= x-y ?c) :if (const ?c))")


def test_nppd_parse_errors():
    with pytest.raises(ParseError):
        parse_nppd("(nppd p1 (!= ?x ?c))")  # missing condition
    with pytest.raises(ParseError, match=r"^line 3: duplicate nppd 'p'$"):
        parse_nppd("; ids\n(nppd p (!= ?x ?c) :if (const ?c))\n"
                   "(nppd p (== ?x ?c) :if (const ?c))")


def test_pred_conditions_are_sort_checked():
    # a pred is a boolean term over the pattern's variables, at their sorts
    for text in ["(rule r (+ ?a ?c) ?a :if (pred (+ ?c 1)))",
                 "(rule r (+ ?a ?c) ?a :if (and (const ?c) (pred ?c)))",
                 "(rule r (&& ?a ?b) ?a :if (pred (< ?a 1)))"]:
        with pytest.raises(SortError, match=r"^line 1: "):
            parse_rules(text)
    with pytest.raises(SortError, match=r"^line 2: nppd p: pred is int-sorted, expected bool"):
        parse_nppd("\n(nppd p (!= ?x ?c) :if (pred (% ?c 2)))")
    parse_rules("(rule r (&& ?a ?b) ?a :if (pred (|| ?a (< 0 3))))")


def test_pred_abs_shorthand():
    rs = parse_rules(
        "(rule r (< (% ?a ?c) ?c0) false :if (pred (<= (abs ?c) ?c0)))")
    cond = rs.rules[0].cond
    assert eval_condition_ground(cond, {"c": -5, "c0": 5})
    assert not eval_condition_ground(cond, {"c": -5, "c0": 4})


def test_default_ruleset_well_formed():
    rs = default_ruleset()
    assert len(rs) >= 100
    for r in rs:
        r.validate()


def _sample_env(rng, sorts):
    return {n: (rng.random() < 0.5 if s == "bool" else rng.choice(VALUE_POOL))
            for n, s in sorts.items()}


@pytest.mark.parametrize("r", default_ruleset().rules, ids=lambda r: r.name)
def test_rule_sound_on_samples(r):
    """Quick soundness screen per rule; the acceptance suite runs the full
    10k-sample version."""
    rng = random.Random(hash(r.name) & 0xFFFF)
    sorts = r.validate()
    checked = 0
    for _ in range(4000):
        env = _sample_env(rng, sorts)
        if r.cond is not None and not eval_condition_ground(r.cond, env):
            continue
        lv = eval_pattern_ground(r.lhs, env)
        rv = eval_pattern_ground(r.rhs, env)
        assert lv == rv, (r.name, env, lv, rv)
        checked += 1
    assert checked >= 200, f"condition of {r.name} almost never satisfiable"


@pytest.mark.parametrize("src,witness_true,witness_false", [
    ("x != 5", {"x": 0}, {"x": 5}),
    ("2 < x % 8", {"x": 3}, {"x": 0}),
    ("x % 8 < 3", {"x": 0}, {"x": 5}),
    ("x == 5", {"x": 5}, {"x": 0}),
    ("3 < x", {"x": 4}, {"x": 0}),
])
def test_nppd_instances_are_genuinely_undecidable(src, witness_true, witness_false):
    """Each non-provable pattern instance can evaluate both ways, so no sound
    prover could ever decide it."""
    e = parse_infix(src)
    assert evaluate(e, witness_true) is True
    assert evaluate(e, witness_false) is False


def test_nppd_patterns_are_boolean():
    for p in default_nppd_patterns():
        p.validate()
