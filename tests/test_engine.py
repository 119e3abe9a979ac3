"""Saturation engine: goal checks, stop reasons, pulsing, determinism."""

import hashlib
import math
import time
from types import SimpleNamespace

import pytest

import caviar.engine
from caviar.engine import (
    EngineConfig, GOAL_FOUND, ITER_LIMIT, NODE_LIMIT, NON_PROVABLE_DETECTED,
    SATURATED, TIME_LIMIT, max_pulses, prove, prove_pulsed, simplify,
)
from caviar.corpusgen import corpus_text
from caviar.expr import SortError, parse_infix, print_infix
from caviar.harness import read_dataset
from caviar.rules import default_nppd_patterns, default_ruleset, parse_rules

RULES = default_ruleset().rules
NPPD = default_nppd_patterns()


def cfg(**kw):
    return EngineConfig(**kw)


def test_prove_requires_boolean():
    with pytest.raises(SortError):
        prove(parse_infix("x + 1"), RULES)


def test_prove_literal_stops_at_iteration_zero():
    r = prove(parse_infix("true"), RULES, NPPD)
    assert r.outcome == "proved" and r.value is True
    assert r.iterations == 0
    assert r.stop.kind == GOAL_FOUND


def test_prove_trivial_true_false():
    r = prove(parse_infix("x <= x"), RULES, NPPD)
    assert (r.outcome, r.value) == ("proved", True)
    r = prove(parse_infix("x < x"), RULES, NPPD)
    assert (r.outcome, r.value) == ("proved", False)


def test_prove_goal_order_reported():
    r = prove(parse_infix("x != x"), RULES, NPPD)
    assert r.stop == type(r.stop)(GOAL_FOUND, 0)  # goals are (false, true)
    assert r.value is False


def test_nppd_stops_at_iteration_zero():
    r = prove(parse_infix("x != 5"), RULES, NPPD)
    assert r.outcome == "non_provable"
    assert r.pattern_id == "var-ne-const"
    assert r.iterations == 0
    assert r.stop.kind == NON_PROVABLE_DETECTED


def test_nppd_disabled():
    c = cfg(nppd_enabled=False, time_limit=0.3)
    r = prove(parse_infix("x != 5"), RULES, NPPD, c)
    assert r.outcome == "unknown"


def test_goal_check_precedes_nppd():
    # x != x matches the shape of nothing non-provable, but even for an
    # expression that is both provable and pattern-like the goal wins:
    # 7 < x % 8 is always false and violates the pattern condition
    r = prove(parse_infix("7 < x % 8"), RULES, NPPD)
    assert (r.outcome, r.value) == ("proved", False)


def test_vanilla_final_check_still_proves():
    c = cfg(ilc_enabled=False, nppd_enabled=False, time_limit=0.5)
    r = prove(parse_infix("x <= x"), RULES, [], c)
    assert (r.outcome, r.value) == ("proved", True)
    assert r.stop.kind == GOAL_FOUND  # overridden by the final check


def test_saturation_stop():
    rules = parse_rules("(rule and-comm (&& ?a ?b) (&& ?b ?a))").rules
    c = cfg(ilc_enabled=False, nppd_enabled=False)
    r = prove(parse_infix("x < y && y < x"), rules, [], c)
    assert r.stop.kind == SATURATED
    assert r.outcome == "unknown"


def test_iter_limit_stop():
    c = cfg(iter_limit=2, ilc_enabled=False, nppd_enabled=False)
    r = prove(parse_infix("2 < x % 8"), RULES, [], c)
    assert r.stop.kind == ITER_LIMIT
    assert r.iterations == 2


def test_node_limit_stop():
    c = cfg(node_limit=500, ilc_enabled=False, nppd_enabled=False)
    r = prove(parse_infix("2 < x % 8"), RULES, [], c)
    assert r.stop.kind == NODE_LIMIT


def test_node_limit_read_before_every_iteration():
    # an iteration's applies that cross the limit without a tick inside them
    # end the run before the next iteration, with this one counted
    c = cfg(deterministic=True, iter_limit=25, node_limit=8,
            ilc_enabled=False, nppd_enabled=False)
    r = prove(parse_infix("2 < x % 8"), RULES, [], c)
    assert (r.stop.kind, r.iterations, r.enodes) == (NODE_LIMIT, 1, 10)
    # a graph already at the limit runs no iteration, even one with no match
    rules = parse_rules("(rule and-comm (&& ?a ?b) (&& ?b ?a))").rules
    r = prove(parse_infix("x < y + 1"), rules, [], cfg(node_limit=2))
    assert (r.stop.kind, r.iterations) == (NODE_LIMIT, 0)


def test_time_limit_stop_bounded_overshoot():
    import time
    c = cfg(time_limit=0.3, ilc_enabled=False, nppd_enabled=False)
    t0 = time.monotonic()
    r = prove(parse_infix("2 < x % 8"), RULES, [], c)
    dt = time.monotonic() - t0
    assert r.stop.kind == TIME_LIMIT
    assert dt < 2.0


@pytest.mark.parametrize("entry, kw, kind", [
    (prove, dict(deterministic=True, iter_limit=3), ITER_LIMIT),
    (prove_pulsed, dict(time_limit=0.3, pulse_threshold=0.05), TIME_LIMIT),
    (simplify, dict(deterministic=True, iter_limit=3), ITER_LIMIT),
])
def test_clock_stop_kind(entry, kw, kind):
    # running out of the clock's budget stops with the clock's own unit
    c = cfg(ilc_enabled=False, nppd_enabled=False, node_limit=100_000, **kw)
    r = entry(parse_infix("2 < x % 8"), RULES, cfg=c)
    assert r.stop.kind == kind
    if kind == ITER_LIMIT:
        assert r.iterations == c.iter_limit
    else:
        assert r.pulses >= 1


def test_elapsed_includes_final_extraction(monkeypatch):
    real = caviar.engine.extract_best

    def slow_extract(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(caviar.engine, "extract_best", slow_extract)
    r = prove(parse_infix("x <= x"), RULES, NPPD, extract=True)
    assert r.elapsed >= 0.05


def test_report_matches_iterations():
    r = prove(parse_infix("min(x, y) <= x"), RULES, NPPD)
    assert len(r.report.iterations) == r.iterations
    assert [s.iteration for s in r.report.iterations] == \
        list(range(1, r.iterations + 1))


def test_pulsed_degenerate_equals_prove():
    c1 = cfg(pulse_threshold=3.0, time_limit=3.0)
    c2 = cfg(pulse_threshold=None, time_limit=3.0)
    for src in ["x <= x", "x != 5", "7 < x % 8", "min(x, y) <= x"]:
        a = prove_pulsed(parse_infix(src), RULES, NPPD, c1)
        b = prove(parse_infix(src), RULES, NPPD, c2)
        assert (a.outcome, a.value, a.pattern_id) == (b.outcome, b.value, b.pattern_id)
        assert a.pulses == 0


def test_pulsed_restarts_and_bounds():
    c = cfg(time_limit=1.0, pulse_threshold=0.05,
            ilc_enabled=False, nppd_enabled=False)
    e = parse_infix("v0 + (v1 + v2) * (v3 + v4) * (v0 + v1) * 0 <= v0")
    r = prove_pulsed(e, RULES, [], c)
    assert (r.outcome, r.value) == ("proved", True)
    assert r.pulses >= 1
    assert r.pulses <= max_pulses(c) == math.ceil(1.0 / 0.05)


def test_max_pulses_on_the_iteration_clock():
    c = cfg(deterministic=True, iter_limit=200, pulse_iters=1,
            ilc_enabled=False, nppd_enabled=False)
    r = prove_pulsed(parse_infix("2 < x % 8"), RULES, [], c)
    assert r.pulses <= max_pulses(c) == 200


def test_pulsed_best_expr_shrinks():
    c = cfg(time_limit=1.0, pulse_threshold=0.05,
            ilc_enabled=False, nppd_enabled=False)
    e = parse_infix("v0 + (v1 + v2) * (v3 + v4) * (v0 + v1) * 0 <= v0")
    r = prove_pulsed(e, RULES, [], c)
    assert print_infix(r.best_expr) == "true"


def test_deterministic_mode_reproducible():
    c = cfg(deterministic=True, iter_limit=20, pulse_iters=5, node_limit=10_000)
    outs = []
    for _ in range(2):
        r = prove_pulsed(parse_infix("2 < x % 8"), RULES, [], c)
        outs.append((r.outcome, r.stop, r.iterations, r.pulses,
                     r.classes, r.enodes, r.elapsed))
    assert outs[0] == outs[1]
    assert outs[0][-1] == 0.0  # deterministic mode reports zero elapsed


def test_deterministic_pulse_period():
    c = cfg(deterministic=True, iter_limit=20, pulse_iters=5,
            ilc_enabled=False, nppd_enabled=False, node_limit=100_000)
    r = prove_pulsed(parse_infix("2 < x % 8"), RULES, [], c)
    assert r.stop.kind == ITER_LIMIT
    assert r.iterations == 20
    assert r.pulses == 3  # restarts after iterations 5, 10, 15


def test_every_restart_builds_and_extracts_through_the_engine_names(monkeypatch):
    # a restart is `from_expr` of `extract_best`'s term, called by the names
    # in `caviar.engine` that a tracer wraps: one build at the start and one
    # per pulse, one extraction per pulse and one at the end
    calls = {"from_expr": 0, "extract_best": 0}
    for name in calls:
        real = getattr(caviar.engine, name)

        def counted(*args, _real=real, _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(caviar.engine, name, counted)
    c = cfg(deterministic=True, iter_limit=20, pulse_iters=5,
            ilc_enabled=False, nppd_enabled=False, node_limit=100_000)
    r = prove_pulsed(parse_infix("2 < x % 8"), RULES, [], c)
    assert r.pulses == 3
    assert calls == {"from_expr": 4, "extract_best": 4}


def test_simplify_basic():
    res = simplify(parse_infix("(a + 0) * 1"), RULES,
                   cfg(time_limit=1.0, iter_limit=8))
    assert print_infix(res.best_expr) == "a"


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(time_limit=0)
    with pytest.raises(ValueError):
        EngineConfig(time_limit=1.0, pulse_threshold=2.0)
    with pytest.raises(ValueError):
        EngineConfig(pulse_iters=0)
    for pulse in (0, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="pulse_threshold must be positive"):
            EngineConfig(pulse_threshold=pulse)
    # a NaN deadline never passes: no pulse and no time limit would fire
    for limit in (math.nan, math.inf):
        with pytest.raises(ValueError, match="time_limit must be positive and finite"):
            EngineConfig(time_limit=limit)
    with pytest.raises(ValueError, match="iter_limit"):
        EngineConfig(iter_limit=-3, deterministic=True)
    with pytest.raises(ValueError, match="node_limit"):
        EngineConfig(node_limit=0)
    # the smallest limits stand: a stop before the first iteration
    assert prove(parse_infix("x < x + 1"), RULES, [],
                 cfg(iter_limit=0, deterministic=True)).stop.kind == ITER_LIMIT
    assert prove(parse_infix("x < x + 1"), RULES, [],
                 cfg(node_limit=1, ilc_enabled=False)).stop.kind == NODE_LIMIT


def test_work_counters_pinned():
    # the search itself, pinned: a faster engine must do exactly this work
    c = cfg(deterministic=True, iter_limit=6, pulse_iters=2,
            ilc_enabled=False, nppd_enabled=False)
    total = dict(iterations=0, pulses=0, matches=0, unions=0, enodes=0)
    for name in ("provable.txt", "nonprovable.txt", "nearmiss.txt", "blowup.txt"):
        for _, src in read_dataset(corpus_text(name))[:10]:
            r = prove_pulsed(parse_infix(src), RULES, NPPD, c, extract=False)
            total["iterations"] += r.iterations
            total["pulses"] += r.pulses
            total["matches"] += sum(s.matches for s in r.report.iterations)
            total["unions"] += sum(s.unions for s in r.report.iterations)
            total["enodes"] += r.enodes
    assert total == dict(iterations=150, pulses=50, matches=2208, unions=1361,
                         enodes=174)


def test_per_rule_work_pinned(monkeypatch):
    # each rule's own matches and unions, pinned: the totals above cannot
    # see matches move from one rule to another
    record, latest = [], {}
    gather, apply = caviar.engine.gather_matches, caviar.engine.apply_matches

    def gather_recorded(g, rule, cands=None, tick=None):
        ms = gather(g, rule, cands, tick=tick)
        latest[rule.name] = [rule.name, len(ms), 0]
        record.append(latest[rule.name])
        return ms

    def apply_recorded(g, rule, ms, tick=None):
        latest[rule.name][2] = apply(g, rule, ms, tick=tick)
        return latest[rule.name][2]

    monkeypatch.setattr(caviar.engine, "gather_matches", gather_recorded)
    monkeypatch.setattr(caviar.engine, "apply_matches", apply_recorded)
    c = cfg(deterministic=True, iter_limit=3, ilc_enabled=False,
            nppd_enabled=False, pulse_threshold=None)
    for name in ("provable.txt", "nonprovable.txt", "nearmiss.txt", "blowup.txt"):
        for _, src in read_dataset(corpus_text(name))[:10]:
            prove_pulsed(parse_infix(src), RULES, [], c, extract=False)
    assert (len(record), sum(r[1] for r in record), sum(r[2] for r in record)) \
        == (2915, 13111, 7263)
    # the searches that find something, in order; which searches that find
    # nothing are skipped is the rule filter's business
    hits = [tuple(r) for r in record if r[1]]
    digest = hashlib.sha256(repr(hits).encode()).hexdigest()
    assert (len(hits), digest) == (
        1748, "e2268ddb26f1090eb47a5eda650f83b17f1f23c8b9d747ebdb81f56fd0638eb7")


def test_time_limit_overshoot_bounded_on_largest_rows():
    # the six-factor blowup rows grow past 2e4 e-nodes within a second; a
    # search or a repair that the deadline tick cannot interrupt shows here
    # as a run that returns long after its limit
    c = cfg(time_limit=1.0, ilc_enabled=False, nppd_enabled=False,
            pulse_threshold=None)
    rows = [src for _, src in read_dataset(corpus_text("blowup.txt"))
            if src.count("*") == 6]
    assert len(rows) == 3
    for src in rows:
        t = time.monotonic()
        prove(parse_infix(src), RULES, [], c, extract=False)
        assert time.monotonic() - t < c.time_limit + 1.5, src


def test_wall_clock_pulses_on_a_work_clock(monkeypatch):
    # the wall-clock path, made deterministic: time moves only when a rule
    # is searched or applied, 2 ms a call, so pulse boundaries and the time
    # limit fall inside iterations, some after a rule's unions are applied
    steps, aborts = [0], {}
    monkeypatch.setattr(caviar.engine, "time",
                        SimpleNamespace(monotonic=lambda: steps[0] * 0.002))

    def timed(name):
        real = getattr(caviar.engine, name)

        def call(*args, **kwargs):
            steps[0] += 1
            try:
                return real(*args, **kwargs)
            except Exception:
                aborts[name] = aborts.get(name, 0) + 1
                raise

        monkeypatch.setattr(caviar.engine, name, call)

    timed("gather_matches")
    timed("apply_matches")
    c = cfg(time_limit=1.0, pulse_threshold=0.05, node_limit=20_000)
    rows = []
    for name in ("provable.txt", "nonprovable.txt", "nearmiss.txt", "blowup.txt"):
        for _, src in read_dataset(corpus_text(name)):
            r = prove_pulsed(parse_infix(src), RULES, NPPD, c, extract=False)
            rows.append((r.outcome, str(r.stop), r.iterations, r.pulses,
                         r.classes, r.enodes, len(r.report.iterations),
                         round(r.elapsed, 6)))
    assert (len(rows), sum(r[2] for r in rows), sum(r[3] for r in rows),
            sum(r[1] == TIME_LIMIT for r in rows)) == (168, 298, 1002, 51)
    assert aborts == {"gather_matches": 239, "apply_matches": 814}
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == \
        "6001b1151f1612ced3df9a1b675ebfb844a1ead8b1c951660c0c088afb432f5c"
