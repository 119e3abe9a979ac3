"""Equality-saturation driver: limits, goal checks, non-provable pattern
detection, and the pulsed outer loop."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from .egraph import EClassId, EGraph, from_expr
from .expr import BOOL, BoolConst, Expr, SortError, sort_of
from .extraction import AST_SIZE, extract_best, extract_graph
from .matching import apply_matches, eval_condition, gather_matches
from .rules import NPPattern

PROVED = "proved"
NON_PROVABLE = "non_provable"
UNKNOWN = "unknown"

# stop reason kinds
SATURATED = "saturated"
TIME_LIMIT = "time_limit"
ITER_LIMIT = "iter_limit"
NODE_LIMIT = "node_limit"
GOAL_FOUND = "goal_found"
NON_PROVABLE_DETECTED = "non_provable_detected"


class _AbortRun(Exception):
    """Raised from a tick callback to abandon the current iteration."""

    def __init__(self, stop: "StopReason"):
        super().__init__(stop.kind)
        self.stop = stop


@dataclass(frozen=True)
class StopReason:
    kind: str
    detail: object = None  # goal index / pattern id

    def __str__(self):
        if self.detail is None:
            return self.kind
        return f"{self.kind}({self.detail})"


@dataclass
class EngineConfig:
    time_limit: float = 3.0
    iter_limit: int = 10_000
    node_limit: int = 1_000_000
    ilc_enabled: bool = True
    nppd_enabled: bool = True
    pulse_threshold: float | None = 0.05  # seconds; None disables pulsing
    goals: list[Expr] = field(default_factory=lambda: [BoolConst(False), BoolConst(True)])
    # deterministic mode runs on the iteration clock: iter_limit bounds the
    # run and pulse_iters is the pulse period
    deterministic: bool = False
    pulse_iters: int = 5

    def __post_init__(self):
        # a NaN deadline never passes, so neither pulses nor the limit fire
        if not 0 < self.time_limit < math.inf:
            raise ValueError("time_limit must be positive and finite")
        if self.iter_limit < 0:
            raise ValueError("iter_limit must not be negative")
        if self.node_limit < 1:
            raise ValueError("node_limit must be at least 1")
        if self.pulse_threshold is not None:
            # a zero pulse period restarts without ever saturating
            if not 0 < self.pulse_threshold < math.inf:
                raise ValueError("pulse_threshold must be positive and finite")
            if self.pulse_threshold > self.time_limit:
                raise ValueError("pulse_threshold must not exceed time_limit")
        if self.pulse_iters < 1:
            raise ValueError("pulse_iters must be positive")
        for gexpr in self.goals:
            if not isinstance(gexpr, BoolConst):
                raise ValueError("goals must be ground boolean literals")


@dataclass
class IterationStats:
    iteration: int
    matches: int
    unions: int
    classes: int
    enodes: int
    elapsed: float


@dataclass
class RunReport:
    iterations: list[IterationStats] = field(default_factory=list)


@dataclass
class ProveResult:
    outcome: str                 # proved | non_provable | unknown
    value: bool | None           # the proved boolean
    pattern_id: str | None       # matched non-provable pattern
    stop: StopReason
    elapsed: float
    iterations: int
    pulses: int
    classes: int
    enodes: int
    best_expr: Expr | None
    report: RunReport


def goals_check(g: EGraph, root: EClassId, goals: list[Expr]) -> int | None:
    """Index of the first goal literal that is a member of the root class."""
    for i, goal in enumerate(goals):
        if g.has_literal(root, goal.value):
            return i
    return None


def nppd_check(g: EGraph, root: EClassId, patterns: list[NPPattern]) -> str | None:
    """Id of the first non-provable pattern matching the root class with its
    condition satisfied."""
    for p in patterns:
        for subst in p.matcher.match_class(g, root):
            if eval_condition(p.cond, g, subst):
                return p.id
    return None


class _Clock:
    """The budget of one prove/simplify call. It reads seconds on the wall
    clock or, under `deterministic`, completed iterations; `budget`, the end
    reading `limit` and the pulse period `pulse` (None: no pulsing) share
    that unit, and running out stops with `stop_kind` (TIME/ITER_LIMIT)."""

    def __init__(self, cfg: EngineConfig):
        self.iterations = 0
        self.pulses = 0
        if cfg.deterministic:
            self.now = lambda: self.iterations
            self.seconds = lambda: 0.0  # keeps reports reproducible
            self.budget, self.stop_kind = cfg.iter_limit, ITER_LIMIT
            self.pulse = None if cfg.pulse_threshold is None else cfg.pulse_iters
        else:
            start = time.monotonic()
            self.now = time.monotonic
            self.seconds = lambda: time.monotonic() - start
            self.budget, self.stop_kind = cfg.time_limit, TIME_LIMIT
            self.pulse = cfg.pulse_threshold
        self.limit = self.now() + self.budget


def run_saturation(g: EGraph, root: EClassId, rules, cfg: EngineConfig,
                   clock: _Clock, report: RunReport,
                   patterns: list[NPPattern] | None,
                   deadline: float) -> StopReason:
    """Saturation loop with iteration-level goal and non-provable checks.

    Stops with kind `clock.stop_kind` once `clock.now()` reaches `deadline`;
    the caller tells a pulse boundary from the end of the budget. On the
    iteration clock the mid-iteration ticks never fire, because the count
    only moves between iterations.
    """
    patterns = patterns or []

    def match_tick():
        if clock.now() >= deadline:
            raise _AbortRun(StopReason(clock.stop_kind))

    def apply_tick():
        match_tick()
        if len(g.hashcons) >= cfg.node_limit:
            raise _AbortRun(StopReason(NODE_LIMIT))

    def checks() -> StopReason | None:
        if cfg.ilc_enabled:
            gi = goals_check(g, root, cfg.goals)
            if gi is not None:
                return StopReason(GOAL_FOUND, gi)
        if cfg.nppd_enabled:
            pid = nppd_check(g, root, patterns)
            if pid is not None:
                return StopReason(NON_PROVABLE_DETECTED, pid)
        return None

    # iteration-0 checks (Var/const roots and direct pattern hits stop here)
    stop = checks()
    while stop is None:
        if clock.iterations >= cfg.iter_limit:
            return StopReason(ITER_LIMIT)
        if clock.now() >= deadline:
            return StopReason(clock.stop_kind)

        version_before = g.version
        # a rule whose lhs has an operator or a parent-child operator pair
        # that the graph lacks cannot match it
        shape = g.shape()
        active = [rule for rule in rules if rule.shape <= shape]
        try:
            all_matches = [gather_matches(g, rule, tick=match_tick) for rule in active]
            unions = sum(apply_matches(g, rule, ms, tick=apply_tick)
                         for rule, ms in zip(active, all_matches) if ms)
        except _AbortRun as abort:
            # the iteration is abandoned mid-flight; restore invariants so
            # the final goal check and extraction still work
            g.rebuild()
            return abort.stop
        g.rebuild()
        root = g.find(root)

        clock.iterations += 1
        n_enodes = len(g.hashcons)
        report.iterations.append(IterationStats(
            iteration=clock.iterations, matches=sum(map(len, all_matches)),
            unions=unions, classes=len(g.classes), enodes=n_enodes,
            elapsed=clock.seconds()))

        stop = checks()
        if stop is None and g.version == version_before:
            stop = StopReason(SATURATED)
        if stop is None and n_enodes >= cfg.node_limit:
            stop = StopReason(NODE_LIMIT)
    return stop


def _saturate(expr: Expr, rules, patterns: list[NPPattern] | None,
              cfg: EngineConfig, clock: _Clock,
              report: RunReport) -> tuple[EGraph, EClassId, StopReason]:
    """The pulsed loop shared by every entry point: saturate until the pulse
    period runs out, restart from the smallest form found so far, and stop
    at a definite result or at the end of the clock's budget."""
    g, root = from_expr(expr)
    while True:
        deadline = clock.limit
        if clock.pulse is not None:
            deadline = min(deadline, clock.now() + clock.pulse)
        stop = run_saturation(g, root, rules, cfg, clock, report, patterns,
                              deadline)
        root = g.find(root)
        if stop.kind != clock.stop_kind or clock.now() >= clock.limit:
            return g, root, stop
        # pulse boundary: restart from the e-nodes of the best expression
        # found so far
        g, root = extract_graph(g, root, AST_SIZE)
        clock.pulses += 1


def prove(expr: Expr, rules, patterns: list[NPPattern] | None = None,
          cfg: EngineConfig | None = None, extract: bool = True) -> ProveResult:
    """Prove whether a boolean expression is identically true or false.

    `prove_pulsed` with pulsing off: a single saturation run, with
    iteration-level goal checks when `ilc_enabled` and non-provable pattern
    checks when `nppd_enabled`.
    """
    cfg = replace(cfg or EngineConfig(), pulse_threshold=None)
    return prove_pulsed(expr, rules, patterns, cfg, extract=extract)


def prove_pulsed(expr: Expr, rules, patterns: list[NPPattern] | None = None,
                 cfg: EngineConfig | None = None, extract: bool = True) -> ProveResult:
    """Prove with pulsed restarts: when the pulse threshold fires, extract the
    smallest form found so far, reinitialize the e-graph from it, and keep
    going until a definite stop or the end of the clock's budget. `elapsed`
    includes the final extraction."""
    cfg = cfg or EngineConfig()
    if sort_of(expr) != BOOL:
        raise SortError("prove requires a boolean-sorted expression")
    clock, report = _Clock(cfg), RunReport()
    g, root, stop = _saturate(expr, rules, patterns, cfg, clock, report)
    # final goal check regardless of the stop reason
    gi = goals_check(g, root, cfg.goals)
    if gi is not None and stop.kind != NON_PROVABLE_DETECTED:
        stop = StopReason(GOAL_FOUND, gi)
    if stop.kind == GOAL_FOUND:
        outcome, value, pid = PROVED, cfg.goals[stop.detail].value, None
    elif stop.kind == NON_PROVABLE_DETECTED:
        outcome, value, pid = NON_PROVABLE, None, stop.detail
    else:
        outcome, value, pid = UNKNOWN, None, None
    best = extract_best(g, root, AST_SIZE)[0] if extract else None
    return ProveResult(
        outcome=outcome, value=value, pattern_id=pid, stop=stop,
        elapsed=clock.seconds(), iterations=clock.iterations,
        pulses=clock.pulses, classes=len(g.classes), enodes=len(g.hashcons),
        best_expr=best, report=report)


def max_pulses(cfg: EngineConfig) -> int:
    """Bound on the pulses of one `prove_pulsed` call, in its clock's unit."""
    clock = _Clock(cfg)
    return 0 if clock.pulse is None else math.ceil(clock.budget / clock.pulse)


@dataclass
class SimplifyResult:
    best_expr: Expr
    cost: int
    stop: StopReason
    elapsed: float
    iterations: int
    classes: int
    enodes: int
    report: RunReport


def simplify(expr: Expr, rules, cfg: EngineConfig | None = None,
             cost_model: str = AST_SIZE) -> SimplifyResult:
    """Saturate (no goal or pattern checks, no pulsing) and extract the best
    form."""
    cfg = replace(cfg or EngineConfig(), ilc_enabled=False, nppd_enabled=False,
                  pulse_threshold=None)
    sort_of(expr)
    clock, report = _Clock(cfg), RunReport()
    g, root, stop = _saturate(expr, rules, [], cfg, clock, report)
    best, cost = extract_best(g, root, cost_model)
    return SimplifyResult(best, cost, stop, clock.seconds(), clock.iterations,
                          len(g.classes), len(g.hashcons), report)
