"""Prove and simplify compiler integer/boolean expressions by equality
saturation over an e-graph, with iteration-level goal checks, pulsed
restarts, and non-provable pattern detection."""

from .egraph import ConstantContradiction, EGraph, ENode, from_expr
from .engine import (
    EngineConfig, ProveResult, RunReport, SimplifyResult, StopReason,
    prove, prove_pulsed, simplify,
)
from .expr import (
    App, BoolConst, Expr, IntConst, ParseError, PatVar, SortError,
    UnboundVariable, Var, evaluate, parse_infix, parse_sexpr, print_infix,
    print_sexpr,
)
from .extraction import AST_DEPTH, AST_SIZE, extract_best
from .harness import emit_report, run_dataset, summarize
from .matching import NPPattern, Rule, apply_rule
from .rules import (
    Ruleset, default_nppd_patterns, default_ruleset, load_nppd, load_rules,
    parse_nppd, parse_rules,
)

__version__ = "1.0.0"

__all__ = [
    "AST_DEPTH", "AST_SIZE", "App", "BoolConst", "ConstantContradiction",
    "EGraph", "ENode", "EngineConfig", "Expr", "IntConst", "NPPattern",
    "ParseError", "PatVar", "ProveResult", "Rule", "RunReport", "Ruleset",
    "SimplifyResult", "SortError", "StopReason", "UnboundVariable", "Var",
    "apply_rule", "default_nppd_patterns", "default_ruleset", "emit_report",
    "evaluate", "extract_best", "from_expr", "load_nppd", "load_rules",
    "parse_infix", "parse_nppd", "parse_rules", "parse_sexpr", "print_infix",
    "print_sexpr", "prove", "prove_pulsed", "run_dataset", "simplify",
    "summarize",
]
