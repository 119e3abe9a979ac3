"""Command line interface: prove datasets or single expressions, simplify.

Exit codes: 0 success, 2 usage or input error, 3 fatal engine diagnostic
(a constant contradiction, which means the active ruleset is unsound).
"""

from __future__ import annotations

import argparse
import sys

from .egraph import ConstantContradiction
from .engine import EngineConfig, simplify
from .expr import ParseError, SortError, parse_infix, print_infix
from .extraction import AST_DEPTH, AST_SIZE
from .harness import emit_report, prove_line, run_dataset, summarize
from .rules import default_nppd_patterns, default_ruleset, load_nppd, load_rules


def _config_name(cfg: EngineConfig) -> str:
    ilc, nppd = cfg.ilc_enabled, cfg.nppd_enabled
    pulse = cfg.pulse_threshold is not None
    if not ilc and not nppd and not pulse:
        return "vanilla"
    if ilc and not nppd and not pulse:
        return "ilc-only"
    if nppd and not ilc and not pulse:
        return "nppd-only"
    if pulse and not ilc and not nppd:
        return "pulse-only"
    if ilc and nppd and pulse:
        return "full"
    return "custom"


# --iter-limit and --node-limit under --deterministic, unless given; without
# it, an unset limit takes EngineConfig's default
_DETERMINISTIC_LIMITS = {"iter_limit": 25, "node_limit": 10_000}


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=float, default=EngineConfig.time_limit,
                   help="total wall-clock budget in seconds (default %(default)s)")
    p.add_argument("--iter-limit", type=int, default=None,
                   help=f"iteration cap (default {EngineConfig.iter_limit}; "
                        f"{_DETERMINISTIC_LIMITS['iter_limit']} when --deterministic)")
    p.add_argument("--node-limit", type=int, default=None,
                   help=f"e-node cap (default {EngineConfig.node_limit}; "
                        f"{_DETERMINISTIC_LIMITS['node_limit']} when --deterministic)")
    p.add_argument("--rules", default=None, metavar="FILE",
                   help="rewrite rule file (default: built-in ruleset)")
    p.add_argument("--deterministic", action="store_true",
                   help="run on the iteration clock: count the budget in "
                        "iterations (--iter-limit) instead of seconds and "
                        "report time_ms as 0.0, for reproducible output")


def _build_config(args, proving: bool) -> EngineConfig:
    common = dict(_DETERMINISTIC_LIMITS) if args.deterministic else {}
    for name in ("iter_limit", "node_limit"):
        if getattr(args, name) is not None:
            common[name] = getattr(args, name)
    # built in one call, so EngineConfig validates the final values
    common.update(time_limit=args.timeout, deterministic=args.deterministic)
    if not proving:
        return EngineConfig(**common, ilc_enabled=False, nppd_enabled=False,
                            pulse_threshold=None)
    return EngineConfig(
        **common, ilc_enabled=not args.no_ilc, nppd_enabled=not args.no_nppd,
        pulse_threshold=None if args.no_pulse else min(args.pulse, args.timeout),
        pulse_iters=args.pulse_iters)


def _load_rules(args):
    if args.rules is None:
        return default_ruleset().rules
    return load_rules(args.rules).rules


def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="caviar",
        description="Prove and simplify compiler integer/boolean expressions "
                    "by equality saturation.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="prove expressions true or false")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--expr", help="a single infix boolean expression")
    src.add_argument("--input", metavar="FILE",
                     help="dataset file, one expression per line")
    _add_engine_flags(p)
    p.add_argument("--pulse", type=float, default=EngineConfig.pulse_threshold,
                   help="pulse threshold in seconds (default %(default)s)")
    p.add_argument("--no-pulse", action="store_true", help="disable pulsing")
    p.add_argument("--pulse-iters", type=int, default=EngineConfig.pulse_iters,
                   help="pulse period in iterations under --deterministic "
                        "(default %(default)s)")
    p.add_argument("--no-ilc", action="store_true",
                   help="disable iteration-level goal checks")
    p.add_argument("--no-nppd", action="store_true",
                   help="disable non-provable pattern detection")
    p.add_argument("--nppd-file", default=None, metavar="FILE",
                   help="non-provable pattern file (default: built-in patterns)")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="write the report here instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes for dataset mode")

    s = sub.add_parser("simplify", help="rewrite an expression to a smaller form")
    s.add_argument("--expr", required=True, help="an infix expression")
    s.add_argument("--cost", choices=[AST_SIZE, AST_DEPTH], default=AST_SIZE)
    _add_engine_flags(s)
    return ap


def _cmd_prove(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    cfg = _build_config(args, proving=True)
    rules = _load_rules(args)
    if args.no_nppd:
        patterns = []
    elif args.nppd_file is not None:
        patterns = load_nppd(args.nppd_file)
    else:
        patterns = default_nppd_patterns()
    print(f"config: {_config_name(cfg)}", file=sys.stderr)

    if args.expr is not None:
        row = prove_line((1, args.expr), rules, patterns, cfg)
        if row.outcome == "error":
            print(f"error: {row.stop_reason.partition(': ')[2]}", file=sys.stderr)
            return 2
        rows = [row]
    else:
        try:
            with open(args.input, encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rows = run_dataset(text, rules, patterns, cfg, jobs=args.jobs)

    report = emit_report(rows, args.format)
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    if args.format == "csv":
        s = summarize(rows)
        print(f"summary: total={s.total} proved_true={s.proved_true} "
              f"proved_false={s.proved_false} non_provable={s.non_provable} "
              f"unknown={s.unknown} errors={s.errors} "
              f"total_time_ms={s.total_time_ms:.3f}", file=sys.stderr)
    return 0


def _cmd_simplify(args) -> int:
    cfg = _build_config(args, proving=False)
    rules = _load_rules(args)
    print(f"config: {_config_name(cfg)}", file=sys.stderr)
    res = simplify(parse_infix(args.expr), rules, cfg, cost_model=args.cost)
    print(print_infix(res.best_expr))
    print(f"cost={res.cost} stop={res.stop} iterations={res.iterations} "
          f"classes={res.classes} enodes={res.enodes}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = _make_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "prove":
            return _cmd_prove(args)
        return _cmd_simplify(args)
    except ConstantContradiction as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 3
    except (ParseError, SortError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the engine's term walks recurse once per nesting level
        print("error: expression nests too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
