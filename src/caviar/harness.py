"""Batch proving over expression datasets, with CSV/JSON reports.

A dataset is a text file with one infix boolean expression per line; blank
lines and lines starting with `#` are skipped. Each expression is proved in
a fresh engine, so rows are independent and can run in parallel.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .engine import EngineConfig, NON_PROVABLE, PROVED, prove_pulsed
from .expr import ParseError, SortError, parse_infix, print_infix
from .matching import Rule
from .rules import NPPattern

CSV_HEADER = ["id", "expression", "outcome", "stop_reason", "time_ms",
              "iterations", "pulses", "classes", "enodes",
              "matched_pattern", "best_expr"]


@dataclass
class Row:
    id: int
    expression: str
    outcome: str          # proved_true | proved_false | non_provable | unknown | error
    stop_reason: str
    time_ms: float
    iterations: int
    pulses: int
    classes: int
    enodes: int
    matched_pattern: str
    best_expr: str

    def as_list(self) -> list[str]:
        return [str(self.id), self.expression, self.outcome, self.stop_reason,
                f"{self.time_ms:.3f}", str(self.iterations), str(self.pulses),
                str(self.classes), str(self.enodes), self.matched_pattern,
                self.best_expr]


@dataclass
class Summary:
    total: int = 0
    proved_true: int = 0
    proved_false: int = 0
    non_provable: int = 0
    unknown: int = 0
    errors: int = 0
    total_time_ms: float = 0.0
    proved_time_ms: float = 0.0
    mean_time_ms: float = 0.0
    median_time_ms: float = 0.0
    p95_time_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "total": self.total, "proved_true": self.proved_true,
            "proved_false": self.proved_false,
            "non_provable": self.non_provable, "unknown": self.unknown,
            "errors": self.errors,
            "total_time_ms": round(self.total_time_ms, 3),
            "proved_time_ms": round(self.proved_time_ms, 3),
            "mean_time_ms": round(self.mean_time_ms, 3),
            "median_time_ms": round(self.median_time_ms, 3),
            "p95_time_ms": round(self.p95_time_ms, 3),
        }


def read_dataset(text: str) -> list[tuple[int, str]]:
    """(1-based id, expression source) pairs for the payload lines."""
    out = []
    next_id = 1
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((next_id, stripped))
        next_id += 1
    return out


def prove_line(item: tuple[int, str], rules: list[Rule],
               patterns: list[NPPattern], cfg: EngineConfig) -> Row:
    rid, source = item
    try:
        expr = parse_infix(source)
        res = prove_pulsed(expr, rules, patterns, cfg)
    except (ParseError, SortError) as exc:
        return Row(id=rid, expression=source, outcome="error",
                   stop_reason=f"parse_error: {exc}", time_ms=0.0,
                   iterations=0, pulses=0, classes=0, enodes=0,
                   matched_pattern="", best_expr="")
    if res.outcome == PROVED:
        outcome = "proved_true" if res.value else "proved_false"
    elif res.outcome == NON_PROVABLE:
        outcome = "non_provable"
    else:
        outcome = "unknown"
    return Row(
        id=rid, expression=source, outcome=outcome, stop_reason=str(res.stop),
        time_ms=res.elapsed * 1000.0, iterations=res.iterations,
        pulses=res.pulses, classes=res.classes, enodes=res.enodes,
        matched_pattern=res.pattern_id or "",
        best_expr=print_infix(res.best_expr) if res.best_expr is not None else "")


_worker_args: tuple = ()  # (rules, patterns, cfg), set once per pool worker


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _worker(item: tuple[int, str]) -> Row:
    return prove_line(item, *_worker_args)


def run_dataset(text: str, rules: list[Rule], patterns: list[NPPattern],
                cfg: EngineConfig, jobs: int = 1) -> list[Row]:
    """Prove every expression in a dataset; rows keep the input order. Pool
    workers receive the rules, patterns and config once, rows in chunks."""
    items = read_dataset(text)
    if jobs <= 1:
        return [prove_line(item, rules, patterns, cfg) for item in items]
    with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                             initargs=(rules, patterns, cfg)) as pool:
        chunk = max(1, len(items) // (4 * jobs))
        return list(pool.map(_worker, items, chunksize=chunk))


def summarize(rows: list[Row]) -> Summary:
    s = Summary(total=len(rows))
    times = []
    for r in rows:
        if r.outcome == "proved_true":
            s.proved_true += 1
        elif r.outcome == "proved_false":
            s.proved_false += 1
        elif r.outcome == "non_provable":
            s.non_provable += 1
        elif r.outcome == "error":
            s.errors += 1
        else:
            s.unknown += 1
        if r.outcome != "error":
            times.append(r.time_ms)
            s.total_time_ms += r.time_ms
            if r.outcome in ("proved_true", "proved_false"):
                s.proved_time_ms += r.time_ms
    if times:
        s.mean_time_ms = statistics.fmean(times)
        s.median_time_ms = statistics.median(times)
        k = max(0, min(len(times) - 1, round(0.95 * (len(times) - 1))))
        s.p95_time_ms = sorted(times)[k]
    return s


def emit_csv(rows: list[Row]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow(r.as_list())
    return buf.getvalue()


def emit_json(rows: list[Row], summary: Summary) -> str:
    payload = {
        "rows": [dict(zip(CSV_HEADER, r.as_list())) for r in rows],
        "summary": summary.as_dict(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(rows: list[Row], fmt: str = "csv") -> str:
    if fmt == "csv":
        return emit_csv(rows)
    if fmt == "json":
        return emit_json(rows, summarize(rows))
    raise ValueError(f"unknown report format: {fmt}")
