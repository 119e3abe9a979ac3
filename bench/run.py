"""Prover benchmark: one seeded workload per run, verdicts checked against
known answers, end-to-end metrics untraced and per-layer metrics traced.

    python3 bench/run.py --workload corpus-full --seed 0 --seconds 15 --trace 0

Run it from the repository root. `--trace 0` proves whole rounds of the
workload's rows for about `--seconds` seconds and prints the end-to-end
metrics, each row timed by its fastest proof. `--trace 1` alternates
untraced and traced passes over the round for about as long, prints the
per-layer metrics and the work-counter fingerprint, and writes the spans
of the first traced pass and per-rule match and union counts to
bench/trace/<workload>-seed<seed>.jsonl.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

- A row fails when it raises, comes back `error`, or gets a decided verdict
  (`proved_*` or `non_provable`) that contradicts its known answer.
- `correct` is false when any `proved_*` verdict is unsound, when an
  extracted `best_expr` disagrees with its row at sample points, or when a
  fixed-work workload's work counters differ between two traced passes. A
  wrong `non_provable` is NPPD giving up on a decidable row: it counts as
  failed, not as incorrect output.

See bench/README.md for why each workload exists and which metric each
layer should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PROBES = 8
# Per-layer times: the self time of each traced span.
LAYER_TIMES = {
    "matching.search_s": "matching.search",
    "matching.apply_s": "matching.apply",
    "egraph.build_s": "egraph.build",
    "egraph.rebuild_s": "egraph.rebuild",
    "extraction.extract_s": "extraction.extract",
    "engine.goal_check_s": "engine.goal_check",
    "engine.nppd_check_s": "engine.nppd_check",
    "engine.self_s": "engine",
    "expr.parse_s": "expr.parse",
    "expr.print_s": "expr.print",
}
LAYER_CALLS = {
    "matching.search_calls": "matching.search",
    "egraph.build_calls": "egraph.build",
    "egraph.rebuild_calls": "egraph.rebuild",
    "extraction.extract_calls": "extraction.extract",
}
FINGERPRINT = ("iterations", "pulses", "matches", "unions", "enodes")
# The end-to-end metrics BENCHMARK.json gates; the others are printed only.
GATED = ("rows_per_s", "row_ms_p50", "peak_rss_mb", "setup_s")


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _child(spec: dict, timeout: float) -> dict:
    # a fixed hash seed, so that dict and set layouts in the prover do not
    # vary from process to process
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "prover.py")],
                          input=json.dumps(spec), capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"prover process exited with {proc.returncode}")
    return json.loads(proc.stdout)


def _probes(w, n: int) -> list[dict]:
    """Set-up timings of `n` cold prover processes."""
    spec = {"probe": True, "jobs": w.jobs, "flags": w.flags}
    return [_child(spec, 30) for _ in range(n)]


class Checker:
    """Scores rows against known answers; memoizes the extraction check."""

    def __init__(self, w):
        import verdict
        self.verdict = verdict
        self.w = w
        self.attempted = self.failed = self.decided = 0
        self.problems: list[str] = []
        self._checked: set = set()

    def add(self, rows: list) -> None:
        v = self.verdict
        for i, outcome, best, *_ in rows:
            answer = self.w.answers[i]
            self.attempted += 1
            if outcome in ("raised", "error") or v.contradicts(outcome, answer):
                self.failed += 1
            elif outcome == v.EXPECTED[answer]:
                self.decided += 1
            if v.unsound(outcome, answer):
                self.problem(f"unsound {outcome} on row {i}: {self.w.rows[i]}")
            if outcome not in ("raised", "error") and (i, best) not in self._checked:
                self._checked.add((i, best))
                if not v.equivalent(self.w.rows[i], best, seed=i):
                    self.problem(f"best_expr of row {i} differs from the row: {best}")

    def problem(self, msg: str) -> None:
        if len(self.problems) < 20:
            print(f"bench: INCORRECT {msg}", file=sys.stderr)
        self.problems.append(msg)


def _best_latencies(rows: list) -> dict:
    """Row index -> its fastest proof in the run. Every row is proved once
    per round; the fastest of its repeats is the steadiest estimate where
    machine speed drifts during a run."""
    best = {}
    for i, _, _, latency, *_ in rows:
        if latency is not None and latency < best.get(i, math.inf):
            best[i] = latency
    return best


def _latency_rows(best: dict, reps: int) -> list[tuple]:
    """p50, and p95 only where at least ten rows lie beyond it."""
    n = len(best)
    ms = sorted(x * 1000.0 for x in best.values())
    note = f"over {n} rows, best of {reps} proofs each"
    out = [("row_ms_p50", statistics.median(ms), "ms", note)]
    k = math.ceil(0.95 * n)
    if n - k >= 10:
        out.append(("row_ms_p95", ms[k - 1], "ms", f"{note}, {n - k} beyond"))
    else:
        out.append(("row_ms_p95", None, "ms", f"over {n} rows: fewer than 10 beyond p95"))
    return out


def end_to_end(w, result: dict, setup_s: float, check: Checker) -> tuple[dict, list]:
    (p,) = result["passes"]
    rows = p["rows"]
    check.add(rows)
    best = _best_latencies(rows)
    reps = len(p["round_s"])
    if w.jobs == 1:
        rate, how = len(best) / sum(best.values()), "sum of best row latencies"
    else:
        rate, how = len(w.rows) / min(p["round_s"]), "fastest run_dataset round"
    table = [
        ("rows_per_s", rate, "1/s", f"{len(w.rows)} rows / {how}"),
        ("rows_per_s_window", len(rows) / p["wall_s"], "1/s",
         f"{len(rows)} proofs in {p['wall_s']:.3f} s, {reps} rounds"),
    ]
    table += _latency_rows(best, reps)
    table += [
        ("decided_share", check.decided / check.attempted, "share", f"of {check.attempted} proofs"),
        ("failed_share", check.failed / check.attempted, "share", f"of {check.attempted} proofs"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "high-water RSS of the prover process"),
        ("setup_s", setup_s, "s", f"median of {PROBES} cold processes"),
    ]
    metrics = {name: {"value": val, "unit": unit} for name, val, unit, _ in table
               if name in GATED}
    return metrics, table


def per_layer(w, result: dict, rules_s: float, check: Checker) -> tuple[dict, list]:
    """Each time is its minimum over traced passes; counts are the first traced
    pass's, and must repeat in every traced pass of a fixed-work workload."""
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    for p in passes:
        check.add(p["rows"])
    first = traced[0]["layers"]

    def fastest(f):
        return min(f(p) for p in traced)

    table = []
    for metric, span in LAYER_TIMES.items():
        table.append((metric, fastest(lambda p: p["layers"]["self_s"].get(span, 0.0)), "s"))
    for metric, span in LAYER_CALLS.items():
        table.append((metric, first["calls"].get(span, 0), "count"))
    work = first["work"]
    matches, unions = work.get("matches", 0), work.get("unions", 0)
    table += [
        ("matching.matches", matches, "count"),
        ("matching.unions", unions, "count"),
        ("matching.union_ratio", unions / matches if matches else 0.0, "ratio"),
        ("egraph.enodes_max", first["enodes_max"], "count"),
        ("egraph.enodes_final", work.get("enodes", 0), "count"),
        ("engine.iterations", work.get("iterations", 0), "count"),
        ("engine.pulses", work.get("pulses", 0), "count"),
        ("rules.load_s", rules_s, "s"),
        ("harness.task_bytes", traced[0]["task_bytes"], "bytes"),
        ("harness.pool_efficiency", statistics.median(
            sum(r[3] for r in p["rows"] if r[3] is not None) / (w.jobs * p["wall_s"])
            for p in plain), "ratio"),
        ("trace.overhead_share", fastest(lambda p: p["wall_s"])
         / min(p["wall_s"] for p in plain) - 1.0, "share"),
    ]
    prints = [tuple(p["layers"]["work"].get(k, 0) for k in FINGERPRINT)
              + (p["layers"]["enodes_max"], p["task_bytes"]) for p in traced]
    if "--deterministic" in w.flags and len(set(prints)) != 1:
        check.problem(f"work counters differ between traced passes: {prints}")
    metrics = {name: {"value": val, "unit": unit} for name, val, unit in table}
    rows = [(name, val, unit, "") for name, val, unit in table]
    rows.append(("fingerprint", dict(zip(FINGERPRINT, prints[0])), "",
                 f"{len(w.rows)} rows, {len(traced)} traced passes"))
    return metrics, rows


def measure(w, seed: int, seconds: float, trace: int) -> tuple[Checker, dict, list]:
    """Set-up probes, one prover process, and the checked metrics."""
    started = perf_counter()
    # half the set-up probes before the measured process and half after, so
    # that one slow stretch of the machine does not cover them all
    probes = _probes(w, PROBES // 2)
    trace_file = os.path.join(BENCH, "trace", f"{w.name}-seed{seed}.jsonl")
    spec = {"workload": w.name, "seed": seed, "flags": w.flags, "jobs": w.jobs,
            "rows": w.rows, "seconds": seconds, "trace": trace,
            "trace_file": trace_file}
    result = _child(spec, max(30.0, 150.0 - (perf_counter() - started)))
    probes += _probes(w, PROBES - PROBES // 2)
    setup_s = statistics.median(p["import_s"] + p["rules_s"] + p["pool_s"] for p in probes)
    rules_s = statistics.median(p["rules_s"] for p in probes)
    check = Checker(w)
    if trace:
        metrics, table = per_layer(w, result, rules_s, check)
    else:
        metrics, table = end_to_end(w, result, setup_s, check)
    return check, metrics, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "caviar", "__init__.py")):
        return _fail(f"no prover sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import caviar
    if not os.path.abspath(caviar.__file__).startswith(SRC + os.sep):
        return _fail(f"imported caviar from {caviar.__file__}, not from {SRC}")
    import workloads
    from prover import engine_config
    try:
        w = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        return _fail(str(exc))

    check, metrics, table = measure(w, args.seed, args.seconds, args.trace)
    print(f"workload {w.name}  seed {args.seed}  config {engine_config(w.flags)[2]}"
          f"  flags {' '.join(w.flags) or '(defaults)'}  jobs {w.jobs}"
          f"  round {len(w.rows)} rows")
    for name, val, unit, note in table:
        shown = "-" if val is None else (f"{val:.6g}" if isinstance(val, float) else val)
        print(f"  {name:26s} {shown!s:>14} {unit:6s} {note}")
    print(json.dumps({"correct": not check.problems, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
