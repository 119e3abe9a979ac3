"""The measured process: proves one workload's rows through the public
`caviar` entry points and prints the raw measurements as JSON.

run.py starts it once per run with a JSON spec on standard input, so that
peak RSS belongs to a fresh process that runs only this workload, and again
several times with `"probe": true` to time set-up from a cold interpreter.
Nothing here checks verdicts; run.py does that with its own evaluator.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def engine_config(flags: list[str]):
    """The EngineConfig, NPPD patterns and config name (`vanilla`, `full`,
    ...) that `caviar prove --input FILE <flags>` builds, through the CLI's
    own `_make_parser` and `_build_config`."""
    from caviar import cli, default_nppd_patterns

    args = cli._make_parser().parse_args(["prove", "--input", "-", *flags])
    cfg = cli._build_config(args, proving=True)
    patterns = [] if args.no_nppd else default_nppd_patterns()
    return cfg, patterns, cli._config_name(cfg)


def probe(spec: dict) -> dict:
    """Set-up as a user pays it: import, rule and pattern parsing, and for a
    pooled workload the start-up of the prover's process pool."""
    t0 = perf_counter()
    import caviar.cli  # noqa: F401  (the `caviar` entry point's imports)
    from caviar import default_nppd_patterns, default_ruleset, run_dataset
    t1 = perf_counter()
    rules = default_ruleset().rules
    default_nppd_patterns()
    t2 = perf_counter()
    if spec["jobs"] > 1:
        cfg, patterns, _ = engine_config(spec["flags"])
        run_dataset("0 < 1\n1 < 2\n", rules, patterns, cfg, jobs=spec["jobs"])
    t3 = perf_counter()
    return {"import_s": t1 - t0, "rules_s": t2 - t1, "pool_s": t3 - t2}


class Runner:
    """Proves rows with per-row latency taken around harness.prove_line.

    The timing wrapper replaces `caviar.harness.prove_line`, which
    run_dataset looks up at call time; pool workers forked by run_dataset
    inherit it, and each Row carries its latency (and trace record) back.
    """

    def __init__(self, spec: dict):
        import caviar.harness
        from caviar import default_ruleset
        from tracer import Tracer

        self.harness = caviar.harness
        self.rules = default_ruleset().rules
        self.cfg, self.patterns, _ = engine_config(spec["flags"])
        self.jobs = spec["jobs"]
        self.tracer = Tracer()
        self.traced = False

    def _timed(self, inner):
        def prove_line(item, *args, **kwargs):
            t0 = perf_counter()
            try:
                row = inner(item, *args, **kwargs)
            finally:
                latency = perf_counter() - t0
                record = self.tracer.end_row() if self.traced else None
            row.bench = (latency, record)
            return row
        return prove_line

    def _round(self, items):
        """Yields (index, Row or error text) through the public entry points."""
        if self.jobs == 1:
            for i, src in items:
                try:
                    yield i, self.harness.prove_line((i, src), self.rules,
                                                     self.patterns, self.cfg)
                except Exception as exc:  # a raising row is a failed operation
                    yield i, f"raised {exc!r}"
            return
        text = "".join(src + "\n" for _, src in items)
        try:
            rows = self.harness.run_dataset(text, self.rules, self.patterns,
                                            self.cfg, jobs=self.jobs)
        except Exception as exc:  # the whole dataset failed
            for i, _ in items:
                yield i, f"raised {exc!r}"
            return
        for (i, _), row in zip(items, rows, strict=True):
            if not hasattr(row, "bench"):
                raise RuntimeError("pool workers did not run the timed "
                                   "prove_line; per-row latency is unmeasurable")
            yield i, row

    def run(self, items, traced: bool, seconds: float = 0.0) -> dict:
        """Whole rounds over `items`: one, then more while the next round is
        expected to end within `seconds` of the start."""
        self.traced = traced
        original = self.harness.prove_line
        if traced:
            self.tracer.install()
        self.harness.prove_line = self._timed(self.harness.prove_line)
        rows, layers, spans, round_s = [], _Totals(), [], []
        try:
            t0 = perf_counter()
            while not round_s or perf_counter() + round_s[-1] <= t0 + seconds:
                r0 = perf_counter()
                for i, row in self._round(items):
                    if isinstance(row, str):
                        rows.append([i, "raised", row, None, 0, 0, 0])
                        continue
                    latency, record = row.bench
                    rows.append([i, row.outcome, row.best_expr, latency,
                                 row.iterations, row.pulses, row.enodes])
                    if record is not None:
                        layers.add(record)
                        spans.append((i, record["spans"]))
                round_s.append(perf_counter() - r0)
            wall = perf_counter() - t0
        finally:
            self.harness.prove_line = original
            if traced:
                self.tracer.uninstall()
        out = {"traced": traced, "wall_s": wall, "round_s": round_s, "rows": rows}
        if traced:
            out["layers"] = layers.as_dict()
            out["task_bytes"] = self.tracer.task_bytes
            out["spans"] = spans
        return out


class _Totals:
    """Sum of per-row trace records over one pass."""

    def __init__(self):
        self.self_s, self.calls, self.work = Counter(), Counter(), Counter()
        self.rules: dict[str, list[int]] = {}
        self.enodes_max = 0

    def add(self, rec: dict) -> None:
        self.self_s.update(rec["self_s"])
        self.calls.update(rec["calls"])
        self.work.update(rec["work"])
        for name, (m, u) in rec["rules"].items():
            mu = self.rules.setdefault(name, [0, 0])
            mu[0] += m
            mu[1] += u
        self.enodes_max = max(self.enodes_max, rec["enodes_max"])

    def as_dict(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls, "work": self.work,
                "rules": self.rules, "enodes_max": self.enodes_max}


def write_trace(path: str, spec: dict, first: dict) -> None:
    """Spans (microseconds from the pass start) and per-rule counts of the
    first traced pass, one JSON record per line."""
    t0 = min((s[1] for _, spans in first["spans"] for s in spans), default=0.0)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": spec["workload"], "seed": spec["seed"],
                             "span_fields": ["name", "start_us", "end_us", "parent"]}) + "\n")
        for i, spans in first["spans"]:
            fh.write(json.dumps({"row": i, "spans": [
                [name, round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), parent]
                for name, a, b, parent in spans]}) + "\n")
        fh.write(json.dumps({"rules": first["layers"]["rules"]}) + "\n")


def _peak_rss_kb() -> int:
    """This process's own RSS high-water mark. On Linux, ru_maxrss of
    RUSAGE_SELF also carries the forking parent's RSS across exec, so read
    the kernel's per-process figure where it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if spec.get("probe"):
        json.dump(probe(spec), sys.stdout)
        return 0
    runner = Runner(spec)
    items = list(enumerate(spec["rows"]))
    # a tiny row first, so lazy first-call work is not in the window
    runner.run([(-1, "0 < 1")], traced=False)
    if not spec["trace"]:
        passes = [runner.run(items, traced=False, seconds=spec["seconds"])]
    else:
        # alternate untraced and traced passes over the round; the untraced
        # ones are the base of trace.overhead_share
        passes = []
        t0, pair_s = perf_counter(), 0.0
        # stop before a pair that would end past the window
        while not passes or perf_counter() + pair_s < t0 + spec["seconds"]:
            pair_start = perf_counter()
            passes.append(runner.run(items, traced=False))
            passes.append(runner.run(items, traced=True))
            if len(passes) == 2:
                write_trace(spec["trace_file"], spec, passes[1])
            passes[-1].pop("spans")
            pair_s = perf_counter() - pair_start
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    json.dump({"passes": passes, "peak_rss_mb": max(_peak_rss_kb(), kids) / 1024.0},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
