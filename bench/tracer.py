"""Outside-in tracer: spans and work counters around the prover's public
functions, installed by replacing module attributes where callers look them
up.

`caviar.engine` imports its layer functions by name, so they are wrapped as
`caviar.engine.<name>`; `EGraph.rebuild` is wrapped on the class and the
harness's own lookups in `caviar.harness`. Spans nest, so each span's self
time is its duration minus the time its child spans cover. The analysis
functions (`make`, `join`) are too hot to wrap; their time counts inside the
egraph spans.

Work is recorded per row: `Tracer.end_row` returns a picklable record, so
rows proved in forked pool workers carry their record back on the Row.
"""

from __future__ import annotations

import multiprocessing.reduction as reduction
from collections import Counter, defaultdict
from time import perf_counter

import caviar.engine
import caviar.harness
from caviar.egraph import EGraph

# span name -> (owner, attribute)
TARGETS = {
    "egraph.build": (caviar.engine, "from_expr"),
    "matching.search": (caviar.engine, "gather_matches"),
    "matching.apply": (caviar.engine, "apply_matches"),
    "engine.goal_check": (caviar.engine, "goals_check"),
    "engine.nppd_check": (caviar.engine, "nppd_check"),
    "extraction.extract": (caviar.engine, "extract_best"),
    "egraph.rebuild": (EGraph, "rebuild"),
    "expr.parse": (caviar.harness, "parse_infix"),
    "expr.print": (caviar.harness, "print_infix"),
    "engine": (caviar.harness, "prove_pulsed"),
}
ROW_SPAN = "harness.prove_line"


class Tracer:
    """Spans and counters of the row in progress, and the patches that
    collect them while installed."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.task_bytes = 0
        self._begin()

    def _begin(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._open: list[list] = []      # [span index, seconds in children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()   # matches, unions, iterations, ...
        self.enodes_max = 0
        self.rules: dict[str, list[int]] = defaultdict(lambda: [0, 0])

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self._open.append([len(self.spans), 0.0])
        self.spans.append([name, perf_counter(), None, parent])

    def _exit(self) -> None:
        end = perf_counter()
        index, child_s = self._open.pop()
        span = self.spans[index]
        span[2] = end
        dur = end - span[1]
        if self._open:
            self._open[-1][1] += dur
        self.self_s[span[0]] += dur - child_s
        self.calls[span[0]] += 1

    def _wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                count(args, result)
            return result
        return traced

    # -- counters ------------------------------------------------------------

    def _count_search(self, args, matches):
        self.work["matches"] += len(matches)
        self.rules[args[1].name][0] += len(matches)

    def _count_apply(self, args, unions):
        self.work["unions"] += unions
        self.rules[args[1].name][1] += unions

    def _count_prove(self, args, res):
        self.work["iterations"] += res.iterations
        self.work["pulses"] += res.pulses
        self.work["enodes"] += res.enodes
        peak = max((s.enodes for s in res.report.iterations), default=0)
        self.enodes_max = max(self.enodes_max, peak, res.enodes)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and the row entry point; raises AttributeError
        if the prover no longer has a target, rather than tracing nothing.
        Also counts in `task_bytes` what this process pickles for pool
        workers until `uninstall`."""
        counts = {"matching.search": self._count_search,
                  "matching.apply": self._count_apply,
                  "engine": self._count_prove}
        for name, (owner, attr) in TARGETS.items():
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), counts.get(name)))
        self._patch(caviar.harness, "prove_line",
                    self._wrap(ROW_SPAN, caviar.harness.prove_line))

        self.task_bytes = 0
        dumps, dump = reduction.ForkingPickler.dumps, reduction.dump

        def counting_dumps(cls, obj, protocol=None):
            data = dumps(obj, protocol)
            self.task_bytes += len(data)
            return data

        def counting_dump(obj, file, protocol=None):
            self.task_bytes += len(dumps(obj, protocol))
            dump(obj, file, protocol)

        self._patch(reduction.ForkingPickler, "dumps", classmethod(counting_dumps))
        self._patch(reduction, "dump", counting_dump)

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-row records -----------------------------------------------------

    def end_row(self) -> dict:
        """This row's record; starts a fresh one."""
        record = {"self_s": dict(self.self_s), "calls": dict(self.calls),
                  "work": dict(self.work), "enodes_max": self.enodes_max,
                  "rules": dict(self.rules), "spans": self.spans}
        self._begin()
        return record
