"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload on its first rows for a single round, untraced and
traced, and checks that every metric BENCHMARK.json names is printed with
its unit, that the verdict checker counts planted wrong verdicts in
`failed`, that fixed-work counters repeat, and that each workload runs
under the `caviar prove` configuration its name says. Exits non-zero on
the first failure.
"""

from __future__ import annotations

import json
import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import verdict  # noqa: E402
import workloads  # noqa: E402
from prover import engine_config  # noqa: E402

TINY_ROWS = {"corpus-full": 6, "blowup-vanilla": 1, "pulse-fixed": 2, "corpus-jobs2": 6}
WORK = ("engine.iterations", "engine.pulses", "matching.matches",
        "matching.unions", "egraph.enodes_final", "egraph.enodes_max")


def tiny(name: str) -> workloads.Workload:
    w = workloads.make(name, 0)
    n = TINY_ROWS[name]
    w.rows, w.answers = w.rows[:n], w.answers[:n]
    return w


def table_value(table: list, name: str):
    return next(row[1] for row in table if row[0] == name)


def test_config_names():
    """Each workload runs under the configuration its name says."""
    want = {"corpus-full": "full", "blowup-vanilla": "vanilla",
            "pulse-fixed": "full", "corpus-jobs2": "full"}
    for name in workloads.NAMES:
        assert engine_config(workloads.make(name, 0).flags)[2] == want[name], name


def test_evaluator():
    cases = {"-7 / 2 == -4": True, "-7 % 2 == 1": True, "7 % -2 == -1": True,
             "5 / 0 == 0 && 5 % 0 == 0": True, "min(3, -3) < max(1, 2) - 1": True,
             "!(1 < 2) || 2 * 3 != 6": False}
    for src, want in cases.items():
        assert bool(verdict.evaluate(verdict.parse(src), {})) is want, src
    assert verdict.known_answer("v0 % 5 < 5") == verdict.TRUE
    assert verdict.known_answer("v0 != 37") == verdict.NONCONST
    assert verdict.equivalent("v0 + 1 <= v0", "false")
    assert not verdict.equivalent("v0 < 3", "false")


def test_answers_by_construction():
    rng = random.Random(1)
    for src, answer in workloads.gen_deep(rng, 14) + workloads.gen_blowup(rng, 3):
        assert verdict.known_answer(src) == answer, src


def test_metrics_named_with_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.NAMES:
            check, metrics, _ = run.measure(tiny(name), 0, 0.0, trace)
            assert set(metrics) == set(want), (name, trace, set(metrics) ^ set(want))
            for metric, unit in want.items():
                assert metrics[metric]["unit"] == unit, (name, metric)
                assert isinstance(metrics[metric]["value"], (int, float)), (name, metric)
            if trace == 0:
                assert all(metrics[m]["value"] > 0 for m in want), (name, metrics)
            assert not check.problems, (name, check.problems)


def test_planted_wrong_verdicts():
    w = tiny("corpus-full")
    check, _, table = run.measure(w, 0, 0.0, 0)
    base_failed = check.failed
    # a row every sound prover proves true, planted as false: failed and
    # an unsound proof; a non-constant row planted as true: NPPD's
    # non_provable now contradicts it, which is failed but not incorrect
    w.rows += ["v0 <= v0", "v0 != 7"]
    w.answers += [verdict.FALSE, verdict.TRUE]
    check, _, table = run.measure(w, 0, 0.0, 0)
    assert check.failed == base_failed + 2, (check.failed, base_failed)
    assert table_value(table, "failed_share") == check.failed / check.attempted
    assert len(check.problems) == 1 and "unsound" in check.problems[0], check.problems


def test_fingerprint_repeats():
    for name in ("blowup-vanilla", "pulse-fixed"):
        runs = [run.measure(tiny(name), 0, 0.0, 1)[1] for _ in range(2)]
        a, b = ({k: m[k]["value"] for k in WORK} for m in runs)
        assert a == b and a["matching.matches"] > 0, (name, a, b)


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
