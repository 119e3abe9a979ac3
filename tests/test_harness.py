"""Dataset harness: row schema, summaries, parallelism, determinism."""

import csv
import io
import json

from caviar.engine import EngineConfig
from caviar.harness import (
    CSV_HEADER, Summary, emit_csv, emit_json, emit_report, read_dataset,
    run_dataset, summarize,
)
from caviar.rules import default_nppd_patterns, default_ruleset

RULES = default_ruleset().rules
NPPD = default_nppd_patterns()

DATASET = """\
# a comment line
x <= x

x < x
x != 5
x % % oops
"""


def det_cfg():
    return EngineConfig(deterministic=True, iter_limit=20, pulse_iters=5,
                        node_limit=10_000)


def test_read_dataset_skips_comments_and_blanks():
    items = read_dataset(DATASET)
    assert items == [(1, "x <= x"), (2, "x < x"), (3, "x != 5"),
                     (4, "x % % oops")]


def test_run_dataset_outcomes():
    rows = run_dataset(DATASET, RULES, NPPD, det_cfg())
    assert [r.outcome for r in rows] == [
        "proved_true", "proved_false", "non_provable", "error"]
    assert rows[2].matched_pattern == "var-ne-const"
    assert rows[3].stop_reason.startswith("parse_error:")
    assert rows[3].best_expr == ""


def test_csv_schema():
    rows = run_dataset(DATASET, RULES, NPPD, det_cfg())
    text = emit_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == CSV_HEADER
    assert len(parsed) == 5
    assert parsed[1][2] == "proved_true"
    assert all(len(row) == len(CSV_HEADER) for row in parsed)


def test_json_schema():
    rows = run_dataset(DATASET, RULES, NPPD, det_cfg())
    payload = json.loads(emit_json(rows, summarize(rows)))
    assert set(payload) == {"rows", "summary"}
    assert len(payload["rows"]) == 4
    assert set(payload["rows"][0]) == set(CSV_HEADER)
    s = payload["summary"]
    assert s["total"] == 4
    assert s["proved_true"] == 1
    assert s["proved_false"] == 1
    assert s["non_provable"] == 1
    assert s["errors"] == 1


def test_summary_times():
    rows = run_dataset(DATASET, RULES, NPPD, det_cfg())
    s = summarize(rows)
    assert s.total_time_ms == 0.0  # deterministic mode reports zero
    assert s.mean_time_ms == 0.0


def test_summary_as_dict_rounds_times():
    s = Summary(total=3, proved_true=2, errors=1, total_time_ms=1.23456,
                p95_time_ms=0.0004)
    d = s.as_dict()
    assert list(d) == ["total", "proved_true", "proved_false", "non_provable",
                       "unknown", "errors", "total_time_ms", "proved_time_ms",
                       "mean_time_ms", "median_time_ms", "p95_time_ms"]
    assert d["total"] == 3 and type(d["total"]) is int
    assert d["total_time_ms"] == 1.235 and d["p95_time_ms"] == 0.0


def test_emit_report_dispatch():
    rows = run_dataset("x <= x", RULES, NPPD, det_cfg())
    assert emit_report(rows, "csv").startswith(",".join(CSV_HEADER))
    assert json.loads(emit_report(rows, "json"))


def test_deterministic_reports_byte_identical():
    r1 = emit_report(run_dataset(DATASET, RULES, NPPD, det_cfg()), "csv")
    r2 = emit_report(run_dataset(DATASET, RULES, NPPD, det_cfg()), "csv")
    assert r1 == r2


def test_parallel_preserves_order_and_results():
    seq = run_dataset(DATASET, RULES, NPPD, det_cfg(), jobs=1)
    par = run_dataset(DATASET, RULES, NPPD, det_cfg(), jobs=3)
    assert [r.__dict__ for r in par] == [r.__dict__ for r in seq]


def test_pool_has_no_more_workers_than_rows(monkeypatch):
    import concurrent.futures
    sizes = []

    class RecordingPool:
        """Records the workers asked for; runs the rows in this process."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    seq = run_dataset(DATASET, RULES, NPPD, det_cfg())
    # four rows: four workers at most, whatever `jobs` asks for
    assert run_dataset(DATASET, RULES, NPPD, det_cfg(), jobs=5000) == seq
    assert run_dataset(DATASET, RULES, NPPD, det_cfg(), jobs=2) == seq
    # one row, or none, runs in this process without a pool
    assert [r.outcome for r in run_dataset("x <= x\n", RULES, NPPD, det_cfg(), jobs=3)] == \
        ["proved_true"]
    assert run_dataset("# no rows\n", RULES, NPPD, det_cfg(), jobs=4) == []
    assert sizes == [4, 2]


def test_too_deep_row_is_an_error_row():
    # parses, but the engine's recursive term walks exceed Python's stack
    deep = " + ".join(["x"] * 1200) + " <= 0"
    rows = run_dataset(f"x <= x\n{deep}\nx < x\n", RULES, NPPD, det_cfg())
    assert [r.outcome for r in rows] == ["proved_true", "error", "proved_false"]
    assert rows[1].stop_reason == "depth_error: expression nests too deeply"
