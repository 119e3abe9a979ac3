"""Command line interface behavior and exit codes."""

import csv
import hashlib
import io
import json

import pytest

from caviar.cli import main
from caviar.corpusgen import CORPUS_NAMES, corpus_text
from caviar.harness import read_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_single_expression(capsys):
    code, out, err = run_cli(capsys, "prove", "--expr", "x <= x",
                             "--deterministic")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][2] == "proved_true"
    assert "config: full" in err


def test_prove_json_format(capsys):
    code, out, _ = run_cli(capsys, "prove", "--expr", "x != 5",
                           "--deterministic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["outcome"] == "non_provable"
    assert payload["summary"]["non_provable"] == 1


def test_prove_dataset_file(tmp_path, capsys):
    p = tmp_path / "exprs.txt"
    p.write_text("# demo\nx <= x\nx < x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "prove", "--input", str(p),
                             "--deterministic")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[2] for r in rows[1:]] == ["proved_true", "proved_false"]
    assert "summary:" in err


def test_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "prove", "--expr", "x <= x",
                           "--deterministic", "--report", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text(encoding="utf-8").startswith("id,")


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "prove", "--expr", "x % %")
    assert code == 2
    assert "error" in err


def test_dataset_row_errors_do_not_fail_run(tmp_path, capsys):
    p = tmp_path / "exprs.txt"
    p.write_text("x <= x\nnot an expression !!\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "prove", "--input", str(p),
                           "--deterministic")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[2][2] == "error"


def test_non_decimal_digit_is_a_row_error(tmp_path, capsys):
    # '²' is a digit to str.isdigit but not to int(); one such row must not
    # end the run
    p = tmp_path / "exprs.txt"
    p.write_text("x <= x\nx < ²\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "prove", "--input", str(p), "--deterministic")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [(r[0], r[2]) for r in rows] == [("1", "proved_true"), ("2", "error")]
    assert rows[1][3] == "parse_error: unexpected character '²' (at offset 4)"


def test_missing_input_file(capsys):
    code, _, err = run_cli(capsys, "prove", "--input", "/nonexistent/x.txt")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["prove"])  # neither --expr nor --input
    assert exc.value.code == 2


def test_timeout_below_default_pulse(capsys):
    # the 0.05 s default pulse threshold is clamped to a shorter timeout
    code, _, _ = run_cli(capsys, "prove", "--expr", "x <= x", "--timeout", "0.01")
    assert code == 0
    code, _, _ = run_cli(capsys, "simplify", "--expr", "a + 0", "--timeout", "0.01")
    assert code == 0


def test_pulse_iters_must_be_positive(capsys):
    code, _, err = run_cli(capsys, "prove", "--expr", "x + 1 < x + 2",
                           "--deterministic", "--no-ilc", "--pulse-iters", "0")
    assert code == 2
    assert "pulse_iters" in err


@pytest.mark.parametrize("pulse", ["0", "-1", "nan"])
def test_pulse_must_be_positive(capsys, pulse):
    # a zero pulse period ran empty pulses until the timeout
    code, out, err = run_cli(capsys, "prove", "--expr", "x * 3 < x * 3 + 1",
                             "--pulse", pulse, "--timeout", "1")
    assert code == 2
    assert out == ""
    assert "error: pulse_threshold must be positive" in err


@pytest.mark.parametrize("flags", [
    ["--timeout", "nan"], ["--timeout", "inf"],
    ["--iter-limit", "-3", "--deterministic"], ["--node-limit", "0"],
    ["--jobs", "0"], ["--jobs", "-1"],
])
def test_nonsense_limits_are_usage_errors(capsys, flags):
    # a NaN deadline never passes, so a blown-up row would run to the node
    # limit; the others would run as some other limit without a word
    code, out, err = run_cli(capsys, "prove", "--expr", "x * 3 < x * 3 + 1", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_config_banner_variants(capsys):
    _, _, err = run_cli(capsys, "prove", "--expr", "x <= x", "--deterministic",
                        "--no-ilc", "--no-nppd", "--no-pulse")
    assert "config: vanilla" in err
    _, _, err = run_cli(capsys, "prove", "--expr", "x <= x", "--deterministic",
                        "--no-nppd", "--no-pulse")
    assert "config: ilc-only" in err
    _, _, err = run_cli(capsys, "prove", "--expr", "x <= x", "--deterministic",
                        "--no-ilc", "--no-pulse")
    assert "config: nppd-only" in err


def test_goals_flag(capsys):
    code, out, _ = run_cli(capsys, "prove", "--expr", "x < x",
                           "--deterministic", "--goals", "true")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][2] == "unknown"


def test_custom_rules_file(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("(rule le-refl (<= ?a ?a) true)\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "prove", "--expr", "x <= x",
                           "--deterministic", "--rules", str(rules))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][2] == "proved_true"


def test_bad_rules_file_exit_code(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("(rule broken (+ ?a ?b))\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "prove", "--expr", "x <= x",
                           "--rules", str(rules))
    assert code == 2


def test_bad_rule_condition_exit_code(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("(rule r (+ ?a 0) ?a :if (const))\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "prove", "--expr", "x <= x",
                           "--rules", str(rules))
    assert code == 2
    assert "error: line 1: const takes 1 argument, got 0" in err


def test_simplify(capsys):
    code, out, err = run_cli(capsys, "simplify", "--expr", "(a * 2) / 2",
                             "--deterministic")
    assert code == 0
    assert out.strip() == "a"
    assert "config: vanilla" in err


def test_simplify_parse_error(capsys):
    code, _, _ = run_cli(capsys, "simplify", "--expr", "a +")
    assert code == 2


def test_simplify_too_deep(capsys):
    deep = " + ".join(["x"] * 1200)
    code, out, err = run_cli(capsys, "simplify", "--expr", deep, "--deterministic")
    assert code == 2
    assert out == ""
    assert err.endswith("error: expression nests too deeply\n")


def test_unsound_rules_fatal_exit_code(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    # together these force 0 = 1 in the x*0 class
    rules.write_text("(rule mul-zero (* ?a 0) 0)\n"
                     "(rule wrong (* ?a 0) 1)\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "prove", "--expr", "x * 0 <= 5",
                           "--deterministic", "--rules", str(rules))
    assert code == 3
    assert "contradiction" in err


# sha256 of the `prove --deterministic` CSV for the first 10 rows of each
# shipped corpus: any change to the search or to the report shows here
DETERMINISTIC_REPORT_SHA256 = {
    ("provable.txt", "default"):
        "9cd3d89e4f690f26b35be43cdfbd215a6bd1f4742d28fa97fa7b371af49ac16b",
    ("provable.txt", "vanilla"):
        "f5586d2ff9f7caa63a40f3dd7934cd4a9cd9c45a2ee89d159743340603fcd163",
    ("nonprovable.txt", "default"):
        "5c5de997ffe439addd27640b6f2f753b464c55cbd0fe019de16605e9e35c12c0",
    ("nonprovable.txt", "vanilla"):
        "c37f66907a12d738c594806d94d406005160d312b514386489e9d230ea763a40",
    ("nearmiss.txt", "default"):
        "0f79614db255ab3a32dfe98e2df52a8b955eacc0007b0d884dbc97677170a416",
    ("nearmiss.txt", "vanilla"):
        "6177bfad6adf3c26b6efabb6cab16230f8bc959289a0f4d23089b31d7697e40a",
    ("blowup.txt", "default"):
        "b559aa3e3245682dea41bbd0e6895937ad441a7ddddd2db3295122cac2901378",
    ("blowup.txt", "vanilla"):
        "3483f3f0f23623cac694a3752ed1827360cfaecb69ddb49988f4592a92d69dde",
}
_VANILLA_FLAGS = ("--no-pulse", "--no-ilc", "--no-nppd", "--iter-limit", "3")
# sha256 of the `prove --deterministic --format json` report of all of
# nearmiss.txt, recorded before `Summary.as_dict` was built from its fields
NEARMISS_JSON_SHA256 = "2eccbc725ffe27c6f54d37e0a786f52703c2c967e65dd4251a000628a8e4014d"


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("flags", ["default", "vanilla"])
def test_deterministic_report_pinned(tmp_path, capsys, name, flags):
    rows = [src for _, src in read_dataset(corpus_text(name))[:10]]
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    extra = _VANILLA_FLAGS if flags == "vanilla" else ()
    code, out, _ = run_cli(capsys, "prove", "--input", str(path),
                           "--deterministic", *extra)
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == DETERMINISTIC_REPORT_SHA256[name, flags]


def test_json_report_pinned(tmp_path, capsys):
    path = tmp_path / "nearmiss.txt"
    path.write_text(corpus_text("nearmiss.txt"), encoding="utf-8")
    code, out, _ = run_cli(capsys, "prove", "--input", str(path),
                           "--deterministic", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == NEARMISS_JSON_SHA256
