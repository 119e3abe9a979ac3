"""Command line interface behavior and exit codes."""

import csv
import hashlib
import io
import json

import pytest

from caviar.cli import main
from caviar.corpusgen import CORPUS_NAMES, corpus_text
from caviar.engine import EngineConfig
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


def test_constants_past_the_digit_limit_are_row_errors(tmp_path, capsys):
    # a literal too long to read, and a product that folds to a constant
    # too long to print, each end their own row only
    product = " * ".join(["9999999999"] * 450)
    p = tmp_path / "exprs.txt"
    p.write_text(f"x <= x\n{'9' * 5000} < x\nx < x\n{product} < x\nx <= x\n",
                 encoding="utf-8")
    code, out, _ = run_cli(capsys, "prove", "--input", str(p), "--deterministic")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[2] for r in rows] == ["proved_true", "error", "proved_false", "error",
                                    "proved_true"]
    assert rows[1][3] == "parse_error: integer literal longer than 4300 digits (at offset 0)"
    assert rows[3][3].startswith("print_error: Exceeds the limit (4300")


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


@pytest.mark.parametrize("command", ["prove", "simplify"])
def test_help_shows_the_engine_defaults(capsys, command):
    # argparse formats a help string only when it prints it, so a bad `%`
    # fails here and nowhere else
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = EngineConfig()
    assert f"seconds (default {defaults.time_limit})" in text
    assert f"iteration cap (default {defaults.iter_limit}; 25 when" in text
    assert f"e-node cap (default {defaults.node_limit}; 10000 when" in text
    if command == "prove":
        assert f"pulse threshold in seconds (default {defaults.pulse_threshold})" in text
        assert f"--deterministic (default {defaults.pulse_iters})" in text


def test_custom_rules_file(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("(rule le-refl (<= ?a ?a) true)\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "prove", "--expr", "x <= x",
                           "--deterministic", "--rules", str(rules))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][2] == "proved_true"


def test_byte_order_mark_dataset(tmp_path, capsys):
    # editors on Windows may start a UTF-8 file with a byte-order mark; it
    # is not part of row 1
    p = tmp_path / "exprs.txt"
    p.write_text("x <= x\nx < x\n", encoding="utf-8-sig")
    code, out, _ = run_cli(capsys, "prove", "--input", str(p),
                           "--deterministic")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [(r[0], r[2]) for r in rows[1:]] == [("1", "proved_true"),
                                                ("2", "proved_false")]


def test_byte_order_mark_rule_files(tmp_path, capsys):
    rules, nppd = tmp_path / "rules.txt", tmp_path / "nppd.txt"
    rules.write_text("(rule le-refl (<= ?a ?a) true)\n", encoding="utf-8-sig")
    nppd.write_text("(nppd var-ne-const (!= ?x ?c) :if (and (const ?c) (nonconst ?x)))\n",
                    encoding="utf-8-sig")
    exprs = tmp_path / "exprs.txt"
    exprs.write_text("x <= x\nx != 5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "prove", "--input", str(exprs),
                           "--deterministic", "--rules", str(rules),
                           "--nppd-file", str(nppd))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[2] for r in rows[1:]] == ["proved_true", "non_provable"]


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
    assert err.count("constant contradiction") == 1
    assert "fatal: constant contradiction: " in err


def test_unsound_rules_fatal_in_a_worker_process(tmp_path, capsys):
    # the contradiction crosses the process pool pickled, and still exits 3
    rules = tmp_path / "rules.txt"
    rules.write_text("(rule mul-zero (* ?a 0) 0)\n"
                     "(rule wrong (* ?a 0) 1)\n", encoding="utf-8")
    rows = tmp_path / "rows.txt"
    rows.write_text("x * 0 < 1\nx * 0 < 2\ny * 0 < 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "prove", "--input", str(rows), "--jobs", "2",
                           "--deterministic", "--rules", str(rules))
    assert code == 3
    assert err.count("fatal: constant contradiction: ") == 1
    assert "Traceback" not in err


def test_contradiction_past_the_digit_limit_is_fatal(tmp_path, capsys):
    # both constants are past the int/str digit limit, so the message gives
    # their digit counts; formatting them must not turn exit 3 into exit 2
    rules = tmp_path / "rules.txt"
    rules.write_text("(rule bad (+ ?a 1) ?a)\n", encoding="utf-8")
    expr = "9" * 4000 + " * " + "9" * 400 + " + 1 < x"
    code, out, err = run_cli(capsys, "prove", "--expr", expr, "--rules", str(rules),
                             "--no-nppd", "--deterministic")
    assert code == 3
    assert out == ""
    assert err.endswith("fatal: constant contradiction: <4400-digit integer> vs "
                        "<4400-digit integer> (union of classes 2 and 4)\n")


def test_bare_variable_lhs_rule_file_exit_code(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("(rule pad ?a (+ ?a 0))\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "prove", "--expr", "1 < 2 || x < 3",
                             "--deterministic", "--rules", str(rules))
    assert code == 2
    assert out == ""
    assert "error: line 1: rule pad: lhs is a bare pattern variable" in err


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
    # these rows end on the final goal check, the iteration limit and the
    # node limit, and pulse 49 times
    ("provable.txt", "budget"):
        "dbe486abde354117cd6199bea97d5e1fd381f187ec74044819e4c82d4b0f416d",
    ("nonprovable.txt", "budget"):
        "9e1cdb5ffd3c45131f95d46ee11776e916a3c75ba84f4c517a6ad429a5edb622",
    ("nearmiss.txt", "budget"):
        "aed44da702ecacd0013658885118cec99935ae77a32d022455565989ed435d55",
    ("blowup.txt", "budget"):
        "8cc0d39af3544608eac25d61327ac7370c0225342eb313fb21b69fa1a302e8e9",
}
_FLAGS = {
    "default": (),
    "vanilla": ("--no-pulse", "--no-ilc", "--no-nppd", "--iter-limit", "3"),
    "budget": ("--no-ilc", "--no-nppd", "--node-limit", "60", "--pulse-iters", "2",
               "--iter-limit", "8"),
}
# sha256 of the `prove --deterministic --format json` report of each whole
# shipped corpus: a change to any row's search, verdict or report shows here
JSON_REPORT_SHA256 = {
    "provable.txt": "7de779ef4aee94fdc4258fcd13fbe1feda9e2f22418d1cc7bb7936b5b89cee67",
    "nonprovable.txt": "99f45ae4ad832476b8e3c60874b491803f0f6f757f6096c3083f51a1fc2addfb",
    "nearmiss.txt": "2eccbc725ffe27c6f54d37e0a786f52703c2c967e65dd4251a000628a8e4014d",
    "blowup.txt": "0f04a5a8b4d23562c2145685781511803d621dadcad7883ed1b240f2bd1a7161",
}


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("flags", list(_FLAGS))
def test_deterministic_report_pinned(tmp_path, capsys, name, flags):
    rows = [src for _, src in read_dataset(corpus_text(name))[:10]]
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "prove", "--input", str(path),
                           "--deterministic", *_FLAGS[flags])
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == DETERMINISTIC_REPORT_SHA256[name, flags]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_json_report_pinned(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(corpus_text(name), encoding="utf-8")
    code, out, _ = run_cli(capsys, "prove", "--input", str(path),
                           "--deterministic", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == JSON_REPORT_SHA256[name]
