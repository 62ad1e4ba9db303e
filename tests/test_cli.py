"""End-to-end exercises of the command line interface.

Everything runs in process through main(argv) so exit codes and
emitted JSON can be asserted exactly.
"""

import hashlib
import json
import time

import pytest

from conftest import run_cli
from liecodazzi import cli
from liecodazzi.cli import MAX_TRIALS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- list --------------------------------------------------------------------


def test_list_human_output(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "G1" in out and "G4(eta=+1)" in out and "G4(eta=-1)" in out
    assert "[ẽ1,ẽ2]" in out
    assert "G7/kobayashi-nomizu/quasistatistical" in out


def test_list_ascii_flag(capsys):
    code, out, _ = run(capsys, "--ascii", "list")
    assert code == 0
    assert "[e1,e2]" in out
    assert "ẽ" not in out and "α" not in out


def test_list_json(capsys):
    code, payload, _ = run_json(capsys, "list", "--json")
    assert code == 0
    assert payload["schema"] == "1"
    assert len(payload["families"]) == 8
    assert payload["structures"] == ["codazzi", "quasistatistical"]
    assert len(payload["cases"]) == 42
    g1 = payload["families"][0]
    assert "brackets" in g1 and "e1e2" in g1["brackets"]


# sha256 of the UTF-8 bytes that `list`, `--ascii list` and `list --json`
# print; a change to how groups, brackets or cases are walked moves them
LIST_SHA256 = {
    ("list",): "6051462b8e6204fdb3f95035bc23d1ad37c666c64d913bf9faf73cab63d23cc5",
    ("--ascii", "list"): "9fa8305dd3b5923069c9ed148d566ef4a1ca436a535bed8ca1b2d66e74a91d41",
    ("list", "--json"): "00b188f65da3b7d460ef9f85ecba071c2fbc4973c69d9576d94c03c4ed73b569",
}


@pytest.mark.parametrize("argv", sorted(LIST_SHA256), ids=" ".join)
def test_list_output_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LIST_SHA256[argv]


# -- compute -----------------------------------------------------------------


def test_compute_defaults_to_connection_table(capsys):
    code, payload, _ = run_json(
        capsys, "compute", "--family", "G1", "--connection", "bott", "--json")
    assert code == 0
    assert payload["object"] == "connection"
    assert payload["connection"] == "bott"
    assert len(payload["entries"]) == 9
    # vector entries use the same term encoding as list --json brackets
    assert payload["entries"]["1,1"] == [
        [], [{"coeff": "-1", "exps": {"a": 1}}], []]
    assert all(len(v) == 3 for v in payload["entries"].values())


def test_compute_scalar_object(capsys):
    code, payload, _ = run_json(
        capsys, "compute", "--family", "G1", "--connection", "lc",
        "--object", "ricci-sym", "--json")
    assert code == 0
    assert len(payload["entries"]) == 6
    assert all(isinstance(v, str) for v in payload["entries"].values())


def test_compute_g4_needs_eta(capsys):
    code, _, err = run(capsys, "compute", "--family", "G4",
                       "--connection", "bott")
    assert code == 2 and "eta" in err


def test_compute_eta_rejected_off_g4(capsys):
    code, _, err = run(capsys, "compute", "--family", "G1",
                       "--connection", "bott", "--eta", "+1")
    assert code == 2 and "no eta" in err


def test_compute_g4_branches_differ(capsys):
    _, plus, _ = run_json(capsys, "compute", "--family", "G4", "--eta", "+1",
                          "--connection", "canonical", "--json")
    _, minus, _ = run_json(capsys, "compute", "--family", "G4", "--eta", "-1",
                           "--connection", "canonical", "--json")
    assert plus["family"] == "G4(eta=+1)"
    assert minus["family"] == "G4(eta=-1)"
    assert plus["entries"] != minus["entries"]


def test_compute_rejects_unknown_connection(capsys):
    code, _, err = run(capsys, "compute", "--family", "G1",
                       "--connection", "weyl")
    assert code == 2 and "error" in err


def test_compute_human_output_uses_greek(capsys):
    code, out, _ = run(capsys, "compute", "--family", "G1",
                       "--connection", "bott", "--object", "torsion")
    assert code == 0
    assert "β" in out


# -- check -------------------------------------------------------------------


def test_check_holds_exit_zero(capsys):
    code, payload, _ = run_json(
        capsys, "check", "--family", "G2", "--connection", "bott",
        "--structure", "codazzi", "--solution", "a=0,b=0", "--json")
    assert code == 0
    assert payload["holds"] is True
    assert payload["case"] == "G2/bott/codazzi"
    assert payload["residuals"] == {}


def test_check_fails_exit_one(capsys):
    code, payload, _ = run_json(
        capsys, "check", "--family", "G1", "--connection", "bott",
        "--structure", "codazzi", "--solution", "b=0", "--json")
    assert code == 1
    assert payload["holds"] is False
    assert payload["residuals"]


def test_check_human_output_fails_exit_one(capsys):
    code, out, _ = run(capsys, "check", "--family", "G1", "--connection", "bott",
                       "--structure", "codazzi", "--solution", "b=0")
    assert code == 1
    assert out.startswith("G1/bott/codazzi fails on [β = 0]\n  f(1,3,1) = ")


def test_check_human_output(capsys):
    code, out, _ = run(capsys, "check", "--family", "G2", "--connection", "b",
                       "--structure", "codazzi", "--solution", "a=0,b=0")
    assert code == 0
    assert "holds on" in out and "α = 0" in out


def test_check_solution_conflicting_with_group_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--family", "G1", "--connection",
                       "bott", "--structure", "codazzi", "--solution", "a=0")
    assert code == 2
    assert "constraint violated" in err


def test_check_solution_accepts_metric_sign_h(capsys):
    # the README's G4 example: h is the sign eta of the chosen branch
    for eta, sign in (("+1", "1"), ("-1", "(-1)")):
        args = ("check", "--family", "G4", "--eta", eta, "--connection",
                "canonical", "--structure", "codazzi", "--json", "--solution")
        with_h = run(capsys, *args, "b=a/2+h")
        with_sign = run(capsys, *args, f"b=a/2+{sign}")
        assert with_h[0] in (0, 1)
        assert with_h == with_sign


def test_check_h_off_g4_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--family", "G1", "--connection",
                       "bott", "--structure", "codazzi", "--solution", "b=h")
    assert code == 2 and "'h'" in err


def test_check_h_is_no_variable_to_assign(capsys):
    # on G4, h is the sign eta: the message names the word the user typed
    code, _, err = run(capsys, "check", "--family", "G4", "--eta", "+1", "--connection",
                       "bott", "--structure", "codazzi", "--solution", "h=0")
    assert code == 2 and "not a parameter name: 'h'" in err


def test_check_table_shorthand_is_not_solution_text(capsys):
    # m1..m3 and n1..n3 abbreviate the printed G3/G4 tables only
    for group, text in ((("--family", "G1"), "b=m1"),
                        (("--family", "G4", "--eta", "+1"), "b=n3")):
        code, _, err = run(capsys, "check", *group, "--connection", "bott",
                           "--structure", "codazzi", "--solution", text)
        assert code == 2
        assert f"unknown name '{text[2:]}' in '{text[2:]}'" in err


def test_check_repeated_variable_is_usage_error(capsys):
    for text in ("a=1,a=0,b=0", "a=1,alpha=0"):
        code, out, err = run(capsys, "check", "--family", "G2", "--connection",
                             "bott", "--structure", "codazzi", "--solution", text)
        assert code == 2 and not out
        assert "'a' is assigned twice" in err


def test_check_huge_exponent_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--family", "G1", "--connection",
                       "bott", "--structure", "codazzi", "--solution",
                       "a=b^99999999")
    assert code == 2 and "degree above" in err


def test_check_overlong_number_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--family", "G1", "--connection",
                         "bott", "--structure", "codazzi", "--solution", "a=" + "1" * 5000)
    assert code == 2 and not out
    assert "digits; at most" in err and "set_int_max_str_digits" not in err


def test_check_malformed_solution(capsys):
    code, _, err = run(capsys, "check", "--family", "G1", "--connection",
                       "bott", "--structure", "codazzi", "--solution", "a+b")
    assert code == 2 and "error" in err


def test_check_solution_cut_short_names_the_end_of_the_text(capsys):
    code, out, err = run(capsys, "check", "--family", "G1", "--connection",
                         "bott", "--structure", "codazzi", "--solution", "a=(b")
    assert code == 2 and not out
    assert "expected ')' before the end of '(b'" in err and "None" not in err


# -- sample ------------------------------------------------------------------


def test_sample_reports_violations(capsys):
    code, payload, _ = run_json(
        capsys, "sample", "--family", "G1", "--connection", "bott",
        "--structure", "codazzi", "--trials", "30", "--seed", "7", "--json")
    assert code == 0
    assert payload["trials"] == 30
    assert payload["violations"] == 30
    assert payload["satisfied"] == 0
    assert payload["seed"] == 7


def test_sample_defaults_to_200_trials_and_prints_the_counterexample(capsys):
    code, out, _ = run(capsys, "sample", "--family", "G2", "--connection", "bott",
                       "--structure", "codazzi", "--seed", "0")
    assert code == 0
    assert out == ("G2/bott/codazzi: 199 of 200 sampled points violate the system (seed 0)\n"
                   "  system holds at a = 0, b = 0, d = -3/4, g = -2/5\n")


def test_sample_exclude_and_counterexample_fields(capsys):
    code, payload, _ = run_json(
        capsys, "sample", "--family", "G2", "--connection", "bott",
        "--structure", "codazzi", "--exclude", "a=0,b=0",
        "--trials", "30", "--seed", "7", "--json")
    assert code == 0
    assert payload["satisfied"] == 0
    assert payload["counterexample"] is None


def test_sample_starvation_exit_three(capsys):
    # a^2+1 never vanishes, so the excluded family holds every point
    code, _, err = run(capsys, "sample", "--family", "G3", "--connection",
                       "bott", "--structure", "codazzi", "--exclude", "a^2+1!=0",
                       "--trials", "5")
    assert code == 3
    assert "leave too little room" in err


def test_sample_empty_exclude_is_usage_error(capsys):
    for text in ("", "  ", ","):
        code, out, err = run(capsys, "sample", "--family", "G3", "--connection",
                             "bott", "--structure", "codazzi", "--exclude", text,
                             "--trials", "5")
        assert code == 2, text
        assert "no condition" in err and out == ""


G4_MINUS = ("--family", "G4", "--eta", "-1")


@pytest.mark.parametrize("group, text, message", [
    (("--family", "G1"), "1!=0", "states no condition, so it would exclude every point"),
    (("--family", "G1"), "-3/7 != 0, ", "states no condition, so it would exclude every point"),
    (G4_MINUS, "h!=0", "states no condition, so it would exclude every point"),
    (("--family", "G1"), "0!=0", "can never hold, so it would exclude no point"),
    (("--family", "G1"), "a!=0,0!=0", "can never hold, so it would exclude no point"),
    (G4_MINUS, "b=0,h+1!=0", "can never hold, so it would exclude no point"),
    # 0 once the assignment is substituted: the family is empty
    (("--family", "G1"), "a=0,a!=0", "can never hold, so it would exclude no point"),
    (("--family", "G1"), "a=b/2, g!=0, 2a-b!=0", "can never hold, so it would exclude no point"),
])
def test_sample_constant_exclude_is_usage_error_before_derivation(
        capsys, monkeypatch, group, text, message):
    # a constant "!= 0" condition always holds or never does, so it
    # excludes every point or none; h is -1 on the eta = -1 branch of G4,
    # and the first --exclude is a family that does exclude points
    from liecodazzi import cli
    monkeypatch.setattr(cli, "build_system", lambda *args: pytest.fail("derived a system"))
    code, out, err = run(capsys, "sample", *group, "--connection", "bott",
                         "--structure", "codazzi", "--exclude", "a=0,b=0",
                         "--exclude", text, "--trials", "5")
    assert code == 2, text
    assert message in err and out == ""


def test_sample_rejects_nonpositive_trials(capsys):
    code, _, err = run(capsys, "sample", "--family", "G1", "--connection",
                       "bott", "--structure", "codazzi", "--trials", "0")
    assert code == 2 and "error" in err


SAMPLE_CASE = ("sample", "--family", "G1", "--connection", "bott", "--structure", "codazzi")


@pytest.mark.parametrize("command", [SAMPLE_CASE, ("audit",)], ids=["sample", "audit"])
def test_huge_trials_is_usage_error_before_any_work(capsys, command):
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--trials", "1000000000")
    assert code == 2 and out == ""
    assert f"from 1 to {MAX_TRIALS}" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("command", [SAMPLE_CASE, ("audit",)], ids=["sample", "audit"])
def test_trials_outside_bound_is_usage_error(capsys, command):
    for value in ("0", str(MAX_TRIALS + 1)):
        code, _, err = run(capsys, *command, "--trials", value)
        assert code == 2 and "argument --trials" in err, value


def test_sample_accepts_max_trials(capsys):
    code, payload, _ = run_json(capsys, *SAMPLE_CASE, "--trials", str(MAX_TRIALS), "--json")
    assert code == 0 and payload["trials"] == MAX_TRIALS


def test_sample_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("LIECODAZZI_SEED", "99")
    code, payload, _ = run_json(
        capsys, "sample", "--family", "G1", "--connection", "bott",
        "--structure", "codazzi", "--trials", "5", "--json")
    assert code == 0 and payload["seed"] == 99


def test_sample_bad_seed_env_is_usage_error(capsys, monkeypatch):
    # argparse converts the environment default with type=int
    monkeypatch.setenv("LIECODAZZI_SEED", "zzz")
    code, _, err = run(capsys, "sample", "--family", "G1", "--connection",
                       "bott", "--structure", "codazzi", "--trials", "5")
    assert code == 2
    assert "argument --seed: invalid int value: 'zzz'" in err


def test_underscored_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LIECODAZZI_SEED", "1_0")
    code, out, err = run(capsys, *SAMPLE_CASE, "--trials", "5")
    assert code == 2 and out == ""
    assert "argument --seed: invalid int value: '1_0'" in err


@pytest.mark.parametrize("command", [SAMPLE_CASE, ("audit",)], ids=["sample", "audit"])
def test_negative_seed_env_is_usage_error(capsys, monkeypatch, command):
    monkeypatch.setenv("LIECODAZZI_SEED", "-7")
    code, out, err = run(capsys, *command, "--trials", "5")
    assert code == 2 and out == ""
    assert "argument --seed: must be an integer >= 0" in err


# -- audit -------------------------------------------------------------------


def test_audit_finds_register_entries(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "audit", "--trials", "25", "--seed", "0", "--json",
                       "--out", str(out_file))
    payload = json.loads(out)
    assert code == 1
    assert payload["schema"] == "1"
    assert len(payload["verdicts"]) == 42
    assert len(payload["register"]["entries"]) == 56
    on_disk = json.loads(out_file.read_text(encoding="utf-8"))
    assert on_disk == payload
    assert out_file.read_text(encoding="utf-8") == out


def test_audit_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, "audit", "--trials", "1", "--seed", "0",
                       "--out", str(target))
    assert code == 2
    assert "cannot write" in err


def test_audit_json_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "audit", "--trials", "10", "--seed", "3", "--json")
    _, second, _ = run(capsys, "audit", "--trials", "10", "--seed", "3", "--json")
    assert first == second


def test_audit_human_output_lists_register(capsys):
    code, out, _ = run(capsys, "audit", "--trials", "1", "--seed", "0")
    assert code == 1
    assert "discrepancy register: 56 entries" in out
    assert "[verdict-conflict] (2.21)" in out


def _no_audit(monkeypatch):
    """Make the audit find nothing; the arguments it is called with."""
    calls = []
    monkeypatch.setattr(cli, "verify_paper_theorems",
                        lambda **kwargs: calls.append(kwargs) or ((), ()))
    monkeypatch.delenv("LIECODAZZI_SEED", raising=False)
    return calls


def test_audit_defaults_to_200_trials_per_case_and_seed_0(capsys, monkeypatch):
    calls = _no_audit(monkeypatch)
    code, payload, _ = run_json(capsys, "audit", "--json")
    assert calls == [{"trials_per_case": 200, "seed": 0}]
    assert (payload["trials_per_case"], payload["seed"]) == (200, 0)
    assert payload["register"] == {"schema": "1", "entries": []}
    assert code == 0


def test_audit_with_an_empty_register_exits_zero(capsys, monkeypatch):
    _no_audit(monkeypatch)
    code, out, _ = run(capsys, "audit")
    assert code == 0
    assert out == "\ndiscrepancy register: 0 entries\n"


# -- parser plumbing ---------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_help_exits_zero_and_documents_names(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "a = alpha" in out and "d = delta" in out


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


# -- bounded work on hostile input -------------------------------------------

CHECK_CASE = ("check", "--family", "G1", "--connection", "bott", "--structure", "codazzi")

HOSTILE = {
    "nested-parentheses": (
        (*CHECK_CASE, "--solution", "a=" + "(" * 300 + "b" + ")" * 300), 2, "nesting deeper"),
    "unary-signs": ((*CHECK_CASE, "--solution", "a=" + "-" * 1000 + "b"), 2, "nesting deeper"),
    "long-name": ((*CHECK_CASE, "--solution", "a=" + "x" * 5000), 2, "unknown name"),
    "long-number": ((*CHECK_CASE, "--solution", "a=" + "1" * 101), 2, "at most 100"),
    "high-degree": ((*CHECK_CASE, "--solution", "a=b^13"), 2, "degree above"),
    "too-many-trials": ((*SAMPLE_CASE, "--trials", "10001"), 2, "argument --trials"),
    "all-excluding": ((*SAMPLE_CASE, "--exclude", "a!=0", "--trials", "10000"), 3,
                      "leave too little room"),
    "constant-exclude": ((*SAMPLE_CASE, "--exclude", "1!=0"), 2, "states no condition"),
    "sign-exclude": (("sample", "--family", "G4", "--eta", "1", "--connection", "bott",
                      "--structure", "codazzi", "--exclude", "h!=0"), 2, "states no condition"),
    "never-holding-exclude": ((*SAMPLE_CASE, "--exclude", "0!=0"), 2, "can never hold"),
    # random.seed reads -7 as 7, so a negative seed would alias a positive one
    "negative-sample-seed": ((*SAMPLE_CASE, "--seed", "-7", "--json"), 2,
                             "argument --seed: must be an integer >= 0"),
    "negative-audit-seed": (("audit", "--seed", "-7", "--json"), 2,
                            "argument --seed: must be an integer >= 0"),
    # int() reads both as numbers; an integer option takes ASCII digits only
    "underscored-trials": ((*SAMPLE_CASE, "--trials", "1_0"), 2,
                           "argument --trials: invalid int value: '1_0'"),
    "arabic-indic-seed": (("audit", "--seed", "\u0661", "--json"), 2,
                          "argument --seed: invalid int value: '\u0661'"),
}


@pytest.mark.parametrize("argv, code, message", HOSTILE.values(), ids=HOSTILE)
def test_hostile_input_fails_fast_without_traceback(argv, code, message):
    proc = run_cli(*argv, timeout=5)
    err = proc.stderr.decode("utf-8")
    assert proc.returncode == code, err
    assert message in err and "Traceback" not in err
    assert proc.stdout == b""
    # an error quotes at most 60 characters of the input
    assert max(map(len, err.splitlines())) <= 200
