import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom import cli, leibcore
from leibhom.exactla import Matrix
from leibhom.freealg import FreeLeibnizTruncation, WeightOverflow
from leibhom.homology import ChainComplex, DifferentialSquareNonzero


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


A2_DOC = {
    "name": "A2",
    "convention": "left",
    "basis": ["x", "y"],
    "brackets": [{"left": "x", "right": "x", "value": {"y": "1"}}],
}

R2_DOC = {
    "name": "r2",
    "convention": "left",
    "basis": ["x", "y"],
    "brackets": [
        {"left": "x", "right": "y", "value": {"y": "1"}},
        {"left": "y", "right": "x", "value": {"y": "-1"}},
    ],
}

# same algebra written in the right convention: table transposed
R2_RIGHT_DOC = {
    "name": "r2-right",
    "convention": "right",
    "basis": ["x", "y"],
    "brackets": [
        {"left": "y", "right": "x", "value": {"y": "1"}},
        {"left": "x", "right": "y", "value": {"y": "-1"}},
    ],
}

# adjoint module of r2, written against the left-convention file
R2_ADJ_DOC = {
    "basis": ["u", "v"],
    "left_action": [
        {"left": "x", "right": "v", "value": {"v": "1"}},
        {"left": "y", "right": "u", "value": {"v": "-1"}},
    ],
    "right_action": [
        {"left": "v", "right": "x", "value": {"v": "-1"}},
        {"left": "u", "right": "y", "value": {"v": "1"}},
    ],
}

# the same module written in the right convention: action tables trade places
R2_ADJ_RIGHT_DOC = {
    "basis": ["u", "v"],
    "left_action": [
        {"left": "x", "right": "v", "value": {"v": "-1"}},
        {"left": "y", "right": "u", "value": {"v": "1"}},
    ],
    "right_action": [
        {"left": "v", "right": "x", "value": {"v": "1"}},
        {"left": "u", "right": "y", "value": {"v": "-1"}},
    ],
}

R2_CHAR_DOC = {
    "basis": ["m"],
    "action": [{"left": "x~", "right": "m", "value": {"m": "1"}}],
}


@pytest.fixture
def a2_path(tmp_path):
    return write_json(tmp_path / "a2.json", A2_DOC)


@pytest.fixture
def r2_path(tmp_path):
    return write_json(tmp_path / "r2.json", R2_DOC)


def test_check_reports_dimensions(a2_path, capsys):
    assert cli.entrypoint(["check", a2_path]) == 0
    out = capsys.readouterr().out
    assert "valid left Leibniz algebra, dim 2, g_ann 1, g_Lie 1" in out


def test_check_rejects_axiom_violation(tmp_path, capsys):
    doc = dict(A2_DOC, brackets=[
        {"left": "x", "right": "x", "value": {"x": "1"}}])
    path = write_json(tmp_path / "bad.json", doc)
    assert cli.entrypoint(["check", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_axiom_error_lists_eight_failures_then_a_count(tmp_path, capsys):
    doc = {"convention": "left", "basis": ["a", "b", "c"],
           "brackets": [{"left": x, "right": y, "value": {x: "1", "c": "1"}}
                        for x in "abc" for y in "abc"]}
    path = write_json(tmp_path / "bad.json", doc)
    assert cli.entrypoint(["check", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: left Leibniz identity fails at (a, a, a), (a, a, b), "
        "(a, a, c), (a, b, a), (a, b, b), (a, b, c), (a, c, a), (a, c, b) "
        "and 19 more\n")


def test_unknown_name_rejected(tmp_path, capsys):
    doc = dict(A2_DOC, brackets=[
        {"left": "x", "right": "z", "value": {"y": "1"}}])
    path = write_json(tmp_path / "bad.json", doc)
    assert cli.entrypoint(["check", path]) == 2
    assert "unknown name" in capsys.readouterr().err


def test_duplicate_basis_rejected(tmp_path, capsys):
    doc = dict(A2_DOC, basis=["x", "x"])
    path = write_json(tmp_path / "bad.json", doc)
    assert cli.entrypoint(["check", path]) == 2
    assert "duplicate basis name" in capsys.readouterr().err


def test_float_scalar_rejected(tmp_path, capsys):
    doc = dict(A2_DOC, brackets=[
        {"left": "x", "right": "x", "value": {"y": 1.0}}])
    path = write_json(tmp_path / "bad.json", doc)
    assert cli.entrypoint(["check", path]) == 2
    assert "rationals must be strings" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    assert cli.entrypoint(["check", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_no_command_prints_help(capsys):
    assert cli.entrypoint([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint(["--version"])
    assert exc.value.code == 0
    assert "leibhom 0.1.0 (format 1)" in capsys.readouterr().out


def test_right_convention_converts_with_notice(tmp_path, capsys):
    path = write_json(tmp_path / "r2r.json", R2_RIGHT_DOC)
    assert cli.entrypoint(["check", path]) == 0
    out = capsys.readouterr().out
    assert "note: right-convention input converted" in out
    assert "dim 2, g_ann 0, g_Lie 2" in out


def test_quotient_names_and_brackets(r2_path, capsys):
    assert cli.entrypoint(["quotient", r2_path]) == 0
    out = capsys.readouterr().out
    assert "x~" in out and "y~" in out
    assert "[x~, y~] = y~" in out


def test_homology_json_report(a2_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.entrypoint(["homology", a2_path, "--json", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["command"] == "homology"
    assert report["tool"] == {"name": "leibhom", "version": "0.1.0", "format": 1}
    assert report["parameters"]["max_degree"] == 3
    assert report["tables"]["betti"] == {"0": 1, "1": 1, "2": 1, "3": 1}
    assert len(report["inputs"]["algebra"]["sha256"]) == 64
    assert report["inputs"]["algebra"]["sha256"] == _file_sha256(a2_path)
    # human table mirrors the report
    out = capsys.readouterr().out
    assert "degree 0: 1" in out
    # A2's Lie quotient is spanned by x~, so the character file is a module over it
    mod = write_json(tmp_path / "char.json", R2_CHAR_DOC)
    assert cli.entrypoint(["homology", a2_path, "--coefficients", f"lie:{mod}",
                           "--json", str(out_path), "--quiet"]) == 0
    inputs = json.loads(out_path.read_text())["inputs"]
    assert inputs["algebra"]["sha256"] == _file_sha256(a2_path)
    assert inputs["module"] == {"path": mod, "sha256": _file_sha256(mod)}


def _file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("data, message", [
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"\xef\xbb\xbf" + json.dumps(A2_DOC).encode(),
     "{path} is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    (b'{"basis": [', "{path} is not valid JSON: Expecting value: line 1 column 12 (char 11)"),
    (b"[]", "{path}: top level must be a JSON object"),
], ids=["not utf-8", "bom", "invalid json", "not an object"])
@pytest.mark.parametrize("role", ["algebra", "module"])
def test_undecodable_input_file_exits_two(r2_path, tmp_path, capsys, data, message, role):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    argv = (["check", str(path)] if role == "algebra" else
            ["homology", r2_path, "--coefficients", f"lie:{path}"])
    assert cli.entrypoint(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_integer_too_long_to_convert_exits_two(tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer of more digits
    # than int() converts, anywhere in the file
    path = tmp_path / "g.json"
    path.write_text(json.dumps(A2_DOC)[:-1] + ', "name": ' + "1" * 5000 + "}")
    assert cli.entrypoint(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: Exceeds the limit (4300 digits) for integer string conversion: value has "
        "5000 digits; use sys.set_int_max_str_digits() to increase the limit\n")


@pytest.mark.parametrize("command", ["homology", "compare"])
def test_lie_job_reads_each_file_once_and_builds_the_quotient_once(
        r2_path, tmp_path, monkeypatch, command):
    mod = write_json(tmp_path / "char.json", R2_CHAR_DOC)
    real_quotient, quotients = leibcore.lie_quotient, []
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("leibhom")
                and getattr(module, "lie_quotient", None) is real_quotient):
            monkeypatch.setattr(module, "lie_quotient",
                                lambda g: quotients.append(g) or real_quotient(g))
    reads = []

    def recording_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            reads.append(file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert cli.entrypoint([command, r2_path, "--coefficients", f"lie:{mod}",
                           "--max-degree", "2", "--quiet"]) == 0
    assert len(quotients) == 1
    assert sorted(reads) == sorted([r2_path, mod])


def test_json_report_is_deterministic(a2_path, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli.entrypoint(["homology", a2_path, "--json", str(p1), "--quiet"])
    cli.entrypoint(["homology", a2_path, "--json", str(p2), "--quiet"])
    d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    d1.pop("timing"), d2.pop("timing")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_stdout_is_deterministic(r2_path, capsys):
    cli.entrypoint(["quotient", r2_path])
    first = capsys.readouterr().out
    cli.entrypoint(["quotient", r2_path])
    assert capsys.readouterr().out == first


def test_algebra_echo_round_trips(r2_path, tmp_path):
    report_path = tmp_path / "r.json"
    cli.entrypoint(["check", r2_path, "--json", str(report_path), "--quiet"])
    echo = json.loads(report_path.read_text())["algebra_echo"]
    second = write_json(tmp_path / "echo.json", echo)
    report2_path = tmp_path / "r2.json"
    assert cli.entrypoint(["check", second, "--json", str(report2_path),
                           "--quiet"]) == 0
    echo2 = json.loads(report2_path.read_text())["algebra_echo"]
    assert echo2 == echo


def test_quiet_suppresses_stdout(a2_path, capsys):
    assert cli.entrypoint(["homology", a2_path, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_threads_flag_rejected(a2_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint(["homology", a2_path, "--threads", "4", "--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err


def test_cohomology_betti(a2_path, tmp_path):
    out_path = tmp_path / "r.json"
    assert cli.entrypoint(["cohomology", a2_path, "--json", str(out_path),
                           "--quiet"]) == 0
    report = json.loads(out_path.read_text())
    assert report["tables"]["betti"] == {"0": 1, "1": 1, "2": 1, "3": 1}


def test_ce_commands(a2_path, tmp_path):
    out_path = tmp_path / "r.json"
    assert cli.entrypoint(["ce-homology", a2_path, "--json", str(out_path),
                           "--quiet"]) == 0
    report = json.loads(out_path.read_text())
    assert report["tables"]["betti"] == {"0": 1, "1": 1, "2": 0, "3": 0}
    assert cli.entrypoint(["ce-cohomology", a2_path, "--json", str(out_path),
                           "--quiet"]) == 0
    report = json.loads(out_path.read_text())
    assert report["tables"]["betti"] == {"0": 1, "1": 1, "2": 0, "3": 0}


def test_negative_max_degree_rejected(a2_path, capsys):
    assert cli.entrypoint(["homology", a2_path, "--max-degree", "-1"]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_bad_coefficients_selector(a2_path, capsys):
    assert cli.entrypoint(["homology", a2_path, "--coefficients",
                           "banana"]) == 2
    assert "--coefficients" in capsys.readouterr().err


def test_lie_coefficients(r2_path, tmp_path):
    mod = write_json(tmp_path / "char.json", R2_CHAR_DOC)
    out_path = tmp_path / "r.json"
    code = cli.entrypoint(["homology", r2_path, "--coefficients",
                           f"lie:{mod}", "--json", str(out_path), "--quiet"])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["inputs"]["module"]["path"] == mod
    # nontrivial character makes the complex exact
    assert report["tables"]["betti"] == {"0": 0, "1": 0, "2": 0, "3": 0}


def test_lie_coefficients_reject_wrong_names(r2_path, tmp_path, capsys):
    doc = {"basis": ["m"],
           "action": [{"left": "x", "right": "m", "value": {"m": "1"}}]}
    mod = write_json(tmp_path / "char.json", doc)
    assert cli.entrypoint(["homology", r2_path, "--coefficients",
                           f"lie:{mod}"]) == 2
    assert "unknown name 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("kind, doc, missing", [
    ("rep", R2_CHAR_DOC, 'neither "left_action" nor "right_action"'),
    ("lie", R2_ADJ_DOC, 'no "action"'),
], ids=["lie-file-as-rep", "rep-file-as-lie"])
def test_module_file_without_its_action_table_rejected(r2_path, tmp_path, capsys,
                                                        kind, doc, missing):
    # a missing table once read as an empty one: the zero module
    mod = write_json(tmp_path / "mod.json", doc)
    assert cli.entrypoint(["homology", r2_path, "--coefficients", f"{kind}:{mod}"]) == 2
    assert capsys.readouterr().err == f"error: {mod}: module file has {missing}\n"


@pytest.mark.parametrize("doc, message", [
    ({"convention": "left", "basis": ["x"],
      "bracket": [{"left": "x", "right": "x", "value": {"x": "1"}}]},
     'algebra file has no "brackets"'),
    (dict(A2_DOC, comment="the smallest non-Lie algebra"),
     'unknown key "comment"; an algebra file has only "name", "convention", "basis", "brackets"'),
], ids=["misspelt brackets", "unknown key"])
def test_algebra_file_keys_checked(tmp_path, capsys, doc, message):
    # a misspelt "bracket" once read as the abelian algebra, with exit 0
    path = write_json(tmp_path / "g.json", doc)
    assert cli.entrypoint(["check", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_algebra_file_with_empty_brackets_is_abelian(tmp_path, capsys):
    path = write_json(tmp_path / "g.json", dict(A2_DOC, brackets=[]))
    assert cli.entrypoint(["check", path]) == 0
    assert "dim 2, g_ann 0, g_Lie 2" in capsys.readouterr().out


@pytest.mark.parametrize("kind, doc, message", [
    ("rep", dict(R2_ADJ_DOC, rigth_action=[]),
     'unknown key "rigth_action"; a two-sided module file has only "basis", '
     '"left_action", "right_action"'),
    ("lie", dict(R2_CHAR_DOC, actions=[]),
     'unknown key "actions"; a Lie-module file has only "basis", "action"'),
], ids=["rep", "lie"])
def test_module_file_keys_checked(r2_path, tmp_path, capsys, kind, doc, message):
    mod = write_json(tmp_path / "mod.json", doc)
    assert cli.entrypoint(["homology", r2_path, "--coefficients", f"{kind}:{mod}"]) == 2
    assert capsys.readouterr().err == f"error: {mod}: {message}\n"


@pytest.mark.parametrize("kind, doc", [
    ("rep", {"basis": ["m"], "left_action": [], "right_action": []}),
    ("lie", {"basis": ["m"], "action": []}),
])
def test_empty_action_tables_give_the_zero_module(r2_path, tmp_path, kind, doc):
    mod = write_json(tmp_path / "mod.json", doc)
    assert cli.entrypoint(["homology", r2_path, "--coefficients", f"{kind}:{mod}",
                           "--quiet"]) == 0


def test_rep_coefficients(r2_path, tmp_path):
    mod = write_json(tmp_path / "adj.json", R2_ADJ_DOC)
    out_path = tmp_path / "r.json"
    code = cli.entrypoint(["homology", r2_path, "--coefficients",
                           f"rep:{mod}", "--json", str(out_path), "--quiet"])
    assert code == 0


def test_rep_file_follows_algebra_convention(tmp_path):
    """A right-convention algebra file carries right-convention module
    files; both spellings of the same pair must agree."""
    left_alg = write_json(tmp_path / "l.json", R2_DOC)
    left_mod = write_json(tmp_path / "lm.json", R2_ADJ_DOC)
    right_alg = write_json(tmp_path / "r.json", R2_RIGHT_DOC)
    right_mod = write_json(tmp_path / "rm.json", R2_ADJ_RIGHT_DOC)
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert cli.entrypoint(["homology", left_alg, "--coefficients",
                           f"rep:{left_mod}", "--json", str(out1),
                           "--quiet"]) == 0
    assert cli.entrypoint(["homology", right_alg, "--coefficients",
                           f"rep:{right_mod}", "--json", str(out2),
                           "--quiet"]) == 0
    b1 = json.loads(out1.read_text())["tables"]["betti"]
    b2 = json.loads(out2.read_text())["tables"]["betti"]
    assert b1 == b2


@pytest.mark.parametrize("command", ["compare", "ce-homology", "ce-cohomology"])
@pytest.mark.parametrize("doc, message", [
    (R2_ADJ_DOC, "enveloping-algebra complexes take trivial or Lie-module coefficients"),
    (R2_CHAR_DOC, '{mod}: module file has neither "left_action" nor "right_action"'),
], ids=["two-sided module", "malformed module file"])
def test_envelope_commands_reject_rep_coefficients(r2_path, tmp_path, capsys, command,
                                                   doc, message):
    mod = write_json(tmp_path / "mod.json", doc)
    assert cli.entrypoint([command, r2_path, "--coefficients", f"rep:{mod}"]) == 2
    assert capsys.readouterr().err == f"error: {message.format(mod=mod)}\n"


def test_compare_command(a2_path, tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code = cli.entrypoint(["compare", a2_path, "--max-degree", "2",
                           "--json", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["verdicts"]["chain_map"] is True
    assert report["verdicts"]["h0_iso"] is True
    assert report["verdicts"]["h1_iso"] is True
    out = capsys.readouterr().out
    assert "h0_iso: pass" in out


def test_fg_command(tmp_path):
    path = write_json(tmp_path / "ab2.json", {
        "name": "abelian2", "convention": "left",
        "basis": ["x", "y"], "brackets": []})
    out_path = tmp_path / "r.json"
    assert cli.entrypoint(["fg", path, "--json", str(out_path),
                           "--quiet"]) == 0
    report = json.loads(out_path.read_text())
    assert report["tables"]["dims"] == {"0": 1, "1": 2, "2": 3, "3": 2}
    assert report["tables"]["betti"] == {"0": 1, "1": 2, "2": 3, "3": 2}


def test_free_conjecture_end_to_end(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code = cli.entrypoint(["free-conjecture", "--generators", "2",
                           "--max-weight", "3", "--json", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    report = json.loads(out_path.read_text())
    assert report["verdicts"]["verdict"] == "PASS"
    rows = report["tables"]["weights"]
    assert [r["h1"] for r in rows] == [2, 1, 2]
    assert all(r["ok"] for r in rows)


def test_free_conjecture_requires_generators(capsys):
    assert cli.entrypoint(["free-conjecture"]) == 2
    assert "requires --generators" in capsys.readouterr().err


def test_free_conjecture_budget_cap(capsys):
    assert cli.entrypoint(["free-conjecture", "--generators", "2",
                           "--max-weight", "9"]) == 2
    assert "exceeds the configured budget" in capsys.readouterr().err


def test_invariant_violation_maps_to_exit_one(a2_path, capsys, monkeypatch):
    def boom(args, report):
        raise DifferentialSquareNonzero("forced")
    monkeypatch.setitem(cli.HANDLERS, "check", boom)
    assert cli.entrypoint(["check", a2_path]) == 1
    err = capsys.readouterr().err
    assert "invariant violation (DifferentialSquareNonzero)" in err


def test_mis_shaped_complex_maps_to_exit_one(a2_path, capsys, monkeypatch):
    # a builder that hands back a differential of the wrong shape is an
    # internal fault, not bad input
    def misshaped(g, coefficients, n_max):
        return ChainComplex(0, (1, 2), (Matrix.zeros(2, 1),))
    monkeypatch.setattr(cli, "loday_complex", misshaped)
    assert cli.entrypoint(["homology", a2_path, "--max-degree", "1"]) == 1
    assert "invariant violation (ShapeMismatch)" in capsys.readouterr().err


def test_broken_free_bracket_maps_to_exit_one(capsys, monkeypatch):
    # a free bracket that drops every term of the unfolding breaks the
    # right identity, which the truncation checks before any weight runs
    real = FreeLeibnizTruncation.bracket_words

    def broken(self, a, b):
        return real(self, a, b) if len(b) == 1 else {}

    monkeypatch.setattr(FreeLeibnizTruncation, "bracket_words", broken)
    assert cli.entrypoint(["free-conjecture", "--generators", "2", "--max-weight", "3"]) == 1
    assert "invariant violation (RightIdentityError)" in capsys.readouterr().err


def test_value_error_inside_a_command_propagates(a2_path, monkeypatch):
    # only the input errors exit 2; any other ValueError is a fault in the
    # tool and ends in a traceback
    def broken(g, coefficients, n_max):
        raise ValueError("forced")
    monkeypatch.setattr(cli, "loday_complex", broken)
    with pytest.raises(ValueError, match="forced"):
        cli.entrypoint(["homology", a2_path])


def test_weight_overflow_inside_conjecture_check_maps_to_exit_one(capsys, monkeypatch):
    # the CLI validates the weight before building, so an overflow is internal
    def overflow(self, a, b):
        raise WeightOverflow("forced")
    monkeypatch.setattr(FreeLeibnizTruncation, "bracket_words", overflow)
    assert cli.entrypoint(["free-conjecture", "--generators", "2", "--max-weight", "3"]) == 1
    assert capsys.readouterr().err == "invariant violation (WeightOverflow): forced\n"


HEIS3_DOC = {
    "name": "heis3",
    "convention": "left",
    "basis": ["p", "q", "z"],
    "brackets": [
        {"left": "p", "right": "q", "value": {"z": "1"}},
        {"left": "q", "right": "p", "value": {"z": "-1"}},
    ],
}


def test_heis3_homology_to_degree_six(tmp_path):
    # the table of the dense-rank implementation, which took about 33 s
    path = write_json(tmp_path / "heis3.json", HEIS3_DOC)
    out_path = tmp_path / "report.json"
    code = cli.entrypoint(["homology", path, "--max-degree", "6", "--quiet",
                           "--json", str(out_path)])
    assert code == 0
    tables = json.loads(out_path.read_text())["tables"]
    assert tables["betti"] == {"0": 1, "1": 2, "2": 5, "3": 10, "4": 22, "5": 47, "6": 101}
    assert tables["dims"] == {str(n): 3 ** n for n in range(7)}


# Help, version and argument errors, pinned byte for byte: stdout, stderr
# and exit code of each argument vector, as captured in cli_pins.json.
# No input file is read, so the paths need not exist.  To re-pin after a
# deliberate change, write {name: _capture(argv)} for every entry of
# PINNED_ARGV to that file (with COLUMNS=80).
PINNED_ARGV = {
    "help": ["--help"],
    "version": ["--version"],
    **{f"{cmd} --help": [cmd, "--help"] for cmd in cli.COMMANDS},
    "no command": [],
    "-h homology": ["-h", "homology"],
    "unknown command": ["frobnicate", "g.json"],
    "unknown option": ["check", "g.json", "--bogus"],
    "missing algebra": ["homology"],
    "non-integer max-degree": ["homology", "g.json", "--max-degree", "x"],
}
PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.entrypoint(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}


@pytest.mark.parametrize("name", list(PINNED_ARGV))
def test_help_and_argument_errors_are_pinned(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _capture(PINNED_ARGV[name]) == PINS[name]


# The plain parser against argparse.  An argv is a command name or any
# other token, then in any order: some of the command's flags, each with a
# value of its type or not, zero to two positionals, and up to one more
# token of any kind.  The tokens are every flag, the nine command names and
# the spellings argparse reads differently from a plain argv:
# abbreviations, --x=y, help, --version, "--", values and paths that start
# with "-", and values int() reads or rejects.
KINDS = {option[0]: option[2] for _, _, options in cli.COMMANDS.values() for option in options}
VALUES = {int: ["2", " 3", "3_0", "-1", "x", ""],
          str: ["g.json", "", "lie:m.json", "trivial", "-", "-g.json", "--g.json", "check"]}
ARGV_ALPHABET = [*cli.COMMANDS, *KINDS, *VALUES[int], *VALUES[str], "--max", "--q",
                 "--json=r.json", "--max-degree=2", "-h", "--help", "--version", "--"]


@st.composite
def argvs(draw):
    first = draw(st.one_of(st.sampled_from(list(cli.COMMANDS)), st.sampled_from(ARGV_ALPHABET)))
    flags = [option[0] for option in cli.COMMANDS[first][2]] if first in cli.COMMANDS else KINDS
    pieces = [(flag,) if KINDS[flag] is bool else (flag, draw(st.sampled_from(VALUES[KINDS[flag]])))
              for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4))]
    pieces += [(draw(st.sampled_from(VALUES[str])),)
               for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2])))]
    pieces += draw(st.lists(st.tuples(st.sampled_from(ARGV_ALPHABET)), max_size=1))
    return [first, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


def _argparse_vars(argv):
    """vars() of the full argparse parser's namespace for argv, or None
    when argparse exits (help, --version, or an argument error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _assert_plain_agrees(argv):
    plain = cli._plain_args(argv)
    expected = _argparse_vars(argv)
    if expected is None:
        assert plain is None
    elif plain is not None:
        assert vars(plain) == expected


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_plain_parser_agrees_with_argparse(argv):
    _assert_plain_agrees(argv)


@pytest.mark.parametrize("argv", [
    ["homology", "g.json"],
    ["free-conjecture", "--max-weight", "3_0", "--generators", " 2", "--json", ""],
    ["compare", "--quiet", "--coefficients", "lie:m.json", "g.json", "--max-degree", "4"],
    ["check", "--json", "check", "x"],
])
def test_plain_argv_is_parsed_without_argparse(argv):
    assert cli._plain_args(argv) is not None
    _assert_plain_agrees(argv)


@pytest.mark.parametrize("argv", [
    [], ["--version"], ["-h", "check"], ["check", "-h"], ["check", "g.json", "--help"],
    ["check", "g.json", "--json=r.json"], ["homology", "g.json", "--max", "2"],
    ["homology", "g.json", "--quiet", "--quiet"], ["check", "g.json", "--json", "a", "--json", "b"],
    ["homology", "g.json", "--max-degree", "-1"], ["homology", "g.json", "--max-degree", "x"],
    ["check", "--", "g.json"], ["check", "-g.json"], ["check"], ["check", "g.json", "h.json"],
    ["check", "g.json", "--json"], ["free-conjecture", "g.json"], ["frobnicate", "g.json"],
    ["check", "g.json", "--max-degree", "2"],
])
def test_other_argv_goes_to_argparse(argv):
    assert cli._plain_args(argv) is None
    _assert_plain_agrees(argv)


def _run_entrypoint(argv, tmp_path):
    """Run entrypoint(argv) in a fresh interpreter; its last stdout line
    lists which of argparse, gettext and locale it imported."""
    code = ("import sys\nfrom leibhom.cli import entrypoint\n"
            "code = entrypoint(sys.argv[1:])\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
            "sys.exit(code)\n")
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)


def test_plain_job_never_imports_argparse(a2_path, tmp_path):
    done = _run_entrypoint(["homology", a2_path, "--max-degree", "3", "--quiet",
                            "--json", str(tmp_path / "r.json")], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
    assert json.loads((tmp_path / "r.json").read_text())["tables"]["betti"] == {
        "0": 1, "1": 1, "2": 1, "3": 1}
    done = _run_entrypoint(["--help"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, PINS["help"]["out"], "")
