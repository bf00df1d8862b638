import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibhom import cli, leibcore
from leibhom.exactla import Matrix, parse_scalar
from leibhom.freealg import FreeLeibnizTruncation, WeightOverflow
from leibhom.homology import ChainComplex, DifferentialSquareNonzero

from conftest import CORPUS, conjugate


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


@pytest.mark.parametrize("literal", ["\u0661/\u0662", "\u0663", "1/\u0662", "\uff11"])
def test_non_ascii_digits_are_not_rational_literals(literal, tmp_path, capsys):
    # ARABIC-INDIC ONE/TWO/THREE and FULLWIDTH ONE are decimal digits to
    # int(), not to the literal grammar
    doc = dict(A2_DOC, brackets=[
        {"left": "x", "right": "x", "value": {"y": literal}}])
    path = write_json(tmp_path / "bad.json", doc)
    assert cli.entrypoint(["check", path]) == 2
    assert f"not a rational literal: {literal!r}" in capsys.readouterr().err


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


@pytest.mark.parametrize("role", ["algebra", "module"])
def test_deeply_nested_input_file_exits_two(r2_path, tmp_path, capsys, role):
    # json.loads raises RecursionError, which is not a ValueError, for
    # nesting deeper than the interpreter's recursion limit
    path = tmp_path / "deep.json"
    doc = R2_DOC if role == "algebra" else R2_CHAR_DOC
    path.write_text(json.dumps(dict(doc, basis="DEEP")).replace(
        '"DEEP"', "[" * 100000 + "]" * 100000))
    argv = (["check", str(path)] if role == "algebra" else
            ["homology", r2_path, "--coefficients", f"lie:{path}"])
    assert cli.entrypoint(argv) == 2
    assert capsys.readouterr().err == f"error: {path} is nested too deeply to parse\n"


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


def test_every_digest_report_is_written_as_json_dumps(tmp_path, monkeypatch):
    # the reports of the whole job matrix of scripts/cli_digest.py, byte
    # for byte, including the timing value; the 24 rep: jobs of the
    # enveloping-algebra commands exit 2 and write none
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import cli_digest

    monkeypatch.chdir(tmp_path)
    jobs = {tuple(argv): cli_digest.run_job(argv)[1] for argv in
            cli_digest.jobs(cli_digest.write_documents(cli_digest.ALGEBRAS, str(tmp_path)))}
    reports = {argv: text for argv, text in jobs.items() if text is not None}
    assert (len(jobs), len(reports)) == (147, 123)
    for argv, text in reports.items():
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", argv


# a basis name with a quote and non-ASCII characters, written back as
# \uXXXX escapes and surrogate pairs in the echo and the quotient tables
QUOTED_DOC = {"convention": "left", "basis": ["\"x\"", "é\u2028", "\U0001d53c"],
              "brackets": [{"left": "\"x\"", "right": "é\u2028", "value": {"\U0001d53c": "-7/3"}},
                           {"left": "é\u2028", "right": "\"x\"", "value": {"\U0001d53c": "7/3"}}]}


def test_quoted_and_non_ascii_names_are_written_as_json_dumps(tmp_path):
    path, out = write_json(tmp_path / "q.json", QUOTED_DOC), tmp_path / "out.json"
    assert cli.entrypoint(["quotient", path, "--json", str(out), "--quiet"]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.isascii() and "\\u00e9\\u2028" in text and '\\"x\\"' in text
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    {"basis": ["\"x\"", "é", "\u2028", "\U0001d53c", "\ud800", "\\"], "é\"": "\x00\n"},
    {"empty": [], "none": {}, "pair": ((), [{}]), "nested": [[[]]]},
    {"ints": [0, -1, -10 ** 45, 10 ** 45 + 1], "flags": [True, False, None]},
    {"timing": {"seconds": 0.001234}, "tiny": 1e-06, "whole": 2.0, "neg": -0.5},
    [], {}, "", 7,
], ids=["strings", "empty", "ints", "floats", "empty list", "empty dict", "str", "int"])
def test_report_writer_is_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    {"x": {1, 2}}, [Fraction(1, 2)], {"x": b"y"}, {1: "y"}, object()],
    ids=["set", "fraction", "bytes", "int key", "object"])
def test_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


@pytest.mark.parametrize("literal", ["1/2", "-3/4", "6/4", "+2", "007", "0", "-0"])
def test_table_reads_literals_as_parse_scalar(literal):
    index = {"x": 0, "y": 1}
    entries = [{"left": "x", "right": "y", "value": {"x": literal, "y": "1/3"}},
               {"left": "y", "right": "x", "value": {"x": "5/6"}}]
    cells = {(0, 1): parse_scalar(literal), (1, 1): parse_scalar("1/3"),
             (0, 2): parse_scalar("5/6")}
    assert cli._table(entries, index, index, index, "t") == Matrix.from_entries(2, 4, cells)


def test_table_names_a_zero_denominator_and_an_overlong_literal():
    index = {"x": 0}
    with pytest.raises(ValueError) as limit:
        int("1" * 5000)
    for literal, message in (("1/0", "zero denominator in rational literal: '1/0'"),
                             ("1" * 5000, str(limit.value))):
        entries = [{"left": "x", "right": "x", "value": {"x": literal}}]
        with pytest.raises(cli.ParseError) as exc:
            cli._table(entries, index, index, index, "t")
        assert str(exc.value) == f"t: {message}"


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


# Malformed documents: each is a valid r2 document of one kind (algebra,
# rep: or lie: file) with one defect drawn from the families below, and
# each must exit 2 with an "error:" line, never a traceback.
DOCS = {"algebra": R2_DOC, "rep": R2_ADJ_DOC, "lie": R2_CHAR_DOC}
TABLES = {"algebra": ["brackets"], "rep": ["left_action", "right_action"], "lie": ["action"]}
NAMES = {"x", "y", "x~", "y~", "u", "v", "m"}  # every name the r2 documents use
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5)
UNKNOWN_NAMES = st.text(max_size=3).filter(lambda s: s not in NAMES)


def _is_basis(v):
    return (isinstance(v, list) and bool(v) and all(isinstance(s, str) for s in v)
            and len(set(v)) == len(v))


# a value of the wrong JSON type for each top-level key
WRONG_TOP = {
    "name": JSON_VALUES.filter(lambda v: not isinstance(v, str)),
    "convention": JSON_VALUES.filter(lambda v: v not in ("left", "right")),
    "basis": JSON_VALUES.filter(lambda v: not _is_basis(v)),
    **{table: JSON_VALUES.filter(lambda v: not isinstance(v, list))
       for tables in TABLES.values() for table in tables},
}
MALFORMED_RATIONALS = st.one_of(
    JSON_VALUES.filter(lambda v: not isinstance(v, str)),
    st.text(max_size=6).filter(lambda s: not re.fullmatch(r"[+-]?\d+(/\d+)?", s.strip())),
    st.sampled_from(["1.5", "1e3", "0x10", "1/2/3", "/2", "1/", "1/-2", "nan", "1_000"]),
    st.integers().map(lambda p: f"{p}/0"),
    st.just("1" * 5000))


@st.composite
def malformed_documents(draw):
    """(kind, document text)."""
    kind = draw(st.sampled_from(list(DOCS)))
    doc = copy.deepcopy(DOCS[kind])
    table = draw(st.sampled_from(TABLES[kind]))
    entry = draw(st.sampled_from(doc[table]))
    family = draw(st.sampled_from(["top-level type", "entry", "field", "rational",
                                   "unknown name", "duplicate", "empty", "nested",
                                   "repeated key", "unencodable name"]))
    if family == "top-level type":
        key = draw(st.sampled_from(list(doc)))
        doc[key] = draw(WRONG_TOP[key])
    elif family == "entry":
        doc[table][doc[table].index(entry)] = draw(JSON_VALUES.filter(
            lambda v: not isinstance(v, dict)))
    elif family == "field":
        field = draw(st.sampled_from(["left", "right", "value"]))
        if draw(st.booleans()):
            del entry[field]
        elif field == "value":
            entry[field] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
        else:
            entry[field] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, str))
                                | UNKNOWN_NAMES)
    elif family == "rational":
        entry["value"][draw(st.sampled_from(sorted(entry["value"])))] = draw(MALFORMED_RATIONALS)
    elif family == "unknown name":
        entry["value"][draw(UNKNOWN_NAMES)] = "1"
    elif family == "duplicate":
        repeated = draw(st.sampled_from(["basis name", "entry", "zero entry"]))
        if repeated == "basis name":
            doc["basis"].append(draw(st.sampled_from(doc["basis"])))
        else:
            if repeated == "zero entry":
                # a repeat must be found by its pair, not by a value it stored
                entry["value"] = {}
            doc[table].append(copy.deepcopy(entry))
    elif family == "empty":
        empty = draw(st.sampled_from(["document", "basis", "tables"]))
        if empty == "document":
            doc = {}
        elif empty == "basis":
            doc["basis"] = []
        else:
            for t in TABLES[kind]:
                del doc[t]
    elif family == "repeated key":
        # json.dumps writes no repeated key, so the pair is spliced into the text
        if draw(st.booleans()):
            key = draw(st.sampled_from(list(doc)))
            text = json.dumps(doc)
            return kind, "{" + f"{json.dumps(key)}: {json.dumps(doc[key])}, " + text[1:]
        name = draw(st.sampled_from(sorted(entry["value"])))
        value = json.dumps(entry["value"])
        entry["value"] = "REPEATED"
        pair = f"{json.dumps(name)}: {json.dumps(draw(st.sampled_from(['0', '1'])))}, "
        return kind, json.dumps(doc).replace('"REPEATED"', "{" + pair + value[1:])
    elif family == "unencodable name":
        # a lone surrogate: json.dumps writes it as an escape that json.loads reads back
        name = draw(st.text("ab", max_size=1)) + draw(st.characters(min_codepoint=0xD800,
                                                                    max_codepoint=0xDFFF))
        doc["basis"].insert(draw(st.integers(0, len(doc["basis"]))), name)
    else:
        key = draw(st.sampled_from(list(doc)))
        depth = draw(st.sampled_from([1, 2, 100000]))
        text = json.dumps(dict(doc, **{key: "NESTED"}))
        return kind, text.replace('"NESTED"', "[" * depth + json.dumps(doc[key]) + "]" * depth)
    return kind, json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(malformed_documents())
def test_malformed_documents_exit_two(kind_and_text):
    kind, text = kind_and_text
    with tempfile.TemporaryDirectory() as workdir:
        algebra = write_json(Path(workdir, "r2.json"), R2_DOC)
        path = Path(workdir, "doc.json")
        path.write_text(text)
        argv = (["check", str(path)] if kind == "algebra" else
                ["homology", algebra, "--coefficients", f"{kind}:{path}"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.entrypoint(argv)
    assert code == 2, (text[:200], out.getvalue())
    assert err.getvalue().startswith("error: "), err.getvalue()
    assert err.getvalue().count("\n") == 1, err.getvalue()


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


# adjoint module of the quotient that `leibhom quotient` prints for both
# r2 files, [x~, y~] = y~, and the same module read off R2_RIGHT_DOC's own
# bracket [y, x] = y, which is not a module over the printed quotient
R2_QUOTIENT_ADJ_DOC = {
    "basis": ["u", "v"],
    "action": [{"left": "x~", "right": "v", "value": {"v": "1"}},
               {"left": "y~", "right": "u", "value": {"v": "-1"}}],
}
R2_RIGHT_BRACKET_ADJ_DOC = {
    "basis": ["u", "v"],
    "action": [{"left": "y~", "right": "u", "value": {"v": "1"}},
               {"left": "x~", "right": "v", "value": {"v": "-1"}}],
}


def test_lie_file_is_read_over_the_printed_quotient(tmp_path, capsys):
    """A lie: file goes with the converted quotient, not the right-convention
    file's own bracket."""
    left_alg = write_json(tmp_path / "l.json", R2_DOC)
    right_alg = write_json(tmp_path / "r.json", R2_RIGHT_DOC)
    mod = write_json(tmp_path / "m.json", R2_QUOTIENT_ADJ_DOC)
    bettis = []
    for alg in (left_alg, right_alg):
        out = tmp_path / "o.json"
        assert cli.entrypoint(["homology", alg, "--max-degree", "2", "--coefficients",
                               f"lie:{mod}", "--json", str(out), "--quiet"]) == 0
        bettis.append(json.loads(out.read_text())["tables"]["betti"])
    assert bettis[0] == bettis[1] == {"0": 1, "1": 1, "2": 1}
    own = write_json(tmp_path / "own.json", R2_RIGHT_BRACKET_ADJ_DOC)
    capsys.readouterr()
    assert cli.entrypoint(["homology", right_alg, "--max-degree", "2", "--coefficients",
                           f"lie:{own}"]) == 2
    assert capsys.readouterr().err == (
        f"error: {own}: Lie-module identity fails at (0, 1, 0), (1, 0, 0)\n")


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


@pytest.mark.parametrize("max_degree", [0, 1])
def test_compare_omits_verdicts_below_their_degree(tmp_path, capsys, max_degree):
    path = write_json(tmp_path / "ab1.json", {
        "name": "abelian1", "convention": "left", "basis": ["a"], "brackets": []})
    out_path = tmp_path / "r.json"
    assert cli.entrypoint(["compare", path, "--max-degree", str(max_degree),
                           "--json", str(out_path)]) == 0
    verdicts = json.loads(out_path.read_text())["verdicts"]
    assert verdicts["h0_iso"] is (True if max_degree else None)
    for key in ("h1_iso", "hl2_to_h2_surjective", "h2_to_hl2_injective"):
        assert verdicts[key] is None
    out = capsys.readouterr().out
    assert "h1_iso" not in out and ("h0_iso: pass" in out) == bool(max_degree)


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


@pytest.mark.parametrize("argv, params", [
    (["--generators", "2", "--max-weight", "3"], {"generators": 2, "max_weight": 3}),
    (["--max-weight", "2", "--generators", "3"], {"generators": 3, "max_weight": 2}),
])
def test_free_conjecture_digests_its_parameters(tmp_path, argv, params):
    out_path = tmp_path / "r.json"
    assert cli.entrypoint(["free-conjecture", *argv, "--quiet", "--json", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["parameters"] == params
    digest = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()
    assert report["inputs"] == {"parameters": {"sha256": digest}}


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


def test_lambda_without_its_left_term_maps_to_exit_one(capsys, monkeypatch):
    # lambda(b' + (y,)) = lambda(b') (x) y without its - y (x) lambda(b')
    # term leaves every word b as it is; the right-identity gate of the
    # truncation refuses that bracket before any weight runs
    monkeypatch.setattr(FreeLeibnizTruncation, "_left_normed", lambda self, b: ((b, 1),))
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


# heis3 in the basis f_i = sum_a P[a][i] e_a, P = dense_basis(3) of
# benchmark/gen.py: every structure constant mixed in, 8 nonzero against 2
DENSE_P = [[6, -3, 2], [-3, 2, -1], [2, -1, 1]]
DENSE_P_INV = [[1, 1, -1], [1, 2, 0], [-1, 0, 3]]
DENSE_HEIS3_DOC = cli.algebra_echo(conjugate(CORPUS["heis3"], DENSE_P, DENSE_P_INV,
                                             ["a", "b", "c"]))


def adjoint_doc(algebra_doc):
    """The adjoint two-sided module of an algebra document, on names m_<x>."""
    m = {s: f"m_{s}" for s in algebra_doc["basis"]}

    def entry(e, left, right):
        return {"left": left, "right": right, "value": {m[k]: v for k, v in e["value"].items()}}

    entries = algebra_doc["brackets"]
    return {"basis": list(m.values()),
            "left_action": [entry(e, e["left"], m[e["right"]]) for e in entries],
            "right_action": [entry(e, m[e["left"]], e["right"]) for e in entries]}


def lie_adjoint_doc(algebra_doc):
    """The adjoint module of the Lie quotient of a Lie algebra document,
    whose quotient keeps every basis vector x, named x~."""
    m = {s: f"m_{s}" for s in algebra_doc["basis"]}
    return {"basis": list(m.values()), "action": [
        {"left": e["left"] + "~", "right": m[e["right"]],
         "value": {m[k]: v for k, v in e["value"].items()}} for e in algebra_doc["brackets"]]}


SPARSE_COMMANDS = [
    ("homology", "trivial"), ("homology", "rep"), ("homology", "lie"), ("cohomology", "trivial"),
    ("cohomology", "rep"), ("cohomology", "lie"), ("ce-homology", "trivial"),
    ("ce-homology", "lie"), ("ce-cohomology", "trivial"), ("ce-cohomology", "lie"),
    ("compare", "trivial"), ("compare", "lie"), ("fg", None)]


def _sparse_argv(tmp_path, doc, command, coefficients):
    argv = [command, write_json(tmp_path / "g.json", doc), "--max-degree", "3"]
    if coefficients in ("rep", "lie"):
        module = (adjoint_doc if coefficients == "rep" else lie_adjoint_doc)(doc)
        argv += ["--coefficients", f"{coefficients}:" + write_json(tmp_path / "m.json", module)]
    return argv


@pytest.mark.parametrize("command, coefficients", SPARSE_COMMANDS)
def test_dense_basis_reports_match_the_canonical_basis(tmp_path, command, coefficients):
    # the command rebuilds in a sparse basis; its report keeps the input's
    reports = []
    for doc in (HEIS3_DOC, DENSE_HEIS3_DOC):
        argv = _sparse_argv(tmp_path, doc, command, coefficients)
        assert cli.entrypoint(argv + ["--json", str(tmp_path / "r.json"), "--quiet"]) == 0
        reports.append(json.loads((tmp_path / "r.json").read_text()))
    canonical, dense_report = reports
    assert dense_report["tables"] == canonical["tables"]
    assert dense_report["verdicts"] == canonical["verdicts"]
    assert dense_report["algebra_echo"] == cli.algebra_echo(cli.parse_algebra(
        str(tmp_path / "g.json"))[0])
    assert dense_report["algebra_echo"]["basis"] == ["a", "b", "c"]


@pytest.mark.parametrize("command, coefficients", SPARSE_COMMANDS)
def test_failed_sparse_basis_check_exits_one(tmp_path, capsys, monkeypatch, command,
                                             coefficients):
    # a search that hands back a table the basis change does not give
    real = cli.sparse_basis

    def corrupted(g, m=None):
        h, s, moved, t = real(g, m)
        table = leibcore._lincomb((2, h.structure))
        return leibcore.LeibnizAlgebra(h.dim, h.basis_names, table, h.convention), s, moved, t

    monkeypatch.setattr(cli, "sparse_basis", corrupted)
    argv = _sparse_argv(tmp_path, DENSE_HEIS3_DOC, command, coefficients)
    assert cli.entrypoint(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation (NotIsomorphic): ")


def test_failed_module_transport_check_exits_one(tmp_path, capsys, monkeypatch):
    real = cli.sparse_basis

    def corrupted(g, m=None):
        # every basis vector acting on the left as the identity: x.m is s(x) m,
        # s the sum of the coordinates, so [x,y].m = x.(y.m) - y.(x.m) = 0
        # fails wherever s([x,y]) is not 0
        h, s, moved, t = real(g, m)
        left = Matrix.from_entries(m.dim, g.dim * m.dim, {
            (u, i * m.dim + u): 1 for i in range(g.dim) for u in range(m.dim)})
        return h, s, leibcore.Representation(m.dim, m.basis_names, left, moved.right_action), t

    monkeypatch.setattr(cli, "sparse_basis", corrupted)
    argv = _sparse_argv(tmp_path, DENSE_HEIS3_DOC, "homology", "rep")
    assert cli.entrypoint(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation (NotIsomorphic): ")


@pytest.mark.parametrize("coefficients", ["rep", "lie"])
def test_zero_module_transport_exits_one(tmp_path, capsys, monkeypatch, coefficients):
    # the zero module is a module, so only the check against the input's
    # module can refuse it; built on, it gave other Betti numbers
    real = cli.sparse_basis

    def zero(g, m=None):
        h, s, moved, t = real(g, m)
        if isinstance(moved, leibcore.LieModule):
            moved = leibcore.LieModule(m.dim, Matrix.zeros(m.dim, moved.action.cols))
        else:
            moved = leibcore.Representation(m.dim, m.basis_names,
                                            Matrix.zeros(m.dim, moved.left_action.cols),
                                            Matrix.zeros(m.dim, moved.right_action.cols))
        return h, s, moved, t

    monkeypatch.setattr(cli, "sparse_basis", zero)
    argv = _sparse_argv(tmp_path, DENSE_HEIS3_DOC, "homology", coefficients)
    assert cli.entrypoint(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation (NotIsomorphic): ")


def character_doc(g):
    """The 1-dim module over the Lie quotient of g on which the first
    quotient basis vector acts as 1 and the others as 0."""
    first = g.quotient_data.quotient.basis_names[0]
    return {"basis": ["m"], "action": [{"left": first, "right": "m", "value": {"m": "1"}}]}


# algebras with a nonzero square span, so that a lie: module's lift moves
# along S through the projection onto the Lie quotient, in their canonical
# bases and in the dense ones of benchmark/gen.py's dense_basis (P, P^-1)
LIFT_ALGEBRAS = {"hemi2": ([[2, -1], [-1, 1]], [[1, 1], [1, 2]]),
                 "A2+k": (DENSE_P, DENSE_P_INV)}
LIE_COMMANDS = ["homology", "cohomology", "ce-homology", "ce-cohomology", "compare"]


@pytest.mark.parametrize("command", LIE_COMMANDS)
@pytest.mark.parametrize("name", list(LIFT_ALGEBRAS))
def test_dense_basis_lie_character_reports_match_the_canonical_basis(tmp_path, name, command):
    g = CORPUS[name]
    dense_g = conjugate(g, *LIFT_ALGEBRAS[name], ["a", "b", "c"][:g.dim])
    assert g.quotient_data.ann.dim and cli.sparse_basis(dense_g)[0] is not dense_g
    reports = []
    for alg in (g, dense_g):
        module = write_json(tmp_path / "m.json", character_doc(alg))
        argv = [command, write_json(tmp_path / "g.json", cli.algebra_echo(alg)),
                "--max-degree", "3", "--coefficients", f"lie:{module}",
                "--json", str(tmp_path / "r.json"), "--quiet"]
        assert cli.entrypoint(argv) == 0
        reports.append(json.loads((tmp_path / "r.json").read_text()))
    canonical, dense_report = reports
    assert dense_report["tables"] == canonical["tables"]
    assert dense_report["verdicts"] == canonical["verdicts"]


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


def _import_cli_bare(code: str, before: str = "") -> subprocess.CompletedProcess:
    """Run before, `import leibhom.cli`, then code, in `python -S` with src/
    alone on the path, so that site preloads nothing the package does not
    import."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-S", "-c", before + "import leibhom.cli\n" + code],
                          env=env, capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    done = _import_cli_bare(
        "import sys\n"
        "print(sorted({'dataclasses', 'inspect', 'typing', 'argparse'} & set(sys.modules)))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
    src = [line for path in Path(cli.__file__).parent.glob("*.py")
           for line in path.read_text().splitlines()]
    assert not any("dataclass" in line for line in src)


def test_no_command_loads_the_library_only_module(r2_path, tmp_path):
    rep = write_json(tmp_path / "adj.json", R2_ADJ_DOC)
    lie = write_json(tmp_path / "char.json", R2_CHAR_DOC)
    runs = [["check", r2_path], ["quotient", r2_path], ["fg", r2_path, "--max-degree", "3"],
            ["free-conjecture", "--generators", "2", "--max-weight", "4"]]
    runs += [[command, r2_path, "--max-degree", "3", "--coefficients", c]
             for command in ("homology", "cohomology", "ce-homology", "ce-cohomology", "compare")
             for c in ("trivial", f"rep:{rep}", f"lie:{lie}")]
    # nor hashlib, which loads OpenSSL: the digests come from the builtin sha256
    loaded = "print(sorted({'leibhom.dgcat', 'hashlib', '_hashlib', '_blake2'} & set(sys.modules)))\n"
    done = _import_cli_bare(
        "import sys\n" + loaded
        + f"print([leibhom.cli.entrypoint(argv + ['--quiet']) for argv in {runs!r}])\n" + loaded)
    # the enveloping-algebra complexes refuse rep: coefficients with exit 2
    codes = [0, 0, 0, 0] + [0, 0, 0] * 2 + [0, 2, 0] * 3
    assert (done.returncode, done.stdout) == (0, f"[]\n{codes}\n[]\n")


def test_hashlib_fallback_writes_the_same_reports(r2_path, tmp_path):
    """An interpreter without the builtin sha256 digests through hashlib,
    into the same reports; only the timing differs."""
    runs = [["check", r2_path], ["free-conjecture", "--generators", "2", "--max-weight", "4"]]
    reports = {}
    for fallback in (False, True):
        outs = [str(tmp_path / f"{fallback}-{i}.json") for i in range(len(runs))]
        done = _import_cli_bare(
            f"print([leibhom.cli.entrypoint(argv + ['--quiet', '--json', out])"
            f" for argv, out in zip({runs!r}, {outs!r})])\n"
            "print('hashlib' in sys.modules)",
            before="import sys\n"
            + ("sys.modules['_sha2'] = sys.modules['_sha256'] = None\n" if fallback else ""))
        assert (done.returncode, done.stdout, done.stderr) == (0, f"[0, 0]\n{fallback}\n", "")
        reports[fallback] = [re.sub(r'"seconds": \S+', '"seconds": 0', Path(out).read_text())
                             for out in outs]
    assert reports[True] == reports[False]


def test_cli_import_freezes_its_objects():
    done = _import_cli_bare("import gc\nprint(gc.get_freeze_count() > 0)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")
