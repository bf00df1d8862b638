"""Batch front end: JSON file formats, command dispatch, report emission.

Input documents keep every rational as a string ("3/2", "-1"), so nothing
in the pipeline ever touches a float.  Bracket and action tables are lists
of sparse entries

    {"left": <name>, "right": <name>, "value": {<name>: "p/q", ...}}

indexed by basis names; omitted pairs are zero.  Reports are emitted as
canonical JSON (sorted keys) with the wall-clock timing kept outside the
verdict section, so verdicts are byte-identical across reruns.

The commands that report only basis-invariant numbers (homology,
cohomology, ce-homology, ce-cohomology, compare, fg) build their complexes
on the algebra in the basis leibcore.sparse_basis finds, with a rep: or
lie: module carried along and put in a sparse basis of its own, checked
exactly first by leibcore.is_isomorphism (_in_sparse_basis).  check,
quotient and the algebra echo keep the input basis.

Exit codes: 0 success, 1 verdict failure, internal invariant violation or
any other fault (which ends in a traceback), 2 malformed input.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from json.encoder import encode_basestring_ascii
from math import lcm
from types import SimpleNamespace

# hashlib loads OpenSSL's libcrypto on every start; the interpreter's
# builtin sha256 gives the same digests for a fraction of the import
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .dgla import IllDefinedAction, NotInCategory
from .exactla import Matrix, NotInvariant, ShapeMismatch, _parse_ratio, format_scalar
from .freealg import NecklaceCountError, RightIdentityError, WeightOverflow
from .homology import (
    DifferentialSquareNonzero,
    NotAChainMap,
    TrivialCoefficients,
    UnsupportedCoefficients,
    ce_chain,
    ce_cochain,
    ce_projection,
    conjecture_check,
    fg_subcomplex,
    loday_cochain_complex,
    loday_complex,
    trivial_coefficients,
    weight_budget,
)
from .leibcore import (
    IllDefinedQuotient,
    LeibnizAlgebra,
    LieAlgebra,
    LieModule,
    Representation,
    check_leibniz,
    check_lie_module,
    check_representation,
    is_isomorphism,
    opposite,
    opposite_representation,
    sparse_basis,
)

FORMAT_VERSION = 1

# One option table, read by build_parser (argparse, for help, --version and
# errors) and by _plain_args (everything else).  An option is (flag, dest,
# type, default, metavar, help); type bool is a flag that takes no value.
JSON_OPTION = ("--json", "json_path", str, None, "OUT",
               "write the canonical JSON report to this path")
QUIET_OPTION = ("--quiet", "quiet", bool, False, None, "suppress the human-readable table")
DEGREE_OPTION = ("--max-degree", "max_degree", int, 3, "N", None)
COEFFICIENTS_OPTION = ("--coefficients", "coefficients", str, "trivial", "C",
                       "trivial | lie:<file> | rep:<file>")
ALGEBRA = ("algebra", "algebra file (JSON structure constants)")

REPORT_OPTIONS = (JSON_OPTION, QUIET_OPTION)
COMPLEX_OPTIONS = (*REPORT_OPTIONS, DEGREE_OPTION, COEFFICIENTS_OPTION)

# command: (help, positional (name, help) or None, options)
COMMANDS = {
    "check": ("validate axioms, report dimensions", ALGEBRA, REPORT_OPTIONS),
    "quotient": ("maximal Lie quotient and kernel ideal", ALGEBRA, REPORT_OPTIONS),
    "homology": ("tensor-module homology (Betti table)", ALGEBRA, COMPLEX_OPTIONS),
    "cohomology": ("tensor-module cohomology", ALGEBRA, COMPLEX_OPTIONS),
    "ce-homology": ("homology of the enveloping-algebra complex", ALGEBRA, COMPLEX_OPTIONS),
    "ce-cohomology": ("cohomology of the enveloping-algebra complex", ALGEBRA,
                      COMPLEX_OPTIONS),
    "compare": ("compare the two complexes and their induced maps", ALGEBRA,
                COMPLEX_OPTIONS),
    "fg": ("graded-commutator subcomplex of the tensor complex", ALGEBRA,
           (*REPORT_OPTIONS, DEGREE_OPTION)),
    "free-conjecture": ("vanishing check over a truncated free algebra", None,
                        (*REPORT_OPTIONS,
                         ("--generators", "generators", int, None, "D", None),
                         ("--max-weight", "max_weight", int, None, "W", None))),
}


class NotIsomorphic(Exception):
    """The sparse basis of an algebra or of its module fails its exact check
    against the input."""


# Exceptions that mean "the tool's own mathematics is inconsistent" rather
# than "the user's file is bad".  They exit 1, like a failed verdict.
INVARIANT_ERRORS = (DifferentialSquareNonzero, NotAChainMap, NotInvariant,
                    ShapeMismatch, IllDefinedQuotient, IllDefinedAction,
                    NotInCategory, NecklaceCountError, RightIdentityError,
                    WeightOverflow, NotIsomorphic)


class ParseError(Exception):
    """Malformed input file: bad JSON, unknown or duplicate names."""


class AxiomError(Exception):
    """Input parses but violates the declared axioms."""


# ---------------------------------------------------------------------------
# parsing


def _load_json(path: str, inputs: dict | None, key: str) -> dict:
    """The JSON object in path, read once, with no key repeated in any of
    its objects; when inputs is given, inputs[key] records the path and
    the sha256 of the bytes parsed."""

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ParseError(f"{path}: repeated key {json.dumps(repeated)}")
        return obj

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, an integer of too many digits
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:
        raise ParseError(f"{path} is nested too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    if inputs is not None:
        inputs[key] = {"path": path, "sha256": sha256(data).hexdigest()}
    return doc


def _name_index(names, where: str) -> dict:
    if not isinstance(names, list) or not names or not all(isinstance(s, str) for s in names):
        raise ParseError(f"{where}: \"basis\" must be a nonempty list of strings")
    index = {}
    for i, s in enumerate(names):
        if s in index:
            raise ParseError(f"{where}: duplicate basis name {s!r}")
        try:
            s.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"{where}: basis name {s!r} does not encode as UTF-8") from None
        index[s] = i
    return index


def _table(entries, left_index, right_index, value_index, where: str) -> Matrix:
    """The table of a list of sparse entries: column i*b + j holds the
    value of the entry (left i, right j), b = len(right_index)."""
    if not isinstance(entries, list):
        raise ParseError(f"{where}: must be a list of entries")
    b = len(right_index)
    cells, seen = {}, set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: entries must be objects")
        for key in ("left", "right", "value"):
            if key not in entry:
                raise ParseError(f"{where}: entry missing {key!r}")
        ln, rn, val = entry["left"], entry["right"], entry["value"]
        if not isinstance(ln, str) or ln not in left_index:
            raise ParseError(f"{where}: unknown name {ln!r}")
        if not isinstance(rn, str) or rn not in right_index:
            raise ParseError(f"{where}: unknown name {rn!r}")
        if not isinstance(val, dict):
            raise ParseError(f"{where}: \"value\" must be an object")
        col = left_index[ln] * b + right_index[rn]
        for kn, raw in val.items():
            if kn not in value_index:
                raise ParseError(f"{where}: unknown name {kn!r} in value")
            if not isinstance(raw, str):
                raise ParseError(f"{where}: rationals must be strings, got {raw!r}")
            try:
                num, den = _parse_ratio(raw)
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from exc
            if num:
                cells[value_index[kn], col] = num, den
        if col in seen:
            raise ParseError(f"{where}: duplicate entry for ({ln}, {rn})")
        seen.add(col)
    den = lcm(*{d for _, d in cells.values()})
    return Matrix.from_entries(len(value_index), len(left_index) * b,
                               {key: num * (den // d) for key, (num, d) in cells.items()}, den)


def _check_keys(doc: dict, path: str, kind: str, allowed: tuple[str, ...]) -> None:
    """Reject a top-level key that the file format does not have, so a
    misspelt table is not read as a missing, empty one."""
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        raise ParseError(f"{path}: unknown key {json.dumps(unknown[0])}; {kind} file has only "
                         + ", ".join(map(json.dumps, allowed)))


def _first_few(items) -> str:
    """The first eight items, then how many more there are."""
    more = "" if len(items) <= 8 else f" and {len(items) - 8} more"
    return ", ".join(str(v) for v in items[:8]) + more


def parse_algebra(path: str, inputs: dict | None = None
                  ) -> tuple[LeibnizAlgebra, list[str], bool]:
    """Load an algebra file, verify its axioms, normalise to the left
    convention.  Returns the algebra, report notices, and whether the
    input was right-convention (companion module files are then read in
    that convention as well).  inputs["algebra"] records the file's hash
    when inputs is given."""
    doc = _load_json(path, inputs, "algebra")
    index = _name_index(doc.get("basis"), path)
    names = tuple(doc["basis"])
    convention = doc.get("convention")
    if convention not in ("left", "right"):
        raise ParseError(f"{path}: \"convention\" must be \"left\" or \"right\"")
    if not isinstance(doc.get("name", ""), str):
        raise ParseError(f"{path}: \"name\" must be a string")
    if "brackets" not in doc:
        raise ParseError(f"{path}: algebra file has no \"brackets\"")
    _check_keys(doc, path, "an algebra", ("name", "convention", "basis", "brackets"))
    table = _table(doc["brackets"], index, index, index, f"{path} brackets")
    g = LeibnizAlgebra(len(names), names, table, convention)
    bad = check_leibniz(g)
    if bad:
        listed = [f"({names[i]}, {names[j]}, {names[k]})" for i, j, k in bad]
        raise AxiomError(f"{path}: {convention} Leibniz identity fails at {_first_few(listed)}")
    notices = []
    if convention == "right":
        g = opposite(g)
        notices.append("right-convention input converted to the left convention "
                       "(arguments swapped)")
    return g, notices, convention == "right"


def algebra_echo(g: LeibnizAlgebra | LieAlgebra) -> dict:
    """Re-emit an algebra as an input document (always left convention)."""
    names = g.basis_names
    brackets = [{"left": names[c // g.dim], "right": names[c % g.dim],
                 "value": {names[k]: format_scalar(x, den) for k, x in col}}
                for c, (den, col) in enumerate(g.structure.transpose().int_rows) if col]
    return {"basis": list(names), "convention": "left", "brackets": brackets}


def _literals(m: Matrix) -> list[list[str]]:
    """The entries of m as rational literals, row by row."""
    rows = [(den, dict(row)) for den, row in m.int_rows]
    return [[format_scalar(row.get(j, 0), den) for j in range(m.cols)] for den, row in rows]


def parse_representation(path: str, g: LeibnizAlgebra, was_right: bool = False,
                         inputs: dict | None = None) -> Representation:
    """Module file over g.  When the algebra file was right-convention the
    module actions are read in that convention too, so the two action
    tables trade places on conversion.  inputs["module"] records the
    file's hash when inputs is given."""
    doc = _load_json(path, inputs, "module")
    index = _name_index(doc.get("basis"), path)
    names = tuple(doc["basis"])
    gindex = {s: i for i, s in enumerate(g.basis_names)}
    if "left_action" not in doc and "right_action" not in doc:
        raise ParseError(f"{path}: module file has neither \"left_action\" nor \"right_action\"")
    _check_keys(doc, path, "a two-sided module", ("basis", "left_action", "right_action"))
    left = _table(doc.get("left_action", []), gindex, index, index, f"{path} left_action")
    right = _table(doc.get("right_action", []), index, gindex, index, f"{path} right_action")
    rep = Representation(len(names), names, left, right)
    if was_right:
        rep = opposite_representation(g, rep)
    bad = check_representation(g, rep)
    if bad:
        raise AxiomError(f"{path}: representation identities fail at {_first_few(bad)}")
    return rep


def parse_lie_module(path: str, g: LeibnizAlgebra, inputs: dict | None = None) -> LieModule:
    """Module file over the maximal Lie quotient of g; actors are named by
    the quotient basis (the `quotient` command prints those names).
    inputs["module"] records the file's hash when inputs is given."""
    doc = _load_json(path, inputs, "module")
    index = _name_index(doc.get("basis"), path)
    h = g.quotient_data.quotient
    qindex = {s: a for a, s in enumerate(h.basis_names)}
    if "action" not in doc:
        raise ParseError(f"{path}: module file has no \"action\"")
    _check_keys(doc, path, "a Lie-module", ("basis", "action"))
    mod = LieModule(len(index), _table(doc["action"], qindex, index, index, f"{path} action"))
    bad = check_lie_module(h, mod)
    if bad:
        raise AxiomError(f"{path}: Lie-module identity fails at {_first_few(bad)}")
    return mod


def _coefficients(selector: str, g: LeibnizAlgebra, inputs: dict,
                  was_right: bool = False):
    """Decode --coefficients into a coefficient system, recording file hashes."""
    if selector == "trivial":
        return trivial_coefficients()
    if selector.startswith("lie:"):
        return parse_lie_module(selector[4:], g, inputs)
    if selector.startswith("rep:"):
        return parse_representation(selector[4:], g, was_right, inputs)
    raise ParseError(f"--coefficients must be trivial, lie:<file> or rep:<file>, "
                     f"got {selector!r}")


# ---------------------------------------------------------------------------
# report plumbing


def _report_skeleton(command: str, parameters: dict) -> dict:
    return {
        "command": command,
        "tool": {"name": "leibhom", "version": __version__, "format": FORMAT_VERSION},
        "parameters": parameters,
        "inputs": {},
        "notices": [],
        "tables": {},
        "verdicts": {},
    }


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2), value nested at indent: a
    dict, list, tuple, str, int, float, bool or None, other types TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (int, float)):
        return int.__repr__(value) if isinstance(value, int) else float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):
        # encode_basestring_ascii raises TypeError for a key that is not a str
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_report(report: dict, json_path: str | None, quiet: bool,
                human_lines: list[str]) -> None:
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(_json_text(report) + "\n")
    if not quiet:
        for note in report.get("notices", ()):
            print(f"note: {note}")
        for line in human_lines:
            print(line)


def _complex_tables(report: dict, cplx) -> list[tuple[int, int, int]]:
    """(degree, dim, betti) for each degree cplx reports, recorded as the
    report's dims and betti tables."""
    rows = list(zip(cplx.degree_range(), cplx.dims, cplx.betti()))
    report["tables"]["dims"] = {str(k): d for k, d, _ in rows}
    report["tables"]["betti"] = {str(k): b for k, _, b in rows}
    return rows


def _load_main_algebra(args, report: dict) -> tuple[LeibnizAlgebra, bool]:
    g, notices, was_right = parse_algebra(args.algebra, report["inputs"])
    report["notices"].extend(notices)
    report["algebra_echo"] = algebra_echo(g)
    return g, was_right


def _in_sparse_basis(g: LeibnizAlgebra, coeffs):
    """g and a rep: or lie: module in the bases sparse_basis finds, checked
    exactly by is_isomorphism before anything is built: S and T are
    invertible and carry the new bracket and module onto the input's.
    What the searches leave as it is needs no check."""
    m = None if isinstance(coeffs, TrivialCoefficients) else coeffs
    h, s, moved, t = sparse_basis(g, m)
    if (h is not g or moved is not m) and not is_isomorphism(s, h, g, t, moved, m):
        raise NotIsomorphic("the sparse bases do not carry the bracket and the module onto "
                            "the input's")
    return h, coeffs if m is None else moved


# ---------------------------------------------------------------------------
# commands


def _cmd_check(args, report):
    g, was_right = _load_main_algebra(args, report)
    qdata = g.quotient_data
    report["tables"]["dimensions"] = {
        "g": g.dim, "g_ann": qdata.ann.dim, "g_Lie": qdata.quotient.dim}
    report["verdicts"]["valid"] = True
    line = (f"valid left Leibniz algebra, dim {g.dim}, "
            f"g_ann {qdata.ann.dim}, g_Lie {qdata.quotient.dim}")
    return [line], 0


def _cmd_quotient(args, report):
    g, was_right = _load_main_algebra(args, report)
    qdata = g.quotient_data
    q = qdata.quotient
    brackets = algebra_echo(q)["brackets"]
    report["tables"]["quotient"] = {"basis": list(q.basis_names), "brackets": brackets}
    ann = qdata.ann
    report["tables"]["ann"] = {"dim": ann.dim, "basis": _literals(ann.basis.transpose())}
    report["tables"]["projection"] = _literals(qdata.projection)
    report["verdicts"]["quotient_well_defined"] = True
    lines = [f"g_Lie basis: {', '.join(q.basis_names)} (dim {q.dim}), "
             f"g_ann dim {qdata.ann.dim}"]
    for e in brackets:
        terms = " + ".join(f"{v}*{k}" if v != "1" else k for k, v in e["value"].items())
        lines.append(f"  [{e['left']}, {e['right']}] = {terms}")
    if not brackets:
        lines.append("  (abelian quotient)")
    return lines, 0


def _betti_command(args, report, builder, label):
    g, was_right = _load_main_algebra(args, report)
    coeffs = _coefficients(args.coefficients, g, report["inputs"], was_right)
    rows = _complex_tables(report, builder(*_in_sparse_basis(g, coeffs), args.max_degree + 1))
    report["parameters"]["coefficients"] = args.coefficients
    lines = [f"{label}, coefficients {args.coefficients}:"]
    lines += [f"  degree {k}: {b}" for k, _, b in rows]
    return lines, 0


def _cmd_compare(args, report):
    g, was_right = _load_main_algebra(args, report)
    coeffs = _coefficients(args.coefficients, g, report["inputs"], was_right)
    n = args.max_degree
    _, _, cmp = ce_projection(*_in_sparse_basis(g, coeffs), n)
    report["parameters"]["coefficients"] = args.coefficients
    report["tables"]["degrees"] = list(cmp.degrees)
    report["tables"]["tensor_homology"] = list(cmp.loday_homology)
    report["tables"]["ce_homology"] = list(cmp.ce_homology)
    report["tables"]["tensor_cohomology"] = list(cmp.loday_cohomology)
    report["tables"]["ce_cohomology"] = list(cmp.ce_cohomology)
    report["tables"]["chain_map_ranks"] = list(cmp.chain_map_ranks)
    report["tables"]["cochain_map_ranks"] = list(cmp.cochain_map_ranks)
    verdicts = {
        "chain_map": True,
        "h0_iso": cmp.h0_iso,
        "h1_iso": cmp.h1_iso,
        "hl2_to_h2_surjective": cmp.hl2_to_h2_surjective,
        "h2_to_hl2_injective": cmp.h2_to_hl2_injective,
    }
    report["verdicts"].update(verdicts)
    failed = [k for k, v in verdicts.items() if v is False]
    lines = ["comparison of the tensor-module and enveloping-algebra complexes:"]
    for k in range(len(cmp.degrees)):
        lines.append(f"  degree {k}: HL={cmp.loday_homology[k]} H={cmp.ce_homology[k]} "
                     f"HL^={cmp.loday_cohomology[k]} H^={cmp.ce_cohomology[k]}")
    for k, v in verdicts.items():
        if v is not None:
            lines.append(f"  {k}: {'pass' if v else 'FAIL'}")
    return lines, (1 if failed else 0)


def _cmd_fg(args, report):
    g, was_right = _load_main_algebra(args, report)
    h, _ = _in_sparse_basis(g, trivial_coefficients())
    rows = _complex_tables(report, fg_subcomplex(h, args.max_degree + 1))
    report["verdicts"]["closed_under_boundary"] = True
    lines = ["graded-commutator subcomplex:"]
    lines += [f"  degree {k}: dim {d}, homology {b}" for k, d, b in rows]
    return lines, 0


def _cmd_free_conjecture(args, report):
    d = args.generators
    if d is None:
        raise ParseError("free-conjecture requires --generators")
    if d not in (1, 2, 3):
        raise ParseError("--generators must be 1, 2 or 3")
    budget = weight_budget(d)
    w = args.max_weight if args.max_weight is not None else budget
    if w < 1:
        raise ParseError("--max-weight must be at least 1")
    if w > budget:
        raise ParseError(f"--max-weight {w} exceeds the configured budget {budget} "
                         f"for {d} generator(s)")
    params = {"generators": d, "max_weight": w}
    report["parameters"].update(params)
    report["inputs"]["parameters"] = {
        "sha256": sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()}
    rep = conjecture_check(d, w)
    rows = []
    for v in rep.weights:
        rows.append({"weight": v.weight, "h1": v.h1, "expected_h1": v.expected_h1,
                     "higher": list(v.higher), "ok": v.ok})
    report["tables"]["weights"] = rows
    report["verdicts"]["verdict"] = rep.verdict
    lines = [f"free algebra on {d} generator(s), weights 1..{w}:"]
    for r in rows:
        higher = ", ".join(str(h) for h in r["higher"]) or "-"
        lines.append(f"  weight {r['weight']}: H1 {r['h1']} (expected {r['expected_h1']}), "
                     f"higher [{higher}] {'ok' if r['ok'] else 'MISMATCH'}")
    lines.append(f"verdict: {rep.verdict}")
    return lines, (0 if rep.verdict == "PASS" else 1)


# ---------------------------------------------------------------------------
# dispatch


def build_parser(command: str | None = None):
    """The argparse parser; with command named, only that subparser is
    built, since building all nine is a fixed cost of every invocation."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="leibhom",
        description="Homology of Leibniz algebras from JSON structure constants.")
    parser.add_argument("--version", action="version",
                        version=f"leibhom {__version__} (format {FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (help_text, positional, options) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        if positional is not None:
            p.add_argument(positional[0], help=positional[1])
        for flag, dest, kind, default, metavar, option_help in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=option_help)
            else:
                p.add_argument(flag, dest=dest, type=kind, default=default,
                               metavar=metavar, help=option_help)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser's parser gives a plain argv, read from
    COMMANDS without argparse; None for any other argv, which argparse
    then parses, so its help, usage and error texts stay its own.  A
    plain argv is a command name, then that command's positional and its
    exact flags, each at most once and each but --quiet with one value
    that does not start with "-" and that the flag's type accepts."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, positional, options = COMMANDS[argv[0]]
    unused = {option[0]: option for option in options}
    values = {dest: default for _, dest, _, default, _, _ in options}
    free = []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            free.append(arg)
            continue
        option = unused.pop(arg, None)
        if option is None:
            return None
        _, dest, kind, _, _, _ = option
        if kind is bool:
            values[dest] = True
            continue
        value = next(rest, "-")  # a flag that ends argv has no value
        if value.startswith("-"):
            return None
        try:
            values[dest] = kind(value)
        except ValueError:
            return None
    if len(free) != (positional is not None):
        return None
    if positional is not None:
        values[positional[0]] = free[0]
    return SimpleNamespace(command=argv[0], **values)


HANDLERS = {
    "check": _cmd_check,
    "quotient": _cmd_quotient,
    "homology": lambda a, r: _betti_command(a, r, loday_complex, "tensor-module homology"),
    "cohomology": lambda a, r: _betti_command(a, r, loday_cochain_complex,
                                              "tensor-module cohomology"),
    "ce-homology": lambda a, r: _betti_command(a, r, ce_chain,
                                               "enveloping-algebra homology"),
    "ce-cohomology": lambda a, r: _betti_command(a, r, ce_cochain,
                                                 "enveloping-algebra cohomology"),
    "compare": _cmd_compare,
    "fg": _cmd_fg,
    "free-conjecture": _cmd_free_conjecture,
}


def run(args) -> int:
    parameters = {}
    if getattr(args, "max_degree", None) is not None:
        if args.max_degree < 0:
            raise ParseError("--max-degree must be nonnegative")
        parameters["max_degree"] = args.max_degree
    report = _report_skeleton(args.command, parameters)
    start = time.perf_counter()
    lines, code = HANDLERS[args.command](args, report)
    report["timing"] = {"seconds": round(time.perf_counter() - start, 6)}
    emit_report(report, args.json_path, args.quiet, lines)
    return code


def entrypoint(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        # the top-level options are only -h and --version, so a first
        # argument that is a command name is the command
        parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
    try:
        return run(args)
    except (ParseError, AxiomError, UnsupportedCoefficients, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INVARIANT_ERRORS as exc:
        print(f"invariant violation ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


# The import's objects live as long as the process.  Moved out of the
# collected generations, they spare a job the generation-1 collection that
# would otherwise scan them once it allocates a few thousand objects.
gc.freeze()

if __name__ == "__main__":
    sys.exit(entrypoint())
