"""Command-line front end: problem parsing, dispatch, structured output.

Exit codes: 0 success, 1 domain error (machine-readable record on stdout)
or a `verify` document with a failing check, 2 usage error.  Identical
(problem, seed) inputs produce byte-identical output; timing is reported
only behind --timing so determinism holds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from typing import Dict, List, Optional

from . import kernels, rootdata
from .charring import (
    GroupElement,
    TorusElement,
    dimension,
    dualize,
    euler_class,
    irreducible_restriction,
    multiply,
)
from .errors import SchemaViolation, SpinductError
from .induction import (
    branch,
    bwb_irreducible,
    induce_classical,
    induce_twisted_spinc,
    lefschetz_check,
    make_problem,
    pairing_report,
)
from .multiplets import alternating_dimension_sum, multiplet
from .rootdata import RootDatum
from .serialize import (
    check_element,
    check_int_list,
    check_weight,
    group_to_json,
    is_int,
    is_int_list,
    is_int_vector,
    rational_from_json,
    rational_to_json,
    torus_from_json,
    torus_to_json,
    weights_from_json,
)
from .spinc import classify, nu
from .zoo import parse_group_spec, steinberg_pairing_bases, subgroup_from_spec

COMMANDS = (
    "info",
    "whset",
    "induce",
    "branch",
    "bwb",
    "multiplet",
    "pairing",
    "spinc",
    "lefschetz",
    "verify",
)


def parse_problem(text: str) -> Dict:
    """Validate a JSON problem document; errors carry a JSON-pointer path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"invalid JSON: {exc}", pointer="")
    _check_fields(doc)
    return doc


# the enumerated fields of schema/problem.schema.json, with the message that
# refuses any other value; the suites are those of verify.SUITES, which loads
# only for the verify command
_CHOICES = {
    "command": (COMMANDS, "unknown command"),
    "kind": (("twisted", "holomorphic", "spin", "spinc", "hodge"), "unknown induction kind {!r}"),
    "tau": (("0", "rhoM"), "steinberg bases exist for tau = 0 or rhoM only"),
    "suite": (("all", "weyl", "charring", "induction", "multiplets", "spinc", "appendixB",
               "appendixC"), "unknown suite {!r}"),
}
_LATTICES = ("weight", "root", "spin", "sc")


def _require(ok: bool, message: str, pointer: str) -> None:
    if not ok:
        raise SchemaViolation(message, pointer)


def _check_fields(doc: Dict) -> None:
    """The field rules of a problem document, applied alike to a parsed
    document and to one merged from command-line flags: the types and
    values schema/problem.schema.json states, each refused at its own
    pointer.  JSON's true and false are not integers.  `kind` and a named
    lattice are read regardless of case, as the computations read them,
    and stored lowercased, so the document echoed back validates."""
    _require(isinstance(doc, dict), "problem document must be an object", "")
    for key, value in doc.items():
        p = "/" + key
        if key == "kind" and isinstance(value, str):
            value = doc[key] = value.lower()
        if key in _CHOICES:
            choices, message = _CHOICES[key]
            _require(isinstance(value, str) and value in choices, message.format(value), p)
        elif key in ("seed", "trials", "max_weyl_order"):
            _require(is_int(value) and (key == "seed" or value >= 1),
                     f"{key} must be {'an' if key == 'seed' else 'a positive'} integer", p)
        elif key in ("twist", "mu"):
            check_weight(value, p)
        elif key == "gamma":
            check_int_list(value, p)
        elif key == "input":
            if not isinstance(value, str):
                check_element(value, p)
        elif key == "group":
            if isinstance(value, str):
                continue
            _require(isinstance(value, dict) and "label" in value,
                     "group must be a string or {label, lattice}", p)
            _require(isinstance(value["label"], str), "label must be a string", p + "/label")
            if isinstance(value.get("lattice"), str):
                value["lattice"] = value["lattice"].lower()
            lattice = value.get("lattice", "weight")
            if isinstance(lattice, list):
                for i, row in enumerate(lattice):
                    check_int_list(row, f"{p}/lattice/{i}")
            else:
                _require(isinstance(lattice, str) and lattice in _LATTICES,
                         f"lattice must be one of {', '.join(_LATTICES)} or a matrix",
                         p + "/lattice")
        elif key == "subgroup":
            if isinstance(value, str):
                continue
            _require(isinstance(value, list), "subgroup must be a name or a list", p)
            for i, item in enumerate(value):
                # the pointer is formatted only for an item that fails
                if not (is_int(item) or is_int_list(item)):
                    check_int_list(item, f"{p}/{i}")
        else:
            escaped = key.replace("~", "~0").replace("/", "~1")
            raise SchemaViolation(f"unknown field {key!r}", "/" + escaped)


def _resolve_datum(doc: Dict) -> RootDatum:
    g = doc.get("group")
    if g is None:
        raise SchemaViolation("missing group", pointer="/group")
    if isinstance(g, str):
        return parse_group_spec(g)
    return rootdata.build_root_datum(g["label"], g.get("lattice", "weight"))


def _resolve_input(doc: Dict, problem) -> TorusElement:
    spec = doc["input"]
    datum = problem.datum
    if isinstance(spec, dict):
        return torus_from_json(datum, spec, pointer="/input")
    s = spec.strip()
    if s == "1":
        return TorusElement.unit(datum)
    if s == "e^rhoG":
        return TorusElement.monomial(datum, datum.rho)
    if s == "e^rhoM":
        return TorusElement.monomial(datum, problem.rho_m)
    if s == "spinor":
        return irreducible_restriction(problem.sub, problem.rho_m)
    if s == "euler":
        return euler_class(problem.sub)
    if s == "dual-euler":
        return dualize(euler_class(problem.sub))
    if s == "hodge":
        e = euler_class(problem.sub)
        return multiply(e, dualize(e))
    body, bracket, den = s[3:].partition("]")
    if s.startswith("e^[") and bracket and den[:1] in ("", "/"):
        try:
            weight = rational_from_json(parse_weight(body + den, "/input"), datum.rank)
        except SchemaViolation as exc:
            raise SchemaViolation(f"monomial {s!r}: {exc}", "/input")
        return TorusElement.monomial(datum, weight)
    raise SchemaViolation(f"unknown input shortcut {s!r}", "/input")


def _diagnostics(problem) -> Dict:
    datum = problem.datum
    sub = problem.sub
    return {
        "group": datum.cartan_label,
        "lattice": datum.lattice_choice,
        "rank": datum.rank,
        "roots": len(datum.roots),
        "weyl_order": problem.weyl.order,
        "weyl_order_h": problem.weyl_h.order,
        "coset_count": len(problem.reps.reps),
        "rho_g": rational_to_json(datum.rho),
        "rho_h": rational_to_json(sub.rho_h),
        "rho_m": rational_to_json(sub.rho_m),
        "pi1_invariants": list(datum.pi1_invariants),
        "pi1_torsion_free": datum.pi1_torsion_free(),
        "levi": sub.is_levi,
        "xh_rank": sub.xh_rank,
        "kernel_backend": kernels.backend_name(),
    }


def _run_command(doc: Dict, command: str) -> Dict:
    if command == "verify":
        # the identity suites load only for this command
        from .verify import run_suite

        results = run_suite(doc["suite"], seed=doc["seed"])
        return {
            "suite": doc["suite"],
            "seed": doc["seed"],
            "passed": all(r.passed for r in results),
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                    **({"counterexample": r.counterexample} if r.counterexample else {}),
                }
                for r in results
            ],
        }

    datum = _resolve_datum(doc)
    sub = subgroup_from_spec(datum, doc["subgroup"])
    sigma = None
    if "twist" in doc:
        sigma = rational_from_json(doc["twist"], datum.rank, "/twist")
    problem = make_problem(datum, sub, sigma)

    if command == "info":
        return {"diagnostics": _diagnostics(problem)}

    if command == "whset":
        return {
            "diagnostics": _diagnostics(problem),
            "representatives": [
                {"matrix": [list(row) for row in e.matrix], "length": e.length, "det": e.det}
                for e in problem.reps.reps
            ],
        }

    if command == "induce":
        a = _resolve_input(doc, problem)
        kind = doc["kind"]
        if kind == "twisted":
            out = induce_twisted_spinc(problem, a)
        elif kind in ("holomorphic", "spin", "spinc"):
            gamma = doc.get("gamma")
            if gamma is not None and not is_int_vector(gamma, datum.rank):
                raise SchemaViolation(f"gamma must be {datum.rank} integers", "/gamma")
            out = induce_classical(problem, kind, a, gamma=tuple(gamma) if gamma else None)
        else:
            raise SchemaViolation(f"unknown induction kind {kind!r}", "/kind")
        return {
            "result": group_to_json(out),
            "dimension": dimension(out),
            "diagnostics": _diagnostics(problem),
        }

    if command == "branch":
        spec = doc["input"]
        if isinstance(spec, dict):
            ge = _group_from_doc(problem, spec)
        else:
            a = _resolve_input(doc, problem)
            mono = a.terms()
            ge = GroupElement.from_weights(datum, {w: c for w, c in mono})
        out = branch(problem, ge)
        return {
            "result": group_to_json(out),
            "dimension": dimension(out),
            "diagnostics": _diagnostics(problem),
        }

    if command == "bwb":
        if "mu" not in doc:
            raise SchemaViolation("bwb needs a weight mu", "/mu")
        mu = rational_from_json(doc["mu"], datum.rank, "/mu")
        out = bwb_irreducible(problem, mu)
        return {"result": group_to_json(out), "diagnostics": _diagnostics(problem)}

    if command == "multiplet":
        a = _resolve_input(doc, problem)
        m = multiplet(problem, a)
        return {
            "source": torus_to_json(m.source),
            "members": [group_to_json(g) for g in m.members],
            "signs": list(m.signs),
            "dimensions": list(m.dimensions),
            "alternating_dimension_sum": alternating_dimension_sum(m),
            "diagnostics": _diagnostics(problem),
        }

    if command == "pairing":
        basis_a, basis_b, tau = steinberg_pairing_bases(problem, doc["tau"])
        rep = pairing_report(problem, tau, basis_a, basis_b)
        return {
            "tau": doc["tau"],
            "basis_a": [torus_to_json(x) for x in rep.basis_a],
            "basis_b": [torus_to_json(x) for x in rep.basis_b],
            "gram": [[group_to_json(g) for g in row] for row in rep.gram],
            "determinant": torus_to_json(rep.determinant_character),
            "is_unit": rep.is_unit,
            "diagnostics": _diagnostics(problem),
        }

    if command == "spinc":
        c = classify(problem)
        payload = {
            "rho_m": rational_to_json(c.rho_m),
            "is_spin": c.is_spin,
            "is_c_spinorial": c.is_c_spinorial,
            "gamma": list(c.gamma) if c.gamma is not None else None,
            "torsor_note": c.torsor_note,
        }
        if c.gamma is not None:
            payload["nu_gamma"] = rational_to_json(nu(problem, c.gamma))
        return {"result": payload, "diagnostics": _diagnostics(problem)}

    if command == "lefschetz":
        kind = doc["kind"]
        if kind not in ("twisted", "hodge"):
            raise SchemaViolation(f"lefschetz takes kind twisted or hodge, not {kind!r}", "/kind")
        a = _resolve_input(doc, problem)
        e = euler_class(problem.sub)
        if kind == "hodge":
            e = multiply(e, dualize(e))
        rep = lefschetz_check(
            problem, e, a, trials=doc["trials"], seed=doc["seed"]
        )
        return {
            "trials": rep.trials,
            "mismatches": rep.mismatches,
            "prime": rep.prime,
            "passed": rep.mismatches == 0,
            "diagnostics": _diagnostics(problem),
        }

    raise SchemaViolation(f"unknown command {command!r}", "/command")


def _group_from_doc(problem, obj) -> GroupElement:
    scope = problem.datum if obj.get("scope", "G") == "G" else problem.sub
    weights = weights_from_json(obj.get("terms", []), problem.datum.rank, "/input/terms")
    return GroupElement.from_weights(scope, weights)


def _json_flag(text: str, pointer: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"invalid JSON: {exc}", pointer)


def _text_flag(text: str, pointer: str) -> str:
    return text


def _json_or_text_flag(text: str, pointer: str, parse_text=_text_flag):
    """JSON for a flag's text that opens a list or an object, `parse_text`
    of it otherwise."""
    if text.lstrip().startswith(("[", "{")):
        return _json_flag(text, pointer)
    return parse_text(text, pointer)


def parse_weight(text: str, pointer: str) -> Dict:
    """`c1,...,cr[/den]` as a weight field {num, den}.  The field rules
    check its values, and whoever reads it checks the rank, as for a weight
    in a problem document."""
    body, _, den = text.partition("/")
    try:
        return {"num": [int(x) for x in body.split(",")], "den": int(den or 1)}
    except ValueError:
        raise SchemaViolation(f"cannot parse weight {text!r}", pointer)


# every flag that sets a field of the problem document: the field (the flag
# is --field, with - for _), the parser of the flag's text and its help
_FLAGS = (
    ("group", _text_flag, "series label, e.g. G2 or B3:spin"),
    ("subgroup", _json_or_text_flag, "preset name, t, g, or JSON list (default t)"),
    ("input", _json_or_text_flag,
     "element: 1, e^rhoG, e^rhoM, spinor, euler, dual-euler, hodge, e^[c,...]/d, or JSON"),
    ("mu", lambda text, pointer: _json_or_text_flag(text, pointer, parse_weight),
     "weight for bwb, as JSON or c1,c2,...[/den]"),
    ("kind", _text_flag, "induce: twisted|holomorphic|spin|spinc; lefschetz: twisted|hodge"),
    ("gamma", lambda text, pointer: _json_flag(f"[{text}]", pointer),
     "character for spinc induction, c1,c2,..."),
    ("tau", _text_flag, "pairing twist, 0 or rhoM (default 0)"),
    ("twist", parse_weight, "G-side twist shift, c1,c2,...[/den]"),
    ("suite", _text_flag, "verify suite name (default all)"),
    ("seed", _json_flag, "random seed (default 0)"),
    ("trials", _json_flag, "lefschetz torsion-point count (default 20)"),
    ("max_weyl_order", _json_flag, "cap on the Weyl group orders a command enumerates"),
)
# what a problem gets for a field that both its flags and its document leave
# out, and the commands that read it, which echo it
_DEFAULTS = (
    ("seed", 0, COMMANDS),
    ("trials", 20, COMMANDS),
    ("suite", "all", COMMANDS),
    ("subgroup", "t", COMMANDS),
    ("tau", "0", ("pairing",)),
    ("kind", "twisted", ("induce", "lefschetz")),
    ("input", "1", ("induce", "branch", "multiplet", "lefschetz")),
)


# built on the first call of main and reused: parsing keeps no state in it
@cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spinduct",
        description="Exact twisted Spin^c induction calculus for compact Lie groups",
    )
    ap.add_argument("command", choices=COMMANDS)
    for field, _, help_text in _FLAGS:
        ap.add_argument("--" + field.replace("_", "-"), help=help_text)
    ap.add_argument("--problem", help="path to a JSON problem document (- for stdin)")
    ap.add_argument("--timing", action="store_true", help="include wall time (breaks byte determinism)")
    ap.add_argument("--pretty", action="store_true", help="indent JSON output")
    return ap


def _read_problem(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaViolation(f"cannot read problem document {path!r}: {exc}", pointer="")


def _doc_from_args(args) -> Dict:
    """The problem document with every given flag written over its field;
    the defaults fill only what both leave out."""
    doc = parse_problem(_read_problem(args.problem)) if args.problem else {}
    for field, parse, _ in _FLAGS:
        text = getattr(args, field)
        if text is not None:
            doc[field] = parse(text, "/" + field)
    for field, value, commands in _DEFAULTS:
        if args.command in commands:
            doc.setdefault(field, value)
    _check_fields(doc)
    if doc.get("command", args.command) != args.command:
        raise SchemaViolation(
            f"document command {doc['command']!r} disagrees with {args.command!r}",
            pointer="/command",
        )
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    saved_cap = rootdata.WEYL_ORDER_CAP
    try:
        doc = _doc_from_args(args)
        # the document's cap (or the flag's) holds for this call only
        if "max_weyl_order" in doc:
            rootdata.WEYL_ORDER_CAP = doc["max_weyl_order"]
        payload = _run_command(doc, args.command)
    except SchemaViolation as exc:
        _emit({"error": {"code": exc.code, "message": str(exc), "pointer": exc.pointer}})
        return 1
    except SpinductError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}})
        return 1
    finally:
        rootdata.WEYL_ORDER_CAP = saved_cap
    out = {"command": args.command, "problem": doc, **payload}
    if args.timing:
        out["timing_seconds"] = round(time.monotonic() - started, 6)
    status = _emit(out, indent=2 if args.pretty else None)
    return status or int(args.command == "verify" and not payload["passed"])


def _emit(doc: Dict, indent: Optional[int] = None) -> int:
    """Print one JSON document: 0, or 1 when stdout is closed.  Stdout is
    then pointed at devnull, so the flush at exit cannot fail again (the
    recipe of the `signal` module's documentation for SIGPIPE)."""
    try:
        print(json.dumps(doc, sort_keys=True, indent=indent), flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
