import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from spinduct.cli import COMMANDS, main, parse_problem
from spinduct.errors import SchemaViolation
from spinduct.induction import TORSION_ORDER


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info(capsys):
    code, out = run_cli(capsys, "info", "--group", "G2", "--subgroup", "a2long")
    assert code == 0
    doc = json.loads(out)
    d = doc["diagnostics"]
    assert d["weyl_order"] == 12
    assert d["weyl_order_h"] == 6
    assert d["coset_count"] == 2
    assert d["rho_g"] == {"num": [1, 1], "den": 1}


def test_whset(capsys):
    code, out = run_cli(capsys, "whset", "--group", "F4", "--subgroup", "b4")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["representatives"]) == 3
    dets = [r["det"] for r in doc["representatives"]]
    assert sorted(dets) == [-1, 1, 1]


def test_induce_unit(capsys):
    code, out = run_cli(
        capsys, "induce", "--group", "B3:spin", "--subgroup", "so3xso4",
        "--input", "spinor",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 1
    assert doc["result"]["terms"] == [
        {"coeff": 1, "weight": {"num": [0, 0, 0], "den": 1}}
    ]


def test_induce_euler_characteristic(capsys):
    code, out = run_cli(
        capsys, "induce", "--group", "A2", "--subgroup", "t",
        "--input", "dual-euler",
    )
    doc = json.loads(out)
    assert doc["result"]["terms"][0]["coeff"] == 6


def test_multiplet_f4(capsys):
    code, out = run_cli(
        capsys, "multiplet", "--group", "F4", "--subgroup", "b4",
        "--input", "e^rhoG",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["members"]) == 3
    assert doc["alternating_dimension_sum"] == 0
    assert sorted(doc["dimensions"]) == [44, 84, 128]


def test_spinc_refusal(capsys):
    code, out = run_cli(
        capsys, "spinc", "--group", "B3:spin", "--subgroup", "so3xso4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["is_c_spinorial"] is False


def test_bwb(capsys):
    code, out = run_cli(
        capsys, "bwb", "--group", "A2", "--subgroup", "t", "--mu", "1,1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["terms"] == [
        {"coeff": 1, "weight": {"num": [0, 0], "den": 1}}
    ]


def test_pairing(capsys):
    code, out = run_cli(
        capsys, "pairing", "--group", "A1", "--subgroup", "t", "--tau", "rhoM"
    )
    doc = json.loads(out)
    assert doc["is_unit"] is True


def test_branch(capsys):
    code, out = run_cli(
        capsys, "branch", "--group", "A2", "--subgroup", "levi1",
        "--input", json.dumps({"scope": "G", "terms": [{"coeff": 1, "weight": [1, 1]}]}),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 8
    assert len(doc["result"]["terms"]) == 4


def test_lefschetz(capsys):
    code, out = run_cli(
        capsys, "lefschetz", "--group", "G2", "--subgroup", "a2long",
        "--input", "spinor", "--trials", "5", "--seed", "3",
    )
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["mismatches"] == 0 and doc["trials"] == 5
    assert doc["prime"] % TORSION_ORDER == 1


def test_verify_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "spinc", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_spinc_induction_refuses_a_gamma_outside_xh(capsys):
    """gamma = (2, 1) does not annihilate the coroot of levi1, so it is not
    a character of H; that is the refusal, before nu(gamma) is looked at."""
    code, out = run_cli(
        capsys, "induce", "--group", "A2", "--subgroup", "levi1", "--kind", "spinc",
        "--gamma", "2,1", "--input", "1",
    )
    assert code == 1
    assert json.loads(out)["error"]["code"] == "not-in-xh"


def test_domain_error_exit_code(capsys):
    code, out = run_cli(capsys, "info", "--group", "Z9")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["code"] == "unknown-series"
    code, out = run_cli(capsys, "bwb", "--group", "A2")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "schema-violation"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_determinism(capsys):
    argv = ["induce", "--group", "A2", "--subgroup", "levi1", "--input", "spinor"]
    _, out1 = run_cli(capsys, *argv)
    _, out2 = run_cli(capsys, *argv)
    assert out1 == out2


def test_subgroup_by_indices(capsys):
    # positive-root indices: A2 positives are alpha1, alpha2, alpha1+alpha2
    code, out = run_cli(
        capsys, "info", "--group", "A2", "--subgroup", "[0]"
    )
    assert code == 0
    assert json.loads(out)["diagnostics"]["weyl_order_h"] == 2


def test_parse_problem():
    # the defaults are filled by main, after the flags, not by the parser
    doc = parse_problem(json.dumps({"group": "A2", "subgroup": "t", "seed": 5}))
    assert doc == {"group": "A2", "subgroup": "t", "seed": 5}
    with pytest.raises(SchemaViolation) as exc:
        parse_problem("{bad json")
    with pytest.raises(SchemaViolation) as exc:
        parse_problem(json.dumps({"unknown_field": 1}))
    assert exc.value.pointer == "/unknown_field"
    with pytest.raises(SchemaViolation):
        parse_problem(json.dumps({"seed": "x"}))
    with pytest.raises(SchemaViolation):
        parse_problem(json.dumps({"command": "explode"}))


def test_problem_document_roundtrip(tmp_path, capsys):
    doc = {
        "command": "induce",
        "group": "G2",
        "subgroup": "a2long",
        "input": "spinor",
        "seed": 2,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "induce", "--problem", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["dimension"] == 1


def test_problem_command_disagreeing_with_positional_is_refused(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"group": "A2", "command": "bwb"})))
    code, out = run_cli(capsys, "info", "--problem", "-")
    assert code == 1
    assert len(out.splitlines()) == 1
    err = json.loads(out)["error"]
    assert (err["code"], err["pointer"]) == ("schema-violation", "/command")


def test_problem_command_matching_positional_is_accepted(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"group": "A2", "command": "info"})))
    code, out = run_cli(capsys, "info", "--problem", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == doc["problem"]["command"] == "info"


def _python(*args, stdout):
    """A fresh interpreter with the package sources on its path."""
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_closed_stdout_exits_1_without_traceback():
    import os

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python("-m", "spinduct.cli", "info", "--group", "A2", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [("info", "--group", "A2"), ("verify", "--suite", "weyl")])
def test_failed_self_check_is_one_json_record(argv):
    """A library self-check that fails (the coset count, with every Weyl
    order patched one too high in a fresh process, so no cache holds the
    pair) answers with one JSON document and exit 1, no traceback: an error
    record for a query, a failing check for verify."""
    import subprocess

    code = ("import sys; from spinduct import cli, rootdata; "
            "order = rootdata._order_from_heights; "
            "rootdata._order_from_heights = lambda *a: order(*a) + 1; "
            f"sys.exit(cli.main({list(argv)!r}))")
    proc = _python("-c", code, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (1, b"")
    lines = proc.stdout.decode().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    if argv[0] == "verify":
        assert not doc["passed"]
        failed = [c["counterexample"] for c in doc["checks"] if not c["passed"]]
        assert failed == ["internal-inconsistency: coset count mismatch"]
    else:
        assert doc["error"] == {"code": "internal-inconsistency", "message": "coset count mismatch"}


def test_an_explicit_weight_basis_changes_no_later_answer():
    """info on A2 with the identity lattice basis names the lattice "weight",
    and a pairing asked next in the same process answers with the bytes of
    a fresh process: the two data are equal, so they share one problem."""
    import subprocess

    doc = {"command": "info", "group": {"label": "A2", "lattice": [[1, 0], [0, 1]]}}
    pairing = ["pairing", "--group", "A2", "--subgroup", "t"]
    code = ("import io, sys; from spinduct import cli; "
            f"sys.stdin = io.StringIO({json.dumps(doc)!r}); "
            "cli.main(['info', '--problem', '-']); "
            f"sys.exit(cli.main({pairing!r}))")
    proc = _python("-c", code, stdout=subprocess.PIPE)
    fresh = _python("-m", "spinduct.cli", *pairing, stdout=subprocess.PIPE)
    assert (proc.returncode, fresh.returncode) == (0, 0)
    info, answer = proc.stdout.decode().splitlines()
    assert json.loads(info)["diagnostics"]["lattice"] == "weight"
    assert answer + "\n" == fresh.stdout.decode()


@pytest.mark.parametrize("patch, status", [
    ("", 0),
    ("verify.nu = lambda *a: verify.RationalWeight([1, 1]); ", 1),
])
def test_verify_exit_status_follows_the_checks(patch, status):
    """`spinduct verify` exits 0 when every check passes and 1 when one
    fails (here spinc-levi, with nu patched), with its one document either
    way."""
    import subprocess

    code = ("import sys; from spinduct import cli, verify; " + patch +
            "sys.exit(cli.main(['verify', '--suite', 'spinc']))")
    proc = _python("-c", code, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (status, b"")
    lines = proc.stdout.decode().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["passed"] is (status == 0)
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["spinc-levi"] * status


def test_cli_import_leaves_verify_unloaded():
    import subprocess

    code = "import sys, spinduct.cli; print('spinduct.verify' in sys.modules)"
    proc = _python("-c", code, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout.strip()) == (0, b"False")


def test_cli_cold_start_imports_no_dataclasses():
    """`dataclasses` pulls in inspect, ast, dis and tokenize, and `fractions`
    pulls in decimal and numbers, which every fresh CLI process would pay
    for; no module of the package uses either, nor `cmath`: the package
    computes in exact arithmetic only."""
    import pathlib
    import subprocess

    proc = _python("-X", "importtime", "-m", "spinduct.cli", "info", "--group", "A1",
                   stdout=subprocess.PIPE)
    assert proc.returncode == 0
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()]
    assert "spinduct.rootdata" in modules
    assert "dataclasses" not in modules
    assert not {"fractions", "decimal", "numbers", "cmath"} & set(modules)
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "spinduct"
    hits = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if "dataclass" in line]
    assert hits == []


def test_root_index_out_of_range(capsys):
    code, out = run_cli(capsys, "info", "--group", "A2", "--subgroup", "[9]")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["code"] == "schema-violation"
    assert doc["error"]["pointer"] == "/subgroup/0"


def test_problem_document_roundtrips_identically():
    text = json.dumps(
        {"command": "induce", "group": "A2", "subgroup": "t", "input": "e^rhoG"}
    )
    doc1 = parse_problem(text)
    doc2 = parse_problem(json.dumps(doc1))
    assert doc1 == doc2


def test_result_payload_deserializes_to_computed_value(capsys):
    from spinduct.charring import irreducible_restriction
    from spinduct.cli import _group_from_doc
    from spinduct.induction import induce_twisted_spinc
    from spinduct.zoo import zoo_problem

    code, out = run_cli(
        capsys, "induce", "--group", "G2", "--subgroup", "a2long",
        "--input", "dual-euler",
    )
    assert code == 0
    payload = json.loads(out)["result"]
    p = zoo_problem("G2", "a2long")
    from spinduct.charring import dualize

    expect = induce_twisted_spinc(p, dualize(p.euler))
    assert _group_from_doc(p, payload) == expect


def test_weyl_order_cap_flag(capsys):
    import spinduct.rootdata as rd

    saved = rd.WEYL_ORDER_CAP
    try:
        code, out = run_cli(
            capsys, "info", "--group", "C2", "--subgroup", "t",
            "--max-weyl-order", "4",
        )
        assert code == 1
        assert json.loads(out)["error"]["code"] == "order-cap-exceeded"
    finally:
        rd.WEYL_ORDER_CAP = saved


def test_weyl_order_cap_flag_holds_for_one_call(capsys):
    import spinduct.rootdata as rd

    saved = rd.WEYL_ORDER_CAP
    code, _ = run_cli(capsys, "info", "--group", "A1", "--max-weyl-order", "2")
    assert code == 0
    assert rd.WEYL_ORDER_CAP == saved
    code, out = run_cli(capsys, "info", "--group", "A2")
    assert code == 0, out


def test_problem_document_weyl_order_cap_is_applied(capsys, monkeypatch):
    import io
    import spinduct.rootdata as rd

    saved = rd.WEYL_ORDER_CAP
    doc = {"command": "info", "group": "A2", "max_weyl_order": 2}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out = run_cli(capsys, "info", "--problem", "-")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "order-cap-exceeded"
    assert rd.WEYL_ORDER_CAP == saved
    with pytest.raises(SchemaViolation) as exc:
        parse_problem(json.dumps({"max_weyl_order": "2"}))
    assert exc.value.pointer == "/max_weyl_order"


def test_unknown_induction_kind_is_schema_violation(capsys):
    code, out = run_cli(
        capsys, "induce", "--group", "A2", "--subgroup", "t",
        "--kind", "bogus", "--input", "spinor",
    )
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["code"], err["pointer"]) == ("schema-violation", "/kind")


def test_zero_denominators_are_schema_violations(capsys):
    for argv, pointer in [
        (("induce", "--group", "A2", "--input", "e^[1,1]/0"), "/input"),
        (("bwb", "--group", "A2", "--subgroup", "t", "--mu", "1,1/0"), "/mu/den"),
        (("induce", "--group", "A2", "--twist", "1,1/0", "--input", "1"), "/twist/den"),
    ]:
        code, out = run_cli(capsys, *argv)
        assert code == 1
        err = json.loads(out)["error"]
        assert (err["code"], err["pointer"]) == ("schema-violation", pointer)


def test_problem_document_keeps_seed_trials_and_suite(tmp_path, capsys, monkeypatch):
    import io

    doc = {"command": "verify", "suite": "spinc", "seed": 7, "trials": 3}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out = run_cli(capsys, "verify", "--problem", "-")
    assert code == 0
    result = json.loads(out)
    assert result["suite"] == "spinc" and result["seed"] == 7
    assert {k: result["problem"][k] for k in doc} == doc
    # explicit flags still win over the document
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", "--problem", str(path), "--seed", "2")
    assert json.loads(out)["problem"]["seed"] == 2


# a value for every flag that sets a problem field, and the field it echoes
_FLAG_SAMPLES = {
    "--group": ("A2", "A2"),
    "--subgroup": ("[0]", [0]),
    "--input": ("e^rhoG", "e^rhoG"),
    "--mu": ("1,1/2", {"num": [1, 1], "den": 2}),
    "--kind": ("SpinC", "spinc"),
    "--gamma": ("1,1", [1, 1]),
    "--tau": ("rhoM", "rhoM"),
    "--twist": ("0,0", {"num": [0, 0], "den": 1}),
    "--suite": ("spinc", "spinc"),
    "--seed": ("3", 3),
    "--trials": ("5", 5),
    "--max-weyl-order": ("100", 100),
}


def test_every_flag_reaches_the_problem(capsys):
    """Each option of the parser is echoed as its field of the problem, or
    shapes only the output (--timing, --pretty) or the document read
    (--problem)."""
    from spinduct.cli import build_parser

    options = [opt for action in build_parser()._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"]
    assert set(options) - {"--timing", "--pretty", "--problem"} == set(_FLAG_SAMPLES)
    for flag, (text, echoed) in _FLAG_SAMPLES.items():
        argv = ["info", "--group", "A2", flag, text]
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out)["problem"][flag[2:].replace("-", "_")] == echoed, argv


# the defaults that only some commands read, and those commands
_READ_DEFAULTS = {
    "tau": ("0", {"pairing"}),
    "kind": ("twisted", {"induce", "lefschetz"}),
    "input": ("1", {"induce", "branch", "multiplet", "lefschetz"}),
}


@pytest.mark.parametrize("command", ["info", "whset", "induce", "branch", "bwb",
                                     "multiplet", "pairing", "spinc", "lefschetz"])
def test_every_default_a_command_reads_is_echoed(capsys, command):
    """A command echoes each default it answers with, and no default it
    does not read; giving the default as a flag changes nothing."""
    argv = [command, "--group", "A1"] + (["--mu", "0"] if command == "bwb" else [])
    code, out = run_cli(capsys, *argv)
    problem = json.loads(out)["problem"]
    flags = []
    for field, (value, readers) in _READ_DEFAULTS.items():
        assert problem.get(field) == (value if command in readers else None), field
        if command in readers:
            flags += ["--" + field, value]
    assert run_cli(capsys, *argv, *flags) == (code, out)


def test_an_unstable_twist_is_one_refusal_on_every_command(capsys):
    """sigma = (1, 0)/3 on A2 is moved by W: the problem refuses it when it
    is built, so every command that builds one gives the same record."""
    argv = ("--group", "A2", "--twist", "1,0/3")
    outs = {run_cli(capsys, c, *argv, *(("--mu", "1,0/3") if c == "bwb" else ()))
            for c in COMMANDS if c != "verify"}
    assert len(outs) == 1
    code, out = outs.pop()
    assert code == 1 and json.loads(out)["error"]["code"] == "bad-twist"


def test_tau_flag_answers_as_the_document_does(capsys, monkeypatch):
    import io

    code, by_flag = run_cli(capsys, "pairing", "--group", "A2", "--subgroup", "t",
                            "--tau", "rhoM")
    assert code == 0
    doc = {"group": "A2", "subgroup": "t", "tau": "rhoM"}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert run_cli(capsys, "pairing", "--problem", "-") == (0, by_flag)
    result = json.loads(by_flag)
    assert (result["tau"], result["problem"]["tau"], result["is_unit"]) == ("rhoM", "rhoM", True)
    code, untwisted = run_cli(capsys, "pairing", "--group", "A2", "--subgroup", "t",
                              "--tau", "0")
    assert code == 0 and untwisted != by_flag
    assert json.loads(untwisted)["basis_a"] != result["basis_a"]


@pytest.mark.parametrize("flags, subgroup, cosets", [
    ((), "levi1", 3),
    (("--subgroup", "t"), "t", 6),
])
def test_subgroup_flag_overrides_the_document(capsys, monkeypatch, flags, subgroup, cosets):
    import io

    doc = {"group": "A2", "subgroup": "levi1"}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out = run_cli(capsys, "info", "--problem", "-", *flags)
    assert code == 0
    result = json.loads(out)
    assert result["problem"]["subgroup"] == subgroup
    assert result["diagnostics"]["coset_count"] == cosets


@pytest.mark.parametrize("argv, field, pointer", [
    (("info", "--group", "A2", "--max-weyl-order", "0"), {"max_weyl_order": 0}, "/max_weyl_order"),
    (("info", "--group", "A2", "--max-weyl-order", "-1"), {"max_weyl_order": -1}, "/max_weyl_order"),
    (("lefschetz", "--group", "A2", "--trials", "0"), {"trials": 0}, "/trials"),
    (("lefschetz", "--group", "A2", "--trials", "-3"), {"trials": -3}, "/trials"),
])
def test_flags_follow_the_document_field_rules(capsys, monkeypatch, argv, field, pointer):
    import io

    code, out = run_cli(capsys, *argv)
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["code"], err["pointer"]) == ("schema-violation", pointer)
    doc = {"command": argv[0], "group": "A2", **field}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out = run_cli(capsys, argv[0], "--problem", "-")
    assert code == 1
    assert json.loads(out)["error"] == err


def test_e6_queries_build_the_root_datum_once(capsys, monkeypatch):
    import spinduct.rootdata as rd

    built = []
    init = rd.RootDatum.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(rd.RootDatum, "__init__", counting_init)
    rd.forget_scopes()
    a2_cubed = json.dumps([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                           [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1], [1, 2, 2, 3, 2, 1]])
    for argv in (("info",), ("bwb", "--mu", "1,0,0,0,0,1")):
        code, out = run_cli(capsys, *argv, "--group", "E6", "--subgroup", a2_cubed)
        assert code == 0, out
    assert built == ["E6"]
    # the cached E6 is still refused by a lower per-call cap
    code, out = run_cli(
        capsys, "info", "--group", "E6", "--subgroup", a2_cubed, "--max-weyl-order", "100"
    )
    assert code == 1
    assert json.loads(out)["error"]["code"] == "order-cap-exceeded"
    assert built == ["E6"]


@pytest.mark.parametrize("argv, pointer", [
    (("induce", "--group", "A2", "--kind", "spinc", "--gamma", "1,x"), "/gamma"),
    (("induce", "--group", "A2", "--kind", "spinc", "--gamma", "1,1,1"), "/gamma"),
    (("info", "--problem", "/nonexistent.json"), ""),
    (("induce", "--group", "A2", "--input", '{"terms":3}'), "/input/terms"),
    (("branch", "--group", "A2", "--input", '{"terms":3}'), "/input/terms"),
    (("branch", "--group", "A2", "--input",
      '{"terms":[{"coeff":1,"weight":[1,0]},{"coeff":1,"weight":{"num":[1,0],"den":2}}]}'),
     "/input/terms/1/weight"),
    (("info", "--group", "A2", "--subgroup", '["x"]'), "/subgroup/0"),
    (("info", "--group", "A2", "--subgroup", "[1.5]"), "/subgroup/0"),
    (("info", "--group", "A2", "--subgroup", "[null]"), "/subgroup/0"),
    (("info", "--group", "A2", "--subgroup", "[0, [1]]"), "/subgroup/1"),
    (("info", "--group", "A2", "--subgroup", "[x"), "/subgroup"),
    (("bwb", "--group", "A2", "--mu", "{x"), "/mu"),
    (("induce", "--group", "A2", "--input",
      '{"terms":[{"coeff":1,"weight":[1,0]},{"coeff":1,"weight":{"num":[1,0],"den":2}}]}'),
     "/input/terms/1/weight"),
    (("lefschetz", "--group", "A2", "--kind", "spin", "--input", "spinor"), "/kind"),
])
def test_malformed_flags_are_schema_violations(capsys, argv, pointer):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["code"], err["pointer"]) == ("schema-violation", pointer)


_SMALL = st.integers(-3, 3)
_JSON_ITEM = st.one_of(_SMALL, st.none(), st.floats(allow_nan=False), st.text(max_size=3),
                       st.lists(_SMALL, max_size=3))
_WEIGHT_TEXT = st.builds(
    lambda v, den: ",".join(map(str, v)) + (f"/{den}" if den is not None else ""),
    st.lists(_SMALL, max_size=3), st.one_of(st.none(), st.integers(-2, 2)),
)
_TERMS = st.one_of(
    st.lists(st.fixed_dictionaries({"coeff": _SMALL, "weight": st.one_of(
        st.lists(_SMALL, min_size=2, max_size=2),
        st.fixed_dictionaries({"num": st.lists(_SMALL, max_size=3), "den": st.integers(-1, 2)}),
    )}), max_size=3),
    _JSON_ITEM,
)
_FLAG_VALUES = {
    "gamma": st.one_of(st.text(max_size=8), _WEIGHT_TEXT),
    "subgroup": st.one_of(
        st.text(max_size=8),
        st.sampled_from(["t", "g", "levi1", "levi2", "a2long", "so3xso4"]),
        st.lists(_JSON_ITEM, max_size=3).map(json.dumps),
    ),
    "input": st.one_of(
        st.text(max_size=8),
        st.sampled_from(["1", "e^rhoG", "e^rhoM", "spinor", "euler", "e^[1,-1]", "e^[1,1]/2"]),
        st.builds(lambda t: "e^[" + t + "]", _WEIGHT_TEXT),
        st.fixed_dictionaries({"terms": _TERMS}, optional={"scope": st.sampled_from(["G", "H"])})
        .map(json.dumps),
    ),
    "mu": st.one_of(
        st.text(max_size=8),
        _WEIGHT_TEXT,
        st.fixed_dictionaries(
            {"num": st.one_of(_JSON_ITEM, st.lists(st.one_of(_SMALL, st.booleans()), max_size=3))},
            optional={"den": st.one_of(_JSON_ITEM, st.booleans())},
        ).map(json.dumps),
    ),
    "twist": st.one_of(st.text(max_size=8), _WEIGHT_TEXT),
}


def _mostly(valid):
    """Values of `valid` three times in four, arbitrary JSON items otherwise
    (a plain one_of would flatten _JSON_ITEM's branches and rarely draw a
    valid value)."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else _JSON_ITEM)


# verify suites: the two quick ones or invalid values, never the whole suite
_SUITE = _mostly(st.sampled_from(["spinc", "appendixB", "bogus"])).filter(lambda s: s != "all")


# problem documents with any of the known fields, each arbitrary JSON one
# time in four and an integer field a boolean one time in two
_NOISY_WEIGHT = _mostly(st.fixed_dictionaries(
    {"num": st.lists(_SMALL, min_size=1, max_size=3)},
    optional={"den": st.one_of(_mostly(st.integers(-1, 3)), st.booleans())},
))
_NOISY_DOC = st.fixed_dictionaries({}, optional={
    "command": _mostly(st.sampled_from(["info", "bwb", "verify", "pairing", "spinc", "lefschetz"])),
    "group": _mostly(st.one_of(
        st.sampled_from(["A2", "B2", "B2:root", "Q9"]),
        st.fixed_dictionaries({"label": _mostly(st.sampled_from(["A2", "B2", "Z"]))},
                              optional={"lattice": _mostly(st.sampled_from(["weight", "root", "Root", "x"]))}),
    )),
    "subgroup": _mostly(st.sampled_from(["t", "g", "levi1"])),
    "twist": _NOISY_WEIGHT,
    "input": _mostly(st.one_of(
        st.sampled_from(["1", "e^rhoG", "e^rhoM", "spinor", "euler"]),
        st.fixed_dictionaries({"terms": _TERMS}),
    )),
    "mu": _NOISY_WEIGHT,
    "kind": _mostly(st.sampled_from(["twisted", "spinc", "spin", "SPIN", "holomorphic", "hodge"])),
    "gamma": _mostly(st.lists(_SMALL, min_size=2, max_size=2)),
    "tau": _mostly(st.sampled_from(["0", "rhoM", "x"])),
    "suite": _SUITE,
    "seed": st.one_of(_mostly(st.integers(0, 3)), st.booleans()),
    "trials": st.one_of(_mostly(st.integers(0, 3)), st.booleans()),
    "max_weyl_order": st.one_of(_mostly(st.integers(-1, 8)), st.booleans()),
})
# well-formed rank-2 documents with no command and no twist, which most
# commands answer
_CLEAN_DOC = st.fixed_dictionaries({"group": st.sampled_from(
    ["A2", "B2", "B2:root", {"label": "A2"}, {"label": "B2", "lattice": "root"}]
)}, optional={
    "subgroup": st.sampled_from(["t", "g", "levi1"]),
    "input": st.sampled_from(["1", "e^rhoG", "e^rhoM", "spinor", "euler"]),
    "mu": st.fixed_dictionaries({"num": st.lists(st.integers(0, 2), min_size=2, max_size=2)},
                                optional={"den": st.just(1)}),
    "kind": st.sampled_from(["twisted", "spinc", "spin", "holomorphic", "hodge"]),
    "gamma": st.lists(_SMALL, min_size=2, max_size=2),
    "tau": st.sampled_from(["0", "rhoM"]),
    "suite": _SUITE,
    "seed": st.integers(0, 3),
    "trials": st.integers(1, 3),
    "max_weyl_order": st.integers(8, 100),
})
_PROBLEM_DOC = _mostly(st.one_of(_NOISY_DOC, _CLEAN_DOC))


def _assert_cli_contract(argv, stdin=""):
    """Exit 0 or 1, exactly one JSON document on stdout, never a traceback;
    returns the exit code, the document and stdout."""
    import contextlib
    import io
    import sys

    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
    assert code in (0, 1)
    doc = json.loads(out.getvalue())
    assert len(out.getvalue().splitlines()) == 1
    assert "Traceback" not in err.getvalue()
    return code, doc, out.getvalue()


_COMMANDS = st.sampled_from(["info", "whset", "induce", "branch", "bwb", "multiplet"])
_DOC_COMMANDS = st.sampled_from(
    ["info", "whset", "induce", "branch", "bwb", "multiplet", "pairing", "spinc", "lefschetz",
     "verify"]
)


def _problem_schema():
    import spinduct

    path = os.path.join(os.path.dirname(spinduct.__file__), "schema", "problem.schema.json")
    with open(path) as fh:
        return json.load(fh)


@settings(max_examples=100, deadline=None)
@given(
    _COMMANDS,
    st.sampled_from([None, "twisted", "holomorphic", "spinc", "spin", "SpinC"]),
    st.sampled_from(["A2", "B2", "G2", "B3"]),
    st.fixed_dictionaries({}, optional=_FLAG_VALUES),
)
def test_cli_contract_on_drawn_flags(command, kind, group, flags):
    """Flags alone on rank-2 and rank-3 groups with their presets, and every
    induce kind: the problem an exit-0 run echoes validates against the
    shipped schema, and the same fields sent as a --problem - document give
    the same exit code and bytes."""
    import jsonschema

    from spinduct.cli import _FLAGS

    given = {"group": group, **({"kind": kind} if kind else {}), **flags}
    argv = [command] + [f"--{name}={value}" for name, value in given.items()]
    code, out, text = _assert_cli_contract(argv)
    if code == 0:
        jsonschema.validate(out["problem"], _problem_schema())
    try:
        # the document lists its fields in the table's order, as the flags
        # enter the problem, so both meet a second bad field alike
        doc = {field: parse(given[field], "/" + field)
               for field, parse, _ in _FLAGS if field in given}
    except SchemaViolation as exc:
        assert (code, out["error"]["pointer"]) == (1, exc.pointer)
        return
    doc_code, _, doc_text = _assert_cli_contract([command, "--problem", "-"], json.dumps(doc))
    assert (doc_code, doc_text) == (code, text)


@settings(max_examples=300, deadline=None)
@given(_DOC_COMMANDS, st.sampled_from([None, "A2", "B2"]), _PROBLEM_DOC, _SUITE)
def test_cli_contract_on_drawn_problem_documents(command, group, doc, suite):
    """Whole documents on stdin through --problem -, with or without a
    --group flag overriding the document's group.  A verify document always
    names a quick suite or an invalid one.  A document that exits 0 (with
    kind and a named lattice lowercased), and the problem the output
    echoes, validate against the shipped schema."""
    import jsonschema

    if command == "verify" and isinstance(doc, dict):
        doc = {**doc, "suite": suite}
    code, out, _ = _assert_cli_contract(
        [command, "--problem", "-"] + (["--group", group] if group else []), json.dumps(doc)
    )
    if code == 0:
        schema = _problem_schema()
        if isinstance(doc.get("kind"), str):
            doc = {**doc, "kind": doc["kind"].lower()}
        if isinstance(doc.get("group"), dict) and isinstance(doc["group"].get("lattice"), str):
            doc = {**doc, "group": {**doc["group"], "lattice": doc["group"]["lattice"].lower()}}
        jsonschema.validate(doc, schema)
        jsonschema.validate(out["problem"], schema)


@pytest.mark.parametrize("command, doc, pointer", [
    # documents that raised TypeError or AttributeError
    ("verify", {"suite": ["weyl"]}, "/suite"),
    ("info", {"group": {"label": "A2", "lattice": 5}}, "/group/lattice"),
    ("info", {"group": {"label": ["A2"]}}, "/group/label"),
    # unknown suites, once domain errors with no pointer
    ("verify", {"suite": "bogus"}, "/suite"),
    ("verify", {"suite": 5}, "/suite"),
    # booleans where an integer is due
    ("info", {"group": "A2", "seed": True}, "/seed"),
    ("lefschetz", {"group": "A2", "trials": True}, "/trials"),
    ("info", {"group": "A2", "max_weyl_order": True}, "/max_weyl_order"),
    ("bwb", {"group": "A2", "mu": {"num": [1, 1], "den": True}}, "/mu/den"),
    ("bwb", {"group": "A2", "mu": [1, True]}, "/mu/1"),
    ("info", {"group": "A2", "subgroup": [True]}, "/subgroup/0"),
    # a pairing twist other than 0 and rhoM
    ("pairing", {"group": "A2", "tau": "x"}, "/tau"),
    # a field no command reads
    ("multiplet", {"group": "A2", "signs": [1, -1]}, "/signs"),
])
def test_problem_document_field_errors_have_pointers(capsys, monkeypatch, command, doc, pointer):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out = run_cli(capsys, command, "--problem", "-")
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["code"], err["pointer"]) == ("schema-violation", pointer)


def test_booleans_are_not_integers_in_element_objects(capsys):
    for argv, pointer in [
        (("bwb", "--group", "A2", "--mu", '{"num":[1,1],"den":true}'), "/mu/den"),
        (("induce", "--group", "A2", "--input", '{"terms":[{"coeff":true,"weight":[1,0]}]}'),
         "/input/terms/0/coeff"),
        (("induce", "--group", "A2", "--kind", "spinc", "--gamma", "1,1", "--input",
          '{"terms":[{"coeff":1,"weight":{"num":[1,false]}}]}'), "/input/terms/0/weight/num/1"),
    ]:
        code, out = run_cli(capsys, *argv)
        assert code == 1
        err = json.loads(out)["error"]
        assert (err["code"], err["pointer"]) == ("schema-violation", pointer)


def test_late_flags_follow_the_field_rules(capsys):
    """--mu, --gamma and --twist are checked as document fields, whatever
    the command does with them."""
    for argv, pointer in [
        (("info", "--group", "A2", "--mu", '{"num":[true,1]}'), "/mu/num/0"),
        (("info", "--group", "A2", "--mu", '{"num":[1,1],"den":0}'), "/mu/den"),
        (("info", "--group", "A2", "--mu", "1,1/0"), "/mu/den"),
        (("info", "--group", "A2", "--twist", "1,1/-2"), "/twist/den"),
    ]:
        code, out = run_cli(capsys, *argv)
        assert code == 1, argv
        err = json.loads(out)["error"]
        assert (err["code"], err["pointer"]) == ("schema-violation", pointer)


def test_kind_and_lattice_names_ignore_case(capsys, monkeypatch):
    """Case variants of kind and of a named lattice are answered as the
    lowercase names are, and echoed lowercased, so the echo validates."""
    import io

    import jsonschema

    base = ("induce", "--group", "A2", "--input", "1", "--gamma", "2,2")
    code, lower = run_cli(capsys, *base, "--kind", "spinc")
    assert code == 0
    assert run_cli(capsys, *base, "--kind", "SPINC") == (0, lower)
    outs = []
    for lattice in ("root", "ROOT"):
        doc = {"group": {"label": "B2", "lattice": lattice}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out = run_cli(capsys, "info", "--problem", "-")
        assert code == 0
        outs.append(out)
        jsonschema.validate(json.loads(out)["problem"], _problem_schema())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["diagnostics"]["lattice"] == "root"


def test_field_rules_list_what_the_schema_lists():
    """The enumerated fields of cli's rules, the schema and the verify
    suites agree."""
    from spinduct.cli import _CHOICES, _LATTICES
    from spinduct.verify import SUITES

    props = _problem_schema()["properties"]
    for field, (choices, _) in _CHOICES.items():
        assert list(choices) == props[field]["enum"], field
    assert sorted(_CHOICES["suite"][0]) == sorted(["all", *SUITES])
    lattice = props["group"]["oneOf"][1]["properties"]["lattice"]["oneOf"][0]["enum"]
    assert list(_LATTICES) == lattice


def _uncached_diagnostics(problem):
    """_diagnostics as computed before the per-datum constants: the Smith
    normal forms redone on every call; kept as an oracle."""
    from spinduct import kernels
    from spinduct.rootdata import subgroup_character_lattice
    from spinduct.serialize import rational_to_json

    datum, sub = problem.datum, problem.sub
    pi1 = datum.fundamental_group_invariants()
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
        "pi1_invariants": list(pi1),
        "pi1_torsion_free": all(f <= 1 for f in pi1),
        "levi": sub.is_levi,
        "xh_rank": subgroup_character_lattice(sub).rank,
        "kernel_backend": kernels.backend_name(),
    }


def test_diagnostics_match_the_uncached_computation():
    from spinduct.cli import _diagnostics
    from spinduct.induction import make_problem
    from spinduct.rootdata import build_root_datum
    from spinduct.zoo import subgroup_by_name, zoo_problems

    so7 = build_root_datum("B3", "root")
    pairs = zoo_problems() + [("B3:root/t", make_problem(so7, subgroup_by_name(so7, "t")))]
    for name, p in pairs:
        # the first call fills the cached values, the second reads them
        assert _diagnostics(p) == _uncached_diagnostics(p), name
        assert _diagnostics(p) == _uncached_diagnostics(p), name
        assert isinstance(p.datum.pi1_invariants, tuple)
        assert p.datum.pi1_invariants is p.datum.pi1_invariants
        assert type(p.sub.xh_rank) is int
    # B3 on its root lattice is SO(7): pi_1 = Z/2
    assert _diagnostics(pairs[-1][1])["pi1_invariants"][-1] == 2


def test_one_process_answers_as_fresh_processes_do(capsys):
    """The parser is built once per process and reused: a sequence of calls
    in one process prints what fresh processes print, byte for byte, and
    exits alike."""
    import os
    import subprocess
    import sys

    import spinduct

    sequence = [
        ["info", "--group", "A2", "--no-such-flag"],
        ["nosuchcommand"],
        ["bwb", "--group", "A2", "--subgroup", "levi1"],
        ["info", "--group", "A2", "--subgroup", "levi1", "--pretty"],
        ["info", "--group", "A2", "--subgroup", "levi1"],
        ["multiplet", "--group", "A2", "--subgroup", "levi1", "--input", "e^[2,1]", "--seed", "3"],
        ["multiplet", "--group", "B2", "--input", "e^rhoG"],
        ["info", "--group", "A2", "--no-such-flag"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinduct.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    codes = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "spinduct.cli"] + argv,
                               capture_output=True, text=True, env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        codes.append(code)
    assert codes == [2, 2, 1, 0, 0, 0, 0, 2]


# --subgroup as presets (some unknown to the group), root indices (some out
# of range) or simple-root coordinate vectors (some not roots)
_SUBGROUP_SPEC = st.one_of(
    st.sampled_from(["t", "g", "levi1", "levi2", "a1xa1", "[]", "[0]", "[2]", "[0, 1]", "[3]",
                     "[[1, 0]]", "[[0, 1]]", "[[1, 1]]", "[[1, 2]]", "[[2, 0]]"]),
    st.lists(st.integers(-1, 4), max_size=3).map(json.dumps),
    st.lists(st.lists(st.integers(-1, 2), min_size=2, max_size=2), max_size=2).map(json.dumps),
)
# e^[a,b]/d monomials: many lie outside the [rho_G] class a multiplet needs,
# or are not dominant as a branch input; d = 0 and rank-1 ones are malformed
_MONOMIAL = st.builds(
    lambda nums, den: "e^[" + ",".join(map(str, nums)) + "]" + ("" if den is None else f"/{den}"),
    st.sampled_from([2, 2, 2, 1]).flatmap(
        lambda n: st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
    st.sampled_from([None, None, 1, 2, 2, 3, 0, -2]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["multiplet", "branch"]),
    st.sampled_from(["A2", "B2", "B2:root"]),
    _SUBGROUP_SPEC,
    _MONOMIAL,
    st.one_of(st.none(), st.sampled_from(["0,0", "1,0/2", "0,1/2", "1,1/2"])),
)
def test_cli_contract_on_drawn_multiplets_and_branches(command, group, subgroup, monomial, twist):
    """Every value goes as --flag=value, so none is read as an option and a
    draw is never a usage error: each must exit 0 or 1 with one JSON
    document and no traceback."""
    argv = [command, f"--group={group}", f"--subgroup={subgroup}", f"--input={monomial}"]
    _assert_cli_contract(argv + ([f"--twist={twist}"] if twist else []))
