"""The verify driver: its rows, their counts, the registry and the
criterion-8 read-back under mutation."""

import os
import random
import re
import subprocess
import sys

import pytest

from spinduct import induction, multiplets, verify, zoo
from spinduct.charring import TorusElement, dualize, irreducible_restriction, multiply
from spinduct.errors import NotCSpinorial, NotDominant, UnknownSeries
from spinduct.induction import induce_between, lefschetz_check, make_problem
from spinduct.multiplets import multiplet
from spinduct.weyl import apply_antisymmetrizer
from spinduct.zoo import (
    ZOO_PAIRS,
    chain_triples,
    random_torus_element,
    zoo_groups,
    zoo_problem,
    zoo_problems,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _nontrivial_counts(results):
    counts = {}
    for r in results:
        m = re.fullmatch(r"(\d+) of (\d+) inputs nontrivial", r.detail)
        assert r.passed and m, r.line()
        counts[r.name] = int(m.group(1))
    return counts


def _replay(offset, trials, cases, draw, nontrivial):
    """Seed-0 draws replayed without the driver: the nontrivial count of
    each case, in order."""
    rng = random.Random(offset)
    return [
        sum(bool(nontrivial(case, draw(case, rng))) for _ in range(trials)) for case in cases
    ]


def _rho_element(p, rng, max_support=8):
    twist = p.datum.rho.residue_mod_one()
    return random_torus_element(p, rng, twist=twist, max_support=max_support)


def test_nontrivial_counts_match_a_replay_of_the_draws():
    pairs = [zoo_problem(g, h) for g, h in ZOO_PAIRS]
    got = _nontrivial_counts(verify.check_antisymmetrizers(0, trials=12))
    assert list(got) == [f"antisymmetrizers {g}/{h}" for g, h in ZOO_PAIRS]
    assert list(got.values()) == _replay(
        5, 12, pairs, _rho_element, lambda p, a: not apply_antisymmetrizer("J_G", a).is_zero()
    )

    got = _nontrivial_counts(verify.DIMENSION_SUMS(0, 12))
    assert list(got.values()) == _replay(
        6, 12, pairs, _rho_element,
        lambda p, a: any(not ge.is_zero() for ge in multiplet(p, a).members),
    )

    got = _nontrivial_counts(verify.check_functoriality(0, trials=10))
    assert list(got.values()) == _replay(
        4, 10, chain_triples(),
        lambda c, rng: _rho_element(
            make_problem(c[1].datum, c[2]), rng, 6 if c[1].datum.rank <= 3 else 3
        ),
        lambda c, a: not induce_between(c[1].datum, c[2], a).is_zero(),
    )
    # the F4 row tests something, and not everything
    assert 0 < got["functoriality T<H<F4/b4"] < 10


def _failed(results):
    return {r.name for r in results if not r.passed}


@pytest.mark.parametrize("mutate", ["empty", "off-by-one"])
def test_appendix_c_reads_back_its_decomposition(monkeypatch, mutate):
    real = verify.anti_invariant_decompose
    if mutate == "empty":
        fake = lambda ja, scope=None: {}  # noqa: E731
    else:
        def fake(ja, scope=None):
            dec = real(ja, scope)
            first = next(iter(dec), None)
            return {lam: c + (lam == first) for lam, c in dec.items()}
    monkeypatch.setattr(verify, "anti_invariant_decompose", fake)
    failed = _failed(verify.check_appendix_c(0))
    # every group draws a nonzero J_G at seed 0, the first at A1
    assert "appendix-c A1" in failed


def test_appendix_c_catches_a_wrong_quotient(monkeypatch):
    real = verify.divide_exact
    monkeypatch.setattr(verify, "divide_exact", lambda a, b: real(a, b).scale(2))
    failed = _failed(verify.check_appendix_c(0))
    # F4 (rank 4) checks the J(e^lam) basis, not the division
    assert "appendix-c A1" in failed and "appendix-c F4" not in failed


def test_functoriality_catches_a_doubled_induction(monkeypatch):
    real = verify.induce_between
    monkeypatch.setattr(verify, "induce_between", lambda *args: real(*args).scale(2))
    assert "functoriality T<H<F4/b4" in _failed(verify.check_functoriality(0))


def test_lefschetz_catches_a_doubled_induction(monkeypatch):
    real = induction.induce_twisted_spinc
    monkeypatch.setattr(induction, "induce_twisted_spinc", lambda *args: real(*args).scale(2))
    results = verify.check_lefschetz(0)
    assert _failed(results) == {f"lefschetz {g}/{h}" for g, h in ZOO_PAIRS}
    # a row stops at its first mismatch, and the spinor and Hodge operators
    # both have one at the first point
    assert all(r.detail.startswith("mismatches 1, 1, ") for r in results)
    # the spinor's left side is 1 and Hodge's |W^H|: doubled, neither agrees anywhere
    for _, p in zoo_problems():
        spinor = irreducible_restriction(p.sub, p.rho_m)
        hodge = multiply(p.euler, dualize(p.euler))
        assert lefschetz_check(p, p.euler, spinor).mismatches == 20
        assert lefschetz_check(p, hodge, TorusElement.unit(p.datum)).mismatches == 20


def test_lefschetz_and_spinc_rows_keep_their_work_counts(monkeypatch):
    """Three inductions per pair in the lefschetz rows, one for each
    operator's symbolic side, whatever the number of points; one
    classification per spinc record."""
    calls = []

    def counting(real):
        return lambda *args: calls.append(real) or real(*args)

    monkeypatch.setattr(induction, "induce_twisted_spinc", counting(induction.induce_twisted_spinc))
    assert not _failed(verify.check_lefschetz(0, trials=2))
    assert len(calls) == 3 * len(ZOO_PAIRS)
    calls.clear()
    monkeypatch.setattr(verify, "classify", counting(verify.classify))
    results = verify.check_spinc(0)
    assert not _failed(results) and len(calls) == len(results) == 15


def test_dimension_sum_control_catches_a_constant_sum(monkeypatch):
    monkeypatch.setattr(verify, "alternating_dimension_sum", lambda m: 0)
    # every proper-subgroup sum is 0 anyway; only the H = G control sees it
    assert _failed(verify.check_gkrs_dimension_sum(0, trials=2)) == {"gkrs-h-equals-g A2"}


def test_pairing_control_catches_a_constant_unit_test(monkeypatch):
    monkeypatch.setattr(induction, "_is_unit_character", lambda datum, det: True)
    failed = _failed(verify.check_pairing(0))
    assert failed == {f"pairing-unit {g}/t tau={tau}" for g in ("A1", "A2") for tau in ("0", "rhoM")}


def test_appendix_c_control_catches_a_constant_invariance_test(monkeypatch):
    monkeypatch.setattr(verify, "is_scope_invariant", lambda a, scope: True)
    # the control fails each rank <= 3 row before any draw, so also at two
    # trials, where the box filter leaves G2 and C2 no input that reaches
    # the check; F4 (rank 4) checks the J(e^lam) basis and runs no control
    rows = {f"appendix-c {g}" for g in ("A1", "A2", "A1xA1", "B2", "G2", "B3", "C2")}
    assert _failed(verify.check_appendix_c(0)) == rows
    assert _failed(verify.check_appendix_c(0, 2)) == rows


def test_gkrs_identity_compares_values(monkeypatch):
    real = verify.gkrs_identity_sides

    def one_more_monomial(p, a):
        lhs, rhs = real(p, a)
        # a trivial input has no key to copy; it reads 0 = 0 either way
        return lhs, rhs + lhs.replace_coeffs({k: 1 for k in list(lhs.coeffs)[:1]})

    def assert_nontrivial_rows_fail():
        results = verify.check_gkrs_identity(0, trials=4)
        # a row fails at its first nontrivial input, so passes only if it has none
        assert all(r.passed == r.detail.startswith("0 of") for r in results)
        assert "gkrs-identity A1/t" in _failed(results)

    with monkeypatch.context() as m:
        m.setattr(verify, "gkrs_identity_sides", one_more_monomial)
        assert_nontrivial_rows_fail()
    # the right side's own path: J_M^op a doubled before the H-side boundary
    real_sum = multiplets.apply_weyl_sum
    monkeypatch.setattr(
        multiplets, "apply_weyl_sum", lambda *args: {k: 2 * c for k, c in real_sum(*args).items()}
    )
    assert_nontrivial_rows_fail()


def _rows():
    return {name: v for name, v in vars(verify).items() if isinstance(v, verify.Row)}


def _short_rows(monkeypatch):
    """Every Row, in the module and in SUITES, at no more than two trials."""
    short = {id(row): row._replace(trials=min(row.trials, 2)) for row in _rows().values()}
    for name, row in _rows().items():
        monkeypatch.setattr(verify, name, short[id(row)])
    for key, fns in verify.SUITES.items():
        monkeypatch.setitem(verify.SUITES, key, [short.get(id(fn), fn) for fn in fns])


def test_every_check_sits_in_one_suite(monkeypatch):
    listed = [fn for fns in verify.SUITES.values() for fn in fns]
    checks = [v for name, v in vars(verify).items() if name.startswith("check_")]
    assert all(listed.count(fn) == 1 for fn in checks)
    assert len(listed) == len(checks)
    # the rows are all there is to the checks but two; run them at two trials at most
    _short_rows(monkeypatch)
    results = verify.run_suite("all")
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    # the checks outside the thirteen criteria reach tier-1 here
    assert not _failed(results)


def test_an_error_fails_its_case_alone(monkeypatch):
    """A SpinductError raised inside a case fails that case's row, with the
    error as its counterexample; the other cases run as before."""
    real = verify.bwb_irreducible

    def bwb(p, mu):
        if p.datum.cartan_label == "F4":
            raise NotDominant("raised on F4")
        return real(p, mu)

    want = verify.check_bwb_agreement(0, trials=2)
    monkeypatch.setattr(verify, "bwb_irreducible", bwb)
    got = verify.check_bwb_agreement(0, trials=2)
    assert _failed(got) == {"bwb-agreement F4/b4"}
    assert [r for r in got if r.passed] == [r for r in want if r.name != "bwb-agreement F4/b4"]
    (bad,) = [r for r in got if not r.passed]
    assert bad.counterexample == "not-dominant: raised on F4"
    assert bad.detail == "raised after 1 of 2 inputs"

    # the same on a fixed check, where the error comes from a case's setup
    real_classify = verify.classify

    def classify(p):
        if p.datum.cartan_label == "F4":
            raise NotCSpinorial("raised on F4")
        return real_classify(p)

    want = verify.check_spinc(0)
    monkeypatch.setattr(verify, "classify", classify)
    got = verify.check_spinc(0)
    assert _failed(got) == {"spinc-torsor-law F4/b4"}
    assert [r for r in got if r.passed] == [r for r in want if r.name != "spinc-torsor-law F4/b4"]
    (bad,) = [r for r in got if not r.passed]
    assert bad.counterexample == "not-c-spinorial: raised on F4"
    assert bad.detail == "raised after 0 of 1 inputs"


def test_an_error_in_a_check_gives_one_failing_record(monkeypatch):
    """A check raising on every case fails each of its records, and the
    suite goes on; run_suite records an error raised outside a Row as one
    failing record named after the check."""
    def classify(p):
        raise NotCSpinorial("raised by classify")

    names = [r.name for r in verify.check_spinc(0)]
    monkeypatch.setattr(verify, "classify", classify)
    results = verify.run_suite("spinc")
    assert [r.name for r in results] == names and len(names) == 15
    assert {(r.passed, r.detail, r.counterexample) for r in results} == {
        (False, "raised after 0 of 1 inputs", "not-c-spinorial: raised by classify"),
    }
    monkeypatch.setitem(verify.SUITES, "spinc", [verify.check_spinc, verify.check_appendix_b])
    assert [r.passed for r in verify.run_suite("spinc")] == [False] * 15 + [True, True]

    def build_root_datum(label, lattice):
        raise UnknownSeries("raised by build_root_datum")

    monkeypatch.setattr(verify, "build_root_datum", build_root_datum)
    assert [(r.name, r.passed, r.counterexample) for r in verify.run_suite("appendixB")] == [
        ("check_appendix_b", False, "unknown-series: raised by build_root_datum"),
    ]


def test_a_pair_added_to_the_zoo_reaches_every_check(monkeypatch):
    """The adjoint pair A1:root/t, added to the zoo's pair table alone,
    gets a record in every check that walks the pairs, and its group one in
    every check that walks the groups; every record passes."""
    labels = {label for label, _ in zoo_problems()}
    groups = {g for g, _ in zoo_groups()}
    monkeypatch.setattr(zoo, "ZOO_PAIRS", ZOO_PAIRS + (("A1:root", "t"),))
    _short_rows(monkeypatch)
    results = verify.run_suite("all")
    assert not _failed(results)
    cases = {}
    for r in results:
        check, _, case = r.name.rpartition(" ")
        cases.setdefault(check, set()).add(case)
    # a fixed record such as `gkrs-h-equals-g A2` names one case; a walk names them all
    walk_pairs = {check for check, seen in cases.items() if len(seen & labels) > 1}
    walk_groups = {check for check, seen in cases.items() if len(seen & groups) > 1}
    assert len(walk_pairs) == 13 and len(walk_groups) == 2
    assert all("A1:root/t" in cases[check] for check in walk_pairs)
    assert all("A1:root" in cases[check] for check in walk_groups)


def test_verify_walks_no_pair_list_of_its_own():
    assert "ZOO_PAIRS" not in vars(verify)


ROW_LINES = """
from spinduct import induction, verify
for name, row in sorted(vars(verify).items()):
    if isinstance(row, verify.Row):
        for r in row(0, trials=2):
            print(r.line(), r.counterexample)
"""


def test_rows_do_not_depend_on_the_hash_seed():
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
        outs.append(
            subprocess.run(
                [sys.executable, "-c", ROW_LINES], env=env, capture_output=True,
                text=True, check=True,
            ).stdout
        )
    assert outs[0] == outs[1]
    assert outs[0].count("PASS ") == len(outs[0].splitlines()) > 0
