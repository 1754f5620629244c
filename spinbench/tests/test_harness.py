"""Tests of the benchmark harness itself (not of spinduct).

    python3 -m pytest -q spinbench/tests
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# --- percentile rule ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert checks.percentile(xs, 0.9) == 90
    assert checks.percentile(xs, 0.5) == 50
    assert checks.percentile([7.0], 0.9) == 7.0
    # p90 of 100 samples leaves exactly 10 above it
    assert sum(1 for x in xs if x > checks.percentile(xs, 0.9)) == 10


def test_tail_quantile_keeps_ten_samples_beyond():
    assert checks.tail_quantile(100) == pytest.approx(0.9)
    assert checks.tail_quantile(1000) == pytest.approx(0.9)
    assert checks.tail_quantile(50) == pytest.approx(0.8)
    assert checks.tail_quantile(15) == 0.5
    for n in (20, 37, 64, 99, 100, 250):
        xs = list(range(n))
        q = checks.tail_quantile(n)
        assert sum(1 for x in xs if x > checks.percentile(xs, q)) >= 10


def test_median():
    assert checks.median([3, 1, 2]) == 2
    assert checks.median([4, 1, 2, 3]) == 2.5


# --- failure counting ------------------------------------------------------------

VALID = checks.Command("multiplet", ("multiplet", "--group", "A2", "--input", "e^[1,0]"))
MALFORMED = checks.Command("zero-denominator", ("induce", "--group", "A2", "--input", "e^[1,1]/0"),
                           malformed=True)
ERROR_RECORD = json.dumps({"error": {"code": "schema-violation", "message": "x"}})
TRACEBACK = "Traceback (most recent call last):\n  ...\nZeroDivisionError: boom\n"


def _multiplet_payload(dims, signs):
    return json.dumps({"command": "multiplet", "problem": {}, "dimensions": dims,
                       "signs": signs, "alternating_dimension_sum": sum(
                           s * d for s, d in zip(signs, dims))})


def test_traceback_counts_as_failed():
    assert checks.judge(MALFORMED, 1, "", TRACEBACK).failed
    assert checks.judge(VALID, 1, "", TRACEBACK).failed


def test_error_record_on_malformed_input_is_a_success():
    verdict = checks.judge(MALFORMED, 1, ERROR_RECORD + "\n", "")
    assert not verdict.failed and not verdict.wrong


def test_usage_error_on_malformed_input_is_a_success():
    verdict = checks.judge(MALFORMED, 2, "", "usage: spinduct ...\n")
    assert not verdict.failed


def test_malformed_input_answered_with_a_payload_fails():
    assert checks.judge(MALFORMED, 0, _multiplet_payload([1, 1], [1, -1]), "").failed


def test_error_on_valid_query_fails():
    assert checks.judge(VALID, 1, ERROR_RECORD, "").failed


def test_two_documents_fail():
    two = _multiplet_payload([1], [1]) + "\n" + _multiplet_payload([1], [1])
    assert checks.judge(VALID, 0, two, "").failed


def test_echo_must_match_the_problem_document():
    doc = {"command": "multiplet", "group": "A2", "seed": 7, "trials": 3}
    cmd = checks.Command("problem-doc", ("multiplet", "--problem", "-"),
                         stdin=json.dumps(doc))
    payload = json.loads(_multiplet_payload([1, 1], [1, -1]))
    payload["problem"] = dict(doc, seed=0, trials=20, suite="all")
    assert checks.judge(cmd, 0, json.dumps(payload), "").failed
    payload["problem"] = dict(doc, suite="all")
    assert not checks.judge(cmd, 0, json.dumps(payload), "").failed


def test_broken_identity_is_wrong_not_failed():
    verdict = checks.judge(VALID, 0, _multiplet_payload([3, 1], [1, -1]), "")
    assert verdict.wrong and not verdict.failed
    ok = checks.judge(VALID, 0, _multiplet_payload([3, 3], [1, -1]), "")
    assert not ok.wrong and not ok.failed


def test_branch_must_keep_the_dimension():
    cmd = checks.Command("branch", ("branch", "--group", "A2", "--input", "e^[1,0]"))
    payload = json.dumps({"result": {"terms": [{"coeff": 1}, {"coeff": 2}]}, "dimension": 3})
    assert not checks.judge(cmd, 0, payload, "", branch_dim=3).wrong
    assert checks.judge(cmd, 0, payload, "", branch_dim=4).wrong
    negative = json.dumps({"result": {"terms": [{"coeff": -1}]}, "dimension": 3})
    assert checks.judge(cmd, 0, negative, "", branch_dim=3).wrong


def test_cli_stream_is_seeded():
    assert checks.cli_pass(3, 1) == checks.cli_pass(3, 1)
    assert checks.cli_pass(3, 1) != checks.cli_pass(4, 1)
    kinds = {c.argv[0] for c in checks.cli_pass(0, 0) if not c.malformed}
    assert kinds == {"info", "whset", "induce", "branch", "bwb", "multiplet", "pairing",
                     "spinc", "lefschetz"}
    malformed = {c.kind for i in range(5) for c in checks.cli_pass(0, i) if c.malformed}
    assert malformed == {kind for kind, _ in checks.MALFORMED}


# --- tracing -------------------------------------------------------------------


def test_reuse_ratio_counts_identical_objects_only():
    tracer = tracing.Tracer()
    cached = [1, 2]
    calls = iter([cached, [1, 2], cached, [1, 2]])
    fn = tracer.wrap("charring.weyl_denominator", lambda scope: next(calls))
    for _ in range(4):
        fn(None)
    metrics = tracing.finalize(tracer.raw_stats())
    # the equal but distinct lists are not reuse; the second `cached` is
    assert metrics["charring.weyl_denominator.calls"] == 4
    assert metrics["charring.weyl_denominator.reuse_ratio"] == pytest.approx(0.25)


def test_self_time_excludes_child_spans():
    import time

    tracer = tracing.Tracer()
    inner = tracer.wrap("kernels.convolve", lambda a, b: time.sleep(0.02) or {})
    outer = tracer.wrap("charring.multiply",
                        lambda: (inner({1: 1}, {2: 1, 3: 1}), time.sleep(0.01)))
    outer()
    m = tracing.finalize(tracer.raw_stats())
    assert m["kernels.convolve.work"] == 2
    assert m["charring.multiply.total_s"] >= m["kernels.convolve.total_s"] + 0.009
    assert m["charring.multiply.self_s"] == pytest.approx(
        m["charring.multiply.total_s"] - m["kernels.convolve.total_s"], abs=1e-6)
    assert len(tracer.fid) == 2 and tracer.parent[1] == 0


def test_recursion_is_not_counted_twice_in_total():
    tracer = tracing.Tracer()

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tracer.wrap("induction.divide_exact", fact)
    assert wrapped(4) == 24
    m = tracing.finalize(tracer.raw_stats())
    assert m["induction.divide_exact.calls"] == 5
    assert m["induction.divide_exact.total_s"] == pytest.approx(tracer.end[0] - tracer.start[0])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [m["name"] for m in bench["per_layer"]]
    assert declared == tracing.metric_names() + ["tracing_overhead"]
    assert all(run._layer_unit(m["name"]) == m["unit"] for m in bench["per_layer"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS


# --- traced and untraced runs agree ------------------------------------------------


def test_traced_and_untraced_cli_outputs_have_equal_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SRC", os.path.join(REPO, "src"))
    cmds = [
        checks.Command("info", ("info", "--group", "G2", "--subgroup", "a2long")),
        checks.Command("multiplet", ("multiplet", "--group", "A2", "--input", "e^[1,0]")),
        MALFORMED,
    ]
    digests = []
    for traced in (False, True):
        records = []
        for k, cmd in enumerate(cmds):
            trace_file = str(tmp_path / f"t{k}.json") if traced else None
            _, code, stdout, _ = run.run_command(cmd, trace_file)
            records.append((cmd.argv, cmd.stdin, code, stdout))
        digests.append(checks.canonical_digest(records))
    assert digests[0] == digests[1]
    with open(tmp_path / "t1.json", encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    assert layers["multiplets.multiplet.calls"] == 1
    assert layers["cli.main.calls"] == 1
