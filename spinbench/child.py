"""One fresh benchmark process: a `verify` round or an `e6` run.

Run by `run.py` with the checkout's `src` on PYTHONPATH, so spinduct's
process-wide caches start empty as they do for a user. Prints one JSON
object on stdout. With `--trace-dir DIR` it installs the layer tracer after
import, writes its spans to DIR and adds raw per-layer stats to the output.

    python spinbench/child.py verify --seed 3 --suites appendixC,spinc
    python spinbench/child.py e6 --seed 3 --rounds 12
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

# E6 > A2xA2xA2: the simple roots except the one with mark 3 in the highest
# root, plus the highest root (extended Dynkin diagram minus its centre),
# in simple-root coordinates.
E6_SUBGROUP = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
    (1, 2, 2, 3, 2, 1),
)
E6_WEYL_ORDER = 51840
E6_COSETS = 240
# dominant weights (fundamental-weight coordinates) of E6 irreducibles of
# dimension 27, 27, 78, 351, 351, 351, 650 and 1728
E6_BRANCH = (
    (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0), (2, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1), (1, 1, 0, 0, 0, 0),
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _start_tracer(trace_dir: Optional[str]):
    if not trace_dir:
        return None
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _finish_tracer(tracer, trace_dir: Optional[str], label: str, out: Dict) -> None:
    if tracer is None:
        return
    out["layers"] = tracer.raw_stats()
    out["spans"] = len(tracer.fid)
    tracer.write_spans(os.path.join(trace_dir, f"spans-{label}-{os.getpid()}.jsonl"))


def run_verify(seed: int, suites: List[str], trace_dir: Optional[str]) -> Dict:
    """Setup is the import plus `zoo_problems()`; the work is `run_suite` for
    each listed suite at the seed."""
    import spinduct.verify as verify
    from spinduct.zoo import zoo_problems

    tracer = _start_tracer(trace_dir)
    zoo_problems()
    setup_s = time.perf_counter() - STARTED

    t0 = time.perf_counter()
    results = []
    for name in suites:
        results.extend(verify.run_suite(name, seed))
    wall_s = time.perf_counter() - t0

    digest = hashlib.sha256()
    for r in results:
        digest.update(json.dumps([r.name, r.passed, r.detail, r.counterexample]).encode())
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "checks": len(results),
        "failures": [r.line() for r in results if not r.passed],
        "digest": digest.hexdigest(),
        "peak_rss_mb": _peak_rss_mb(),
    }
    _finish_tracer(tracer, trace_dir, f"verify-{seed}", out)
    return out


def e6_round(seed: int, index: int) -> List[checks.Command]:
    """The seeded query set of one `e6` round, as CLI commands: info, spinc,
    induce of the spinor, six bwb, one branch and two multiplet queries.

    The mix puts the median latency inside the bwb queries and the 90th
    percentile inside the multiplets, so neither sits on the edge between
    two kinds of query. Round i branches weight i mod 8 of a seeded order
    of E6_BRANCH."""
    rng = random.Random(f"e6:{seed}:{index}")
    base = ("--group", "E6", "--subgroup", json.dumps([list(r) for r in E6_SUBGROUP]))
    order = list(E6_BRANCH)
    random.Random(f"e6:{seed}").shuffle(order)
    cmds = [
        checks.Command("info", ("info",) + base),
        checks.Command("spinc", ("spinc",) + base),
        checks.Command("induce", ("induce",) + base + ("--input", "spinor")),
        checks.Command("branch", ("branch",) + base + (
            "--input", checks.monomial(order[index % len(order)]))),
    ]
    for _ in range(6):
        mu = ",".join(str(rng.randint(0, 2)) for _ in range(6))
        cmds.append(checks.Command("bwb", ("bwb",) + base + ("--mu", mu)))
    for _ in range(2):
        cmds.append(checks.Command("multiplet", ("multiplet",) + base + (
            "--input", checks.monomial([rng.randint(0, 1) for _ in range(6)]))))
    return cmds


def _call_cli(main, argv) -> tuple:
    """Run `spinduct.cli.main` in this process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed query, not a crash of the run
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_e6(seed: int, rounds: int, trace_dir: Optional[str]) -> Dict:
    """Setup is the import through `make_problem` on E6 > A2xA2xA2 given as a
    root list; the work is `rounds` seeded rounds of queries through the CLI
    entry point, in this process, against the now warm problem."""
    import spinduct.cli
    from spinduct import dimension
    from spinduct.charring import GroupElement
    from spinduct.induction import make_problem
    from spinduct.rootdata import RationalWeight, build_root_datum, subgroup_from_roots

    tracer = _start_tracer(trace_dir)
    datum = build_root_datum("E6")
    sub = subgroup_from_roots(datum, [datum.root_from_simple_coordinates(r) for r in E6_SUBGROUP])
    problem = make_problem(datum, sub)
    setup_s = time.perf_counter() - STARTED
    out: Dict = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb()}
    if tracer:
        out["setup_layers"] = tracer.raw_stats()

    wrong = []
    if problem.weyl.order != E6_WEYL_ORDER:
        wrong.append(f"|W| = {problem.weyl.order}, expected {E6_WEYL_ORDER}")
    if len(problem.reps.reps) != E6_COSETS:
        wrong.append(f"|W^H| = {len(problem.reps.reps)}, expected {E6_COSETS}")
    branch_dims = {
        w: dimension(GroupElement.from_weights(datum, {RationalWeight(list(w)): 1}))
        for w in E6_BRANCH
    }
    main = spinduct.cli.main
    latencies: List[float] = []
    failed: List[str] = []
    digest = hashlib.sha256()
    for index in range(rounds):
        for cmd in e6_round(seed, index):
            t0 = time.perf_counter()
            code, stdout, stderr = _call_cli(main, cmd.argv)
            latencies.append(time.perf_counter() - t0)
            digest.update(json.dumps([list(cmd.argv), code, stdout]).encode())
            dim = None
            if cmd.kind == "branch":
                w = tuple(int(x) for x in cmd.argv[-1][3:-1].split(","))
                dim = branch_dims[w]
            verdict = checks.judge(cmd, code, stdout, stderr, branch_dim=dim)
            if verdict.failed:
                failed.append(f"{' '.join(cmd.argv[:1])}: {verdict.reason}")
            elif verdict.wrong:
                wrong.append(f"{' '.join(cmd.argv)}: {verdict.reason}")
            elif code == 0:
                wrong.extend(_e6_identities(cmd, json.loads(stdout)))
    out.update({
        "latencies": latencies,
        "queries": len(latencies),
        "failed": failed,
        "wrong": wrong,
        "digest": digest.hexdigest(),
        "peak_rss_mb": _peak_rss_mb(),
    })
    _finish_tracer(tracer, trace_dir, f"e6-{seed}", out)
    return out


def _e6_identities(cmd: checks.Command, doc: Dict) -> List[str]:
    """E6-specific identities beyond the generic payload checks."""
    if cmd.kind == "info":
        d = doc["diagnostics"]
        if (d["weyl_order"], d["coset_count"]) != (E6_WEYL_ORDER, E6_COSETS):
            return [f"info reports |W| = {d['weyl_order']}, |W^H| = {d['coset_count']}"]
    if cmd.kind == "induce":
        terms = doc["result"]["terms"]
        trivial = [{"coeff": 1, "weight": {"den": 1, "num": [0] * 6}}]
        if terms != trivial:
            return [f"induce of the spinor is {terms}, not the trivial class"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("role", choices=["verify", "e6"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--suites", default="")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace-dir", default=None)
    args = ap.parse_args(argv)
    if args.role == "verify":
        out = run_verify(args.seed, [s for s in args.suites.split(",") if s], args.trace_dir)
    else:
        out = run_e6(args.seed, args.rounds, args.trace_dir)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
