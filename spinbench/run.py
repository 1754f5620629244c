#!/usr/bin/env python3
"""The spinduct benchmark: end-to-end and per-layer numbers for three
workloads, each run in fresh processes so spinduct's process-wide caches
start empty and fill during the run, as they do for a user.

    python3 spinbench/run.py --workload verify --seed 0 --seconds 8 --trace 0
    python3 spinbench/run.py --workload all --seed 0          # every workload

Run from the root of a checkout; the benchmark imports spinduct from its
`src` directory. Load is closed loop with one client: one thread and at most
one child process at a time.

Workloads:

* `verify`: rounds of `spinduct.verify.run_suite` over VERIFY_SUITES, one
  fresh process per round at a seed derived from --seed, until --seconds
  have passed (at least MIN_VERIFY_ROUNDS rounds).
* `cli`: a seeded stream of `python -m spinduct.cli` commands, one fresh
  process each, in passes of 33 (all nine query commands over the zoo
  pairs, F4 > B4 branches at three or four weights, B3 > SO(3)xSO(4)
  branches, two `--problem -` documents and four malformed queries; see
  `checks.cli_pass`), until --seconds have passed and at least MIN_SAMPLES
  commands ran.
* `e6`: one fresh process that sets up E6 > A2xA2xA2 from a root list and
  then answers E6_ROUNDS seeded rounds of queries through the CLI entry
  point (about 45 s in all, whatever --seconds says).

End-to-end metrics (--trace 0), every one reported for every workload:
`setup_s`, `wall_s` (the work after setup: the median verify process's
suites, the median cli pass, all e6 queries), `latency_p50_ms` and
`latency_p90_ms` (per operation: a whole verify process, a cli command
process, an e6 query), `cmds_per_s` (operations per second) and
`peak_rss_mb`.

--trace 1 runs the first TRACE_ROUNDS rounds of the workload untraced,
then again with the layer tracer, and reports the per-layer metrics of
`tracing.py` plus `tracing_overhead` (traced wall time / untraced wall
time). Traced and untraced outputs must have equal digests.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `failed` counts operations that gave
no well-formed answer (the known CLI tracebacks and the overwritten
`--problem` seed among them); `correct` is false, and the exit code 1, when
any well-formed answer breaks an identity or a digest differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".spinbench_out")

# the `verify` suites: the full suite takes about 100 s on the pure backend,
# and the multiplets suite alone 5 to 30 s depending on the seed; these take
# 4 to 6 s at every seed, most of it in the kernels
VERIFY_SUITES = ("appendixB", "appendixC", "spinc")
MIN_VERIFY_ROUNDS = 3
# the fewest latency samples per cli run: p90 then has 10 beyond it
MIN_SAMPLES = 100
# e6 query rounds of 12 queries: 144 latency samples and one and a half
# passes over the branch weights, about 13 s; nine rounds (10 s) left the
# run-to-run spread of wall_s near 0.22
E6_ROUNDS = 12
CLI_SETUP_RUNS = 9
# rounds of a --trace 1 run, which does them twice (untraced, then traced):
# two verify processes, one cli pass (with the F4 (1,1,0,1) branch), the e6
# setup plus four query rounds
TRACE_ROUNDS = {"verify": 2, "cli": 1, "e6": 4}
CHILD_TIMEOUT_S = 170
COMMAND_TIMEOUT_S = 60

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cmds_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: List[str] = field(default_factory=list)
    wrong: List[str] = field(default_factory=list)
    digest: str = ""
    busy_s: float = 0.0  # wall time of setup plus work, for tracing_overhead
    layers: Optional[Dict[str, float]] = None
    notes: List[str] = field(default_factory=list)


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(extra or {})
    return env


def run_json_child(argv: List[str]) -> Dict:
    """Run child.py; its JSON output plus `process_s`, the wall time from
    spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), *argv],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:1]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["process_s"] = elapsed
    return out


def latency_metrics(latencies_s: List[float]) -> Dict[str, float]:
    ms = [x * 1e3 for x in latencies_s]
    return {
        "latency_p50_ms": checks.median(ms),
        "latency_p90_ms": checks.percentile(ms, 0.9),
    }


def tail_note(latencies_s: List[float]) -> str:
    n = len(latencies_s)
    if n < 20:
        return f"latency samples: n={n}, too few for a percentile with 10 beyond it"
    q = checks.tail_quantile(n)
    value = checks.percentile([x * 1e3 for x in latencies_s], q)
    return (f"latency samples: n={n}; highest percentile with 10 beyond it: "
            f"p{round(q * 100)} = {value:.1f} ms")


# --- verify ---------------------------------------------------------------------


def run_verify(seed: int, seconds: float, rounds: Optional[int],
               trace_dir: Optional[str]) -> Result:
    res = Result()
    setups, walls, lats, peaks, digests = [], [], [], [], []
    raws = []
    t_start = time.perf_counter()
    i = 0
    while (i < rounds) if rounds is not None else (
        i < MIN_VERIFY_ROUNDS or time.perf_counter() - t_start < seconds
    ):
        argv = ["verify", "--seed", str(seed * 1000 + i), "--suites", ",".join(VERIFY_SUITES)]
        if trace_dir:
            argv += ["--trace-dir", trace_dir]
        out = run_json_child(argv)
        setups.append(out["setup_s"])
        walls.append(out["wall_s"])
        lats.append(out["process_s"])
        peaks.append(out["peak_rss_mb"])
        digests.append(out["digest"])
        res.attempted += out["checks"]
        res.wrong += out["failures"]
        if trace_dir:
            raws.append(out["layers"])
        i += 1
    res.busy_s = sum(setups) + sum(walls)
    res.digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    res.metrics = {
        "setup_s": checks.median(setups),
        "wall_s": checks.median(walls),
        **latency_metrics(lats),
        "cmds_per_s": len(lats) / sum(lats),
        "peak_rss_mb": max(peaks),
    }
    res.notes.append(f"suites {','.join(VERIFY_SUITES)}; {i} rounds, seeds "
                     f"{seed * 1000}..{seed * 1000 + i - 1}; {res.attempted} checks")
    res.notes.append(tail_note(lats))
    if trace_dir:
        res.layers = tracing.merge(raws)
        res.notes.append(_share_note("verify", res.layers, "kernels."))
    return res


# --- cli ------------------------------------------------------------------------


class BranchDimensions:
    """Weyl dimensions of the irreducibles the cli stream branches, computed
    in this process (not in the measured children)."""

    def __init__(self) -> None:
        self._cache: Dict[tuple, int] = {}

    def __call__(self, cmd: checks.Command) -> Optional[int]:
        if cmd.argv[0] != "branch" or cmd.malformed:
            return None
        group = cmd.argv[cmd.argv.index("--group") + 1]
        text = cmd.argv[cmd.argv.index("--input") + 1]
        key = (group, text)
        if key not in self._cache:
            from spinduct import dimension
            from spinduct.charring import GroupElement
            from spinduct.rootdata import RationalWeight
            from spinduct.zoo import parse_group_spec

            datum = parse_group_spec(group)
            w = RationalWeight([int(x) for x in text[3:-1].split(",")])
            self._cache[key] = dimension(GroupElement.from_weights(datum, {w: 1}))
        return self._cache[key]


def run_command(cmd: checks.Command, trace_file: Optional[str]):
    if trace_file:
        entry = [os.path.join(BENCH_DIR, "traced_cli.py")]
        env = child_env({"SPINBENCH_TRACE_FILE": trace_file})
    else:
        entry = ["-m", "spinduct.cli"]
        env = child_env()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *entry, *cmd.argv], input=cmd.stdin or "", capture_output=True,
            text=True, cwd=ROOT, env=env, timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, "", "timeout"
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def run_cli(seed: int, seconds: float, rounds: Optional[int],
            trace_dir: Optional[str]) -> Result:
    res = Result()
    setup = [run_command(checks.Command("setup", ("info", "--group", "A1")), None)
             for _ in range(CLI_SETUP_RUNS)]
    if any(code != 0 for _, code, _, _ in setup):
        res.wrong.append("info --group A1 failed")
    dims = BranchDimensions()
    lats: List[float] = []
    pass_s: List[float] = []
    records = []
    raws, branch_raws = [], []
    t_start = time.perf_counter()
    index = 0
    while (index < rounds) if rounds is not None else (
        len(lats) < MIN_SAMPLES or time.perf_counter() - t_start < seconds
    ):
        t_pass = 0.0
        for k, cmd in enumerate(checks.cli_pass(seed, index)):
            trace_file = os.path.join(trace_dir, f"cli-{index}-{k}.json") if trace_dir else None
            dt, code, stdout, stderr = run_command(cmd, trace_file)
            t_pass += dt
            lats.append(dt)
            records.append((cmd.argv, cmd.stdin, code, stdout))
            res.attempted += 1
            verdict = checks.judge(cmd, code, stdout, stderr, branch_dim=dims(cmd))
            if verdict.failed:
                res.failed.append(f"{cmd.kind}: {verdict.reason}")
            if verdict.wrong:
                res.wrong.append(f"{' '.join(cmd.argv)}: {verdict.reason}")
            if trace_file and os.path.exists(trace_file):
                with open(trace_file, encoding="utf-8") as fh:
                    raw = json.load(fh)["layers"]
                raws.append(raw)
                if cmd.kind.startswith("branch"):
                    branch_raws.append(raw)
        pass_s.append(t_pass)
        index += 1
    res.busy_s = sum(lats)
    res.digest = checks.canonical_digest(records)
    res.metrics = {
        "setup_s": checks.median([s[0] for s in setup]),
        "wall_s": checks.median(pass_s),
        **latency_metrics(lats),
        "cmds_per_s": len(lats) / sum(lats),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    kinds: Dict[str, int] = {}
    for reason in res.failed:
        kinds[reason] = kinds.get(reason, 0) + 1
    res.notes.append(f"{index} passes, {len(lats)} commands; output sha256 {res.digest}")
    res.notes.append(tail_note(lats))
    res.notes.append("failed: " + (json.dumps(kinds, sort_keys=True) if kinds else "none"))
    if trace_dir:
        res.layers = tracing.merge(raws)
        res.notes.append(_top_note("cli branch commands", tracing.merge(branch_raws)))
    return res


# --- e6 -------------------------------------------------------------------------


def run_e6(seed: int, seconds: float, rounds: Optional[int],
           trace_dir: Optional[str]) -> Result:
    """The e6 work is fixed, E6_ROUNDS rounds, and outlasts --seconds."""
    res = Result()
    rounds = E6_ROUNDS if rounds is None else rounds
    argv = ["e6", "--seed", str(seed), "--rounds", str(rounds)]
    if trace_dir:
        argv += ["--trace-dir", trace_dir]
    out = run_json_child(argv)
    res.attempted = out["queries"] + 1  # the setup counts as one operation
    res.failed = out["failed"]
    res.wrong = out["wrong"]
    res.digest = out["digest"]
    wall_s = sum(out["latencies"])
    res.busy_s = out["setup_s"] + wall_s
    res.metrics = {
        "setup_s": out["setup_s"],
        "wall_s": wall_s,
        **latency_metrics(out["latencies"]),
        "cmds_per_s": out["queries"] / wall_s,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    res.notes.append(f"{rounds} rounds, {out['queries']} queries; output sha256 {res.digest}")
    res.notes.append(tail_note(out["latencies"]))
    if trace_dir:
        res.layers = out["layers"]
        setup = out["setup_layers"]
        top = setup["weyl.generate_weyl.self_s"] + setup["kernels.convolve.self_s"]
        res.notes.append(
            f"e6 setup: generate_weyl + convolve self time {top:.2f} s of "
            f"{out['setup_s']:.2f} s ({100 * top / out['setup_s']:.0f} %)"
        )
    return res


# --- reporting ------------------------------------------------------------------


def _self_times(raw: Dict[str, float]) -> Dict[str, float]:
    return {k[: -len(".self_s")]: v for k, v in raw.items() if k.endswith(".self_s")}


def _share_note(label: str, raw: Dict[str, float], prefix: str) -> str:
    selfs = _self_times(raw)
    total = sum(selfs.values())
    part = sum(v for k, v in selfs.items() if k.startswith(prefix))
    return (f"{label}: {prefix}* self time {part:.2f} s of {total:.2f} s traced "
            f"({100 * part / total:.0f} %)" if total else f"{label}: no spans")


def _top_note(label: str, raw: Dict[str, float]) -> str:
    selfs = sorted(_self_times(raw).items(), key=lambda kv: -kv[1])[:3]
    return f"{label}: largest self times " + ", ".join(f"{k} {v:.2f} s" for k, v in selfs)


# cli first: its peak_rss_mb is the largest child this process has waited for
WORKLOADS = {"cli": run_cli, "verify": run_verify, "e6": run_e6}


def git_commit() -> Optional[str]:
    """The checked-out commit, read from `.git` in the checkout (no git
    process, nothing read outside the checkout); None when there is none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> Dict:
    from spinduct import kernels

    return {
        "backend": kernels.backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """One workload run; with `trace`, TRACE_ROUNDS[name] rounds untraced
    and then the same rounds traced."""
    run = WORKLOADS[name]
    if not trace:
        return run(seed, seconds, None, None)
    base = run(seed, seconds, TRACE_ROUNDS[name], None)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_dir = tempfile.mkdtemp(prefix=f"trace-{name}-{seed}-", dir=OUT_DIR)
    traced = run(seed, seconds, TRACE_ROUNDS[name], trace_dir)
    if traced.digest != base.digest:
        traced.wrong.append("traced and untraced outputs differ")
    traced.notes.append(f"spans written to {os.path.relpath(trace_dir, ROOT)}")
    metrics = tracing.finalize(traced.layers)
    metrics["tracing_overhead"] = traced.busy_s / base.busy_s
    traced.metrics = metrics
    return traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spinduct benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinduct", "cli.py")):
        print(f"spinbench: no spinduct sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    print("environment " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failed, correct = 0, 0, True
    metrics: Dict[str, Dict] = {}
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace))
        attempted += res.attempted
        failed += len(res.failed)
        correct = correct and not res.wrong
        print(f"[{name}] attempted {res.attempted}, failed {len(res.failed)} "
              f"(failed_frac {len(res.failed) / res.attempted:.4f}), wrong {len(res.wrong)}")
        for note in res.notes:
            print(f"[{name}] {note}")
        for w in res.wrong[:20]:
            print(f"[{name}] WRONG {w}")
        for key, value in res.metrics.items():
            unit = UNITS.get(key) or _layer_unit(key)
            label = key if len(names) == 1 else f"{name}.{key}"
            print(f"[{name}] {key} = {value:.6g} {unit}")
            metrics[label] = {"value": value, "unit": unit}
        sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(key: str) -> str:
    stat = key.rsplit(".", 1)[-1]
    return {"calls": "count", "self_s": "s", "total_s": "s", "work": "count",
            "reuse_ratio": "ratio", "repeat_ratio": "ratio",
            "tracing_overhead": "ratio"}[stat]


if __name__ == "__main__":
    sys.exit(main())
